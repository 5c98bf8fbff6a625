// ReliabilityIndex: undirected component labels and directed reach counts
// must reproduce the word-parallel flood bit-for-bit, every label must be its
// component's smallest node id, incremental maintenance (relabel where a
// world lost an edge, merge where it only gained) must equal a full rebuild
// bit for bit while touching only the affected worlds (none for a directed
// index, which holds no labels), and the directed count-row cache must hold
// one n-count row per source and evict without changing answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/uncertain_graph.h"
#include "index/reliability_index.h"
#include "sampling/bitlane.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

UncertainGraph RandomGraph(uint64_t seed, NodeId n, double density,
                           bool directed) {
  Rng rng(seed);
  UncertainGraph g =
      directed ? UncertainGraph::Directed(n) : UncertainGraph::Undirected(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (rng.NextBernoulli(density)) {
        EXPECT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.05, 0.95)).ok());
      }
    }
  }
  return g;
}

std::vector<uint64_t> FloodRow(const WorldBank& bank, NodeId s, NodeId t) {
  bitlane::BitMatrix reach;
  bank.ReachabilityFixpoint(s, /*backward=*/false, bank.AllEdges(), &reach);
  const std::span<const uint64_t> row = reach.row_span(t);
  return std::vector<uint64_t>(row.begin(), row.end());
}

// Worlds whose edge set differs between the banks, by brute force: the XOR
// of every row both banks hold, plus every row only one of them holds.
std::vector<uint64_t> XorAllRows(const WorldBank& a, const WorldBank& b) {
  std::vector<uint64_t> mask(a.world_words(), 0);
  for (size_t e = 0; e < std::max(a.num_edges(), b.num_edges()); ++e) {
    for (size_t w = 0; w < mask.size(); ++w) {
      const EdgeId id = static_cast<EdgeId>(e);
      const uint64_t in_a = e < a.num_edges() ? a.EdgeUpWorlds(id)[w] : 0;
      const uint64_t in_b = e < b.num_edges() ? b.EdgeUpWorlds(id)[w] : 0;
      mask[w] |= in_a ^ in_b;
    }
  }
  return mask;
}

// Node v's label in world w, read back from the planes.
NodeId LabelOf(const ReliabilityIndex& index, NodeId v, int w) {
  const size_t world_words = (static_cast<size_t>(index.num_worlds()) + 63) / 64;
  const std::span<const uint64_t> words = index.label_words();
  NodeId label = 0;
  for (int b = 0; b < index.label_bits(); ++b) {
    const size_t row = static_cast<size_t>(v) * index.label_bits() + b;
    const uint64_t word = words[row * world_words + (w >> 6)];
    label |= static_cast<NodeId>((word >> (w & 63)) & 1) << b;
  }
  return label;
}

// Every label of `index` is the smallest node id of its component, checked
// world by world against a BFS over the bank's up edges.
void ExpectMinIdLabels(const ReliabilityIndex& index, const WorldBank& bank,
                       const std::string& what) {
  const UncertainGraph& g = bank.universe();
  const std::vector<Edge>& edges = g.EdgesById();
  for (int w = 0; w < bank.num_worlds(); ++w) {
    std::vector<std::vector<NodeId>> adjacent(g.num_nodes());
    for (size_t e = 0; e < bank.num_edges(); ++e) {
      if (!bank.EdgePresent(w, static_cast<EdgeId>(e))) continue;
      adjacent[edges[e].src].push_back(edges[e].dst);
      adjacent[edges[e].dst].push_back(edges[e].src);
    }
    std::vector<NodeId> component(g.num_nodes(), kInvalidNode);
    for (NodeId root = 0; root < g.num_nodes(); ++root) {
      if (component[root] != kInvalidNode) continue;
      // Ascending roots: the first node to reach a component is its minimum.
      std::vector<NodeId> queue{root};
      component[root] = root;
      for (size_t head = 0; head < queue.size(); ++head) {
        for (NodeId next : adjacent[queue[head]]) {
          if (component[next] != kInvalidNode) continue;
          component[next] = root;
          queue.push_back(next);
        }
      }
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(LabelOf(index, v, w), component[v])
          << what << ": world " << w << " node " << v;
    }
  }
}

void ExpectSameLabelWords(const ReliabilityIndex& got,
                          const ReliabilityIndex& want,
                          const std::string& what) {
  ASSERT_EQ(got.label_bits(), want.label_bits()) << what;
  const std::span<const uint64_t> a = got.label_words();
  const std::span<const uint64_t> b = want.label_words();
  ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << what;
}

TEST(ReliabilityIndexTest, ConnectedWorldsMatchFloodBitwise) {
  for (const bool directed : {false, true}) {
    // 200 worlds: 4 words with a partial tail, so tail masking is exercised.
    const UncertainGraph g = RandomGraph(101, 13, 0.2, directed);
    const WorldBank bank(g, {.num_samples = 200, .seed = 5});
    ReliabilityIndex index(bank, {});
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        EXPECT_EQ(index.ConnectedWorlds(s, t), FloodRow(bank, s, t))
            << "directed = " << directed << " (" << s << ", " << t << ")";
      }
    }
  }
}

TEST(ReliabilityIndexTest, QueryEqualsConnectedFraction) {
  const UncertainGraph g = RandomGraph(103, 10, 0.3, false);
  const WorldBank bank(g, {.num_samples = 128, .seed = 9});
  ReliabilityIndex index(bank, {});
  for (NodeId t = 1; t < g.num_nodes(); ++t) {
    EXPECT_EQ(index.Query(0, t),
              bank.ConnectedFraction(0, t, bank.AllEdges(), {}))
        << "t = " << t;
  }
}

TEST(ReliabilityIndexTest, LabelsAreThreadInvariant) {
  const UncertainGraph g = RandomGraph(107, 12, 0.25, true);
  const WorldBank bank(g, {.num_samples = 320, .seed = 11});
  ReliabilityIndex one(bank, {.num_threads = 1});
  ReliabilityIndex four(bank, {.num_threads = 4});
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(one.ConnectedWorlds(s, t), four.ConnectedWorlds(s, t));
    }
  }
}

TEST(ReliabilityIndexTest, StronglyConnectedWorldFloodsOncePerSource) {
  // A certain 3-cycle connects every pair in every world. A directed index
  // holds no labels, so each source floods once and its row answers every
  // target.
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, 1.0).ok());
  const WorldBank bank(g, {.num_samples = 96, .seed = 3});
  ReliabilityIndex index(bank, {});
  for (NodeId s = 0; s < 3; ++s) {
    for (NodeId t = 0; t < 3; ++t) {
      EXPECT_DOUBLE_EQ(index.Query(s, t), 1.0);
    }
  }
  EXPECT_EQ(index.stats().reach_floods, 3u);
}

TEST(ReliabilityIndexTest, DeriveMaskFindsExactlyTheChangedWorlds) {
  UncertainGraph g = RandomGraph(109, 8, 0.4, false);
  const WorldBank before(g, {.num_samples = 200, .seed = 21});
  const Edge edge = g.EdgesById()[1];
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, edge.prob * 0.5).ok());
  WorldBank::Delta delta;
  const WorldBank after(before, g, {.num_samples = 200, .seed = 21}, &delta);
  const std::vector<uint64_t>& mask = delta.changed;

  EXPECT_EQ(mask, XorAllRows(before, after));
  EXPECT_EQ(delta.redrawn, std::vector<EdgeId>{1});
  // Lowering p only takes the edge away: every changed world lost it.
  EXPECT_EQ(delta.lost, mask);
  for (int w = 0; w < 200; ++w) {
    bool differs = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (before.EdgePresent(w, e) != after.EdgePresent(w, e)) differs = true;
    }
    EXPECT_EQ(((mask[w >> 6] >> (w & 63)) & 1) != 0, differs) << "w = " << w;
  }
  // Only the updated edge's row is redrawn, and halving p keeps exactly the
  // worlds whose uniform is below the new threshold: some but not all worlds
  // flip, and every flipped world lost the edge.
  const int64_t affected = WorldBank::CountBits(mask, 200);
  EXPECT_GT(affected, 0);
  EXPECT_LT(affected, 200);
  for (int w = 0; w < 200; ++w) {
    if ((mask[w >> 6] >> (w & 63)) & 1) {
      EXPECT_TRUE(before.EdgePresent(w, 1) && !after.EdgePresent(w, 1))
          << "w = " << w;
    }
  }
}

TEST(ReliabilityIndexTest, ApplyBankUpdateEqualsFullRebuild) {
  for (const bool directed : {false, true}) {
    UncertainGraph g = RandomGraph(113, 10, 0.3, directed);
    const WorldBank before(g, {.num_samples = 256, .seed = 13});
    ReliabilityIndex incremental(before, {});

    const Edge edge = g.EdgesById()[0];
    ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, edge.prob * 0.6).ok());
    WorldBank::Delta delta;
    const WorldBank after(before, g, {.num_samples = 256, .seed = 13}, &delta);
    const std::vector<uint64_t>& mask = delta.changed;
    EXPECT_EQ(mask, XorAllRows(before, after));
    EXPECT_EQ(delta.lost, mask);  // p went down: the union-find path
    incremental.ApplyBankUpdate(after, delta);
    EXPECT_EQ(incremental.stats().incremental_updates, 1u);
    // A directed index holds no labels: the update only swaps the bank.
    EXPECT_EQ(incremental.stats().last_update_worlds,
              directed ? 0u
                       : static_cast<size_t>(WorldBank::CountBits(mask, 256)));
    EXPECT_LT(incremental.stats().last_update_worlds, 256u);

    ReliabilityIndex rebuilt(after, {});
    ExpectSameLabelWords(incremental, rebuilt, "update down");
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        EXPECT_EQ(incremental.ConnectedWorlds(s, t),
                  rebuilt.ConnectedWorlds(s, t))
            << "directed = " << directed << " (" << s << ", " << t << ")";
      }
    }
  }
}

TEST(ReliabilityIndexTest, ApplyBankUpdateHandlesAppendedEdges) {
  UncertainGraph g = RandomGraph(127, 9, 0.25, false);
  const WorldBank before(g, {.num_samples = 192, .seed = 17});
  ReliabilityIndex incremental(before, {});

  NodeId u = 0, v = 1;
  while (g.HasEdge(u, v)) {
    if (++v == g.num_nodes()) {
      ++u;
      v = u + 1;
    }
  }
  ASSERT_TRUE(g.AddEdge(u, v, 0.5).ok());
  WorldBank::Delta delta;
  const WorldBank after(before, g, {.num_samples = 192, .seed = 17}, &delta);
  const std::vector<uint64_t>& mask = delta.changed;
  // Appending redraws no existing row: the changed worlds are exactly those
  // the new edge is up in, and none lost an edge (the merge path).
  EXPECT_EQ(mask, XorAllRows(before, after));
  const EdgeId added = static_cast<EdgeId>(g.num_edges() - 1);
  const std::span<const uint64_t> added_row = after.EdgeUpWorlds(added);
  EXPECT_EQ(mask, std::vector<uint64_t>(added_row.begin(), added_row.end()));
  EXPECT_EQ(delta.lost, std::vector<uint64_t>(mask.size(), 0));
  EXPECT_EQ(delta.redrawn, std::vector<EdgeId>{added});
  incremental.ApplyBankUpdate(after, delta);
  EXPECT_EQ(incremental.stats().last_update_worlds,
            static_cast<size_t>(WorldBank::CountBits(mask, 192)));

  ReliabilityIndex rebuilt(after, {});
  ExpectSameLabelWords(incremental, rebuilt, "addedge");
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(incremental.ConnectedWorlds(s, t),
                rebuilt.ConnectedWorlds(s, t));
    }
  }
}

// Regression: ApplyBankUpdate drops the directed reach cache (its rows mixed
// pre-update worlds), so the reach_* counters must reset with it. They used
// to carry over, making an incremental engine report floods that served the
// previous bank — over-counted relative to a fresh build.
TEST(ReliabilityIndexTest, ApplyBankUpdateResetsReachCacheStats) {
  UncertainGraph g = RandomGraph(139, 10, 0.3, true);
  const WorldBank before(g, {.num_samples = 256, .seed = 29});
  ReliabilityIndex incremental(before, {});
  // Populate the reach cache from several sources pre-update.
  for (NodeId s = 0; s < 5; ++s) incremental.Query(s, g.num_nodes() - 1);
  ASSERT_GT(incremental.stats().reach_floods, 0u);

  const Edge edge = g.EdgesById()[0];
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, edge.prob * 0.7).ok());
  WorldBank::Delta delta;
  const WorldBank after(before, g, {.num_samples = 256, .seed = 29}, &delta);
  incremental.ApplyBankUpdate(after, delta);
  EXPECT_EQ(incremental.stats().reach_floods, 0u);
  EXPECT_EQ(incremental.stats().reach_rows_cached, 0u);
  EXPECT_EQ(incremental.stats().reach_row_evictions, 0u);
  EXPECT_EQ(incremental.reach_cache_bytes(), 0u);

  // After identical query traffic, the incremental index's reach counters
  // match a fresh build's exactly — stats describe the current bank only.
  ReliabilityIndex rebuilt(after, {});
  for (NodeId s = 0; s < 5; ++s) {
    EXPECT_EQ(incremental.Query(s, g.num_nodes() - 1),
              rebuilt.Query(s, g.num_nodes() - 1));
  }
  EXPECT_EQ(incremental.stats().reach_floods, rebuilt.stats().reach_floods);
  EXPECT_EQ(incremental.stats().reach_rows_cached,
            rebuilt.stats().reach_rows_cached);
}

TEST(ReliabilityIndexTest, LabelsAreSmallestNodeIdOfComponent) {
  // Sparse graphs keep several components per world, so labels other than 0
  // and merges of two nonzero labels both occur.
  for (const uint64_t seed : {151, 157, 163}) {
    UncertainGraph g = RandomGraph(seed, 11, 0.12, false);
    const WorldBank::Options options{.num_samples = 130, .seed = seed};
    auto bank = std::make_unique<WorldBank>(g, options);
    ReliabilityIndex index(*bank, {});
    ExpectMinIdLabels(index, *bank, "fresh build");
    // Maintained labels keep the contract: two appended edges (merges) and
    // an update down (union-find).
    const Edge first = g.EdgesById()[0];
    ASSERT_TRUE(g.UpdateEdgeProb(first.src, first.dst, first.prob / 2).ok());
    for (NodeId u : {NodeId{0}, NodeId{5}}) {
      NodeId v = u + 1;
      while (g.HasEdge(u, v)) ++v;
      ASSERT_TRUE(g.AddEdge(u, v, 0.6).ok());
    }
    WorldBank::Delta delta;
    auto next = std::make_unique<WorldBank>(*bank, g, options, &delta);
    index.ApplyBankUpdate(*next, delta);
    bank = std::move(next);
    ExpectMinIdLabels(index, *bank, "after three writes");
  }
}

// The label contract that makes merges exact: after every write of a long
// mixed sequence, the incrementally maintained planes equal a fresh build's
// over the same bank, word for word, at any relabel lane count.
TEST(ReliabilityIndexTest, IncrementalLabelsEqualFreshBuildBitwise) {
  struct Write {
    NodeId u, v;
    double p;
  };
  for (const int threads : {1, 4}) {
    for (const uint64_t seed : {167, 173}) {
      UncertainGraph g = RandomGraph(seed, 16, 0.15, false);
      // 200 worlds: three full words and a partial tail word.
      const WorldBank::Options options{.num_samples = 200, .seed = seed};
      auto bank = std::make_unique<WorldBank>(g, options);
      ReliabilityIndex index(*bank, {.num_threads = threads});
      // Updates to and from the no-draw probabilities 0 and 1 (down, up,
      // up, down), then a random mix of updates down, updates up and
      // appended edges.
      const Edge pinned = g.EdgesById()[2];
      std::vector<Write> writes = {{pinned.src, pinned.dst, 0.0},
                                   {pinned.src, pinned.dst, 0.7},
                                   {pinned.src, pinned.dst, 1.0},
                                   {pinned.src, pinned.dst, 0.3}};
      Rng rng(seed + 1);
      int downs = 0, ups = 0, appends = 0;
      while (writes.size() < 24) {
        NodeId u = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
        NodeId v = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
        if (rng.NextBernoulli(0.5)) {  // an existing edge: an update
          const Edge& edge = g.EdgesById()[rng.NextUint64(g.num_edges())];
          u = edge.src;
          v = edge.dst;
        }
        if (u == v) continue;
        writes.push_back({u, v, rng.NextDouble(0.05, 0.95)});
      }
      for (size_t i = 0; i < writes.size(); ++i) {
        const Write& w = writes[i];
        const std::optional<EdgeId> existing = g.EdgeIndexOf(w.u, w.v);
        if (existing.has_value()) {
          const double old_p = g.EdgeProbs()[*existing];
          (w.p < old_p ? downs : ups) += 1;
          ASSERT_TRUE(g.UpdateEdgeProb(w.u, w.v, w.p).ok());
        } else {
          ++appends;
          ASSERT_TRUE(g.AddEdge(w.u, w.v, w.p).ok());
        }
        WorldBank::Delta delta;
        auto next = std::make_unique<WorldBank>(*bank, g, options, &delta);
        index.ApplyBankUpdate(*next, delta);
        bank = std::move(next);
        const ReliabilityIndex fresh(*bank, {.num_threads = threads});
        ExpectSameLabelWords(index, fresh,
                             "threads " + std::to_string(threads) + " seed " +
                                 std::to_string(seed) + " write " +
                                 std::to_string(i));
      }
      EXPECT_GE(downs, 3);
      EXPECT_GE(ups, 3);
      EXPECT_GE(appends, 3);
    }
  }
}

TEST(ReliabilityIndexTest, ReachRowCacheEvictsWithoutChangingAnswers) {
  const UncertainGraph g = RandomGraph(131, 12, 0.25, true);
  const WorldBank bank(g, {.num_samples = 128, .seed = 19});
  // Cap the cache at two count rows (n uint32_t counts each), so sweeping
  // all sources must evict and flood evicted sources again.
  ReliabilityIndex::Options options;
  options.max_reach_bytes = 2 * g.num_nodes() * sizeof(uint32_t);
  ReliabilityIndex index(bank, options);
  // The second sweep finds every source evicted again.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        const int64_t worlds = WorldBank::CountBits(FloodRow(bank, s, t), 128);
        EXPECT_EQ(index.Query(s, t), static_cast<double>(worlds) / 128)
            << "sweep " << sweep << " (" << s << ", " << t << ")";
      }
    }
  }
  EXPECT_EQ(index.stats().reach_floods, 2u * g.num_nodes());
  EXPECT_GT(index.stats().reach_row_evictions, 0u);
  EXPECT_LE(index.reach_cache_bytes(), options.max_reach_bytes);
}

// With the default cap, every source of a small directed graph stays
// cached, and the cache holds exactly one n-count row per source.
TEST(ReliabilityIndexTest, ReachCacheHoldsOneCountRowPerSource) {
  const UncertainGraph g = RandomGraph(149, 30, 0.1, true);
  const WorldBank bank(g, {.num_samples = 700, .seed = 31});
  ReliabilityIndex index(bank, {});
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    index.Query(s, (s * 7) % g.num_nodes());
  }
  const ReliabilityIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.reach_rows_cached, g.num_nodes());
  EXPECT_EQ(stats.reach_floods, g.num_nodes());
  EXPECT_EQ(stats.reach_row_evictions, 0u);
  EXPECT_EQ(index.reach_cache_bytes(),
            stats.reach_rows_cached * g.num_nodes() * sizeof(uint32_t));
}

TEST(ReliabilityIndexTest, FitsAndFootprint) {
  const UncertainGraph g = RandomGraph(137, 100, 0.05, false);
  // 100 nodes -> 7 label bits; 128 worlds -> 2 words.
  EXPECT_EQ(ReliabilityIndex::LabelBytes(g, 128), 100u * 7u * 2u * 8u);
  ReliabilityIndex::Options roomy;
  EXPECT_TRUE(ReliabilityIndex::Fits(g, 128, roomy));
  ReliabilityIndex::Options tight;
  tight.max_label_bytes = 100;
  EXPECT_FALSE(ReliabilityIndex::Fits(g, 128, tight));

  const WorldBank bank(g, {.num_samples = 128, .seed = 23});
  ReliabilityIndex index(bank, roomy);
  EXPECT_EQ(index.label_bytes(), ReliabilityIndex::LabelBytes(g, 128));
  EXPECT_EQ(index.label_bits(), 7);

  // A directed index is a reach-row cache: no planes, so it fits any cap.
  const UncertainGraph dg = RandomGraph(137, 100, 0.05, true);
  EXPECT_TRUE(ReliabilityIndex::Fits(dg, 128, tight));
  const WorldBank directed_bank(dg, {.num_samples = 128, .seed = 23});
  ReliabilityIndex directed_index(directed_bank, tight);
  EXPECT_EQ(directed_index.label_bytes(), 0u);
  EXPECT_EQ(directed_index.label_bits(), 0);
  EXPECT_EQ(directed_index.stats().worlds_relabeled, 0u);
}

TEST(ReliabilityIndexTest, TrivialGraphs) {
  // Single node: zero label bits, every world trivially connects s to s.
  const UncertainGraph lonely = UncertainGraph::Directed(1);
  const WorldBank lonely_bank(lonely, {.num_samples = 70, .seed = 1});
  ReliabilityIndex lonely_index(lonely_bank, {});
  EXPECT_EQ(lonely_index.label_bits(), 0);
  EXPECT_DOUBLE_EQ(lonely_index.Query(0, 0), 1.0);

  // Edgeless graph: nothing connects, self-queries stay certain.
  const UncertainGraph empty = UncertainGraph::Undirected(5);
  const WorldBank empty_bank(empty, {.num_samples = 64, .seed = 2});
  ReliabilityIndex empty_index(empty_bank, {});
  EXPECT_DOUBLE_EQ(empty_index.Query(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(empty_index.Query(3, 3), 1.0);
}

}  // namespace
}  // namespace relmax
