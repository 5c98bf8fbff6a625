// WorldBank: the shared possible-world bit-matrix behind reuse_worlds. The
// bank must be bit-identical for any fill thread count, its estimates must
// track the exact factoring oracle, the word-parallel reachability fixpoint
// must agree with per-world brute force, and the answers must be
// bit-identical across lane kernels (scalar vs blocked/SIMD) — the
// (threads, lane-width)-invariance determinism contract. Every bit is a pure
// function of (seed, edge, world, p_e): the bit-sliced draw equals a scalar
// compare, an update touches only its own row, and a bank derived across
// writes equals a fresh fill bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/datasets.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"
#include "sampling/bitlane.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

UncertainGraph DiamondGraph() {
  // s=0 -> {1, 2} -> t=3, all edges 0.5, plus a direct 0->3 edge at 0.2.
  UncertainGraph g = UncertainGraph::Directed(4);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 3, 0.2).ok());
  return g;
}

UncertainGraph BridgeGraph() {
  // Two triangles joined by a bridge edge 2-3 (undirected).
  UncertainGraph g = UncertainGraph::Undirected(6);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(3, 4, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(4, 5, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(3, 5, 0.7).ok());
  return g;
}

std::vector<uint64_t> ToVec(std::span<const uint64_t> bits) {
  return std::vector<uint64_t>(bits.begin(), bits.end());
}

std::vector<uint64_t> Row(const bitlane::BitMatrix& m, NodeId v) {
  return ToVec(m.row_span(v));
}

TEST(WorldBankTest, BitMatrixIdenticalAcrossThreadCounts) {
  const UncertainGraph g = BridgeGraph();
  WorldBank reference(g, {.num_samples = 1000, .seed = 7, .num_threads = 1});
  for (int threads : {2, 8}) {
    WorldBank bank(g, {.num_samples = 1000, .seed = 7,
                       .num_threads = threads});
    for (size_t e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(ToVec(bank.EdgeUpWorlds(static_cast<EdgeId>(e))),
                ToVec(reference.EdgeUpWorlds(static_cast<EdgeId>(e))))
          << "edge " << e << " threads " << threads;
    }
  }
}

// The determinism contract of this PR's kernel rewrite: flood answers are
// bit-identical across fill thread counts AND across lane kernels, for
// directed and undirected graphs, at a Z that is not a multiple of 64 (so
// the tail word and the lane-block padding are both exercised).
TEST(WorldBankTest, FloodBitsInvariantAcrossLaneModeAndThreads) {
  const UncertainGraph graphs[] = {DiamondGraph(), BridgeGraph()};
  for (const UncertainGraph& g : graphs) {
    // 500 % 64 != 0: the last logical word is a tail, and 500 bits also
    // leave whole pad words inside the 512-bit lane block.
    bitlane::BitMatrix expected;
    {
      bitlane::ScopedLaneMode set(bitlane::LaneMode::kBranchFree);
      WorldBank bank(g, {.num_samples = 500, .seed = 29, .num_threads = 1});
      bank.ReachabilityFixpoint(0, /*backward=*/false, bank.AllEdges(),
                                &expected);
    }
    for (int threads : {1, 4}) {
      for (bitlane::LaneMode mode :
           {bitlane::LaneMode::kScalar, bitlane::LaneMode::kBranchFree}) {
        bitlane::ScopedLaneMode set(mode);
        WorldBank bank(g,
                       {.num_samples = 500, .seed = 29,
                        .num_threads = threads});
        bitlane::BitMatrix reach;
        bank.ReachabilityFixpoint(0, /*backward=*/false, bank.AllEdges(),
                                  &reach);
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(Row(reach, v), Row(expected, v))
              << "node " << v << " threads " << threads << " mode "
              << bitlane::ModeName(mode)
              << (g.directed() ? " directed" : " undirected");
        }
        // Tail bits beyond num_worlds stay clear in every row.
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          EXPECT_EQ(WorldBank::CountBits(reach.row_span(v),
                                         static_cast<size_t>(
                                             bank.num_worlds())),
                    WorldBank::CountBits(reach.row_span(v),
                                         64 * bank.world_words()))
              << "node " << v;
        }
      }
    }
  }
}

// Frontier regression: a converged scratch re-run under kSeedsAreFacts must
// touch its seeded blocks once and propagate nothing.
TEST(WorldBankTest, ConvergedStateNeedsZeroExtraPropagation) {
  for (const UncertainGraph& g : {DiamondGraph(), BridgeGraph()}) {
    WorldBank bank(g, {.num_samples = 500, .seed = 31, .num_threads = 1});
    const std::vector<EdgeId> active = bank.AllEdges();
    bitlane::BitMatrix reach;
    const int64_t first =
        bank.ReachabilityFixpoint(0, /*backward=*/false, active, &reach);
    EXPECT_GT(first, 0);
    const int64_t again =
        bank.ReachabilityFixpoint(0, /*backward=*/false, active, &reach,
                                  WorldBank::SeedPolicy::kSeedsAreFacts);
    EXPECT_EQ(again, 0) << (g.directed() ? "directed" : "undirected");
  }
}

TEST(WorldBankTest, ConnectedFractionTracksExactOracle) {
  const UncertainGraph diamond = DiamondGraph();
  const UncertainGraph bridge = BridgeGraph();
  WorldBank diamond_bank(diamond,
                         {.num_samples = 60000, .seed = 3, .num_threads = 4});
  WorldBank bridge_bank(bridge,
                        {.num_samples = 60000, .seed = 5, .num_threads = 4});
  EXPECT_NEAR(
      diamond_bank.ConnectedFraction(0, 3, diamond_bank.AllEdges(), {}),
      ExactReliabilityFactoring(diamond, 0, 3).value(), 0.01);
  EXPECT_NEAR(
      bridge_bank.ConnectedFraction(0, 5, bridge_bank.AllEdges(), {}),
      ExactReliabilityFactoring(bridge, 0, 5).value(), 0.01);
}

TEST(WorldBankTest, EdgeFrequenciesMatchProbabilities) {
  const UncertainGraph g = DiamondGraph();
  WorldBank bank(g, {.num_samples = 40000, .seed = 11, .num_threads = 2});
  for (size_t e = 0; e < g.num_edges(); ++e) {
    const int64_t up = WorldBank::CountBits(
        bank.EdgeUpWorlds(static_cast<EdgeId>(e)),
        static_cast<size_t>(bank.num_worlds()));
    EXPECT_NEAR(static_cast<double>(up) / bank.num_worlds(),
                g.EdgeById(static_cast<EdgeId>(e)).prob, 0.01)
        << "edge " << e;
  }
}

TEST(WorldBankTest, WorldsWithAllEdgesMatchesPerWorldScan) {
  const UncertainGraph g = BridgeGraph();
  WorldBank bank(g, {.num_samples = 500, .seed = 13, .num_threads = 1});
  const std::vector<EdgeId> subset = {0, 1, 3};  // arbitrary edge subset
  const std::vector<uint64_t> up = bank.WorldsWithAllEdges(subset);
  for (int w = 0; w < bank.num_worlds(); ++w) {
    bool all = true;
    for (EdgeId e : subset) all = all && bank.EdgePresent(w, e);
    EXPECT_EQ((up[w / 64] >> (w % 64)) & 1u, all ? 1u : 0u) << "world " << w;
  }
  // Guard bits beyond num_worlds must stay clear (500 is not a multiple of
  // 64, so the last word has a tail).
  EXPECT_EQ(WorldBank::CountBits(up, static_cast<size_t>(bank.num_worlds())),
            WorldBank::CountBits(up, 64 * up.size()));
}

// Per-world reference for a flood with facts: the nodes reachable in world
// w from `source` or from any node whose `facts` row has world w set, over
// the `active` edges that are up in w, against arc direction if `backward`.
std::vector<char> BruteForceReach(const WorldBank& bank,
                                  const UncertainGraph& g, int w,
                                  NodeId source, bool backward,
                                  const std::vector<char>& edge_active,
                                  const bitlane::BitMatrix& facts) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> queue;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == source || ((facts.row(v)[w / 64] >> (w % 64)) & 1)) {
      seen[v] = 1;
      queue.push_back(v);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const auto arcs = backward && g.directed() ? g.InArcs(u) : g.OutArcs(u);
    for (const Arc& arc : arcs) {
      if (!edge_active[arc.edge_id] || !bank.EdgePresent(w, arc.edge_id) ||
          seen[arc.to]) {
        continue;
      }
      seen[arc.to] = 1;
      queue.push_back(arc.to);
    }
  }
  return seen;
}

TEST(WorldBankTest, ReachabilityFixpointMatchesPerWorldBfs) {
  for (const UncertainGraph& g : {DiamondGraph(), BridgeGraph()}) {
    const NodeId t = g.num_nodes() - 1;
    WorldBank bank(g, {.num_samples = 300, .seed = 17, .num_threads = 1});
    // Exercise a strict subset of edges too, not just the full universe.
    std::vector<EdgeId> partial;
    for (size_t e = 0; e + 1 < g.num_edges(); ++e) {
      partial.push_back(static_cast<EdgeId>(e));
    }
    const bitlane::BitMatrix no_facts(g.num_nodes(), bank.world_words());
    for (const std::vector<EdgeId>& active : {bank.AllEdges(), partial}) {
      std::vector<char> edge_active(g.num_edges(), 0);
      for (EdgeId e : active) edge_active[e] = 1;
      bitlane::BitMatrix reach;
      bank.ReachabilityFixpoint(0, /*backward=*/false, active, &reach);
      for (int w = 0; w < bank.num_worlds(); ++w) {
        const std::vector<char> expected = BruteForceReach(
            bank, g, w, 0, /*backward=*/false, edge_active, no_facts);
        EXPECT_EQ((reach.row(t)[w / 64] >> (w % 64)) & 1u,
                  expected[t] ? 1u : 0u)
            << "world " << w << " |active| = " << active.size();
      }
    }
  }
}

TEST(WorldBankTest, BackwardFixpointMatchesForwardOnTranspose) {
  // reach-to-t on g computed backward must equal reach-from-t forward with
  // every arc direction ignored for undirected graphs; for the directed
  // diamond, backward reach from t marks exactly the nodes that can reach t.
  const UncertainGraph g = DiamondGraph();
  WorldBank bank(g, {.num_samples = 300, .seed = 19, .num_threads = 1});
  bitlane::BitMatrix to_t;
  bank.ReachabilityFixpoint(3, /*backward=*/true, bank.AllEdges(), &to_t);
  bitlane::BitMatrix from_s;
  bank.ReachabilityFixpoint(0, /*backward=*/false, bank.AllEdges(), &from_s);
  // s-t connectivity is symmetric between the two sweeps.
  EXPECT_EQ(Row(to_t, 0), Row(from_s, 3));
}

TEST(WorldBankTest, SeededReachIsKeptAndSound) {
  // Pre-seeded bits (the selection fast path: worlds where a whole path is
  // up) must be preserved under kSeedsAreFacts and must not change the final
  // connected count.
  const UncertainGraph g = DiamondGraph();
  WorldBank bank(g, {.num_samples = 4096, .seed = 21, .num_threads = 1});
  const std::vector<EdgeId> active = bank.AllEdges();

  bitlane::BitMatrix plain;
  bank.ReachabilityFixpoint(0, /*backward=*/false, active, &plain);

  // Edges 0+2 form the path 0-1-3; edge 4 is the direct 0->3 edge.
  bitlane::BitMatrix seeded(g.num_nodes(), bank.world_words());
  const std::vector<uint64_t> path = bank.WorldsWithAllEdges({0, 2});
  const std::vector<uint64_t> direct = bank.WorldsWithAllEdges({4});
  uint64_t* const at_t = seeded.row(3);
  for (size_t i = 0; i < path.size(); ++i) at_t[i] = path[i] | direct[i];
  bank.ReachabilityFixpoint(0, /*backward=*/false, active, &seeded,
                            WorldBank::SeedPolicy::kSeedsAreFacts);

  EXPECT_EQ(Row(seeded, 3), Row(plain, 3));
}

TEST(WorldBankTest, ReusedScratchIsWipedByDefault) {
  // Regression: a size-matched scratch reused across sources used to keep
  // the previous flood's bits as "facts", silently inflating the next
  // answer. The kernel now wipes non-source rows itself under the default
  // policy — callers need no clear() between sources.
  const UncertainGraph g = DiamondGraph();
  WorldBank bank(g, {.num_samples = 512, .seed = 23, .num_threads = 1});
  const std::vector<EdgeId> active = bank.AllEdges();

  bitlane::BitMatrix fresh;
  bank.ReachabilityFixpoint(2, /*backward=*/false, active, &fresh);

  bitlane::BitMatrix reused;
  // First flood from the well-connected source 0 sets bits everywhere…
  bank.ReachabilityFixpoint(0, /*backward=*/false, active, &reused);
  // …which must not leak into a subsequent flood from source 2.
  bank.ReachabilityFixpoint(2, /*backward=*/false, active, &reused);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(Row(reused, v), Row(fresh, v)) << "node " << v;
  }

  // Opting in keeps the seeds, growing reachability monotonically (the
  // greedy BeginRound contract).
  bitlane::BitMatrix seeded;
  bank.ReachabilityFixpoint(0, /*backward=*/false, active, &seeded);
  const std::vector<uint64_t> from_zero = Row(seeded, 3);
  bank.ReachabilityFixpoint(2, /*backward=*/false, active, &seeded,
                            WorldBank::SeedPolicy::kSeedsAreFacts);
  for (size_t w = 0; w < bank.world_words(); ++w) {
    EXPECT_EQ(seeded.row(3)[w] & from_zero[w], from_zero[w]) << "word " << w;
  }
}

// ------------------------------------------------------ world-range floods

UncertainGraph RandomGraph(uint64_t seed, NodeId n, double density,
                           bool directed) {
  Rng rng(seed);
  UncertainGraph g =
      directed ? UncertainGraph::Directed(n) : UncertainGraph::Undirected(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || g.HasEdge(u, v) || !rng.NextBernoulli(density)) continue;
      EXPECT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.1, 0.9)).ok());
    }
  }
  return g;
}

// Words [first_word, first_word + words) of v's row in `whole`.
std::vector<uint64_t> Columns(const bitlane::BitMatrix& whole, NodeId v,
                              size_t first_word, size_t words) {
  const uint64_t* const row = whole.row(v);
  return std::vector<uint64_t>(row + first_word, row + first_word + words);
}

// Lane blocks never exchange bits, so every split of a flood into block
// ranges reproduces the whole-row flood bit for bit: for Z on both sides of
// every word and block boundary, directed and undirected, forward and
// backward, over all edges and over a subset, and with pre-seeded facts.
TEST(WorldBankTest, EveryRangeSplitEqualsWholeRowFlood) {
  for (const bool directed : {true, false}) {
    const UncertainGraph g = RandomGraph(41, 24, 0.12, directed);
    for (const int z : {1, 63, 64, 65, 511, 512, 513, 2000, 4097}) {
      WorldBank bank(g, {.num_samples = z, .seed = 43, .num_threads = 1});
      const size_t blocks = bank.lane_blocks();
      ASSERT_EQ(blocks, (bank.world_words() + bitlane::kLaneWords - 1) /
                            bitlane::kLaneWords);
      std::vector<EdgeId> subset;
      for (size_t e = 0; e < g.num_edges(); e += 2) {
        subset.push_back(static_cast<EdgeId>(e));
      }
      for (const std::vector<EdgeId>& active : {bank.AllEdges(), subset}) {
        for (const bool backward : {false, true}) {
          for (const bool seeded : {false, true}) {
            const auto policy = seeded ? WorldBank::SeedPolicy::kSeedsAreFacts
                                       : WorldBank::SeedPolicy::kClearScratch;
            // Facts: node 5 is reachable in the worlds where edge 0 is up.
            bitlane::BitMatrix facts(g.num_nodes(), bank.world_words());
            if (seeded) {
              const std::span<const uint64_t> up = bank.EdgeUpWorlds(0);
              std::copy(up.begin(), up.end(), facts.row(5));
            }
            bitlane::BitMatrix whole(g.num_nodes(), bank.world_words());
            if (seeded) {
              std::copy_n(facts.row(5), bank.world_words(), whole.row(5));
            }
            bank.ReachabilityFixpoint(1, backward, active, &whole, policy);
            for (size_t ranges = 1; ranges <= blocks; ++ranges) {
              for (size_t r = 0; r < ranges; ++r) {
                const size_t first = r * blocks / ranges;
                const size_t count = (r + 1) * blocks / ranges - first;
                const size_t first_word = first * bitlane::kLaneWords;
                const size_t words =
                    std::min(count * bitlane::kLaneWords,
                             bank.world_words() - first_word);
                bitlane::BitMatrix part(g.num_nodes(), words);
                if (seeded) {
                  std::copy_n(facts.row(5) + first_word, words, part.row(5));
                }
                bank.ReachabilityFixpoint(1, backward, active, &part, policy,
                                          first, count);
                ASSERT_EQ(part.words(), words);
                for (NodeId v = 0; v < g.num_nodes(); ++v) {
                  ASSERT_EQ(Row(part, v), Columns(whole, v, first_word, words))
                      << "z " << z << " node " << v << " range " << r << "/"
                      << ranges << (directed ? " directed" : " undirected")
                      << (backward ? " backward" : " forward") << " |active| "
                      << active.size() << (seeded ? " seeded" : "");
                }
              }
            }
          }
        }
      }
    }
  }
}

// The frontier keeps one dirty bit per (node, 64-world word), so a node's
// mask spans several uint64_t once the range has more than 64 words. Every
// bit of every node must equal a per-world BFS at Z on both sides of that
// boundary: directed and undirected, forward and backward, over all edges
// and a subset, from scratch and from facts set in one word of one block.
TEST(WorldBankTest, WordFrontierMatchesPerWorldBfsPastOneMaskWord) {
  for (const bool directed : {true, false}) {
    const UncertainGraph g = RandomGraph(61, 16, 0.15, directed);
    for (const int z : {4095, 4096, 4097, 8257}) {
      WorldBank bank(g, {.num_samples = z, .seed = 67, .num_threads = 1});
      std::vector<EdgeId> subset;
      for (size_t e = 1; e < g.num_edges(); e += 2) {
        subset.push_back(static_cast<EdgeId>(e));
      }
      for (const std::vector<EdgeId>& active : {bank.AllEdges(), subset}) {
        std::vector<char> edge_active(g.num_edges(), 0);
        for (EdgeId e : active) edge_active[e] = 1;
        for (const bool backward : {false, true}) {
          for (const bool seeded : {false, true}) {
            // Facts: node 9 is reachable in some worlds of the last word
            // only, which is past the first mask word once z > 4096.
            bitlane::BitMatrix facts(g.num_nodes(), bank.world_words());
            if (seeded) {
              facts.row(9)[bank.world_words() - 1] =
                  0x8000000000000001u & WorldBank::TailMask(z);
            }
            bitlane::BitMatrix reach(g.num_nodes(), bank.world_words());
            std::copy_n(facts.row(9), bank.world_words(), reach.row(9));
            bank.ReachabilityFixpoint(
                2, backward, active, &reach,
                seeded ? WorldBank::SeedPolicy::kSeedsAreFacts
                       : WorldBank::SeedPolicy::kClearScratch);
            for (int w = 0; w < z; ++w) {
              const std::vector<char> expected = BruteForceReach(
                  bank, g, w, 2, backward, edge_active, facts);
              for (NodeId v = 0; v < g.num_nodes(); ++v) {
                ASSERT_EQ((reach.row(v)[w / 64] >> (w % 64)) & 1u,
                          expected[v] ? 1u : 0u)
                    << "z " << z << " world " << w << " node " << v
                    << (directed ? " directed" : " undirected")
                    << (backward ? " backward" : " forward") << " |active| "
                    << active.size() << (seeded ? " seeded" : "");
              }
            }
          }
        }
      }
    }
  }
}

// FloodSources' (source × range) fan-out hands back every source's whole
// rows, one range per shard, for any worker count: on a graph whose floods
// are too short to split, and on one whose floods split into several ranges.
TEST(WorldBankTest, FloodSourcesCoversEveryRowForAnyWorkerCount) {
  struct Case {
    UncertainGraph graph;
    int z;
  };
  const Case cases[] = {
      {RandomGraph(47, 24, 0.12, /*directed=*/true), 2000},
      {RandomGraph(59, 200, 0.05, /*directed=*/true), 8257},
  };
  for (const Case& c : cases) {
    const UncertainGraph& g = c.graph;
    WorldBank bank(g, {.num_samples = c.z, .seed = 53, .num_threads = 1});
    const bool splits = bank.FloodRanges(1, 4) > 1;
    EXPECT_EQ(splits, g.num_nodes() > 24) << "z " << c.z;
    for (const std::vector<NodeId>& sources :
         {std::vector<NodeId>{3}, std::vector<NodeId>{0, 7, 11}}) {
      std::vector<bitlane::BitMatrix> expected(sources.size());
      for (size_t i = 0; i < sources.size(); ++i) {
        bank.ReachabilityFixpoint(sources[i], /*backward=*/false,
                                  bank.AllEdges(), &expected[i]);
      }
      for (const int workers : {1, 2, 4, 8}) {
        const size_t ranges = bank.FloodRanges(sources.size(), workers);
        const size_t most = std::min<size_t>(
            bank.lane_blocks(),
            (workers + sources.size() - 1) / sources.size());
        EXPECT_GE(ranges, 1u);
        EXPECT_LE(ranges, most);
        if (!splits) {
          EXPECT_EQ(ranges, 1u);
        }
        std::vector<bitlane::BitMatrix> got(sources.size());
        for (bitlane::BitMatrix& m : got) {
          m.EnsureShape(g.num_nodes(), bank.world_words());
        }
        std::vector<int> visits(sources.size() * ranges, 0);
        bank.FloodSources(
            sources, workers,
            [&](size_t i, size_t r, size_t first_word,
                const bitlane::BitMatrix& reach) {
              ++visits[i * ranges + r];
              for (NodeId v = 0; v < g.num_nodes(); ++v) {
                std::copy_n(reach.row(v), reach.words(),
                            got[i].row(v) + first_word);
              }
            });
        EXPECT_EQ(visits, std::vector<int>(visits.size(), 1));
        for (size_t i = 0; i < sources.size(); ++i) {
          for (NodeId v = 0; v < g.num_nodes(); ++v) {
            ASSERT_EQ(Row(got[i], v), Row(expected[i], v))
                << "source " << sources[i] << " node " << v << " workers "
                << workers << " z " << c.z;
          }
        }
      }
    }
  }
}

// A source is split into world ranges only when its flood is long enough to
// repay a worker's hand-off: lastfm's sparse, low-probability floods die out
// within a few hops and stay whole-row at Z = 2000 however many workers
// there are, while as_topology's floods percolate through one giant SCC and
// fan out over every worker.
TEST(WorldBankTest, FloodRangesSplitOnlyFloodsWorthAWorker) {
  const StatusOr<Dataset> lastfm = MakeDataset("lastfm", 0.5, 7);
  const StatusOr<Dataset> as_topology = MakeDataset("as_topology", 0.2, 42);
  ASSERT_TRUE(lastfm.ok());
  ASSERT_TRUE(as_topology.ok());
  const WorldBank short_floods(lastfm->graph, {.num_samples = 2000});
  const WorldBank long_floods(as_topology->graph, {.num_samples = 2000});
  for (const int workers : {1, 2, 4, 8}) {
    EXPECT_EQ(short_floods.FloodRanges(1, workers), 1u)
        << "workers " << workers;
    EXPECT_EQ(long_floods.FloodRanges(1, workers),
              std::min<size_t>(long_floods.lane_blocks(), workers))
        << "workers " << workers;
    // Once every worker has a source, no source is split.
    EXPECT_EQ(long_floods.FloodRanges(workers, workers), 1u);
  }
}

// ------------------------------------------------------ keyed draw contract

// Scalar reference for DrawWord: rebuild each world's 53-bit uniform from the
// full keyed stream (draw i carries bit 52 - i of every world's U) and
// compare it against the threshold one world at a time.
uint64_t ScalarWord(uint64_t word_seed, uint64_t threshold) {
  Rng rng(word_seed);
  uint64_t u[64] = {};
  for (int k = 52; k >= 0; --k) {
    const uint64_t r = rng.Next();
    for (int j = 0; j < 64; ++j) u[j] |= ((r >> j) & 1) << k;
  }
  uint64_t up = 0;
  for (int j = 0; j < 64; ++j) {
    if (u[j] < threshold) up |= uint64_t{1} << j;
  }
  return up;
}

TEST(WorldBankTest, BitSlicedDrawEqualsScalarCompare) {
  constexpr uint64_t kP53 = uint64_t{1} << 53;
  // The range's ends, and 2^52, whose low 52 bits are all zero.
  std::vector<uint64_t> thresholds = {0, 1, 2, 3, kP53 / 2, kP53 - 1, kP53};
  Rng rng(97);
  for (int i = 0; i < 200; ++i) {
    const uint64_t t = rng.NextUint64(kP53) + 1;
    thresholds.push_back(t);
    // Trailing zero bits end the compare early: the draw must still equal
    // the full 53-bit comparison.
    thresholds.push_back(std::max<uint64_t>(t >> (i % 53) << (i % 53), 1));
  }
  for (uint64_t t : thresholds) {
    for (uint64_t word_seed : {uint64_t{1}, uint64_t{12345},
                               WorldBank::WordSeed(7, 3, 11)}) {
      ASSERT_EQ(WorldBank::DrawWord(word_seed, t), ScalarWord(word_seed, t))
          << "threshold " << t << " seed " << word_seed;
    }
  }
}

// A random graph with more edges than one fill shard holds, so the fill's
// (row range, lane block) shards split rows and worlds both.
UncertainGraph ManyEdgeGraph(uint64_t seed) {
  Rng rng(seed);
  UncertainGraph g = UncertainGraph::Undirected(30);
  while (g.num_edges() < 150) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64(30));
    const NodeId v = static_cast<NodeId>(rng.NextUint64(30));
    if (u == v || g.HasEdge(u, v)) continue;
    EXPECT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.05, 0.95)).ok());
  }
  return g;
}

void ExpectSameBits(const WorldBank& got, const WorldBank& want,
                    const std::string& what) {
  ASSERT_EQ(got.num_edges(), want.num_edges()) << what;
  for (size_t e = 0; e < want.num_edges(); ++e) {
    ASSERT_EQ(ToVec(got.EdgeUpWorlds(static_cast<EdgeId>(e))),
              ToVec(want.EdgeUpWorlds(static_cast<EdgeId>(e))))
        << what << ": edge " << e;
  }
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

// Worlds where some edge is up in `a` but not in `b`, by brute force over
// every row `a` holds (a row only `a` holds is down in `b`).
std::vector<uint64_t> LostAllRows(const WorldBank& a, const WorldBank& b) {
  std::vector<uint64_t> mask(a.world_words(), 0);
  for (size_t e = 0; e < a.num_edges(); ++e) {
    for (size_t w = 0; w < mask.size(); ++w) {
      const EdgeId id = static_cast<EdgeId>(e);
      const uint64_t in_b = e < b.num_edges() ? b.EdgeUpWorlds(id)[w] : 0;
      mask[w] |= a.EdgeUpWorlds(id)[w] & ~in_b;
    }
  }
  return mask;
}

TEST(WorldBankTest, UpdatingOneEdgeRedrawsOnlyItsRowMonotonically) {
  UncertainGraph g = ManyEdgeGraph(41);
  const WorldBank::Options options{.num_samples = 700, .seed = 43};
  const WorldBank before(g, options);
  const EdgeId changed = 77;
  const Edge edge = g.EdgeById(changed);
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, edge.prob + 0.04).ok());
  const WorldBank after(g, options);
  for (size_t e = 0; e < g.num_edges(); ++e) {
    if (e == changed) continue;
    ASSERT_EQ(ToVec(after.EdgeUpWorlds(static_cast<EdgeId>(e))),
              ToVec(before.EdgeUpWorlds(static_cast<EdgeId>(e))))
        << "edge " << e;
  }
  // Raising p only adds worlds: every world the edge was up in stays up.
  const std::vector<uint64_t> old_row = ToVec(before.EdgeUpWorlds(changed));
  const std::vector<uint64_t> new_row = ToVec(after.EdgeUpWorlds(changed));
  int64_t added = 0;
  for (size_t w = 0; w < old_row.size(); ++w) {
    EXPECT_EQ(old_row[w] & ~new_row[w], 0u) << "word " << w;
    added += __builtin_popcountll(new_row[w] & ~old_row[w]);
  }
  EXPECT_GT(added, 0);
  EXPECT_LT(added, 700 / 4);
}

TEST(WorldBankTest, DeriveEqualsFreshFillAcrossWrites) {
  for (int threads : {1, 4}) {
    UncertainGraph g = ManyEdgeGraph(53);
    // 700 worlds: two lane blocks and a partial tail word.
    const WorldBank::Options options{
        .num_samples = 700, .seed = 59, .num_threads = threads};
    auto bank = std::make_unique<WorldBank>(g, options);
    // Updates to and from the no-draw probabilities 0 and 1, interior
    // nudges, and appended edges, each derived from the previous bank.
    struct Write {
      NodeId u, v;
      double p;
    };
    std::vector<Write> writes;
    for (EdgeId e : {EdgeId{3}, EdgeId{90}, EdgeId{149}}) {
      const Edge edge = g.EdgeById(e);
      writes.push_back({edge.src, edge.dst, 0.0});
      writes.push_back({edge.src, edge.dst, 0.6});
      writes.push_back({edge.src, edge.dst, 1.0});
      writes.push_back({edge.src, edge.dst, 0.25});
    }
    Rng rng(61);
    while (writes.size() < 20) {
      const NodeId u = static_cast<NodeId>(rng.NextUint64(30));
      const NodeId v = static_cast<NodeId>(rng.NextUint64(30));
      if (u == v || g.HasEdge(u, v)) continue;
      bool pending = false;
      for (const Write& w : writes) {
        pending = pending || (w.u == u && w.v == v) || (w.u == v && w.v == u);
      }
      if (!pending) writes.push_back({u, v, rng.NextDouble(0.1, 0.9)});
    }
    for (size_t i = 0; i < writes.size(); ++i) {
      const Write& w = writes[i];
      ASSERT_TRUE((g.HasEdge(w.u, w.v) ? g.UpdateEdgeProb(w.u, w.v, w.p)
                                       : g.AddEdge(w.u, w.v, w.p))
                      .ok());
      WorldBank::Delta delta;
      auto derived = std::make_unique<WorldBank>(*bank, g, options, &delta);
      const std::string what =
          "threads " + std::to_string(threads) + " write " + std::to_string(i);
      ExpectSameBits(*derived, WorldBank(g, options), what);
      EXPECT_EQ(delta.changed, XorAllRows(*bank, *derived)) << what;
      EXPECT_EQ(delta.lost, LostAllRows(*bank, *derived)) << what;
      // Each write changes one edge's probability or appends it: that row,
      // and only it, is redrawn.
      EXPECT_EQ(delta.redrawn,
                std::vector<EdgeId>{*g.EdgeIndexOf(w.u, w.v)})
          << what;
      bank = std::move(derived);
    }
  }
}

TEST(WorldBankTest, DeriveFromLoadedRowsRecomputesThresholds) {
  // A bank adopting pre-filled rows (the index-file load path) knows its
  // seed and recomputes thresholds from the graph, so deriving from it
  // equals deriving from the bank whose rows it adopted.
  UncertainGraph g = ManyEdgeGraph(67);
  const WorldBank::Options options{.num_samples = 300, .seed = 71};
  const WorldBank filled(g, options);
  bitlane::BitMatrix rows(g.num_edges(), filled.world_words());
  for (size_t e = 0; e < g.num_edges(); ++e) {
    const std::span<const uint64_t> row =
        filled.EdgeUpWorlds(static_cast<EdgeId>(e));
    std::copy(row.begin(), row.end(), rows.row(e));
  }
  const WorldBank adopted(g, options.num_samples, options.seed,
                          std::move(rows));
  const Edge edge = g.EdgeById(5);
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, 0.9).ok());
  NodeId v = 1;
  while (g.HasEdge(0, v)) ++v;
  ASSERT_TRUE(g.AddEdge(0, v, 0.5).ok());
  WorldBank::Delta delta;
  const WorldBank derived(adopted, g, options, &delta);
  ExpectSameBits(derived, WorldBank(g, options), "derived from adopted rows");
  EXPECT_EQ(delta.changed, XorAllRows(filled, derived));
  EXPECT_EQ(delta.lost, LostAllRows(filled, derived));
  EXPECT_EQ(delta.redrawn,
            (std::vector<EdgeId>{5, static_cast<EdgeId>(g.num_edges() - 1)}));
}

// A range bank is a run of the flat bank's columns: every word is drawn
// from its global seed and the tail block's partial word is masked like the
// flat bank's, for any run start, width and fill thread count.
TEST(WorldBankTest, RangeBankRowsEqualFlatBankColumns) {
  const UncertainGraph g = ManyEdgeGraph(67);
  constexpr size_t kBlockWorlds = bitlane::kLaneWords * 64;
  for (const int z : {1100, 1024, 300}) {
    const WorldBank flat(g, {.num_samples = z, .seed = 71});
    const size_t blocks = flat.lane_blocks();
    ASSERT_EQ(WorldBank::LaneBlocks(z), blocks);
    for (const int threads : {1, 4}) {
      for (size_t first = 0; first < blocks; ++first) {
        for (const size_t count :
             {size_t{1}, size_t{2}, WorldBank::kAllBlocks}) {
          const WorldBank range(
              g, {.num_samples = z, .seed = 71, .num_threads = threads}, first,
              count);
          const size_t first_word = first * bitlane::kLaneWords;
          const size_t run = std::min(count, blocks - first);
          const size_t words = std::min(run * bitlane::kLaneWords,
                                        flat.world_words() - first_word);
          const std::string what = "z " + std::to_string(z) + " blocks [" +
                                   std::to_string(first) + ", +" +
                                   std::to_string(run) + ") threads " +
                                   std::to_string(threads);
          ASSERT_EQ(range.lane_blocks(), run) << what;
          ASSERT_EQ(range.world_words(), words) << what;
          ASSERT_EQ(static_cast<size_t>(range.num_worlds()),
                    std::min(z - first * kBlockWorlds, run * kBlockWorlds))
              << what;
          for (EdgeId e = 0; e < g.num_edges(); ++e) {
            const std::span<const uint64_t> row = flat.EdgeUpWorlds(e);
            ASSERT_EQ(ToVec(range.EdgeUpWorlds(e)),
                      ToVec(row.subspan(first_word, words)))
                << what << " edge " << e;
          }
        }
      }
    }
  }
}

// The widest run of whole lane blocks whose rows fit the budget, at least
// one.
TEST(WorldBankTest, BlocksWithinFitsWholeLaneBlocks) {
  EXPECT_EQ(WorldBank::BlocksWithin(10, 1), 1u);
  EXPECT_EQ(WorldBank::BlocksWithin(10, 10 * 64 - 1), 1u);
  EXPECT_EQ(WorldBank::BlocksWithin(10, 10 * 64 * 3), 3u);
  EXPECT_EQ(WorldBank::BlocksWithin(10, 10 * 64 * 4 - 1), 3u);
  EXPECT_EQ(WorldBank::LaneBlocks(1), 1u);
  EXPECT_EQ(WorldBank::LaneBlocks(512), 1u);
  EXPECT_EQ(WorldBank::LaneBlocks(513), 2u);
}

}  // namespace
}  // namespace relmax
