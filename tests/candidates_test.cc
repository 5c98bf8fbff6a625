#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <set>
#include <unordered_set>

#include "common/rng.h"
#include "core/candidates.h"
#include "graph/bfs.h"
#include "graph/uncertain_graph.h"

namespace relmax {
namespace {

// Chain s=0 -> 1 -> 2 -> 3 -> t=4 with strong probabilities, plus a stray
// node 5 connected only to t's side.
UncertainGraph ChainGraph() {
  UncertainGraph g = UncertainGraph::Directed(6);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 0.9).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.9).ok());
  EXPECT_TRUE(g.AddEdge(3, 4, 0.9).ok());
  EXPECT_TRUE(g.AddEdge(5, 4, 0.9).ok());
  return g;
}

SolverOptions FastOptions() {
  SolverOptions options;
  options.elimination_samples = 400;
  options.num_samples = 200;
  options.hop_h = -1;
  options.seed = 7;
  return options;
}

TEST(CandidatesTest, SourceAndTargetAlwaysIncluded) {
  const UncertainGraph g = ChainGraph();
  auto result = SelectCandidates(g, 0, 4, FastOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_NE(std::find(result->from_source.begin(), result->from_source.end(),
                      0u),
            result->from_source.end());
  EXPECT_NE(std::find(result->to_target.begin(), result->to_target.end(), 4u),
            result->to_target.end());
  // C(s) is sorted by reliability from s: s itself first.
  EXPECT_EQ(result->from_source.front(), 0u);
  EXPECT_EQ(result->to_target.front(), 4u);
}

TEST(CandidatesTest, ZeroReliabilityNodesExcluded) {
  const UncertainGraph g = ChainGraph();
  auto result = SelectCandidates(g, 0, 4, FastOptions());
  ASSERT_TRUE(result.ok());
  // Node 5 is unreachable from s = 0, so it cannot be in C(s).
  EXPECT_EQ(std::find(result->from_source.begin(), result->from_source.end(),
                      5u),
            result->from_source.end());
  // But node 5 reaches t, so it belongs to C(t).
  EXPECT_NE(std::find(result->to_target.begin(), result->to_target.end(), 5u),
            result->to_target.end());
}

TEST(CandidatesTest, TopRLimitsSetSizes) {
  const UncertainGraph g = ChainGraph();
  SolverOptions options = FastOptions();
  options.top_r = 2;
  auto result = SelectCandidates(g, 0, 4, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->from_source.size(), 2u);
  EXPECT_LE(result->to_target.size(), 2u);
  // The anchors survive even with tiny r.
  EXPECT_NE(std::find(result->from_source.begin(), result->from_source.end(),
                      0u),
            result->from_source.end());
  EXPECT_NE(std::find(result->to_target.begin(), result->to_target.end(), 4u),
            result->to_target.end());
}

TEST(CandidatesTest, CandidateEdgesAreMissingNonSelfPairs) {
  const UncertainGraph g = ChainGraph();
  auto result = SelectCandidates(g, 0, 4, FastOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->edges.empty());
  for (const Edge& e : result->edges) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_FALSE(g.HasEdge(e.src, e.dst)) << e.src << "->" << e.dst;
    EXPECT_DOUBLE_EQ(e.prob, FastOptions().zeta);
  }
  // The direct s-t edge is a candidate (Observation 4 relies on this).
  const bool has_st =
      std::any_of(result->edges.begin(), result->edges.end(),
                  [](const Edge& e) { return e.src == 0 && e.dst == 4; });
  EXPECT_TRUE(has_st);
}

TEST(CandidatesTest, HopConstraintFiltersRemotePairs) {
  const UncertainGraph g = ChainGraph();
  SolverOptions options = FastOptions();
  options.hop_h = 2;
  auto result = SelectCandidates(g, 0, 4, options);
  ASSERT_TRUE(result.ok());
  for (const Edge& e : result->edges) {
    // 0 and 4 are 4 hops apart, so (0, 4) must be filtered out.
    EXPECT_FALSE(e.src == 0 && e.dst == 4);
  }
}

TEST(CandidatesTest, UndirectedCandidatesDeduped) {
  UncertainGraph g = UncertainGraph::Undirected(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  auto result = SelectCandidates(g, 0, 3, FastOptions());
  ASSERT_TRUE(result.ok());
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : result->edges) {
    const auto key = std::minmax(e.src, e.dst);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second)
        << "duplicate candidate " << e.src << "-" << e.dst;
  }
}

TEST(CandidatesTest, ValidatesArguments) {
  const UncertainGraph g = ChainGraph();
  EXPECT_EQ(SelectCandidates(g, 0, 99, FastOptions()).status().code(),
            StatusCode::kOutOfRange);
  SolverOptions bad_r = FastOptions();
  bad_r.top_r = 0;
  EXPECT_EQ(SelectCandidates(g, 0, 4, bad_r).status().code(),
            StatusCode::kInvalidArgument);
  SolverOptions bad_zeta = FastOptions();
  bad_zeta.zeta = 0.0;
  EXPECT_EQ(SelectCandidates(g, 0, 4, bad_zeta).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CandidatesTest, MultiUnionsPerQuerySets) {
  const UncertainGraph g = ChainGraph();
  auto result = SelectCandidatesMulti(g, {0, 5}, {4}, FastOptions());
  ASSERT_TRUE(result.ok());
  // Both sources appear in the union C(s).
  EXPECT_NE(std::find(result->from_source.begin(), result->from_source.end(),
                      0u),
            result->from_source.end());
  EXPECT_NE(std::find(result->from_source.begin(), result->from_source.end(),
                      5u),
            result->from_source.end());
  EXPECT_EQ(SelectCandidatesMulti(g, {}, {4}, FastOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CandidatesTest, AllMissingEdgesCountsAndConstraints) {
  UncertainGraph g = UncertainGraph::Directed(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  // Directed complete graph minus self loops has 12 ordered pairs; one
  // exists.
  const std::vector<Edge> all = AllMissingEdges(g, 0.5, -1);
  EXPECT_EQ(all.size(), 11u);
  for (const Edge& e : all) {
    EXPECT_FALSE(g.HasEdge(e.src, e.dst));
    EXPECT_DOUBLE_EQ(e.prob, 0.5);
  }
  // Undirected: C(4,2) = 6 pairs, one exists.
  UncertainGraph u = UncertainGraph::Undirected(4);
  ASSERT_TRUE(u.AddEdge(0, 1, 0.5).ok());
  EXPECT_EQ(AllMissingEdges(u, 0.5, -1).size(), 5u);
  // Hop constraint: with h = 1 nothing qualifies (all non-adjacent pairs are
  // at distance > 1 by definition, adjacent pairs already have edges).
  EXPECT_TRUE(AllMissingEdges(u, 0.5, 1).empty());
}

// The candidate pass as one BFS per C(s) node computed it: the reference the
// h-hop bitset pass must match edge for edge, order included.
std::vector<Edge> PerNodeBfsCandidates(const UncertainGraph& g,
                                       const CandidateSet& set, double zeta,
                                       int hop_h) {
  std::unordered_set<uint64_t> emitted;
  std::vector<Edge> edges;
  for (NodeId u : set.from_source) {
    std::vector<int> dist;
    if (hop_h >= 0) dist = UndirectedHopDistances(g, u, hop_h);
    for (NodeId v : set.to_target) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (hop_h >= 0 && (dist[v] == kUnreachable || dist[v] > hop_h)) continue;
      const NodeId lo = g.directed() ? u : std::min(u, v);
      const NodeId hi = g.directed() ? v : std::max(u, v);
      if (emitted.insert((static_cast<uint64_t>(lo) << 32) | hi).second) {
        edges.push_back({u, v, zeta});
      }
    }
  }
  return edges;
}

UncertainGraph RandomSparseGraph(uint64_t seed, bool directed) {
  Rng rng(seed);
  const NodeId n = 160;
  UncertainGraph g =
      directed ? UncertainGraph::Directed(n) : UncertainGraph::Undirected(n);
  // A long ring keeps the diameter large; random chords shorten some paths.
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_TRUE(g.AddEdge(u, (u + 1) % n, rng.NextDouble(0.85, 0.99)).ok());
  }
  for (int i = 0; i < 60; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    const NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v && !g.HasEdge(u, v)) {
      EXPECT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.3, 0.9)).ok());
    }
  }
  return g;
}

TEST(CandidatesTest, HopPassMatchesPerNodeBfs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (bool directed : {true, false}) {
      const UncertainGraph g = RandomSparseGraph(seed, directed);
      for (int hop_h : {-1, 0, 1, 2, 3, INT_MAX}) {
        SolverOptions options = FastOptions();
        options.top_r = 100;  // |C(t)| > 64: the masks span two words
        options.hop_h = hop_h;
        const auto start = std::chrono::steady_clock::now();
        const auto single = SelectCandidates(g, 0, 80, options);
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        ASSERT_TRUE(single.ok());
        EXPECT_GT(single->to_target.size(), 64u);
        EXPECT_LT(seconds, 5.0) << "hop_h " << hop_h;
        EXPECT_EQ(single->edges,
                  PerNodeBfsCandidates(g, *single, options.zeta, hop_h))
            << "seed " << seed << " directed " << directed << " h " << hop_h;

        const auto multi = SelectCandidatesMulti(g, {0, 40}, {80, 120}, options);
        ASSERT_TRUE(multi.ok());
        EXPECT_EQ(multi->edges,
                  PerNodeBfsCandidates(g, *multi, options.zeta, hop_h))
            << "multi seed " << seed << " directed " << directed << " h "
            << hop_h;
      }
    }
  }
}

}  // namespace
}  // namespace relmax
