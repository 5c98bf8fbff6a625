#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "graph/uncertain_graph.h"
#include "paths/most_reliable_path.h"
#include "paths/yen.h"

namespace relmax {
namespace {

// All simple s-t paths by DFS, sorted by probability descending (test
// oracle for Yen's algorithm).
void EnumeratePathsDfs(const UncertainGraph& g, NodeId t,
                       std::vector<NodeId>* stack, std::vector<char>* on_stack,
                       double prob, std::vector<PathResult>* out) {
  const NodeId u = stack->back();
  if (u == t) {
    out->push_back({*stack, prob});
    return;
  }
  for (const Arc& arc : g.OutArcs(u)) {
    if ((*on_stack)[arc.to] || arc.prob <= 0.0) continue;
    stack->push_back(arc.to);
    (*on_stack)[arc.to] = 1;
    EnumeratePathsDfs(g, t, stack, on_stack, prob * arc.prob, out);
    (*on_stack)[arc.to] = 0;
    stack->pop_back();
  }
}

std::vector<PathResult> AllSimplePaths(const UncertainGraph& g, NodeId s,
                                       NodeId t) {
  std::vector<PathResult> out;
  std::vector<NodeId> stack = {s};
  std::vector<char> on_stack(g.num_nodes(), 0);
  on_stack[s] = 1;
  EnumeratePathsDfs(g, t, &stack, &on_stack, 1.0, &out);
  std::sort(out.begin(), out.end(), [](const PathResult& a,
                                       const PathResult& b) {
    return a.probability != b.probability ? a.probability > b.probability
                                          : a.nodes < b.nodes;
  });
  return out;
}

// ----------------------------------------------------------- MostReliablePath

TEST(MostReliablePathTest, TrivialAndUnreachable) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  const auto self = MostReliablePath(g, 2, 2);
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->nodes, (std::vector<NodeId>{2}));
  EXPECT_DOUBLE_EQ(self->probability, 1.0);
  EXPECT_FALSE(MostReliablePath(g, 0, 2).has_value());
  EXPECT_FALSE(MostReliablePath(g, 1, 0).has_value());
}

TEST(MostReliablePathTest, PrefersHigherProductOverFewerHops) {
  // Direct edge 0.3 vs two-hop 0.8*0.8 = 0.64.
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 2, 0.3).ok());
  ASSERT_TRUE(g.AddEdge(0, 1, 0.8).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.8).ok());
  const auto path = MostReliablePath(g, 0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_NEAR(path->probability, 0.64, 1e-12);
}

TEST(MostReliablePathTest, ZeroProbabilityEdgesAreNotTraversed) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  EXPECT_FALSE(MostReliablePath(g, 0, 2).has_value());
}

TEST(MostReliablePathTest, UndirectedTraversesBothWays) {
  UncertainGraph g = UncertainGraph::Undirected(3);
  ASSERT_TRUE(g.AddEdge(2, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, 0.5).ok());
  const auto path = MostReliablePath(g, 0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_NEAR(path->probability, 0.25, 1e-12);
}

TEST(MostReliablePathTest, TreeProbabilitiesMatchSingleQueries) {
  Rng rng(55);
  UncertainGraph g = UncertainGraph::Directed(12);
  for (int i = 0; i < 40; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64(12));
    const NodeId v = static_cast<NodeId>(rng.NextUint64(12));
    if (u == v || g.HasEdge(u, v)) continue;
    ASSERT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.1, 0.9)).ok());
  }
  const std::vector<double> tree = MostReliablePathProbabilities(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto single = MostReliablePath(g, 0, v);
    EXPECT_NEAR(tree[v], single.has_value() ? single->probability : 0.0,
                1e-12)
        << "node " << v;
  }
}

// --------------------------------------------------------------------- Yen

TEST(YenTest, DiamondTopPaths) {
  UncertainGraph g = UncertainGraph::Directed(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 0.6).ok());
  const std::vector<PathResult> paths = TopLReliablePaths(g, 0, 3, 5);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].nodes, (std::vector<NodeId>{0, 1, 3}));  // 0.81
  EXPECT_EQ(paths[1].nodes, (std::vector<NodeId>{0, 3}));     // 0.60
  EXPECT_EQ(paths[2].nodes, (std::vector<NodeId>{0, 2, 3}));  // 0.25
  EXPECT_NEAR(paths[0].probability, 0.81, 1e-12);
  EXPECT_NEAR(paths[1].probability, 0.60, 1e-12);
  EXPECT_NEAR(paths[2].probability, 0.25, 1e-12);
}

TEST(YenTest, ReturnsFewerWhenGraphHasFewerPaths) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  EXPECT_EQ(TopLReliablePaths(g, 0, 2, 10).size(), 1u);
  EXPECT_TRUE(TopLReliablePaths(g, 2, 0, 10).empty());
}

TEST(YenTest, SourceEqualsTarget) {
  UncertainGraph g = UncertainGraph::Directed(2);
  const auto paths = TopLReliablePaths(g, 1, 1, 3);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(paths[0].probability, 1.0);
}

// Yen against the DFS oracle over random graphs, directed and undirected.
class YenOracleSweep : public testing::TestWithParam<int> {};

// Parameters from 12 on draw every probability from {0.25, 0.5, 1}, so many
// paths tie; their undirected graphs (odd parameters) let a spur path walk a
// banned arc in reverse, back into the spur.
TEST_P(YenOracleSweep, MatchesExhaustiveEnumeration) {
  Rng rng(9000 + GetParam());
  const bool ties = GetParam() >= 12;
  const NodeId n = static_cast<NodeId>(rng.NextInt(4, 8));
  UncertainGraph g = GetParam() % 2 == 0 ? UncertainGraph::Directed(n)
                                         : UncertainGraph::Undirected(n);
  const double tie_probs[] = {0.25, 0.5, 1.0};
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (rng.NextBernoulli(ties ? 0.7 : 0.5)) {
        const double p = ties ? tie_probs[rng.NextUint64(3)]
                              : rng.NextDouble(0.05, 0.95);
        ASSERT_TRUE(g.AddEdge(u, v, p).ok());
      }
    }
  }
  const NodeId s = 0;
  const NodeId t = n - 1;
  const std::vector<PathResult> oracle = AllSimplePaths(g, s, t);
  const int l = 8;
  const std::vector<PathResult> yen = TopLReliablePaths(g, s, t, l);

  ASSERT_EQ(yen.size(), std::min<size_t>(l, oracle.size()));
  std::set<std::vector<NodeId>> distinct;
  for (size_t i = 0; i < yen.size(); ++i) {
    // Probabilities must match the oracle ranking exactly.
    EXPECT_NEAR(yen[i].probability, oracle[i].probability, 1e-12)
        << "rank " << i;
    // Paths must be simple and distinct.
    std::set<NodeId> unique_nodes(yen[i].nodes.begin(), yen[i].nodes.end());
    EXPECT_EQ(unique_nodes.size(), yen[i].nodes.size());
    EXPECT_TRUE(distinct.insert(yen[i].nodes).second);
    // Non-increasing order.
    if (i > 0) EXPECT_LE(yen[i].probability, yen[i - 1].probability + 1e-15);
    // Path endpoints and edges are real.
    EXPECT_EQ(yen[i].nodes.front(), s);
    EXPECT_EQ(yen[i].nodes.back(), t);
    double prob = 1.0;
    for (size_t j = 0; j + 1 < yen[i].nodes.size(); ++j) {
      const auto p = g.EdgeProb(yen[i].nodes[j], yen[i].nodes[j + 1]);
      ASSERT_TRUE(p.has_value());
      prob *= *p;
    }
    EXPECT_NEAR(prob, yen[i].probability, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YenOracleSweep, testing::Range(0, 24));

}  // namespace
}  // namespace relmax
