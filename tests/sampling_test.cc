#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"
#include "sampling/convergence.h"
#include "sampling/reliability.h"

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

TEST(MonteCarloTest, MatchesExactOnDiamond) {
  const UncertainGraph g = DiamondGraph();
  const double exact = ExactReliabilityFactoring(g, 0, 3).value();
  const double estimate =
      EstimateReliability(g, 0, 3, {.num_samples = 60000, .seed = 1});
  EXPECT_NEAR(estimate, exact, 0.01);
}

TEST(MonteCarloTest, DeterministicForFixedSeed) {
  const UncertainGraph g = DiamondGraph();
  const double a =
      EstimateReliability(g, 0, 3, {.num_samples = 500, .seed = 9});
  const double b =
      EstimateReliability(g, 0, 3, {.num_samples = 500, .seed = 9});
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(MonteCarloTest, SourceEqualsTargetIsOne) {
  const UncertainGraph g = DiamondGraph();
  EXPECT_DOUBLE_EQ(
      EstimateReliability(g, 2, 2, {.num_samples = 10, .seed = 1}), 1.0);
}

TEST(MonteCarloTest, DisconnectedIsZero) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  EXPECT_DOUBLE_EQ(
      EstimateReliability(g, 0, 2, {.num_samples = 200, .seed = 1}), 0.0);
}

TEST(MonteCarloTest, CertainChainIsOne) {
  UncertainGraph g = UncertainGraph::Directed(4);
  for (NodeId i = 0; i < 3; ++i) ASSERT_TRUE(g.AddEdge(i, i + 1, 1.0).ok());
  EXPECT_DOUBLE_EQ(
      EstimateReliability(g, 0, 3, {.num_samples = 50, .seed = 1}), 1.0);
}

// An undirected edge must flip one coin per world even though it is stored
// as two arcs. With incoherent flips, the 2-cycle below would report
// R > p for the single-edge graph.
TEST(MonteCarloTest, UndirectedEdgeFlipsOneCoinPerWorld) {
  UncertainGraph g = UncertainGraph::Undirected(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.3).ok());
  const double estimate =
      EstimateReliability(g, 0, 1, {.num_samples = 60000, .seed = 3});
  EXPECT_NEAR(estimate, 0.3, 0.01);
}

TEST(MonteCarloTest, UndirectedMatchesExactOnTriangle) {
  UncertainGraph g = UncertainGraph::Undirected(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  const double exact = ExactReliabilityFactoring(g, 0, 2).value();
  const double estimate =
      EstimateReliability(g, 0, 2, {.num_samples = 60000, .seed = 5});
  EXPECT_NEAR(estimate, exact, 0.01);
}

TEST(MonteCarloTest, FromSourceMatchesPerNodeEstimates) {
  const UncertainGraph g = DiamondGraph();
  MonteCarloSampler sampler(g, 17);
  const std::vector<double> from_s = sampler.FromSource(0, 60000);
  EXPECT_DOUBLE_EQ(from_s[0], 1.0);  // source reaches itself always
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    const double exact = ExactReliabilityFactoring(g, 0, v).value();
    EXPECT_NEAR(from_s[v], exact, 0.015) << "node " << v;
  }
}

TEST(MonteCarloTest, ToTargetMatchesPerNodeEstimates) {
  const UncertainGraph g = DiamondGraph();
  MonteCarloSampler sampler(g, 23);
  const std::vector<double> to_t = sampler.ToTarget(3, 60000);
  EXPECT_DOUBLE_EQ(to_t[3], 1.0);
  for (NodeId v = 0; v < 3; ++v) {
    const double exact = ExactReliabilityFactoring(g, v, 3).value();
    EXPECT_NEAR(to_t[v], exact, 0.015) << "node " << v;
  }
}

TEST(MonteCarloTest, ToTargetRespectsDirection) {
  // 0 -> 1: node 1 cannot reach 0.
  UncertainGraph g = UncertainGraph::Directed(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.8).ok());
  MonteCarloSampler sampler(g, 3);
  const std::vector<double> to_zero = sampler.ToTarget(0, 1000);
  EXPECT_DOUBLE_EQ(to_zero[1], 0.0);
  const std::vector<double> to_one = sampler.ToTarget(1, 1000);
  EXPECT_NEAR(to_one[0], 0.8, 0.05);
}

// Parameterized sweep: MC tracks the exact value across edge probabilities.
class McAccuracySweep : public testing::TestWithParam<double> {};

TEST_P(McAccuracySweep, TwoHopChain) {
  const double p = GetParam();
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, p).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, p).ok());
  const double estimate =
      EstimateReliability(g, 0, 2, {.num_samples = 40000, .seed = 11});
  EXPECT_NEAR(estimate, p * p, 0.012);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, McAccuracySweep,
                         testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

// ------------------------------------------------------------- convergence

TEST(ConvergenceTest, DispersionShrinksWithMoreSamples) {
  const UncertainGraph g = DiamondGraph();
  const std::vector<std::pair<NodeId, NodeId>> queries = {{0, 3}, {0, 1}};
  auto mc = [](const UncertainGraph& graph, NodeId s, NodeId t, int z,
               uint64_t seed) {
    return EstimateReliability(graph, s, t, {.num_samples = z, .seed = seed});
  };
  const DispersionResult small = MeasureDispersion(g, queries, 50, 30, mc);
  const DispersionResult large = MeasureDispersion(g, queries, 2000, 30, mc);
  EXPECT_GT(small.index_of_dispersion, large.index_of_dispersion);
  EXPECT_NEAR(small.mean, large.mean, 0.1);
}

// A held sampler must observe graph mutations between estimates: probability
// updates patch the CSR in place and edge additions rebuild it, and the
// sampler's cached per-arc thresholds / per-edge world state re-sync off the
// graph's version counter instead of silently going stale.
TEST(MonteCarloSamplerTest, PicksUpGraphMutationsBetweenEstimates) {
  for (const bool directed : {true, false}) {
    UncertainGraph g = directed ? UncertainGraph::Directed(3)
                                : UncertainGraph::Undirected(3);
    ASSERT_TRUE(g.AddEdge(0, 1, 0.0).ok());
    MonteCarloSampler sampler(g, 7);
    EXPECT_DOUBLE_EQ(sampler.Reliability(0, 1, 500), 0.0) << directed;

    ASSERT_TRUE(g.UpdateEdgeProb(0, 1, 1.0).ok());
    EXPECT_DOUBLE_EQ(sampler.Reliability(0, 1, 500), 1.0) << directed;

    // Edge addition grows the CSR and the logical edge set.
    ASSERT_TRUE(g.AddEdge(1, 2, 1.0).ok());
    EXPECT_DOUBLE_EQ(sampler.Reliability(0, 2, 500), 1.0) << directed;
  }
}

TEST(ConvergenceTest, FindConvergedSampleSizePicksSmallEnoughZ) {
  const UncertainGraph g = DiamondGraph();
  const std::vector<std::pair<NodeId, NodeId>> queries = {{0, 3}};
  auto mc = [](const UncertainGraph& graph, NodeId s, NodeId t, int z,
               uint64_t seed) {
    return EstimateReliability(graph, s, t, {.num_samples = z, .seed = seed});
  };
  const DispersionResult result = FindConvergedSampleSize(
      g, queries, {100, 500, 2000, 8000}, 20, 0.002, mc);
  EXPECT_LE(result.num_samples, 8000);
  EXPECT_GT(result.num_samples, 0);
  // The chosen Z either converged or is the largest candidate.
  if (result.index_of_dispersion >= 0.002) {
    EXPECT_EQ(result.num_samples, 8000);
  }
}

}  // namespace
}  // namespace relmax
