// Determinism and accuracy of the batched parallel sampling runtime: a fixed
// seed must give bit-identical estimates for any thread count, and the
// estimates must still track the exact factoring oracle. The same contract
// covers WorldBank-backed solves (reuse_worlds): selected edges and reported
// reliabilities must not depend on num_threads.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/greedy.h"
#include "core/evaluate.h"
#include "common/rng.h"
#include "core/solver.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"
#include "sampling/parallel.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"
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
  // Two triangles joined by a bridge edge 2-3 (undirected): the classic
  // factoring fixture — the bridge dominates s=0 to t=5 reliability.
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

const int kThreadCounts[] = {1, 2, 4, 8};

TEST(ParallelMcTest, BitIdenticalAcrossThreadCountsOnDiamond) {
  const UncertainGraph g = DiamondGraph();
  const double reference =
      EstimateReliability(g, 0, 3, {.num_samples = 10000, .seed = 7,
                                    .num_threads = 1});
  for (int threads : kThreadCounts) {
    const double estimate =
        EstimateReliability(g, 0, 3, {.num_samples = 10000, .seed = 7,
                                      .num_threads = threads});
    EXPECT_EQ(estimate, reference) << "num_threads = " << threads;
  }
}

TEST(ParallelMcTest, BitIdenticalAcrossThreadCountsOnBridge) {
  const UncertainGraph g = BridgeGraph();
  const double reference =
      EstimateReliability(g, 0, 5, {.num_samples = 9999, .seed = 13,
                                    .num_threads = 1});
  for (int threads : kThreadCounts) {
    const double estimate =
        EstimateReliability(g, 0, 5, {.num_samples = 9999, .seed = 13,
                                      .num_threads = threads});
    EXPECT_EQ(estimate, reference) << "num_threads = " << threads;
  }
}

TEST(ParallelMcTest, MatchesExactFactoringOnDiamond) {
  const UncertainGraph g = DiamondGraph();
  const double exact = ExactReliabilityFactoring(g, 0, 3).value();
  for (int threads : kThreadCounts) {
    const double estimate =
        EstimateReliability(g, 0, 3, {.num_samples = 60000, .seed = 1,
                                      .num_threads = threads});
    EXPECT_NEAR(estimate, exact, 0.01) << "num_threads = " << threads;
  }
}

TEST(ParallelMcTest, MatchesExactFactoringOnBridge) {
  const UncertainGraph g = BridgeGraph();
  const double exact = ExactReliabilityFactoring(g, 0, 5).value();
  for (int threads : kThreadCounts) {
    const double estimate =
        EstimateReliability(g, 0, 5, {.num_samples = 60000, .seed = 3,
                                      .num_threads = threads});
    EXPECT_NEAR(estimate, exact, 0.01) << "num_threads = " << threads;
  }
}

TEST(ParallelMcTest, ZeroThreadsMeansAllCoresAndStaysIdentical) {
  const UncertainGraph g = BridgeGraph();
  const double serial =
      EstimateReliability(g, 0, 5, {.num_samples = 5000, .seed = 21,
                                    .num_threads = 1});
  const double all_cores =
      EstimateReliability(g, 0, 5, {.num_samples = 5000, .seed = 21,
                                    .num_threads = 0});
  EXPECT_EQ(all_cores, serial);
}

TEST(ParallelMcTest, FromSourceBitIdenticalAcrossThreadCounts) {
  const UncertainGraph g = DiamondGraph();
  const std::vector<double> reference = ReliabilityFromSource(
      g, 0, {.num_samples = 8000, .seed = 5, .num_threads = 1});
  for (int threads : kThreadCounts) {
    const std::vector<double> estimate = ReliabilityFromSource(
        g, 0, {.num_samples = 8000, .seed = 5, .num_threads = threads});
    EXPECT_EQ(estimate, reference) << "num_threads = " << threads;
  }
  // And the values still track the oracle.
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    const double exact = ExactReliabilityFactoring(g, 0, v).value();
    EXPECT_NEAR(reference[v], exact, 0.02) << "node " << v;
  }
}

TEST(ParallelMcTest, ToTargetBitIdenticalAcrossThreadCounts) {
  const UncertainGraph g = BridgeGraph();
  const std::vector<double> reference = ReliabilityToTarget(
      g, 5, {.num_samples = 8000, .seed = 29, .num_threads = 1});
  for (int threads : kThreadCounts) {
    const std::vector<double> estimate = ReliabilityToTarget(
        g, 5, {.num_samples = 8000, .seed = 29, .num_threads = threads});
    EXPECT_EQ(estimate, reference) << "num_threads = " << threads;
  }
}

TEST(ParallelRssTest, BitIdenticalAcrossThreadCountsOnDiamond) {
  const UncertainGraph g = DiamondGraph();
  const double reference = EstimateReliabilityRss(
      g, 0, 3, {.num_samples = 2000, .seed = 7, .num_threads = 1});
  for (int threads : kThreadCounts) {
    const double estimate = EstimateReliabilityRss(
        g, 0, 3, {.num_samples = 2000, .seed = 7, .num_threads = threads});
    EXPECT_EQ(estimate, reference) << "num_threads = " << threads;
  }
}

TEST(ParallelRssTest, BitIdenticalAcrossThreadCountsOnBridge) {
  const UncertainGraph g = BridgeGraph();
  const double reference = EstimateReliabilityRss(
      g, 0, 5, {.num_samples = 2000, .seed = 11, .num_threads = 1});
  for (int threads : kThreadCounts) {
    const double estimate = EstimateReliabilityRss(
        g, 0, 5, {.num_samples = 2000, .seed = 11, .num_threads = threads});
    EXPECT_EQ(estimate, reference) << "num_threads = " << threads;
  }
}

TEST(ParallelRssTest, MatchesExactFactoring) {
  const UncertainGraph diamond = DiamondGraph();
  const UncertainGraph bridge = BridgeGraph();
  EXPECT_NEAR(EstimateReliabilityRss(diamond, 0, 3,
                                     {.num_samples = 20000, .seed = 3,
                                      .num_threads = 4}),
              ExactReliabilityFactoring(diamond, 0, 3).value(), 0.02);
  EXPECT_NEAR(EstimateReliabilityRss(bridge, 0, 5,
                                     {.num_samples = 20000, .seed = 3,
                                      .num_threads = 4}),
              ExactReliabilityFactoring(bridge, 0, 5).value(), 0.02);
}

TEST(ParallelRssTest, FromSourceBitIdenticalAcrossThreadCounts) {
  const UncertainGraph g = BridgeGraph();
  RssSampler reference_sampler(
      g, {.num_samples = 1000, .seed = 5, .num_threads = 1});
  const std::vector<double> reference = reference_sampler.FromSource(0);
  for (int threads : kThreadCounts) {
    RssSampler sampler(g,
                       {.num_samples = 1000, .seed = 5,
                        .num_threads = threads});
    EXPECT_EQ(sampler.FromSource(0), reference)
        << "num_threads = " << threads;
  }
}

TEST(ParallelEvaluateTest, PairwiseBitIdenticalAcrossThreadCounts) {
  const UncertainGraph g = BridgeGraph();
  const auto reference = PairwiseReliability(g, {0, 1}, {4, 5}, 6000, 17, 1);
  for (int threads : kThreadCounts) {
    const auto matrix = PairwiseReliability(g, {0, 1}, {4, 5}, 6000, 17,
                                            threads);
    EXPECT_EQ(matrix, reference) << "num_threads = " << threads;
  }
  EXPECT_NEAR(reference[1][1], ExactReliabilityFactoring(g, 1, 5).value(),
              0.02);
}

TEST(ParallelEvaluateTest, InfluenceSpreadBitIdenticalAcrossThreadCounts) {
  const UncertainGraph g = DiamondGraph();
  const double reference = InfluenceSpread(g, {0}, {1, 2, 3}, 6000, 19, 1);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(InfluenceSpread(g, {0}, {1, 2, 3}, 6000, 19, threads),
              reference)
        << "num_threads = " << threads;
  }
}

// The whole-graph evaluators draw their worlds from one-block WorldBank
// runs, whose rows are the flat bank's columns: a 6000-world matrix and
// spread equal what one flat bank's floods count, bit for bit, at any
// thread count. The graph has thousands of edges, so the fill shards over
// many row ranges, and three sources flood on separate workers.
TEST(ParallelEvaluateTest, OneBlockRunsEqualFlatBankFlood) {
  Rng rng(37);
  UncertainGraph g = UncertainGraph::Directed(300);
  for (NodeId u = 0; u < 300; ++u) {
    for (NodeId v = 0; v < 300; ++v) {
      if (u != v && rng.NextBernoulli(0.05)) {
        ASSERT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.02, 0.3)).ok());
      }
    }
  }
  const std::vector<NodeId> sources = {0, 1, 2};
  const std::vector<NodeId> targets = {2, 3, 4, 5, 6};
  constexpr int kSamples = 6000;
  const WorldBank bank(g, {.num_samples = kSamples, .seed = 41});
  std::vector<std::vector<double>> expected(
      sources.size(), std::vector<double>(targets.size()));
  std::vector<std::vector<uint64_t>> reached_from_any(
      targets.size(), std::vector<uint64_t>(bank.world_words(), 0));
  bank.FloodSources(
      sources, /*num_threads=*/1,
      [&](size_t i, size_t, size_t, const bitlane::BitMatrix& reach) {
        for (size_t j = 0; j < targets.size(); ++j) {
          const auto row = reach.row_span(targets[j]);
          expected[i][j] =
              static_cast<double>(WorldBank::CountBits(row, kSamples)) /
              kSamples;
          for (size_t w = 0; w < row.size(); ++w) {
            reached_from_any[j][w] |= row[w];
          }
        }
      });
  int64_t reached = 0;
  for (const std::vector<uint64_t>& row : reached_from_any) {
    reached += WorldBank::CountBits(row, kSamples);
  }
  const double spread = static_cast<double>(reached) / kSamples;
  EXPECT_GT(spread, 0.0);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(PairwiseReliability(g, sources, targets, kSamples, 41, threads),
              expected)
        << "num_threads = " << threads;
    EXPECT_EQ(InfluenceSpread(g, sources, targets, kSamples, 41, threads),
              spread)
        << "num_threads = " << threads;
  }
}

TEST(WorldBankSolveTest, BeIpSolvesBitIdenticalAcrossThreadCounts) {
  const UncertainGraph g = BridgeGraph();
  CandidateSet candidates;
  candidates.edges = {{0, 3, 0.5}, {1, 4, 0.5}, {2, 5, 0.5}, {0, 4, 0.5}};
  for (CoreMethod method :
       {CoreMethod::kBatchEdges, CoreMethod::kIndividualPaths}) {
    SolverOptions options;
    options.budget_k = 2;
    options.num_samples = 3000;
    options.seed = 23;
    options.reuse_worlds = true;
    options.num_threads = 1;
    const auto reference =
        MaximizeReliabilityWithCandidates(g, 0, 5, candidates, options,
                                          method);
    ASSERT_TRUE(reference.ok());
    EXPECT_FALSE(reference->added_edges.empty());
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const auto solution =
          MaximizeReliabilityWithCandidates(g, 0, 5, candidates, options,
                                            method);
      ASSERT_TRUE(solution.ok());
      EXPECT_EQ(solution->added_edges, reference->added_edges)
          << CoreMethodName(method) << " num_threads = " << threads;
      EXPECT_EQ(solution->reliability_after, reference->reliability_after)
          << CoreMethodName(method) << " num_threads = " << threads;
    }
  }
}

TEST(WorldBankSolveTest, GreedyBaselinesBitIdenticalAcrossThreadCounts) {
  const UncertainGraph g = BridgeGraph();
  const std::vector<Edge> candidates = {
      {0, 3, 0.5}, {1, 4, 0.5}, {2, 5, 0.5}, {0, 4, 0.5}};
  SolverOptions options;
  options.budget_k = 2;
  options.num_samples = 3000;
  options.seed = 29;
  options.reuse_worlds = true;
  options.num_threads = 1;
  const auto hill_reference = SelectHillClimbing(g, 0, 5, candidates, options);
  const auto topk_reference = SelectIndividualTopK(g, 0, 5, candidates,
                                                   options);
  ASSERT_TRUE(hill_reference.ok());
  ASSERT_TRUE(topk_reference.ok());
  EXPECT_EQ(hill_reference->size(), 2u);
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    const auto hill = SelectHillClimbing(g, 0, 5, candidates, options);
    const auto topk = SelectIndividualTopK(g, 0, 5, candidates, options);
    ASSERT_TRUE(hill.ok());
    ASSERT_TRUE(topk.ok());
    EXPECT_EQ(*hill, *hill_reference) << "num_threads = " << threads;
    EXPECT_EQ(*topk, *topk_reference) << "num_threads = " << threads;
  }
}

TEST(ParallelEvaluateTest, SolverOptionsThreadsDoNotChangeEstimates) {
  const UncertainGraph g = BridgeGraph();
  SolverOptions serial;
  serial.num_samples = 4000;
  serial.num_threads = 1;
  SolverOptions parallel = serial;
  parallel.num_threads = 8;
  EXPECT_EQ(EstimateWithOptions(g, 0, 5, serial, 3),
            EstimateWithOptions(g, 0, 5, parallel, 3));
  serial.estimator = Estimator::kRss;
  parallel.estimator = Estimator::kRss;
  EXPECT_EQ(EstimateWithOptions(g, 0, 5, serial, 3),
            EstimateWithOptions(g, 0, 5, parallel, 3));
}

}  // namespace
}  // namespace relmax
