#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "baselines/centrality.h"
#include "baselines/eigen.h"
#include "baselines/esssp.h"
#include "baselines/exact.h"
#include "baselines/fast_gain.h"
#include "baselines/greedy.h"
#include "baselines/ima.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"
#include "sampling/bitlane.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

SolverOptions FastOptions(int k = 2) {
  SolverOptions options;
  options.budget_k = k;
  options.zeta = 0.5;
  options.num_samples = 2500;
  options.seed = 17;
  return options;
}

// ----------------------------------------------------------- betweenness

TEST(BetweennessTest, PathGraphCentersDominate) {
  // Undirected path 0-1-2-3-4: betweenness 0, 3, 4, 3, 0.
  UncertainGraph g = UncertainGraph::Undirected(5);
  for (NodeId i = 0; i + 1 < 5; ++i) ASSERT_TRUE(g.AddEdge(i, i + 1, 0.5).ok());
  const std::vector<double> c = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
  EXPECT_DOUBLE_EQ(c[2], 4.0);
  EXPECT_DOUBLE_EQ(c[3], 3.0);
  EXPECT_DOUBLE_EQ(c[4], 0.0);
}

TEST(BetweennessTest, StarCenterTakesAll) {
  // Undirected star with center 0 and 4 leaves: center betweenness =
  // C(4,2) = 6 leaf pairs, leaves 0.
  UncertainGraph g = UncertainGraph::Undirected(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    ASSERT_TRUE(g.AddEdge(0, leaf, 0.5).ok());
  }
  const std::vector<double> c = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(c[0], 6.0);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_DOUBLE_EQ(c[leaf], 0.0);
}

TEST(BetweennessTest, DirectedChainCounts) {
  // Directed chain 0->1->2: node 1 lies on the single 0->2 path.
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  const std::vector<double> c = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[2], 0.0);
}

TEST(CentralityTest, DegreeSelectionPicksHubPairs) {
  // Node 0 and 1 are hubs; candidate (0, 1) must rank first.
  UncertainGraph g = UncertainGraph::Undirected(6);
  for (NodeId v = 2; v < 6; ++v) {
    ASSERT_TRUE(g.AddEdge(0, v, 0.9).ok());
    ASSERT_TRUE(g.AddEdge(1, v, 0.9).ok());
  }
  const std::vector<Edge> candidates = {{0, 1, 0.5}, {2, 3, 0.5}, {4, 5, 0.5}};
  const std::vector<Edge> chosen = SelectByDegreeCentrality(g, candidates, 1);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].src, 0u);
  EXPECT_EQ(chosen[0].dst, 1u);
}

TEST(CentralityTest, BetweennessSelectionPrefersBridgeEndpoints) {
  // Barbell: two triangles joined by a bridge 2-3; bridge endpoints have the
  // highest betweenness.
  UncertainGraph g = UncertainGraph::Undirected(6);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(3, 5, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(4, 5, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.5).ok());
  const std::vector<Edge> candidates = {{0, 5, 0.5}, {2, 4, 0.5}};
  const std::vector<Edge> chosen =
      SelectByBetweennessCentrality(g, candidates, 1);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].src, 2u);  // (2, 4) touches bridge endpoint 2
}

// ------------------------------------------------------------------ eigen

TEST(EigenTest, CompleteGraphEigenvalue) {
  // K4 with all probabilities 1: adjacency eigenvalue n-1 = 3.
  UncertainGraph g = UncertainGraph::Undirected(4);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) ASSERT_TRUE(g.AddEdge(u, v, 1.0).ok());
  }
  const EigenDecomposition eigen = LeadingEigen(g);
  EXPECT_NEAR(eigen.eigenvalue, 3.0, 1e-6);
  // Symmetric graph: uniform eigenvector.
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_NEAR(eigen.right[v], eigen.right[0], 1e-6);
  }
}

TEST(EigenTest, WeightedCycleEigenvalue) {
  // Directed 3-cycle with probability p: spectral radius p.
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.6).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, 0.6).ok());
  EXPECT_NEAR(LeadingEigen(g).eigenvalue, 0.6, 1e-6);
}

TEST(EigenTest, DagHasZeroEigenvalue) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.9).ok());
  EXPECT_NEAR(LeadingEigen(g).eigenvalue, 0.0, 1e-9);
}

TEST(EigenTest, SelectionPrefersHighScorePairs) {
  // Dense core {0,1,2} + pendant nodes; eigen scores concentrate on the
  // core, so the core-to-core candidate wins.
  UncertainGraph g = UncertainGraph::Undirected(6);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, 0.1).ok());
  const std::vector<Edge> candidates = {{0, 2, 0.5}, {4, 5, 0.5}};
  const std::vector<Edge> chosen = SelectByEigenScore(g, candidates, 1, 0.5);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].src, 0u);
  EXPECT_EQ(chosen[0].dst, 2u);
}

TEST(EigenTest, EmptyCandidatesFollowsAlgorithm2) {
  UncertainGraph g = UncertainGraph::Undirected(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, 0.9).ok());
  const std::vector<Edge> chosen = SelectByEigenScore(g, {}, 2, 0.5);
  EXPECT_EQ(chosen.size(), 2u);
  for (const Edge& e : chosen) {
    EXPECT_FALSE(g.HasEdge(e.src, e.dst));
    EXPECT_DOUBLE_EQ(e.prob, 0.5);
  }
}

// ----------------------------------------------------------------- greedy

// Diamond where one candidate is clearly dominant: the direct s-t edge.
struct GreedyFixture {
  UncertainGraph g = UncertainGraph::Directed(4);
  std::vector<Edge> candidates;
  GreedyFixture() {
    EXPECT_TRUE(g.AddEdge(0, 1, 0.4).ok());
    EXPECT_TRUE(g.AddEdge(1, 3, 0.4).ok());
    EXPECT_TRUE(g.AddEdge(0, 2, 0.2).ok());
    candidates = {{0, 3, 0.5}, {2, 3, 0.5}, {2, 1, 0.5}};
  }
};

TEST(GreedyTest, IndividualTopKRanksDirectEdgeFirst) {
  GreedyFixture fx;
  auto chosen = SelectIndividualTopK(fx.g, 0, 3, fx.candidates,
                                     FastOptions(1));
  ASSERT_TRUE(chosen.ok());
  ASSERT_EQ(chosen->size(), 1u);
  EXPECT_EQ((*chosen)[0].src, 0u);
  EXPECT_EQ((*chosen)[0].dst, 3u);
}

TEST(GreedyTest, HillClimbingMatchesExactGreedyOnSmallGraph) {
  GreedyFixture fx;
  auto chosen = SelectHillClimbing(fx.g, 0, 3, fx.candidates, FastOptions(2));
  ASSERT_TRUE(chosen.ok());
  ASSERT_EQ(chosen->size(), 2u);
  // Round 1 must take the direct edge; round 2 the best complement.
  EXPECT_EQ((*chosen)[0].dst, 3u);
  EXPECT_EQ((*chosen)[0].src, 0u);
  // Verify round-2 choice against exact reliabilities.
  double best_exact = -1.0;
  Edge best_edge{0, 0, 0};
  for (size_t i = 1; i < fx.candidates.size(); ++i) {
    const UncertainGraph aug =
        AugmentGraph(fx.g, {fx.candidates[0], fx.candidates[i]});
    const double r = ExactReliabilityFactoring(aug, 0, 3).value();
    if (r > best_exact) {
      best_exact = r;
      best_edge = fx.candidates[i];
    }
  }
  EXPECT_EQ((*chosen)[1].src, best_edge.src);
  EXPECT_EQ((*chosen)[1].dst, best_edge.dst);
}

TEST(GreedyTest, BudgetLargerThanPoolTakesEverything) {
  GreedyFixture fx;
  auto chosen = SelectHillClimbing(fx.g, 0, 3, fx.candidates, FastOptions(10));
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(chosen->size(), fx.candidates.size());
}

TEST(GreedyTest, CappedSharedWorldsPickTheUncappedEdges) {
  // A random graph with many close candidates, so the picks follow the
  // exact counts, and Z = 1100: lane blocks of 8, 8 and a partial 2 words.
  for (const bool directed : {true, false}) {
    Rng rng(directed ? 23 : 29);
    constexpr NodeId kNodes = 14;
    UncertainGraph g = directed ? UncertainGraph::Directed(kNodes)
                                : UncertainGraph::Undirected(kNodes);
    std::vector<Edge> candidates;
    for (NodeId u = 0; u < kNodes; ++u) {
      for (NodeId v = 0; v < kNodes; ++v) {
        if (u == v || g.HasEdge(u, v)) continue;
        if (rng.NextBernoulli(0.15)) {
          ASSERT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.1, 0.6)).ok());
        } else if (rng.NextBernoulli(0.12)) {
          candidates.push_back({u, v, 0.5});
        }
      }
    }
    if (!directed) {
      // An undirected candidate must not repeat one in the other direction.
      std::vector<Edge> kept;
      for (const Edge& c : candidates) {
        bool twin = false;
        for (const Edge& k : kept) {
          twin = twin || (k.src == c.dst && k.dst == c.src);
        }
        if (!twin && !g.HasEdge(c.src, c.dst)) kept.push_back(c);
      }
      candidates = kept;
    }
    ASSERT_GE(candidates.size(), 8u);
    SolverOptions options = FastOptions(4);
    options.num_samples = 1100;
    const NodeId t = kNodes - 1;
    const auto top_k = SelectIndividualTopK(g, 0, t, candidates, options);
    const auto climb = SelectHillClimbing(g, 0, t, candidates, options);
    ASSERT_TRUE(top_k.ok());
    ASSERT_TRUE(climb.ok());
    // One lane block of the bank's rows plus the two per-node reach tables.
    const size_t block =
        (AugmentGraph(g, candidates).num_edges() + 2 * size_t{kNodes}) * 64;
    for (const int threads : {1, 4}) {
      for (const size_t budget : {size_t{1}, block, 2 * block}) {
        SolverOptions capped = options;
        capped.num_threads = threads;
        capped.max_shared_world_bytes = budget;
        const std::string what = std::string(directed ? "directed" : "undir") +
                                 " threads " + std::to_string(threads) +
                                 " budget " + std::to_string(budget);
        const auto capped_top_k =
            SelectIndividualTopK(g, 0, t, candidates, capped);
        const auto capped_climb =
            SelectHillClimbing(g, 0, t, candidates, capped);
        ASSERT_TRUE(capped_top_k.ok());
        ASSERT_TRUE(capped_climb.ok());
        EXPECT_EQ(*capped_top_k, *top_k) << what;
        EXPECT_EQ(*capped_climb, *climb) << what;
      }
    }
  }
}

TEST(GreedyTest, SharedWorldSelectionIsLaneAndThreadInvariant) {
  GreedyFixture fx;
  std::vector<Edge> reference;
  for (const bitlane::LaneMode mode :
       {bitlane::LaneMode::kBranchFree, bitlane::LaneMode::kScalar}) {
    const bitlane::ScopedLaneMode scoped(mode);
    for (const int threads : {1, 4}) {
      SolverOptions options = FastOptions(2);
      options.num_threads = threads;
      auto chosen = SelectHillClimbing(fx.g, 0, 3, fx.candidates, options);
      ASSERT_TRUE(chosen.ok());
      if (reference.empty()) {
        reference = *chosen;
        continue;
      }
      ASSERT_EQ(chosen->size(), reference.size())
          << bitlane::ModeName(mode) << ", threads = " << threads;
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ((*chosen)[i].src, reference[i].src);
        EXPECT_EQ((*chosen)[i].dst, reference[i].dst);
      }
    }
  }
}

TEST(GreedyTest, ValidatesArguments) {
  GreedyFixture fx;
  EXPECT_EQ(SelectIndividualTopK(fx.g, 0, 9, fx.candidates, FastOptions())
                .status()
                .code(),
            StatusCode::kOutOfRange);
  SolverOptions bad = FastOptions();
  bad.budget_k = 0;
  EXPECT_EQ(
      SelectHillClimbing(fx.g, 0, 3, fx.candidates, bad).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(GreedyTest, InvalidCandidatesAreRejectedLoudly) {
  // Regression: a candidate AugmentGraph rejects (self-loop, out-of-range
  // endpoint, bad probability) used to be silently scored as gain 0 in
  // release builds — and, with reuse_worlds on, looked up with an unchecked
  // EdgeIndexOf dereference. Both baselines must refuse such input instead.
  GreedyFixture fx;
  for (const bool reuse : {true, false}) {
    SolverOptions options = FastOptions(2);
    options.reuse_worlds = reuse;
    auto with_bad = [&](Edge bad) {
      std::vector<Edge> candidates = fx.candidates;
      candidates.push_back(bad);
      return candidates;
    };
    EXPECT_EQ(SelectHillClimbing(fx.g, 0, 3, with_bad({2, 2, 0.5}), options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "reuse_worlds = " << reuse;
    EXPECT_EQ(SelectIndividualTopK(fx.g, 0, 3, with_bad({2, 9, 0.5}), options)
                  .status()
                  .code(),
              StatusCode::kOutOfRange)
        << "reuse_worlds = " << reuse;
    EXPECT_EQ(SelectHillClimbing(fx.g, 0, 3, with_bad({2, 3, 1.5}), options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "reuse_worlds = " << reuse;
    // Valid candidates still solve identically.
    auto hill = SelectHillClimbing(fx.g, 0, 3, fx.candidates, options);
    ASSERT_TRUE(hill.ok()) << "reuse_worlds = " << reuse;
    ASSERT_EQ(hill->size(), 2u);
    EXPECT_EQ((*hill)[0].src, 0u);  // the dominant direct edge still wins
    EXPECT_EQ((*hill)[0].dst, 3u);
  }
}

TEST(GreedyTest, MultiAggregateObjective) {
  GreedyFixture fx;
  auto chosen = SelectHillClimbingMulti(fx.g, {0}, {3}, Aggregate::kAverage,
                                        fx.candidates, FastOptions(1));
  ASSERT_TRUE(chosen.ok());
  ASSERT_EQ(chosen->size(), 1u);
  EXPECT_EQ((*chosen)[0].dst, 3u);  // same as single-pair behavior
}

// ------------------------------------------------------------------ exact

TEST(ExactBaselineTest, FindsOptimalPair) {
  // Figure 3 / Table 2 row 2 (alpha 0.5, zeta 0.3): optimal is {sA, sB}.
  UncertainGraph g = UncertainGraph::Undirected(4);
  const NodeId s = 0, a = 1, b = 2, t = 3;
  ASSERT_TRUE(g.AddEdge(a, b, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(a, t, 0.5).ok());
  const std::vector<Edge> candidates = {{s, a, 0.3}, {s, b, 0.3}, {b, t, 0.3}};
  SolverOptions options = FastOptions(2);
  auto chosen = SelectExact(g, s, t, candidates, options);
  ASSERT_TRUE(chosen.ok());
  ASSERT_EQ(chosen->size(), 2u);
  // {sA, sB} in some order.
  std::vector<NodeId> dsts = {(*chosen)[0].dst, (*chosen)[1].dst};
  std::sort(dsts.begin(), dsts.end());
  EXPECT_EQ(dsts, (std::vector<NodeId>{a, b}));
}

TEST(ExactBaselineTest, RefusesExplosiveEnumerations) {
  UncertainGraph g = UncertainGraph::Directed(100);
  std::vector<Edge> candidates;
  for (NodeId i = 0; i < 60; ++i) candidates.push_back({i, i + 1, 0.5});
  SolverOptions options = FastOptions(10);
  EXPECT_EQ(SelectExact(g, 0, 99, candidates, options, /*max_combinations=*/
                        10000)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ esssp / ima

TEST(EssspTest, ObjectiveAndSelection) {
  // Chain 0 -> 1 -> 2 with certain edges: E[SPL] = 2 for pair (0, 2).
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  EXPECT_NEAR(ExpectedSplSum(g, {0}, {2}, 200, 1), 2.0, 1e-9);
  // Candidate (0, 2) shortens it to 1 when present.
  auto chosen = SelectEsssp(g, {0}, {2}, {{0, 2, 1.0}, {2, 0, 1.0}},
                            FastOptions(1));
  ASSERT_TRUE(chosen.ok());
  ASSERT_EQ(chosen->size(), 1u);
  EXPECT_EQ((*chosen)[0].src, 0u);
  EXPECT_EQ((*chosen)[0].dst, 2u);
}

TEST(EssspTest, UnreachablePenalty) {
  UncertainGraph g = UncertainGraph::Directed(4);  // no edges
  EXPECT_NEAR(ExpectedSplSum(g, {0}, {3}, 50, 1), 4.0, 1e-9);  // penalty = n
}

TEST(ImaTest, PicksSpreadMaximizingEdge) {
  // Source 0; targets {2, 3} sit behind node 1. Candidate (0, 1) unlocks
  // both targets; candidate (3, 2) helps nothing.
  UncertainGraph g = UncertainGraph::Directed(4);
  ASSERT_TRUE(g.AddEdge(1, 2, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 0.9).ok());
  auto chosen = SelectIma(g, {0}, {2, 3}, {{0, 1, 0.9}, {3, 2, 0.9}},
                          FastOptions(1));
  ASSERT_TRUE(chosen.ok());
  ASSERT_EQ(chosen->size(), 1u);
  EXPECT_EQ((*chosen)[0].src, 0u);
  EXPECT_EQ((*chosen)[0].dst, 1u);
}

TEST(InfluenceSpreadTest, MatchesClosedForm) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  // E[#targets reached] = 0.5 + 0.5 = 1.
  EXPECT_NEAR(InfluenceSpread(g, {0}, {1, 2}, 40000, 3), 1.0, 0.02);
}

TEST(InfluenceSpreadTest, SingleTargetIsUnionOfSources) {
  // Two independent 1-edge routes into t; either source suffices.
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  EXPECT_NEAR(InfluenceSpread(g, {0, 1}, {2}, 60000, 29), 1.0 - 0.25,
              0.01);  // 1 - (1-0.5)^2
  EXPECT_DOUBLE_EQ(InfluenceSpread(g, {0, 2}, {2}, 10, 29), 1.0);
}

// -------------------------------------------------------------- fast gain

TEST(FastGainTest, DeltaGainMatchesExactDifference) {
  GreedyFixture fx;
  const WorldEnsemble ensemble(fx.g, 0, 3, 60000, 5);
  const double base = ExactReliabilityFactoring(fx.g, 0, 3).value();
  EXPECT_NEAR(ensemble.BaseReliability(), base, 0.01);
  for (const Edge& e : fx.candidates) {
    const UncertainGraph aug = AugmentGraph(fx.g, {e});
    const double exact_gain =
        ExactReliabilityFactoring(aug, 0, 3).value() - base;
    EXPECT_NEAR(ensemble.DeltaGain(e.src, e.dst, e.prob), exact_gain, 0.012)
        << e.src << "->" << e.dst;
  }
}

TEST(FastGainTest, UndirectedDeltaGainIsUnionOfOrientations) {
  // Undirected chain 0-1, candidate {1, 2} (t = 2): only orientation 1->2
  // matters, but the union formula must match the exact gain.
  UncertainGraph g = UncertainGraph::Undirected(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  const WorldEnsemble ensemble(g, 0, 2, 60000, 5);
  const double exact_gain =
      ExactReliabilityFactoring(AugmentGraph(g, {{1, 2, 0.5}}), 0, 2).value();
  EXPECT_NEAR(ensemble.DeltaGainUndirected(1, 2, 0.5), exact_gain, 0.01);
}

TEST(FastGainTest, FastTopKAgreesWithFaithfulTopK) {
  GreedyFixture fx;
  SolverOptions options = FastOptions(2);
  options.num_samples = 20000;
  auto fast = SelectIndividualTopKFast(fx.g, 0, 3, fx.candidates, options);
  auto slow = SelectIndividualTopK(fx.g, 0, 3, fx.candidates, options);
  ASSERT_TRUE(fast.ok() && slow.ok());
  ASSERT_EQ(fast->size(), slow->size());
  for (size_t i = 0; i < fast->size(); ++i) {
    EXPECT_EQ((*fast)[i].src, (*slow)[i].src);
    EXPECT_EQ((*fast)[i].dst, (*slow)[i].dst);
  }
}

TEST(FastGainTest, FastHillClimbingStaysWithinBudget) {
  GreedyFixture fx;
  auto chosen = SelectHillClimbingFast(fx.g, 0, 3, fx.candidates,
                                       FastOptions(2));
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(chosen->size(), 2u);
  EXPECT_EQ((*chosen)[0].dst, 3u);  // direct edge first, as with faithful HC
}

}  // namespace
}  // namespace relmax
