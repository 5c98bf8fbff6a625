// Interval calibration of the sampled reliability estimators. Each estimate
// p̂ over Z worlds carries the Wald interval p̂ ± 1.96·sqrt(p̂(1 − p̂)/Z);
// across a fixed list of seeds it must contain the exact reliability, from
// the factoring oracle on 20–40-edge graphs, at a rate within 4 binomial σ
// of the nominal 95%. The 3σ oracle sweeps on ≤ 10 edges catch gross error;
// this catches a biased or over-dispersed estimator that still lands near
// the answer.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fast_gain.h"
#include "core/evaluate.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"
#include "oracle_util.h"
#include "sampling/reliability.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

constexpr int kSamples = 2000;
constexpr int kSeedsPerGraph = 400;

struct Fixture {
  UncertainGraph graph;
  NodeId t;
  double exact;
};

// Five graphs of 20 to 40 edges, each with R(0, t) well inside (0, 1) so no
// interval degenerates to a point. Undirected ones stay at 20 edges: past
// that, factoring them takes seconds.
std::vector<Fixture> Fixtures() {
  struct Spec {
    uint64_t seed;
    NodeId n;
    int edges;
    bool directed;
  };
  const Spec specs[] = {{430, 10, 20, true},
                        {132, 12, 20, false},
                        {234, 14, 20, false},
                        {344, 10, 34, true},
                        {450, 10, 40, true}};
  std::vector<Fixture> fixtures;
  for (const Spec& spec : specs) {
    UncertainGraph g =
        oracle::SmallRandomGraph(spec.seed, spec.n, spec.edges, spec.directed);
    const NodeId t = spec.n - 1;
    const double exact = ExactReliabilityFactoring(g, 0, t).value();
    fixtures.push_back({std::move(g), t, exact});
  }
  return fixtures;
}

using Estimator =
    std::function<double(const UncertainGraph&, NodeId, int, uint64_t)>;

// Fraction of the (fixture, seed) runs whose Wald interval holds the exact
// value.
double Coverage(const std::vector<Fixture>& fixtures,
                const Estimator& estimate) {
  int covered = 0;
  int runs = 0;
  for (const Fixture& f : fixtures) {
    for (int k = 0; k < kSeedsPerGraph; ++k) {
      // A seed per run: keyed draws at one seed are the same uniforms for
      // edge e of every fixture, which would correlate the fixtures' runs.
      const double p = estimate(f.graph, f.t, kSamples, 1000 + runs);
      const double sigma = std::sqrt(p * (1 - p) / kSamples);
      covered += std::fabs(p - f.exact) <= 1.96 * sigma ? 1 : 0;
      ++runs;
    }
  }
  return static_cast<double>(covered) / runs;
}

TEST(CalibrationTest, FixturesAreNonDegenerate) {
  for (const Fixture& f : Fixtures()) {
    EXPECT_GE(f.graph.num_edges(), 20u);
    EXPECT_LE(f.graph.num_edges(), 40u);
    EXPECT_GT(f.exact, 0.1);
    EXPECT_LT(f.exact, 0.9);
  }
}

TEST(CalibrationTest, IntervalsCoverTheExactValueAtTheNominalRate) {
  const std::vector<Fixture> fixtures = Fixtures();
  const std::vector<std::pair<std::string, Estimator>> estimators = {
      {"EstimateReliability",
       [](const UncertainGraph& g, NodeId t, int z, uint64_t seed) {
         return EstimateReliability(g, 0, t,
                                    {.num_samples = z, .seed = seed});
       }},
      {"PairwiseReliability",
       [](const UncertainGraph& g, NodeId t, int z, uint64_t seed) {
         return PairwiseReliability(g, {0}, {t}, z, seed)[0][0];
       }},
      {"InfluenceSpread",
       [](const UncertainGraph& g, NodeId t, int z, uint64_t seed) {
         return InfluenceSpread(g, {0}, {t}, z, seed);
       }},
      {"WorldEnsemble::BaseReliability",
       [](const UncertainGraph& g, NodeId t, int z, uint64_t seed) {
         return WorldEnsemble(g, 0, t, z, seed).BaseReliability();
       }},
      {"WorldBank::ConnectedFraction",
       [](const UncertainGraph& g, NodeId t, int z, uint64_t seed) {
         const WorldBank bank(g, {.num_samples = z, .seed = seed});
         return bank.ConnectedFraction(0, t, bank.AllEdges());
       }},
  };
  const double runs = static_cast<double>(fixtures.size() * kSeedsPerGraph);
  const double tolerance = 4 * std::sqrt(0.95 * 0.05 / runs);
  for (const auto& [name, estimate] : estimators) {
    EXPECT_NEAR(Coverage(fixtures, estimate), 0.95, tolerance) << name;
  }
}

}  // namespace
}  // namespace relmax
