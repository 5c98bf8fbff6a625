#include <gtest/gtest.h>

#include <algorithm>

#include "apps/influence.h"
#include "apps/sensor.h"
#include "core/evaluate.h"
#include "gen/datasets.h"

namespace relmax {
namespace {

SolverOptions FastOptions(int k) {
  SolverOptions options;
  options.budget_k = k;
  options.top_r = 54;
  options.top_l = 15;
  options.elimination_samples = 300;
  options.num_samples = 300;
  options.seed = 4;
  return options;
}

// ------------------------------------------------------------------ sensor

TEST(SensorTest, CandidateLinksRespectDistanceAndMissingness) {
  auto lab = MakeDataset("intel_lab");
  ASSERT_TRUE(lab.ok());
  const std::vector<Edge> links = SensorCandidateLinks(*lab, 15.0, 0.33);
  EXPECT_FALSE(links.empty());
  for (const Edge& e : links) {
    EXPECT_LE(DistanceMeters(*lab, e.src, e.dst), 15.0);
    EXPECT_FALSE(lab->graph.HasEdge(e.src, e.dst));
    EXPECT_DOUBLE_EQ(e.prob, 0.33);
  }
}

TEST(SensorTest, CaseStudyImprovesCrossLabReliability) {
  auto lab = MakeDataset("intel_lab");
  ASSERT_TRUE(lab.ok());
  // A right-side to left-side pair, as in Figure 6 (ids differ from the
  // paper's sensor numbering; pick a far pair by coordinates).
  NodeId right = 0;
  NodeId left = 0;
  for (NodeId v = 0; v < lab->graph.num_nodes(); ++v) {
    if (lab->positions[v].first > lab->positions[right].first) right = v;
    if (lab->positions[v].first < lab->positions[left].first) left = v;
  }
  auto result = ImproveSensorPair(*lab, right, left, /*budget=*/3,
                                  /*link_prob=*/0.33,
                                  /*max_distance_m=*/15.0, FastOptions(3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->new_links.size(), 3u);
  EXPECT_FALSE(result->new_links.empty());
  EXPECT_GT(result->reliability_after, result->reliability_before);
  for (const Edge& e : result->new_links) {
    EXPECT_LE(DistanceMeters(*lab, e.src, e.dst), 15.0);
  }
}

TEST(SensorTest, ValidatesInput) {
  auto lab = MakeDataset("intel_lab");
  ASSERT_TRUE(lab.ok());
  EXPECT_EQ(ImproveSensorPair(*lab, 0, 999, 3, 0.33, 15.0, FastOptions(3))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  auto no_positions = MakeDataset("lastfm", 0.05, 2);
  ASSERT_TRUE(no_positions.ok());
  EXPECT_EQ(ImproveSensorPair(*no_positions, 0, 1, 3, 0.33, 15.0,
                              FastOptions(3))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------- influence

TEST(InfluenceTest, ScenarioPicksDisjointDegreeBands) {
  auto dblp = MakeDataset("dblp", 0.05, 2);
  ASSERT_TRUE(dblp.ok());
  auto scenario = MakeCollaborationScenario(dblp->graph, 5, 40, 3);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_EQ(scenario->seniors.size(), 5u);
  EXPECT_EQ(scenario->juniors.size(), 40u);
  // Disjoint.
  for (NodeId s : scenario->seniors) {
    EXPECT_EQ(std::count(scenario->juniors.begin(), scenario->juniors.end(),
                         s),
              0);
  }
  // Degree bands: every senior out-ranks every junior (seniors come from
  // the top-5% pool, juniors from the bottom quartile).
  size_t min_senior_degree = SIZE_MAX;
  size_t max_junior_degree = 0;
  for (NodeId s : scenario->seniors) {
    min_senior_degree =
        std::min(min_senior_degree, dblp->graph.OutArcs(s).size());
  }
  for (NodeId j : scenario->juniors) {
    max_junior_degree =
        std::max(max_junior_degree, dblp->graph.OutArcs(j).size());
  }
  EXPECT_GT(min_senior_degree, max_junior_degree);
}

TEST(InfluenceTest, EdgeAdditionRaisesSpread) {
  auto dblp = MakeDataset("dblp", 0.03, 2);
  ASSERT_TRUE(dblp.ok());
  auto scenario = MakeCollaborationScenario(dblp->graph, 4, 30, 3);
  ASSERT_TRUE(scenario.ok());
  SolverOptions options = FastOptions(5);
  options.top_r = 40;
  auto result = MaximizeInfluenceSpread(dblp->graph, scenario->seniors,
                                        scenario->juniors, options,
                                        /*pair_cap=*/24);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->recommended_edges.size(), 5u);
  EXPECT_GE(result->spread_after, result->spread_before);
  EXPECT_GT(result->spread_after, 0.0);
}

TEST(InfluenceTest, SpreadIsMonotoneInEdges) {
  // Adding any edge cannot reduce the spread.
  auto dblp = MakeDataset("dblp", 0.03, 2);
  ASSERT_TRUE(dblp.ok());
  auto scenario = MakeCollaborationScenario(dblp->graph, 3, 20, 5);
  ASSERT_TRUE(scenario.ok());
  const double before = InfluenceSpread(dblp->graph, scenario->seniors,
                                        scenario->juniors, 800, 11);
  UncertainGraph augmented = dblp->graph;
  ASSERT_TRUE(augmented
                  .AddEdge(scenario->seniors[0], scenario->juniors[0], 0.9)
                  .ok());
  const double after = InfluenceSpread(augmented, scenario->seniors,
                                       scenario->juniors, 800, 11);
  // Both estimates read the same worlds, so the added edge can only add
  // reached targets.
  EXPECT_GE(after, before);
}

TEST(InfluenceTest, ValidatesArguments) {
  auto dblp = MakeDataset("dblp", 0.03, 2);
  ASSERT_TRUE(dblp.ok());
  EXPECT_EQ(MaximizeInfluenceSpread(dblp->graph, {}, {1}, FastOptions(2))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeCollaborationScenario(dblp->graph, 0, 5, 1).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace relmax
