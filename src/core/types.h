#ifndef RELMAX_CORE_TYPES_H_
#define RELMAX_CORE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "graph/uncertain_graph.h"
#include "sampling/rss.h"

namespace relmax {

/// Which s-t reliability estimator the solver pipeline uses (§5.3).
enum class Estimator {
  kMonteCarlo,  ///< plain Monte Carlo sampling [18]
  kRss,         ///< recursive stratified sampling [19]
};

/// Knobs for the budgeted reliability maximization solvers (§5). Field names
/// follow the paper's notation (Table 3).
struct SolverOptions {
  /// Budget k: number of new edges to add.
  int budget_k = 10;
  /// Probability ζ assigned to every new edge.
  double zeta = 0.5;
  /// r: nodes kept per side by reliability-based search-space elimination.
  int top_r = 100;
  /// l: number of most reliable paths extracted from the augmented graph.
  int top_l = 30;
  /// h: a candidate edge (u, v) is allowed only when u and v are within h
  /// hops in the input graph (ignoring direction); negative disables the
  /// constraint (the paper's "generalized case"). Any h is cheap: the hop
  /// pass stops at the first round that reaches no new node, so INT_MAX
  /// costs what the graph's diameter does. The CLI's --h takes
  /// [-1, INT_MAX], -1 for no constraint.
  int hop_h = 3;
  /// Z for the search-space-elimination estimates (from-s / to-t
  /// reliabilities).
  int elimination_samples = 500;
  /// Z for the selection-phase estimates and reported reliabilities.
  int num_samples = 500;
  /// Estimator used in both phases.
  Estimator estimator = Estimator::kMonteCarlo;
  /// RSS-specific knobs (strata width, MC fallback threshold) when
  /// estimator == kRss; its num_samples/seed fields are overridden by the
  /// fields above.
  RssOptions rss;
  /// Seed for all randomized steps; solutions are deterministic given it.
  uint64_t seed = 42;
  /// Worker lanes for every sampling step (estimation, elimination,
  /// selection); <= 0 means all hardware threads. Solutions are
  /// bit-identical for a fixed seed regardless of this value.
  int num_threads = 1;
  /// Run the top-l path search on the subgraph induced by C(s) ∪ C(t)
  /// (fast, the default) instead of on the full augmented graph.
  bool paths_on_eliminated_subgraph = true;
  /// Sample one shared set of `num_samples` possible worlds per solve
  /// (WorldBank) and score every greedy candidate against it — common random
  /// numbers — instead of re-sampling fresh worlds per (round × candidate)
  /// evaluation. Large selection speedup and within-round variance
  /// reduction; estimates stay unbiased and thread-count invariant. Applies
  /// to the Monte Carlo estimator (RSS keeps its stratified per-evaluation
  /// streams).
  bool reuse_worlds = true;
  /// World budget of the greedy baselines' shared worlds, in bytes: the
  /// bank's E rows plus the two per-node reach tables, (E + 2V) bits per
  /// world. When all Z worlds fit, the bank is drawn once per selection;
  /// otherwise each round streams them in runs of lane blocks that fit. The
  /// selections are the same either way.
  size_t max_shared_world_bytes = size_t{1} << 28;  // 256 MB
};

/// Timing/size breakdown reported alongside a solution — the quantities the
/// paper's tables split into "Time 1" (elimination) and "Time 2" (selection).
struct SolutionStats {
  double elimination_seconds = 0.0;
  double selection_seconds = 0.0;
  double total_seconds = 0.0;
  /// |E+| produced by reliability-based elimination.
  size_t candidate_edges = 0;
  /// Candidates surviving the top-l path filter.
  size_t candidate_edges_after_path_filter = 0;
  /// Number of top-l paths considered.
  size_t paths_considered = 0;
  /// Peak RSS observed at the end of the solve, bytes.
  size_t peak_rss_bytes = 0;
};

/// Result of a budgeted reliability maximization query.
struct Solution {
  /// The chosen new edges E1, each with probability ζ (|E1| ≤ k).
  std::vector<Edge> added_edges;
  /// Estimated R(s, t, G) before any addition.
  double reliability_before = 0.0;
  /// Estimated R(s, t, G ∪ E1).
  double reliability_after = 0.0;
  SolutionStats stats;

  double gain() const { return reliability_after - reliability_before; }
};

/// Aggregate function F for multiple-source-target queries (Problem 4).
enum class Aggregate { kAverage, kMinimum, kMaximum };

/// Human-readable aggregate name for harness output.
inline const char* AggregateName(Aggregate agg) {
  switch (agg) {
    case Aggregate::kAverage:
      return "Avg";
    case Aggregate::kMinimum:
      return "Min";
    case Aggregate::kMaximum:
      return "Max";
  }
  internal::CheckFailed("unhandled Aggregate", __FILE__, __LINE__);
}

}  // namespace relmax

#endif  // RELMAX_CORE_TYPES_H_
