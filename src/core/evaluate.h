#ifndef RELMAX_CORE_EVALUATE_H_
#define RELMAX_CORE_EVALUATE_H_

#include <memory>
#include <vector>

#include "core/types.h"
#include "graph/uncertain_graph.h"
#include "paths/most_reliable_path.h"

namespace relmax {

struct AnnotatedPath;  // core/selection.h

/// Estimates R(s, t, g) with the estimator selected in `options` (MC or RSS)
/// at `options.num_samples` samples. `seed_salt` decorrelates repeated
/// evaluations inside iterative selection loops.
double EstimateWithOptions(const UncertainGraph& g, NodeId s, NodeId t,
                           const SolverOptions& options,
                           uint64_t seed_salt = 0);

/// Reliability of every node from s / to t with the selected estimator, at
/// `options.elimination_samples` samples.
std::vector<double> FromSourceWithOptions(const UncertainGraph& g, NodeId s,
                                          const SolverOptions& options,
                                          uint64_t seed_salt = 0);
std::vector<double> ToTargetWithOptions(const UncertainGraph& g, NodeId t,
                                        const SolverOptions& options,
                                        uint64_t seed_salt = 0);

/// Copy of `g` with `edges` added (existing duplicates are skipped). The
/// solver's after-estimate, which only samples, uses the cheaper
/// UncertainGraph::UnindexedAugmented instead.
UncertainGraph AugmentGraph(const UncertainGraph& g,
                            const std::vector<Edge>& edges);

/// A compact graph assembled from the union of a set of paths' edges — the
/// "subgraph induced by the path set" on which Algorithms 5/6 evaluate
/// marginal reliability gains. Nodes are remapped densely.
class PathUnionSubgraph {
 public:
  /// `base` supplies edge probabilities (EdgeProb on path edges only);
  /// paths refer to base node ids. The solver passes its eliminated
  /// subgraph, so no full augmented graph is needed.
  PathUnionSubgraph(const UncertainGraph& base, NodeId s, NodeId t);

  /// Adds every edge of `path` (edges already present are shared, not
  /// duplicated). Node ids are remapped lazily. Returns the path's edge ids
  /// in the compact graph, in path order.
  std::vector<EdgeId> AddPath(const PathResult& path);

  /// R(s, t) on the current union, with the configured estimator.
  double Reliability(const SolverOptions& options, uint64_t seed_salt) const;

  /// The compact union graph; grows as paths are added.
  const UncertainGraph& graph() const { return graph_; }
  /// s and t in compact ids.
  NodeId s() const { return s_; }
  NodeId t() const { return t_; }

  size_t num_nodes() const { return graph_.num_nodes(); }
  size_t num_edges() const { return graph_.num_edges(); }

 private:
  NodeId Map(NodeId v);

  const UncertainGraph& base_;
  UncertainGraph graph_;
  std::vector<NodeId> remap_;  // base id -> compact id (kInvalidNode = none)
  NodeId s_;
  NodeId t_;
};

/// Shared-possible-world evaluator for the BE/IP selection inner loop
/// (SolverOptions::reuse_worlds).
///
/// Builds the union subgraph of **all** annotated paths once — the edge
/// universe, small by construction (≤ top-l short paths) — and samples
/// `options.num_samples` worlds over it into a WorldBank. Evaluating a path
/// set then draws no random numbers: worlds where some selected path is
/// fully up are connected for free (an OR of per-path precomputed world
/// bitsets), and only the remaining worlds run a BFS over the bank's bit
/// rows restricted to the selected paths' edges. Every candidate in every
/// round is scored against the same worlds (common random numbers), which
/// both removes the dominant re-sampling cost and makes greedy marginal-gain
/// comparisons consistent within a round.
class PathSetEvaluator {
 public:
  PathSetEvaluator(const UncertainGraph& g_plus, NodeId s, NodeId t,
                   const std::vector<AnnotatedPath>& paths,
                   const SolverOptions& options);
  ~PathSetEvaluator();

  PathSetEvaluator(const PathSetEvaluator&) = delete;
  PathSetEvaluator& operator=(const PathSetEvaluator&) = delete;

  /// R(s, t) on the union subgraph of paths[i] for i in `selected`, plus
  /// paths[extra] when extra >= 0. Deterministic given construction.
  double Reliability(const std::vector<int>& selected, int extra = -1);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Pairwise reliability matrix R(s_i, t_j) over shared sampled worlds —
/// the evaluation primitive for multiple-source-target objectives (§6).
/// result[i][j] = R(sources[i], targets[j]). The worlds are keyed WorldBank
/// worlds at `seed`, drawn one 512-world lane block at a time (the range
/// constructor), so memory is E · 64 B plus n · 64 B per worker whatever
/// num_samples is; each block floods every source (FloodSources) and
/// popcounts the target rows, and the summed counts equal a flat bank's.
/// Bit-identical for a fixed seed across any num_threads. An edge's bits
/// depend only on (seed, edge id, world), so adding an edge to g never
/// lowers a cell at the same seed.
std::vector<std::vector<double>> PairwiseReliability(
    const UncertainGraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, int num_samples, uint64_t seed,
    int num_threads = 1);

/// Applies the aggregate F over a pairwise reliability matrix.
double AggregateMatrix(const std::vector<std::vector<double>>& matrix,
                       Aggregate agg);

/// Expected number of targets reachable from at least one source — the
/// independent-cascade influence spread restricted to the target set
/// (Equation 13, §8.4.2). Under possible-world semantics IC activation
/// equals reachability, so each lane block of PairwiseReliability's worlds
/// runs one fixpoint seeded with every source row (kSeedsAreFacts) and
/// popcounts the targets. With one source and one target it equals that
/// pairwise cell bit for bit; like it, bit-identical across num_threads and
/// never lowered by an added edge at the same seed.
double InfluenceSpread(const UncertainGraph& g,
                       const std::vector<NodeId>& sources,
                       const std::vector<NodeId>& targets, int num_samples,
                       uint64_t seed, int num_threads = 1);

}  // namespace relmax

#endif  // RELMAX_CORE_EVALUATE_H_
