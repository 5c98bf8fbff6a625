#ifndef RELMAX_CORE_CANDIDATES_H_
#define RELMAX_CORE_CANDIDATES_H_

#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "graph/uncertain_graph.h"

namespace relmax {

/// Output of reliability-based search-space elimination (Algorithm 4).
struct CandidateSet {
  /// C(s): top-r nodes by reliability from the source(s), s itself included.
  std::vector<NodeId> from_source;
  /// C(t): top-r nodes by reliability to the target(s), t itself included.
  std::vector<NodeId> to_target;
  /// E+: missing edges from C(s) to C(t) satisfying the h-hop constraint,
  /// each with probability ζ.
  std::vector<Edge> edges;
};

/// Reliability-based search-space elimination for a single s-t query
/// (Algorithm 4): keeps the top-r nodes by reliability from s and to t, then
/// emits every missing (u, v) ∈ C(s) × C(t) pair whose endpoints are within
/// `options.hop_h` hops (ignoring direction) as a candidate edge with
/// probability ζ, in C(s)-major order. This shrinks the candidate space from
/// O(n²) to O(r²). The hop test is one bitset pass from C(t) (bit j of a
/// node's mask: the j-th C(t) node is near), which stops at the first round
/// that reaches no new node, so its cost is bounded by the graph's diameter
/// whatever hop_h is.
StatusOr<CandidateSet> SelectCandidates(const UncertainGraph& g, NodeId s,
                                        NodeId t,
                                        const SolverOptions& options);

/// Multi-source-target variant (§6.1): C(s) is the union of per-source top-r
/// sets, C(t) the union of per-target sets.
StatusOr<CandidateSet> SelectCandidatesMulti(const UncertainGraph& g,
                                             const std::vector<NodeId>& sources,
                                             const std::vector<NodeId>& targets,
                                             const SolverOptions& options);

/// All missing edges of the graph (each with probability ζ), optionally
/// restricted to the h-hop constraint — the baselines' candidate space when
/// elimination is disabled. Quadratic (one hop BFS per node); intended for
/// small/medium graphs.
std::vector<Edge> AllMissingEdges(const UncertainGraph& g, double zeta,
                                  int hop_h);

}  // namespace relmax

#endif  // RELMAX_CORE_CANDIDATES_H_
