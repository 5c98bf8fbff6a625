#include "core/solver.h"

#include <algorithm>
#include <set>

#include "common/memory.h"
#include "common/timer.h"
#include "core/evaluate.h"
#include "core/selection.h"
#include "paths/layered_mrp.h"
#include "paths/yen.h"

namespace relmax {
namespace {

// The graph the top-l paths are searched on, with s, t and the candidate
// edges in its node ids (`candidates` keeps CandidateSet::edges' order, so a
// candidate index means the same edge in both).
struct PathSearchGraph {
  UncertainGraph graph;
  NodeId s;
  NodeId t;
  std::vector<Edge> candidates;
};

// The subgraph of g ∪ E+ induced by s, t, C(s), C(t) and every candidate
// endpoint (caller-supplied candidate sets may omit the node lists), built
// from g's CSR and the candidate list without materializing g ∪ E+. Node i is
// the i-th of those nodes in that order, and every node lists its base arcs
// before its candidate arcs, which is the graph
// AugmentGraph(g, E+).InducedSubgraph(nodes) gives, edge ids included.
PathSearchGraph EliminatedSubgraph(const UncertainGraph& g, NodeId s, NodeId t,
                                   const CandidateSet& candidates) {
  std::vector<NodeId> local(g.num_nodes(), kInvalidNode);
  std::vector<NodeId> nodes;
  const auto push = [&](NodeId v) {
    if (local[v] != kInvalidNode) return;
    local[v] = static_cast<NodeId>(nodes.size());
    nodes.push_back(v);
  };
  push(s);
  push(t);
  for (NodeId v : candidates.from_source) push(v);
  for (NodeId v : candidates.to_target) push(v);
  for (const Edge& e : candidates.edges) {
    push(e.src);
    push(e.dst);
  }

  const NodeId m = static_cast<NodeId>(nodes.size());
  PathSearchGraph out{g.directed() ? UncertainGraph::Directed(m)
                                   : UncertainGraph::Undirected(m),
                      0, 1, {}};
  // Each candidate arc is added on the turn of its tail, or for an undirected
  // edge of its earlier endpoint; bucket them by that node, keeping list
  // order.
  out.candidates.reserve(candidates.edges.size());
  std::vector<size_t> first(m + 1, 0);
  const auto owner = [&](const Edge& e) {
    return g.directed() ? e.src : std::min(e.src, e.dst);
  };
  for (const Edge& e : candidates.edges) {
    out.candidates.push_back({local[e.src], local[e.dst], e.prob});
    ++first[owner(out.candidates.back()) + 1];
  }
  for (NodeId i = 0; i < m; ++i) first[i + 1] += first[i];
  std::vector<const Edge*> bucket(out.candidates.size());
  std::vector<size_t> cursor(first.begin(), first.end() - 1);
  for (const Edge& e : out.candidates) bucket[cursor[owner(e)]++] = &e;

  // AddEdge turns down what AugmentGraph would have skipped: a candidate
  // that repeats a base edge or an earlier candidate.
  const auto add = [&](NodeId u, NodeId v, double p) {
    const Status st = out.graph.AddEdge(u, v, p);
    RELMAX_DCHECK(st.ok() || st.code() == StatusCode::kAlreadyExists);
    (void)st;
  };
  const CsrView csr = g.OutCsr();
  for (NodeId i = 0; i < m; ++i) {
    for (size_t a = csr.begin(nodes[i]); a < csr.end(nodes[i]); ++a) {
      const NodeId j = local[csr.heads[a]];
      // An undirected edge is added from its earlier endpoint only.
      if (j == kInvalidNode || (!g.directed() && j < i)) continue;
      add(i, j, csr.probs[a]);
    }
    for (size_t b = first[i]; b < first[i + 1]; ++b) {
      const Edge& e = *bucket[b];
      const NodeId j = e.src == i ? e.dst : e.src;
      add(i, j, e.prob);
    }
  }
  return out;
}

size_t CountDistinctCandidates(const std::vector<AnnotatedPath>& paths) {
  std::set<int> distinct;
  for (const AnnotatedPath& p : paths) {
    distinct.insert(p.candidate_indices.begin(), p.candidate_indices.end());
  }
  return distinct.size();
}

}  // namespace

StatusOr<Solution> MaximizeReliability(const UncertainGraph& g, NodeId s,
                                       NodeId t, const SolverOptions& options,
                                       CoreMethod method) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (s == t) {
    // Degenerate query: skip candidate elimination entirely — the answer is
    // known and paying the full elimination pass for it would be pure waste.
    return MaximizeReliabilityWithCandidates(g, s, t, CandidateSet{}, options,
                                             method);
  }
  WallTimer elimination_timer;
  auto candidates = SelectCandidates(g, s, t, options);
  RELMAX_RETURN_IF_ERROR(candidates.status());
  const double elimination_seconds = elimination_timer.ElapsedSeconds();

  auto solution =
      MaximizeReliabilityWithCandidates(g, s, t, *candidates, options, method);
  if (solution.ok()) {
    solution->stats.elimination_seconds = elimination_seconds;
    solution->stats.total_seconds += elimination_seconds;
  }
  return solution;
}

StatusOr<Solution> MaximizeReliabilityWithCandidates(
    const UncertainGraph& g, NodeId s, NodeId t, const CandidateSet& candidates,
    const SolverOptions& options, CoreMethod method) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (options.budget_k <= 0) {
    return Status::InvalidArgument("budget_k must be positive");
  }
  if (options.top_l <= 0) {
    return Status::InvalidArgument("top_l must be positive");
  }
  if (s == t) {  // degenerate query: reliability is already 1
    Solution solution;
    solution.reliability_before = 1.0;
    solution.reliability_after = 1.0;
    // Stats must stay populated on every return path — harness code reads
    // peak_rss_bytes / candidate_edges unconditionally.
    solution.stats.candidate_edges = candidates.edges.size();
    solution.stats.peak_rss_bytes = PeakRssBytes();
    return solution;
  }

  Solution solution;
  solution.stats.candidate_edges = candidates.edges.size();
  solution.reliability_before = EstimateWithOptions(g, s, t, options, 0xbefe);

  WallTimer selection_timer;
  if (method == CoreMethod::kMostReliablePath) {
    auto improvement = ImproveMostReliablePathWithCandidates(
        g, s, t, options.budget_k, candidates.edges);
    RELMAX_RETURN_IF_ERROR(improvement.status());
    solution.added_edges = improvement->added_edges;
  } else {
    const PathSearchGraph space =
        options.paths_on_eliminated_subgraph
            ? EliminatedSubgraph(g, s, t, candidates)
            : PathSearchGraph{AugmentGraph(g, candidates.edges), s, t,
                              candidates.edges};
    const std::vector<PathResult> paths =
        TopLReliablePaths(space.graph, space.s, space.t, options.top_l);
    const std::vector<AnnotatedPath> annotated =
        AnnotatePaths(space.graph, paths, space.candidates);
    solution.stats.paths_considered = annotated.size();
    solution.stats.candidate_edges_after_path_filter =
        CountDistinctCandidates(annotated);

    const std::vector<int> indices =
        method == CoreMethod::kBatchEdges
            ? SelectEdgesByPathBatches(space.graph, space.s, space.t,
                                       annotated, options)
            : SelectEdgesByIndividualPaths(space.graph, space.s, space.t,
                                           annotated, options);
    solution.added_edges.reserve(indices.size());
    for (int i : indices) solution.added_edges.push_back(candidates.edges[i]);
  }
  solution.stats.selection_seconds = selection_timer.ElapsedSeconds();
  solution.stats.total_seconds = solution.stats.selection_seconds;

  solution.reliability_after =
      solution.added_edges.empty()
          ? solution.reliability_before
          : EstimateWithOptions(
                UncertainGraph::UnindexedAugmented(g, solution.added_edges),
                s, t, options, 0xafe);
  solution.stats.peak_rss_bytes = PeakRssBytes();
  return solution;
}

}  // namespace relmax
