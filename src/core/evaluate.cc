#include "core/evaluate.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "core/selection.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

RssOptions MakeRssOptions(const SolverOptions& options, int num_samples,
                          uint64_t seed_salt) {
  RssOptions rss = options.rss;
  rss.num_samples = num_samples;
  rss.seed = options.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL + 1);
  rss.num_threads = options.num_threads;
  return rss;
}

}  // namespace

double EstimateWithOptions(const UncertainGraph& g, NodeId s, NodeId t,
                           const SolverOptions& options, uint64_t seed_salt) {
  if (options.estimator == Estimator::kRss) {
    RssSampler sampler(g, MakeRssOptions(options, options.num_samples,
                                         seed_salt));
    return sampler.Reliability(s, t);
  }
  return EstimateReliability(
      g, s, t,
      {.num_samples = options.num_samples,
       .seed = options.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL + 1),
       .num_threads = options.num_threads});
}

std::vector<double> FromSourceWithOptions(const UncertainGraph& g, NodeId s,
                                          const SolverOptions& options,
                                          uint64_t seed_salt) {
  if (options.estimator == Estimator::kRss) {
    RssSampler sampler(
        g, MakeRssOptions(options, options.elimination_samples, seed_salt));
    return sampler.FromSource(s);
  }
  return ReliabilityFromSource(
      g, s,
      {.num_samples = options.elimination_samples,
       .seed = options.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL + 3),
       .num_threads = options.num_threads});
}

std::vector<double> ToTargetWithOptions(const UncertainGraph& g, NodeId t,
                                        const SolverOptions& options,
                                        uint64_t seed_salt) {
  if (options.estimator == Estimator::kRss) {
    RssSampler sampler(
        g, MakeRssOptions(options, options.elimination_samples, seed_salt));
    return sampler.ToTarget(t);
  }
  return ReliabilityToTarget(
      g, t,
      {.num_samples = options.elimination_samples,
       .seed = options.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL + 5),
       .num_threads = options.num_threads});
}

UncertainGraph AugmentGraph(const UncertainGraph& g,
                            const std::vector<Edge>& edges) {
  UncertainGraph augmented = g;
  for (const Edge& e : edges) {
    const Status st = augmented.AddEdge(e.src, e.dst, e.prob);
    RELMAX_DCHECK(st.ok() || st.code() == StatusCode::kAlreadyExists);
    (void)st;
  }
  return augmented;
}

PathUnionSubgraph::PathUnionSubgraph(const UncertainGraph& base, NodeId s,
                                     NodeId t)
    : base_(base),
      graph_(base.directed() ? UncertainGraph::Directed(0)
                             : UncertainGraph::Undirected(0)),
      remap_(base.num_nodes(), kInvalidNode) {
  s_ = Map(s);
  t_ = Map(t);
}

NodeId PathUnionSubgraph::Map(NodeId v) {
  RELMAX_DCHECK(v < remap_.size());
  if (remap_[v] == kInvalidNode) remap_[v] = graph_.AddNode();
  return remap_[v];
}

std::vector<EdgeId> PathUnionSubgraph::AddPath(const PathResult& path) {
  std::vector<EdgeId> edge_ids;
  if (!path.nodes.empty()) edge_ids.reserve(path.nodes.size() - 1);
  for (size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    const NodeId u = path.nodes[i];
    const NodeId v = path.nodes[i + 1];
    const NodeId su = Map(u);
    const NodeId sv = Map(v);
    if (const auto existing = graph_.EdgeIndexOf(su, sv)) {
      edge_ids.push_back(*existing);
      continue;
    }
    const auto prob = base_.EdgeProb(u, v);
    RELMAX_DCHECK(prob.has_value());
    const Status st = graph_.AddEdge(su, sv, *prob);
    RELMAX_DCHECK(st.ok());
    (void)st;
    edge_ids.push_back(*graph_.EdgeIndexOf(su, sv));
  }
  return edge_ids;
}

double PathUnionSubgraph::Reliability(const SolverOptions& options,
                                      uint64_t seed_salt) const {
  return EstimateWithOptions(graph_, s_, t_, options, seed_salt);
}

struct PathSetEvaluator::Impl {
  /// Union of all annotated paths — the sampling universe.
  PathUnionSubgraph universe;
  std::unique_ptr<WorldBank> bank;
  /// Per-path edge ids in the universe graph, in path order.
  std::vector<std::vector<EdgeId>> path_edges;
  /// Per-path world-indexed bitset: worlds where the whole path is up.
  std::vector<std::vector<uint64_t>> path_up;
  // Evaluation scratch, sized once and reused.
  std::vector<EdgeId> active;           ///< selected edges, in path order
  std::vector<uint32_t> edge_epoch;     ///< dedup stamp per universe edge
  uint32_t epoch = 0;
  bitlane::BitMatrix reach;

  Impl(const UncertainGraph& g_plus, NodeId s, NodeId t)
      : universe(g_plus, s, t) {}

  // Appends path i's edges to `active` (deduplicated, path order preserved
  // so the fixpoint converges in ~2 sweeps) and ORs its all-edges-up worlds
  // into the fast-path seed at reach[t].
  void MergePath(int i) {
    for (EdgeId e : path_edges[i]) {
      if (edge_epoch[e] == epoch) continue;
      edge_epoch[e] = epoch;
      active.push_back(e);
    }
    const std::vector<uint64_t>& up = path_up[i];
    uint64_t* const at_t = reach.row(universe.t());
    for (size_t w = 0; w < up.size(); ++w) at_t[w] |= up[w];
  }
};

// Seed tag decorrelating the bank's worlds from the solver's other sampling
// streams (elimination, before/after estimates) at the same options.seed.
namespace {
constexpr uint64_t kWorldBankSalt = 0x1d57a6b1e55ed5eeULL;
}  // namespace

PathSetEvaluator::PathSetEvaluator(const UncertainGraph& g_plus, NodeId s,
                                   NodeId t,
                                   const std::vector<AnnotatedPath>& paths,
                                   const SolverOptions& options)
    : impl_(std::make_unique<Impl>(g_plus, s, t)) {
  impl_->path_edges.reserve(paths.size());
  for (const AnnotatedPath& path : paths) {
    impl_->path_edges.push_back(impl_->universe.AddPath(path.path));
  }
  impl_->bank = std::make_unique<WorldBank>(
      impl_->universe.graph(),
      WorldBank::Options{.num_samples = options.num_samples,
                         .seed = options.seed ^ kWorldBankSalt,
                         .num_threads = options.num_threads});
  impl_->path_up.reserve(paths.size());
  for (const std::vector<EdgeId>& edges : impl_->path_edges) {
    impl_->path_up.push_back(impl_->bank->WorldsWithAllEdges(edges));
  }
  impl_->edge_epoch.assign(impl_->universe.num_edges(), 0);
  impl_->reach.EnsureShape(impl_->universe.num_nodes(),
                           impl_->bank->world_words());
}

PathSetEvaluator::~PathSetEvaluator() = default;

double PathSetEvaluator::Reliability(const std::vector<int>& selected,
                                     int extra) {
  Impl& impl = *impl_;
  const int num_worlds = impl.bank->num_worlds();
  impl.active.clear();
  ++impl.epoch;
  impl.reach.Clear();
  // Fast path: worlds where some selected path is fully up are connected
  // without any propagation — MergePath ORs them straight into reach[t].
  for (int i : selected) impl.MergePath(i);
  if (extra >= 0) impl.MergePath(extra);
  const NodeId t = impl.universe.t();
  const int64_t seeded = WorldBank::CountBits(impl.reach.row_span(t),
                                              static_cast<size_t>(num_worlds));
  if (seeded < num_worlds) {
    // Word-parallel sweeps settle the remaining worlds, where only a
    // combination of partial paths can connect s to t.
    impl.bank->ReachabilityFixpoint(impl.universe.s(), /*backward=*/false,
                                    impl.active, &impl.reach,
                                    WorldBank::SeedPolicy::kSeedsAreFacts);
  }
  return static_cast<double>(WorldBank::CountBits(
             impl.reach.row_span(t), static_cast<size_t>(num_worlds))) /
         num_worlds;
}

std::vector<std::vector<double>> PairwiseReliability(
    const UncertainGraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, int num_samples, uint64_t seed,
    int num_threads) {
  RELMAX_CHECK(num_samples > 0);
  const NodeId n = g.num_nodes();
  for (NodeId v : sources) RELMAX_CHECK(v < n);
  for (NodeId v : targets) RELMAX_CHECK(v < n);

  const WorldBank::Options options{
      .num_samples = num_samples, .seed = seed, .num_threads = num_threads};
  // Flattened |S| x |T| hit counts, summed over one-block banks: each run's
  // rows are the flat bank's columns, so the sums are the flat bank's.
  std::vector<int64_t> hits(sources.size() * targets.size(), 0);
  for (size_t block = 0; block < WorldBank::LaneBlocks(num_samples);
       ++block) {
    const WorldBank bank(g, options, block, 1);
    const auto worlds = static_cast<size_t>(bank.num_worlds());
    // A one-block bank floods each source whole-row, so shard i writes
    // only source i's hit row.
    bank.FloodSources(
        sources, num_threads,
        [&](size_t i, size_t, size_t, const bitlane::BitMatrix& reach) {
          int64_t* const row = &hits[i * targets.size()];
          for (size_t j = 0; j < targets.size(); ++j) {
            row[j] += WorldBank::CountBits(reach.row_span(targets[j]), worlds);
          }
        });
  }

  std::vector<std::vector<double>> result(
      sources.size(), std::vector<double>(targets.size(), 0.0));
  for (size_t si = 0; si < sources.size(); ++si) {
    for (size_t ti = 0; ti < targets.size(); ++ti) {
      result[si][ti] =
          static_cast<double>(hits[si * targets.size() + ti]) / num_samples;
    }
  }
  return result;
}

double InfluenceSpread(const UncertainGraph& g,
                       const std::vector<NodeId>& sources,
                       const std::vector<NodeId>& targets, int num_samples,
                       uint64_t seed, int num_threads) {
  RELMAX_CHECK(num_samples > 0);
  const NodeId n = g.num_nodes();
  for (NodeId v : sources) RELMAX_CHECK(v < n);
  for (NodeId v : targets) RELMAX_CHECK(v < n);
  if (sources.empty()) return 0.0;

  const WorldBank::Options options{
      .num_samples = num_samples, .seed = seed, .num_threads = num_threads};
  int64_t reached_targets = 0;
  bitlane::BitMatrix reach;
  for (size_t block = 0; block < WorldBank::LaneBlocks(num_samples);
       ++block) {
    const WorldBank bank(g, options, block, 1);
    const size_t words = bank.world_words();
    // Every source is reached in every world of the run: one flood seeded
    // with all their rows settles the union of their reach sets.
    reach.EnsureShape(n, words);
    reach.Clear();
    for (NodeId s : sources) {
      uint64_t* const row = reach.row(s);
      std::fill_n(row, words, ~uint64_t{0});
      row[words - 1] = WorldBank::TailMask(bank.num_worlds());
    }
    bank.ReachabilityFixpoint(sources[0], /*backward=*/false,
                              bank.AllEdges(), &reach,
                              WorldBank::SeedPolicy::kSeedsAreFacts);
    for (NodeId t : targets) {
      reached_targets += WorldBank::CountBits(
          reach.row_span(t), static_cast<size_t>(bank.num_worlds()));
    }
  }
  return static_cast<double>(reached_targets) / num_samples;
}

double AggregateMatrix(const std::vector<std::vector<double>>& matrix,
                       Aggregate agg) {
  RELMAX_CHECK(!matrix.empty() && !matrix[0].empty());
  double sum = 0.0;
  double mn = 1.0;
  double mx = 0.0;
  size_t count = 0;
  for (const auto& row : matrix) {
    for (double r : row) {
      sum += r;
      mn = std::min(mn, r);
      mx = std::max(mx, r);
      ++count;
    }
  }
  switch (agg) {
    case Aggregate::kAverage:
      return sum / static_cast<double>(count);
    case Aggregate::kMinimum:
      return mn;
    case Aggregate::kMaximum:
      return mx;
  }
  // Exhaustive above; a corrupt enum value must not silently read as 0.0.
  internal::CheckFailed("unhandled Aggregate", __FILE__, __LINE__);
}

}  // namespace relmax
