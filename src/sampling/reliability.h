#ifndef RELMAX_SAMPLING_RELIABILITY_H_
#define RELMAX_SAMPLING_RELIABILITY_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/uncertain_graph.h"
#include "graph/visit_marker.h"
#include "sampling/edge_world_cache.h"

namespace relmax {

/// Effort/seed knobs for Monte Carlo estimation (§3.1 of the paper).
struct SampleOptions {
  /// Number of sampled possible worlds Z.
  int num_samples = 1000;
  /// RNG seed; estimates are deterministic for a fixed seed.
  uint64_t seed = 42;
  /// Worker lanes for the batched executor (sampling/parallel.h); <= 0 means
  /// all hardware threads. Estimates are bit-identical for a fixed seed
  /// regardless of this value — it only changes wall-clock time.
  int num_threads = 1;
};

/// Reusable Monte Carlo reliability estimator over one uncertain graph.
///
/// Each sampled world is materialized lazily during BFS: an edge's coin is
/// flipped the first time the traversal meets it, and the outcome is cached
/// per world so that the two stored arcs of an undirected edge agree. Holding
/// the sampler across calls amortizes the scratch allocations; the
/// free-function wrappers below construct one per call.
class MonteCarloSampler {
 public:
  MonteCarloSampler(const UncertainGraph& g, uint64_t seed);

  /// Restarts the RNG stream as if constructed with `seed`. The batched
  /// executor reuses one sampler per worker lane and reseeds it per shard.
  void Reseed(uint64_t seed) { rng_.Reseed(seed); }

  /// Estimates R(s, t, G) from `num_samples` sampled worlds (Equation 2).
  double Reliability(NodeId s, NodeId t, int num_samples);

  /// Number of worlds (out of `num_samples`) in which t is reachable from s.
  /// Integer tallies are what the batched executor combines across shards:
  /// their sums are exact, so merge order cannot perturb the estimate.
  int ReliabilityHits(NodeId s, NodeId t, int num_samples);

  /// Adds per-node reach counts from the source set over `num_samples`
  /// worlds into `counts` (size num_nodes()).
  void AccumulateFromSourceSet(const std::vector<NodeId>& sources,
                               int num_samples, std::vector<int64_t>* counts);

  /// Adds per-node reverse-reach counts toward t into `counts`.
  void AccumulateToTarget(NodeId t, int num_samples,
                          std::vector<int64_t>* counts);

  /// Fraction of worlds in which each node is reachable from s — the paper's
  /// "reliability from the source" used by search-space elimination (§5.1.1).
  std::vector<double> FromSource(NodeId s, int num_samples);

  /// Fraction of worlds in which each node reaches t (reverse traversal).
  std::vector<double> ToTarget(NodeId t, int num_samples);

  /// Fraction of worlds each node is reachable from at least one source.
  std::vector<double> FromSourceSet(const std::vector<NodeId>& sources,
                                    int num_samples);

  const UncertainGraph& graph() const { return graph_; }

 private:
  // One sampled-world BFS. Reverse=true walks in-arcs. Visits are recorded in
  // visited_; traversal stops early when `stop_at` is reached (pass
  // kInvalidNode to disable). Dispatches on directedness so the flat-CSR
  // inner loop carries no per-arc branch for the graph kind.
  template <bool kReverse>
  bool SampleWorldBfs(const std::vector<NodeId>& seeds, NodeId stop_at);

  // The world-BFS core over prefetched flat arrays. Direction is whatever
  // `csr`/`thresholds` encode; tight world loops (ReliabilityHits) fetch
  // them once and call this per world.
  template <bool kDirected>
  bool RunWorldBfs(const CsrView& csr, const uint64_t* thresholds,
                   const NodeId* seeds, size_t num_seeds, NodeId stop_at);

  // Per-arc integer draw thresholds for the traversed direction, built on
  // first use: `(rng.Next() >> 11) < threshold` decides exactly like
  // `NextDouble() < prob` (bit-identical, same draw count), with sentinels
  // for the no-draw p <= 0 / p >= 1 cases.
  template <bool kReverse>
  const uint64_t* Thresholds();

  // Re-sizes the scratch and drops cached thresholds when the graph mutated
  // since the last call (detected via UncertainGraph::version()), so edge
  // additions and probability updates between estimates are picked up
  // instead of read through stale caches.
  void SyncWithGraph();

  const UncertainGraph& graph_;
  uint64_t graph_version_;
  Rng rng_;
  VisitMarker visited_;
  // BFS frontier scratch, sized num_nodes up front; queue_size_ tracks the
  // live prefix so the hot loop writes through a stable raw pointer.
  std::vector<NodeId> queue_;
  size_t queue_size_ = 0;
  std::vector<uint64_t> out_thresholds_;
  std::vector<uint64_t> in_thresholds_;  // directed reverse walks only
  // Per-world edge outcome cache (undirected graphs only).
  EdgeWorldCache edge_cache_;
};

/// One-shot wrapper: Monte Carlo estimate of R(s, t, G) via the batched
/// executor (sampling/parallel.h). For a fixed (num_samples, seed) the
/// estimate is bit-identical across any options.num_threads.
double EstimateReliability(const UncertainGraph& g, NodeId s, NodeId t,
                           const SampleOptions& options = {});

/// One-shot wrapper: reliability of every node from source s.
std::vector<double> ReliabilityFromSource(const UncertainGraph& g, NodeId s,
                                          const SampleOptions& options = {});

/// One-shot wrapper: reliability of every node to target t.
std::vector<double> ReliabilityToTarget(const UncertainGraph& g, NodeId t,
                                        const SampleOptions& options = {});

}  // namespace relmax

#endif  // RELMAX_SAMPLING_RELIABILITY_H_
