#ifndef RELMAX_SAMPLING_PARALLEL_H_
#define RELMAX_SAMPLING_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "graph/uncertain_graph.h"
#include "sampling/reliability.h"

namespace relmax {

/// Batched possible-world executor.
///
/// A Monte Carlo budget of Z worlds is cut into fixed-size shards whose count
/// and per-shard RNG seeds depend only on (Z, seed) — never on the thread
/// count. Worker lanes claim shards through an atomic cursor and tally
/// integer outcomes (hit counts, per-node reach counts), which combine
/// commutatively, so every estimate is **bit-identical for any num_threads**
/// while wall-clock scales with cores. This is the substrate behind the MC
/// estimators (EstimateReliability and the solver's elimination and
/// before/after estimates in core/evaluate.cc) and the RSS top-level strata.
/// WorldBank fills and floods run on the same workers (RunWorkers,
/// ForEachShard) and key their draws with ShardSeed, but cut their work by
/// (edge range, lane block) and (source, world range), not by these shards.

/// Worlds per shard. Small enough that a typical budget (Z = 500) splits
/// across 8 lanes; large enough that the per-shard reseed is noise.
inline constexpr int kShardSamples = 64;

/// Counter-based stream seed for shard `index` of a run seeded with `seed`
/// (SplitMix64 of the pair). Shards are decorrelated without any sequential
/// RNG dependency between them.
uint64_t ShardSeed(uint64_t seed, uint64_t index);

/// One unit of sampling work: `num_samples` worlds drawn from the stream
/// seeded by `seed`.
struct SampleShard {
  int index;
  int num_samples;
  uint64_t seed;
};

/// Cuts `total_samples` into ceil(total / kShardSamples) shards. The layout
/// is a pure function of (total_samples, seed).
std::vector<SampleShard> MakeSampleShards(int total_samples, uint64_t seed);

/// Resolves a `num_threads` knob: values <= 0 mean "all hardware threads".
int ResolveNumThreads(int num_threads);

/// Runs body(worker_index) for worker_index in [0, num_workers) concurrently.
/// Lane 0 is the calling thread; the rest run on a process-wide sampling
/// pool sized to the hardware. While waiting, the caller helps drain the
/// pool queue, so nested fan-outs cannot deadlock.
void RunWorkers(int num_workers, const std::function<void(int)>& body);

/// Applies `shard_fn` to every shard index in [0, num_shards) using up to
/// `num_threads` lanes. Each lane builds one context via `make_context` and
/// reuses it for every shard it claims, amortizing scratch (samplers, BFS
/// buffers) across shards; `reduce_fn` then runs once per lane, serialized
/// under an internal mutex, to fold the lane's context into shared results.
///
/// Determinism contract: shard-to-lane assignment is racy, so `shard_fn`
/// results must depend only on the shard index (derive all randomness from
/// that shard's seed) and `reduce_fn` must be commutative (integer tallies
/// or per-shard slots written by index).
template <typename MakeContext, typename ShardFn, typename ReduceFn>
void ForEachShard(size_t num_shards, int num_threads,
                  MakeContext&& make_context, ShardFn&& shard_fn,
                  ReduceFn&& reduce_fn) {
  if (num_shards == 0) return;
  const size_t lanes =
      std::min(static_cast<size_t>(ResolveNumThreads(num_threads)),
               num_shards);
  if (lanes <= 1) {
    auto context = make_context();
    for (size_t i = 0; i < num_shards; ++i) shard_fn(context, i);
    reduce_fn(context);
    return;
  }
  std::atomic<size_t> cursor{0};
  std::mutex reduce_mu;
  RunWorkers(static_cast<int>(lanes), [&](int) {
    // Claim a shard before building the (potentially graph-sized) context:
    // a lane that arrives after the cursor drained does no work at all.
    size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= num_shards) return;
    auto context = make_context();
    do {
      shard_fn(context, i);
      i = cursor.fetch_add(1, std::memory_order_relaxed);
    } while (i < num_shards);
    std::lock_guard<std::mutex> lock(reduce_mu);
    reduce_fn(context);
  });
}

/// Parallel analogue of MonteCarloSampler::Reliability. Bit-identical for a
/// fixed (num_samples, seed) across any options.num_threads.
double ParallelReliability(const UncertainGraph& g, NodeId s, NodeId t,
                           const SampleOptions& options);

/// Parallel analogue of MonteCarloSampler::FromSourceSet.
std::vector<double> ParallelFromSourceSet(const UncertainGraph& g,
                                          const std::vector<NodeId>& sources,
                                          const SampleOptions& options);

/// Parallel analogue of MonteCarloSampler::ToTarget.
std::vector<double> ParallelToTarget(const UncertainGraph& g, NodeId t,
                                     const SampleOptions& options);

}  // namespace relmax

#endif  // RELMAX_SAMPLING_PARALLEL_H_
