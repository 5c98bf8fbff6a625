#include "sampling/parallel.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace relmax {
namespace {

// Process-wide pool backing RunWorkers. Lane 0 of every fan-out is the
// calling thread, so the pool only needs hardware - 1 workers to saturate
// the machine.
ThreadPool& SamplingPool() {
  static ThreadPool* pool =
      new ThreadPool(std::max(1, ThreadPool::HardwareConcurrency() - 1));
  return *pool;
}

}  // namespace

uint64_t ShardSeed(uint64_t seed, uint64_t index) {
  // SplitMix64 finalizer over a seed/index combination: shard streams are
  // derived by counter, not by advancing a shared generator, so shard i's
  // stream never depends on how many shards precede it or who runs them.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<SampleShard> MakeSampleShards(int total_samples, uint64_t seed) {
  RELMAX_CHECK(total_samples > 0);
  const int num_shards = (total_samples + kShardSamples - 1) / kShardSamples;
  std::vector<SampleShard> shards;
  shards.reserve(num_shards);
  int remaining = total_samples;
  for (int i = 0; i < num_shards; ++i) {
    const int n = std::min(kShardSamples, remaining);
    shards.push_back({i, n, ShardSeed(seed, static_cast<uint64_t>(i))});
    remaining -= n;
  }
  return shards;
}

int ResolveNumThreads(int num_threads) {
  return num_threads <= 0 ? ThreadPool::HardwareConcurrency() : num_threads;
}

void RunWorkers(int num_workers, const std::function<void(int)>& body) {
  const int n = std::max(1, num_workers);
  if (n == 1) {
    body(0);
    return;
  }
  ThreadPool& pool = SamplingPool();
  std::mutex mu;
  std::condition_variable done;
  int remaining = n - 1;
  for (int w = 1; w < n; ++w) {
    pool.Submit([&, w] {
      body(w);
      // Notify while holding the mutex: the waiter may only observe
      // remaining == 0 (and destroy mu/done on return) after this unlock,
      // so the notify can never touch a destroyed condition_variable.
      std::lock_guard<std::mutex> lock(mu);
      --remaining;
      done.notify_one();
    });
  }
  body(0);
  // Help drain the queue while waiting: our own lanes may still be queued
  // behind other fan-outs' tasks, and executing whatever is next keeps every
  // waiter making progress (nested fan-outs cannot deadlock). Once the
  // queue is empty, sleep on the condition variable instead of spinning —
  // lanes can be strongly imbalanced (RSS stratum weights) and burning a
  // core for the slowest lane's duration would waste it. The periodic
  // re-check picks up tasks queued after we went to sleep.
  for (;;) {
    while (pool.TryRunOne()) {
    }
    std::unique_lock<std::mutex> lock(mu);
    if (done.wait_for(lock, std::chrono::milliseconds(1),
                      [&remaining] { return remaining == 0; })) {
      return;
    }
  }
}

namespace {

// Per-lane context for the all-nodes estimators: a reusable sampler plus a
// private tally that folds into the shared one at lane end. Integer counts
// make the fold commutative, hence thread-count invariant.
struct CountContext {
  explicit CountContext(const UncertainGraph& g)
      : sampler(g, 0), counts(g.num_nodes(), 0) {}
  MonteCarloSampler sampler;
  std::vector<int64_t> counts;
};

// Shared scaffolding for the per-node estimators. `accumulate_fn(sampler, n,
// counts)` adds per-node reach counts over n worlds into the lane's tally.
template <typename AccumulateFn>
std::vector<double> ShardedCounts(const UncertainGraph& g,
                                  const SampleOptions& options,
                                  AccumulateFn&& accumulate_fn) {
  const std::vector<SampleShard> shards =
      MakeSampleShards(options.num_samples, options.seed);
  std::vector<int64_t> counts(g.num_nodes(), 0);
  ForEachShard(
      shards.size(), options.num_threads,
      [&g] { return std::make_unique<CountContext>(g); },
      [&](std::unique_ptr<CountContext>& ctx, size_t i) {
        ctx->sampler.Reseed(shards[i].seed);
        accumulate_fn(ctx->sampler, shards[i].num_samples, &ctx->counts);
      },
      [&](std::unique_ptr<CountContext>& ctx) {
        for (size_t v = 0; v < counts.size(); ++v) counts[v] += ctx->counts[v];
      });
  std::vector<double> reliability(counts.size());
  for (size_t v = 0; v < counts.size(); ++v) {
    reliability[v] = static_cast<double>(counts[v]) / options.num_samples;
  }
  return reliability;
}

}  // namespace

double ParallelReliability(const UncertainGraph& g, NodeId s, NodeId t,
                           const SampleOptions& options) {
  RELMAX_CHECK(s < g.num_nodes() && t < g.num_nodes());
  RELMAX_CHECK(options.num_samples > 0);
  if (s == t) return 1.0;
  // Integer hits per shard slot, summed in index order.
  const std::vector<SampleShard> shards =
      MakeSampleShards(options.num_samples, options.seed);
  std::vector<int> hits(shards.size(), 0);
  ForEachShard(
      shards.size(), options.num_threads,
      [&g] { return std::make_unique<MonteCarloSampler>(g, 0); },
      [&](std::unique_ptr<MonteCarloSampler>& sampler, size_t i) {
        sampler->Reseed(shards[i].seed);
        hits[i] = sampler->ReliabilityHits(s, t, shards[i].num_samples);
      },
      [](std::unique_ptr<MonteCarloSampler>&) {});
  int64_t total = 0;
  for (int h : hits) total += h;
  return static_cast<double>(total) / options.num_samples;
}

std::vector<double> ParallelFromSourceSet(const UncertainGraph& g,
                                          const std::vector<NodeId>& sources,
                                          const SampleOptions& options) {
  RELMAX_CHECK(options.num_samples > 0);
  for (NodeId s : sources) RELMAX_CHECK(s < g.num_nodes());
  return ShardedCounts(g, options,
                       [&sources](MonteCarloSampler& sampler, int n,
                                  std::vector<int64_t>* counts) {
                         sampler.AccumulateFromSourceSet(sources, n, counts);
                       });
}

std::vector<double> ParallelToTarget(const UncertainGraph& g, NodeId t,
                                     const SampleOptions& options) {
  RELMAX_CHECK(t < g.num_nodes());
  RELMAX_CHECK(options.num_samples > 0);
  return ShardedCounts(g, options,
                       [t](MonteCarloSampler& sampler, int n,
                           std::vector<int64_t>* counts) {
                         sampler.AccumulateToTarget(t, n, counts);
                       });
}

}  // namespace relmax
