#ifndef RELMAX_SERVE_SERVE_CORE_H_
#define RELMAX_SERVE_SERVE_CORE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "graph/uncertain_graph.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "serve/snapshot.h"

namespace relmax {
namespace serve {

/// Knobs for the online query daemon (ServeCore / Server).
struct ServeOptions {
  /// The batch engine each epoch answers through, one per epoch shared by
  /// every lane. Every served value is the engine's — a pure function of
  /// (graph version, estimator, seed, Z, query) — so serve answers are
  /// bit-identical to `relmax batch` for the same tuple, regardless of how
  /// arrivals were windowed. The writer saves `index_file` once per epoch.
  QueryEngineOptions engine;
  /// Micro-batch bounded-delay window, measured from the oldest pending
  /// arrival: a lane waits until that query has been queued this long (or the
  /// window is full) before answering the window through one shared flood,
  /// so a query that arrived while every lane was busy is due as soon as a
  /// lane frees up. 0 disables the wait (every drain takes whatever is
  /// queued).
  int window_us = 2000;
  /// Maximum queries answered through one window (one engine batch).
  size_t max_batch = 256;
  /// Admission cap: a submission finding this many queries already pending
  /// is shed immediately with a typed Unavailable status — never a silent
  /// drop. 0 sheds everything (useful to test the shed path).
  size_t max_queue = 1024;
  /// Lane threads answering windows concurrently on their epoch's engine.
  /// A due window is split by source over the idle lanes: with D distinct
  /// sources and `idle` lanes not answering (the cutting lane included), the
  /// cutting lane takes the queries of the first ceil(D / idle) sources and
  /// leaves the rest, due, to the next idle lane. A source's queries never
  /// span two lanes, so each source is still flooded once.
  /// ServeCore runs the engine on a budget of max(engine threads, lanes)
  /// workers (engine threads <= 0: all hardware threads): the writer derives
  /// each epoch with it, and each window's floods fan out over (source ×
  /// world range) shards on it, so a lane answering a one-source window
  /// still uses every worker.
  int lanes = 1;
};

/// Cumulative daemon accounting, reported on the `stats` protocol line.
/// Epoch-scoped fields read the current epoch's engine, whose result cache
/// starts empty at publish; totals are process-lifetime.
struct ServeStats {
  uint64_t submitted = 0;  ///< queries accepted into the admission queue
  uint64_t answered = 0;   ///< queries answered with a value
  uint64_t shed = 0;       ///< queries shed by admission control (typed)
  uint64_t rejected = 0;   ///< queries rejected by validation (typed)
  uint64_t batches = 0;    ///< windows answered (shared floods paid)
  size_t max_window = 0;   ///< largest window answered so far
  uint64_t updates = 0;    ///< mutations applied (epochs published)
  uint64_t epoch = 0;          ///< current published epoch
  uint64_t graph_version = 0;  ///< current snapshot's UncertainGraph version
  // Engine accounting accumulated across windows (BatchStats fields).
  uint64_t floods = 0;
  uint64_t index_answers = 0;
  uint64_t fallback_estimates = 0;
  uint64_t cache_hits = 0;
  /// Result-cache FIFO evictions, process-lifetime.
  uint64_t cache_evictions_total = 0;
  /// Evictions from the current epoch's shared result cache.
  uint64_t cache_evictions_epoch = 0;
  /// Live memoized pairs in the current epoch's shared result cache.
  size_t cache_entries = 0;
};

/// The daemon's engine room: admission control, epoch snapshots, and
/// micro-batched answering, independent of any wire format.
///
/// Readers: Submit() pins the query to the current epoch's snapshot and
/// enqueues it (or sheds / rejects it synchronously, always through the
/// typed callback). Lane threads drain the queue in arrival order, wait until
/// the oldest pending query is `window_us` old for a fuller window, and
/// answer each window through one batch on its snapshot's shared engine —
/// one flood per distinct source. A due window is split by source over the
/// idle lanes (ServeOptions::lanes), so concurrent lanes flood disjoint
/// source sets.
///
/// Writers: UpdateEdgeProb()/AddEdge() copy the current graph, apply the
/// mutation, derive the next engine from the current one (redraw the bank's
/// changed rows, relabel only changed worlds) and publish it as epoch N+1.
/// Queries pinned to epoch N keep answering on N's snapshot, so a republish
/// never blocks reads; epoch N is freed when its last pending query is
/// answered.
///
/// Every callback fires exactly once, from the submitting thread (shed /
/// rejected) or from a lane thread (answered / engine error).
class ServeCore {
 public:
  /// Receives the answer (or typed failure) and the epoch it was pinned to.
  using QueryCallback =
      std::function<void(const StatusOr<double>&, uint64_t epoch)>;

  ServeCore(UncertainGraph initial, const ServeOptions& options);
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  /// Thread-safe. Pins the query to the current epoch and enqueues it;
  /// invokes `done` synchronously with a typed Status when the query is
  /// invalid (InvalidArgument) or shed by admission control (Unavailable).
  void Submit(NodeId s, NodeId t, QueryCallback done);

  /// Writer path: publishes a new epoch with the edge's probability
  /// replaced / the edge added. Concurrent writers are serialized; readers
  /// are never blocked. Returns the new epoch.
  StatusOr<uint64_t> UpdateEdgeProb(NodeId u, NodeId v, double p);
  StatusOr<uint64_t> AddEdge(NodeId u, NodeId v, double p);

  /// The currently published snapshot (readers may pin it).
  std::shared_ptr<const GraphSnapshot> CurrentSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  ServeStats Stats() const;

  /// Blocks until the admission queue is empty and every lane is idle.
  void Drain();

  /// Drains, then stops the lanes. Idempotent; the destructor calls it.
  void Shutdown();

 private:
  struct Pending {
    StQuery query;
    std::shared_ptr<const GraphSnapshot> snapshot;
    QueryCallback done;
    std::chrono::steady_clock::time_point arrived;  // stamped by Submit
  };

  void LaneLoop();
  // Copy-mutate-derive-publish; `mutate` applies the mutation to the copy.
  StatusOr<uint64_t> Publish(
      const std::function<Status(UncertainGraph&)>& mutate);

  ServeOptions options_;
  NodeId num_nodes_;  // fixed: the protocol cannot add nodes

  // Serializes the writer path.
  std::mutex write_mu_;

  // Guards everything below but lanes_.
  mutable std::mutex mu_;
  std::shared_ptr<const GraphSnapshot> current_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  std::deque<Pending> queue_;
  size_t active_lanes_ = 0;
  bool stopping_ = false;
  bool joined_ = false;
  ServeStats stats_;

  std::vector<std::thread> lanes_;
};

}  // namespace serve
}  // namespace relmax

#endif  // RELMAX_SERVE_SERVE_CORE_H_
