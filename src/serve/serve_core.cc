#include "serve/serve_core.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "sampling/parallel.h"

namespace relmax {
namespace serve {

namespace {

// `options` with the engine's worker budget raised to the lane count, so
// the writer's derives and every window's floods run on max(threads, lanes)
// workers.
ServeOptions WithWorkerBudget(ServeOptions options) {
  options.engine.num_threads =
      std::max(ResolveNumThreads(options.engine.num_threads), options.lanes);
  return options;
}

}  // namespace

ServeCore::ServeCore(UncertainGraph initial, const ServeOptions& options)
    : options_(WithWorkerBudget(options)),
      num_nodes_(initial.num_nodes()),
      current_(std::make_shared<const GraphSnapshot>(std::move(initial),
                                                     options_.engine)) {
  RELMAX_CHECK(options_.lanes >= 1);
  RELMAX_CHECK(options_.window_us >= 0);
  RELMAX_CHECK(options_.max_batch >= 1);
  lanes_.reserve(static_cast<size_t>(options_.lanes));
  for (int i = 0; i < options_.lanes; ++i) {
    lanes_.emplace_back([this] { LaneLoop(); });
  }
}

ServeCore::~ServeCore() { Shutdown(); }

void ServeCore::Submit(NodeId s, NodeId t, QueryCallback done) {
  // The protocol cannot grow the node set, so validation needs no snapshot.
  if (s >= num_nodes_ || t >= num_nodes_) {
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rejected;
      epoch = current_->epoch();
    }
    done(Status::InvalidArgument(
             "query node out of range: (" + std::to_string(s) + ", " +
             std::to_string(t) + ") with " + std::to_string(num_nodes_) +
             " nodes"),
         epoch);
    return;
  }
  uint64_t epoch;
  Status shed = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Pin the snapshot under mu_ (it is swapped under mu_ on publish), so
    // the queue's epochs are non-decreasing in arrival order.
    epoch = current_->epoch();
    if (stopping_) {
      ++stats_.shed;
      shed = Status::Unavailable("shed: daemon is shutting down");
    } else if (queue_.size() >= options_.max_queue) {
      ++stats_.shed;
      shed = Status::Unavailable(
          "shed: admission queue full (" + std::to_string(queue_.size()) +
          " pending, cap " + std::to_string(options_.max_queue) + ")");
    } else {
      ++stats_.submitted;
      queue_.push_back(Pending{StQuery{s, t}, current_, std::move(done),
                               std::chrono::steady_clock::now()});
    }
  }
  if (!shed.ok()) {
    done(shed, epoch);
    return;
  }
  work_cv_.notify_one();
}

StatusOr<uint64_t> ServeCore::Publish(
    const std::function<Status(UncertainGraph&)>& mutate) {
  // Serialized across writers. Readers never wait: queries pinned to the
  // previous snapshot answer on its engine while the next is derived.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  const std::shared_ptr<const GraphSnapshot> prev = CurrentSnapshot();
  UncertainGraph next = prev->graph();
  RELMAX_RETURN_IF_ERROR(mutate(next));
  auto snapshot = std::make_shared<const GraphSnapshot>(*prev, std::move(next));
  std::lock_guard<std::mutex> lock(mu_);
  current_ = snapshot;
  ++stats_.updates;
  return snapshot->epoch();
}

StatusOr<uint64_t> ServeCore::UpdateEdgeProb(NodeId u, NodeId v, double p) {
  return Publish([&](UncertainGraph& g) { return g.UpdateEdgeProb(u, v, p); });
}

StatusOr<uint64_t> ServeCore::AddEdge(NodeId u, NodeId v, double p) {
  return Publish([&](UncertainGraph& g) { return g.AddEdge(u, v, p); });
}

void ServeCore::LaneLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Bounded-delay micro-batch: wait until window_us after the oldest
    // pending arrival for more arrivals, so one shared flood can serve them
    // all; a full window or shutdown cuts the wait short. A window left
    // queued by another lane's cut is already due. Skipped while draining a
    // shutdown backlog.
    if (options_.window_us > 0) {
      const auto window = std::chrono::microseconds(options_.window_us);
      while (!stopping_ && !queue_.empty() &&
             queue_.size() < options_.max_batch &&
             work_cv_.wait_until(lock, queue_.front().arrived + window) !=
                 std::cv_status::timeout) {
      }
      if (queue_.empty()) continue;  // another lane drained it
    }
    // The window is the longest same-snapshot prefix (up to max_batch): one
    // window is answered by one engine over one graph state.
    std::shared_ptr<const GraphSnapshot> snapshot = queue_.front().snapshot;
    size_t prefix = 0;
    while (prefix < queue_.size() && prefix < options_.max_batch &&
           queue_[prefix].snapshot == snapshot) {
      ++prefix;
    }
    // Split the window over the idle lanes, this one included: take the
    // queries of its first ceil(D / idle) distinct sources and leave the rest
    // queued, in order and due, for the next idle lane. A source's queries
    // stay on one lane, so every source is still flooded once.
    const auto prefix_end =
        queue_.begin() + static_cast<std::ptrdiff_t>(prefix);
    std::unordered_map<NodeId, size_t> rank;  // first-appearance order
    for (auto it = queue_.begin(); it != prefix_end; ++it) {
      rank.emplace(it->query.s, rank.size());
    }
    const size_t idle = static_cast<size_t>(options_.lanes) - active_lanes_;
    const size_t keep = (rank.size() + idle - 1) / idle;
    const auto take_end = std::stable_partition(
        queue_.begin(), prefix_end,
        [&](const Pending& p) { return rank.at(p.query.s) < keep; });
    std::vector<Pending> window(std::make_move_iterator(queue_.begin()),
                                std::make_move_iterator(take_end));
    queue_.erase(queue_.begin(), take_end);
    if (!queue_.empty()) work_cv_.notify_one();
    ++active_lanes_;
    lock.unlock();

    QuerySet set;
    for (const Pending& p : window) set.AddSt(p.query.s, p.query.t);
    const StatusOr<BatchResult> result = snapshot->engine().Answer(set);
    for (size_t i = 0; i < window.size(); ++i) {
      if (result.ok()) {
        window[i].done(result->st_values[i], snapshot->epoch());
      } else {
        window[i].done(result.status(), snapshot->epoch());
      }
    }
    const size_t answered = window.size();
    // Drop the pins outside mu_: the last one frees an old epoch's engine.
    window.clear();
    snapshot.reset();

    lock.lock();
    ++stats_.batches;
    stats_.max_window = std::max(stats_.max_window, answered);
    if (result.ok()) {
      stats_.answered += answered;
      stats_.floods += result->stats.floods;
      stats_.index_answers += result->stats.index_answers;
      stats_.fallback_estimates += result->stats.fallback_estimates;
      stats_.cache_hits += result->stats.cache_hits;
      stats_.cache_evictions_total += result->stats.cache_evictions;
    }
    --active_lanes_;
    drain_cv_.notify_all();
  }
}

ServeStats ServeCore::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats stats = stats_;
  stats.epoch = current_->epoch();
  stats.graph_version = current_->version();
  stats.cache_entries = current_->engine().cache_size();
  stats.cache_evictions_epoch = current_->engine().cache_evictions();
  return stats;
}

void ServeCore::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock,
                 [this] { return queue_.empty() && active_lanes_ == 0; });
}

void ServeCore::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;  // claimed: this caller runs the join below
    stopping_ = true;
  }
  work_cv_.notify_all();
  Drain();
  work_cv_.notify_all();  // wake lanes to observe stopping_ with empty queue
  for (std::thread& t : lanes_) t.join();
}

}  // namespace serve
}  // namespace relmax
