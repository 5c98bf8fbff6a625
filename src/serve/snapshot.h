#ifndef RELMAX_SERVE_SNAPSHOT_H_
#define RELMAX_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <utility>

#include "graph/uncertain_graph.h"
#include "query/query_engine.h"

namespace relmax {
namespace serve {

/// One immutable published epoch: a private copy of the uncertain graph
/// frozen at publish time, the serving epoch, and the one QueryEngine every
/// lane answers the epoch's queries through. Readers pin a snapshot by
/// holding its shared_ptr and keep answering on it even while newer epochs
/// are published; an old epoch and its engine die when its last reader
/// drops it.
class GraphSnapshot {
 public:
  /// The boot epoch: `graph` with a fresh engine.
  GraphSnapshot(UncertainGraph graph, const QueryEngineOptions& options)
      : epoch_(0), graph_(std::move(graph)), engine_(graph_, options) {}

  /// Epoch prev.epoch() + 1: `graph` is prev.graph() after one mutation,
  /// with the successor of prev's engine.
  GraphSnapshot(const GraphSnapshot& prev, UncertainGraph graph)
      : epoch_(prev.epoch_ + 1),
        graph_(std::move(graph)),
        engine_(graph_, prev.engine_) {}

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  /// Serving epoch: 0 for the boot graph, +1 per published mutation.
  uint64_t epoch() const { return epoch_; }
  /// The frozen graph's UncertainGraph::version(): a copy preserves the
  /// source's version and each mutation bumps it.
  uint64_t version() const { return graph_.version(); }
  const UncertainGraph& graph() const { return graph_; }
  /// The epoch's engine; Answer() is safe to call concurrently.
  QueryEngine& engine() const { return engine_; }

 private:
  uint64_t epoch_;
  UncertainGraph graph_;  // before engine_, which holds a reference to it
  mutable QueryEngine engine_;
};

}  // namespace serve
}  // namespace relmax

#endif  // RELMAX_SERVE_SNAPSHOT_H_
