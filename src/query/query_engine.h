#ifndef RELMAX_QUERY_QUERY_ENGINE_H_
#define RELMAX_QUERY_QUERY_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "graph/uncertain_graph.h"
#include "index/index_io.h"
#include "index/reliability_index.h"
#include "query/query_set.h"
#include "sampling/world_bank.h"

namespace relmax {

/// Knobs for the batch query engine. The estimator fields mirror
/// SolverOptions so CLI/bench flag plumbing stays uniform.
struct QueryEngineOptions {
  /// Number of sampled possible worlds Z shared by the whole batch.
  int num_samples = 2000;
  /// RNG seed; every answer is a pure function of (graph version, estimator,
  /// seed, Z, query) — independent of batch composition and thread count.
  uint64_t seed = 42;
  /// Worker lanes (<= 0 means all hardware threads). Answers are
  /// bit-identical for a fixed seed regardless of this value.
  int num_threads = 1;
  /// Estimator for reliability values. The shared-world fast path applies to
  /// Monte Carlo; RSS keeps its stratified per-query streams.
  Estimator estimator = Estimator::kMonteCarlo;
  /// Answer the whole batch from one shared WorldBank (sample Z worlds once,
  /// one word-parallel flood per distinct source). When off, every pair is
  /// estimated independently — exactly EstimateReliability(g, s, t) under
  /// the same (Z, seed, threads).
  bool reuse_worlds = true;
  /// Answer from the offline connectivity index (src/index): undirected
  /// labels are built once over the shared bank, directed reach counts are
  /// cached per source, and every query becomes a lookup — bit-identical
  /// to the flood path over the same bank. Applies on top of reuse_worlds
  /// and needs the flat bank (see max_bank_bytes); when the index is
  /// disabled, over its caps or without a flat bank the engine floods
  /// instead, with the same answers.
  bool use_index = false;
  /// Persistent index file (index/index_io.h). Non-empty implies use_index.
  /// On the first indexed batch the engine tries to mmap-load this file
  /// (O(file size), no sampling or relabeling); a missing file is built and
  /// saved silently, while a stale or corrupt one warns on stderr and falls
  /// back to a full rebuild (then republishes). Incremental relabels after a
  /// graph mutation republish atomically (write-temp + rename) with the
  /// header's generation counter bumped.
  std::string index_file;
  /// Footprint caps forwarded to the index (label planes, directed reach
  /// cache). num_threads is overridden by the engine's own knob.
  ReliabilityIndex::Options index;
  /// Remember per-pair answers across Answer() calls. Entries are keyed by
  /// the full determinism tuple — (graph version(), estimator, seed, Z,
  /// query); the first four are fixed per engine, so the cache stores
  /// (query -> value) and is dropped wholesale when the graph mutates.
  bool cache_results = true;
  /// Entry cap for that cache: oldest first-inserted pairs are evicted once
  /// the cap is crossed, so a long-lived engine's memory stays bounded under
  /// serving-style workloads. Generous by default (16 bytes per entry).
  size_t max_cache_entries = size_t{1} << 20;
  /// RSS-specific knobs when estimator == kRss (num_samples/seed/threads
  /// above override the matching RssOptions fields).
  RssOptions rss;
  /// World budget of the shared-world path, in bytes. It meters every
  /// resident world column: the bank's E edge rows plus each worker's n-row
  /// flood scratch, (E + workers · n) bits per world. When all Z worlds fit,
  /// the bank is drawn once and kept (the flat bank, which an index and an
  /// index file build on). Otherwise each batch streams the worlds in the
  /// widest run of lane blocks that fits, at least one: draw the run, flood
  /// it, add its popcounts, drop it. Both give the same answer bits.
  size_t max_bank_bytes = size_t{256} << 20;
};

/// Engine-lifetime accounting for the persistent index file
/// (QueryEngineOptions::index_file). Monotonic except `generation` and
/// `file_bytes`, which track the most recent load or save.
struct IndexIoStats {
  /// Successful mmap-loads (index adopted with no rebuild).
  size_t loads = 0;
  /// Successful saves (fresh build or incremental republish).
  size_t saves = 0;
  /// Loads that failed for any reason other than the file not existing
  /// (each also warns on stderr before the engine rebuilds from scratch).
  size_t load_failures = 0;
  /// Generation of the current on-disk file (header counter; bumped on
  /// every republish).
  uint64_t generation = 0;
  /// Byte size of the current on-disk file.
  size_t file_bytes = 0;
};

/// Per-batch accounting, reported alongside the answers.
struct BatchStats {
  /// Total queries answered (all kinds).
  size_t num_queries = 0;
  /// Distinct (s, t) pairs the batch needed.
  size_t distinct_pairs = 0;
  /// Pairs served from the result cache (previous Answer() calls on the
  /// same graph version).
  size_t cache_hits = 0;
  /// Shared-world reachability floods actually run — one per distinct
  /// source among the non-cached pairs.
  size_t floods = 0;
  /// Pairs estimated independently on the per-query path (reuse_worlds off
  /// or the RSS estimator).
  size_t fallback_estimates = 0;
  /// Pairs answered by the offline reliability index (no flood).
  size_t index_answers = 0;
  /// Result-cache entries evicted by this batch (max_cache_entries cap).
  size_t cache_evictions = 0;
  /// Logical bytes of the shared bank the batch read (BankBytes(E, Z)),
  /// flat or streamed; empty when it read none (per-query path / all pairs
  /// cached).
  std::optional<size_t> bank_bytes;
  double seconds = 0.0;
};

/// Answers to one QuerySet, parallel to each kind's insertion order.
struct BatchResult {
  /// st_values[i] answers set.st_queries()[i].
  std::vector<double> st_values;
  /// aggregate_values[i] answers set.aggregate_queries()[i].
  std::vector<double> aggregate_values;
  /// top_k[i] answers set.top_k_queries()[i]: (candidate index, reliability)
  /// sorted by descending reliability, ties broken by candidate order.
  std::vector<std::vector<std::pair<size_t, double>>> top_k;
  BatchStats stats;
};

/// Batch multi-query reliability engine: many queries against one uncertain
/// graph, answered from one shared set of sampled worlds.
///
/// The paper's estimators pay Z sampled worlds per (s, t) query; under
/// multi-query traffic that re-sampling is almost entirely redundant. The
/// engine samples Z worlds once into a WorldBank (edges × worlds bit-matrix)
/// and runs one word-parallel reachability flood per **distinct source**:
/// `reach[v]` bit w says "v reachable from s in world w", so every query
/// sharing that source — s-t pairs, aggregate matrix cells, top-k candidates
/// — is a popcount of the flood's target row. Floods fan out across the
/// sampling thread pool over (source × world range) shards: sampled worlds
/// are independent, so a batch with fewer sources than workers splits each
/// source's worlds into ranges, and a range's popcounts sum to the row's.
/// Each answer depends only on (bank bits, source), so results are
/// **bit-identical for any num_threads** and for any batch composition or
/// order. A bank larger than max_bank_bytes is streamed through that budget
/// a run of lane blocks at a time, with the same answers.
///
/// With `use_index` the engine keeps a ReliabilityIndex over the bank, and
/// every query becomes a popcount of per-world component labels built once
/// (undirected), or a lookup in a count row cached per source (directed),
/// so later queries from a source reuse its flood. Answers stay
/// bit-identical to the flood path by construction. See
/// src/index/reliability_index.h.
///
/// Answers are memoized: a pair asked again while the graph's version() is
/// unchanged is free. Any mutation (AddEdge/UpdateEdgeProb/assignment)
/// invalidates the cache on the next Answer(); a live index additionally
/// attempts incremental maintenance — derive the bank, redrawing only the
/// changed edge rows, and update the labels of only the worlds whose
/// sampled edge presence actually changed — before falling back to a
/// wholesale rebuild.
///
/// Answer() is safe to call from many threads while the graph is not being
/// mutated: one mutex guards the lazy bank / index build and file load,
/// another the result cache (never held while resolving).
class QueryEngine {
 public:
  /// `g` must outlive the engine.
  QueryEngine(const UncertainGraph& g, const QueryEngineOptions& options);

  /// The successor of `prev` over `g` (prev.graph() plus mutations), with
  /// prev's options: the same incremental maintenance as an in-place
  /// mutation, into a new engine that carries prev's index-file generation
  /// forward. `prev` keeps answering.
  QueryEngine(const UncertainGraph& g, const QueryEngine& prev);

  /// Answers every query in `set`. Fails on validation errors (out-of-range
  /// nodes, empty aggregate sets, k < 1) without computing anything.
  StatusOr<BatchResult> Answer(const QuerySet& set);

  /// Single-pair convenience: exactly Answer() of a one-query batch.
  /// Propagates validation errors (out-of-range nodes) instead of aborting.
  StatusOr<double> EstimateSt(NodeId s, NodeId t);

  const UncertainGraph& graph() const { return graph_; }
  const QueryEngineOptions& options() const { return options_; }

  /// Pairs currently memoized (test/introspection hook).
  size_t cache_size() const;

  /// Result-cache entries evicted over the engine's lifetime.
  size_t cache_evictions() const;

  /// The live reliability index, or nullptr when disabled / not yet built /
  /// over its caps (introspection; not while another thread is in Answer()).
  const ReliabilityIndex* index() const { return index_.get(); }

  /// Persistent-index accounting (zeroes when options.index_file is empty;
  /// same threading rule as index()).
  const IndexIoStats& index_io_stats() const { return index_io_stats_; }

 private:
  // Resyncs engine state after a graph mutation: the result cache always
  // drops (answers depend on probabilities), then Advance().
  void SyncWithGraph();

  // Incremental maintenance behind SyncWithGraph and the successor
  // constructor. Derives graph_'s bank from `old_bank` on
  // options_.num_threads lanes, redrawing only updated and appended rows —
  // bit-identical to a fresh engine's, bank bits being a pure function of
  // (seed, edge, world, p_e). When graph_ extends the indexed shape (same
  // nodes, same existing-edge endpoints), `index` updates only the worlds
  // the derive's delta reports changed (none for a directed index, which
  // holds no labels) and is republished; otherwise it drops. With no old
  // bank, both stay lazy.
  void Advance(const WorldBank* old_bank,
               std::unique_ptr<ReliabilityIndex> index);

  // Installs `bank` and snapshots the graph shape it was sampled against.
  void AdoptBank(std::shared_ptr<const WorldBank> bank);

  // Builds the shared bank (and index) if absent, under build_mu_; once set
  // they stay put until the graph mutates, so callers read them unlocked.
  void EnsureBuilt(bool with_index);

  // True when the current graph is the indexed shape plus (possibly) new
  // edges — the prerequisite for incremental index maintenance.
  bool GraphExtendsIndexedShape() const;

  // Resolves reliabilities for `pairs` (deduplicated (s, t) keys), filling
  // `resolved` and `stats`. Runs floods / per-pair estimates as configured.
  void ResolvePairs(const std::vector<StQuery>& pairs,
                    std::unordered_map<uint64_t, double>* resolved,
                    BatchStats* stats);

  static uint64_t PairKey(NodeId s, NodeId t) {
    return (static_cast<uint64_t>(s) << 32) | t;
  }

  // True when the shared-world path is active (MC estimator, reuse enabled).
  bool UseSharedWorlds() const;

  // Resident world rows of the shared path: E bank rows plus n flood
  // scratch rows per worker.
  size_t WorldRows() const;

  // True when the shared path keeps one flat bank: all Z worlds of
  // WorldRows() fit max_bank_bytes. Otherwise batches stream the worlds.
  bool UseFlatBank() const;

  // True when queries should resolve through the reliability index (on top
  // of UseFlatBank, the label planes must fit their cap). A non-empty
  // options_.index_file implies use_index.
  bool UseIndex() const;

  // The WorldBank::Options every bank build / load / save keys on.
  WorldBank::Options WorldOptions() const;

  // Attempts to adopt bank + index from options_.index_file. NotFound is
  // silent (the build path will save); any other failure warns on stderr
  // and leaves the engine to rebuild from scratch.
  void TryLoadIndexFile();

  // Republishes bank + index to options_.index_file (write-temp + rename)
  // with the generation counter bumped. Failure warns on stderr only — the
  // in-memory engine stays fully functional.
  void SaveIndexFile();

  const UncertainGraph& graph_;
  QueryEngineOptions options_;
  uint64_t graph_version_;

  // Guards everything from here to cache_mu_.
  mutable std::mutex build_mu_;
  // Declared before bank_/index_ so it is destroyed after them: a loaded
  // bank's bit rows point into this read-only mapping (zero copy).
  MappedFile index_mapping_;
  // Shared so a successor can derive from it while this engine answers.
  std::shared_ptr<const WorldBank> bank_;
  std::unique_ptr<ReliabilityIndex> index_;
  // Graph shape the bank was sampled against: node count plus the endpoints
  // of every edge, in id order. Incremental maintenance requires the mutated
  // graph to extend this shape (UpdateEdgeProb/AddEdge do; wholesale
  // assignment usually does not).
  NodeId indexed_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> indexed_endpoints_;
  IndexIoStats index_io_stats_;

  // Guards the result cache: pair key -> reliability, valid for
  // graph_version_ only, capped at options_.max_cache_entries with
  // first-inserted-first-evicted order.
  mutable std::mutex cache_mu_;
  std::unordered_map<uint64_t, double> cache_;
  std::deque<uint64_t> cache_order_;
  size_t cache_evictions_ = 0;
};

}  // namespace relmax

#endif  // RELMAX_QUERY_QUERY_ENGINE_H_
