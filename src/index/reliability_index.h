#ifndef RELMAX_INDEX_RELIABILITY_INDEX_H_
#define RELMAX_INDEX_RELIABILITY_INDEX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/uncertain_graph.h"
#include "sampling/world_bank.h"

namespace relmax {

/// Offline connectivity index over a WorldBank: answers R(s, t) =
/// |{worlds where t is reachable from s}| / Z from precomputed per-world
/// structure instead of a flood per query.
///
/// The flood-per-source engine pays O(E · Z/64 · passes) per distinct source;
/// under random-pair workloads almost every query is a new source and
/// batching amortizes nothing. Following the indexing insight of Sasaki et
/// al. (PAPERS.md) — precompute structure over the sampled worlds once,
/// answer repeated queries from the digest:
///
/// **Undirected:** each world w gets exact connected-component labels
/// (union-find per world at build time). Labels are stored as B =
/// ceil(log2 n) *bitplanes* packed across 64-world lanes: plane b of node v
/// is a Z-bit row whose bit w is bit b of v's component label in world w.
/// Then "s and t share a component in world w" for all Z worlds at once is
/// `~OR_b(plane_b(s) XOR plane_b(t))`, a B · Z/64 word sweep ending in a
/// popcount — O(Z/64 · log n) per query, no graph traversal.
///
/// **Directed:** a lazy per-source reach-count cache, with no label planes.
/// Reachability is one-way, so a per-world label can only prove s→t when s
/// and t are mutually reachable, and on sparse directed graphs such pairs
/// are too rare to pay for labeling every world. A source's count row holds
/// one uint32_t per node v: the number of worlds in which v is reachable
/// from s. QueryBatch is the one path that fills rows: each uncached source
/// of a batch floods once over the bank, its per-range popcounts are summed
/// into its row, and later pairs from s are one lookup. Rows are evicted
/// FIFO under `Options::max_reach_bytes`.
///
/// **Bit purity:** every answer equals the shared-flood path over the same
/// bank, bit for bit — components and floods are exact per world, so the
/// connected-worlds bitsets are identical, not just statistically close.
///
/// **Incremental maintenance:** after a graph mutation the owner derives
/// the next bank from the old one (bank bits are a pure function of (seed,
/// edge, world, p_e), so the derived bank is bit-identical to a fresh
/// engine's) and calls ApplyBankUpdate with the derive's WorldBank::Delta.
/// Only the changed worlds' label columns move; every other world keeps its
/// labels untouched. A single-edge probability nudge flips only the worlds
/// whose uniform lies between the old and new thresholds, and an appended
/// edge touches only the worlds it is up in, so the work scales with the
/// size of the change, not with Z. The delta picks one of two kernels per
/// world:
///   - a world that **lost** an edge is relabeled from scratch (union-find
///     over its up edges);
///   - a world that only **gained** edges needs no traversal: its new
///     components are the old ones with each gained edge's endpoint
///     components merged. With min-id labels that merge is bit-sliced over
///     64 worlds at once: where the endpoints' labels La != Lb, every node
///     labeled La or Lb takes min(La, Lb) — O(n · log n) word operations per
///     gained edge and 64-world word.
/// A directed index only swaps the bank and drops its count rows.
///
/// Determinism: labels are filled by the counter-seeded sharded executor
/// (shard i owns bit-word i of every plane), and per-world labeling is
/// canonical (a component's label is its smallest node id, whichever kernel
/// wrote it), so the whole index is a pure function of the bank bits —
/// bit-identical for any num_threads, and an incrementally maintained index
/// equals a fresh build over the same bank bit for bit. Queries never
/// depend on cache state: eviction changes which floods re-run, never their
/// results.
///
/// Query / QueryBatch / ConnectedWorlds are thread-safe: a mutex guards the
/// count rows for lookups and inserts only, and floods run outside it.
class ReliabilityIndex {
 public:
  struct Options {
    /// Cap on the undirected label-plane footprint (n · ceil(log2 n) · Z
    /// bits). Above it, construction refuses (Fits() returns false) — callers
    /// keep the flood path instead. A directed index holds no planes.
    size_t max_label_bytes = size_t{128} << 20;
    /// Cap on the bytes the directed count rows hold (n uint32_t counts per
    /// source). Oldest sources go first.
    size_t max_reach_bytes = size_t{64} << 20;
    /// Lanes used while (re)labeling and flooding cold directed sources;
    /// <= 0 means all hardware threads. No bit depends on it.
    int num_threads = 1;
  };

  /// Build/maintenance accounting. builds / incremental_updates /
  /// worlds_relabeled / last_update_worlds are monotonic over the index
  /// lifetime. The reach_* counters describe the directed count-row cache
  /// **since it was last dropped**: ApplyBankUpdate clears the cache (its
  /// rows mixed pre-update worlds) and resets all three, so after an
  /// incremental update they match a fresh build's counters instead of
  /// carrying floods that served the previous bank.
  struct Stats {
    /// Full builds (constructor).
    size_t builds = 0;
    /// ApplyBankUpdate calls that kept unaffected worlds.
    size_t incremental_updates = 0;
    /// Worlds relabeled across all builds and updates (always 0 for a
    /// directed index, which holds no labels). An update counts every
    /// changed world, whether it was relabeled or merged.
    size_t worlds_relabeled = 0;
    /// Worlds relabeled or merged by the most recent ApplyBankUpdate.
    size_t last_update_worlds = 0;
    /// Directed floods actually run (one per uncached source per batch).
    size_t reach_floods = 0;
    /// Directed count rows currently cached / evicted so far.
    size_t reach_rows_cached = 0;
    size_t reach_row_evictions = 0;
  };

  /// Labels every world in `bank`. The bank (and its universe graph) must
  /// outlive the index or be replaced via ApplyBankUpdate. Callers should
  /// check Fits() first; an over-cap build is a programmer error (CHECK).
  explicit ReliabilityIndex(const WorldBank& bank, const Options& options);

  /// Adopts previously saved label planes instead of relabeling — the
  /// deserialization path (index/index_io.h). `labels` must be the
  /// label_words() of an index built over a bit-identical bank (same
  /// universe shape, worlds, and draw stream; the load path validates this
  /// via the file's digest key before calling). The restored index answers
  /// bit-identically to the one that was saved; stats().builds and
  /// stats().worlds_relabeled stay 0 to record that no labeling ran.
  ReliabilityIndex(const WorldBank& bank, const Options& options,
                   std::vector<uint64_t> labels);

  /// Whether the label planes for (g, num_samples) fit under
  /// `options.max_label_bytes`; always true for a directed g.
  static bool Fits(const UncertainGraph& g, int num_samples,
                   const Options& options);

  /// Bitplanes per node of an index over g: ceil(log2 num_nodes), 0 for a
  /// 1-node or a directed graph.
  static int LabelBits(const UncertainGraph& g);
  /// Label-plane bytes of an index over (g, num_samples).
  static size_t LabelBytes(const UncertainGraph& g, int num_samples);

  /// R(s, t): fraction of worlds where t is reachable from s — a label-plane
  /// popcount, or for a directed index the one-pair QueryBatch.
  double Query(NodeId s, NodeId t) const;

  /// Query(sources[i], targets[i]) for every i, in order. A directed index
  /// answers cached sources by lookup and floods each uncached source once
  /// per batch, in first-appearance order and in runs whose fresh rows fit
  /// max_reach_bytes (at least one source per run), over the bank's (source
  /// × world range) fan-out on options.num_threads workers; the finished
  /// rows are cached FIFO.
  std::vector<double> QueryBatch(std::span<const NodeId> sources,
                                 std::span<const NodeId> targets) const;

  /// World-indexed bitset with bit w set iff t is reachable from s in world
  /// w — bit-identical to ReachabilityFixpoint over the same bank. A
  /// directed index floods s for it and leaves the count rows alone.
  std::vector<uint64_t> ConnectedWorlds(NodeId s, NodeId t) const;

  /// A copy of the label planes over the same bank, as the label-adopting
  /// constructor makes it, with the same options: the start of a successor
  /// index (ApplyBankUpdate) while this one keeps answering.
  std::unique_ptr<ReliabilityIndex> Clone() const;

  /// Moves the index from the bank it holds to `fresh`, the bank the
  /// WorldBank derive constructor made from it, given that derive's `delta`.
  /// Exactly the worlds in delta.changed are updated and every other
  /// world's labels are kept: delta.lost worlds are relabeled from scratch,
  /// and the rest are merged along the edges newly up in them (the fresh row
  /// AND NOT the held bank's). `fresh` must have the same num_worlds and
  /// universe num_nodes as the held bank (edges may have been appended), the
  /// held bank must still be alive, and `fresh` replaces it; the directed
  /// count rows are dropped. A directed index holds no labels, so it ignores
  /// the delta and relabels nothing.
  void ApplyBankUpdate(const WorldBank& fresh, const WorldBank::Delta& delta);

  int num_worlds() const { return num_worlds_; }
  /// LabelBits(universe).
  int label_bits() const { return label_bits_; }
  /// Bytes held by the label planes.
  size_t label_bytes() const { return labels_.size() * sizeof(uint64_t); }
  /// The raw label planes (plane b of node v starts at word
  /// (v * label_bits() + b) * world_words) — what index_io serializes and
  /// the label-adopting constructor restores.
  std::span<const uint64_t> label_words() const { return labels_; }
  /// Bytes held by the directed count rows right now: rows cached × n × 4.
  size_t reach_cache_bytes() const;
  Stats stats() const;

 private:
  struct LabelScratch;

  // Recomputes the label columns of every world set in `mask` from bank_.
  // Affected bits are cleared first; other worlds' bits are untouched.
  void RelabelWorlds(const std::vector<uint64_t>& mask);

  // RelabelWorlds for the worlds of `mask_word` in 64-world word `word`.
  void RelabelWord(LabelScratch& scratch, size_t word, uint64_t mask_word);

  // In the worlds of `worlds` (bits of 64-world word `word`) where a and b
  // carry different labels, relabels both components to the smaller label:
  // the components after adding up-edge (a, b) to those worlds.
  void MergeWord(size_t word, NodeId a, NodeId b, uint64_t worlds);

  // The count row of each of `sources` (entry v: the worlds in which v is
  // reachable from it), flooded through WorldBank::FloodSources.
  std::vector<std::vector<uint32_t>> CountReach(
      const std::vector<NodeId>& sources) const;

  // Counts the flood of `s` and caches `row` as its count row (unless a
  // racing batch cached it first), evicting FIFO under max_reach_bytes.
  // Requires reach_mu_.
  void CacheRow(NodeId s, std::vector<uint32_t> row) const;

  size_t RowBytes() const { return num_nodes_ * sizeof(uint32_t); }

  const WorldBank* bank_;  // replaced by ApplyBankUpdate
  Options options_;
  NodeId num_nodes_;
  int num_worlds_;
  size_t world_words_;
  int label_bits_;
  bool directed_;
  // Plane b of node v is the world_words_-word row starting at
  // labels_[(v * label_bits_ + b) * world_words_].
  std::vector<uint64_t> labels_;
  // Guards the directed count rows and stats_'s reach_* counters.
  mutable std::mutex reach_mu_;
  mutable std::unordered_map<NodeId, std::vector<uint32_t>> reach_rows_;
  mutable std::deque<NodeId> reach_order_;  // cached sources, oldest first
  mutable Stats stats_;
};

}  // namespace relmax

#endif  // RELMAX_INDEX_RELIABILITY_INDEX_H_
