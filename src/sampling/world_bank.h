#ifndef RELMAX_SAMPLING_WORLD_BANK_H_
#define RELMAX_SAMPLING_WORLD_BANK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/uncertain_graph.h"
#include "sampling/bitlane.h"

namespace relmax {

/// A bank of Z possible worlds sampled **once** over a (small) graph's edge
/// universe, stored as an edges × worlds presence bit-matrix.
///
/// Greedy selection loops (BE/IP, hill climbing) estimate reliability on many
/// near-identical subgraphs of one universe; re-sampling worlds for every
/// (round × candidate) pair makes sampling the dominant cost. A WorldBank
/// pays the RNG cost once and evaluates connectivity for **all worlds at
/// once**: reachability is iterated to fixpoint with word-parallel bit
/// operations (`reach[v] |= reach[u] & up[e]`), so one machine word carries
/// 64 worlds and no per-world BFS ever runs. Because every candidate is
/// scored against the same worlds (common random numbers), greedy
/// marginal-gain comparisons within a round share sampling noise. The
/// evaluator, the greedy scorer, the multi-source and influence evaluators,
/// the fast-gain ensemble, the batch engine and the reliability index all
/// read the bank through this one class.
///
/// Storage is one flat, 64-byte-aligned bitlane::BitMatrix whose rows are
/// padded to whole 512-bit lane blocks (see bitlane.h). The fixpoint is
/// frontier-driven: it tracks which 64-world words of which nodes gained
/// worlds since the node was last relaxed and only re-propagates those.
///
/// Determinism: every bank bit is a pure function of (seed, edge id, world,
/// p_e). Bit-word w of edge e's row is drawn from its own stream, seeded by
/// WordSeed(seed, e, w) = ShardSeed(ShardSeed(seed, e), w), through an exact
/// bit-sliced compare of 64 per-world 53-bit uniforms U against the edge's
/// threshold t = Threshold(p_e): world j is up iff U_j < t (DrawWord). U
/// does not depend on t, so changing p_e flips only the worlds whose U lies
/// between the old and new thresholds and touches no other row; p <= 0 and
/// p >= 1 take no draw and shift nothing. The fill fans out over (edge
/// range, lane block) shards, each writing its own cells, so the bits are
/// **bit-identical for any num_threads**, and a bank derived from its
/// predecessor after a graph change (the derive constructor) equals a fresh
/// fill bit for bit. Fixpoint answers are additionally invariant to the lane
/// mode (early-exit vs branch-free word step): the fixpoint of the monotone
/// word algebra is unique, so scheduling cannot change the converged bits.
/// The bank is immutable after construction and safe to read from multiple
/// threads.
class WorldBank {
 public:
  /// Construction knobs: Z, the draw-stream seed, and fill lanes (the
  /// stored bits do not depend on num_threads).
  struct Options {
    int num_samples = 500;
    uint64_t seed = 42;
    int num_threads = 1;
  };

  /// What ReachabilityFixpoint may assume about a reused `reach` matrix.
  ///
  /// kClearScratch (the default): `reach` is scratch; the flood wipes it
  /// and seeds only the source row. Use this unless you prepared `reach`.
  ///
  /// kSeedsAreFacts: every bit already set in `reach` is a known-reachable
  /// fact to propagate from (the caller pre-seeded rows, e.g. path-derived
  /// reachability). The flood must not clear them. If the matrix had to be
  /// reallocated to fit the requested shape, the seeds are gone and the
  /// flood degrades to kClearScratch semantics on a fresh matrix.
  enum class SeedPolicy { kClearScratch, kSeedsAreFacts };

  /// Block count meaning "through the last lane block" (ReachabilityFixpoint).
  static constexpr size_t kAllBlocks = ~size_t{0};

  /// Samples `options.num_samples` worlds over `universe`'s edges, or only
  /// their lane blocks [first_block, first_block + num_blocks), clamped to
  /// the blocks that exist. World w of such a range bank is world
  /// first_block * 512 + w of the whole bank, each word drawn from its
  /// global WordSeed, so the rows are the whole bank's columns bit for bit;
  /// a consumer whose budget cannot hold all Z worlds streams them in runs
  /// and sums integer counts over the runs. num_worlds() counts the range's
  /// worlds. The universe graph must outlive the bank.
  WorldBank(const UncertainGraph& universe, const Options& options,
            size_t first_block = 0, size_t num_blocks = kAllBlocks);

  /// What a derive changed: two world-indexed bitsets (world_words() words
  /// each) and the rows it redrew. Rows are matched by edge id, so the masks
  /// name the worlds whose edge set changed when rows below
  /// prev.num_edges() are the same edges, as after UncertainGraph's
  /// UpdateEdgeProb and AddEdge.
  struct Delta {
    /// Worlds whose rows differ from prev's: old XOR new of every redrawn
    /// row, plus the up worlds of every appended or dropped row.
    std::vector<uint64_t> changed;
    /// The changed worlds that lost an edge: some redrawn row went from up
    /// to down, or a dropped row was up. Every other changed world only
    /// gained up edges, each set in its redrawn row but not in prev's.
    std::vector<uint64_t> lost;
    /// Updated and appended row ids, ascending.
    std::vector<EdgeId> redrawn;
  };

  /// The bank a fresh fill over `universe` would sample, derived from `prev`
  /// (an earlier flat bank with the same Z and seed) instead of refilled: rows
  /// whose threshold is unchanged are copied, updated and appended rows are
  /// redrawn, and rows past universe's edge count are dropped. `*delta`
  /// receives what changed, computed from the redrawn and dropped rows
  /// alone — no scan of the copied rows.
  WorldBank(const WorldBank& prev, const UncertainGraph& universe,
            const Options& options, Delta* delta);

  /// Adopts pre-filled rows instead of sampling — the deserialization path
  /// (index/index_io.h), where `up` wraps an mmap-ed file section. `up` must
  /// hold universe.num_edges() rows of ceil(num_worlds / 64) logical words
  /// as a fill with `seed` draws them (row e = edge e's world bitset, tail
  /// and pad bits zero); the per-row thresholds a later derive compares
  /// against are recomputed from universe's probabilities. The bank never
  /// writes the matrix after construction, so a read-only external matrix
  /// is safe; whoever owns the underlying buffer must keep it alive for the
  /// bank's lifetime.
  WorldBank(const UncertainGraph& universe, int num_worlds, uint64_t seed,
            bitlane::BitMatrix up);

  /// The 53-bit integer threshold a world's uniform is compared against:
  /// 0 for p <= 0, 2^53 for p >= 1, ceil(p * 2^53) otherwise, so
  /// P[U < t] = t / 2^53 is p rounded up to the 53-bit grid.
  static uint64_t Threshold(double p);

  /// Seed of the stream that draws bit-word `word` of edge `e`'s row.
  static uint64_t WordSeed(uint64_t seed, EdgeId e, size_t word);

  /// One 64-world word, exactly: bit j is [U_j < threshold], where U_j is
  /// the 53-bit uniform whose bit k (k = 52 down to 0) is bit j of the
  /// (53 - k)-th draw of Rng(word_seed). The compare is bit-sliced: it
  /// walks the threshold from its top bit, one draw per bit position,
  /// settling every still-undecided world against that bit, and stops once
  /// no world is undecided or the threshold's remaining bits are zero —
  /// about 7 draws per word. threshold 0 and >= 2^53 take no draw.
  static uint64_t DrawWord(uint64_t word_seed, uint64_t threshold);

  int num_worlds() const { return num_worlds_; }
  const UncertainGraph& universe() const { return universe_; }

  /// Edge rows in the bank — the universe's edge count **at construction**.
  /// If the graph is mutated afterwards, universe().num_edges() can exceed
  /// this; bank readers must size loops by this count, never the graph's.
  size_t num_edges() const { return up_.rows(); }

  /// Words in a world-indexed bitset (ceil(num_worlds / 64)).
  size_t world_words() const { return world_words_; }

  /// The live worlds of a world-indexed bitset's last word: the bits past
  /// num_worlds are clear.
  static uint64_t TailMask(int num_worlds) {
    return (num_worlds & 63) ? (uint64_t{1} << (num_worlds & 63)) - 1
                             : ~uint64_t{0};
  }

  /// 512-world lane blocks per row (ceil(world_words / kLaneWords)): the
  /// unit a flood's world range is cut in.
  size_t lane_blocks() const { return up_.blocks_per_row(); }

  /// Lane blocks of a `num_worlds`-world bank.
  static size_t LaneBlocks(int num_worlds);

  /// The widest run of lane blocks, at least one, whose `rows` bits per
  /// world fit in `budget_bytes`.
  static size_t BlocksWithin(size_t rows, size_t budget_bytes);

  /// World-indexed bitset: the worlds in which logical edge `e` exists.
  /// A view into the bank's row (world_words() words); valid as long as the
  /// bank lives.
  std::span<const uint64_t> EdgeUpWorlds(EdgeId e) const {
    return up_.row_span(e);
  }

  /// True iff edge e is up in world w.
  bool EdgePresent(int w, EdgeId e) const {
    return (EdgeUpWorlds(e)[static_cast<size_t>(w) >> 6] >> (w & 63)) & 1;
  }

  /// Computes, for every world of lane blocks [first_block, first_block +
  /// num_blocks) simultaneously, which nodes are reachable from `source`
  /// using only `active` edges that are up in that world: on return
  /// `reach->row(v)` word k is world word first_block * kLaneWords + k of
  /// v's reachability row, bit w set iff v is reachable in that world. The
  /// default range is every block, so `reach` holds whole rows; num_blocks
  /// is clamped to the blocks that exist. Blocks never exchange bits, so
  /// any split of the blocks into ranges yields the whole-row flood's bits.
  /// With `backward`, directed graphs propagate against arc direction
  /// (reachability *to* `source`). `*reach` is shaped to (num_nodes × the
  /// range's words) and zeroed unless it already matches and `seeds ==
  /// kSeedsAreFacts` (see SeedPolicy).
  ///
  /// Returns the number of (arc, 64-world word) propagation steps that
  /// actually added bits — 0 iff the seeded state was already a fixpoint.
  /// The frontier pass only revisits words dirtied since they were last
  /// relaxed, so a converged re-run touches each seeded word once and
  /// changes nothing. Deterministic for a given (bank, arguments): the
  /// result is invariant under lane mode and thread count.
  int64_t ReachabilityFixpoint(
      NodeId source, bool backward, const std::vector<EdgeId>& active,
      bitlane::BitMatrix* reach, SeedPolicy seeds = SeedPolicy::kClearScratch,
      size_t first_block = 0, size_t num_blocks = kAllBlocks) const;

  /// Called once per (source, range) shard of FloodSources with the index
  /// of the source, the range, the range's first world word, and the
  /// shard's reach matrix (ReachabilityFixpoint's layout for that range,
  /// valid only during the call).
  using FloodVisitor = std::function<void(
      size_t source, size_t range, size_t first_word,
      const bitlane::BitMatrix& reach)>;

  /// The ranges FloodSources cuts each of `num_sources` sources into on
  /// `num_threads` workers (<= 0: all hardware threads):
  /// min(lane_blocks(), ceil(workers / num_sources), the ranges a flood's
  /// estimated work fills with enough to repay a worker's hand-off), at
  /// least 1. One long flood keeps every worker busy; a flood that dies out
  /// within a few hops stays whole-row, as does every flood once there are
  /// as many sources as workers, which is the fastest per world. Fixed for
  /// a bank: it depends only on the universe as constructed and Z.
  size_t FloodRanges(size_t num_sources, int num_threads) const;

  /// Forward floods of every source over all bank edges, fanned out over
  /// (source × world range) shards on up to `num_threads` workers: source
  /// i's range r of R = FloodRanges(sources.size(), num_threads) is lane
  /// blocks [r·B/R, (r+1)·B/R) of B = lane_blocks(). Each shard floods
  /// into its worker's scratch (one range's columns; the calling thread
  /// keeps one per worker across calls) and hands it to `visit` on that
  /// worker; shards run concurrently, so `visit` must only write state
  /// owned by its (i, r).
  void FloodSources(const std::vector<NodeId>& sources, int num_threads,
                    const FloodVisitor& visit) const;

  /// Bitwise AND of the up-worlds of `edges` (all-ones when empty): the
  /// worlds in which every listed edge is simultaneously up.
  std::vector<uint64_t> WorldsWithAllEdges(
      const std::vector<EdgeId>& edges) const;

  /// Fraction of worlds where s reaches t over `active` edges. When
  /// `seed_connected` is non-empty (world_words() words), those worlds are
  /// counted as connected without flooding them again.
  double ConnectedFraction(NodeId s, NodeId t,
                           const std::vector<EdgeId>& active,
                           std::vector<uint64_t> seed_connected = {}) const;

  /// All bank edge ids, ascending — the "everything is active" edge set.
  const std::vector<EdgeId>& AllEdges() const { return all_edges_; }

  /// Popcount of the first `limit` bits of `bits`.
  static int64_t CountBits(std::span<const uint64_t> bits, size_t limit);

 private:
  const UncertainGraph& universe_;
  int num_worlds_;
  size_t world_words_;
  /// Global index of this bank's first world word (0 unless a range bank).
  size_t first_word_ = 0;
  uint64_t seed_;
  /// Threshold(p_e) of every row as drawn, so a derived bank can tell which
  /// rows an update changed even when the universe was mutated in place.
  std::vector<uint64_t> thresholds_;
  /// 0 .. num_edges() - 1: sized by the bank's own rows, not
  /// universe().num_edges(), since the graph may grow edges afterwards.
  std::vector<EdgeId> all_edges_;
  /// Estimated (arc, word) relaxations per lane block of one flood of the
  /// universe as constructed; FloodRanges splits a source only when each
  /// range gets enough of them.
  double flood_block_work_;
  /// Row e = world bitset for edge e (bits beyond num_worlds stay zero,
  /// including the lane-block padding words — the fixpoint relies on it).
  bitlane::BitMatrix up_;

  // Threshold(p_e) of every edge of `g`, by edge id.
  static std::vector<uint64_t> RowThresholds(const UncertainGraph& g);

  // Draws the listed rows of up_ from their thresholds_, fanning out over
  // (row range, lane block) shards on `num_threads` lanes.
  void DrawRows(const std::vector<EdgeId>& rows, int num_threads);
};

}  // namespace relmax

#endif  // RELMAX_SAMPLING_WORLD_BANK_H_
