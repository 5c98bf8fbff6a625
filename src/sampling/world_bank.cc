#include "sampling/world_bank.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "sampling/parallel.h"

namespace relmax {
namespace {

constexpr uint64_t kP53 = uint64_t{1} << 53;

// Rows per fill shard; a shard covers those rows' words in one lane block,
// so shards write disjoint cache lines.
constexpr size_t kFillRows = 64;

constexpr size_t kBlockWorlds = bitlane::kLaneWords * 64;

// Worlds in lane blocks [first_block, first_block + num_blocks) of a
// `num_worlds`-world bank, num_blocks clamped to the blocks that exist.
int RangeWorlds(int num_worlds, size_t first_block, size_t num_blocks) {
  RELMAX_CHECK(num_worlds > 0);
  RELMAX_CHECK(first_block < WorldBank::LaneBlocks(num_worlds));
  const size_t left =
      static_cast<size_t>(num_worlds) - first_block * kBlockWorlds;
  return static_cast<int>(
      std::min(left, std::min(num_blocks, left) * kBlockWorlds));
}

// A flood range must carry at least this many estimated (arc, word)
// relaxations (FloodBlockWork) to repay waking a pool thread for it.
// Measured on a 4-core x86-64 box: an estimated relaxation costs 3-17 ns of
// flood time and a hand-off 50-100 us, so a range this size runs for at
// least about 0.15 ms. lastfm 0.5 at Z = 2000 (BM_ReachabilityFixpoint)
// estimates 34k per source and floods in 0.11 ms whole-row against 0.15 ms
// in two ranges, so it stays whole-row; as_topology 0.2 (BM_DirectedFlood)
// estimates 225k and floods in about 4 ms, so it fans out to 4 workers.
constexpr double kMinRangeWork = 48 * 1024;

// Estimated (arc, word) relaxations per lane block of one flood of `g`: the
// nodes a flood reaches in some world of a word, times their mean arc count,
// times the block's words. Up arcs form a branching process whose mean
// offspring b = sum_v p_in(v) p_out(v) / sum_v p_out(v) is the expected
// number of up arcs out of the head of an up arc. When b >= 1 a flood
// reaches a giant component, taken as every node; when b < 1 it reaches
// 1 + d / (1 - b) nodes per world (d: the mean expected up out-degree), so
// at most 64 times that in a word's 64 worlds.
double FloodBlockWork(const UncertainGraph& g) {
  const size_t n = g.num_nodes();
  if (n == 0) return 0;
  std::vector<double> p_in(n, 0.0);
  std::vector<double> p_out(n, 0.0);
  for (size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.EdgeById(static_cast<EdgeId>(e));
    p_out[edge.src] += edge.prob;
    p_in[edge.dst] += edge.prob;
    if (!g.directed()) {
      p_out[edge.dst] += edge.prob;
      p_in[edge.src] += edge.prob;
    }
  }
  double up_arcs = 0;
  double offspring = 0;
  for (size_t v = 0; v < n; ++v) {
    up_arcs += p_out[v];
    offspring += p_in[v] * p_out[v];
  }
  const double nodes = static_cast<double>(n);
  const double b = up_arcs > 0 ? offspring / up_arcs : 0;
  const double per_world = b >= 1 ? nodes : 1 + up_arcs / nodes / (1 - b);
  const double arcs =
      static_cast<double>(g.num_edges()) * (g.directed() ? 1 : 2);
  return std::min(nodes, 64 * per_world) * (arcs / nodes) * bitlane::kLaneWords;
}

// 0 .. num_edges - 1, ascending.
std::vector<EdgeId> EdgeIds(size_t num_edges) {
  std::vector<EdgeId> edges(num_edges);
  for (size_t e = 0; e < num_edges; ++e) edges[e] = static_cast<EdgeId>(e);
  return edges;
}

}  // namespace

uint64_t WorldBank::Threshold(double p) {
  return p <= 0.0   ? 0
         : p >= 1.0 ? kP53
                    : static_cast<uint64_t>(std::ceil(p * 0x1p53));
}

std::vector<uint64_t> WorldBank::RowThresholds(const UncertainGraph& g) {
  std::vector<uint64_t> thresholds;
  thresholds.reserve(g.num_edges());
  for (double p : g.EdgeProbs()) thresholds.push_back(Threshold(p));
  return thresholds;
}

size_t WorldBank::LaneBlocks(int num_worlds) {
  return (static_cast<size_t>(num_worlds) + kBlockWorlds - 1) / kBlockWorlds;
}

size_t WorldBank::BlocksWithin(size_t rows, size_t budget_bytes) {
  const size_t block_bytes = std::max<size_t>(rows, 1) * kBlockWorlds / 8;
  return std::max<size_t>(1, budget_bytes / block_bytes);
}

uint64_t WorldBank::WordSeed(uint64_t seed, EdgeId e, size_t word) {
  return ShardSeed(ShardSeed(seed, e), word);
}

uint64_t WorldBank::DrawWord(uint64_t word_seed, uint64_t threshold) {
  if (threshold == 0) return 0;
  if (threshold >= kP53) return ~uint64_t{0};
  Rng rng(word_seed);
  uint64_t up = 0;
  uint64_t undecided = ~uint64_t{0};
  // Bit k of every world's U is one draw; a world leaves `undecided` at the
  // first bit where its U differs from the threshold's. Once the
  // threshold's bits k..0 are all zero, an undecided world's U (equal so
  // far, >= 0 below) is >= threshold: down, with no further draw.
  for (int k = 52; k >= 0 && undecided != 0; --k) {
    if ((threshold & ((uint64_t{2} << k) - 1)) == 0) break;
    const uint64_t r = rng.Next();
    if ((threshold >> k) & 1) {
      up |= undecided & ~r;
      undecided &= r;
    } else {
      undecided &= ~r;
    }
  }
  return up;
}

void WorldBank::DrawRows(const std::vector<EdgeId>& rows, int num_threads) {
  const size_t blocks = up_.blocks_per_row();
  const size_t num_shards = (rows.size() + kFillRows - 1) / kFillRows * blocks;
  const uint64_t tail = TailMask(num_worlds_);
  // Each (row range, lane block) shard writes only its own cells, and every
  // cell is a pure function of (seed, row, word, threshold): race-free and
  // bit-identical for any num_threads.
  ForEachShard(
      num_shards, num_threads, [] { return 0; },
      [&](int, size_t i) {
        const size_t first = i / blocks * kFillRows;
        const size_t last = std::min(first + kFillRows, rows.size());
        const size_t word_begin = i % blocks * bitlane::kLaneWords;
        const size_t word_end =
            std::min(word_begin + bitlane::kLaneWords, world_words_);
        for (size_t r = first; r < last; ++r) {
          const EdgeId e = rows[r];
          uint64_t* const row = up_.row(e);
          for (size_t w = word_begin; w < word_end; ++w) {
            row[w] =
                DrawWord(WordSeed(seed_, e, first_word_ + w), thresholds_[e]);
          }
          if (word_end == world_words_) row[world_words_ - 1] &= tail;
        }
      },
      [](int) {});
}

WorldBank::WorldBank(const UncertainGraph& universe, const Options& options,
                     size_t first_block, size_t num_blocks)
    : universe_(universe),
      num_worlds_(RangeWorlds(options.num_samples, first_block, num_blocks)),
      world_words_((static_cast<size_t>(num_worlds_) + 63) / 64),
      first_word_(first_block * bitlane::kLaneWords),
      seed_(options.seed),
      thresholds_(RowThresholds(universe)),
      all_edges_(EdgeIds(universe.num_edges())),
      flood_block_work_(FloodBlockWork(universe)),
      // A range bank's rows come straight from the OS, so a streamed run's
      // pages go back when it is dropped, not into a malloc arena.
      up_(num_worlds_ < options.num_samples ? bitlane::BitMatrix::Mapped()
                                            : bitlane::BitMatrix()) {
  up_.EnsureShape(universe.num_edges(), world_words_);
  DrawRows(AllEdges(), options.num_threads);
}

WorldBank::WorldBank(const WorldBank& prev, const UncertainGraph& universe,
                     const Options& options, Delta* delta)
    : universe_(universe),
      num_worlds_(options.num_samples),
      world_words_(prev.world_words_),
      seed_(options.seed),
      thresholds_(RowThresholds(universe)),
      all_edges_(EdgeIds(universe.num_edges())),
      flood_block_work_(FloodBlockWork(universe)),
      up_(universe.num_edges(), world_words_) {
  RELMAX_CHECK(options.num_samples == prev.num_worlds_);
  RELMAX_CHECK(options.seed == prev.seed_);
  const size_t num_edges = universe.num_edges();
  const size_t kept = std::min(num_edges, prev.num_edges());
  std::vector<EdgeId>& redraw = delta->redrawn;
  redraw.clear();
  for (size_t e = 0; e < num_edges; ++e) {
    if (e < kept && thresholds_[e] == prev.thresholds_[e]) {
      std::copy_n(prev.up_.row(e), world_words_, up_.row(e));
    } else {
      redraw.push_back(static_cast<EdgeId>(e));
    }
  }
  DrawRows(redraw, options.num_threads);
  std::vector<uint64_t>& changed = delta->changed;
  std::vector<uint64_t>& lost = delta->lost;
  changed.assign(world_words_, 0);
  lost.assign(world_words_, 0);
  for (EdgeId e : redraw) {
    const uint64_t* const after = up_.row(e);
    if (e >= kept) {  // appended: every up world gains the edge
      for (size_t w = 0; w < world_words_; ++w) changed[w] |= after[w];
      continue;
    }
    const uint64_t* const before = prev.up_.row(e);
    for (size_t w = 0; w < world_words_; ++w) {
      changed[w] |= before[w] ^ after[w];
      lost[w] |= before[w] & ~after[w];
    }
  }
  // Rows the universe no longer has leave every world they were up in.
  for (size_t e = kept; e < prev.num_edges(); ++e) {
    const uint64_t* const gone = prev.up_.row(e);
    for (size_t w = 0; w < world_words_; ++w) {
      changed[w] |= gone[w];
      lost[w] |= gone[w];
    }
  }
}

WorldBank::WorldBank(const UncertainGraph& universe, int num_worlds,
                     uint64_t seed, bitlane::BitMatrix up)
    : universe_(universe),
      num_worlds_(num_worlds),
      world_words_((static_cast<size_t>(num_worlds) + 63) / 64),
      seed_(seed),
      thresholds_(RowThresholds(universe)),
      all_edges_(EdgeIds(universe.num_edges())),
      flood_block_work_(FloodBlockWork(universe)),
      up_(std::move(up)) {
  RELMAX_CHECK(num_worlds > 0);
  RELMAX_CHECK(up_.rows() == universe.num_edges());
  RELMAX_CHECK(up_.words() == world_words_);
}

int64_t WorldBank::ReachabilityFixpoint(NodeId source, bool backward,
                                        const std::vector<EdgeId>& active,
                                        bitlane::BitMatrix* reach,
                                        SeedPolicy seeds, size_t first_block,
                                        size_t num_blocks) const {
  RELMAX_CHECK(source < universe_.num_nodes());
  RELMAX_CHECK(first_block < lane_blocks());
  num_blocks = std::min(num_blocks, lane_blocks() - first_block);
  // The range's worlds are bank words [word_begin, word_begin + words): a
  // whole number of lane blocks, except that the last block holds only the
  // row's remaining logical words.
  const size_t word_begin = first_block * bitlane::kLaneWords;
  const size_t words =
      std::min(num_blocks * bitlane::kLaneWords, world_words_ - word_begin);
  const size_t num_nodes = universe_.num_nodes();
  const bool reallocated = reach->EnsureShape(num_nodes, words);
  if (!reallocated && seeds == SeedPolicy::kClearScratch) {
    // The kernel owns the scratch hygiene: a shape-matched buffer reused
    // across sources is wiped here, never by caller convention.
    reach->Clear();
  }
  uint64_t* const at_source = reach->row(source);
  for (size_t w = 0; w < words; ++w) at_source[w] = ~uint64_t{0};
  if (word_begin + words == world_words_) {
    at_source[words - 1] = TailMask(num_worlds_);
  }

  // Frontier-driven worklist over 64-world words. Per node, one dirty bit
  // per word of the range ("this word gained worlds since the node was last
  // relaxed"). Popping a node snapshots-and-clears its dirty mask, then
  // relaxes only those words along its incident arcs; the words of a
  // neighbor that actually gain worlds are ORed into its mask once per arc,
  // and the neighbor is (re)queued. Nodes and words that never change are
  // never touched. The converged bits are schedule-independent (the
  // fixpoint of the monotone word algebra is unique), so this keeps the
  // (threads, lane-mode)-invariance contract.
  // thread_local: floods are hot (per candidate, per source) and the masks
  // are small, so the allocations are paid once per thread, not per call.
  const size_t mask_words = (words + 63) / 64;
  thread_local std::vector<uint64_t> dirty_storage;
  thread_local std::vector<uint8_t> queued_storage;
  thread_local std::vector<uint8_t> active_storage;
  thread_local std::vector<NodeId> ring_storage;
  // One extra mask after the nodes' holds the popped node's snapshot.
  dirty_storage.assign((num_nodes + 1) * mask_words, 0);
  queued_storage.assign(num_nodes, 0);
  ring_storage.resize(num_nodes);
  uint64_t* const dirty = dirty_storage.data();
  uint64_t* const popped = dirty + num_nodes * mask_words;
  uint8_t* const queued = queued_storage.data();
  NodeId* const ring = ring_storage.data();
  // Every bank edge is active for the flood's commonest caller (the bank's
  // own AllEdges()), which needs no per-edge flags.
  const bool all_active =
      &active == &all_edges_ && universe_.num_edges() == up_.rows();
  if (!all_active) {
    active_storage.assign(universe_.num_edges(), 0);
    for (EdgeId e : active) active_storage[e] = 1;
  }
  const uint8_t* const active_flag = active_storage.data();
  // The worklist is a FIFO ring of n slots: `queued` admits a node at most
  // once at a time, so n slots suffice however often nodes are requeued
  // (several times each on a typical flood).
  size_t ring_head = 0;
  size_t ring_tail = 0;
  size_t ring_count = 0;
  const auto enqueue = [&](NodeId v) {
    queued[v] = 1;
    ring[ring_tail] = v;
    if (++ring_tail == num_nodes) ring_tail = 0;
    ++ring_count;
  };

  if (seeds == SeedPolicy::kSeedsAreFacts && !reallocated) {
    // Every nonzero word is a fact the flood must start from (the source
    // row included — it was just forced on above).
    for (size_t v = 0; v < num_nodes; ++v) {
      const uint64_t* const row = reach->row(v);
      uint64_t* const dv = dirty + v * mask_words;
      uint64_t any = 0;
      for (size_t w = 0; w < words; ++w) {
        const uint64_t nonzero = row[w] != 0;
        dv[w >> 6] |= nonzero << (w & 63);
        any |= nonzero;
      }
      if (any != 0) enqueue(static_cast<NodeId>(v));
    }
  } else {
    // Fresh scratch: the source row is the only nonzero row, and every
    // logical word of it is nonzero.
    uint64_t* const ds = dirty + source * mask_words;
    for (size_t mw = 0; mw + 1 < mask_words; ++mw) ds[mw] = ~uint64_t{0};
    ds[mask_words - 1] = TailMask(static_cast<int>(words));
    enqueue(source);
  }

  // Forward floods walk out-arcs; backward directed floods walk in-arcs
  // (reach-to-source flows from an arc's head to its tail, and InCsr(w)'s
  // heads are exactly w's predecessors). Undirected graphs keep both arc
  // copies in the out-CSR, so one view covers both directions.
  const CsrView csr = (backward && universe_.directed()) ? universe_.InCsr()
                                                         : universe_.OutCsr();
  const bool scalar = bitlane::Mode() == bitlane::LaneMode::kScalar;
  int64_t propagated = 0;
  while (ring_count > 0) {
    const NodeId u = ring[ring_head];
    if (++ring_head == num_nodes) ring_head = 0;
    --ring_count;
    queued[u] = 0;
    uint64_t* const du = dirty + u * mask_words;
    for (size_t mw = 0; mw < mask_words; ++mw) {
      popped[mw] = du[mw];
      du[mw] = 0;
    }
    const uint64_t* const src_row = reach->row(u);
    const size_t arcs_end = csr.end(u);
    for (size_t a = csr.begin(u); a < arcs_end; ++a) {
      const EdgeId e = csr.edge_ids[a];
      if (!all_active && active_flag[e] == 0) continue;
      const NodeId v = csr.heads[a];
      if (v == u) continue;  // self-loop: cannot change reachability
      const uint64_t* const up = up_.row(e) + word_begin;
      uint64_t* const dst_row = reach->row(v);
      uint64_t* const dv = dirty + v * mask_words;
      uint64_t v_gained = 0;
      for (size_t mw = 0; mw < mask_words; ++mw) {
        const uint64_t gained =
            scalar ? bitlane::PropagateWordsScalar(popped[mw], src_row, up,
                                                   dst_row, mw * 64)
                   : bitlane::PropagateWords(popped[mw], src_row, up, dst_row,
                                             mw * 64);
        dv[mw] |= gained;
        v_gained |= gained;
        propagated += __builtin_popcountll(gained);
      }
      if (v_gained != 0 && queued[v] == 0) enqueue(v);
    }
  }
  return propagated;
}

size_t WorldBank::FloodRanges(size_t num_sources, int num_threads) const {
  const size_t workers = static_cast<size_t>(ResolveNumThreads(num_threads));
  const size_t per_source =
      num_sources == 0 ? 1 : (workers + num_sources - 1) / num_sources;
  const auto by_work = static_cast<size_t>(
      flood_block_work_ * static_cast<double>(lane_blocks()) / kMinRangeWork);
  return std::max<size_t>(1, std::min({lane_blocks(), per_source, by_work}));
}

void WorldBank::FloodSources(const std::vector<NodeId>& sources,
                             int num_threads,
                             const FloodVisitor& visit) const {
  const size_t ranges = FloodRanges(sources.size(), num_threads);
  const size_t blocks = lane_blocks();
  const size_t num_shards = sources.size() * ranges;
  const size_t workers = std::min(
      static_cast<size_t>(ResolveNumThreads(num_threads)), num_shards);
  if (workers == 0) return;
  // Flood scratch, one matrix per worker, owned by the calling thread and
  // kept across its calls in the shape of the range each last flooded, so a
  // steady stream of same-shaped floods never reallocates. Pool threads
  // borrow the caller's matrices, so what stays allocated between calls is
  // bounded by callers × workers rather than by the pool's size, and a
  // reshape returns the old pages to the OS (mapped matrices).
  thread_local std::vector<bitlane::BitMatrix> caller_scratch;
  std::vector<bitlane::BitMatrix>& scratch = caller_scratch;
  while (scratch.size() < workers) {
    scratch.push_back(bitlane::BitMatrix::Mapped());
  }
  // Shard-to-worker assignment is racy, but each (source, range) shard
  // writes only its own state through `visit`, so results are not.
  std::atomic<size_t> cursor{0};
  RunWorkers(static_cast<int>(workers), [&](int worker) {
    bitlane::BitMatrix& reach = scratch[static_cast<size_t>(worker)];
    for (size_t shard = cursor.fetch_add(1, std::memory_order_relaxed);
         shard < num_shards;
         shard = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const size_t i = shard / ranges;
      const size_t r = shard % ranges;
      const size_t first = r * blocks / ranges;
      const size_t last = (r + 1) * blocks / ranges;
      ReachabilityFixpoint(sources[i], /*backward=*/false, all_edges_, &reach,
                           SeedPolicy::kClearScratch, first, last - first);
      visit(i, r, first * bitlane::kLaneWords, reach);
    }
  });
}

std::vector<uint64_t> WorldBank::WorldsWithAllEdges(
    const std::vector<EdgeId>& edges) const {
  std::vector<uint64_t> all(world_words_, ~uint64_t{0});
  // Clear the tail bits beyond num_worlds so counts stay exact.
  all.back() = TailMask(num_worlds_);
  for (EdgeId e : edges) {
    const uint64_t* const up = up_.row(e);
    for (size_t w = 0; w < world_words_; ++w) all[w] &= up[w];
  }
  return all;
}

double WorldBank::ConnectedFraction(
    NodeId s, NodeId t, const std::vector<EdgeId>& active,
    std::vector<uint64_t> seed_connected) const {
  RELMAX_CHECK(t < universe_.num_nodes());
  bitlane::BitMatrix reach;
  ReachabilityFixpoint(s, /*backward=*/false, active, &reach);
  if (seed_connected.empty()) seed_connected.assign(world_words_, 0);
  const uint64_t* const at_t = reach.row(t);
  for (size_t w = 0; w < world_words_; ++w) {
    seed_connected[w] |= at_t[w];
  }
  return static_cast<double>(
             CountBits(seed_connected, static_cast<size_t>(num_worlds_))) /
         num_worlds_;
}

int64_t WorldBank::CountBits(std::span<const uint64_t> bits, size_t limit) {
  int64_t count = 0;
  for (size_t word = 0; word * 64 < limit && word < bits.size(); ++word) {
    uint64_t value = bits[word];
    const size_t remaining = limit - word * 64;
    if (remaining < 64) value &= (uint64_t{1} << remaining) - 1;
    count += __builtin_popcountll(value);
  }
  return count;
}

}  // namespace relmax
