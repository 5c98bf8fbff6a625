#include "index/reliability_index.h"

#include <algorithm>
#include <memory>
#include <span>
#include <unordered_set>

#include "common/logging.h"
#include "sampling/parallel.h"

namespace relmax {
namespace {

/// Bits needed for labels in [0, n): ceil(log2 n), 0 for n <= 1.
int LabelBits(NodeId num_nodes) {
  int bits = 0;
  if (num_nodes > 1) {
    const NodeId max_label = num_nodes - 1;
    while ((max_label >> bits) != 0) ++bits;
  }
  return bits;
}

/// World-indexed bitset with every world bit set (tail bits clear).
std::vector<uint64_t> AllWorlds(int num_worlds, size_t world_words) {
  std::vector<uint64_t> all(world_words, ~uint64_t{0});
  if (num_worlds & 63) {
    all.back() = (uint64_t{1} << (num_worlds & 63)) - 1;
  }
  return all;
}

NodeId Find(std::vector<NodeId>& parent, NodeId v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];  // path halving
    v = parent[v];
  }
  return v;
}

/// Label-plane words an index over (g, num_samples) holds: none when g is
/// directed, whose index is a reach-row cache only.
size_t LabelWords(const UncertainGraph& g, int num_samples) {
  if (g.directed()) return 0;
  return ReliabilityIndex::LabelBytes(g.num_nodes(), num_samples) /
         sizeof(uint64_t);
}

}  // namespace

/// Per-lane labeling scratch, reused across every world a lane relabels.
struct ReliabilityIndex::LabelScratch {
  // This 64-world word of every edge's up row, hoisted once per word so the
  // per-world inner loops index one flat array instead of striding across
  // the bank's rows per (edge, world).
  std::vector<uint64_t> up_words;
  // Undirected union-find.
  std::vector<NodeId> parent;
};

size_t ReliabilityIndex::LabelBytes(NodeId num_nodes, int num_samples) {
  const size_t world_words = (static_cast<size_t>(num_samples) + 63) / 64;
  return static_cast<size_t>(num_nodes) * LabelBits(num_nodes) * world_words *
         sizeof(uint64_t);
}

bool ReliabilityIndex::Fits(const UncertainGraph& g, int num_samples,
                            const Options& options) {
  return LabelWords(g, num_samples) * sizeof(uint64_t) <=
         options.max_label_bytes;
}

ReliabilityIndex::ReliabilityIndex(const WorldBank& bank,
                                   const Options& options)
    : ReliabilityIndex(bank, options,
                       std::vector<uint64_t>(
                           LabelWords(bank.universe(), bank.num_worlds()))) {
  ++stats_.builds;
  if (directed_) return;  // no labels to build
  stats_.worlds_relabeled += static_cast<size_t>(num_worlds_);
  RelabelWorlds(AllWorlds(num_worlds_, world_words_));
}

ReliabilityIndex::ReliabilityIndex(const WorldBank& bank,
                                   const Options& options,
                                   std::vector<uint64_t> labels)
    : bank_(&bank),
      options_(options),
      num_nodes_(bank.universe().num_nodes()),
      num_worlds_(bank.num_worlds()),
      world_words_(bank.world_words()),
      label_bits_(bank.universe().directed()
                      ? 0
                      : LabelBits(bank.universe().num_nodes())),
      directed_(bank.universe().directed()),
      labels_(std::move(labels)) {
  RELMAX_CHECK(Fits(bank.universe(), num_worlds_, options_));
  RELMAX_CHECK(labels_.size() == static_cast<size_t>(num_nodes_) *
                                     label_bits_ * world_words_);
}

std::unique_ptr<ReliabilityIndex> ReliabilityIndex::Clone() const {
  return std::make_unique<ReliabilityIndex>(*bank_, options_, labels_);
}

void ReliabilityIndex::RelabelWorlds(const std::vector<uint64_t>& mask) {
  // One shard per 64-world word: a shard writes only bit-word `word` of every
  // plane row, so shards are race-free, and per-world labels are a pure
  // function of the bank bits — bit-identical for any num_threads.
  ForEachShard(
      world_words_, options_.num_threads,
      [] { return std::make_unique<LabelScratch>(); },
      [&](std::unique_ptr<LabelScratch>& scratch, size_t word) {
        if (mask[word] != 0) RelabelWord(*scratch, word, mask[word]);
      },
      [](std::unique_ptr<LabelScratch>&) {});
}

void ReliabilityIndex::RelabelWord(LabelScratch& s, size_t word,
                                   uint64_t mask_word) {
  const size_t num_rows = static_cast<size_t>(num_nodes_) * label_bits_;
  const std::vector<Edge>& edges = bank_->universe().EdgesById();
  const size_t num_edges = bank_->num_edges();
  // Clear the affected worlds' columns; other worlds keep their bits.
  const uint64_t keep = ~mask_word;
  for (size_t row = 0; row < num_rows; ++row) {
    labels_[row * world_words_ + word] &= keep;
  }
  s.up_words.resize(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    s.up_words[e] = bank_->EdgeUpWorlds(static_cast<EdgeId>(e))[word];
  }
  for (int bit = 0; bit < 64; ++bit) {
    if (((mask_word >> bit) & 1) == 0) continue;
    if (static_cast<int>(word * 64) + bit >= num_worlds_) break;
    const uint64_t world_bit = uint64_t{1} << bit;
    // Exact connected components: union-find over the world's up edges.
    // Uniting roots as parent[max] = min keeps every root the smallest node
    // of its component, so Find(v) is v's canonical label.
    s.parent.resize(num_nodes_);
    for (NodeId v = 0; v < num_nodes_; ++v) s.parent[v] = v;
    for (size_t e = 0; e < num_edges; ++e) {
      if ((s.up_words[e] & world_bit) == 0) continue;
      const NodeId a = Find(s.parent, edges[e].src);
      const NodeId b = Find(s.parent, edges[e].dst);
      if (a != b) s.parent[std::max(a, b)] = std::min(a, b);
    }
    for (NodeId v = 0; v < num_nodes_; ++v) {
      // Set bit `world_bit` of word `word` in v's planes for its label.
      const NodeId label = Find(s.parent, v);
      uint64_t* base = labels_.data() +
                       static_cast<size_t>(v) * label_bits_ * world_words_ +
                       word;
      for (int b = 0; b < label_bits_; ++b) {
        if ((label >> b) & 1) {
          base[static_cast<size_t>(b) * world_words_] |= world_bit;
        }
      }
    }
  }
}

void ReliabilityIndex::MergeWord(size_t word, NodeId a, NodeId b,
                                 uint64_t worlds) {
  // Labels are below num_nodes_ < 2^32, so at most 32 planes.
  constexpr int kMaxBits = 32;
  const size_t stride = world_words_;
  const size_t node_words = static_cast<size_t>(label_bits_) * stride;
  uint64_t la[kMaxBits] = {};
  uint64_t lb[kMaxBits] = {};
  uint64_t lo[kMaxBits] = {};
  const uint64_t* const pa = labels_.data() + a * node_words + word;
  const uint64_t* const pb = labels_.data() + b * node_words + word;
  uint64_t differ = 0;
  for (int k = 0; k < label_bits_; ++k) {
    la[k] = pa[k * stride];
    lb[k] = pb[k * stride];
    differ |= la[k] ^ lb[k];
  }
  worlds &= differ;  // worlds where a and b are already connected keep theirs
  if (worlds == 0) return;
  // La < Lb per world, decided at the top plane where the labels differ.
  uint64_t lt = 0;
  uint64_t undecided = ~uint64_t{0};
  for (int k = label_bits_ - 1; k >= 0; --k) {
    lt |= undecided & ~la[k] & lb[k];
    undecided &= ~(la[k] ^ lb[k]);
  }
  for (int k = 0; k < label_bits_; ++k) lo[k] = (la[k] & lt) | (lb[k] & ~lt);
  uint64_t* row = labels_.data() + word;
  for (NodeId v = 0; v < num_nodes_; ++v, row += node_words) {
    uint64_t not_a = 0;
    uint64_t not_b = 0;
    for (int k = 0; k < label_bits_; ++k) {
      not_a |= row[k * stride] ^ la[k];
      not_b |= row[k * stride] ^ lb[k];
    }
    const uint64_t hit = worlds & ~(not_a & not_b);
    if (hit == 0) continue;
    for (int k = 0; k < label_bits_; ++k) {
      row[k * stride] = (row[k * stride] & ~hit) | (lo[k] & hit);
    }
  }
}

size_t ReliabilityIndex::ReachMatrixBytes() const {
  const size_t stride = bank_->lane_blocks() * bitlane::kLaneWords;
  return static_cast<size_t>(num_nodes_) * stride * sizeof(uint64_t);
}

std::vector<ReliabilityIndex::ReachMatrix> ReliabilityIndex::FloodSources(
    const std::vector<NodeId>& sources) const {
  std::vector<std::shared_ptr<bitlane::BitMatrix>> fresh;
  fresh.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    // Mapped: an evicted matrix's pages go back to the OS, not to the
    // arena of whichever thread dropped the last reference.
    fresh.push_back(
        std::make_shared<bitlane::BitMatrix>(bitlane::BitMatrix::Mapped()));
    fresh.back()->EnsureShape(num_nodes_, world_words_);
  }
  // Each shard copies its range's columns into its source's matrix: shards
  // write disjoint words, and the pad words stay zero.
  bank_->FloodSources(
      sources, options_.num_threads,
      [&](size_t i, size_t, size_t first_word,
          const bitlane::BitMatrix& reach) {
        bitlane::BitMatrix& whole = *fresh[i];
        for (NodeId v = 0; v < num_nodes_; ++v) {
          std::copy_n(reach.row(v), reach.words(), whole.row(v) + first_word);
        }
      });
  return {fresh.begin(), fresh.end()};
}

void ReliabilityIndex::CacheReach(NodeId s, const ReachMatrix& reach) const {
  ++stats_.reach_floods;
  if (!reach_cache_.emplace(s, reach).second) return;  // raced: same bits
  reach_order_.push_back(s);
  const size_t matrix_bytes = ReachMatrixBytes();
  reach_bytes_ += matrix_bytes;
  // FIFO eviction under the byte cap (all matrices have one shape). A matrix
  // over the whole cap goes too; the caller's reference keeps it alive.
  while (reach_bytes_ > options_.max_reach_bytes) {
    reach_cache_.erase(reach_order_.front());
    reach_bytes_ -= matrix_bytes;
    reach_order_.pop_front();
    ++stats_.reach_row_evictions;
  }
  stats_.reach_rows_cached = reach_cache_.size();
}

ReliabilityIndex::ReachMatrix ReliabilityIndex::SourceReach(NodeId s) const {
  {
    std::lock_guard<std::mutex> lock(reach_mu_);
    const auto it = reach_cache_.find(s);
    if (it != reach_cache_.end()) return it->second;
  }
  ReachMatrix reach = std::move(FloodSources({s}).front());
  std::lock_guard<std::mutex> lock(reach_mu_);
  CacheReach(s, reach);
  return reach;
}

std::vector<double> ReliabilityIndex::QueryBatch(
    std::span<const NodeId> sources, std::span<const NodeId> targets) const {
  RELMAX_CHECK(sources.size() == targets.size());
  std::vector<double> values(sources.size());
  if (!directed_) {
    for (size_t i = 0; i < sources.size(); ++i) {
      values[i] = Query(sources[i], targets[i]);
    }
    return values;
  }
  const size_t matrix_bytes = ReachMatrixBytes();
  std::vector<ReachMatrix> reach_of(sources.size());
  for (size_t begin = 0; begin < sources.size();) {
    // Plan one run under the lock by replaying, pair by pair, what Query()
    // would do to the cache: a cached source is captured as a hit; a cold
    // one joins `cold`, is inserted into the simulated FIFO and may evict
    // an earlier entry there (a later pair from an evicted source is cold
    // again). Every pair's matrix is fixed here, so the cache may change
    // under the floods without changing an answer.
    std::vector<NodeId> cold;
    std::vector<size_t> cold_pairs;  // pairs to fill from cold's floods
    std::unordered_map<NodeId, size_t> cold_slot;
    size_t end = begin;
    {
      std::lock_guard<std::mutex> lock(reach_mu_);
      std::deque<NodeId> order = reach_order_;
      std::unordered_set<NodeId> evicted;
      size_t bytes = reach_bytes_;
      for (; end < sources.size(); ++end) {
        const NodeId s = sources[end];
        const bool live = evicted.count(s) == 0;
        if (live && cold_slot.count(s) != 0) {
          cold_pairs.push_back(end);
          continue;
        }
        if (live) {
          const auto it = reach_cache_.find(s);
          if (it != reach_cache_.end()) {
            reach_of[end] = it->second;
            continue;
          }
        }
        if (cold_slot.count(s) != 0) break;  // would flood s twice
        if (!cold.empty() && (cold.size() + 1) * matrix_bytes >
                                 options_.max_reach_bytes) {
          break;  // the run's fresh matrices are at the cap
        }
        cold_slot.emplace(s, cold.size());
        cold.push_back(s);
        cold_pairs.push_back(end);
        evicted.erase(s);
        order.push_back(s);
        bytes += matrix_bytes;
        while (bytes > options_.max_reach_bytes) {
          evicted.insert(order.front());
          order.pop_front();
          bytes -= matrix_bytes;
        }
      }
    }
    if (!cold.empty()) {
      const std::vector<ReachMatrix> fresh = FloodSources(cold);
      {
        std::lock_guard<std::mutex> lock(reach_mu_);
        for (size_t i = 0; i < cold.size(); ++i) CacheReach(cold[i], fresh[i]);
      }
      for (size_t idx : cold_pairs) {
        reach_of[idx] = fresh[cold_slot.at(sources[idx])];
      }
    }
    for (size_t idx = begin; idx < end; ++idx) {
      values[idx] = static_cast<double>(WorldBank::CountBits(
                        reach_of[idx]->row_span(targets[idx]),
                        static_cast<size_t>(num_worlds_))) /
                    num_worlds_;
      reach_of[idx].reset();
    }
    begin = end;
  }
  return values;
}

size_t ReliabilityIndex::reach_cache_bytes() const {
  std::lock_guard<std::mutex> lock(reach_mu_);
  return reach_bytes_;
}

ReliabilityIndex::Stats ReliabilityIndex::stats() const {
  std::lock_guard<std::mutex> lock(reach_mu_);
  return stats_;
}

std::vector<uint64_t> ReliabilityIndex::ConnectedWorlds(NodeId s,
                                                        NodeId t) const {
  RELMAX_CHECK(s < num_nodes_ && t < num_nodes_);
  if (directed_) {
    // The flood seeds s in every world, so row s is all worlds for s == t.
    const ReachMatrix reach = SourceReach(s);
    const std::span<const uint64_t> row = reach->row_span(t);
    return std::vector<uint64_t>(row.begin(), row.end());
  }
  // ~OR_b(plane_b(s) XOR plane_b(t)), tail-masked: the worlds where s and t
  // carry equal component labels.
  std::vector<uint64_t> diff(world_words_, 0);
  const uint64_t* s_planes =
      labels_.data() + static_cast<size_t>(s) * label_bits_ * world_words_;
  const uint64_t* t_planes =
      labels_.data() + static_cast<size_t>(t) * label_bits_ * world_words_;
  for (int b = 0; b < label_bits_; ++b) {
    const uint64_t* sp = s_planes + static_cast<size_t>(b) * world_words_;
    const uint64_t* tp = t_planes + static_cast<size_t>(b) * world_words_;
    for (size_t w = 0; w < world_words_; ++w) diff[w] |= sp[w] ^ tp[w];
  }
  std::vector<uint64_t> eq = AllWorlds(num_worlds_, world_words_);
  for (size_t w = 0; w < world_words_; ++w) eq[w] &= ~diff[w];
  return eq;
}

double ReliabilityIndex::Query(NodeId s, NodeId t) const {
  RELMAX_CHECK(s < num_nodes_ && t < num_nodes_);
  int64_t count = 0;
  if (directed_) {
    count = WorldBank::CountBits(SourceReach(s)->row_span(t),
                                 static_cast<size_t>(num_worlds_));
  } else {
    // ConnectedWorlds' ~OR_b(plane_b(s) XOR plane_b(t)), counted word by
    // word; the last word's tail worlds are masked out.
    const uint64_t* const sp =
        labels_.data() + static_cast<size_t>(s) * label_bits_ * world_words_;
    const uint64_t* const tp =
        labels_.data() + static_cast<size_t>(t) * label_bits_ * world_words_;
    for (size_t w = 0; w < world_words_; ++w) {
      uint64_t diff = 0;
      for (int b = 0; b < label_bits_; ++b) {
        const size_t at = static_cast<size_t>(b) * world_words_ + w;
        diff |= sp[at] ^ tp[at];
      }
      uint64_t equal = ~diff;
      if (w + 1 == world_words_ && (num_worlds_ & 63) != 0) {
        equal &= (uint64_t{1} << (num_worlds_ & 63)) - 1;
      }
      count += __builtin_popcountll(equal);
    }
  }
  return static_cast<double>(count) / num_worlds_;
}

void ReliabilityIndex::ApplyBankUpdate(const WorldBank& fresh,
                                       const WorldBank::Delta& delta) {
  RELMAX_CHECK(fresh.num_worlds() == num_worlds_);
  RELMAX_CHECK(fresh.universe().num_nodes() == num_nodes_);
  RELMAX_CHECK(fresh.universe().directed() == directed_);
  RELMAX_CHECK(delta.changed.size() == world_words_);
  RELMAX_CHECK(delta.lost.size() == world_words_);
  const WorldBank& prev = *bank_;
  bank_ = &fresh;
  // Reach rows mix affected and unaffected worlds in one flood; rebuild them
  // lazily rather than patching. The reach counters reset with the cache —
  // they describe the cache since its last drop (see Stats) — so incremental
  // stats stay comparable to a fresh build's instead of over-counting floods
  // that served the pre-update bank.
  reach_cache_.clear();
  reach_order_.clear();
  reach_bytes_ = 0;
  stats_.reach_rows_cached = 0;
  stats_.reach_floods = 0;
  stats_.reach_row_evictions = 0;
  // A directed index holds no labels: nothing to relabel.
  const size_t worlds =
      directed_ ? 0
                : static_cast<size_t>(WorldBank::CountBits(
                      delta.changed, static_cast<size_t>(num_worlds_)));
  ++stats_.incremental_updates;
  stats_.last_update_worlds = worlds;
  stats_.worlds_relabeled += worlds;
  if (worlds == 0) return;
  const std::vector<Edge>& edges = fresh.universe().EdgesById();
  const size_t prev_rows = prev.num_edges();
  // Per 64-world word, as RelabelWorlds: lost worlds are relabeled from the
  // fresh bank, and every other changed world merges the endpoints of each
  // edge newly up in it. Merges run in redrawn-row order, but min-id labels
  // make the result that of a fresh build in any order.
  ForEachShard(
      world_words_, options_.num_threads,
      [] { return std::make_unique<LabelScratch>(); },
      [&](std::unique_ptr<LabelScratch>& scratch, size_t word) {
        const uint64_t lost = delta.lost[word];
        const uint64_t gained = delta.changed[word] & ~lost;
        if (lost != 0) RelabelWord(*scratch, word, lost);
        if (gained == 0) return;
        for (EdgeId e : delta.redrawn) {
          const uint64_t before =
              e < prev_rows ? prev.EdgeUpWorlds(e)[word] : 0;
          const uint64_t up = fresh.EdgeUpWorlds(e)[word] & ~before & gained;
          if (up != 0) MergeWord(word, edges[e].src, edges[e].dst, up);
        }
      },
      [](std::unique_ptr<LabelScratch>&) {});
}

}  // namespace relmax
