#include "index/reliability_index.h"

#include <algorithm>
#include <memory>
#include <span>

#include "common/logging.h"
#include "sampling/parallel.h"

namespace relmax {
namespace {

NodeId Find(std::vector<NodeId>& parent, NodeId v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];  // path halving
    v = parent[v];
  }
  return v;
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

int ReliabilityIndex::LabelBits(const UncertainGraph& g) {
  int bits = 0;
  if (!g.directed() && g.num_nodes() > 1) {
    const NodeId max_label = g.num_nodes() - 1;
    while ((max_label >> bits) != 0) ++bits;
  }
  return bits;
}

size_t ReliabilityIndex::LabelBytes(const UncertainGraph& g, int num_samples) {
  const size_t world_words = (static_cast<size_t>(num_samples) + 63) / 64;
  return static_cast<size_t>(g.num_nodes()) * LabelBits(g) * world_words *
         sizeof(uint64_t);
}

bool ReliabilityIndex::Fits(const UncertainGraph& g, int num_samples,
                            const Options& options) {
  return LabelBytes(g, num_samples) <= options.max_label_bytes;
}

ReliabilityIndex::ReliabilityIndex(const WorldBank& bank,
                                   const Options& options)
    : ReliabilityIndex(bank, options,
                       std::vector<uint64_t>(
                           LabelBytes(bank.universe(), bank.num_worlds()) /
                           sizeof(uint64_t))) {
  ++stats_.builds;
  if (directed_) return;  // no labels to build
  stats_.worlds_relabeled += static_cast<size_t>(num_worlds_);
  RelabelWorlds(bank.WorldsWithAllEdges({}));  // every world
}

ReliabilityIndex::ReliabilityIndex(const WorldBank& bank,
                                   const Options& options,
                                   std::vector<uint64_t> labels)
    : bank_(&bank),
      options_(options),
      num_nodes_(bank.universe().num_nodes()),
      num_worlds_(bank.num_worlds()),
      world_words_(bank.world_words()),
      label_bits_(LabelBits(bank.universe())),
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

std::vector<std::vector<uint32_t>> ReliabilityIndex::CountReach(
    const std::vector<NodeId>& sources) const {
  const size_t n = num_nodes_;
  const size_t ranges =
      bank_->FloodRanges(sources.size(), options_.num_threads);
  // Shard (i, r) writes only its own partial: range r's count of every node
  // for source i. Integer sums over the ranges are the whole rows' counts,
  // so any split and any num_threads give the same rows.
  std::vector<uint32_t> partials(sources.size() * ranges * n);
  bank_->FloodSources(
      sources, options_.num_threads,
      [&](size_t i, size_t r, size_t, const bitlane::BitMatrix& reach) {
        uint32_t* const partial = partials.data() + (i * ranges + r) * n;
        for (size_t v = 0; v < n; ++v) {
          partial[v] = static_cast<uint32_t>(
              WorldBank::CountBits(reach.row_span(v), 64 * reach.words()));
        }
      });
  std::vector<std::vector<uint32_t>> rows(sources.size(),
                                          std::vector<uint32_t>(n, 0));
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t r = 0; r < ranges; ++r) {
      const uint32_t* const partial = partials.data() + (i * ranges + r) * n;
      for (size_t v = 0; v < n; ++v) rows[i][v] += partial[v];
    }
  }
  return rows;
}

void ReliabilityIndex::CacheRow(NodeId s, std::vector<uint32_t> row) const {
  ++stats_.reach_floods;
  if (!reach_rows_.emplace(s, std::move(row)).second) return;  // raced
  reach_order_.push_back(s);
  // FIFO eviction under the byte cap (all rows have one size); a row over
  // the whole cap goes too.
  while (reach_rows_.size() * RowBytes() > options_.max_reach_bytes) {
    reach_rows_.erase(reach_order_.front());
    reach_order_.pop_front();
    ++stats_.reach_row_evictions;
  }
  stats_.reach_rows_cached = reach_rows_.size();
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
  const auto fraction = [&](uint32_t count) {
    return static_cast<double>(count) / num_worlds_;
  };
  // Cached sources answer by lookup here; every other source is taken once,
  // in first-appearance order, with the pairs its row will answer.
  std::vector<NodeId> cold;
  std::vector<std::vector<size_t>> pairs_of_cold;
  {
    std::unordered_map<NodeId, size_t> cold_slot;
    std::lock_guard<std::mutex> lock(reach_mu_);
    for (size_t i = 0; i < sources.size(); ++i) {
      RELMAX_CHECK(sources[i] < num_nodes_ && targets[i] < num_nodes_);
      const auto row = reach_rows_.find(sources[i]);
      if (row != reach_rows_.end()) {
        values[i] = fraction(row->second[targets[i]]);
        continue;
      }
      const auto [slot, inserted] = cold_slot.emplace(sources[i], cold.size());
      if (inserted) {
        cold.push_back(sources[i]);
        pairs_of_cold.emplace_back();
      }
      pairs_of_cold[slot->second].push_back(i);
    }
  }
  // Runs of cold sources whose fresh rows fit the cap, at least one each.
  const size_t run = std::max<size_t>(1, options_.max_reach_bytes / RowBytes());
  for (size_t begin = 0; begin < cold.size(); begin += run) {
    const size_t end = std::min(begin + run, cold.size());
    const std::vector<NodeId> run_sources(cold.begin() + begin,
                                          cold.begin() + end);
    std::vector<std::vector<uint32_t>> rows = CountReach(run_sources);
    for (size_t i = begin; i < end; ++i) {
      for (size_t idx : pairs_of_cold[i]) {
        values[idx] = fraction(rows[i - begin][targets[idx]]);
      }
    }
    std::lock_guard<std::mutex> lock(reach_mu_);
    for (size_t i = begin; i < end; ++i) {
      CacheRow(cold[i], std::move(rows[i - begin]));
    }
  }
  return values;
}

size_t ReliabilityIndex::reach_cache_bytes() const {
  std::lock_guard<std::mutex> lock(reach_mu_);
  return reach_rows_.size() * RowBytes();
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
    bitlane::BitMatrix reach;
    bank_->ReachabilityFixpoint(s, /*backward=*/false, bank_->AllEdges(),
                                &reach);
    const std::span<const uint64_t> row = reach.row_span(t);
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
  for (uint64_t& word : diff) word = ~word;
  diff.back() &= WorldBank::TailMask(num_worlds_);
  return diff;
}

double ReliabilityIndex::Query(NodeId s, NodeId t) const {
  if (directed_) return QueryBatch({&s, 1}, {&t, 1}).front();
  RELMAX_CHECK(s < num_nodes_ && t < num_nodes_);
  // ConnectedWorlds' ~OR_b(plane_b(s) XOR plane_b(t)), counted word by word;
  // the last word's tail worlds are masked out.
  const uint64_t* const sp =
      labels_.data() + static_cast<size_t>(s) * label_bits_ * world_words_;
  const uint64_t* const tp =
      labels_.data() + static_cast<size_t>(t) * label_bits_ * world_words_;
  int64_t count = 0;
  for (size_t w = 0; w < world_words_; ++w) {
    uint64_t diff = 0;
    for (int b = 0; b < label_bits_; ++b) {
      const size_t at = static_cast<size_t>(b) * world_words_ + w;
      diff |= sp[at] ^ tp[at];
    }
    uint64_t equal = ~diff;
    if (w + 1 == world_words_) equal &= WorldBank::TailMask(num_worlds_);
    count += __builtin_popcountll(equal);
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
  // Count rows mix affected and unaffected worlds in one flood; rebuild them
  // lazily rather than patching. The reach counters reset with the cache —
  // they describe the cache since its last drop (see Stats) — so incremental
  // stats stay comparable to a fresh build's instead of over-counting floods
  // that served the pre-update bank.
  reach_rows_.clear();
  reach_order_.clear();
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
