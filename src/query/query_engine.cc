#include "query/query_engine.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "common/memory.h"
#include "common/timer.h"
#include "core/evaluate.h"
#include "sampling/parallel.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"

namespace relmax {

namespace {

// Engines of successive serve epochs share one index file: their saves must
// not interleave in its one temp path.
std::mutex index_file_save_mu;

}  // namespace

QueryEngine::QueryEngine(const UncertainGraph& g,
                         const QueryEngineOptions& options)
    : graph_(g), options_(options), graph_version_(g.version()) {
  RELMAX_CHECK(options_.num_samples > 0);
}

QueryEngine::QueryEngine(const UncertainGraph& g, const QueryEngine& prev)
    : QueryEngine(g, prev.options_) {
  std::shared_ptr<const WorldBank> old_bank;
  const ReliabilityIndex* old_index;
  {
    std::lock_guard<std::mutex> lock(prev.build_mu_);
    old_bank = prev.bank_;
    old_index = prev.index_.get();
    indexed_nodes_ = prev.indexed_nodes_;
    indexed_endpoints_ = prev.indexed_endpoints_;
    index_io_stats_ = prev.index_io_stats_;
  }
  Advance(old_bank.get(),
          old_index != nullptr ? old_index->Clone() : nullptr);
}

WorldBank::Options QueryEngine::WorldOptions() const {
  return {.num_samples = options_.num_samples,
          .seed = options_.seed,
          .num_threads = options_.num_threads};
}

void QueryEngine::SyncWithGraph() {
  if (graph_.version() == graph_version_) return;
  graph_version_ = graph_.version();
  // No lock: the graph mutates only while no Answer() runs. Memoized answers
  // depend on edge probabilities: always stale.
  cache_.clear();
  cache_order_.clear();
  // The index reads the old bank, which may read the mapped file.
  const MappedFile old_mapping = std::move(index_mapping_);
  const std::shared_ptr<const WorldBank> old_bank = std::move(bank_);
  Advance(old_bank.get(), std::move(index_));
}

void QueryEngine::Advance(const WorldBank* old_bank,
                          std::unique_ptr<ReliabilityIndex> index) {
  if (old_bank == nullptr || !UseFlatBank()) return;
  WorldBank::Delta delta;
  auto fresh = std::make_shared<const WorldBank>(*old_bank, graph_,
                                                 WorldOptions(), &delta);
  if (index != nullptr && UseIndex() && GraphExtendsIndexedShape()) {
    index->ApplyBankUpdate(*fresh, delta);
  } else {
    index.reset();
  }
  AdoptBank(std::move(fresh));
  index_ = std::move(index);
  if (index_ != nullptr && !options_.index_file.empty()) SaveIndexFile();
}

void QueryEngine::AdoptBank(std::shared_ptr<const WorldBank> bank) {
  bank_ = std::move(bank);
  indexed_nodes_ = graph_.num_nodes();
  indexed_endpoints_.clear();
  for (const Edge& e : graph_.EdgesById()) {
    indexed_endpoints_.emplace_back(e.src, e.dst);
  }
}

void QueryEngine::EnsureBuilt(bool with_index) {
  std::lock_guard<std::mutex> lock(build_mu_);
  // Load-else-build-and-save: a valid file for this (graph, options) key
  // adopts the mmap-ed bank and labels with no sampling or relabeling.
  if (with_index && index_ == nullptr && !options_.index_file.empty()) {
    TryLoadIndexFile();
  }
  if (bank_ == nullptr) {
    AdoptBank(std::make_shared<const WorldBank>(graph_, WorldOptions()));
  }
  if (with_index && index_ == nullptr) {
    ReliabilityIndex::Options index_options = options_.index;
    index_options.num_threads = options_.num_threads;
    index_ = std::make_unique<ReliabilityIndex>(*bank_, index_options);
    if (!options_.index_file.empty()) SaveIndexFile();
  }
}

size_t QueryEngine::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

size_t QueryEngine::cache_evictions() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_evictions_;
}

bool QueryEngine::GraphExtendsIndexedShape() const {
  if (graph_.num_nodes() != indexed_nodes_) return false;
  const std::vector<Edge>& edges = graph_.EdgesById();
  if (edges.size() < indexed_endpoints_.size()) return false;
  for (size_t e = 0; e < indexed_endpoints_.size(); ++e) {
    if (edges[e].src != indexed_endpoints_[e].first ||
        edges[e].dst != indexed_endpoints_[e].second) {
      return false;
    }
  }
  return true;
}

bool QueryEngine::UseSharedWorlds() const {
  return options_.reuse_worlds &&
         options_.estimator == Estimator::kMonteCarlo;
}

size_t QueryEngine::WorldRows() const {
  return graph_.num_edges() +
         static_cast<size_t>(ResolveNumThreads(options_.num_threads)) *
             graph_.num_nodes();
}

bool QueryEngine::UseFlatBank() const {
  return UseSharedWorlds() && BankBytes(WorldRows(), options_.num_samples) <=
                                  options_.max_bank_bytes;
}

bool QueryEngine::UseIndex() const {
  return (options_.use_index || !options_.index_file.empty()) &&
         UseFlatBank() &&
         ReliabilityIndex::Fits(graph_, options_.num_samples, options_.index);
}

void QueryEngine::TryLoadIndexFile() {
  ReliabilityIndex::Options index_options = options_.index;
  index_options.num_threads = options_.num_threads;
  StatusOr<LoadedIndex> loaded =
      LoadIndex(options_.index_file, graph_, WorldOptions(), index_options);
  if (!loaded.ok()) {
    if (loaded.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr,
                   "relmax: query engine: index file load failed (%s); "
                   "rebuilding the index from scratch\n",
                   loaded.status().ToString().c_str());
      ++index_io_stats_.load_failures;
    }
    return;
  }
  LoadedIndex li = std::move(loaded).value();
  index_ = std::move(li.index);
  AdoptBank(std::move(li.bank));
  index_mapping_ = std::move(li.mapping);
  ++index_io_stats_.loads;
  index_io_stats_.generation = li.generation;
  index_io_stats_.file_bytes = li.file_bytes;
}

void QueryEngine::SaveIndexFile() {
  RELMAX_DCHECK(bank_ != nullptr && index_ != nullptr);
  std::lock_guard<std::mutex> lock(index_file_save_mu);
  const uint64_t generation = index_io_stats_.generation + 1;
  const StatusOr<size_t> saved = SaveIndex(*bank_, *index_, WorldOptions(),
                                           generation, options_.index_file);
  if (!saved.ok()) {
    std::fprintf(stderr,
                 "relmax: query engine: index file save failed (%s); "
                 "continuing without persistence\n",
                 saved.status().ToString().c_str());
    return;
  }
  ++index_io_stats_.saves;
  index_io_stats_.generation = generation;
  index_io_stats_.file_bytes = *saved;
}

void QueryEngine::ResolvePairs(const std::vector<StQuery>& pairs,
                               std::unordered_map<uint64_t, double>* resolved,
                               BatchStats* stats) {
  if (pairs.empty()) return;
  if (!UseSharedWorlds()) {
    // Per-query path: each pair is estimated independently, exactly the
    // single-query public API under the same (Z, seed, threads).
    if (options_.estimator == Estimator::kRss) {
      RssOptions rss = options_.rss;
      rss.num_samples = options_.num_samples;
      rss.seed = options_.seed;
      rss.num_threads = options_.num_threads;
      for (const StQuery& q : pairs) {
        (*resolved)[PairKey(q.s, q.t)] =
            EstimateReliabilityRss(graph_, q.s, q.t, rss);
      }
    } else {
      const SampleOptions mc{.num_samples = options_.num_samples,
                             .seed = options_.seed,
                             .num_threads = options_.num_threads};
      for (const StQuery& q : pairs) {
        (*resolved)[PairKey(q.s, q.t)] =
            EstimateReliability(graph_, q.s, q.t, mc);
      }
    }
    stats->fallback_estimates += pairs.size();
    return;
  }
  stats->bank_bytes = BankBytes(graph_.num_edges(), options_.num_samples);
  const bool flat = UseFlatBank();
  if (flat) EnsureBuilt(/*with_index=*/UseIndex());
  if (UseIndex()) {
    // Every answer is a label-plane popcount (undirected) or a reach count
    // (directed, each cold source flooded once per batch); both
    // are pure functions of the bank bits, so batch order and thread count
    // cannot matter.
    std::vector<NodeId> sources;
    std::vector<NodeId> targets;
    sources.reserve(pairs.size());
    targets.reserve(pairs.size());
    for (const StQuery& q : pairs) {
      sources.push_back(q.s);
      targets.push_back(q.t);
    }
    const std::vector<double> values = index_->QueryBatch(sources, targets);
    for (size_t i = 0; i < pairs.size(); ++i) {
      (*resolved)[PairKey(pairs[i].s, pairs[i].t)] = values[i];
    }
    stats->index_answers += pairs.size();
    return;
  }
  // Group pair indices by source (first-appearance order, so the flood
  // schedule is a pure function of the deduplicated pair list). Every count
  // below depends only on (bank bits, source, target); the bank is
  // thread-invariant by construction, so slot writes by pair index keep the
  // whole batch bit-identical for any num_threads.
  std::unordered_map<NodeId, size_t> source_slot;
  std::vector<NodeId> sources;
  std::vector<std::vector<size_t>> pairs_of_source;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [it, inserted] =
        source_slot.emplace(pairs[i].s, sources.size());
    if (inserted) {
      sources.push_back(pairs[i].s);
      pairs_of_source.emplace_back();
    }
    pairs_of_source[it->second].push_back(i);
  }
  // Each (source, world range) shard writes the integer popcounts of its
  // range into its own (pair, range) slots; summed per pair they are the
  // whole rows' popcounts, so any split and any num_threads give the same
  // counts. Worlds over the budget stream in runs of lane blocks that fit:
  // a run draws its words from their global seeds, so the runs' counts sum
  // to the flat bank's.
  const size_t blocks = WorldBank::LaneBlocks(options_.num_samples);
  const size_t run =
      flat ? blocks
           : WorldBank::BlocksWithin(WorldRows(), options_.max_bank_bytes);
  std::vector<int64_t> counts(pairs.size());
  for (size_t first = 0; first < blocks; first += run) {
    std::optional<WorldBank> streamed;
    if (!flat) streamed.emplace(graph_, WorldOptions(), first, run);
    const WorldBank& bank = flat ? *bank_ : *streamed;
    const size_t ranges =
        bank.FloodRanges(sources.size(), options_.num_threads);
    std::vector<int64_t> partial(pairs.size() * ranges);
    bank.FloodSources(
        sources, options_.num_threads,
        [&](size_t i, size_t range, size_t, const bitlane::BitMatrix& reach) {
          for (size_t idx : pairs_of_source[i]) {
            partial[idx * ranges + range] = WorldBank::CountBits(
                reach.row_span(pairs[idx].t), 64 * reach.words());
          }
        });
    for (size_t idx = 0; idx < pairs.size(); ++idx) {
      for (size_t r = 0; r < ranges; ++r) {
        counts[idx] += partial[idx * ranges + r];
      }
    }
  }
  for (size_t idx = 0; idx < pairs.size(); ++idx) {
    (*resolved)[PairKey(pairs[idx].s, pairs[idx].t)] =
        static_cast<double>(counts[idx]) / options_.num_samples;
  }
  stats->floods += sources.size();
}

StatusOr<BatchResult> QueryEngine::Answer(const QuerySet& set) {
  RELMAX_RETURN_IF_ERROR(set.Validate(graph_));
  SyncWithGraph();
  WallTimer timer;
  BatchResult result;
  result.stats.num_queries = set.size();

  // Deduplicate the (s, t) pairs the batch needs, across all query kinds, in
  // first-appearance order. Pairs already memoized are cache hits, copied
  // out under the lock so a concurrent eviction cannot take them away; the
  // rest are `needed` and resolved below.
  std::vector<StQuery> needed;
  std::unordered_map<uint64_t, double> resolved;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto want = [&](NodeId s, NodeId t) {
      const auto [it, inserted] = resolved.emplace(PairKey(s, t), 0.0);
      if (!inserted) return;
      const auto cached = cache_.find(it->first);
      if (cached == cache_.end()) {
        needed.push_back({s, t});
      } else {
        it->second = cached->second;
        ++result.stats.cache_hits;
      }
    };
    for (const StQuery& q : set.st_queries()) want(q.s, q.t);
    for (const AggregateQuery& q : set.aggregate_queries()) {
      for (NodeId s : q.sources) {
        for (NodeId t : q.targets) want(s, t);
      }
    }
    for (const TopKQuery& q : set.top_k_queries()) {
      for (const StQuery& c : q.candidates) want(c.s, c.t);
    }
  }
  result.stats.distinct_pairs = resolved.size();

  ResolvePairs(needed, &resolved, &result.stats);

  const auto value = [&](NodeId s, NodeId t) {
    return resolved.at(PairKey(s, t));
  };

  result.st_values.reserve(set.st_queries().size());
  for (const StQuery& q : set.st_queries()) {
    result.st_values.push_back(value(q.s, q.t));
  }
  for (const AggregateQuery& q : set.aggregate_queries()) {
    std::vector<std::vector<double>> matrix(q.sources.size());
    for (size_t i = 0; i < q.sources.size(); ++i) {
      matrix[i].reserve(q.targets.size());
      for (NodeId t : q.targets) matrix[i].push_back(value(q.sources[i], t));
    }
    result.aggregate_values.push_back(AggregateMatrix(matrix, q.aggregate));
  }
  for (const TopKQuery& q : set.top_k_queries()) {
    std::vector<std::pair<size_t, double>> scored;
    scored.reserve(q.candidates.size());
    for (size_t i = 0; i < q.candidates.size(); ++i) {
      scored.emplace_back(i, value(q.candidates[i].s, q.candidates[i].t));
    }
    // stable_sort keeps candidate order among equal reliabilities, so the
    // ranking is deterministic and documented.
    std::stable_sort(scored.begin(), scored.end(),
                     [](const std::pair<size_t, double>& a,
                        const std::pair<size_t, double>& b) {
                       return a.second > b.second;
                     });
    const size_t k = std::min(static_cast<size_t>(q.k), scored.size());
    scored.resize(k);
    result.top_k.push_back(std::move(scored));
  }

  if (options_.cache_results) {
    // Insert in the deterministic deduplicated `needed` order (never map
    // iteration order), so eviction victims are identical across runs.
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (const StQuery& q : needed) {
      const uint64_t key = PairKey(q.s, q.t);
      if (cache_.emplace(key, resolved.at(key)).second) {
        cache_order_.push_back(key);
      }
    }
    while (cache_.size() > options_.max_cache_entries &&
           !cache_order_.empty()) {
      cache_.erase(cache_order_.front());
      cache_order_.pop_front();
      ++result.stats.cache_evictions;
    }
    cache_evictions_ += result.stats.cache_evictions;
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

StatusOr<double> QueryEngine::EstimateSt(NodeId s, NodeId t) {
  QuerySet set;
  set.AddSt(s, t);
  const StatusOr<BatchResult> result = Answer(set);
  if (!result.ok()) return result.status();
  return result->st_values[0];
}

}  // namespace relmax
