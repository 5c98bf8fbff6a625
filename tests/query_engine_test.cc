// Batch query engine: file-format parsing, validation, shared-world
// amortization, result caching, the determinism contracts (thread and
// batch-composition invariance; per-query fallback exactly equal to the
// single-query public API), successor engines, and concurrent Answer() on
// one shared engine. Carries the `sanitize` CTest label for the latter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/evaluate.h"
#include "graph/uncertain_graph.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "index/reliability_index.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

UncertainGraph RandomGraph(uint64_t seed, NodeId n, double density,
                           bool directed) {
  Rng rng(seed);
  UncertainGraph g =
      directed ? UncertainGraph::Directed(n) : UncertainGraph::Undirected(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (rng.NextBernoulli(density)) {
        EXPECT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.05, 0.95)).ok());
      }
    }
  }
  return g;
}

// ------------------------------------------------------------ QuerySet

TEST(QuerySetTest, ParsesPairsCommentsAndBlankLines) {
  const auto set = QuerySet::Parse(
      "# header comment\n"
      "0 3\n"
      "\n"
      "  2 1   # trailing comment\n"
      "4 4\r\n");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set->st_queries().size(), 3u);
  EXPECT_EQ(set->st_queries()[0], (StQuery{0, 3}));
  EXPECT_EQ(set->st_queries()[1], (StQuery{2, 1}));
  EXPECT_EQ(set->st_queries()[2], (StQuery{4, 4}));
}

TEST(QuerySetTest, RejectsMalformedLines) {
  EXPECT_FALSE(QuerySet::Parse("0\n").ok());
  EXPECT_FALSE(QuerySet::Parse("0 1 2\n").ok());
  EXPECT_FALSE(QuerySet::Parse("a b\n").ok());
  EXPECT_FALSE(QuerySet::Parse("# only comments\n\n").ok());
  EXPECT_FALSE(QuerySet::Parse(std::string("0 1\n\0 2\n", 8)).ok());
  // Ids that do not fit NodeId must fail loudly, not wrap to another node;
  // signs are rejected outright (sscanf would silently wrap "-1").
  EXPECT_FALSE(QuerySet::Parse("4294967296 1\n").ok());
  EXPECT_FALSE(QuerySet::Parse("-1 2\n").ok());
  EXPECT_FALSE(QuerySet::Parse("+1 2\n").ok());
  EXPECT_TRUE(QuerySet::Parse("4294967295 1\n").ok());  // == NodeId max
}

TEST(QuerySetTest, ValidateCatchesBadQueries) {
  const UncertainGraph g = RandomGraph(1, 5, 0.5, true);
  QuerySet out_of_range;
  out_of_range.AddSt(0, 5);
  EXPECT_FALSE(out_of_range.Validate(g).ok());

  QuerySet empty_aggregate;
  empty_aggregate.AddAggregate({{}, {1}, Aggregate::kAverage});
  EXPECT_FALSE(empty_aggregate.Validate(g).ok());

  QuerySet bad_k;
  bad_k.AddTopK({{{0, 1}}, 0});
  EXPECT_FALSE(bad_k.Validate(g).ok());

  QuerySet ok;
  ok.AddSt(0, 4);
  ok.AddAggregate({{0, 1}, {3, 4}, Aggregate::kMinimum});
  ok.AddTopK({{{0, 1}, {0, 2}}, 1});
  EXPECT_TRUE(ok.Validate(g).ok());
}

// --------------------------------------------------------- QueryEngine

QueryEngineOptions EngineOptions(int num_samples = 2000, uint64_t seed = 7) {
  QueryEngineOptions options;
  options.num_samples = num_samples;
  options.seed = seed;
  return options;
}

TEST(QueryEngineTest, PerQueryFallbackEqualsEstimateReliabilityExactly) {
  for (const bool directed : {false, true}) {
    const UncertainGraph g = RandomGraph(11, 12, 0.25, directed);
    QueryEngineOptions options = EngineOptions();
    options.reuse_worlds = false;
    QueryEngine engine(g, options);
    QuerySet set;
    for (NodeId t = 1; t < 8; ++t) set.AddSt(0, t);
    const auto result = engine.Answer(set);
    ASSERT_TRUE(result.ok());
    for (NodeId t = 1; t < 8; ++t) {
      const double expected = EstimateReliability(
          g, 0, t,
          {.num_samples = options.num_samples, .seed = options.seed});
      // Bitwise equality: the fallback IS the single-query public API.
      EXPECT_EQ(result->st_values[t - 1], expected) << "t = " << t;
    }
  }
}

TEST(QueryEngineTest, RssEstimatorEqualsEstimateReliabilityRssExactly) {
  const UncertainGraph g = RandomGraph(13, 10, 0.3, true);
  QueryEngineOptions options = EngineOptions(1000);
  options.estimator = Estimator::kRss;
  QueryEngine engine(g, options);
  QuerySet set;
  set.AddSt(0, 9);
  set.AddSt(1, 8);
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  RssOptions rss = options.rss;
  rss.num_samples = options.num_samples;
  rss.seed = options.seed;
  rss.num_threads = options.num_threads;
  EXPECT_EQ(result->st_values[0], EstimateReliabilityRss(g, 0, 9, rss));
  EXPECT_EQ(result->st_values[1], EstimateReliabilityRss(g, 1, 8, rss));
}

TEST(QueryEngineTest, SharedWorldAnswersAreThreadInvariant) {
  const UncertainGraph g = RandomGraph(17, 20, 0.15, false);
  QuerySet set;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId t = 10; t < 20; ++t) set.AddSt(s, t);
  }
  std::vector<double> reference;
  for (const int threads : {1, 2, 4}) {
    QueryEngineOptions options = EngineOptions();
    options.num_threads = threads;
    QueryEngine engine(g, options);
    const auto result = engine.Answer(set);
    ASSERT_TRUE(result.ok());
    if (reference.empty()) {
      reference = result->st_values;
    } else {
      EXPECT_EQ(result->st_values, reference) << "threads = " << threads;
    }
  }
}

// Windows with one source split its worlds into ranges across the workers
// (the graph is large enough for its floods to be split); windows with many
// sources flood whole rows. Either way the values and the flood count are
// those of one thread.
TEST(QueryEngineTest, RangeShardedFloodsAreThreadInvariant) {
  const UncertainGraph g = RandomGraph(37, 300, 0.05, /*directed=*/true);
  ASSERT_GT(WorldBank(g, {.num_samples = 2000}).FloodRanges(1, 4), 1u);
  QuerySet one_source;
  for (NodeId t = 0; t < 24; ++t) one_source.AddSt(5, t);
  QuerySet many_sources;
  for (NodeId s = 0; s < 24; s += 2) {
    for (NodeId t = 1; t < 24; t += 5) many_sources.AddSt(s, t);
  }
  for (const QuerySet* set : {&one_source, &many_sources}) {
    std::vector<double> reference;
    size_t reference_floods = 0;
    for (const int threads : {1, 2, 4}) {
      QueryEngineOptions options = EngineOptions(2000);
      options.num_threads = threads;
      QueryEngine engine(g, options);
      const auto result = engine.Answer(*set);
      ASSERT_TRUE(result.ok());
      if (threads == 1) {
        reference = result->st_values;
        reference_floods = result->stats.floods;
        continue;
      }
      EXPECT_EQ(result->st_values, reference) << "threads = " << threads;
      EXPECT_EQ(result->stats.floods, reference_floods)
          << "threads = " << threads;
    }
  }
}

// A directed index floods each distinct cold source of a batch once, over
// the (source × range) fan-out, and sums its per-range counts into a count
// row. Its answers equal one-by-one Query() calls and the flood path for any
// thread count and reach cap — one count row (every run is one source split
// over world ranges), roomy (one run of every source) or zero (each row is
// evicted as it is cached) — and the cache never exceeds its cap.
TEST(QueryEngineTest, DirectedIndexFloodsEachColdSourceOncePerBatch) {
  constexpr int kSamples = 2000;
  constexpr NodeId kNodes = 300;
  const UncertainGraph g = RandomGraph(83, kNodes, 0.05, /*directed=*/true);
  ASSERT_GT(WorldBank(g, {.num_samples = kSamples}).FloodRanges(1, 4), 1u);
  // Sources repeat, within and across runs.
  const std::vector<NodeId> sources = {0, 0, 1, 2, 0, 3, 1, 1, 4, 0, 5,
                                       6, 7, 3, 8, 9, 2, 4, 10, 0, 11};
  QuerySet set;
  for (size_t i = 0; i < sources.size(); ++i) {
    set.AddSt(sources[i], static_cast<NodeId>(i % kNodes));
  }
  const size_t distinct_sources = 12;

  QueryEngineOptions flood_options = EngineOptions(kSamples);
  QueryEngine flood_engine(g, flood_options);
  const auto flood = flood_engine.Answer(set);
  ASSERT_TRUE(flood.ok());

  const size_t row_bytes = kNodes * sizeof(uint32_t);
  for (const size_t cap : {row_bytes, size_t{64} << 20, size_t{0}}) {
    const WorldBank bank(g, {.num_samples = kSamples, .seed = 7});
    ReliabilityIndex::Options index_options;
    index_options.max_reach_bytes = cap;
    const ReliabilityIndex one_by_one(bank, index_options);
    std::vector<double> expected;
    for (size_t i = 0; i < sources.size(); ++i) {
      expected.push_back(
          one_by_one.Query(sources[i], static_cast<NodeId>(i % kNodes)));
    }
    EXPECT_EQ(expected, flood->st_values) << "cap " << cap;

    for (const int threads : {1, 2, 4}) {
      QueryEngineOptions options = EngineOptions(kSamples);
      options.use_index = true;
      options.num_threads = threads;
      options.index.max_reach_bytes = cap;
      QueryEngine engine(g, options);
      const auto result = engine.Answer(set);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->st_values, expected)
          << "threads " << threads << " cap " << cap;
      ASSERT_NE(engine.index(), nullptr);
      EXPECT_EQ(engine.index()->stats().reach_floods, distinct_sources)
          << "threads " << threads << " cap " << cap;
      EXPECT_LE(engine.index()->reach_cache_bytes(), cap)
          << "threads " << threads << " cap " << cap;
    }
  }
}

TEST(QueryEngineTest, AnswersAreIndependentOfBatchComposition) {
  const UncertainGraph g = RandomGraph(19, 15, 0.2, true);
  QuerySet batch;
  for (NodeId s = 0; s < 3; ++s) {
    for (NodeId t = 5; t < 15; ++t) batch.AddSt(s, t);
  }
  QueryEngine batched(g, EngineOptions());
  const auto result = batched.Answer(batch);
  ASSERT_TRUE(result.ok());
  size_t i = 0;
  for (NodeId s = 0; s < 3; ++s) {
    for (NodeId t = 5; t < 15; ++t, ++i) {
      // A fresh engine answering only this pair must agree bit-for-bit:
      // every answer is a pure function of (graph, estimator, seed, Z,
      // query), not of what else was in the batch.
      QueryEngine solo(g, EngineOptions());
      EXPECT_EQ(solo.EstimateSt(s, t).value(), result->st_values[i])
          << "(" << s << ", " << t << ")";
    }
  }
}

TEST(QueryEngineTest, SharedWorldAnswersMatchWorldBankFraction) {
  // The shared path is definitionally the WorldBank connected fraction.
  const UncertainGraph g = RandomGraph(23, 10, 0.3, false);
  QueryEngine engine(g, EngineOptions(1280, 3));
  const WorldBank bank(g, {.num_samples = 1280, .seed = 3});
  for (NodeId t = 1; t < 10; ++t) {
    EXPECT_EQ(engine.EstimateSt(0, t).value(),
              bank.ConnectedFraction(0, t, bank.AllEdges(), {}))
        << "t = " << t;
  }
}

TEST(QueryEngineTest, SourceEqualsTargetIsCertain) {
  const UncertainGraph g = RandomGraph(29, 6, 0.3, true);
  for (const bool reuse : {true, false}) {
    QueryEngineOptions options = EngineOptions(128);
    options.reuse_worlds = reuse;
    QueryEngine engine(g, options);
    EXPECT_DOUBLE_EQ(engine.EstimateSt(3, 3).value(), 1.0);
  }
}

TEST(QueryEngineTest, CachesAcrossAnswerCallsUntilGraphMutates) {
  UncertainGraph g = RandomGraph(31, 10, 0.3, false);
  QueryEngine engine(g, EngineOptions(512));
  QuerySet set;
  set.AddSt(0, 9);
  set.AddSt(1, 9);
  set.AddSt(0, 9);  // duplicate inside one batch

  const auto first = engine.Answer(set);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.num_queries, 3u);
  EXPECT_EQ(first->stats.distinct_pairs, 2u);
  EXPECT_EQ(first->stats.cache_hits, 0u);
  EXPECT_EQ(first->stats.floods, 2u);  // two distinct sources
  EXPECT_EQ(engine.cache_size(), 2u);
  EXPECT_EQ(first->st_values[0], first->st_values[2]);

  const auto second = engine.Answer(set);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.cache_hits, 2u);
  EXPECT_EQ(second->stats.floods, 0u);  // fully served from the cache
  EXPECT_EQ(second->st_values, first->st_values);

  // Any graph mutation invalidates the memoized answers wholesale.
  const Edge edge = g.EdgesById()[0];
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, 1.0).ok());
  const auto third = engine.Answer(set);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.cache_hits, 0u);
  EXPECT_EQ(third->stats.floods, 2u);
  EXPECT_EQ(engine.cache_size(), 2u);
}

TEST(QueryEngineTest, CacheCanBeDisabled) {
  const UncertainGraph g = RandomGraph(37, 8, 0.3, true);
  QueryEngineOptions options = EngineOptions(256);
  options.cache_results = false;
  QueryEngine engine(g, options);
  QuerySet set;
  set.AddSt(0, 7);
  ASSERT_TRUE(engine.Answer(set).ok());
  EXPECT_EQ(engine.cache_size(), 0u);
  const auto again = engine.Answer(set);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache_hits, 0u);
}

TEST(QueryEngineTest, AggregateEqualsAggregateOfPairAnswers) {
  const UncertainGraph g = RandomGraph(41, 12, 0.25, false);
  QueryEngine engine(g, EngineOptions());
  const std::vector<NodeId> sources = {0, 1, 2};
  const std::vector<NodeId> targets = {9, 10, 11};
  QuerySet set;
  for (const Aggregate agg :
       {Aggregate::kAverage, Aggregate::kMinimum, Aggregate::kMaximum}) {
    set.AddAggregate({sources, targets, agg});
  }
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  std::vector<std::vector<double>> matrix(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    for (const NodeId t : targets) {
      matrix[i].push_back(engine.EstimateSt(sources[i], t).value());
    }
  }
  EXPECT_EQ(result->aggregate_values[0],
            AggregateMatrix(matrix, Aggregate::kAverage));
  EXPECT_EQ(result->aggregate_values[1],
            AggregateMatrix(matrix, Aggregate::kMinimum));
  EXPECT_EQ(result->aggregate_values[2],
            AggregateMatrix(matrix, Aggregate::kMaximum));
}

TEST(QueryEngineTest, TopKRanksByReliabilityWithStableTies) {
  // Deterministic graph (p ∈ {0, 1}) so the ranking is exact: candidates
  // with equal reliability must keep their list order.
  UncertainGraph g = UncertainGraph::Directed(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 0.0).ok());
  QueryEngine engine(g, EngineOptions(64));
  QuerySet set;
  set.AddTopK({{{0, 3}, {0, 1}, {0, 2}, {0, 4}}, 3});
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->top_k.size(), 1u);
  const auto& ranked = result->top_k[0];
  ASSERT_EQ(ranked.size(), 3u);
  // (0,1) and (0,2) tie at 1.0 and keep candidate order; (0,3) ties (0,4)
  // at 0.0 and precedes it, so rank 3 is candidate index 0.
  EXPECT_EQ(ranked[0].first, 1u);
  EXPECT_DOUBLE_EQ(ranked[0].second, 1.0);
  EXPECT_EQ(ranked[1].first, 2u);
  EXPECT_DOUBLE_EQ(ranked[1].second, 1.0);
  EXPECT_EQ(ranked[2].first, 0u);
  EXPECT_DOUBLE_EQ(ranked[2].second, 0.0);

  // k larger than the candidate list clamps.
  QuerySet big_k;
  big_k.AddTopK({{{0, 1}, {0, 2}}, 10});
  const auto clamped = engine.Answer(big_k);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->top_k[0].size(), 2u);
}

TEST(QueryEngineTest, MixedBatchSharesFloodsAcrossQueryKinds) {
  const UncertainGraph g = RandomGraph(43, 10, 0.3, false);
  QueryEngine engine(g, EngineOptions(512));
  QuerySet set;
  set.AddSt(0, 9);
  set.AddAggregate({{0, 1}, {8, 9}, Aggregate::kAverage});
  set.AddTopK({{{0, 8}, {1, 9}}, 1});
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_queries, 3u);
  // Pairs: (0,9), (0,8), (1,8), (1,9) — 4 distinct over 2 sources.
  EXPECT_EQ(result->stats.distinct_pairs, 4u);
  EXPECT_EQ(result->stats.floods, 2u);
  // The aggregate cells, st answer, and top-k scores reuse the same pair
  // values: the top-1 candidate's score must equal the matching st answer.
  const StQuery& best =
      set.top_k_queries()[0].candidates[result->top_k[0][0].first];
  EXPECT_EQ(result->top_k[0][0].second,
            engine.EstimateSt(best.s, best.t).value());
}

TEST(QueryEngineTest, AnswerRejectsInvalidQueriesWithoutComputing) {
  const UncertainGraph g = RandomGraph(47, 5, 0.4, true);
  QueryEngine engine(g, EngineOptions(64));
  QuerySet set;
  set.AddSt(0, 99);
  EXPECT_FALSE(engine.Answer(set).ok());
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(QueryEngineTest, EstimateStPropagatesValidationErrors) {
  // Out-of-range nodes must surface as a Status, not abort the process
  // (EstimateSt used to RELMAX_CHECK the batch result).
  const UncertainGraph g = RandomGraph(53, 5, 0.4, false);
  QueryEngine engine(g, EngineOptions(64));
  const auto bad_target = engine.EstimateSt(0, 99);
  EXPECT_FALSE(bad_target.ok());
  EXPECT_EQ(bad_target.status().code(), StatusCode::kInvalidArgument);
  const auto bad_source = engine.EstimateSt(99, 0);
  EXPECT_FALSE(bad_source.ok());
  // The engine stays usable after a rejected query.
  EXPECT_DOUBLE_EQ(engine.EstimateSt(0, 0).value(), 1.0);
}

TEST(QueryEngineTest, CacheEvictionKeepsEntryCapAndCountsEvictions) {
  const UncertainGraph g = RandomGraph(59, 12, 0.3, false);
  QueryEngineOptions options = EngineOptions(128);
  options.max_cache_entries = 4;
  QueryEngine engine(g, options);
  QuerySet set;
  for (NodeId t = 1; t < 10; ++t) set.AddSt(0, t);  // 9 distinct pairs
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.cache_evictions, 5u);  // 9 inserted, 4 kept
  EXPECT_EQ(engine.cache_size(), 4u);
  // The survivors are the 5 most recently inserted minus the first one —
  // i.e. pairs (0,6)..(0,9); asking those again is pure cache hits while
  // the evicted ones recompute, and values stay bit-identical either way.
  const auto again = engine.Answer(set);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache_hits, 4u);
  EXPECT_EQ(again->st_values, result->st_values);
  EXPECT_EQ(engine.cache_size(), 4u);
}

TEST(QueryEngineTest, FallbackPathCountsEstimatesNotFloods) {
  const UncertainGraph g = RandomGraph(61, 8, 0.3, true);
  QueryEngineOptions options = EngineOptions(128);
  options.reuse_worlds = false;
  QueryEngine engine(g, options);
  QuerySet set;
  set.AddSt(0, 7);
  set.AddSt(1, 7);
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.fallback_estimates, 2u);
  EXPECT_EQ(result->stats.floods, 0u);  // no shared-world flood ran
  EXPECT_EQ(result->stats.index_answers, 0u);
}

TEST(QueryEngineTest, CappedBankStreamsToTheUncappedBits) {
  // Z = 1100 is 18 words: lane blocks of 8, 8 and a partial 2 with a
  // partial tail word, so runs of one and two blocks both end short.
  constexpr int kSamples = 1100;
  constexpr NodeId kNodes = 14;
  for (const bool directed : {true, false}) {
    const UncertainGraph g = RandomGraph(63, kNodes, 0.2, directed);
    QuerySet set;
    for (NodeId s = 0; s < 4; ++s) {
      for (NodeId t = 6; t < kNodes; ++t) set.AddSt(s, t);
    }
    set.AddAggregate({{0, 1, 2}, {9, 10, 11}, Aggregate::kAverage});
    set.AddAggregate({{3, 5}, {12, 13}, Aggregate::kMinimum});
    set.AddTopK({{{0, 7}, {1, 8}, {4, 9}, {5, 13}, {2, 12}}, 3});

    QueryEngine uncapped(g, EngineOptions(kSamples));
    const auto expected = uncapped.Answer(set);
    ASSERT_TRUE(expected.ok());
    QueryEngineOptions indexed_options = EngineOptions(kSamples);
    indexed_options.use_index = true;
    QueryEngine indexed(g, indexed_options);
    const auto indexed_expected = indexed.Answer(set);
    ASSERT_TRUE(indexed_expected.ok());
    ASSERT_NE(indexed.index(), nullptr);
    EXPECT_EQ(indexed_expected->st_values, expected->st_values);

    for (const int threads : {1, 2, 4}) {
      // One lane block of every resident row: E bank rows plus n flood
      // scratch rows per worker, 512 worlds of 64 bytes each.
      const size_t block = (g.num_edges() + threads * size_t{kNodes}) * 64;
      for (const size_t budget :
           {size_t{1}, block, 2 * block, 3 * block, size_t{256} << 20}) {
        const std::string what = std::string(directed ? "directed" : "undir") +
                                 " threads " + std::to_string(threads) +
                                 " budget " + std::to_string(budget);
        QueryEngineOptions options = EngineOptions(kSamples);
        options.num_threads = threads;
        options.max_bank_bytes = budget;
        QueryEngine engine(g, options);
        const auto result = engine.Answer(set);
        ASSERT_TRUE(result.ok()) << what;
        EXPECT_EQ(result->st_values, expected->st_values) << what;
        EXPECT_EQ(result->aggregate_values, expected->aggregate_values)
            << what;
        EXPECT_EQ(result->top_k, expected->top_k) << what;
        EXPECT_EQ(result->stats.fallback_estimates, 0u) << what;
        EXPECT_EQ(result->stats.floods, expected->stats.floods) << what;
        EXPECT_EQ(result->stats.bank_bytes, expected->stats.bank_bytes)
            << what;
      }

      // An index needs the flat bank: under a tiny budget none is built,
      // and the streamed batch returns the indexed engine's bits.
      QueryEngineOptions tiny = indexed_options;
      tiny.num_threads = threads;
      tiny.max_bank_bytes = 1;
      QueryEngine streamed(g, tiny);
      const auto result = streamed.Answer(set);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(streamed.index(), nullptr);
      EXPECT_EQ(result->stats.index_answers, 0u);
      EXPECT_EQ(result->st_values, indexed_expected->st_values);
      EXPECT_EQ(result->aggregate_values, indexed_expected->aggregate_values);
      EXPECT_EQ(result->top_k, indexed_expected->top_k);
    }
  }
}

TEST(QueryEngineTest, IndexAnswersMatchFloodPathBitwise) {
  for (const bool directed : {false, true}) {
    const UncertainGraph g = RandomGraph(67, 14, 0.2, directed);
    QuerySet set;
    for (NodeId s = 0; s < 5; ++s) {
      for (NodeId t = 7; t < 14; ++t) set.AddSt(s, t);
    }
    QueryEngine flood(g, EngineOptions(512));
    QueryEngineOptions indexed_options = EngineOptions(512);
    indexed_options.use_index = true;
    QueryEngine indexed(g, indexed_options);
    const auto flood_result = flood.Answer(set);
    const auto index_result = indexed.Answer(set);
    ASSERT_TRUE(flood_result.ok());
    ASSERT_TRUE(index_result.ok());
    // Bit-identical, not statistically close: both paths read the same
    // sampled worlds exactly.
    EXPECT_EQ(index_result->st_values, flood_result->st_values)
        << "directed = " << directed;
    EXPECT_EQ(index_result->stats.floods, 0u);
    EXPECT_EQ(index_result->stats.index_answers,
              index_result->stats.distinct_pairs);
    ASSERT_NE(indexed.index(), nullptr);
  }
}

TEST(QueryEngineTest, IndexSyncRelabelsOnlyAffectedWorlds) {
  UncertainGraph g = RandomGraph(71, 12, 0.3, false);
  QueryEngineOptions options = EngineOptions(512);
  options.use_index = true;
  QueryEngine engine(g, options);
  QuerySet set;
  for (NodeId t = 1; t < 12; ++t) set.AddSt(0, t);
  ASSERT_TRUE(engine.Answer(set).ok());
  ASSERT_NE(engine.index(), nullptr);
  EXPECT_EQ(engine.index()->stats().builds, 1u);

  // Nudge one interior probability: only the worlds whose sampled presence
  // of that edge flips get relabeled — a small fraction of Z, not all of it.
  const Edge edge = g.EdgesById()[0];
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, edge.prob * 0.5).ok());
  const auto after = engine.Answer(set);
  ASSERT_TRUE(after.ok());
  ASSERT_NE(engine.index(), nullptr);
  const ReliabilityIndex::Stats& stats = engine.index()->stats();
  EXPECT_EQ(stats.builds, 1u);  // incremental, not a rebuild
  EXPECT_EQ(stats.incremental_updates, 1u);
  EXPECT_LT(stats.last_update_worlds, 512u);

  // The incrementally maintained answers equal a from-scratch engine's.
  QueryEngine fresh(g, options);
  const auto expected = fresh.Answer(set);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after->st_values, expected->st_values);

  // AddEdge extends the shape: still incremental, still bit-pure.
  ASSERT_TRUE(g.AddEdge(0, 11, 0.5).ok() || g.UpdateEdgeProb(0, 11, 0.5).ok());
  const auto extended = engine.Answer(set);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(engine.index()->stats().builds, 1u);
  QueryEngine fresh2(g, options);
  const auto expected2 = fresh2.Answer(set);
  ASSERT_TRUE(expected2.ok());
  EXPECT_EQ(extended->st_values, expected2->st_values);
}

// One in-place resync over three mutations at once (an update down, an
// appended edge and an update up) derives one bank with three redrawn rows:
// world words where some worlds lost an edge (relabeled) and others only
// gained one (merged). The maintained label planes equal a fresh engine's.
TEST(QueryEngineTest, ResyncOverSeveralWritesMatchesFreshLabelWords) {
  UncertainGraph g = RandomGraph(83, 14, 0.2, false);
  QueryEngineOptions options = EngineOptions(512);
  options.use_index = true;
  QueryEngine engine(g, options);
  QuerySet set;
  for (NodeId t = 1; t < 14; ++t) set.AddSt(0, t);
  ASSERT_TRUE(engine.Answer(set).ok());
  const WorldBank::Options bank_options{.num_samples = options.num_samples,
                                        .seed = options.seed};
  const WorldBank before(g, bank_options);

  const Edge down = g.EdgesById()[0];
  const Edge up = g.EdgesById()[1];
  ASSERT_TRUE(g.UpdateEdgeProb(down.src, down.dst, down.prob * 0.4).ok());
  NodeId v = 1;
  while (g.HasEdge(0, v)) ++v;
  ASSERT_TRUE(g.AddEdge(0, v, 0.5).ok());
  ASSERT_TRUE(
      g.UpdateEdgeProb(up.src, up.dst, up.prob + (1 - up.prob) * 0.6).ok());
  // The derive the resync runs: both kernels share at least one word.
  WorldBank::Delta delta;
  const WorldBank after(before, g, bank_options, &delta);
  EXPECT_EQ(delta.redrawn.size(), 3u);
  bool shared_word = false;
  for (size_t w = 0; w < delta.changed.size(); ++w) {
    shared_word = shared_word || (delta.lost[w] != 0 &&
                                  (delta.changed[w] & ~delta.lost[w]) != 0);
  }
  EXPECT_TRUE(shared_word);

  const auto answers = engine.Answer(set);
  ASSERT_TRUE(answers.ok());
  ASSERT_NE(engine.index(), nullptr);
  EXPECT_EQ(engine.index()->stats().builds, 1u);
  EXPECT_EQ(engine.index()->stats().incremental_updates, 1u);
  QueryEngine fresh(g, options);
  const auto expected = fresh.Answer(set);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(answers->st_values, expected->st_values);
  ASSERT_NE(fresh.index(), nullptr);
  const std::span<const uint64_t> got = engine.index()->label_words();
  const std::span<const uint64_t> want = fresh.index()->label_words();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
}

// The successor constructor (the serve writer's path) derives the next
// engine from a live one, on the predecessor's worker count: its answers
// equal a fresh single-threaded engine's over the mutated copy, an index is
// relabeled incrementally rather than rebuilt, and the predecessor keeps
// its own answers.
TEST(QueryEngineTest, SuccessorEngineMatchesFreshEngine) {
  for (const bool use_index : {false, true}) {
    const UncertainGraph g = RandomGraph(73, 14, 0.2, /*directed=*/true);
    QueryEngineOptions options = EngineOptions(512);
    options.use_index = use_index;
    QuerySet set;
    for (NodeId s = 0; s < 4; ++s) {
      for (NodeId t = 6; t < 14; ++t) set.AddSt(s, t);
    }
    QueryEngineOptions three_workers = options;
    three_workers.num_threads = 3;
    QueryEngine prev(g, three_workers);
    const auto prev_answers = prev.Answer(set);
    ASSERT_TRUE(prev_answers.ok());

    UncertainGraph next = g;
    const Edge edge = next.EdgesById()[0];
    ASSERT_TRUE(next.UpdateEdgeProb(edge.src, edge.dst, edge.prob * 0.5).ok());
    NodeId v = 1;
    while (next.HasEdge(0, v)) ++v;
    ASSERT_TRUE(next.AddEdge(0, v, 0.5).ok());
    QueryEngine successor(next, prev);
    EXPECT_EQ(successor.options().num_threads, 3);
    EXPECT_EQ(successor.cache_size(), 0u);
    if (use_index) {
      ASSERT_NE(successor.index(), nullptr);
      EXPECT_EQ(successor.index()->stats().builds, 0u);  // labels copied
      EXPECT_EQ(successor.index()->stats().incremental_updates, 1u);
    }
    const auto answers = successor.Answer(set);
    ASSERT_TRUE(answers.ok());
    QueryEngine fresh(next, options);
    const auto expected = fresh.Answer(set);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(answers->st_values, expected->st_values)
        << "use_index = " << use_index;

    const auto again = prev.Answer(set);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->st_values, prev_answers->st_values);

    // A predecessor that never built a bank yields a lazy successor, which
    // then answers like a fresh engine.
    QueryEngine idle(g, three_workers);
    QueryEngine lazy(next, idle);
    EXPECT_EQ(lazy.index(), nullptr);
    const auto lazy_answers = lazy.Answer(set);
    ASSERT_TRUE(lazy_answers.ok());
    EXPECT_EQ(lazy_answers->st_values, expected->st_values);
  }
}

// Answer() on one shared engine from 4 threads at once: every value equals
// the serial engine's, whatever the interleaving of lazy builds, cache
// lookups / inserts / evictions, directed reach-row floods and world runs
// streamed through a tiny budget.
TEST(QueryEngineTest, ConcurrentAnswersOnOneEngineMatchSerial) {
  struct Config {
    const char* name;
    bool directed;
    bool use_index;
    size_t max_bank_bytes;
    int threads;
  };
  constexpr int kSamples = 700;
  constexpr NodeId kNodes = 16;
  constexpr size_t kDefault = size_t{256} << 20;
  for (const Config& config :
       {Config{"flood", true, false, kDefault, 1},
        Config{"undirected index", false, true, kDefault, 1},
        Config{"directed index", true, true, kDefault, 1},
        Config{"streamed", true, false, 1, 2},
        Config{"streamed index", false, true, 1, 2}}) {
    const UncertainGraph g = RandomGraph(79, kNodes, 0.15, config.directed);
    QueryEngineOptions options = EngineOptions(kSamples);
    options.use_index = config.use_index;
    options.num_threads = config.threads;
    // A small result cache, so inserts and evictions race too.
    options.max_cache_entries = 8;
    // Room for two count rows (n counts each), so concurrent directed
    // queries race on reach-row evictions.
    options.index.max_reach_bytes = 2 * kNodes * sizeof(uint32_t);

    QuerySet all;
    for (NodeId s = 0; s < kNodes; ++s) {
      for (NodeId t = 0; t < kNodes; ++t) all.AddSt(s, t);
    }
    QueryEngine serial(g, options);
    const auto expected = serial.Answer(all);
    ASSERT_TRUE(expected.ok());

    // A 1-byte budget streams every batch one lane block at a time, drawing
    // and flooding on the pool from every calling thread at once.
    options.max_bank_bytes = config.max_bank_bytes;
    QueryEngine shared(g, options);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int worker = 0; worker < 4; ++worker) {
      threads.emplace_back([&, worker] {
        // Each thread walks every pair in its own order, in small windows.
        for (size_t i = 0; i < all.st_queries().size(); i += 3) {
          QuerySet window;
          std::vector<size_t> slots;
          for (size_t j = i; j < i + 3 && j < all.st_queries().size(); ++j) {
            const size_t slot =
                (j * (2 * worker + 1) + worker) % all.st_queries().size();
            window.AddSt(all.st_queries()[slot].s, all.st_queries()[slot].t);
            slots.push_back(slot);
          }
          const auto result = shared.Answer(window);
          if (!result.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t k = 0; k < slots.size(); ++k) {
            if (result->st_values[k] != expected->st_values[slots[k]]) {
              mismatches.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0) << config.name;
    EXPECT_LE(shared.cache_size(), options.max_cache_entries);
    if (config.use_index && config.max_bank_bytes != kDefault) {
      EXPECT_EQ(shared.index(), nullptr) << config.name;
    } else if (config.use_index) {
      ASSERT_NE(shared.index(), nullptr);
      EXPECT_LE(shared.index()->reach_cache_bytes(),
                options.index.max_reach_bytes);
      if (config.directed) {
        EXPECT_GT(shared.index()->stats().reach_row_evictions, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace relmax
