// Micro-kernel benchmarks (google-benchmark): the primitives the solver
// pipeline is built from — MC sampling, RSS, reliability-to-all passes,
// most-reliable-path Dijkstra, Yen top-l, search-space elimination, world
// floods on an undirected and a directed graph, bank derive and index
// update after a write, and the delta-gain world ensemble. A benchmark added
// here must also be listed in tools/check_bench_json.py.
#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/fast_gain.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "gen/datasets.h"
#include "gen/queries.h"
#include "index/reliability_index.h"
#include "paths/most_reliable_path.h"
#include "paths/yen.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

const Dataset& TestGraph() {
  static const Dataset* dataset = [] {
    auto d = MakeDataset("lastfm", 0.5, 7);
    RELMAX_CHECK(d.ok());
    return new Dataset(*std::move(d));
  }();
  return *dataset;
}

std::pair<NodeId, NodeId> TestQuery() {
  static const auto query = [] {
    auto q = GenerateQueries(TestGraph().graph, 1, {.seed = 3});
    RELMAX_CHECK(q.ok());
    return (*q)[0];
  }();
  return query;
}

void BM_MonteCarloReliability(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  MonteCarloSampler sampler(TestGraph().graph, 11);
  const int z = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Reliability(s, t, z));
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_MonteCarloReliability)->Arg(100)->Arg(500)->Arg(1000);

// The batched parallel MC kernel: same estimate bit-for-bit at every thread
// count (second range arg), wall-clock scaling with lanes.
void BM_MonteCarloReliabilityParallel(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int z = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateReliability(
        TestGraph().graph, s, t,
        {.num_samples = z, .seed = 11, .num_threads = threads}));
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_MonteCarloReliabilityParallel)
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({2000, 4})
    ->Args({2000, 8})
    ->UseRealTime();

void BM_RssReliabilityParallel(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int z = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  RssSampler sampler(TestGraph().graph,
                     {.num_samples = z, .seed = 11, .num_threads = threads});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Reliability(s, t));
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_RssReliabilityParallel)
    ->Args({2000, 1})
    ->Args({2000, 4})
    ->UseRealTime();

void BM_RssReliability(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int z = static_cast<int>(state.range(0));
  RssSampler sampler(TestGraph().graph, {.num_samples = z, .seed = 11});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Reliability(s, t));
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_RssReliability)->Arg(100)->Arg(500);

void BM_ReliabilityFromSourceToAll(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  (void)t;
  MonteCarloSampler sampler(TestGraph().graph, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.FromSource(s, 200));
  }
}
BENCHMARK(BM_ReliabilityFromSourceToAll);

void BM_MostReliablePath(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MostReliablePath(TestGraph().graph, s, t));
  }
}
BENCHMARK(BM_MostReliablePath);

void BM_YenTopL(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int l = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopLReliablePaths(TestGraph().graph, s, t, l));
  }
}
BENCHMARK(BM_YenTopL)->Arg(10)->Arg(30);

void BM_SearchSpaceElimination(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  SolverOptions options;
  options.top_r = static_cast<int>(state.range(0));
  options.elimination_samples = 300;
  options.hop_h = 3;
  for (auto _ : state) {
    auto candidates = SelectCandidates(TestGraph().graph, s, t, options);
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_SearchSpaceElimination)->Arg(20)->Arg(50)->Arg(100);

// The word-parallel reachability fixpoint — the inner kernel behind
// WorldBank selection, batch queries, and the index's lazy count rows. One
// iteration floods all Z worlds from one source s over the full edge set,
// fanned out over world ranges on the second arg's workers as a one-source
// query batch does (WorldBank::FloodSources; 1 worker floods whole rows
// into a reused scratch), so worlds/sec here is the number every
// shared-world consumer ultimately pays for one cold source.
void BM_ReachabilityFixpoint(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  (void)t;
  const int z = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  const WorldBank bank(TestGraph().graph,
                       {.num_samples = z, .seed = 29, .num_threads = 1});
  const std::vector<NodeId> sources = {s};
  for (auto _ : state) {
    bank.FloodSources(
        sources, workers,
        [](size_t, size_t, size_t, const bitlane::BitMatrix& reach) {
          benchmark::DoNotOptimize(reach.row(0));
        });
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_ReachabilityFixpoint)
    ->ArgsProduct({{500, 2000, 8000}, {1, 2, 4}})
    ->UseRealTime();

// The same one-source flood on serve_flood's graph (as_topology 0.2, graph
// seed 42): directed, one giant SCC, so a flood requeues most nodes several
// times and the frontier's bookkeeping is what it costs. Iterations cycle
// over 16 query sources. The `propagations` counter is the mean number of
// propagation steps that added bits per source, summed over the ranges the
// flood is split into (ReachabilityFixpoint's return value).
const Dataset& DirectedGraph() {
  static const Dataset* dataset = [] {
    auto d = MakeDataset("as_topology", 0.2, 42);
    RELMAX_CHECK(d.ok());
    return new Dataset(*std::move(d));
  }();
  return *dataset;
}

void BM_DirectedFlood(benchmark::State& state) {
  const UncertainGraph& g = DirectedGraph().graph;
  const int z = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  const WorldBank bank(g, {.num_samples = z, .seed = 29, .num_threads = 1});
  auto queries = GenerateQueries(g, 16, {.seed = 3});
  RELMAX_CHECK(queries.ok());
  std::vector<std::vector<NodeId>> sources;
  for (const auto& [s, t] : *queries) sources.push_back({s});
  const size_t blocks = bank.lane_blocks();
  const size_t ranges = bank.FloodRanges(1, workers);
  int64_t propagations = 0;
  bitlane::BitMatrix reach;
  for (const std::vector<NodeId>& source : sources) {
    for (size_t r = 0; r < ranges; ++r) {
      const size_t first = r * blocks / ranges;
      propagations += bank.ReachabilityFixpoint(
          source[0], /*backward=*/false, bank.AllEdges(), &reach,
          WorldBank::SeedPolicy::kClearScratch, first,
          (r + 1) * blocks / ranges - first);
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    bank.FloodSources(
        sources[next], workers,
        [](size_t, size_t, size_t, const bitlane::BitMatrix& reach) {
          benchmark::DoNotOptimize(reach.row(0));
        });
    if (++next == sources.size()) next = 0;
  }
  state.counters["propagations"] =
      static_cast<double>(propagations) / static_cast<double>(sources.size());
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_DirectedFlood)
    ->ArgsProduct({{2000, 8000}, {1, 2, 4}})
    ->UseRealTime();

// Bank fill: sampling Z worlds over every edge into the bit-matrix. One
// iteration is one full bank construction (the once-per-solve cost that
// reuse_worlds amortizes).
void BM_WorldBankFill(benchmark::State& state) {
  const int z = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WorldBank bank(TestGraph().graph,
                   {.num_samples = z, .seed = 31, .num_threads = 1});
    benchmark::DoNotOptimize(bank.num_worlds());
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_WorldBankFill)->Arg(500)->Arg(2000);

// The graph after one write to TestGraph(): 0 halves edge 0's probability,
// 1 appends an edge at p = 0.5.
const UncertainGraph& WrittenGraph(int64_t write) {
  static const UncertainGraph* const written[2] = {
      [] {
        auto* g = new UncertainGraph(TestGraph().graph);
        const Edge edge = g->EdgeById(0);
        RELMAX_CHECK(g->UpdateEdgeProb(edge.src, edge.dst, edge.prob / 2).ok());
        return g;
      }(),
      [] {
        auto* g = new UncertainGraph(TestGraph().graph);
        NodeId v = 1;
        while (g->HasEdge(0, v)) ++v;
        RELMAX_CHECK(g->AddEdge(0, v, 0.5).ok());
        return g;
      }()};
  return *written[write];
}

// Bank derive: the next bank after one write, from the previous one — the
// per-write bank cost of incremental maintenance. Second arg: 0 updates one
// edge's probability, 1 appends one edge at p = 0.5. One iteration copies
// every unchanged row, redraws the written row and returns the delta.
void BM_WorldBankDerive(benchmark::State& state) {
  const int z = static_cast<int>(state.range(0));
  const WorldBank::Options options{.num_samples = z, .seed = 31};
  const WorldBank prev(TestGraph().graph, options);
  const UncertainGraph& after = WrittenGraph(state.range(1));
  WorldBank::Delta delta;
  for (auto _ : state) {
    WorldBank derived(prev, after, options, &delta);
    benchmark::DoNotOptimize(delta.changed.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_WorldBankDerive)->ArgsProduct({{500, 2000}, {0, 1}});

// Index update: the label work of one write, given the derived bank — the
// per-write index cost of incremental maintenance. Second arg as for
// BM_WorldBankDerive: an update down relabels the worlds that lost the edge,
// an appended edge merges components in the worlds it is up in. Each
// iteration starts from an untimed copy of the pre-write labels.
void BM_IndexApplyBankUpdate(benchmark::State& state) {
  const int z = static_cast<int>(state.range(0));
  const WorldBank::Options options{.num_samples = z, .seed = 31};
  const WorldBank prev(TestGraph().graph, options);
  WorldBank::Delta delta;
  const WorldBank next(prev, WrittenGraph(state.range(1)), options, &delta);
  const ReliabilityIndex base(prev, {});
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<ReliabilityIndex> index = base.Clone();
    state.ResumeTiming();
    index->ApplyBankUpdate(next, delta);
    benchmark::DoNotOptimize(index->label_words().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_IndexApplyBankUpdate)->ArgsProduct({{500, 2000}, {0, 1}});

void BM_WorldEnsembleBuild(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int z = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WorldEnsemble ensemble(TestGraph().graph, s, t, z, 17);
    benchmark::DoNotOptimize(ensemble.BaseReliability());
  }
}
BENCHMARK(BM_WorldEnsembleBuild)->Arg(100)->Arg(500);

}  // namespace
}  // namespace relmax

BENCHMARK_MAIN();
