// Offline reliability index vs the flood-per-source batch path vs the naive
// per-query loop, on the workload the index exists for: random (s, t) pairs,
// where almost every query is a new source and PR 5's flood amortization has
// nothing to share. On an undirected graph (lastfm, the default) the index
// precomputes per-world component labels once, so each answer is a popcount
// over Z bits — per-query cost O(Z/64 · log n) instead of
// O(E · Z/64 · passes). A directed index caches one flood per source.
//
// The harness re-verifies the bit-purity contract on every size: index
// answers must equal the shared-flood answers exactly (same bank, same
// bits), across --threads 1/4. A non-empty --json PATH writes the result
// entry in the canonical BENCH_*.json shape ({label, command, environment,
// benchmarks}) for tools/check_bench_json.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "index/reliability_index.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "sampling/reliability.h"

namespace relmax {
namespace bench {
namespace {

struct SizeResult {
  int num_pairs = 0;
  size_t num_sources = 0;
  double naive_per_query_seconds = 0.0;
  double flood_seconds = 0.0;        // shared-flood Answer() of the batch
  double index_seconds = 0.0;        // index Answer() of the batch (steady)
  double index_build_seconds = 0.0;  // bank sampling + labeling, paid once
  size_t label_bytes = 0;
  bool identical = false;  // index == flood, threads 1/4
};

// Random pairs with s != t, a pure function of (n, seed).
QuerySet RandomPairs(NodeId n, int num_pairs, uint64_t seed,
                     std::vector<StQuery>* pairs) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  QuerySet set;
  for (int i = 0; i < num_pairs; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextUint64(n));
    NodeId t = static_cast<NodeId>(rng.NextUint64(n));
    while (t == s) t = static_cast<NodeId>(rng.NextUint64(n));
    pairs->push_back({s, t});
    set.AddSt(s, t);
  }
  return set;
}

SizeResult RunSize(const UncertainGraph& g, int num_pairs, int num_samples,
                   uint64_t seed, int naive_pairs, int index_reps) {
  SizeResult r;
  r.num_pairs = num_pairs;
  std::vector<StQuery> pairs;
  const QuerySet set = RandomPairs(g.num_nodes(), num_pairs, seed, &pairs);
  {
    std::vector<bool> seen(g.num_nodes(), false);
    for (const StQuery& q : pairs) {
      if (!seen[q.s]) {
        seen[q.s] = true;
        ++r.num_sources;
      }
    }
  }

  // Naive loop on a fixed-size sample of the pairs (one independent
  // sampling pass per query is far too slow to run for the whole batch),
  // reported per query.
  const int naive_count = std::min<int>(naive_pairs, num_pairs);
  WallTimer timer;
  for (int i = 0; i < naive_count; ++i) {
    EstimateReliability(g, pairs[i].s, pairs[i].t,
                        {.num_samples = num_samples, .seed = seed});
  }
  r.naive_per_query_seconds =
      timer.ElapsedSeconds() / std::max(naive_count, 1);

  QueryEngineOptions options;
  options.num_samples = num_samples;
  options.seed = seed;
  // Disable the result cache so repeated Answer() calls re-resolve every
  // pair — the timed sections measure the resolution paths, not the cache.
  options.cache_results = false;

  // Flood path: warm the bank on a one-pair batch, then time the batch —
  // one word-parallel flood per distinct source.
  QueryEngine flood(g, options);
  QuerySet warmup;
  warmup.AddSt(pairs[0].s, pairs[0].t);
  if (!flood.Answer(warmup).ok()) return r;
  timer.Restart();
  const auto flood_result = flood.Answer(set);
  r.flood_seconds = timer.ElapsedSeconds();
  if (!flood_result.ok()) {
    std::fprintf(stderr, "flood batch failed: %s\n",
                 flood_result.status().ToString().c_str());
    return r;
  }

  // Index path: the warmup pays bank sampling + labeling once (reported as
  // build time); steady-state batches are then pure popcounts, timed over
  // `index_reps` repetitions for resolution.
  QueryEngineOptions indexed_options = options;
  indexed_options.use_index = true;
  QueryEngine indexed(g, indexed_options);
  timer.Restart();
  if (!indexed.Answer(warmup).ok()) return r;
  r.index_build_seconds = timer.ElapsedSeconds();
  timer.Restart();
  StatusOr<BatchResult> index_result = indexed.Answer(set);
  for (int rep = 1; rep < index_reps; ++rep) index_result = indexed.Answer(set);
  r.index_seconds = timer.ElapsedSeconds() / std::max(index_reps, 1);
  if (!index_result.ok()) {
    std::fprintf(stderr, "index batch failed: %s\n",
                 index_result.status().ToString().c_str());
    return r;
  }
  r.label_bytes = indexed.index()->label_bytes();

  // Bit-purity: index answers equal the flood answers exactly, and stay
  // identical under a different thread count.
  QueryEngineOptions four = indexed_options;
  four.num_threads = 4;
  QueryEngine indexed4(g, four);
  const auto index_result4 = indexed4.Answer(set);
  r.identical = index_result4.ok() &&
                index_result->st_values == flood_result->st_values &&
                index_result4->st_values == flood_result->st_values;
  return r;
}

void Run(const Flags& flags) {
  const std::string dataset_name = flags.GetString("dataset", "lastfm");
  const double scale = flags.GetDouble("scale", 0.1);
  const int num_samples = static_cast<int>(flags.GetInt("samples", 2000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const int max_pairs = static_cast<int>(flags.GetInt("max-pairs", 256));
  const int naive_pairs = static_cast<int>(flags.GetInt("naive-pairs", 8));
  const int index_reps = static_cast<int>(flags.GetInt("index-reps", 32));
  const std::string json_path = flags.GetString("json", "");

  auto dataset = MakeDataset(dataset_name, scale, seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  const UncertainGraph& g = dataset->graph;
  std::printf("=== Reliability index: offline per-world labels vs "
              "flood-per-source vs naive ===\n");
  std::printf("%s scale %.2f: %u nodes, %zu edges; Z = %d, seed = %llu\n\n",
              dataset_name.c_str(), scale, g.num_nodes(), g.num_edges(),
              num_samples, static_cast<unsigned long long>(seed));

  TablePrinter table({"Pairs", "Sources", "Naive q/s", "Flood q/s",
                      "Index q/s", "Index/Flood", "Build s", "Identical"});
  std::vector<SizeResult> results;
  bool all_identical = true;
  for (const int num_pairs : {64, 256}) {
    if (num_pairs > max_pairs) continue;
    const SizeResult r =
        RunSize(g, num_pairs, num_samples, seed, naive_pairs, index_reps);
    results.push_back(r);
    all_identical = all_identical && r.identical;
    table.AddRow(
        {Fmt(r.num_pairs), Fmt(static_cast<int>(r.num_sources)),
         Fmt(1.0 / std::max(r.naive_per_query_seconds, 1e-12), 1),
         Fmt(r.num_pairs / std::max(r.flood_seconds, 1e-12), 1),
         Fmt(r.num_pairs / std::max(r.index_seconds, 1e-12), 1),
         Fmt(r.flood_seconds / std::max(r.index_seconds, 1e-12), 1),
         Fmt(r.index_build_seconds, 3), r.identical ? "yes" : "NO"});
    std::fflush(stdout);
  }
  table.Print();
  std::printf(
      "\nrandom pairs defeat flood amortization (every query is its own\n"
      "source); the index pays bank sampling + per-world labeling once and\n"
      "answers each query as a popcount over Z bits, so Index/Flood is the\n"
      "per-query speedup after the one-off build.\n");

  const auto enforce_identical = [&all_identical] {
    if (all_identical) return;
    std::fprintf(stderr,
                 "FAIL: index answers were not bit-identical to the "
                 "shared-flood path across threads\n");
    std::exit(1);
  };
  if (json_path.empty()) {
    enforce_identical();
    return;
  }
  std::string json = "{\n  \"label\": \"index_queries\",\n";
  json += "  \"command\": \"bench_index_queries --dataset " + dataset_name +
          " --scale " + Fmt(scale, 2) + " --samples " +
          std::to_string(num_samples) + " --seed " + std::to_string(seed) +
          "\",\n";
  json += "  \"environment\": " +
          EnvironmentJson("WallTimer harness",
                          "naive = one EstimateReliability pass per query; "
                          "flood = QueryEngine shared WorldBank, one flood "
                          "per distinct source; index = per-world component "
                          "labels, one popcount per query") +
          ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json += "    {\"name\": \"IndexQueries/" + std::to_string(r.num_pairs) +
            "\", \"pairs\": " + std::to_string(r.num_pairs) +
            ", \"sources\": " + std::to_string(r.num_sources) +
            ", \"naive_per_query_seconds\": " +
            Fmt(r.naive_per_query_seconds, 6) +
            ", \"flood_seconds\": " + Fmt(r.flood_seconds, 6) +
            ", \"index_seconds\": " + Fmt(r.index_seconds, 6) +
            ", \"index_build_seconds\": " + Fmt(r.index_build_seconds, 6) +
            ", \"speedup_index_vs_flood\": " +
            Fmt(r.flood_seconds / std::max(r.index_seconds, 1e-12), 2) +
            ", \"label_bytes\": " + std::to_string(r.label_bytes) +
            ", \"bit_identical\": " + (r.identical ? "true" : "false") + "}" +
            (i + 1 < results.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    std::exit(1);
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  enforce_identical();
}

}  // namespace
}  // namespace bench
}  // namespace relmax

int main(int argc, char** argv) {
  relmax::bench::Run(relmax::Flags::Parse(argc, argv));
  return 0;
}
