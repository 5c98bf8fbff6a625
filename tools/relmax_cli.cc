// relmax — command-line driver for the library.
//
//   relmax gen      --dataset lastfm --scale 0.1 --out graph.txt
//   relmax stats    --graph graph.txt
//   relmax estimate --graph graph.txt --s 3 --t 99 [--estimator rss]
//   relmax solve    --graph graph.txt --s 3 --t 99 --k 10 --zeta 0.5
//   relmax multi    --graph graph.txt --sources 1,2 --targets 8,9
//                   --aggregate min --k 10
//   relmax budget   --graph graph.txt --s 3 --t 99 --budget 2.0 --max-edges 5
//   relmax batch    --graph graph.txt --queries queries.txt [--estimator rss]
//                   [--index] [--index-file index.rmx]
//   relmax index    save --graph graph.txt --index-file index.rmx
//   relmax index    load --graph graph.txt --index-file index.rmx
//   relmax serve    --graph graph.txt [--port 0] [--window-us 2000]
//                   [--max-batch 256] [--max-queue 1024] [--lanes 1]
//
// Every command accepts --seed and prints deterministic results. Sampling
// commands accept --threads N (0 = all cores); results do not depend on it.
// Greedy solvers accept --reuse-worlds=0 to disable the shared possible-world
// bank (common random numbers) and re-sample per evaluation instead; `batch`
// honors the same flag for its shared multi-query world bank, and with
// --index answers from the offline per-world connectivity index
// (bit-identical to the flood path; prints an extra `index:` stats line).
// --index-file persists that index as one mmap-able file (index/index_io.h):
// `index save` builds and writes it, `index load` validates and loads it, and
// `batch --index-file` loads it when present (O(file size), no sampling) or
// builds and saves it when missing, printing an `index_io:` stats line.
// `serve` holds the graph (and warm bank / loaded index) resident and answers
// a line protocol on stdin (or a loopback TCP port with --port; 0 picks an
// ephemeral one): micro-batched queries, non-blocking edge updates via epoch
// snapshots, typed shed responses under overload. Query responses are
// bit-identical to `batch` rows for the same (version, estimator, seed, Z,
// query) tuple, so scripted streams diff cleanly against batch output.
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/budget_extension.h"
#include "core/evaluate.h"
#include "core/multi.h"
#include "core/solver.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "index/index_io.h"
#include "index/reliability_index.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "sampling/reliability.h"
#include "serve/server.h"
#include "sampling/rss.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "relmax: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: relmax <gen|stats|estimate|solve|multi|budget|batch|"
               "index|serve> [--flags]\n"
               "run with a command to see its required flags\n");
  return 2;
}

StatusOr<UncertainGraph> LoadGraph(const Flags& flags) {
  const std::string path = flags.GetString("graph", "");
  if (path.empty()) return Status::InvalidArgument("--graph is required");
  return ReadEdgeList(path);
}

// --name as an integer in [lo, hi], `def` when absent. A value outside that
// range (or not a number) gets a typed error instead of reaching a
// RELMAX_CHECK or wrapping through a cast to a narrower type.
StatusOr<int64_t> IntFlag(const Flags& flags, const std::string& name,
                          int64_t def, int64_t lo, int64_t hi) {
  if (!flags.Has(name)) return def;
  const std::string value = flags.GetString(name, "");
  int64_t number = 0;
  const auto [end, error] =
      std::from_chars(value.data(), value.data() + value.size(), number);
  if (error != std::errc() || end != value.data() + value.size() ||
      number < lo || number > hi) {
    return Status::InvalidArgument("--" + name + " must be an integer in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]: " + value);
  }
  return number;
}

// --name as a sample count in [1, INT_MAX].
StatusOr<int> SamplesFlag(const Flags& flags, const std::string& name,
                          int def) {
  const auto count = IntFlag(flags, name, def, 1, INT_MAX);
  if (!count.ok()) return count.status();
  return static_cast<int>(*count);
}

// `value` of --what as a node id (ParseNodeId), so no value wraps onto
// another node.
StatusOr<NodeId> ToNodeId(const std::string& what, const std::string& value) {
  const std::optional<NodeId> id = ParseNodeId(value);
  if (!id) {
    return Status::InvalidArgument("--" + what + " is not a node id: " + value);
  }
  return *id;
}

StatusOr<NodeId> NodeFlag(const Flags& flags, const std::string& name) {
  return ToNodeId(name, flags.GetString(name, ""));
}

// --name as a comma-separated list of node ids (empty when absent). Every
// item, an empty one too, must be a node id.
StatusOr<std::vector<NodeId>> NodeListFlag(const Flags& flags,
                                           const std::string& name) {
  std::vector<NodeId> nodes;
  std::istringstream csv(flags.GetString(name, ""));
  for (std::string item; std::getline(csv, item, ',');) {
    const auto id = ToNodeId(name + " item", item);
    if (!id.ok()) return id.status();
    nodes.push_back(*id);
  }
  return nodes;
}

// Unknown flag values fail loudly: a typo like --estimator=rrs silently
// running Monte Carlo (the old behavior) is indistinguishable from success.
StatusOr<Estimator> ParseEstimator(const Flags& flags) {
  const std::string name = flags.GetString("estimator", "mc");
  if (name == "mc") return Estimator::kMonteCarlo;
  if (name == "rss") return Estimator::kRss;
  return Status::InvalidArgument("unknown --estimator (want mc|rss): " + name);
}

StatusOr<SolverOptions> OptionsFromFlags(const Flags& flags) {
  SolverOptions options;
  // Each integer knob is range-checked, so no value wraps through the cast.
  const auto set_int = [&](int* field, const char* name, int def, int lo,
                           int hi) {
    const auto value = IntFlag(flags, name, def, lo, hi);
    if (value.ok()) *field = static_cast<int>(*value);
    return value.status();
  };
  RELMAX_RETURN_IF_ERROR(set_int(&options.budget_k, "k", 10, 1, INT_MAX));
  options.zeta = flags.GetDouble("zeta", 0.5);
  RELMAX_RETURN_IF_ERROR(set_int(&options.top_r, "r", 100, 1, INT_MAX));
  RELMAX_RETURN_IF_ERROR(set_int(&options.top_l, "l", 30, 1, INT_MAX));
  RELMAX_RETURN_IF_ERROR(set_int(&options.hop_h, "h", 3, -1, INT_MAX));
  const auto samples = SamplesFlag(flags, "samples", 500);
  RELMAX_RETURN_IF_ERROR(samples.status());
  options.num_samples = *samples;
  const auto elim_samples = SamplesFlag(flags, "elim-samples", 500);
  RELMAX_RETURN_IF_ERROR(elim_samples.status());
  options.elimination_samples = *elim_samples;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  RELMAX_RETURN_IF_ERROR(
      set_int(&options.num_threads, "threads", 1, 0, 256));
  options.reuse_worlds = flags.GetBool("reuse-worlds", true);
  auto estimator = ParseEstimator(flags);
  RELMAX_RETURN_IF_ERROR(estimator.status());
  options.estimator = *estimator;
  return options;
}

int CmdGen(const Flags& flags) {
  const std::string name = flags.GetString("dataset", "");
  if (name == "list") {
    for (const std::string& d : DatasetNames()) std::printf("%s\n", d.c_str());
    return 0;
  }
  const std::string out = flags.GetString("out", "");
  if (name.empty() || out.empty()) {
    return Fail("gen requires --dataset and --out (see --dataset list)");
  }
  auto dataset = MakeDataset(name, flags.GetDouble("scale", 0.1),
                             static_cast<uint64_t>(flags.GetInt("seed", 42)));
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  const Status st = WriteEdgeList(dataset->graph, out);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %s: %u nodes, %zu edges (%s)\n", out.c_str(),
              dataset->graph.num_nodes(), dataset->graph.num_edges(),
              dataset->graph.directed() ? "directed" : "undirected");
  return 0;
}

int CmdStats(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const GraphStats stats = ComputeGraphStats(*graph);
  TablePrinter table({"Stat", "Value"});
  table.AddRow({"nodes", Fmt(stats.num_nodes)});
  table.AddRow({"edges", Fmt(stats.num_edges)});
  table.AddRow({"prob mean", Fmt(stats.prob_mean)});
  table.AddRow({"prob sd", Fmt(stats.prob_sd)});
  table.AddRow({"prob quartiles", "{" + Fmt(stats.prob_q1) + ", " +
                                      Fmt(stats.prob_q2) + ", " +
                                      Fmt(stats.prob_q3) + "}"});
  table.AddRow({"avg shortest path", Fmt(stats.avg_spl, 2)});
  table.AddRow({"longest shortest path", Fmt(stats.longest_spl)});
  table.AddRow({"clustering coefficient",
                Fmt(stats.clustering_coefficient, 3)});
  table.Print();
  return 0;
}

int CmdEstimate(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  if (!flags.Has("s") || !flags.Has("t")) return Fail("need --s and --t");
  const auto s = NodeFlag(flags, "s");
  if (!s.ok()) return Fail(s.status().ToString());
  const auto t = NodeFlag(flags, "t");
  if (!t.ok()) return Fail(t.status().ToString());
  if (*s >= graph->num_nodes() || *t >= graph->num_nodes()) {
    return Fail("query node out of range");
  }
  const auto samples = SamplesFlag(flags, "samples", 2000);
  if (!samples.ok()) return Fail(samples.status().ToString());
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const auto estimator = ParseEstimator(flags);
  if (!estimator.ok()) return Fail(estimator.status().ToString());
  WallTimer timer;
  double reliability;
  if (*estimator == Estimator::kRss) {
    reliability = EstimateReliabilityRss(
        *graph, *s, *t,
        {.num_samples = *samples, .seed = seed, .num_threads = threads});
  } else {
    reliability = EstimateReliability(
        *graph, *s, *t,
        {.num_samples = *samples, .seed = seed, .num_threads = threads});
  }
  std::printf("R(%u, %u) = %.4f   (%d samples, %.3f s)\n", *s, *t,
              reliability, *samples, timer.ElapsedSeconds());
  return 0;
}

int CmdSolve(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  if (!flags.Has("s") || !flags.Has("t")) return Fail("need --s and --t");
  const auto s = NodeFlag(flags, "s");
  if (!s.ok()) return Fail(s.status().ToString());
  const auto t = NodeFlag(flags, "t");
  if (!t.ok()) return Fail(t.status().ToString());
  const auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status().ToString());
  const std::string method_name = flags.GetString("method", "be");
  CoreMethod method;
  if (method_name == "be") {
    method = CoreMethod::kBatchEdges;
  } else if (method_name == "ip") {
    method = CoreMethod::kIndividualPaths;
  } else if (method_name == "mrp") {
    method = CoreMethod::kMostReliablePath;
  } else {
    return Fail("unknown --method (want be|ip|mrp): " + method_name);
  }
  WallTimer timer;
  auto solution = MaximizeReliability(*graph, *s, *t, *options, method);
  if (!solution.ok()) return Fail(solution.status().ToString());
  std::printf("method %s: reliability %.4f -> %.4f (gain %.4f) in %.2f s\n",
              CoreMethodName(method), solution->reliability_before,
              solution->reliability_after, solution->gain(),
              timer.ElapsedSeconds());
  for (const Edge& e : solution->added_edges) {
    std::printf("  add %u -> %u (p = %.3f)\n", e.src, e.dst, e.prob);
  }
  std::printf("candidates: %zu after elimination, %zu on top-%d paths\n",
              solution->stats.candidate_edges,
              solution->stats.candidate_edges_after_path_filter,
              options->top_l);
  return 0;
}

int CmdMulti(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const auto sources = NodeListFlag(flags, "sources");
  if (!sources.ok()) return Fail(sources.status().ToString());
  const auto targets = NodeListFlag(flags, "targets");
  if (!targets.ok()) return Fail(targets.status().ToString());
  if (sources->empty() || targets->empty()) {
    return Fail("need --sources a,b,... and --targets c,d,...");
  }
  const std::string agg_name = flags.GetString("aggregate", "avg");
  Aggregate aggregate;
  if (agg_name == "avg") {
    aggregate = Aggregate::kAverage;
  } else if (agg_name == "min") {
    aggregate = Aggregate::kMinimum;
  } else if (agg_name == "max") {
    aggregate = Aggregate::kMaximum;
  } else {
    return Fail("unknown --aggregate (want avg|min|max): " + agg_name);
  }
  const auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status().ToString());
  WallTimer timer;
  auto solution = MaximizeMultiReliability(*graph, *sources, *targets,
                                           aggregate, *options);
  if (!solution.ok()) return Fail(solution.status().ToString());
  std::printf("%s aggregate: %.4f -> %.4f (gain %.4f) in %.2f s\n",
              AggregateName(aggregate), solution->aggregate_before,
              solution->aggregate_after, solution->gain(),
              timer.ElapsedSeconds());
  for (const Edge& e : solution->added_edges) {
    std::printf("  add %u -> %u (p = %.3f)\n", e.src, e.dst, e.prob);
  }
  return 0;
}

int CmdBudget(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  if (!flags.Has("s") || !flags.Has("t")) return Fail("need --s and --t");
  const auto s = NodeFlag(flags, "s");
  if (!s.ok()) return Fail(s.status().ToString());
  const auto t = NodeFlag(flags, "t");
  if (!t.ok()) return Fail(t.status().ToString());
  BudgetOptions budget;
  budget.total_budget = flags.GetDouble("budget", 2.0);
  const auto max_edges = IntFlag(flags, "max-edges", 10, 1, INT_MAX);
  if (!max_edges.ok()) return Fail(max_edges.status().ToString());
  budget.max_edges = static_cast<int>(*max_edges);
  const auto units = IntFlag(flags, "units", 20, 1, INT_MAX);
  if (!units.ok()) return Fail(units.status().ToString());
  budget.units = static_cast<int>(*units);
  budget.max_edge_prob = flags.GetDouble("max-edge-prob", 0.95);
  const auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status().ToString());
  auto solution = MaximizeReliabilityWithProbabilityBudget(
      *graph, *s, *t, budget, *options);
  if (!solution.ok()) return Fail(solution.status().ToString());
  std::printf(
      "budget %.2f (used %.2f): reliability %.4f -> %.4f (gain %.4f)\n",
      budget.total_budget, solution->budget_used,
      solution->reliability_before, solution->reliability_after,
      solution->gain());
  for (const Edge& e : solution->added_edges) {
    std::printf("  add %u -> %u with allocated p = %.3f\n", e.src, e.dst,
                e.prob);
  }
  return 0;
}

// The WorldBank::Options an index file is keyed on, from the same flags
// batch uses, so `index save` / `index load` / `batch --index-file` agree.
StatusOr<WorldBank::Options> WorldOptionsFromFlags(const Flags& flags) {
  const auto samples = SamplesFlag(flags, "samples", 2000);
  RELMAX_RETURN_IF_ERROR(samples.status());
  return WorldBank::Options{
      .num_samples = *samples,
      .seed = static_cast<uint64_t>(flags.GetInt("seed", 42)),
      .num_threads = static_cast<int>(flags.GetInt("threads", 1))};
}

// Builds bank + index for --graph and writes them to --index-file
// (write-temp + rename; generation 1).
int CmdIndexSave(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::string path = flags.GetString("index-file", "");
  if (path.empty()) return Fail("index save requires --index-file FILE");
  const auto world = WorldOptionsFromFlags(flags);
  if (!world.ok()) return Fail(world.status().ToString());
  const WorldBank::Options& world_options = *world;
  ReliabilityIndex::Options index_options;
  index_options.num_threads = world_options.num_threads;
  if (!ReliabilityIndex::Fits(*graph, world_options.num_samples,
                              index_options)) {
    return Fail("index save: label planes exceed the index byte cap");
  }
  WallTimer timer;
  const WorldBank bank(*graph, world_options);
  ReliabilityIndex index(bank, index_options);
  const auto saved = SaveIndex(bank, index, world_options,
                               /*generation=*/1, path);
  if (!saved.ok()) return Fail(saved.status().ToString());
  std::printf(
      "saved %s: generation 1, %zu bytes (%d worlds, %d label bits, "
      "%zu label bytes, 1 shards, %.3f s)\n",
      path.c_str(), *saved, index.num_worlds(), index.label_bits(),
      index.label_bytes(), timer.ElapsedSeconds());
  return 0;
}

// Validates and mmap-loads --index-file against --graph — the full checksum
// and key validation, no sampling, no relabeling.
int CmdIndexLoad(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::string path = flags.GetString("index-file", "");
  if (path.empty()) return Fail("index load requires --index-file FILE");
  const auto world = WorldOptionsFromFlags(flags);
  if (!world.ok()) return Fail(world.status().ToString());
  const WorldBank::Options& world_options = *world;
  ReliabilityIndex::Options index_options;
  index_options.num_threads = world_options.num_threads;
  WallTimer timer;
  auto loaded = LoadIndex(path, *graph, world_options, index_options);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  std::printf(
      "loaded %s: generation %llu, %zu bytes (%d worlds, %d label bits, "
      "%zu label bytes, 1 shards, %.3f s)\n",
      path.c_str(), static_cast<unsigned long long>(loaded->generation),
      loaded->file_bytes, loaded->index->num_worlds(),
      loaded->index->label_bits(), loaded->index->label_bytes(),
      timer.ElapsedSeconds());
  return 0;
}

// Answers every query in --queries FILE (one `s t` per line, `#` comments)
// from one shared set of sampled worlds. One result row per query, in file
// order, then a stats line; rows are bit-identical for any --threads.
int CmdBatch(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::string queries_path = flags.GetString("queries", "");
  if (queries_path.empty()) return Fail("batch requires --queries FILE");
  auto set = QuerySet::FromFile(queries_path);
  if (!set.ok()) return Fail(set.status().ToString());
  QueryEngineOptions options;
  const auto samples = SamplesFlag(flags, "samples", 2000);
  if (!samples.ok()) return Fail(samples.status().ToString());
  options.num_samples = *samples;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  options.reuse_worlds = flags.GetBool("reuse-worlds", true);
  options.use_index = flags.GetBool("index", false);
  options.index_file = flags.GetString("index-file", "");
  const auto estimator = ParseEstimator(flags);
  if (!estimator.ok()) return Fail(estimator.status().ToString());
  options.estimator = *estimator;
  QueryEngine engine(*graph, options);
  WallTimer timer;
  auto result = engine.Answer(*set);
  if (!result.ok()) return Fail(result.status().ToString());
  const std::vector<StQuery>& st = set->st_queries();
  for (size_t i = 0; i < st.size(); ++i) {
    std::printf("R(%u, %u) = %.4f\n", st[i].s, st[i].t, result->st_values[i]);
  }
  // Logical bank bytes, `[]` when the batch never built a bank (fallback
  // path). The bracketed list keeps the stats line's established format.
  const std::string bank_bytes =
      result->stats.bank_bytes
          ? "[" + std::to_string(*result->stats.bank_bytes) + "]"
          : "[]";
  std::printf(
      "batch: %zu queries, %zu distinct pairs, %zu floods, "
      "%zu fallback estimates, %zu index answers, "
      "%zu cache hits (%d samples, shard bank bytes %s, %.3f s)\n",
      result->stats.num_queries, result->stats.distinct_pairs,
      result->stats.floods, result->stats.fallback_estimates,
      result->stats.index_answers, result->stats.cache_hits,
      options.num_samples, bank_bytes.c_str(), timer.ElapsedSeconds());
  if (const ReliabilityIndex* index = engine.index()) {
    const ReliabilityIndex::Stats& istats = index->stats();
    std::printf(
        "index: %d worlds, %d label bits, %zu label bytes, "
        "%zu worlds relabeled, %zu reach floods\n",
        index->num_worlds(), index->label_bits(), index->label_bytes(),
        istats.worlds_relabeled, istats.reach_floods);
  }
  if (!options.index_file.empty()) {
    const IndexIoStats& io = engine.index_io_stats();
    std::printf(
        "index_io: %zu loads, %zu saves, %zu load failures, "
        "generation %llu, %zu file bytes\n",
        io.loads, io.saves, io.load_failures,
        static_cast<unsigned long long>(io.generation), io.file_bytes);
  }
  return 0;
}

// Runs the online query daemon: stdin/stdout line protocol by default, a
// sequential loopback TCP listener with --port (0 = ephemeral, port printed
// once bound). Engine flags match `batch` so answers diff cleanly against it.
int CmdServe(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  serve::ServeOptions options;
  const auto samples = SamplesFlag(flags, "samples", 2000);
  if (!samples.ok()) return Fail(samples.status().ToString());
  options.engine.num_samples = *samples;
  options.engine.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.engine.reuse_worlds = flags.GetBool("reuse-worlds", true);
  options.engine.use_index = flags.GetBool("index", false);
  options.engine.index_file = flags.GetString("index-file", "");
  const auto estimator = ParseEstimator(flags);
  if (!estimator.ok()) return Fail(estimator.status().ToString());
  options.engine.estimator = *estimator;
  // Every lane and every worker is one OS thread.
  constexpr int64_t kMaxThreads = 256;
  const auto threads = IntFlag(flags, "threads", 1, 0, kMaxThreads);
  const auto window_us = IntFlag(flags, "window-us", 2000, 0, INT_MAX);
  const auto max_batch = IntFlag(flags, "max-batch", 256, 1, INT_MAX);
  const auto max_queue = IntFlag(flags, "max-queue", 1024, 0, INT_MAX);
  const auto lanes = IntFlag(flags, "lanes", 1, 1, kMaxThreads);
  const auto port = IntFlag(flags, "port", 0, 0, 65535);
  for (const auto* flag :
       {&threads, &window_us, &max_batch, &max_queue, &lanes, &port}) {
    if (!flag->ok()) return Fail(flag->status().ToString());
  }
  options.engine.num_threads = static_cast<int>(*threads);
  options.window_us = static_cast<int>(*window_us);
  options.max_batch = static_cast<size_t>(*max_batch);
  options.max_queue = static_cast<size_t>(*max_queue);
  options.lanes = static_cast<int>(*lanes);

  serve::Server server(std::move(*graph), options);
  if (flags.Has("port")) {
    const Status status = server.ServePort(
        static_cast<uint16_t>(*port), [](uint16_t bound) {
          std::printf("serving on port %u\n", bound);
          std::fflush(stdout);
        });
    if (!status.ok()) return Fail(status.ToString());
  } else {
    const serve::ServeStats stats = server.Run(std::cin, std::cout);
    std::printf("%s\n", serve::StatsResponse(stats).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace relmax

int main(int argc, char** argv) {
  if (argc < 2) return relmax::Usage();
  const std::string command = argv[1];
  if (command == "index") {
    if (argc < 3) return relmax::Usage();
    const std::string sub = argv[2];
    relmax::Flags flags = relmax::Flags::Parse(argc - 2, argv + 2);
    if (sub == "save") return relmax::CmdIndexSave(flags);
    if (sub == "load") return relmax::CmdIndexLoad(flags);
    return relmax::Usage();
  }
  relmax::Flags flags = relmax::Flags::Parse(argc - 1, argv + 1);
  if (command == "gen") return relmax::CmdGen(flags);
  if (command == "stats") return relmax::CmdStats(flags);
  if (command == "estimate") return relmax::CmdEstimate(flags);
  if (command == "solve") return relmax::CmdSolve(flags);
  if (command == "multi") return relmax::CmdMulti(flags);
  if (command == "budget") return relmax::CmdBudget(flags);
  if (command == "batch") return relmax::CmdBatch(flags);
  if (command == "serve") return relmax::CmdServe(flags);
  return relmax::Usage();
}
