// Persistent index I/O: what a saved index file buys over rebuilding. The
// harness builds the offline reliability index from scratch (bank sampling +
// per-world labeling), saves it with SaveIndex, then mmap-loads it back with
// LoadIndex — the load path's whole job is to be O(file size) with zero
// sampling and zero relabeling, so load_seconds << build_seconds is the
// entire point of the format.
//
// Bit-purity is enforced in-harness: the loaded index must
// return exactly the same connected-world bitsets and Query values as the
// freshly built one, or the run exits 1. A non-empty --json PATH writes the
// result entry in the canonical BENCH_*.json shape ({label, command,
// environment, benchmarks}) for tools/check_bench_json.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "index/index_io.h"
#include "index/reliability_index.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace bench {
namespace {

struct IoResult {
  double build_seconds = 0.0;  // bank sampling + labeling, from scratch
  double save_seconds = 0.0;   // SaveIndex (write-temp + fsync + rename)
  double load_seconds = 0.0;   // LoadIndex (mmap + validate + adopt)
  double speedup_load_vs_build = 0.0;
  size_t file_bytes = 0;
  bool bit_identical = false;  // loaded answers == built answers, exactly
};

// Random pairs with s != t, a pure function of (n, seed).
std::vector<std::pair<NodeId, NodeId>> RandomPairs(NodeId n, int num_pairs,
                                                   uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < num_pairs; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextUint64(n));
    NodeId t = static_cast<NodeId>(rng.NextUint64(n));
    while (t == s) t = static_cast<NodeId>(rng.NextUint64(n));
    pairs.emplace_back(s, t);
  }
  return pairs;
}

IoResult RunIo(const UncertainGraph& g, int num_samples, uint64_t seed,
              int load_reps, const std::string& path) {
  IoResult r;
  const WorldBank::Options world_options = {.num_samples = num_samples,
                                            .seed = seed};

  // Build from scratch: the cost the file exists to avoid paying twice.
  WallTimer timer;
  const WorldBank bank(g, world_options);
  ReliabilityIndex built(bank, {});
  r.build_seconds = timer.ElapsedSeconds();

  timer.Restart();
  const StatusOr<size_t> saved =
      SaveIndex(bank, built, world_options, /*generation=*/1, path);
  r.save_seconds = timer.ElapsedSeconds();
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n",
                 saved.status().ToString().c_str());
    return r;
  }
  r.file_bytes = *saved;

  // Load repeatedly for timing resolution (a single mmap + checksum pass is
  // sub-millisecond at bench scale); the last LoadedIndex is verified.
  StatusOr<LoadedIndex> loaded = Status::Internal("not loaded");
  timer.Restart();
  for (int rep = 0; rep < load_reps; ++rep) {
    loaded = LoadIndex(path, g, world_options, {});
    if (!loaded.ok()) break;
  }
  r.load_seconds = timer.ElapsedSeconds() / std::max(load_reps, 1);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return r;
  }
  r.speedup_load_vs_build = r.build_seconds / std::max(r.load_seconds, 1e-12);

  // Bit-purity: the loaded index answers from mmap-ed bytes, the built one
  // from freshly computed labels — every connected-world bitset and every
  // Query value must match exactly.
  r.bit_identical = true;
  for (const auto& [s, t] : RandomPairs(g.num_nodes(), 64, seed)) {
    if (loaded->index->ConnectedWorlds(s, t) != built.ConnectedWorlds(s, t) ||
        loaded->index->Query(s, t) != built.Query(s, t)) {
      r.bit_identical = false;
      break;
    }
  }
  std::remove(path.c_str());
  return r;
}

void Run(const Flags& flags) {
  const std::string dataset_name = flags.GetString("dataset", "lastfm");
  const double scale = flags.GetDouble("scale", 0.1);
  const int num_samples = static_cast<int>(flags.GetInt("samples", 2000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const int load_reps = static_cast<int>(flags.GetInt("load-reps", 16));
  const std::string path =
      flags.GetString("index-file", "/tmp/bench_index_io.rmx");
  const std::string json_path = flags.GetString("json", "");

  auto dataset = MakeDataset(dataset_name, scale, seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  const UncertainGraph& g = dataset->graph;
  std::printf("=== Persistent index: mmap load vs rebuild from scratch ===\n");
  std::printf("%s scale %.2f: %u nodes, %zu edges; Z = %d, seed = %llu\n\n",
              dataset_name.c_str(), scale, g.num_nodes(), g.num_edges(),
              num_samples, static_cast<unsigned long long>(seed));

  TablePrinter table({"Build s", "Save s", "Load s", "Load/Build",
                      "File bytes", "Identical"});
  const IoResult r = RunIo(g, num_samples, seed, load_reps, path);
  table.AddRow({Fmt(r.build_seconds, 4), Fmt(r.save_seconds, 4),
                Fmt(r.load_seconds, 6),
                Fmt(r.speedup_load_vs_build, 1) + "x",
                Fmt(static_cast<int>(r.file_bytes)),
                r.bit_identical ? "yes" : "NO"});
  table.Print();
  std::printf(
      "\nbuild pays Z world draws plus per-world labeling every process\n"
      "start; load is one mmap + checksum walk over the file, adopting the\n"
      "bank rows zero-copy — Load/Build is the startup speedup a persisted\n"
      "index buys, with answers guaranteed bit-identical.\n");

  const auto enforce_identical = [&r] {
    if (r.bit_identical) return;
    std::fprintf(stderr,
                 "FAIL: loaded index answers were not bit-identical to the "
                 "freshly built index\n");
    std::exit(1);
  };
  if (json_path.empty()) {
    enforce_identical();
    return;
  }
  std::string json = "{\n  \"label\": \"index_io\",\n";
  json += "  \"command\": \"bench_index_io --dataset " + dataset_name +
          " --scale " + Fmt(scale, 2) + " --samples " +
          std::to_string(num_samples) + " --seed " + std::to_string(seed) +
          "\",\n";
  json += "  \"environment\": " +
          EnvironmentJson("WallTimer harness",
                          "build = WorldBank sampling + ReliabilityIndex "
                          "labeling from scratch; save = SaveIndex "
                          "write-temp + rename; load = LoadIndex mmap + "
                          "checksum validation + zero-copy bank adoption, "
                          "averaged over --load-reps") +
          ",\n  \"benchmarks\": [\n";
  const std::string common =
      ", \"build_seconds\": " + Fmt(r.build_seconds, 6) +
      ", \"save_seconds\": " + Fmt(r.save_seconds, 6) +
      ", \"load_seconds\": " + Fmt(r.load_seconds, 6) +
      ", \"speedup_load_vs_build\": " + Fmt(r.speedup_load_vs_build, 2) +
      ", \"file_bytes\": " + std::to_string(r.file_bytes) +
      ", \"bit_identical\": " + (r.bit_identical ? "true" : "false") + "}";
  // The "/1" suffix keeps the names of the recorded single-bank rows.
  json += "    {\"name\": \"BM_IndexSave/1\"" + common + ",\n";
  json += "    {\"name\": \"BM_IndexLoad/1\"" + common + "\n";
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
