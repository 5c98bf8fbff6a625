// index_io: the persistent index file must round-trip bit-identically across
// every (directedness × lane mode × threads) combination, every corruption of
// the file must surface as a typed Status (never UB) with the query engine
// falling back to a clean rebuild, and atomic republish must bump the
// generation counter.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/uncertain_graph.h"
#include "index/index_io.h"
#include "index/reliability_index.h"
#include "oracle_util.h"
#include "query/query_engine.h"
#include "sampling/bitlane.h"
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

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<uint64_t> FloodRow(const WorldBank& bank, NodeId s, NodeId t) {
  bitlane::BitMatrix reach;
  bank.ReachabilityFixpoint(s, /*backward=*/false, bank.AllEdges(), &reach);
  const std::span<const uint64_t> row = reach.row_span(t);
  return std::vector<uint64_t>(row.begin(), row.end());
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// Builds bank + index for (g, world_options) and saves to `path`.
void BuildAndSave(const UncertainGraph& g,
                  const WorldBank::Options& world_options,
                  const std::string& path) {
  const WorldBank bank(g, world_options);
  const ReliabilityIndex index(bank,
                               {.num_threads = world_options.num_threads});
  const StatusOr<size_t> saved =
      SaveIndex(bank, index, world_options, /*generation=*/1, path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_GT(*saved, sizeof(IndexFileHeader));
}

// Z = 200 on purpose: 4 words with a partial tail word, so tail masking in
// both the saved rows and the loaded query path is always exercised.
constexpr int kZ = 200;

TEST(IndexIoTest, RoundTripSweepIsBitIdentical) {
  for (const bool directed : {false, true}) {
    const UncertainGraph g = RandomGraph(211, 13, 0.2, directed);
    // The reference answers come from a single-threaded scalar build; every
    // other configuration must reproduce them bit for bit after a
    // save/load round trip.
    const WorldBank ref_bank(g, {.num_samples = kZ, .seed = 7});
    ReliabilityIndex ref(ref_bank, {});
    for (const bitlane::LaneMode mode :
         {bitlane::LaneMode::kScalar, bitlane::LaneMode::kBranchFree}) {
      for (const int threads : {1, 3}) {
        const bitlane::ScopedLaneMode scoped(mode);
        const WorldBank::Options options{
            .num_samples = kZ, .seed = 7, .num_threads = threads};
        const std::string path = TempPath("roundtrip.rmx");
        BuildAndSave(g, options, path);
        StatusOr<LoadedIndex> loaded = LoadIndex(path, g, options, {});
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString()
                                 << " directed=" << directed
                                 << " threads=" << threads;
        // Restored with no sampling and no relabeling.
        EXPECT_EQ(loaded->index->stats().builds, 0u);
        EXPECT_EQ(loaded->index->stats().worlds_relabeled, 0u);
        EXPECT_EQ(loaded->generation, 1u);
        for (NodeId s = 0; s < g.num_nodes(); ++s) {
          for (NodeId t = 0; t < g.num_nodes(); ++t) {
            EXPECT_EQ(loaded->index->ConnectedWorlds(s, t),
                      ref.ConnectedWorlds(s, t))
                << "directed=" << directed
                << " mode=" << bitlane::ModeName(mode)
                << " threads=" << threads << " (" << s << ", " << t << ")";
          }
        }
        // The adopted mmap-ed bank itself floods identically too.
        EXPECT_EQ(FloodRow(*loaded->bank, 0, g.num_nodes() - 1),
                  FloodRow(ref_bank, 0, g.num_nodes() - 1));
      }
    }
  }
}

TEST(IndexIoTest, LoadedIndexMatchesExactOracle) {
  for (const bool directed : {false, true}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const UncertainGraph g =
          oracle::SmallRandomGraph(900 + seed, 7, 10, directed);
      if (g.num_edges() == 0) continue;
      const WorldBank::Options options{.num_samples = 4000, .seed = 13};
      const std::string path = TempPath("oracle.rmx");
      BuildAndSave(g, options, path);
      StatusOr<LoadedIndex> loaded = LoadIndex(path, g, options, {});
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      for (NodeId s = 0; s < g.num_nodes(); ++s) {
        for (NodeId t = 0; t < g.num_nodes(); ++t) {
          const double exact = oracle::BruteForceReliability(g, s, t);
          EXPECT_NEAR(loaded->index->Query(s, t), exact,
                      oracle::ThreeSigma(exact, options.num_samples))
              << "directed=" << directed << " seed=" << seed << " (" << s
              << ", " << t << ")";
        }
      }
    }
  }
}

TEST(IndexIoTest, GraphContentDigestIsContentSensitive) {
  UncertainGraph a = UncertainGraph::Undirected(4);
  ASSERT_TRUE(a.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(a.AddEdge(1, 2, 0.25).ok());
  UncertainGraph same = UncertainGraph::Undirected(4);
  ASSERT_TRUE(same.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(same.AddEdge(1, 2, 0.25).ok());
  EXPECT_EQ(GraphContentDigest(a), GraphContentDigest(same));

  UncertainGraph prob = UncertainGraph::Undirected(4);
  ASSERT_TRUE(prob.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(prob.AddEdge(1, 2, 0.250001).ok());
  EXPECT_NE(GraphContentDigest(a), GraphContentDigest(prob));

  UncertainGraph endpoint = UncertainGraph::Undirected(4);
  ASSERT_TRUE(endpoint.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(endpoint.AddEdge(1, 3, 0.25).ok());
  EXPECT_NE(GraphContentDigest(a), GraphContentDigest(endpoint));

  UncertainGraph directed = UncertainGraph::Directed(4);
  ASSERT_TRUE(directed.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(directed.AddEdge(1, 2, 0.25).ok());
  EXPECT_NE(GraphContentDigest(a), GraphContentDigest(directed));
}

TEST(IndexIoTest, MissingFileIsNotFound) {
  const UncertainGraph g = RandomGraph(3, 6, 0.3, false);
  const StatusOr<LoadedIndex> loaded =
      LoadIndex(TempPath("never_written.rmx"), g, {.num_samples = kZ}, {});
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// Fixture for the corruption battery: one saved file, plus helpers that
// corrupt a copy and assert the typed error AND the query engine's clean
// rebuild fallback. The parameter is the graph's directedness; a directed
// file's label section is empty.
class IndexIoCorruptionTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    graph_ = RandomGraph(401, 12, 0.25, GetParam());
    options_ = WorldBank::Options{.num_samples = kZ, .seed = 5};
    path_ = TempPath("corrupt.rmx");
    BuildAndSave(graph_, options_, path_);
    pristine_ = ReadFileBytes(path_);
    const StatusOr<IndexFileInfo> info = InspectIndexFile(path_);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    info_ = *info;
    ASSERT_EQ(info_.header.num_sections, info_.sections.size());
    // Bank rows + labels.
    ASSERT_EQ(info_.sections.size(), 2u);
    ASSERT_EQ(info_.sections[1].length == 0, GetParam());
  }

  StatusCode LoadCode(std::string* message = nullptr) {
    const StatusOr<LoadedIndex> loaded =
        LoadIndex(path_, graph_, options_, {});
    if (message != nullptr) *message = loaded.status().message();
    return loaded.status().code();
  }

  // The engine must answer correctly despite the bad file: warn, count a
  // load failure, rebuild from scratch, and republish a good file over it.
  void ExpectEngineRebuildFallback() {
    QueryEngineOptions engine_options;
    engine_options.num_samples = options_.num_samples;
    engine_options.seed = options_.seed;
    engine_options.index_file = path_;
    QueryEngine with_file(graph_, engine_options);
    QueryEngineOptions no_file = engine_options;
    no_file.index_file.clear();
    no_file.use_index = true;
    QueryEngine fresh(graph_, no_file);
    const StatusOr<double> got = with_file.EstimateSt(0, 5);
    const StatusOr<double> want = fresh.EstimateSt(0, 5);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(*got, *want);
    EXPECT_EQ(with_file.index_io_stats().load_failures, 1u);
    EXPECT_EQ(with_file.index_io_stats().loads, 0u);
    // The rebuild republished: the file is valid again for a second engine.
    EXPECT_EQ(with_file.index_io_stats().saves, 1u);
    const StatusOr<LoadedIndex> reloaded =
        LoadIndex(path_, graph_, options_, {});
    EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  }

  UncertainGraph graph_ = UncertainGraph::Undirected(0);
  WorldBank::Options options_;
  std::string path_;
  std::vector<unsigned char> pristine_;
  IndexFileInfo info_;
};

TEST_P(IndexIoCorruptionTest, TruncationAtEveryBoundaryIsIoError) {
  std::vector<size_t> cuts = {0, 1, sizeof(IndexFileHeader) - 1,
                              sizeof(IndexFileHeader)};
  for (const IndexSectionEntry& s : info_.sections) {
    cuts.push_back(s.offset);
    cuts.push_back(s.offset + s.length / 2);
    cuts.push_back(s.offset + s.length);
  }
  cuts.push_back(pristine_.size() - 1);
  for (const size_t cut : cuts) {
    std::vector<unsigned char> bytes(pristine_.begin(),
                                     pristine_.begin() + cut);
    WriteFileBytes(path_, bytes);
    EXPECT_EQ(LoadCode(), StatusCode::kIoError) << "cut at " << cut;
  }
  WriteFileBytes(path_, pristine_.begin() == pristine_.end()
                            ? pristine_
                            : std::vector<unsigned char>(
                                  pristine_.begin(), pristine_.end() - 1));
  ExpectEngineRebuildFallback();
}

TEST_P(IndexIoCorruptionTest, BitFlipInEverySectionIsIoError) {
  for (size_t i = 0; i < info_.sections.size(); ++i) {
    const IndexSectionEntry& s = info_.sections[i];
    if (s.length == 0) continue;  // no byte to flip
    std::vector<unsigned char> bytes = pristine_;
    bytes[s.offset + s.length / 2] ^= 0x10;
    WriteFileBytes(path_, bytes);
    std::string message;
    EXPECT_EQ(LoadCode(&message), StatusCode::kIoError) << "section " << i;
    EXPECT_NE(message.find("checksum"), std::string::npos) << message;
  }
  ExpectEngineRebuildFallback();
}

TEST_P(IndexIoCorruptionTest, BitFlipInSectionTableIsIoError) {
  std::vector<unsigned char> bytes = pristine_;
  // Flip a low bit of the first entry's length. Depending on how the lie
  // interacts with the 64-byte layout walk this surfaces as a layout error
  // or a table-checksum mismatch — either way it must be typed, never UB.
  bytes[sizeof(IndexFileHeader) + offsetof(IndexSectionEntry, length)] ^= 1;
  WriteFileBytes(path_, bytes);
  const StatusCode code = LoadCode();
  EXPECT_TRUE(code == StatusCode::kIoError ||
              code == StatusCode::kInvalidArgument)
      << static_cast<int>(code);
  ExpectEngineRebuildFallback();
}

TEST_P(IndexIoCorruptionTest, SwappedDigestIsFailedPrecondition) {
  std::vector<unsigned char> bytes = pristine_;
  uint64_t digest;
  std::memcpy(&digest, bytes.data() + offsetof(IndexFileHeader, graph_digest),
              sizeof(digest));
  digest ^= 0xdeadbeef;
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, graph_digest), &digest,
              sizeof(digest));
  WriteFileBytes(path_, bytes);
  std::string message;
  EXPECT_EQ(LoadCode(&message), StatusCode::kFailedPrecondition);
  EXPECT_NE(message.find("different graph"), std::string::npos) << message;
  ExpectEngineRebuildFallback();
}

TEST_P(IndexIoCorruptionTest, HeaderLyingAboutZIsTyped) {
  // A file whose header claims a different Z than the caller expects is a
  // key mismatch (the honest case: a stale file saved under other options).
  std::vector<unsigned char> bytes = pristine_;
  uint32_t z = kZ + 64;
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, num_worlds), &z,
              sizeof(z));
  WriteFileBytes(path_, bytes);
  std::string message;
  EXPECT_EQ(LoadCode(&message), StatusCode::kFailedPrecondition);
  EXPECT_NE(message.find("worlds"), std::string::npos) << message;

  // A header whose derived fields disagree with each other (world_words
  // cannot match a lied-about Z) is structural corruption.
  bytes = pristine_;
  uint32_t words = kZ / 64 + 7;
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, world_words), &words,
              sizeof(words));
  WriteFileBytes(path_, bytes);
  EXPECT_EQ(LoadCode(), StatusCode::kInvalidArgument);
  ExpectEngineRebuildFallback();
}

TEST_P(IndexIoCorruptionTest, ZeroedFooterIsIoError) {
  std::vector<unsigned char> bytes = pristine_;
  const size_t footer_bytes =
      (2 + info_.sections.size()) * sizeof(uint64_t);
  std::memset(bytes.data() + bytes.size() - footer_bytes, 0, footer_bytes);
  WriteFileBytes(path_, bytes);
  std::string message;
  EXPECT_EQ(LoadCode(&message), StatusCode::kIoError);
  EXPECT_NE(message.find("footer"), std::string::npos) << message;
  ExpectEngineRebuildFallback();
}

TEST_P(IndexIoCorruptionTest, BadMagicAndVersionAreFailedPrecondition) {
  std::vector<unsigned char> bytes = pristine_;
  bytes[0] ^= 0xff;
  WriteFileBytes(path_, bytes);
  EXPECT_EQ(LoadCode(), StatusCode::kFailedPrecondition);

  bytes = pristine_;
  uint32_t version = kIndexFormatVersion + 1;
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, format_version),
              &version, sizeof(version));
  WriteFileBytes(path_, bytes);
  EXPECT_EQ(LoadCode(), StatusCode::kFailedPrecondition);
  ExpectEngineRebuildFallback();
}

TEST_P(IndexIoCorruptionTest, ShardedLayoutHeaderIsFailedPrecondition) {
  // Edge-cut sharded builds wrote format version 1 with a 2-partition,
  // 2-shard layout in what are now reserved fields. The version check
  // refuses such a file with a typed error before any payload is read.
  std::vector<unsigned char> bytes = pristine_;
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, format_version), &v1,
              sizeof(v1));
  const uint32_t layout[2] = {2, 2};
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, reserved_layout),
              layout, sizeof(layout));
  WriteFileBytes(path_, bytes);
  std::string message;
  EXPECT_EQ(LoadCode(&message), StatusCode::kFailedPrecondition);
  EXPECT_NE(message.find("version 1"), std::string::npos) << message;
  EXPECT_EQ(InspectIndexFile(path_).status().code(),
            StatusCode::kFailedPrecondition);
  ExpectEngineRebuildFallback();
}

TEST_P(IndexIoCorruptionTest, KeyedDrawPredecessorVersionIsFailedPrecondition) {
  // Version 2 files hold bank rows from the per-word draw stream that keyed
  // world draws replaced: adopting them would serve worlds a fresh engine
  // never draws. They fail typed, and the engine rebuilds to the answer a
  // fresh engine gives.
  std::vector<unsigned char> bytes = pristine_;
  const uint32_t v2 = 2;
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, format_version), &v2,
              sizeof(v2));
  WriteFileBytes(path_, bytes);
  std::string message;
  EXPECT_EQ(LoadCode(&message), StatusCode::kFailedPrecondition);
  EXPECT_NE(message.find("version 2"), std::string::npos) << message;
  EXPECT_EQ(InspectIndexFile(path_).status().code(),
            StatusCode::kFailedPrecondition);
  ExpectEngineRebuildFallback();
}

TEST_P(IndexIoCorruptionTest, FirstAppearanceLabelVersionIsFailedPrecondition) {
  // Version 3 files hold labels numbered by first appearance in node order.
  // They answer correctly, but a merge after a write would leave label bits
  // (and a republished file) unlike a fresh build's. They fail typed, and
  // the engine rebuilds to the answer a fresh engine gives.
  std::vector<unsigned char> bytes = pristine_;
  const uint32_t v3 = 3;
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, format_version), &v3,
              sizeof(v3));
  WriteFileBytes(path_, bytes);
  std::string message;
  EXPECT_EQ(LoadCode(&message), StatusCode::kFailedPrecondition);
  EXPECT_NE(message.find("version 3"), std::string::npos) << message;
  EXPECT_EQ(InspectIndexFile(path_).status().code(),
            StatusCode::kFailedPrecondition);
  ExpectEngineRebuildFallback();
}

INSTANTIATE_TEST_SUITE_P(Directedness, IndexIoCorruptionTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Directed" : "Undirected";
                         });

TEST(IndexIoEngineTest, BatchLoadElseBuildAndSave) {
  const UncertainGraph g = RandomGraph(55, 11, 0.3, false);
  const std::string path = TempPath("engine_lifecycle.rmx");
  std::remove(path.c_str());
  QueryEngineOptions options;
  options.num_samples = kZ;
  options.index_file = path;

  // First engine: no file yet — silent build-and-save.
  QueryEngine builder(g, options);
  const StatusOr<double> built = builder.EstimateSt(0, 9);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(builder.index_io_stats().loads, 0u);
  EXPECT_EQ(builder.index_io_stats().load_failures, 0u);
  EXPECT_EQ(builder.index_io_stats().saves, 1u);
  EXPECT_EQ(builder.index_io_stats().generation, 1u);
  ASSERT_NE(builder.index(), nullptr);
  EXPECT_GT(builder.index()->stats().worlds_relabeled, 0u);

  // Second engine: loads, answers identically, relabels nothing.
  QueryEngine loader(g, options);
  const StatusOr<double> loaded = loader.EstimateSt(0, 9);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, *built);
  EXPECT_EQ(loader.index_io_stats().loads, 1u);
  EXPECT_EQ(loader.index_io_stats().saves, 0u);
  EXPECT_EQ(loader.index_io_stats().generation, 1u);
  ASSERT_NE(loader.index(), nullptr);
  EXPECT_EQ(loader.index()->stats().worlds_relabeled, 0u);
}

TEST(IndexIoEngineTest, IncrementalRelabelRepublishesWithBumpedGeneration) {
  UncertainGraph g = RandomGraph(77, 10, 0.3, false);
  const std::string path = TempPath("engine_republish.rmx");
  std::remove(path.c_str());
  QueryEngineOptions options;
  options.num_samples = kZ;
  options.index_file = path;

  QueryEngine engine(g, options);
  ASSERT_TRUE(engine.EstimateSt(0, 9).ok());
  EXPECT_EQ(engine.index_io_stats().generation, 1u);

  const Edge first = g.EdgesById()[0];
  ASSERT_TRUE(g.UpdateEdgeProb(first.src, first.dst, 0.999).ok());
  const StatusOr<double> after = engine.EstimateSt(0, 9);
  ASSERT_TRUE(after.ok());
  // Incremental maintenance ran (not a from-scratch second build)...
  ASSERT_NE(engine.index(), nullptr);
  EXPECT_EQ(engine.index()->stats().incremental_updates, 1u);
  // ...and republished atomically with the generation bumped.
  EXPECT_EQ(engine.index_io_stats().saves, 2u);
  EXPECT_EQ(engine.index_io_stats().generation, 2u);

  // A brand-new engine over the mutated graph loads generation 2 and agrees
  // with a fresh no-file engine bit for bit.
  QueryEngine reloaded(g, options);
  QueryEngineOptions no_file = options;
  no_file.index_file.clear();
  no_file.use_index = true;
  QueryEngine fresh(g, no_file);
  const StatusOr<double> a = reloaded.EstimateSt(0, 9);
  const StatusOr<double> b = fresh.EstimateSt(0, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(reloaded.index_io_stats().loads, 1u);
  EXPECT_EQ(reloaded.index_io_stats().generation, 2u);
}

TEST(IndexIoEngineTest, StaleFileFromOldGraphRebuildsAndRepublishes) {
  // A file saved for the pre-mutation graph is keyed on its digest; a new
  // engine over the mutated graph must reject it (typed), rebuild, republish.
  UncertainGraph g = RandomGraph(88, 9, 0.35, false);
  const std::string path = TempPath("engine_stale.rmx");
  std::remove(path.c_str());
  QueryEngineOptions options;
  options.num_samples = kZ;
  options.index_file = path;
  {
    QueryEngine engine(g, options);
    ASSERT_TRUE(engine.EstimateSt(0, 8).ok());
  }
  const Edge first = g.EdgesById()[0];
  ASSERT_TRUE(g.UpdateEdgeProb(first.src, first.dst, 0.123).ok());
  QueryEngine engine(g, options);
  const StatusOr<double> got = engine.EstimateSt(0, 8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(engine.index_io_stats().load_failures, 1u);
  EXPECT_EQ(engine.index_io_stats().saves, 1u);
  QueryEngineOptions no_file = options;
  no_file.index_file.clear();
  no_file.use_index = true;
  QueryEngine fresh(g, no_file);
  const StatusOr<double> want = fresh.EstimateSt(0, 8);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST(IndexIoEngineTest, SaveFailureWarnsButKeepsAnswering) {
  const UncertainGraph g = RandomGraph(99, 8, 0.3, false);
  QueryEngineOptions options;
  options.num_samples = kZ;
  options.index_file = "/nonexistent-dir/cannot/write/index.rmx";
  QueryEngine engine(g, options);
  const StatusOr<double> got = engine.EstimateSt(0, 7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(engine.index_io_stats().saves, 0u);
  QueryEngineOptions no_file = options;
  no_file.index_file.clear();
  no_file.use_index = true;
  QueryEngine fresh(g, no_file);
  const StatusOr<double> want = fresh.EstimateSt(0, 7);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

}  // namespace
}  // namespace relmax
