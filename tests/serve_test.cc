// Online query daemon: protocol parsing, scripted-stream answers pinned
// bit-identical to the batch engine, response ordering, typed shed /
// rejection, epoch-snapshot semantics under a concurrent writer (readers on
// epoch N never see N+1) with every lane sharing one engine per epoch, due
// windows split by source over idle lanes and timed from their oldest
// arrival, the epoch-scoped cache stats, one index-file save per epoch from
// the writer, and socket serving with a clean shutdown. Carries the
// `sanitize` CTest label: the snapshot/lane handoffs are exactly where
// instrumented builds earn their keep.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/uncertain_graph.h"
#include "index/index_io.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "serve/protocol.h"
#include "serve/serve_core.h"
#include "serve/server.h"
#include "serve/snapshot.h"

#ifndef _WIN32
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace relmax {
namespace {

using serve::ParseRequest;
using serve::Request;
using serve::RequestKind;
using serve::ServeCore;
using serve::ServeOptions;
using serve::ServeStats;
using serve::Server;

// The README's Example-3 graph: 2 -> 1 (0.9), 2 -> 3 (0.3), node 0 isolated.
UncertainGraph Example3() {
  UncertainGraph g = UncertainGraph::Directed(4);
  EXPECT_TRUE(g.AddEdge(2, 1, 0.9).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.3).ok());
  return g;
}

UncertainGraph RandomGraph(uint64_t seed, NodeId n, double density) {
  Rng rng(seed);
  UncertainGraph g = UncertainGraph::Directed(n);
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

// ------------------------------------------------------------ protocol

TEST(ServeProtocolTest, ParsesEveryCommand) {
  auto q = ParseRequest("query 2 3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, RequestKind::kQuery);
  EXPECT_EQ(q->s, 2u);
  EXPECT_EQ(q->t, 3u);

  auto u = ParseRequest("  update 0 1 0.25  ");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->kind, RequestKind::kUpdate);
  EXPECT_DOUBLE_EQ(u->p, 0.25);

  auto a = ParseRequest("addedge 1 2 1");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->kind, RequestKind::kAddEdge);

  EXPECT_EQ(ParseRequest("stats")->kind, RequestKind::kStats);
  EXPECT_EQ(ParseRequest("epoch")->kind, RequestKind::kEpoch);
  EXPECT_EQ(ParseRequest("quit")->kind, RequestKind::kQuit);
  EXPECT_EQ(ParseRequest("shutdown")->kind, RequestKind::kShutdown);
}

TEST(ServeProtocolTest, CommentsAndBlankLinesConsumeNoSlot) {
  EXPECT_EQ(ParseRequest("")->kind, RequestKind::kComment);
  EXPECT_EQ(ParseRequest("   ")->kind, RequestKind::kComment);
  EXPECT_EQ(ParseRequest("# query 2 3")->kind, RequestKind::kComment);
}

TEST(ServeProtocolTest, MalformedLinesAreTypedInvalidArgument) {
  for (const char* line :
       {"flood 2 3", "query", "query 2", "query 2 3 4", "query a b",
        "query -1 3", "update 2 3", "update 2 3 1.5", "update 2 3 -0.1",
        "update 2 3 nope", "stats now", "quit 1"}) {
    const auto parsed = ParseRequest(line);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ServeProtocolTest, QueryResponseMatchesBatchRowFormat) {
  EXPECT_EQ(serve::QueryResponse(2, 3, 0.30035), "R(2, 3) = 0.3004");
  EXPECT_EQ(serve::QueryResponse(0, 3, 0.0), "R(0, 3) = 0.0000");
}

// ------------------------------------------------------------ scripted streams

// The tentpole contract end to end: a scripted stream's R( rows are
// bit-identical to one QueryEngine batch over the same pairs — micro-batch
// windowing must not be observable in the values.
TEST(ServeServerTest, ScriptedStreamMatchesBatchEngine) {
  const UncertainGraph g = RandomGraph(11, 24, 0.12);
  std::vector<StQuery> pairs;
  QuerySet set;
  Rng rng(99);
  std::istringstream in([&] {
    std::string script;
    for (int i = 0; i < 40; ++i) {
      const NodeId s = static_cast<NodeId>(rng.NextUint64(24));
      const NodeId t = static_cast<NodeId>(rng.NextUint64(24));
      pairs.push_back({s, t});
      set.AddSt(s, t);
      script += "query " + std::to_string(s) + " " + std::to_string(t) + "\n";
    }
    return script + "quit\n";
  }());

  ServeOptions options;
  options.engine.num_samples = 400;
  options.engine.seed = 5;
  Server server(g, options);
  std::ostringstream out;
  const ServeStats stats = server.Run(in, out);
  EXPECT_EQ(stats.answered, 40u);

  QueryEngine reference(g, options.engine);
  const auto batch = reference.Answer(set);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::string expected;
  for (size_t i = 0; i < pairs.size(); ++i) {
    expected +=
        serve::QueryResponse(pairs[i].s, pairs[i].t, batch->st_values[i]) +
        "\n";
  }
  expected += "OK bye\n";
  EXPECT_EQ(out.str(), expected);
}

// Responses come back in request order even when lanes answer windows
// concurrently and out of order.
TEST(ServeServerTest, ResponsesArriveInRequestOrder) {
  const UncertainGraph g = RandomGraph(13, 16, 0.15);
  std::string script;
  std::vector<StQuery> pairs;
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextUint64(16));
    const NodeId t = static_cast<NodeId>(rng.NextUint64(16));
    pairs.push_back({s, t});
    script += "query " + std::to_string(s) + " " + std::to_string(t) + "\n";
  }
  script += "quit\n";

  ServeOptions options;
  options.engine.num_samples = 200;
  options.max_batch = 4;   // many small windows
  options.window_us = 0;   // drain eagerly
  options.lanes = 4;       // raced across lanes
  Server server(g, options);
  std::istringstream in(script);
  std::ostringstream out;
  server.Run(in, out);

  std::istringstream lines(out.str());
  std::string line;
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    const std::string prefix = "R(" + std::to_string(pairs[i].s) + ", " +
                               std::to_string(pairs[i].t) + ") = ";
    EXPECT_EQ(line.compare(0, prefix.size(), prefix), 0)
        << "line " << i << ": " << line;
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK bye");
}

// Lanes {1, 4} at threads 1 run their engine on 1 and 4 workers, so the
// same stream's windows flood whole rows or split each source's worlds into
// ranges. The rows must not show it: bursts from one source and bursts from
// many give the batch engine's values either way.
TEST(ServeServerTest, LanesShareRowsAtOneThread) {
  const UncertainGraph g = RandomGraph(17, 40, 0.08);
  std::vector<StQuery> pairs;
  Rng rng(21);
  for (int burst = 0; burst < 8; ++burst) {
    const NodeId source = static_cast<NodeId>(rng.NextUint64(40));
    for (int i = 0; i < 10; ++i) {
      const NodeId s = burst % 2 == 0 ? source
                                      : static_cast<NodeId>(rng.NextUint64(40));
      pairs.push_back({s, static_cast<NodeId>(rng.NextUint64(40))});
    }
  }
  std::string script;
  QuerySet set;
  for (const StQuery& q : pairs) {
    set.AddSt(q.s, q.t);
    script +=
        "query " + std::to_string(q.s) + " " + std::to_string(q.t) + "\n";
  }
  script += "quit\n";

  ServeOptions options;
  options.engine.num_samples = 2000;  // 4 lane blocks to split
  options.engine.seed = 9;
  options.max_batch = 10;
  QueryEngine reference(g, options.engine);
  const auto batch = reference.Answer(set);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::string expected;
  for (size_t i = 0; i < pairs.size(); ++i) {
    expected +=
        serve::QueryResponse(pairs[i].s, pairs[i].t, batch->st_values[i]) +
        "\n";
  }
  expected += "OK bye\n";

  for (const int lanes : {1, 4}) {
    options.lanes = lanes;
    Server server(g, options);
    EXPECT_EQ(server.core().CurrentSnapshot()->engine().options().num_threads,
              lanes);
    std::istringstream in(script);
    std::ostringstream out;
    server.Run(in, out);
    EXPECT_EQ(out.str(), expected) << "lanes " << lanes;
  }
}

TEST(ServeServerTest, ShedIsTypedUnavailable) {
  ServeOptions options;
  options.max_queue = 0;  // shed everything
  Server server(Example3(), options);
  std::istringstream in("query 2 3\nquery 2 1\nquit\n");
  std::ostringstream out;
  const ServeStats stats = server.Run(in, out);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.answered, 0u);
  std::istringstream lines(out.str());
  std::string line;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.compare(0, 16, "ERR Unavailable:"), 0) << line;
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK bye");
}

TEST(ServeServerTest, InvalidQueryIsTypedErrorAndStreamContinues) {
  ServeOptions options;
  options.engine.num_samples = 200;
  options.engine.seed = 5;
  Server server(Example3(), options);
  std::istringstream in("query 9 0\nbogus 1 2\nquery 2 1\nquit\n");
  std::ostringstream out;
  const ServeStats stats = server.Run(in, out);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.answered, 1u);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.compare(0, 20, "ERR InvalidArgument:"), 0) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.compare(0, 20, "ERR InvalidArgument:"), 0) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.compare(0, 8, "R(2, 1) "), 0) << line;
}

// Regression: node ids were cast from unsigned long, so 4294967298 wrapped
// to node 2 — the query answered R(2, 1) and the update published an epoch
// that rewrote edge (2, 1). Both must be typed errors that publish nothing.
TEST(ServeServerTest, NodeIdsPastNodeIdRangeAreInvalidArgument) {
  ServeOptions options;
  options.engine.num_samples = 200;
  options.engine.seed = 5;
  Server server(Example3(), options);
  std::istringstream in(
      "epoch\nquery 4294967298 1\nupdate 4294967298 1 0.5\nepoch\nquit\n");
  std::ostringstream out;
  const ServeStats stats = server.Run(in, out);
  EXPECT_EQ(stats.answered, 0u);
  EXPECT_EQ(stats.updates, 0u);
  std::istringstream lines(out.str());
  std::string before;
  std::string line;
  ASSERT_TRUE(std::getline(lines, before));
  EXPECT_EQ(before.compare(0, 9, "epoch: 0 "), 0) << before;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.compare(0, 20, "ERR InvalidArgument:"), 0) << line;
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, before);  // same epoch, same version
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK bye");
}

// A client streaming bytes with no newline cannot grow the daemon's memory:
// the line is answered with one typed error, the reader resynchronizes at
// the next newline, and the stream carries on with batch-identical answers.
TEST(ServeServerTest, OverlongAndNulLinesAreTypedErrorsAndStreamResyncs) {
  const UncertainGraph g = Example3();
  ServeOptions options;
  options.engine.num_samples = 200;
  options.engine.seed = 5;
  Server server(g, options);
  std::string script(size_t{2} << 20, 'x');
  script += "\nquery 2 3\nquery 2";
  script += '\0';
  script += " 1\nquery 2 1\nquit\n";
  std::istringstream in(script);
  std::ostringstream out;
  server.Run(in, out);

  QueryEngine reference(g, options.engine);
  QuerySet set;
  set.AddSt(2, 3);
  set.AddSt(2, 1);
  const auto batch = reference.Answer(set);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(out.str(), "ERR InvalidArgument: line too long\n" +
                           serve::QueryResponse(2, 3, batch->st_values[0]) +
                           "\nERR InvalidArgument: NUL byte in line\n" +
                           serve::QueryResponse(2, 1, batch->st_values[1]) +
                           "\nOK bye\n");
}

// ------------------------------------------------------------ epochs

// A query submitted before a publish answers on the old epoch; one submitted
// after answers on the new epoch — and each reports the epoch it was pinned
// to.
TEST(ServeCoreTest, UpdatePublishesEpochAndPinsInFlightQueries) {
  ServeOptions options;
  options.engine.num_samples = 2000;
  options.engine.seed = 5;
  ServeCore core(Example3(), options);

  double before = -1.0, after = -1.0;
  uint64_t before_epoch = 99, after_epoch = 99;
  core.Submit(2, 3, [&](const StatusOr<double>& r, uint64_t epoch) {
    ASSERT_TRUE(r.ok());
    before = *r;
    before_epoch = epoch;
  });
  core.Drain();

  const auto epoch = core.UpdateEdgeProb(2, 3, 0.9);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1u);
  EXPECT_EQ(core.CurrentSnapshot()->epoch(), 1u);

  core.Submit(2, 3, [&](const StatusOr<double>& r, uint64_t epoch) {
    ASSERT_TRUE(r.ok());
    after = *r;
    after_epoch = epoch;
  });
  core.Drain();

  EXPECT_EQ(before_epoch, 0u);
  EXPECT_EQ(after_epoch, 1u);
  EXPECT_GT(after, before);  // 0.3 edge raised to 0.9

  // Mutating a missing edge is a typed failure, not a new epoch.
  const auto missing = core.UpdateEdgeProb(0, 1, 0.5);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(core.CurrentSnapshot()->epoch(), 1u);
}

// The epoch-scoped result-cache stats read the current epoch's engine, so
// they reset on publish (the new epoch's engine starts with an empty cache)
// while the lifetime total keeps counting.
TEST(ServeCoreTest, EvictionStatsResetAcrossEpochSwap) {
  ServeOptions options;
  options.engine.num_samples = 200;
  options.engine.max_cache_entries = 2;
  options.window_us = 0;
  ServeCore core(Example3(), options);

  // Four distinct pairs through a 2-entry FIFO cache: 2 evictions.
  for (const auto& [s, t] : std::vector<std::pair<NodeId, NodeId>>{
           {2, 3}, {2, 1}, {0, 3}, {1, 3}}) {
    core.Submit(s, t, [](const StatusOr<double>& r, uint64_t) {
      ASSERT_TRUE(r.ok());
    });
    core.Drain();  // one window per query: deterministic eviction count
  }
  ServeStats stats = core.Stats();
  EXPECT_EQ(stats.cache_evictions_total, 2u);
  EXPECT_EQ(stats.cache_evictions_epoch, 2u);
  EXPECT_EQ(stats.cache_entries, 2u);

  const auto epoch = core.UpdateEdgeProb(2, 3, 0.9);
  ASSERT_TRUE(epoch.ok());
  stats = core.Stats();
  EXPECT_EQ(stats.cache_evictions_total, 2u);  // lifetime count survives
  EXPECT_EQ(stats.cache_evictions_epoch, 0u);  // epoch-scoped count resets
  EXPECT_EQ(stats.cache_entries, 0u);

  core.Submit(2, 3, [](const StatusOr<double>& r, uint64_t) {
    ASSERT_TRUE(r.ok());
  });
  core.Drain();
  stats = core.Stats();
  EXPECT_EQ(stats.cache_evictions_epoch, 0u);  // new cache, no pressure yet
  EXPECT_EQ(stats.cache_entries, 1u);
}

// A due window is split by source over the idle lanes. Each callback holds
// its lane (for 10 s at most) until a callback has fired on every lane, so
// the second cut always finds the first lane busy: at lanes 2 the first cut
// sees 2 idle lanes and takes half the sources, the second sees 1 and takes
// the rest. A source's queries stay on one lane (floods == sources), and
// every value equals one batch over the whole set.
TEST(ServeCoreTest, DueWindowSplitsBySourceOverIdleLanes) {
  const UncertainGraph g = RandomGraph(23, 32, 0.1);
  struct Case {
    int lanes;
    NodeId sources;
    uint64_t batches;
    size_t max_window;
  };
  for (const Case& c :
       std::vector<Case>{{2, 8, 2, 4}, {2, 2, 2, 4}, {1, 8, 1, 8}}) {
    SCOPED_TRACE("lanes " + std::to_string(c.lanes) + ", sources " +
                 std::to_string(c.sources));
    std::vector<StQuery> pairs;
    QuerySet set;
    for (NodeId i = 0; i < 8; ++i) {
      pairs.push_back({i % c.sources, 31 - i});
      set.AddSt(pairs.back().s, pairs.back().t);
    }
    ServeOptions options;
    options.engine.num_samples = 1000;
    options.engine.seed = 3;
    options.window_us = 200000;  // all 8 submits land in one window
    options.lanes = c.lanes;

    std::mutex mu;
    std::condition_variable cv;
    std::set<std::thread::id> lanes_seen;
    std::vector<double> values(pairs.size(), -1.0);
    const auto gate =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    ServeCore core(g, options);
    for (size_t i = 0; i < pairs.size(); ++i) {
      core.Submit(pairs[i].s, pairs[i].t,
                  [&, i](const StatusOr<double>& r, uint64_t) {
                    EXPECT_TRUE(r.ok()) << r.status().ToString();
                    std::unique_lock<std::mutex> lock(mu);
                    values[i] = r.ok() ? *r : -1.0;
                    lanes_seen.insert(std::this_thread::get_id());
                    cv.notify_all();
                    cv.wait_until(lock, gate, [&] {
                      return lanes_seen.size() >=
                             static_cast<size_t>(c.lanes);
                    });
                  });
    }
    core.Drain();
    const ServeStats stats = core.Stats();
    EXPECT_EQ(stats.batches, c.batches);
    EXPECT_EQ(stats.max_window, c.max_window);
    EXPECT_EQ(stats.floods, c.sources);
    EXPECT_EQ(stats.answered, pairs.size());

    const auto batch = QueryEngine(g, options.engine).Answer(set);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(values[i], batch->st_values[i]) << "query " << i;
    }
  }
}

// The window is timed from the oldest pending arrival, not from when a lane
// frees up. A query submitted while the only lane is held ~300 ms by a
// callback is already due (200 ms window) when the lane returns, so it is
// answered ~300 ms after its submit; timing the window from the lane's
// wake-up would answer it ~500 ms after.
TEST(ServeCoreTest, WindowIsTimedFromTheOldestArrival) {
  ServeOptions options;
  options.engine.num_samples = 200;
  options.window_us = 200000;
  ServeCore core(Example3(), options);

  std::promise<void> holding;
  core.Submit(2, 3, [&](const StatusOr<double>& r, uint64_t) {
    EXPECT_TRUE(r.ok());
    holding.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  holding.get_future().wait();

  const auto submitted = std::chrono::steady_clock::now();
  std::promise<std::chrono::steady_clock::time_point> answered;
  core.Submit(2, 1, [&](const StatusOr<double>& r, uint64_t) {
    EXPECT_TRUE(r.ok());
    answered.set_value(std::chrono::steady_clock::now());
  });
  const auto latency = answered.get_future().get() - submitted;
  core.Drain();
  EXPECT_LT(latency, std::chrono::milliseconds(450))
      << std::chrono::duration_cast<std::chrono::milliseconds>(latency)
             .count()
      << " ms";
}

// Readers pinned on epoch N keep answering bit-identically to a
// pre-computed epoch-N reference while a writer publishes N+1, N+2, ... —
// snapshots are immutable, and through the core every answer matches the
// reference for the epoch it reports. Runs at lanes {1, 4} on the flood and
// index paths: lanes share each epoch's engine.
class SnapshotReadersTest
    : public testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SnapshotReadersTest, SnapshotReadersAreImmuneToConcurrentWriter) {
  const auto [lanes, use_index] = GetParam();
  const UncertainGraph g = RandomGraph(7, 20, 0.15);
  QueryEngineOptions engine_options;
  engine_options.num_samples = 300;
  engine_options.seed = 5;
  engine_options.use_index = use_index;

  // Reference answers per epoch, computed serially up front on private
  // copies that replay the same mutation sequence the writer will publish.
  const std::vector<StQuery> pairs = {{0, 5}, {3, 9}, {7, 2}, {14, 1}};
  const std::vector<Edge> mutations = {
      {0, 5, 0.99}, {3, 9, 0.99}, {7, 2, 0.99}, {14, 1, 0.99}};
  QuerySet set;
  for (const StQuery& q : pairs) set.AddSt(q.s, q.t);
  std::vector<std::vector<double>> reference;  // [epoch][pair]
  {
    UncertainGraph replica = g;
    for (size_t e = 0; e <= mutations.size(); ++e) {
      QueryEngine engine(replica, engine_options);
      const auto batch = engine.Answer(set);
      ASSERT_TRUE(batch.ok());
      reference.push_back(batch->st_values);
      if (e < mutations.size()) {
        const Edge& m = mutations[e];
        ASSERT_TRUE((replica.HasEdge(m.src, m.dst)
                         ? replica.UpdateEdgeProb(m.src, m.dst, m.prob)
                         : replica.AddEdge(m.src, m.dst, m.prob))
                        .ok());
      }
    }
  }

  ServeOptions options;
  options.engine = engine_options;
  options.window_us = 0;
  options.lanes = lanes;
  ServeCore core(g, options);

  // Readers pin the epoch-0 snapshot directly and hammer it with their own
  // engines while the writer publishes every mutation: every answer must
  // stay bit-identical to the epoch-0 reference.
  const std::shared_ptr<const serve::GraphSnapshot> pinned =
      core.CurrentSnapshot();
  ASSERT_EQ(pinned->epoch(), 0u);
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int iter = 0; iter < 3; ++iter) {
        QueryEngine engine(pinned->graph(), engine_options);
        const auto batch = engine.Answer(set);
        if (!batch.ok() || batch->st_values != reference[0]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  std::thread writer([&] {
    while (!go.load()) std::this_thread::yield();
    for (const Edge& m : mutations) {
      const auto epoch = core.CurrentSnapshot()->graph().HasEdge(m.src, m.dst)
                             ? core.UpdateEdgeProb(m.src, m.dst, m.prob)
                             : core.AddEdge(m.src, m.dst, m.prob);
      ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    }
  });

  // Meanwhile, queries submitted through the core must match the reference
  // for whichever epoch they report being pinned to.
  std::mutex check_mu;
  std::vector<std::pair<uint64_t, std::pair<size_t, double>>> answers;
  go.store(true);
  for (int round = 0; round < 20; ++round) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      core.Submit(pairs[i].s, pairs[i].t,
                  [&, i](const StatusOr<double>& r, uint64_t epoch) {
                    ASSERT_TRUE(r.ok());
                    std::lock_guard<std::mutex> lock(check_mu);
                    answers.push_back({epoch, {i, *r}});
                  });
    }
  }
  writer.join();
  core.Drain();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_EQ(core.CurrentSnapshot()->epoch(), mutations.size());
  EXPECT_EQ(pinned->epoch(), 0u);  // the pinned snapshot never moved
  for (const auto& [epoch, idx_value] : answers) {
    ASSERT_LT(epoch, reference.size());
    EXPECT_EQ(idx_value.second, reference[epoch][idx_value.first])
        << "epoch " << epoch << " pair " << idx_value.first;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LanesByPath, SnapshotReadersTest,
    testing::Combine(testing::Values(1, 4), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "lanes" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_index" : "_flood");
    });

// Each published snapshot carries its graph's version counter: the boot
// version plus one per mutation.
TEST(ServeCoreTest, SnapshotVersionTracksMutations) {
  ServeCore core(Example3(), ServeOptions{});
  const uint64_t v0 = core.CurrentSnapshot()->version();
  ASSERT_TRUE(core.UpdateEdgeProb(2, 3, 0.5).ok());
  EXPECT_EQ(core.CurrentSnapshot()->version(), v0 + 1);
  ASSERT_TRUE(core.AddEdge(0, 1, 0.4).ok());
  EXPECT_EQ(core.CurrentSnapshot()->version(), v0 + 2);
}

// With an index file and several lanes, the file is written once per epoch
// and only by the writer: the boot epoch's first query builds and saves
// generation 1, and each of k mutations derives the next epoch and saves
// once more, so the file ends at generation k + 1 — and it loads for the
// final graph. Every answer still equals a fresh engine's for its epoch.
TEST(ServeCoreTest, IndexFileIsSavedOncePerEpochByTheWriter) {
  const std::string path = testing::TempDir() + "/relmax_serve_epochs.idx";
  std::remove(path.c_str());
  const UncertainGraph g = RandomGraph(17, 18, 0.15);
  ServeOptions options;
  options.engine.num_samples = 256;
  options.engine.seed = 9;
  options.engine.index_file = path;
  options.lanes = 4;
  options.window_us = 0;
  ServeCore core(g, options);

  QueryEngineOptions reference_options = options.engine;
  reference_options.index_file.clear();
  reference_options.use_index = true;
  const auto query_matches_reference = [&](NodeId s, NodeId t) {
    double served = -1.0;
    core.Submit(s, t, [&](const StatusOr<double>& r, uint64_t) {
      ASSERT_TRUE(r.ok());
      served = *r;
    });
    core.Drain();
    QueryEngine reference(core.CurrentSnapshot()->graph(), reference_options);
    const auto expected = reference.EstimateSt(s, t);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(served, *expected) << "(" << s << ", " << t << ")";
  };

  query_matches_reference(0, 9);
  const std::vector<Edge> mutations = {
      {0, 9, 0.97}, {3, 11, 0.8}, {5, 2, 0.6}, {0, 9, 0.1}};
  for (const Edge& m : mutations) {
    const auto epoch = core.CurrentSnapshot()->graph().HasEdge(m.src, m.dst)
                           ? core.UpdateEdgeProb(m.src, m.dst, m.prob)
                           : core.AddEdge(m.src, m.dst, m.prob);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    query_matches_reference(m.src, m.dst);
  }

  const auto loaded = LoadIndex(
      path, core.CurrentSnapshot()->graph(),
      {.num_samples = options.engine.num_samples,
       .seed = options.engine.seed},
      options.engine.index);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, mutations.size() + 1);
  const IndexIoStats io = core.CurrentSnapshot()->engine().index_io_stats();
  EXPECT_EQ(io.generation, mutations.size() + 1);
  EXPECT_EQ(io.load_failures, 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ socket mode

#ifndef _WIN32
// A loopback client socket connected to `port`.
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

// Writes `request` to `fd`, optionally half-closes the sending side, then
// reads until the server closes the connection.
std::string Exchange(int fd, const std::string& request, bool half_close) {
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  if (half_close) {
    EXPECT_EQ(::shutdown(fd, SHUT_WR), 0);
  }
  std::string response;
  char buf[256];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  return response;
}

std::vector<std::string> Lines(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Every accepted connection has Nagle off: a pipelined client's second
// small response must not wait for the client's delayed ACK.
TEST(ServeServerTest, AcceptedConnectionsSetTcpNoDelay) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const int client_fd = ConnectLoopback(ntohs(addr.sin_port));
  const int conn_fd = serve::AcceptConnection(listen_fd);
  ASSERT_GE(conn_fd, 0) << std::strerror(errno);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);
  ::close(conn_fd);
  ::close(client_fd);
  ::close(listen_fd);
}

TEST(ServeServerTest, SocketServesAndShutsDown) {
  ServeOptions options;
  options.engine.num_samples = 2000;
  options.engine.seed = 5;
  Server server(Example3(), options);

  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  std::thread serving([&] {
    const Status status = server.ServePort(
        0, [&](uint16_t port) { port_promise.set_value(port); });
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  const uint16_t port = port_future.get();

  const std::vector<std::string> lines = Lines(Exchange(
      ConnectLoopback(port), "query 2 3\nshutdown\n", /*half_close=*/false));
  serving.join();  // `shutdown` stopped the listener; a leak hangs here

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].compare(0, 8, "R(2, 3) "), 0) << lines[0];
  EXPECT_EQ(lines[1], "OK bye");
}

// Regression: the connection's input and output shared one stream, so the
// EOF of a client that half-closed after its requests silenced every
// response still to be written. Each side now keeps its own stream state.
TEST(ServeServerTest, HalfClosedClientGetsEveryResponse) {
  ServeOptions options;
  options.engine.num_samples = 2000;
  options.engine.seed = 5;
  Server server(Example3(), options);

  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  std::thread serving([&] {
    const Status status = server.ServePort(
        0, [&](uint16_t port) { port_promise.set_value(port); });
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  const uint16_t port = port_future.get();

  // Exchange reads until the server closes the connection: three response
  // lines, then EOF.
  const std::vector<std::string> lines =
      Lines(Exchange(ConnectLoopback(port), "query 2 3\nquery 2 1\nepoch\n",
                     /*half_close=*/true));
  // EOF ended that stream, not the listener: stop it from a second client.
  const std::vector<std::string> bye = Lines(Exchange(
      ConnectLoopback(port), "shutdown\n", /*half_close=*/false));
  serving.join();

  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].compare(0, 8, "R(2, 3) "), 0) << lines[0];
  EXPECT_EQ(lines[1].compare(0, 8, "R(2, 1) "), 0) << lines[1];
  EXPECT_EQ(lines[2].compare(0, 9, "epoch: 0 "), 0) << lines[2];
  EXPECT_EQ(bye, std::vector<std::string>{"OK bye"});
}
#endif  // _WIN32

}  // namespace
}  // namespace relmax
