// bench_e2e: the timing-critical half of the end-to-end benchmark. run.py is
// the other half: it generates every input from the seed, spawns
// `relmax serve`, verifies the answers and prints the metrics.
//
//   bench_e2e client --port P --schedule FILE --records FILE
//                    --closed-seconds S --outstanding K --daemon-pid PID
//   bench_e2e solve  --graph FILE --seed S --seconds T --queries N --out FILE
//                    [--setup-round-seconds R]
//   bench_e2e replay --graph FILE --seed S --samples Z --window-us W
//                    --index 0|1 [--pairs FILE] --queries N --out FILE
//                    --trace-out FILE
//
// client drives a running `relmax serve --port` daemon over one pipelined
// loopback connection from a single-thread poll() loop. Open-loop phases send
// each unit at its scheduled offset whatever is still outstanding; the closed
// phase keeps K units in flight. Every request's schedule, send and receive
// times and its response line go to --records, so latency is measured from
// the *scheduled* send and a stalled daemon is charged for the requests it
// delayed. Open phases acknowledge like a default client, so the latency
// includes what Nagle's algorithm on the daemon's socket costs a real one;
// the closed phase acknowledges every read at once (TCP_QUICKACK), so its
// throughput is the daemon's, not the delayed-ACK timer's. The daemon's peak RSS is read once the open phase has drained:
// that phase offers the same work on any machine, the closed one does not.
//
// solve runs the paper's Problem 1 in-process: MaximizeReliability (BE,
// SolverOptions defaults, one thread) cycled over generated queries, then
// checks thread invariance and a positive gain at high Z.
//
// replay feeds the same inputs to each layer's public entry point with a
// span around every call, for the per-layer metrics of a traced run.
#include <poll.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/memory.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "core/solver.h"
#include "gen/queries.h"
#include "graph/graph_io.h"
#include "paths/yen.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "sampling/reliability.h"

namespace relmax {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "bench_e2e: %s\n", message.c_str());
  std::exit(1);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// VmHWM of process `pid` in kB.
int64_t PeakRssKb(int64_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  Die("no VmHWM for pid " + std::to_string(pid));
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) Die("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as JSON once the replay ends. Begin/End time
// their own bookkeeping so the tracer's cost is reported, not guessed.

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t req = -1;
  };

  int Begin(const std::string& name, int parent = -1, int64_t req = -1) {
    const int64_t t0 = NowNs();
    spans_.push_back(Span{name, 0, 0, parent, req});
    const int64_t t1 = NowNs();
    spans_.back().start_ns = t1;
    overhead_ns_ += t1 - t0;
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    const int64_t t0 = NowNs();
    spans_[static_cast<size_t>(id)].end_ns = t0;
    overhead_ns_ += NowNs() - t0;
  }

  double Ms(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  int64_t overhead_ns() const { return overhead_ns_; }

  std::string Json() const {
    std::string out = "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += "{\"id\": " + std::to_string(i) + ", \"name\": " +
             JsonString(s.name) + ", \"start_ns\": " +
             std::to_string(s.start_ns) + ", \"end_ns\": " +
             std::to_string(s.end_ns) + ", \"parent\": " +
             std::to_string(s.parent) + ", \"req\": " +
             std::to_string(s.req) + "}" +
             (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    return out + "]\n";
  }

 private:
  std::vector<Span> spans_;
  int64_t overhead_ns_ = 0;
};

// Runs `fn` inside a span and returns its duration in milliseconds.
template <typename Fn>
double Timed(Tracer& tracer, const std::string& name, int parent, int64_t req,
             Fn&& fn) {
  const int id = tracer.Begin(name, parent, req);
  fn();
  tracer.End(id);
  return tracer.Ms(id);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

// ---------------------------------------------------------------------------
// client

struct Request {
  std::string phase;
  int64_t unit = 0;
  std::string tag;  // read | write | probe | stats | quit
  double offset_s = 0.0;
  std::string line;
  int64_t sched_ns = -1;
  int64_t sent_ns = -1;
  int64_t recv_ns = -1;
  std::string response;
};

// One pipelined loopback connection. Requests are answered in order, so a
// FIFO of in-flight request indices matches every response line.
class Connection {
 public:
  explicit Connection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) Die(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      Die(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void set_quick_ack(bool on) { quick_ack_ = on; }

  void Queue(const std::string& line) {
    out_ += line;
    out_ += '\n';
  }

  // Waits for socket events until `until_ns` at the latest, writes what it
  // can, and appends every complete response line to `lines`. Returns after
  // the first round of events so callers can react to completions at once.
  void Pump(int64_t until_ns, std::vector<std::string>* lines) {
    Flush();
    const int64_t wait_ns = std::max<int64_t>(0, until_ns - NowNs());
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    pollfd pfd{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)),
               0};
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0) {
      if (errno == EINTR) return;
      Die(std::string("poll: ") + std::strerror(errno));
    }
    if (ready == 0) return;
    if (pfd.revents & (POLLERR | POLLNVAL)) Die("connection error");
    if (pfd.revents & POLLOUT) Flush();
    if (pfd.revents & (POLLIN | POLLHUP)) {
      char buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) Die("daemon closed the connection");
      if (n < 0 && errno != EAGAIN && errno != EINTR) {
        Die(std::string("recv: ") + std::strerror(errno));
      }
      if (n > 0) in_.append(buf, static_cast<size_t>(n));
      if (quick_ack_) {  // Linux clears the flag after each ACK: re-arm it
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      }
      size_t pos;
      while ((pos = in_.find('\n')) != std::string::npos) {
        lines->push_back(in_.substr(0, pos));
        in_.erase(0, pos + 1);
      }
    }
  }

 private:
  void Flush() {
    while (!out_.empty()) {
      const ssize_t n =
          ::send(fd_, out_.data(), out_.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) return;
        Die(std::string("send: ") + std::strerror(errno));
      }
      out_.erase(0, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  bool quick_ack_ = false;
  std::string out_;
  std::string in_;
};

std::vector<Request> ReadSchedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read schedule " + path);
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Request r;
    fields >> r.phase >> r.unit >> r.tag >> r.offset_s;
    std::getline(fields >> std::ws, r.line);
    if (!fields && r.line.empty()) Die("bad schedule line: " + line);
    requests.push_back(std::move(r));
  }
  return requests;
}

int RunClient(const Flags& flags) {
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const std::string schedule_path = flags.GetString("schedule", "");
  const std::string records_path = flags.GetString("records", "");
  const double closed_seconds = flags.GetDouble("closed-seconds", 3.0);
  const size_t outstanding =
      static_cast<size_t>(flags.GetInt("outstanding", 8));
  const int64_t daemon_pid = flags.GetInt("daemon-pid", 0);
  if (port == 0 || schedule_path.empty() || records_path.empty() ||
      daemon_pid <= 0) {
    Die("client needs --port, --schedule, --records and --daemon-pid");
  }
  std::vector<Request> requests = ReadSchedule(schedule_path);
  // A stuck daemon must fail the run, not hang it.
  const int64_t give_up_ns = NowNs() + int64_t{150} * 1000000000;

  Connection conn(static_cast<uint16_t>(port));
  std::deque<size_t> inflight;
  std::map<int64_t, int> unit_left;  // (phase-local) unit -> responses due
  size_t units_inflight = 0;
  std::vector<std::string> lines;

  const auto pump = [&](int64_t until_ns) {
    if (NowNs() > give_up_ns) Die("timed out waiting for the daemon");
    lines.clear();
    conn.Pump(until_ns, &lines);
    const int64_t now = NowNs();
    for (std::string& line : lines) {
      if (inflight.empty()) Die("unexpected response: " + line);
      Request& r = requests[inflight.front()];
      inflight.pop_front();
      r.recv_ns = now;
      r.response = std::move(line);
      auto it = unit_left.find(r.unit);
      if (it != unit_left.end() && --it->second == 0) {
        unit_left.erase(it);
        --units_inflight;
      }
    }
  };
  const auto send = [&](size_t i, int64_t sched_ns) {
    conn.Queue(requests[i].line);
    inflight.push_back(i);
    requests[i].sched_ns = sched_ns;
  };
  const auto mark_sent = [&](size_t from, size_t to) {
    const int64_t now = NowNs();
    for (size_t i = from; i < to; ++i) requests[i].sent_ns = now;
  };
  const auto drain = [&] {
    while (!inflight.empty()) pump(NowNs() + 100000000);
  };
  // Ends a phase: `stats` drains the daemon and snapshots its counters.
  std::string phase_log;
  const auto control_request = [&](const std::string& phase,
                                   const std::string& what) {
    Request r;
    r.phase = phase;
    r.unit = -1;
    r.tag = what;
    r.line = what;
    requests.push_back(r);
    const size_t i = requests.size() - 1;
    send(i, NowNs());
    mark_sent(i, i + 1);
    drain();
  };

  const size_t scheduled = requests.size();
  size_t i = 0;
  for (const std::string phase : {"warm", "open", "closed"}) {
    const int64_t start = NowNs();
    int64_t end = start;
    unit_left.clear();
    units_inflight = 0;
    conn.set_quick_ack(phase == "closed");
    if (phase != "closed") {
      while (i < scheduled && requests[i].phase == phase) {
        const int64_t due =
            start + static_cast<int64_t>(requests[i].offset_s * 1e9);
        while (NowNs() < due) pump(due);
        const size_t first = i;
        const int64_t unit = requests[i].unit;
        while (i < scheduled && requests[i].phase == phase &&
               requests[i].unit == unit) {
          send(i++, due);
        }
        unit_left[unit] = static_cast<int>(i - first);
        ++units_inflight;
        pump(NowNs());  // flush now so sent_ns is the write, not the next poll
        mark_sent(first, i);
      }
      drain();
      end = NowNs();
    } else {
      const int64_t deadline =
          start + static_cast<int64_t>(closed_seconds * 1e9);
      while (NowNs() < deadline) {
        while (units_inflight < outstanding && i < scheduled &&
               requests[i].phase == phase) {
          const size_t first = i;
          const int64_t unit = requests[i].unit;
          const int64_t now = NowNs();
          while (i < scheduled && requests[i].phase == phase &&
                 requests[i].unit == unit) {
            send(i++, now);
          }
          unit_left[unit] = static_cast<int>(i - first);
          ++units_inflight;
          mark_sent(first, i);
        }
        if (i >= scheduled || requests[i].phase != phase) {
          if (units_inflight == 0) break;  // schedule exhausted
        }
        pump(deadline);
      }
      end = NowNs();
      drain();
      // Skip closed-phase units that were never sent.
      while (i < scheduled && requests[i].phase == phase) ++i;
    }
    phase_log += "#phase\t" + phase + "\t" +
                 std::to_string(start) + "\t" + std::to_string(end) + "\n";
    control_request(phase, "stats");
    if (phase == "open") {
      phase_log += "#rss_kb\t" + std::to_string(PeakRssKb(daemon_pid)) + "\n";
    }
  }
  control_request("end", "quit");

  std::string out = phase_log;
  for (const Request& r : requests) {
    if (r.sent_ns < 0) continue;
    out += r.phase + "\t" + std::to_string(r.unit) + "\t" + r.tag + "\t" +
           std::to_string(r.sched_ns) + "\t" + std::to_string(r.sent_ns) +
           "\t" + std::to_string(r.recv_ns) + "\t" + r.line + "\t" +
           r.response + "\n";
  }
  WriteFile(records_path, out);
  return 0;
}

// ---------------------------------------------------------------------------
// solve

StatusOr<UncertainGraph> LoadGraph(const Flags& flags) {
  const std::string path = flags.GetString("graph", "");
  if (path.empty()) return Status::InvalidArgument("--graph is required");
  return ReadEdgeList(path);
}

std::vector<std::pair<NodeId, NodeId>> SolveQueries(const UncertainGraph& g,
                                                    int count, uint64_t seed) {
  QueryGenOptions options;
  options.seed = seed;
  auto queries = GenerateQueries(g, count, options);
  if (!queries.ok()) Die("query generation: " + queries.status().ToString());
  return *queries;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

int RunSolve(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const int num_queries = static_cast<int>(flags.GetInt("queries", 8));
  const double round_s = flags.GetDouble("setup-round-seconds", 0.4);
  const std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) Die("solve needs --out");

  // Set-up: load the edge list and generate the queries. One sample is the
  // mean over a round of back-to-back repetitions lasting at least `round_s`,
  // so it averages over the host's sub-second slow spells; three rounds run
  // before the solve loop and two after it. The first repetitions of a fresh
  // process run slower, which the median over rounds leaves out.
  std::vector<double> setup_s;
  UncertainGraph g = UncertainGraph::Undirected(0);
  std::vector<std::pair<NodeId, NodeId>> queries;
  auto setup_round = [&] {
    const int64_t start = NowNs();
    int64_t busy_ns = 0;
    int reps = 0;
    do {
      const int64_t t0 = NowNs();
      auto loaded = LoadGraph(flags);
      if (!loaded.ok()) Die(loaded.status().ToString());
      queries = SolveQueries(*loaded, num_queries, seed);
      g = std::move(*loaded);
      busy_ns += NowNs() - t0;
      ++reps;
    } while (static_cast<double>(NowNs() - start) / 1e9 < round_s);
    setup_s.push_back(static_cast<double>(busy_ns) / 1e9 / reps);
  };
  for (int round = 0; round < 3; ++round) setup_round();

  SolverOptions options;
  options.seed = seed;
  options.num_threads = 1;
  std::vector<double> latency_ms;
  std::vector<double> gap_ms;   // harness time between consecutive solves
  std::vector<double> cycle_s;  // one pass over every query
  std::vector<std::vector<Edge>> picked(queries.size());
  std::vector<bool> solved(queries.size(), false);
  int64_t attempted = 0;
  int64_t failed = 0;
  bool repeatable = true;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t last_end = start;
  int64_t cycle_start = start;
  for (size_t i = 0; NowNs() < deadline; ++i) {
    const size_t q = i % queries.size();
    const int64_t t0 = NowNs();
    if (i > 0 && q == 0) {
      cycle_s.push_back(static_cast<double>(t0 - cycle_start) / 1e9);
      cycle_start = t0;
    }
    if (i > 0) gap_ms.push_back(static_cast<double>(t0 - last_end) / 1e6);
    auto solution =
        MaximizeReliability(g, queries[q].first, queries[q].second, options);
    last_end = NowNs();
    ++attempted;
    if (!solution.ok()) {
      ++failed;  // run.py counts it as an infinite latency
      continue;
    }
    latency_ms.push_back(static_cast<double>(last_end - t0) / 1e6);
    if (!solved[q]) {
      picked[q] = solution->added_edges;
      solved[q] = true;
    } else if (picked[q] != solution->added_edges) {
      repeatable = false;
    }
  }
  const double rss_mb = static_cast<double>(PeakRssBytes()) / (1 << 20);
  for (int round = 0; round < 2; ++round) setup_round();

  // Checks: the same edges at two threads, and a positive gain measured at
  // Z = 20000 with a seed the solver never sees.
  bool thread_invariant = true;
  std::vector<double> gains;
  SolverOptions two_threads = options;
  two_threads.num_threads = 2;
  const SampleOptions judge{.num_samples = 20000,
                            .seed = seed ^ 0x6a75646765ULL,
                            .num_threads = 2};
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto [s, t] = queries[q];
    auto again = MaximizeReliability(g, s, t, two_threads);
    if (!again.ok() || !solved[q] || picked[q] != again->added_edges) {
      thread_invariant = false;
      continue;
    }
    const double before = EstimateReliability(g, s, t, judge);
    const double after =
        EstimateReliability(AugmentGraph(g, picked[q]), s, t, judge);
    gains.push_back(after - before);
  }
  bool gains_positive = gains.size() == queries.size();
  for (double gain : gains) gains_positive = gains_positive && gain > 0.0;

  std::string json = "{\"setup_s\": " + JsonArray(setup_s) +
                     ", \"latency_ms\": " + JsonArray(latency_ms) +
                     ", \"gap_ms\": " + JsonArray(gap_ms) +
                     ", \"cycle_s\": " + JsonArray(cycle_s) +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"rss_peak_mb\": " + Num(rss_mb) +
                     ", \"gains\": " + JsonArray(gains) +
                     ", \"repeatable\": " + (repeatable ? "true" : "false") +
                     ", \"thread_invariant\": " +
                     (thread_invariant ? "true" : "false") +
                     ", \"gains_positive\": " +
                     (gains_positive ? "true" : "false") + "}\n";
  WriteFile(out_path, json);
  return 0;
}

// ---------------------------------------------------------------------------
// replay

struct Arrival {
  double offset_s = 0.0;
  NodeId s = 0;
  NodeId t = 0;
};

std::vector<Arrival> ReadPairs(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read pairs " + path);
  std::vector<Arrival> pairs;
  Arrival a;
  while (in >> a.offset_s >> a.s >> a.t) pairs.push_back(a);
  return pairs;
}

// The subgraph solver.cc searches for top-l paths: s, t, C(s), C(t) and every
// candidate endpoint, induced on the candidate-augmented graph.
StatusOr<UncertainGraph> EliminatedSubgraph(const UncertainGraph& g_plus,
                                            NodeId s, NodeId t,
                                            const CandidateSet& candidates) {
  std::vector<NodeId> nodes;
  std::unordered_set<NodeId> seen;
  const auto push = [&](NodeId v) {
    if (seen.insert(v).second) nodes.push_back(v);
  };
  push(s);
  push(t);
  for (NodeId v : candidates.from_source) push(v);
  for (NodeId v : candidates.to_target) push(v);
  for (const Edge& e : candidates.edges) {
    push(e.src);
    push(e.dst);
  }
  return g_plus.InducedSubgraph(nodes);
}

// A write like serve_write_mix's: an existing edge re-estimated within +-50%
// of its probability (printed with 4 decimals, as the protocol sends it), or
// a missing 2-hop pair at zeta = 0.5.
struct Write {
  NodeId u = 0;
  NodeId v = 0;
  double p = 0.0;
};

Write PickUpdate(const UncertainGraph& g, Rng& rng) {
  const Edge& e =
      g.EdgeById(static_cast<EdgeId>(rng.NextUint64(g.num_edges())));
  char text[16];
  std::snprintf(text, sizeof(text), "%.4f",
                std::clamp(e.prob * rng.NextDouble(0.5, 1.5), 0.0001, 0.9999));
  return Write{e.src, e.dst, std::stod(text)};
}

Write PickAddEdge(const UncertainGraph& g, Rng& rng) {
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
    const ArcSpan first = g.OutArcs(u);
    if (first.empty()) continue;
    const NodeId v = first[rng.NextUint64(first.size())].to;
    const ArcSpan second = g.OutArcs(v);
    if (second.empty()) continue;
    const NodeId w = second[rng.NextUint64(second.size())].to;
    if (w != u && !g.HasEdge(u, w)) return Write{u, w, 0.5};
  }
  Die("no missing 2-hop pair found");
}

int RunReplay(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const int samples = static_cast<int>(flags.GetInt("samples", 2000));
  const double window_s =
      static_cast<double>(flags.GetInt("window-us", 2000)) / 1e6;
  const bool use_index = flags.GetBool("index", false);
  const int num_queries = static_cast<int>(flags.GetInt("queries", 4));
  const std::string pairs_path = flags.GetString("pairs", "");
  const std::string out_path = flags.GetString("out", "");
  const std::string trace_path = flags.GetString("trace-out", "");
  if (out_path.empty() || trace_path.empty()) {
    Die("replay needs --out and --trace-out");
  }

  Tracer tracer;
  const int64_t replay_start = NowNs();
  const int root = tracer.Begin("replay");
  std::map<std::string, double> metrics;

  // graph: load, copy, mutate.
  UncertainGraph g = UncertainGraph::Undirected(0);
  std::vector<double> load_ms;
  for (int rep = 0; rep < 3; ++rep) {
    load_ms.push_back(Timed(tracer, "graph.load", root, rep, [&] {
      auto loaded = LoadGraph(flags);
      if (!loaded.ok()) Die(loaded.status().ToString());
      g = std::move(*loaded);
    }));
  }
  metrics["graph.load_ms"] = Median(load_ms);
  std::vector<double> copy_ms;
  for (int rep = 0; rep < 5; ++rep) {
    copy_ms.push_back(Timed(tracer, "graph.copy", root, rep, [&] {
      UncertainGraph copy(g);
      if (copy.num_edges() != g.num_edges()) Die("graph copy lost edges");
    }));
  }
  metrics["graph.copy_ms"] = Median(copy_ms);

  const std::vector<std::pair<NodeId, NodeId>> solve_queries =
      SolveQueries(g, num_queries, seed);
  std::vector<Arrival> arrivals;
  if (!pairs_path.empty()) {
    arrivals = ReadPairs(pairs_path);
  } else {
    for (size_t i = 0; i < solve_queries.size(); ++i) {
      arrivals.push_back(Arrival{static_cast<double>(i),
                                 solve_queries[i].first,
                                 solve_queries[i].second});
    }
  }
  if (arrivals.size() < 4) Die("replay needs at least four pairs");

  QueryEngineOptions flood_options;
  flood_options.num_samples = samples;
  flood_options.seed = seed;
  QueryEngineOptions index_options = flood_options;
  index_options.use_index = true;
  const QueryEngineOptions& workload_options =
      use_index ? index_options : flood_options;

  const auto one_pair = [](NodeId s, NodeId t) {
    QuerySet set;
    set.AddSt(s, t);
    return set;
  };
  const auto answer = [](QueryEngine& engine, const QuerySet& set) {
    auto result = engine.Answer(set);
    if (!result.ok()) Die("Answer: " + result.status().ToString());
    return *result;
  };

  // query / index: cold answers on fresh engines; the last engine of each
  // kind stays warm for the steps below.
  const QuerySet first = one_pair(arrivals[0].s, arrivals[0].t);
  std::vector<double> cold_flood_ms;
  std::vector<double> cold_index_ms;
  std::unique_ptr<QueryEngine> flood_engine;
  std::unique_ptr<QueryEngine> index_engine;
  for (int rep = 0; rep < 3; ++rep) {
    flood_engine = std::make_unique<QueryEngine>(g, flood_options);
    cold_flood_ms.push_back(Timed(tracer, "query.cold_answer.flood", root, rep,
                                  [&] { answer(*flood_engine, first); }));
    index_engine = std::make_unique<QueryEngine>(g, index_options);
    cold_index_ms.push_back(Timed(tracer, "query.cold_answer.index", root, rep,
                                  [&] { answer(*index_engine, first); }));
  }
  metrics["query.cold_answer_ms"] =
      Median(use_index ? cold_index_ms : cold_flood_ms);
  metrics["index.build_ms"] = Median(cold_index_ms) - Median(cold_flood_ms);

  // sampling: one flood per distinct source on the warm flood engine.
  std::set<uint64_t> asked = {(uint64_t{arrivals[0].s} << 32) | arrivals[0].t};
  std::set<NodeId> flooded = {arrivals[0].s};
  std::vector<double> flood_ms;
  for (size_t i = 0; i < arrivals.size() && flood_ms.size() < 64; ++i) {
    const Arrival& a = arrivals[i];
    if (!flooded.insert(a.s).second) continue;
    flood_ms.push_back(Timed(tracer, "sampling.flood", root,
                             static_cast<int64_t>(i), [&] {
                               answer(*flood_engine, one_pair(a.s, a.t));
                             }));
  }
  metrics["sampling.flood_ms.p50"] = Percentile(flood_ms, 0.5);
  metrics["sampling.flood_ms.p99"] = Percentile(flood_ms, 0.99);

  // index: one-pair answers on the warm indexed engine.
  std::vector<double> index_us;
  for (size_t i = 0; i < arrivals.size() && index_us.size() < 256; ++i) {
    const Arrival& a = arrivals[i];
    if (!asked.insert((uint64_t{a.s} << 32) | a.t).second) continue;
    index_us.push_back(1e3 * Timed(tracer, "index.answer", root,
                                   static_cast<int64_t>(i), [&] {
                                     answer(*index_engine, one_pair(a.s, a.t));
                                   }));
  }
  metrics["index.answer_us.p50"] = Percentile(index_us, 0.5);
  metrics["index.answer_us.p99"] = Percentile(index_us, 0.99);
  const ReliabilityIndex* index = index_engine->index();
  if (index == nullptr) Die("the indexed engine built no index");
  metrics["index.reach_flood_ratio"] =  // + 1: the engine's cold answer
      static_cast<double>(index->stats().reach_floods) /
      static_cast<double>(index_us.size() + 1);

  // query: windows rebuilt from the arrival times by the daemon's rule (a
  // window opens at its first arrival and takes every arrival within
  // window_us), answered on a warm engine with the workload's flags.
  {
    QueryEngine engine(g, workload_options);
    answer(engine, first);
    std::vector<double> window_ms;
    size_t floods = 0;
    for (size_t i = 0; i < arrivals.size();) {
      QuerySet window;
      const double open = arrivals[i].offset_s;
      const size_t begin = i;
      while (i < arrivals.size() && arrivals[i].offset_s <= open + window_s) {
        window.AddSt(arrivals[i].s, arrivals[i].t);
        ++i;
      }
      window_ms.push_back(Timed(tracer, "query.answer", root,
                                static_cast<int64_t>(begin), [&] {
                                  floods += answer(engine, window).stats.floods;
                                }));
    }
    metrics["query.answer_ms.p50"] = Percentile(window_ms, 0.5);
    metrics["query.answer_ms.p99"] = Percentile(window_ms, 0.99);
    metrics["query.floods_per_window"] =
        static_cast<double>(floods) / static_cast<double>(window_ms.size());
  }

  // Writes: three of each kind applied to a private copy's engine, then the
  // first Answer after each (the resync). Both engine kinds run so the
  // relabel fraction is known whatever the workload's flags.
  Rng write_rng(seed ^ 0x777269746573ULL);
  std::vector<double> mutate_us;
  for (const std::string kind : {"update", "addedge"}) {
    for (const bool indexed : {false, true}) {
      UncertainGraph copy(g);
      QueryEngine engine(copy, indexed ? index_options : flood_options);
      answer(engine, first);
      std::vector<double> resync_ms;
      std::vector<double> relabel;
      for (int rep = 0; rep < 3; ++rep) {
        const Write w = kind == "update" ? PickUpdate(copy, write_rng)
                                         : PickAddEdge(copy, write_rng);
        mutate_us.push_back(1e3 * Timed(tracer, "graph.mutate." + kind, root,
                                        rep, [&] {
          const Status st = kind == "update"
                                ? copy.UpdateEdgeProb(w.u, w.v, w.p)
                                : copy.AddEdge(w.u, w.v, w.p);
          if (!st.ok()) Die("write: " + st.ToString());
        }));
        const Arrival& probe = arrivals[static_cast<size_t>(rep) + 1];
        resync_ms.push_back(Timed(
            tracer,
            "query.resync." + kind + (indexed ? ".index" : ".flood"), root,
            rep, [&] { answer(engine, one_pair(probe.s, probe.t)); }));
        if (indexed) {
          relabel.push_back(
              static_cast<double>(engine.index()->stats().last_update_worlds) /
              samples);
        }
      }
      if (indexed == use_index) {
        metrics["query.resync_ms." + kind] = Median(resync_ms);
      }
      if (indexed) {
        double sum = 0.0;
        for (double r : relabel) sum += r;
        metrics["index.relabel_frac." + kind] =
            sum / static_cast<double>(relabel.size());
      }
    }
  }
  metrics["graph.mutate_us"] = Median(mutate_us);

  // sampling / core / paths on the solve queries, with SolverOptions
  // defaults as the solve workload runs them.
  SolverOptions options;
  options.seed = seed;
  options.num_threads = 1;
  std::vector<double> estimate_ms;
  std::vector<double> candidates_ms;
  std::vector<double> candidate_edges;
  std::vector<double> top_l_ms;
  std::vector<double> select_ms;
  double gain_sum = 0.0;
  for (size_t q = 0; q < solve_queries.size(); ++q) {
    const auto [s, t] = solve_queries[q];
    const int64_t req = static_cast<int64_t>(q);
    const int solve_span = tracer.Begin("core.solve", root, req);
    estimate_ms.push_back(
        Timed(tracer, "sampling.estimate", solve_span, req, [&] {
          EstimateReliability(g, s, t,
                              {.num_samples = options.num_samples,
                               .seed = seed,
                               .num_threads = 1});
        }));
    CandidateSet candidates;
    candidates_ms.push_back(
        Timed(tracer, "core.candidates", solve_span, req, [&] {
          auto selected = SelectCandidates(g, s, t, options);
          if (!selected.ok()) Die(selected.status().ToString());
          candidates = std::move(*selected);
        }));
    candidate_edges.push_back(static_cast<double>(candidates.edges.size()));
    top_l_ms.push_back(Timed(tracer, "paths.top_l", solve_span, req, [&] {
      const UncertainGraph g_plus = AugmentGraph(g, candidates.edges);
      auto sub = EliminatedSubgraph(g_plus, s, t, candidates);
      if (!sub.ok()) Die(sub.status().ToString());
      TopLReliablePaths(*sub, 0, 1, options.top_l);
    }));
    select_ms.push_back(Timed(tracer, "core.select", solve_span, req, [&] {
      auto solution =
          MaximizeReliabilityWithCandidates(g, s, t, candidates, options);
      if (!solution.ok()) Die(solution.status().ToString());
      gain_sum += solution->gain();
    }));
    tracer.End(solve_span);
  }
  metrics["sampling.estimate_ms"] = Median(estimate_ms);
  metrics["core.candidates_ms"] = Median(candidates_ms);
  metrics["core.candidate_edges"] = Median(candidate_edges);
  metrics["paths.top_l_ms"] = Median(top_l_ms);
  metrics["core.select_ms"] = Median(select_ms);
  metrics["core.solve_gain"] =
      gain_sum / static_cast<double>(solve_queries.size());

  tracer.End(root);
  metrics["harness.trace_overhead_pct"] =
      100.0 * static_cast<double>(tracer.overhead_ns()) /
      static_cast<double>(NowNs() - replay_start);

  std::string json = "{";
  for (const auto& [name, value] : metrics) {
    json += (json.size() > 1 ? ", " : "") + JsonString(name) + ": " + Num(value);
  }
  WriteFile(out_path, json + "}\n");
  WriteFile(trace_path, tracer.Json());
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace relmax

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_e2e <client|solve|replay> [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  const relmax::Flags flags = relmax::Flags::Parse(argc - 1, argv + 1);
  if (command == "client") return relmax::e2e::RunClient(flags);
  if (command == "solve") return relmax::e2e::RunSolve(flags);
  if (command == "replay") return relmax::e2e::RunReplay(flags);
  std::fprintf(stderr, "bench_e2e: unknown command %s\n", command.c_str());
  return 2;
}
