#!/usr/bin/env python3
"""End-to-end benchmark for relmax: reads, writes and solves.

One run (the form BENCHMARK.json's command uses):

    python3 bench/e2e/run.py --workload serve_flood --seed 7 --seconds 20 --trace 0

builds the package in .bench_build/ (first run only), makes every input from
--seed, measures for --seconds, checks every answer, prints
`workload metric value unit` lines and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 reports its per-layer metrics
and writes the spans to .bench_build/runs/<workload>-s<seed>-trace/trace.json.

A set of runs (workload order rotated per rep, one JSON record per run in
DIR/runs.jsonl, then median and quartiles per metric):

    python3 bench/e2e/run.py --seeds 1-10 --out DIR [--reps N] [--trace 1]

--smoke shrinks every input and phase so a set of all four workloads finishes
in about 20 seconds. Exit status is non-zero on any failed check.
"""

import argparse
import fcntl
import json
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RELMAX = CMAKE_DIR / "relmax" / "tools" / "relmax"
BENCH_E2E = CMAKE_DIR / "bench_e2e"

# The daemon's flags for every serve workload; batch verification uses the
# same engine flags so its rows are the reference.
SAMPLES = 2000
LANES = 2
WINDOW_US = 2000
OUTSTANDING = 8
THETA = 0.8
SETUP_ROUND_S = 0.4
# Graphs are fixed datasets: --seed varies the traffic, queries, writes and
# sampling seed, not the graph, so runs on different seeds stay comparable.
DATASET_SEED = 42

WORKLOADS = {
    "serve_flood": dict(kind="serve", dataset="as_topology", scale=0.2,
                        index=False, read_qps=80.0, write_rate=0.0),
    "serve_indexed": dict(kind="serve", dataset="as_topology", scale=0.2,
                          index=True, read_qps=80.0, write_rate=0.0),
    "serve_write_mix": dict(kind="serve", dataset="lastfm", scale=0.1,
                            index=True, read_qps=100.0, write_rate=2.0),
    "solve": dict(kind="solve", dataset="lastfm", scale=1.0, queries=64),
}
SMOKE_SCALE = {"as_topology": 0.03, "lastfm": 0.05}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# build


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"relmax sources not found under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build_log = BUILD / "build.log"
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                      "relmax_cli", "bench_e2e", "-j", "4"])
        with open(build_log, "w") as out:
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=840).returncode != 0:
                    shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                    tail = build_log.read_text().splitlines()[-20:]
                    raise BenchError("build failed:\n" + "\n".join(tail))


# ---------------------------------------------------------------------------
# inputs


def gen_graph(dataset, scale, path):
    subprocess.run([str(RELMAX), "gen", "--dataset", dataset, "--scale",
                    str(scale), "--seed", str(DATASET_SEED), "--out",
                    str(path)],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def read_graph(path):
    """Returns (directed, num_nodes, lines); lines[i] is edge i as 'u v p'."""
    directed, num_nodes, lines = None, 0, []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if directed is None:
            kind, n = line.split()
            directed, num_nodes = kind == "directed", int(n)
        else:
            lines.append(line)
    return directed, num_nodes, lines


class Traffic:
    """Zipf(theta) sources ranked by node id, uniform targets."""

    def __init__(self, rng, num_nodes):
        self.rng = rng
        self.num_nodes = num_nodes
        total, self.cdf = 0.0, []
        for r in range(num_nodes):
            total += (r + 1.0) ** -THETA
            self.cdf.append(total)
        self.cdf = [c / total for c in self.cdf]

    def pair(self):
        s = min(bisect_left(self.cdf, self.rng.random()), self.num_nodes - 1)
        t = s
        while t == s:
            t = self.rng.randrange(self.num_nodes)
        return s, t

    def arrivals(self, rate, seconds):
        """Poisson arrivals at `rate` per second."""
        times, now = [], 0.0
        while True:
            now += self.rng.expovariate(rate)
            if now >= seconds:
                return times
            times.append(now)


def periodic(rate, seconds):
    """Evenly spaced writes: every run pays the same number of resyncs, none
    of them back to back, so the read tail measures one resync's stall."""
    if rate <= 0:
        return []
    return [(k + 0.5) / rate for k in range(int(seconds * rate))]


class Writer:
    """Tracks the daemon's graph so every generated write is valid."""

    def __init__(self, rng, directed, num_nodes, lines):
        self.rng = rng
        self.count = 0
        self.directed = directed
        self.edges = []  # (u, v, p) in edge-id order
        self.present = set()
        self.adj = [[] for _ in range(num_nodes)]
        for line in lines:
            u, v, p = line.split()
            self._add(int(u), int(v), float(p))

    def _key(self, u, v):
        return (u, v) if self.directed or u < v else (v, u)

    def _add(self, u, v, p):
        self.edges.append([u, v, p])
        self.present.add(self._key(u, v))
        self.adj[u].append(v)
        if not self.directed:
            self.adj[v].append(u)

    def next(self):
        """Alternates an update and an added edge; returns (request line,
        probe pair). An update re-estimates an edge within +-50% of its
        current p, kept off 0 and 1 (edges there take no draw, which would
        shift the bank's draw stream). A fixed cycle, not a random mix, so
        every run pays the same number of addedge's near-full relabels."""
        self.count += 1
        if self.count % 2:
            edge = self.edges[self.rng.randrange(len(self.edges))]
            p = "%.4f" % min(0.9999, max(0.0001, edge[2] *
                                         self.rng.uniform(0.5, 1.5)))
            edge[2] = float(p)
            return f"update {edge[0]} {edge[1]} {p}", (edge[0], edge[1])
        while True:
            u = self.rng.randrange(len(self.adj))
            if not self.adj[u]:
                continue
            v = self.rng.choice(self.adj[u])
            if not self.adj[v]:
                continue
            w = self.rng.choice(self.adj[v])
            if w != u and self._key(u, w) not in self.present:
                self._add(u, w, 0.5)
                return f"addedge {u} {w} 0.5", (u, w)


def make_schedule(spec, seed, graph, warm_s, open_s, closed_s, path):
    """Writes the client schedule: `phase unit tag offset request` lines."""
    directed, num_nodes, lines = graph
    rng = random.Random(seed)
    traffic = Traffic(rng, num_nodes)
    writer = Writer(random.Random(seed + 1), directed, num_nodes, lines)
    rows, unit = [], 0
    for phase, seconds in (("warm", warm_s), ("open", open_s)):
        events = [(t, "read") for t in traffic.arrivals(spec["read_qps"],
                                                        seconds)]
        events += [(t, "write") for t in periodic(spec["write_rate"],
                                                  seconds)]
        for t, kind in sorted(events):
            if kind == "read":
                s, d = traffic.pair()
                rows.append(f"{phase} {unit} read {t:.6f} query {s} {d}")
            else:
                request, (s, d) = writer.next()
                rows.append(f"{phase} {unit} write {t:.6f} {request}")
                rows.append(f"{phase} {unit} probe {t:.6f} query {s} {d}")
            unit += 1
    # The closed phase must not run dry: sized well above the best rate seen.
    closed_units = int(closed_s * (100 if spec["write_rate"] else 6000)) + 64
    for _ in range(closed_units):
        if spec["write_rate"]:
            request, (s, d) = writer.next()
            rows.append(f"closed {unit} write 0 {request}")
            rows.append(f"closed {unit} probe 0 query {s} {d}")
        else:
            s, d = traffic.pair()
            rows.append(f"closed {unit} read 0 query {s} {d}")
        unit += 1
    path.write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# the daemon


def daemon_args(graph_path, seed, index):
    return [str(RELMAX), "serve", "--graph", str(graph_path), "--port", "0",
            "--samples", str(SAMPLES), "--seed", str(seed), "--lanes",
            str(LANES), "--window-us", str(WINDOW_US)] + (
                ["--index"] if index else [])


class Daemon:
    """A `relmax serve --port 0` process; always stopped on exit."""

    def __init__(self, args):
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on port "):
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}")
        self.port = int(line.split()[-1])

    def connect(self):
        return socket.create_connection(("127.0.0.1", self.port), timeout=60)

    def stop(self):
        if self.proc.poll() is None:
            try:
                with self.connect() as conn:
                    conn.sendall(b"shutdown\n")
                    conn.recv(64)
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def read_line(conn):
    data = b""
    while not data.endswith(b"\n"):
        chunk = conn.recv(4096)
        if not chunk:
            raise BenchError("daemon closed the connection")
        data += chunk
    return data.decode().rstrip("\n")


def cold_start_s(args, first_query):
    """Seconds from spawning the daemon to its first answer."""
    t0 = time.perf_counter()
    with Daemon(args) as daemon, daemon.connect() as conn:
        conn.sendall(first_query.encode() + b"\n")
        response = read_line(conn)
        elapsed = time.perf_counter() - t0
    if not response.startswith("R("):
        raise BenchError(f"cold start answered {response!r}")
    return elapsed


def setup_round_s(args, first_query, round_s):
    """One set-up sample: the mean cold start over back-to-back cold starts
    lasting at least `round_s`. The host's vCPUs change speed by up to 2x in
    spells of about a second, so a single 50 ms cold start reads either ~0.04
    or ~0.07 s, and a median of single cold starts jumps between the two; a
    round's mean moves smoothly with the share of slow time."""
    total, count, t0 = 0.0, 0, time.perf_counter()
    while count == 0 or time.perf_counter() - t0 < round_s:
        total += cold_start_s(args, first_query)
        count += 1
    return total / count


def parse_records(path):
    phases, records = {}, []
    for line in path.read_text().splitlines():
        fields = line.split("\t")
        if fields[0] == "#phase":
            phases[fields[1]] = (int(fields[2]), int(fields[3]))
            continue
        if fields[0] == "#rss_kb":
            phases["rss_kb"] = int(fields[1])
            continue
        phase, unit, tag, sched, sent, recv, request, response = fields
        records.append(dict(phase=phase, unit=int(unit), tag=tag,
                            sched=int(sched), sent=int(sent), recv=int(recv),
                            request=request, response=response))
    return phases, records


def parse_stats(line):
    return {k: int(v) for k, v in
            (field.split("=") for field in line.split()[1:])}


# ---------------------------------------------------------------------------
# checks


def batch_rows(graph_path, pairs, seed, index, work, jobs=4):
    """`relmax batch` rows for `pairs` on the same engine flags, from `jobs`
    concurrent processes split by source (the indexed path floods each
    directed source's reach row serially, so one process is slow)."""
    chunks = [c for c in ([p for p in pairs if p[0] % jobs == j]
                          for j in range(jobs)) if c]
    procs = []
    try:
        for j, chunk in enumerate(chunks):
            queries = work / f"verify_queries{j}.txt"
            queries.write_text("".join(f"{s} {t}\n" for s, t in chunk))
            args = [str(RELMAX), "batch", "--graph", str(graph_path),
                    "--queries", str(queries), "--samples", str(SAMPLES),
                    "--seed", str(seed)] + (["--index"] if index else [])
            procs.append(subprocess.Popen(args, stdout=subprocess.PIPE,
                                          text=True))
        rows = {}
        for chunk, proc in zip(chunks, procs):
            out = proc.communicate(timeout=170)[0].splitlines()
            if proc.returncode != 0:
                raise BenchError(f"relmax batch exited {proc.returncode}")
            rows.update(zip(chunk, out[:len(chunk)]))
        return rows
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def graph_at_epoch(base_path, lines, writes, epoch, path):
    """The base edge list plus the first `epoch` writes, in edge-id order."""
    lines = list(lines)
    where = {}
    for i, line in enumerate(lines):
        u, v, _ = line.split()
        where[(u, v)] = i
    for request in writes[:epoch]:
        op, u, v, p = request.split()
        if op == "update":
            i = where.get((u, v), where.get((v, u)))
            a, b, _ = lines[i].split()
            lines[i] = f"{a} {b} {p}"
        else:
            where[(u, v)] = len(lines)
            lines.append(f"{u} {v} {p}")
    header = next(line for line in base_path.read_text().splitlines()
                  if line and not line.startswith("#"))
    path.write_text(header + "\n" + "\n".join(lines) + "\n")


def verify_serve(records, graph_path, graph, seed, index, work):
    """Checks every write's epoch and every served row against `batch` at
    epoch 0, every 10th epoch and the last. Returns (checked, mismatches)."""
    by_epoch, writes, problems = {}, [], []
    for r in records:
        if r["tag"] == "write":
            writes.append(r["request"])
            want = f"OK epoch={len(writes)} "
            if not r["response"].startswith(want):
                problems.append(f"{r['request']} -> {r['response']}")
        elif r["tag"] in ("read", "probe"):
            _, s, t = r["request"].split()
            by_epoch.setdefault(len(writes), []).append(
                ((int(s), int(t)), r["response"]))
    last = len(writes)
    checked = 0
    for epoch in sorted(by_epoch):
        if epoch % 10 and epoch != last:
            continue
        path = graph_path
        if epoch:
            path = work / f"graph_epoch{epoch}.txt"
            graph_at_epoch(graph_path, graph[2], writes, epoch, path)
        served = by_epoch[epoch]
        pairs = list(dict.fromkeys(pair for pair, _ in served))
        expected = batch_rows(path, pairs, seed, index, work)
        for pair, response in served:
            checked += 1
            if response != expected[pair]:
                problems.append(f"epoch {epoch} {pair}: served "
                                f"{response!r}, batch {expected[pair]!r}")
    return checked, problems


# ---------------------------------------------------------------------------
# metrics


def percentile(values, p):
    """Nearest rank; failed requests enter as +inf."""
    ordered = sorted(values)
    rank = max(1, int(-(-p * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def run_serve(spec, args, work):
    seed, smoke = args.seed, args.smoke
    scale = SMOKE_SCALE[spec["dataset"]] if smoke else spec["scale"]
    warm_s = 0.3 if smoke else 2.0
    open_s, closed_s = 0.7 * args.seconds, 0.3 * args.seconds
    graph_path = work / "graph.txt"
    gen_graph(spec["dataset"], scale, graph_path)
    graph = read_graph(graph_path)
    schedule = work / "schedule.txt"
    make_schedule(spec, seed, graph, warm_s, open_s, closed_s, schedule)
    serve_args = daemon_args(graph_path, seed, spec["index"])

    first_query = next(line.split(None, 4)[4] for line in
                       schedule.read_text().splitlines()
                       if " read " in line)
    # Set-up rounds before and after the measured connection: a shared host
    # can have slow spells lasting seconds, and one spell should not decide
    # all of them.
    round_s = 0.0 if smoke else SETUP_ROUND_S
    setup = [setup_round_s(serve_args, first_query, round_s)
             for _ in range(3)]
    records_path = work / "records.tsv"
    with Daemon(serve_args) as daemon:
        subprocess.run([str(BENCH_E2E), "client", "--port", str(daemon.port),
                        "--schedule", str(schedule), "--records",
                        str(records_path), "--closed-seconds", str(closed_s),
                        "--outstanding", str(OUTSTANDING), "--daemon-pid",
                        str(daemon.proc.pid)],
                       check=True, timeout=170)
    setup += [setup_round_s(serve_args, first_query, round_s)
              for _ in range(2)]
    phases, records = parse_records(records_path)

    def ok(r):
        return r["response"].startswith(("R(", "OK epoch="))

    timed = [r for r in records if r["phase"] in ("open", "closed")
             and r["tag"] in ("read", "write", "probe")]
    failed = sum(1 for r in timed if not ok(r))
    open_reads = [r for r in records if r["phase"] == "open"
                  and r["tag"] == "read"]
    latency_ms = [(r["recv"] - r["sched"]) / 1e6 if ok(r) else float("inf")
                  for r in open_reads]
    start, end = phases["closed"]
    done = {}  # closed-phase unit -> time its last response arrived
    for r in timed:
        if r["phase"] == "closed":
            done[r["unit"]] = max(done.get(r["unit"], 0), r["recv"])
    completed = sum(1 for t in done.values() if t <= end)
    values = {
        "setup_s": statistics.median(setup),
        "p50_ms": percentile(latency_ms, 0.50),
        "p99_ms": percentile(latency_ms, 0.99),
        "ops_per_s": completed / ((end - start) / 1e9),
        "rss_peak_mb": phases["rss_kb"] / 1024.0,
    }

    checked, problems = verify_serve(records, graph_path, graph, seed,
                                     spec["index"], work)
    stats = {r["phase"]: parse_stats(r["response"]) for r in records
             if r["tag"] == "stats"}
    if args.trace:
        warm, opened = stats["warm"], stats["open"]
        delta = {k: opened[k] - warm[k] for k in opened}
        answered = max(delta["answered"], 1)
        values.update({
            "serve.window_mean": delta["answered"] / max(delta["batches"], 1),
            "serve.floods_per_req": delta["floods"] / answered,
            "serve.cache_hit_ratio": delta["cache_hits"] / answered,
            "harness.gen_late_p99_ms": percentile(
                [(r["sent"] - r["sched"]) / 1e6 for r in records
                 if r["phase"] == "open" and r["tag"] != "stats"], 0.99),
        })
        pairs = work / "pairs.txt"
        pairs.write_text("".join(
            "%.6f %s\n" % ((r["sched"] - phases["open"][0]) / 1e9,
                           r["request"].split(None, 1)[1])
            for r in open_reads))
        values.update(replay(graph_path, seed, spec["index"], pairs=pairs,
                             queries=4, work=work))
    summary = dict(attempted=len(timed), failed=failed, checked=checked,
                   problems=problems)
    return values, summary


def run_solve(spec, args, work):
    seed = args.seed
    scale = SMOKE_SCALE[spec["dataset"]] if args.smoke else spec["scale"]
    queries = 8 if args.smoke else spec["queries"]
    graph_path = work / "graph.txt"
    gen_graph(spec["dataset"], scale, graph_path)
    out = work / "solve.json"
    subprocess.run([str(BENCH_E2E), "solve", "--graph", str(graph_path),
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--queries", str(queries), "--setup-round-seconds",
                    str(0.0 if args.smoke else SETUP_ROUND_S), "--out",
                    str(out)],
                   check=True, timeout=170)
    result = json.loads(out.read_text())
    latency = result["latency_ms"] + [float("inf")] * result["failed"]
    values = {
        "setup_s": statistics.median(result["setup_s"]),
        "p50_ms": percentile(latency, 0.50),
        "p99_ms": percentile(latency, 0.99),
        "ops_per_s": statistics.median(
            queries / s for s in result["cycle_s"]),
        "rss_peak_mb": result["rss_peak_mb"],
    }
    problems = [f"solve check failed: {check}" for check in
                ("repeatable", "thread_invariant", "gains_positive")
                if not result[check]]
    if args.trace:
        values.update({
            "serve.window_mean": 0.0,
            "serve.floods_per_req": 0.0,
            "serve.cache_hit_ratio": 0.0,
            "harness.gen_late_p99_ms": percentile(result["gap_ms"], 0.99),
        })
        values.update(replay(graph_path, seed, False, pairs=None,
                             queries=queries, work=work))
    summary = dict(attempted=result["attempted"], failed=result["failed"],
                   checked=len(result["gains"]), problems=problems)
    return values, summary


def replay(graph_path, seed, index, pairs, queries, work):
    """Per-layer metrics from `bench_e2e replay`: `pairs` is a file of
    `offset s t` reads (None: the solve queries), `queries` how many solve
    queries to decompose."""
    out, trace = work / "replay.json", work / "trace.json"
    args = [str(BENCH_E2E), "replay", "--graph", str(graph_path), "--seed",
            str(seed), "--samples", str(SAMPLES), "--window-us",
            str(WINDOW_US), "--index", "1" if index else "0", "--queries",
            str(queries), "--out", str(out), "--trace-out", str(trace)]
    if pairs is not None:
        args += ["--pairs", str(pairs)]
    subprocess.run(args, check=True, timeout=170)
    log(f"spans written to {trace}")
    return json.loads(out.read_text())


def run_one(args):
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = definition["per_layer" if args.trace else "end_to_end"]
    spec = WORKLOADS[args.workload]
    build()
    work = BUILD / "runs" / "{}-s{}{}{}".format(
        args.workload, args.seed, "-trace" if args.trace else "",
        "-smoke" if args.smoke else "")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run_serve if spec["kind"] == "serve" else run_solve
    values, summary = runner(spec, args, work)

    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise BenchError(f"metric {metric['name']} was not measured")
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload} {metric['name']} {value:.6g} "
              f"{metric['unit']}")
    for problem in summary["problems"][:20]:
        log(f"CHECK FAILED: {problem}")
    correct = not summary["problems"]
    log(f"{args.workload}: {summary['checked']} answers checked, "
        f"{summary['failed']}/{summary['attempted']} failed")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# a set of runs


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS)
    runs_path = out / "runs.jsonl"
    exit_code = 0
    # The smoke profile checks every metric, so it runs both kinds of run.
    traces = (0, 1) if args.smoke else (args.trace,)
    plan = [(rep, seed) for rep in range(args.reps)
            for seed in parse_seeds(args.seeds)]
    with open(runs_path, "a") as runs:
        for i, (rep, seed) in enumerate(plan):
            order = names[i % len(names):] + names[:i % len(names)]
            for name, trace in ((n, t) for n in order for t in traces):
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(trace)] + (
                           ["--smoke"] if args.smoke else [])
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    log(f"{name} seed {seed}: exit {proc.returncode}\n"
                        f"{proc.stderr[-2000:]}")
                    exit_code = 1
                    if not lines:
                        continue
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"]:
                    exit_code = 1
                runs.write(json.dumps(dict(workload=name, seed=seed, rep=rep,
                                           trace=trace,
                                           result=result)) + "\n")
                runs.flush()
                log(f"{name} seed {seed} rep {rep}: correct="
                    f"{result['correct']} failed={result['failed']}")
    print_set(load_runs(out))
    return exit_code


def load_runs(directory):
    """{workload: {metric: [values]}} plus failed shares, from runs.jsonl."""
    table = {}
    for line in (Path(directory) / "runs.jsonl").read_text().splitlines():
        run = json.loads(line)
        result = run["result"]
        metrics = table.setdefault(run["workload"], {})
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        metrics.setdefault("failed_frac", []).append(
            result["failed"] / result["attempted"])
        metrics.setdefault("incorrect", []).append(
            0 if result["correct"] else 1)
    return table


def print_set(table):
    print("workload metric median q1 q3 spread n")
    for workload, metrics in table.items():
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload} {name} {med:.6g} {q1:.6g} {q3:.6g} "
                  f"{spread:.3f} {len(values)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default 20, smoke 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seeds", default="7")
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 20.0
    try:
        if args.workload:
            return run_one(args)
        if not args.out:
            parser.error("give --workload for one run or --out for a set")
        return run_set(args)
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as error:
        log(f"run.py: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
