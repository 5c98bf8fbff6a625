#!/usr/bin/env python3
"""Schema check for the bench JSON artifacts.

Validates three shapes, auto-detected from the top-level keys:

  repo    -- the checked-in BENCH_*.json perf-trajectory files:
             {description, entries: [entry, ...]}
  doc     -- the free-form checked-in records (BENCH_selection.json):
             {description, environment, ...} with a canonical environment
  entry   -- a single run entry, as written by `bench_batch_queries --json`:
             {label, command, environment, benchmarks}
  gbench  -- google-benchmark --benchmark_out output:
             {context: {...}, benchmarks: [{name, ...}, ...]}

Every `environment` block must have the canonical bench::EnvironmentJson
shape ({cpus_available, compiler, benchmark_library, note}) so the schema
cannot drift between files again. Every run also checks that each
BENCHMARK(BM_...) registered in bench/bench_micro_kernels.cc is in
KNOWN_MICRO_BENCHMARKS, so a benchmark added without its allowlist entry
fails here even when no benchmark output is checked. Used by the bench-smoke
CI job and runnable locally:

  python3 tools/check_bench_json.py BENCH_*.json /tmp/batch.json
"""
import json
import pathlib
import re
import sys

ENVIRONMENT_KEYS = {
    "cpus_available": int,
    "compiler": str,
    "benchmark_library": str,
    "note": str,
}

# Per-label benchmark keys that must be present (and numeric) in every
# benchmark row of an entry with that label, so a bench harness cannot
# silently drop the columns the trajectory analysis reads.
LABEL_REQUIRED_KEYS = {
    "batch_vs_naive": ("naive_seconds", "batched_seconds", "speedup",
                       "bit_identical"),
    "index_io": ("build_seconds", "save_seconds", "load_seconds",
                 "speedup_load_vs_build", "file_bytes", "bit_identical"),
    "index_queries": ("naive_per_query_seconds", "flood_seconds",
                      "index_seconds", "index_build_seconds",
                      "speedup_index_vs_flood", "bit_identical"),
    "pr7_pre_simd_baseline": ("cpu_time_ms", "worlds_per_second"),
    "pr7_simd_frontier_kernels": ("cpu_time_ms", "worlds_per_second"),
    "serving": ("p50_ms", "p99_ms", "p999_ms", "qps", "shed",
                "bit_identical"),
}

# Every google-benchmark name the micro-kernel suite may emit (the part
# before the first '/'). A rename or typo in bench_micro_kernels.cc would
# otherwise sail through CI and silently orphan the checked-in trajectory
# rows that track it.
KNOWN_MICRO_BENCHMARKS = frozenset({
    "BM_MonteCarloReliability",
    "BM_MonteCarloReliabilityParallel",
    "BM_RssReliability",
    "BM_RssReliabilityParallel",
    "BM_ReliabilityFromSourceToAll",
    "BM_MostReliablePath",
    "BM_YenTopL",
    "BM_SearchSpaceElimination",
    "BM_ReachabilityFixpoint",
    "BM_DirectedFlood",
    "BM_WorldBankFill",
    "BM_WorldBankDerive",
    "BM_IndexApplyBankUpdate",
    "BM_WorldEnsembleBuild",
    "BM_IndexSave",
    "BM_IndexLoad",
})

MICRO_SOURCE = (pathlib.Path(__file__).resolve().parent.parent / "bench" /
                "bench_micro_kernels.cc")


class SchemaError(Exception):
    pass


def require(condition, message):
    if not condition:
        raise SchemaError(message)


def check_environment(env, where):
    require(isinstance(env, dict), f"{where}: environment must be an object")
    require(
        set(env) == set(ENVIRONMENT_KEYS),
        f"{where}: environment keys {sorted(env)} != canonical "
        f"{sorted(ENVIRONMENT_KEYS)}",
    )
    for key, expected_type in ENVIRONMENT_KEYS.items():
        require(
            isinstance(env[key], expected_type),
            f"{where}: environment.{key} must be {expected_type.__name__}",
        )


def check_benchmarks(benchmarks, where, label=None):
    require(isinstance(benchmarks, list) and benchmarks,
            f"{where}: benchmarks must be a non-empty array")
    required = LABEL_REQUIRED_KEYS.get(label, ())
    for i, bench in enumerate(benchmarks):
        require(isinstance(bench, dict), f"{where}: benchmarks[{i}] not an object")
        require(isinstance(bench.get("name"), str) and bench["name"],
                f"{where}: benchmarks[{i}] needs a non-empty string name")
        if bench["name"].startswith("BM_"):
            base = bench["name"].split("/", 1)[0]
            require(
                base in KNOWN_MICRO_BENCHMARKS,
                f"{where}: benchmarks[{i}] name '{base}' is not a known "
                f"micro-kernel benchmark (update KNOWN_MICRO_BENCHMARKS "
                f"when adding one)",
            )
        for key, value in bench.items():
            require(
                isinstance(value, (str, int, float, bool)),
                f"{where}: benchmarks[{i}].{key} must be a scalar",
            )
        for key in required:
            require(
                key in bench,
                f"{where}: benchmarks[{i}] (label '{label}') missing '{key}'",
            )


def check_entry(entry, where):
    require(isinstance(entry, dict), f"{where}: entry must be an object")
    for key in ("label", "command"):
        require(isinstance(entry.get(key), str) and entry[key],
                f"{where}: needs a non-empty string '{key}'")
    check_environment(entry.get("environment"), where)
    check_benchmarks(entry.get("benchmarks"), where, entry["label"])


def check_file(path):
    with open(path, "rb") as f:
        data = json.load(f)
    require(isinstance(data, dict), "top level must be an object")
    if "context" in data:  # google-benchmark output
        require(isinstance(data["context"], dict), "context must be an object")
        check_benchmarks(data.get("benchmarks"), "gbench")
        return "gbench"
    if "entries" in data:  # checked-in BENCH_*.json trajectory
        require(isinstance(data.get("description"), str) and data["description"],
                "repo file needs a non-empty description")
        require(isinstance(data["entries"], list) and data["entries"],
                "entries must be a non-empty array")
        for i, entry in enumerate(data["entries"]):
            check_entry(entry, f"entries[{i}]")
        return "repo"
    if "label" not in data and "description" in data:  # free-form record
        require(data["description"],
                "doc file needs a non-empty description")
        check_environment(data.get("environment"), "doc")
        return "doc"
    check_entry(data, "entry")  # bare single-run entry
    return "entry"


def check_micro_source(path):
    """Every micro-benchmark the suite registers must be allowlisted."""
    registered = re.findall(r"\bBENCHMARK\((BM_\w+)\)", path.read_text())
    require(registered, "no BENCHMARK(BM_...) registrations found")
    unknown = sorted(set(registered) - KNOWN_MICRO_BENCHMARKS)
    require(not unknown,
            f"{unknown} not in KNOWN_MICRO_BENCHMARKS (add them when adding "
            f"a micro-kernel benchmark)")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    try:
        check_micro_source(MICRO_SOURCE)
        print(f"{MICRO_SOURCE}: OK (every registered benchmark is known)")
    except (SchemaError, OSError) as error:
        print(f"{MICRO_SOURCE}: FAIL: {error}", file=sys.stderr)
        failed = True
    for path in argv[1:]:
        try:
            kind = check_file(path)
            print(f"{path}: OK ({kind} schema)")
        except (SchemaError, json.JSONDecodeError, OSError) as error:
            print(f"{path}: FAIL: {error}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
