#!/usr/bin/env python3
"""Benchmark of the decent simulation lab, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload kad-drain --seed 182 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload at its default seed

The script builds the `perfbench` binary from source (into
$CARGO_TARGET_DIR, default `.bench_build`), then starts it once per
measured run, so peak RSS and CPU time belong to that run alone. With
`--trace 0` it repeats untraced runs for `--seconds` (at least two) and
reports the median of each end-to-end metric. With `--trace 1` it makes
one untraced and one traced run and reports the per-layer metrics, with
the traced run's spans written as Chrome trace-event JSON under
`perfbench/out/`.

Every run is checked: the output digest must repeat across runs at a
seed, a sharded workload must match its serial twin at that seed, and
the quick repro at its default seed must reproduce the committed claim
verdicts. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 if
any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = ROOT / "baselines" / "claims_quick.json"

# Workload -> (serial twin whose digest it must match, default seed).
# Seed 0 on the repro workloads keeps every scenario's built-in seed.
WORKLOADS = {
    "kad-drain": (None, 182),
    "kad-drain-sharded": ("kad-drain", 182),
    "repro-quick": (None, 0),
    "repro-quick-sharded": ("repro-quick", 0),
}
MIN_RUNS = 2
# Stop starting new runs after this long, to stay inside the 180 s a
# benchmark invocation may take.
LOOP_LIMIT_S = 110
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building perfbench failed")
    return target / "release" / "perfbench"


def child(exe, workload, seed, trace_dir=None):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--baseline", str(BASELINE)]
    if trace_dir is not None:
        cmd += ["--trace-out", str(trace_dir)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} run took over {CHILD_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{workload} run exited with {p.returncode}")
    return json.loads(lines[-1])


def check(runs, twin=None):
    """Correctness problems across runs of one workload at one seed."""
    problems = [p for r in runs for p in r["problems"]]
    ref = runs[0]
    for r in runs[1:]:
        if (r["digest"], r["events"]) != (ref["digest"], ref["events"]):
            problems.append(f"run outputs differ: digest {r['digest']} vs {ref['digest']}, "
                            f"events {r['events']} vs {ref['events']}")
    if twin is not None and (twin["digest"], twin["events"]) != (ref["digest"], ref["events"]):
        problems.append(f"sharded output {ref['digest']} differs from serial {twin['digest']}")
    return problems


def timed_runs(exe, workload, seed, seconds):
    """Runs until `seconds` have passed, to the nearest half run."""
    runs, start = [], time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        half_run = elapsed / max(len(runs), 1) / 2
        if len(runs) >= MIN_RUNS and (elapsed + half_run >= seconds or elapsed >= LOOP_LIMIT_S):
            return runs
        runs.append(child(exe, workload, seed))


def end_to_end(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    med = lambda key: statistics.median(r[key] for r in runs)
    return {
        "wall_s": med("wall_s"),
        "setup_s": med("setup_s"),
        "events_per_s": statistics.median(r["events"] / r["wall_s"] for r in runs),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "completed_ratio": (attempted - failed) / attempted,
    }


def measure(exe, workload, seed, seconds, traced):
    twin_name = WORKLOADS[workload][0]
    e2e_specs, layer_specs = metric_specs()
    if traced:
        plain = child(exe, workload, seed)
        trace_dir = BENCH_DIR / "out" / f"{workload}-seed{seed}"
        traced_run = child(exe, workload, seed, trace_dir)
        runs = [plain, traced_run]
        values = dict(traced_run["layers"])
        values["trace.overhead_s"] = traced_run["wall_s"] - plain["wall_s"]
        log(f"{workload}: trace written to {trace_dir}")
        specs = layer_specs
    else:
        runs = timed_runs(exe, workload, seed, seconds)
        values = end_to_end(runs)
        specs = e2e_specs
    twin = child(exe, twin_name, seed) if twin_name else None
    problems = check(runs, twin)
    for p in problems:
        log(f"{workload}: CHECK FAILED: {p}")
    r0 = runs[0]
    label = " (coordination overhead only)" if r0["coordination_overhead_only"] else ""
    log(f"{workload}: seed {seed}, {len(runs)} runs, {r0['shards']} shard(s) "
        f"on {r0['logical_cores']} logical cores{label}")
    metrics = {}
    for spec in specs:
        # Per-layer metrics a workload does not exercise read 0.
        value = values.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        log(f"  {spec['name']:34} {value:>16.6g} {spec['unit']}")
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=int, default=30, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        exe = build()
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = []
        for name in names:
            seed = WORKLOADS[name][1] if args.seed is None else args.seed
            results.append(measure(exe, name, seed, args.seconds, args.trace == 1))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    for r in results:
        print(json.dumps(r))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
