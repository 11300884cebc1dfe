#!/usr/bin/env python3
"""Benchmark entry point: builds the harness from source, then runs one
workload and prints its metrics, with one JSON result object last.

    python3 perfbench/run.py --workload dv_grid|pv_grid|figures \
        --seed N --seconds S --trace 0|1

Run it from the repository root. `dv_grid` and `pv_grid` are measured
in-process by the Rust harness (`perfbench/benches/`). `figures` runs the
fig3-7 binaries as child processes from a scratch directory under the
cargo target directory, so the tracked `results/` is never written; this
script times them and reads their CPU time and peak RSS from `wait4`. The
exit code is non-zero when the build fails or any output check fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")

FIG_BINS = ["fig3_drops", "fig4_ttl", "fig5_throughput", "fig6_convergence", "fig7_delay"]
# Runs per sweep point and worker threads of every figure binary.
RUNS_PER_POINT = 10
JOBS = 2
# Distinct (protocol, degree, seed) scenarios behind the fig3-7 CSVs: 4
# protocols x 6 degrees. fig5/fig7 re-run subsets of the same scenarios.
SCENARIOS_PER_RUN = 4 * 6
# Set-up passes (each one scratch directory plus a 1 run/point pass of
# every binary); the median is reported.
SETUP_REPS = 5
# Timed passes every end-to-end run completes.
MIN_PASSES = 2
# A child that outlives this is killed and counts as failed.
CHILD_TIMEOUT_S = 120

# sha256 over the fig3-7 CSV bytes (telemetry excluded), by runs/point.
PINNED_CSV_DIGESTS = {
    1: "2c49e611f2f1f42a9681bdfddbb54d86139c49acd0e2c48e4089e5a257a511b8",
    RUNS_PER_POINT: "23a3e75d0f28c5e0dc7588ca4d0fe8e4766e0033ab87e7a68df7c7f81805d52b",
}


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))


def build():
    """Builds the figure binaries and the harness; False on failure."""
    commands = [
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "bench"]
        + [arg for name in FIG_BINS for arg in ("--bin", name)],
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", MANIFEST],
    ]
    # Both workspaces build into one target directory, where the rest of
    # this script finds the binaries.
    env = {**os.environ, "CARGO_TARGET_DIR": target_dir()}
    for command in commands:
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return False
    return True


def spawn_and_wait(argv, cwd):
    """Runs one child to completion; returns (exit code, wall s, rusage)."""
    started = time.perf_counter()
    child = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage


def csv_digest(results):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(results)):
        if name.endswith(".csv"):
            digest.update(name.encode())
            with open(os.path.join(results, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def read_telemetry(results):
    """Per-binary rows, and summed events, attempts and failed rows, of the
    children's telemetry."""
    rows, events, attempts, failed = {}, 0, 0, 0
    for name in FIG_BINS:
        with open(os.path.join(results, "telemetry", name + ".jsonl")) as f:
            for line in f:
                row = json.loads(line)
                rows[name] = rows.get(name, 0) + 1
                events += row["events_processed"]
                attempts += row["attempts"]
                failed += 0 if row["ok"] else 1
    return rows, events, attempts, failed


def figure_pass(workdir, runs):
    """Runs the five figure binaries once; returns the pass record."""
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    os.makedirs(os.path.join(workdir, "results"))
    bindir = os.path.join(target_dir(), "release")
    record = {"wall": 0.0, "cpu": 0.0, "maxrss_kb": 0, "bin_ms": {}, "ok": True}
    started = time.perf_counter()
    for name in FIG_BINS:
        code, wall, usage = spawn_and_wait(
            [os.path.join(bindir, name), str(runs), "--jobs", str(JOBS)], workdir
        )
        if code != 0:
            print(f"perfbench: {name} exited with {code}", file=sys.stderr)
            record["ok"] = False
        record["cpu"] += usage.ru_utime + usage.ru_stime
        record["maxrss_kb"] = max(record["maxrss_kb"], usage.ru_maxrss)
        record["bin_ms"][name] = wall * 1e3
    record["wall"] = time.perf_counter() - started
    results = os.path.join(workdir, "results")
    if record["ok"]:
        record["digest"] = csv_digest(results)
        if record["digest"] != PINNED_CSV_DIGESTS[runs]:
            print(
                f"perfbench: fig3-7 CSV digest at {runs} run(s)/point is {record['digest']}, "
                f"pinned {PINNED_CSV_DIGESTS[runs]}",
                file=sys.stderr,
            )
            record["ok"] = False
        rows, events, attempts, failed = read_telemetry(results)
        record.update(rows=rows, events=events, attempts=attempts)
        if failed or len(rows) != len(FIG_BINS):
            record["ok"] = False
    return record


def quantile(values, q):
    """Nearest-rank quantile, as the Rust harness computes it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def figures_end_to_end(workdir, seconds):
    attempted = failed = 0
    setup = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        record = figure_pass(workdir, 1)
        setup.append(time.perf_counter() - started)
        attempted += SCENARIOS_PER_RUN
        failed += 0 if record["ok"] else SCENARIOS_PER_RUN

    scenarios = SCENARIOS_PER_RUN * RUNS_PER_POINT
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        record = figure_pass(workdir, RUNS_PER_POINT)
        passes.append(record)
        attempted += scenarios
        failed += 0 if record["ok"] else scenarios
        print(
            f"figures pass {len(passes)}: {record['wall']:.3f} s wall, {record['cpu']:.3f} s CPU, "
            f"peak RSS {record['maxrss_kb']} KiB, ok={record['ok']}"
        )

    # Worker wall time per run of each figure binary: its wall time times
    # its worker count over the runs it executed, as the median over the
    # passes (which keeps short bursts of machine noise out of the tail).
    per_run_ms = []
    if all(r["ok"] for r in passes):
        per_run_ms = [
            statistics.median(r["bin_ms"][name] * JOBS / r["rows"][name] for r in passes)
            for name in FIG_BINS
        ]
    metrics = {
        "runs_per_s": (statistics.median(scenarios / r["wall"] for r in passes), "1/s"),
        "run_ms_p50": (quantile(per_run_ms, 0.5), "ms"),
        "run_ms_p90": (quantile(per_run_ms, 0.9), "ms"),
        "cpu_ms_per_run": (statistics.median(r["cpu"] * 1e3 / scenarios for r in passes), "ms"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in passes) / 1024.0, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return attempted, failed, metrics


def figures_traced(workdir, seed, seconds):
    """One untimed pass for sweep and parallel counters, then the harness's
    in-process traced pass over the figure scenarios."""
    scenarios = SCENARIOS_PER_RUN * RUNS_PER_POINT
    record = figure_pass(workdir, RUNS_PER_POINT)
    attempted = scenarios
    failed = 0 if record["ok"] else scenarios
    harness = os.path.join(target_dir(), "release", "perfbench")
    argv = [harness, "--workload", "figures", "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        if not line.startswith("figures."):
            print(line)
    layer = json.loads(lines[-1]) if lines else {"attempted": 0, "failed": 1, "metrics": {}}
    attempted += layer["attempted"]
    failed += layer["failed"] + (0 if done.returncode == 0 else 1)
    metrics = {k: (v["value"], v["unit"]) for k, v in layer["metrics"].items()}
    if record["ok"]:
        rows = sum(record["rows"].values())
        metrics["sweep.runs_executed_per_scenario"] = (rows / scenarios, "ratio")
        metrics["sweep.events_executed_per_scenario"] = (record["events"] / scenarios, "count")
        metrics["sweep.attempts_per_scenario"] = (record["attempts"] / rows, "ratio")
        metrics["parallel.cpu_util"] = (record["cpu"] / (record["wall"] * JOBS), "fraction")
    print(
        f"figures traced: binaries executed {sum(record.get('rows', {}).values())} runs for {scenarios} scenarios "
        f"in {record['wall']:.3f} s"
    )
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["dv_grid", "pv_grid", "figures"])
    parser.add_argument("--seed", type=int, default=20030622)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    if not build():
        return 1
    if args.workload != "figures":
        harness = os.path.join(target_dir(), "release", "perfbench")
        argv = [harness, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return subprocess.run(argv, cwd=ROOT, timeout=170).returncode

    workdir = os.path.join(target_dir(), "perfbench-figures")
    if args.trace:
        attempted, failed, metrics = figures_traced(workdir, args.seed, args.seconds)
    else:
        attempted, failed, metrics = figures_end_to_end(workdir, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"figures.{name:<40} {value:>14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
