#!/usr/bin/env python3
"""Quorum's repository benchmark.

Builds the measurement harness (perfbench/CMakeLists.txt, which pulls in
the Quorum sources one directory up) into .bench_build/, runs one workload
and prints its metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload batch_table --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, untraced

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a per-layer metric the workload does not exercise reads
0). The exit status is 0 only when every output matched its reference.

serve_fleet runs by name only (--workload serve_fleet) and reports every
metric the harness measures: it is not among BENCHMARK.json's workloads
because its timings follow the shared host's wake-up latency rather than
the program (see perfbench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
DATA_DIR = BUILD_DIR / "data"
RESULTS_DIR = BUILD_DIR / "results"
HARNESS = CMAKE_DIR / "perfbench_harness"
# Runnable by name, not listed in BENCHMARK.json (see the docstring).
UNLISTED_WORKLOADS = ["serve_fleet"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness, quorum_serve and
    quorum_worker. Build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no Quorum sources next to {BENCH_DIR.name}/; run from a full checkout")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                  "perfbench_harness", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_workload(workload, seed, seconds, trace, bench, settings):
    """Runs the harness once; returns (result dict, exit ok)."""
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    serve = settings["serve_fleet"]
    command = [str(HARNESS), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--data-dir", str(DATA_DIR)]
    if workload == "serve_fleet":
        command += ["--serve-rate", str(serve["offered_rate_per_s"]),
                    "--serve-p99-limit-ms", str(serve["open_loop_p99_limit_ms"]),
                    "--serve-lag-limit-ms", str(serve["generator_lag_p99_limit_ms"]),
                    "--serve-backlog-limit", str(serve["backlog_limit"])]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(150.0, 8.0 * seconds))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: the harness did not finish in time")

    host, measured, outcome = {}, {}, None
    for line in done.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "HOST":
            key, _, value = rest.partition(" ")
            host[key] = value
        elif kind == "METRIC":
            name, value, unit = rest.split(" ")
            measured[name] = (float(value), unit)
        elif kind == "RESULT":
            attempted, failed, digest = rest.split(" ")
            outcome = (int(attempted), int(failed), digest)
        elif kind == "INVALID":
            fail(f"{workload}: run invalid, numbers not reported: {rest}")
        else:
            print(line)
    if outcome is None:
        fail(f"{workload}: the harness reported no result "
             f"(exit status {done.returncode})")
    attempted, failed, digest = outcome

    if workload in UNLISTED_WORKLOADS:
        units = {name: unit for name, (_, unit) in measured.items()}
    else:
        # Every metric the harness printed must be declared, and the
        # contract's metric list for this kind of run must be complete.
        declared = bench["per_layer"] if trace else bench["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        unknown = sorted(set(measured) - set(units))
        if unknown:
            fail(f"{workload}: undeclared metrics {unknown}")
        if not trace:
            missing = sorted(set(units) - set(measured))
            if missing:
                fail(f"{workload}: metrics not measured {missing}")
    metrics = {}
    for name, unit in units.items():
        value, printed_unit = measured.get(name, (0.0, unit))
        if printed_unit != unit:
            fail(f"{workload}: {name} printed in {printed_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}

    expected = settings["default_seed_digests"].get(workload)
    digest_ok = seed != settings["default_seed"] or expected == digest
    if not digest_ok:
        print(f"{workload}: score digest {digest} differs from the committed "
              f"{expected} for seed {seed}", file=sys.stderr)
        failed = attempted
    correct = done.returncode == 0 and failed == 0 and digest_ok

    print(f"{workload}: host " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(f"{workload}: seed {seed}, trace {trace}, score digest {digest}, "
          f"{attempted} operations, {failed} failed "
          f"(failed_share {failed / attempted:.6f} ratio)")
    for name, metric in metrics.items():
        print(f"{workload}: {name} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  seconds=seconds, digest=digest, host=host)
    (RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result, correct


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    settings = json.loads((BENCH_DIR / "settings.json").read_text())
    names = [w["name"] for w in bench["workloads"]] if bench else []
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + UNLISTED_WORKLOADS,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=settings["default_seed"])
    parser.add_argument("--seconds", type=int,
                        default=bench["run_seconds"] if bench else 10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if bench is None:
        fail("BENCHMARK.json is missing")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()

    if args.workload:
        result, ok = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, bench, settings)
        print(json.dumps(result))
        sys.exit(0 if ok else 1)

    results, all_ok = {}, True
    for workload in names:
        result, ok = run_workload(workload, args.seed, args.seconds,
                                  args.trace, bench, settings)
        results[workload] = result
        all_ok = all_ok and ok
    print(json.dumps(results))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
