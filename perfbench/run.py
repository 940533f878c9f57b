#!/usr/bin/env python3
"""The repository benchmark: one workload of the real Scoop stack per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
Scoop libraries and the benchmark binary (perfbench/CMakeLists.txt) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.

Workloads (see BENCHMARK.json for why each exists):
  table1_pushdown  closed loop, the 7 Table I queries on a pushdown table
  table1_plain     the same with pushdown off (ingest-then-compute)
  dashboard_rw     zipf dashboard queries plus 5% re-uploads, result cache
                   on, every request over loopback TCP
  tenants_qos      open loop, gold and bronze tenants under QoS

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics (from a traced phase that follows an
untraced one). Every query result is checked against a single-process
reference; a wrong result makes the run exit 1. The full record of a run
(all metrics, per-layer figures, machine and build fingerprint, seed) is
written to <build dir>/results/ and printed on the line before the result.
Compare two sets of records with perfbench/compare.py, which refuses
records whose fingerprints differ.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    """Configures once, then builds `targets`; returns False on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "Makefile").exists():  # written only by a configure that succeeded
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    for step in steps:
        started = time.monotonic()
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return False
        what = "build" if step[1] == "--build" else "configure"
        log(f"{what} done in {time.monotonic() - started:.1f}s")
    return True


def load_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def finite_number(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def run(args):
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose one of {names}")
        return 2
    if not build(["perfbench"]):
        return 1
    command = [str(build_dir() / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench binary exited with {proc.returncode}")
        return 1
    record = json.loads(lines[-1])

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    source = record["layers"] if args.trace else record["metrics"]
    metrics = {}
    missing = []
    for spec in wanted:
        got = source.get(spec["name"])
        if got is None or not finite_number(got["value"]) or got["unit"] != spec["unit"]:
            missing.append(spec["name"])
            continue
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(record["correct"]) and proc.returncode == 0 and not missing
    if missing:
        log(f"metrics missing or malformed: {missing}")
    for error in record.get("errors", []):
        log(f"error: {error}")

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    record["command"] = command[1:]
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": max(1, record["attempted"]),
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def selftest():
    if not build(["perfbench_selftest"]):
        return 1
    return subprocess.run([str(build_dir() / "perfbench_selftest")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the statistics self-test")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
