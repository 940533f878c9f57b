#!/usr/bin/env python3
"""Compares two sets of perfbench run records, per workload and metric.

    python3 perfbench/compare.py <base results dir> <new results dir>

Each directory holds the records perfbench/run.py writes (one JSON file
per run, under <build dir>/results/). Records whose machine and build
fingerprints differ are refused, so a change of compiler, build type,
lock-order check or SIMD setting never reads as a code speedup. For every
end-to-end metric of BENCHMARK.json it prints both medians, each side's
quartile spread (as a share of its median), the change, and a verdict
against the metric's bound: "worse" beyond the bound, "unresolved" when a
side's spread exceeds the bound, else "ok".
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if "fingerprint" in record and "metrics" in record:
            records.append(record)
    return records


def machine(record):
    fingerprint = dict(record["fingerprint"])
    fingerprint.pop("seed", None)
    return json.dumps(fingerprint, sort_keys=True)


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare: no run records found", file=sys.stderr)
        return 2
    fingerprints = {machine(r) for r in base + new}
    if len(fingerprints) != 1:
        print("compare: refusing to compare runs with different fingerprints:",
              file=sys.stderr)
        for f in sorted(fingerprints):
            print(f"  {f}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    print(f"{'workload':16} {'metric':24} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spreads':>13}  verdict")
    for workload in [w["name"] for w in contract["workloads"]]:
        for spec in contract["end_to_end"]:
            name = spec["name"]
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            loss = change if spec["better"] == "lower" else -change
            sa, sb = spread(a), spread(b)
            if max(sa, sb) > spec["bound"]:
                verdict = "unresolved"
            elif loss > spec["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:16} {name:24} {ma:12.4g} {mb:12.4g} "
                  f"{change:+8.1%} {sa:6.3f}/{sb:6.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
