"""Collect a result set: benchmark runs over several seeds, one JSON line each.

    python3 bench/series.py --workloads fig2,fig4 --seeds 1-10 --out .bench_results/a.jsonl

Runs the benchmark's command once per (seed, workload), for BENCHMARK.json's
``run_seconds``, seed by seed so that slow drift of the machine spreads over
every workload. It appends each result to ``--out`` and prints, per workload
and metric, the median, the quartiles and the spread (interquartile range
over median) beside the metric's bound in BENCHMARK.json.
``bench/compare.py`` compares two such sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(records: list[dict], spec: dict) -> list[str]:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lines = [f"{'workload':14} {'metric':28} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7} {'bound':>6}"]
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        names = dict.fromkeys(n for r in runs for n in r["result"]["metrics"])
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs if name in r["result"]["metrics"]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            lines.append(
                f"{workload:14} {name:28} {len(values):3d} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                f"{spread:7.2%} {'' if bound is None else format(bound, '.0%'):>6}"
            )
        correct = all(r["result"]["correct"] for r in runs)
        lines.append(f"{workload:14} failed {failed} of {attempted} operations; all correct: {correct}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON-lines file to append results to")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for seed in _seeds(args.seeds):
        for workload in args.workloads.split(","):
            command = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            command += ["--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            record = {"workload": workload, "seed": seed, "seconds": spec["run_seconds"], "trace": args.trace}
            record["result"] = json.loads(done.stdout.strip().splitlines()[-1])
            records.append(record)
            with out.open("a") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: {json.dumps(record['result'])}", file=sys.stderr)
    print("\n".join(summary(records, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
