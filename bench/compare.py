"""Compare two result sets made by ``bench/series.py``.

    python3 bench/compare.py .bench_results/parent.jsonl .bench_results/change.jsonl

Both sets must be untraced runs of the same length. For each workload and
each end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles over all its runs, the pairs the second set won, and a verdict
against the metric's bound. Runs are paired on equal seeds, ties count for
neither, and a seed that only one set has is named and left out of the
pairs. Without a common seed no pair is won, so no gain is claimed:

unresolved   a spread (IQR over median) is wider than the bound
better       as unresolved, but every run of the second set beats every run
             of the first
regression   the second median is worse than the first by more than the bound
improved     the second set won at least nine tenths of the pairs and its
             median is better by more than the first set's own spread
unchanged    none of the above
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from series import load, quartiles

ROOT = Path(__file__).resolve().parent.parent


def verdict(first, second, pairs, bound: float, lower_is_better: bool) -> tuple[str, str]:
    """Verdict on each set's values and the (first, second) values of runs with equal seeds."""
    sign = 1.0 if lower_is_better else -1.0
    a1, a_med, a3 = quartiles(first)
    b1, b_med, b3 = quartiles(second)
    worse_by = sign * (b_med - a_med) / a_med  # > 0: the second set is worse
    spread = max((a3 - a1) / a_med, (b3 - b1) / b_med)
    won = sum(1 for a, b in pairs if sign * (b - a) < 0)
    won_text = f"{won}/{len(pairs)}"
    if spread > bound:
        separated = all(sign * b < sign * a for a in first for b in second)
        return ("better" if separated else "unresolved"), won_text
    if worse_by > bound:
        return "regression", won_text
    if pairs and won >= 0.9 * len(pairs) and -worse_by > (a3 - a1) / a_med:
        return "improved", won_text
    return "unchanged", won_text


def _by_seed(runs: list[dict], label: str, workload: str) -> dict[int, dict]:
    by_seed: dict[int, dict] = {}
    for run in runs:
        if run["seed"] in by_seed:
            raise ValueError(f"{label} set: {workload} seed {run['seed']} appears twice")
        by_seed[run["seed"]] = run
    return by_seed


def check_set(records: list[dict], label: str, run_seconds: int) -> None:
    """Refuse records that the end-to-end comparison cannot use."""
    for r in records:
        where = f"{label} set: {r['workload']} seed {r['seed']}"
        if r.get("trace", 0) != 0:
            raise ValueError(f"{where} is a traced run; compare untraced runs")
        if r.get("seconds") != run_seconds:
            raise ValueError(f"{where} ran for {r.get('seconds')} s, not BENCHMARK.json's {run_seconds} s")


def compare(first: list[dict], second: list[dict], spec: dict) -> list[str]:
    lines = [
        f"{'workload':14} {'metric':12} {'first q1/med/q3':>32} {'second q1/med/q3':>32} "
        f"{'change':>8} {'won':>6} {'bound':>6}  verdict"
    ]
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs = _by_seed([r for r in first if r["workload"] == workload], "first", workload)
        b_runs = _by_seed([r for r in second if r["workload"] == workload], "second", workload)
        for label, only in (("first", a_runs.keys() - b_runs), ("second", b_runs.keys() - a_runs)):
            if only:
                lines.append(f"{workload:14} seeds only in the {label} set, not paired: {sorted(only)}")
        if not a_runs or not b_runs:
            continue
        seeds = sorted(a_runs.keys() & b_runs.keys())
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = {seed: r["result"]["metrics"][name]["value"] for seed, r in a_runs.items()}
            b = {seed: r["result"]["metrics"][name]["value"] for seed, r in b_runs.items()}
            pairs = [(a[seed], b[seed]) for seed in seeds]
            a, b = list(a.values()), list(b.values())
            result, won = verdict(a, b, pairs, metric["bound"], metric["better"] == "lower")
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            lines.append(
                f"{workload:14} {name:12} {'/'.join(f'{v:.4g}' for v in qa):>32} "
                f"{'/'.join(f'{v:.4g}' for v in qb):>32} {change:+8.2%} {won:>6} "
                f"{metric['bound']:6.0%}  {result}"
            )
        for label, runs in (("first", a_runs), ("second", b_runs)):
            results = [r["result"] for r in runs.values()]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results)
            lines.append(f"{workload:14} {label}: {failed} of {attempted} operations failed; all correct: {correct}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("first", help="result set of the parent")
    parser.add_argument("second", help="result set of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second = load(args.first), load(args.second)
    try:
        check_set(first, "first", spec["run_seconds"])
        check_set(second, "second", spec["run_seconds"])
        lines = compare(first, second, spec)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
