"""Benchmark of the forkwork command line.

    python3 bench/run.py --workload fig4 --seed 1 --seconds 44 --trace 0

Run from the root of a checkout; the package is loaded from ``src/``. One
run writes its inputs from the seed, then repeats whole passes over the
workload's CLI invocations, one process at a time, until the next pass would
overrun ``--seconds``. Between invocations and after the last one, every
``SETUP_EVERY_S`` seconds of the run, it times a fresh interpreter that
imports forkwork and loads the inputs (``setup_s``). Every pass's outputs
are checked (``checks.py``), along with a negative control that the checks
reject doctored tables.

--trace 0 reports the end-to-end metrics: medians over passes of the pass
wall time, the CPU time of the CLI process and every worker it reaped, and
their largest peak resident set, plus the median of the set-up samples.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: counters and self times from the span tracer (``tracing/``), the
direct probes (``probes.py``) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; problems go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_EVERY_S = 4.0  # one set-up sample per this much run time, taken between invocations
RUN_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    outputs: list[checks.Output]
    traces: list[dict]  # one record per traced process


def _env(trace_dir: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FORKWORK_TRACE_DIR"}
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(BENCH / "tracing"))
        env["FORKWORK_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _invoke(argv, env, cwd, stderr_path, limit_s):
    """Run one CLI process to its end; (wall s, rusage of it and its reaped workers, exit code)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", workloads.LAUNCHER, *argv],
            env=env,
            cwd=cwd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(max(1.0, limit_s), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def _read_traces(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]


class SetupClock:
    """Set-up samples spread over the run: one per ``SETUP_EVERY_S`` seconds, taken when due."""

    def __init__(self, workload, workdir: Path, start: float):
        self.workload, self.workdir = workload, workdir
        self.due = start
        self.times: list[float] = []

    def catch_up(self):
        while time.perf_counter() >= self.due:
            self.times.append(setup_seconds(self.workload, self.workdir))
            self.due += SETUP_EVERY_S


def run_pass(workload, workdir: Path, deadline: float, traced: bool, index: int, setup=None) -> Pass:
    wall = cpu = peak = 0.0
    outputs, traces = [], []
    for number, inv in enumerate(workload.invocations):
        if setup is not None:
            setup.catch_up()
        warnings_path = Path(str(inv.out) + ".warnings")
        for stale in (inv.out, warnings_path):
            stale.unlink(missing_ok=True)
        trace_dir = None
        if traced:
            trace_dir = workdir / "trace" / f"{index}-{number}"
            trace_dir.mkdir(parents=True)
        limit = deadline - time.perf_counter()
        stderr_path = workdir / "stderr.txt"
        seconds, usage, code = _invoke(inv.argv, _env(trace_dir), workdir, stderr_path, limit)
        if code != 0:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-5:]
            print(f"forkwork {' '.join(inv.argv)} exited {code}:", *tail, sep="\n  ", file=sys.stderr)
        wall += seconds
        cpu += usage.ru_utime + usage.ru_stime
        peak = max(peak, usage.ru_maxrss / 1024.0)  # KiB on Linux
        text = inv.out.read_text() if inv.out.exists() else None
        warnings = warnings_path.read_text().splitlines() if warnings_path.exists() else []
        outputs.append(checks.Output(code, text, warnings))
        if traced:
            traces += _read_traces(trace_dir)
    return Pass(wall, cpu, peak, outputs, traces)


def setup_seconds(workload, workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports forkwork and loads the input."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", workload.setup_code],
        env=_env(),
        cwd=workdir,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def probe_metrics(workdir: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "probes.py")],
        env=_env(),
        cwd=workdir,
        check=True,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


# --- per-layer metrics from the traces --------------------------------------

SAMPLERS = (
    "channel.sample_compute_latency",
    "channel.sample_num_movements",
    "channel.sample_snr_conditional",
)
TASK_BODIES = ("simulator._round_chunk", "simulator._block_chunk")


def block_rounds(workload, outputs) -> int:
    """Rounds raced in the block path, read from the output (rounds_mean x blocks)."""
    total = 0
    for inv, out in zip(workload.invocations, outputs):
        if inv.kind == "analytic" or out.text is None:
            continue
        _, rows = checks.parse_csv(out.text)
        blocks = workloads.SWEEP_BLOCKS if inv.kind == "sweep" else workloads.FORKY_BLOCKS
        total += sum(round(float(row["rounds_mean"] or 0.0) * blocks) for row in rows)
    return total


def layer_metrics(traces: list[dict], rounds: int) -> dict:
    stats: dict[str, dict] = {}
    for record in traces:
        for name, rec in record["stats"].items():
            into = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "items": 0})
            for field, value in rec.items():
                into[field] += value

    def get(name, field):
        return stats.get(name, {}).get(field, 0.0 if field.endswith("_s") else 0)

    def layer_self(layer):
        return sum((r["self_s"] for n, r in stats.items() if n.startswith(layer + ".")), 0.0)

    sample_calls = sum(get(f"{n}@run_block", "calls") for n in SAMPLERS)
    draws = sum(get(f"{n}@run_block", "items") for n in SAMPLERS)
    block_time = get("simulator._block_chunk", "incl_s")
    return {
        "model.derive_calls": get("model.derive", "calls"),
        "model.self_s": layer_self("model"),
        "channel.sample_calls": sample_calls,
        "channel.draws_per_call": draws / sample_calls if sample_calls else 0.0,
        "channel.pdf_points": get("channel.LatencyDistribution.uplink_pdf", "items"),
        "channel.self_s": layer_self("channel"),
        "analytic.evaluate_calls": get("analytic.evaluate", "calls"),
        "analytic.quad_calls": get("analytic.integrate_adaptive", "calls"),
        "analytic.quad_points": get("analytic.integrate_adaptive", "items"),
        "analytic.pn_s": get("analytic.no_forking_probability", "incl_s"),
        "analytic.uplink_mean_s": get("analytic.expected_uplink_latency", "incl_s"),
        "analytic.self_s": layer_self("analytic"),
        "simulator.estimate_calls": get("simulator.estimate", "calls"),
        "simulator.run_block_calls": get("simulator.run_block", "calls"),
        "simulator.block_rounds": rounds,
        "simulator.block_rounds_per_s": rounds / block_time if block_time else 0.0,
        "simulator.worker_busy_s": sum(get(n, "incl_s") for n in TASK_BODIES),
        "simulator.self_s": layer_self("simulator"),
        "cli.self_s": layer_self("cli"),
    }


# --- one run ---------------------------------------------------------------


def _passes(workload, workdir, seconds, run_start, pattern, setup):
    """Whole passes, cycling through ``pattern`` (traced flags), until the next cycle would overrun."""
    deadline = run_start + RUN_LIMIT_S
    start = time.perf_counter()
    done: list[tuple[bool, Pass]] = []
    while True:
        for traced in pattern:
            done.append((traced, run_pass(workload, workdir, deadline, traced, len(done), setup)))
        cycles = len(done) // len(pattern)
        per_cycle = (time.perf_counter() - start) / cycles
        elapsed = time.perf_counter() - start
        if elapsed + per_cycle > seconds or time.perf_counter() + per_cycle > deadline - 10.0:
            if setup is not None:
                setup.catch_up()  # the samples due during the last pass
            return done


def measure(args, workdir: Path) -> dict:
    run_start = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, workdir)
    setup = None if args.trace else SetupClock(workload, workdir, time.perf_counter())
    pattern = (False, True) if args.trace else (False,)
    done = _passes(workload, workdir, args.seconds, run_start, pattern, setup)

    attempted = failed = 0
    problems: list[str] = []
    for _, result in done:
        graded = checks.grade(workload, result.outputs)
        attempted += graded.attempted
        failed += graded.failed
        problems += [p for p in graded.problems if p not in problems]
    first = done[0][1].outputs
    if any([o.text for o in r.outputs] != [o.text for o in first] for _, r in done):
        problems.append("outputs differ between passes of the same seed")
    problems += [f"negative control: the checks accepted {label}" for label in checks.negative_control(workload, first)]

    plain = [r for traced, r in done if not traced]
    if args.trace:
        traced = [r for t, r in done if t]
        rounds = block_rounds(workload, first)
        per_pass = [layer_metrics(r.traces, rounds) for r in traced]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values.update(probe_metrics(workdir))
        values["trace_overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
            r.wall_s for r in plain
        )
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r.wall_s for r in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_s for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in plain), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "forkwork" / "cli.py").is_file():
        print(f"error: no forkwork package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
