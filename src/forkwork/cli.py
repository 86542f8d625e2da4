"""Command line front end: analytic evaluation, Monte Carlo simulation, and
parameter sweeps with stable CSV output.

Exit codes: 0 success, 1 configuration/usage error, 2 quadrature failure.

CSV contract: fixed column order, floats at 17 significant digits, LF line
endings. Every row carries the seed and a config hash so it can be
re-derived independently.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

# One BLAS thread for the command line, set before the package imports numpy:
# no matrix product here is large enough to use more. A value the user set
# wins, and a library user who never imports this module keeps their own.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# a command imports the halves it runs, forkwork.analytic and forkwork.simulator, when it runs
from .channel import derive_seed
from .model import (
    CONFIG_KEYS,
    DEFAULT_BLOCKS,
    DEFAULT_ROUND_TRIALS,
    MIN_TRIALS,
    ConfigError,
    QuadratureError,
    SystemConfig,
    config_digest,
    config_from_values,
    config_values,
    default_channel,
    default_config,
    default_miner,
    load_config,
    mean_snr,
    parse_flat_text,
    parse_value,
)

__all__ = ["main", "parse_sweep_text", "preset_jobs", "PRESETS"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_QUADRATURE = 2

_POINT_STREAM = 2

# Each CSV's columns in order, each mapped to the dotted path of the value it
# prints, from a source that _row is given. A new column is one entry here.
_PROVENANCE = {"seed": "config.rng_seed", "config_hash": "digest"}
ANALYTIC_SCHEMA = {
    "p_n": "result.no_fork_prob",
    "p_n_err": "result.quadrature_error",
    "e_s": "result.exp_min_compute",
    "e_tm": "result.exp_mobility",
    "e_tu": "result.exp_uplink",
    "energy_round": "result.exp_round_energy",
    "energy_block": "result.avg_block_energy",
    **_PROVENANCE,
}
SIMULATE_SCHEMA = {
    "fork_rate": "summary.fork_rate.value",
    "p_n": "summary.no_fork_prob.value",
    "p_n_se": "summary.no_fork_prob.se",
    "rounds_mean": "summary.mean_rounds.value",
    "rounds_se": "summary.mean_rounds.se",
    "energy_mean": "summary.mean_block_energy.value",
    "energy_se": "summary.mean_block_energy.se",
    "s_mean": "summary.mean_winner_compute.value",
    "tm_mean": "summary.mean_winner_move.value",
    "tu_mean": "summary.mean_winner_uplink.value",
    "system_energy_mean": "summary.mean_system_energy.value",
    "capped_blocks": "summary.capped_blocks",
    "round_trials": "summary.round_trials",
    "block_trials": "summary.block_trials",
    **_PROVENANCE,
}
SWEEP_SCHEMA = {
    "param": "label",
    "value": "value",
    "p_n_analytic": "result.no_fork_prob",
    "p_n_sim": "summary.no_fork_prob.value",
    "p_n_se": "summary.no_fork_prob.se",
    "energy_analytic": "result.avg_block_energy",
    "energy_sim": "summary.mean_block_energy.value",
    "energy_se": "summary.mean_block_energy.se",
    "rounds_mean": "summary.mean_rounds.value",
    "e_s": "result.exp_min_compute",
    "e_tm": "result.exp_mobility",
    "e_tu": "result.exp_uplink",
    **_PROVENANCE,
}

SWEEP_PARAMS = ("num_miners", "tx_power_w", "snr_threshold_db")
_SWEEP_ONLY_KEYS = ("sweep_param", "sweep_values", "round_trials", "block_trials")
PRESETS = ("fig2", "fig3", "fig4")


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _row(schema: dict[str, str], config: SystemConfig, **sources) -> str:
    """One CSV line: ``_fmt`` of the value at each column's path. The sources are
    ``config``, its ``digest`` and those named; one that is None (a failed sweep
    half) prints empty cells, and a path through a missing attribute raises."""
    sources.update(config=config, digest=config_digest(config))
    cells = []
    for path in schema.values():
        source, *attributes = path.split(".")
        value = sources[source]
        if value is not None:
            for name in attributes:
                value = getattr(value, name)
        cells.append(_fmt(value))
    return ",".join(cells)


def _emit_csv(schema: dict[str, str], rows: list[str], out: str | None) -> None:
    text = "\n".join([",".join(schema), *rows]) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# --- sweep specification ------------------------------------------------


def parse_sweep_text(text: str) -> tuple[list[tuple[str, object, SystemConfig]], int, int]:
    """Parse a sweep file: the full config key set plus sweep_param,
    sweep_values (comma separated), round_trials, block_trials.

    Builds, and so checks, the config of every point. Returns the jobs
    ``(param, value, config)`` in sweep order with the round and block trial
    counts. Raises ConfigError on any problem.
    """
    seen = parse_flat_text(text, CONFIG_KEYS + _SWEEP_ONLY_KEYS)
    errors = [f"missing key: {k}" for k in ("sweep_param", "sweep_values") if k not in seen]
    if errors:
        raise ConfigError(errors)
    param = seen["sweep_param"]
    if param not in SWEEP_PARAMS:
        raise ConfigError([f"sweep_param must be one of {', '.join(SWEEP_PARAMS)}"])

    values = config_values(seen)
    points = [parse_value(param, v.strip()) for v in seen["sweep_values"].split(",")]
    try:
        round_trials = int(seen.get("round_trials", DEFAULT_ROUND_TRIALS))
        block_trials = int(seen.get("block_trials", DEFAULT_BLOCKS))
    except ValueError:
        raise ConfigError(["round_trials and block_trials must be integers"]) from None
    if any(b <= a for a, b in zip(points, points[1:])):
        errors.append("sweep_values must be strictly increasing")
    if round_trials < MIN_TRIALS or block_trials < MIN_TRIALS:
        errors.append(f"trials must be >= {MIN_TRIALS}")
    if errors:
        raise ConfigError(errors)
    jobs = [(param, p, config_from_values({**values, param: p})) for p in points]
    return jobs, round_trials, block_trials


def preset_jobs(name: str) -> list[tuple[str, object, SystemConfig]]:
    """Shipped sweep presets (artifact defaults, reproducible by construction).

    fig2 and fig3 sweep the miner count 1..20 on the default link; fig4 crosses
    tx power {0.05..1} W with SNR thresholds {0.25, 0.5, 1, 2} times the mean
    SNR of the 0.1 W reference link, labelled tx_power_w@snr_q=<fraction>.
    """
    if name in ("fig2", "fig3"):
        base = default_config()
        return [("num_miners", i, replace(base, num_miners=i)) for i in range(1, 21)]
    if name == "fig4":  # each point's config built once, at its own threshold
        reference_snr = mean_snr(default_channel(tx_power_w=0.1))
        return [
            (f"tx_power_w@snr_q={q:g}", ptx, SystemConfig(
                num_miners=10, miner=default_miner(),
                channel=replace(default_channel(ptx), snr_threshold=q * reference_snr),
            ))
            for q in (0.25, 0.5, 1.0, 2.0) for ptx in (0.05, 0.1, 0.2, 0.5, 1.0)
        ]
    raise ConfigError([f"unknown preset: {name} (available: {', '.join(PRESETS)})"])


# --- commands ---------------------------------------------------------------


def cmd_analytic(args) -> int:
    from .analytic import evaluate
    config = load_config(args.config)
    result = evaluate(config)
    _note(f"no-forking probability: {result.no_fork_prob:.10g}"
          f" (error estimate {result.quadrature_error:.3g})")
    _note(f"E[min compute latency]: {result.exp_min_compute:.10g} s")
    _note(f"E[mobility latency]:    {result.exp_mobility:.10g} s")
    _note(f"E[uplink latency]:      {result.exp_uplink:.10g} s"
          f" (error estimate {result.exp_uplink_error:.3g})")
    _note(f"round energy:           {result.exp_round_energy:.10g} J")
    _note(f"avg block energy:       {result.avg_block_energy:.10g} J")
    _emit_csv(ANALYTIC_SCHEMA, [_row(ANALYTIC_SCHEMA, config, result=result)], args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulator import estimate
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    summary = estimate(
        config, num_blocks=args.blocks, num_round_trials=args.trials, workers=args.workers
    )
    lo, hi = summary.no_fork_prob.ci95
    _note(f"fork rate:         {summary.fork_rate.value:.6g} +- {summary.fork_rate.se:.3g}")
    _note(f"p_n:               {summary.no_fork_prob.value:.6g} (95% CI [{lo:.6g}, {hi:.6g}])")
    _note(f"mean rounds/block: {summary.mean_rounds.value:.6g} +- {summary.mean_rounds.se:.3g}")
    _note(f"mean block energy: {summary.mean_block_energy.value:.6g} J"
          f" +- {summary.mean_block_energy.se:.3g}")
    _note(f"winner means:      s={summary.mean_winner_compute.value:.6g} s,"
          f" t_move={summary.mean_winner_move.value:.6g} s,"
          f" t_up={summary.mean_winner_uplink.value:.6g} s")
    if summary.capped_blocks:
        _note(f"warning: {summary.capped_blocks} block(s) hit the round cap")
    _emit_csv(SIMULATE_SCHEMA, [_row(SIMULATE_SCHEMA, summary.config, summary=summary)], args.out)
    return EXIT_OK


def _point_job(config: SystemConfig, block_trials: int, round_trials: int):
    """A sweep point's analytic result and simulation summary, each one the
    error that stopped it where one did: returned, not raised, so that one
    point's failure crosses the pool as a value."""
    from .analytic import evaluate
    from .simulator import estimate
    try:
        result = evaluate(config)
    except (ConfigError, QuadratureError, ValueError) as exc:
        result = exc
    try:
        summary = estimate(config, num_blocks=block_trials, num_round_trials=round_trials)
    except (ConfigError, QuadratureError, ValueError) as exc:
        summary = exc
    return result, summary


def cmd_sweep(args) -> int:
    # both halves load here, before any pool starts, so its forked workers inherit them
    from . import analytic  # noqa: F401
    from .simulator import _run_tasks
    if args.preset is not None:
        jobs = preset_jobs(args.preset)
        round_trials, block_trials = DEFAULT_ROUND_TRIALS, DEFAULT_BLOCKS
    else:
        jobs, round_trials, block_trials = parse_sweep_text(Path(args.spec).read_text())
    round_trials = args.trials if args.trials is not None else round_trials
    block_trials = args.blocks if args.blocks is not None else block_trials

    points = []
    for index, (label, value, cfg) in enumerate(jobs):
        # without --seed, a point's seed derives from its config's: the spec's or the default's
        base_seed = args.seed if args.seed is not None else cfg.rng_seed
        cfg = replace(cfg, rng_seed=derive_seed(base_seed, _POINT_STREAM, index))
        points.append((label, value, cfg))
    # one task per point, in one task list: a point runs whole in one worker
    tasks = [(_point_job, cfg, block_trials, round_trials) for _, _, cfg in points]
    results = _run_tasks(tasks, args.workers)

    rows: list[str] = []
    warnings: list[str] = []
    for (label, value, cfg), (result, summary) in zip(points, results):
        if isinstance(result, Exception):
            warnings.append(f"{label}={value}: analytic failed: {result}")
            result = None
        if isinstance(summary, Exception):
            warnings.append(f"{label}={value}: simulation failed: {summary}")
            summary = None
        elif summary.capped_blocks:
            warnings.append(
                f"{label}={value}: {summary.capped_blocks} block(s) hit the round cap"
            )
        sources = {"label": label, "value": value, "result": result, "summary": summary}
        rows.append(_row(SWEEP_SCHEMA, cfg, **sources))

    _emit_csv(SWEEP_SCHEMA, rows, args.out)
    if args.out in (None, "-"):
        for w in warnings:
            _note(f"warning: {w}")
    else:
        sidecar = Path(str(args.out) + ".warnings")
        if warnings:
            sidecar.write_text("\n".join(warnings) + "\n", newline="\n")
            _note(f"{len(warnings)} warning(s) written to {sidecar}")
        else:
            sidecar.unlink(missing_ok=True)  # a previous run's warnings are not this table's
    return EXIT_OK


# --- entry point ------------------------------------------------------------


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer >= lo, and < hi when given."""

    def integer(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value >= hi):
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi or 'inf'}), got {value}")
        return value

    return integer


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for quadrature
    # failures by funnelling usage problems through ConfigError instead.
    def error(self, message):
        raise ConfigError([message])


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="forkwork", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    trials, seed, workers = _int_in(MIN_TRIALS), _int_in(0, 2**64), _int_in(1)
    rounds, blocks = DEFAULT_ROUND_TRIALS, DEFAULT_BLOCKS

    p_analytic = sub.add_parser("analytic", help="closed-form/quadrature metrics for one config")
    p_analytic.add_argument("config", help="path to a flat key=value config file")
    p_analytic.add_argument("--out", default="-", help="CSV destination (default stdout)")
    p_analytic.set_defaults(func=cmd_analytic)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimates for one config")
    p_sim.add_argument("config", help="path to a flat key=value config file")
    p_sim.add_argument("--trials", type=trials, default=rounds, help="independent PoW rounds")
    p_sim.add_argument("--blocks", type=trials, default=blocks, help="blocks from the round stream")
    p_sim.add_argument("--seed", type=seed, default=None, help="override the config rng_seed")
    p_sim.add_argument("--workers", type=workers, default=1, help="processes splitting the chunks")
    p_sim.add_argument("--out", default="-", help="CSV destination (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="analytic + simulated table over a parameter sweep")
    source = p_sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("spec", nargs="?", default=None, help="path to a sweep spec file")
    source.add_argument("--preset", choices=PRESETS, default=None, help="shipped sweep preset")
    p_sweep.add_argument("--out", default="-", help="CSV destination (default stdout)")
    p_sweep.add_argument("--trials", type=trials, default=None, help="rounds per sweep point")
    p_sweep.add_argument("--blocks", type=trials, default=None, help="blocks per sweep point")
    p_sweep.add_argument("--seed", type=seed, default=None, help="base seed for point substreams")
    p_sweep.add_argument("--workers", type=workers, default=1, help="processes, a whole point each")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        for message in exc.errors:
            _note(f"config error: {message}")
        return EXIT_CONFIG
    except UnicodeDecodeError as exc:  # a config or spec file that is not text
        _note(f"config error: input file is not {exc.encoding} text"
              f" ({exc.reason} at byte {exc.start})")
        return EXIT_CONFIG
    except QuadratureError as exc:
        _note(f"quadrature failure: {exc}")
        return EXIT_QUADRATURE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except OSError as exc:
        _note(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
