"""Command line front end: analytic evaluation, Monte Carlo simulation, and
parameter sweeps with stable CSV output.

Exit codes: 0 success, 1 configuration/usage error, 2 quadrature failure.

CSV contract: fixed column order, floats at 17 significant digits, LF line
endings. Every row carries the seed and a config hash so it can be
re-derived independently.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .analytic import QuadratureError, evaluate
from .channel import derive_seed
from .model import (
    CONFIG_KEYS,
    AnalyticResult,
    ConfigError,
    SystemConfig,
    config_digest,
    default_channel,
    default_config,
    load_config,
    mean_snr,
    parse_flat_text,
)
from .simulator import SimulationSummary, estimate

__all__ = ["main", "SweepSpec", "parse_sweep_text", "preset_jobs", "PRESETS"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_QUADRATURE = 2

_POINT_STREAM = 2

ANALYTIC_COLUMNS = (
    "p_n,p_n_err,e_s,e_tm,e_tu,energy_round,energy_block,seed,config_hash"
)
SIMULATE_COLUMNS = (
    "fork_rate,p_n,p_n_se,rounds_mean,rounds_se,energy_mean,energy_se,"
    "s_mean,tm_mean,tu_mean,system_energy_mean,capped_blocks,round_trials,"
    "block_trials,seed,config_hash"
)
SWEEP_COLUMNS = (
    "param,value,p_n_analytic,p_n_sim,p_n_se,energy_analytic,energy_sim,"
    "energy_se,rounds_mean,e_s,e_tm,e_tu,seed,config_hash"
)

SWEEP_PARAMS = ("num_miners", "tx_power_w", "snr_threshold_db")
_SWEEP_ONLY_KEYS = ("sweep_param", "sweep_values", "round_trials", "block_trials")
PRESETS = ("fig2", "fig3", "fig4")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit_csv(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# --- sweep specification ------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a fixed base config."""

    param: str
    values: tuple
    base: SystemConfig
    round_trials: int = 100_000
    block_trials: int = 2_000

    def validate(self) -> list[str]:
        errors = []
        if self.param not in SWEEP_PARAMS:
            errors.append(f"sweep_param must be one of {', '.join(SWEEP_PARAMS)}")
        if len(self.values) == 0:
            errors.append("sweep_values must be non-empty")
        elif any(b <= a for a, b in zip(self.values, self.values[1:])):
            errors.append("sweep_values must be strictly increasing")
        if self.round_trials < 100 or self.block_trials < 100:
            errors.append("trials must be >= 100")
        return errors


def _apply_param(base: SystemConfig, param: str, value) -> SystemConfig:
    if param == "num_miners":
        return replace(base, num_miners=int(value))
    if param == "tx_power_w":
        return replace(base, channel=replace(base.channel, tx_power_w=float(value)))
    if param == "snr_threshold_db":
        linear = 10.0 ** (float(value) / 10.0)
        return replace(base, channel=replace(base.channel, snr_threshold=linear))
    raise ConfigError([f"unknown sweep parameter: {param}"])


def parse_sweep_text(text: str) -> SweepSpec:
    """Parse a sweep file: the full config key set plus sweep_param,
    sweep_values (comma separated), round_trials, block_trials."""
    from .model import parse_config_text

    seen = parse_flat_text(text, CONFIG_KEYS + _SWEEP_ONLY_KEYS)
    errors = [f"missing key: {k}" for k in ("sweep_param", "sweep_values") if k not in seen]
    if errors:
        raise ConfigError(errors)

    config_lines = "\n".join(f"{k} = {v}" for k, v in seen.items() if k in CONFIG_KEYS)
    base = parse_config_text(config_lines)

    param = seen["sweep_param"].strip()
    value_type = int if param == "num_miners" else float
    try:
        values = tuple(value_type(v.strip()) for v in seen["sweep_values"].split(","))
    except ValueError:
        raise ConfigError(["sweep_values must be a comma-separated list of numbers"])
    try:
        round_trials = int(seen.get("round_trials", "100000"))
        block_trials = int(seen.get("block_trials", "2000"))
    except ValueError:
        raise ConfigError(["round_trials and block_trials must be integers"])

    spec = SweepSpec(
        param=param,
        values=values,
        base=base,
        round_trials=round_trials,
        block_trials=block_trials,
    )
    errors = spec.validate()
    if errors:
        raise ConfigError(errors)
    return spec


def preset_jobs(name: str) -> list[tuple[str, object, SystemConfig]]:
    """Shipped sweep presets (artifact defaults, reproducible by construction).

    fig2 and fig3 sweep the miner count 1..20 on the default link; fig4 crosses
    tx power {0.05..1} W with SNR thresholds {0.25, 0.5, 1, 2} times the mean
    SNR of the 0.1 W reference link, labelled tx_power_w@snr_q=<fraction>.
    """
    if name in ("fig2", "fig3"):
        base = default_config()
        return [("num_miners", i, replace(base, num_miners=i)) for i in range(1, 21)]
    if name == "fig4":
        reference_snr = mean_snr(default_channel(tx_power_w=0.1))
        jobs = []
        for q in (0.25, 0.5, 1.0, 2.0):
            for ptx in (0.05, 0.1, 0.2, 0.5, 1.0):
                cfg = default_config(tx_power_w=ptx)
                cfg = replace(
                    cfg, channel=replace(cfg.channel, snr_threshold=q * reference_snr)
                )
                jobs.append((f"tx_power_w@snr_q={q:g}", ptx, cfg))
        return jobs
    raise ConfigError([f"unknown preset: {name} (available: {', '.join(PRESETS)})"])


# --- commands ---------------------------------------------------------------


def _analytic_row(config: SystemConfig, result: AnalyticResult) -> str:
    cells = [
        result.no_fork_prob,
        result.quadrature_error,
        result.exp_min_compute,
        result.exp_mobility,
        result.exp_uplink,
        result.exp_round_energy,
        result.avg_block_energy,
        config.rng_seed,
        config_digest(config),
    ]
    return ",".join(_fmt(c) for c in cells)


def cmd_analytic(args) -> int:
    config = load_config(args.config)
    result = evaluate(config)
    _note(f"no-forking probability: {result.no_fork_prob:.10g}"
          f" (error estimate {result.quadrature_error:.3g})")
    _note(f"E[min compute latency]: {result.exp_min_compute:.10g} s")
    _note(f"E[mobility latency]:    {result.exp_mobility:.10g} s")
    _note(f"E[uplink latency]:      {result.exp_uplink:.10g} s")
    _note(f"round energy:           {result.exp_round_energy:.10g} J")
    _note(f"avg block energy:       {result.avg_block_energy:.10g} J")
    _emit_csv([ANALYTIC_COLUMNS, _analytic_row(config, result)], args.out)
    return EXIT_OK


def _simulate_row(summary: SimulationSummary) -> str:
    cells = [
        summary.fork_rate.value,
        summary.no_fork_prob.value,
        summary.no_fork_prob.se,
        summary.mean_rounds.value,
        summary.mean_rounds.se,
        summary.mean_block_energy.value,
        summary.mean_block_energy.se,
        summary.mean_winner_compute.value,
        summary.mean_winner_move.value,
        summary.mean_winner_uplink.value,
        summary.mean_system_energy.value,
        summary.capped_blocks,
        summary.round_trials,
        summary.block_trials,
        summary.seed,
        config_digest(summary.config),
    ]
    return ",".join(_fmt(c) for c in cells)


def cmd_simulate(args) -> int:
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
    _emit_csv([SIMULATE_COLUMNS, _simulate_row(summary)], args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.preset is not None:
        jobs = preset_jobs(args.preset)
        base_seed = args.seed if args.seed is not None else default_config().rng_seed
        round_trials = args.trials if args.trials is not None else 100_000
        block_trials = args.blocks if args.blocks is not None else 2_000
    else:
        if args.spec is None:
            raise ConfigError(["sweep needs a spec file or --preset"])
        spec = parse_sweep_text(Path(args.spec).read_text())
        jobs = [(spec.param, v, _apply_param(spec.base, spec.param, v)) for v in spec.values]
        base_seed = args.seed if args.seed is not None else spec.base.rng_seed
        round_trials = args.trials if args.trials is not None else spec.round_trials
        block_trials = args.blocks if args.blocks is not None else spec.block_trials

    lines = [SWEEP_COLUMNS]
    warnings: list[str] = []
    for index, (label, value, cfg) in enumerate(jobs):
        point_seed = derive_seed(base_seed, _POINT_STREAM, index)
        cfg = replace(cfg, rng_seed=point_seed)
        cells: dict[str, object] = {name: None for name in SWEEP_COLUMNS.split(",")}
        cells["param"] = label
        cells["value"] = value
        cells["seed"] = point_seed
        cells["config_hash"] = config_digest(cfg)
        try:
            result = evaluate(cfg)
            cells["p_n_analytic"] = result.no_fork_prob
            cells["energy_analytic"] = result.avg_block_energy
            cells["e_s"] = result.exp_min_compute
            cells["e_tm"] = result.exp_mobility
            cells["e_tu"] = result.exp_uplink
        except (ConfigError, QuadratureError, ValueError) as exc:
            warnings.append(f"{label}={value}: analytic failed: {exc}")
        try:
            summary = estimate(
                cfg,
                num_blocks=block_trials,
                num_round_trials=round_trials,
                workers=args.workers,
            )
            cells["p_n_sim"] = summary.no_fork_prob.value
            cells["p_n_se"] = summary.no_fork_prob.se
            cells["energy_sim"] = summary.mean_block_energy.value
            cells["energy_se"] = summary.mean_block_energy.se
            cells["rounds_mean"] = summary.mean_rounds.value
            if summary.capped_blocks:
                warnings.append(
                    f"{label}={value}: {summary.capped_blocks} block(s) hit the round cap"
                )
        except (ConfigError, QuadratureError, ValueError) as exc:
            warnings.append(f"{label}={value}: simulation failed: {exc}")
        lines.append(",".join(_fmt(cells[name]) for name in SWEEP_COLUMNS.split(",")))

    _emit_csv(lines, args.out)
    if warnings:
        if args.out in (None, "-"):
            for w in warnings:
                _note(f"warning: {w}")
        else:
            sidecar = Path(str(args.out) + ".warnings")
            sidecar.write_text("\n".join(warnings) + "\n", newline="\n")
            _note(f"{len(warnings)} warning(s) written to {sidecar}")
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
    trials, seed, workers = _int_in(100), _int_in(0, 2**64), _int_in(1)

    p_analytic = sub.add_parser("analytic", help="closed-form/quadrature metrics for one config")
    p_analytic.add_argument("config", help="path to a flat key=value config file")
    p_analytic.add_argument("--out", default="-", help="CSV destination (default stdout)")
    p_analytic.set_defaults(func=cmd_analytic)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimates for one config")
    p_sim.add_argument("config", help="path to a flat key=value config file")
    p_sim.add_argument("--trials", type=trials, default=100_000, help="independent PoW rounds")
    p_sim.add_argument("--blocks", type=trials, default=2_000, help="independent block recoveries")
    p_sim.add_argument("--seed", type=seed, default=None, help="override the config rng_seed")
    p_sim.add_argument("--workers", type=workers, default=1, help="worker processes")
    p_sim.add_argument("--out", default="-", help="CSV destination (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="analytic + simulated table over a parameter sweep")
    p_sweep.add_argument("spec", nargs="?", default=None, help="path to a sweep spec file")
    p_sweep.add_argument("--preset", choices=PRESETS, default=None, help="shipped sweep preset")
    p_sweep.add_argument("--out", default="-", help="CSV destination (default stdout)")
    p_sweep.add_argument("--trials", type=trials, default=None, help="rounds per sweep point")
    p_sweep.add_argument("--blocks", type=trials, default=None, help="blocks per sweep point")
    p_sweep.add_argument("--seed", type=seed, default=None, help="base seed for point substreams")
    p_sweep.add_argument("--workers", type=workers, default=1, help="worker processes")
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
