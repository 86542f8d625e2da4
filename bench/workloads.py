"""The four workloads: the CLI invocations of one pass, made from a seed.

Every workload drives the ``forkwork`` command line as a user does, one
fresh process per invocation, one invocation at a time:

fig2           ``sweep --preset fig2 --workers 1``: the paper's miner-count
               figure; analytic outer quadrature dominates, no pool.
fig4           ``sweep --preset fig4 --workers 2``: one new latency law per
               point (mixture depth 7 to 1494), the only pooled workload.
forky_sim      ``simulate`` at I = 20 with the threshold at 6x the mean SNR
               (p_n about 0.29): the per-round block loop, no analytic work.
point_queries  ``analytic`` once per config of the 16-point acceptance grid:
               interpreter start-up, config parsing and a cold build each.

The seed picks the CLI's simulation seeds and, for point_queries, the order
of the sixteen invocations; the inputs are otherwise fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from reference import Link, threshold_db

FIG4_TX_W = (0.05, 0.1, 0.2, 0.5, 1.0)
FIG4_FRACTIONS = (0.25, 0.5, 1.0, 2.0)
GRID_MINERS = (2, 5, 10, 20)
GRID_TX_W = (0.1, 1.0)
GRID_FRACTIONS = (0.5, 1.0)

# the CLI's default trial counts, which the sweeps run at
SWEEP_ROUNDS = 100_000
SWEEP_BLOCKS = 2_000
FORKY_ROUNDS = 100_000
FORKY_BLOCKS = 20_000
FORKY_LINK = Link(miners=20, tx_w=0.1, thr_db=threshold_db(0.1, 6.0))

WORKLOADS = ("fig2", "fig4", "forky_sim", "point_queries")

LAUNCHER = "import sys; from forkwork.cli import main; sys.exit(main())"


def grid_links() -> list[Link]:
    """The 16-point acceptance grid; thresholds are fractions of each link's mean SNR."""
    return [
        Link(miners, tx, threshold_db(tx, fraction))
        for miners in GRID_MINERS
        for tx in GRID_TX_W
        for fraction in GRID_FRACTIONS
    ]


@dataclass
class Invocation:
    """One CLI process: its arguments, its CSV and the Link behind each row key."""

    kind: str  # "sweep", "simulate" or "analytic": the CSV schema
    argv: list[str]
    out: Path
    links: dict[str, Link]
    seed: int | None = None  # rng seed the row must carry, where fixed by the input


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    setup_code: str  # a fresh interpreter runs this: import forkwork, load the input


def _cli_seed(name: str, seed: int) -> int:
    return random.Random(f"{name}:{seed}").getrandbits(32)


def config_text(link: Link, rng_seed: int) -> str:
    return "\n".join(
        [
            f"num_miners = {link.miners}",
            "carrier_frequency_hz = 2.4e9",
            "distance_m = 50",
            "bandwidth_hz = 180e3",
            "noise_psd_dbm_hz = -174",
            f"tx_power_w = {link.tx_w!r}",
            f"snr_threshold_db = {link.thr_db!r}",
            "compute_power_w = 8",
            "lambda0 = 0.04",
            "mobility_power_w = 50",
            "speed_mps = 10",
            "ack_bits = 1e6",
            "latency_model = total",
            f"rng_seed = {rng_seed}",
        ]
    ) + "\n"


def _preset(name: str, seed: int, workdir: Path, workers: int) -> Workload:
    if name == "fig2":
        thr = threshold_db(0.1, 1.0)
        links = {f"num_miners={i}": Link(i, 0.1, thr) for i in range(1, 21)}
    else:
        links = {
            f"tx_power_w@snr_q={q:g}={tx!r}": Link(10, tx, threshold_db(0.1, q))
            for q in FIG4_FRACTIONS
            for tx in FIG4_TX_W
        }
    out = workdir / f"{name}.csv"
    argv = ["sweep", "--preset", name, "--workers", str(workers)]
    argv += ["--seed", str(_cli_seed(name, seed)), "--out", str(out)]
    setup = f"from forkwork.cli import main, preset_jobs; preset_jobs({name!r})"
    return Workload(name, [Invocation("sweep", argv, out, links)], setup)


def _forky_sim(seed: int, workdir: Path) -> Workload:
    rng_seed = _cli_seed("forky_sim", seed)
    config = workdir / "forky.txt"
    config.write_text(config_text(FORKY_LINK, rng_seed))
    out = workdir / "forky.csv"
    argv = ["simulate", str(config), "--trials", str(FORKY_ROUNDS)]
    argv += ["--blocks", str(FORKY_BLOCKS), "--workers", "1", "--out", str(out)]
    setup = (
        "from forkwork.cli import main; from forkwork import load_config; "
        f"load_config({str(config)!r})"
    )
    inv = Invocation("simulate", argv, out, {FORKY_LINK.key(): FORKY_LINK}, seed=rng_seed)
    return Workload("forky_sim", [inv], setup)


def _point_queries(seed: int, workdir: Path) -> Workload:
    links = grid_links()
    random.Random(f"point_queries:{seed}").shuffle(links)
    invocations = []
    for index, link in enumerate(links):
        rng_seed = _cli_seed(f"point_queries:{index}", seed)
        config = workdir / f"point{index:02d}.txt"
        config.write_text(config_text(link, rng_seed))
        out = workdir / f"point{index:02d}.csv"
        argv = ["analytic", str(config), "--out", str(out)]
        invocations.append(Invocation("analytic", argv, out, {link.key(): link}, seed=rng_seed))
    paths = [str(inv.argv[1]) for inv in invocations]
    setup = (
        "from forkwork.cli import main; from forkwork import load_config; "
        f"[load_config(p) for p in {paths!r}]"
    )
    return Workload("point_queries", invocations, setup)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's inputs under ``workdir`` and describe its pass."""
    if name in ("fig2", "fig4"):
        return _preset(name, seed, workdir, workers=1 if name == "fig2" else 2)
    if name == "forky_sim":
        return _forky_sim(seed, workdir)
    if name == "point_queries":
        return _point_queries(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
