"""Seeded Monte Carlo engine for the PoW race.

One round: every miner draws an independent compute time and transmission
latency; the fastest computer is the rightful winner, the earliest ACK
arrival decides who actually commits. A round forks when those two differ,
and a forked block is recovered by racing again.

Estimates are bit-reproducible: work is split into fixed-size chunks, each
chunk draws from a substream derived from (seed, stream tag, chunk index),
and partial sums are reduced in chunk order. The worker count therefore
never changes any result, only wall-clock time.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import LatencyDistribution, substream
from .model import SystemConfig, derive, ensure_valid

__all__ = [
    "RoundSample",
    "RoundOutcome",
    "BlockResult",
    "Estimate",
    "SimulationSummary",
    "sample_round",
    "run_round",
    "run_block",
    "estimate",
    "ROUND_CHUNK",
    "BLOCK_CHUNK",
]

ROUND_CHUNK = 4096
BLOCK_CHUNK = 256
_ROUND_STREAM = 0
_BLOCK_STREAM = 1


@dataclass
class RoundSample:
    """Raw per-miner draws of one round (arrays indexed by miner)."""

    compute_s: np.ndarray  # PoW completion times
    movements: np.ndarray  # relocation counts
    uplink_s: np.ndarray  # uplink transmission latencies
    total_s: np.ndarray  # race latency per the configured variant
    arrival_s: np.ndarray  # compute + race latency


@dataclass(frozen=True)
class RoundOutcome:
    """Judged result of one round; energy is the rightful winner's.

    ``system_energy_j`` is an extension metric: the fleet-wide round energy,
    charging each losing miner its compute power until the winner's ACK lands
    (zero-latency backhaul). It is reported for context only and takes no part
    in the analytic cross-checks.
    """

    fastest_compute_index: int
    first_arrival_index: int
    forked: bool
    winner_energy_j: float
    winner_compute_s: float
    winner_move_s: float
    winner_uplink_s: float
    system_energy_j: float


@dataclass(frozen=True)
class BlockResult:
    """Rounds raced until a commit (or the cap), with accumulated winner energy."""

    rounds: int
    total_energy_j: float
    capped: bool
    outcomes: tuple[RoundOutcome, ...] | None = None


@dataclass(frozen=True)
class Estimate:
    value: float
    se: float

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.value - 1.96 * self.se, self.value + 1.96 * self.se)


@dataclass(frozen=True)
class SimulationSummary:
    """Point estimates with standard errors, plus full provenance."""

    fork_rate: Estimate
    no_fork_prob: Estimate
    mean_rounds: Estimate
    mean_block_energy: Estimate
    mean_winner_compute: Estimate
    mean_winner_move: Estimate
    mean_winner_uplink: Estimate
    mean_system_energy: Estimate  # extension metric, see RoundOutcome
    round_trials: int
    block_trials: int
    capped_blocks: int
    seed: int
    config: SystemConfig


def sample_round(rng: np.random.Generator, config: SystemConfig, dist=None) -> RoundSample:
    """Draw one round's per-miner latencies. Draw order: compute, then channel."""
    from .channel import sample_compute_latency

    d = derive(config.channel, config.miner)
    if dist is None:
        dist = LatencyDistribution.from_config(config)
    size = config.num_miners
    compute = sample_compute_latency(rng, d.compute_rate, size)
    moves, uplink = dist.sample_components(rng, size)
    total = dist.total_from_components(moves, uplink)
    return RoundSample(
        compute_s=compute,
        movements=np.asarray(moves),
        uplink_s=np.asarray(uplink, dtype=float),
        total_s=total,
        arrival_s=compute + total,
    )


def judge_round(sample: RoundSample, config: SystemConfig) -> RoundOutcome:
    """Pick winners and book the rightful winner's energy. Ties go to the lowest index."""
    d = derive(config.channel, config.miner)
    fastest = int(np.argmin(sample.compute_s))
    first = int(np.argmin(sample.arrival_s))
    move_s = float(sample.movements[fastest]) * d.move_time_s
    energy = (
        config.miner.compute_power_w * float(sample.compute_s[fastest])
        + config.miner.mobility_power_w * move_s
        + config.channel.tx_power_w * float(sample.uplink_s[fastest])
    )
    losers = config.num_miners - 1
    system_energy = energy + losers * config.miner.compute_power_w * float(
        sample.arrival_s[fastest]
    )
    return RoundOutcome(
        fastest_compute_index=fastest,
        first_arrival_index=first,
        forked=fastest != first,
        winner_energy_j=energy,
        winner_compute_s=float(sample.compute_s[fastest]),
        winner_move_s=move_s,
        winner_uplink_s=float(sample.uplink_s[fastest]),
        system_energy_j=system_energy,
    )


def run_round(rng: np.random.Generator, config: SystemConfig, dist=None) -> RoundOutcome:
    return judge_round(sample_round(rng, config, dist), config)


def run_block(
    rng: np.random.Generator,
    config: SystemConfig,
    max_rounds: int = 10_000,
    dist=None,
    keep_outcomes: bool = False,
) -> BlockResult:
    """Race rounds until one commits without forking, or the cap is hit.

    Every round's winner energy is accumulated, including the final
    committing round. A cap hit is flagged, never silent.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if dist is None:
        dist = LatencyDistribution.from_config(config)
    outcomes: list[RoundOutcome] = []
    energy = 0.0
    rounds = 0
    forked = True
    while forked and rounds < max_rounds:
        outcome = run_round(rng, config, dist)
        rounds += 1
        energy += outcome.winner_energy_j
        forked = outcome.forked
        if keep_outcomes:
            outcomes.append(outcome)
    return BlockResult(
        rounds=rounds,
        total_energy_j=energy,
        capped=forked,
        outcomes=tuple(outcomes) if keep_outcomes else None,
    )


# --- chunked estimation -----------------------------------------------------


def _round_chunk(config: SystemConfig, dist, chunk_index: int, count: int):
    """Simulate ``count`` independent rounds; return commutative partial sums."""
    from .channel import sample_compute_latency

    rng = substream(config.rng_seed, _ROUND_STREAM, chunk_index)
    d = derive(config.channel, config.miner)
    shape = (count, config.num_miners)
    compute = sample_compute_latency(rng, d.compute_rate, shape)
    moves, uplink = dist.sample_components(rng, shape)
    total = dist.total_from_components(moves, uplink)
    arrival = compute + total

    fastest = np.argmin(compute, axis=1)
    first = np.argmin(arrival, axis=1)
    rows = np.arange(count)
    s_win = compute[rows, fastest]
    move_win = np.asarray(moves)[rows, fastest] * d.move_time_s
    up_win = np.asarray(uplink)[rows, fastest]
    energy = (
        config.miner.compute_power_w * s_win
        + config.miner.mobility_power_w * move_win
        + config.channel.tx_power_w * up_win
    )
    system = energy + (
        (config.num_miners - 1) * config.miner.compute_power_w * arrival[rows, fastest]
    )
    return (
        count,
        int(np.count_nonzero(fastest != first)),
        float(energy.sum()),
        float((energy**2).sum()),
        float(s_win.sum()),
        float((s_win**2).sum()),
        float(move_win.sum()),
        float((move_win**2).sum()),
        float(up_win.sum()),
        float((up_win**2).sum()),
        float(system.sum()),
        float((system**2).sum()),
    )


def _block_chunk(config: SystemConfig, dist, chunk_index: int, count: int, max_rounds: int):
    rng = substream(config.rng_seed, _BLOCK_STREAM, chunk_index)
    rounds_sum = rounds_sq = energy_sum = energy_sq = 0.0
    capped = 0
    for _ in range(count):
        block = run_block(rng, config, max_rounds=max_rounds, dist=dist)
        rounds_sum += block.rounds
        rounds_sq += block.rounds**2
        energy_sum += block.total_energy_j
        energy_sq += block.total_energy_j**2
        capped += int(block.capped)
    return (count, rounds_sum, rounds_sq, energy_sum, energy_sq, capped)


def _chunk_sizes(total: int, chunk: int) -> list[int]:
    full, rest = divmod(total, chunk)
    return [chunk] * full + ([rest] if rest else [])


def _mean_se(n: int, total: float, total_sq: float) -> Estimate:
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return Estimate(mean, math.sqrt(var / n))


def _run_tasks(fn, arg_lists, workers: int):
    tasks = list(zip(*arg_lists))
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*args) for args in tasks]


def estimate(
    config: SystemConfig,
    num_blocks: int = 2_000,
    num_round_trials: int = 100_000,
    *,
    max_rounds: int = 10_000,
    workers: int = 1,
    dist=None,
) -> SimulationSummary:
    """Monte Carlo estimates: fork rate from independent rounds, energy and
    recovery length from independent blocks.

    Deterministic given (config.rng_seed, config): results are bit-identical
    across runs and across worker counts.
    """
    ensure_valid(config)
    if num_round_trials < 100 or num_blocks < 100:
        raise ValueError("trial counts must be >= 100")
    if dist is None:
        dist = LatencyDistribution.from_config(config)

    sizes = _chunk_sizes(num_round_trials, ROUND_CHUNK)
    parts = _run_tasks(
        _round_chunk,
        (repeat(config), repeat(dist), range(len(sizes)), sizes),
        workers,
    )
    totals = [sum(p[i] for p in parts) for i in range(12)]
    n = totals[0]
    forks = totals[1]
    fork_rate = forks / n
    fork_se = math.sqrt(fork_rate * (1.0 - fork_rate) / n)

    sizes_b = _chunk_sizes(num_blocks, BLOCK_CHUNK)
    parts_b = _run_tasks(
        _block_chunk,
        (repeat(config), repeat(dist), range(len(sizes_b)), sizes_b, repeat(max_rounds)),
        workers,
    )
    totals_b = [sum(p[i] for p in parts_b) for i in range(6)]
    nb = totals_b[0]

    return SimulationSummary(
        fork_rate=Estimate(fork_rate, fork_se),
        no_fork_prob=Estimate(1.0 - fork_rate, fork_se),
        mean_rounds=_mean_se(nb, totals_b[1], totals_b[2]),
        mean_block_energy=_mean_se(nb, totals_b[3], totals_b[4]),
        mean_winner_compute=_mean_se(n, totals[4], totals[5]),
        mean_winner_move=_mean_se(n, totals[6], totals[7]),
        mean_winner_uplink=_mean_se(n, totals[8], totals[9]),
        mean_system_energy=_mean_se(n, totals[10], totals[11]),
        round_trials=n,
        block_trials=nb,
        capped_blocks=int(totals_b[5]),
        seed=config.rng_seed,
        config=config,
    )
