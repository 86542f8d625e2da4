"""Seeded Monte Carlo engine for the PoW race.

One round: every miner draws an independent compute time and transmission
latency; the fastest computer is the rightful winner, the earliest ACK
arrival decides who actually commits. A round forks when those two differ,
and a forked block is recovered by racing again.

Estimates are bit-reproducible: work is split into chunks sized by the miner
count alone, each chunk draws from a substream derived from (seed, stream
tag, chunk index), and partial sums are reduced in chunk order. The worker
count therefore never changes any result, only wall-clock time.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import LatencyDistribution, sample_compute_latency, substream
from .model import SystemConfig, derive, ensure_valid

__all__ = [
    "Estimate",
    "SimulationSummary",
    "estimate",
    "ROUND_CHUNK",
    "BLOCK_CHUNK",
    "BLOCK_BATCH",
]

ROUND_CHUNK = 4096
BLOCK_CHUNK = 256
BLOCK_BATCH = 512  # rounds drawn per batch on a block substream
_ROUND_STREAM = 0
_BLOCK_STREAM = 1


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
    mean_system_energy: Estimate  # extension metric, see _race
    round_trials: int
    block_trials: int
    capped_blocks: int
    seed: int
    config: SystemConfig


def _race(rng: np.random.Generator, config: SystemConfig, dist, count: int):
    """Race ``count`` independent rounds in one batch.

    Draw order: every compute time, then every relocation count, then every
    SNR, each as a (count, miners) array. The rightful winner is the fastest
    computer; a round forks when the first ACK to arrive is someone else's.
    Ties go to the lowest index. Returns per-round arrays: forked, winner
    energy, winner compute, move and uplink times, and the system energy.
    The system energy is an extension metric: the winner's energy plus each
    losing miner's compute power until the winner's ACK lands (zero-latency
    backhaul). It takes no part in the analytic cross-checks.
    """
    d = derive(config.channel, config.miner)
    shape = (count, config.num_miners)
    compute = sample_compute_latency(rng, d.compute_rate, shape)
    moves, uplink = dist.sample_components(rng, shape)
    arrival = compute + dist.total_from_components(moves, uplink)

    fastest = np.argmin(compute, axis=1)
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
    forked = fastest != np.argmin(arrival, axis=1)
    return forked, energy, s_win, move_win, up_win, system


# --- chunked estimation -----------------------------------------------------


def _rows(limit: int, num_miners: int) -> int:
    """Rounds per _race call: ``limit``, cut so that rounds x miners <= 2^20 and
    memory does not grow with I. Depends on I alone, so results stay reproducible."""
    return max(1, min(limit, (1 << 20) // num_miners))


def _round_chunk(config: SystemConfig, dist, chunk_index: int, count: int):
    """Simulate ``count`` independent rounds; return commutative partial sums."""
    rng = substream(config.rng_seed, _ROUND_STREAM, chunk_index)
    forked, *values = _race(rng, config, dist, count)
    sums = [count, int(np.count_nonzero(forked))]
    for v in values:
        sums += [float(v.sum()), float((v**2).sum())]
    return tuple(sums)


def _blocks(config: SystemConfig, dist, chunk_index: int, count: int, max_rounds: int):
    """Rounds, winner energy and cap flag of each of ``count`` blocks.

    A block races rounds until one commits without forking, or until
    ``max_rounds`` rounds have all forked (a capped block, flagged, never
    silent); every round's winner energy counts, the committing one too.
    Rounds are i.i.d., so the chunk draws one round stream in batches of
    _rows(BLOCK_BATCH) from its substream and cuts it into blocks; the open
    block carries over to the next batch. Rounds after the last block are unused.
    """
    rng = substream(config.rng_seed, _BLOCK_STREAM, chunk_index)
    batch = _rows(BLOCK_BATCH, config.num_miners)
    index = np.arange(1, batch + 1)
    rounds, energy, capped = [], [], []
    open_rounds, open_energy, done = 0, 0.0, 0
    while done < count:
        forked, win_energy = _race(rng, config, dist, batch)[:2]
        # rounds since the last commit, the open block's included; a run of
        # forks is cut into capped blocks at every multiple of max_rounds
        commits = np.maximum.accumulate(np.where(forked, -open_rounds, index))
        since = index - np.concatenate(([-open_rounds], commits[:-1]))
        ends = np.flatnonzero(~forked | (since % max_rounds == 0))[: count - done]
        if ends.size == 0:
            open_rounds += batch
            open_energy += float(win_energy.sum())
            continue
        starts = np.concatenate(([0], ends[:-1] + 1))
        block_rounds = ends - starts + 1
        block_rounds[0] += open_rounds
        block_energy = np.add.reduceat(win_energy[: ends[-1] + 1], starts)
        block_energy[0] += open_energy
        rounds.append(block_rounds)
        energy.append(block_energy)
        capped.append(forked[ends])
        open_rounds = batch - 1 - int(ends[-1])
        open_energy = float(win_energy[ends[-1] + 1 :].sum())
        done += ends.size
    return np.concatenate(rounds), np.concatenate(energy), np.concatenate(capped)


def _block_chunk(config: SystemConfig, dist, chunk_index: int, count: int, max_rounds: int):
    rounds, energy, capped = _blocks(config, dist, chunk_index, count, max_rounds)
    rounds = rounds.astype(float)
    return (
        count,
        float(rounds.sum()),
        float((rounds**2).sum()),
        float(energy.sum()),
        float((energy**2).sum()),
        int(np.count_nonzero(capped)),
    )


def _chunk_sizes(total: int, chunk: int) -> list[int]:
    full, rest = divmod(total, chunk)
    return [chunk] * full + ([rest] if rest else [])


def _mean_se(n: int, total: float, total_sq: float) -> Estimate:
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return Estimate(mean, math.sqrt(var / n))


_pool: tuple[int, ProcessPoolExecutor] | None = None  # (workers, pool), one per process


def _run_tasks(fn, arg_lists, workers: int):
    """``fn`` over the zipped argument lists, results in task order.

    More than one worker uses the process's one pool, started on first use
    and replaced only when a different worker count is asked for.
    """
    global _pool
    tasks = list(zip(*arg_lists))
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*args) for args in tasks]
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    try:
        return list(_pool[1].map(fn, *zip(*tasks)))
    except BrokenProcessPool:
        _pool = None  # a worker died; the next call starts a new pool
        raise


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
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if dist is None:
        dist = LatencyDistribution.from_config(config)

    sizes = _chunk_sizes(num_round_trials, _rows(ROUND_CHUNK, config.num_miners))
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
