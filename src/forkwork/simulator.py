"""Seeded Monte Carlo engine for the PoW race.

One round: every miner has an independent compute time and transmission
latency; the fastest computer is the rightful winner, the earliest ACK
arrival decides who actually commits. A round forks when those two differ,
and a forked block is recovered by racing again.

Estimates are bit-reproducible: work is split into chunks of a fixed
size, each chunk draws from a substream derived from (seed, stream
tag, chunk index), and the chunks are folded in chunk order. The worker
count therefore never changes any result, only wall-clock time.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .channel import LatencyDistribution, substream
from .model import DEFAULT_BLOCKS, DEFAULT_ROUND_TRIALS, MIN_TRIALS, SystemConfig

__all__ = ["Estimate", "SimulationSummary", "estimate", "ROUND_CHUNK", "MIN_TRIALS"]

ROUND_CHUNK = 4096
MAX_ROUNDS = 10_000  # rounds a block races before it is cut off as capped
BATCHES_PER_WORKER = 4  # a task list reaches the pool in about this many batches per worker
_ROUND_STREAM = 0


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
    config: SystemConfig


def _race(rng: np.random.Generator, config: SystemConfig, dist, count: int):
    """Race ``count`` independent rounds in one batch.

    The miners are i.i.d., so the rightful winner (the fastest computer) is raced
    alone: the fastest of I compute times is Exp(I rate), and by memorylessness
    each loser computes for that time plus its own lag ~ Exp(rate). A loser can
    fork the round only if its lag plus its transmission latency is below the
    winner's transmission latency t*. The losers are taken in order of their
    lags, drawn as order statistics (Renyi 1953): with i losers not yet taken,
    the gap to the next smallest lag is Exp(i rate). Each step takes the next
    ``width`` losers of every open round, width = min(losers left,
    max(1, ROUND_CHUNK // open rounds)), so a step draws at most ROUND_CHUNK
    lags, or one per open round, at any I. A round closes once a loser forks it
    or a lag reaches t* (no later loser can fork it). This is exact.

    Draw order: ``standard_exponential(count)`` for the winner's compute time,
    ``dist.draw(rng, count)`` for its latencies, then per step
    ``standard_exponential((open, width))`` for the lag gaps, then
    ``dist.draw(rng, (reached, width))`` for the transmissions of the losers
    taken in the rounds whose first of them has a lag below t*; both in round
    order, then lag order. A round forks when some loser's transmission is below
    t* less its lag; the winner keeps an exact tie. Returns per-round arrays:
    forked, winner energy, winner compute, move and uplink times, and the
    system energy, an extension metric: the winner's energy plus each loser's
    compute power until the winner's ACK lands, outside the analytic
    cross-checks."""
    d = config.derived
    miners, rate = config.num_miners, d.compute_rate
    s_win = rng.standard_exponential(count) / (miners * rate)
    moves, up_win, t_win = dist.draw(rng, count)
    move_win = moves * d.move_time_s
    energy = (
        config.miner.compute_power_w * s_win
        + config.miner.mobility_power_w * move_win
        + config.channel.tx_power_w * up_win
    )
    system = energy + (miners - 1) * config.miner.compute_power_w * (s_win + t_win)
    forked = np.zeros(count, dtype=bool)
    # the open rounds, t* less their last loser's lag, and the losers not yet taken
    rounds, slack, left = np.arange(count), t_win, miners - 1
    while left and rounds.size:
        width = min(left, max(1, ROUND_CHUNK // rounds.size))
        gaps = rng.standard_exponential((rounds.size, width))  # row: one round's next losers
        gaps /= np.arange(left, left - width, -1) * rate
        if width > 1:  # a one-column cumsum changes nothing but costs a pass
            np.cumsum(gaps, axis=1, out=gaps)
        after = np.subtract(slack[:, None], gaps, out=gaps)  # t* less each loser's lag
        reach = np.flatnonzero(after[:, 0] > 0.0)  # the rounds with a candidate
        rounds, after = rounds[reach], after[reach]
        hit = (dist.draw(rng, after.shape)[2] < after).any(axis=1)
        forked[rounds[hit]] = True
        stay = (after[:, -1] > 0.0) & ~hit
        rounds, slack = rounds[stay], after[stay, -1]
        left -= width
    return forked, energy, s_win, move_win, up_win, system


# --- chunked estimation -----------------------------------------------------


def _round_chunk(config: SystemConfig, dist, chunk_index: int, count: int):
    """Race ``count`` rounds: partial sums, then each round's fork flag and winner energy."""
    rng = substream(config.rng_seed, _ROUND_STREAM, chunk_index)
    forked, energy, *values = _race(rng, config, dist, count)
    sums = [count, int(np.count_nonzero(forked))]
    for v in values:
        sums += [float(v.sum()), float((v**2).sum())]
    return tuple(sums), forked, energy


def _cut(forked, energy, carry: tuple[int, float], want: int):
    """The first ``want`` blocks that close in one chunk of the round stream.

    A block closes at its first round that commits, or is capped at its
    MAX_ROUNDS-th round if they all forked; every round's winner energy counts.
    The open block carried in holds ``carry`` = (forked rounds, their energy);
    past the last commit, the open block holds the forks since then modulo
    MAX_ROUNDS. Returns the rounds, energy and cap flag of each closed block,
    and the carry of the block left open.
    """
    held, held_energy = carry
    at = np.arange(forked.size)
    last = np.maximum.accumulate(np.where(forked, -1 - held, at))  # last commit up to each round
    depth = (at - np.r_[-1 - held, last[:-1]] - 1) % MAX_ROUNDS  # rounds the open block holds
    ends = np.flatnonzero(~forked | (depth == MAX_ROUNDS - 1))[:want]
    # the energy of each closed block, then of the open one
    spent = np.add.reduceat(np.append(energy, 0.0), np.r_[0, ends + 1])
    spent[0] += held_energy
    rest = ends[-1] + 1 if ends.size else -held  # the open block's first round
    return depth[ends] + 1, spent[:-1], forked[ends], (forked.size - rest, float(spent[-1]))


def _mean_se(n: int, total: float, total_sq: float) -> Estimate:
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return Estimate(mean, math.sqrt(var / n))


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _call(task):
    fn, *args = task
    return fn(*args)


@contextmanager
def _runner(workers: int):
    """Enter a ``run(tasks)`` that iterates over each task ``(fn, *args)``'s result, in task order.

    More than one worker starts one pool, sized at most the CPUs this process
    may run on, that every ``run`` shares and that is joined on leaving. A list
    goes to the pool in one ``map`` call, in about BATCHES_PER_WORKER batches
    per worker, so a batch of small tasks pays one round trip; one worker runs
    the tasks here, one at a time.
    """
    workers = min(workers, _cpu_count())
    if workers <= 1:
        yield lambda tasks: map(_call, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda tasks: pool.map(
            _call, tasks, chunksize=math.ceil(len(tasks) / (BATCHES_PER_WORKER * workers))
        )


def _run_tasks(tasks, workers: int) -> list:
    """Every task run once, results in task order; a single task starts no pool."""
    with _runner(workers if len(tasks) > 1 else 1) as run:
        return list(run(tasks))


def estimate(
    config: SystemConfig,
    num_blocks: int = DEFAULT_BLOCKS,
    num_round_trials: int = DEFAULT_ROUND_TRIALS,
    *,
    workers: int = 1,
    dist=None,
) -> SimulationSummary:
    """Monte Carlo estimates from one stream of independent rounds: fork rate
    and winner means from its first ``num_round_trials`` rounds, energy and
    recovery length from its first ``num_blocks`` blocks (see _cut).

    The rounds are cut into chunks of ROUND_CHUNK, run on ``workers`` processes
    (see _runner), and folded in chunk order. If the rounds hold fewer blocks
    than asked, further chunks of the same stream, sized from the rate at which
    blocks closed so far, serve the blocks alone. Deterministic given
    (config.rng_seed, config): results are bit-identical across runs and across
    worker counts.
    """
    if num_round_trials < MIN_TRIALS or num_blocks < MIN_TRIALS:
        raise ValueError(f"trial counts must be >= {MIN_TRIALS}")
    if dist is None:
        dist = LatencyDistribution.from_config(config)
    full, rest = divmod(num_round_trials, ROUND_CHUNK)
    passes = [ROUND_CHUNK] * full + [rest] * (rest > 0)  # first the round trials' chunks
    trial_chunks, index = len(passes), 0
    totals, blocks = [0] * 10, [0] * 6  # blocks: count, rounds, rounds^2, energy, energy^2, capped
    carry, cut = (0, 0.0), 0  # the open block's rounds and energy, the rounds cut
    with _runner(workers) as run:
        while passes:
            tasks = [(_round_chunk, config, dist, index + i, n) for i, n in enumerate(passes)]
            for sums, forked, energy in run(tasks):
                if index < trial_chunks:
                    totals = [a + b for a, b in zip(totals, sums)]
                index += 1
                if blocks[0] < num_blocks:  # past that, a chunk serves the round totals alone
                    want = num_blocks - blocks[0]
                    rounds, spent, capped, carry = _cut(forked, energy, carry, want)
                    cut += forked.size
                    closed = (rounds.size, int(rounds.sum()), int((rounds**2).sum()),
                              float(spent.sum()), float((spent**2).sum()), int(capped.sum()))
                    blocks = [a + b for a, b in zip(blocks, closed)]
            rate = max(blocks[0] / cut, 1.0 / MAX_ROUNDS)  # a block closes within MAX_ROUNDS rounds
            passes = [ROUND_CHUNK] * math.ceil(1.1 * (num_blocks - blocks[0]) / rate / ROUND_CHUNK)
    n = totals[0]
    fork_rate = totals[1] / n
    fork_se = math.sqrt(fork_rate * (1.0 - fork_rate) / n)
    return SimulationSummary(
        fork_rate=Estimate(fork_rate, fork_se),
        no_fork_prob=Estimate(1.0 - fork_rate, fork_se),
        mean_rounds=_mean_se(blocks[0], blocks[1], blocks[2]),
        mean_block_energy=_mean_se(blocks[0], blocks[3], blocks[4]),
        mean_winner_compute=_mean_se(n, totals[2], totals[3]),
        mean_winner_move=_mean_se(n, totals[4], totals[5]),
        mean_winner_uplink=_mean_se(n, totals[6], totals[7]),
        mean_system_energy=_mean_se(n, totals[8], totals[9]),
        round_trials=n,
        block_trials=blocks[0],
        capped_blocks=blocks[5],
        config=config,
    )
