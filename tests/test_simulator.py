import concurrent.futures
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forkwork import simulator
from forkwork.analytic import no_forking_probability
from forkwork.channel import DiscreteLatency, LatencyDistribution, substream
from forkwork.model import LatencyModel, default_config
from forkwork.simulator import ROUND_CHUNK, _race, estimate

TWO_ATOMS = DiscreteLatency(atoms=(0.0, 50.0), weights=(0.5, 0.5))


def _replay(rng, cfg, dist, count):
    """The race kernel's draws of ``count`` rounds, replayed in its order: the
    winner's standard exponentials and (moves, uplink, transmission), then step
    by step the gaps between the next ``width`` lags of each open round, as order
    statistics of I - 1 Exp(rate) lags, and the (moves, uplink, transmission) of
    those losers in the rounds whose first of them has a lag below t*. A round
    stays open while its last lag is below t* and no loser's transmission is
    below t* less its lag. Returns the winner's draws and, for each loser given
    a transmission, its round, its slack t* - lag and its draws."""
    rate = cfg.derived.compute_rate
    exp = rng.standard_exponential(count)
    winner = dist.draw(rng, count)
    rounds, slack, left = np.arange(count), winner[2], cfg.num_miners - 1
    owner, slacks, drawn = [], [], []
    while left and rounds.size:
        width = min(left, max(1, ROUND_CHUNK // rounds.size))
        gaps = rng.standard_exponential((rounds.size, width))
        lags = np.cumsum(gaps / (np.arange(left, left - width, -1) * rate), axis=1)
        reach = slack - lags[:, 0] > 0.0
        rounds, after = rounds[reach], slack[reach, None] - lags[reach]
        draws = dist.draw(rng, after.shape)
        owner.append(np.repeat(rounds, width))
        slacks.append(after.ravel())
        drawn.append([d.ravel() for d in draws])
        stay = (after[:, -1] > 0.0) & ~(draws[2] < after).any(axis=1)
        rounds, slack, left = rounds[stay], after[stay, -1], left - width
    losers = tuple(np.concatenate(parts) for parts in zip(*drawn))
    return exp, winner, np.concatenate(owner), np.concatenate(slacks), losers


def _argmin_race(rng, cfg, dist, count):
    """Reference race: the earlier kernel, which draws every miner's compute
    time in (count, miners) arrays and finds the winner and the first ACK by
    argmin (ties to the lowest index)."""
    d = cfg.derived
    shape = (count, cfg.num_miners)
    compute = -np.log(1.0 - rng.random(shape)) / d.compute_rate
    moves, uplink, transmission = dist.draw(rng, shape)
    arrival = compute + transmission
    fastest = np.argmin(compute, axis=1)
    rows = np.arange(count)
    s_win = compute[rows, fastest]
    move_win = moves[rows, fastest] * d.move_time_s
    up_win = uplink[rows, fastest]
    energy = (
        cfg.miner.compute_power_w * s_win
        + cfg.miner.mobility_power_w * move_win
        + cfg.channel.tx_power_w * up_win
    )
    system = energy + (cfg.num_miners - 1) * cfg.miner.compute_power_w * arrival[rows, fastest]
    forked = fastest != np.argmin(arrival, axis=1)
    return forked, energy, s_win, move_win, up_win, system


def test_single_miner_never_forks():
    cfg = default_config(num_miners=1)
    s = estimate(cfg, num_blocks=500, num_round_trials=2000)
    assert s.fork_rate.value == 0
    assert s.mean_rounds.value == 1


def test_single_miner_block_is_one_round():
    cfg = default_config(num_miners=1)
    s = estimate(cfg, num_blocks=300, num_round_trials=1000)
    assert s.mean_rounds == simulator.Estimate(1.0, 0.0)
    assert s.capped_blocks == 0
    assert s.mean_block_energy.value > 0


def test_equal_latency_hook_never_forks():
    cfg = default_config(num_miners=7)
    hook = DiscreteLatency.constant(0.21)
    forked = _race(substream(cfg.rng_seed, 101), cfg, hook, 2000)[0]
    assert not forked.any()
    s = estimate(cfg, num_blocks=100, num_round_trials=2000, dist=hook)
    assert s.fork_rate.value == 0
    assert s.mean_rounds.value == 1


def test_winner_keeps_an_exact_tie():
    class ZeroLags:
        """Every exponential is 0, so every loser's lag is 0: each loser's ACK
        lands with the winner's."""

        def standard_exponential(self, shape):
            return np.zeros(shape)

    class Constant:
        def draw(self, rng, shape):
            t = np.full(shape, 0.2)
            return np.zeros(shape), t, t

    cfg = default_config(num_miners=3)
    forked = _race(ZeroLags(), cfg, Constant(), 10)[0]
    assert forked.shape == (10,) and not forked.any()


def test_round_sample_invariants():
    cfg = default_config(num_miners=9)
    dist = LatencyDistribution.from_config(cfg)
    exp, winner, owner, slack, losers = _replay(substream(3, 0), cfg, dist, 200)
    assert np.all(exp >= 0)
    k = np.bincount(owner, minlength=200)  # losers given a transmission, per round
    assert np.all(k <= 8) and 0 < k.sum() < 8 * 200
    # a loser's lag t* - slack is non-negative, and the first loser a round is
    # given a transmission for has a lag below t*
    assert np.all(slack <= winner[2][owner])
    assert np.all(slack[np.unique(owner, return_index=True)[1]] > 0)
    for moves, uplink, total in (winner, losers):
        assert np.all((moves >= 0) & (moves == np.floor(moves)))
        assert np.all((uplink > 0) & (uplink <= dist.max_uplink))
        assert np.allclose(total, moves * dist.move_time + uplink)


def test_race_winner_energy_formula():
    # at lambda0 = 10 most losers are candidates, so a round takes several of
    # them, in steps of more than one loser
    for cfg in (default_config(num_miners=6), _fast_compute(default_config(num_miners=6))):
        dist = LatencyDistribution.from_config(cfg)
        d = cfg.derived
        count = 500
        rng = substream(4, 0)
        forked, energy, s_win, move_win, up_win, _ = _race(rng, cfg, dist, count)
        after = substream(4, 0)
        exp, (moves, uplink, total), owner, slack, losers = _replay(after, cfg, dist, count)
        assert rng.random() == after.random()  # the kernel made exactly the replayed draws
        # round by round: a fork is a loser whose transmission beats the slack t* - lag
        beats = losers[2] < slack
        expected_forks = [bool(np.any(beats[owner == r])) for r in range(count)]
        assert forked.tolist() == expected_forks
        assert forked.any() and not forked.all()
        assert np.array_equal(s_win, exp / (6 * d.compute_rate))
        assert np.array_equal(move_win, moves * d.move_time_s)
        assert np.array_equal(up_win, uplink)
        expected = (
            cfg.miner.compute_power_w * s_win
            + cfg.miner.mobility_power_w * moves * d.move_time_s
            + cfg.channel.tx_power_w * uplink
        )
        np.testing.assert_allclose(energy, expected, rtol=1e-12)


def _fast_compute(cfg):
    """``cfg`` at lambda0 = 10, a compute rate 250 times the default's: nearly
    every loser is a candidate."""
    return replace(cfg, miner=replace(cfg.miner, lambda0=10.0))


# case: (config, latency hook or None, chunks, rounds per chunk)
_ORACLE_CASES = {
    "I=1": (default_config(num_miners=1), None, 25, 4000),
    "I=2": (default_config(num_miners=2), None, 25, 4000),
    "I=20": (default_config(num_miners=20), None, 25, 4000),
    "wireless-only": (default_config(10, latency_model=LatencyModel.WIRELESS_ONLY), None, 25, 4000),
    "two-atoms": (default_config(num_miners=4), TWO_ATOMS, 25, 4000),
    # the reference draws all 1000 miners of a round: 20k rounds keep it near 1 s
    "I=1000": (default_config(num_miners=1000), None, 40, 500),
    "lambda0=10": (_fast_compute(default_config(num_miners=10)), None, 25, 4000),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_race_matches_argmin_reference(case):
    # Each kernel races chunks x rounds on its own stream. Fork rate, winner
    # compute, move and uplink means and the system energy must agree within 5 SE
    # of the difference: a false failure has probability below 3e-6 per case.
    cfg, dist, chunks, count = _ORACLE_CASES[case]
    dist = dist or LatencyDistribution.from_config(cfg)
    results = []
    for stream, kernel in enumerate((_race, _argmin_race)):
        rng = substream(2024, stream)
        races = zip(*(kernel(rng, cfg, dist, count) for _ in range(chunks)))
        values = [np.concatenate(v) for v in races]
        del values[1]  # the winner energy is a sum of the three checked times
        results.append([(v.mean(), v.std(ddof=1) / math.sqrt(v.size)) for v in values])
    for name, (new, new_se), (ref, ref_se) in zip(
        ("fork rate", "compute", "move", "uplink", "system energy"), *results
    ):
        assert abs(new - ref) <= 5 * math.hypot(new_se, ref_se), (case, name, new, ref)
    if cfg.num_miners == 1:
        assert results[0][0] == results[1][0] == (0.0, 0.0)  # a lone miner never forks
    else:
        assert 0.0 < results[1][0][0] < 1.0  # the reference forks some rounds, not all


def test_fork_rate_statistically_increases_with_miners():
    rates = []
    for miners in (2, 10, 30):
        cfg = default_config(num_miners=miners)
        s = estimate(cfg, num_blocks=100, num_round_trials=20_000)
        rates.append(s.fork_rate.value)
    assert rates[0] < rates[1] < rates[2]


def test_block_cap_flags_with_max_rounds_one(monkeypatch):
    monkeypatch.setattr(simulator, "MAX_ROUNDS", 1)  # read by _cut, in this process
    cfg = default_config(num_miners=4)
    s = estimate(cfg, num_blocks=100, num_round_trials=100, workers=1, dist=TWO_ATOMS)
    assert s.mean_rounds.value == 1
    assert 0 < s.capped_blocks < s.block_trials  # forks happen with this hook, but not always


def _stream_oracle(cfg, dist, chunk, num_round_trials, num_blocks, max_rounds):
    """The round stream judged one round at a time: the chunks (seed, 0, i) of
    ``chunk`` rounds, the last of the round trials the rest, then more chunks of
    ``chunk``. A block closes on a commit, or is capped at ``max_rounds``.
    Returns (rounds, energy, capped, first chunk, last chunk) of each of the
    first ``num_blocks`` blocks."""
    full, rest = divmod(num_round_trials, chunk)
    sizes = itertools.chain([chunk] * full, [rest] * (rest > 0), itertools.repeat(chunk))
    blocks, rounds, energy = [], 0, 0.0
    for i, n in enumerate(sizes):
        forked, win_energy = _race(substream(cfg.rng_seed, 0, i), cfg, dist, n)[:2]
        for f, e in zip(forked, win_energy):
            first = i if rounds == 0 else first
            rounds += 1
            energy += e
            if not f or rounds == max_rounds:
                blocks.append((rounds, energy, bool(f), first, i))
                rounds, energy = 0, 0.0
                if len(blocks) == num_blocks:
                    return blocks


class _WideLatency:
    """Latencies spread far wider than compute times: nearly every round forks."""

    def draw(self, rng, shape):
        t = rng.uniform(0.0, 1e6, shape)
        return np.zeros(t.shape, dtype=np.int64), t, t


# (miners, latency law, round chunk, round trials, blocks, cap)
# short-cap: a round forks with probability 7/16 and the cap is 3, so about a
# twelfth of the blocks are capped, many of them across a chunk boundary;
# long-blocks: about 500 rounds per block against a cap of 1100, so most blocks
# span chunks, and the 1000 round trials hold about two of the 100 blocks
_STREAM_CASES = {
    "short-cap": (4, TWO_ATOMS, 64, 300, 2000, 3),
    "long-blocks": (500, _WideLatency(), ROUND_CHUNK, 1000, 100, 1100),
}


@pytest.mark.parametrize("case", list(_STREAM_CASES))
def test_block_stream_matches_python_oracle(monkeypatch, case):
    miners, dist, chunk, trials, num_blocks, max_rounds = _STREAM_CASES[case]
    monkeypatch.setattr(simulator, "ROUND_CHUNK", chunk)  # many chunk boundaries
    monkeypatch.setattr(simulator, "MAX_ROUNDS", max_rounds)
    cfg = default_config(num_miners=miners)
    cut, real_cut = [], simulator._cut

    def recording_cut(*args):
        out = real_cut(*args)
        cut.append(out[:3])
        return out

    monkeypatch.setattr(simulator, "_cut", recording_cut)
    s = estimate(cfg, num_blocks=num_blocks, num_round_trials=trials, dist=dist)
    rounds, energy, capped = (np.concatenate(column) for column in zip(*cut))
    expected = _stream_oracle(cfg, dist, chunk, trials, num_blocks, max_rounds)
    assert rounds.tolist() == [b[0] for b in expected]
    assert capped.tolist() == [b[2] for b in expected]
    np.testing.assert_allclose(energy, [b[1] for b in expected], rtol=1e-12)
    assert (s.block_trials, s.capped_blocks) == (num_blocks, sum(b[2] for b in expected))
    assert s.mean_rounds.value == pytest.approx(np.mean([b[0] for b in expected]), rel=1e-12)
    assert s.round_trials == trials
    # the cases the cutter must get right are present: blocks that span a
    # chunk boundary, capped ones among them, and blocks closed in chunks past
    # the round trials
    spans = [b for b in expected if b[3] < b[4]]
    assert spans and expected[-1][4] >= math.ceil(trials / chunk)
    if case == "short-cap":
        assert any(b[2] for b in spans) and not all(b[2] for b in expected)


@pytest.mark.parametrize(
    "cfg, dist",
    [
        (default_config(20, tx_power_w=0.1, snr_fraction=6.0), None),  # p_n about 0.29
        (default_config(num_miners=4), TWO_ATOMS),
    ],
    ids=["forky", "two-atoms"],
)
def test_estimate_races_only_its_round_trials(monkeypatch, cfg, dist):
    # 100,000 rounds hold far more than 20,000 blocks, so no chunk past them is raced
    drawn = []

    def counting_race(rng, config, dist, rounds):
        drawn.append(rounds)
        return _race(rng, config, dist, rounds)

    monkeypatch.setattr(simulator, "_race", counting_race)
    s = estimate(cfg, num_blocks=20_000, num_round_trials=100_000, dist=dist)
    assert sum(drawn) == 100_000
    assert s.block_trials == 20_000 and s.capped_blocks == 0


def test_estimate_memory_bounded_in_miner_count():
    cfg = default_config(num_miners=8000)
    tracemalloc.start()
    try:
        # 300 blocks from one chunk of 100 rounds and the chunks of ROUND_CHUNK past
        # it: every chunk holds up to ROUND_CHUNK rounds at any I
        estimate(cfg, num_blocks=300, num_round_trials=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_estimate_memory_flat_in_round_trials():
    # a chunk's per-round arrays are dropped once its blocks are cut, so 64
    # chunks of round trials peak where 4 do; holding them all would not
    cfg = default_config()
    estimate(cfg, num_blocks=100, num_round_trials=100)  # one-time allocations first
    peaks = []
    for chunks in (4, 64):
        tracemalloc.start()
        try:
            estimate(cfg, num_blocks=100, num_round_trials=chunks * ROUND_CHUNK)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_estimate_rejects_small_trials():
    cfg = default_config()
    with pytest.raises(ValueError):
        estimate(cfg, num_blocks=10, num_round_trials=1000)
    with pytest.raises(ValueError):
        estimate(cfg, num_blocks=1000, num_round_trials=10)


def test_estimate_deterministic_same_seed():
    cfg = default_config(num_miners=5)
    a = estimate(cfg, num_blocks=200, num_round_trials=4000)
    b = estimate(cfg, num_blocks=200, num_round_trials=4000)
    assert a == b


def test_estimate_deterministic_across_worker_counts(monkeypatch):
    monkeypatch.setattr(simulator, "_cpu_count", lambda: 3)  # 3 workers really start
    cfg = default_config(num_miners=5)
    # 9000 rounds hold about 8,900 blocks: the second case needs an extension pass
    for blocks in (300, 9000):
        sizes = dict(num_blocks=blocks, num_round_trials=9000)
        serial = estimate(cfg, **sizes, workers=1)
        assert estimate(cfg, **sizes, workers=2) == estimate(cfg, **sizes, workers=3) == serial


def test_dead_worker_pool_is_replaced(monkeypatch):
    import os
    import threading
    from concurrent.futures.process import BrokenProcessPool

    from forkwork import simulator

    monkeypatch.setattr(simulator, "_cpu_count", lambda: 2)  # a real pool on any machine
    raised = []

    def run_dying_list():
        try:
            simulator._run_tasks([(os._exit, 1), (abs, -1)], workers=2)
        except BrokenProcessPool as exc:
            raised.append(exc)

    # a thread, so that a hang fails the test instead of stalling the suite
    runner = threading.Thread(target=run_dying_list, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "a dead worker hung its task list"
    assert len(raised) == 1
    # the next task list starts its own pool
    cfg = default_config(num_miners=5)
    sizes = dict(num_blocks=2 * ROUND_CHUNK, num_round_trials=2 * ROUND_CHUNK)
    assert estimate(cfg, workers=2, **sizes) == estimate(cfg, **sizes)


def test_pool_size_capped_at_cpu_count(monkeypatch):
    from forkwork import simulator

    started = []

    class SerialPool:
        """Records the pool size it was asked for and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        @staticmethod
        def map(fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)  # read at pool start
    monkeypatch.setattr(simulator, "_cpu_count", lambda: 3)
    cfg = default_config(num_miners=5)
    sizes = dict(num_blocks=2 * ROUND_CHUNK, num_round_trials=2 * ROUND_CHUNK)
    serial = estimate(cfg, **sizes)
    assert estimate(cfg, workers=10**6, **sizes) == serial
    assert estimate(cfg, workers=2, **sizes) == serial
    assert started == [3, 2]
    monkeypatch.setattr(simulator, "_cpu_count", lambda: 1)
    assert estimate(cfg, workers=8, **sizes) == serial
    assert started == [3, 2]  # one CPU: no pool at all


def test_cpu_count_falls_back_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 5)
    assert simulator._cpu_count() == 5
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: None)  # undeterminable: one
    assert simulator._cpu_count() == 1


def test_estimate_seed_changes_results():
    cfg = default_config(num_miners=5)
    a = estimate(cfg, num_blocks=100, num_round_trials=2000)
    b = estimate(replace(cfg, rng_seed=43), num_blocks=100, num_round_trials=2000)
    # continuous means of the rounds and of the blocks: the fork count, about
    # 20 in 2,000 rounds, can tie between two seeds
    assert a.mean_winner_compute.value != b.mean_winner_compute.value
    assert a.mean_block_energy.value != b.mean_block_energy.value


def test_estimate_ci_width_small_sample_binomial():
    cfg = default_config(num_miners=2)
    s = estimate(cfg, num_blocks=100, num_round_trials=100_000)
    lo, hi = s.no_fork_prob.ci95
    assert hi - lo < 0.01


def test_winner_component_means_match_expectations():
    # the winner is picked on compute time alone, so its latency draws are
    # unconditioned: means must match the per-miner expectations
    from forkwork.analytic import (
        expected_min_compute_latency,
        expected_mobility_latency,
        expected_uplink_latency,
    )

    cfg = default_config(num_miners=5)
    s = estimate(cfg, num_blocks=100, num_round_trials=200_000)
    assert abs(
        s.mean_winner_compute.value - expected_min_compute_latency(cfg)
    ) <= 3 * s.mean_winner_compute.se
    assert abs(
        s.mean_winner_move.value - expected_mobility_latency(cfg)
    ) <= 3 * s.mean_winner_move.se
    exp_up, _ = expected_uplink_latency(cfg)
    assert abs(s.mean_winner_uplink.value - exp_up) <= 3 * s.mean_winner_uplink.se


def test_mean_rounds_self_consistent_with_fork_rate():
    cfg = default_config(num_miners=15)
    s = estimate(cfg, num_blocks=4000, num_round_trials=50_000)
    expected = 1.0 / s.no_fork_prob.value
    # delta-method SE for 1/p plus the block-side SE
    se = s.no_fork_prob.se / s.no_fork_prob.value**2 + s.mean_rounds.se
    assert abs(s.mean_rounds.value - expected) <= 3 * se


def test_block_stats_match_analytic():
    cfg = default_config(num_miners=10)
    p, _ = no_forking_probability(cfg)
    s = estimate(cfg, num_blocks=4000, num_round_trials=1000)
    assert abs(s.mean_rounds.value - 1.0 / p) <= 3 * s.mean_rounds.se
    assert s.capped_blocks == 0


def test_system_energy_extension_metric():
    # fleet-wide energy: winner's full bill plus each loser computing until
    # the winner's ACK lands
    cfg = default_config(num_miners=6)
    dist = LatencyDistribution.from_config(cfg)
    count = 50
    _, energy, s_win, *_, system = _race(substream(8, 0), cfg, dist, count)
    exp, (*_, total), *_ = _replay(substream(8, 0), cfg, dist, count)
    assert np.array_equal(s_win, exp / (6 * cfg.derived.compute_rate))
    expected = energy + 5 * cfg.miner.compute_power_w * (s_win + total)
    np.testing.assert_allclose(system, expected, rtol=1e-12)
    assert np.all(system > energy)

    s = estimate(cfg, num_blocks=100, num_round_trials=2000)
    assert s.mean_system_energy.value > s.mean_winner_compute.value * cfg.miner.compute_power_w


def test_summary_echoes_config_and_seed():
    cfg = default_config(num_miners=3, rng_seed=77)
    s = estimate(cfg, num_blocks=100, num_round_trials=500)
    assert s.config.rng_seed == 77
    assert s.config == cfg
    assert s.round_trials == 500
    assert s.block_trials == 100


@settings(max_examples=4, deadline=None)
@given(
    miners=st.integers(1, 20),
    tx_power_w=st.floats(0.05, 1.0),
    snr_fraction=st.floats(0.25, 2.0),
    latency_model=st.sampled_from(LatencyModel),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_same_for_one_and_two_workers(
    miners, tx_power_w, snr_fraction, latency_model, seed
):
    cfg = default_config(
        miners,
        tx_power_w=tx_power_w,
        snr_fraction=snr_fraction,
        latency_model=latency_model,
        rng_seed=seed,
    )
    # two round chunks, so the two-worker run goes through the pool; once a round
    # forks, the blocks need an extension pass through the same pool
    sizes = dict(num_blocks=ROUND_CHUNK + 100, num_round_trials=ROUND_CHUNK + 100)
    assert estimate(cfg, **sizes, workers=1) == estimate(cfg, **sizes, workers=2)
