import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forkwork.analytic import no_forking_probability
from forkwork.channel import (
    DiscreteLatency,
    LatencyDistribution,
    sample_compute_latency,
    substream,
)
from forkwork.model import LatencyModel, default_config, derive
from forkwork.simulator import (
    BLOCK_BATCH,
    BLOCK_CHUNK,
    ROUND_CHUNK,
    _blocks,
    _race,
    _rows,
    estimate,
)

TWO_ATOMS = DiscreteLatency(atoms=(0.0, 50.0), weights=(0.5, 0.5))


def _draws(rng, cfg, dist, count):
    """Per-miner draws of ``count`` rounds, in the race kernel's draw order."""
    d = derive(cfg.channel, cfg.miner)
    shape = (count, cfg.num_miners)
    compute = sample_compute_latency(rng, d.compute_rate, shape)
    moves, uplink = dist.sample_components(rng, shape)
    total = dist.total_from_components(moves, uplink)
    return compute, moves, uplink, total, compute + total


def test_single_miner_never_forks():
    cfg = default_config(num_miners=1)
    s = estimate(cfg, num_blocks=500, num_round_trials=2000)
    assert s.fork_rate.value == 0
    assert s.mean_rounds.value == 1


def test_single_miner_block_is_one_round():
    cfg = default_config(num_miners=1)
    rounds, energy, capped = _blocks(cfg, LatencyDistribution.from_config(cfg), 0, 300, 10_000)
    assert np.all(rounds == 1)
    assert not capped.any()
    assert np.all(energy > 0)


def test_equal_latency_hook_never_forks():
    cfg = default_config(num_miners=7)
    hook = DiscreteLatency.constant(0.21)
    forked = _race(substream(cfg.rng_seed, 101), cfg, hook, 2000)[0]
    assert not forked.any()
    s = estimate(cfg, num_blocks=100, num_round_trials=2000, dist=hook)
    assert s.fork_rate.value == 0
    assert s.mean_rounds.value == 1


def test_round_sample_invariants():
    cfg = default_config(num_miners=9)
    dist = LatencyDistribution.from_config(cfg)
    compute, moves, uplink, total, arrival = _draws(substream(3, 0), cfg, dist, 200)
    assert np.all(compute >= 0)
    assert np.all((uplink > 0) & (uplink <= dist.max_uplink))
    assert np.all(arrival > compute)
    assert np.allclose(total, moves * dist.move_time + uplink)


def test_race_winner_energy_formula():
    cfg = default_config(num_miners=6)
    dist = LatencyDistribution.from_config(cfg)
    d = derive(cfg.channel, cfg.miner)
    count = 500
    rng = substream(4, 0)
    forked, energy, s_win, move_win, up_win, _ = _race(rng, cfg, dist, count)
    after = substream(4, 0)
    compute, moves, uplink, _, arrival = _draws(after, cfg, dist, count)
    assert rng.random() == after.random()  # the kernel made exactly the replayed draws
    rows = np.arange(count)
    i = np.argmin(compute, axis=1)
    assert np.array_equal(forked, i != np.argmin(arrival, axis=1))
    assert forked.any() and not forked.all()
    assert np.array_equal(s_win, compute[rows, i])
    assert np.array_equal(move_win, moves[rows, i] * d.move_time_s)
    assert np.array_equal(up_win, uplink[rows, i])
    expected = (
        cfg.miner.compute_power_w * compute[rows, i]
        + cfg.miner.mobility_power_w * moves[rows, i] * d.move_time_s
        + cfg.channel.tx_power_w * uplink[rows, i]
    )
    np.testing.assert_allclose(energy, expected, rtol=1e-12)


def test_fork_rate_statistically_increases_with_miners():
    rates = []
    for miners in (2, 10, 30):
        cfg = default_config(num_miners=miners)
        s = estimate(cfg, num_blocks=100, num_round_trials=20_000)
        rates.append(s.fork_rate.value)
    assert rates[0] < rates[1] < rates[2]


def test_block_cap_flags_with_max_rounds_one():
    cfg = default_config(num_miners=4)
    s = estimate(cfg, num_blocks=100, num_round_trials=100, max_rounds=1, dist=TWO_ATOMS)
    assert s.mean_rounds.value == 1
    assert 0 < s.capped_blocks < s.block_trials  # forks happen with this hook, but not always


def _round_loop_blocks(cfg, dist, chunk_index, count, max_rounds):
    """The block substream judged one round at a time: (start round, rounds, energy, capped)."""
    rng = substream(cfg.rng_seed, 1, chunk_index)
    blocks = []
    start = rounds = position = 0
    energy = 0.0
    while len(blocks) < count:
        forked, win_energy = _race(rng, cfg, dist, _rows(BLOCK_BATCH, cfg.num_miners))[:2]
        for f, e in zip(forked, win_energy):
            rounds += 1
            energy += e
            position += 1
            if not f or rounds == max_rounds:
                blocks.append((start, rounds, energy, bool(f)))
                start, rounds, energy = position, 0, 0.0
                if len(blocks) == count:
                    break
    return blocks


class _WideLatency:
    """Latencies spread far wider than compute times: nearly every round forks."""

    def sample_components(self, rng, size=None):
        t = rng.uniform(0.0, 1e6, size)
        return np.zeros(np.shape(t), dtype=np.int64), t

    def total_from_components(self, n, t_up):
        return t_up


@pytest.mark.parametrize(
    "miners, dist, count, max_rounds",
    [(4, TWO_ATOMS, 600, 2), (500, _WideLatency(), 8, 700), (4096, TWO_ATOMS, 600, 2)],
    ids=["short-cap", "long-blocks", "small-batch"],
)
def test_block_splitter_matches_round_loop(miners, dist, count, max_rounds):
    cfg = default_config(num_miners=miners)
    rounds, energy, capped = _blocks(cfg, dist, 3, count, max_rounds)
    expected = _round_loop_blocks(cfg, dist, 3, count, max_rounds)
    assert rounds.tolist() == [b[1] for b in expected]
    assert capped.tolist() == [b[3] for b in expected]
    np.testing.assert_allclose(energy, [b[2] for b in expected], rtol=1e-12)
    # the cases the split must get right are present
    batch = _rows(BLOCK_BATCH, miners)
    assert batch == (BLOCK_BATCH if miners <= 2048 else 256)
    assert any(b[0] // batch != (b[0] + b[1] - 1) // batch for b in expected)
    # a run of forks longer than the cap: a capped block, then one that starts with a fork
    assert any(a[3] and (b[1] > 1 or b[3]) for a, b in zip(expected, expected[1:]))
    assert not all(b[3] for b in expected)
    if max_rounds > batch:
        assert any(b[1] > batch for b in expected)  # a batch with no block end


def test_estimate_memory_bounded_in_miner_count():
    cfg = default_config(num_miners=8000)
    tracemalloc.start()
    try:
        estimate(cfg, num_blocks=100, num_round_trials=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


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


def test_estimate_deterministic_across_worker_counts():
    cfg = default_config(num_miners=5)
    serial = estimate(cfg, num_blocks=300, num_round_trials=9000, workers=1)
    parallel = estimate(cfg, num_blocks=300, num_round_trials=9000, workers=3)
    assert serial == parallel


def test_dead_worker_pool_is_replaced(monkeypatch):
    import os
    import signal

    from forkwork import simulator

    monkeypatch.setattr(simulator, "_pool", None)
    cfg = default_config(num_miners=5)
    sizes = dict(num_blocks=2 * BLOCK_CHUNK, num_round_trials=2 * ROUND_CHUNK, workers=2)
    try:
        before = estimate(cfg, **sizes)
        for process in list(simulator._pool[1]._processes.values()):
            os.kill(process.pid, signal.SIGKILL)
        with pytest.raises(simulator.BrokenProcessPool):
            estimate(cfg, **sizes)
        assert estimate(cfg, **sizes) == before
    finally:
        if simulator._pool is not None:
            simulator._pool[1].shutdown()


def test_estimate_seed_changes_results():
    cfg = default_config(num_miners=5)
    a = estimate(cfg, num_blocks=100, num_round_trials=2000)
    b = estimate(replace(cfg, rng_seed=43), num_blocks=100, num_round_trials=2000)
    assert a.no_fork_prob != b.no_fork_prob


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
    _, energy, *_, system = _race(substream(8, 0), cfg, dist, count)
    compute, *_, arrival = _draws(substream(8, 0), cfg, dist, count)
    i = np.argmin(compute, axis=1)
    expected = energy + 5 * cfg.miner.compute_power_w * arrival[np.arange(count), i]
    np.testing.assert_allclose(system, expected, rtol=1e-12)
    assert np.all(system > energy)

    s = estimate(cfg, num_blocks=100, num_round_trials=2000)
    assert s.mean_system_energy.value > s.mean_winner_compute.value * cfg.miner.compute_power_w


def test_summary_echoes_config_and_seed():
    cfg = default_config(num_miners=3, rng_seed=77)
    s = estimate(cfg, num_blocks=100, num_round_trials=500)
    assert s.seed == 77
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
    # two chunks of each kind, so the two-worker run goes through the pool
    sizes = dict(num_blocks=BLOCK_CHUNK + 100, num_round_trials=ROUND_CHUNK + 100)
    assert estimate(cfg, **sizes, workers=1) == estimate(cfg, **sizes, workers=2)
