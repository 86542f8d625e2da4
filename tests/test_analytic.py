import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from forkwork import analytic
from forkwork.analytic import (
    QuadratureError,
    expected_min_compute_latency,
    expected_mobility_latency,
    expected_uplink_latency,
    evaluate,
    integrate_adaptive,
    no_forking_probability,
    survival_prob,
)
from forkwork.channel import DiscreteLatency, LatencyDistribution, substream
from forkwork.cli import preset_jobs
from forkwork.model import LatencyModel, default_config, derive
from forkwork.simulator import estimate


def _dist(cfg=None) -> LatencyDistribution:
    return LatencyDistribution.from_config(cfg or default_config())


# --- adaptive quadrature ------------------------------------------------


def test_integrator_polynomial_exact():
    value, err = integrate_adaptive(lambda x: x**2, 0.0, 1.0, rel_tol=1e-12)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert err <= 1e-12


def test_integrator_vs_scipy():
    f = lambda x: np.exp(-3 * x) * np.sin(7 * x) + 0.1
    value, err = integrate_adaptive(f, 0.0, 2.0, rel_tol=1e-10)
    ref, _ = scipy_integrate.quad(f, 0.0, 2.0)
    assert value == pytest.approx(ref, rel=1e-9)
    assert abs(value - ref) <= max(err, 1e-12)


def test_integrator_sharp_bump():
    f = lambda x: np.exp(-1e4 * (x - 0.9) ** 2)
    value, err = integrate_adaptive(f, 0.0, 1.0, rel_tol=1e-10)
    exact = math.sqrt(math.pi / 1e4) / 2 * (math.erf(100 * 0.1) + math.erf(100 * 0.9))
    assert value == pytest.approx(exact, rel=1e-9)


def test_integrator_budget_exhaustion_raises():
    jagged = lambda x: np.abs(np.sin(1.0 / (np.asarray(x) + 1e-9)))
    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(jagged, 0.0, 1.0, rel_tol=1e-14, max_intervals=8)
    assert math.isfinite(exc.value.value)
    assert exc.value.error_estimate > 0


def test_integrator_rejects_non_finite():
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: 1.0 / np.asarray(x), 0.0, 1.0, rel_tol=1e-8)


def test_integrator_breakpoints_split_the_range():
    # |x - 0.3| has a kink at 0.3; split there, each panel is a polynomial
    calls = []

    def f(x):
        calls.append(len(x))
        return np.abs(x - 0.3)

    value, err = integrate_adaptive(f, 0.0, 1.0, rel_tol=1e-12, points=(0.3, 2.0))
    assert value == pytest.approx(0.045 + 0.245, abs=1e-15)
    assert err <= 1e-12
    assert calls == [2 * 3 * 20]  # two intervals, three panels each, one call


def test_integrator_empty_interval():
    assert integrate_adaptive(np.sin, 1.0, 1.0, rel_tol=1e-8) == (0.0, 0.0)


# --- survival probability -------------------------------------------------


def test_survival_at_zero_is_one():
    assert survival_prob(0.0, _dist()) == 1.0
    assert survival_prob(-1.0, _dist()) == 1.0


def test_survival_tiny_rate_is_one():
    d = _dist()
    q = survival_prob(d.max_uplink * 3, d, compute_rate=1e-12)
    assert q == pytest.approx(1.0, abs=1e-9)


def test_survival_two_point_discrete():
    # winner latency between the two atoms: q = w_a e^{-rate (t*-a)} + w_b
    rate = 0.7
    d = DiscreteLatency(atoms=(0.2, 0.9), weights=(0.5, 0.5))
    t_star = 0.5
    expected = 0.5 * math.exp(-rate * 0.3) + 0.5
    assert survival_prob(t_star, d, rate) == pytest.approx(expected, rel=1e-14)


def test_survival_monotone_in_lag_and_rate():
    d = _dist()
    grid = np.linspace(0.0, d.n_max * d.move_time + 2 * d.max_uplink, 300)
    q = survival_prob(grid, d)
    assert np.all(np.diff(q) <= 1e-12)
    q_fast = survival_prob(grid, d, compute_rate=4 * d.compute_rate)
    assert np.all(q_fast <= q + 1e-12)


def test_survival_matches_direct_expectation():
    # q(t*) = E[exp(-rate max(0, t* - T))] against a Monte Carlo average
    d = _dist()
    rng = substream(77, 0)
    t = d.sample_total(rng, 400_000)
    for t_star in (0.2, 0.25, 0.3):
        mc = np.mean(np.exp(-d.compute_rate * np.maximum(0.0, t_star - t)))
        se = np.std(np.exp(-d.compute_rate * np.maximum(0.0, t_star - t))) / math.sqrt(len(t))
        assert abs(survival_prob(t_star, d) - mc) <= 4 * se + 1e-6


def test_piecewise_chebyshev_running_integral():
    f = lambda x: np.exp(3.0 * x) * np.sin(5.0 * x) + 1.0
    prim = lambda x: np.exp(3.0 * x) * (3.0 * np.sin(5.0 * x) - 5.0 * np.cos(5.0 * x)) / 34.0 + x
    cheb = analytic._PiecewiseCheb(f, 0.0, 2.0, 1e-14)
    x = np.linspace(0.0, 2.0, 1001)
    assert np.max(np.abs(cheb(x) - (prim(x) - prim(0.0)))) <= 1e-12
    assert cheb.total == pytest.approx(prim(2.0) - prim(0.0), abs=1e-12)
    assert cheb(0.7) == pytest.approx(prim(0.7) - prim(0.0), abs=1e-12)


def _fig4_config(snr_q, tx_power_w):
    label = f"tx_power_w@snr_q={snr_q:g}"
    (cfg,) = [c for name, v, c in preset_jobs("fig4") if name == label and v == tx_power_w]
    return cfg


def test_survival_window_matches_component_loop():
    # reference: every relocation count up to the first one that has not
    # arrived for any lag, one component at a time
    d = _dist(_fig4_config(1.0, 0.05))  # mixture depth 190
    ev = analytic._evaluator(d, d.compute_rate, 1e-9)
    assert d.uplink_cdf(ev._onset) == 0.0  # no mass below the onset
    t = np.linspace(-0.01, d.n_max * d.move_time + 2 * d.max_uplink, 997)
    p = d.success_prob
    last = math.ceil(t.max() / d.move_time)
    ref = (1.0 - p) ** (last + 1) * np.ones_like(t)
    for n in range(last + 1):
        ref += p * (1.0 - p) ** n * ev._q_component(t - n * d.move_time)
    assert np.max(np.abs(survival_prob(t, d) - np.minimum(ref, 1.0))) <= 1e-14


def test_mixture_power_sum_matches_component_loop():
    d = _dist(_fig4_config(1.0, 0.05))
    ev = analytic._evaluator(d, d.compute_rate, 1e-9)
    u = np.linspace(d.max_uplink * 1e-3, d.max_uplink, 301)
    p, power = d.success_prob, 9
    ref = sum(
        p * (1.0 - p) ** m * survival_prob(u + m * d.move_time, d) ** power
        for m in range(d.n_max + 1)
    )
    sums, skipped = ev.mixture_power_sum(u, power, d.n_max, 1e-15)
    assert skipped <= 1e-15
    assert np.max(np.abs(sums - ref)) <= 1e-13 + skipped


def test_survival_memory_does_not_grow_with_mixture_depth():
    d = _dist(_fig4_config(2.0, 0.05))
    assert d.n_max == 1494
    survival_prob(0.1, d)  # build the evaluator outside the measurement
    t = np.linspace(0.0, d.n_max * d.move_time + d.max_uplink, 100_000)
    tracemalloc.start()
    try:
        q = survival_prob(t, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.all((q >= 0.0) & (q <= 1.0))
    assert np.all(np.diff(q) <= 1e-12)


# --- no-forking probability ------------------------------------------------


def test_single_miner_exact():
    p, err = no_forking_probability(default_config(num_miners=1))
    assert p == 1.0
    assert err == 0.0


def test_degenerate_latency_preserves_order():
    for miners in (2, 3, 8):
        cfg = default_config(num_miners=miners)
        p, err = no_forking_probability(cfg, dist=DiscreteLatency.constant(0.3))
        assert p == pytest.approx(1.0, abs=1e-15)


def _enumerated_no_fork(atoms, weights, num_miners, rate):
    """Independent oracle: enumerate latency assignments; for each, the
    probability that some miner both finishes first and arrives first is a
    sum of exponential order probabilities."""
    total = 0.0
    for combo in itertools.product(range(len(atoms)), repeat=num_miners):
        weight = math.prod(weights[j] for j in combo)
        lat = [atoms[j] for j in combo]
        p = 0.0
        for i in range(num_miners):
            handicap = sum(max(0.0, lat[i] - lat[j]) for j in range(num_miners) if j != i)
            p += math.exp(-rate * handicap)
        total += weight * p / num_miners
    return total


def test_enumeration_oracle_against_direct_integral():
    # sanity of the oracle itself on one assignment, via numeric integration
    rate = 0.9
    lat = [0.4, 0.1, 0.7]
    total = 0.0
    for i in range(3):
        integrand = lambda s, i=i: rate * math.exp(-rate * s) * math.prod(
            math.exp(-rate * max(s, s + lat[i] - lat[j])) for j in range(3) if j != i
        )
        total += scipy_integrate.quad(integrand, 0.0, np.inf)[0]
    expected = sum(
        math.exp(-rate * sum(max(0.0, lat[i] - lat[j]) for j in range(3) if j != i))
        for i in range(3)
    ) / 3.0
    assert total == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("num_miners", [2, 3])
def test_brute_force_discrete_equivalence(num_miners):
    rng = np.random.default_rng(123)
    for _ in range(6):
        k = rng.integers(2, 6)
        atoms = tuple(np.sort(rng.uniform(0.0, 2.0, k)))
        raw = rng.uniform(0.1, 1.0, k)
        weights = tuple(raw / raw.sum())
        rate = float(rng.uniform(0.1, 3.0))
        cfg = default_config(num_miners=num_miners)
        cfg = replace(cfg, miner=replace(cfg.miner, lambda0=rate / cfg.miner.compute_power_w))
        p, err = no_forking_probability(cfg, dist=DiscreteLatency(atoms, weights))
        oracle = _enumerated_no_fork(atoms, weights, num_miners, rate)
        assert abs(p - oracle) <= 1e-6


def test_no_fork_monotone_in_miners():
    values = []
    for miners in (1, 2, 5, 10, 20, 50):
        p, _ = no_forking_probability(default_config(num_miners=miners))
        values.append(p)
    assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
    assert values[0] == 1.0


def test_no_fork_error_estimate_invariant():
    cfg = default_config(num_miners=10)
    p, err = no_forking_probability(cfg)
    assert 0.0 < p <= 1.0
    assert err <= cfg.quadrature_tol * p


@pytest.mark.parametrize(
    "cfg",
    [
        _fig4_config(1.0, 0.05),  # mixture depth 190
        _fig4_config(2.0, 0.05),  # mixture depth 1494
        _fig4_config(1.0, 1.0),
        default_config(2, tx_power_w=0.1, snr_fraction=0.5),
        default_config(5, tx_power_w=1.0, snr_fraction=1.0),
        default_config(10, tx_power_w=1.0, snr_fraction=0.5),
        default_config(20, tx_power_w=0.1, snr_fraction=1.0),
    ],
)
def test_no_fork_error_estimate_bounds_true_error(cfg):
    p, err = no_forking_probability(cfg)
    tight = replace(cfg, quadrature_tol=1e-11, mixture_truncation=1e-15)
    p_ref, ref_err = no_forking_probability(tight)
    assert abs(p - p_ref) <= err + ref_err
    assert err <= cfg.quadrature_tol * p


def test_outer_quadrature_count_does_not_grow_with_mixture_depth(monkeypatch):
    counts = []
    for snr_q in (0.25, 2.0):  # mixture depth 29 and 1494
        calls = []
        real = analytic.integrate_adaptive

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(analytic, "integrate_adaptive", counting)
        analytic._evaluator.cache_clear()
        no_forking_probability(_fig4_config(snr_q, 0.05))
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1]


@settings(max_examples=8, deadline=None)
@given(
    tx_power_w=st.floats(0.05, 1.0),
    snr_fraction=st.floats(0.05, 4.0),
    miners=st.integers(2, 30),
    more=st.integers(1, 30),
    wireless_only=st.booleans(),
)
def test_no_fork_property_in_unit_interval_and_falls_with_miners(
    tx_power_w, snr_fraction, miners, more, wireless_only
):
    model = LatencyModel.WIRELESS_ONLY if wireless_only else LatencyModel.TOTAL
    values = []
    for count in (miners, miners + more):
        cfg = default_config(
            count, tx_power_w=tx_power_w, snr_fraction=snr_fraction, latency_model=model
        )
        p, err = no_forking_probability(cfg)
        assert 0.0 <= p <= 1.0
        values.append((p, err))
    (p_few, err_few), (p_many, err_many) = values
    assert p_many <= p_few + err_few + err_many


def test_variants_coincide_without_relocation():
    base = _dist()
    kwargs = dict(
        snr_rate=base.snr_rate,
        snr_threshold=base.snr_threshold,
        ack_bits=base.ack_bits,
        bandwidth_hz=base.bandwidth_hz,
        move_time=base.move_time,
        compute_rate=base.compute_rate,
        success_prob=1.0,
    )
    total = LatencyDistribution.from_params(variant=LatencyModel.TOTAL, **kwargs)
    wireless = LatencyDistribution.from_params(variant=LatencyModel.WIRELESS_ONLY, **kwargs)
    cfg = default_config(num_miners=12)
    p_total, _ = no_forking_probability(cfg, dist=total)
    p_wireless, _ = no_forking_probability(cfg, dist=wireless)
    assert abs(p_total - p_wireless) <= 2 * cfg.quadrature_tol


def test_wireless_only_variant_cross_checks_with_simulator():
    cfg = default_config(num_miners=10, latency_model=LatencyModel.WIRELESS_ONLY)
    p, _ = no_forking_probability(cfg)
    s = estimate(cfg, num_blocks=100, num_round_trials=40_000)
    assert abs(p - s.no_fork_prob.value) <= max(0.01, 3 * s.no_fork_prob.se)


# --- expectations ------------------------------------------------------------


def test_expected_min_compute_closed_form():
    assert expected_min_compute_latency(default_config(num_miners=1)) == pytest.approx(
        3.125, rel=1e-9
    )
    assert expected_min_compute_latency(default_config(num_miners=20)) == pytest.approx(
        0.15625, rel=1e-9
    )
    values = [expected_min_compute_latency(default_config(num_miners=i)) for i in (1, 4, 16, 64)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_expected_mobility_closed_form():
    cfg = default_config()  # threshold at the mean SNR: mean moves = e - 1
    assert expected_mobility_latency(cfg) == pytest.approx(6.25e-3 * (math.e - 1), rel=1e-9)
    assert expected_mobility_latency(cfg) == pytest.approx(1.0739e-2, rel=1e-4)


def test_expected_mobility_vanishing_threshold():
    cfg = default_config(snr_fraction=1e-9)
    assert expected_mobility_latency(cfg) == pytest.approx(0.0, abs=1e-10)


def test_expected_mobility_overflow_reports_infinity():
    cfg = default_config()
    d = derive(cfg.channel, cfg.miner)
    cfg = replace(cfg, channel=replace(cfg.channel, snr_threshold=701.0 / d.snr_rate))
    assert expected_mobility_latency(cfg) == math.inf


def test_expected_mobility_matches_sampler():
    from forkwork.channel import sample_num_movements

    cfg = default_config()
    d = derive(cfg.channel, cfg.miner)
    rng = substream(31, 0)
    n = sample_num_movements(rng, d.success_prob, 1_000_000)
    assert d.move_time_s * n.mean() == pytest.approx(expected_mobility_latency(cfg), rel=0.02)


def test_expected_uplink_bounds_and_sampler():
    cfg = default_config()
    d = _dist(cfg)
    value, err = expected_uplink_latency(cfg)
    assert 0.0 < value < d.max_uplink
    rng = substream(31, 1)
    s = d.sample_uplink(rng, 1_000_000)
    assert value == pytest.approx(s.mean(), rel=0.01)


# --- energy bundle ------------------------------------------------------------


@pytest.mark.parametrize("miners", [1, 8])
def test_round_energy_is_stored_sum(miners):
    cfg = default_config(num_miners=miners)
    res = evaluate(cfg)
    assert (res.no_fork_prob == 1.0) == (miners == 1)
    expected = (
        cfg.miner.compute_power_w * res.exp_min_compute
        + cfg.channel.tx_power_w * res.exp_uplink
        + cfg.miner.mobility_power_w * res.exp_mobility
    )
    assert res.exp_round_energy == expected
    assert res.avg_block_energy == res.exp_round_energy / res.no_fork_prob


def test_energy_components_positive_and_bounded():
    res = evaluate(default_config(num_miners=8))
    assert res.exp_min_compute > 0
    assert res.exp_mobility > 0
    assert res.exp_uplink > 0
    assert res.avg_block_energy >= default_config().miner.compute_power_w * res.exp_min_compute
    assert 0 < res.no_fork_prob <= 1


def test_energy_reduction_matches_simulator():
    ratios = {}
    for miners in (1, 20):
        cfg = default_config(num_miners=miners)
        res = evaluate(cfg)
        sim = estimate(cfg, num_blocks=1500, num_round_trials=1000)
        assert res.avg_block_energy == pytest.approx(
            sim.mean_block_energy.value, rel=0.05
        )
        ratios[miners] = res.avg_block_energy
    assert ratios[20] / ratios[1] < 0.2
