import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from forkwork.analytic import _mixture_depth
from forkwork.channel import (
    DiscreteLatency,
    LatencyDistribution,
    substream,
    uplink_latency,
)
from forkwork.cli import preset_jobs
from forkwork.model import LatencyModel, default_config, derive
from forkwork.simulator import _race

RATE = 0.32  # default compute rate
TOL = default_config().quadrature_tol
TAIL = 1e-4 * TOL  # mixture mass past the default tolerance's depth, _mixture_depth(d, TOL)


def _dist(**overrides) -> LatencyDistribution:
    """The default law, with fields overridden for draws at chosen parameters."""
    return replace(LatencyDistribution.from_config(default_config()), **overrides)


def _compute_times(rng, count):
    """Compute times of ``count`` single-miner rounds: at I = 1 the winner's is the draw."""
    cfg = default_config(num_miners=1)
    return _race(rng, cfg, LatencyDistribution.from_config(cfg), count)[2]


def _snr(d, uplink):
    """SNR behind an uplink latency: the inverse of uplink_latency."""
    return np.exp2(d.ack_bits / (d.bandwidth_hz * uplink)) - 1.0


def mixture_weights(d) -> np.ndarray:
    """Truncated geometric weights of the relocation count (sums to >= 1 - TAIL by default)."""
    if d.variant is LatencyModel.WIRELESS_ONLY or d.success_prob >= 1.0:
        return np.array([1.0])
    return d.success_prob * (1.0 - d.success_prob) ** np.arange(_mixture_depth(d, TOL) + 1)


def total_cdf(d, t):
    """P(T <= t): the mixture of shifted uplink CDFs, or the atoms' step function."""
    t = np.asarray(t, dtype=float)
    if isinstance(d, DiscreteLatency):
        steps = np.asarray(d.atoms)[:, None] <= np.atleast_1d(t)[None, :]
        out = steps.T @ np.asarray(d.weights)
    else:
        weights = mixture_weights(d)
        shifts = np.arange(weights.size)[:, None] * d.move_time
        out = weights @ d.uplink_cdf(np.atleast_1d(t)[None, :] - shifts)
    return out.reshape(t.shape) if t.shape else float(out[0])


# --- inverse transforms -----------------------------------------------------


def test_compute_latency_mean():
    rng = substream(2024, 0)
    s = _compute_times(rng, 1_000_000)
    assert s.min() >= 0.0
    assert s.mean() == pytest.approx(1.0 / RATE, rel=0.01)


def test_compute_latency_tail():
    # P(S > 1/rate) = 1/e for the exponential law
    rng = substream(2024, 1)
    s = _compute_times(rng, 1_000_000)
    assert np.mean(s > 3.125) == pytest.approx(math.exp(-1.0), abs=0.002)


def test_compute_latency_ks():
    rng = substream(2024, 2)
    s = _compute_times(rng, 100_000)
    res = stats.kstest(s, "expon", args=(0.0, 1.0 / RATE))
    assert res.pvalue > 0.01


def test_movements_certain_success():
    rng = substream(2024, 3)
    assert np.all(_dist(success_prob=1.0).draw(rng, 1000)[0] == 0)


def test_movements_mean():
    rng = substream(2024, 4)
    p = math.exp(-1.0)
    n = _dist(success_prob=p).draw(rng, 1_000_000)[0]
    assert n.mean() == pytest.approx(math.e - 1.0, rel=0.01)


def test_movements_pmf_point():
    rng = substream(2024, 5)
    n = _dist(success_prob=0.5).draw(rng, 1_000_000)[0]
    assert np.mean(n == 2) == pytest.approx(0.125, abs=0.003)


def test_movements_chi_square():
    rng = substream(2024, 6)
    p = 0.4
    n = _dist(success_prob=p).draw(rng, 100_000)[0]
    k = 12
    observed = np.array([np.sum(n == i) for i in range(k)] + [np.sum(n >= k)])
    pmf = p * (1 - p) ** np.arange(k)
    expected = len(n) * np.append(pmf, (1 - p) ** k)
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 0.01


def test_single_location_success_fraction_matches_derived():
    cfg = default_config()
    d = derive(cfg.channel, cfg.miner)
    rng = substream(2024, 7)
    trials = 100_000
    n = LatencyDistribution.from_config(cfg).draw(rng, trials)[0]
    frac = np.mean(n == 0)
    se = math.sqrt(d.success_prob * (1 - d.success_prob) / trials)
    assert abs(frac - d.success_prob) <= 3 * se


def test_snr_conditional_support_and_mean():
    rng = substream(2024, 8)
    k0, g0 = 2.0e-7, 5.0e6
    d = _dist(snr_rate=k0, snr_threshold=g0)
    snr = _snr(d, d.draw(rng, 200_000)[1])
    assert np.all(snr > g0)
    assert snr.mean() == pytest.approx(g0 + 1.0 / k0, rel=0.01)


def test_snr_unconditional_matches_raw_law():
    # with threshold 0 the draw is the raw fading SNR
    rng = substream(2024, 9)
    k0 = 2.0e-7
    d = _dist(snr_rate=k0, snr_threshold=0.0)
    snr = _snr(d, d.draw(rng, 100_000)[1])
    res = stats.kstest(snr, "expon", args=(0.0, 1.0 / k0))
    assert res.pvalue > 0.01


def test_uplink_latency_value():
    # hand evaluation of K / (B log2(1 + snr))
    assert uplink_latency(5.522e6, 1e6, 1.8e5) == pytest.approx(0.248052, rel=1e-4)


def test_uplink_latency_unit_snr():
    assert uplink_latency(1.0, 1e6, 1.8e5) == pytest.approx(1e6 / 1.8e5, rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e9), st.floats(min_value=1.01, max_value=100.0))
def test_uplink_latency_monotone(snr, factor):
    assert uplink_latency(snr * factor, 1e6, 1.8e5) < uplink_latency(snr, 1e6, 1.8e5)


# --- uplink distribution ----------------------------------------------------


def test_uplink_cdf_edges():
    d = _dist()
    assert d.uplink_cdf(-1.0) == 0.0
    assert d.uplink_cdf(0.0) == 0.0
    assert d.uplink_cdf(d.max_uplink) == 1.0
    assert d.uplink_cdf(d.max_uplink * 2) == 1.0
    assert d.uplink_ccdf(0.0) == 1.0
    assert d.uplink_ccdf(-1.0) == 1.0
    assert d.uplink_ccdf(d.max_uplink) == 0.0


def test_uplink_cdf_monotone():
    d = _dist()
    grid = np.linspace(-0.01, d.max_uplink * 1.05, 500)
    vals = d.uplink_cdf(grid)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_uplink_pdf_outside_support():
    d = _dist()
    assert d.uplink_pdf(-0.1) == 0.0
    assert d.uplink_pdf(0.0) == 0.0
    assert d.uplink_pdf(d.max_uplink * 1.0001) == 0.0
    assert d.uplink_pdf(d.max_uplink * 1e-6) == 0.0  # deep underflow region


def test_uplink_pdf_matches_cdf_derivative():
    d = _dist()
    for frac in (0.85, 0.9, 0.95, 0.99):
        t = frac * d.max_uplink
        h = d.max_uplink * 1e-7
        numeric = (d.uplink_cdf(t + h) - d.uplink_cdf(t - h)) / (2 * h)
        assert d.uplink_pdf(t) == pytest.approx(numeric, rel=1e-4)


def test_uplink_pdf_normalizes():
    from forkwork.analytic import integrate_adaptive

    d = _dist()
    total, err = integrate_adaptive(
        d.uplink_pdf, d.max_uplink * 1e-12, d.max_uplink, rel_tol=1e-9
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_max_uplink_is_the_uplink_latency_at_the_threshold():
    # one formula for the support bound and for the draws, to the last bit
    grid = [
        default_config(miners, tx_power_w=tx, snr_fraction=fraction)
        for miners in (2, 5, 10, 20)
        for tx in (0.1, 1.0)
        for fraction in (0.5, 1.0)
    ]
    configs = [cfg for preset in ("fig2", "fig4") for *_, cfg in preset_jobs(preset)] + grid
    for cfg in configs:
        ch = cfg.channel
        at_threshold = uplink_latency(ch.snr_threshold, cfg.miner.ack_bits, ch.bandwidth_hz)
        assert float(at_threshold) == cfg.derived.max_uplink_s


def test_uplink_sampler_matches_cdf():
    d = _dist()
    rng = substream(2024, 10)
    s = d.draw(rng, 100_000)[1]
    assert np.all((s > 0) & (s <= d.max_uplink))
    res = stats.kstest(s, lambda z: np.asarray(d.uplink_cdf(z)))
    assert res.pvalue > 0.01


# --- total latency mixture ----------------------------------------------------


def test_total_cdf_reduces_to_uplink_when_no_moves():
    d = _dist(success_prob=1.0)
    grid = np.linspace(0.0, d.max_uplink, 64)
    assert np.allclose(total_cdf(d, grid), d.uplink_cdf(grid), atol=1e-15)


def test_total_cdf_support():
    d = _dist()
    assert total_cdf(d, -0.5) == 0.0
    assert total_cdf(d, 0.0) == 0.0
    top = _mixture_depth(d, TOL) * d.move_time + d.max_uplink
    assert total_cdf(d, top) >= 1 - TAIL


def test_total_cdf_monotone():
    d = _dist()
    grid = np.linspace(0.0, _mixture_depth(d, TOL) * d.move_time + d.max_uplink, 400)
    vals = total_cdf(d, grid)
    assert np.all(np.diff(vals) >= -1e-12)


def test_total_cdf_against_sampler():
    d = _dist()
    rng = substream(2024, 11)
    samples = np.sort(d.draw(rng, 1_000_000)[2])
    grid = np.linspace(0.0, samples[-1] * 1.02, 200)
    empirical = np.searchsorted(samples, grid, side="right") / len(samples)
    sup = np.max(np.abs(empirical - total_cdf(d, grid)))
    assert sup < 0.005


def test_sampled_total_stays_in_support():
    d = _dist()
    rng = substream(2024, 12)
    n, t_up, t = d.draw(rng, 50_000)
    assert np.all((t_up > 0) & (t_up <= d.max_uplink))
    assert np.all(t <= n * d.move_time + d.max_uplink)
    assert np.all(t >= t_up)


def test_wireless_only_variant_drops_moves_from_total():
    cfg = default_config(latency_model=LatencyModel.WIRELESS_ONLY)
    d = LatencyDistribution.from_config(cfg)
    rng = substream(2024, 13)
    n, t_up, t = d.draw(rng, 1000)
    assert np.array_equal(t, t_up)
    assert n.max() > 0  # relocations still sampled (they cost energy)


# --- determinism ------------------------------------------------------------


def test_substreams_are_reproducible():
    a = substream(99, 0, 7).random(16)
    b = substream(99, 0, 7).random(16)
    c = substream(99, 0, 8).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_sequences_reproducible():
    d = _dist()
    s1 = d.draw(substream(5, 1), 1000)
    s2 = d.draw(substream(5, 1), 1000)
    assert all(np.array_equal(a, b) for a, b in zip(s1, s2))


# --- discrete hook ----------------------------------------------------------


def test_discrete_latency_constant():
    d = DiscreteLatency.constant(0.25)
    rng = substream(2024, 14)
    n, t_up, t = d.draw(rng, 100)
    assert np.all(t_up == 0.25) and np.all(t == 0.25)
    assert np.all(n == 0)


def test_discrete_latency_cdf():
    d = DiscreteLatency(atoms=(0.1, 0.4), weights=(0.25, 0.75))
    assert total_cdf(d, 0.05) == 0.0
    assert total_cdf(d, 0.1) == pytest.approx(0.25)
    assert total_cdf(d, 0.39) == pytest.approx(0.25)
    assert total_cdf(d, 0.4) == pytest.approx(1.0)


def test_discrete_latency_validation():
    with pytest.raises(ValueError):
        DiscreteLatency(atoms=(0.1,), weights=(0.5,))
    with pytest.raises(ValueError):
        DiscreteLatency(atoms=(), weights=())
    with pytest.raises(ValueError):
        DiscreteLatency(atoms=(-0.1,), weights=(1.0,))
    for atoms, weights in [((math.nan,), (1.0,)), ((0.1,), (math.nan,)), ((math.inf,), (1.0,))]:
        with pytest.raises(ValueError):
            DiscreteLatency(atoms=atoms, weights=weights)
