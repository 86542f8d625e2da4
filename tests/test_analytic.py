import itertools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

import forkwork
from forkwork import analytic, model
from forkwork.analytic import (
    MIXTURE_DEPTH_CAP,
    QuadratureError,
    _mixture_depth,
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
from forkwork.model import ConfigError, LatencyModel, default_config, derive
from forkwork.simulator import estimate

TOL = default_config().quadrature_tol


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


def test_integrator_spends_its_last_bisections_on_the_largest_errors():
    # 8 unit intervals, each with a kink off its midpoint whose weight, and so whose
    # error, doubles from one interval to the next: all 8 exceed their share of the
    # budget, and 3 bisections remain, so the last 3 intervals, [5, 8], are split
    kinks = np.arange(8) + 0.3
    weights = 2.0 ** np.arange(8)
    f = lambda x: np.abs(np.asarray(x)[..., None] - kinks) @ weights
    calls = []

    def recorded(x):
        calls.append(np.asarray(x).copy())
        return f(x)

    with pytest.raises(QuadratureError, match="interval budget exhausted"):
        integrate_adaptive(recorded, 0.0, 8.0, rel_tol=1e-14, max_intervals=4, points=kinks - 0.3)
    assert len(calls) == 2  # the 8 intervals, then the 4 quarter panels of each split one
    assert len(calls[1]) == 3 * 4 * len(analytic._GL_NODES)
    assert calls[1].min() > 5.0 and calls[1].max() < 8.0


def test_quadrature_error_survives_a_pickle_round_trip():
    # a sweep's analytic job returns its error through the worker pool
    error = QuadratureError("interval budget exhausted", value=0.25, error_estimate=1e-3)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is QuadratureError
    assert str(copy) == str(error) == "interval budget exhausted (value=0.25, error_estimate=0.001)"
    assert copy.args == error.args
    assert (copy.value, copy.error_estimate) == (0.25, 1e-3)
    # it lives in the model, and the package root and the analytic half re-export it
    assert QuadratureError is model.QuadratureError is forkwork.QuadratureError


def test_integrator_rejects_non_finite():
    # inf on the right half of the range: the first pass of nodes meets it
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_adaptive(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0, rel_tol=1e-8)


def test_integrator_rejects_overflowing_panels():
    # finite values whose panel sums overflow once looped forever (the error
    # estimate was NaN); a child process with a timeout turns a hang into a failure
    code = (
        "import numpy as np\n"
        "from forkwork.analytic import QuadratureError, integrate_adaptive\n"
        "try:\n"
        "    integrate_adaptive(lambda x: np.full_like(x, 1e308), 0.0, 10.0)\n"
        "except QuadratureError as exc:\n"
        "    print(exc)\n"
    )
    package_root = str(Path(analytic.__file__).resolve().parents[1])
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert "non-finite" in done.stdout


def test_integrator_rejects_overflowing_sum():
    # every panel finite, their sum is not
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_adaptive(lambda x: np.full_like(x, 1e306), 0.0, 200.0, points=(100.0,))


def test_integrator_passes_integrand_warnings_on():
    # exp overflows inside the integrand, the integral stays finite; the
    # integrator silences only its own sums, so the warning reaches the caller
    with pytest.warns(RuntimeWarning, match="overflow"):
        value, _ = integrate_adaptive(lambda x: 1.0 / np.exp(800.0 * x), 0.0, 1.0)
    assert value == pytest.approx(1.0 / 800.0, rel=1e-8)


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


@pytest.mark.parametrize(
    "points",
    [
        (0.7, 0.2, 0.45, 0.2, 0.7, 0.7),  # unsorted, repeated
        (np.float64(0.45), 0.2, 0.7, 0.45),  # numpy and Python floats of one value
        (-1.0, 0.0, 0.2, 1.0, 0.45, 3.0, float("nan"), 0.7, float("inf")),  # out of range
        np.array([0.7, 0.45, 0.2, 0.2]),
    ],
)
def test_integrator_breakpoints_sorted_and_deduplicated(points):
    # kinks at 0.2, 0.45 and 0.7: the breakpoints as given split the range
    # exactly as the sorted, de-duplicated ones do, to the last bit
    def f(x):
        return np.abs(x - 0.2) * np.abs(x - 0.45) + np.sqrt(np.abs(x - 0.7))

    expected = integrate_adaptive(f, 0.0, 1.0, rel_tol=1e-12, points=(0.2, 0.45, 0.7))
    assert integrate_adaptive(f, 0.0, 1.0, rel_tol=1e-12, points=points) == expected
    assert integrate_adaptive(f, 0, 1, rel_tol=1e-12, points=points) == expected  # int limits


def test_integrator_error_covers_rounding():
    # f_up is accurate only to rounding: at rel_tol 1e-14 its integral over the
    # support comes out 7.5e-15 above 1, which the truncation estimate alone
    # (4.6e-15) did not cover
    d = _dist(_wireless_only(2.0))
    value, err = integrate_adaptive(d.uplink_pdf, d.max_uplink * 1e-12, d.max_uplink, rel_tol=1e-14)
    assert abs(value - 1.0) <= err <= 1e-13


def test_integrator_empty_interval():
    assert integrate_adaptive(np.sin, 1.0, 1.0, rel_tol=1e-8) == (0.0, 0.0)
    assert integrate_adaptive(np.sin, 1.0, 0.0, rel_tol=1e-8) == (0.0, 0.0)  # b < a


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["a", "b"])
def test_integrator_rejects_a_bound_that_is_not_finite(side, bad):
    # a NaN bound once gave (0.0, 0.0), an infinite one numpy warnings
    def f(x):
        raise AssertionError("the integrand was called")

    bounds = {"a": 0.0, "b": 1.0, side: bad}
    with pytest.raises(ValueError, match="bounds must be finite"):
        integrate_adaptive(f, bounds["a"], bounds["b"], rel_tol=1e-8)


def test_quadrature_rule_is_numpy_leggauss_to_the_bit():
    from numpy.polynomial import legendre

    nodes, weights = legendre.leggauss(20)
    assert np.array_equal(analytic._GL_NODES, nodes)
    assert np.array_equal(analytic._GL_WEIGHTS, weights)


# --- survival probability -------------------------------------------------


def test_survival_at_zero_is_one():
    assert survival_prob(0.0, _dist()) == 1.0
    assert survival_prob(-1.0, _dist()) == 1.0


@pytest.mark.parametrize("rate", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("law", ["mixture", "discrete"])
def test_survival_rejects_a_rate_that_is_not_finite_and_positive(law, rate):
    d = _dist() if law == "mixture" else DiscreteLatency.constant(0.1)
    with pytest.raises(ValueError, match="compute_rate"):
        survival_prob(0.2, d, compute_rate=rate)


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
    grid = np.linspace(0.0, _mixture_depth(d, TOL) * d.move_time + 2 * d.max_uplink, 300)
    q = survival_prob(grid, d)
    assert np.all(np.diff(q) <= 1e-12)
    q_fast = survival_prob(grid, d, compute_rate=4 * d.compute_rate)
    assert np.all(q_fast <= q + 1e-12)


def test_survival_matches_direct_expectation():
    # q(t*) = E[exp(-rate max(0, t* - T))] against a Monte Carlo average
    d = _dist()
    rng = substream(77, 0)
    t = d.draw(rng, 400_000)[2]
    for t_star in (0.2, 0.25, 0.3):
        mc = np.mean(np.exp(-d.compute_rate * np.maximum(0.0, t_star - t)))
        se = np.std(np.exp(-d.compute_rate * np.maximum(0.0, t_star - t))) / math.sqrt(len(t))
        assert abs(survival_prob(t_star, d) - mc) <= 4 * se + 1e-6


def test_decayed_fit_where_the_growing_tilt_would_overflow():
    # G(x) = integral_0^x exp(-rate (x - u)) (1 + cos u) du in closed form; the
    # growing form exp(rate u) would overflow long before u = 2
    rate = 500.0
    with pytest.raises(OverflowError):
        math.exp(rate * 2.0)

    def closed(x):
        decay = np.exp(-rate * x)
        cosine = (rate * np.cos(x) + np.sin(x) - rate * decay) / (rate**2 + 1.0)
        return (1.0 - decay) / rate + cosine

    fit = analytic._DecayedFit(lambda u: 1.0 + np.cos(u), rate, 0.0, 2.0)
    n = fit._coef.shape[1]
    assert n & (n - 1) == 0 and fit.width == 2.0 / n  # 2^k panels of one width
    assert rate * fit.width <= 1.0
    x = np.linspace(0.0, 2.0, 10_001)
    assert np.max(np.abs(fit(x) - closed(x))) <= 1e-16  # G is about 4e-3 at most
    assert fit.total == pytest.approx(closed(2.0), abs=1e-16)
    assert fit(2.0) == pytest.approx(fit.total, abs=1e-16)  # x = b reads the last panel
    assert fit(0.7) == pytest.approx(closed(0.7), abs=1e-16)
    # G is continuous across every interior edge, read from either panel
    edges = fit.width * np.arange(1, n)
    for side in (-np.inf, np.inf):
        assert np.max(np.abs(fit(np.nextafter(edges, side)) - fit(edges))) <= 1e-16


def test_fit_tables_are_numpy_chebyshev_to_the_bit():
    from numpy.polynomial import chebyshev

    fit = analytic._DecayedFit
    assert np.array_equal(fit._NODES, chebyshev.chebpts1(fit.DEGREE + 1))
    table = chebyshev.chebvander(fit._NODES, fit.DEGREE) * (2.0 / (fit.DEGREE + 1))
    table[:, 0] *= 0.5
    assert np.array_equal(fit._FIT, table)


@pytest.mark.parametrize("rows", [1, 2, 7, 64])
def test_antiderivative_is_chebint_to_the_bit(rows):
    from numpy.polynomial import chebyshev

    rng = np.random.default_rng(rows)
    for scl in (0.5, 1e-3, 0.123456789, 7.25):
        # coefficients that decay as a fit's do, so the small ones meet large partial sums
        coef = rng.standard_normal((rows, 33)) * np.logspace(0, -15, 33)
        expected = chebyshev.chebint(coef, lbnd=-1.0, scl=scl, axis=1)
        assert np.array_equal(analytic._antiderivative(coef, scl), expected)


def test_fit_samples_each_level_in_one_call(monkeypatch):
    # a machine-independent work counter: at lambda0 = 10,000 on the default
    # link the fit has 8,192 panels, yet calls f once for its scale and once per
    # level fitted; a panel-by-panel fit called it once a panel
    cfg = _with_rate(default_config(), 10_000.0)
    calls = []
    real = analytic._DecayedFit

    def counting_fit(f, *args):
        def counted(u):
            calls.append(np.size(u))
            return f(u)

        return real(counted, *args)

    monkeypatch.setattr(analytic, "_DecayedFit", counting_fit)
    analytic._evaluator.cache_clear()
    ev = analytic._evaluator(_dist(cfg), cfg.derived.compute_rate)
    analytic._evaluator.cache_clear()
    assert ev._decayed._coef.shape[1] == 8192
    assert len(calls) <= 3, calls


def _fig4_config(snr_q, tx_power_w):
    label = f"tx_power_w@snr_q={snr_q:g}"
    (cfg,) = [c for name, v, c in preset_jobs("fig4") if name == label and v == tx_power_w]
    return cfg


def _component_loop_q(ev, d, t):
    """Reference q(t): every relocation count up to the first one that has not
    arrived for any lag, one component at a time."""
    p = d.success_prob
    last = math.ceil(np.max(t) / d.move_time)
    q = (1.0 - p) ** (last + 1) * np.ones_like(t)
    for n in range(last + 1):
        q += p * (1.0 - p) ** n * ev._q_component(t - n * d.move_time)
    return np.minimum(q, 1.0)


def test_survival_window_matches_component_loop():
    d = _dist(_fig4_config(1.0, 0.05))  # mixture depth 190
    ev = analytic._evaluator(d, d.compute_rate)
    assert d.uplink_cdf(ev._onset) == 0.0  # no mass below the onset
    t = np.linspace(-0.01, _mixture_depth(d, TOL) * d.move_time + 2 * d.max_uplink, 997)
    assert np.max(np.abs(survival_prob(t, d) - _component_loop_q(ev, d, t))) <= 1e-14


def test_survival_far_past_the_window_matches_an_fsum_reference():
    # here rho = exp(-rate move_time) is above 1 - p; summing the closed form
    # from its smallest term once cost 2.7e-14 at 48 steps past the window
    d = _dist(_fig4_config(0.5, 0.5))
    ev = analytic._evaluator(d, d.compute_rate)
    p, tm = d.success_prob, d.move_time
    assert math.exp(-d.compute_rate * tm) > 1.0 - p
    t = d.max_uplink + 47 * tm + np.linspace(0.0, tm, 101)[1:]
    last = math.ceil(t[-1] / tm)
    n = np.arange(last + 1)
    terms = [p * (1.0 - p) ** n * ev._q_component(x - n * tm) for x in t]  # row: one lag
    ref = [min(math.fsum([*row, (1.0 - p) ** (last + 1)]), 1.0) for row in terms]
    assert np.max(np.abs(survival_prob(t, d) - ref)) <= 3e-15


def _beyond_sum_against_brute_force(ev, phases, power, terms):
    """``ev._beyond_sum`` of at most ``terms`` terms at the window's last lags, the count of
    terms it took, and the gap to a sum through ``_beyond`` of every term whose weight is
    above 1e-20."""
    d = ev.dist
    p, tm = d.success_prob, d.move_time
    x_last = d.max_uplink - tm + tm * phases
    q_last = ev.survival(x_last)
    taken, real = [], ev._beyond

    def recording(q, x, j):
        taken.append(int(j[-1]))
        return real(q, x, j)

    ev._beyond = recording
    try:
        sums, skipped = ev._beyond_sum(q_last, x_last, power, terms)
    finally:
        del ev._beyond
    i = np.arange(math.ceil(math.log(1e-20) / ev._log_stay), dtype=float)
    terms = p * np.exp(i * ev._log_stay) * real(q_last[:, None], x_last[:, None], i + 1.0) ** power
    brute = np.array([math.fsum(row) for row in terms])
    return skipped, taken[-1], brute - sums


def test_beyond_sum_bounds_what_it_leaves_out_when_it_stops_early():
    # 512 phases: blocks of 16 terms, and the terms fall below the tail weight
    # at J = 176 of n_max + 1 = 191
    d = _dist(_fig4_config(1.0, 0.05))
    ev = analytic._evaluator(d, d.compute_rate)
    terms = _mixture_depth(d, TOL) + 1
    phases = np.linspace(0.0, 1.0, 513)[1:]
    skipped, last, gap = _beyond_sum_against_brute_force(ev, phases, 9, terms)
    assert last < terms
    assert 0.0 < skipped <= (1.0 - d.success_prob) ** terms  # the tail weight
    assert np.all(gap <= skipped + 1e-15)
    assert np.max(gap) >= 0.5 * skipped  # what it left out is real, not rounding


def test_beyond_sum_bounds_what_it_leaves_out_when_it_runs_out():
    # 8 phases: blocks of 1024 columns, so the first holds all n_max + 1 terms and
    # the sum runs out; the components past n_max that it leaves out weigh 8.7e-13
    # in all and must be in its bound
    d = _dist(_fig4_config(1.0, 0.05))
    ev = analytic._evaluator(d, d.compute_rate)
    terms = _mixture_depth(d, TOL) + 1
    phases = np.linspace(0.0, 1.0, 9)[1:]
    skipped, last, gap = _beyond_sum_against_brute_force(ev, phases, 1, terms)
    assert last == terms
    assert np.all(gap <= skipped + 1e-15)
    assert np.max(gap) >= 0.5 * skipped > 0.0


def test_phase_sum_matches_component_loop():
    # the reference q comes from the component loop, not from survival_prob, and
    # the mixture sum runs over every relocation count whose weight is above 1e-17;
    # at quadrature_tol 1e-11 the tail weight, below which terms are skipped, is <= 1e-15
    d = _dist(_fig4_config(1.0, 0.05))
    ev = analytic._evaluator(d, d.compute_rate)
    p, tm, power = d.success_prob, d.move_time, 9
    phi = np.linspace(tm * 1e-3, tm, 31)
    k = np.arange(math.floor(d.max_uplink / tm) + 1)
    m = np.arange(math.ceil(math.log(1e-17) / math.log1p(-p)) + 1)
    j = np.arange(len(k) + len(m))
    powers = _component_loop_q(ev, d, phi + tm * j[:, None]) ** power  # row j: A_j(phi)
    mixture = np.array([(p * (1.0 - p) ** m) @ powers[i + m] for i in k])  # row k: S_k(phi)
    dens = d.uplink_pdf(phi + tm * k[:, None])
    ref = (dens * mixture).sum(axis=0)
    sums, skipped = ev.phase_sum(phi, power, _mixture_depth(d, 1e-11) + 1)
    assert skipped <= 1e-15
    # each S_k is a mixture of probabilities, so the error scales with sum_k f_up
    assert np.max(np.abs(sums - ref) / dens.sum(axis=0)) <= 1e-13 + skipped


def test_survival_memory_does_not_grow_with_mixture_depth():
    d = _dist(_fig4_config(2.0, 0.05))
    n_max = _mixture_depth(d, TOL)
    assert n_max == 1494
    survival_prob(0.1, d)  # build the evaluator outside the measurement
    t = np.linspace(0.0, n_max * d.move_time + d.max_uplink, 100_000)
    tracemalloc.start()
    try:
        q = survival_prob(t, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.all((q >= 0.0) & (q <= 1.0))
    assert np.all(np.diff(q) <= 1e-12)


# --- mixture depth -----------------------------------------------------------


def test_mixture_tail_mass_bound():
    d = _dist()
    p, n_max, tail = d.success_prob, _mixture_depth(d, TOL), 1e-4 * TOL
    assert (1 - p) ** (n_max + 1) <= tail < (1 - p) ** n_max  # the smallest such depth
    assert (p * (1 - p) ** np.arange(n_max + 1)).sum() >= 1 - tail


def test_mixture_depth_cap():
    # the threshold at 21x the mean SNR: success probability e^-21, ~3.6e10 components;
    # the law builds, and p_n refuses the config before it builds an evaluator
    cfg = default_config(snr_fraction=21.0)
    d = _dist(cfg)
    with pytest.raises(ConfigError, match="relocation mixture needs"):
        _mixture_depth(d, TOL)
    analytic._evaluator.cache_clear()
    message = f"relocation mixture needs more than {MIXTURE_DEPTH_CAP} components"
    with pytest.raises(ConfigError, match=message):
        no_forking_probability(cfg)
    assert analytic._evaluator.cache_info().misses == 0
    assert no_forking_probability(replace(cfg, num_miners=1)) == (1.0, 0.0)
    # wireless-only never sums the mixture
    assert _mixture_depth(replace(d, variant=LatencyModel.WIRELESS_ONLY), TOL) == 0


def test_configs_differing_only_in_tolerance_share_one_law_and_fit():
    cfg = _fig4_config(1.0, 0.05)
    tight = replace(cfg, quadrature_tol=1e-11)
    assert _dist(cfg) == _dist(tight)
    assert _mixture_depth(_dist(cfg), TOL) < _mixture_depth(_dist(tight), 1e-11)
    analytic._evaluator.cache_clear()
    loose_p, loose_err = no_forking_probability(cfg)
    tight_p, tight_err = no_forking_probability(tight)
    assert analytic._evaluator.cache_info().misses == 1
    assert tight_err < loose_err and abs(tight_p - loose_p) <= loose_err + tight_err


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
    tight = replace(cfg, quadrature_tol=1e-11)  # mixture depth sized to tail mass 1e-15
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


def test_one_fit_and_one_outer_integral_per_law(monkeypatch):
    # where p_n once took a second pass and a second fit
    analytic._evaluator.cache_clear()
    survival_prob(0.1, _dist(WIRELESS_FAST))
    calls = []
    real = analytic.integrate_adaptive

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(analytic, "integrate_adaptive", counting)
    no_forking_probability(WIRELESS_FAST)
    assert analytic._evaluator.cache_info().currsize == 1
    assert len(calls) == 1


def test_outer_integrand_nodes_on_fig4(monkeypatch):
    # a machine-independent work counter: over one relocation period the outer
    # p_n integral takes 2,400 nodes on the 20 fig4 laws; a walk of the
    # recurrence per uplink latency u took 29,920
    nodes = []
    real = analytic.integrate_adaptive

    def counting(f, *args, **kwargs):
        def counted(x):
            nodes.append(np.size(x))
            return f(x)

        return real(counted, *args, **kwargs)

    for _, _, cfg in preset_jobs("fig4"):
        no_forking_probability(cfg)  # builds the law's evaluators and their cross-checks
        monkeypatch.setattr(analytic, "integrate_adaptive", counting)
        no_forking_probability(cfg)  # the outer integrals alone
        monkeypatch.undo()
    assert 0 < sum(nodes) <= 3000


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
    total = replace(_dist(), success_prob=1.0)
    wireless = replace(total, variant=LatencyModel.WIRELESS_ONLY)
    cfg = default_config(num_miners=12)
    p_total, _ = no_forking_probability(cfg, dist=total)
    p_wireless, _ = no_forking_probability(cfg, dist=wireless)
    assert abs(p_total - p_wireless) <= 2 * cfg.quadrature_tol


def test_wireless_only_variant_cross_checks_with_simulator():
    cfg = default_config(num_miners=10, latency_model=LatencyModel.WIRELESS_ONLY)
    p, _ = no_forking_probability(cfg)
    s = estimate(cfg, num_blocks=100, num_round_trials=40_000)
    assert abs(p - s.no_fork_prob.value) <= max(0.01, 3 * s.no_fork_prob.se)


def test_dist_override_keeps_the_config_compute_rate():
    # the law's own compute rate is 4x the config's; both halves race at the config's
    cfg = default_config()
    law = _dist(replace(cfg, miner=replace(cfg.miner, lambda0=4 * cfg.miner.lambda0)))
    p, err = no_forking_probability(cfg, dist=law)
    assert (p, err) == no_forking_probability(cfg)
    s = estimate(cfg, dist=law)
    assert abs(p - s.no_fork_prob.value) <= 5 * s.no_fork_prob.se


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
    cfg = default_config()
    d = derive(cfg.channel, cfg.miner)
    rng = substream(31, 0)
    n = _dist(cfg).draw(rng, 1_000_000)[0]
    assert d.move_time_s * n.mean() == pytest.approx(expected_mobility_latency(cfg), rel=0.02)


def test_expected_uplink_bounds_and_sampler():
    cfg = default_config()
    d = _dist(cfg)
    value, err = expected_uplink_latency(cfg)
    assert 0.0 < value < d.max_uplink
    rng = substream(31, 1)
    s = d.draw(rng, 1_000_000)[1]
    assert value == pytest.approx(s.mean(), rel=0.01)


@pytest.mark.parametrize("tx_power", [0.1, 1.0])
@pytest.mark.parametrize("fraction", [0.5, 1.0])
def test_expected_uplink_error_estimate_bounds_true_error(tx_power, fraction):
    # the acceptance grid's links (its miner count does not change the uplink law)
    cfg = default_config(tx_power_w=tx_power, snr_fraction=fraction)
    res = evaluate(cfg)
    assert (res.exp_uplink, res.exp_uplink_error) == expected_uplink_latency(cfg)
    d = _dist(cfg)
    ccdf = lambda u: float(d.uplink_ccdf(u))
    reference, _ = scipy_integrate.quad(ccdf, 0.0, d.max_uplink, epsabs=0.0, epsrel=1e-13)
    assert 0.0 < res.exp_uplink_error <= cfg.quadrature_tol * res.exp_uplink
    assert abs(res.exp_uplink - reference) <= res.exp_uplink_error


def test_evaluate_builds_the_latency_law_once(monkeypatch):
    calls = []
    build = LatencyDistribution.from_config.__func__

    def counting(cls, cfg):
        calls.append(cfg)
        return build(cls, cfg)

    monkeypatch.setattr(LatencyDistribution, "from_config", classmethod(counting))
    evaluate(default_config())
    assert len(calls) == 1
    # at I = 1 p_n needs no law, yet a law that cannot be built is still a config error
    cfg = default_config(1, snr_fraction=720.0, latency_model=LatencyModel.WIRELESS_ONLY)
    with pytest.raises(ConfigError, match="mean relocation count"):
        evaluate(cfg)


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
    # rel = 0.05 is about 5 SE at I = 1 (se about 0.25 J on 25.6 J at 10k blocks)
    # and 6 SE at I = 20, so the false-failure rate is below 1e-6 per run
    ratios = {}
    for miners in (1, 20):
        cfg = default_config(num_miners=miners)
        res = evaluate(cfg)
        sim = estimate(cfg, num_blocks=10_000, num_round_trials=1000)
        assert res.avg_block_energy == pytest.approx(
            sim.mean_block_energy.value, rel=0.05
        )
        ratios[miners] = res.avg_block_energy
    assert ratios[20] / ratios[1] < 0.2


# --- p_n against an independent reference ------------------------------------

LIGHT_MPS = 3.0e8  # the model's speed of light
# the absolute floor lets panels where F_up underflows to 0 converge
QUAD = {"epsrel": 1e-12, "epsabs": 1e-17, "limit": 200}
TAIL = 1e-17  # relocation counts whose (1-p)^count is below this are dropped


def reference_no_fork(cfg) -> float:
    """p_n by a route that shares no code with ``forkwork.analytic``.

    It works with r = 1 - q, the chance that one competitor overtakes a winner
    whose transmission latency is t. With F_up the uplink latency's CDF, f_up
    its density, T its upper support, p the location success probability, t_m
    the relocation time and I the miner count:

        h(s) = integral_0^s rate e^(-rate (s - w)) F_up(w) dw   (one relocation count)
        r(t) = sum_n p (1-p)^n h(t - n t_m)
        p_n  = sum_m p (1-p)^m integral_0^T f_up(u) (1 - r(u + m t_m))^(I-1) du

    Every integrand is bounded by rate or by 1, at any rate and any I. All of
    these come from the config's own fields, through a link budget of their
    own. The outer integral runs over the phase phi of u = phi + j t_m, so that
    on the lags s = phi + k t_m, h follows the panel recurrence

        h(s + t_m) = e^(-rate t_m) h(s) + integral_s^(s + t_m) rate e^(-rate (s + t_m - w))
                                                               F_up(w) dw

    and r the recurrence r(t + t_m) = (1-p) r(t) + p h(t + t_m). Past T, F_up = 1
    and h(s) = h(T) e^(-rate (s - T)) + 1 - e^(-rate (s - T)). Each integral is
    scipy's QUADPACK at relative tolerance 1e-12; the integrand of phi has a
    kink where a lag crosses T.
    """
    ch, mn = cfg.channel, cfg.miner
    wavelength = LIGHT_MPS / ch.carrier_frequency_hz
    gain = (wavelength / (4.0 * math.pi * ch.distance_m)) ** 2
    noise_w = 10.0 ** ((ch.noise_psd_dbm_hz + 10.0 * math.log10(ch.bandwidth_hz) - 30.0) / 10.0)
    snr_rate = noise_w / (gain * ch.tx_power_w)
    threshold = ch.snr_threshold
    k_over_b = mn.ack_bits / ch.bandwidth_hz  # ACK time at 1 bit/s/Hz
    top = k_over_b / math.log2(1.0 + threshold)
    rate = mn.lambda0 * mn.compute_power_w
    power = cfg.num_miners - 1
    if cfg.latency_model is LatencyModel.TOTAL:
        p, step = math.exp(-snr_rate * threshold), (wavelength / 2.0) / mn.speed_mps
        depth = math.ceil(math.log(TAIL) / math.log1p(-p))
    else:  # no relocation delay: one count, and every lag phi alone
        p, step, depth = 1.0, top, 0

    def log_cdf(x):
        """(log F_up(x), ln 2 K / (B x)) for 0 < x < T."""
        bits_exponent = math.log(2.0) * k_over_b / x
        if bits_exponent > 700.0:  # 2^(K/(B x)) overflows: F_up is an exact 0
            return -math.inf, bits_exponent
        return -snr_rate * (math.exp(bits_exponent) - 1.0 - threshold), bits_exponent

    def cdf(x):
        return 1.0 if x >= top else math.exp(log_cdf(x)[0])

    def pdf(x):
        if x >= top:
            return 0.0
        log_f, bits_exponent = log_cdf(x)
        if log_f == -math.inf:
            return 0.0
        return math.exp(log_f + bits_exponent + math.log(snr_rate * bits_exponent / x))

    def panel(a, b):
        """integral_a^b rate e^(-rate (b - w)) F_up(w) dw, for b <= T."""
        def weighted(w):
            return rate * math.exp(-rate * (b - w)) * cdf(w)

        return scipy_integrate.quad(weighted, a, b, **QUAD)[0]

    def integrand(phi):
        inside = math.floor((top - phi) / step)  # the lags phi + k t_m <= T
        decay = math.exp(-rate * step)
        h, r, h_top = panel(0.0, phi), 0.0, None
        q_powers = []
        for k in range(inside + depth + 1):
            s = phi + k * step
            if 0 < k <= inside:
                h = decay * h + panel(s - step, s)
            elif k > inside:
                if h_top is None:
                    last = s - step
                    h_top = math.exp(-rate * (top - last)) * h + panel(last, top)
                fall = math.exp(-rate * (s - top))
                h = h_top * fall + 1.0 - fall
            r = (1.0 - p) * r + p * h
            q_powers.append(math.exp(power * math.log1p(-r)) if r < 1.0 else 0.0)
        # sum_m p (1-p)^m q(phi + (j + m) t_m)^(I-1), from the last lag back
        total, mixed = 0.0, 0.0
        for k in range(len(q_powers) - 1, -1, -1):
            mixed = p * q_powers[k] + (1.0 - p) * mixed
            if k <= inside:
                total += pdf(phi + k * step) * mixed
        return total

    span = min(step, top)
    kink = top - math.floor(top / step) * step
    points = [kink] if 0.0 < kink < span else None
    return scipy_integrate.quad(integrand, 0.0, span, points=points, **QUAD)[0]


def _with_rate(cfg, lambda0):
    return replace(cfg, miner=replace(cfg.miner, lambda0=lambda0))


def _wireless_only(snr_fraction):
    return default_config(snr_fraction=snr_fraction, latency_model=LatencyModel.WIRELESS_ONLY)


# p_n 0.04: an absolute outer target of 1e-9 once fell short of tol * p_n = 4e-10
WIRELESS_FAST = _with_rate(default_config(50, latency_model=LatencyModel.WIRELESS_ONLY), 40.0)


def _random_total(num_miners, tx_power_w, snr_fraction, lambda0):
    cfg = default_config(num_miners, tx_power_w=tx_power_w, snr_fraction=snr_fraction)
    return _with_rate(cfg, lambda0)


# fast compute (rate x max_uplink up to 200), a large fleet, and four random
# `total` configs, where a fit of the growing exp(rate u) f_up(u) had no bound
FAST_OR_LARGE = {
    **{f"lambda0={rate:g}": _with_rate(default_config(), rate) for rate in (7.5, 10, 20, 40, 100)},
    "I=100000": default_config(100_000),
    "random-616": _random_total(616, 1.202, 1.214, 3.377),
    "random-335": _random_total(335, 0.02226, 5.976, 2.616),
    "random-1951": _random_total(1951, 0.8706, 3.012, 3.241),
    "random-1930": _random_total(1930, 1.284, 0.2946, 2.261),
}


# relocating laws with p_n between 1e-6 and 1e-4: the mixture's bare tail weight,
# about 7e-13, would pass quadrature_tol p_n, while the truncation term, the terms
# the sums leave out weighted by q^(I-1), does not; in the two random ones
# (n_max + 1) move_time lies below the uplink onset
SMALL_PN = {
    "I=100000-lambda0=40": _with_rate(default_config(100_000), 40.0),
    "I=50000-lambda0=100": _with_rate(default_config(50_000), 100.0),
    "random-94957": _random_total(94957, 0.07633, 0.4563, 150.1),
    "random-293752": _random_total(293752, 0.02612, 0.1835, 111.5),
}


@pytest.mark.parametrize(
    "cfg",
    [
        default_config(),
        default_config(2),
        _with_rate(default_config(), 5.0),
        _wireless_only(1.0),
        _fig4_config(0.25, 0.05),  # mixture depth 29
        _fig4_config(2.0, 0.05),  # mixture depth 1494
        # the reference agrees with a 30-digit mpmath quadrature to 7e-16 here
        _wireless_only(2.0),
        WIRELESS_FAST,
        *FAST_OR_LARGE.values(),
        *SMALL_PN.values(),
    ],
    ids=[
        "default", "I=2", "lambda0=5", "wireless_only", "fig4-depth-29", "fig4-depth-1494",
        "wireless_only-2x", "wireless_only-I=50-lambda0=40",
        *FAST_OR_LARGE,
        *SMALL_PN,
    ],
)
def test_no_fork_within_its_error_estimate_of_the_reference(cfg):
    result = evaluate(cfg)
    assert result.quadrature_error <= cfg.quadrature_tol * result.no_fork_prob
    # and within 1e-12 at most, where I = 100,000 reports a larger estimate
    assert abs(result.no_fork_prob - reference_no_fork(cfg)) <= min(result.quadrature_error, 1e-12)
