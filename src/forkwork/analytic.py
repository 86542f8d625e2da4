"""No-forking probability and energy expectations, by quadrature.

Race math. Condition on the round winner (the miner with the smallest
compute time) having transmission latency t*. A single competitor fails to
overtake it with probability

    q(t*) = Pr(T >= t*) + E[ exp(-compute_rate * (t* - T)) ; T < t* ],

because the competitor's residual compute time past the winner's finish is
again exponential (memorylessness), so its head start never matters. The
competitors are independent and identically distributed, hence

    p_no_fork = E_T[ q(T)^(I - 1) ]

with the outer expectation over the winner's own transmission latency.

For the relocation mixture T = move_time * N + T_up everything reduces to
one reusable object: the exponentially tilted cumulative uplink integral
W(x) = integral_0^x exp(rate * u) f_up(u) du. W is approximated once per
configuration by a piecewise Chebyshev series and cross-checked against
adaptive quadrature; q is then closed-form arithmetic. Shifting the lag by
one relocation gives the exact, contracting recurrence

    q(t + move_time) = p g(t + move_time) + (1 - p) q(t),

with g the survival of a single mixture component, so

    p_no_fork = integral f_up(u) sum_m w_m q(u + m * move_time)^(I - 1) du

is one outer integral over the uplink latency u for all relocation counts m.
The recurrence needs W only while u + m * move_time < max_uplink; past that
window q(u + m * move_time) has a closed form in m. The outer range is split
where q has kinks, at u = max_uplink - k * move_time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .channel import DiscreteLatency, LatencyDistribution, uplink_latency
from .model import (
    AnalyticResult,
    LatencyModel,
    SystemConfig,
    derive,
    ensure_valid,
)

__all__ = [
    "QuadratureError",
    "integrate_adaptive",
    "survival_prob",
    "no_forking_probability",
    "expected_min_compute_latency",
    "expected_mobility_latency",
    "expected_uplink_latency",
    "evaluate",
]


class QuadratureError(RuntimeError):
    """Integration failed to converge; carries the achieved value and estimate."""

    def __init__(self, message, *, value=float("nan"), error_estimate=float("inf")):
        super().__init__(f"{message} (value={value!r}, error_estimate={error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate


# --- adaptive quadrature ------------------------------------------------
#
# Bisection with 20-point Gauss-Legendre panels. The error of an interval is
# |coarse - (left + right)|, which for smooth integrands vastly
# overestimates the error of the refined value; estimates stay
# conservative. The integrand must accept numpy arrays; each pass of the
# refinement evaluates it once, on the nodes of every panel in the pass.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _gl_panels(f, los, his):
    """Gauss-Legendre value of ``f`` on each [los[i], his[i]], from one call of ``f``."""
    h = 0.5 * (his - los)
    nodes = (0.5 * (los + his))[:, None] + h[:, None] * _GL_NODES
    vals = np.asarray(f(nodes.ravel()), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("non-finite integrand value")
    return h * (vals.reshape(nodes.shape) @ _GL_WEIGHTS)


def integrate_adaptive(f, a, b, *, rel_tol=1e-8, abs_tol=0.0, max_intervals=256, points=()):
    """Integrate vectorized ``f`` over [a, b]; returns (value, error estimate).

    ``points`` are known breakpoints of ``f`` (kinks, jumps in a derivative);
    the range is split at those inside (a, b) before any refinement, so no
    panel straddles one. Each pass then bisects every interval whose error
    estimate exceeds an equal share of the budget. Stops once the total error
    estimate is below max(abs_tol, rel_tol*|value|). Raises
    :class:`QuadratureError` if that needs more than ``max_intervals - 1``
    bisections.
    """
    if not b > a:
        return 0.0, 0.0

    edges = np.unique(np.concatenate(([a, b], [x for x in points if a < x < b])))
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    coarse, left, right = np.split(
        _gl_panels(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi])), 3
    )
    leaves = np.array([lo, mid, hi, coarse, left, right])  # one column per interval
    bisections_left = max_intervals - 1

    while True:
        lo, mid, hi, coarse, left, right = leaves
        value = left + right
        err = np.abs(value - coarse)
        total, err_total = float(value.sum()), float(err.sum())
        target = max(abs_tol, rel_tol * abs(total))
        if err_total <= target:
            return total, err_total
        if bisections_left <= 0:
            raise QuadratureError(
                "interval budget exhausted", value=total, error_estimate=err_total
            )
        split = np.flatnonzero(err > target / len(err))
        if len(split) > bisections_left:
            split = split[np.argsort(-err[split], kind="stable")[:bisections_left]]
        bisections_left -= len(split)

        # each split interval becomes its two halves, whose coarse values are known
        new_lo = np.concatenate([lo[split], mid[split]])
        new_hi = np.concatenate([mid[split], hi[split]])
        new_mid = 0.5 * (new_lo + new_hi)
        new_left, new_right = np.split(
            _gl_panels(f, np.concatenate([new_lo, new_mid]), np.concatenate([new_mid, new_hi])), 2
        )
        new_coarse = np.concatenate([left[split], right[split]])
        children = np.array([new_lo, new_mid, new_hi, new_coarse, new_left, new_right])
        leaves = np.concatenate([np.delete(leaves, split, axis=1), children], axis=1)


# --- survival probability of one competitor ------------------------------

# Element budget of the (point x relocation count) blocks that the survival
# sums work on, so their memory does not grow with the mixture depth.
_BLOCK = 1 << 13


class _PiecewiseCheb:
    """Piecewise Chebyshev antiderivative of a vectorized smooth function.

    Panels are split in half until the trailing coefficients of a fixed-degree
    local fit drop below coef_tol relative to the global magnitude; panels
    where the function is flat accept immediately, so sharply localized
    integrands stay cheap. Calling the object evaluates the running integral
    from the left edge: one Clenshaw pass over every point at once, each
    point reading its own panel's coefficients.
    """

    DEGREE = 32

    def __init__(self, f, a, b, coef_tol, max_panels=4096):
        scale = float(np.max(np.abs(np.asarray(f(np.linspace(a, b, 257)), dtype=float))))
        scale = max(scale, 1e-300)
        min_width = (b - a) * 2.0**-42

        panels = []  # (lo, hi, series), built left to right
        stack = [(a, b)]
        while stack:
            lo, hi = stack.pop()
            series = Chebyshev.interpolate(f, self.DEGREE, domain=[lo, hi])
            mags = np.abs(series.coef)
            scale = max(scale, float(mags.max()))
            if float(mags[-4:].max()) <= coef_tol * scale or (hi - lo) <= min_width:
                panels.append((lo, hi, series))
            else:
                if len(panels) + len(stack) >= max_panels:
                    raise QuadratureError("piecewise fit exceeded the panel budget")
                mid = 0.5 * (lo + hi)
                stack.append((mid, hi))
                stack.append((lo, mid))

        self.edges = np.array([p[0] for p in panels] + [b])
        prims = [series.integ(lbnd=lo) for lo, _, series in panels]
        offsets = np.cumsum([0.0] + [float(prim(hi)) for (_, hi, _), prim in zip(panels, prims)])
        coef = np.array([prim.coef for prim in prims])
        coef[:, 0] += offsets[:-1]
        self._coef = np.ascontiguousarray(coef.T)  # row k: T_k coefficient of every panel
        self._off, self._scl = np.array([prim.mapparms() for prim in prims]).T
        self.total = float(offsets[-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        idx = np.clip(np.searchsorted(self.edges, flat, side="right") - 1, 0, len(self._off) - 1)
        y = self._off[idx] + self._scl[idx] * flat
        y2 = 2.0 * y
        b1, b2 = self._coef[-1][idx], np.zeros_like(y)
        for row in self._coef[-2:0:-1]:
            b1, b2 = row[idx] + y2 * b1 - b2, b1
        out = self._coef[0][idx] + y * b1 - b2
        return out.reshape(x.shape) if x.shape else float(out[0])


def _geometric_sum(base, step, count):
    """sum_{n=0}^{count-1} exp(base + n*step), elementwise over base and count.

    Factors out the largest term so nothing overflows, and uses expm1 so a
    ratio near 1 keeps its precision.
    """
    count = np.asarray(count, dtype=float)
    if step == 0.0:
        return count * np.exp(base)
    if step > 0.0:
        return np.exp(base + (count - 1.0) * step) * np.expm1(-count * step) / math.expm1(-step)
    return np.exp(base) * np.expm1(count * step) / math.expm1(step)


class _SurvivalEvaluator:
    """Evaluates q(t*) for a relocation-mixture latency distribution.

    One relocation count n contributes p (1-p)^n g(t* - n move_time), with
      g(x) = 1                                  x <= onset,
      g(x) = exp(-rate x) W(x) + ccdf_up(x)     onset < x < max_up,
      g(x) = carry exp(-rate x)                 x >= max_up, carry = W(max_up).
    Below the onset the uplink law has no mass in double precision
    (P(T_up <= onset) = exp(-746) rounds to 0), so those components survive
    surely, as do those that have not arrived (x <= 0). Only the counts
    whose shifted lag falls inside (onset, max_up) need W; for each lag
    there are at most ceil((max_up - onset) / move_time) + 1 of them. The
    counts before and after that window sum in closed form (geometric), so q
    itself carries no mixture truncation error.
    """

    def __init__(self, dist: LatencyDistribution, rate: float, tol: float):
        self.dist = dist
        self.rate = float(rate)
        self.tol = float(tol)
        hi = dist.max_uplink
        lo = hi * 1e-12
        self._lo = lo
        top_snr = dist.snr_threshold + 746.0 / dist.snr_rate
        self._onset = float(uplink_latency(top_snr, dist.ack_bits, dist.bandwidth_hz))
        self.relocates = dist.variant is LatencyModel.TOTAL and dist.success_prob < 1.0
        if self.relocates:
            p = dist.success_prob
            self._log_stay = math.log1p(-p)
            # beyond this count p (1-p)^n underflows to an exact 0
            self._n_zero = math.ceil(750.0 / -self._log_stay)
            self._window = min(math.ceil((hi - self._onset) / dist.move_time) + 1, self._n_zero)

        def tilted_pdf(u):
            return np.exp(self.rate * np.asarray(u, dtype=float)) * dist.uplink_pdf(u)

        self._growth = _PiecewiseCheb(tilted_pdf, lo, hi, max(1e-3 * self.tol, 1e-15))
        self.carry = float(self._growth.total)

        # independent cross-check of the cumulative integral at three probes
        error = float(dist.uplink_cdf(lo))
        start = lo
        running = 0.0
        for probe in (0.5 * hi, 0.9 * hi, hi):
            piece, piece_err = integrate_adaptive(
                tilted_pdf,
                start,
                probe,
                rel_tol=1e-12,
                abs_tol=1e-13 * max(1.0, self.carry),
                max_intervals=2048,
            )
            running += piece
            error += abs(float(self._growth(probe)) - running) + piece_err
            start = probe
        self.error = error

    def _q_component(self, x):
        """Survival g of one mixture component at shifted lag x (vectorized)."""
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape)
        hi = self.dist.max_uplink
        beyond = x >= hi
        mid = (x > self._onset) & ~beyond
        if np.any(mid):
            xm = x[mid]
            w = np.maximum(self._growth(np.clip(xm, self._lo, hi)), 0.0)
            out[mid] = np.exp(-self.rate * xm) * w + self.dist.uplink_ccdf(xm)
        if np.any(beyond):
            out[beyond] = self.carry * np.exp(-self.rate * x[beyond])
        return out

    def survival(self, t_star):
        """q(t*), scalar in, scalar out; array in, array out."""
        t = np.atleast_1d(np.asarray(t_star, dtype=float)).ravel()
        if not self.relocates:
            out = self._q_component(t)
        else:
            out = np.empty(t.shape)
            rows = max(1, _BLOCK // self._window)
            for start in range(0, len(t), rows):
                out[start : start + rows] = self._windowed_survival(t[start : start + rows])
        out = np.minimum(out, 1.0).reshape(np.shape(t_star))
        return out if np.ndim(t_star) else float(out)

    def _windowed_survival(self, t):
        d = self.dist
        p, tm, hi, r = d.success_prob, d.move_time, d.max_uplink, self.rate
        # counts >= arrived sit at or below the onset (g = 1); counts <
        # passed are beyond the uplink window (g exponential); the rest need W
        arrived = np.clip(np.ceil((t - self._onset) / tm), 0.0, None)
        passed = np.where(t > hi, np.floor((t - hi) / tm) + 1.0, 0.0)
        passed = np.minimum(passed, arrived)
        inside_end = np.minimum(arrived, float(self._n_zero))
        width = int(max(0.0, float(np.max(inside_end - passed))))
        out = np.exp(arrived * self._log_stay)
        if width:
            counts = passed[:, None] + np.arange(width)
            g = self._q_component(t[:, None] - counts * tm)
            terms = np.where(counts < inside_end[:, None], np.exp(counts * self._log_stay) * g, 0.0)
            out += p * terms.sum(axis=1)
        step = self._log_stay + r * tm
        out += self.carry * _geometric_sum(math.log(p) - r * t, step, passed)
        return out

    def mixture_power_sum(self, u, power: int, n_max: int, floor: float):
        """sum_{m=0}^{n_max} p (1-p)^m q(u + m move_time)^power for lags u in (0, max_up].

        Returns (sums, skipped). Walks m with the exact recurrence
        q(t + move_time) = p g(t + move_time) + (1-p) q(t), which needs W
        only while u + m move_time < max_up. Past that window g is carry
        exp(-rate x), and q(u + m move_time) has a closed form in m; those
        counts are summed in blocks until the terms left are below ``floor``.
        ``skipped`` bounds the sum of the terms left out.
        """
        u = np.asarray(u, dtype=float)
        if not self.relocates:
            return self._q_component(u) ** power, 0.0
        order = np.argsort(u, kind="stable")
        out = np.empty(u.shape)
        skipped = 0.0
        d = self.dist
        width = self._window + min(n_max, math.ceil(d.max_uplink / d.move_time)) + 1
        rows = max(1, _BLOCK // width)
        for start in range(0, len(u), rows):
            pick = order[start : start + rows]
            out[pick], cut = self._mixture_block(u[pick], power, n_max, floor)
            skipped = max(skipped, cut)
        return out, skipped

    def _mixture_block(self, u, power, n_max, floor):
        d = self.dist
        p, tm, hi, r = d.success_prob, d.move_time, d.max_uplink, self.rate
        stay, log_stay = 1.0 - p, self._log_stay
        # q(u + k tm) = 1 for k <= first (the lag is at or below the onset);
        # counts that far back weigh (1-p)^n_zero = 0 when the window is cut there
        first = -min(max(1, math.ceil((float(u[-1]) - self._onset) / tm)), self._n_zero)
        last = min(n_max, max(0, math.ceil((hi - float(u[0])) / tm) - 1))
        ks = np.arange(first + 1, last + 1)
        g = self._q_component(ks[:, None] * tm + u)
        q = np.ones(u.shape)
        total = np.zeros(u.shape)
        for k, g_k in zip(ks, g):
            q = stay * q + p * g_k
            if k >= 0:
                total += p * stay**k * q**power
        if last >= n_max:
            return total, 0.0

        # m = last + j: q = (1-p)^j q_last + c sum_{i=1}^{j} (1-p)^(j-i) rho^i
        log_rho = -r * tm
        c = p * self.carry * np.exp(-r * (u + last * tm))
        cols = max(16, _BLOCK // len(u))
        for j0 in range(1, n_max - last + 1, cols):
            j = np.arange(j0, min(j0 + cols, n_max - last + 1), dtype=float)
            mixed = _geometric_sum(log_rho + (j - 1.0) * log_stay, log_rho - log_stay, j)
            qj = np.exp(j * log_stay) * q[:, None] + c[:, None] * mixed
            weights = p * np.exp((last + j) * log_stay)
            total += (qj**power) @ weights
            rest = float(np.max(qj[:, -1] ** power)) * math.exp((last + j[-1] + 1.0) * log_stay)
            if rest <= floor:
                return total, rest
        return total, 0.0

    def kinks(self, n_max: int):
        """Lags u in (0, max_up) where some q(u + m move_time), m <= n_max,
        jumps in its second derivative: u = max_up - k move_time."""
        if not self.relocates:
            return []
        d = self.dist
        count = min(n_max, math.floor(d.max_uplink / d.move_time))
        return [d.max_uplink - k * d.move_time for k in range(1, count + 1)]


@lru_cache(maxsize=32)
def _evaluator(dist: LatencyDistribution, rate: float, tol: float) -> _SurvivalEvaluator:
    return _SurvivalEvaluator(dist, rate, tol)


def _discrete_survival(t_star, dist: DiscreteLatency, rate: float):
    atoms = np.asarray(dist.atoms)
    weights = np.asarray(dist.weights)
    lag = np.maximum(0.0, np.atleast_1d(np.asarray(t_star, dtype=float))[:, None] - atoms)
    out = np.exp(-rate * lag) @ weights
    return out if np.ndim(t_star) else float(out[0])


def survival_prob(t_star, dist, compute_rate: float | None = None):
    """Probability that one competitor fails to overtake a winner whose
    transmission latency is ``t_star``.

    Accepts either a :class:`LatencyDistribution` (compute rate taken from it
    unless given) or a :class:`DiscreteLatency` (compute rate required).
    """
    if isinstance(dist, DiscreteLatency):
        if compute_rate is None:
            raise ValueError("compute_rate is required with a DiscreteLatency")
        return _discrete_survival(t_star, dist, compute_rate)
    rate = dist.compute_rate if compute_rate is None else compute_rate
    return _evaluator(dist, float(rate), 1e-9).survival(t_star)


# --- no-forking probability ----------------------------------------------


def _pn_attempt(dist, num_miners, rate, tol, eps_comp, inner_tol):
    ev = _evaluator(dist, rate, inner_tol)
    lo = dist.max_uplink * 1e-12
    hi = dist.max_uplink
    power = num_miners - 1
    n_max = dist.n_max
    floor = 1e-3 * eps_comp
    skipped = 0.0

    def integrand(u):
        nonlocal skipped
        sums, cut = ev.mixture_power_sum(u, power, n_max, floor)
        skipped = max(skipped, cut)
        return dist.uplink_pdf(u) * sums

    value, quad_err = integrate_adaptive(
        integrand, lo, hi, rel_tol=0.1 * tol, abs_tol=eps_comp, points=ev.kinks(n_max)
    )
    tail = (1.0 - dist.success_prob) ** (n_max + 1) if ev.relocates else 0.0
    err_est = quad_err + tail + skipped + power * ev.error + float(dist.uplink_cdf(lo))
    return value, err_est


def no_forking_probability(config: SystemConfig, *, dist=None) -> tuple[float, float]:
    """Probability that a single PoW round commits without forking.

    Returns (value, absolute error estimate). The estimate satisfies
    ``error <= quadrature_tol * value``; if that cannot be reached even after
    a refinement pass, :class:`QuadratureError` is raised with the achieved
    numbers. A ``dist`` override substitutes the transmission-latency law
    (e.g. a :class:`DiscreteLatency`, evaluated in closed form).
    """
    ensure_valid(config)
    num = config.num_miners
    if num == 1:
        return 1.0, 0.0
    if dist is None:
        dist = LatencyDistribution.from_config(config)
    rate = getattr(dist, "compute_rate", None)
    if rate is None:
        rate = derive(config.channel, config.miner).compute_rate

    if isinstance(dist, DiscreteLatency):
        atoms = np.asarray(dist.atoms)
        weights = np.asarray(dist.weights)
        q = _discrete_survival(atoms, dist, rate)
        return float(weights @ q ** (num - 1)), 0.0

    tol = config.quadrature_tol
    inner = max(1e-13, 1e-3 * tol)
    value, err = _pn_attempt(dist, num, rate, tol, 0.1 * tol, inner)
    if err <= tol * value:
        return value, err
    # refine against the measured magnitude (matters when p_n is small)
    scale = max(value, 1e-300)
    inner2 = max(1e-14, 1e-3 * tol * scale)
    value, err = _pn_attempt(dist, num, rate, tol, 0.1 * tol * scale, inner2)
    if err <= tol * value:
        return value, err
    raise QuadratureError(
        "no-forking probability did not reach the requested tolerance",
        value=value,
        error_estimate=err,
    )


# --- expectations ----------------------------------------------------------


def expected_min_compute_latency(config: SystemConfig) -> float:
    """Mean compute time of the fastest of I miners: 1 / (compute_rate * I)."""
    ensure_valid(config)
    d = derive(config.channel, config.miner)
    return 1.0 / (d.compute_rate * config.num_miners)


def expected_mobility_latency(config: SystemConfig) -> float:
    """Mean relocation latency move_time * (exp(snr_rate * threshold) - 1).

    Reports infinity explicitly once the exponent passes 700 (the relocation
    count is astronomically large for such thresholds).
    """
    ensure_valid(config)
    d = derive(config.channel, config.miner)
    exponent = d.snr_rate * config.channel.snr_threshold
    if exponent > 700.0:
        return math.inf
    return d.move_time_s * math.expm1(exponent)


def expected_uplink_latency(config: SystemConfig) -> tuple[float, float]:
    """Mean uplink latency, integrating the CCDF over its support.

    Returns (value, absolute error estimate); value lies in (0, max_uplink).
    """
    ensure_valid(config)
    dist = LatencyDistribution.from_config(config)
    return integrate_adaptive(dist.uplink_ccdf, 0.0, dist.max_uplink, rel_tol=config.quadrature_tol)


def evaluate(config: SystemConfig) -> AnalyticResult:
    """All analytic outputs for one configuration.

    The per-round winner energy is compute_power * E[min compute] +
    tx_power * E[uplink] + mobility_power * E[relocation]; rounds per block
    are geometric with mean 1/p_no_fork, so the block energy is their ratio.
    Raises :class:`QuadratureError` when p_no_fork is below 1e-9 (the block
    energy would be unreliable).
    """
    p_nofork, p_err = no_forking_probability(config)
    if p_nofork < 1e-9:
        raise QuadratureError(
            "no-forking probability below 1e-9; block energy unreliable",
            value=p_nofork,
            error_estimate=p_err,
        )
    exp_min = expected_min_compute_latency(config)
    exp_up, _ = expected_uplink_latency(config)
    exp_mob = expected_mobility_latency(config)
    round_energy = (
        config.miner.compute_power_w * exp_min
        + config.channel.tx_power_w * exp_up
        + config.miner.mobility_power_w * exp_mob
    )
    return AnalyticResult(
        no_fork_prob=p_nofork,
        exp_min_compute=exp_min,
        exp_mobility=exp_mob,
        exp_uplink=exp_up,
        exp_round_energy=round_energy,
        avg_block_energy=round_energy / p_nofork,
        quadrature_error=p_err,
    )
