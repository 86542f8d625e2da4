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
one reusable object: the decayed cumulative uplink integral
G(x) = integral_onset^x exp(-rate (x - u)) f_up(u) du, which is at most 1 at
any rate. G is approximated once per law and compute rate by a Chebyshev series
on 2^k panels of one width, to one fixed coefficient tolerance, and
cross-checked against adaptive quadrature; q is then closed-form arithmetic.
Shifting the lag by one relocation gives the exact, contracting recurrence

    q(t + move_time) = p g(t + move_time) + (1 - p) q(t),

with g the survival of a single mixture component. With w_m = p (1 - p)^m
the weight of m relocations, p_no_fork = integral_0^max_up f_up(u)
sum_m w_m q(u + m * move_time)^(I - 1) du. Writing u = phi + k * move_time
folds this onto one relocation period: with A_j = q(phi + j * move_time)^(I - 1)
and S_k = sum_m w_m A_(k+m), so that S_k = p A_k + (1 - p) S_(k+1),

    p_no_fork = integral_0^min(move_time, max_up) sum_k f_up(phi + k * move_time) S_k(phi) dphi.

One walk of the recurrence per phase phi gives every A_j while
phi + j * move_time <= max_up; past that window q has a closed form in j,
summed once into S at the window's end. The integrand's one breakpoint is
where a lag crosses max_up, phi* = max_up - floor(max_up / move_time) * move_time.
A law that never relocates keeps the plain integral over u.

p_no_fork takes one pass, whose tolerances scale with p_no_fork: the outer
quadrature stops at a relative target of 0.1 quadrature_tol, and the sum past
the window after n_max + 1 terms, n_max the least n with (1 - p)^(n + 1) <=
1e-4 quadrature_tol, or once a bound on the terms it leaves out falls below
that tail weight. Its error
estimate adds the outer quadrature's, that bound and the fit's. With delta the
cross-check's absolute error on G, hence on q, and n = I - 1, E|q~^n - q^n| is
at most n delta E[(q~ + delta)^n]^((n-1)/n) by Jensen's inequality (t^((n-1)/n)
is concave), where E[(q~ + delta)^n] <= p_no_fork + the other terms + n delta e^(n delta).
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np

from .channel import DiscreteLatency, LatencyDistribution, uplink_latency
from .model import AnalyticResult, ConfigError, LatencyModel, QuadratureError, SystemConfig

__all__ = [
    "MIXTURE_DEPTH_CAP",
    "QuadratureError",
    "integrate_adaptive",
    "survival_prob",
    "no_forking_probability",
    "expected_min_compute_latency",
    "expected_mobility_latency",
    "expected_uplink_latency",
    "evaluate",
]


# --- adaptive quadrature ------------------------------------------------
#
# Bisection with 20-point Gauss-Legendre panels, tabulated as QUADPACK tabulates its rules, to
# the bit of numpy's leggauss(20): (node, weight) at the ten positive nodes, mirrored about 0.
# The error of an interval is |coarse - (left + right)|, which for smooth integrands vastly
# overestimates the error of the refined value; estimates stay conservative. A round-off floor
# of 50 eps per unit of summed |panel value|, as in QUADPACK's rules, covers an integrand
# accurate only to rounding. The integrand must accept numpy arrays; each pass evaluates it
# once, on every panel's nodes.

_GL_HALF = np.array([
    (0.07652652113349734, 0.15275338713072628), (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824), (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186), (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471), (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446), (0.993128599185095, 0.017614007139150893),
])
_GL_NODES, _GL_WEIGHTS = np.concatenate([_GL_HALF[::-1] * (-1.0, 1.0), _GL_HALF]).T.copy()
_ROUND_OFF = 50.0 * float(np.finfo(float).eps)


def _gl_panels(f, los, his):
    """Gauss-Legendre value of ``f`` on each [los[i], his[i]], from one call of ``f``."""
    h = 0.5 * (his - los)
    nodes = (0.5 * (los + his))[:, None] + h[:, None] * _GL_NODES
    vals = np.asarray(f(nodes.ravel()), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # integrate_adaptive checks the sums
        return h * (vals.reshape(nodes.shape) @ _GL_WEIGHTS)


def integrate_adaptive(f, a, b, *, rel_tol=1e-8, abs_tol=0.0, max_intervals=256, points=()):
    """Integrate vectorized ``f`` over [a, b]; returns (value, error estimate).

    ``points`` are known breakpoints of ``f`` (kinks, jumps in a derivative);
    the range is split at those inside (a, b) before any refinement, so no
    panel straddles one. Each pass then bisects every interval whose error
    estimate exceeds an equal share of the budget. Stops once the total error
    estimate is below max(abs_tol, rel_tol*|value|) or the round-off floor,
    and reports it plus that floor. Raises
    :class:`QuadratureError` if that needs more than ``max_intervals - 1``
    bisections, or if an integrand value, a panel, the value or the error
    estimate is not finite. Returns (0.0, 0.0) for b <= a; raises ValueError
    for a non-finite bound, before ``f`` is called.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite (got {a!r}, {b!r})")
    if not b > a:
        return 0.0, 0.0

    # sorted and de-duplicated without np.unique, whose first call imports numpy.ma
    edges = np.array(sorted({a, b, *(x for x in points if a < x < b)}), dtype=float)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    coarse, left, right = np.split(
        _gl_panels(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi])), 3
    )
    leaves = np.array([lo, mid, hi, coarse, left, right])  # one column per interval
    bisections_left = max_intervals - 1

    while True:
        lo, mid, hi, coarse, left, right = leaves
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            value = left + right
            err = np.abs(value - coarse)
            total, err_total = float(value.sum()), float(err.sum())
            floor = _ROUND_OFF * float(np.abs(value).sum())
        if not (math.isfinite(total) and math.isfinite(err_total + floor)):  # non-finite panels too
            raise QuadratureError("non-finite sum", value=total, error_estimate=err_total + floor)
        target = max(abs_tol, rel_tol * abs(total))
        if err_total <= max(target, floor):
            return total, err_total + floor
        if bisections_left <= 0:
            raise QuadratureError(
                "interval budget exhausted", value=total, error_estimate=err_total + floor
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

# Hard cap on relocation-mixture components; beyond this the config implies
# astronomically many relocations and analytic evaluation is impractical.
MIXTURE_DEPTH_CAP = 200_000


def _mixture_depth(dist: LatencyDistribution, tol: float) -> int:
    """n_max, the smallest n with (1 - p)^(n + 1) <= 1e-4 tol, in closed form; 0 for a law
    that never relocates. ConfigError past MIXTURE_DEPTH_CAP components."""
    p = dist.success_prob
    if dist.variant is not LatencyModel.TOTAL or p >= 1.0:
        return 0
    tail_mass = 1e-4 * tol
    components = math.log(tail_mass) / math.log1p(-p)  # n + 1 before rounding up
    if components > MIXTURE_DEPTH_CAP + 1:  # checked in float: a subnormal p gives inf
        raise ConfigError(
            [
                f"relocation mixture needs more than {MIXTURE_DEPTH_CAP} components for tail "
                f"mass {tail_mass:g}; the location success probability {p:.3g} is "
                "impractically small (lower snr_threshold_db or raise tx_power_w)"
            ]
        )
    return math.ceil(components) - 1


# Element budget of the (point x relocation count) blocks that the survival
# sums work on, so their memory does not grow with the mixture depth.
_BLOCK = 1 << 13


def _antiderivative(coef, scl: float):
    """chebint(coef, lbnd=-1, scl=scl, axis=1) by its float operations in its order: the
    recurrence for each row's antiderivative, then Clenshaw at y = -1 for its constant."""
    c = coef.T * scl
    out = np.zeros((len(c) + 1, c.shape[1]))
    out[1], out[2] = c[0], c[1] / 4
    for j in range(2, len(c)):
        out[j + 1], out[j - 1] = c[j] / (2 * (j + 1)), out[j - 1] - c[j] / (2 * (j - 1))
    b0, b1 = reduce(lambda b, row: (row - b[1], b[0] - 2.0 * b[1]), out[-3::-1], out[-2:])
    out[0] = 0.0 - (b0 - b1)
    return out.T


class _DecayedFit:
    """G(x) = integral_a^x exp(-rate (x - u)) f(u) du on [a, b], piecewise Chebyshev.

    n panels of one width, n a power of two. Panel [lo, hi] interpolates
    f(u) exp(-rate (hi - u)), which never overflows; the tilt is taken in the
    panel's own coordinate y, so the rounding of u does not reach it. n starts at
    the least power of two with rate (b - a) / n <= 1, so undoing the tilt costs
    at most a factor e, and doubles until every panel's trailing coefficients are
    below COEF_TOL relative to the global magnitude; one call of f fits a level.
    A panel stores exp(-rate (hi - x)) G(x), its running integral plus
    exp(-rate (hi - lo)) G(lo); at hi that is G(hi), which starts the next.
    Calling the object evaluates G on [a, b] in one Clenshaw pass over every
    point, each reading the coefficients of panel floor((x - a) / width).
    """

    DEGREE = 32
    COEF_TOL = 1e-14
    MAX_PANELS = 1 << 14
    _NODES = np.sin(0.5 * np.pi / (DEGREE + 1) * np.arange(-DEGREE, DEGREE + 2, 2))  # chebpts1
    _FIT = np.array(reduce(  # T_k at the nodes by chebvander's recurrence
        lambda t, _: [*t, t[-1] * (2 * t[1]) - t[-2]], range(DEGREE - 1), [_NODES * 0 + 1, _NODES]
    )).T * (2.0 / (DEGREE + 1))  # node values -> coefs
    _FIT[:, 0] *= 0.5  # at the nodes T_0^2 sums to DEGREE + 1, any other T_k^2 to half that

    def __init__(self, f, rate, a, b):
        scale = max(float(np.max(np.abs(f(np.linspace(a, b, 257))))), 1e-300)
        n, y = 1, self._NODES
        while True:
            if n > self.MAX_PANELS:
                raise QuadratureError("piecewise fit exceeded the panel budget")
            width = (b - a) / n
            if rate * width <= 1.0:  # no panel may span more than 1 / rate
                u = a + width * np.arange(n)[:, None] + 0.5 * width * (1.0 + y)
                coef = (f(u) * np.exp(-0.5 * rate * width * (1.0 - y))) @ self._FIT
                mags = np.abs(coef)
                scale = max(scale, float(mags.max()))
                if float(mags[:, -4:].max()) <= self.COEF_TOL * scale:
                    break
            n *= 2
        prim = _antiderivative(coef, 0.5 * width)
        decay = math.exp(-rate * width)
        # G at every edge from the one before; every T_k is 1 at y = 1
        g = list(accumulate(prim.sum(axis=1).tolist(), lambda g0, s: decay * g0 + s, initial=0.0))
        prim[:, 0] += decay * np.array(g[:-1])
        self.rate, self.total, self.a, self.width = float(rate), g[-1], a, width
        self._coef = np.ascontiguousarray(prim.T)  # row k: every panel's T_k coefficient

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        k = np.clip(np.floor((flat - self.a) / self.width), 0.0, self._coef.shape[1] - 1.0)
        y = 2.0 * (flat - (self.a + self.width * k)) / self.width - 1.0  # from lo as fitted
        idx = k.astype(np.intp)
        y2 = 2.0 * y
        b1, b2 = self._coef[-1][idx], np.zeros_like(y)
        for row in self._coef[-2:0:-1]:
            b1, b2 = row[idx] + y2 * b1 - b2, b1
        out = np.exp(0.5 * self.rate * self.width * (1.0 - y)) * (self._coef[0][idx] + y * b1 - b2)
        return out.reshape(x.shape) if x.shape else float(out[0])


class _SurvivalEvaluator:
    """Evaluates q(t*) for a relocation-mixture latency distribution.

    One relocation count n contributes p (1-p)^n g(t* - n move_time), with
      g(x) = 1                                    x <= onset,
      g(x) = G(x) + ccdf_up(x)                    onset < x < max_up,
      g(x) = carry exp(-rate (x - max_up))        x >= max_up, carry = G(max_up).
    Below the onset the uplink law has no mass in double precision
    (P(T_up <= onset) = exp(-746) rounds to 0), so those components survive
    surely, as do those that have not arrived (x <= 0). q is computed one
    way for every caller: ``_walk`` runs the exact recurrence
    q(t + move_time) = p g(t + move_time) + (1-p) q(t) up from a lag at or
    below the onset, where q = 1, and ``_beyond`` continues it in closed form
    past the uplink window. q itself carries no mixture truncation error.
    """

    def __init__(self, dist: LatencyDistribution, rate: float):
        self.dist = dist
        self.rate = rate = float(rate)
        hi = dist.max_uplink
        top_snr = dist.snr_threshold + 746.0 / dist.snr_rate
        self._onset = onset = float(uplink_latency(top_snr, dist.ack_bits, dist.bandwidth_hz))
        self.relocates = dist.variant is LatencyModel.TOTAL and dist.success_prob < 1.0
        if self.relocates:
            p = dist.success_prob
            self._log_stay = math.log1p(-p)
            # beyond this count p (1-p)^n underflows to an exact 0
            self._n_zero = math.ceil(750.0 / -self._log_stay)
            self._window = min(math.ceil((hi - self._onset) / dist.move_time) + 1, self._n_zero)

        self._decayed = _DecayedFit(dist.uplink_pdf, rate, onset, hi)
        self.carry = self._decayed.total

        # independent cross-check of G at three probes; its error is absolute on G
        error, start, running = float(dist.uplink_cdf(onset)), onset, 0.0
        for probe in (onset + 0.5 * (hi - onset), onset + 0.9 * (hi - onset), hi):
            piece, piece_err = integrate_adaptive(
                lambda u: np.exp(-rate * (probe - u)) * dist.uplink_pdf(u),
                start, probe, rel_tol=1e-12, abs_tol=1e-15, max_intervals=2048
            )
            running = math.exp(-rate * (probe - start)) * running + piece
            error += abs(float(self._decayed(probe)) - running) + piece_err
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
            out[mid] = np.maximum(self._decayed(xm), 0.0) + self.dist.uplink_ccdf(xm)
        if np.any(beyond):
            out[beyond] = self.carry * np.exp(-self.rate * (x[beyond] - hi))
        return out

    def _walk(self, u, last: int):
        """Yield (k, q(u + k move_time)) for k = 0..last, by the recurrence from
        lags at or below the onset, where q = 1; counts that far back weigh
        (1-p)^n_zero = 0 when the walk is cut there."""
        p, tm = self.dist.success_prob, self.dist.move_time
        stay = 1.0 - p
        first = -min(max(1, math.ceil((float(np.max(u)) - self._onset) / tm)), self._n_zero)
        ks = np.arange(first + 1, last + 1)
        g = self._q_component(ks[:, None] * tm + u)
        q = np.ones(u.shape)
        for k, g_k in zip(ks, g):
            q = stay * q + p * g_k
            if k >= 0:
                yield k, q

    def _beyond(self, q_last, x_last, j):
        """q(x_last + j move_time) from q_last = q(x_last), where x_last + move_time >= max_up.

        There g is carry exp(-rate (x - max_up)), so with rho = exp(-rate move_time)
        q = (1-p)^j q_last + p carry sum_{i=1}^{j} (1-p)^(j-i) rho^i exp(-rate (x_last - max_up)),
        summed from its largest term (i = j if rho >= 1-p, else i = 1) by expm1,
        so a ratio near 1 keeps its precision.
        """
        log_stay, log_rho = self._log_stay, -self.rate * self.dist.move_time
        decay = self.rate * (x_last - self.dist.max_uplink)
        top = np.exp(log_rho + (j - 1.0) * max(log_rho, log_stay) - decay)
        step = -abs(log_rho - log_stay)  # the log ratio of each next smaller term
        mixed = top * (j if step == 0.0 else np.expm1(j * step) / math.expm1(step))
        return np.exp(j * log_stay) * q_last + self.dist.success_prob * self.carry * mixed

    def survival(self, t_star):
        """q(t*), scalar in, scalar out; array in, array out."""
        t = np.atleast_1d(np.asarray(t_star, dtype=float)).ravel()
        if not self.relocates:
            out = self._q_component(t)
        else:
            # t* = u + k move_time with u <= max_up: q(u) by the walk, then k steps beyond
            tm = self.dist.move_time
            k = np.maximum(np.ceil((t - self.dist.max_uplink) / tm), 0.0)
            u = t - k * tm
            out = np.empty(t.shape)
            rows = max(1, _BLOCK // self._window)
            for start in range(0, len(t), rows):
                s = slice(start, start + rows)
                out[s] = self._beyond(next(self._walk(u[s], 0))[1], u[s], k[s])
        out = np.minimum(out, 1.0).reshape(np.shape(t_star))
        return out if np.ndim(t_star) else float(out)

    def phase_sum(self, phi, power: int, terms: int):
        """sum_k f_up(phi + k move_time) S_k(phi) for phases phi in (0, min(move_time, max_up)]
        (see the module docstring). One walk gives A_j from the onset (below it
        q = 1 and f_up = 0) up to the last lag with uplink density, j = last, and
        ``_beyond_sum`` gives S_(last+1) from at most ``terms`` mixture components.
        The sum over k is taken in the walk's order, as sum_j p A_j D_j +
        (1-p) D_last S_(last+1) with D_j = (1-p) D_(j-1) + f_up(phi + j move_time).
        Returns (sums, skipped); ``skipped`` bounds the terms left out."""
        d = self.dist
        if not self.relocates:  # the phase is the uplink latency itself
            return d.uplink_pdf(phi) * self._q_component(phi) ** power, 0.0
        p, tm, hi, stay = d.success_prob, d.move_time, d.max_uplink, 1.0 - d.success_prob
        # lags at or below the onset carry no density and have q = 1: start past them
        first = max(0, math.floor((self._onset - float(np.max(phi))) / tm))
        last = math.floor((hi - float(np.min(phi))) / tm) - first
        out, skipped = np.empty(phi.shape), 0.0
        rows = max(1, _BLOCK // (last + 2))  # the walk's (lag x phase) block
        for start in range(0, len(phi), rows):
            ph = phi[start : start + rows] + first * tm
            dens = d.uplink_pdf(ph + tm * np.arange(last + 1)[:, None])
            total, mixed = np.zeros(ph.shape), np.zeros(ph.shape)
            for k, q in self._walk(ph, last):
                mixed = stay * mixed + dens[k]
                total += p * mixed * q**power
            tail, cut = self._beyond_sum(q, ph + last * tm, power, terms)
            out[start : start + rows] = total + stay * mixed * tail
            skipped = max(skipped, cut)
        return out, skipped

    def _beyond_sum(self, q_last, x_last, power, terms):
        """sum_{i>=0} p (1-p)^i q(x_last + (i+1) move_time)^power, i < terms, in blocks of i
        until the terms left are below the tail weight. Returns (sums, skipped): q does not rise
        with the lag, so after J terms (1-p)^J q(x_last + J move_time)^power bounds all the rest."""
        p = self.dist.success_prob
        total = np.zeros(q_last.shape)
        cols = max(16, _BLOCK // len(q_last))
        for j0 in range(1, terms + 1, cols):  # j = i + 1 steps past x_last
            j = np.arange(j0, min(j0 + cols, terms + 1), dtype=float)
            qj = self._beyond(q_last[:, None], x_last[:, None], j) ** power
            total += qj @ (p * np.exp((j - 1.0) * self._log_stay))
            rest = float(np.max(qj[:, -1])) * math.exp(j[-1] * self._log_stay)
            if rest <= (1.0 - p) ** terms:  # the tail weight
                break
        return total, rest


_evaluator = lru_cache(maxsize=32)(_SurvivalEvaluator)  # (dist, rate) -> evaluator


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
    unless given) or a :class:`DiscreteLatency` (compute rate required). A
    given compute rate must be finite and positive, else ValueError.
    """
    if compute_rate is not None and not (math.isfinite(compute_rate) and compute_rate > 0.0):
        raise ValueError(f"compute_rate must be finite and positive (got {compute_rate!r})")
    if isinstance(dist, DiscreteLatency):
        if compute_rate is None:
            raise ValueError("compute_rate is required with a DiscreteLatency")
        return _discrete_survival(t_star, dist, compute_rate)
    rate = dist.compute_rate if compute_rate is None else compute_rate
    return _evaluator(dist, float(rate)).survival(t_star)


# --- no-forking probability ----------------------------------------------


def no_forking_probability(config: SystemConfig, *, dist=None) -> tuple[float, float]:
    """Probability that a single PoW round commits without forking.

    Returns (value, absolute error estimate). The estimate satisfies
    ``error <= quadrature_tol * value``; if it does not,
    :class:`QuadratureError` is raised with the achieved numbers. A ``dist``
    override substitutes the transmission-latency law (e.g. a
    :class:`DiscreteLatency`, evaluated in closed form); the compute rate is
    always ``config``'s.
    """
    num = config.num_miners
    if num == 1:
        return 1.0, 0.0
    dist = LatencyDistribution.from_config(config) if dist is None else dist
    rate = config.derived.compute_rate

    if isinstance(dist, DiscreteLatency):
        atoms = np.asarray(dist.atoms)
        weights = np.asarray(dist.weights)
        q = _discrete_survival(atoms, dist, rate)
        return float(weights @ q ** (num - 1)), 0.0

    tol = config.quadrature_tol
    terms = _mixture_depth(dist, tol) + 1  # refuses a config past the cap before any build
    ev = _evaluator(dist, rate)
    hi, n, skipped = dist.max_uplink, num - 1, 0.0

    def integrand(phi):
        nonlocal skipped
        sums, cut = ev.phase_sum(phi, n, terms)
        skipped = max(skipped, cut)
        return sums

    span, points = hi, ()
    if ev.relocates:  # over the phase phi = u mod move_time; a lag crosses max_up at phi*
        tm = dist.move_time
        span, points = min(tm, hi), [hi - math.floor(hi / tm) * tm]
    value, quad_err = integrate_adaptive(integrand, 0.0, span, rel_tol=0.1 * tol, points=points)
    rest, delta = quad_err + skipped, ev.error  # the terms of the module docstring
    spread = n * delta * (math.exp(n * delta) if n * delta < 700.0 else math.inf)
    err = rest + n * delta * (value + rest + spread) ** ((n - 1) / n)
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
    return 1.0 / (config.derived.compute_rate * config.num_miners)


def expected_mobility_latency(config: SystemConfig) -> float:
    """Mean relocation latency move_time * (exp(snr_rate * threshold) - 1).

    Reports infinity explicitly once the exponent passes 700 (the relocation
    count is astronomically large for such thresholds).
    """
    d = config.derived
    exponent = d.snr_rate * config.channel.snr_threshold
    if exponent > 700.0:
        return math.inf
    return d.move_time_s * math.expm1(exponent)


def expected_uplink_latency(config: SystemConfig, *, dist=None) -> tuple[float, float]:
    """Mean uplink latency, integrating the CCDF of ``dist`` (``config``'s law) over its support.

    Returns (value, absolute error estimate); value lies in (0, max_uplink).
    """
    dist = LatencyDistribution.from_config(config) if dist is None else dist
    return integrate_adaptive(dist.uplink_ccdf, 0.0, dist.max_uplink, rel_tol=config.quadrature_tol)


def evaluate(config: SystemConfig) -> AnalyticResult:
    """All analytic outputs for one configuration.

    The per-round winner energy is compute_power * E[min compute] +
    tx_power * E[uplink] + mobility_power * E[relocation]; rounds per block
    are geometric with mean 1/p_no_fork, so the block energy is their ratio.
    Raises :class:`QuadratureError` when p_no_fork is below 1e-9 (the block
    energy would be unreliable).
    """
    dist = LatencyDistribution.from_config(config)  # the one build, for p_n and E[T_up]
    p_nofork, p_err = no_forking_probability(config, dist=dist)
    if p_nofork < 1e-9:
        raise QuadratureError(
            "no-forking probability below 1e-9; block energy unreliable",
            value=p_nofork,
            error_estimate=p_err,
        )
    exp_min = expected_min_compute_latency(config)
    exp_up, exp_up_err = expected_uplink_latency(config, dist=dist)
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
        exp_uplink_error=exp_up_err,
    )
