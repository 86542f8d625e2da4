"""Samplers and distribution machinery for the latency pipeline.

Per PoW round and miner the latency pieces are:

  compute time   S     ~ exponential(compute_rate)
  relocations    N     ~ geometric on {0, 1, ...}: failed locations before
                         one clears the SNR threshold (each succeeds with
                         probability success_prob)
  uplink SNR     G     ~ snr_threshold + exponential(snr_rate): fading SNR
                         at the first location that cleared the threshold
  uplink latency T_up  = ack_bits / (bandwidth * log2(1 + G)), supported
                         on (0, max_uplink]
  transmission   T     = move_time * N + T_up, or T_up alone under the
                         wireless-only variant

All samplers take an explicit numpy Generator and are pure functions of its
state, so a seed fully determines every sequence. Evaluators (pdf/cdf) are
pure and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, LatencyModel, SystemConfig, derive

__all__ = [
    "substream",
    "derive_seed",
    "exponential_inverse",
    "sample_compute_latency",
    "sample_num_movements",
    "sample_snr_conditional",
    "uplink_latency",
    "LatencyDistribution",
    "DiscreteLatency",
    "MIXTURE_DEPTH_CAP",
]

_LN2 = math.log(2.0)

# Hard cap on relocation-mixture components; beyond this the config implies
# astronomically many relocations and analytic evaluation is impractical.
MIXTURE_DEPTH_CAP = 200_000


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator fully determined by (seed, *path).

    Uses numpy's SeedSequence hash expansion, so streams for different paths
    are statistically independent and identical across platforms and worker
    layouts.
    """
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *path: int) -> int:
    """64-bit seed derived from (seed, *path); same expansion as substream."""
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _uniform_open_closed(rng: np.random.Generator, size=None):
    # rng.random() is [0, 1); flip to (0, 1] so -log never overflows
    return 1.0 - rng.random(size)


def exponential_inverse(u, rate: float):
    """Inverse-CDF map for the exponential law: u in (0, 1] -> -ln(u)/rate."""
    return -np.log(u) / rate


def sample_compute_latency(rng: np.random.Generator, compute_rate: float, size=None):
    """Exponential PoW completion time with the given rate, via inverse transform."""
    if compute_rate <= 0.0:
        raise ValueError("compute_rate must be positive")
    return exponential_inverse(_uniform_open_closed(rng, size), compute_rate)


def sample_num_movements(rng: np.random.Generator, success_prob: float, size=None):
    """Failed locations before the first success; support {0, 1, 2, ...}."""
    if not 0.0 < success_prob <= 1.0:
        raise ValueError("success_prob must be in (0, 1]")
    return rng.geometric(success_prob, size) - 1


def sample_snr_conditional(
    rng: np.random.Generator, snr_rate: float, snr_threshold: float, size=None
):
    """SNR at the first location that beat the threshold (shifted exponential).

    Inverse-CDF draw: threshold - ln(u) / rate, with u uniform on (0, 1].
    """
    if snr_rate <= 0.0:
        raise ValueError("snr_rate must be positive")
    if snr_threshold < 0.0:
        raise ValueError("snr_threshold must be non-negative")
    return snr_threshold - np.log(_uniform_open_closed(rng, size)) / snr_rate


def uplink_latency(snr, ack_bits: float, bandwidth_hz: float):
    """Time to push the ACK through the link: ack_bits / (B log2(1 + snr))."""
    return ack_bits / (bandwidth_hz * np.log2(1.0 + np.asarray(snr, dtype=float)))


def _truncation_depth(success_prob: float, tail_mass: float) -> int:
    """Smallest n with (1 - p)^(n + 1) <= tail_mass."""
    if success_prob >= 1.0:
        return 0
    n = max(0, math.ceil(math.log(tail_mass) / math.log1p(-success_prob)) - 1)
    while (1.0 - success_prob) ** (n + 1) > tail_mass:
        n += 1
    if n > MIXTURE_DEPTH_CAP:
        raise ConfigError(
            [
                f"relocation mixture needs {n} components for tail mass {tail_mass:g}; "
                "the location success probability is impractically small "
                "(lower snr_threshold_db or raise tx_power_w)"
            ]
        )
    return n


@dataclass(frozen=True)
class LatencyDistribution:
    """Transmission latency T of one miner: a geometric mixture over the
    relocation count of the shifted uplink-latency law.

    Built via :meth:`from_config` or :meth:`from_params`; the derived fields
    (max_uplink, success_prob, n_max) are kept consistent there. Instances
    are immutable and hashable so analytic evaluators can cache against them.
    """

    snr_rate: float
    snr_threshold: float
    ack_bits: float
    bandwidth_hz: float
    move_time: float
    compute_rate: float
    variant: LatencyModel
    max_uplink: float
    success_prob: float
    n_max: int
    truncation: float

    @classmethod
    def from_config(cls, config: SystemConfig) -> "LatencyDistribution":
        d = derive(config.channel, config.miner)
        return cls.from_params(
            snr_rate=d.snr_rate,
            snr_threshold=config.channel.snr_threshold,
            ack_bits=config.miner.ack_bits,
            bandwidth_hz=config.channel.bandwidth_hz,
            move_time=d.move_time_s,
            compute_rate=d.compute_rate,
            variant=config.latency_model,
            truncation=config.mixture_truncation,
        )

    @classmethod
    def from_params(
        cls,
        *,
        snr_rate: float,
        snr_threshold: float,
        ack_bits: float,
        bandwidth_hz: float,
        move_time: float,
        compute_rate: float,
        variant: LatencyModel = LatencyModel.TOTAL,
        truncation: float = 1e-12,
        success_prob: float | None = None,
    ) -> "LatencyDistribution":
        """Build with consistent derived fields.

        ``success_prob`` normally follows from (snr_rate, snr_threshold);
        passing 1.0 disables relocations while keeping the uplink law, which
        is handy for analysis (the variants then coincide).
        """
        max_uplink = ack_bits / (bandwidth_hz * math.log2(1.0 + snr_threshold))
        if not math.isfinite(max_uplink) or max_uplink <= 0.0:
            raise ValueError("max uplink latency must be finite and positive")
        if success_prob is None:
            success_prob = math.exp(-snr_rate * snr_threshold)
        if success_prob <= 0.0:
            raise ConfigError(
                [
                    "location success probability underflowed to zero; no location "
                    "ever clears the SNR threshold (lower snr_threshold_db or raise tx_power_w)"
                ]
            )
        n_max = 0
        if variant is LatencyModel.TOTAL:
            n_max = _truncation_depth(success_prob, truncation)
        return cls(
            snr_rate=snr_rate,
            snr_threshold=snr_threshold,
            ack_bits=ack_bits,
            bandwidth_hz=bandwidth_hz,
            move_time=move_time,
            compute_rate=compute_rate,
            variant=variant,
            max_uplink=max_uplink,
            success_prob=success_prob,
            n_max=n_max,
            truncation=truncation,
        )

    # -- uplink marginal ------------------------------------------------

    def _excess_snr_arg(self, t):
        """snr_rate * (2^(K/(B t)) - 1 - threshold), computed stably.

        Rewritten as rate * (1 + threshold) * expm1(ln2*K/B * (1/t - 1/t_max))
        which is exact near t_max and overflows cleanly to +inf as t -> 0.
        """
        scale = _LN2 * self.ack_bits / self.bandwidth_hz
        with np.errstate(over="ignore"):
            w = scale * (1.0 / t - 1.0 / self.max_uplink)
            return self.snr_rate * (1.0 + self.snr_threshold) * np.expm1(w)

    def uplink_cdf(self, z):
        """P(T_up <= z); 0 at or below 0, 1 at and beyond max_uplink."""
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        out[z >= self.max_uplink] = 1.0
        inside = (z > 0.0) & (z < self.max_uplink)
        if np.any(inside):
            with np.errstate(over="ignore"):
                out[inside] = np.exp(-self._excess_snr_arg(z[inside]))
        return out if out.shape else float(out)

    def uplink_ccdf(self, z):
        """P(T_up > z); 1 at or below 0, 0 at and beyond max_uplink."""
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        out[z <= 0.0] = 1.0
        inside = (z > 0.0) & (z < self.max_uplink)
        if np.any(inside):
            with np.errstate(over="ignore"):
                out[inside] = -np.expm1(-self._excess_snr_arg(z[inside]))
        return out if out.shape else float(out)

    def uplink_pdf(self, t):
        """Density of T_up on (0, max_uplink]; 0 elsewhere.

        Evaluated in log space: the factor exp(-rate * 2^(K/(B t))) decays
        faster than the remaining factors grow, so the density underflows
        to an exact 0 near t = 0 instead of producing inf * 0.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        inside = (t > 0.0) & (t <= self.max_uplink)
        if np.any(inside):
            ti = t[inside]
            bits_exponent = _LN2 * self.ack_bits / (self.bandwidth_hz * ti)
            with np.errstate(over="ignore", invalid="ignore"):
                log_pdf = (
                    math.log(self.snr_rate)
                    - self._excess_snr_arg(ti)
                    + np.log(_LN2 * self.ack_bits / (self.bandwidth_hz * ti * ti))
                    + bits_exponent
                )
                vals = np.exp(log_pdf)
            out[inside] = np.where(np.isnan(vals), 0.0, vals)
        return out if out.shape else float(out)

    # -- relocation mixture ----------------------------------------------

    def mixture_weights(self) -> np.ndarray:
        """Truncated geometric weights of the relocation count (sums to >= 1 - truncation)."""
        if self.variant is LatencyModel.WIRELESS_ONLY or self.success_prob >= 1.0:
            return np.array([1.0])
        n = np.arange(self.n_max + 1)
        return self.success_prob * (1.0 - self.success_prob) ** n

    def total_cdf(self, t):
        """P(T <= t) with absolute error at most the configured truncation."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.variant is LatencyModel.WIRELESS_ONLY or self.success_prob >= 1.0:
            out = np.asarray(self.uplink_cdf(t))
        else:
            weights = self.mixture_weights()
            out = np.zeros(t.shape)
            for start in range(0, self.n_max + 1, 4096):
                ns = np.arange(start, min(start + 4096, self.n_max + 1))
                shifted = t[None, :] - ns[:, None] * self.move_time
                out += weights[ns] @ self.uplink_cdf(shifted)
        return out if out.shape != (1,) or np.ndim(t) else float(out[0])

    # -- sampling ---------------------------------------------------------

    def sample_uplink(self, rng: np.random.Generator, size=None):
        snr = sample_snr_conditional(rng, self.snr_rate, self.snr_threshold, size)
        return uplink_latency(snr, self.ack_bits, self.bandwidth_hz)

    def sample_components(self, rng: np.random.Generator, size=None):
        """Draw (relocation count, uplink latency); fixed draw order n, then SNR."""
        n = sample_num_movements(rng, self.success_prob, size)
        t_up = self.sample_uplink(rng, size)
        return n, t_up

    def total_from_components(self, n, t_up):
        if self.variant is LatencyModel.WIRELESS_ONLY:
            return np.asarray(t_up, dtype=float)
        return np.asarray(t_up, dtype=float) + np.asarray(n) * self.move_time

    def sample_total(self, rng: np.random.Generator, size=None):
        n, t_up = self.sample_components(rng, size)
        return self.total_from_components(n, t_up)


@dataclass(frozen=True)
class DiscreteLatency:
    """Transmission latency pinned to a finite set of atoms.

    Test and analysis hook: lets the race be judged under deterministic or
    few-valued delays. The relocation count is identically zero and the whole
    delay is booked as uplink time for energy purposes.
    """

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) == 0 or len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must be non-empty and the same length")
        if any(a < 0.0 for a in self.atoms):
            raise ValueError("atoms must be non-negative")
        if any(w < 0.0 for w in self.weights) or abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")

    @classmethod
    def constant(cls, value: float) -> "DiscreteLatency":
        return cls((float(value),), (1.0,))

    def sample_components(self, rng: np.random.Generator, size=None):
        t = rng.choice(np.asarray(self.atoms), p=np.asarray(self.weights), size=size)
        return np.zeros_like(np.asarray(t), dtype=np.int64), t

    def total_from_components(self, n, t_up):
        return np.asarray(t_up, dtype=float)

    def sample_total(self, rng: np.random.Generator, size=None):
        _, t = self.sample_components(rng, size)
        return self.total_from_components(None, t)

    def total_cdf(self, t):
        t = np.asarray(t, dtype=float)
        atoms = np.asarray(self.atoms)
        weights = np.asarray(self.weights)
        out = (atoms[:, None] <= np.atleast_1d(t)[None, :]).T @ weights
        return out.reshape(t.shape) if t.shape else float(out[0])
