"""Latency laws of the PoW race: their draws and distribution functions.

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

A law's ``draw`` takes an explicit numpy Generator and is a pure function of
its state, so a seed fully determines every sequence. Evaluators (pdf/cdf)
are pure and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, LatencyModel, SystemConfig

__all__ = [
    "substream",
    "derive_seed",
    "uplink_latency",
    "LatencyDistribution",
    "DiscreteLatency",
]

_LN2 = math.log(2.0)


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


def uplink_latency(snr, ack_bits: float, bandwidth_hz: float, out=None):
    """ACK time ack_bits / (B log2(1 + snr)), as (ack_bits ln2 / B) / log1p(snr).

    ``out`` is passed to numpy, so ``out=snr`` works in place."""
    log = np.log1p(np.asarray(snr, dtype=float), out=out)
    return np.divide(ack_bits * _LN2 / bandwidth_hz, log, out=out)


@dataclass(frozen=True)
class LatencyDistribution:
    """Transmission latency T of one miner: a geometric mixture over the
    relocation count of the shifted uplink-latency law.

    Built via :meth:`from_config` from the config's ``derived`` scalars.
    Instances are immutable and hashable so analytic evaluators can cache
    against them.
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

    @classmethod
    def from_config(cls, config: SystemConfig) -> "LatencyDistribution":
        d = config.derived
        if d.success_prob <= 0.0:
            raise ConfigError(
                [
                    "location success probability underflowed to zero; no location "
                    "ever clears the SNR threshold (lower snr_threshold_db or raise tx_power_w)"
                ]
            )
        if not math.isfinite((1.0 - d.success_prob) / d.success_prob):  # a subnormal p
            raise ConfigError(
                [
                    f"mean relocation count (1 - p) / p overflows at location success "
                    f"probability {d.success_prob:.3g} (lower snr_threshold_db or raise tx_power_w)"
                ]
            )
        return cls(
            snr_rate=d.snr_rate,
            snr_threshold=config.channel.snr_threshold,
            ack_bits=config.miner.ack_bits,
            bandwidth_hz=config.channel.bandwidth_hz,
            move_time=d.move_time_s,
            compute_rate=d.compute_rate,
            variant=config.latency_model,
            max_uplink=d.max_uplink_s,
            success_prob=d.success_prob,
        )

    # -- uplink marginal ------------------------------------------------

    def _excess(self, t):
        """(t clipped to [0, max_uplink], x there): the excess of the SNR that sends in time t
        over the threshold, in units of its mean, x = snr_rate (2^(K/(B t)) - 1 - threshold).

        As 1 + threshold = 2^(K/(B max_uplink)), x = snr_rate (1 + threshold)
        expm1(ln2 K/B (max_uplink - t) / (t max_uplink)): max_uplink - t is exact
        near the edge, where 1/t - 1/max_uplink would cancel. x is 0 at and beyond
        max_uplink, overflows cleanly to +inf as t -> 0, and is +inf at and below 0.
        """
        t, top = np.clip(np.asarray(t, dtype=float), 0.0, self.max_uplink), self.max_uplink
        with np.errstate(divide="ignore", over="ignore"):
            w = _LN2 * self.ack_bits / self.bandwidth_hz * (top - t) / (t * top)
            return t, self.snr_rate * (1.0 + self.snr_threshold) * np.expm1(w)

    def uplink_cdf(self, z):
        """P(T_up <= z) = e^(-x); 0 at or below 0, 1 at and beyond max_uplink."""
        return np.exp(-self._excess(z)[1])

    def uplink_ccdf(self, z):
        """P(T_up > z) = -expm1(-x); 1 at or below 0, 0 at and beyond max_uplink."""
        return -np.expm1(-self._excess(z)[1])

    def uplink_pdf(self, t):
        """Density of T_up, (x + snr_rate (1 + threshold)) ln2 K / (B t^2) e^(-x), on
        (0, max_uplink]; 0 elsewhere and where e^(-x) underflows, as t -> 0."""
        clipped, x = self._excess(t)
        cdf = np.exp(-x)
        with np.errstate(divide="ignore", invalid="ignore"):  # inf * 0 at t <= 0, not taken
            dens = (x + self.snr_rate * (1.0 + self.snr_threshold)) * cdf
            dens *= _LN2 * self.ack_bits / self.bandwidth_hz / (clipped * clipped)
        return np.where((cdf > 0.0) & (np.asarray(t) <= self.max_uplink), dens, 0.0)[()]

    # -- sampling ---------------------------------------------------------

    def draw(self, rng: np.random.Generator, shape):
        """(relocation count, uplink latency, transmission latency) per entry.

        Draw order: a standard exponential E per entry for every relocation count,
        floor(E / -ln(1 - p)) as a float (0 when p = 1), then one for every SNR,
        threshold + E / rate. Exact: P(count >= k) = P(E >= -k ln(1 - p)) = (1 - p)^k."""
        p = self.success_prob
        per_move = -math.log1p(-p) if p < 1.0 else math.inf
        moves, snr = rng.standard_exponential((2, *np.atleast_1d(shape)))  # in place below
        moves /= per_move
        np.floor(moves, out=moves)
        snr /= self.snr_rate
        snr += self.snr_threshold
        uplink = uplink_latency(snr, self.ack_bits, self.bandwidth_hz, out=snr)
        if self.variant is LatencyModel.WIRELESS_ONLY:
            return moves, uplink, uplink
        transmission = moves * self.move_time
        transmission += uplink
        return moves, uplink, transmission


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
        if not all(0.0 <= a < math.inf for a in self.atoms):  # false on nan
            raise ValueError("atoms must be finite and non-negative")
        if not (all(w >= 0.0 for w in self.weights) and abs(sum(self.weights) - 1.0) <= 1e-9):
            raise ValueError("weights must be non-negative and sum to 1")

    @classmethod
    def constant(cls, value: float) -> "DiscreteLatency":
        return cls((float(value),), (1.0,))

    def draw(self, rng: np.random.Generator, shape):
        t = rng.choice(np.asarray(self.atoms), p=np.asarray(self.weights), size=shape)
        return np.zeros(t.shape, dtype=np.int64), t, t
