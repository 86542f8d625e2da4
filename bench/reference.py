"""Reference values computed apart from forkwork, from the model itself.

The link budget, the closed-form latency means, the uplink-latency moments
and a brute-force race sampler are written here from the model's
definitions (free-space path gain, Rayleigh fading, geometric relocation,
Shannon-rate ACK push), without calling into the package. The checks compare
the CLI's output against them.

The brute-force race is slow, so its results are cached in
``reference.json`` next to this file. Make the cache anew with

    python3 bench/reference.py

which samples every case of ``race_cases()`` again (about 80 s on 2 vCPUs).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CACHE = Path(__file__).with_name("reference.json")

LIGHT_MPS = 3.0e8

# the operating point of the paper's figures (forkwork's defaults)
CARRIER_HZ = 2.4e9
DISTANCE_M = 50.0
BANDWIDTH_HZ = 180e3
NOISE_DBM_HZ = -174.0
COMPUTE_W = 8.0
LAMBDA0 = 0.04
MOBILITY_W = 50.0
SPEED_MPS = 10.0
ACK_BITS = 1e6

# brute-force race: rounds per case, sampled in chunks to bound memory
RACE_ROUNDS = 8_000_000
RACE_CHUNK = 50_000
RACE_SEED = 20190617


def _excess_rule(panels: int = 100, order: int = 16):
    """Nodes and weights for integrals of g(x) exp(-x) over x >= 0.

    Composite Gauss-Legendre on panels graded geometrically from 1e-9 to 80,
    so a latency whose log varies fast near x = 0 (threshold far below the
    mean SNR) is still resolved; exp(-80) bounds the dropped tail.
    """
    edges = np.concatenate([[0.0], np.geomspace(1e-9, 80.0, panels)])
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    x = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes).ravel()
    return x, (half * weights).ravel() * np.exp(-x)


_EXCESS_RULE = _excess_rule()


def mean_snr(tx_w: float) -> float:
    """Mean received SNR of the free-space Rayleigh link at ``tx_w`` watts."""
    wavelength = LIGHT_MPS / CARRIER_HZ
    gain = (wavelength / (4.0 * math.pi * DISTANCE_M)) ** 2
    noise_w = 10.0 ** ((NOISE_DBM_HZ + 10.0 * math.log10(BANDWIDTH_HZ) - 30.0) / 10.0)
    return gain * tx_w / noise_w


def threshold_db(tx_ref_w: float, fraction: float) -> float:
    """SNR threshold in dB at ``fraction`` of the mean SNR of a ``tx_ref_w`` link."""
    return 10.0 * math.log10(fraction * mean_snr(tx_ref_w))


@dataclass(frozen=True)
class Link:
    """One miner configuration: fleet size, tx power and threshold as configured."""

    miners: int
    tx_w: float
    thr_db: float

    @property
    def threshold(self) -> float:
        return 10.0 ** (self.thr_db / 10.0)

    @property
    def success_prob(self) -> float:
        """Chance that one location's fading SNR clears the threshold."""
        return math.exp(-self.threshold / mean_snr(self.tx_w))

    @property
    def move_s(self) -> float:
        """Time to relocate by half a wavelength."""
        return LIGHT_MPS / CARRIER_HZ / 2.0 / SPEED_MPS

    @property
    def compute_rate(self) -> float:
        return LAMBDA0 * COMPUTE_W

    def e_s(self) -> float:
        """Mean compute time of the fastest of the fleet."""
        return 1.0 / (self.compute_rate * self.miners)

    def e_tm(self) -> float:
        """Mean relocation time: move time times the mean failed-location count."""
        p = self.success_prob
        return self.move_s * (1.0 - p) / p

    def sd_tm(self) -> float:
        p = self.success_prob
        return self.move_s * math.sqrt(1.0 - p) / p

    def uplink_moments(self) -> tuple[float, float]:
        """(mean, standard deviation) of the uplink latency.

        The SNR at the first good location is the threshold plus an
        exponential excess with the link's mean SNR; the latency is
        ack_bits / (B log2(1 + SNR)). Integrated over the excess in units of
        the mean SNR by ``_EXCESS_RULE``; against scipy's quad this agrees to
        1e-15 relative on every link of the workloads.
        """
        x, w = _EXCESS_RULE
        snr = self.threshold + x * mean_snr(self.tx_w)
        latency = ACK_BITS / (BANDWIDTH_HZ * np.log2(1.0 + snr))
        mean = float(w @ latency)
        second = float(w @ latency**2)
        return mean, math.sqrt(max(0.0, second - mean * mean))

    def e_tu(self) -> float:
        return self.uplink_moments()[0]

    def round_energy(self) -> float:
        """Mean energy of the rightful winner in one round (Wald's per-round term)."""
        return (
            COMPUTE_W * self.e_s() + MOBILITY_W * self.e_tm() + self.tx_w * self.e_tu()
        )

    def round_energy_sd(self) -> float:
        """Standard deviation of that energy: the winner's compute time, relocations
        and uplink latency are independent, and the compute time is exponential."""
        return math.sqrt(
            (COMPUTE_W * self.e_s()) ** 2
            + (MOBILITY_W * self.sd_tm()) ** 2
            + (self.tx_w * self.uplink_moments()[1]) ** 2
        )

    def key(self) -> str:
        return f"I={self.miners},tx={self.tx_w!r},thr_db={self.thr_db!r}"


def race_no_fork(link: Link, rounds: int, rng: np.random.Generator) -> int:
    """Rounds, of ``rounds`` sampled, in which the fastest computer's ACK lands first."""
    mean = mean_snr(link.tx_w)
    wins = 0
    for start in range(0, rounds, RACE_CHUNK):
        shape = (min(RACE_CHUNK, rounds - start), link.miners)
        compute = rng.exponential(1.0 / link.compute_rate, shape)
        moves = rng.geometric(link.success_prob, shape) - 1
        snr = link.threshold + rng.exponential(mean, shape)
        uplink = ACK_BITS / (BANDWIDTH_HZ * np.log2(1.0 + snr))
        arrival = compute + moves * link.move_s + uplink
        wins += int(np.count_nonzero(compute.argmin(axis=1) == arrival.argmin(axis=1)))
    return wins


def race_cases() -> list[Link]:
    """Every configuration whose p_n the checks compare with the race."""
    from workloads import FORKY_LINK, grid_links

    return grid_links() + [FORKY_LINK]


def make_cache() -> dict:
    cases = {}
    for index, link in enumerate(race_cases()):
        rng = np.random.default_rng([RACE_SEED, index])
        wins = race_no_fork(link, RACE_ROUNDS, rng)
        p = wins / RACE_ROUNDS
        cases[link.key()] = {
            "p_n": p,
            "se": math.sqrt(p * (1.0 - p) / RACE_ROUNDS),
            "rounds": RACE_ROUNDS,
        }
        print(f"{link.key()}: p_n = {p:.6f}", file=sys.stderr)
    return {"seed": RACE_SEED, "cases": cases}


def race_reference() -> dict[str, dict]:
    """Cached brute-force race results, keyed by ``Link.key()``."""
    return json.loads(CACHE.read_text())["cases"]


if __name__ == "__main__":
    CACHE.write_text(json.dumps(make_cache(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CACHE}", file=sys.stderr)
