"""Domain types, derived parameters, and configuration handling.

The system under study: a fleet of mobile miners races to finish a
proof-of-work computation and each reports completion to a fixed
communication node over a fading wireless uplink. Every downstream
quantity (fork probability, per-block energy) is driven by a handful of
scalars derived here from the physical configuration.

All values are SI internally (W, s, Hz) with linear SNR. dB and dBm
appear only at the config-file boundary.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

SPEED_OF_LIGHT = 3.0e8  # m/s

__all__ = [
    "SPEED_OF_LIGHT",
    "LatencyModel",
    "ConfigError",
    "ChannelParams",
    "MinerParams",
    "SystemConfig",
    "DerivedParams",
    "AnalyticResult",
    "CONFIG_KEYS",
    "derive",
    "validate",
    "ensure_valid",
    "mean_snr",
    "noise_power_w",
    "wavelength_m",
    "default_channel",
    "default_miner",
    "default_config",
    "parse_config_text",
    "load_config",
    "config_text",
    "config_digest",
]


class LatencyModel(str, Enum):
    """Which transmission latency takes part in the ACK arrival race.

    TOTAL counts relocation time plus uplink transmission; WIRELESS_ONLY
    counts uplink transmission alone. Relocations still happen (and cost
    energy) under WIRELESS_ONLY, they just do not delay the race.
    """

    TOTAL = "total"
    WIRELESS_ONLY = "wireless_only"


class ConfigError(ValueError):
    """Invalid configuration. ``errors`` holds one message per violation."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors) or "invalid configuration")


@dataclass(frozen=True)
class ChannelParams:
    """Wireless uplink between one miner and its communication node.

    ``snr_threshold`` is the minimum linear SNR needed to decode the ACK;
    a miner relocates by half a wavelength until a location exceeds it.
    """

    carrier_frequency_hz: float
    distance_m: float
    bandwidth_hz: float
    noise_psd_dbm_hz: float
    tx_power_w: float
    snr_threshold: float  # linear ratio, not dB


@dataclass(frozen=True)
class MinerParams:
    """Compute, mobility, and message parameters of one mobile miner."""

    compute_power_w: float = 8.0
    lambda0: float = 0.04  # PoW completion rate per watt of compute power, 1/(W s)
    mobility_power_w: float = 50.0
    speed_mps: float = 10.0
    ack_bits: float = 1e6


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of one experiment."""

    num_miners: int
    channel: ChannelParams
    miner: MinerParams
    latency_model: LatencyModel = LatencyModel.TOTAL
    rng_seed: int = 42
    mixture_truncation: float = 1e-12  # tail mass dropped from the relocation mixture
    quadrature_tol: float = 1e-8  # relative tolerance of analytic integrals


@dataclass(frozen=True)
class DerivedParams:
    """Scalars derived from a (channel, miner) pair; see :func:`derive`."""

    path_gain: float  # free-space power gain, in (0, 1)
    noise_power_w: float  # noise power over the full band
    snr_rate: float  # exponential rate of the fading SNR = 1 / mean SNR
    compute_rate: float  # PoW completion rate, 1/s
    move_time_s: float  # time to relocate by half a wavelength
    max_uplink_s: float  # uplink latency at threshold SNR (upper support of T_up)
    success_prob: float  # chance that a single location clears the SNR threshold


@dataclass(frozen=True)
class AnalyticResult:
    """Bundle of analytic outputs for one configuration.

    ``quadrature_error`` is the absolute error estimate of ``no_fork_prob``
    (the dominant quadrature; the uplink expectation is driven to the same
    relative tolerance).
    """

    no_fork_prob: float
    exp_min_compute: float  # mean compute time of the round winner, s
    exp_mobility: float  # mean relocation latency, s
    exp_uplink: float  # mean uplink transmission latency, s
    exp_round_energy: float  # mean winner energy of a single PoW round, J
    avg_block_energy: float  # mean winner energy to commit one block, J
    quadrature_error: float


def wavelength_m(carrier_frequency_hz: float) -> float:
    return SPEED_OF_LIGHT / carrier_frequency_hz


def noise_power_w(noise_psd_dbm_hz: float, bandwidth_hz: float) -> float:
    """Noise power in W over a band, for a flat PSD given in dBm/Hz."""
    return 10.0 ** ((noise_psd_dbm_hz + 10.0 * math.log10(bandwidth_hz) - 30.0) / 10.0)


def _path_gain(channel: ChannelParams) -> float:
    lam = wavelength_m(channel.carrier_frequency_hz)
    return (lam / (4.0 * math.pi * channel.distance_m)) ** 2


def mean_snr(channel: ChannelParams) -> float:
    """Average fading SNR at the receiver (linear). Independent of the threshold."""
    return (
        _path_gain(channel)
        * channel.tx_power_w
        / noise_power_w(channel.noise_psd_dbm_hz, channel.bandwidth_hz)
    )


def derive(channel: ChannelParams, miner: MinerParams) -> DerivedParams:
    """Compute all derived scalars. Pure; raises ValueError on non-finite results.

    Free-space path gain (wavelength / 4 pi d)^2; noise power from dBm/Hz PSD
    times bandwidth; SNR rate = noise power / (gain * tx power); compute rate
    lambda0 * compute power; relocation time (wavelength/2) / speed; max
    uplink latency ack_bits / (B log2(1 + threshold)).
    """
    lam = wavelength_m(channel.carrier_frequency_hz)
    gain = _path_gain(channel)
    noise = noise_power_w(channel.noise_psd_dbm_hz, channel.bandwidth_hz)
    snr_rate = noise / (gain * channel.tx_power_w)
    compute_rate = miner.lambda0 * miner.compute_power_w
    move_time = (lam / 2.0) / miner.speed_mps
    max_uplink = miner.ack_bits / (channel.bandwidth_hz * math.log2(1.0 + channel.snr_threshold))
    success_prob = math.exp(-snr_rate * channel.snr_threshold)

    values = {
        "path_gain": gain,
        "noise_power": noise,
        "snr_rate": snr_rate,
        "compute_rate": compute_rate,
        "move_time": move_time,
        "max_uplink": max_uplink,
    }
    for name, value in values.items():
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"derived {name} is not finite and positive (got {value!r})")
    if gain >= 1.0:
        raise ValueError("derived path_gain must be below 1 (distance is inside the near field)")
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError(f"derived success_prob out of [0, 1] (got {success_prob!r})")

    return DerivedParams(
        path_gain=gain,
        noise_power_w=noise,
        snr_rate=snr_rate,
        compute_rate=compute_rate,
        move_time_s=move_time,
        max_uplink_s=max_uplink,
        success_prob=success_prob,
    )


def validate(config: SystemConfig) -> list[str]:
    """Check every invariant; return one message per violation (empty = valid)."""
    errors: list[str] = []
    ch, mn = config.channel, config.miner

    if not isinstance(config.num_miners, int) or config.num_miners < 1:
        errors.append("num_miners must be >= 1")
    for name, value in (
        ("carrier_frequency_hz", ch.carrier_frequency_hz),
        ("distance_m", ch.distance_m),
        ("bandwidth_hz", ch.bandwidth_hz),
        ("tx_power_w", ch.tx_power_w),
        ("compute_power_w", mn.compute_power_w),
        ("lambda0", mn.lambda0),
        ("mobility_power_w", mn.mobility_power_w),
        ("speed_mps", mn.speed_mps),
        ("ack_bits", mn.ack_bits),
    ):
        if not (math.isfinite(value) and value > 0.0):
            errors.append(f"{name} must be positive")
    if not math.isfinite(ch.noise_psd_dbm_hz):
        errors.append("noise_psd_dbm_hz must be finite")
    if not (math.isfinite(ch.snr_threshold) and ch.snr_threshold > 0.0):
        errors.append("snr_threshold must be positive")
    if not isinstance(config.latency_model, LatencyModel):
        errors.append("latency_model must be 'total' or 'wireless_only'")
    if not isinstance(config.rng_seed, int) or not 0 <= config.rng_seed < 2**64:
        errors.append("rng_seed must be an integer in [0, 2^64)")
    if not 0.0 < config.mixture_truncation < 1.0:
        errors.append("mixture_truncation must be in (0, 1)")
    if not 0.0 < config.quadrature_tol < 1e-2:
        errors.append("quadrature_tol must be in (0, 1e-2)")

    if not errors:
        try:
            derive(ch, mn)
        except ValueError as exc:
            errors.append(str(exc))
    return errors


def ensure_valid(config: SystemConfig) -> None:
    """Raise :class:`ConfigError` listing every violated invariant."""
    errors = validate(config)
    if errors:
        raise ConfigError(errors)


# --- configuration files ----------------------------------------------------
#
# Flat "key = value" text, one pair per line, '#' comments. All keys are
# required and unknown keys are rejected. dB/dBm values are converted to
# linear/W on load.

CONFIG_KEYS = (
    "num_miners",
    "carrier_frequency_hz",
    "distance_m",
    "bandwidth_hz",
    "noise_psd_dbm_hz",
    "tx_power_w",
    "snr_threshold_db",
    "compute_power_w",
    "lambda0",
    "mobility_power_w",
    "speed_mps",
    "ack_bits",
    "latency_model",
    "rng_seed",
)

_INT_KEYS = frozenset({"num_miners", "rng_seed"})


def parse_flat_text(text: str, allowed_keys) -> dict[str, str]:
    """Parse flat key=value lines. Raises ConfigError for malformed/unknown/duplicate keys."""
    errors: list[str] = []
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in allowed_keys:
            errors.append(f"unknown key: {key}")
        elif key in seen:
            errors.append(f"duplicate key: {key}")
        else:
            seen[key] = value
    if errors:
        raise ConfigError(errors)
    return seen


def _parse_latency_model(value: str):
    normalized = value.strip().lower().replace("-", "_")
    if normalized in ("total",):
        return LatencyModel.TOTAL
    if normalized in ("wireless_only", "wirelessonly"):
        return LatencyModel.WIRELESS_ONLY
    return None


def parse_config_text(text: str) -> SystemConfig:
    """Parse and validate a config file body. Raises ConfigError on any problem."""
    seen = parse_flat_text(text, CONFIG_KEYS)
    errors = [f"missing key: {k}" for k in CONFIG_KEYS if k not in seen]
    if errors:
        raise ConfigError(errors)

    parsed: dict[str, object] = {}
    for key, value in seen.items():
        if key == "latency_model":
            model = _parse_latency_model(value)
            if model is None:
                errors.append("latency_model must be 'total' or 'wireless_only'")
            else:
                parsed[key] = model
        elif key in _INT_KEYS:
            try:
                parsed[key] = int(value)
            except ValueError:
                errors.append(f"{key} must be an integer, got {value!r}")
        else:
            try:
                parsed[key] = float(value)
            except ValueError:
                errors.append(f"{key} must be a number, got {value!r}")
    if errors:
        raise ConfigError(errors)

    config = SystemConfig(
        num_miners=parsed["num_miners"],
        channel=ChannelParams(
            carrier_frequency_hz=parsed["carrier_frequency_hz"],
            distance_m=parsed["distance_m"],
            bandwidth_hz=parsed["bandwidth_hz"],
            noise_psd_dbm_hz=parsed["noise_psd_dbm_hz"],
            tx_power_w=parsed["tx_power_w"],
            snr_threshold=10.0 ** (parsed["snr_threshold_db"] / 10.0),
        ),
        miner=MinerParams(
            compute_power_w=parsed["compute_power_w"],
            lambda0=parsed["lambda0"],
            mobility_power_w=parsed["mobility_power_w"],
            speed_mps=parsed["speed_mps"],
            ack_bits=parsed["ack_bits"],
        ),
        latency_model=parsed["latency_model"],
        rng_seed=parsed["rng_seed"],
    )
    ensure_valid(config)
    return config


def load_config(path) -> SystemConfig:
    return parse_config_text(Path(path).read_text())


def config_items(config: SystemConfig) -> list[tuple[str, object]]:
    """Canonical (key, value) pairs in config-file units and key order."""
    ch, mn = config.channel, config.miner
    return [
        ("num_miners", config.num_miners),
        ("carrier_frequency_hz", ch.carrier_frequency_hz),
        ("distance_m", ch.distance_m),
        ("bandwidth_hz", ch.bandwidth_hz),
        ("noise_psd_dbm_hz", ch.noise_psd_dbm_hz),
        ("tx_power_w", ch.tx_power_w),
        ("snr_threshold_db", 10.0 * math.log10(ch.snr_threshold)),
        ("compute_power_w", mn.compute_power_w),
        ("lambda0", mn.lambda0),
        ("mobility_power_w", mn.mobility_power_w),
        ("speed_mps", mn.speed_mps),
        ("ack_bits", mn.ack_bits),
        ("latency_model", config.latency_model.value),
        ("rng_seed", config.rng_seed),
    ]


def config_text(config: SystemConfig) -> str:
    """Emit a config in file form (round-trips through parse_config_text)."""
    lines = []
    for key, value in config_items(config):
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_digest(config: SystemConfig) -> str:
    """Short stable hash of every input that can change an output (CSV provenance).

    Covers the config-file keys plus the analytic tolerances, which are not
    file keys.
    """
    items = config_items(config) + [
        ("quadrature_tol", config.quadrature_tol),
        ("mixture_truncation", config.mixture_truncation),
    ]
    blob = ";".join(f"{k}={v!r}" for k, v in items)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# --- defaults ---------------------------------------------------------------
#
# The operating point used throughout: 2.4 GHz carrier at 50 m (free-space,
# air to air), 180 kHz band at -174 dBm/Hz noise, 1 Mbit ACK, 8 W compute
# with 0.04 1/(W s) scaling, 50 W mobility at 10 m/s. The SNR threshold
# defaults to the mean SNR of the link so that relocations actually happen
# (mean relocation count e - 1); pass snr_fraction to move it.


def default_channel(tx_power_w: float = 0.1, snr_fraction: float = 1.0) -> ChannelParams:
    """Default link with the SNR threshold at ``snr_fraction`` of the mean SNR."""
    base = ChannelParams(
        carrier_frequency_hz=2.4e9,
        distance_m=50.0,
        bandwidth_hz=180e3,
        noise_psd_dbm_hz=-174.0,
        tx_power_w=tx_power_w,
        snr_threshold=1.0,
    )
    return replace(base, snr_threshold=snr_fraction * mean_snr(base))


def default_miner() -> MinerParams:
    return MinerParams()


def default_config(
    num_miners: int = 10,
    *,
    tx_power_w: float = 0.1,
    snr_fraction: float = 1.0,
    latency_model: LatencyModel = LatencyModel.TOTAL,
    rng_seed: int = 42,
) -> SystemConfig:
    return SystemConfig(
        num_miners=num_miners,
        channel=default_channel(tx_power_w=tx_power_w, snr_fraction=snr_fraction),
        miner=default_miner(),
        latency_model=latency_model,
        rng_seed=rng_seed,
    )
