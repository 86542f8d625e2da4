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

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path

SPEED_OF_LIGHT = 3.0e8  # m/s
# a simulation's trial counts, here so that the CLI reads them without the simulator
MIN_TRIALS = 100  # fewest rounds, and fewest blocks, that an estimate accepts
DEFAULT_ROUND_TRIALS, DEFAULT_BLOCKS = 100_000, 2_000  # trial counts when a caller names none

__all__ = [
    "SPEED_OF_LIGHT",
    "LatencyModel",
    "ConfigError",
    "QuadratureError",
    "ChannelParams",
    "MinerParams",
    "SystemConfig",
    "DerivedParams",
    "AnalyticResult",
    "CONFIG_KEYS",
    "derive",
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

    def __reduce__(self):  # rebuilt from its messages, not from the joined text
        return type(self), (self.errors,)


class QuadratureError(RuntimeError):
    """Integration failed to converge; carries the achieved value and estimate."""

    def __init__(self, message, *, value=float("nan"), error_estimate=float("inf")):
        super().__init__(f"{message} (value={value!r}, error_estimate={error_estimate!r})")
        self._message = message
        self.value = value
        self.error_estimate = error_estimate

    def __reduce__(self):  # rebuilt from its arguments: a pickle round trip keeps the message
        rebuild = partial(type(self), value=self.value, error_estimate=self.error_estimate)
        return rebuild, (self._message,)


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
    """Full parameterization of one experiment.

    ``derived`` holds the :class:`DerivedParams` computed once when the config
    is built. It is an attribute, not a field, so ``repr``, ``==``, ``hash``
    and :func:`config_digest` see only the inputs.
    """

    num_miners: int
    channel: ChannelParams
    miner: MinerParams
    latency_model: LatencyModel = LatencyModel.TOTAL
    rng_seed: int = 42
    quadrature_tol: float = 1e-8  # relative tolerance of analytic integrals

    def __post_init__(self):
        """Check every invariant; raise :class:`ConfigError` with one message per violation."""
        errors: list[str] = []
        ch, mn = self.channel, self.miner

        if not isinstance(self.num_miners, int) or self.num_miners < 1:
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
        elif 1.0 + ch.snr_threshold == 1.0:  # log2(1 + threshold), the rate there, rounds to 0
            errors.append("snr_threshold must be above 1.1e-16 (-159.5 dB)")
        if not isinstance(self.latency_model, LatencyModel):
            errors.append("latency_model must be 'total' or 'wireless_only'")
        if not isinstance(self.rng_seed, int) or not 0 <= self.rng_seed < 2**64:
            errors.append("rng_seed must be an integer in [0, 2^64)")
        if not 0.0 < self.quadrature_tol < 1e-2:
            errors.append("quadrature_tol must be in (0, 1e-2)")

        if not errors:
            try:
                object.__setattr__(self, "derived", derive(ch, mn))
            except ValueError as exc:
                errors.append(str(exc))
        if errors:
            raise ConfigError(errors)


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

    ``quadrature_error`` is the absolute error estimate of ``no_fork_prob``,
    and ``exp_uplink_error`` that of ``exp_uplink``, a quadrature at the same
    relative tolerance. No error bound covers ``exp_round_energy`` or
    ``avg_block_energy``.
    """

    no_fork_prob: float
    exp_min_compute: float  # mean compute time of the round winner, s
    exp_mobility: float  # mean relocation latency, s
    exp_uplink: float  # mean uplink transmission latency, s
    exp_round_energy: float  # mean winner energy of a single PoW round, J
    avg_block_energy: float  # mean winner energy to commit one block, J
    quadrature_error: float
    exp_uplink_error: float  # absolute error estimate of exp_uplink, s


def wavelength_m(carrier_frequency_hz: float) -> float:
    return SPEED_OF_LIGHT / carrier_frequency_hz


def _from_db(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def noise_power_w(noise_psd_dbm_hz: float, bandwidth_hz: float) -> float:
    """Noise power in W over a band, for a flat PSD given in dBm/Hz."""
    return _from_db(noise_psd_dbm_hz + _to_db(bandwidth_hz) - 30.0)


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


def _positive(name: str, inputs: str, compute) -> float:
    """``compute()`` when finite and positive, else ValueError naming its ``inputs``."""
    try:
        value = compute()
    except ArithmeticError:  # an overflow, or a divisor that underflowed to zero
        raise ValueError(f"derived {name} is out of float range; check {inputs}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(
            f"derived {name} is not finite and positive (got {value!r}); check {inputs}"
        )
    return value


def derive(channel: ChannelParams, miner: MinerParams) -> DerivedParams:
    """Compute all derived scalars. Pure; raises ValueError on non-finite results.

    Free-space path gain (wavelength / 4 pi d)^2; noise power from dBm/Hz PSD
    times bandwidth; SNR rate = noise power / (gain * tx power); compute rate
    lambda0 * compute power; relocation time (wavelength/2) / speed; max uplink
    latency ack_bits / (B log2(1 + threshold)) by ``channel.uplink_latency``, as
    the draws take it. Each error message names the fields it is computed from.
    """
    import numpy as np  # loaded by the first config built, not by ``import forkwork``
    from .channel import uplink_latency

    ch, mn = channel, miner

    def at_threshold():
        with np.errstate(over="raise"):  # a FloatingPointError: out of float range
            return float(uplink_latency(ch.snr_threshold, mn.ack_bits, ch.bandwidth_hz))

    link = "carrier_frequency_hz, distance_m"
    band = "noise_psd_dbm_hz, bandwidth_hz"
    gain = _positive("path_gain", link, lambda: _path_gain(ch))
    noise = _positive(
        "noise_power", band, lambda: noise_power_w(ch.noise_psd_dbm_hz, ch.bandwidth_hz)
    )
    snr_rate = _positive(
        "snr_rate", f"tx_power_w, {link}, {band}", lambda: noise / (gain * ch.tx_power_w)
    )
    compute_rate = _positive(
        "compute_rate", "lambda0, compute_power_w", lambda: mn.lambda0 * mn.compute_power_w
    )
    move_time = _positive(
        "move_time",
        "carrier_frequency_hz, speed_mps",
        lambda: (wavelength_m(ch.carrier_frequency_hz) / 2.0) / mn.speed_mps,
    )
    max_uplink = _positive("max_uplink", "ack_bits, bandwidth_hz, snr_threshold", at_threshold)
    success_prob = math.exp(-snr_rate * ch.snr_threshold)
    if gain >= 1.0:
        raise ValueError("derived path_gain must be below 1 (distance is inside the near field)")

    return DerivedParams(
        path_gain=gain,
        noise_power_w=noise,
        snr_rate=snr_rate,
        compute_rate=compute_rate,
        move_time_s=move_time,
        max_uplink_s=max_uplink,
        success_prob=success_prob,
    )


# --- configuration files ----------------------------------------------------
#
# Flat "key = value" text, one pair per line, '#' comments. All keys are
# required and unknown keys are rejected. The key table below is the one
# mapping between file keys and SystemConfig fields: each key's section
# (None for SystemConfig itself), field and unit. A "dB" key holds
# 10 log10 of its linear field.

_KEYS = {
    "num_miners": (None, "num_miners", int),
    "carrier_frequency_hz": ("channel", "carrier_frequency_hz", float),
    "distance_m": ("channel", "distance_m", float),
    "bandwidth_hz": ("channel", "bandwidth_hz", float),
    "noise_psd_dbm_hz": ("channel", "noise_psd_dbm_hz", float),
    "tx_power_w": ("channel", "tx_power_w", float),
    "snr_threshold_db": ("channel", "snr_threshold", "dB"),
    "compute_power_w": ("miner", "compute_power_w", float),
    "lambda0": ("miner", "lambda0", float),
    "mobility_power_w": ("miner", "mobility_power_w", float),
    "speed_mps": ("miner", "speed_mps", float),
    "ack_bits": ("miner", "ack_bits", float),
    "latency_model": (None, "latency_model", LatencyModel),
    "rng_seed": (None, "rng_seed", int),
}

CONFIG_KEYS = tuple(_KEYS)


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


def parse_value(key: str, text: str):
    """The file value of config key ``key`` written as ``text``, in the file's unit."""
    unit = _KEYS[key][2]
    if unit is LatencyModel:
        normalized = text.strip().lower().replace("-", "_")
        if normalized not in ("total", "wireless_only", "wirelessonly"):
            raise ConfigError(["latency_model must be 'total' or 'wireless_only'"])
        return LatencyModel.TOTAL if normalized == "total" else LatencyModel.WIRELESS_ONLY
    try:
        return int(text) if unit is int else float(text)
    except ValueError:
        kind = "an integer" if unit is int else "a number"
        raise ConfigError([f"{key} must be {kind}, got {text!r}"]) from None


def config_values(seen: dict[str, str]) -> dict[str, object]:
    """File values of every config key, parsed from ``seen`` (text by key).

    Raises ConfigError naming every missing or unparsable key.
    """
    errors = [f"missing key: {k}" for k in CONFIG_KEYS if k not in seen]
    if errors:
        raise ConfigError(errors)
    values: dict[str, object] = {}
    for key in CONFIG_KEYS:
        try:
            values[key] = parse_value(key, seen[key])
        except ConfigError as exc:
            errors.extend(exc.errors)
    if errors:
        raise ConfigError(errors)
    return values


def config_from_values(values: dict[str, object]) -> SystemConfig:
    """Build, and so check, the SystemConfig whose file values ``values`` holds."""
    parts: dict[str | None, dict] = {None: {}, "channel": {}, "miner": {}}
    for key, (section, name, unit) in _KEYS.items():
        value = values[key]
        if unit == "dB":
            try:
                value = _from_db(value)
            except OverflowError:
                raise ConfigError([f"{key} is out of range, got {value!r}"]) from None
        parts[section][name] = value
    return SystemConfig(
        channel=ChannelParams(**parts["channel"]),
        miner=MinerParams(**parts["miner"]),
        **parts[None],
    )


def parse_config_text(text: str) -> SystemConfig:
    """Parse a config file body. Raises ConfigError on any problem."""
    return config_from_values(config_values(parse_flat_text(text, CONFIG_KEYS)))


def load_config(path) -> SystemConfig:
    return parse_config_text(Path(path).read_text())


def config_text(config: SystemConfig) -> str:
    """Emit a config in file form (round-trips through parse_config_text)."""
    lines = []
    for key, (section, name, unit) in _KEYS.items():
        value = getattr(getattr(config, section) if section else config, name)
        if unit == "dB":
            value = _to_db(value)
        elif unit is LatencyModel:
            value = value.value
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _field_items(obj, prefix: str = ""):
    """(dotted name, exact value) of every dataclass field, nested ones flattened."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _field_items(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value.value if isinstance(value, Enum) else value


def config_digest(config: SystemConfig) -> str:
    """Short stable hash of the exact value of every SystemConfig field (CSV provenance)."""
    blob = ";".join(f"{k}={v!r}" for k, v in _field_items(config))
    for name in ("_sha2", "_sha256", "hashlib"):  # builtin SHA-256 (3.12+, 3.10/3.11): no OpenSSL
        try:
            return __import__(name).sha256(blob.encode()).hexdigest()[:12]
        except ImportError:
            pass


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
