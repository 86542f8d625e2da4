"""Fork probability and energy analysis for proof-of-work blockchains whose
mining runs on wireless mobile nodes.

The library models one PoW round as a race: every miner draws an exponential
compute time and a transmission latency (relocations under fading plus the
uplink transfer), and a fork happens when the fastest computer is not the
first ACK to arrive. It provides closed-form/quadrature answers
(:func:`evaluate`, :func:`no_forking_probability`) and a bit-reproducible
Monte Carlo simulator (:func:`estimate`) that cross-validate each other,
plus a CLI (``forkwork``) that reproduces the standard parameter sweeps.
"""

from .analytic import (
    QuadratureError,
    evaluate,
    expected_min_compute_latency,
    expected_mobility_latency,
    expected_uplink_latency,
    integrate_adaptive,
    no_forking_probability,
    survival_prob,
)
from .channel import (
    DiscreteLatency,
    LatencyDistribution,
    derive_seed,
    substream,
    uplink_latency,
)
from .model import (
    AnalyticResult,
    ChannelParams,
    ConfigError,
    DerivedParams,
    LatencyModel,
    MinerParams,
    SystemConfig,
    config_digest,
    config_text,
    default_channel,
    default_config,
    default_miner,
    derive,
    load_config,
    mean_snr,
    parse_config_text,
)
from .simulator import (
    Estimate,
    SimulationSummary,
    estimate,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticResult",
    "ChannelParams",
    "ConfigError",
    "DerivedParams",
    "DiscreteLatency",
    "Estimate",
    "LatencyDistribution",
    "LatencyModel",
    "MinerParams",
    "QuadratureError",
    "SimulationSummary",
    "SystemConfig",
    "config_digest",
    "config_text",
    "default_channel",
    "default_config",
    "default_miner",
    "derive",
    "derive_seed",
    "estimate",
    "evaluate",
    "expected_min_compute_latency",
    "expected_mobility_latency",
    "expected_uplink_latency",
    "integrate_adaptive",
    "load_config",
    "mean_snr",
    "no_forking_probability",
    "parse_config_text",
    "substream",
    "survival_prob",
    "uplink_latency",
]
