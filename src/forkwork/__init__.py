"""Fork probability and energy analysis for proof-of-work blockchains whose
mining runs on wireless mobile nodes.

The library models one PoW round as a race: every miner draws an exponential
compute time and a transmission latency (relocations under fading plus the
uplink transfer), and a fork happens when the fastest computer is not the
first ACK to arrive. It provides closed-form/quadrature answers
(:func:`evaluate`, :func:`no_forking_probability`) and a bit-reproducible
Monte Carlo simulator (:func:`estimate`) that cross-validate each other,
plus a CLI (``forkwork``) that reproduces the standard parameter sweeps.

Each public name is imported from its module on first use (PEP 562), so
``import forkwork`` alone loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines
_EXPORTS = {
    "analytic": """evaluate expected_min_compute_latency
        expected_mobility_latency expected_uplink_latency integrate_adaptive
        no_forking_probability survival_prob""",
    "channel": "DiscreteLatency LatencyDistribution derive_seed substream uplink_latency",
    "model": """AnalyticResult ChannelParams ConfigError DerivedParams LatencyModel MinerParams
        QuadratureError SystemConfig config_digest config_text default_channel default_config
        default_miner derive load_config mean_snr parse_config_text""",
    "simulator": "Estimate SimulationSummary estimate",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
