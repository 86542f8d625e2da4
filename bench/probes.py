"""Direct probes: single layers of forkwork timed by calling them directly.

Run in a fresh interpreter with the package on PYTHONPATH; prints one JSON
object of probe metrics. The inputs are fixed (default link, I = 10), so the
probes read the same work on every workload and seed.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import forkwork as fw

REPEATS = 5


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def survival_build_s() -> float:
    """First survival_prob on a law not seen before (Chebyshev build and cross-check)."""
    times = []
    for k in range(REPEATS):
        # a new tx power gives a new law, so the evaluator cache misses
        dist = fw.LatencyDistribution.from_config(fw.default_config(tx_power_w=0.1 + 0.01 * k))
        t = np.linspace(0.0, 2.0 * dist.max_uplink, 64)
        times.append(_timed(lambda: fw.survival_prob(t, dist)))
    return statistics.median(times)


def survival_pts_per_s() -> float:
    """Warm survival_prob over a fixed lag grid that spans 60 relocations."""
    dist = fw.LatencyDistribution.from_config(fw.default_config())
    t = np.linspace(0.0, dist.max_uplink + 60 * dist.move_time, 4096)
    fw.survival_prob(t, dist)
    return statistics.median(t.size / _timed(lambda: fw.survival_prob(t, dist)) for _ in range(REPEATS))


def rounds_per_s() -> float:
    """Round stream throughput: estimate with the minimum block count."""
    cfg = fw.default_config()
    rounds = 200_000
    times = [_timed(lambda: fw.estimate(cfg, num_blocks=100, num_round_trials=rounds)) for _ in range(3)]
    return rounds / statistics.median(times)


def pool_overhead_s() -> float:
    """A tiny estimate at 2 workers minus the same at 1 worker."""
    cfg = fw.default_config()

    def tiny(workers):
        return _timed(lambda: fw.estimate(cfg, num_blocks=100, num_round_trials=100, workers=workers))

    return statistics.median(tiny(2) - tiny(1) for _ in range(REPEATS))


if __name__ == "__main__":
    print(
        json.dumps(
            {
                "analytic.survival_build_s": survival_build_s(),
                "analytic.survival_pts_per_s": survival_pts_per_s(),
                "simulator.rounds_per_s": rounds_per_s(),
                "simulator.pool_overhead_s": pool_overhead_s(),
            }
        )
    )
