"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Constants used throughout: compute power 8 W, rate scaling 0.04, 1 Mbit ACK,
180 kHz band, 50 m link, -174 dBm/Hz noise. The SNR threshold defaults to the
link's mean SNR and tx power to 0.1 W unless a criterion says otherwise.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from forkwork import cli
from forkwork.analytic import (
    evaluate,
    expected_mobility_latency,
    expected_uplink_latency,
    integrate_adaptive,
    no_forking_probability,
)
from forkwork.channel import (
    DiscreteLatency,
    LatencyDistribution,
    substream,
)
from forkwork.model import config_text, default_config, derive
from forkwork.simulator import _race, estimate


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_1_analytic_vs_simulation_grid():
    start = time.perf_counter()
    worst = 0.0
    for miners in (2, 5, 10, 20):
        for tx_power in (0.1, 1.0):
            for fraction in (0.5, 1.0):
                cfg = default_config(
                    num_miners=miners, tx_power_w=tx_power, snr_fraction=fraction
                )
                p_analytic, _ = no_forking_probability(cfg)
                sim = estimate(cfg, num_blocks=100, num_round_trials=100_000)
                diff = abs(p_analytic - sim.no_fork_prob.value)
                allowed = max(0.01, 3 * sim.no_fork_prob.se)
                worst = max(worst, diff / allowed)
                assert diff <= allowed, (miners, tx_power, fraction, diff, allowed)
    elapsed = time.perf_counter() - start
    _report(
        1,
        elapsed < 300.0,
        f"16-point grid matched within max(0.01, 3 SE); worst margin use "
        f"{worst:.2f}, runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_2_degenerate_exactness():
    cfg = default_config(num_miners=1)
    p, err = no_forking_probability(cfg)
    sim = estimate(cfg, num_blocks=100, num_round_trials=100_000)
    hook_ok = True
    for miners in (2, 5, 11):
        hooked = estimate(
            default_config(num_miners=miners),
            num_blocks=100,
            num_round_trials=10_000,
            dist=DiscreteLatency.constant(0.2),
        )
        hook_ok = hook_ok and hooked.fork_rate.value == 0.0
    ok = p == 1.0 and err == 0.0 and sim.fork_rate.value == 0.0 and hook_ok
    _report(
        2,
        ok,
        f"single miner: analytic p_n={p}, simulated fork rate="
        f"{sim.fork_rate.value}; deterministic-latency hook fork rate 0 for I in (2, 5, 11)",
    )


def test_criterion_3_order_statistics():
    rate = 0.32
    trials = 1_000_000
    chunk = 20_000
    details = []
    for index, miners in enumerate((1, 5, 20)):
        cfg = default_config(num_miners=miners)
        dist = LatencyDistribution.from_config(cfg)
        total = 0.0
        rng = substream(9000, index)
        for _ in range(trials // chunk):
            # the rightful winner is the fastest computer: its time is the minimum
            total += _race(rng, cfg, dist, chunk)[2].sum()
        mean = total / trials
        expected = 1.0 / (rate * miners)
        details.append(f"I={miners}: {mean:.6f} vs {expected:.6f}")
        assert mean == pytest.approx(expected, rel=0.01), (miners, mean, expected)
    _report(3, True, "min-compute means within 1% at 1e6 samples; " + "; ".join(details))


def test_criterion_4_mobility_expectation():
    cfg = default_config()  # threshold at mean SNR: mean relocations e - 1
    d = derive(cfg.channel, cfg.miner)
    rng = substream(9001, 0)
    moves = LatencyDistribution.from_config(cfg).draw(rng, 1_000_000)[0]
    empirical = d.move_time_s * moves.mean()
    expected = expected_mobility_latency(cfg)
    ok = abs(empirical - expected) <= 0.02 * expected
    _report(
        4,
        ok,
        f"t_m * mean(N) = {empirical:.6e} vs closed form {expected:.6e} "
        f"(mean N = {moves.mean():.4f}, e-1 = {math.e - 1:.4f})",
    )


def test_criterion_5_uplink_expectation():
    cfg = default_config()
    dist = LatencyDistribution.from_config(cfg)
    value, _ = expected_uplink_latency(cfg)
    rng = substream(9002, 0)
    sampled = dist.draw(rng, 1_000_000)[1].mean()
    norm, _ = integrate_adaptive(
        dist.uplink_pdf, dist.max_uplink * 1e-12, dist.max_uplink, rel_tol=1e-9
    )
    ok = abs(value - sampled) <= 0.01 * value and abs(norm - 1.0) <= 1e-6
    _report(
        5,
        ok,
        f"E[T_up] quadrature {value:.6f} vs sampled {sampled:.6f}; "
        f"density integrates to {norm:.9f}",
    )


def test_criterion_6_recovery_loop():
    cfg = default_config(num_miners=10)
    result = evaluate(cfg)
    sim = estimate(cfg, num_blocks=10_000, num_round_trials=1000)
    rounds_expected = 1.0 / result.no_fork_prob
    rounds_ok = abs(sim.mean_rounds.value - rounds_expected) <= 3 * sim.mean_rounds.se
    energy_ok = (
        abs(sim.mean_block_energy.value - result.avg_block_energy)
        <= 0.05 * result.avg_block_energy
    )
    _report(
        6,
        rounds_ok and energy_ok,
        f"mean rounds {sim.mean_rounds.value:.4f} vs 1/p_n {rounds_expected:.4f} "
        f"(3 SE {3 * sim.mean_rounds.se:.4f}); block energy {sim.mean_block_energy.value:.3f} "
        f"vs analytic {result.avg_block_energy:.3f} J",
    )


def test_criterion_7_miners_trend(tmp_path):
    out = tmp_path / "fig2.csv"
    code = cli.main(
        ["sweep", "--preset", "fig2", "--out", str(out), "--trials", "100000", "--blocks", "100"]
    )
    assert code == 0
    rows = _rows(out)
    analytic = [float(r["p_n_analytic"]) for r in rows]
    simulated = [float(r["p_n_sim"]) for r in rows]
    ses = [float(r["p_n_se"]) for r in rows]
    analytic_ok = all(b <= a + 1e-8 for a, b in zip(analytic, analytic[1:]))
    sim_ok = all(
        b <= a + math.hypot(sa, sb)
        for a, b, sa, sb in zip(simulated, simulated[1:], ses, ses[1:])
    )
    _report(
        7,
        analytic_ok and sim_ok,
        f"p_n non-increasing over I=1..20: analytic {analytic[0]:.4f} -> {analytic[-1]:.4f}, "
        f"simulated {simulated[0]:.4f} -> {simulated[-1]:.4f} (1 SE slack)",
    )


def test_criterion_8_energy_reduction(tmp_path):
    out = tmp_path / "fig3.csv"
    code = cli.main(
        ["sweep", "--preset", "fig3", "--out", str(out), "--trials", "20000", "--blocks", "2000"]
    )
    assert code == 0
    rows = _rows(out)
    first, last = rows[0], rows[-1]
    assert first["value"] == "1" and last["value"] == "20"
    ratio_analytic = float(last["energy_analytic"]) / float(first["energy_analytic"])
    ratio_sim = float(last["energy_sim"]) / float(first["energy_sim"])
    ok = ratio_analytic <= 0.10 and ratio_sim <= 0.10
    _report(
        8,
        ok,
        f"block energy I=20 vs I=1: analytic ratio {ratio_analytic:.4f} "
        f"({(1 - ratio_analytic) * 100:.1f}% reduction), simulated ratio {ratio_sim:.4f} "
        f"({(1 - ratio_sim) * 100:.1f}% reduction)",
    )


def test_criterion_9_threshold_trend(tmp_path):
    # Each simulated step in energy must match the analytic step within
    # 5 hypot(se). The points are independent, so a check fails by chance with
    # probability 5.7e-7; over the 16 steps the false-failure rate is below
    # 1e-5 per run. At 20k blocks that allowance is 0.56 of the former
    # 2 hypot(se) at 1000 blocks. Round trials take no part here.
    out = tmp_path / "fig4.csv"
    code = cli.main(
        ["sweep", "--preset", "fig4", "--out", str(out), "--trials", "2000", "--blocks", "20000"]
    )
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 20
    fractions = sorted({float(r["param"].split("=")[1]) for r in rows})
    powers = sorted({float(r["value"]) for r in rows})
    by_point = {(float(r["param"].split("=")[1]), float(r["value"])): r for r in rows}
    analytic_ok = sim_ok = True
    worst = 0.0
    for power in powers:
        series = [by_point[(q, power)] for q in fractions]
        e_analytic = [float(r["energy_analytic"]) for r in series]
        e_sim = [float(r["energy_sim"]) for r in series]
        se = [float(r["energy_se"]) for r in series]
        analytic_ok &= all(b >= a - 1e-9 for a, b in zip(e_analytic, e_analytic[1:]))
        for i in range(len(series) - 1):
            step_sim = e_sim[i + 1] - e_sim[i]
            step_analytic = e_analytic[i + 1] - e_analytic[i]
            z = abs(step_sim - step_analytic) / math.hypot(se[i], se[i + 1])
            worst = max(worst, z)
            sim_ok &= z <= 5.0
    _report(
        9,
        analytic_ok and sim_ok,
        "block energy non-decreasing in the SNR threshold at every tx power, simulated "
        f"steps within 5 SE of the analytic ones (worst {worst:.2f} SE; thresholds "
        f"x{fractions} of the reference mean SNR, powers {powers} W)",
    )


def test_criterion_10_brute_force_oracle():
    import itertools

    rng = np.random.default_rng(4242)
    worst = 0.0
    cases = 0
    for num_miners in (2, 3):
        for _ in range(5):
            k = int(rng.integers(2, 6))
            atoms = tuple(np.sort(rng.uniform(0.0, 1.5, k)))
            raw = rng.uniform(0.1, 1.0, k)
            weights = tuple(raw / raw.sum())
            rate = float(rng.uniform(0.2, 2.5))
            cfg = default_config(num_miners=num_miners)
            cfg = replace(
                cfg, miner=replace(cfg.miner, lambda0=rate / cfg.miner.compute_power_w)
            )
            p, _ = no_forking_probability(cfg, dist=DiscreteLatency(atoms, weights))
            oracle = 0.0
            for combo in itertools.product(range(k), repeat=num_miners):
                weight = math.prod(weights[j] for j in combo)
                lat = [atoms[j] for j in combo]
                prob = sum(
                    math.exp(
                        -rate
                        * sum(
                            max(0.0, lat[i] - lat[j])
                            for j in range(num_miners)
                            if j != i
                        )
                    )
                    for i in range(num_miners)
                )
                oracle += weight * prob / num_miners
            worst = max(worst, abs(p - oracle))
            cases += 1
            assert abs(p - oracle) <= 1e-6, (atoms, weights, rate, num_miners)
    _report(10, True, f"{cases} discrete cases vs enumeration, worst |diff| = {worst:.2e}")


def test_criterion_11_determinism(tmp_path):
    config_path = tmp_path / "config.txt"
    config_path.write_text(config_text(default_config(num_miners=6)))
    sim_args = ["simulate", str(config_path), "--trials", "20000", "--blocks", "300"]
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(sim_args + ["--workers", "1", "--out", str(a)]) == 0
    assert cli.main(sim_args + ["--workers", "1", "--out", str(b)]) == 0
    assert cli.main(sim_args + ["--workers", "4", "--out", str(c)]) == 0
    sim_ok = a.read_bytes() == b.read_bytes() == c.read_bytes()

    sweep_args = ["sweep", "--preset", "fig2", "--trials", "2000", "--blocks", "100"]
    d, e = tmp_path / "d.csv", tmp_path / "e.csv"
    assert cli.main(sweep_args + ["--workers", "1", "--out", str(d)]) == 0
    assert cli.main(sweep_args + ["--workers", "3", "--out", str(e)]) == 0
    sweep_ok = d.read_bytes() == e.read_bytes()
    _report(
        11,
        sim_ok and sweep_ok,
        "byte-identical CSV across repeated runs and worker counts (simulate and sweep)",
    )
