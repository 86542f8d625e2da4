import concurrent.futures
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from forkwork import analytic, channel, cli, model, simulator
from forkwork.analytic import MIXTURE_DEPTH_CAP, QuadratureError, evaluate
from forkwork.model import (
    LatencyModel,
    SystemConfig,
    config_digest,
    config_text,
    default_channel,
    default_config,
    load_config,
    mean_snr,
)
from forkwork.simulator import estimate

README = Path(__file__).resolve().parents[1] / "README.md"


def _write_config(tmp_path, cfg=None, name="config.txt"):
    path = tmp_path / name
    path.write_text(config_text(cfg or default_config()))
    return str(path)


def _cli_in_child(args, timeout=60):
    """The CLI run in a child process, so that a hang fails the test instead of stalling it."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    code = "import sys; from forkwork.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _finite_row(out):
    """The one row of the CSV at ``out``, after checking that every metric cell is finite."""
    row = _rows(out.read_text())[1][0]
    assert all(math.isfinite(float(v)) for k, v in row.items() if k != "config_hash"), row
    return row


def _readme_headers():
    """Each command's CSV header, as the README's "CSV schemas" section lists it."""
    section = README.read_text().split("### CSV schemas", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\* `(\w+)`: `([\w,]+)`$", section, flags=re.M))


# --- analytic ---------------------------------------------------------------


def test_analytic_single_miner(tmp_path, capsys):
    path = _write_config(tmp_path, default_config(num_miners=1))
    out = tmp_path / "row.csv"
    assert cli.main(["analytic", path, "--out", str(out)]) == 0
    header, rows = _rows(out.read_text())
    assert header[0] == "p_n"
    assert float(rows[0]["p_n"]) == 1.0
    assert rows[0]["config_hash"]


def test_analytic_min_compute_column(tmp_path):
    path = _write_config(tmp_path, default_config(num_miners=20))
    out = tmp_path / "row.csv"
    assert cli.main(["analytic", path, "--out", str(out)]) == 0
    _, rows = _rows(out.read_text())
    assert float(rows[0]["e_s"]) == pytest.approx(0.15625, rel=1e-9)


def test_analytic_stdout_csv(tmp_path, capsys):
    path = _write_config(tmp_path, default_config(num_miners=1))
    assert cli.main(["analytic", path]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("p_n,")
    assert "no-forking probability" in captured.err


def test_analytic_evaluates_once(tmp_path, monkeypatch):
    path = _write_config(tmp_path)
    calls = []
    real = analytic.evaluate

    def counting(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(analytic, "evaluate", counting)  # the command imports it when it runs
    assert cli.main(["analytic", path, "--out", str(tmp_path / "row.csv")]) == 0
    assert len(calls) == 1


def test_analytic_checks_config_once(tmp_path, monkeypatch):
    path = _write_config(tmp_path)
    checks = []
    real = SystemConfig.__post_init__

    def counting(config):
        checks.append(config)
        real(config)

    monkeypatch.setattr(SystemConfig, "__post_init__", counting)
    assert cli.main(["analytic", path, "--out", str(tmp_path / "row.csv")]) == 0
    assert len(checks) == 1


def test_analytic_answers_at_fast_compute(tmp_path):
    # rate x max_uplink is about 20: the fit of the bounded G keeps its error budget
    cfg = default_config()
    path = _write_config(tmp_path, replace(cfg, miner=replace(cfg.miner, lambda0=10.0)))
    out = tmp_path / "row.csv"
    assert cli.main(["analytic", path, "--out", str(out)]) == 0
    _, rows = _rows(out.read_text())
    assert 0.0 < float(rows[0]["p_n_err"]) <= cfg.quadrature_tol * float(rows[0]["p_n"])


@pytest.mark.parametrize("lambda0", [1_000.0, 10_000.0, 27_000.0])
def test_analytic_at_extreme_compute_ends_cleanly(tmp_path, lambda0):
    # rate x max_uplink of 2,000, 20,000 and 54,000: an answer within its error
    # budget and 10 s, with no NaN and no numpy warning; at 27,000 the fit's
    # panels are forced to exactly MAX_PANELS = 16,384
    cfg = default_config()
    path = _write_config(tmp_path, replace(cfg, miner=replace(cfg.miner, lambda0=lambda0)))
    out = tmp_path / "row.csv"
    done = _cli_in_child(["analytic", path, "--out", str(out)], timeout=10)
    assert done.returncode == 0, done.stderr
    assert "nan" not in (out.read_text() + done.stderr).lower()
    assert "Warning" not in done.stderr
    _, rows = _rows(out.read_text())
    assert float(rows[0]["p_n_err"]) <= cfg.quadrature_tol * float(rows[0]["p_n"])


def test_analytic_past_the_panel_budget_is_a_quadrature_failure(tmp_path):
    # lambda0 = 30,000 would force 32,768 panels, one level past MAX_PANELS
    cfg = default_config()
    path = _write_config(tmp_path, replace(cfg, miner=replace(cfg.miner, lambda0=30_000.0)))
    done = _cli_in_child(["analytic", path], timeout=10)
    assert done.returncode == 2, done.stderr
    assert "piecewise fit exceeded the panel budget" in done.stderr


@pytest.mark.parametrize(
    "command, options",
    [("analytic", []), ("simulate", ["--trials", "100", "--blocks", "100"])],
)
def test_command_derives_once(tmp_path, monkeypatch, command, options):
    path = _write_config(tmp_path)
    calls = []
    real = model.derive

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (model, channel, analytic, simulator):  # every binding of the name
        if hasattr(module, "derive"):
            monkeypatch.setattr(module, "derive", counting)
    assert cli.main([command, path, *options, "--out", str(tmp_path / "row.csv")]) == 0
    assert len(calls) == 1


def test_missing_key_exit_code(tmp_path, capsys):
    text = config_text(default_config())
    text = "\n".join(l for l in text.splitlines() if not l.startswith("ack_bits"))
    path = tmp_path / "broken.txt"
    path.write_text(text)
    assert cli.main(["analytic", str(path)]) == 1
    assert "missing key: ack_bits" in capsys.readouterr().err


def test_unknown_key_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text(config_text(default_config()) + "warp_factor = 9\n")
    assert cli.main(["analytic", str(path)]) == 1
    assert "unknown key: warp_factor" in capsys.readouterr().err


def test_invalid_config_value_exit_code(tmp_path, capsys):
    text = config_text(default_config()).replace("num_miners = 10", "num_miners = 0")
    path = tmp_path / "broken.txt"
    path.write_text(text)
    assert cli.main(["analytic", str(path)]) == 1
    assert "num_miners" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert cli.main(["analytic", str(tmp_path / "absent.txt")]) == 1


@pytest.mark.parametrize("command", ["analytic", "simulate", "sweep"])
def test_binary_input_file_is_config_error(tmp_path, command):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00num_miners = 10\n\xff\xfe\xd0\x00\x80")
    done = _cli_in_child([command, str(path)])
    assert done.returncode == 1
    assert done.stderr.startswith("config error: ") and "input file is not" in done.stderr
    assert "Traceback" not in done.stderr


def test_quadrature_failure_exit_code(tmp_path, monkeypatch, capsys):
    path = _write_config(tmp_path)

    def boom(config):
        raise QuadratureError("forced", value=0.0, error_estimate=1.0)

    monkeypatch.setattr(analytic, "evaluate", boom)
    assert cli.main(["analytic", path]) == 2
    assert "quadrature failure" in capsys.readouterr().err


def test_p_n_below_1e9_is_a_quadrature_failure(tmp_path, monkeypatch, capsys):
    # the block energy 1 / p_n would be unreliable; no real config reaches the guard
    monkeypatch.setattr(
        analytic, "no_forking_probability", lambda config, *, dist=None: (1e-10, 1e-19)
    )
    with pytest.raises(QuadratureError, match="below 1e-9") as exc:
        evaluate(default_config())
    assert (exc.value.value, exc.value.error_estimate) == (1e-10, 1e-19)
    out = tmp_path / "row.csv"
    assert cli.main(["analytic", _write_config(tmp_path), "--out", str(out)]) == 2
    assert "quadrature failure: no-forking probability below 1e-9" in capsys.readouterr().err
    assert not out.exists()


def test_quadrature_failure_reports_plain_floats(tmp_path, capsys):
    # at I = 1,000,000 the fit's term (I - 1) delta passes the error budget
    path = _write_config(tmp_path, default_config(1_000_000))
    assert cli.main(["analytic", path]) == 2
    err = capsys.readouterr().err
    assert "quadrature failure" in err and "np.float64" not in err
    result = evaluate(default_config())
    assert type(result.quadrature_error) is float and type(result.exp_uplink_error) is float


def test_usage_error_exit_code(capsys):
    assert cli.main(["analytic"]) == 1
    assert cli.main(["not-a-command"]) == 1


@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize(
    "snr_fraction, message",
    [(21.0, "relocation mixture needs"), (800.0, "underflowed to zero")],
    ids=["depth-cap", "success-underflow"],
)
def test_law_construction_error_exit_code(tmp_path, capsys, command, snr_fraction, message):
    path = _write_config(tmp_path, default_config(snr_fraction=snr_fraction))
    out = tmp_path / "row.csv"
    code = cli.main([command, path, "--out", str(out)])
    err = capsys.readouterr().err
    if command == "simulate" and snr_fraction == 21.0:  # only p_n sums the relocation mixture
        assert code == 0, err
        _finite_row(out)
        return
    assert code == 1
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


# thresholds at f x the mean SNR, past the depth cap, up to a subnormal success
# probability at f = 720: the depth is compared with the cap before it is rounded,
# so none of them may hang (the child's timeout) or overflow (a traceback). Only
# p_n sums the relocation mixture: simulate answers below f = 720, with p_n near
# 1 / I as the relocations dwarf every compute time, and at f = 720 the mean
# relocation count overflows for both commands
@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize("snr_fraction", [25.0, 29.0, 40.0, 100.0, 720.0])
def test_mixture_depth_cap_is_config_error(tmp_path, command, snr_fraction):
    cfg = default_config(snr_fraction=snr_fraction)
    out = tmp_path / "row.csv"
    done = _cli_in_child([command, _write_config(tmp_path, cfg), "--out", str(out)])
    assert "Traceback" not in done.stderr
    if snr_fraction == 720.0:
        assert done.returncode == 1
        assert done.stderr.startswith("config error: mean relocation count")
        assert not out.exists()
    elif command == "simulate":
        assert done.returncode == 0, done.stderr
        row = _finite_row(out)
        assert abs(float(row["p_n"]) - 1 / cfg.num_miners) <= 4 * float(row["p_n_se"])
    else:
        assert done.returncode == 1
        cap = f"config error: relocation mixture needs more than {MIXTURE_DEPTH_CAP} components"
        assert done.stderr.startswith(cap)
        assert not out.exists()


def test_analytic_single_miner_past_the_depth_cap_answers(tmp_path):
    # p_n = 1 at I = 1 needs no mixture; at I = 2 the same link is past the cap
    cfg = default_config(num_miners=1, snr_fraction=25.0)
    out = tmp_path / "row.csv"
    assert cli.main(["analytic", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert float(_finite_row(out)["p_n"]) == 1.0
    path = _write_config(tmp_path, replace(cfg, num_miners=2))
    assert cli.main(["analytic", path, "--out", str(out)]) == 1


# wireless-only draws relocations too: at f = 720 the success probability is
# subnormal, so the mean relocation count overflows and every mobility mean is inf
@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize("snr_fraction, code", [(40.0, 0), (720.0, 1)])
def test_wireless_only_subnormal_success_is_config_error(tmp_path, command, snr_fraction, code):
    cfg = default_config(snr_fraction=snr_fraction, latency_model=LatencyModel.WIRELESS_ONLY)
    out = tmp_path / "row.csv"
    args = [command, _write_config(tmp_path, cfg), "--out", str(out)]
    if command == "simulate":
        args += ["--trials", "1000", "--blocks", "100"]
    done = _cli_in_child(args)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code:
        assert done.stderr.startswith("config error: mean relocation count")
        assert not out.exists()
    else:
        _finite_row(out)


@pytest.mark.parametrize(
    "command, key, value, named",
    [
        ("analytic", "snr_threshold_db", "4000", "snr_threshold_db"),
        ("analytic", "noise_psd_dbm_hz", "4000", "noise_psd_dbm_hz"),
        ("analytic", "distance_m", "1e-200", "distance_m"),
        ("analytic", "distance_m", "1e300", "distance_m"),  # path gain underflows to 0
        ("analytic", "tx_power_w", "1e-320", "tx_power_w"),  # gain * power underflows to 0
        ("analytic", "snr_threshold_db", "-3000", "snr_threshold"),  # log2(1 + threshold) is 0
        ("sweep", "snr_threshold_db", "60, 4000", "snr_threshold_db"),
    ],
)
def test_out_of_range_value_is_config_error(tmp_path, capsys, command, key, value, named):
    text = config_text(default_config())
    if command == "sweep":
        text += f"sweep_param = {key}\nsweep_values = {value}\n"
    else:
        text = "\n".join(
            f"{key} = {value}" if line.startswith(f"{key} = ") else line
            for line in text.splitlines()
        )
    path, out = tmp_path / "extreme.txt", tmp_path / "out.csv"
    path.write_text(text)
    assert cli.main([command, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert "Traceback" not in err
    assert not out.exists()


# --- simulate ---------------------------------------------------------------


def test_simulate_deterministic_bytes(tmp_path):
    path = _write_config(tmp_path, default_config(num_miners=4))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", path, "--trials", "2000", "--blocks", "150", "--seed", "9"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_worker_count_does_not_change_bytes(tmp_path):
    path = _write_config(tmp_path, default_config(num_miners=4))
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    args = ["simulate", path, "--trials", "5000", "--blocks", "200"]
    assert cli.main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert cli.main(args + ["--workers", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# The simulated columns of two small CSVs, to 12 digits. They pin the random
# stream: substreams, chunk sizes, the blocks cut from the round stream, the
# race kernel's draw order and the samplers. A stream change moves them by far more than the
# 1e-9 relative allowance, which only absorbs last-bit differences of another
# numpy build, libm or SIMD path; it must update them and name the columns
# whose bytes moved in CHANGES.md. The analytic columns are not pinned here.
STREAM_SIMULATE = {
    "fork_rate": 0.0106, "p_n": 0.9894, "p_n_se": 0.00144828450244,
    "rounds_mean": 1.01159090909, "rounds_se": 0.00161380157286,
    "energy_mean": 4.73808336735, "energy_se": 0.0645832915412,
    "s_mean": 0.512240830642, "tm_mean": 0.01051375, "tu_mean": 0.239002748306,
    "system_energy_mean": 35.1178075779, "capped_blocks": 0.0,
}
STREAM_FIG4_COLUMNS = ("p_n_sim", "p_n_se", "energy_sim", "energy_se", "rounds_mean")
STREAM_FIG4 = [
    (0.9795, 0.00316857617866, 2.78946598871, 0.267866211432, 1.01),
    (0.976, 0.00342227994179, 2.40683472176, 0.249259780554, 1.0),
    (0.976, 0.00342227994179, 2.532556571, 0.25049031849, 1.02),
    (0.9775, 0.00331615364542, 2.33939475595, 0.203363755966, 1.01),
    (0.9825, 0.00293204280323, 2.7997900602, 0.274729786653, 1.03),
    (0.9795, 0.00316857617866, 3.06344059934, 0.2991166404, 1.02),
    (0.978, 0.00327993902382, 2.7793108081, 0.244798745799, 1.01),
    (0.98, 0.0031304951685, 2.93535058414, 0.25319832083, 1.0),
    (0.98, 0.0031304951685, 2.53472696627, 0.189916025126, 1.01),
    (0.9785, 0.00324328151723, 3.51126970586, 0.337123614482, 1.02),
    (0.936, 0.00547284204048, 4.73431047431, 0.371309080378, 1.06),
    (0.976, 0.00342227994179, 2.98585346965, 0.225962026148, 1.01),
    (0.99, 0.00222485954613, 2.93237642796, 0.242318302296, 1.02),
    (0.9835, 0.0028484864402, 2.51803673899, 0.21222746273, 1.02),
    (0.98, 0.0031304951685, 3.01451136485, 0.276458290081, 1.02),
    (0.7265, 0.00996739058129, 33.4318777943, 4.61418529182, 1.57),
    (0.9535, 0.00470838348056, 4.29454426312, 0.38270806325, 1.05),
    (0.9815, 0.0030131171567, 3.30335379378, 0.241242652863, 1.02),
    (0.982, 0.00297287739404, 2.5488528967, 0.236577219972, 1.03),
    (0.9835, 0.0028484864402, 3.21443880096, 0.264118910974, 1.02),
]


def test_stream_golden_values(tmp_path):
    path = _write_config(tmp_path, default_config(num_miners=6))
    sim, sweep = tmp_path / "sim.csv", tmp_path / "fig4.csv"
    # two round chunks, 4096 rounds then the rest, which hold the 4400 blocks
    simulate = ["simulate", path, "--trials", "5000", "--blocks", "4400", "--out", str(sim)]
    fig4 = ["sweep", "--preset", "fig4", "--trials", "2000", "--blocks", "100", "--out", str(sweep)]
    assert cli.main(simulate) == 0
    assert cli.main(fig4) == 0
    row = _rows(sim.read_text())[1][0]
    assert {c: float(row[c]) for c in STREAM_SIMULATE} == pytest.approx(STREAM_SIMULATE, rel=1e-9)
    got = [tuple(float(r[c]) for c in STREAM_FIG4_COLUMNS) for r in _rows(sweep.read_text())[1]]
    assert len(got) == len(STREAM_FIG4)
    for values, pinned in zip(got, STREAM_FIG4):
        assert values == pytest.approx(pinned, rel=1e-9)


def test_simulate_single_miner_no_forks(tmp_path):
    path = _write_config(tmp_path, default_config(num_miners=1))
    out = tmp_path / "one.csv"
    assert cli.main(["simulate", path, "--trials", "5000", "--blocks", "120", "--out", str(out)]) == 0
    _, rows = _rows(out.read_text())
    assert float(rows[0]["fork_rate"]) == 0.0
    assert float(rows[0]["p_n"]) == 1.0
    assert float(rows[0]["rounds_mean"]) == 1.0


def test_simulate_seed_override_changes_results(tmp_path):
    path = _write_config(tmp_path, default_config(num_miners=6))
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    cli.main(["simulate", path, "--trials", "2000", "--blocks", "120", "--seed", "1", "--out", str(out1)])
    cli.main(["simulate", path, "--trials", "2000", "--blocks", "120", "--seed", "2", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_trials_floor(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli.main(["simulate", path, "--trials", "50"]) == 1


def _command_args(tmp_path, command):
    if command == "simulate":
        return ["simulate", _write_config(tmp_path), "--trials", "100", "--blocks", "100"]
    return ["sweep", _sweep_file(tmp_path, "sweep_param = num_miners\nsweep_values = 1\n")]


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_workers_below_one_is_config_error(tmp_path, capsys, command, workers):
    assert cli.main(_command_args(tmp_path, command) + ["--workers", workers]) == 1
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--trials", "99"),
        ("--blocks", "99"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
        ("--seed", str(2**76)),
        ("--seed", "x"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_integer_flag_out_of_range_is_config_error(tmp_path, capsys, command, flag, value):
    assert cli.main(_command_args(tmp_path, command) + [flag, value]) == 1
    err = capsys.readouterr().err
    assert f"config error: argument {flag}" in err
    assert "Traceback" not in err


# --- sweep -------------------------------------------------------------------


def _sweep_file(tmp_path, extra, cfg=None):
    body = config_text(cfg or default_config()) + extra
    path = tmp_path / "sweep.txt"
    path.write_text(body)
    return str(path)


def test_sweep_miners_monotone(tmp_path):
    spec = _sweep_file(
        tmp_path,
        "sweep_param = num_miners\n"
        "sweep_values = 1, 2, 5, 10\n"
        "round_trials = 4000\nblock_trials = 120\n",
    )
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", spec, "--out", str(out)]) == 0
    header, rows = _rows(out.read_text())
    assert header == _readme_headers()["sweep"].split(",")
    assert len(rows) == 4
    analytic = [float(r["p_n_analytic"]) for r in rows]
    assert all(b <= a + 1e-8 for a, b in zip(analytic, analytic[1:]))
    assert analytic[0] == 1.0
    assert [r["param"] for r in rows] == ["num_miners"] * 4


def test_sweep_single_value_composes_with_commands(tmp_path):
    spec = _sweep_file(
        tmp_path,
        "sweep_param = num_miners\nsweep_values = 8\n"
        "round_trials = 3000\nblock_trials = 150\n",
    )
    out = tmp_path / "single.csv"
    assert cli.main(["sweep", spec, "--out", str(out)]) == 0
    _, rows = _rows(out.read_text())
    row = rows[0]

    config_path = _write_config(tmp_path, default_config(num_miners=8), "point.txt")
    a_out = tmp_path / "a.csv"
    assert cli.main(["analytic", config_path, "--out", str(a_out)]) == 0
    _, a_rows = _rows(a_out.read_text())
    assert row["p_n_analytic"] == a_rows[0]["p_n"]
    assert row["energy_analytic"] == a_rows[0]["energy_block"]
    assert row["e_s"] == a_rows[0]["e_s"]
    assert row["e_tm"] == a_rows[0]["e_tm"]
    assert row["e_tu"] == a_rows[0]["e_tu"]

    s_out = tmp_path / "s.csv"
    assert (
        cli.main(
            [
                "simulate",
                config_path,
                "--trials",
                "3000",
                "--blocks",
                "150",
                "--seed",
                row["seed"],
                "--out",
                str(s_out),
            ]
        )
        == 0
    )
    _, s_rows = _rows(s_out.read_text())
    assert row["p_n_sim"] == s_rows[0]["p_n"]
    assert row["p_n_se"] == s_rows[0]["p_n_se"]
    assert row["energy_sim"] == s_rows[0]["energy_mean"]
    assert row["rounds_mean"] == s_rows[0]["rounds_mean"]


def test_sweep_requires_spec_or_preset(capsys):
    assert cli.main(["sweep"]) == 1


def test_sweep_rejects_spec_with_preset(tmp_path, capsys):
    spec = _sweep_file(tmp_path, "sweep_param = num_miners\nsweep_values = 2\n")
    assert cli.main(["sweep", spec, "--preset", "fig2"]) == 1
    assert "config error: " in capsys.readouterr().err


def test_sweep_rejects_bad_spec(tmp_path):
    spec = _sweep_file(tmp_path, "sweep_param = num_miners\nsweep_values = 5, 2\n")
    assert cli.main(["sweep", spec]) == 1
    spec2 = _sweep_file(tmp_path, "sweep_param = carrier_frequency_hz\nsweep_values = 1, 2\n")
    assert cli.main(["sweep", spec2]) == 1
    spec3 = _sweep_file(tmp_path, "sweep_param = num_miners\n")
    assert cli.main(["sweep", spec3]) == 1


def test_sweep_spec_trials_must_be_integers(tmp_path, capsys):
    spec = _sweep_file(tmp_path, "sweep_param = num_miners\nsweep_values = 2\nround_trials = 1e5\n")
    out = tmp_path / "table.csv"
    assert cli.main(["sweep", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: round_trials and block_trials must be integers\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "param, values, message",
    [
        ("num_miners", "0, 2", "num_miners must be >= 1"),
        ("tx_power_w", "-1, 0.1", "tx_power_w must be positive"),
    ],
)
def test_sweep_bad_value_rejected_when_read(tmp_path, capsys, param, values, message):
    spec = _sweep_file(tmp_path, f"sweep_param = {param}\nsweep_values = {values}\n")
    out = tmp_path / "bad.csv"
    assert cli.main(["sweep", spec, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["round_trials", "block_trials"])
def test_sweep_spec_trials_floor(tmp_path, capsys, key):
    spec = _sweep_file(tmp_path, f"sweep_param = num_miners\nsweep_values = 2\n{key} = 99\n")
    out = tmp_path / "bad.csv"
    assert cli.main(["sweep", spec, "--out", str(out)]) == 1
    assert "config error: trials must be >= 100" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_preset_fig2_shape(tmp_path):
    out = tmp_path / "fig2.csv"
    assert (
        cli.main(
            ["sweep", "--preset", "fig2", "--out", str(out), "--trials", "500", "--blocks", "100"]
        )
        == 0
    )
    _, rows = _rows(out.read_text())
    assert len(rows) == 20
    assert [int(r["value"]) for r in rows] == list(range(1, 21))


def test_sweep_preset_deterministic_across_workers(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--preset", "fig2", "--trials", "800", "--blocks", "100"]
    assert cli.main(args + ["--out", str(a), "--workers", "1"]) == 0
    assert cli.main(args + ["--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def _counting_pool(monkeypatch):
    """Make the simulator's pools record their size and the task list of each
    ``map`` call; returns those two lists. The simulator imports the pool
    class from ``concurrent.futures`` when it starts one, so it is patched there."""
    started, maps = [], []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

        def map(self, fn, tasks, **kwargs):
            maps.append(list(tasks))
            return super().map(fn, maps[-1], **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return started, maps


def test_sweep_preset_fig4_bytes_hold_at_workers_1_2_4(tmp_path, monkeypatch):
    started, _ = _counting_pool(monkeypatch)
    monkeypatch.setattr(simulator, "_cpu_count", lambda: 4)  # 4 workers really start
    args = ["sweep", "--preset", "fig4", "--trials", "800", "--blocks", "100"]
    tables = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}.csv"
        assert cli.main(args + ["--out", str(out), "--workers", str(workers)]) == 0
        tables.append(out.read_bytes())
    assert started == [2, 4]
    assert tables[1] == tables[0] and tables[2] == tables[0]


def test_sweep_warnings_hold_across_workers(tmp_path, monkeypatch):
    # compute so fast that the fit of G would need more panels than its budget:
    # the analytic half fails at every point, and each warning carries a
    # QuadratureError back from a worker
    monkeypatch.setattr(simulator, "_cpu_count", lambda: 2)  # a real pool on any machine
    base = [
        line
        for line in config_text(default_config()).splitlines()
        if not line.startswith(("lambda0 ", "snr_threshold_db "))
    ]
    spec = tmp_path / "fast.txt"
    spec.write_text(
        "\n".join(base)
        + "\nlambda0 = 1000000\nsnr_threshold_db = 20\n"
        + "sweep_param = tx_power_w\nsweep_values = 0.1, 0.2\n"
        + "round_trials = 1000\nblock_trials = 100\n"
    )
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.csv"
        assert cli.main(["sweep", str(spec), "--out", str(out), "--workers", str(workers)]) == 0
        outputs.append((out.read_bytes(), Path(f"{out}.warnings").read_text()))
    assert outputs[1] == outputs[0]
    warnings = outputs[0][1].splitlines()
    assert len(warnings) == 2
    assert all("analytic failed: piecewise fit exceeded the panel budget" in w for w in warnings)
    assert all(w.count("error_estimate=") == 1 for w in warnings)
    # only the analytic half failed: its cells are empty, the simulation's filled
    _, rows = _rows(outputs[0][0].decode())
    assert len(rows) == 2
    analytic_cells = ("p_n_analytic", "energy_analytic", "e_s", "e_tm", "e_tu")
    simulated_cells = ("p_n_sim", "p_n_se", "energy_sim", "energy_se", "rounds_mean")
    for row in rows:
        assert all(row[c] == "" for c in analytic_cells)
        assert all(row[c] != "" for c in simulated_cells)


def test_sweep_starts_one_pool(tmp_path, monkeypatch):
    started, maps = _counting_pool(monkeypatch)
    monkeypatch.setattr(simulator, "_cpu_count", lambda: 2)  # a real pool on any machine
    # two round chunks per point, and an extension pass for its blocks where a round forks
    spec = _sweep_file(
        tmp_path,
        "sweep_param = num_miners\n"
        "sweep_values = 2, 5, 10\n"
        "round_trials = 8192\nblock_trials = 8192\n",
    )
    assert cli.main(["sweep", spec, "--workers", "2", "--out", str(tmp_path / "t.csv")]) == 0
    assert started == [2]
    assert len(maps) == 1  # the whole sweep is one task list: no barrier per point
    assert len(maps[0]) == 3  # one task per point, chunks and all
    one_point = _sweep_file(
        tmp_path,
        "sweep_param = num_miners\nsweep_values = 5\nround_trials = 8192\nblock_trials = 8192\n",
    )
    assert cli.main(["sweep", one_point, "--workers", "2", "--out", str(tmp_path / "1.csv")]) == 0
    assert started == [2] and len(maps) == 1  # one task runs here: no pool


def test_sweep_point_failure_warns_and_continues(tmp_path, monkeypatch):
    # 250 dB threshold kills the location success probability at that point;
    # at 2 workers both errors come back from inside a worker
    monkeypatch.setattr(simulator, "_cpu_count", lambda: 2)  # a real pool on any machine
    spec = _sweep_file(
        tmp_path,
        "sweep_param = snr_threshold_db\n"
        "sweep_values = 60, 250\n"
        "round_trials = 1000\nblock_trials = 100\n",
    )
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"partial{workers}.csv"
        assert cli.main(["sweep", spec, "--out", str(out), "--workers", str(workers)]) == 0
        sidecar = tmp_path / f"partial{workers}.csv.warnings"
        assert sidecar.exists()
        outputs.append((out.read_bytes(), sidecar.read_bytes()))
    assert outputs[1] == outputs[0]
    _, rows = _rows(outputs[0][0].decode())
    assert len(rows) == 2
    assert rows[0]["p_n_analytic"] != ""
    assert rows[1]["p_n_analytic"] == ""
    assert rows[1]["p_n_sim"] == ""
    assert rows[1]["seed"] != ""
    assert b"snr_threshold_db=250" in outputs[0][1]


def _threshold_spec(tmp_path, *fractions):
    """A sweep spec over thresholds at ``fractions`` x the default link's mean SNR."""
    link_snr = mean_snr(default_channel())
    values = ", ".join(repr(10 * math.log10(f * link_snr)) for f in fractions)
    return _sweep_file(
        tmp_path,
        "sweep_param = snr_threshold_db\n"
        f"sweep_values = {values}\n"
        "round_trials = 1000\nblock_trials = 100\n",
    )


def test_sweep_point_past_mixture_depth_cap_leaves_empty_cells(tmp_path):
    # at 25x only p_n needs the mixture; at 720x neither half can build the law
    spec = _threshold_spec(tmp_path, 1.0, 25.0, 720.0)
    out = tmp_path / "mixed.csv"
    done = _cli_in_child(["sweep", spec, "--out", str(out)])
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    header, rows = _rows(out.read_text())
    labels = ("param", "value", "seed", "config_hash")
    metrics = [c for c in header if c not in labels]
    analytic_cells = ("p_n_analytic", "energy_analytic", "e_s", "e_tm", "e_tu")
    assert len(rows) == 3
    assert all(rows[0][c] != "" for c in metrics)
    assert all((rows[1][c] == "") == (c in analytic_cells) for c in metrics)
    assert all(rows[2][c] == "" for c in metrics)
    warnings = (tmp_path / "mixed.csv.warnings").read_text().splitlines()
    assert len(warnings) == 3  # in point order: one for 25x, two for 720x
    assert "analytic failed: relocation mixture needs" in warnings[0]
    assert "analytic failed: mean relocation count" in warnings[1]
    assert "simulation failed: mean relocation count" in warnings[2]


def test_sweep_warning_names_its_point_by_repr_and_matches_the_row_as_a_float(tmp_path):
    # a warning reads <param>=<repr(value)>: <half> failed: <reason>, while the row's value
    # cell has 17 significant digits, so the two match as floats, not always as text
    spec = _threshold_spec(tmp_path, 1.0, 25.0)
    out = tmp_path / "two.csv"
    assert cli.main(["sweep", spec, "--workers", "1", "--out", str(out)]) == 0
    value = 10 * math.log10(25.0 * mean_snr(default_channel()))
    (warning,) = Path(f"{out}.warnings").read_text().splitlines()
    prefix, half, _ = warning.split(": ", 2)
    assert (prefix, half) == (f"snr_threshold_db={value!r}", "analytic failed")
    row = _rows(out.read_text())[1][1]
    assert float(prefix.split("=", 1)[1]) == float(row["value"])


def test_sweep_to_stdout_warns_on_stderr(tmp_path, monkeypatch, capsys):
    # with --out -, the CSV goes to stdout and each warning to stderr: no sidecar
    monkeypatch.chdir(tmp_path)
    spec = _threshold_spec(tmp_path, 1.0, 25.0)
    assert cli.main(["sweep", spec, "--out", "-"]) == 0
    captured = capsys.readouterr()
    header, rows = _rows(captured.out)
    assert header == list(cli.SWEEP_SCHEMA) and len(rows) == 2
    assert rows[0]["p_n_analytic"] != "" and rows[1]["p_n_analytic"] == ""
    assert rows[1]["p_n_sim"] != ""
    (warning,) = captured.err.splitlines()
    assert re.fullmatch(
        r"warning: snr_threshold_db=[\d.]+: analytic failed: relocation mixture needs .*", warning
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.txt"]


# the link of the forky simulation benchmark: p_n about 0.29, so most blocks fork
FORKY = default_config(20, tx_power_w=0.1, snr_fraction=6.0)


def test_simulate_warns_of_capped_blocks(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(simulator, "MAX_ROUNDS", 1)  # read by _cut, in this process
    path = _write_config(tmp_path, FORKY)
    args = ["simulate", path, "--trials", "1000", "--blocks", "200", "--workers", "1"]
    assert cli.main([*args, "--out", str(tmp_path / "row.csv")]) == 0
    capped = estimate(FORKY, num_blocks=200, num_round_trials=1000).capped_blocks
    assert 0 < capped < 200
    assert f"warning: {capped} block(s) hit the round cap" in capsys.readouterr().err


def test_sweep_warns_of_capped_blocks_by_point(tmp_path, monkeypatch):
    monkeypatch.setattr(simulator, "MAX_ROUNDS", 1)  # read by _cut, in this process
    spec = _sweep_file(
        tmp_path,
        "sweep_param = num_miners\nsweep_values = 1, 20\n"
        "round_trials = 1000\nblock_trials = 200\n",
        FORKY,
    )
    out = tmp_path / "capped.csv"
    assert cli.main(["sweep", spec, "--workers", "1", "--out", str(out)]) == 0
    # a lone miner never forks: only the point at I = 20 caps blocks
    (warning,) = Path(f"{out}.warnings").read_text().splitlines()
    assert re.fullmatch(r"num_miners=20: [1-9]\d* block\(s\) hit the round cap", warning)


def test_sweep_without_warnings_removes_stale_sidecar(tmp_path):
    out = tmp_path / "table.csv"
    sidecar = tmp_path / "table.csv.warnings"
    trials = "round_trials = 1000\nblock_trials = 100\n"
    swept = "sweep_param = snr_threshold_db\n"
    warned = _sweep_file(tmp_path, swept + "sweep_values = 60, 250\n" + trials)
    assert cli.main(["sweep", warned, "--out", str(out)]) == 0
    assert sidecar.exists()
    clean = _sweep_file(tmp_path, swept + "sweep_values = 60\n" + trials)
    assert cli.main(["sweep", clean, "--out", str(out)]) == 0
    assert not sidecar.exists()


def test_csv_float_format_17g(tmp_path):
    path = _write_config(tmp_path, default_config(num_miners=2))
    out = tmp_path / "fmt.csv"
    assert cli.main(["analytic", path, "--out", str(out)]) == 0
    text = out.read_text()
    assert "\r" not in text
    _, rows = _rows(text)
    value = rows[0]["e_tu"]
    assert float(value) and len(value.replace("-", "").replace(".", "").lstrip("0")) >= 15


# --- the columns --------------------------------------------------------------


def test_headers_match_the_readme(tmp_path):
    headers = _readme_headers()
    assert set(headers) == {"analytic", "simulate", "sweep"}
    trials = ["--trials", "100", "--blocks", "100"]
    config = _write_config(tmp_path)
    spec = _sweep_file(tmp_path, "sweep_param = num_miners\nsweep_values = 2\n")
    for command, args in [
        ("analytic", [config]),
        ("simulate", [config, *trials]),
        ("sweep", [spec, *trials]),
    ]:
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, *args, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == headers[command]


def test_cells_equal_the_library_values_they_name(tmp_path):
    # each column's value is named here, apart from the CLI's own table
    trials = {"num_round_trials": 2000, "num_blocks": 200}
    options = ["--trials", "2000", "--blocks", "200"]
    path = _write_config(tmp_path, default_config(num_miners=4))
    cfg = load_config(path)
    result = evaluate(cfg)
    analytic_cells = {
        "p_n": result.no_fork_prob,
        "p_n_err": result.quadrature_error,
        "e_s": result.exp_min_compute,
        "e_tm": result.exp_mobility,
        "e_tu": result.exp_uplink,
        "energy_round": result.exp_round_energy,
        "energy_block": result.avg_block_energy,
    }

    def provenance(config):
        return {"seed": config.rng_seed, "config_hash": config_digest(config)}

    def row_of(command, *args):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, *args, "--out", str(out)]) == 0
        (row,) = _rows(out.read_text())[1]
        return row

    def formatted(cells):
        return {name: cli._fmt(value) for name, value in cells.items()}

    assert row_of("analytic", path) == formatted({**analytic_cells, **provenance(cfg)})
    summary = estimate(cfg, **trials)
    simulate_cells = {
        "fork_rate": summary.fork_rate.value,
        "p_n": summary.no_fork_prob.value,
        "p_n_se": summary.no_fork_prob.se,
        "rounds_mean": summary.mean_rounds.value,
        "rounds_se": summary.mean_rounds.se,
        "energy_mean": summary.mean_block_energy.value,
        "energy_se": summary.mean_block_energy.se,
        "s_mean": summary.mean_winner_compute.value,
        "tm_mean": summary.mean_winner_move.value,
        "tu_mean": summary.mean_winner_uplink.value,
        "system_energy_mean": summary.mean_system_energy.value,
        "capped_blocks": summary.capped_blocks,
        "round_trials": summary.round_trials,
        "block_trials": summary.block_trials,
    }
    assert row_of("simulate", path, *options) == formatted({**simulate_cells, **provenance(cfg)})

    spec = _sweep_file(tmp_path, "sweep_param = num_miners\nsweep_values = 4\n", cfg)
    row = row_of("sweep", spec, *options)
    point = replace(cfg, rng_seed=int(row["seed"]))
    summary = estimate(point, **trials)
    assert row == formatted(
        {
            "param": "num_miners",
            "value": 4,
            "p_n_analytic": result.no_fork_prob,
            "p_n_sim": summary.no_fork_prob.value,
            "p_n_se": summary.no_fork_prob.se,
            "energy_analytic": result.avg_block_energy,
            "energy_sim": summary.mean_block_energy.value,
            "energy_se": summary.mean_block_energy.se,
            "rounds_mean": summary.mean_rounds.value,
            "e_s": result.exp_min_compute,
            "e_tm": result.exp_mobility,
            "e_tu": result.exp_uplink,
            **provenance(point),
        }
    )
    # a column whose source lacks the attribute it names raises, not an empty cell
    with pytest.raises(AttributeError, match="no_such_field"):
        cli._row({"p_n": "result.no_such_field"}, cfg, result=result)
