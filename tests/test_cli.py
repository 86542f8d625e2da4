import math

import pytest

from forkwork import cli
from forkwork.analytic import QuadratureError
from forkwork.model import config_text, default_config


def _write_config(tmp_path, cfg=None, name="config.txt"):
    path = tmp_path / name
    path.write_text(config_text(cfg or default_config()))
    return str(path)


def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


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
    real = cli.evaluate

    def counting(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(cli, "evaluate", counting)
    assert cli.main(["analytic", path, "--out", str(tmp_path / "row.csv")]) == 0
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


def test_quadrature_failure_exit_code(tmp_path, monkeypatch, capsys):
    path = _write_config(tmp_path)

    def boom(config):
        raise QuadratureError("forced", value=0.0, error_estimate=1.0)

    monkeypatch.setattr(cli, "evaluate", boom)
    assert cli.main(["analytic", path]) == 2
    assert "quadrature failure" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert cli.main(["analytic"]) == 1
    assert cli.main(["not-a-command"]) == 1


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
    assert header == cli.SWEEP_COLUMNS.split(",")
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


def test_sweep_rejects_bad_spec(tmp_path):
    spec = _sweep_file(tmp_path, "sweep_param = num_miners\nsweep_values = 5, 2\n")
    assert cli.main(["sweep", spec]) == 1
    spec2 = _sweep_file(tmp_path, "sweep_param = carrier_frequency_hz\nsweep_values = 1, 2\n")
    assert cli.main(["sweep", spec2]) == 1
    spec3 = _sweep_file(tmp_path, "sweep_param = num_miners\n")
    assert cli.main(["sweep", spec3]) == 1


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


def test_sweep_starts_one_pool(tmp_path, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    from forkwork import simulator

    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(simulator, "_pool", None)
    # two round chunks and two block chunks per point, three points
    spec = _sweep_file(
        tmp_path,
        "sweep_param = num_miners\n"
        "sweep_values = 2, 5, 10\n"
        "round_trials = 8192\nblock_trials = 512\n",
    )
    try:
        assert cli.main(["sweep", spec, "--workers", "2", "--out", str(tmp_path / "t.csv")]) == 0
    finally:
        if simulator._pool is not None:
            simulator._pool[1].shutdown()
    assert started == [2]


def test_sweep_point_failure_warns_and_continues(tmp_path):
    # 250 dB threshold kills the location success probability at that point
    spec = _sweep_file(
        tmp_path,
        "sweep_param = snr_threshold_db\n"
        "sweep_values = 60, 250\n"
        "round_trials = 1000\nblock_trials = 100\n",
    )
    out = tmp_path / "partial.csv"
    assert cli.main(["sweep", spec, "--out", str(out)]) == 0
    _, rows = _rows(out.read_text())
    assert len(rows) == 2
    assert rows[0]["p_n_analytic"] != ""
    assert rows[1]["p_n_analytic"] == ""
    assert rows[1]["p_n_sim"] == ""
    assert rows[1]["seed"] != ""
    sidecar = tmp_path / "partial.csv.warnings"
    assert sidecar.exists()
    assert "snr_threshold_db=250" in sidecar.read_text()


def test_csv_float_format_17g(tmp_path):
    path = _write_config(tmp_path, default_config(num_miners=2))
    out = tmp_path / "fmt.csv"
    assert cli.main(["analytic", path, "--out", str(out)]) == 0
    text = out.read_text()
    assert "\r" not in text
    _, rows = _rows(text)
    value = rows[0]["e_tu"]
    assert float(value) and len(value.replace("-", "").replace(".", "").lstrip("0")) >= 15
