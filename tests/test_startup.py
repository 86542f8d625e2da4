"""What a fresh process loads: ``import forkwork`` alone loads no numpy,
``import forkwork.cli`` loads neither the analytic nor the simulator half, a
CLI command loads no pool machinery, no ``numpy.ma`` and no half it does not
use, a sweep loads both halves before it starts a pool, and the CLI caps the
BLAS threads before numpy loads. ``analytic`` and loading a config load neither
``numpy.polynomial`` nor OpenSSL (``_hashlib``): the CSV's config hash takes
SHA-256 from the interpreter's builtin module. ``simulate`` and ``sweep`` still
load ``_hashlib``, through ``numpy.random`` and its ``secrets`` import. Each
check runs in a child interpreter, since this process has long since imported
all of it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import forkwork
from forkwork.model import config_text, default_config

PACKAGE_ROOT = str(Path(forkwork.__file__).resolve().parents[1])


def _child(code, *, env=None):
    """stdout of ``python -c code`` run with this package first on its path and
    OPENBLAS_NUM_THREADS set as ``env`` says (absent if not given)."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join([PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**base, **(env or {}), "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_forkwork_loads_no_numpy():
    code = "import sys, forkwork; print('numpy' in sys.modules)"
    assert _child(code) == "False\n"


def test_every_exported_name_resolves_and_is_listed():
    # in a fresh process: dir() lists every export before any is loaded
    code = (
        "import sys, forkwork\n"
        "missing = set(forkwork.__all__) - set(dir(forkwork))\n"
        "print(sorted(missing), 'numpy' in sys.modules)\n"
        "for name in forkwork.__all__: getattr(forkwork, name)\n"
    )
    assert _child(code) == "[] False\n"
    for name in forkwork.__all__:
        module = sys.modules[getattr(forkwork, name).__module__]
        assert module.__name__.startswith("forkwork.") and getattr(module, name) is getattr(forkwork, name)
    assert {"__version__", "evaluate"} <= set(dir(forkwork))
    with pytest.raises(AttributeError, match="no_such_name"):
        forkwork.no_such_name  # noqa: B018


HALVES = ("forkwork.analytic", "forkwork.simulator")


@pytest.mark.parametrize(
    "args, other_half",
    [
        (
            ["analytic"],
            ("forkwork.simulator", "numpy.random", "numpy.polynomial", "hashlib", "_hashlib"),
        ),
        (
            ["simulate", "--trials", "2000", "--blocks", "100", "--workers", "1"],
            ("forkwork.analytic", "numpy.polynomial"),
        ),
    ],
    ids=["analytic", "simulate-1-worker"],
)
def test_cli_command_loads_no_pool_machinery_or_numpy_ma(tmp_path, args, other_half):
    config = tmp_path / "config.txt"
    config.write_text(config_text(default_config()))
    out = tmp_path / "out.csv"
    command = [args[0], str(config), *args[1:], "--out", str(out)]
    code = (
        "import sys\n"
        "from forkwork.cli import main\n"
        f"assert main({command!r}) == 0\n"
        "unused = ('multiprocessing', 'concurrent.futures.process', 'numpy.ma')\n"
        f"unused += {other_half!r}\n"
        "print(sorted(m for m in unused if m in sys.modules))\n"
    )
    assert _child(code) == "[]\n"
    assert out.read_text().count("\n") == 2  # the command ran: header and one row


def test_loading_a_config_loads_no_openssl(tmp_path):
    # the benchmark's set-up path: the CLI imported and an input config parsed
    config = tmp_path / "config.txt"
    config.write_text(config_text(default_config()))
    code = (
        "import sys\n"
        "from forkwork.cli import main\n"
        "from forkwork import load_config\n"
        f"load_config({str(config)!r})\n"
        "print([m for m in ('_hashlib', 'hashlib') if m in sys.modules])\n"
    )
    assert _child(code) == "[]\n"


def test_cli_import_loads_neither_half_and_sweep_both_before_its_pool(tmp_path):
    # the halves that import forkwork.cli loaded, then those loaded when the
    # sweep enters _run_tasks, which forks the workers that inherit them
    spec = tmp_path / "spec.txt"
    sweep_keys = "sweep_param = num_miners\nsweep_values = 1, 2\n"
    spec.write_text(config_text(default_config()) + sweep_keys)
    command = ["sweep", str(spec), "--trials", "100", "--blocks", "100", "--workers", "2",
               "--out", str(tmp_path / "out.csv")]
    code = (
        "import sys\n"
        f"halves = lambda: sorted(m for m in {HALVES!r} if m in sys.modules)\n"
        "import forkwork.cli\n"
        "seen = [halves()]\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == '_run_tasks' and len(seen) == 1:\n"
        "        seen.append(halves())\n"
        "sys.setprofile(watch)\n"
        f"code = forkwork.cli.main({command!r})\n"
        "sys.setprofile(None)\n"
        "assert code == 0\n"
        "print(seen)\n"
    )
    assert _child(code) == f"[[], {sorted(HALVES)!r}]\n"


# Records the value of OPENBLAS_NUM_THREADS at the moment numpy is first
# imported, which is when OpenBLAS reads it.
_WATCH_NUMPY = """
import os, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Watch())
"""


@pytest.mark.parametrize("user_value, numpy_sees", [(None, "1"), ("2", "2")])
def test_cli_caps_blas_threads_before_numpy_loads(user_value, numpy_sees):
    env = {} if user_value is None else {"OPENBLAS_NUM_THREADS": user_value}
    code = _WATCH_NUMPY + "import forkwork.cli\nprint(seen)\n"
    assert _child(code, env=env) == f"[{numpy_sees!r}]\n"


def test_library_import_leaves_blas_threads_alone():
    code = _WATCH_NUMPY + "import forkwork\nforkwork.evaluate\nprint(seen)\n"
    assert _child(code) == "[None]\n"
