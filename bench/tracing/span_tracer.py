"""In-memory span tracer for the forkwork package, installed at run time.

``install`` wraps the public functions and public-class methods of the five
layers (``forkwork.model``, ``.channel``, ``.analytic``, ``.simulator``,
``.cli``) plus the simulator's pool task bodies, and rebinds every module
reference to them, so calls between layers pass through the wrappers.
Nothing under ``src/`` is edited.

Each process keeps its record in memory:

* per wrapped function: calls, inclusive time (outermost activation only),
  self time (inclusive minus wrapped children) and an item count (points,
  draws) where one is defined in ``ITEMS``; calls and items of an ``ITEMS``
  function made inside ``simulator.run_block`` are also counted under
  ``<name>@run_block``;
* a span (id, parent id, name, start, end) for each call of a ``COARSE``
  entry point, parented to the nearest enclosing coarse span.

A process writes its record to ``<trace dir>/<pid>.json`` when it ends: the
CLI process at interpreter exit, pool workers (forked or spawned) through a
multiprocessing finalizer registered when the worker starts.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

LAYERS = ("model", "channel", "analytic", "simulator", "cli")

# private functions that are pool task bodies: their time is worker busy time
TASKS = {"simulator": ("_round_chunk", "_block_chunk")}

COARSE = frozenset(
    {
        "cli.main",
        "cli.cmd_analytic",
        "cli.cmd_simulate",
        "cli.cmd_sweep",
        "model.load_config",
        "analytic.evaluate",
        "analytic.no_forking_probability",
        "analytic.expected_uplink_latency",
        "simulator.estimate",
        "simulator._round_chunk",
        "simulator._block_chunk",
    }
)


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _lag_points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


# item counters: uplink-density points evaluated and random draws made
ITEMS = {
    "channel.LatencyDistribution.uplink_pdf": _lag_points,
    "channel.sample_compute_latency": _result_size,
    "channel.sample_num_movements": _result_size,
    "channel.sample_snr_conditional": _result_size,
}

QUAD = "analytic.integrate_adaptive"  # items: integrand points, counted on the integrand

BLOCK_PATH = "simulator.run_block"  # ITEMS calls inside it are also counted apart


class Tracer:
    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s, items]
        self.active: dict[str, int] = {}  # name -> activations on the stack
        self.stack: list[list] = []  # frames: [child_s, span_id or None]
        self.spans: list[tuple] = []
        self.written = False

    def _reset(self):
        """Drop the state a forked child inherited; arm the write at its end."""
        self.pid = os.getpid()
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0, 0]
        self.active.clear()
        self.stack.clear()
        self.spans.clear()
        self.written = False
        mp_util.Finalize(self, self.write, exitpriority=100)

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def wrap(self, name, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        coarse = name in COARSE
        items = ITEMS.get(name)
        block_rec = self.stats.setdefault(f"{name}@run_block", [0, 0.0, 0.0, 0]) if items else None
        count_points = name == QUAD
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_points:
                args = (self._counting(rec, args[0]),) + args[1:]
            span_id = parent = None
            if coarse:
                parent = self._parent_span()
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [0.0, span_id]
            self.stack.append(frame)
            self.active[name] = self.active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += elapsed
                self.active[name] -= 1
                rec[0] += 1
                rec[2] += elapsed - frame[0]
                if self.active[name] == 0:
                    rec[1] += elapsed
                if coarse:
                    self.spans[span_id] = (span_id, parent, name, start, end)
            if items is not None:
                count = items(args, kwargs, result)
                rec[3] += count
                if self.active.get(BLOCK_PATH):
                    block_rec[0] += 1
                    block_rec[3] += count
            return result

        return wrapper

    @staticmethod
    def _counting(rec, f):
        """The integrand ``f``, counting the points it is evaluated at into ``rec``."""

        def integrand(x):
            rec[3] += int(np.size(x))
            return f(x)

        return integrand

    def write(self):
        if self.written or self.pid != os.getpid():
            return
        self.written = True
        record = {
            "pid": self.pid,
            "ppid": os.getppid(),
            "stats": {
                name: {"calls": c, "incl_s": i, "self_s": s, "items": n}
                for name, (c, i, s, n) in self.stats.items()
                if c
            },
            "spans": [s for s in self.spans if s is not None],
        }
        path = self.trace_dir / f"{self.pid}.json"
        path.write_text(json.dumps(record))


def _targets(layer, module):
    """(owner, attribute, qualified name, function) for everything to wrap."""
    for attr, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            if not attr.startswith("_") or attr in TASKS.get(layer, ()):
                yield module, attr, f"{layer}.{attr}", obj
        elif inspect.isclass(obj) and not attr.startswith("_"):
            for member_name, member in list(vars(obj).items()):
                if member_name.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, classmethod):
                    yield obj, member_name, f"{layer}.{attr}.{member_name}", member


def install(trace_dir) -> Tracer:
    """Wrap the forkwork layers in this process and arrange the write at exit."""
    tracer = Tracer(trace_dir)
    modules = [importlib.import_module(f"forkwork.{layer}") for layer in LAYERS]
    wrapped = {}  # original function -> wrapper
    for layer, module in zip(LAYERS, modules):
        for owner, attr, name, obj in _targets(layer, module):
            if isinstance(obj, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, obj.__func__)))
            else:
                wrapped[obj] = tracer.wrap(name, obj)
                setattr(owner, attr, wrapped[obj])
    # rebind every module-level reference, including `from .x import f` copies
    for module in [importlib.import_module("forkwork")] + modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    atexit.register(tracer.write)
    mp_util.register_after_fork(tracer, Tracer._reset)
    return tracer
