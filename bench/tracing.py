"""Spans around the public calls of each cfmoll layer, recorded from the
benchmark's side only.

``Api`` is what a task calls.  Untraced, its attributes are the plain
cfmoll functions.  Traced, each public function is wrapped in a span, every
CharFn is rebuilt around a timed copy of its evaluator, and the module
attributes that cfmoll resolves internally (``cfmoll.converge`` calling
``mollified_density_grid``, ``cfmoll.cli`` calling ``make_cf`` and friends)
are swapped for wrapped versions, only while a traced task runs.

A span's self time is its duration minus its child spans.  Memory peaks
come from ``tracemalloc``, which runs during traced tasks only: each open
span keeps the highest traced total seen while it was open, and its peak
allocation is that total minus the total at its start.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import cfmoll
import cfmoll.cli
import cfmoll.converge
from cfmoll import CharFn

LAYERS = ("charfn", "mollify", "converge", "montecarlo", "grids", "cli", "specs")

MOLLIFY_GRID = ("mollified_density_grid", "invert_density_grid")
MOLLIFY_POINT = ("mollified_density_at", "invert_density_at", "cf_l1_bound")
PUBLIC = {
    "mollify": MOLLIFY_GRID + MOLLIFY_POINT,
    "converge": ("convergence_certificate", "l1_distance"),
    "montecarlo": ("sample", "empirical_cf", "mc_tail_prob", "mollified_histogram"),
    "grids": ("write_density_csv",),
    "specs": ("load_spec",),
}
# cfmoll.cli resolves these names in its own namespace
CLI_NAMES = (
    "invert_density_grid", "mollified_density_grid", "convergence_certificate",
    "write_density_csv", "load_spec",
)
MB = 1024.0 * 1024.0


class _Frame:
    __slots__ = ("layer", "name", "parent", "t0", "child_s", "mem0", "mem_peak")

    def __init__(self, layer, name, parent, mem0):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.mem0 = mem0
        self.mem_peak = mem0
        self.t0 = time.perf_counter()


class Tracer:
    """In-memory span aggregates for one traced run."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.sums = defaultdict(float)   # metric name -> accumulated value
        self.peaks = defaultdict(float)  # layer -> peak allocation in bytes
        self.failures = defaultdict(int)

    def _mem_mark(self) -> int:
        if not tracemalloc.is_tracing():
            return 0
        cur, peak = tracemalloc.get_traced_memory()
        for f in self.stack:
            f.mem_peak = max(f.mem_peak, peak)
        tracemalloc.reset_peak()
        return cur

    def call(self, layer: str, name: str, fn, args, kwargs, count=None):
        parent = self.stack[-1] if self.stack else None
        frame = _Frame(layer, name, parent, self._mem_mark())
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failures[layer] += 1
            raise
        finally:
            dur = time.perf_counter() - frame.t0
            self._mem_mark()
            self.stack.pop()
            if parent is not None:
                parent.child_s += dur
            self._record(frame, dur)
        if count is not None:
            for key, val in count(args, result).items():
                self.sums[key] += val
        return result

    def _record(self, f: _Frame, dur: float) -> None:
        self_s = dur - f.child_s
        self.peaks[f.layer] = max(self.peaks[f.layer], f.mem_peak - f.mem0)
        s = self.sums
        if f.layer == "charfn":
            if f.name == "_weight_tensor":
                s["charfn.lattice_s"] += dur
            elif f.name == "_decay_radii":
                s["charfn.scan_s"] += dur
        elif f.layer == "mollify":
            s["mollify.grid_self_s" if f.name in MOLLIFY_GRID else "mollify.point_self_s"] += self_s
        elif f.layer == "converge":
            s["converge.self_s"] += self_s
        elif f.layer == "montecarlo":
            s["montecarlo.self_s"] += self_s
        elif f.layer == "grids":
            s["grids.write_s"] += dur
        elif f.layer == "cli":
            s["cli.self_s"] += self_s
        elif f.layer == "specs":
            s["specs.load_s"] += dur
        if f.layer == "mollify" and f.parent is not None and f.parent.layer == "converge":
            s["converge.mollify_calls"] += 1

    def task_peak(self, fn):
        """Run ``fn`` as the outermost span; returns (result, peak bytes)."""
        frame = _Frame("task", "task", None, self._mem_mark())
        self.stack.append(frame)
        try:
            result = fn()
        finally:
            self._mem_mark()
            self.stack.pop()
        return result, frame.mem_peak - frame.mem0

    def charfn(self, cf: CharFn) -> CharFn:
        """The same CF, its evaluator timed; lattice and decay-scan calls are
        told apart by the mollify function that made them."""
        inner = cf.batch_eval

        def ev(pts):
            caller = sys._getframe(1).f_code.co_name
            return self.call("charfn", caller, inner, (pts,), {}, functools.partial(_count_cf, caller))

        return CharFn(cf.d, ev, cf.integrable, cf.provenance)

    def metrics(self) -> dict[str, float]:
        out = {k: float(v) for k, v in self.sums.items()}
        for layer in LAYERS:
            out[f"{layer}.failures"] = self.failures[layer] + out.get(f"{layer}.failures", 0.0)
        for layer in ("charfn", "mollify", "montecarlo"):
            out[f"{layer}.peak_alloc_mb"] = self.peaks[layer] / MB
        lattice = out.get("charfn.lattice_points", 0.0)
        outputs = out.pop("mollify.outputs", 0.0)
        out["mollify.nodes_per_output"] = lattice / outputs if outputs else 0.0
        return out


def _count_cf(caller, args, result):
    n = float(len(args[0]))
    if caller == "_weight_tensor":
        return {"charfn.lattice_points": n}
    if caller == "_decay_radii":
        return {"charfn.scan_calls": 1.0}
    return {}


GRID_ARG = {"mollified_density_grid": 2, "invert_density_grid": 1}
DRAWS_ARG = {"sample": 1, "mc_tail_prob": 2, "mollified_histogram": 3}


def _count_mollify(name, args, result):
    # output points: the grid's size, or 1 for pointwise calls and cf_l1_bound
    return {"mollify.outputs": float(args[GRID_ARG[name]].size) if name in GRID_ARG else 1.0}


def _count_mc(name, args, result):
    return {"montecarlo.draws": float(args[DRAWS_ARG[name]])} if name in DRAWS_ARG else {}


def _count_grids(name, args, result):
    field, path = args[0], args[1]
    return {
        "grids.rows_written": float(field.grid.size),
        "grids.bytes_written": float(os.path.getsize(path) + os.path.getsize(result)),
    }


def _count_cli(name, args, result):
    # the CLI reports failures as exit codes rather than exceptions
    return {"cli.failures": float(result != 0)}


# per-layer counts, taken from a call's arguments and result
COUNTERS = {"mollify": _count_mollify, "montecarlo": _count_mc, "grids": _count_grids, "cli": _count_cli}


class Api:
    """The cfmoll entry points a task may call, plain or traced."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for layer, names in PUBLIC.items():
            for name in names:
                setattr(self, name, self._wrap(layer, name, getattr(cfmoll, name)))
        self.cli_main = self._wrap("cli", "main", cfmoll.cli.main)

    def _wrap(self, layer, name, fn):
        if self.tracer is None:
            return fn
        tracer = self.tracer
        count = functools.partial(COUNTERS[layer], name) if layer in COUNTERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs, count)

        return wrapper

    def cf(self, cf: CharFn) -> CharFn:
        return cf if self.tracer is None else self.tracer.charfn(cf)

    @contextlib.contextmanager
    def patched(self):
        """Swap cfmoll's internal references for traced ones (traced only)."""
        if self.tracer is None:
            yield
            return
        saved = [(cfmoll.converge, "mollified_density_grid")]
        saved += [(cfmoll.cli, n) for n in CLI_NAMES + ("make_cf",)]
        old = [getattr(mod, n) for mod, n in saved]
        try:
            cfmoll.converge.mollified_density_grid = self.mollified_density_grid
            for n in CLI_NAMES:
                setattr(cfmoll.cli, n, getattr(self, n))
            cfmoll.cli.make_cf = lambda spec: self.cf(cfmoll.make_cf(spec))
            yield
        finally:
            for (mod, n), fn in zip(saved, old):
                setattr(mod, n, fn)
