"""One benchmark child process: a fresh interpreter for one workload.

    python3 bench/child.py setup --workload W --seed N --work DIR
    python3 bench/child.py run   --workload W --seed N --work DIR --seconds S --trace 0|1

``setup`` times ``import cfmoll`` and building the workload's deck, then
exits.  ``run`` does the same, then runs the deck as a closed loop with a
single caller for S seconds of task time.  With ``--trace 1`` every task
runs twice in a row, plain and then traced, the two outputs must have the
same bytes, and the S seconds cover both runs.  Either mode prints one
JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()
import cfmoll  # noqa: E402

IMPORT_S = time.perf_counter() - T0

BROKEN = 1e9   # error ratio recorded for a NaN or infinite error


def _setup(args):
    import workloads

    t0 = time.perf_counter()
    deck = workloads.build(args.workload, args.seed, Path(args.work), args.nproc)
    return deck, time.perf_counter() - t0


class Run:
    """Closed-loop execution of a deck with per-task checks."""

    def __init__(self, deck, trace: bool):
        import tracing

        self.deck = deck
        self.plain = tracing.Api()
        self.tracer = tracing.Tracer() if trace else None
        self.traced = tracing.Api(self.tracer) if trace else None
        self.latencies: list[tuple[str, str, float]] = []   # (kind, key, seconds)
        self.traced_s = 0.0
        self.paired_s = 0.0   # untraced time of the tasks that were also traced
        self.peaks: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.ratios: dict[str, float] = {}
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []

    def _fail(self, task, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{task.kind}/{task.key}: {why}")

    def _digest(self, task, out) -> str:
        return hashlib.sha256(task.digest(out)).hexdigest()

    def _check(self, task, out) -> bool:
        """Reference check on the first output of a key; a repeat must have
        the same bytes, which implies the same check outcome."""
        digest = self._digest(task, out)
        if task.key not in self.digests:
            ratio = max((err / tol for err, tol in task.check(out)), default=0.0)
            self.ratios[task.key] = ratio if math.isfinite(ratio) else BROKEN
            self.digests[task.key] = digest
        elif digest != self.digests[task.key]:
            self._fail(task, "output bytes differ from an earlier run of the same task")
            return False
        if self.ratios[task.key] > 1.0:
            self._fail(task, f"error {self.ratios[task.key]:.3g} x tolerance")
            return False
        return True

    def _traced(self, task, plain_out, plain_s):
        import tracemalloc

        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with self.traced.patched():
                out, peak = self.tracer.task_peak(lambda: task.run(self.traced))
        finally:
            dt = time.perf_counter() - t0
            tracemalloc.stop()
        self.traced_s += dt
        self.paired_s += plain_s
        self.peaks[task.kind] = max(self.peaks.get(task.kind, 0.0), peak / (1024.0 * 1024.0))
        if self._digest(task, out) != self._digest(task, plain_out):
            raise RuntimeError("traced output differs from the untraced output")

    def loop(self, seconds: float) -> float:
        for task in self.deck:
            if task.prepare is not None:
                task.prepare()
        busy = 0.0   # time inside task calls; checks and traced reruns are outside
        i = 0
        while busy + self.traced_s < seconds:
            task = self.deck[i % len(self.deck)]
            i += 1
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = task.run(self.plain)
                dt = time.perf_counter() - t0
            except Exception as exc:  # a failing task is counted, the loop goes on
                busy += time.perf_counter() - t0
                self._fail(task, f"raised {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                continue
            busy += dt
            self.latencies.append((task.kind, task.key, dt))
            try:
                ok = self._check(task, out)
                if ok and self.tracer is not None:
                    self._traced(task, out, dt)
            except Exception as exc:
                self._fail(task, f"check raised {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        return busy


def _env(args) -> dict:
    import platform

    import numpy
    import scipy

    import workloads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": args.nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": args.seed,
        "workers": workloads.workers(args.workload, args.nproc),
        "cfmoll": str(Path(cfmoll.__file__).parent),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--nproc", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    deck, build_s = _setup(args)
    result = {"import_s": IMPORT_S, "build_s": build_s}
    if args.mode == "run":
        run = Run(deck, bool(args.trace))
        busy = run.loop(args.seconds)
        result.update({
            "attempted": run.attempted,
            "failed": run.failed,
            "problems": run.problems,
            "latencies": run.latencies,
            "busy_s": busy,
            "err_budget_used": max(run.ratios.values(), default=BROKEN),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": _env(args),
        })
        if run.tracer is not None:
            result["layers"] = run.tracer.metrics()
            result["kind_peak_mb"] = run.peaks
            result["trace_overhead_frac"] = run.traced_s / run.paired_s - 1.0 if run.paired_s else 0.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
