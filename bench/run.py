"""cfmoll benchmark: one workload, end-to-end or traced, in fresh child processes.

Run from the root of a checkout:

    python3 bench/run.py --workload invert-1d --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment, the tail percentile used and the
sample count.  Workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("invert-1d", "smooth-nd", "certify")
KINDS = (
    "accept04_gauss_grid", "gauss_point", "laplace_grid", "unif_laplace_grid",
    "laplace_point", "laplace_l1_bound", "cli_invert",
    "nd_gauss_238", "nd_corr_238", "nd_product_238", "nd_grid_wide_sigma", "nd_point",
    "empirical_50", "empirical_small", "csv_write_3d",
    "clt_certificate", "clt_certificate_k124", "cli_clt_demo", "cli_converge",
    "mc_sample", "mc_histogram", "mc_empirical_cf", "mc_tail_prob",
)
SETUP_PROBES = 7          # fresh interpreters timed for setup_s
TAIL_BEYOND = 10          # the tail percentile keeps at least this many tasks above it
DEADLINE_S = 170          # the whole benchmark ends within this, or fails without a result

END_TO_END = {
    "setup_s": "s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "err_budget_used": "ratio",
}
PER_TASK = "/task"
PER_LAYER = {
    "charfn.lattice_s": "s" + PER_TASK,
    "charfn.lattice_points": "count" + PER_TASK,
    "charfn.scan_s": "s" + PER_TASK,
    "charfn.scan_calls": "count" + PER_TASK,
    "charfn.peak_alloc_mb": "MB",
    "mollify.grid_self_s": "s" + PER_TASK,
    "mollify.point_self_s": "s" + PER_TASK,
    "mollify.nodes_per_output": "ratio",
    "mollify.peak_alloc_mb": "MB",
    "converge.self_s": "s" + PER_TASK,
    "converge.mollify_calls": "count" + PER_TASK,
    "montecarlo.self_s": "s" + PER_TASK,
    "montecarlo.draws": "count" + PER_TASK,
    "montecarlo.peak_alloc_mb": "MB",
    "grids.write_s": "s" + PER_TASK,
    "grids.rows_written": "count" + PER_TASK,
    "grids.bytes_written": "bytes" + PER_TASK,
    "cli.self_s": "s" + PER_TASK,
    "specs.load_s": "s" + PER_TASK,
    **{f"{layer}.failures": "count" for layer in
       ("charfn", "mollify", "converge", "montecarlo", "grids", "cli", "specs")},
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
    **{f"kind.{k}.p50_ms": "ms" for k in KINDS},
    **{f"kind.{k}.peak_alloc_mb": "MB" for k in KINDS},
}
# layer sums that are divided by the number of traced tasks
PER_TASK_SUMS = tuple(k for k, u in PER_LAYER.items() if u.endswith(PER_TASK))


class BenchError(RuntimeError):
    pass


def _child(mode: str, args, work: Path, nproc: int, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--nproc", str(nproc),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{mode} child printed no result: {exc}") from exc


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile that leaves at least
    TAIL_BEYOND samples above it: the (TAIL_BEYOND + 1)-th largest."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND - 1) / (n - 1)


def end_to_end(run: dict, setups: list[dict]) -> tuple[dict, dict]:
    lat = [1e3 * dt for _, _, dt in run["latencies"]]
    if not lat:
        raise BenchError("no task completed")
    tail_ms, pct = tail(lat)
    # Each deck task counts once in the median and the rate, however often it
    # ran: a run that ends partway through a deck cycle then keeps the deck's mix.
    by_key: dict[str, list[float]] = {}
    for _, key, dt in run["latencies"]:
        by_key.setdefault(key, []).append(1e3 * dt)
    key_ms = [(statistics.median(v), statistics.fmean(v)) for v in by_key.values()]
    values = {
        "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setups),
        "task_p50_ms": statistics.median(p50 for p50, _ in key_ms),
        "task_tail_ms": tail_ms,
        "tasks_per_s": 1e3 * len(key_ms) / sum(mean for _, mean in key_ms),
        "peak_rss_mb": run["peak_rss_mb"],
        "err_budget_used": run["err_budget_used"],
    }
    info = {"tail_percentile": pct, "samples": len(lat), "deck_tasks_run": len(by_key),
            "busy_s": run["busy_s"]}
    return values, info


def per_layer(run: dict, setups: list[dict]) -> dict:
    layers = run["layers"]
    traced_tasks = max(1, len(run["latencies"]))
    values = {}
    for name in PER_LAYER:
        v = layers.get(name, 0.0)
        values[name] = v / traced_tasks if name in PER_TASK_SUMS else v
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["setup.build_s"] = statistics.median(s["build_s"] for s in setups)
    values["trace.overhead_frac"] = run["trace_overhead_frac"]
    values["fail_frac"] = run["failed"] / run["attempted"]
    by_kind: dict[str, list[float]] = {}
    for kind, _, dt in run["latencies"]:
        if kind not in KINDS:
            raise BenchError(f"task kind {kind} is missing from KINDS")
        by_kind.setdefault(kind, []).append(1e3 * dt)
    for kind in KINDS:
        # a kind that is not part of this workload reads 0
        values[f"kind.{kind}.p50_ms"] = statistics.median(by_kind[kind]) if kind in by_kind else 0.0
        values[f"kind.{kind}.peak_alloc_mb"] = run["kind_peak_mb"].get(kind, 0.0)
    return values


def measure(args, root: Path) -> tuple[dict, dict]:
    """Set-up probes and one timed child; returns (info line, result line)."""
    deadline = time.monotonic() + DEADLINE_S
    src = root / "src"
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = [_child("setup", args, work, nproc, env, deadline) for _ in range(SETUP_PROBES)]
        run = _child("run", args, work, nproc, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if not run["env"]["cfmoll"].startswith(str(src)):
        raise BenchError(f"imported cfmoll from {run['env']['cfmoll']}, not {src}")

    e2e, info = end_to_end(run, setups)
    values, units = (per_layer(run, setups), PER_LAYER) if args.trace else (e2e, END_TO_END)
    info.update({"workload": args.workload, "trace": args.trace, "env": run["env"],
                 "problems": run["problems"], "fail_frac": run["failed"] / run["attempted"],
                 "err_budget_used": run["err_budget_used"]})
    result = {
        "correct": run["failed"] == 0 and run["err_budget_used"] <= 1.0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return info, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cfmoll" / "__init__.py").is_file():
        print(f"bench: no cfmoll sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        info, result = measure(args, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
