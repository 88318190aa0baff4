"""Smoke test of the benchmark itself: a tiny run of every workload, plain and
traced, must print every metric named in BENCHMARK.json with its unit,
report no failed task and pass its reference checks.

    python3 bench/smoke.py            # from the root of a checkout

Exits 0 when every run passes; prints one line per run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SECONDS = "2"


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line), json.loads(result_line)


def check(spec: dict, workload: str, trace: int) -> str:
    info, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    assert result["attempted"] >= 1 and result["failed"] == 0, info["problems"]
    assert info["fail_frac"] == 0.0
    if trace:
        assert result["metrics"]["fail_frac"]["value"] == 0.0
    assert result["correct"], info
    return f"ok {workload} trace={trace}: {result['attempted']} tasks, err_budget_used {info['err_budget_used']:.3g}"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            try:
                print(check(spec, w["name"], trace), flush=True)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                failures += 1
                print(f"FAIL {w['name']} trace={trace}: {exc}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
