"""Smoke test of the benchmark itself: one short run per workload, untraced
and traced twice.

    python3 perfbench/smoke.py

It checks the result line's schema against ``BENCHMARK.json``, that no
response failed its output check, and that the traced ``.calls`` repeat
exactly between two runs on one seed.  It checks no timing, so wall clock
cannot make it flaky; it is not collected by pytest and stays out of the
repository's test suite.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check(result: dict, specs: list[dict], what: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{what}: correct={result['correct']} failed={result['failed']}"
                        f" attempted={result['attempted']}")
    expected = {s["name"]: s["unit"] for s in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{what}: metric names or units differ: "
                        f"{sorted(set(got.items()) ^ set(expected.items()))[:4]}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append(f"{what}: a metric value is not a number")
    return problems


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        untraced = _run(workload, 0)
        problems += _check(untraced, SPEC["end_to_end"], f"{workload} trace=0")
        problems += [f"{workload}: {name} is not positive"
                     for name, m in untraced["metrics"].items() if not m["value"] > 0]
        first, second = _run(workload, 1), _run(workload, 1)
        for n, traced in enumerate((first, second)):
            problems += _check(traced, SPEC["per_layer"], f"{workload} trace=1 run {n}")
        calls = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(".calls")}
                 for r in (first, second)]
        if calls[0] != calls[1]:
            problems.append(f"{workload}: .calls differ between two traced runs")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
