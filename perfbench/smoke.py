#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on the tiny inputs.

    python3 perfbench/smoke.py

For every workload and both trace modes it runs ``run.py --size tiny``
and asserts that the run exits 0, passes its output gate, and prints a
last line with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``, holding every metric of BENCHMARK.json's table with its unit;
the written report must carry the same unit and direction. Last, it checks
that a directory holding only BENCHMARK.json and perfbench/ makes the
benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("conv1d", "ball2d", "props_theory", "cli_snapshots")


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: gate correct={result.get('correct')} failed={result.get('failed')}")
    table = bench["per_layer" if trace else "end_to_end"]
    if set(result.get("metrics", {})) != {m["name"] for m in table}:
        errors.append(f"{where}: metrics {sorted(result.get('metrics', {}))}")
    report = json.loads((OUT / f"{workload}-tiny-trace{trace}-seed7.json").read_text())
    for m in table:
        got = result["metrics"].get(m["name"], {})
        listed = report["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} printed as {got}")
        if listed.get("unit") != m["unit"] or listed.get("better") != m["better"]:
            errors.append(f"{where}: {m['name']} reported as {listed}")
    return errors


def check_bare() -> list[str]:
    """Without src/, the benchmark must fail and print no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        cmd = [sys.executable, "perfbench/run.py", "--workload", "conv1d", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(bench, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    found = check_bare()
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    errors += found
    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
