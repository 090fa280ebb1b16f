#!/usr/bin/env python3
"""plapfd benchmark: one workload per process, one process at a time.

    python3 perfbench/run.py --workload conv1d --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json: set-up
time (median over fresh interpreters), the median wall time of repeated
workload units, node updates per second, peak RSS and the Barenblatt
error. ``--trace 1`` wraps plapfd's public functions in spans, alternates
traced and untraced units, and reports the per-layer metrics. Every unit's
outputs are checked bit for bit against ``digests.json``; a unit that
raises or misses a digest counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full report
(quartiles, sample counts, environment, gate details) goes to
``.perfbench_out/`` at the repository root, as do the spans of a traced
run. ``--record`` rewrites ``digests.json`` from the current sources;
``--size tiny`` selects the small inputs that ``smoke.py`` uses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 7
TRACED_SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    # the kernels are elementwise numpy; one BLAS/OpenMP thread keeps any
    # library pool from competing with the measured process on 2 cores
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record", action="store_true", help="rewrite digests.json for --size")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def load_plapfd():
    """Import plapfd from this checkout's src/ and nowhere else."""
    if not (SRC / "plapfd" / "__init__.py").is_file():
        raise SystemExit(f"error: plapfd sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import plapfd

    if Path(plapfd.__file__).resolve().parent != SRC / "plapfd":
        raise SystemExit(f"error: imported plapfd from {plapfd.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_child(args) -> int:
    """Time one cold set-up: import, data, plan, stencil, first constants."""
    start = time.perf_counter()
    workloads = load_plapfd()
    wl = workloads.WORKLOADS[args.workload](args.size, args.seed, str(OUT))
    wl.setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def time_setup(args) -> float:
    """One cold set-up in a fresh interpreter, run while this process waits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------- environment

def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    source = hashlib.sha256()
    for path in sorted((SRC / "plapfd").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "seed": seed,
        "git_commit": _commit(),
        "source_sha256": source.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ----------------------------------------------------------------------- gate

class Gate:
    """Compares each unit's outputs with the digests recorded for its size."""

    def __init__(self, workload: str, size: str, record: bool):
        self.record = record
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.expected = None if record else recorded.get(size, {}).get(workload)
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, outputs: dict | None) -> bool:
        self.attempted += 1
        if outputs is None:
            self.failed += 1
            return False
        if self.record and self.expected is None:
            self.expected = outputs
        bad = []
        if self.expected is None:
            bad.append("no digests recorded for this workload and size")
        else:
            for key in sorted(set(self.expected) | set(outputs)):
                want, got = self.expected.get(key), outputs.get(key)
                if want != got:
                    bad.append(f"{key}: expected {want}, got {got}")
        if bad:
            self.failed += 1
            self.mismatches.extend(bad[:5])
            for line in bad[:5]:
                print(f"gate: unit {self.attempted}: {line}", file=sys.stderr)
        return not bad


def run_unit(wl, capture, gate):
    """One gated unit; returns (wall time, outputs), or None if it raised."""
    capture.reset()
    try:
        start = time.perf_counter()
        result = wl.run()
        elapsed = time.perf_counter() - start
        outputs = wl.outputs(result, capture)
    except Exception:
        traceback.print_exc()
        gate.check(None)
        return None
    gate.check(outputs)
    return elapsed, outputs


# -------------------------------------------------------------------- metrics

def summary(samples) -> dict:
    values = sorted(samples)
    out = {"mean": statistics.fmean(values), "median": statistics.median(values), "n": len(values),
           "min": values[0], "max": values[-1], "samples": list(samples)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["p25"], out["p75"] = q[0], q[2]
    # the highest percentile with at least ten samples above it
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def measure(args, workloads, wl, gate) -> tuple[dict, dict]:
    """One untimed warm-up unit, then gated units repeated for ``--seconds``,
    with the set-up children spread evenly over the same window (their own
    time is not counted in it). The warm-up is gated like the others."""
    wl.setup()
    capture = workloads.Capture(wl.keeps_trajectories)
    walls, setups, rss, work, sup_error = [], [], [], None, None
    run_unit(wl, capture, gate)
    start = time.perf_counter()
    paused = 0.0
    try:
        while not walls or time.perf_counter() - start - paused < args.seconds:
            if len(setups) * args.seconds <= (time.perf_counter() - start - paused) * SETUP_REPEATS:
                before = time.perf_counter()
                setups.append(time_setup(args))
                paused += time.perf_counter() - before
            unit = run_unit(wl, capture, gate)
            if unit is None:
                if gate.attempted >= 3 and not walls:
                    break
                continue
            walls.append(unit[0])
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            if work is None:
                work = capture.node_updates()
                sup_error = float(unit[1]["sup_error"])
    finally:
        capture.close()
    if not walls:
        raise SystemExit("error: no unit completed")
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(args))
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "node_updates_per_s": work / wall,
        "peak_rss_mb": rss[0],
        "sup_error": sup_error,
    }
    detail = {
        "wall_s": summary(walls),
        "setup_s": summary(setups),
        "peak_rss_mb_after_unit": rss,
        "node_updates_per_unit": work,
        "failed_frac": gate.failed / gate.attempted,
    }
    return metrics, detail


def measure_traced(args, workloads, wl, gate) -> tuple[dict, dict]:
    """Traced set-ups, then untraced and traced units in alternation for half
    of ``--seconds``, then one unit under tracemalloc, then the probes. The
    probes come last because the d = 3 stencil leaves the allocator in a
    state that changes how the 2D kernel pages (see README)."""
    import tracemalloc

    import tracing

    start = time.perf_counter()
    tracer = tracing.Tracer()
    wl.setup()
    for _ in range(TRACED_SETUP_REPEATS):
        workloads.clear_mollifier_cache()
        tracer.begin("setup")
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()

    capture = workloads.Capture(wl.keeps_trajectories)
    plain, traced, faults = [], [], []
    try:
        while not traced or time.perf_counter() - start < args.seconds / 2:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            unit = run_unit(wl, capture, gate)
            if unit is None:
                break
            plain.append(unit[0])
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            tracer.begin("unit")
            tracer.install()
            try:
                unit = run_unit(wl, capture, gate)
            finally:
                tracer.uninstall()
            if unit is None:
                break
            traced.append(unit[0])
        tracemalloc.start()
        try:
            run_unit(wl, capture, gate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        capture.close()
    if not traced:
        raise SystemExit("error: no traced unit completed")
    probes = {
        "probe:stencil3d": workloads.probe_stencil_3d,
        "probe:cli": lambda: workloads.probe_cli(str(OUT)),
        "probe:analysis": lambda: workloads.probe_analysis(args.seed),
    }
    for kind, probe in probes.items():
        tracer.begin(kind)
        tracer.install()
        try:
            probe()
        finally:
            tracer.uninstall()
    tracer.save(str(OUT / f"spans-{args.workload}.npz"))
    metrics, sources = tracing.layer_metrics(tracer)
    metrics["analysis.tracemalloc_peak_mb"] = peak / 2**20
    metrics["process.minor_faults"] = statistics.median(faults)
    untraced = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - untraced
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced
    detail = {
        "wall_s_untraced": summary(plain),
        "wall_s_traced": summary(traced),
        "layer_sources": sources,
        "failed_frac": gate.failed / gate.attempted,
    }
    return metrics, detail


# ----------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if args.setup_child:
        return setup_child(args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = load_plapfd()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    wl = workloads.WORKLOADS[args.workload](args.size, args.seed, str(OUT))
    gate = Gate(args.workload, args.size, args.record)
    try:
        if args.trace:
            metrics, detail = measure_traced(args, workloads, wl, gate)
        else:
            metrics, detail = measure(args, workloads, wl, gate)
    finally:
        wl.close()
    if args.record:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        recorded.setdefault(args.size, {})[args.workload] = gate.expected
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    table = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in table if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"units={gate.attempted} failed={gate.failed}")
    print("env " + json.dumps(env, sort_keys=True))
    for m in table:
        extra = detail.get(m["name"], {})
        spread = "".join(f" {k}={extra[k]:.6g}" for k in ("median", "p25", "p75", "p90", "p99") if k in extra)
        count = f" n={extra['n']}" if "n" in extra else ""
        print(f"  {m['name']:<36} {metrics[m['name']]:>16.8g} {m['unit']:<6} [{m['better']}]{spread}{count}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "env": env,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"], "better": m["better"]} for m in table},
        "detail": detail,
        "gate": {"attempted": gate.attempted, "failed": gate.failed, "mismatches": gate.mismatches},
    }
    name = f"{args.workload}-{args.size}-trace{args.trace}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
