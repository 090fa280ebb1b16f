"""Spans around plapfd's public functions, recorded from outside the package.

Nothing in ``src/`` is edited. ``patch_everywhere`` rebinds a function in
every plapfd module that imported it by name, so calls made between
modules (``stepping`` calling ``apply_dp_grid``, ``analysis`` calling
``iter_levels``) go through the wrapper too. ``Tracer`` keeps spans in
flat in-memory arrays (name, start, end, parent, run, work) and
``Tracer.save`` writes them once, at the end of a run.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter_ns

import numpy as np

import plapfd
from plapfd import analysis, cli, errors, exact, mollifier, operators, stepping

MODULES = (plapfd, analysis, cli, errors, exact, mollifier, operators, stepping)


def patch_everywhere(original, replacement) -> list:
    """Rebind every module-level name bound to ``original``; return the undo list."""
    undo = []
    for mod in MODULES:
        for name, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    if not undo:
        raise RuntimeError(f"{original!r} is not bound in any plapfd module")
    return undo


def unpatch(undo) -> None:
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)


# Bytes one node.offset update streams through memory in apply_dp_grid as
# written at this commit: the shifted read (zero extension: zeros_like plus
# a slice copy, 24 B; clamped extension: one gather, 16 B), the difference
# (24 B), the signed power (abs, pow and product, 56 B; skipped at p = 2),
# the weight product (16 B) and the accumulation (24 B). A model of the
# kernel's array passes, not a hardware counter.
def apply_bytes_per_update(p: float, extension: str) -> int:
    shifted = 24 if extension == "zero" else 16
    power = 0 if p == 2.0 else 56
    return shifted + 24 + power + 16 + 24


def _count_apply(tracer, i, args) -> None:
    stencil, field = args[0], args[1]
    updates = len(stencil) * field.values.size
    tracer.work[i] = updates
    tracer.add("operators.bytes_moved_computed", updates * apply_bytes_per_update(stencil.p, field.extension))


def _count_snapshot(tracer, i, args) -> None:
    size = os.path.getsize(args[0])
    tracer.work[i] = size
    tracer.add("cli.snapshot_bytes", size)
    tracer.add("cli.snapshot_files", 1)


# (module, function, counter) for every wrapped boundary; iter_levels is a
# generator and gets one span per level instead of one per call
TARGETS = (
    (operators, "apply_dp_grid", _count_apply),
    (operators, "stencil_1d", None),
    (operators, "stencil_ball", None),
    (operators, "sample_on_grid", None),
    (stepping, "plan_config", None),
    (stepping, "stencil_for", None),
    (stepping, "iter_levels", None),
    (stepping, "explicit_step", None),
    (stepping, "solve", None),
    (exact, "barenblatt_eval", None),
    (exact, "barenblatt_data", None),
    (mollifier, "mollifier_constants", None),
    (analysis, "convergence_study", None),
    (analysis, "barenblatt_error_row", None),
    (analysis, "run_property_suite", None),
    (analysis, "sup_error", None),
    (cli, "main", None),
    (cli, "_resolve", None),
    (cli, "_build_data", None),
    (cli, "_plan", None),
    (cli, "_write_snapshot", _count_snapshot),
)

GENERATORS = {"iter_levels"}


class Tracer:
    """In-memory span store. ``begin(kind)`` opens a run (a set-up, a
    workload unit or a probe); every span opened until the next ``begin``
    carries that run's id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.kinds: list[str] = []
        self.counters: list[dict] = []
        self._stack: list[int] = []
        self._undo: list = []

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, kind: str) -> None:
        self.kinds.append(kind)
        self.counters.append({})

    def add(self, counter: str, value) -> None:
        bucket = self.counters[-1]
        bucket[counter] = bucket.get(counter, 0) + value

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(len(self.kinds) - 1)
        self.work.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        nid = self.nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                count(self, i, args)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        # one span per next(): ".start" holds set-up and U^0, each ".step"
        # one explicit step, ".end" the exhausted call after U^N
        start, step, end = (self.nid(f"{name}.{s}") for s in ("start", "step", "end"))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            nid = start
            try:
                while True:
                    i = self.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self.name[i] = end
                        return
                    finally:
                        self.close(i)
                    nid = step
                    yield item
            finally:
                gen.close()

        return traced

    def install(self) -> None:
        """Wrap every target in whatever form it currently has."""
        for mod, fname, count in TARGETS:
            fn = getattr(mod, fname)
            name = f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}"
            if fname in GENERATORS:
                wrapped = self._wrap_generator(fn, name)
            else:
                wrapped = self._wrap(fn, name, count)
            self._undo.extend(patch_everywhere(fn, wrapped))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            kinds=np.array(self.kinds),
            **self.arrays(),
        )


# ------------------------------------------------------------- per-layer view

class Spans:
    """Column view of a tracer's spans with the questions layer_metrics asks."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.tracer = tracer
        self.name = a["name"]
        self.parent = a["parent"]
        self.run = a["run"]
        self.work = a["work"]
        self.dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        self.kind = np.array(tracer.kinds)[self.run]
        names = np.array(tracer.names)
        self.module = np.array([n.split(".", 1)[0] for n in tracer.names])[self.name]
        self.fname = names[self.name]
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child
        self.parent_name = np.where(has_parent, names[self.name[np.maximum(self.parent, 0)]], "")

    def runs(self, kind: str) -> list[int]:
        return [i for i, k in enumerate(self.tracer.kinds) if k == kind]

    def mask(self, kind: str, *names) -> np.ndarray:
        m = self.kind == kind
        return m & np.isin(self.fname, names) if names else m

    def per_run(self, kind: str, *names) -> list[float]:
        """Total duration of the named spans in each run of ``kind``."""
        m = self.mask(kind, *names)
        return [float(self.dur[m & (self.run == r)].sum()) for r in self.runs(kind)]

    def counter(self, kind: str, name: str) -> float:
        runs = self.runs(kind)
        return sum(self.tracer.counters[r].get(name, 0) for r in runs) / len(runs)


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics, and the run kind each probed layer was read from.

    Sums are per traced unit. A layer missing from the workload's own path
    is read from its probe run instead.
    """
    s = Spans(tracer)
    unit = s.mask("unit")
    src = {
        "cli": "unit" if np.any(unit & (s.fname == "cli.main")) else "probe:cli",
        "analysis.checks": (
            "unit" if np.any(unit & (s.fname == "analysis.run_property_suite")) else "probe:analysis"
        ),
        "analysis": "unit" if np.any(unit & (s.module == "analysis")) else "probe:analysis",
    }
    units = len(s.runs("unit"))
    out = {}

    apply = s.mask("unit", "operators.apply_dp_grid")
    out["operators.apply_ns_per_node_offset"] = 1e9 * s.dur[apply].sum() / s.work[apply].sum()
    out["operators.node_offset_updates"] = int(s.work[apply].sum()) // units
    out["operators.bytes_moved_computed"] = int(s.counter("unit", "operators.bytes_moved_computed"))
    out["operators.stencil_build_s"] = float(
        np.median(s.per_run("setup", "operators.stencil_1d", "operators.stencil_ball"))
    )
    out["operators.stencil_build_3d_s"] = sum(s.per_run("probe:stencil3d", "operators.stencil_ball"))

    steps = s.mask("unit", "stepping.iter_levels.step")
    step_us = s.dur[steps] * 1e6
    in_steps = apply & (s.parent_name == "stepping.explicit_step")
    out["stepping.step_us_p50"] = float(np.percentile(step_us, 50))
    out["stepping.step_us_p99"] = float(np.percentile(step_us, 99))
    out["stepping.overhead_us_per_step"] = 1e6 * (s.dur[steps].sum() - s.dur[in_steps].sum()) / steps.sum()
    out["stepping.steps"] = int(steps.sum()) // units
    out["stepping.plan_s"] = float(np.median(s.per_run("setup", "stepping.plan_config")))

    evals = s.mask("unit", "exact.barenblatt_eval")
    out["exact.eval_us_per_call"] = 1e6 * s.dur[evals].sum() / evals.sum()
    out["exact.eval_calls"] = int(evals.sum()) // units

    kind = src["analysis.checks"]
    suite = s.per_run(kind, "analysis.run_property_suite")
    solves = s.mask(kind, "stepping.solve") & (s.parent_name == "analysis.run_property_suite")
    out["analysis.checks_s"] = (sum(suite) - s.dur[solves].sum()) / len(suite)

    out["mollifier.constants_s"] = float(np.median(s.per_run("setup", "mollifier.mollifier_constants")))

    kind = src["cli"]
    out["cli.snapshot_s"] = float(np.mean(s.per_run(kind, "cli._write_snapshot")))
    out["cli.snapshot_bytes"] = int(s.counter(kind, "cli.snapshot_bytes"))
    out["cli.snapshot_files"] = int(s.counter(kind, "cli.snapshot_files"))
    out["cli.resolve_s"] = float(np.mean(s.per_run(kind, "cli._resolve")))

    for module in ("operators", "stepping", "exact", "analysis", "cli"):
        kind = src.get(module, "unit")
        m = s.mask(kind) & (s.module == module)
        out[f"{module}.self_s"] = float(s.self_time[m].sum()) / len(s.runs(kind))
    out["trace.spans_per_unit"] = int(unit.sum()) // units
    return out, src
