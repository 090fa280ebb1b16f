"""What the kernel tests share: the ways the operator is computed, the
previous kernels they are compared with, and the cases they run.

A path is one way apply_dp_grid computes D, named by a string and set by
``_forced_path`` (the ``path`` fixture of conftest.py sets the one its
test is parametrized with):

- ``numpy``: the numpy kernel in one range, as without a C compiler;
- ``split-2``, ``split-3``: the numpy kernel at every p, every span of at
  least 8k slots cut into k ranges, whatever the host's CPU count;
- ``compiled``: the library ``_ckernel.load()`` builds, at p = 2, 3, 4,
  in one call that sums every row, as on one CPU;
- ``compiled-2``, ``compiled-3``: that library in k calls that claim
  rows from one counter, one row a claim, on every grid of k rows or
  more (so never in 1D), whatever the host's CPU count;
- ``clone:<target>``: that library's source built for one clone target
  alone, since a CPU's loader picks only one of the clones, in one call.

On every path nothing may fork, and each range thread is recorded as it
starts and as it is joined: a path of k ranges starts k - 1 threads per
apply, and a one-range path starts none. A path that cannot run here
skips.
"""

import contextlib
import ctypes
import functools
import os
import re
import shlex
import subprocess
import tempfile
import threading
import types
from dataclasses import dataclass

import numpy as np
import pytest

from plapfd import Stencil, sample_on_grid, stencil_1d, stencil_ball, stencil_for
from plapfd import _ckernel, operators
from plapfd.operators import _signed_power

# each clone's target as a whole-file flag, and the CPU flags it needs
_TARGETS = {
    "x86-64": ("-march=x86-64", ()),
    "avx2": ("-mavx2", ("avx2",)),
    "x86-64-v4": ("-march=x86-64-v4", ("avx512f", "avx512vl", "avx512dq", "avx512bw")),
}

_PATHS = ("numpy", "split-2", "split-3", "compiled", "compiled-2", "compiled-3",
          *(f"clone:{t}" for t in _TARGETS))


def _serves(path, p):
    # the compiled paths serve p = 2, 3 and 4 only
    return p in (2.0, 3.0, 4.0) or not path.startswith(("compiled", "clone:"))


@dataclass
class _Path:
    compiled: bool
    ranges: int  # of an apply large enough to split: k on split-k and compiled-k, else 1
    started: list  # every range thread, as it starts
    joined: set  # every range thread a join found ended
    threads: int  # threading.active_count() when the path was set

    def idle(self):
        # every range thread started so far was joined, and no other is
        # left; a count, since a run asks at each of its levels
        return len(self.joined) == len(self.started) and threading.active_count() == self.threads


@contextlib.contextmanager
def _forced_path(name):
    compiled = name.startswith(("compiled", "clone:"))
    k = int(name.rpartition("-")[2]) if name.startswith(("split-", "compiled-")) else 1
    with pytest.MonkeyPatch.context() as mp:
        if name.startswith("compiled"):
            _require_compiled()
        elif compiled:
            lib = _clone_library(name[len("clone:"):])
            if isinstance(lib, str):
                pytest.skip(lib)
            mp.setattr(_ckernel, "kernel", lambda p: getattr(lib, f"plapfd_apply_p{int(p)}"))
        else:
            mp.setattr(_ckernel, "load", lambda: None)
        mp.setattr(operators, "_PARALLEL_WORK", 1)
        mp.setattr(operators, "_PARALLEL_NODE_PASSES", 1)
        mp.setattr(operators, "_CLAIM_NODE_PASSES", 1)
        mp.setattr(operators, "_cpu_count", lambda: k)
        mp.setattr(os, "fork", _refuse_fork)
        started, joined = [], set()

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

            def join(self, timeout=None):
                super().join(timeout)
                if not self.is_alive():
                    joined.add(self)

        mp.setattr(operators, "threading", types.SimpleNamespace(Thread=Thread))
        yield _Path(compiled, k, started, joined, threading.active_count())


def _range_calls(work):
    # a workspace's calls, one per range: those its _run_ranges partial
    # makes, or its one call itself
    call = work._call
    return call.args[0] if call.func is operators._run_ranges else [call]


def _refuse_fork():
    raise AssertionError("the operator forked")


def _require_compiled():
    if _ckernel.load() is None:
        pytest.skip("the compiled kernel did not build here (no C compiler, or CC=false)")


def _cpu_flags():
    try:
        with open("/proc/cpuinfo") as f:
            lines = f.read().splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags") for flag in line.split(":", 1)[1].split()}


@functools.cache
def _clone_library(target):
    # the library's source without its clones, built with $CC for one
    # target alone and loaded, or why it could not be
    flag, needs = _TARGETS[target]
    missing = set(needs) - _cpu_flags()
    if missing:
        return f"this CPU lacks {sorted(missing)}"
    source, n = re.subn(r"^#if defined\(__x86_64__\).*?^#endif\n", "#define CLONES\n",
                        _ckernel._SOURCE, flags=re.S | re.M)
    assert n == 1, "the library's CLONES guard was not found"
    cc = shlex.split(os.environ.get("CC") or "cc")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kernel.so")
        try:
            built = subprocess.run([*cc, *_ckernel._FLAGS, flag, "-o", path, "-x", "c", "-"],
                                   input=source.encode(), capture_output=True, timeout=120)
        except OSError as exc:
            return f"no compiler: {exc}"
        if built.returncode != 0:
            return f"{cc} {flag} did not build: {built.stderr.decode()[-200:]}"
        return _ckernel.declare(ctypes.CDLL(path))


# zeros of both signs, the smallest subnormals, and magnitudes whose
# differences overflow inside the power (1e300) or in the subtraction (1e308)
_EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e308, -1e308])


def _nan_aside(values):
    # the bytes with every NaN made one NaN: the compiled kernel promises
    # numpy's bits on finite values and infinities, and NaN where numpy
    # has NaN, but not numpy's NaN payloads
    out = np.array(values)
    out[np.isnan(out)] = np.nan
    return out.tobytes()


def _axis_pair_stencil_2d(h, p):
    # the pair +-(3, 0) alone: the middle pair's edge pass reaches three
    # padded rows past each range
    w = 0.25 * (3.0 * h) ** -p
    return Stencil(d=2, h=h, r=3.0 * h, p=p, offsets=[[-3, 0], [3, 0]], weights=[w, w])


def _far_pair_stencil_1d(h, p):
    # the pairs +-20 and +-21: s_1 = 20 slots, longer than the 8- and
    # 16-slot ranges of a 41-node grid split three ways
    w = 0.25 * (21.0 * h) ** -p
    return Stencil(d=1, h=h, r=21.0 * h, p=p, offsets=[[-21], [-20], [20], [21]],
                   weights=[w] * 4)


# (d, stencil maker, n): nodes per side 2n + 1
_SPLIT_CASES = {
    "1d-two-point": (1, lambda p: stencil_1d(0.1, p), 20),
    "1d-far-pair": (1, lambda p: _far_pair_stencil_1d(0.1, p), 20),
    "2d-ball": (2, lambda p: stencil_ball(0.3, 0.1, p, 2), 5),
    "2d-axis-pair": (2, lambda p: _axis_pair_stencil_2d(0.1, p), 2),
    "3d-ball": (3, lambda p: stencil_ball(0.25, 0.1, p, 3), 3),
}


def _signed_power_reference(xi, p):
    if p == 2.0:
        return xi
    with np.errstate(over="ignore"):
        return np.abs(xi) ** (p - 2.0) * xi


def _np_padded(field, m):
    # the field widened by m nodes per side under its extension rule,
    # through np.pad rather than the kernel's own GridField._fill_padded
    return np.pad(field.values, m, mode="constant" if field.extension == "zero" else "edge")


def _apply_dp_grid_padded_reference(stencil, field):
    # the array kernel before in-place buffers: padded once, one full-grid
    # temporary per operation and offset
    acc = np.zeros_like(field.values)
    m = int(np.max(np.abs(stencil.offsets)))
    padded = _np_padded(field, m)
    size = field.values.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, beta in enumerate(stencil.offsets.tolist()):
            shift = padded[tuple(slice(m + b, m + b + size) for b in beta)]
            acc += _signed_power_reference(shift - field.values, stencil.p) * stencil.weights[k]
    return acc


def _apply_dp_grid_row_view_reference(stencil, field):
    # the d >= 2 workspace kernel before flat spans: each offset reads a
    # fixed d-dimensional view of the padded copy, made of rows that mostly
    # start off a cache line, into full-grid buffers
    m = int(np.max(np.abs(stencil.offsets)))
    padded = _np_padded(field, m)
    size = field.values.shape[0]
    acc = np.zeros(field.values.shape)
    diff = np.empty(field.values.shape)
    term = np.empty(field.values.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for beta, w in zip(stencil.offsets.tolist(), stencil.weights.tolist()):
            shift = padded[tuple(slice(m + c, m + c + size) for c in beta)]
            np.subtract(shift, field.values, out=diff)
            np.multiply(_signed_power(diff, stencil.p, term), np.array(w), out=term)
            np.add(acc, term, out=acc)
    return acc


def _aligned_empty(n):
    # np.empty(n) starting on a 64-byte line, as the earlier kernels
    # allocated their scratch
    raw = np.empty(n + 8)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip : skip + n]


class _PreviousWorkspace:
    # the workspace kernel before its two layouts became one: in d = 1 an
    # edge pass for every pair (offset -k subtracts the head of its edge
    # terms, +k adds their tail, the first head written as +0 - P), in
    # d >= 2 one pass per offset over the flat span

    def __init__(self, stencil, shape, extension):
        self.stencil = stencil
        self.shape = shape
        self.extension = extension
        self.reach = m = int(np.max(np.abs(stencil.offsets)))
        weights = [np.array(w) for w in stencil.weights.tolist()]
        size = shape[0]
        self.padded = padded = np.zeros((size + 2 * m,) * len(shape))
        self.interior = padded[(slice(m, m + size),) * len(shape)]
        if len(shape) == 1:
            diff = np.empty(size + m)
            edges = {}
            self.heads, self.tails = [], []
            for (b,), w in zip(stencil.offsets.tolist(), weights):
                if b < 0:
                    k = -b
                    edges[k] = edge = np.empty(size + k)
                    hi, lo = padded[m : m + size + k], padded[m - k : m + size]
                    self.heads.append((hi, lo, diff[: size + k], edge, w, edge[:size]))
                else:
                    self.tails.append(edges[b][b:])
        else:
            strides = [s // padded.itemsize for s in padded.strides]
            start, span = m * sum(strides), (size - 1) * sum(strides) + 1
            flat = padded.reshape(-1)
            self.base = flat[start : start + span]
            self.terms = []
            for beta, w in zip(stencil.offsets.tolist(), weights):
                at = start + sum(b * s for b, s in zip(beta, strides))
                self.terms.append((flat[at : at + span], w))
            self.diff, self.term = _aligned_empty(span), _aligned_empty(span)
            rows = _aligned_empty(size * strides[0])
            self.acc = rows[:span]
            self.acc_interior = rows.reshape((size,) + padded.shape[1:])[
                (slice(0, size),) * len(shape)
            ]

    def apply(self, field):
        field._fill_padded(self.reach, self.padded, self.interior)
        p = self.stencil.p
        if field.d == 1:
            acc = np.empty(self.shape)
            lhs = 0.0
            for hi, lo, diff, edge, w, head in self.heads:
                np.subtract(hi, lo, out=diff)
                np.multiply(_signed_power(diff, p, edge), w, out=edge)
                np.subtract(lhs, head, out=acc)
                lhs = acc
            for tail in self.tails:
                np.add(acc, tail, out=acc)
            return acc
        base, diff, term, acc = self.base, self.diff, self.term, self.acc
        acc.fill(0.0)
        for shift, w in self.terms:
            np.subtract(shift, base, out=diff)
            np.multiply(_signed_power(diff, p, term), w, out=term)
            np.add(acc, term, out=acc)
        return self.acc_interior.copy()


def _apply_dp_grid_previous_workspace(stencil, field):
    with np.errstate(over="ignore", invalid="ignore"):
        return _PreviousWorkspace(stencil, field.values.shape, field.extension).apply(field)


def _reference_levels(kernel, cfg, data):
    # the node values of U^0 .. U^N of cfg's run, stepped as U + tau *
    # (D U + f) with the reference kernel(stencil, field) as D:
    # explicit_step before the in-place update, with fresh temporaries
    # and each level validated again by with_values. A level with a
    # non-finite node, where the run blows up, is the last one
    stencil = stencil_for(cfg)
    args = (cfg.d, cfg.h, cfg.half_width, cfg.extension)
    f = sample_on_grid(data.f, *args).values
    field = sample_on_grid(data.u0, *args)
    levels = [field.values]
    for _ in range(cfg.N):
        rate = kernel(stencil, field)
        with np.errstate(over="ignore", invalid="ignore"):
            levels.append(field.values + cfg.tau * (rate + f))
        if not np.all(np.isfinite(levels[-1])):
            break
        field = field.with_values(levels[-1])
    return levels
