"""Discrete p-Laplace operators on uniform grids.

The operator acts on node values ``U`` over the lattice ``h * Z^d`` as

    (D U)(x) = sum_beta  jp(U(x + h*beta) - U(x)) * w_beta,

where ``jp(xi) = |xi|^(p-2) * xi`` and the weights ``w`` are nonnegative,
symmetric under ``beta -> -beta``, and supported in a ball of radius ``r``.
Two constructions are provided: the two-point stencil in one dimension
(``r = h``) and the uniform ball stencil for ``d >= 2``, whose common weight
is calibrated through the constant ``dpd_constant(d, p)`` so that the
operator is consistent with the p-Laplacian on smooth functions.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import _ckernel
from .errors import ConfigurationError

# multiplicative slack for validation of float identities
_REL_SLACK = 1e-12

# rows per block of Stencil's reach check: its floats then take about
# 200 KiB, whatever the stencil's size
_REACH_ROWS = 1 << 13


# The parameter rules, one helper each (with _check_a in stepping). They
# raise ConfigurationError, a ValueError, so the CLI maps them to exit 2.
def _check_p(p) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 2.0:
        raise ConfigurationError(f"p must be ≥ 2 (got {p})")
    return p


def _positive(name: str, v) -> float:
    v = float(v)
    if not (v > 0.0) or not math.isfinite(v):
        raise ConfigurationError(f"{name} must be finite and positive (got {v})")
    return v


def _nonnegative(name: str, v) -> float:
    v = float(v)
    if not math.isfinite(v) or v < 0.0:
        raise ConfigurationError(f"{name} must be finite and >= 0 (got {v})")
    return v


def _integer(name: str, v, least: int = 1) -> int:
    """The rule for dimensions and step counts: an integer value >= least."""
    try:
        ok = int(v) == v and v >= least
    except (OverflowError, TypeError, ValueError):  # inf, nan, None or a string
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be an integer >= {least} (got {v})")
    return int(v)


def _one_of(name: str, value, choices: tuple):
    """The rule for named choices: ``value`` must be one of ``choices``."""
    if value not in choices:
        raise ConfigurationError(f"{name} must be one of {choices} (got {value!r})")
    return value


def _signed_power(xi, p, out):
    """Write ``|xi|^(p-2) * xi`` into ``out`` (same shape) and return it.

    The one evaluation of the signed power, shared by jp, apply_dp and
    apply_dp_grid, and bit-identical to ``np.abs(xi) ** (p-2) * xi`` for
    every ``p``. The power overflows only where the result does: for
    ``|xi| >= 1``, ``|xi|^(p-2) <= |xi|^(p-1)``. No input validation, and
    no ``errstate``: callers silence overflow (to inf, caught by the
    blow-up check).
    """
    if p == 2.0:
        np.copyto(out, xi)
    elif p == 3.0:
        np.abs(xi, out=out)
        np.multiply(out, xi, out=out)
    elif p == 4.0:
        # x*x equals |x|**2; a third factor |x| at p = 5 would not match **3
        np.multiply(xi, xi, out=out)
        np.multiply(out, xi, out=out)
    else:
        np.abs(xi, out=out)
        np.power(out, p - 2.0, out=out)
        np.multiply(out, xi, out=out)
    return out


def jp(xi, p):
    """Signed power ``jp(xi) = |xi|^(p-2) * xi`` for ``p >= 2``.

    Odd and nondecreasing in ``xi`` with ``jp(0) = 0``; the identity map at
    ``p = 2`` (a copy of the input, without arithmetic, so results are
    bit-exact). Magnitudes whose (p-1)-th power underflows come back as
    signed zero, which is harmless inside the scheme.

    Accepts a scalar or an ndarray. Raises ``ValueError`` for ``p < 2`` or
    non-finite input.
    """
    p = _check_p(p)
    arr = np.array(xi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("jp requires finite input")
    with np.errstate(over="ignore"):
        out = _signed_power(arr, p, np.empty_like(arr))
    if np.isscalar(xi) or arr.ndim == 0:
        return float(out)
    return out


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d."""
    d = _integer("d", d)
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def dpd_constant(d: int, p) -> float:
    """Normalizing constant for the uniform ball stencil.

    Equals ``d/(2(d+p))`` times the average of ``|y_1|^p`` over the unit
    sphere, evaluated in closed form through Gamma functions:

        (d / (4 sqrt(pi))) * ((p-1)/(d+p)) * G(d/2) G((p-1)/2) / G((d+p)/2).

    Relative accuracy is well below 1e-12 over the supported range.
    """
    p = _check_p(p)
    d = _integer("d", d)
    front = d / (4.0 * math.sqrt(math.pi)) * (p - 1.0) / (d + p)
    if (d + p) / 2.0 < 170.0:
        ratio = math.gamma(d / 2.0) * math.gamma((p - 1.0) / 2.0) / math.gamma((d + p) / 2.0)
    else:
        ratio = math.gamma(d / 2.0) * math.exp(
            math.lgamma((p - 1.0) / 2.0) - math.lgamma((d + p) / 2.0)
        )
    return front * ratio


def couple_h_to_r(r, p, d: int, c=0.1):
    """Mesh size ``h`` matched to a ball radius ``r`` for ``d >= 2``.

    Returns ``min(c * r^gamma, r / sqrt(d))`` with the consistency exponent
    ``gamma = p/(p-1)`` for ``p`` in (2, 3] and ``gamma = 3/2`` otherwise
    (including ``p = 2``). The clamp keeps the ball stencil admissible.
    """
    p = _check_p(p)
    r = _positive("r", r)
    c = _positive("c", c)
    d = _integer("d", d, least=2)
    if 2.0 < p <= 3.0:
        gamma = p / (p - 1.0)
    else:
        gamma = 1.5
    try:
        return min(c * r**gamma, r / math.sqrt(d))
    except OverflowError:
        raise ConfigurationError(
            f"the coupled mesh size c * r^{gamma} is outside float range (r = {r}, c = {c})"
        ) from None


def grid_radius(h, half_width) -> int:
    """Number of nodes per side of the origin: ``n = floor(L/h)``.

    The additive fudge absorbs divisions like 2/0.04 that land a few ulp
    below an integer. Both arguments must be finite and positive.
    """
    return int(math.floor(_positive("half_width", half_width) / _positive("h", h) + 1e-9))


def grid_axis(h, half_width) -> np.ndarray:
    """Node coordinates ``-n*h, ..., 0, ..., n*h`` along one axis."""
    n = grid_radius(h, half_width)
    return np.arange(-n, n + 1, dtype=float) * float(h)


def grid_points(d: int, h, half_width) -> np.ndarray:
    """Coordinates of every node of the ``d``-dimensional grid.

    For ``d = 1`` this is the axis itself; otherwise an array of shape
    ``(2n+1,)*d + (d,)`` whose entry ``[i_1, ..., i_d]`` holds the node's
    coordinates (``indexing="ij"``). This is the point convention of
    :func:`plapfd.exact.barenblatt_eval`.
    """
    ax = grid_axis(h, half_width)
    if d == 1:
        return ax
    return np.stack(np.meshgrid(*([ax] * d), indexing="ij"), axis=-1)


_EXTENSIONS = ("zero", "boundary")


@dataclass(frozen=True, eq=False)
class GridField:
    """Node values on the uniform grid ``h * Z^d`` inside ``[-L, L]^d``.

    ``values[i_1, ..., i_d]`` holds the node ``alpha = (i_1 - n, ...,
    i_d - n)`` with ``n = floor(L/h)``. Reads outside the box follow the
    extension rule: ``"zero"`` (constant zero) or ``"boundary"`` (clamp to
    the nearest edge node, i.e. constant boundary trace along each axis).
    All values are required to be finite.
    """

    d: int
    h: float
    half_width: float
    values: np.ndarray
    extension: str = "zero"

    def __post_init__(self):
        object.__setattr__(self, "d", _integer("d", self.d))
        h = _positive("h", self.h)
        L = float(self.half_width)
        if not math.isfinite(L) or L < h:
            raise ConfigurationError(f"half_width must be at least h (got {L} < {h})")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "half_width", L)
        _one_of("extension", self.extension, _EXTENSIONS)
        v = np.asarray(self.values, dtype=float)
        n = grid_radius(h, L)
        want = (2 * n + 1,) * self.d
        if v.shape != want:
            raise ConfigurationError(
                f"values shape {v.shape} does not match grid shape {want}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid field values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        """Index radius: valid node indices run over ``[-n, n]^d``."""
        return grid_radius(self.h, self.half_width)

    def axis(self) -> np.ndarray:
        return grid_axis(self.h, self.half_width)

    def with_values(self, values) -> "GridField":
        return replace(self, values=values)

    def _with_checked_values(self, values: np.ndarray) -> "GridField":
        """``with_values`` without re-validation, for a float array of this
        grid's shape that the caller has checked to be finite, or checks
        before the field leaves its hands (as iter_levels does per chunk)."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, values=values)
        return out

    def _slot(self, alpha) -> tuple:
        """Positional index of node ``alpha``; raises if out of range."""
        alpha = _as_index(alpha, self.d)
        n = self.n
        for a in alpha:
            if a < -n or a > n:
                raise ValueError(f"node index {alpha} outside grid of radius {n}")
        return tuple(a + n for a in alpha)

    def value_at(self, alpha) -> float:
        return float(self.values[self._slot(alpha)])

    def read_index(self, alpha) -> float:
        """Node value honoring the extension rule for out-of-range indices."""
        alpha = _as_index(alpha, self.d)
        n = self.n
        slot = []
        for a in alpha:
            i = a + n
            if 0 <= i <= 2 * n:
                slot.append(i)
            elif self.extension == "zero":
                return 0.0
            else:
                slot.append(min(max(i, 0), 2 * n))
        return float(self.values[tuple(slot)])

    def _fill_padded(self, m: int, out: np.ndarray, interior: np.ndarray) -> None:
        """Write the values on the box widened by ``m`` nodes per side, read
        with the extension rule, into ``out``: slot ``i`` along each axis
        holds node ``i - n - m``, and ``interior`` is the view of ``out``
        that holds the box's own nodes.

        The one home of the extension rule on arrays. Under the zero
        extension only the interior is written, in one copy: the margins
        of ``out`` must already hold +0, as they do in an apply_dp_grid
        workspace, which nothing else writes into. np.pad costs ~10x more
        than these copies on the small 1D grids that are stepped thousands
        of times.
        """
        interior[...] = self.values
        if self.extension == "boundary":
            # clamp one axis at a time, as np.pad does: the axes before it
            # are already padded, so corner blocks copy the corner nodes
            size = out.shape[0]
            for axis in range(self.d):
                lead = (slice(None),) * axis
                out[lead + (slice(0, m),)] = out[lead + (slice(m, m + 1),)]
                out[lead + (slice(size - m, size),)] = out[lead + (slice(size - m - 1, size - m),)]


def _as_index(alpha, d: int) -> tuple:
    if np.isscalar(alpha):
        alpha = (alpha,)
    alpha = tuple(int(a) for a in np.asarray(alpha).ravel())
    if len(alpha) != d:
        raise ValueError(f"index vector {alpha} does not have dimension {d}")
    return alpha


def sample_on_grid(fn, d: int, h, half_width, extension="zero") -> GridField:
    """Evaluate ``fn`` on the grid and wrap the result in a GridField.

    ``fn`` receives one coordinate array per axis (meshgrid convention,
    ``indexing="ij"``); scalar-valued callables are broadcast.
    """
    pts = grid_points(d, h, half_width)
    coords = (pts,) if d == 1 else np.moveaxis(pts, -1, 0)
    vals = np.asarray(fn(*coords), dtype=float)
    shape = pts.shape[:d]
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape).copy()
    return GridField(d=d, h=h, half_width=half_width, values=vals, extension=extension)


@dataclass(frozen=True, eq=False)
class Stencil:
    """Offsets and weights of a discrete p-Laplace operator.

    Offsets are lexicographically sorted integer vectors; ``apply_dp``
    accumulates contributions in exactly that order, so node results are
    bit-reproducible run to run. Weights are nonnegative, symmetric under
    negation, exclude the origin, stay supported in the ball ``|h*beta| <=
    r``, and sum to at most ``M_bound * r^-p``.
    """

    d: int
    h: float
    r: float
    p: float
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _integer("d", self.d))
        object.__setattr__(self, "p", _check_p(self.p))
        for name in ("h", "r"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        off = np.asarray(self.offsets, dtype=np.int64).reshape(-1, self.d)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if off.shape[0] == 0:
            raise ConfigurationError("stencil has no offsets")
        if off.shape[0] != w.shape[0]:
            raise ConfigurationError("offsets and weights disagree in length")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ConfigurationError("weights must be finite and nonnegative")
        if np.any(np.all(off == 0, axis=1)):
            raise ConfigurationError("the zero offset is not allowed")
        # each check reads one column of offsets at a time, never a copy of
        # them all. Rows ascend strictly iff, at the first column where two
        # consecutive rows differ, the later one is greater
        tied, falls = np.ones(len(off) - 1, dtype=bool), np.zeros(len(off) - 1, dtype=bool)
        for a, b in zip(off[:-1].T, off[1:].T):
            falls |= tied & (b < a)
            tied &= a == b
        falls, tied = np.any(falls), np.any(tied)
        if falls:
            raise ConfigurationError("offsets must be lexicographically sorted")
        if tied:
            raise ConfigurationError("duplicate offsets")
        # negation reverses the lexicographic order, so sorted unique rows
        # are symmetric iff row k mirrors row -1-k with the same weight
        mirrored = all(np.array_equal(col, -col[::-1]) for col in off.T)
        if not (mirrored and np.array_equal(w, w[::-1])):
            table = dict(zip(map(tuple, off.tolist()), w.tolist()))
            for row, weight in table.items():
                if table.get(tuple(-b for b in row)) != weight:
                    raise ConfigurationError(f"weights not symmetric at offset {row}")
        # |h*beta| <= r compared unsquared: h**2 overflows past h = 1.3e154;
        # np.sum's order for d < 8, and exact in any order below 2**53. One
        # block of rows at a time, so its floats stay small (_REACH_ROWS)
        for block in np.array_split(off, range(_REACH_ROWS, len(off), _REACH_ROWS)):
            sq = np.zeros(len(block))
            for col in block.T:
                sq += np.square(col, dtype=float)
            if np.any(self.h * np.sqrt(sq) > self.r * (1.0 + _REL_SLACK)):
                raise ConfigurationError("an offset reaches outside the ball of radius r")
        bound = self.M_bound * self.r ** (-self.p)
        if float(np.sum(w)) > bound * (1.0 + _REL_SLACK):
            raise ConfigurationError(
                f"weight sum {np.sum(w)} exceeds M_bound * r^-p = {bound}"
            )
        off.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.offsets.shape[0]

    @property
    def M_bound(self) -> float:
        """Weight-sum constant: the weights sum to at most ``M_bound * r^-p``."""
        return weight_sum_bound(self.d, self.p)


def weight_sum_bound(d: int, p) -> float:
    """Weight-sum constant ``M_bound`` of the stencil used in dimension ``d``.

    The weights sum to at most ``M_bound * r^-p``, with ``M_bound = 2`` for
    the two-point stencil (``d = 1``) and ``2^d / dpd_constant(d, p)`` for
    the ball stencil.
    """
    return 2.0 if d == 1 else 2.0**d / dpd_constant(d, p)


def _common_weight(weight, what: str) -> float:
    """``weight()``, a stencil's common weight, refused unless finite and
    positive, with a message naming ``what``: past float range a float
    ``**`` raises OverflowError, a quotient by a power that underflowed to
    0 raises ZeroDivisionError, and a result can round to inf or to 0."""
    try:
        w = weight()
    except (OverflowError, ZeroDivisionError):
        w = math.nan
    if not 0.0 < w < math.inf:
        raise ConfigurationError(f"the stencil weight {what} is outside float range")
    return w


def stencil_1d(h, p) -> Stencil:
    """Two-point stencil in one dimension: weights ``1/h^p`` at offsets
    -1 and +1, radius ``r = h``, weight-sum constant ``M_bound = 2``.
    """
    h = _positive("h", h)
    p = _check_p(p)
    w = _common_weight(lambda: h ** (-p), f"h^-p (h = {h}, p = {p})")
    return Stencil(
        d=1,
        h=h,
        r=h,
        p=p,
        offsets=np.array([[-1], [1]], dtype=np.int64),
        weights=np.array([w, w]),
    )


def stencil_ball(r, h, p, d: int) -> Stencil:
    """Uniform ball stencil for ``d >= 2``.

    Collects every lattice offset with ``0 < |h*beta| < r`` (strictly) and
    gives each the weight ``h^d / (dpd_constant(d,p) * omega_d * r^(p+d))``,
    where ``omega_d`` is the unit ball volume. Requires ``h <= r/sqrt(d)``
    so the ball contains at least one full cube of neighbors.
    """
    p = _check_p(p)
    r = _positive("r", r)
    h = _positive("h", h)
    d = _integer("d", d, least=2)
    if h > r / math.sqrt(d) * (1.0 + _REL_SLACK):
        raise ConfigurationError(
            f"h must satisfy h <= r/sqrt(d) = {r / math.sqrt(d):.6g} (got h={h})"
        )
    w = _common_weight(
        lambda: h**d / (dpd_constant(d, p) * unit_ball_volume(d) * r ** (p + d)),
        f"h^d / (dpd_constant * omega_d * r^(p+d)) (h = {h}, r = {r}, p = {p})",
    )
    offsets = _ball_offsets(r, h, d)
    weights = np.full(len(offsets), w)
    return Stencil(
        d=d,
        h=h,
        r=r,
        p=p,
        offsets=offsets,
        weights=weights,
    )


def _ball_offsets(r: float, h: float, d: int) -> np.ndarray:
    """Every lattice offset ``beta`` with ``0 < h*h*|beta|^2 < r*r``, in
    lexicographic order, as int64 rows.

    Built from blocks of slabs of the cube ``[-m, m]^d``, ``m = floor(r/h)``,
    one slab per leading coordinate and about ``2**16`` candidate rows per
    block (one slab at least), so memory tracks the offsets kept, not the
    cube. Within a block, C order of (leading coordinate, slab row) is
    lexicographic, and so is the run of blocks, so no sort is needed.
    """
    m = int(math.floor(r / h + 1e-9))
    rest = np.indices((2 * m + 1,) * (d - 1), dtype=np.int64).reshape(d - 1, -1).T - m
    rest_sq = np.sum(rest * rest, axis=1)
    per_block = max(1, (1 << 16) // len(rest))
    blocks = []
    for first in range(-m, m + 1, per_block):
        lead = np.arange(first, min(first + per_block, m + 1), dtype=np.int64)
        sq = (lead * lead)[:, None] + rest_sq
        i, j = np.nonzero((h * h * sq < r * r) & (sq != 0))
        blocks.append(np.column_stack([lead[i], rest[j]]))
    return np.concatenate(blocks)


def _check_geometry(stencil: Stencil, field: GridField) -> None:
    if stencil.d != field.d or stencil.h != field.h:
        raise ConfigurationError(
            f"stencil (d={stencil.d}, h={stencil.h}) does not match "
            f"field (d={field.d}, h={field.h})"
        )


def apply_dp(stencil: Stencil, field: GridField, alpha) -> float:
    """Discrete operator at a single node ``alpha``.

    Contributions are accumulated in the stencil's canonical offset order,
    the same order apply_dp_grid uses, so repeated calls on the same inputs
    reproduce bit for bit.
    """
    _check_geometry(stencil, field)
    alpha = _as_index(alpha, field.d)
    center = field.value_at(alpha)
    diffs = np.array(
        [
            field.read_index(tuple(a + b for a, b in zip(alpha, beta))) - center
            for beta in stencil.offsets.tolist()
        ]
    )
    with np.errstate(over="ignore"):
        terms = _signed_power(diffs, stencil.p, np.empty_like(diffs))
    acc = 0.0
    for term, w in zip(terms.tolist(), stencil.weights.tolist()):
        acc += term * w
    return acc


# Slot·passes that each range of a split apply must carry. Starting and
# joining a thread costs ~0.12 ms on a 2-core x86 host, and a serial apply
# ~1.3 ns per slot·pass, so a range of 2**23 slot·passes (~11 ms) costs
# about a hundred times its thread. Whether two ranges overlap depends on
# how long each ufunc call runs without the GIL: at p = 3.7 two ranges
# of the 175^2 ball grid ran 1.6x faster than one, but at p = 3 without a
# compiler (products instead of np.power) they ran 1.25x slower. A 1D
# two-point grid would need 2**24 nodes.
_PARALLEL_WORK = 1 << 23

# Node·passes (interior nodes times offset passes) that each call of a
# split compiled apply must carry. On a 2-core x86 host with AVX-512 the
# compiled kernel takes ~0.2 ns per node·pass and a thread's start and
# join ~0.12 ms, so a call of 2**22 node·passes (~0.85 ms) costs about
# seven times its thread. Two calls against one on ball grids with 1,004
# offsets (applies interleaved, medians of 400, two runs) took 1.0-1.3x
# the time at 9.6e5 node·passes in all, 0.84-0.93x at 2.0e6, 0.77x at
# 4.2e6, 0.70-0.74x at 8.3e6 and 0.59-0.71x on the 175^2 ball2d grid
# (3.1e7), so two calls gain from about 2e6 in all, but little below 4e6.
_PARALLEL_NODE_PASSES = 1 << 22

# Node·passes that one claim on a split compiled apply's row counter
# takes at most, and at least one row: about 13 µs of work, so an atomic
# add (~0.1 µs where two cores contend) stays rare even on the short rows
# of a d = 3 grid with a small stencil, and the calls end at most about
# one claim apart. The 175^2 ball2d grid claims one row at a time.
_CLAIM_NODE_PASSES = 1 << 16


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, or every CPU
    where the system has no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pass_list(flat, start: int, shifts: list, weights: list, a: int, b: int,
               edge_diff: np.ndarray, edge_term: np.ndarray):
    """The passes ``(hi, lo, diff, term, weight, subtracted, added)`` over
    slots ``[a, b)`` of the span, into the range's own ``edge_diff`` and
    ``edge_term`` buffers of ``b - a + s_1`` slots. The middle pair's edge
    terms cover ``[a, b + s_1)``: a halo of ``s_1`` slots past the range,
    which each range forms itself from the padded copy."""
    n, middle = b - a, len(shifts) // 2
    s1 = shifts[middle]
    # one view of each range-long buffer, shared by every offset's pass
    diff, term = edge_diff[:n], edge_term[:n]
    lo = flat[start + a : start + b]
    passes = [
        (flat[start + a + s : start + b + s], lo, diff, term, w, None, term)
        for s, w in zip(shifts, weights)
    ]
    passes[middle - 1 : middle + 1] = [
        (flat[start + a : start + b + s1], flat[start + a - s1 : start + b],
         edge_diff, edge_term, weights[middle], term, edge_term[s1 : s1 + n])
    ]
    return passes


def _run(passes: list, p: float, acc: np.ndarray) -> None:
    """Run a pass list into its range of the accumulator, under the
    caller's errstate."""
    acc.fill(0.0)
    for hi, lo, diff, term, w, subtracted, added in passes:
        np.subtract(hi, lo, out=diff)
        np.multiply(_signed_power(diff, p, term), w, out=term)
        if subtracted is not None:
            np.subtract(acc, subtracted, out=acc)
        np.add(acc, added, out=acc)


def _run_ranges(calls: list, counter: np.ndarray | None = None) -> None:
    """Call ``calls[0]`` under the caller's errstate and every other call
    on a thread of its own, which silences overflow and ``inf - inf``
    itself (a new thread starts from numpy's default errstate); join them
    all, then raise call 0's error, or else the first a thread raised.
    Calls that claim rows from a shared ``counter`` find it reset to 0."""
    if counter is not None:
        counter[0] = 0
    threads, errors = [], []

    def run(call):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                call()
        except Exception as exc:
            errors.append(exc)

    try:
        for call in calls[1:]:
            threads.append(threading.Thread(target=run, args=(call,)))
            threads[-1].start()
        calls[0]()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _mapping(sizes: list, line: int) -> list:
    """Buffers of ``sizes`` float64 slots, in one anonymous mapping that
    the system zero-fills, each starting on a multiple of ``line`` slots
    (8: a 64-byte line; 512: a 4 KiB page)."""
    at = np.cumsum([0] + [-(-n // line) * line for n in sizes]).tolist()
    shared = np.frombuffer(mmap.mmap(-1, 8 * at[-1]))
    return [shared[i : i + n] for i, n in zip(at, sizes)]


class _Workspace:
    """The kernel of apply_dp_grid, for one stencil on one grid shape under
    one extension rule: its scratch arrays, its one kernel call, and
    ``apply``, which fills the padded copy, makes the call and returns a
    copy of the result as a new array. Every kernel shares that path and
    one layout; only the call, bound here once, and its own buffers differ.

    All scratch is one anonymous mapping that the system zero-fills: the
    padded copy, ``acc``, then the kernel's own buffers, each from a
    64-byte line (numpy's ufuncs write about 2x slower into an output
    that starts off one), or for the compiled kernel from a 4 KiB page.
    ``acc`` is the flat span from the first interior node to the last,
    ``(size-1) * sum(strides) + 1`` slots, laid out as the padded copy's
    rows; ``result`` is its view of the interior
    (the slots between rows hold nothing meaningful). Under the zero
    extension ``_fill_padded`` copies the field into the fixed interior
    view only, and the margins stay +0. Every view and call is fixed here.

    In every d the nodes and their shifted values are read from the
    padded copy at fixed flat shifts: offset ``beta`` lies ``beta .
    strides`` slots (strides in elements) from a node, inside the padded
    copy as ``|beta_k| <= reach``. The middle pair ``-beta_1, +beta_1``,
    ``s_1 = beta_1 . strides > 0``, is one edge pass (see apply_dp_grid);
    the two-point stencil is this one pass.

    **Compiled kernel** (``compiled``; p = 2, 3 and 4 where
    :mod:`plapfd._ckernel` builds). A C call over the interior rows,
    bound by ``_ckernel.bind``, sums each row in an accumulator row of
    its own, in the numpy kernel's order and with its bits, and copies
    it into the row's slots of ``acc``. A large apply is shared by
    ``k = min(CPUs, nodes·passes // _PARALLEL_NODE_PASSES, rows)`` such
    calls, each with its own accumulator row on pages of its own (two
    calls whose rows lay 1,408 bytes apart took 6.3-6.6 ms for an apply
    on the 175^2 ball2d grid, about one call's time, against 3.7-4.4 ms
    a page apart: medians of 200 interleaved applies, three processes,
    on a 2-core x86 host). They claim rows from one int64 counter in the
    mapping, ``_CLAIM_NODE_PASSES`` worth of rows at a time, until none
    is left, so a call that starts late finds fewer rows, or none.
    Before each apply ``_run_ranges`` resets the counter to 0, then runs
    the calls as below. Every clone sums a row the same way whichever
    call claims it, so the bits are the serial ones. With ``k = 1``
    (every 1D grid, small grids, one-CPU hosts) the workspace's call is
    the bound C call itself, given no counter: it sums every row, and no
    wrapper runs.

    **numpy kernel** (every other p, and wherever no compiler, build or
    load succeeds). Each pass is a few ufunc calls over the span: it
    writes the range's own ``diff`` and ``term`` and adds into ``acc``.
    The middle pair's terms ``E`` are formed once over ``span + s_1``
    slots: ``-beta_1`` subtracts ``E[:span]`` and ``+beta_1`` adds
    ``E[s_1:]``. The weights are 0-d float64 arrays, which numpy
    multiplies by faster than Python floats, with the same bits.

    The span is cut into slot ranges, one call ``_run(passes, p,
    acc[a:b])`` each: one range, unless the apply is large
    (``_PARALLEL_WORK`` slot·passes per range, at most one range per
    CPU). Cuts fall on multiples of 8 slots, so every slot keeps the
    SIMD lane, operations and order it has in one range: the bits are
    the serial ones. Each range's ``diff`` and ``term`` hold ``b - a +
    s_1`` slots, its halo included.

    For either kernel, one range's call is the workspace's call; several
    are made by ``_run_ranges``, which runs call 0 in the calling thread
    and every other call on a thread that it starts and joins before it
    returns, so no thread outlives an apply and the workspace holds
    nothing to stop. numpy releases the GIL inside each ufunc, and
    ctypes around each C call, so the ranges run in parallel; a range
    thread runs only the bound call. Sending one call through
    ``_run_ranges`` too would cost ~0.5 µs per 1D apply.
    """

    def __init__(self, stencil: Stencil, shape: tuple, extension: str):
        self.stencil = stencil
        self.shape = shape
        self.extension = extension
        self.reach = m = int(np.max(np.abs(stencil.offsets)))
        size, d = shape[0], len(shape)
        padded_shape = (size + 2 * m,) * d
        strides = [(size + 2 * m) ** (d - 1 - i) for i in range(d)]
        start = m * sum(strides)
        span = (size - 1) * sum(strides) + 1
        shifts = [sum(b * s for b, s in zip(beta, strides)) for beta in stencil.offsets.tolist()]
        fn = _ckernel.kernel(stencil.p)
        self.compiled = fn is not None
        # the padded copy, size padded rows for acc, then the kernel's own
        # buffers: each call's accumulator row and, with several calls,
        # the row counter they share (each from a page of its own), or
        # each range's diff and term (each from a 64-byte line)
        sizes = [math.prod(padded_shape), size * strides[0]]
        if self.compiled:
            nrows, row_work = size ** (d - 1), size * (len(shifts) - 1)
            k = max(1, min(_cpu_count(), nrows * row_work // _PARALLEL_NODE_PASSES, nrows))
            sizes += [size] * k + [2] * (k > 1)
        else:
            k = max(1, min(_cpu_count(), span * (len(shifts) - 1) // _PARALLEL_WORK, span // 8))
            cuts = [8 * (span // 8 * i // k) for i in range(k)] + [span]
            self.ranges = list(zip(cuts, cuts[1:]))
            s1 = shifts[len(shifts) // 2]
            sizes += [b - a + s1 for a, b in self.ranges for _ in range(2)]
        padded, rows, *own = _mapping(sizes, 512 if self.compiled else 8)
        self.acc = rows[:span]
        self.result = rows.reshape((size,) + padded_shape[1:])[(slice(0, size),) * d]
        counter = None
        if self.compiled:
            # where each interior row starts in the padded copy, in C order
            starts = np.array([start], dtype=np.int64)
            for stride in strides[:-1]:
                starts = (starts[:, None] + stride * np.arange(size)).ravel()
            if k > 1:
                counter = own.pop().view(np.int64)
                counter[1] = max(1, _CLAIM_NODE_PASSES // row_work)
            fixed = (padded, starts, np.array(shifts, dtype=np.int64), np.array(stencil.weights))
            calls = [_ckernel.bind(fn, *fixed, row, self.acc, counter) for row in own]
        else:
            weights = [np.array(w) for w in stencil.weights.tolist()]
            self.passes = [_pass_list(padded, start, shifts, weights, a, b, diff, term)
                           for (a, b), diff, term in zip(self.ranges, own[::2], own[1::2])]
            calls = [functools.partial(_run, passes, stencil.p, self.acc[a:b])
                     for (a, b), passes in zip(self.ranges, self.passes)]
        self._call = calls[0] if k == 1 else functools.partial(_run_ranges, calls, counter)
        self.padded = padded.reshape(padded_shape)
        self.interior = self.padded[(slice(m, m + size),) * d]

    def apply(self, field: GridField) -> np.ndarray:
        """``D U`` for a field that fits this workspace, as a new array,
        under the caller's errstate."""
        field._fill_padded(self.reach, self.padded, self.interior)
        self._call()
        return self.result.copy()


def apply_dp_grid(
    stencil: Stencil, field: GridField, *, _work: _Workspace | None = None
) -> np.ndarray:
    """Discrete operator on every node at once.

    Vectorized over the grid but with the same per-node accumulation order
    as apply_dp: one offset at a time, lexicographically, into an
    accumulator that starts at +0. The field is padded once by the
    stencil's reach, and each offset reads a view of it.

    The middle pair of offsets, ``-beta_1`` and ``+beta_1``, is formed per
    edge: ``P = w * jp(U(x + h*beta_1) - U(x))`` is evaluated once over the
    edges; ``+beta_1`` adds ``P`` at ``x`` and ``-beta_1`` subtracts it at
    ``x - h*beta_1``, so each edge costs one signed power instead of two.
    Negation reverses the lexicographic order, so the two offsets are
    adjacent in the sum, and this is bit for bit the per-offset sum:
    ``a - b`` rounds to exactly ``-(b - a)`` (both are +0 when ``a = b``),
    jp and the weight product are odd, ``acc - P`` is ``acc + (-P)``, and
    an accumulator that starts at +0 never becomes -0, so adding +0 or -0
    to it gives the same bits. Every other offset forms its own term; an
    edge form for all pairs was measured slower in d >= 2, because all
    edge arrays must be live before the first positive offset is added.
    Which kernel computes this sum, and how a large apply splits among
    calls, some on threads started and joined within the call (slot
    ranges of the numpy kernel, rows that the compiled kernel's calls
    claim from a shared counter), is described in ``_Workspace``: every
    kernel and every split gives these bits, and no setting controls
    them (``taskset -c 0`` runs serially).

    The scratch arrays (one mapping) come from ``_work``, which
    :func:`plapfd.stepping.iter_levels` allocates once per run for its
    stencil, grid and extension; without it, each call allocates its
    own. A caller who passes ``_work`` also owns the
    ``np.errstate``: overflow to inf (caught by the caller's blow-up
    check) and ``inf - inf`` must be silenced around the call, as
    :func:`plapfd.stepping.iter_levels` does once per chunk of levels;
    the range threads silence them themselves, and the compiled kernel
    raises no warning. Without ``_work`` the call silences them itself.
    The result is always a new C-contiguous array that shares no memory
    with the scratch.
    """
    _check_geometry(stencil, field)
    shape = field.values.shape
    if _work is None:
        with np.errstate(over="ignore", invalid="ignore"):
            return _Workspace(stencil, shape, field.extension).apply(field)
    if _work.stencil is not stencil or _work.shape != shape or _work.extension != field.extension:
        raise ConfigurationError("workspace was built for another stencil, grid or extension")
    return _work.apply(field)
