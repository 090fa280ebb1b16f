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

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError

# Above this exponent the signed power runs through exp/log to dodge
# intermediate overflow; below it, plain powers keep small integer cases
# (heat equation, cubic stencils on dyadic grids) exact in floating point.
_LOG_SPACE_P = 32.0

# multiplicative slack for validation of float identities
_REL_SLACK = 1e-12


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
    apply_dp_grid, and bit-identical to ``np.abs(xi) ** (p-2) * xi`` below
    ``_LOG_SPACE_P``. ``xi`` is scratch: the log-space branch overwrites it.
    No input validation, and no ``errstate``: callers silence overflow (to
    inf, caught by the blow-up check) and ``log(0)``.
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
    elif p <= _LOG_SPACE_P:
        np.abs(xi, out=out)
        np.power(out, p - 2.0, out=out)
        np.multiply(out, xi, out=out)
    else:
        np.abs(xi, out=out)
        np.log(out, out=out)
        np.multiply(out, p - 1.0, out=out)
        np.exp(out, out=out)
        np.multiply(np.sign(xi, out=xi), out, out=out)
    return out


def jp(xi, p):
    """Signed power ``jp(xi) = |xi|^(p-2) * xi`` for ``p >= 2``.

    Odd and nondecreasing in ``xi`` with ``jp(0) = 0``; the identity map at
    ``p = 2`` (a copy of the input, without arithmetic, so results are
    bit-exact).
    For large ``p`` the power is evaluated as ``sign(xi) * exp((p-1) *
    log|xi|)``; magnitudes whose (p-1)-th power underflows come back as
    signed zero, which is harmless inside the scheme.

    Accepts a scalar or an ndarray. Raises ``ValueError`` for ``p < 2`` or
    non-finite input.
    """
    p = _check_p(p)
    arr = np.array(xi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("jp requires finite input")
    with np.errstate(over="ignore", divide="ignore"):
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
    return min(c * r**gamma, r / math.sqrt(d))


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

    def padded(self, m: int) -> np.ndarray:
        """Values on the box widened by ``m`` nodes per side, read with the
        extension rule: slot ``i`` along each axis holds node ``i - n - m``."""
        size = self.values.shape[0] + 2 * m
        out = np.zeros((size,) * self.d)
        return self._fill_padded(m, out, out[(slice(m, size - m),) * self.d])

    def _fill_padded(self, m: int, out: np.ndarray, interior: np.ndarray) -> np.ndarray:
        """Write ``padded(m)`` into ``out``, of that shape, and return it;
        ``interior`` is the view of ``out`` that holds the box's own nodes.

        The one home of the extension rule on arrays. Under the zero
        extension only the interior is written, in one copy: the margins
        of ``out`` must already hold +0, as they do in a fresh ``np.zeros``
        array and in an apply_dp_grid workspace, which nothing else writes
        into. np.pad costs ~10x more than these copies on the small 1D
        grids that are stepped thousands of times.
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
        return out


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
        # rows ascend strictly iff the first nonzero entry of every
        # consecutive difference is positive
        step = np.diff(off, axis=0)
        lead = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
        if np.any(lead < 0):
            raise ConfigurationError("offsets must be lexicographically sorted")
        if np.any(lead == 0):
            raise ConfigurationError("duplicate offsets")
        # negation reverses the lexicographic order, so sorted unique rows
        # are symmetric iff row k mirrors row -1-k with the same weight
        if not (np.array_equal(off, -off[::-1]) and np.array_equal(w, w[::-1])):
            table = dict(zip(map(tuple, off.tolist()), w.tolist()))
            for row, weight in table.items():
                if table.get(tuple(-b for b in row)) != weight:
                    raise ConfigurationError(f"weights not symmetric at offset {row}")
        reach2 = (self.h**2) * np.sum(off.astype(float) ** 2, axis=1)
        if np.any(reach2 > self.r**2 * (1.0 + _REL_SLACK) ** 2):
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


def stencil_1d(h, p) -> Stencil:
    """Two-point stencil in one dimension: weights ``1/h^p`` at offsets
    -1 and +1, radius ``r = h``, weight-sum constant ``M_bound = 2``.
    """
    h = _positive("h", h)
    p = _check_p(p)
    w = h ** (-p)
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
    m = int(math.floor(r / h + 1e-9))
    # C order of the cube [-m, m]^d is lexicographic, so no sort is needed
    cube = np.indices((2 * m + 1,) * d, dtype=np.int64).reshape(d, -1).T - m
    inside = (h * h * np.sum(cube * cube, axis=1) < r * r) & np.any(cube != 0, axis=1)
    offsets = cube[inside]
    w = h**d / (dpd_constant(d, p) * unit_ball_volume(d) * r ** (p + d))
    weights = np.full(len(offsets), w)
    return Stencil(
        d=d,
        h=h,
        r=r,
        p=p,
        offsets=offsets,
        weights=weights,
    )


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
    with np.errstate(over="ignore", divide="ignore"):
        terms = _signed_power(diffs, stencil.p, np.empty_like(diffs))
    acc = 0.0
    for term, w in zip(terms.tolist(), stencil.weights.tolist()):
        acc += term * w
    return acc


def _aligned_empty(n: int) -> np.ndarray:
    """``np.empty(n)`` starting on a 64-byte cache line: numpy's ufuncs
    write about 2x slower into an output that starts off a line."""
    raw = np.empty(n + 8)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip : skip + n]


class _Workspace:
    """The kernel of apply_dp_grid, for one stencil on one grid shape under
    one extension rule: its scratch arrays, its pass list, and ``apply``,
    which runs the passes.

    The padded copy is zero-filled once, here: under the zero extension
    ``_fill_padded`` then copies the field into its fixed interior view
    only, so the margins stay +0 for the workspace's life. The weights are
    0-d float64 arrays, which numpy multiplies by faster than Python
    floats, with the same bits. Every view is fixed here, once. The result
    is not among the scratch arrays: every call returns a new array.

    In every d the padded copy is read as one flat span from the first
    interior node to the last, ``(size-1) * sum(strides) + 1`` slots
    (strides in elements). The nodes' own values ``base`` and each
    offset's shifted values are fixed 1D views of it: offset ``beta``
    starts ``beta . strides`` slots from the base, inside the padded copy
    as ``|beta_k| <= reach``. Each pass writes ``diff`` and ``term`` and
    adds into ``acc``: buffers that each start on a 64-byte line, so every
    pass is a few aligned ufunc calls. The slots between interior rows
    hold nothing meaningful; the result copies the interior,
    ``acc_interior``.

    The middle pair ``-beta_1, +beta_1`` is one edge pass (see
    apply_dp_grid) over ``span + s_1`` slots, ``s_1 = beta_1 . strides >
    0``: its terms ``E`` are formed once, ``-beta_1`` subtracts
    ``E[:span]`` and ``+beta_1`` adds ``E[s_1:]``. The two-point stencil
    is this one pass.
    """

    def __init__(self, stencil: Stencil, shape: tuple, extension: str):
        self.stencil = stencil
        self.shape = shape
        self.extension = extension
        self.reach = m = int(np.max(np.abs(stencil.offsets)))
        weights = [np.array(w) for w in stencil.weights.tolist()]
        size = shape[0]
        self.padded = padded = np.zeros((size + 2 * m,) * len(shape))
        self.interior = padded[(slice(m, m + size),) * len(shape)]
        strides = [s // padded.itemsize for s in padded.strides]
        start, span = m * sum(strides), (size - 1) * sum(strides) + 1
        shifts = [sum(b * s for b, s in zip(beta, strides)) for beta in stencil.offsets.tolist()]
        middle = len(shifts) // 2
        s1 = shifts[middle]
        flat = padded.reshape(-1)
        base = flat[start : start + span]
        self.diff, self.term = _aligned_empty(span + s1), _aligned_empty(span + s1)
        # one view of each span-long buffer, shared by every offset's pass
        diff, term = self.diff[:span], self.term[:span]
        # each pass: (hi, lo, diff, term, weight, subtracted, added)
        self.passes = [
            (flat[start + s : start + s + span], base, diff, term, w, None, term)
            for s, w in zip(shifts, weights)
        ]
        self.passes[middle - 1 : middle + 1] = [
            (flat[start : start + span + s1], flat[start - s1 : start + span],
             self.diff, self.term, weights[middle], term, self.term[s1 : s1 + span])
        ]
        # size padded rows: the span, laid out as the padded copy's rows
        rows = _aligned_empty(size * strides[0])
        self.acc = rows[:span]
        self.acc_interior = rows.reshape((size,) + padded.shape[1:])[
            (slice(0, size),) * len(shape)
        ]

    def apply(self, field: GridField) -> np.ndarray:
        """``D U`` for a field that fits this workspace, as a new array,
        under the caller's errstate."""
        field._fill_padded(self.reach, self.padded, self.interior)
        p, acc = self.stencil.p, self.acc
        acc.fill(0.0)
        for hi, lo, diff, term, w, subtracted, added in self.passes:
            np.subtract(hi, lo, out=diff)
            np.multiply(_signed_power(diff, p, term), w, out=term)
            if subtracted is not None:
                np.subtract(acc, subtracted, out=acc)
            np.add(acc, added, out=acc)
        return self.acc_interior.copy()


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
    ``_Workspace`` runs the passes over one flat span of the padded copy,
    so each is a few ufunc calls; every node still sees the same
    operations in the same order.

    The scratch arrays (padded copy, differences, terms and the
    accumulator) come from ``_work``, which
    :func:`plapfd.stepping.iter_levels` allocates once per run for its
    stencil, grid and extension; without it, each call allocates its own.
    A caller who passes ``_work`` also owns the ``np.errstate``: overflow
    to inf (caught by the caller's blow-up check), ``inf - inf`` and
    ``log(0)`` must be silenced around the call, as
    :func:`plapfd.stepping.iter_levels` does once per chunk of levels.
    Without ``_work`` the call silences them itself. The result is always
    a new C-contiguous array that shares no memory with the scratch.
    """
    _check_geometry(stencil, field)
    shape = field.values.shape
    if _work is None:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _Workspace(stencil, shape, field.extension).apply(field)
    if _work.stencil is not stencil or _work.shape != shape or _work.extension != field.extension:
        raise ConfigurationError("workspace was built for another stencil, grid or extension")
    return _work.apply(field)
