import ctypes
import decimal
import functools
import itertools
import math
import mmap
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapfd import (
    ConfigurationError,
    GridField,
    Stencil,
    apply_dp,
    apply_dp_grid,
    couple_h_to_r,
    dpd_constant,
    grid_axis,
    jp,
    sample_on_grid,
    stencil_1d,
    stencil_ball,
    unit_ball_volume,
)
from plapfd import _ckernel, operators
from plapfd.operators import (
    _Workspace,
    _ball_offsets,
    _signed_power,
    weight_sum_bound,
)
from kernel_paths import (
    _EXTREMES,
    _PATHS,
    _SPLIT_CASES,
    _apply_dp_grid_padded_reference,
    _apply_dp_grid_previous_workspace,
    _apply_dp_grid_row_view_reference,
    _forced_path,
    _nan_aside,
    _range_calls,
    _require_compiled,
    _serves,
    _signed_power_reference,
)


def test_jp_reference_values():
    assert jp(-3.0, 2.0) == -3.0
    assert jp(2.0, 4.0) == 8.0
    assert jp(-2.0, 3.0) == -4.0
    assert jp(0.0, 100.0) == 0.0


def test_jp_identity_at_p2_is_bit_exact():
    x = np.array([0.1, -0.7, 1e-200, 3.5e17])
    assert np.array_equal(jp(x, 2.0), x)


def test_jp_odd_and_monotone():
    rng = np.random.default_rng(42)
    for p in (2.0, 2.5, 3.0, 4.0, 7.5, 40.0):
        xi = rng.uniform(-5.0, 5.0, 200)
        out = jp(xi, p)
        np.testing.assert_allclose(jp(-xi, p), -out, rtol=0, atol=0)
        order = np.argsort(xi)
        assert np.all(np.diff(out[order]) >= 0.0)


def test_jp_large_p_exact_powers_of_two():
    # a power of two raised to an integer power is exact in floating point
    assert jp(2.0, 100.0) == 2.0**99
    assert jp(-2.0, 100.0) == -(2.0**99)
    assert jp(2.0, 40.0) == 2.0**39
    # deep underflow collapses to signed zero rather than raising
    assert jp(1e-280, 100.0) == 0.0


@pytest.mark.parametrize("p", [40.0, 100.0, 1000.0])
def test_signed_power_accuracy_at_large_p(p):
    # against x^(p-1) (odd p-1, so the sign is x's) to 60 digits, over
    # magnitudes whose (p-1)-th power is a normal double: the signed power
    # is one correctly rounded power and one product, within 2**-51 relative
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        rng = np.random.default_rng(int(p))
        bound = 300.0 / (p - 1.0)
        x = 10.0 ** rng.uniform(-bound, bound, 3_000) * rng.choice([-1.0, 1.0], 3_000)
        exact = np.array([float(decimal.Decimal(v) ** int(p - 1)) for v in x])
        for got in (_signed_power(x, p, np.empty_like(x)), jp(x, p)):
            assert np.max(np.abs(got - exact) / np.abs(exact)) <= 2.0**-51


def test_jp_input_validation():
    with pytest.raises(ValueError):
        jp(1.0, 1.5)
    with pytest.raises(ValueError):
        jp(float("nan"), 3.0)
    with pytest.raises(ValueError):
        jp(float("inf"), 3.0)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


def _dpd_sphere_oracle(d, p):
    # d/(2(d+p)) times the surface average of |y_1|^p, by 1D quadrature in
    # the polar angle; an independent route to the gamma closed form
    from scipy.integrate import quad

    if d == 1:
        avg = 1.0
    else:
        num = quad(lambda t: abs(math.cos(t)) ** p * math.sin(t) ** (d - 2), 0.0, math.pi)[0]
        den = quad(lambda t: math.sin(t) ** (d - 2), 0.0, math.pi)[0]
        avg = num / den
    return d / (2.0 * (d + p)) * avg


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.0])
def test_dpd_constant_matches_sphere_average(d, p):
    assert dpd_constant(d, p) == pytest.approx(_dpd_sphere_oracle(d, p), rel=1e-10)


def test_dpd_constant_exact_references():
    assert dpd_constant(1, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert dpd_constant(2, 2.0) == pytest.approx(1.0 / 8.0, rel=1e-12)
    # from (d + p) / 2 = 170 on, the ratio goes through lgamma; at d = 2,
    # p = 338 both Gamma functions are still finite, so the plain formula
    # checks that branch
    d, p = 2, 338.0
    plain = (
        d / (4.0 * math.sqrt(math.pi)) * (p - 1.0) / (d + p)
        * math.gamma(d / 2.0) * math.gamma((p - 1.0) / 2.0) / math.gamma((d + p) / 2.0)
    )
    assert dpd_constant(d, p) == pytest.approx(plain, rel=1e-12)


def test_dpd_constant_validation():
    with pytest.raises(ValueError):
        dpd_constant(0, 3.0)
    with pytest.raises(ValueError):
        dpd_constant(2, 1.0)
    # int(inf) used to escape as OverflowError
    for d in (math.inf, math.nan, 2.5):
        with pytest.raises(ConfigurationError, match="integer"):
            dpd_constant(d, 3.0)


def test_couple_h_to_r_reference_values():
    # gamma = p/(p-1) on (2, 3], 3/2 above and at p = 2
    assert couple_h_to_r(0.1, 3.0, 2, c=1.0) == pytest.approx(0.1**1.5, rel=1e-14)
    assert couple_h_to_r(0.1, 10.0, 2, c=1.0) == pytest.approx(0.1**1.5, rel=1e-14)
    assert couple_h_to_r(0.04, 2.5, 2, c=1.0) == pytest.approx(0.04 ** (5.0 / 3.0), rel=1e-14)
    assert couple_h_to_r(0.04, 2.5, 2, c=1.0) == pytest.approx(4.68e-3, rel=1e-2)
    assert couple_h_to_r(0.1, 2.0, 2, c=1.0) == pytest.approx(0.1**1.5, rel=1e-14)


def test_couple_h_to_r_clamps_to_admissibility():
    # large c would break h <= r/sqrt(d); the clamp must kick in
    assert couple_h_to_r(0.25, 3.0, 4, c=100.0) == pytest.approx(0.25 / 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        couple_h_to_r(0.1, 3.0, 1)
    with pytest.raises(ValueError):
        couple_h_to_r(-0.1, 3.0, 2)


def test_stencil_1d_reference():
    s = stencil_1d(0.5, 3.0)
    assert s.r == 0.5
    assert s.M_bound == 2.0
    np.testing.assert_array_equal(s.offsets, [[-1], [1]])
    assert s.weights[0] == 8.0 and s.weights[1] == 8.0
    with pytest.raises(ValueError):
        stencil_1d(0.0, 3.0)
    with pytest.raises(ValueError):
        stencil_1d(0.1, 1.9)


def test_stencil_ball_reference_case():
    # r=1, h=0.5, p=2, d=2: the 3x3 square minus origin and corners
    s = stencil_ball(1.0, 0.5, 2.0, 2)
    assert len(s) == 8
    np.testing.assert_allclose(s.weights, 2.0 / math.pi, rtol=1e-12)
    rows = [tuple(row) for row in s.offsets]
    assert rows == sorted(rows)
    assert (0, 0) not in rows
    assert (2, 0) not in rows  # |h*beta| = 1 is not strictly inside


def test_stencil_ball_precondition():
    with pytest.raises(ConfigurationError):
        stencil_ball(1.0, 0.9, 2.0, 2)
    with pytest.raises(ValueError):
        stencil_ball(1.0, 0.5, 2.0, 1)


def _cube_ball_offsets(r, h, d):
    # the enumeration that blocks of slabs replaced: the whole cube
    # [-m, m]^d at once, in C order, then one mask
    m = int(math.floor(r / h + 1e-9))
    cube = np.indices((2 * m + 1,) * d, dtype=np.int64).reshape(d, -1).T - m
    inside = (h * h * np.sum(cube * cube, axis=1) < r * r) & np.any(cube != 0, axis=1)
    return cube[inside]


@pytest.mark.parametrize("d, ratios", [(2, (1.5, 2, 2.5, 3, 4, 5, 5.5, 7, 10, 12.3, 20)),
                                       (3, (2, 2.5, 3, 4, 5, 5.5, 7, 10)),
                                       (4, (2, 3, 4, 5, 5.5))])
@pytest.mark.parametrize("h", [1.0, 0.1, 0.01])
def test_ball_offsets_match_the_cube_enumeration(d, ratios, h):
    # the same int64 rows in the same lexicographic order as the cube,
    # also where r/h puts a lattice shell exactly on the sphere (r/h = 2,
    # 3, 4, 5, 7, 10, 20): the same float comparison decides those rows
    for ratio in ratios:
        r = ratio * h
        want = _cube_ball_offsets(r, h, d)
        got = _ball_offsets(r, h, d)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (d, ratio, h)
        if h <= r / math.sqrt(d):
            assert stencil_ball(r, h, 3.0, d).offsets.tobytes() == want.tobytes()


def _traced_peak(build, *args):
    tracemalloc.start()
    try:
        out = build(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ball_offsets_memory_tracks_the_offsets():
    # d = 3, r/h = 40: 267,760 offsets in a cube of 531,441 rows. Blocks of
    # slabs hold the kept rows, their concatenation and one block of about
    # 2**16 candidates, 2.12x the offsets as measured; the cube with its
    # squares held 4.63x
    offsets, peak = _traced_peak(_ball_offsets, 0.4, 0.01, 3)
    assert len(offsets) == 267_760
    assert peak < 2.5 * offsets.nbytes
    cube, cube_peak = _traced_peak(_cube_ball_offsets, 0.4, 0.01, 3)
    assert cube_peak > 4.0 * offsets.nbytes
    # 81 slabs of 6,561 rows, 9 per block: the block seams keep the order
    assert offsets.tobytes() == cube.tobytes()
    # Stencil's checks read one column of offsets at a time, and the reach
    # check one block of rows: 0.38x the offsets as measured (0.71x with
    # the reach check's floats over all rows, 2.67x with copies of the
    # offsets). So stencil_ball peaks in _ball_offsets (4.0x when the
    # checks set its peak), give or take the few hundred bytes of its frame
    weights = np.full(len(offsets), 1e-3)
    _, check_peak = _traced_peak(Stencil, 3, 0.01, 0.4, 3.0, offsets, weights)
    assert check_peak < 0.75 * offsets.nbytes
    stencil, stencil_peak = _traced_peak(stencil_ball, 0.4, 0.01, 3.0, 3)
    assert stencil.offsets.tobytes() == offsets.tobytes()
    assert stencil_peak <= peak + 4096
    # and in d = 2, where the weights are half the offsets' bytes, so a
    # reach check's floats over all rows would set the peak (2.56x the
    # offsets, against _ball_offsets' 2.11x and 2.31x)
    for r, h in ((0.3, 0.001), (0.5, 0.002)):
        offsets, peak = _traced_peak(_ball_offsets, r, h, 2)
        stencil, stencil_peak = _traced_peak(stencil_ball, r, h, 3.0, 2)
        assert stencil.offsets.tobytes() == offsets.tobytes()
        assert stencil_peak <= peak + 4096


def test_stencil_weights_outside_float_range_are_refused():
    # h^-p overflowed (OverflowError), r^(p+d) underflowed to 0
    # (ZeroDivisionError), h^d overflowed, and h^-p underflowed to weights
    # [0, 0], which gave NaN operator values
    for build in (
        lambda: stencil_1d(0.1, 400.0),
        lambda: stencil_ball(0.1, 0.1**2.5, 400.0, 2),
        lambda: stencil_ball(1e200, 1e200 / math.sqrt(2.0), 4.0, 2),
        lambda: stencil_1d(1e120, 3.0),
    ):
        with pytest.raises(ConfigurationError, match="stencil weight .* outside float range"):
            build()
    # a subnormal weight is finite and positive; the reach check's h**2
    # used to overflow on it
    s = stencil_1d(1e155, 2.0)
    assert s.weights[0] == 1e155 ** (-2.0) > 0.0
    with pytest.raises(ConfigurationError, match="coupled mesh size .* outside float range"):
        couple_h_to_r(1e250, 4.0, 2)


def test_stencil_ball_weight_sum_bound():
    rng = np.random.default_rng(20260817)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        p = float(rng.uniform(2.0, 6.0))
        r = float(rng.uniform(0.05, 1.5))
        h = float(rng.uniform(0.2, 1.0)) * r / math.sqrt(d)
        s = stencil_ball(r, h, p, d)
        assert float(np.sum(s.weights)) <= s.M_bound * r ** (-p) * (1.0 + 1e-12)
        # same offsets, in the same order, as a lexicographic brute-force scan
        m = int(math.floor(r / h + 1e-9))
        brute = [
            list(beta)
            for beta in itertools.product(range(-m, m + 1), repeat=d)
            if any(beta) and h * h * sum(b * b for b in beta) < r * r
        ]
        assert s.offsets.tolist() == brute
        # symmetry comes with the construction
        rows = {tuple(row): w for row, w in zip(s.offsets.tolist(), s.weights)}
        for beta, w in rows.items():
            assert rows[tuple(-b for b in beta)] == w


@pytest.mark.parametrize(
    "offsets, weights, match",
    [
        ([[-1, 0], [1, 0]], [1.0, 1.0, 1.0], "disagree in length"),
        ([[-1, 0], [0, 0], [1, 0]], [1.0, 1.0, 1.0], "zero offset"),
        ([[1, 0], [-1, 0]], [1.0, 1.0], "sorted"),
        ([[-1, 0], [-1, 0], [1, 0], [1, 0]], [1.0] * 4, "duplicate"),
        ([[-1, 0], [0, -1], [0, 1], [1, 0]], [1.0, 1.0, 2.0, 1.0], r"offset \(0, -1\)$"),
        ([[-1, 0], [0, 1], [1, 0]], [1.0, 1.0, 1.0], r"offset \(0, 1\)$"),
        ([[-3, 0], [3, 0]], [1.0, 1.0], "outside the ball"),
        ([[-1, 0], [1, 0]], [5.0, 5.0], "exceeds M_bound"),
        ([], [], "no offsets"),
        ([[-1, 0], [1, 0]], [1.0, -1.0], "finite and nonnegative"),
        ([[-1, 0], [1, 0]], [float("nan"), 1.0], "finite and nonnegative"),
    ],
)
def test_stencil_rejects_malformed_offsets(offsets, weights, match):
    # d = 2, p = 2, r = 2: reach at most 2 nodes, weights sum to at most 8
    with pytest.raises(ConfigurationError, match=match):
        Stencil(d=2, h=1.0, r=2.0, p=2.0, offsets=offsets, weights=weights)


def _stencil_error_previous(off, w, h, r):
    # Stencil's offset checks before they read one column at a time: the
    # message of the first one that fails, or None
    if np.any(np.all(off == 0, axis=1)):
        return "the zero offset is not allowed"
    step = np.diff(off, axis=0)
    lead = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
    if np.any(lead < 0):
        return "offsets must be lexicographically sorted"
    if np.any(lead == 0):
        return "duplicate offsets"
    if not (np.array_equal(off, -off[::-1]) and np.array_equal(w, w[::-1])):
        table = dict(zip(map(tuple, off.tolist()), w.tolist()))
        for row, weight in table.items():
            if table.get(tuple(-b for b in row)) != weight:
                return f"weights not symmetric at offset {row}"
    reach = h * np.sqrt(np.sum(off.astype(float) ** 2, axis=1))
    if np.any(reach > r * (1.0 + 1e-12)):
        return "an offset reaches outside the ball of radius r"
    return None


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 9),
    rows=st.lists(st.lists(st.integers(-(2**24), 2**24), min_size=9, max_size=9),
                  min_size=1, max_size=12),
    edit=st.sampled_from(["none", "swap", "duplicate", "drop", "weight", "zero"]),
    at=st.integers(0, 30),
    scale=st.sampled_from([1.0, 1.0 - 5e-13, 1.0 - 2e-12, 1.0 + 2e-12, 2.0]),
)
def test_stencil_checks_accept_and_reject_what_they_did(d, rows, edit, at, scale):
    # symmetric sorted offsets, then one edit that may break a rule, and a
    # radius at, just inside or just outside the reach of one row: the
    # column-at-a-time checks give the earlier checks' verdict (the
    # squared norms stay below 2**53, where every partial sum is exact)
    half = {tuple(row[:d]) for row in rows} - {(0,) * d}
    if not half:
        return
    off = np.array(sorted(half | {tuple(-b for b in row) for row in half}), dtype=np.int64)
    w = np.full(len(off), 1e-300)
    k = at % len(off)
    if edit == "swap" and len(off) > 1:
        off[[k, k - 1]] = off[[k - 1, k]]
    elif edit == "duplicate":
        off = np.insert(off, k, off[k], axis=0)
        w = np.insert(w, k, w[k])
    elif edit == "drop" and len(off) > 1:
        off, w = np.delete(off, k, axis=0), np.delete(w, k)
    elif edit == "weight":
        w[k] = 2e-300
    elif edit == "zero":
        off[k] = 0
    h = 1e-8
    r = h * math.sqrt(sum(float(b) ** 2 for b in off[at % len(off)])) * scale
    if not r > 0.0:
        r = 1.0
    want = _stencil_error_previous(off, w, h, r)
    try:
        Stencil(d=d, h=h, r=r, p=2.0, offsets=off, weights=w)
        got = None
    except ConfigurationError as exc:
        got = str(exc)
    assert got == want


def test_grid_axis_is_robust_to_float_division():
    # 2/0.04 lands a few ulp under 50; the node count must not drop
    ax = grid_axis(0.04, 2.0)
    assert len(ax) == 101
    assert ax[0] == pytest.approx(-2.0, abs=1e-12)


def test_grid_field_validation():
    with pytest.raises(ConfigurationError):
        GridField(d=1, h=0.1, half_width=2.0, values=np.zeros(7))
    with pytest.raises(ValueError):
        GridField(d=1, h=1.0, half_width=2.0, values=[0.0, 1.0, float("nan"), 0.0, 0.0])
    with pytest.raises(ConfigurationError):
        GridField(d=1, h=1.0, half_width=2.0, values=np.zeros(5), extension="mirror")
    with pytest.raises(ConfigurationError):
        GridField(d=1, h=-1.0, half_width=2.0, values=np.zeros(5))
    with pytest.raises(ConfigurationError, match="half_width must be at least h"):
        GridField(d=1, h=1.0, half_width=0.5, values=np.zeros(1))
    # node indices: inside the grid, one per axis
    f = GridField(d=1, h=1.0, half_width=2.0, values=np.zeros(5))
    with pytest.raises(ValueError, match="outside grid of radius 2"):
        f.value_at(3)
    with pytest.raises(ValueError, match="does not have dimension 1"):
        f.value_at((0, 0))
    # grid construction refuses what it cannot divide by or count: h = 0
    # divided by zero and half_width = inf overflowed in int()
    for h, half_width in ((0.0, 2.0), (math.inf, 2.0), (math.nan, 2.0), (0.1, math.inf)):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            sample_on_grid(lambda x: x, 1, h, half_width)
        with pytest.raises(ConfigurationError, match="finite and positive"):
            grid_axis(h, half_width)


def test_array_containers_compare_by_identity():
    # fields and stencils hold arrays, whose == is elementwise; they compare
    # and hash by identity, so == never raises and both fit in one set
    f = GridField(d=1, h=0.5, half_width=0.5, values=[1.0, 2.0, 3.0])
    s = stencil_1d(0.1, 3.0)
    for a, b in ((f, f.with_values(f.values.copy())), (s, stencil_1d(0.1, 3.0))):
        assert a == a and b == b
        assert a != b
        assert len({a, b}) == 2


def test_grid_field_extensions():
    f = GridField(d=1, h=1.0, half_width=2.0, values=[1.0, 2.0, 3.0, 4.0, 5.0])
    assert f.read_index(2) == 5.0
    assert f.read_index(3) == 0.0
    fb = GridField(
        d=1, h=1.0, half_width=2.0, values=[1.0, 2.0, 3.0, 4.0, 5.0], extension="boundary"
    )
    assert fb.read_index(3) == 5.0
    assert fb.read_index(-7) == 1.0
    # U(. + h) is the kernel's padded copy read one slot to the right
    for field, want in ((fb, [2.0, 3.0, 4.0, 5.0, 5.0]), (f, [2.0, 3.0, 4.0, 5.0, 0.0])):
        work = _Workspace(stencil_1d(1.0, 3.0), (5,), field.extension)
        work.apply(field)
        np.testing.assert_array_equal(work.padded[2:], want)


def _shifted_reference(field, beta):
    # U(. + h*beta) as one full-grid array per offset
    size = field.values.shape[0]
    if field.extension == "zero":
        out = np.zeros_like(field.values)
        src = []
        dst = []
        for b in beta:
            lo, hi = max(b, 0), min(size + b, size)
            if lo >= hi:
                return out
            src.append(slice(lo, hi))
            dst.append(slice(lo - b, hi - b))
        out[tuple(dst)] = field.values[tuple(src)]
        return out
    idx = [np.clip(np.arange(size) + b, 0, size - 1) for b in beta]
    return field.values[np.ix_(*idx)]


def _apply_dp_grid_shifted_reference(stencil, field):
    # the array kernel before padding, with the same accumulation order
    acc = np.zeros_like(field.values)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(stencil)):
            shift = _shifted_reference(field, stencil.offsets[k].tolist())
            acc += _signed_power_reference(shift - field.values, stencil.p) * stencil.weights[k]
    return acc


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 3.7, 4.0, 5.0, 6.0, 32.0, 32.5, 40.0, 100.0])
def test_signed_power_matches_pow_bitwise(p):
    # magnitudes from 1e-300 to 1e300 of both signs, plus the extremes and
    # infinities; p = 2.5 takes numpy's ** 0.5 -> sqrt path
    rng = np.random.default_rng(20261018)
    xi = 10.0 ** rng.uniform(-300.0, 300.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    xi = np.concatenate([_EXTREMES, [np.inf, -np.inf], rng.standard_normal(5_000), xi])
    want = _signed_power_reference(xi, p)
    with np.errstate(over="ignore"):
        got = _signed_power(xi, p, np.empty_like(xi))
    assert got.tobytes() == want.tobytes()


@st.composite
def _stencil_and_field(draw):
    # every d runs one pass per offset with the middle pair in edge form,
    # which in d = 1 may reach past +-1; weigh the draws towards d = 1,
    # which has the fewest distinct stencils per draw
    d = draw(st.sampled_from([1, 1, 2, 3]))
    reach = draw(st.integers(1, (6, 4, 3)[d - 1]))
    n = draw(st.integers(1, 3 if d < 3 else 2))
    h = draw(st.sampled_from([1.0, 0.25, 0.1]))
    p = draw(
        st.one_of(
            st.sampled_from([2.0, 2.5, 3.0, 4.0, 5.0, 6.0]),
            st.floats(2.0, 6.0),
            st.floats(32.5, 60.0),
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    half = rng.integers(-reach, reach + 1, (draw(st.integers(1, 6)), d))
    half = half[np.any(half != 0, axis=1)]
    if len(half) == 0:
        half = np.eye(1, d, dtype=np.int64) * reach
    # in half the cases some pairs get weight 0, so 0 * inf = nan meets the
    # sign handling of the edge form; at least one pair stays positive
    zero = 0.5 if draw(st.booleans()) else 0.0
    pairs = {}
    for beta, w in zip(half.tolist(), rng.uniform(0.1, 1.0, len(half))):
        pairs[tuple(beta)] = pairs[tuple(-b for b in beta)] = 0.0 if rng.uniform() < zero else float(w)
    rows = sorted(pairs)
    if not any(pairs.values()):
        pairs[rows[0]] = pairs[rows[-1]] = 1.0
    r = h * math.sqrt(max(sum(b * b for b in beta) for beta in rows))
    weights = np.array([pairs[beta] for beta in rows])
    weights *= 0.5 * weight_sum_bound(d, p) * r**-p / np.sum(weights)
    stencil = Stencil(d=d, h=h, r=r, p=p, offsets=rows, weights=weights)
    shape = (2 * n + 1,) * d
    values = rng.standard_normal(shape) * 10.0 ** draw(st.integers(-3, 3))
    values[rng.uniform(size=shape) < 0.3] = 0.0
    if draw(st.booleans()):
        extreme = rng.uniform(size=shape) < 0.3
        values[extreme] = rng.choice(_EXTREMES, int(np.sum(extreme)))
    extension = draw(st.sampled_from(["zero", "boundary"]))
    field = GridField(d=d, h=h, half_width=n * h, values=values, extension=extension)
    return stencil, field


@settings(max_examples=150, deadline=None)
@given(_stencil_and_field())
def test_apply_dp_grid_matches_shifted_kernel(case):
    # random symmetric stencils on boxes as narrow as 3 nodes, so offsets
    # often reach past the far edge; the result must be bit for bit the same
    # as the earlier array kernels, overflow to inf and nan included
    stencil, field = case
    with _forced_path("numpy"):
        work = _Workspace(stencil, field.values.shape, field.extension)
    with np.errstate(over="ignore", invalid="ignore"):
        got = apply_dp_grid(stencil, field, _work=work).tobytes()
    assert got == _apply_dp_grid_previous_workspace(stencil, field).tobytes()
    assert got == _apply_dp_grid_row_view_reference(stencil, field).tobytes()
    assert got == _apply_dp_grid_padded_reference(stencil, field).tobytes()
    assert got == _apply_dp_grid_shifted_reference(stencil, field).tobytes()
    # the padded copy the kernel read holds every slot's node value under
    # the extension rule
    m, padded = work.reach, work.padded
    assert padded.shape == (field.values.shape[0] + 2 * m,) * field.d
    for slot in itertools.product(range(padded.shape[0]), repeat=field.d):
        alpha = tuple(i - field.n - m for i in slot)
        assert padded[slot] == field.read_index(alpha)
    # and the compiled kernel, where it serves this p: the same bytes,
    # NaN payloads aside
    with np.errstate(over="ignore", invalid="ignore"):
        out = apply_dp_grid(stencil, field)
    assert _nan_aside(out) == _nan_aside(np.frombuffer(got).reshape(out.shape))


def test_apply_dp_constant_field_is_zero():
    # constant-boundary-trace extension keeps a constant field constant on
    # the whole lattice, so the operator vanishes at every node
    for d, maker in ((1, lambda: stencil_1d(0.1, 3.5)), (2, lambda: stencil_ball(0.5, 0.25, 3.0, 2))):
        s = maker()
        f = sample_on_grid(
            lambda *cs: np.full_like(cs[0], 2.7), d, s.h, 1.0, extension="boundary"
        )
        out = apply_dp_grid(s, f)
        assert np.all(out == 0.0)
        # a scalar-valued callable is broadcast to the same field
        g = sample_on_grid(lambda *cs: 2.7, d, s.h, 1.0, extension="boundary")
        assert g.values.tobytes() == f.values.tobytes()
    # under the zero extension only nodes at distance > r from the box edge
    # see the constant everywhere
    s = stencil_1d(0.1, 3.5)
    f = sample_on_grid(lambda x: np.full_like(x, 2.7), 1, 0.1, 1.0)
    out = apply_dp_grid(s, f)
    assert np.all(out[1:-1] == 0.0)
    assert out[0] != 0.0 and out[-1] != 0.0


def test_apply_dp_heat_reference():
    # p=2, h=1, values (0,1,0): second difference at the center is -2
    s = stencil_1d(1.0, 2.0)
    f = GridField(d=1, h=1.0, half_width=1.0, values=[0.0, 1.0, 0.0])
    assert apply_dp(s, f, 0) == -2.0
    assert apply_dp(s, f, (0,)) == -2.0


@pytest.mark.parametrize("h", [0.5, 0.25, 0.125])
def test_apply_dp_cubic_on_quadratic_is_exact(h):
    # 1D, p=3, psi = x^2: the two-point formula telescopes to 8|x| exactly
    # at |x| >= h; dyadic h keeps the whole chain in exact floats
    s = stencil_1d(h, 3.0)
    f = sample_on_grid(lambda x: x * x, 1, h, 2.0)
    ax = f.axis()
    dp = apply_dp_grid(s, f)
    inner = np.abs(ax) <= 2.0 - h - 1e-12
    away = inner & (np.abs(ax) >= h - 1e-12)
    assert np.array_equal(dp[away], 8.0 * np.abs(ax[away]))
    x_one = round(1.0 / h)
    assert apply_dp(s, f, x_one) == 8.0


def test_apply_dp_p2_reduces_to_second_difference():
    h = 0.2
    s = stencil_1d(h, 2.0)
    rng = np.random.default_rng(5)
    f = GridField(d=1, h=h, half_width=1.0, values=rng.uniform(-1, 1, 11))
    dp = apply_dp_grid(s, f)
    u = f.values
    classical = np.zeros_like(u)
    classical[1:-1] = (u[2:] + u[:-2] - 2.0 * u[1:-1]) / h**2
    np.testing.assert_allclose(dp[1:-1], classical[1:-1], rtol=1e-13)


def test_apply_dp_antisymmetric_under_negation():
    s = stencil_ball(0.5, 0.25, 3.5, 2)
    rng = np.random.default_rng(77)
    f = sample_on_grid(lambda x, y: 0.0 * x, 2, 0.25, 1.0)
    vals = rng.uniform(-1, 1, f.values.shape)
    f = f.with_values(vals)
    out = apply_dp_grid(s, f)
    out_neg = apply_dp_grid(s, f.with_values(-vals))
    np.testing.assert_array_equal(out_neg, -out)


def test_apply_dp_monotone_in_neighbors():
    # raising any neighbor value cannot decrease the operator at the center
    s = stencil_1d(0.5, 4.0)
    rng = np.random.default_rng(13)
    for _ in range(50):
        vals = rng.uniform(-1, 1, 9)
        f = GridField(d=1, h=0.5, half_width=2.0, values=vals)
        base = apply_dp(s, f, 0)
        k = int(rng.choice([-1, 1]))
        bumped = vals.copy()
        bumped[4 + k] += float(rng.uniform(0.0, 0.5))
        assert apply_dp(s, f.with_values(bumped), 0) >= base


def test_apply_dp_scalar_matches_grid():
    s = stencil_ball(0.6, 0.2, 3.0, 2)
    rng = np.random.default_rng(99)
    f = sample_on_grid(lambda x, y: np.sin(x) * y, 2, 0.2, 1.0)
    grid = apply_dp_grid(s, f)
    n = f.n
    for _ in range(25):
        a = tuple(int(v) for v in rng.integers(-n, n + 1, 2))
        scalar = apply_dp(s, f, a)
        ref = grid[a[0] + n, a[1] + n]
        assert scalar == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_apply_dp_deterministic():
    s = stencil_ball(0.5, 0.2, 4.2, 2)
    rng = np.random.default_rng(123)
    f = sample_on_grid(lambda x, y: 0.0 * x, 2, 0.2, 1.0)
    f = f.with_values(rng.uniform(-2, 2, f.values.shape))
    first = apply_dp_grid(s, f)
    for _ in range(3):
        assert np.array_equal(apply_dp_grid(s, f), first)


def test_apply_dp_geometry_mismatch():
    s = stencil_1d(0.1, 3.0)
    f = GridField(d=1, h=0.2, half_width=1.0, values=np.zeros(11))
    with pytest.raises(ConfigurationError):
        apply_dp_grid(s, f)
    with pytest.raises(ConfigurationError):
        apply_dp(s, f, 0)
    f2 = sample_on_grid(lambda x, y: 0.0 * x, 2, 0.1, 1.0)
    with pytest.raises(ConfigurationError):
        apply_dp_grid(s, f2)
    # scratch arrays built for another stencil, grid or extension are refused
    f3 = GridField(d=1, h=0.1, half_width=1.0, values=np.zeros(21))
    with pytest.raises(ConfigurationError, match="workspace"):
        apply_dp_grid(s, f3, _work=_Workspace(stencil_1d(0.1, 3.0), (21,), "zero"))
    with pytest.raises(ConfigurationError, match="workspace"):
        apply_dp_grid(s, f3, _work=_Workspace(s, (23,), "zero"))
    # a zero-extension workspace keeps unwritten margins, so it must not
    # serve a clamped field, and the reverse is refused too
    f4 = GridField(d=1, h=0.1, half_width=1.0, values=np.ones(21), extension="boundary")
    with pytest.raises(ConfigurationError, match="workspace"):
        apply_dp_grid(s, f4, _work=_Workspace(s, (21,), "zero"))
    with pytest.raises(ConfigurationError, match="workspace"):
        apply_dp_grid(s, f3, _work=_Workspace(s, (21,), "boundary"))


def _two_pair_stencil_1d(h, p):
    # the pairs +-2 and +-3 without +-1, so the middle pair's edge pass
    # reaches s_1 = 2 slots past the span
    w = 0.25 * (3.0 * h) ** -p
    return Stencil(d=1, h=h, r=3.0 * h, p=p, offsets=[[-3], [-2], [2], [3]], weights=[w] * 4)


# (d, n, r, h): nodes per side 2n + 1. In d = 1, r = h is the two-point
# stencil, a single edge pass, and r = 3h the hand-built pairs +-2, +-3
_WORKSPACE_CASES = [
    (1, 1, 0.1, 0.1), (1, 200, 0.1, 0.1), (1, 1, 0.3, 0.1), (1, 200, 0.3, 0.1),
    (2, 1, 0.3, 0.1), (2, 4, 0.3, 0.1), (2, 10, 0.3, 0.1), (2, 87, 0.3, 0.0164),
    (3, 2, 0.3, 0.1), (3, 5, 0.3, 0.1), (3, 8, 0.25, 0.1),
]


@functools.cache
def _workspace_case(d, n, r, h, extension, p):
    # the stencil and field of one layout key, and the row-view and the
    # previous workspace kernels' bytes on them
    if d == 1:
        stencil = stencil_1d(h, p) if r == h else _two_pair_stencil_1d(h, p)
    else:
        stencil = stencil_ball(r, h, p, d)
    rng = np.random.default_rng(n)
    field = GridField(d=d, h=h, half_width=n * h, values=rng.standard_normal((2 * n + 1,) * d),
                      extension=extension)
    want = (_apply_dp_grid_row_view_reference(stencil, field).tobytes(),
            _apply_dp_grid_previous_workspace(stencil, field).tobytes())
    return stencil, field, want


def _first_and_last(view):
    # the addresses of a view's first and last elements
    last = sum((n - 1) * stride for n, stride in zip(view.shape, view.strides))
    return view.ctypes.data, view.ctypes.data + last


def _mapped_at(buf):
    # the anonymous mapping under a workspace buffer, and the buffer's
    # byte offset in it
    whole = buf
    while isinstance(whole.base, np.ndarray):
        whole = whole.base
    owner = whole.base.obj if isinstance(whole.base, memoryview) else whole.base
    return owner, buf.ctypes.data - whole.ctypes.data


def _edge_buffers(work):
    # each range's diff and term, b - a + s_1 slots with the halo: the
    # buffers its middle pair's edge pass writes; none in a compiled
    # workspace
    return [
        next((diff, term) for _, _, diff, term, _, subtracted, _ in passes if subtracted is not None)
        for passes in getattr(work, "passes", [])
    ]


def _assert_one_mapping(work):
    # the padded copy at the start of one anonymous mapping, then the acc
    # rows, then the kernel's own buffers, and nothing else, so no two
    # share memory: each compiled call's accumulator row and, with several
    # calls, the row counter they share (the next row and the rows per
    # claim), each from the 4 KiB page after the one before (so no two
    # calls' rows share a page), or each range's diff and term, each from
    # the 64-byte line after the one before; returns the mapping
    mapping, at = _mapped_at(work.padded)
    assert isinstance(mapping, mmap.mmap) and at == 0
    assert _mapped_at(work.acc)[0] is mapping
    bufs = [(work.padded.ctypes.data, work.padded.size),
            (work.acc.ctypes.data, work.shape[0] * math.prod(work.padded.shape[1:]))]
    if work.compiled:
        calls = _range_calls(work)
        bufs += [(call.args[-3].value, work.shape[0]) for call in calls]
        counters = {call.args[-1].value for call in calls}
        if len(calls) > 1:
            (counter,) = counters
            bufs.append((counter, 2))
        else:
            assert counters == {None}
        line = 512
    else:
        bufs += [(buf.ctypes.data, buf.size) for pair in _edge_buffers(work) for buf in pair]
        line = 8
    at = work.padded.ctypes.data
    for address, size in bufs:
        assert address == at and address % (8 * line) == 0
        at += 8 * -(-size // line) * line
    assert at - work.padded.ctypes.data == len(mapping)
    return mapping


@pytest.mark.parametrize("d, n, r, h", _WORKSPACE_CASES)
@pytest.mark.parametrize("extension", ["zero", "boundary"])
@pytest.mark.parametrize("path, p", [("numpy", 3.0), ("compiled", 3.0), ("compiled-2", 3.0),
                                     ("numpy", 3.5)], indirect=["path"])
def test_workspace_has_one_layout_on_every_path(path, p, d, n, r, h, extension):
    # at p = 3 either kernel, the compiled one in one call and in two (one
    # in 1D, a single row), at p = 3.5 (np.power) the numpy kernel: one
    # mapping, the span of acc laid out as the padded copy's rows, of
    # which result is a view, and every buffer on a 64-byte line (numpy
    # writes about 2x slower into an output that starts off one). apply
    # returns a new C-contiguous array, since explicit_step updates it in
    # place, in the row-view and the previous workspace kernels' bytes
    stencil, field, want = _workspace_case(d, n, r, h, extension, p)
    work = _Workspace(stencil, field.values.shape, extension)
    assert work.compiled == path.compiled
    mapping = _assert_one_mapping(work)
    first, last = _first_and_last(work.acc)
    assert first <= _first_and_last(work.result)[0] <= _first_and_last(work.result)[1] <= last
    if work.compiled:
        # each bound call writes its rows into acc; no pass list
        assert not hasattr(work, "passes") and not hasattr(work, "ranges")
        assert len(_range_calls(work)) == (1 if d == 1 else path.ranges)
        assert all(call.args[-2].value == work.acc.ctypes.data for call in _range_calls(work))
    with np.errstate(over="ignore", invalid="ignore"):
        out = apply_dp_grid(stencil, field, _work=work)
    assert out.flags.c_contiguous and out.flags.owndata
    assert not np.shares_memory(out, np.frombuffer(mapping))
    assert not np.shares_memory(out, field.values)
    assert (out.tobytes(),) * 2 == want


@functools.cache
def _split_case(case, extension, p, values):
    # the stencil and field of one bytes-matrix key, and the previous
    # workspace kernel's result on them
    d, make, n = _SPLIT_CASES[case]
    stencil = make(p)
    overflowing = values == "overflowing"
    rng = np.random.default_rng(int(10 * p) + d + 100 * overflowing)
    values = rng.standard_normal((2 * n + 1,) * d)
    if overflowing:
        extreme = rng.uniform(size=values.shape) < 0.3
        values[extreme] = rng.choice(_EXTREMES, int(np.sum(extreme)))
        # and one difference that overflows at every p: -1e308 - 1e308
        beta = stencil.offsets[0]
        alpha = np.maximum(0, -beta)
        values[tuple(alpha)] = 1e308
        values[tuple(alpha + beta)] = -1e308
    field = GridField(d=d, h=0.1, half_width=n * 0.1, values=values, extension=extension)
    want = _apply_dp_grid_previous_workspace(stencil, field)
    assert np.all(np.isfinite(want)) != overflowing
    return stencil, field, want


@pytest.mark.parametrize("values", ["random", "overflowing"])
@pytest.mark.parametrize("path, p", [(path, p) for path in _PATHS
                                     for p in (2.0, 2.5, 3.0, 3.7, 4.0, 40.0) if _serves(path, p)],
                         indirect=["path"])
@pytest.mark.parametrize("extension", ["zero", "boundary"])
@pytest.mark.parametrize("case", list(_SPLIT_CASES))
def test_every_path_gives_the_previous_kernels_bytes(path, case, extension, p, values):
    # in d = 1, 2 and 3, under both extensions, where the far pairs'
    # reach spans several rows, and at every p the path serves (np.power
    # at 2.5, 3.7 and 40): the previous kernel's bytes, twice in one
    # workspace (it serves every apply of a run) and once one-shot. Where
    # differences overflow, the same nodes are inf or NaN, and a compiled
    # path may differ from numpy in NaN payloads only. A split apply
    # starts and joins its k - 1 range threads; no other path starts one,
    # and a compiled-k path makes one call on a 1D grid, a single row
    stencil, field, want = _split_case(case, extension, p, values)
    work = _Workspace(stencil, field.values.shape, extension)
    assert work.compiled == path.compiled
    _assert_one_mapping(work)
    ranges = 1 if path.compiled and field.d == 1 else path.ranges
    assert len(_range_calls(work)) == ranges
    if not work.compiled:
        # cuts at multiples of 8 slots, so every slot keeps its SIMD lane;
        # each range's buffers hold the same halo of s_1 slots, which may
        # cross later cuts (the far pairs in three ranges)
        cuts = [a for a, _ in work.ranges]
        assert len(work.ranges) == path.ranges and all(c % 8 == 0 for c in cuts)
        assert work.ranges[-1][1] == len(work.acc)
        halos = {buf.size - (b - a) for (a, b), pair in zip(work.ranges, _edge_buffers(work))
                 for buf in pair}
        (s1,) = halos
        assert s1 > 0
        if case in ("1d-far-pair", "2d-axis-pair") and path.ranges == 3:
            assert work.ranges[0][1] + s1 > cuts[2]
    with np.errstate(over="ignore", invalid="ignore"):
        got = [apply_dp_grid(stencil, field, _work=work) for _ in range(2)]
    assert len(path.started) == 2 * (ranges - 1)
    assert path.idle()
    got.append(apply_dp_grid(stencil, field))
    assert len(path.started) == 3 * (ranges - 1)
    assert path.idle()
    canonical = _nan_aside if path.compiled else np.ndarray.tobytes
    for out in got:
        assert np.array_equal(np.isfinite(out), np.isfinite(want))
        assert canonical(out) == canonical(want)
    if extension == "zero":
        # the margins are zero-filled once, when the workspace is built:
        # two applies on a field with nonzero edge nodes leave them +0
        d, m = field.d, work.reach
        edges = field.values.copy()
        edges[(slice(1, -1),) * d] = 0.0
        assert edges.any()
        margins = work.padded.copy()
        margins[(slice(m, -m),) * d] = 0.0
        assert margins.tobytes() == bytes(margins.nbytes)


@pytest.mark.parametrize("failing", [0, 1, 2, (0, 1)])
def test_split_apply_raises_a_range_error_after_joining_every_thread(monkeypatch, failing):
    # one range raises, in the calling thread (range 0) or on a thread of
    # its own: apply lets every other range finish, joins every thread,
    # then raises that very exception; when range 0 and a thread both
    # raise, range 0's exception is the one raised
    failing = failing if isinstance(failing, tuple) else (failing,)
    stencil = stencil_ball(0.3, 0.1, 3.7, 2)
    rng = np.random.default_rng(2)
    field = GridField(d=2, h=0.1, half_width=0.5, values=rng.standard_normal((11, 11)))
    run, finished = operators._run, []
    failures = [ValueError(f"range {i} failed") for i in range(3)]
    failure = failures[failing[0]]

    def run_or_fail(passes, p, acc):
        i = next(i for i, own in enumerate(work.passes) if own is passes)
        if i in failing:
            raise failures[i]
        time.sleep(0.05)  # still running when the failure is raised
        run(passes, p, acc)
        finished.append(i)

    # each range's call binds _run when the workspace is built
    monkeypatch.setattr(operators, "_run", run_or_fail)
    with _forced_path("split-3") as path:
        work = _Workspace(stencil, (11, 11), "zero")
        with pytest.raises(ValueError) as exc, np.errstate(over="ignore", invalid="ignore"):
            apply_dp_grid(stencil, field, _work=work)
    assert exc.value is failure
    assert sorted(finished) == sorted({0, 1, 2} - set(failing))
    assert len(path.started) == 2 and path.idle()


def test_a_late_range_thread_finds_every_row_claimed(monkeypatch):
    # a compiled-2 apply whose range thread makes its call only after the
    # calling thread's call has returned: the calling thread claims and
    # sums every row (a 61^2 grid, three rows per claim, so the last claim
    # holds one), the thread claims none, so its accumulator row keeps the
    # NaN put there, the bytes are the previous kernel's, and the thread
    # is still joined
    stencil = stencil_ball(0.3, 0.3 / 18, 3.0, 2)
    rng = np.random.default_rng(4)
    field = GridField(d=2, h=stencil.h, half_width=30 * stencil.h,
                      values=rng.standard_normal((61, 61)))
    want = _apply_dp_grid_previous_workspace(stencil, field).tobytes()
    with _forced_path("compiled-2") as path:
        work = _Workspace(stencil, field.values.shape, "zero")
        calls = work._call.args[0]
        rows = [np.ctypeslib.as_array((ctypes.c_double * 61).from_address(call.args[-3].value))
                for call in calls]
        rows[1][:] = np.nan
        counter = np.ctypeslib.as_array((ctypes.c_int64 * 2).from_address(calls[0].args[-1].value))
        counter[1] = 3
        first, returned = calls[0], threading.Event()

        def first_then_signal():
            first()
            returned.set()

        class Late(operators.threading.Thread):
            def run(self):
                assert returned.wait(60)
                super().run()

        calls[0] = first_then_signal
        monkeypatch.setattr(operators.threading, "Thread", Late)
        with np.errstate(over="ignore", invalid="ignore"):
            got = apply_dp_grid(stencil, field, _work=work)
        assert got.tobytes() == want
        assert np.all(np.isnan(rows[1])) and not np.any(np.isnan(rows[0]))
        assert len(path.started) == 1 and path.idle()
        # the counter handed out the 61 rows in 21 claims, and the late call
        # made one more, which found none; the next apply starts it from 0
        assert counter[0] == 3 * (21 + 1)
        calls[0] = first
        with np.errstate(over="ignore", invalid="ignore"):
            assert apply_dp_grid(stencil, field, _work=work).tobytes() == want
        assert path.idle()


@pytest.mark.parametrize("cpus, grid, calls, claim", [
    (1, "ball2d", 1, None), (2, "ball2d", 2, 1), (3, "ball2d", 3, 1), (2, "801^2", 2, 3),
    (2, "21^2", 1, None), (3, "401", 1, None)])
def test_a_compiled_workspace_splits_only_large_grids(monkeypatch, cpus, grid, calls, claim):
    # at the real thresholds: the 175^2 ball2d grid (3.1e7 node·passes)
    # makes one call per CPU, which claim one row at a time (a row is
    # 1.8e5 node·passes), and a 801^2 grid with 23 passes three; one
    # CPU, a small grid and every 1D grid (one row) make one call, which
    # is the C function bound by _ckernel.bind itself, with no counter: no
    # wrapper runs and nothing resets
    _require_compiled()
    monkeypatch.setattr(operators, "_cpu_count", lambda: cpus)
    stencil, shape = {
        "ball2d": (stencil_ball(0.3, 0.3 / 18, 3.0, 2), (175, 175)),
        "801^2": (stencil_ball(0.3, 0.1, 3.0, 2), (801, 801)),
        "21^2": (stencil_ball(0.3, 0.1, 3.0, 2), (21, 21)),
        "401": (stencil_1d(0.01, 3.0), (401,)),
    }[grid]
    work = _Workspace(stencil, shape, "zero")
    assert len(_range_calls(work)) == calls
    if calls == 1:
        assert isinstance(work._call, functools.partial)
        assert work._call.func is _ckernel.kernel(3.0)
        assert work._call.args[-1].value is None
    else:
        assert work._call.func is operators._run_ranges
        assert all(call.func is _ckernel.kernel(3.0) for call in _range_calls(work))
        counter = work._call.args[1]
        assert counter[1] == claim


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_compiled_kernel_adds_a_negative_zero_first_term(d, p):
    # signed zeros and magnitudes whose (p-1)-th power underflows: the
    # first offset's term is -0 at some node, every term is a zero, and
    # numpy's accumulator, which starts at +0, ends at +0 everywhere;
    # assigning the first term instead of adding it would give -0
    _require_compiled()
    stencil = stencil_1d(0.5, p) if d == 1 else stencil_ball(1.0, 0.5, p, d)
    rng = np.random.default_rng(d)
    tiny = [0.0, -0.0] if p == 2.0 else [0.0, -0.0, 1e-200, -1e-200]
    field = GridField(d=d, h=0.5, half_width=1.5, values=rng.choice(tiny, (7,) * d))
    beta = stencil.offsets[0]
    first = [
        field.read_index(np.add(alpha, beta)) - field.value_at(alpha)
        for alpha in itertools.product(range(-3, 4), repeat=d)
    ]
    with np.errstate(under="ignore"):
        terms = _signed_power(np.array(first), p, np.empty(len(first))) * stencil.weights[0]
    assert np.any(np.signbit(terms)) and not np.any(terms)
    want = _apply_dp_grid_previous_workspace(stencil, field)
    assert not want.view(np.int64).any()
    work = _Workspace(stencil, field.values.shape, "zero")
    assert work.compiled
    assert apply_dp_grid(stencil, field, _work=work).tobytes() == want.tobytes()
