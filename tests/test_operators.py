import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapfd import (
    ConfigurationError,
    GridField,
    HolderData,
    Stencil,
    apply_dp,
    apply_dp_grid,
    barenblatt_data,
    couple_h_to_r,
    dpd_constant,
    explicit_step,
    grid_axis,
    iter_levels,
    jp,
    plan_config,
    sample_on_grid,
    stencil_1d,
    stencil_ball,
    stencil_for,
    unit_ball_volume,
)
from plapfd.operators import _Workspace, _aligned_empty, _signed_power, weight_sum_bound


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


def test_jp_large_p_log_space():
    # p = 100 forces the exp/log branch; check against exact powers of 2
    assert jp(2.0, 100.0) == pytest.approx(2.0**99, rel=1e-12)
    assert jp(-2.0, 100.0) == pytest.approx(-(2.0**99), rel=1e-12)
    # deep underflow collapses to signed zero rather than raising
    assert jp(1e-280, 100.0) == 0.0


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
    # U(. + h) is the padded array read one slot to the right
    shifted = fb.padded(1)[2:]
    np.testing.assert_array_equal(shifted, [2.0, 3.0, 4.0, 5.0, 5.0])
    shifted0 = f.padded(1)[2:]
    np.testing.assert_array_equal(shifted0, [2.0, 3.0, 4.0, 5.0, 0.0])


def _signed_power_reference(xi, p):
    if p == 2.0:
        return xi
    ax = np.abs(xi)
    if p <= 32.0:
        with np.errstate(over="ignore"):
            return ax ** (p - 2.0) * xi
    with np.errstate(divide="ignore", over="ignore"):
        mag = np.exp((p - 1.0) * np.log(ax))
    return np.sign(xi) * mag


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


def _apply_dp_grid_padded_reference(stencil, field):
    # the array kernel before in-place buffers: padded once, one full-grid
    # temporary per operation and offset
    acc = np.zeros_like(field.values)
    m = int(np.max(np.abs(stencil.offsets)))
    padded = field.padded(m)
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
    padded = field.padded(m)
    size = field.values.shape[0]
    acc = np.zeros(field.values.shape)
    diff = np.empty(field.values.shape)
    term = np.empty(field.values.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for beta, w in zip(stencil.offsets.tolist(), stencil.weights.tolist()):
            shift = padded[tuple(slice(m + c, m + c + size) for c in beta)]
            np.subtract(shift, field.values, out=diff)
            np.multiply(_signed_power(diff, stencil.p, term), np.array(w), out=term)
            np.add(acc, term, out=acc)
    return acc


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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _PreviousWorkspace(stencil, field.values.shape, field.extension).apply(field)


# zeros of both signs, the smallest subnormals, and magnitudes whose
# differences overflow inside the power (1e300) or in the subtraction (1e308)
_EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e308, -1e308])


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 3.7, 4.0, 5.0, 6.0, 32.0, 32.5, 40.0, 100.0])
def test_signed_power_matches_pow_bitwise(p):
    # magnitudes from 1e-300 to 1e300 of both signs, plus the extremes and
    # infinities; p = 2.5 takes numpy's ** 0.5 -> sqrt path
    rng = np.random.default_rng(20261018)
    xi = 10.0 ** rng.uniform(-300.0, 300.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    xi = np.concatenate([_EXTREMES, [np.inf, -np.inf], rng.standard_normal(5_000), xi])
    want = _signed_power_reference(xi, p)
    with np.errstate(over="ignore", divide="ignore"):
        got = _signed_power(xi.copy(), p, np.empty_like(xi))
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
    got = apply_dp_grid(stencil, field).tobytes()
    assert got == _apply_dp_grid_previous_workspace(stencil, field).tobytes()
    assert got == _apply_dp_grid_row_view_reference(stencil, field).tobytes()
    assert got == _apply_dp_grid_padded_reference(stencil, field).tobytes()
    assert got == _apply_dp_grid_shifted_reference(stencil, field).tobytes()
    m = int(np.max(np.abs(stencil.offsets)))
    padded = field.padded(m)
    assert padded.shape == (field.values.shape[0] + 2 * m,) * field.d
    for slot in itertools.product(range(padded.shape[0]), repeat=field.d):
        alpha = tuple(i - field.n - m for i in slot)
        assert padded[slot] == field.read_index(alpha)


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


@pytest.mark.parametrize("d", [1, 2])
def test_zero_workspace_margins_stay_positive_zero(d):
    # margins are zero-filled once, when the workspace is built; 50 steps
    # on a field with nonzero edge nodes must not write into them
    h, half_width = (0.1, 1.0) if d == 1 else (0.25, 1.0)
    s = stencil_1d(h, 3.0) if d == 1 else stencil_ball(0.6, h, 3.0, 2)
    rng = np.random.default_rng(5)
    u = sample_on_grid(lambda *xs: 0.0 * xs[0], d, h, half_width)
    u = u.with_values(rng.uniform(0.5, 1.0, u.values.shape))
    f = u.with_values(np.zeros(u.values.shape))
    work = _Workspace(s, u.values.shape, "zero")
    for j in range(50):
        u = explicit_step(u, s, f, 1e-6, step=j, _work=work)
    assert np.all(u.values[(0,) * d] != 0.0)
    m = work.reach
    margins = work.padded.copy()
    margins[(slice(m, -m),) * d] = 0.0
    assert margins.tobytes() == bytes(margins.nbytes)


def _assert_levels_match_row_view_kernel(cfg, data):
    # every level of iter_levels against U + tau * (D U + f) stepped with
    # the row-view kernel, byte for byte
    stencil = stencil_for(cfg)
    args = (cfg.d, cfg.h, cfg.half_width, cfg.extension)
    f = sample_on_grid(data.f, *args).values
    want = [sample_on_grid(data.u0, *args)]
    for _ in range(cfg.N):
        rate = _apply_dp_grid_row_view_reference(stencil, want[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            want.append(want[-1].with_values(want[-1].values + cfg.tau * (rate + f)))
    assert not np.array_equal(want[-1].values, want[0].values)
    got = [lev.values.tobytes() for lev in iter_levels(cfg, data)]
    assert got == [lev.values.tobytes() for lev in want]


def test_levels_match_row_view_kernel_at_ball2d_geometry():
    # the benchmark's 2D Barenblatt solve: p = 3, r = 0.3, coupled h, half
    # width 1.44, so 175^2 nodes, 1048 offsets and rows of 175 doubles
    data = barenblatt_data(3.0, 0.05, d=2)
    cfg = plan_config(3.0, 2, 0.05, 1.44, data, r=0.3, coupling_c=0.1, num_steps=3)
    assert len(stencil_for(cfg)) == 1048
    assert sample_on_grid(data.u0, 2, cfg.h, cfg.half_width).values.shape == (175, 175)
    _assert_levels_match_row_view_kernel(cfg, data)


def _wavy_3d_data():
    # a smooth datum and a nonzero source, so every node moves
    def u0(x, y, z):
        return np.cos(x + 2.0 * y - z) * np.exp(-(x * x + y * y + z * z))

    def f(x, y, z):
        return 0.5 * np.sin(3.0 * x) + 0.25 * y

    return HolderData(u0=u0, f=f, a=1.0, L_u0=4.0, L_f=1.5, sup_u0=1.0, sup_f=0.75)


@pytest.mark.parametrize("extension", ["zero", "boundary"])
@pytest.mark.parametrize("p", [3.0, 3.7])
def test_levels_match_row_view_kernel_in_3d(extension, p):
    # 25^3 nodes, rows of 25 doubles, 178 offsets of reach 3; p = 3.7
    # takes np.power, whose SIMD body and tail meet other nodes on a span
    cfg = plan_config(p, 3, 4e-3, 1.2, _wavy_3d_data(), r=0.35, h=0.1, num_steps=4,
                      extension=extension)
    assert len(stencil_for(cfg)) == 178
    _assert_levels_match_row_view_kernel(cfg, _wavy_3d_data())


def _two_pair_stencil_1d(h, p):
    # the pairs +-2 and +-3 without +-1, so the middle pair's edge pass
    # reaches s_1 = 2 slots past the span
    w = 0.25 * (3.0 * h) ** -p
    return Stencil(d=1, h=h, r=3.0 * h, p=p, offsets=[[-3], [-2], [2], [3]], weights=[w] * 4)


@pytest.mark.parametrize(
    "d, n, r, h", [(1, 1, 0.1, 0.1), (1, 200, 0.1, 0.1), (1, 1, 0.3, 0.1), (1, 200, 0.3, 0.1),
                   (2, 1, 0.3, 0.1), (2, 4, 0.3, 0.1), (2, 10, 0.3, 0.1), (2, 87, 0.3, 0.0164),
                   (3, 2, 0.3, 0.1), (3, 5, 0.3, 0.1), (3, 8, 0.25, 0.1)],
)
@pytest.mark.parametrize("extension", ["zero", "boundary"])
@pytest.mark.parametrize("p", [3.0, 3.5])
def test_workspace_buffers_are_aligned_and_the_result_is_owned(d, n, r, h, extension, p):
    # the kernel writes diff, term and acc over the flat span in every d,
    # by cheap passes at p = 3 and np.power at p = 3.5; numpy writes about
    # 2x slower into an output that starts off a 64-byte line, so each must
    # start on one. In d = 1, r = h is the two-point stencil, a single edge
    # pass, and r = 3h the hand-built pairs +-2, +-3.
    # The result must be a new C-contiguous array, since explicit_step
    # updates it in place
    if d == 1:
        stencil = stencil_1d(h, p) if r == h else _two_pair_stencil_1d(h, p)
    else:
        stencil = stencil_ball(r, h, p, d)
    rng = np.random.default_rng(n)
    field = GridField(d=d, h=h, half_width=n * h, values=rng.standard_normal((2 * n + 1,) * d),
                      extension=extension)
    work = _Workspace(stencil, field.values.shape, extension)
    written = (work.diff, work.term, work.acc)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = apply_dp_grid(stencil, field, _work=work)
    for buf in written:
        assert buf.ctypes.data % 64 == 0
    assert out.flags.c_contiguous and out.flags.owndata
    for buf in written + (work.padded, field.values):
        assert not np.shares_memory(out, buf)
    assert out.tobytes() == _apply_dp_grid_row_view_reference(stencil, field).tobytes()
    assert out.tobytes() == _apply_dp_grid_previous_workspace(stencil, field).tobytes()
