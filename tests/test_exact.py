import math
import warnings

import numpy as np
import pytest

from plapfd import (
    BarenblattSolution,
    barenblatt_constants,
    barenblatt_data,
    barenblatt_error_row,
    barenblatt_eval,
    barenblatt_lipschitz,
    barenblatt_solution,
    iter_levels,
    plan_config,
    plap_quadratic_oracle,
    solve,
    sup_error,
)
from plapfd.analysis import _worst_error
from plapfd.exact import _point_radius
from plapfd.operators import grid_points
from plapfd.stepping import _BLOCK_BYTES


def test_constants_reference_values():
    alpha, beta, K = barenblatt_constants(1, 4.0)
    assert alpha == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert beta == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert K == pytest.approx(0.14433756729740643, rel=1e-12)
    alpha, beta, K = barenblatt_constants(1, 3.0)
    assert alpha == pytest.approx(0.25, rel=1e-15)
    assert beta == pytest.approx(0.25, rel=1e-15)
    assert K == pytest.approx(1.0 / 36.0, rel=1e-12)
    alpha, beta, K = barenblatt_constants(2, 3.0)
    assert alpha == pytest.approx(0.4, rel=1e-15)
    assert beta == pytest.approx(0.2, rel=1e-15)


def test_constants_rejects_p_at_most_2():
    with pytest.raises(ValueError):
        barenblatt_constants(1, 2.0)
    with pytest.raises(ValueError):
        barenblatt_constants(2, 1.7)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 10.0])
def test_alpha_is_d_times_beta(d, p):
    alpha, beta, K = barenblatt_constants(d, p)
    assert alpha == pytest.approx(d * beta, rel=1e-15)
    # the solution derives its constants: they cannot be passed in
    sol = BarenblattSolution(d, p, t_shift=0.5)
    assert (sol.alpha, sol.beta, sol.K) == (alpha, beta, K)
    with pytest.raises(TypeError):
        BarenblattSolution(d, p, alpha=alpha, beta=beta, K=K)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 10.0, 100.0])
def test_normalization_forms_agree(p):
    # the closed 1D form ((p-2)/p)^((p-1)/(p-2)) * (2(p-1))^(-1/(p-2))
    # must match the general formula
    _, _, K = barenblatt_constants(1, p)
    closed = ((p - 2.0) / p) ** ((p - 1.0) / (p - 2.0)) * (2.0 * (p - 1.0)) ** (
        -1.0 / (p - 2.0)
    )
    assert K == pytest.approx(closed, rel=1e-12)


def test_eval_support_is_exact_zero():
    sol = barenblatt_solution(1, 4.0, t_shift=1.0)
    edge = sol.support_radius(0.0)
    x = np.array([edge, edge + 1e-12, 1.5 * edge, -2.0 * edge])
    out = barenblatt_eval(sol, x, 0.0)
    assert np.all(out == 0.0)
    assert barenblatt_eval(sol, 0.9 * edge, 0.0) > 0.0


def test_eval_past_the_support_is_silent():
    # log(0) past the support is silenced where it happens: the profile
    # warns not at all, also with every warning turned into an error
    sol = barenblatt_solution(1, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = barenblatt_eval(sol, np.linspace(-3.0, 3.0, 121), [0.0, 0.5, 1.0])
    assert np.any(rows == 0.0) and np.any(rows > 0.0)


def test_eval_peak_value():
    # center value at t = 0, t_shift = 1 is exactly the amplitude K
    sol = barenblatt_solution(1, 3.0)
    assert barenblatt_eval(sol, 0.0, 0.0) == pytest.approx(sol.K, rel=1e-15)
    sol4 = barenblatt_solution(1, 4.0)
    assert barenblatt_eval(sol4, 0.0, 0.0) == pytest.approx(0.14433756729740643, rel=1e-12)


def test_eval_rejects_vanished_profile():
    sol = barenblatt_solution(1, 3.0, t_shift=0.0)
    with pytest.raises(ValueError):
        barenblatt_eval(sol, 0.0, 0.0)
    with pytest.raises(ValueError, match="t \\+ t_shift must be positive"):
        sol.support_radius(0.0)
    # in d >= 2 a point's last axis holds its d coordinates
    sol2 = barenblatt_solution(2, 3.0)
    for x in (0.0, np.zeros(3), np.zeros((4, 1))):
        with pytest.raises(ValueError, match="last axis of length 2"):
            barenblatt_eval(sol2, x, 0.0)


def test_self_similarity_scaling():
    # u(x, s) = lam^alpha u(lam^beta x, lam s) maps the family to itself
    rng = np.random.default_rng(20260817)
    base = barenblatt_solution(1, 3.0, t_shift=0.0)
    for _ in range(100):
        x = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(0.5, 4.0))
        lam = float(rng.uniform(0.2, 5.0))
        lhs = barenblatt_eval(base, x, s)
        rhs = lam**base.alpha * barenblatt_eval(base, lam**base.beta * x, lam * s)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_support_radius_strictly_increasing():
    sol = barenblatt_solution(2, 3.5)
    ts = np.linspace(0.0, 3.0, 50)
    radii = [sol.support_radius(t) for t in ts]
    assert np.all(np.diff(radii) > 0.0)


def test_lipschitz_reference_values():
    assert barenblatt_lipschitz(4.0) == pytest.approx(0.288675, rel=1e-5)
    assert barenblatt_lipschitz(3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
    # the same bound K p/(p-2) with the amplitude of the dimension
    for d in (1, 2, 3):
        _, _, K = barenblatt_constants(d, 3.0)
        assert barenblatt_lipschitz(3.0, d=d) == K * 3.0


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 10.0, 100.0])
def test_lipschitz_forms_agree(p):
    # K*p/(p-2) and the algebraic simplification ((p-2)/(2p(p-1)))^(1/(p-2))
    direct = barenblatt_lipschitz(p)
    simplified = ((p - 2.0) / (2.0 * p * (p - 1.0))) ** (1.0 / (p - 2.0))
    assert direct == pytest.approx(simplified, rel=1e-12)


def test_lipschitz_bound_dominates_measured_slope():
    # the constant is an upper bound; the true maximal slope sits at an
    # interior point and has a closed form, which the sampled profile must
    # reproduce
    p = 4.0
    sol = barenblatt_solution(1, p)
    lip = barenblatt_lipschitz(p)
    x = np.linspace(-1.0, 1.0, 200001)
    u = barenblatt_eval(sol, x, 0.0)
    slopes = np.abs(np.diff(u)) / np.diff(x)
    assert slopes.max() <= lip * (1.0 + 1e-12)
    z = (p - 2.0) / (2.0 * (p - 1.0))
    interior_max = lip * z ** (1.0 / p) * (1.0 - z) ** (1.0 / (p - 2.0))
    assert slopes.max() == pytest.approx(interior_max, rel=1e-4)


def test_quadratic_oracle_values():
    assert plap_quadratic_oracle(1.0, 3.0, 1) == 8.0
    assert plap_quadratic_oracle(-1.0, 3.0, 1) == 8.0
    assert plap_quadratic_oracle(0.0, 4.0, 1) == 0.0
    assert plap_quadratic_oracle(np.array([1.0, 0.0]), 2.0, 2) == pytest.approx(4.0, rel=1e-15)
    assert plap_quadratic_oracle(0.5, 2.0, 1) == pytest.approx(2.0, rel=1e-15)


def test_quadratic_oracle_radial_symmetry():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 3))
    rho = np.linalg.norm(pts, axis=1)
    out = plap_quadratic_oracle(pts, 3.7, 3)
    expect = 2.0**2.7 * (3 + 3.7 - 2.0) * rho**1.7
    np.testing.assert_allclose(out, expect, rtol=1e-13)


def test_barenblatt_data_certificates():
    data = barenblatt_data(4.0, horizon=1.0)
    sol = barenblatt_solution(1, 4.0)
    assert data.a == 1.0
    assert data.L_u0 == pytest.approx(barenblatt_lipschitz(4.0), rel=1e-14)
    assert data.sup_u0 == pytest.approx(barenblatt_eval(sol, 0.0, 0.0), rel=1e-12)
    assert data.sup_f == 0.0
    assert data.support_radius == pytest.approx(2.0 ** (1.0 / 6.0), rel=1e-14)
    x = np.linspace(-2, 2, 101)
    np.testing.assert_array_equal(data.u0(x), barenblatt_eval(sol, x, 0.0))
    assert np.all(data.f(x) == 0.0)


def test_barenblatt_data_shifted_certificates_hold_on_grid():
    # with t_shift != 1 the Lipschitz and sup certificates rescale; check
    # they still dominate the sampled data
    data = barenblatt_data(3.0, horizon=2.0, t_shift=0.5)
    x = np.linspace(-2, 2, 4001)
    u = data.u0(x)
    assert np.max(np.abs(u)) <= data.sup_u0 * (1.0 + 1e-12)
    slopes = np.abs(np.diff(u)) / np.diff(x)
    assert slopes.max() <= data.L_u0 * (1.0 + 1e-6)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 10.0])
@pytest.mark.parametrize("t_shift", [1.0, 0.5])
def test_barenblatt_data_in_2d_certificates_hold_on_grid(p, t_shift):
    # the radial profile's gradient bound holds in d = 2: every axis
    # difference quotient of B(., 0) on a fine grid stays under L_u0
    data = barenblatt_data(p, horizon=1.0, d=2, t_shift=t_shift)
    sol = barenblatt_solution(2, p, t_shift)
    assert data.L_u0 == barenblatt_lipschitz(p, d=2) * t_shift ** (-(sol.alpha + sol.beta))
    h = 0.004
    x = np.arange(-300, 301) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = data.u0(X, Y)
    np.testing.assert_array_equal(u, barenblatt_eval(sol, np.stack([X, Y], axis=-1), 0.0))
    assert np.max(u) <= data.sup_u0
    slope = max(np.max(np.abs(np.diff(u, axis=a))) for a in (0, 1)) / h
    assert 0.0 < slope <= data.L_u0
    assert np.all(data.f(X, Y) == 0.0)
    assert data.support_radius == sol.support_radius(1.0)


def _eval_points(sol):
    # the centre, nodes inside, on and past the support edge at t = 0
    edge = sol.support_radius(0.0)
    radii = np.concatenate([[0.0, edge, edge * (1 + 1e-15), 1.5 * edge], np.linspace(0.0, 2.0, 96)])
    if sol.d == 1:
        return np.concatenate([radii, -radii])
    angle = np.linspace(0.0, 2.0 * np.pi, len(radii))
    angle[:4] = 0.0
    return np.stack([radii * np.cos(angle), radii * np.sin(angle)], axis=-1).reshape(10, 10, 2)


def _barenblatt_eval_reference(sol, x, t):
    # barenblatt_eval before it took arrays of times: one time per call,
    # with s**beta and K*s**(-alpha) as Python floats
    s = float(t) + sol.t_shift
    x = np.asarray(x, dtype=float)
    rho = np.abs(x) if sol.d == 1 else np.sqrt(np.sum(x * x, axis=-1))
    rho = np.atleast_1d(rho)
    p = sol.p
    y = rho / s**sol.beta
    base = 1.0 - y ** (p / (p - 1.0))
    out = np.zeros_like(base)
    pos = base > 0.0
    out[pos] = np.exp((p - 1.0) / (p - 2.0) * np.log(base[pos]))
    out *= sol.K * s ** (-sol.alpha)
    return out


def _radii_points(sol, radii):
    # points at the given radii, on the axis in d = 1 and on a spiral in d = 2
    if sol.d == 1:
        return np.concatenate([radii, -radii])
    angle = np.linspace(0.0, 2.0 * np.pi, len(radii))
    return np.stack([radii * np.cos(angle), radii * np.sin(angle)], axis=-1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 10.0, 40.0])
def test_batched_eval_matches_scalar_calls_bytewise(d, p):
    sol = barenblatt_solution(d, p)
    times = np.concatenate([[0.0], np.arange(1, 200) * 3.7e-3, [0.25, 2.0]])
    # nodes on both sides of the support edge, nodes all past the support
    # at every time, and nodes all inside it at every time
    first, last = sol.support_radius(0.0), sol.support_radius(2.0)
    point_sets = [
        _eval_points(sol),
        _radii_points(sol, np.linspace(last * (1 + 1e-12), 3.0 * last, 50)),
        _radii_points(sol, np.linspace(0.0, first * (1 - 1e-12), 50)),
    ]
    for pts in point_sets:
        rows = barenblatt_eval(sol, pts, times)
        assert rows.shape == (len(times),) + pts.shape[: pts.ndim - (d > 1)]
        for t, row in zip(times.tolist(), rows):
            assert row.tobytes() == barenblatt_eval(sol, pts, t).tobytes()
            assert row.tobytes() == _barenblatt_eval_reference(sol, pts, t).tobytes()
    pts, past, inside = point_sets
    rows = barenblatt_eval(sol, pts, times)
    assert np.any(rows[0] == 0.0) and np.any(rows[0] > 0.0)
    outside = barenblatt_eval(sol, past, times)
    assert outside.tobytes() == bytes(outside.nbytes)
    assert np.all(barenblatt_eval(sol, inside, times) > 0.0)
    # a single point gives one value per time, and a list of times works
    one = barenblatt_eval(sol, pts[0], [0.0, 0.5])
    assert one.tobytes() == np.array([barenblatt_eval(sol, pts[0], t) for t in (0.0, 0.5)]).tobytes()
    with pytest.raises(ValueError, match="positive"):
        barenblatt_eval(barenblatt_solution(d, p, t_shift=0.0), pts, [0.5, 0.0])
    with pytest.raises(ValueError, match="1-D"):
        barenblatt_eval(sol, pts, np.zeros((2, 2)))


def _point_radius_reference(x):
    # _point_radius in d >= 2 before its sum of per-axis products
    return np.sqrt(np.sum(x * x, axis=-1))


@pytest.mark.parametrize("d", [2, 3])
def test_point_radius_matches_the_strided_reduce_bytewise(d):
    # on grids as the runs sample them, on random points from 1e-150 to
    # 1e150 of both signs, one with every square past float range (inf),
    # and on coordinates of -0: the reduce's bytes, point for point
    rng = np.random.default_rng(d)
    grids = [grid_points(d, h, w) for h, w in [(0.1, 1.0), (0.0165, 1.44), (0.05, 0.5), (0.3, 3.0)]]
    scattered = rng.choice([-1.0, 1.0], (1000, d)) * 10.0 ** rng.uniform(-150, 150, (1000, d))
    huge = np.full((4, d), 1e200)
    huge[1:, 0] = [-1e160, 3.0, -0.0]
    zeros = np.array([[-0.0] * d, [0.0] * d, [-0.0, 2.0, -0.0][:d], [1e-160, -0.0, 0.0][:d]])
    with np.errstate(over="ignore", under="ignore"):
        for x in [*grids, scattered, huge, zeros, scattered[0]]:
            got = _point_radius(x, d)
            assert np.shape(got) == x.shape[:-1]
            assert np.asarray(got).tobytes() == np.asarray(_point_radius_reference(x)).tobytes()
        assert np.all(np.isinf(_point_radius(huge, d)))
    assert not np.any(np.signbit(_point_radius(zeros, d)))


def _worst_error_per_level(config, sol, levels):
    # the error loop before block batching: one barenblatt_eval per level
    pts = grid_points(config.d, config.h, config.half_width)
    worst = 0.0
    for j, lvl in enumerate(levels):
        exact = barenblatt_eval(sol, pts, j * config.tau)
        worst = max(worst, float(np.max(np.abs(lvl.values - exact))))
    return worst


@pytest.mark.parametrize("nodes", [101, 201, 401])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 5.0, 40.0])
def test_half_grid_errors_match_full_grid_per_level(p, nodes):
    # in d = 1 the sup error evaluates the profile on x >= 0 only, one
    # call per block of level times, and mirrors it: at every level time
    # the mirror must be the full grid's profile, byte for byte; then the
    # worst error is the full grid's, also where noise puts the worst node
    # on either side
    h = 4.0 / (nodes - 1)
    data = barenblatt_data(p, horizon=0.01)
    sol = barenblatt_solution(1, p)
    cfg = plan_config(p, 1, 0.01, 2.0, data, h=h)
    rng = np.random.default_rng(nodes)
    levels = list(iter_levels(cfg, data))
    levels += [lvl.with_values(lvl.values + rng.normal(0.0, 1e-3, nodes)) for lvl in levels]
    pts = grid_points(1, h, 2.0)
    assert pts.shape == (nodes,)
    times = cfg.times(np.arange(len(levels)))
    half = barenblatt_eval(sol, pts[nodes // 2 :], times)
    errors = []
    for t, row, lvl in zip(times.tolist(), half, levels):
        full = barenblatt_eval(sol, pts, t)
        assert np.concatenate((row[:0:-1], row)).tobytes() == full.tobytes()
        errors.append(float(np.max(np.abs(lvl.values - full))))
    assert repr(_worst_error(cfg, sol, levels)) == repr(max(errors))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 10.0])
def test_batched_errors_match_per_level_loop(d, p):
    # enough levels for two full blocks and a ragged last one
    half_width, h, r = (1.5, 0.05, 0.05) if d == 1 else (1.4, 0.1, 0.25)
    nodes = (2 * round(half_width / h) + 1) ** d
    block = _BLOCK_BYTES // (8 * nodes)
    steps = 2 * block + block // 2
    assert (steps + 1) % block != 0
    data = barenblatt_data(p, horizon=0.05, d=d)
    sol = barenblatt_solution(d, p)
    cfg = plan_config(p, d, 0.05, half_width, data, h=h, r=r, num_steps=steps)
    want = repr(_worst_error_per_level(cfg, sol, iter_levels(cfg, data)))
    assert repr(sup_error(solve(cfg, data), sol)) == want
    assert repr(barenblatt_error_row(cfg, data, sol).sup_error) == want
