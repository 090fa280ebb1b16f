"""Error measurement and a posteriori checks.

Three groups of tools: sup-norm errors against the Barenblatt benchmark
(with streaming variants so long runs never materialize a trajectory),
observed convergence orders from error tables, and a randomized property
suite that replays the structural estimates of the scheme (modulus
preservation, stability, continuous dependence, equicontinuity in time and
of the interpolant) on a computed trajectory.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .exact import (
    BarenblattSolution,
    _point_radius,
    barenblatt_data,
    barenblatt_eval,
    barenblatt_solution,
    plap_quadratic_oracle,
)
from .operators import _integer, _positive, apply_dp_grid, grid_points, sample_on_grid
from .stepping import (
    HolderData,
    SchemeConfig,
    Trajectory,
    _cfl_exponent,
    _geometry,
    _interpolant,
    _levels_per_block,
    _node,
    _stencil_of,
    check_margin,
    iter_levels,
    plan_config,
    solve,
    theoretical_step_bound,
)


@dataclass(frozen=True)
class ErrorRow:
    """One line of a convergence table."""

    h: float
    r: float
    tau: float
    sup_error: float
    runtime_seconds: float


def _worst_error(config: SchemeConfig, sol: BarenblattSolution, levels) -> float:
    """Largest nodal error of ``levels`` (``U^0, U^1, ...`` at
    ``config.times()``) against ``sol``, 0.0 for none, after checking that
    the grid keeps a margin of ``r`` around its support at the final time.

    Levels are copied into a block of ``stepping._BLOCK_BYTES`` and
    compared one block at a time, with one barenblatt_eval call per block,
    each block updating one running maximum. Levels and profile are finite,
    so that is the largest per-level error, bit for bit. In d = 1 the
    profile is evaluated on the nonnegative half of the grid only and
    mirrored: the grid is exactly symmetric (``(-i) * h`` is ``-(i * h)``),
    and the profile reads ``|x|`` one node at a time, so the mirror holds
    the full grid's values.
    """
    if sol.d != config.d:
        raise ConfigurationError(
            f"solution dimension {sol.d} does not match config dimension {config.d}"
        )
    check_margin(config, sol.support_radius(config.T))
    sol.support_radius(0.0)  # the profile must exist from the first level on
    pts = grid_points(config.d, config.h, config.half_width)
    shape = pts.shape[: config.d]
    block = np.empty((_levels_per_block(shape),) + shape)
    n = shape[0] // 2
    levels = iter(levels)
    worst = 0.0
    first = 0
    while True:
        rows = 0
        for lvl in itertools.islice(levels, len(block)):
            block[rows] = lvl.values
            rows += 1
        if rows == 0:
            return worst
        times = config.times(np.arange(first, first + rows))
        if config.d == 1:
            half = barenblatt_eval(sol, pts[n:], times)
            exact = np.concatenate((half[:, :0:-1], half), axis=1)
        else:
            exact = barenblatt_eval(sol, pts, times)
        worst = max(worst, float(np.max(np.abs(block[:rows] - exact))))
        first += rows


def sup_error(traj: Trajectory, sol: BarenblattSolution) -> float:
    """Largest nodal error over every stored level.

    Requires the grid to keep a margin of at least ``r`` around the exact
    support at the final time, so the comparison is not polluted by the
    zero extension.
    """
    return _worst_error(traj.config, sol, traj.levels)


def barenblatt_error_row(
    config: SchemeConfig, data: HolderData, sol: BarenblattSolution
) -> ErrorRow:
    """Run the scheme and measure the sup error without storing levels."""
    start = time.perf_counter()
    worst = _worst_error(config, sol, iter_levels(config, data))
    runtime = time.perf_counter() - start
    return ErrorRow(
        h=config.h, r=config.r, tau=config.tau, sup_error=worst, runtime_seconds=runtime
    )


def convergence_study(
    p,
    hs,
    T=1.0,
    half_width=2.0,
    t_shift=1.0,
    c_practical=0.2,
) -> list[ErrorRow]:
    """Barenblatt benchmark in 1D over a list of mesh sizes.

    Each level runs with the practical step rule ``tau = c_practical * h^2``
    and measures the sup error over all nodes and levels.
    """
    rows = []
    data = barenblatt_data(p, horizon=T, d=1, t_shift=t_shift)
    sol = barenblatt_solution(1, p, t_shift)
    for h in hs:
        config = plan_config(
            p,
            1,
            T,
            half_width,
            data,
            h=h,
            cfl_mode="practical",
            c_practical=c_practical,
        )
        rows.append(barenblatt_error_row(config, data, sol))
    return rows


def observed_order(rows) -> float:
    """Least-squares slope of log(sup_error) against log(h).

    Needs at least three rows with distinct h and positive errors; an exact
    power law ``error = C * h^q`` comes back as ``q``.
    """
    rows = list(rows)
    hs = np.array([float(row.h) for row in rows])
    errs = np.array([float(row.sup_error) for row in rows])
    if len(set(hs.tolist())) < 3:
        raise ValueError("observed_order needs at least 3 rows with distinct h")
    if np.any(errs <= 0.0) or np.any(hs <= 0.0):
        raise ValueError("observed_order needs positive mesh sizes and errors")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class ConsistencyRow:
    """Sup distance between the discrete operator on ``|x|^2`` and its
    classical value, over a centered evaluation window."""

    r: float
    h: float
    stencil_size: int
    max_error: float
    max_error_off_origin: float


def consistency_table(
    p, d: int, r_levels, window=0.15, coupling_c=0.1
) -> list[ConsistencyRow]:
    """Consistency sweep on the quadratic ``psi(x) = |x|^2``.

    Each radius gets the ``h`` and stencil that plan_config gives a run with
    this ``r`` and no ``h``, and the discrete operator is compared against
    the exact p-Laplacian on all nodes of the box ``|x_i| <= window``.
    ``max_error_off_origin`` restricts the comparison to nodes with ``|x| >=
    h``, where the 1D cubic case is exact; it is NaN when the window holds
    no such node (window < h), never a silent 0.
    """
    window = _positive("window", window)
    rows = []
    for r in r_levels:
        h, r = _geometry(p, d, None, r, coupling_c)
        stencil = _stencil_of(p, d, r, h)
        half = window + r + 2.0 * h
        field = sample_on_grid(lambda *cs: sum(c * c for c in cs), d, h, half)
        dp = apply_dp_grid(stencil, field)
        pts = grid_points(d, h, half)
        rho = _point_radius(pts, d)
        oracle = plap_quadratic_oracle(pts, p, d)
        err = np.abs(dp - oracle)
        inwin = np.all(np.abs(pts.reshape(err.shape + (d,))) <= window + 1e-12, axis=-1)
        max_error = float(np.max(err[inwin]))
        away = inwin & (rho >= h * (1.0 - 1e-12))
        max_away = float(np.max(err[away])) if away.any() else float("nan")
        rows.append(
            ConsistencyRow(
                r=r,
                h=h,
                stencil_size=len(stencil),
                max_error=max_error,
                max_error_off_origin=max_away,
            )
        )
    return rows


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one structural check: the worst sampled violation margin
    (lhs - rhs - tolerance; negative means the estimate held) and where it
    occurred."""

    name: str
    passed: bool
    checked: int
    worst_margin: float
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport:
    passed: bool
    seed: int
    samples: int
    config: dict
    results: tuple

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _eps(bound):
    return 1e-9 * (1.0 + np.asarray(bound))


def _config_summary(config: SchemeConfig) -> dict:
    return {
        "p": config.p,
        "d": config.d,
        "T": config.T,
        "h": config.h,
        "r": config.r,
        "tau": config.tau,
        "N": config.N,
        "cfl_mode": config.cfl_mode,
    }


def _scaled_data(data: HolderData) -> HolderData:
    """Downscaled copy used as the perturbation in the continuous-dependence
    check; shrinking keeps every regularity constant admissible for the
    step size the original data was planned with."""
    return HolderData(
        u0=lambda *cs: 0.99 * np.asarray(data.u0(*cs), dtype=float),
        f=lambda *cs: 0.995 * np.asarray(data.f(*cs), dtype=float),
        a=data.a,
        L_u0=0.99 * data.L_u0,
        L_f=0.995 * data.L_f,
        sup_u0=0.99 * data.sup_u0,
        sup_f=0.995 * data.sup_f,
        support_radius=data.support_radius,
    )


def run_property_suite(
    config: SchemeConfig, data: HolderData, samples=1000, seed=20260817
) -> PropertyReport:
    """Replay the structural estimates on a computed trajectory.

    Five checks: preservation of the Hoelder modulus in space, sup-norm
    stability, continuous dependence on the data (against a downscaled
    copy), equicontinuity in time of the levels, and space-time
    equicontinuity of the piecewise-linear interpolant. Sampled node and
    time pairs are drawn from ``numpy.random.default_rng(seed)``, so a
    report is reproducible from its recorded seed. Each comparison gets the
    float slack ``1e-9 * (1 + bound)``.

    The estimates hold under the theoretical step-size rule; a practical or
    oversized step demonstrates violations with a failing report, not an
    exception, also on blow-up (the data's run reported under ``stability``,
    its downscaled copy's under ``continuous_dependence``).
    """
    samples = _integer("samples", samples)
    rng = np.random.default_rng(seed)
    summary = _config_summary(config)
    kt, _, _ = theoretical_step_bound(config.p, config.d, config.r, config.T, data)
    kappa = data.a / _cfl_exponent(data.a, config.p)

    names = (
        "modulus_preservation",
        "stability",
        "continuous_dependence",
        "time_equicontinuity",
        "interpolant_equicontinuity",
    )
    data2 = _scaled_data(data)
    blown = "stability"  # the check a blow-up is reported under
    try:
        traj = solve(config, data)
        blown = "continuous_dependence"
        traj2 = solve(config, data2)
    except BlowUpError as exc:
        results = tuple(
            PropertyResult(
                name=name,
                passed=False,
                checked=0,
                worst_margin=float("inf"),
                detail=str(exc) if name == blown else "not evaluated: solver blew up",
            )
            for name in names
        )
        return PropertyReport(
            passed=False, seed=int(seed), samples=samples, config=summary, results=results
        )

    values = np.stack([lvl.values.ravel() for lvl in traj.levels])
    times = traj.times
    nnodes = values.shape[1]
    shape = traj.levels[0].values.shape
    n = traj.levels[0].n
    coords = grid_points(config.d, config.h, config.half_width).reshape(nnodes, -1)

    results = []

    def record(name, lhs, rhs, where):
        tol = _eps(rhs)
        margin = np.asarray(lhs) - np.asarray(rhs) - tol
        worst = int(np.argmax(margin))
        passed = bool(np.all(margin <= 0.0))
        detail = "" if passed else f"worst at {where(worst)}"
        results.append(
            PropertyResult(
                name=name,
                passed=passed,
                checked=int(np.size(margin)),
                worst_margin=float(np.max(margin)),
                detail=detail,
            )
        )

    # 1: spatial modulus preservation at sampled levels and node pairs
    lev = rng.integers(0, config.N + 1, samples)
    na = rng.integers(0, nnodes, samples)
    ng = rng.integers(0, nnodes, samples)
    dist = np.sqrt(np.sum((coords[na] - coords[ng]) ** 2, axis=-1))
    lhs = np.abs(values[lev, na] - values[lev, ng])
    rhs = (data.L_u0 + times[lev] * data.L_f) * dist**data.a
    record(
        "modulus_preservation",
        lhs,
        rhs,
        lambda k: (
            f"level {int(lev[k])}, nodes {_node(na[k], shape, n)} and {_node(ng[k], shape, n)}"
        ),
    )

    # 2: sup-norm stability at every level
    lhs = np.max(np.abs(values), axis=1)
    rhs = data.sup_u0 + times * data.sup_f
    record("stability", lhs, rhs, lambda k: f"level {k}, t = {times[k]:.6g}")

    # 3: continuous dependence against the downscaled data
    values2 = np.stack([lvl.values.ravel() for lvl in traj2.levels])
    f1 = sample_on_grid(data.f, config.d, config.h, config.half_width).values
    f2 = sample_on_grid(data2.f, config.d, config.h, config.half_width).values
    d0 = float(np.max(np.abs(values[0] - values2[0])))
    df = float(np.max(np.abs(f1 - f2)))
    lhs = np.max(np.abs(values - values2), axis=1)
    rhs = d0 + times * df
    record("continuous_dependence", lhs, rhs, lambda k: f"level {k}, t = {times[k]:.6g}")

    # 4: equicontinuity in time over sampled level pairs
    j1 = rng.integers(0, config.N + 1, samples)
    j2 = rng.integers(0, config.N + 1, samples)
    lo = np.minimum(j1, j2)
    hi = np.maximum(j1, j2)
    gap = times[hi] - times[lo]
    lhs = np.array(
        [float(np.max(np.abs(values[hi[k]] - values[lo[k]]))) for k in range(samples)]
    )
    rhs = kt * gap**kappa + data.sup_f * gap
    record(
        "time_equicontinuity",
        lhs,
        rhs,
        lambda k: f"levels {int(lo[k])} and {int(hi[k])}",
    )

    # 5: space-time equicontinuity of the interpolant
    na = rng.integers(0, nnodes, samples)
    ng = rng.integers(0, nnodes, samples)
    t1 = rng.uniform(0.0, config.T, samples)
    t2 = rng.uniform(0.0, config.T, samples)
    dist = np.sqrt(np.sum((coords[na] - coords[ng]) ** 2, axis=-1))
    gap = np.abs(t1 - t2)

    def interpolant(nodes, t):
        return _interpolant(config, lambda j: values[j, nodes], t)

    lhs = np.abs(interpolant(na, t1) - interpolant(ng, t2))
    rhs = (
        (data.L_u0 + config.T * data.L_f) * dist**data.a
        + 3.0 * (kt * gap**kappa + data.sup_f * gap)
    )
    record(
        "interpolant_equicontinuity",
        lhs,
        rhs,
        lambda k: (
            f"nodes {_node(na[k], shape, n)} and {_node(ng[k], shape, n)}, "
            f"times {t1[k]:.6g} and {t2[k]:.6g}"
        ),
    )

    return PropertyReport(
        passed=all(res.passed for res in results),
        seed=int(seed),
        samples=samples,
        config=summary,
        results=tuple(results),
    )
