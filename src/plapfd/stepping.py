"""Explicit time stepping for the p-Laplace evolution.

One step advances node values by

    U^j = U^(j-1) + tau * (D U^(j-1) + f),

with ``D`` a discrete p-Laplace operator from :mod:`plapfd.operators` and
``f`` the sampled source. The admissible step size depends on the data's
Hoelder regularity through the constant ``Ktilde``; both the sharp
theoretical bound and a pragmatic ``c * r^(2+(1-a)(p-2))`` rule are
available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .mollifier import mollifier_constants
from .operators import (
    GridField,
    Stencil,
    _EXTENSIONS,
    _REL_SLACK,
    _Workspace,
    _check_p,
    _integer,
    _nonnegative,
    _one_of,
    _positive,
    apply_dp_grid,
    couple_h_to_r,
    sample_on_grid,
    stencil_1d,
    stencil_ball,
    weight_sum_bound,
)


def _check_a(a) -> float:
    a = float(a)
    if not (0.0 < a <= 1.0):
        raise ConfigurationError(f"a must lie in (0, 1] (got {a})")
    return a


def _cfl_exponent(a, p) -> float:
    """Power of ``r`` in both step rules and in Ktilde: ``2 + (1-a)(p-2)``."""
    return 2.0 + (1.0 - a) * (p - 2.0)


def _zero(*xs):
    """Zero datum or source, shaped like the first coordinate array."""
    return np.zeros_like(np.asarray(xs[0], dtype=float))


@dataclass(frozen=True)
class HolderData:
    """Problem data with its regularity certificates.

    ``u0`` and ``f`` are callables receiving one coordinate array per axis
    (see operators.sample_on_grid). ``a`` is the Hoelder exponent in (0, 1],
    ``L_u0``/``L_f`` the Hoelder seminorms and ``sup_u0``/``sup_f`` the sup
    norms, all finite and nonnegative. ``support_radius``, when known, is a
    radius containing the support of the exact solution up to the intended
    final time; the solver uses it to check that a zero extension is exact.
    """

    u0: Callable
    f: Callable
    a: float
    L_u0: float
    L_f: float
    sup_u0: float
    sup_f: float
    support_radius: float | None = None

    def __post_init__(self):
        if not callable(self.u0) or not callable(self.f):
            raise ConfigurationError("u0 and f must be callable")
        object.__setattr__(self, "a", _check_a(self.a))
        for name in ("L_u0", "L_f", "sup_u0", "sup_f"):
            object.__setattr__(self, name, _nonnegative(name, getattr(self, name)))
        if self.support_radius is not None:
            sr = _nonnegative("support_radius", self.support_radius)
            object.__setattr__(self, "support_radius", sr)


def ktilde(a, p, L_u0, K1, K2, M) -> float:
    """Growth constant of the discrete solution in time.

        Ktilde = 4^((1+(1-a)(p-1)) / (2+(1-a)(p-2))) * L_u0^(p / (2+(1-a)(p-2)))
                 * ((p-1) * K1^(p-2) * K2 * M)^(a / (2+(1-a)(p-2))).

    ``K1`` and ``K2`` are mollifier constants, ``M`` the weight-sum constant
    of the stencil in use. Zero Lipschitz data gives Ktilde = 0.
    """
    p = _check_p(p)
    a = _check_a(a)
    L_u0, K1, K2, M = (
        _nonnegative(name, val) for name, val in (("L_u0", L_u0), ("K1", K1), ("K2", K2), ("M", M))
    )
    denom = _cfl_exponent(a, p)
    if L_u0 == 0.0:
        return 0.0
    return (
        4.0 ** ((1.0 + (1.0 - a) * (p - 1.0)) / denom)
        * L_u0 ** (p / denom)
        * ((p - 1.0) * K1 ** (p - 2.0) * K2 * M) ** (a / denom)
    )


def cfl_tau_max(r, a, p, L_u0, L_f, T, Ktilde, M) -> float:
    """Largest admissible time step, ``C * r^(2+(1-a)(p-2))`` with

        C = min(1, 1 / (M * (p-1) * (L_u0 + T*L_f + 3*Ktilde + 1)^(p-2))).

    At ``p = 2`` the exponent is 2 and ``C = 1/M`` regardless of the data;
    at ``a = 1`` the exponent is 2 for every p.
    """
    p = _check_p(p)
    a = _check_a(a)
    r = _positive("r", r)
    C = cfl_constant(a, p, L_u0, L_f, T, Ktilde, M)
    return C * r ** _cfl_exponent(a, p)


def cfl_constant(a, p, L_u0, L_f, T, Ktilde, M) -> float:
    L_u0, L_f, T, Ktilde, M = (
        _nonnegative(name, val)
        for name, val in (("L_u0", L_u0), ("L_f", L_f), ("T", T), ("Ktilde", Ktilde), ("M", M))
    )
    p = float(p)
    grad = L_u0 + T * L_f + 3.0 * Ktilde + 1.0
    return min(1.0, 1.0 / (M * (p - 1.0) * grad ** (p - 2.0)))


def theoretical_step_bound(p, d: int, r, T, data: HolderData) -> tuple:
    """The theoretical step rule for dimension ``d``, radius ``r`` and
    horizon ``T``: ``(Ktilde, C, tau_max, M_bound)``.

    ``K1``/``K2`` come from :func:`plapfd.mollifier.mollifier_constants` and
    ``M_bound`` from :func:`plapfd.operators.weight_sum_bound`; a ``d``
    outside the mollifier table raises its ConfigurationError. So does a
    bound outside float range: at large ``p`` the powers in Ktilde and C
    overflow (a float ``**`` raises OverflowError, a product becomes inf),
    and ``C`` or ``tau_max`` underflows to 0.
    """
    r = _positive("r", r)
    mc = mollifier_constants(d)
    M_bound = weight_sum_bound(d, p)
    kt = C = tau_max = 0.0  # what an overflow leaves
    try:
        kt = ktilde(data.a, p, data.L_u0, mc.K1, mc.K2, M_bound)
        if kt < math.inf:
            C = cfl_constant(data.a, p, data.L_u0, data.L_f, T, kt, M_bound)
            tau_max = C * r ** _cfl_exponent(data.a, p)
    except OverflowError:
        pass
    if not tau_max > 0.0:
        raise ConfigurationError(
            f"the theoretical step bound is outside float range "
            f"(p = {p}, L_u0 = {data.L_u0}, L_f = {data.L_f}, T = {T})"
        )
    return kt, C, tau_max, M_bound


_CFL_MODES = ("theoretical", "practical")
_MAX_STEPS = 2**53  # every j <= N is exact as a float, so j * tau is one rounding


def _capped_steps(N: int) -> int:
    """``N``, refused above 2**53. The message prints N to 3 digits
    through Decimal, which, unlike float, holds every int; it is imported
    here to keep it off the start-up path."""
    if N > _MAX_STEPS:
        from decimal import Context, Decimal

        raise ConfigurationError(
            f"N = {Decimal(N).normalize(Context(prec=3)):g} steps exceeds 2**53, "
            "past which the level times j * tau are no longer exact"
        )
    return N


def _geometry(p, d: int, h, r, coupling_c) -> tuple[float, float]:
    """``(h, r)``: in 1D ``r = h``, from one or both (equal); for ``d >= 2``
    ``r``, with ``h = couple_h_to_r(r, p, d, coupling_c)`` unless ``h`` is
    given. The one home of the 1D rule."""
    if d == 1:
        if h is None and r is None:
            raise ConfigurationError("give h (or r) for one-dimensional runs")
        h = _positive("h", r if h is None else h)
        r = h if r is None else _positive("r", r)
        if r != h:
            raise ConfigurationError(
                f"one-dimensional runs require r = h (got r={r}, h={h})"
            )
        return h, r
    if r is None:
        raise ConfigurationError(f"give the stencil radius r for d = {d}")
    r = _positive("r", r)
    return (couple_h_to_r(r, p, d, coupling_c) if h is None else float(h)), r


def _stencil_of(p, d: int, r, h) -> Stencil:
    """Two-point stencil in 1D, the ball of radius ``r`` otherwise."""
    return stencil_1d(h, p) if d == 1 else stencil_ball(r, h, p, d)


@dataclass(frozen=True)
class SchemeConfig:
    """Fully resolved discretization parameters.

    ``N * tau`` must reproduce ``T`` to within one representable step, the
    one check a given ``tau`` and ``num_steps`` pair meets; grids are the
    symmetric boxes of :class:`plapfd.operators.GridField`. ``(h, r)`` obey
    :func:`_geometry`. In theoretical mode ``tau`` is checked against
    :func:`theoretical_step_bound` when the run starts.
    """

    p: float
    d: int
    T: float
    r: float
    h: float
    tau: float
    N: int
    half_width: float
    cfl_mode: str = "practical"
    extension: str = "zero"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p))
        object.__setattr__(self, "d", _integer("d", self.d))
        for name in ("T", "r", "h", "tau", "half_width"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        object.__setattr__(self, "N", _capped_steps(_integer("N", self.N)))
        gap = abs(self.N * self.tau - self.T)
        if gap > max(1e-9 * self.T, self.tau * 1e-6):
            raise ConfigurationError(
                f"N * tau = {self.N * self.tau} does not reproduce T = {self.T}"
            )
        _geometry(self.p, self.d, self.h, self.r, None)
        _one_of("cfl_mode", self.cfl_mode, _CFL_MODES)
        _one_of("extension", self.extension, _EXTENSIONS)

    def times(self) -> np.ndarray:
        return np.arange(self.N + 1, dtype=float) * self.tau

    @cached_property
    def _stencil(self) -> Stencil:
        return _stencil_of(self.p, self.d, self.r, self.h)


def stencil_for(config: SchemeConfig) -> Stencil:
    """The stencil a config resolves to: two-point in 1D, ball otherwise.

    It is built on first use and kept on the config, which is immutable,
    so a run and its :func:`cfl_report` share one enumeration of the ball.
    """
    return config._stencil


def _step_ratio(T: float, step: float, name: str) -> float:
    """``T / step``, refused unless it is finite: a step that underflowed to
    0 or is subnormal raises ConfigurationError naming ``name``."""
    if step > 0.0 and T / step < math.inf:
        return T / step
    raise ConfigurationError(f"{name} gives a time step too small for float range (T = {T})")


def plan_config(
    p,
    d: int,
    T,
    half_width,
    data: HolderData,
    h=None,
    r=None,
    cfl_mode="practical",
    c_practical=0.2,
    coupling_c=0.1,
    tau=None,
    num_steps=None,
    extension="zero",
) -> SchemeConfig:
    """Resolve grid, radius, and step count into a SchemeConfig.

    Geometry first, by :func:`_geometry`: in 1D give ``h`` or ``r`` (or
    both, equal); for ``d >= 2`` give ``r`` and optionally ``h``. Then
    ``N``, from the first given of ``num_steps``, ``tau`` (``max(1,
    round(T/tau))``), and ``ceil(T/target)`` with the practical target
    ``c_practical * r^(2+(1-a)(p-2))`` or the theoretical bound. ``tau`` is
    the given one, else ``T/N``; SchemeConfig judges a given pair.
    """
    p = _check_p(p)
    T = _positive("T", T)
    d = _integer("d", d)
    h, r = _geometry(p, d, h, r, coupling_c)
    if num_steps is not None:
        # capped before T / N, which overflows past float range
        N = _capped_steps(_integer("num_steps", num_steps))
    elif tau is not None:
        N = max(1, int(round(_step_ratio(T, _positive("tau", tau), "tau"))))
    elif _one_of("cfl_mode", cfl_mode, _CFL_MODES) == "practical":
        target = _positive("c_practical", c_practical) * r ** _cfl_exponent(data.a, p)
        N = max(1, int(math.ceil(_step_ratio(T, target, "c_practical") - 1e-9)))
    else:
        _, _, target, _ = theoretical_step_bound(p, d, r, T, data)
        N = max(1, int(math.ceil(_step_ratio(T, target, "the theoretical step bound"))))
    return SchemeConfig(
        p=p,
        d=d,
        T=T,
        r=r,
        h=h,
        tau=T / N if tau is None else tau,
        N=N,
        half_width=float(half_width),
        cfl_mode=cfl_mode,
        extension=extension,
    )


def cfl_report(config: SchemeConfig, data: HolderData) -> dict:
    """Constants behind the theoretical step bound, for logs and metadata.

    ``Ktilde``, ``C`` and ``tau_max_theoretical`` are NaN where the bound is
    unavailable: for a ``d`` the mollifier table lacks, or where it is
    outside float range (see :func:`theoretical_step_bound`). Those are the
    only ConfigurationErrors the bound can raise here: every other check
    inside it sees values that SchemeConfig and HolderData have already
    validated, the tabulated mollifier constants, or a Ktilde checked to be
    finite.
    """
    stencil = stencil_for(config)
    try:
        kt, C, tau_max, _ = theoretical_step_bound(config.p, config.d, config.r, config.T, data)
    except ConfigurationError:
        kt = tau_max = C = float("nan")
    return {
        "Ktilde": kt,
        "C": C,
        "tau_max_theoretical": tau_max,
        "M_bound": stencil.M_bound,
        "stencil_size": len(stencil),
    }


def explicit_step(
    field: GridField,
    stencil: Stencil,
    f_values: GridField,
    tau,
    step=None,
    *,
    _work: _Workspace | None = None,
) -> GridField:
    """One forward step ``U + tau * (D U + f)``.

    ``tau = 0`` reproduces the input. The update is evaluated in place in
    the new array apply_dp_grid returns, in the order ``U + tau * (D U +
    f)``, and checked for finiteness once: non-finite output raises
    BlowUpError naming the first offending node in scan order (and the
    step index when given). The checked array is wrapped without
    validating it again. One ``np.errstate`` covers the operator call and
    the update, so overflow, ``inf - inf`` and ``log(0)`` stay silent and
    show up only as the non-finite values the check reports.

    With ``_work``, the operator's scratch arrays owned by
    :func:`iter_levels`, the step leaves four things to that caller: the
    ``np.errstate``, the finiteness check, the validation of ``tau`` and
    of the source's grid, and the source itself when it holds only +0
    (``f_values`` is then None). The returned level is not yet checked.
    The new level never shares memory with the scratch arrays or with
    the input.
    """
    if _work is not None:
        return field._with_checked_values(_advance(field, stencil, f_values, tau, _work))
    tau = _nonnegative("tau", tau)
    if (
        f_values.d != field.d
        or f_values.h != field.h
        or f_values.values.shape != field.values.shape
    ):
        raise ConfigurationError("source term sampled on a different grid")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _advance(field, stencil, f_values, tau, None)
    node = _nonfinite_node(out, field.n)
    if node is not None:
        raise BlowUpError(node, step)
    return field._with_checked_values(out)


def _advance(field, stencil, f_values, tau, work) -> np.ndarray:
    """``U + tau * (D U + f)`` as a new array, under the caller's errstate;
    ``f_values`` None adds no source."""
    out = apply_dp_grid(stencil, field, _work=work)
    if f_values is not None:
        np.add(out, f_values.values, out=out)
    np.multiply(out, tau, out=out)
    np.add(field.values, out, out=out)
    return out


def _node(flat, shape: tuple, n: int) -> tuple:
    """Node index ``alpha`` at C-order position ``flat`` of a grid array."""
    return tuple(int(i) - n for i in np.unravel_index(int(flat), shape))


def _nonfinite_node(values: np.ndarray, n: int) -> tuple | None:
    """Index of the first non-finite node in scan order, or None."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) == finite.size:
        return None
    return _node(np.argmin(finite), values.shape, n)


def _initial_fields(config: SchemeConfig, data: HolderData) -> tuple[GridField, GridField]:
    u = sample_on_grid(data.u0, config.d, config.h, config.half_width, config.extension)
    f = sample_on_grid(data.f, config.d, config.h, config.half_width, config.extension)
    return u, f


def check_margin(config: SchemeConfig, support_radius) -> None:
    """Require the box to hold a support of radius ``support_radius`` plus
    the stencil radius, so the zero extension reads only true zeros."""
    if support_radius + config.r > config.half_width + _REL_SLACK:
        raise ConfigurationError(
            f"support radius {support_radius} plus stencil radius "
            f"{config.r} does not fit in half_width {config.half_width}; "
            "the zero extension would clip the solution"
        )


def _validate_run(config: SchemeConfig, data: HolderData) -> None:
    if config.cfl_mode == "theoretical":
        _, _, tau_max, _ = theoretical_step_bound(config.p, config.d, config.r, config.T, data)
        if config.tau > tau_max * (1.0 + _REL_SLACK):
            raise ConfigurationError(
                f"tau = {config.tau} exceeds the theoretical bound {tau_max}"
            )
    if config.extension == "zero" and data.support_radius is not None:
        check_margin(config, data.support_radius)


# Bytes of level values handled as one block: iter_levels steps this many
# under one errstate and one finiteness check, and analysis compares this
# many with one barenblatt_eval call. 20 levels of 401 nodes, one level on
# grids of 8k nodes or more. Four times as much ran no faster and raised a
# 1D run's peak RSS by ~1.5 MB in temporaries.
_BLOCK_BYTES = 1 << 16


def _levels_per_block(shape: tuple) -> int:
    return max(1, _BLOCK_BYTES // (8 * math.prod(shape)))


def iter_levels(config: SchemeConfig, data: HolderData) -> Iterator[GridField]:
    """Yield ``U^0, U^1, ..., U^N`` one at a time.

    Streaming interface for long runs where materializing the whole
    trajectory would not fit in memory. The source is sampled once and
    reused across steps, and skipped when it holds only +0 bits: the
    operator's accumulator is never -0, so adding +0 to it changes no bit.
    The run owns one set of operator scratch arrays, allocated here and
    passed down through explicit_step to apply_dp_grid; every yielded
    level is still a new array, so levels a caller keeps are never
    overwritten by later steps.

    Levels are stepped in chunks of ``_BLOCK_BYTES`` (one level per chunk
    on grids of 8k nodes or more), each under one ``np.errstate`` that is
    left before any level is yielded. Finiteness is checked once per
    chunk, on its last level: a non-finite node stays non-finite, because
    ``U^(j+1) = U^j + ...`` and inf or NaN plus anything is inf or NaN.
    When that check fails, the chunk's healthy levels are yielded and then
    BlowUpError names the first non-finite node of the first blown level,
    as a check after every step would. ``tau`` and the source's grid need
    no check per step: the config validated one, and the other is sampled
    on the same grid as ``U^0``.
    """
    stencil = stencil_for(config)
    _validate_run(config, data)
    u, f = _initial_fields(config, data)
    work = _Workspace(stencil, u.values.shape, u.extension)
    source = f if f.values.view(np.int64).any() else None  # +0.0 alone has no bit set
    tau = np.array(config.tau)  # numpy multiplies by a 0-d array faster, with the same bits
    chunk = _levels_per_block(u.values.shape)
    yield u
    for first in range(1, config.N + 1, chunk):
        levels = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(min(chunk, config.N + 1 - first)):
                u = explicit_step(u, stencil, source, tau, _work=work)
                levels.append(u)
        if _nonfinite_node(u.values, u.n) is not None:
            for k, level in enumerate(levels):
                node = _nonfinite_node(level.values, u.n)
                if node is not None:
                    yield from levels[:k]
                    raise BlowUpError(node, first + k)
        yield from levels


@dataclass(frozen=True, eq=False)
class Trajectory:
    """All time levels of one run: ``levels[j]`` holds ``U^j`` at time
    ``times[j] = j * tau``."""

    levels: tuple
    config: SchemeConfig

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) != self.config.N + 1:
            raise ConfigurationError(
                f"expected {self.config.N + 1} levels, got {len(self.levels)}"
            )

    @cached_property
    def times(self) -> np.ndarray:
        return self.config.times()


def solve(config: SchemeConfig, data: HolderData) -> Trajectory:
    """Run the scheme to time ``T`` and keep every level."""
    return Trajectory(levels=tuple(iter_levels(config, data)), config=config)


def _bracket(t, tau, N):
    """Index ``j`` of the level pair ``[t_j, t_{j+1}]`` holding ``t``:
    ``min(floor(t / tau), N - 1)``, elementwise for an array ``t``."""
    return np.minimum(np.floor(t / tau), N - 1).astype(np.intp)


def _interpolate(lo, hi, tj, tj1, t, tau):
    """The interpolant between ``lo`` at ``tj`` and ``hi`` at ``tj1``, for
    scalars and arrays alike: ``lo`` where ``t == tj``, ``hi`` where ``t ==
    tj1``, and ``((tj1 - t)/tau) * lo + ((t - tj)/tau) * hi`` elsewhere."""
    mid = ((tj1 - t) / tau) * lo + ((t - tj) / tau) * hi
    return np.where(t == tj, lo, np.where(t == tj1, hi, mid))


def time_interpolate(traj: Trajectory, x_alpha, t) -> float:
    """Piecewise-linear-in-time interpolant at node ``x_alpha``.

        U(x, t) = ((t_{j+1} - t)/tau) U^j(x) + ((t - t_j)/tau) U^{j+1}(x)

    for ``t`` between ``t_j`` and ``t_{j+1}``. Values at the level times
    (including t = 0 and t = T) are returned exactly, not through the
    weighted form. ``t`` outside [0, T] raises ValueError.
    """
    cfg = traj.config
    t = float(t)
    if not 0.0 <= t <= cfg.T:
        raise ValueError(f"t = {t} outside [0, {cfg.T}]")
    slot = traj.levels[0]._slot(x_alpha)
    j = int(_bracket(t, cfg.tau, cfg.N))
    lo = traj.levels[j].values[slot]
    hi = traj.levels[j + 1].values[slot]
    return float(_interpolate(lo, hi, traj.times[j], traj.times[j + 1], t, cfg.tau))


def constant_data(u0_value=0.0, f_value=0.0) -> HolderData:
    """Spatially constant datum and source; the solution is the line
    ``u0 + t * f``."""
    u0_value = float(u0_value)
    f_value = float(f_value)

    def u0(*coords):
        return np.full_like(coords[0], u0_value)

    def f(*coords):
        return np.full_like(coords[0], f_value)

    return HolderData(
        u0=u0,
        f=f,
        a=1.0,
        L_u0=0.0,
        L_f=0.0,
        sup_u0=abs(u0_value),
        sup_f=abs(f_value),
    )


def tent_data(height=1.0) -> HolderData:
    """1D tent ``u0 = height * max(0, 1 - |x|)``, zero source."""
    height = _positive("height", height)

    def u0(x):
        return height * np.maximum(0.0, 1.0 - np.abs(x))

    return HolderData(u0=u0, f=_zero, a=1.0, L_u0=height, L_f=0.0, sup_u0=height, sup_f=0.0)


def sqrt_cusp_data() -> HolderData:
    """1D datum ``u0 = sqrt(|x|) * (1 - |x|)_+`` with Hoelder exponent 1/2.

    The 1/2-seminorm of sqrt(|x|) is 1 and the cutoff is bounded by 1 and
    Lipschitz, so L_u0 = 2 certifies the product on the unit interval. The
    maximum sits at |x| = 1/3.
    """

    def u0(x):
        return np.sqrt(np.abs(x)) * np.maximum(0.0, 1.0 - np.abs(x))

    return HolderData(
        u0=u0,
        f=_zero,
        a=0.5,
        L_u0=2.0,
        L_f=0.0,
        sup_u0=2.0 / (3.0 * math.sqrt(3.0)),
        sup_f=0.0,
    )


def oscillatory_data(h, amplitude=1.0) -> HolderData:
    """Checkerboard datum ``u0 = A * cos(pi x / h)``: alternating signs on a
    grid of spacing h. Useful for demonstrating step-size violations."""
    h = _positive("h", h)
    amplitude = _positive("amplitude", amplitude)

    def u0(x):
        return amplitude * np.cos(math.pi * x / h)

    return HolderData(
        u0=u0,
        f=_zero,
        a=1.0,
        L_u0=amplitude * math.pi / h,
        L_f=0.0,
        sup_u0=amplitude,
        sup_f=0.0,
    )
