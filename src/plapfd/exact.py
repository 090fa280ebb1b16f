"""Closed-form reference solutions.

The Barenblatt family solves the homogeneous equation with a point-mass
initial condition and provides the main convergence benchmark: compactly
supported in space, self-similar, and explicitly evaluable. Alongside it
lives the classical action of the p-Laplacian on the quadratic ``|x|^2``,
used as a consistency oracle for the discrete operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import _check_p, _integer, _nonnegative, _positive
from .stepping import HolderData, _zero


@dataclass(frozen=True)
class BarenblattSolution:
    """Parameters of the Barenblatt profile

        B(x, t) = K * s^(-alpha)
                  * ( 1 - (|x| / s^beta)^(p/(p-1)) )_+^((p-1)/(p-2)),

    with ``s = t + t_shift``. ``alpha = d*beta`` and ``beta = 1/(d*(p-2)+p)``
    come from mass conservation and scaling; the amplitude
    ``K = ((p-2)/p * beta^(1/(p-1)))^((p-1)/(p-2))`` is exactly the value
    that makes this an exact solution, and the positive part closes at
    ``|x| = s^beta``. Only ``(d, p, t_shift)`` are given: ``alpha``, ``beta``
    and ``K`` are set from :func:`barenblatt_constants` on construction.
    """

    d: int
    p: float
    t_shift: float = 1.0
    alpha: float = field(init=False)
    beta: float = field(init=False)
    K: float = field(init=False)

    def __post_init__(self):
        derived = barenblatt_constants(self.d, self.p)
        given = (int(self.d), float(self.p), _nonnegative("t_shift", self.t_shift))
        for name, val in zip(("d", "p", "t_shift", "alpha", "beta", "K"), given + derived):
            object.__setattr__(self, name, val)

    def support_radius(self, t) -> float:
        """Radius of the support at time ``t``: ``(t + t_shift)^beta``."""
        s = float(t) + self.t_shift
        if s <= 0.0:
            raise ValueError(f"t + t_shift must be positive (got {s})")
        return s**self.beta


def barenblatt_constants(d: int, p) -> tuple[float, float, float]:
    """Exponents and normalization ``(alpha, beta, K)`` for given d, p > 2."""
    d = _integer("d", d)
    p = float(p)
    if not math.isfinite(p) or p <= 2.0:
        raise ValueError(f"Barenblatt profiles need p > 2 (got {p})")
    beta = 1.0 / (d * (p - 2.0) + p)
    alpha = d * beta
    K = ((p - 2.0) / p * beta ** (1.0 / (p - 1.0))) ** ((p - 1.0) / (p - 2.0))
    return alpha, beta, K


barenblatt_solution = BarenblattSolution  # the constructor derives the constants


def _point_radius(x, d: int):
    x = np.asarray(x, dtype=float)
    if d == 1:
        return np.abs(x)
    if x.ndim == 0 or x.shape[-1] != d:
        raise ValueError(f"points for d={d} must have last axis of length {d}")
    return np.sqrt(np.sum(x * x, axis=-1))


def barenblatt_eval(sol: BarenblattSolution, x, t):
    """Evaluate ``B(x, t)``.

    ``x`` is a scalar or array of coordinates for ``d = 1``, or an array
    whose last axis has length ``d`` otherwise. ``t`` is a scalar, or a
    1-D array of times: then the result has one row per time, ``out[i]``
    holding ``B(x, t[i])``, byte for byte what the scalar call at
    ``t[i]`` returns. The positive part is taken exactly: nodes outside
    the support return +0.0 with no rounding noise.

    The profile is evaluated only on the contiguous hull, in the flat
    order of ``x``, of the points whose radius is below the largest
    support radius ``s^beta`` of the given times; every other point is
    past the support at every time and reads +0.0. Inside the hull the
    fractional power is ``fmax(exp(q * log(base)), 0)``: a base of 0
    gives ``exp(-inf) = 0`` and a negative base gives NaN, which ``fmax``
    turns into +0.0, so no mask is needed.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D array (got shape {times.shape})")
    # the per-time scalars stay Python floats: numpy's array power differs
    # from the scalar one in the last bit on some values
    s = [ti + sol.t_shift for ti in np.atleast_1d(times).tolist()]
    for si in s:
        if si <= 0.0:
            raise ValueError(f"t + t_shift must be positive (got {si})")
    rho = _point_radius(x, sol.d)
    radii = [si**sol.beta for si in s]
    flat = rho.reshape(-1)
    out = np.zeros((len(s), flat.size))
    # base > 0 needs rho / s^beta < 1, hence rho < s^beta
    inside = np.flatnonzero(flat < max(radii))
    if inside.size:
        lo, hi = int(inside[0]), int(inside[-1]) + 1
        p = sol.p
        q = (p - 1.0) / (p - 2.0)
        y = flat[lo:hi] / np.array(radii)[:, None]
        base = 1.0 - y ** (p / (p - 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(base, out=base)
            np.multiply(q, base, out=base)
            np.exp(base, out=base)
            np.fmax(base, 0.0, out=base)
        amplitude = np.array([sol.K * si ** (-sol.alpha) for si in s])
        np.multiply(base, amplitude[:, None], out=out[:, lo:hi])
    out = out.reshape((len(s),) + rho.shape)
    if times.ndim == 1:
        return out
    if rho.ndim == 0:
        return float(out[0])
    return out[0]


def barenblatt_lipschitz(p, d: int = 1) -> float:
    """Upper bound ``K * p / (p - 2)`` on the spatial Lipschitz constant of
    ``B(., t)`` at ``t + t_shift = 1``, with ``K`` the amplitude of
    dimension ``d``.

    The profile is radial, so its gradient magnitude is the derivative in
    ``|x|``: with ``z = |x|^(p/(p-1))`` inside the support it is ``K p/(p-2)
    * z^(1/p) * (1-z)^(1/(p-2))`` in every d, and both trailing factors lie
    in [0, 1], hence the bound. It is not attained: the gradient vanishes
    at the origin and at the support edge, and its maximum is interior, at
    ``z = (p-2)/(2(p-1))``. In d = 1 an algebraically equal closed form of
    the bound is ``((p-2) / (2p(p-1)))^(1/(p-2))``.
    """
    _, _, K = barenblatt_constants(d, p)
    return K * float(p) / (float(p) - 2.0)


def barenblatt_data(p, horizon, d: int = 1, t_shift=1.0) -> HolderData:
    """Problem data whose exact solution is the Barenblatt profile.

    ``horizon`` is the final time the data will be run to; the recorded
    support radius ``(horizon + t_shift)^beta`` lets the solver check that
    the computational box keeps a margin of ``r`` around the support, which
    makes the zero extension exact. Any ``d`` is accepted; ``u0`` and ``f``
    take one coordinate array per axis, as sample_on_grid passes them.
    Requires ``t_shift > 0`` so the initial datum is Lipschitz rather than
    a point mass.
    """
    t_shift = _positive("t_shift", t_shift)
    horizon = _positive("horizon", horizon)
    sol = barenblatt_solution(d, p, t_shift)

    def u0(*xs):
        x = xs[0] if sol.d == 1 else np.stack(xs, axis=-1)
        return barenblatt_eval(sol, x, 0.0)

    lip = barenblatt_lipschitz(p, sol.d) * t_shift ** (-(sol.alpha + sol.beta))
    return HolderData(
        u0=u0,
        f=_zero,
        a=1.0,
        L_u0=lip,
        L_f=0.0,
        sup_u0=sol.K * t_shift ** (-sol.alpha),
        sup_f=0.0,
        support_radius=sol.support_radius(horizon),
    )


def plap_quadratic_oracle(x, p, d: int):
    """Exact p-Laplacian of ``psi(x) = |x|^2``.

    Classical computation: ``2^(p-1) * (d + p - 2) * |x|^(p-2)``. Accepts
    points in the same convention as barenblatt_eval.
    """
    p = _check_p(p)
    d = _integer("d", d)
    rho = _point_radius(x, d)
    out = 2.0 ** (p - 1.0) * (d + p - 2.0) * rho ** (p - 2.0)
    if np.ndim(out) == 0:
        return float(out)
    return out
