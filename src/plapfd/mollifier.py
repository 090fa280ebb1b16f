"""Standard mollifier profile and its integral constants.

The bump ``tau(r) = exp(-1/(1-r^2))`` on [0, 1) generates the mollifier
family used by the step-size analysis. Three radial integrals of ``tau``
measure how mollification interacts with Hoelder seminorms:

    M  = 1 / int_0^1 tau(r) r^(d-1) dr
    K1 = M * int_0^1 |tau'(r)| r^(d-1) dr
    K2 = M * int_0^1 (|tau'(r)|/r + |tau''(r)|) r^(d-1) dr

``mollifier_constants`` returns them from a table, with the propagated
error estimate of the run that produced them. That run is adaptive
QUADPACK quadrature (``scipy.integrate.quad``, ``epsabs = epsrel = 1e-13``,
``limit = 200``, upper limit ``1 - 1e-12`` since the integrands underflow
to zero well before 1, and the kink ``3^(-1/4)`` of ``|tau''|`` passed as
a break point for ``K2``) under scipy 1.17.1, numpy 2.4.6 and Python
3.11.7 on x86-64. The table holds the ``repr`` of each value, so it is
that run's result bit for bit; ``test_tabulated_constants_match_quadrature``
in ``tests/test_mollifier.py`` repeats the run, requires the same bits
and an error estimate of at most 1e-8. Importing this module therefore
needs numpy only. ``REFERENCE_BOUNDS`` records, per dimension,
decimal upper bounds ``(M, K1, K2)`` that the computed values must stay
below. Each column has its own source:

- ``M``: the two-decimal ceiling of ``M(d)``.
- ``K1``: the two-decimal ceiling of an upper bound derived without
  quadrature. Integrating by parts against ``r^(d-1)`` gives
  ``K1(1) = M(1)/e``, ``K1(2) = M(2)/M(1)`` and ``K1(3) = 2 M(3)/M(2)``.
  Since ``tau`` decreases and ``r^(d-1)`` increases on [0, 1), each panel
  ``[a, b]`` of a uniform grid brackets the integrand between
  ``tau(b) a^(d-1)`` and ``tau(a) b^(d-1)``; these Riemann sums (10^6
  panels, 1e-12 relative safety) bound ``int tau r^(d-1)`` from both
  sides and so bound each ratio from above. The same brackets also
  certify the ``M`` column.
- ``K2``: carried over unchanged; its source is not recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ConfigurationError
from .operators import jp
import numpy as np

REFERENCE_BOUNDS = {
    1: (4.51, 1.66, 10.83),
    2: (13.47, 2.99, 18.97),
    3: (28.49, 4.24, 29.06),
}


def _on_support(r, formula):
    """``formula`` on ``|r| < 1``, zero elsewhere; a float for a scalar ``r``."""
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = formula(r[inside])
    return float(out[0]) if scalar else out


def profile_tau(r):
    """Bump value ``tau(r)``; identically zero for ``|r| >= 1``."""
    return _on_support(r, lambda ri: np.exp(-1.0 / (1.0 - ri * ri)))


def profile_tau_d1(r):
    """First derivative: ``tau(r) * (-2r) / (1-r^2)^2``, zero outside."""
    def formula(ri):
        s = 1.0 - ri * ri
        return np.exp(-1.0 / s) * (-2.0 * ri) / s**2

    return _on_support(r, formula)


def profile_tau_d2(r):
    """Second derivative: ``tau(r) * (6r^4 - 2) / (1-r^2)^4``, zero outside."""
    def formula(ri):
        rr = ri * ri
        s = 1.0 - rr
        return np.exp(-1.0 / s) * (6.0 * rr * rr - 2.0) / s**4

    return _on_support(r, formula)


@dataclass(frozen=True)
class MollifierConstants:
    """Computed constants for one dimension, with the propagated quadrature
    error estimate (an absolute bound valid for all three values)."""

    d: int
    M: float
    K1: float
    K2: float
    quad_error: float


# (M, K1, K2, quad_error) per dimension, the repr of what the QUADPACK run
# described in the module docstring returned; the tests recompute them
_TABLE = {
    1: (4.504567242087162, 1.6571376797382105, 10.718820101643434, 1.7087100385114823e-12),
    2: (13.468420987430795, 2.9899478159838258, 18.870023663713795, 7.997072667131807e-12),
    3: (28.489429175935847, 4.230552223237334, 28.768052698294397, 2.6441468055030958e-11),
}


@lru_cache(maxsize=None)
def mollifier_constants(d: int) -> MollifierConstants:
    """Return M, K1, K2 for ``d`` in {1, 2, 3} from the module's table;
    any other ``d`` raises ConfigurationError, naming the mollifier.

    The values are those of an adaptive QUADPACK run (``scipy.integrate.quad``
    with ``epsabs = epsrel = 1e-13``, ``limit = 200``, upper limit
    ``1 - 1e-12`` and the kink ``3^(-1/4)`` as a break point for ``K2``;
    scipy 1.17.1, numpy 2.4.6, Python 3.11.7 on x86-64), stored bit for
    bit with the propagated error estimate of that run.
    ``test_tabulated_constants_match_quadrature`` repeats the run and
    requires the same bits and an estimate of at most 1e-8.
    """
    if d not in _TABLE:
        raise ConfigurationError(
            f"mollifier constants are tabulated for d in {{1,2,3}} (got {d})"
        )
    M, K1, K2, quad_error = _TABLE[d]
    return MollifierConstants(d=d, M=M, K1=K1, K2=K2, quad_error=quad_error)


def check_jp_taylor_bound(a, b, p) -> bool:
    """Check ``|jp(a+b) - jp(a)| <= (p-1) * max(|a|, |a+b|)^(p-2) * |b|``.

    The inequality is the elementary Taylor estimate that lets mollified
    data control the nonlinearity; it holds for every finite a, b and
    p >= 2. Returns True when it does, with 1e-12 relative slack on the
    right-hand side.
    """
    a = float(a)
    b = float(b)
    lhs = abs(jp(a + b, p) - jp(a, p))
    rhs = (float(p) - 1.0) * max(abs(a), abs(a + b)) ** (float(p) - 2.0) * abs(b)
    return bool(lhs <= rhs * (1.0 + 1e-12))
