import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from plapfd import (
    REFERENCE_BOUNDS,
    ConfigurationError,
    check_jp_taylor_bound,
    mollifier_constants,
    profile_tau,
    profile_tau_d1,
    profile_tau_d2,
)

# values frozen from a converged adaptive-quadrature run; the identity
# tests below pin them independently of the integrator
FROZEN = {
    1: (4.504567242087162, 1.6571376797382105, 10.718820101643434),
    2: (13.468420987430795, 2.9899478159838258, 18.870023663713795),
    3: (28.489429175935847, 4.230552223237334, 28.768052698294397),
}


def test_profile_center_values():
    assert profile_tau(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert profile_tau_d1(0.0) == 0.0
    assert profile_tau_d2(0.0) == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-15)


def test_profile_vanishes_outside():
    r = np.array([-2.0, -1.0, 1.0, 1.5, 100.0])
    assert np.all(profile_tau(r) == 0.0)
    assert np.all(profile_tau_d1(r) == 0.0)
    assert np.all(profile_tau_d2(r) == 0.0)


def test_profile_even_and_derivative_odd():
    r = np.linspace(0.05, 0.95, 19)
    np.testing.assert_array_equal(profile_tau(r), profile_tau(-r))
    np.testing.assert_array_equal(profile_tau_d1(-r), -profile_tau_d1(r))
    np.testing.assert_array_equal(profile_tau_d2(-r), profile_tau_d2(r))


def test_profile_derivatives_match_finite_differences():
    r = np.linspace(0.1, 0.8, 8)
    eps = 1e-6
    fd1 = (profile_tau(r + eps) - profile_tau(r - eps)) / (2 * eps)
    np.testing.assert_allclose(profile_tau_d1(r), fd1, rtol=1e-7, atol=1e-9)
    fd2 = (profile_tau(r + eps) - 2 * profile_tau(r) + profile_tau(r - eps)) / eps**2
    np.testing.assert_allclose(profile_tau_d2(r), fd2, rtol=1e-3, atol=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constants_match_frozen_values(d):
    c = mollifier_constants(d)
    M, K1, K2 = FROZEN[d]
    assert c.M == pytest.approx(M, rel=1e-10)
    assert c.K1 == pytest.approx(K1, rel=1e-10)
    assert c.K2 == pytest.approx(K2, rel=1e-10)
    assert 0.0 < c.quad_error <= 1e-8


# |tau''| changes sign where 6r^4 = 2; quadrature gets told about the kink
_KINK = (1.0 / 3.0) ** 0.25

# upper integration limit: the integrand underflows to exact zero well
# before this, but at r = 1 the exponent itself would divide by zero
_TOP = 1.0 - 1e-12


def _quadrature_constants(d):
    # the adaptive-quadrature run that produced the table in plapfd.mollifier:
    # (M, K1, K2, propagated error estimate)
    def tau_w(r: float) -> float:
        s = 1.0 - r * r
        return math.exp(-1.0 / s) * r ** (d - 1)

    def dtau_w(r: float) -> float:
        # |tau'| = 2 r tau / (1-r^2)^2 on [0, 1)
        s = 1.0 - r * r
        return math.exp(-1.0 / s) * 2.0 * r / s**2 * r ** (d - 1)

    def curvature_w(r: float) -> float:
        # |tau'|/r + |tau''| = tau * (2/(1-r^2)^2 + |6r^4 - 2|/(1-r^2)^4)
        s = 1.0 - r * r
        return (
            math.exp(-1.0 / s)
            * (2.0 / s**2 + abs(6.0 * r**4 - 2.0) / s**4)
            * r ** (d - 1)
        )

    opts = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
    IM, eM = quad(tau_w, 0.0, _TOP, **opts)
    I1, e1 = quad(dtau_w, 0.0, _TOP, **opts)
    I2, e2 = quad(curvature_w, 0.0, _TOP, points=[_KINK], **opts)
    M = 1.0 / IM
    K1 = M * I1
    K2 = M * I2
    err_M = eM / IM**2
    err_K1 = M * e1 + I1 * err_M
    err_K2 = M * e2 + I2 * err_M
    estimate = max(err_M, err_K1, err_K2)
    return M, K1, K2, estimate


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tabulated_constants_match_quadrature(d):
    c = mollifier_constants(d)
    M, K1, K2, estimate = _quadrature_constants(d)
    # bit for bit: the table is the repr of this run's results
    assert (c.M, c.K1, c.K2, c.quad_error) == (M, K1, K2, estimate)
    assert math.isfinite(estimate) and estimate <= 1e-8


def test_import_loads_no_scipy():
    # the package runs on numpy alone: importing it, the constants table and
    # the theoretical step rule (the only users of the mollifier constants)
    # must not pull in scipy
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import plapfd, plapfd.cli\n"
        "assert plapfd.cli.main(['constants']) == 0\n"
        "for d in (1, 2, 3):\n"
        "    plapfd.theoretical_step_bound(3.0, d, 0.1, 0.1, plapfd.constant_data(1.0))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constants_below_reference_bounds(d):
    c = mollifier_constants(d)
    bM, b1, b2 = REFERENCE_BOUNDS[d]
    assert c.M <= bM
    assert c.K1 <= b1
    assert c.K2 <= b2


def _moment_brackets(d, n=10**6):
    # tau decreases and r^(d-1) increases on [0, 1), so on each panel [a, b]
    # tau(b) a^(d-1) <= tau(r) r^(d-1) <= tau(a) b^(d-1); the 1e-12 factor
    # covers the rounding of the sums and of tau where it is not negligible
    r = np.arange(n + 1) / n
    t = profile_tau(r)
    w = r ** (d - 1)
    lower = np.sum(t[1:] * w[:-1]) / n * (1.0 - 1e-12)
    upper = np.sum(t[:-1] * w[1:]) / n * (1.0 + 1e-12)
    return lower, upper


def test_reference_bounds_certified_without_quadrature():
    # each M and K1 entry is the two-decimal ceiling of a bound that uses
    # Riemann sums and the identities of test_constants_identities only:
    #   M(d) <= 1/L_d, K1(1) <= 1/(e L_1), K1(2) <= U_1/L_2, K1(3) <= 2 U_2/L_3
    (L1, U1), (L2, U2), (L3, _) = (_moment_brackets(d) for d in (1, 2, 3))
    derived_M = {1: 1.0 / L1, 2: 1.0 / L2, 3: 1.0 / L3}
    derived_K1 = {1: 1.0 / (math.e * L1), 2: U1 / L2, 3: 2.0 * U2 / L3}
    for d in (1, 2, 3):
        bM, b1, _ = REFERENCE_BOUNDS[d]
        assert derived_M[d] <= bM < derived_M[d] + 0.01, (d, derived_M[d], bM)
        assert derived_K1[d] <= b1 < derived_K1[d] + 0.01, (d, derived_K1[d], b1)


def test_constants_identities():
    # closed forms reachable without the quadrature route:
    #   K1(1) = M(1)/e          (tau' is single-signed, integral telescopes)
    #   K1(2) = M(2)/M(1)       (integration by parts against r)
    #   K1(3) = 2 M(3)/M(2)     (same, against r^2)
    #   M(2)  = 2/(1/e - E1(1)) (substitution u = 1/(1-r^2))
    c1, c2, c3 = (mollifier_constants(d) for d in (1, 2, 3))
    assert c1.K1 == pytest.approx(c1.M / math.e, rel=1e-11)
    assert c2.K1 == pytest.approx(c2.M / c1.M, rel=1e-11)
    assert c3.K1 == pytest.approx(2.0 * c3.M / c2.M, rel=1e-11)
    assert c2.M == pytest.approx(2.0 / (math.exp(-1.0) - float(exp1(1.0))), rel=1e-11)


def test_constants_cached_and_validated():
    assert mollifier_constants(2) is mollifier_constants(2)
    # the table is the one home of the certified dimensions
    for d in (4, 0):
        with pytest.raises(ConfigurationError, match=r"^mollifier constants are tabulated"):
            mollifier_constants(d)


def _mollify_1d(u, xs, delta, M):
    # u_delta(x) = M/delta * int tau(|x-z|/delta) u(z) dz
    #            = M * int_{-1}^{1} tau(s) u(x - delta s) ds
    nodes, weights = np.polynomial.legendre.leggauss(400)
    vals = profile_tau(nodes) * weights
    return M * np.array([np.sum(vals * u(x - delta * nodes)) for x in xs])


def test_mollified_cusp_respects_first_difference_bound():
    # for u(x) = |x|^(1/2) (a = 1/2, L = 1) mollification at scale delta
    # must have Lipschitz constant at most K1 * delta^(a-1)
    c = mollifier_constants(1)
    delta = 0.1
    xs = np.linspace(-0.5, 0.5, 2001)
    ud = _mollify_1d(lambda z: np.sqrt(np.abs(z)), xs, delta, c.M)
    slopes = np.abs(np.diff(ud)) / np.diff(xs)
    assert slopes.max() <= c.K1 * delta ** (-0.5)


def test_mollified_cusp_respects_second_difference_bound():
    # |u_delta(x+y) - 2 u_delta(x) + u_delta(x-y)| <= K2 * delta^(a-2) * y^2
    c = mollifier_constants(1)
    delta = 0.1
    xs = np.linspace(-0.3, 0.3, 601)
    u = lambda z: np.sqrt(np.abs(z))
    for y in (0.01, 0.05, 0.2):
        lhs = np.abs(
            _mollify_1d(u, xs + y, delta, c.M)
            - 2.0 * _mollify_1d(u, xs, delta, c.M)
            + _mollify_1d(u, xs - y, delta, c.M)
        )
        assert lhs.max() <= c.K2 * delta ** (-1.5) * y**2


def test_taylor_bound_hand_cases():
    assert check_jp_taylor_bound(0.0, 1.0, 3.0)
    assert check_jp_taylor_bound(1.0, -2.0, 4.0)
    assert check_jp_taylor_bound(5.0, 0.0, 7.5)
    # p = 2 reduces to equality |b| <= |b|; the relative slack must absorb it
    assert check_jp_taylor_bound(0.3, -0.7, 2.0)


def test_taylor_bound_randomized():
    rng = np.random.default_rng(20260817)
    for _ in range(10_000):
        a = float(rng.uniform(-10.0, 10.0))
        b = float(rng.uniform(-10.0, 10.0))
        p = float(rng.uniform(2.0, 20.0))
        assert check_jp_taylor_bound(a, b, p)
