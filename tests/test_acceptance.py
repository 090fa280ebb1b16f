"""End-to-end acceptance runs.

Every criterion the package promises is exercised here at its stated
tolerance, printing one PASS/FAIL line per criterion (visible even under
captured output). These are deliberately the slowest tests in the suite;
together they take a couple of minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from plapfd import (
    REFERENCE_BOUNDS,
    check_jp_taylor_bound,
    consistency_table,
    constant_data,
    convergence_study,
    dpd_constant,
    mollifier_constants,
    observed_order,
    oscillatory_data,
    barenblatt_data,
    plan_config,
    run_property_suite,
    sample_on_grid,
    solve,
    sqrt_cusp_data,
    tent_data,
    theoretical_step_bound,
)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


ORDER_BANDS = {3.0: (1.30, 1.70), 4.0: (1.13, 1.53)}


def test_criterion_1_convergence_order(capsys):
    levels = [0.04, 0.02, 0.01, 0.005]
    summary = []
    ok = True
    for p in (3.0, 4.0, 10.0):
        start = time.perf_counter()
        rows = convergence_study(p, levels, T=1.0, half_width=2.0, c_practical=0.2)
        wall = time.perf_counter() - start
        errs = [row.sup_error for row in rows]
        decreasing = all(a > b for a, b in zip(errs, errs[1:]))
        ok &= decreasing and wall < 120.0
        if p in ORDER_BANDS:
            lo, hi = ORDER_BANDS[p]
            order = observed_order(rows)
            ok &= lo <= order <= hi
            summary.append(f"p={p:g} order={order:.4f} in [{lo},{hi}]")
        else:
            summary.append(f"p={p:g} errors decreasing")
    _report(capsys, 1, ok, "; ".join(summary))


def _heat_reference_levels(u0_vals, h, tau, steps):
    # classical explicit heat scheme with zero extension, same arithmetic
    # order as the solver kernel
    u = u0_vals.copy()
    w = h ** (-2.0)
    out = [u.copy()]
    zero_f = np.zeros_like(u)
    for _ in range(steps):
        um = np.zeros_like(u)
        um[1:] = u[:-1]
        up = np.zeros_like(u)
        up[:-1] = u[1:]
        acc = np.zeros_like(u)
        acc += (um - u) * w
        acc += (up - u) * w
        u = u + tau * (acc + zero_f)
        out.append(u.copy())
    return out


def test_criterion_2_heat_reduction(capsys):
    data = tent_data()
    T = 0.2
    finals = {}
    bitwise = True
    for h in (0.2, 0.1, 0.05, 0.025):
        cfg = plan_config(2.0, 1, T, 3.0, data, h=h, tau=h * h / 2)
        traj = solve(cfg, data)
        ref = _heat_reference_levels(
            sample_on_grid(data.u0, 1, h, 3.0).values, h, cfg.tau, cfg.N
        )
        bitwise &= len(ref) == len(traj.levels) and all(
            np.array_equal(lvl.values, rv) for lvl, rv in zip(traj.levels, ref)
        )
        finals[h] = traj.levels[-1].values
    fine = finals[0.025]
    n_fine = (len(fine) - 1) // 2
    self_errors = []
    for h in (0.2, 0.1, 0.05):
        stride = int(round(h / 0.025))
        sub = fine[::stride]
        self_errors.append(float(np.max(np.abs(finals[h] - sub))))
    decreasing = all(a > b for a, b in zip(self_errors, self_errors[1:]))
    ok = bitwise and decreasing
    _report(
        capsys, 2, ok,
        f"bit-identical to the classical heat scheme at 4 mesh sizes; "
        f"self-reference errors {['%.3g' % e for e in self_errors]} decreasing",
    )


def test_criterion_3_affine_in_time_exact(capsys):
    data = constant_data(0.0, 1.0)
    worst = []
    for d, r in ((1, 0.25), (2, 0.5)):
        cfg = plan_config(
            3.0, d, 1.0, 1.0, data, h=0.25, r=r, num_steps=64, extension="boundary"
        )
        traj = solve(cfg, data)
        dev = max(
            float(np.max(np.abs(lvl.values - traj.times[j])))
            for j, lvl in enumerate(traj.levels)
        )
        worst.append(dev)
    tol = 1e-12 * 64
    ok = all(dev <= tol for dev in worst)
    _report(
        capsys, 3, ok,
        f"u0=0, f=1 gives U^j = t_j; worst deviations {['%.2e' % d for d in worst]} "
        f"within 1e-12*N = {tol:.1e}",
    )


def test_criterion_4_proposition_suite(capsys):
    combos = [
        (2.0, tent_data(), 0.1, 0.5, "p=2 tent"),
        (2.0, sqrt_cusp_data(), 0.1, 0.5, "p=2 cusp"),
        (3.0, barenblatt_data(3.0, horizon=0.5), 0.1, 0.5, "p=3 barenblatt"),
        (3.0, sqrt_cusp_data(), 0.1, 0.1, "p=3 cusp"),
        (4.0, barenblatt_data(4.0, horizon=0.25), 0.1, 0.25, "p=4 barenblatt"),
        (4.0, sqrt_cusp_data(), 0.2, 0.01, "p=4 cusp"),
    ]
    passed = []
    for p, data, h, T, label in combos:
        cfg = plan_config(p, 1, T, 2.0, data, h=h, cfl_mode="theoretical")
        report = run_property_suite(cfg, data, samples=1000, seed=20260817)
        passed.append((label, report.passed))

    # violation branch at p = 2, where the theoretical limit r^2/2 is the
    # sharp classical threshold: 1000x that step must break the stability
    # bound (for p > 2 the constant is conservative enough that 1000x can
    # still be stable)
    data = oscillatory_data(0.1)
    tau_max = theoretical_step_bound(2.0, 1, 0.1, 1.0, data)[2]
    tau = 1000.0 * tau_max
    cfg = plan_config(2.0, 1, 8 * tau, 1.0, data, h=0.1, tau=tau)
    violated = run_property_suite(cfg, data, samples=1000, seed=20260817)
    stability = next(res for res in violated.results if res.name == "stability")
    violation_ok = (not violated.passed) and (not stability.passed)

    ok = all(flag for _, flag in passed) and violation_ok
    detail = (
        ", ".join(f"{label}: {'pass' if flag else 'FAIL'}" for label, flag in passed)
        + f"; 1000x tau at p=2 flags stability: {violation_ok}"
    )
    _report(capsys, 4, ok, detail)


def test_criterion_5_mollifier_constants(capsys):
    rows = []
    ok = True
    for d in (1, 2, 3):
        c = mollifier_constants(d)
        bounds = REFERENCE_BOUNDS[d]
        below = (c.M <= bounds[0]) and (c.K1 <= bounds[1]) and (c.K2 <= bounds[2])
        ok &= below and c.quad_error <= 1e-8
        rows.append(f"d={d} bounds {'ok' if below else 'VIOLATED'}")
        if d <= 2:
            for name, val, bound in (
                ("M", c.M, bounds[0]),
                ("K1", c.K1, bounds[1]),
                ("K2", c.K2, bounds[2]),
            ):
                tight = val >= 0.98 * bound
                ok &= tight
                if not tight:
                    gap = 100.0 * (1.0 - val / bound)
                    rows.append(
                        f"{name}(d={d})={val:.6f} sits {gap:.2f}% below bound {bound} "
                        "(needs <= 2%)"
                    )
    _report(capsys, 5, ok, "; ".join(rows))


def test_criterion_6_consistency(capsys):
    ok = True
    details = []
    for p in (3.0, 4.0):
        rows = consistency_table(p, 2, [0.4, 0.2, 0.1, 0.05], window=0.15)
        errs = [row.max_error for row in rows]
        mono = all(a > b for a, b in zip(errs, errs[1:]))
        ok &= mono
        details.append(f"(d=2,p={p:g}) errors {['%.3g' % e for e in errs]} decreasing: {mono}")
    rows = consistency_table(3.0, 1, [0.5, 0.25, 0.125], window=1.0)
    exact = all(row.max_error_off_origin == 0.0 for row in rows)
    ok &= exact
    details.append(f"1D p=3 exact off origin: {exact}")
    _report(capsys, 6, ok, "; ".join(details))


def _sphere_average_dpd(d, p):
    if d == 1:
        avg = 1.0
    else:
        num = quad(lambda t: abs(math.cos(t)) ** p * math.sin(t) ** (d - 2), 0.0, math.pi)[0]
        den = quad(lambda t: math.sin(t) ** (d - 2), 0.0, math.pi)[0]
        avg = num / den
    return d / (2.0 * (d + p)) * avg


def test_criterion_7_operator_constants(capsys):
    worst = 0.0
    for d in (1, 2, 3):
        for p in (2.0, 3.0, 4.0, 5.0):
            oracle = _sphere_average_dpd(d, p)
            rel = abs(dpd_constant(d, p) - oracle) / oracle
            worst = max(worst, rel)
    exact = (
        abs(dpd_constant(1, 2.0) - 1.0 / 6.0) <= 1e-12
        and abs(dpd_constant(2, 2.0) - 1.0 / 8.0) <= 1e-12
    )
    ok = worst <= 1e-10 and exact
    _report(
        capsys, 7, ok,
        f"sphere-average agreement worst rel error {worst:.2e} (<= 1e-10); "
        f"D_12=1/6, D_22=1/8 to 1e-12: {exact}",
    )


def test_criterion_8_taylor_bound(capsys):
    rng = np.random.default_rng(20260817)
    failures = 0
    for _ in range(100_000):
        a = float(rng.uniform(-10.0, 10.0))
        b = float(rng.uniform(-10.0, 10.0))
        p = float(rng.uniform(2.0, 20.0))
        if not check_jp_taylor_bound(a, b, p):
            failures += 1
    ok = failures == 0
    _report(capsys, 8, ok, f"10^5 random triples, {failures} violations")
