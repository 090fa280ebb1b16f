import itertools
import math
import re
import warnings

import numpy as np
import pytest

from plapfd import (
    BlowUpError,
    ConfigurationError,
    GridField,
    HolderData,
    SchemeConfig,
    Trajectory,
    apply_dp,
    barenblatt_data,
    barenblatt_eval,
    barenblatt_solution,
    cfl_report,
    cfl_tau_max,
    constant_data,
    couple_h_to_r,
    explicit_step,
    iter_levels,
    ktilde,
    oscillatory_data,
    plan_config,
    sample_on_grid,
    solve,
    sqrt_cusp_data,
    stencil_1d,
    stencil_for,
    tent_data,
    theoretical_step_bound,
    time_interpolate,
)
from plapfd import stepping
from test_operators import _apply_dp_grid_padded_reference


def zero_data():
    return constant_data(0.0, 0.0)


def test_holder_data_validation():
    with pytest.raises(ConfigurationError):
        HolderData(u0=lambda x: x, f=lambda x: x, a=0.0, L_u0=1, L_f=0, sup_u0=1, sup_f=0)
    with pytest.raises(ConfigurationError):
        HolderData(u0=lambda x: x, f=lambda x: x, a=1.5, L_u0=1, L_f=0, sup_u0=1, sup_f=0)
    with pytest.raises(ConfigurationError):
        HolderData(u0=lambda x: x, f=lambda x: x, a=1.0, L_u0=-1, L_f=0, sup_u0=1, sup_f=0)
    with pytest.raises(ConfigurationError):
        HolderData(u0=3.0, f=lambda x: x, a=1.0, L_u0=1, L_f=0, sup_u0=1, sup_f=0)
    with pytest.raises(ConfigurationError):
        HolderData(
            u0=lambda x: x, f=lambda x: x, a=1.0, L_u0=1, L_f=0, sup_u0=1, sup_f=0,
            support_radius=-2.0,
        )
    # the builders' parameters too: h = inf used to certify L_u0 = 0
    for build in (lambda: oscillatory_data(math.inf), lambda: tent_data(math.inf)):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            build()


def test_ktilde_reference_values():
    # at a = 1, p = 2 the exponents collapse: Ktilde = 2 L sqrt(K2 M)
    assert ktilde(1.0, 2.0, 1.0, 123.456, 2.0, 2.0) == 4.0
    assert ktilde(0.7, 5.0, 0.0, 1.0, 1.0, 1.0) == 0.0
    val = ktilde(1.0, 4.0, 0.5, 1.657, 10.83, 2.0)
    assert val == pytest.approx(
        2.0 * 0.25 * math.sqrt(3.0 * 1.657**2 * 10.83 * 2.0), rel=1e-12
    )
    assert val == pytest.approx(6.678552837628823, rel=1e-12)


def test_ktilde_validation():
    with pytest.raises(ValueError):
        ktilde(0.0, 3.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ktilde(0.5, 1.5, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ktilde(0.5, 3.0, -1.0, 1.0, 1.0, 1.0)


def test_cfl_tau_max_p2_is_half_r_squared():
    for r in (0.5, 0.1, 0.02):
        assert cfl_tau_max(r, 1.0, 2.0, 7.0, 3.0, 10.0, 5.0, 2.0) == 0.5 * r**2


def test_cfl_tau_max_exponents():
    # a = 1: quadratic in r for every p
    t1 = cfl_tau_max(0.1, 1.0, 7.0, 1.0, 0.0, 1.0, 2.0, 2.0)
    t2 = cfl_tau_max(0.2, 1.0, 7.0, 1.0, 0.0, 1.0, 2.0, 2.0)
    assert t2 / t1 == pytest.approx(4.0, rel=1e-12)
    # a = 1/2, p = 4: cubic in r
    t1 = cfl_tau_max(0.1, 0.5, 4.0, 1.0, 0.0, 1.0, 2.0, 2.0)
    t2 = cfl_tau_max(0.2, 0.5, 4.0, 1.0, 0.0, 1.0, 2.0, 2.0)
    assert t2 / t1 == pytest.approx(8.0, rel=1e-12)


def test_cfl_tau_max_validation():
    with pytest.raises(ValueError):
        cfl_tau_max(-0.1, 1.0, 2.0, 1.0, 0.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        cfl_tau_max(0.1, 1.0, 2.0, -1.0, 0.0, 1.0, 0.0, 2.0)


def test_scheme_config_step_count_consistency():
    SchemeConfig(p=3.0, d=1, T=1.0, r=0.1, h=0.1, tau=0.01, N=100, half_width=2.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(p=3.0, d=1, T=1.0, r=0.1, h=0.1, tau=0.01, N=90, half_width=2.0)
    with pytest.raises(ConfigurationError, match=r"^cfl_mode must be one of \("):
        SchemeConfig(
            p=3.0, d=1, T=1.0, r=0.1, h=0.1, tau=0.01, N=100, half_width=2.0,
            cfl_mode="adaptive",
        )
    with pytest.raises(ConfigurationError, match=r"^cfl_mode must be one of \("):
        plan_config(3.0, 1, 1.0, 2.0, tent_data(), h=0.1, cfl_mode="adaptive")
    # the config and the grid refuse an unknown extension in the same words
    message = "extension must be one of ('zero', 'boundary') (got 'mirror')"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        SchemeConfig(
            p=3.0, d=1, T=1.0, r=0.1, h=0.1, tau=0.01, N=100, half_width=2.0,
            extension="mirror",
        )
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        GridField(d=1, h=0.5, half_width=1.0, values=np.zeros(5), extension="mirror")


def test_step_count_is_capped_at_2_pow_53():
    # past 2**53 the times j * tau are no longer exact, and a run that long
    # cannot finish: each of these planned without complaint
    data = tent_data()
    # num_steps=10**400 ended in an OverflowError at T / N, before the cap
    for kwargs in (
        {"c_practical": 1e-300}, {"tau": 1e-200}, {"num_steps": 10**30}, {"num_steps": 10**400},
    ):
        with pytest.raises(ConfigurationError, match=r"N = 1e\+\d+ steps exceeds 2\*\*53"):
            plan_config(4.0, 1, 1.0, 2.0, data, h=0.01, **kwargs)
    with pytest.raises(ConfigurationError, match=r"N = 9\.01e\+15 steps"):
        SchemeConfig(p=3.0, d=1, T=1.0, r=0.1, h=0.1, tau=2.0**-53, N=2**53 + 1, half_width=2.0)
    assert SchemeConfig(
        p=3.0, d=1, T=1.0, r=0.1, h=0.1, tau=2.0**-53, N=2**53, half_width=2.0
    ).N == 2**53


@pytest.mark.parametrize("count", [math.inf, -math.inf, math.nan, 2.5, 0, -3, None])
def test_step_counts_follow_the_integer_rule(count):
    # N and num_steps take the rule d takes; int() let inf escape as an
    # OverflowError and nan as a ValueError that named no parameter, and
    # num_steps=2.5 was truncated to 2 steps
    with pytest.raises(ConfigurationError, match=r"^N must be an integer >= 1 \(got "):
        SchemeConfig(p=3.0, d=1, T=1.0, r=0.1, h=0.1, tau=0.01, N=count, half_width=2.0)
    if count is not None:  # None asks plan_config for a CFL-planned count
        with pytest.raises(ConfigurationError, match=r"^num_steps must be an integer >= 1"):
            plan_config(4.0, 1, 1.0, 2.0, tent_data(), h=0.01, num_steps=count)
    with pytest.raises(ConfigurationError, match=r"^d must be an integer >= 1"):
        plan_config(4.0, count, 1.0, 2.0, tent_data(), h=0.01, num_steps=10)
    assert plan_config(4.0, 1, 1.0, 2.0, tent_data(), h=0.01, num_steps=10.0).N == 10


def test_scheme_config_times():
    cfg = SchemeConfig(p=3.0, d=1, T=1.0, r=0.25, h=0.25, tau=0.25, N=4, half_width=1.0)
    np.testing.assert_array_equal(cfg.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_stencil_for_dimension_rules():
    with pytest.raises(ConfigurationError, match=r"require r = h \(got r=0.2, h=0.1\)"):
        SchemeConfig(p=3.0, d=1, T=1.0, r=0.2, h=0.1, tau=0.1, N=10, half_width=1.0)
    cfg2 = SchemeConfig(p=2.0, d=2, T=1.0, r=1.0, h=0.5, tau=0.1, N=10, half_width=2.0)
    st = stencil_for(cfg2)
    assert len(st) == 8


def test_plan_config_geometry():
    data = zero_data()
    cfg = plan_config(3.0, 1, 1.0, 2.0, data, r=0.05)
    assert cfg.h == 0.05 and cfg.r == 0.05
    with pytest.raises(ConfigurationError):
        plan_config(3.0, 1, 1.0, 2.0, data)
    with pytest.raises(ConfigurationError):
        plan_config(3.0, 2, 1.0, 2.0, data)
    cfg2 = plan_config(3.0, 2, 1.0, 2.0, data, r=0.4)
    assert cfg2.h == couple_h_to_r(0.4, 3.0, 2)
    # a 1D r that differs from h used to be dropped without a word
    assert plan_config(3.0, 1, 1.0, 2.0, data, h=0.05, r=0.05).r == 0.05
    with pytest.raises(ConfigurationError, match=r"r = h \(got r=0.05, h=0.01\)"):
        plan_config(3.0, 1, 1.0, 2.0, data, h=0.01, r=0.05)
    # the rule is judged before a step is planned from r: this r used to
    # be reported as a step too small for float range
    with pytest.raises(ConfigurationError, match=r"r = h \(got r=1e-200, h=0.01\)"):
        plan_config(3.0, 1, 1.0, 2.0, tent_data(), h=0.01, r=1e-200)
    # r = h = 0 used to reach the step target and divide by zero
    with pytest.raises(ConfigurationError, match="h must be finite and positive"):
        plan_config(3.0, 1, 1.0, 2.0, data, h=0.0)


def test_plan_config_explicit_tau_is_kept_verbatim():
    data = tent_data()
    tau = 0.1 * 0.1 / 2
    cfg = plan_config(2.0, 1, 0.2, 3.0, data, h=0.1, tau=tau)
    assert cfg.tau == tau
    assert cfg.N == 40
    cfg2 = plan_config(2.0, 1, 0.2, 3.0, data, h=0.1, num_steps=25)
    assert cfg2.N == 25
    assert cfg2.tau == 0.2 / 25
    # given together, both are kept when N * tau reproduces T; otherwise
    # SchemeConfig refuses the pair (num_steps used to be dropped)
    assert plan_config(2.0, 1, 0.2, 3.0, data, h=0.1, tau=tau, num_steps=40) == cfg
    with pytest.raises(ConfigurationError, match="does not reproduce T"):
        plan_config(2.0, 1, 0.2, 3.0, data, h=0.1, tau=tau, num_steps=25)
    # T / tau overflowed to inf, and round(inf) raised OverflowError
    with pytest.raises(ConfigurationError, match="tau gives a time step too small"):
        plan_config(2.0, 1, 0.01, 3.0, data, h=0.1, tau=1e-320)


def test_plan_config_practical_step_target():
    data = tent_data()
    cfg = plan_config(4.0, 1, 1.0, 2.0, data, h=0.1, c_practical=0.2)
    # a = 1 data: target 0.2 * 0.01 = 0.002, so exactly 500 steps
    assert cfg.N == 500
    assert cfg.tau == pytest.approx(0.002, rel=1e-12)
    # c = 0 used to divide by zero, and c = -1 to plan one step of size T
    for c in (0.0, -1.0, math.inf):
        with pytest.raises(ConfigurationError, match="c_practical"):
            plan_config(4.0, 1, 1.0, 2.0, data, h=0.1, c_practical=c)
    # a target that underflows to 0 divided by zero; a subnormal one made
    # T / target inf, and math.ceil raised OverflowError
    for h in (0.01, 0.1):
        with pytest.raises(ConfigurationError, match="c_practical gives a time step too small"):
            plan_config(4.0, 1, 0.01, 2.0, data, h=h, c_practical=1e-320)


def test_plan_config_theoretical_step_respects_bound():
    data = sqrt_cusp_data()
    cfg = plan_config(3.0, 1, 0.1, 2.0, data, h=0.1, cfl_mode="theoretical")
    rep = cfl_report(cfg, data)
    assert cfg.tau <= rep["tau_max_theoretical"] * (1.0 + 1e-12)
    assert rep["M_bound"] == 2.0
    assert rep["stencil_size"] == 2
    assert math.isfinite(rep["Ktilde"]) and rep["Ktilde"] > 0.0
    assert 0.0 < rep["C"] <= 1.0
    # a subnormal bound (4.8e-319 here) made T / bound inf and math.ceil raise
    with pytest.raises(ConfigurationError, match="theoretical step bound gives a time step"):
        plan_config(3.0, 1, 0.01, 2.0, tent_data(), h=1e-158, cfl_mode="theoretical")


def test_directly_built_theoretical_config_uses_the_planned_bound():
    data = sqrt_cusp_data()
    planned = plan_config(3.0, 1, 0.1, 2.0, data, h=0.1, cfl_mode="theoretical")
    direct = SchemeConfig(
        p=3.0, d=1, T=0.1, r=0.1, h=0.1, tau=planned.tau, N=planned.N, half_width=2.0,
        cfl_mode="theoretical",
    )
    assert cfl_report(direct, data) == cfl_report(planned, data)
    kt, C, tau_max, M_bound = theoretical_step_bound(3.0, 1, 0.1, 0.1, data)
    assert cfl_report(direct, data) == {
        "Ktilde": kt, "C": C, "tau_max_theoretical": tau_max, "M_bound": M_bound,
        "stencil_size": 2,
    }

    # L_f = 0, so the bound does not depend on T and four steps can sit on it
    def four_steps(tau):
        cfg = SchemeConfig(
            p=3.0, d=1, T=4 * tau, r=0.1, h=0.1, tau=tau, N=4, half_width=2.0,
            cfl_mode="theoretical",
        )
        return solve(cfg, data)

    four_steps(tau_max)
    with pytest.raises(ConfigurationError, match="theoretical bound"):
        four_steps(tau_max * (1.0 + 1e-9))


def test_plan_config_theoretical_needs_tabulated_constants():
    with pytest.raises(ConfigurationError, match="mollifier constants are tabulated"):
        plan_config(3.0, 4, 1.0, 2.0, zero_data(), r=0.5, cfl_mode="theoretical")
    # the report of a d = 4 practical run leaves the bound's constants NaN
    cfg = SchemeConfig(p=3.0, d=4, T=0.1, r=0.5, h=0.25, tau=0.05, N=2, half_width=1.0)
    rep = cfl_report(cfg, zero_data())
    assert all(math.isnan(rep[k]) for k in ("Ktilde", "C", "tau_max_theoretical"))


def test_theoretical_step_bound_is_finite_or_outside_float_range():
    # On validated data the bound's constants are finite and positive, or the
    # bound is refused as outside float range: no other check inside it can
    # fire, so cfl_report's NaN fallback covers that case and d > 3 only.
    refused = 0
    for d, p, a, L in itertools.product(
        (1, 2, 3), (2.0, 3.0, 10.0, 50.0, 200.0), (0.25, 1.0), (0.0, 1.0, 1e3)
    ):
        data = HolderData(u0=abs, f=abs, a=a, L_u0=L, L_f=L, sup_u0=1.0, sup_f=1.0)
        try:
            kt, C, tau_max, _ = theoretical_step_bound(p, d, 0.1, 1.0, data)
        except ConfigurationError as exc:
            assert "outside float range" in str(exc)
            refused += 1
        else:
            assert 0.0 <= kt < math.inf and 0.0 < C <= 1.0 and 0.0 < tau_max < math.inf
    assert refused > 0
    # p = 50 with L_u0 = 1: float ** raised OverflowError in ktilde/cfl_constant
    data = tent_data()
    with pytest.raises(ConfigurationError, match="outside float range"):
        plan_config(50.0, 1, 0.01, 2.0, data, h=0.1, cfl_mode="theoretical")
    rep = cfl_report(plan_config(50.0, 1, 0.01, 2.0, data, h=0.1), data)
    assert all(math.isnan(rep[k]) for k in ("Ktilde", "C", "tau_max_theoretical"))


def test_explicit_step_heat_by_hand():
    field = GridField(
        d=1, h=1.0, half_width=2.0, values=np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    )
    f = field.with_values(np.zeros(5))
    st = stencil_1d(1.0, 2.0)
    out = explicit_step(field, st, f, 0.25)
    np.testing.assert_array_equal(out.values, [0.0, 0.25, 0.5, 0.25, 0.0])


def test_explicit_step_tau_zero_is_identity():
    rng = np.random.default_rng(11)
    field = GridField(d=1, h=0.5, half_width=2.0, values=rng.normal(size=9))
    f = field.with_values(rng.normal(size=9))
    out = explicit_step(field, stencil_1d(0.5, 3.0), f, 0.0)
    np.testing.assert_array_equal(out.values, field.values)


def test_explicit_step_constant_field_stays_constant():
    field = GridField(d=1, h=0.5, half_width=2.0, values=np.full(9, 3.25), extension="boundary")
    f = field.with_values(np.zeros(9))
    out = explicit_step(field, stencil_1d(0.5, 4.0), f, 0.01)
    np.testing.assert_array_equal(out.values, np.full(9, 3.25))


def test_explicit_step_geometry_mismatch():
    field = GridField(d=1, h=0.5, half_width=2.0, values=np.zeros(9))
    f_other = GridField(d=1, h=0.25, half_width=2.0, values=np.zeros(17))
    with pytest.raises(ConfigurationError):
        explicit_step(field, stencil_1d(0.5, 3.0), f_other, 0.01)
    # a source of another dimension, or of another half_width
    for f_other in (
        GridField(d=2, h=0.5, half_width=2.0, values=np.zeros((9, 9))),
        GridField(d=1, h=0.5, half_width=1.0, values=np.zeros(5)),
    ):
        with pytest.raises(ConfigurationError, match="source term sampled on a different grid"):
            explicit_step(field, stencil_1d(0.5, 3.0), f_other, 0.01)
    with pytest.raises(ConfigurationError):
        explicit_step(field, stencil_1d(0.5, 3.0), field.with_values(np.zeros(9)), -0.1)


def test_blow_up_names_node_and_step():
    data = oscillatory_data(0.1)
    cfg = plan_config(4.0, 1, 1.0, 1.0, data, h=0.1, num_steps=10)
    with pytest.raises(BlowUpError) as exc:
        solve(cfg, data)
    err = exc.value
    # the first non-finite value appears at step 5 on the left edge node
    assert err.step == 5
    assert isinstance(err.node, tuple) and err.node == (-10,)
    assert "CFL" in str(err)
    # the public one-step call names the step it is given, or none
    field = sample_on_grid(oscillatory_data(0.1, 1e300).u0, 1, 0.1, 1.0)
    zero = field.with_values(np.zeros_like(field.values))
    for step, where in ((7, "step 7, node "), (None, "blew up at node ")):
        with pytest.raises(BlowUpError, match=where) as exc:
            explicit_step(field, stencil_1d(0.1, 4.0), zero, 0.1, step=step)
        assert exc.value.step == step


def test_blow_up_and_evaluation_past_the_support_are_silent():
    # overflow, inf - inf and log(0) are silenced where they happen, so the
    # blow-up surfaces only as BlowUpError and the exact profile warns not
    # at all, also with every warning turned into an error
    data = oscillatory_data(0.1)
    cfg = plan_config(4.0, 1, 1.0, 1.0, data, h=0.1, num_steps=10)
    sol = barenblatt_solution(1, 4.0)
    pts = np.linspace(-3.0, 3.0, 121)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError):
            solve(cfg, data)
        rows = barenblatt_eval(sol, pts, [0.0, 0.5, 1.0])
    assert np.any(rows == 0.0) and np.any(rows > 0.0)


def _wavy_data():
    # smooth datum and a nonzero source in any dimension
    def u0(*xs):
        return np.cos(sum(xs)) * np.exp(-sum(x * x for x in xs))

    def f(*xs):
        return 0.5 * np.sin(3.0 * xs[0]) + 0.25

    return HolderData(u0=u0, f=f, a=1.0, L_u0=3.0, L_f=1.5, sup_u0=1.0, sup_f=0.75)


def _wavy_config(d, p, extension):
    if d == 1:
        return plan_config(p, 1, 0.02, 1.0, _wavy_data(), h=0.1, num_steps=20, extension=extension)
    return plan_config(
        p, 2, 0.01, 1.0, _wavy_data(), r=0.3, h=0.1, num_steps=5, extension=extension
    )


def _explicit_step_reference(field, stencil, f_values, tau):
    # explicit_step before the in-place update: fresh temporaries, and the
    # result validated again by with_values
    rate = _apply_dp_grid_padded_reference(stencil, field)
    with np.errstate(over="ignore", invalid="ignore"):
        out = field.values + tau * (rate + f_values.values)
    return field.with_values(out)


@pytest.mark.parametrize("d", [1, 2])
def test_stepped_levels_keep_the_grid_and_validation(d):
    data = _wavy_data()
    cfg = _wavy_config(d, 3.0, "boundary")
    for lev in iter_levels(cfg, data):
        assert (lev.d, lev.h, lev.half_width, lev.extension) == (
            cfg.d, cfg.h, cfg.half_width, cfg.extension,
        )
    bad = lev.values.copy()
    bad.flat[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        lev.with_values(bad)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("extension", ["zero", "boundary"])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 3.7])
def test_levels_match_reference_step_bitwise(d, extension, p):
    data = _wavy_data()
    cfg = _wavy_config(d, p, extension)
    stencil = stencil_for(cfg)
    f = sample_on_grid(data.f, d, cfg.h, cfg.half_width, extension)
    want = [sample_on_grid(data.u0, d, cfg.h, cfg.half_width, extension)]
    for _ in range(cfg.N):
        want.append(_explicit_step_reference(want[-1], stencil, f, cfg.tau))
    assert not np.array_equal(want[-1].values, want[0].values)
    want = [lev.values.tobytes() for lev in want]
    assert [lev.values.tobytes() for lev in iter_levels(cfg, data)] == want
    assert [lev.values.tobytes() for lev in solve(cfg, data).levels] == want


def _chunk_config(d, N, source):
    # tau = 1e-3 at every N; "zero" keeps the datum and drops the source
    data = _wavy_data()
    if source == "zero":
        data = HolderData(u0=data.u0, f=lambda *xs: 0.0 * xs[0], a=1.0,
                          L_u0=3.0, L_f=0.0, sup_u0=1.0, sup_f=0.0)
    if d == 1:
        cfg = plan_config(3.0, 1, N * 1e-3, 1.0, data, h=0.1, num_steps=N)
    else:
        cfg = plan_config(
            3.0, 2, N * 1e-3, 1.0, data, r=0.3, h=0.1, num_steps=N, extension="boundary"
        )
    return cfg, data


def _reference_levels(cfg, data):
    stencil = stencil_for(cfg)
    args = (cfg.d, cfg.h, cfg.half_width, cfg.extension)
    f = sample_on_grid(data.f, *args)
    want = [sample_on_grid(data.u0, *args)]
    for _ in range(cfg.N):
        want.append(_explicit_step_reference(want[-1], stencil, f, cfg.tau))
    return [lev.values.tobytes() for lev in want]


_CHUNK_1D = stepping._levels_per_block((21,))  # 390 levels of 21 nodes
_CHUNK_2D = stepping._levels_per_block((21, 21))  # 18 levels of 21^2 nodes


@pytest.mark.parametrize("source", ["wavy", "zero"])
@pytest.mark.parametrize(
    "d, N",
    [(1, 1), (1, _CHUNK_1D - 1), (1, _CHUNK_1D), (1, _CHUNK_1D + 1), (2, _CHUNK_2D + 1)],
    ids=["1d-N=1", "1d-N<chunk", "1d-N=chunk", "1d-N=chunk+1", "2d-N=chunk+1"],
)
def test_chunked_levels_match_reference_step_bitwise(d, N, source):
    # the chunk boundaries fall where they would in a long run; with a
    # zero source the add is skipped, with the wavy one it is not
    cfg, data = _chunk_config(d, N, source)
    want = _reference_levels(cfg, data)
    assert [lev.values.tobytes() for lev in iter_levels(cfg, data)] == want


def test_chunked_stepping_leaks_no_errstate():
    # each chunk's errstate is left before its levels are yielded: the
    # consumer sees its own error settings, and an overflow in its own
    # code still warns, here as an error
    cfg, data = _chunk_config(1, 2 * _CHUNK_1D + 3, "wavy")
    with np.errstate(over="warn", divide="raise"):
        caller = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j, _ in enumerate(iter_levels(cfg, data)):
                assert np.geterr() == caller, j
                with pytest.raises(RuntimeWarning, match="overflow"):
                    np.multiply(np.array(1e308), 10.0)
    assert j == cfg.N


def test_blow_up_in_mid_chunk_yields_the_healthy_levels():
    # all ten steps are one chunk, checked for finiteness once, at its
    # end; the levels before the pinned blow-up come out as a check after
    # every step would give them, and then the same error
    data = oscillatory_data(0.1)
    cfg = plan_config(4.0, 1, 1.0, 1.0, data, h=0.1, num_steps=10)
    assert stepping._levels_per_block((21,)) > cfg.N
    stencil = stencil_for(cfg)
    f = sample_on_grid(data.f, 1, cfg.h, cfg.half_width)
    want = [sample_on_grid(data.u0, 1, cfg.h, cfg.half_width)]
    for _ in range(4):
        want.append(_explicit_step_reference(want[-1], stencil, f, cfg.tau))
    got = []
    with pytest.raises(BlowUpError) as exc:
        for lev in iter_levels(cfg, data):
            got.append(lev.values.tobytes())
    assert got == [lev.values.tobytes() for lev in want]
    assert (exc.value.node, exc.value.step) == ((-10,), 5)


@pytest.mark.parametrize("f_value", [0.0, -0.0, 5e-324])
def test_source_is_skipped_only_when_every_bit_is_clear(monkeypatch, f_value):
    # -0.0 and the least subnormal are not +0 and take the add; with a
    # zero datum and tau = 1 the subnormal source is what the levels hold
    data = constant_data(0.0, f_value)
    cfg = plan_config(3.0, 1, 8.0, 1.0, data, h=0.25, num_steps=8)
    sources = []
    original = stepping.explicit_step

    def spy(field, stencil, f_values, *args, **kwargs):
        sources.append(f_values)
        return original(field, stencil, f_values, *args, **kwargs)

    monkeypatch.setattr(stepping, "explicit_step", spy)
    got = [lev.values.tobytes() for lev in iter_levels(cfg, data)]
    assert got == _reference_levels(cfg, data)
    skipped = f_value == 0.0 and math.copysign(1.0, f_value) > 0
    assert len(sources) == cfg.N
    assert all((s is None) == skipped for s in sources)
    if f_value == 5e-324:
        assert np.frombuffer(got[-1])[0] == 8 * 5e-324


def test_kept_levels_are_distinct_arrays():
    # a level must not share memory with any other, so keeping the whole
    # list cannot see later steps overwrite earlier ones; the run's scratch
    # arrays (padded copy, differences, terms, accumulator) must never be
    # handed out. One test over d = 1 (the two-point stencil's single edge
    # pass) and d = 2 (passes per offset), and both extensions.
    data = _wavy_data()
    for d in (1, 2):
        for extension in ("zero", "boundary"):
            cfg = _wavy_config(d, 3.7, extension)
            levels = [lev.values for lev in iter_levels(cfg, data)]
            for i, a in enumerate(levels):
                for b in levels[i + 1:]:
                    assert not np.shares_memory(a, b), (d, extension, i)
            again = [lev.values.tobytes() for lev in iter_levels(cfg, data)]
            assert again == [a.tobytes() for a in levels], (d, extension)


def test_solve_zero_data_stays_zero():
    cfg = plan_config(3.0, 1, 0.5, 1.0, zero_data(), h=0.25, num_steps=8)
    traj = solve(cfg, zero_data())
    assert len(traj.levels) == 9
    with pytest.raises(ConfigurationError, match="expected 9 levels, got 8"):
        Trajectory(levels=traj.levels[:-1], config=cfg)
    for lev in traj.levels:
        assert np.all(lev.values == 0.0)


def test_trajectory_compares_by_identity():
    # levels hold arrays, so a trajectory compares and hashes by identity
    cfg = plan_config(3.0, 1, 0.5, 1.0, zero_data(), h=0.25, num_steps=2)
    traj = solve(cfg, zero_data())
    twin = Trajectory(levels=traj.levels, config=cfg)
    assert traj == traj and twin == twin
    assert traj != twin
    assert len({traj, twin}) == 2


def test_solve_affine_in_time_is_exact():
    # u0 = 0, f = 1: the operator vanishes on constants, so U^j = t_j at
    # every node; the constant-trace extension keeps the edges honest
    data = constant_data(0.0, 1.0)
    for d in (1, 2):
        cfg = plan_config(
            3.0, d, 1.0, 1.0, data, h=0.25, r=0.25 if d == 1 else 0.5,
            num_steps=16, extension="boundary",
        )
        traj = solve(cfg, data)
        for j, lev in enumerate(traj.levels):
            expect = traj.times[j]
            assert np.max(np.abs(lev.values - expect)) <= 1e-12 * max(1, j)


def test_solve_level_zero_samples_u0():
    data = tent_data()
    cfg = plan_config(3.0, 1, 0.02, 2.0, data, h=0.1, num_steps=20)
    traj = solve(cfg, data)
    direct = sample_on_grid(data.u0, 1, 0.1, 2.0)
    np.testing.assert_array_equal(traj.levels[0].values, direct.values)


def test_solve_is_deterministic():
    data = sqrt_cusp_data()
    cfg = plan_config(3.0, 1, 0.05, 1.5, data, h=0.1, num_steps=50)
    t1 = solve(cfg, data)
    t2 = solve(cfg, data)
    for a, b in zip(t1.levels, t2.levels):
        np.testing.assert_array_equal(a.values, b.values)


def test_iter_levels_matches_solve():
    data = tent_data()
    cfg = plan_config(4.0, 1, 0.1, 2.0, data, h=0.2, num_steps=25)
    streamed = list(iter_levels(cfg, data))
    traj = solve(cfg, data)
    assert len(streamed) == len(traj.levels)
    for a, b in zip(streamed, traj.levels):
        np.testing.assert_array_equal(a.values, b.values)


def test_theoretical_mode_rejects_oversized_tau():
    data = tent_data()
    cfg = plan_config(3.0, 1, 1.0, 2.0, data, h=0.1, num_steps=10, cfl_mode="theoretical")
    with pytest.raises(ConfigurationError, match="theoretical bound"):
        solve(cfg, data)


def test_zero_extension_margin_is_asserted():
    data = barenblatt_data(4.0, horizon=1.0)
    # support radius 2^(1/6) ~ 1.12; half_width 1.0 leaves no room
    cfg = plan_config(4.0, 1, 1.0, 1.0, data, h=0.1, num_steps=10)
    with pytest.raises(ConfigurationError, match="support radius"):
        solve(cfg, data)
    # boundary extension skips the margin requirement
    cfg2 = plan_config(4.0, 1, 1.0, 1.0, data, h=0.1, num_steps=4000, extension="boundary")
    solve(cfg2, data)


def test_time_interpolate_domain_and_exactness():
    data = tent_data()
    cfg = plan_config(2.0, 1, 0.2, 2.0, data, h=0.2, tau=0.02)
    traj = solve(cfg, data)
    with pytest.raises(ValueError):
        time_interpolate(traj, 0, -0.001)
    with pytest.raises(ValueError):
        time_interpolate(traj, 0, 0.2 + 1e-9)
    # NaN passed both comparisons and failed later, in int(), unnamed
    with pytest.raises(ValueError, match="t = nan outside"):
        time_interpolate(traj, 0, math.nan)
    for j in (0, 3, cfg.N):
        assert time_interpolate(traj, 0, traj.times[j]) == traj.levels[j].value_at(0)
    mid = 0.5 * (traj.times[4] + traj.times[5])
    lo = traj.levels[4].value_at((2,))
    hi = traj.levels[5].value_at((2,))
    assert time_interpolate(traj, (2,), mid) == pytest.approx(0.5 * (lo + hi), rel=1e-15)
    # between level times: a Python float, equal to the weighted form
    for t in (mid, 0.0123, 0.1999):
        j = min(math.floor(t / cfg.tau), cfg.N - 1)
        tj, tj1 = float(traj.times[j]), float(traj.times[j + 1])
        assert tj < t < tj1
        value = time_interpolate(traj, (2,), t)
        assert type(value) is float
        lo = traj.levels[j].value_at((2,))
        hi = traj.levels[j + 1].value_at((2,))
        assert value == ((tj1 - t) / cfg.tau) * lo + ((t - tj) / cfg.tau) * hi
    assert type(time_interpolate(traj, 0, traj.times[3])) is float


def test_time_interpolate_satisfies_slab_identity():
    # between levels, U(x,t) = U(x,t_j) + (t - t_j) * (D U^j(x) + f(x))
    data = tent_data()
    cfg = plan_config(3.0, 1, 0.1, 1.5, data, h=0.2, num_steps=100)
    traj = solve(cfg, data)
    st = stencil_for(cfg)
    rng = np.random.default_rng(9)
    n = traj.levels[0].n
    for _ in range(50):
        alpha = int(rng.integers(-n, n + 1))
        t = float(rng.uniform(0.0, cfg.T))
        j = min(int(t / cfg.tau), cfg.N - 1)
        tj = traj.times[j]
        lhs = time_interpolate(traj, alpha, t)
        rhs = traj.levels[j].value_at(alpha) + (t - tj) * apply_dp(st, traj.levels[j], alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_tent_and_cusp_data_certificates():
    tent = tent_data(2.0)
    x = np.linspace(-2, 2, 801)
    vals = tent.u0(x)
    assert vals.max() == tent.sup_u0 == 2.0
    slopes = np.abs(np.diff(vals)) / np.diff(x)
    assert slopes.max() <= tent.L_u0 * (1 + 1e-12)

    cusp = sqrt_cusp_data()
    vals = cusp.u0(x)
    assert vals.max() <= cusp.sup_u0
    # the maximum sits at |x| = 1/3 exactly
    assert cusp.u0(np.array([1.0 / 3.0]))[0] == pytest.approx(cusp.sup_u0, rel=1e-15)
    assert cusp.a == 0.5
    holder = np.abs(np.diff(vals)) / np.sqrt(np.diff(x))
    assert holder.max() <= cusp.L_u0 * (1 + 1e-6)


def test_oscillatory_data_alternates_on_grid():
    data = oscillatory_data(0.25, amplitude=3.0)
    x = np.arange(-4, 5) * 0.25
    vals = data.u0(x)
    np.testing.assert_allclose(np.abs(vals), 3.0, rtol=1e-12)
    assert np.all(vals[1:] * vals[:-1] < 0.0)
