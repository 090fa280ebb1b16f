import functools
import itertools
import math
import re
import warnings
from collections.abc import Callable
from dataclasses import replace
from typing import NamedTuple

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
    constant_data,
    couple_h_to_r,
    explicit_step,
    iter_levels,
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
from plapfd import mollifier_constants, stepping
from plapfd.operators import _check_p, _nonnegative, _positive, weight_sum_bound
from kernel_paths import (
    _PATHS,
    _apply_dp_grid_padded_reference,
    _apply_dp_grid_row_view_reference,
    _reference_levels,
    _serves,
)


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


def _holder(a, L_u0):
    return HolderData(u0=abs, f=abs, a=a, L_u0=L_u0, L_f=0.0, sup_u0=1.0, sup_f=0.0)


# The step rule as it was computed before theoretical_step_bound absorbed
# it: ktilde and cfl_constant, and their composition, copied verbatim. The
# bound must give the same three floats and the same refusals.
def _ktilde_reference(a, p, L_u0, K1, K2, M):
    p = _check_p(p)
    a = stepping._check_a(a)
    L_u0, K1, K2, M = (
        _nonnegative(name, val) for name, val in (("L_u0", L_u0), ("K1", K1), ("K2", K2), ("M", M))
    )
    denom = stepping._cfl_exponent(a, p)
    if L_u0 == 0.0:
        return 0.0
    return (
        4.0 ** ((1.0 + (1.0 - a) * (p - 1.0)) / denom)
        * L_u0 ** (p / denom)
        * ((p - 1.0) * K1 ** (p - 2.0) * K2 * M) ** (a / denom)
    )


def _cfl_constant_reference(a, p, L_u0, L_f, T, Ktilde, M):
    L_u0, L_f, T, Ktilde, M = (
        _nonnegative(name, val)
        for name, val in (("L_u0", L_u0), ("L_f", L_f), ("T", T), ("Ktilde", Ktilde), ("M", M))
    )
    p = float(p)
    grad = L_u0 + T * L_f + 3.0 * Ktilde + 1.0
    return min(1.0, 1.0 / (M * (p - 1.0) * grad ** (p - 2.0)))


def _step_bound_reference(p, d, r, T, data):
    r = _positive("r", r)
    mc = mollifier_constants(d)
    M_bound = weight_sum_bound(d, p)
    kt = C = tau_max = 0.0
    try:
        kt = _ktilde_reference(data.a, p, data.L_u0, mc.K1, mc.K2, M_bound)
        if kt < math.inf:
            C = _cfl_constant_reference(data.a, p, data.L_u0, data.L_f, T, kt, M_bound)
            tau_max = C * r ** stepping._cfl_exponent(data.a, p)
    except OverflowError:
        pass
    if not tau_max > 0.0:
        raise ConfigurationError(
            f"the theoretical step bound is outside float range "
            f"(p = {p}, L_u0 = {data.L_u0}, L_f = {data.L_f}, T = {T})"
        )
    return kt, C, tau_max


def test_theoretical_step_bound_matches_its_reference():
    refused = 0
    for d, p, a, L_u0, L_f, T, r in itertools.product(
        (1, 2, 3),
        (2.0, 2.5, 3.0, 3.7, 4.0, 10.0, 50.0, 200.0),
        (0.25, 0.5, 1.0),
        (0.0, 0.08, 1.0, 1e3),
        (0.0, 0.5),
        (0.01, 1.0),
        (0.02, 0.1, 0.5),
    ):
        data = HolderData(u0=abs, f=abs, a=a, L_u0=L_u0, L_f=L_f, sup_u0=1.0, sup_f=1.0)
        try:
            want = _step_bound_reference(p, d, r, T, data)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError) as got:
                theoretical_step_bound(p, d, r, T, data)
            assert str(got.value) == str(exc)
            refused += 1
        else:
            got = theoretical_step_bound(p, d, r, T, data)
            assert [x.hex() for x in got] == [x.hex() for x in want]
    assert 0 < refused < 3456


def test_ktilde_reference_values():
    # Ktilde, the bound's first output, from the tabulated K1 and K2
    mc = mollifier_constants(1)
    # at a = 1, p = 2 the exponents collapse: Ktilde = 2 L sqrt(K2 M)
    kt = theoretical_step_bound(2.0, 1, 0.1, 1.0, _holder(1.0, 1.0))[0]
    assert weight_sum_bound(1, 2.0) == 2.0
    assert kt == pytest.approx(2.0 * math.sqrt(mc.K2 * 2.0), rel=1e-12)
    assert theoretical_step_bound(5.0, 1, 0.1, 1.0, _holder(0.7, 0.0))[0] == 0.0
    kt = theoretical_step_bound(4.0, 1, 0.1, 1.0, _holder(1.0, 0.5))[0]
    assert kt == pytest.approx(
        2.0 * 0.25 * math.sqrt(3.0 * mc.K1**2 * mc.K2 * 2.0), rel=1e-12
    )


@pytest.mark.parametrize("p, r, T, named", [
    (1.5, 0.1, 1.0, "p must be"),
    (math.inf, 0.1, 1.0, "p must be"),
    (math.nan, 0.1, 1.0, "p must be"),
    (2.0, -0.1, 1.0, "r must be finite and positive"),
    (2.0, 0.1, -1.0, "T must be finite and >= 0"),
    (2.0, 0.1, math.inf, "T must be finite and >= 0"),
])
def test_theoretical_step_bound_refuses_its_parameters(p, r, T, named):
    # a zero exponent and a negative seminorm never reach the bound:
    # HolderData refuses them (test_holder_data_validation)
    with pytest.raises(ConfigurationError, match=named):
        theoretical_step_bound(p, 1, r, T, _holder(0.5, 1.0))


def test_cfl_tau_max_p2_is_half_r_squared():
    # at p = 2, C = 1/M_bound whatever the data
    data = HolderData(u0=abs, f=abs, a=1.0, L_u0=7.0, L_f=3.0, sup_u0=1.0, sup_f=1.0)
    for r in (0.5, 0.1, 0.02):
        _, C, tau_max = theoretical_step_bound(2.0, 1, r, 10.0, data)
        assert C == 0.5
        assert tau_max == 0.5 * r**2


def test_cfl_tau_max_exponents():
    def ratio(p, a):
        data = _holder(a, 1.0)
        t1 = theoretical_step_bound(p, 1, 0.1, 1.0, data)[2]
        t2 = theoretical_step_bound(p, 1, 0.2, 1.0, data)[2]
        return t2 / t1

    # a = 1: quadratic in r for every p; a = 1/2, p = 4: cubic in r
    assert ratio(7.0, 1.0) == pytest.approx(4.0, rel=1e-12)
    assert ratio(4.0, 0.5) == pytest.approx(8.0, rel=1e-12)


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
    # halfway between two levels the later one wins; past the ends, the end
    assert [cfg.nearest_level(t) for t in (0.125, 0.375, 0.625, 0.875)] == [1, 2, 3, 4]
    assert cfg.nearest_level(0.49999999999999994 * 0.25) == 0
    assert cfg.nearest_level(-0.1) == 0 and cfg.nearest_level(1.1) == 4
    # the level nearest each level's own time is that level, and times of
    # an int, a range and an index array are the bits of the whole grid's
    for T, N in itertools.product((0.05, 0.25, 0.3, 0.7, 1.0), (3, 7, 49, 98, 103, 782, 3125)):
        cfg = SchemeConfig(p=3.0, d=1, T=T, r=0.1, h=0.1, tau=T / N, N=N, half_width=1.0)
        grid = np.arange(N + 1, dtype=float) * cfg.tau
        assert cfg.times().tobytes() == grid.tobytes()
        assert [cfg.nearest_level(float(cfg.times(j))) for j in range(N + 1)] == list(range(N + 1))
        assert cfg.times(N // 2).tobytes() == grid[N // 2].tobytes()
        assert cfg.times(range(1, N, 2)).tobytes() == grid[1:N:2].tobytes()
        index = np.array([N, 0, N // 3, N - 1])
        assert cfg.times(index).tobytes() == grid[index].tobytes()


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
    kt, C, tau_max = theoretical_step_bound(cfg.p, cfg.d, cfg.r, cfg.T, data)
    assert cfg.tau <= tau_max * (1.0 + 1e-12)
    assert weight_sum_bound(cfg.d, cfg.p) == stencil_for(cfg).M_bound == 2.0
    assert len(stencil_for(cfg)) == 2
    assert math.isfinite(kt) and kt > 0.0
    assert 0.0 < C <= 1.0
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
    def bound(cfg):
        return theoretical_step_bound(cfg.p, cfg.d, cfg.r, cfg.T, data)

    assert bound(direct) == bound(planned) == theoretical_step_bound(3.0, 1, 0.1, 0.1, data)
    assert stencil_for(direct).weights.tolist() == stencil_for(planned).weights.tolist()
    tau_max = bound(direct)[2]

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
    # a d = 4 practical run plans without the bound, which refuses it alone
    cfg = plan_config(3.0, 4, 0.1, 1.0, zero_data(), r=0.5, h=0.25, num_steps=2)
    with pytest.raises(ConfigurationError, match="mollifier constants are tabulated"):
        theoretical_step_bound(cfg.p, cfg.d, cfg.r, cfg.T, zero_data())


def test_theoretical_step_bound_is_finite_or_outside_float_range():
    # On validated data the bound's constants are finite and positive, or the
    # bound is refused as outside float range: no other check inside it can
    # fire, so the CLI's null fallback covers that case and d > 3 only.
    refused = 0
    for d, p, a, L in itertools.product(
        (1, 2, 3), (2.0, 3.0, 10.0, 50.0, 200.0), (0.25, 1.0), (0.0, 1.0, 1e3)
    ):
        data = HolderData(u0=abs, f=abs, a=a, L_u0=L, L_f=L, sup_u0=1.0, sup_f=1.0)
        try:
            kt, C, tau_max = theoretical_step_bound(p, d, 0.1, 1.0, data)
        except ConfigurationError as exc:
            assert "outside float range" in str(exc)
            refused += 1
        else:
            assert 0.0 <= kt < math.inf and 0.0 < C <= 1.0 and 0.0 < tau_max < math.inf
    assert refused > 0
    # p = 50 with L_u0 = 1: a float ** raises OverflowError inside the bound;
    # the practical rule still plans the run
    data = tent_data()
    with pytest.raises(ConfigurationError, match="outside float range"):
        plan_config(50.0, 1, 0.01, 2.0, data, h=0.1, cfl_mode="theoretical")
    cfg = plan_config(50.0, 1, 0.01, 2.0, data, h=0.1)
    with pytest.raises(ConfigurationError, match="outside float range"):
        theoretical_step_bound(cfg.p, cfg.d, cfg.r, cfg.T, data)


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


def _wavy_data():
    # smooth datum and a nonzero source in any dimension
    def u0(*xs):
        return np.cos(sum(xs)) * np.exp(-sum(x * x for x in xs))

    def f(*xs):
        return 0.5 * np.sin(3.0 * xs[0]) + 0.25

    return HolderData(u0=u0, f=f, a=1.0, L_u0=3.0, L_f=1.5, sup_u0=1.0, sup_f=0.75)


# the chunk-edge runs' sources: the wavy one, +0 at every node (built by
# np.zeros_like: 0.0 * x is -0 where x < 0), -0, and the least subnormal
_SOURCES = {
    "wavy": _wavy_data().f,
    "+0": lambda *xs: np.zeros_like(xs[0]),
    "-0": lambda *xs: np.full_like(xs[0], -0.0),
    "5e-324": lambda *xs: np.full_like(xs[0], 5e-324),
}


# Each run below returns its config, its data and the reference kernel
# its levels are compared with.
def _wavy_run(d, p, extension):
    # three or more steps of the wavy run on a grid the forced split cuts
    data = _wavy_data()
    if d == 1:
        cfg = plan_config(p, 1, 0.02, 1.0, data, h=0.1, num_steps=20, extension=extension)
    elif d == 2:
        cfg = plan_config(p, 2, 0.01, 1.0, data, r=0.3, h=0.1, num_steps=5, extension=extension)
    else:
        cfg = plan_config(p, 3, 3e-3, 0.6, data, r=0.25, h=0.1, num_steps=3, extension=extension)
    return cfg, data, _apply_dp_grid_padded_reference


def _chunk_run(d, N, source):
    # p = 3, tau = 1e-3 at every N: 201 nodes in 1D, 21^2 under the
    # boundary extension in 2D, so the chunk boundaries fall where they
    # would in a long run, and split-3 cuts three ranges
    data = replace(_wavy_data(), f=_SOURCES[source])
    if d == 1:
        cfg = plan_config(3.0, 1, N * 1e-3, 10.0, data, h=0.1, num_steps=N)
    else:
        cfg = plan_config(3.0, 2, N * 1e-3, 1.0, data, r=0.3, h=0.1, num_steps=N,
                          extension="boundary")
    return cfg, data, _apply_dp_grid_padded_reference


def _ball2d_run():
    # the benchmark's 2D Barenblatt solve: p = 3, r = 0.3, coupled h, half
    # width 1.44, so 175^2 nodes, 1048 offsets and rows of 175 doubles
    data = barenblatt_data(3.0, 0.05, d=2)
    cfg = plan_config(3.0, 2, 0.05, 1.44, data, r=0.3, coupling_c=0.1, num_steps=3)
    assert len(stencil_for(cfg)) == 1048
    assert sample_on_grid(data.u0, 2, cfg.h, cfg.half_width).values.shape == (175, 175)
    return cfg, data, _apply_dp_grid_row_view_reference


def _grid_3d_run(p, extension):
    # 25^3 nodes, rows of 25 doubles, 178 offsets of reach 3; p = 3.7
    # takes np.power, whose SIMD body and tail meet other nodes on a span
    data = _wavy_data()
    cfg = plan_config(p, 3, 4e-3, 1.2, data, r=0.35, h=0.1, num_steps=4, extension=extension)
    assert len(stencil_for(cfg)) == 178
    return cfg, data, _apply_dp_grid_row_view_reference


def _blow_up_run(d, p):
    # the pinned 1D blow-up, and a 2D checkerboard that overflows in every
    # range of a split
    if d == 1:
        data = oscillatory_data(0.1)
        cfg = plan_config(p, 1, 1.0, 1.0, data, h=0.1, num_steps=10)
    else:
        data = HolderData(u0=lambda x, y: np.cos(np.pi * x / 0.1) * np.cos(np.pi * y / 0.1),
                          f=lambda x, y: 0.0 * x, a=1.0, L_u0=40.0, L_f=0.0, sup_u0=1.0,
                          sup_f=0.0)
        cfg = plan_config(p, 2, 0.1, 1.0, data, r=0.3, h=0.1, num_steps=10)
    return cfg, data, _apply_dp_grid_padded_reference


def _subnormal_run():
    # a zero datum and tau = 1: D U stays 0, so the least subnormal source
    # is all the levels hold, 8 * 5e-324 at the last one
    data = constant_data(0.0, 5e-324)
    cfg = plan_config(3.0, 1, 8.0, 1.0, data, h=0.25, num_steps=8)
    return cfg, data, _apply_dp_grid_padded_reference


_CHUNK_1D = stepping._levels_per_block((201,))  # 40 levels of 201 nodes
_CHUNK_2D = stepping._levels_per_block((21, 21))  # 18 levels of 21^2 nodes


class _Run(NamedTuple):
    d: int
    p: float
    make: Callable  # () -> its config, its data, its reference kernel
    narrow: bool = False  # 1D on 23 nodes or fewer, which split-3 cuts as split-2 does
    skips_source: bool = False  # its source is +0 at every node
    blows_up: tuple | None = None  # (node, range of steps) where the reference blows up
    last: float | None = None  # the value of every node at its last level


# every run of the levels matrix, by name
_RUNS = {
    **{f"{d}d-{p}-{extension}": _Run(d, p, functools.partial(_wavy_run, d, p, extension),
                                       narrow=d == 1)
       for d, p in [(1, 2.0), (1, 2.5), (1, 3.0), (1, 3.7), (1, 4.0),
                    (2, 2.0), (2, 3.0), (2, 3.7), (2, 4.0), (3, 3.0), (3, 3.7)]
       for extension in ("zero", "boundary")},
    **{f"{d}d-N={edge}-f={source}": _Run(d, 3.0, functools.partial(_chunk_run, d, N, source),
                                         skips_source=source == "+0")
       for d, N, edge in [(1, 1, "1"), (1, _CHUNK_1D - 1, "chunk-1"), (1, _CHUNK_1D, "chunk"),
                          (1, _CHUNK_1D + 1, "chunk+1"), (2, _CHUNK_2D + 1, "chunk+1")]
       for source in _SOURCES},
    "1d-tau=1-f=5e-324": _Run(1, 3.0, _subnormal_run, narrow=True, last=8 * 5e-324),
    "ball2d": _Run(2, 3.0, _ball2d_run, skips_source=True),
    **{f"25^3-{p}-{extension}": _Run(3, p, functools.partial(_grid_3d_run, p, extension))
       for p in (3.0, 3.7) for extension in ("zero", "boundary")},
    # the 1D blow-up at step 5 lies in mid-chunk; the checkerboard blows up
    # at the corner, at step 9 for p = 3
    "blow-up-1d-4.0": _Run(1, 4.0, functools.partial(_blow_up_run, 1, 4.0), narrow=True,
                           skips_source=True, blows_up=((-10,), range(5, 6))),
    "blow-up-2d-3.0": _Run(2, 3.0, functools.partial(_blow_up_run, 2, 3.0),
                           blows_up=((-10, -10), range(9, 10))),
    "blow-up-2d-3.7": _Run(2, 3.7, functools.partial(_blow_up_run, 2, 3.7),
                           blows_up=((-10, -10), range(2, 10))),
}

# every path but the clones, which the bytes matrix of test_operators
# covers; split-3 leaves out the narrow runs: a range holds a multiple of
# 8 slots, so it cuts 23 or fewer as split-2 does; compiled-2 and
# compiled-3 leave out the 1D runs, a single row, which they run in one
# call as compiled does
_LEVEL_PATHS = [path for path in _PATHS if not path.startswith("clone:")]
_LEVEL_CASES = [(path, run) for path in _LEVEL_PATHS for run, case in _RUNS.items()
                if _serves(path, case.p) and not (path == "split-3" and case.narrow)
                and not (path.startswith("compiled-") and case.d == 1)]


@functools.cache
def _reference_run(run):
    # the run's config and data, the bytes of its reference levels, where
    # it blows up (the first non-finite node of the level after the
    # healthy ones, in scan order, and that level's step) or None, and
    # its sampled source
    cfg, data, kernel = _RUNS[run].make()
    levels = _reference_levels(kernel, cfg, data)
    blown = None
    if not np.all(np.isfinite(levels[-1])):
        *levels, last = levels
        n = last.shape[0] // 2
        blown = tuple(int(i) - n for i in np.argwhere(~np.isfinite(last))[0]), len(levels)
    f = sample_on_grid(data.f, cfg.d, cfg.h, cfg.half_width, cfg.extension).values
    return cfg, data, [lev.tobytes() for lev in levels], blown, f


def _checked_levels(path, got):
    # iter_levels, as solve calls it, checked at each yield: no range
    # thread is left, the caller's errstate is in force and an overflow in
    # the caller's own code still warns, and the level is on the config's
    # grid. Each level is appended to got
    original = stepping.iter_levels

    def iter_levels(cfg, data):
        caller = np.geterr()
        for lev in original(cfg, data):
            assert path.idle()
            assert np.geterr() == caller
            with pytest.raises(RuntimeWarning, match="overflow"):
                np.multiply(np.array(1e308), 10.0)
            assert (lev.d, lev.h, lev.half_width, lev.extension) == (
                cfg.d, cfg.h, cfg.half_width, cfg.extension,
            )
            got.append(lev)
            yield lev

    return iter_levels


@pytest.mark.parametrize("path, run", _LEVEL_CASES, indirect=["path"])
def test_levels_match_reference_step_bitwise(path, run, monkeypatch):
    # every level iter_levels yields and solve keeps, byte for byte
    # against the reference kernel's stepping: the wavy runs in d = 1, 2
    # and 3 (np.power at p = 2.5 and 3.7), the chunk edges under four
    # sources, a subnormal source, the benchmark's 175^2 grid, a 25^3
    # grid, and the blow-ups. A run that blows up yields the reference's
    # healthy levels, then raises its node and step. All of it under a
    # caller's errstate that warns on overflow, with every warning an
    # error, so the run's own overflow and inf - inf stay silent
    case = _RUNS[run]
    cfg, data, want, blown, f = _reference_run(run)
    if case.blows_up is None:
        assert blown is None and len(want) == cfg.N + 1 and want[-1] != want[0]
    else:
        # all its steps are one chunk, checked for finiteness at its end
        node, steps = case.blows_up
        assert blown[0] == node and blown[1] in steps
        assert stepping._levels_per_block(f.shape) > cfg.N
    sources, got = [], []
    step = stepping.explicit_step

    def spy(field, stencil, f_values, *args, **kwargs):
        sources.append(f_values)
        return step(field, stencil, f_values, *args, **kwargs)

    monkeypatch.setattr(stepping, "explicit_step", spy)
    monkeypatch.setattr(stepping, "iter_levels", _checked_levels(path, got))
    with np.errstate(over="warn", divide="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        if blown is None:
            kept = solve(cfg, data).levels
            assert [lev.values.tobytes() for lev in kept] == want
        else:
            with pytest.raises(BlowUpError) as exc:
                solve(cfg, data)
            assert (exc.value.node, exc.value.step) == blown
    assert [lev.values.tobytes() for lev in got] == want
    if case.last is not None:
        # as bytes: a comparison would read a subnormal flushed to zero
        assert got[-1].values.tobytes() == np.full(f.shape, case.last).tobytes()
    # the source reaches every step as sampled, or as None where it holds
    # +0 alone
    assert case.skips_source == (not np.any(f) and not np.any(np.signbit(f)))
    assert sources and all(s is sources[0] for s in sources)
    if case.skips_source:
        assert sources[0] is None
    else:
        assert sources[0].values.tobytes() == f.tobytes()
    # no two kept levels share memory, U^0 included, so keeping them all
    # cannot see a later step overwrite an earlier one or the run's scratch
    # handed out twice; each level is contiguous, so in address order it
    # is enough that each shares none with the next
    values = sorted((lev.values for lev in got), key=lambda v: v.ctypes.data)
    assert all(v.flags.c_contiguous for v in values)
    assert not any(np.shares_memory(a, b) for a, b in zip(values, values[1:]))
    bad = got[-1].values.copy()
    bad.flat[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        got[-1].with_values(bad)
    # a split-k or compiled-k run starts the same threads at every step,
    # k - 1 where the span has 8k slots or more and the grid k rows or
    # more (on every run but the narrow ones), and holds none between
    # steps; no other path starts one
    per_step, rest = divmod(len(path.started), len(sources))
    assert rest == 0 and per_step <= path.ranges - 1
    assert per_step == path.ranges - 1 or case.narrow
    if blown is None:
        assert len(sources) == cfg.N
    assert path.idle()


class _Stop(Exception):
    pass


@pytest.mark.parametrize("ending", ["exhausted", "closed", "abandoned"])
@pytest.mark.parametrize("path", _LEVEL_PATHS, indirect=True)
def test_run_leaves_no_thread_however_it_ends(path, ending):
    # a run holds no thread between its steps, whether it is run to its
    # end, closed after two levels, or abandoned by a consumer that raises
    cfg, data, _ = _wavy_run(2, 3.0, "zero")
    if ending == "exhausted":
        assert len(solve(cfg, data).levels) == cfg.N + 1
    elif ending == "closed":
        levels = iter_levels(cfg, data)
        next(levels), next(levels)
        assert path.idle()
        levels.close()
    else:
        with pytest.raises(_Stop):
            for j, _ in enumerate(iter_levels(cfg, data)):
                if j == 2:
                    raise _Stop
    assert bool(path.started) == (path.ranges > 1)
    assert path.idle()


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


@pytest.mark.parametrize("T, step", [(0.25, {"num_steps": 98}), (0.3, {"tau": 0.1})])
def test_time_interpolate_at_T_is_the_last_level(T, step):
    # N * tau rounds off T (to 0.24999999999999997 and 0.30000000000000004),
    # and t = T still gives U^N bit for bit, not the weighted form
    data = constant_data(1, 1)
    cfg = plan_config(2.0, 1, T, 1.0, data, h=0.5, extension="boundary", **step)
    assert cfg.N * cfg.tau != T
    traj = solve(cfg, data)
    assert time_interpolate(traj, 0, T) == traj.levels[-1].value_at(0)


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
