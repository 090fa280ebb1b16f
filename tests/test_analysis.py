import hashlib
import json

import numpy as np
import pytest

from plapfd import (
    ConfigurationError,
    ErrorRow,
    HolderData,
    SchemeConfig,
    apply_dp_grid,
    barenblatt_data,
    barenblatt_error_row,
    barenblatt_solution,
    consistency_table,
    constant_data,
    convergence_study,
    observed_order,
    oscillatory_data,
    plan_config,
    run_property_suite,
    sample_on_grid,
    solve,
    sqrt_cusp_data,
    stencil_1d,
    stencil_for,
    sup_error,
    tent_data,
)


def test_sup_error_requires_support_margin():
    sol = barenblatt_solution(1, 4.0)
    data = barenblatt_data(4.0, horizon=1.0)
    cfg = plan_config(4.0, 1, 1.0, 1.2, data, h=0.1, num_steps=10, extension="boundary")
    # support radius at T=1 is 2^(1/6) ~ 1.12; with r = 0.1 the box must
    # reach at least 1.22
    with pytest.raises(ConfigurationError, match="support radius"):
        barenblatt_error_row(cfg, data, sol)
    # the error is measured against a solution of the config's dimension
    with pytest.raises(ConfigurationError, match="solution dimension 2 does not match"):
        barenblatt_error_row(cfg, data, barenblatt_solution(2, 4.0))


def test_streaming_row_matches_stored_trajectory():
    p = 3.0
    data = barenblatt_data(p, horizon=0.2)
    sol = barenblatt_solution(1, p)
    cfg = plan_config(p, 1, 0.2, 2.0, data, h=0.1)
    row = barenblatt_error_row(cfg, data, sol)
    traj = solve(cfg, data)
    assert row.sup_error == sup_error(traj, sol)
    assert row.h == 0.1 and row.r == 0.1 and row.tau == cfg.tau
    assert row.runtime_seconds > 0.0


def test_observed_order_recovers_exact_power_law():
    rows = [ErrorRow(h=h, r=h, tau=h * h, sup_error=h**1.5, runtime_seconds=0.0)
            for h in (0.4, 0.2, 0.1, 0.05)]
    assert observed_order(rows) == pytest.approx(1.5, rel=1e-12)
    scaled = [ErrorRow(h=row.h, r=row.r, tau=row.tau, sup_error=7.3 * row.sup_error,
                       runtime_seconds=0.0) for row in rows]
    assert observed_order(scaled) == pytest.approx(observed_order(rows), rel=1e-12)


def test_observed_order_validation():
    rows = [ErrorRow(h=h, r=h, tau=h, sup_error=h, runtime_seconds=0.0) for h in (0.2, 0.1)]
    with pytest.raises(ValueError):
        observed_order(rows)
    rows = [ErrorRow(h=h, r=h, tau=h, sup_error=0.0, runtime_seconds=0.0)
            for h in (0.4, 0.2, 0.1)]
    with pytest.raises(ValueError):
        observed_order(rows)


def test_convergence_study_errors_shrink():
    rows = convergence_study(3.0, [0.2, 0.1, 0.05], T=0.2)
    errs = [row.sup_error for row in rows]
    assert errs[0] > errs[1] > errs[2] > 0.0


def test_consistency_1d_cubic_exact_off_origin():
    # the window must reach past h, otherwise there is no off-origin node
    rows = consistency_table(3.0, 1, [0.5, 0.25, 0.125], window=1.0)
    for row in rows:
        assert row.stencil_size == 2
        assert row.max_error_off_origin == 0.0
        # at the origin the two-point rule leaves exactly 2h
        assert row.max_error == 2.0 * row.h
    assert [row.max_error for row in rows] == sorted(
        (row.max_error for row in rows), reverse=True
    )


def test_consistency_off_origin_is_nan_when_window_too_small():
    rows = consistency_table(3.0, 1, [0.5], window=0.15)
    assert np.isnan(rows[0].max_error_off_origin)
    assert rows[0].max_error == 1.0


def test_consistency_2d_errors_decrease():
    rows = consistency_table(4.0, 2, [0.4, 0.2], window=0.1)
    assert rows[0].max_error > rows[1].max_error > 0.0
    assert rows[0].h < rows[0].r
    with pytest.raises(ValueError):
        consistency_table(3.0, 1, [0.1], window=-1.0)


@pytest.mark.parametrize("p, d, r", [(3.0, 1, 0.25), (3.0, 2, 0.4), (2.5, 3, 0.5)])
def test_consistency_table_and_plan_config_share_the_geometry(p, d, r):
    # one rule gives both the (h, r) and the stencil of a radius
    (row,) = consistency_table(p, d, [r], window=0.1, coupling_c=0.5)
    cfg = plan_config(p, d, 1.0, 2.0, constant_data(), r=r, coupling_c=0.5, num_steps=1)
    assert (row.h, row.r) == (cfg.h, cfg.r)
    assert row.stencil_size == len(stencil_for(cfg))


def _theoretical_config(p, data, h, T, half_width=2.0, extension="zero"):
    return plan_config(
        p, 1, T, half_width, data, h=h, cfl_mode="theoretical", extension=extension
    )


def test_property_suite_constant_data_passes_with_margin():
    # constant data must run with the constant-trace extension: a zero
    # extension cuts a step into the field at the box edge that the L = 0
    # certificate does not cover
    data = constant_data(2.0, 0.5)
    cfg = _theoretical_config(3.0, data, 0.25, 0.1, extension="boundary")
    report = run_property_suite(cfg, data, samples=200, seed=7)
    assert report.passed
    assert [res.name for res in report.results] == [
        "modulus_preservation",
        "stability",
        "continuous_dependence",
        "time_equicontinuity",
        "interpolant_equicontinuity",
    ]
    for res in report.results:
        assert res.passed
        assert res.worst_margin < 0.0
        assert res.detail == ""


def test_property_suite_barenblatt_passes():
    data = barenblatt_data(3.0, horizon=0.25)
    cfg = _theoretical_config(3.0, data, 0.1, 0.25)
    report = run_property_suite(cfg, data, samples=500)
    assert report.passed
    assert report.samples == 500


def test_property_suite_is_deterministic():
    data = barenblatt_data(3.0, horizon=0.1)
    cfg = _theoretical_config(3.0, data, 0.2, 0.1)
    r1 = run_property_suite(cfg, data, samples=300, seed=424242)
    r2 = run_property_suite(cfg, data, samples=300, seed=424242)
    assert r1.to_json() == r2.to_json()
    assert r1.seed == 424242


def test_property_suite_report_serializes():
    data = constant_data(1.0, 0.0)
    cfg = _theoretical_config(2.0, data, 0.5, 0.125, extension="boundary")
    report = run_property_suite(cfg, data, samples=50, seed=1)
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    assert payload["config"]["p"] == 2.0
    assert len(payload["results"]) == 5
    assert {"name", "passed", "checked", "worst_margin", "detail"} <= set(
        payload["results"][0]
    )


def test_property_suite_flags_cfl_violation():
    data = oscillatory_data(0.1)
    cfg = plan_config(4.0, 1, 0.5, 1.0, data, h=0.1, num_steps=8)
    report = run_property_suite(cfg, data, samples=100)
    assert not report.passed
    stability = next(res for res in report.results if res.name == "stability")
    assert not stability.passed
    assert "blew up" in stability.detail or stability.worst_margin > 0.0


def test_property_suite_blow_up_report_is_pinned():
    # the checkerboard at tau = 0.0625 blows up at step 5; every check fails
    # with an infinite margin and only stability carries the blow-up
    data = oscillatory_data(0.1)
    cfg = plan_config(4.0, 1, 0.5, 1.0, data, h=0.1, num_steps=8)
    report = run_property_suite(cfg, data, samples=100)
    skipped = "not evaluated: solver blew up"
    blew_up = (
        "scheme blew up at step 5, node (-10,); the time step likely violates "
        "the CFL restriction"
    )
    names = (
        "modulus_preservation",
        "stability",
        "continuous_dependence",
        "time_equicontinuity",
        "interpolant_equicontinuity",
    )
    expected = {
        "config": {
            "N": 8, "T": 0.5, "cfl_mode": "practical", "d": 1,
            "h": 0.1, "p": 4.0, "r": 0.1, "tau": 0.0625,
        },
        "passed": False,
        "results": [
            {
                "checked": 0,
                "detail": blew_up if name == "stability" else skipped,
                "name": name,
                "passed": False,
                "worst_margin": float("inf"),
            }
            for name in names
        ],
        "samples": 100,
        "seed": 20260817,
    }
    assert report.to_json() == json.dumps(expected, indent=2, sort_keys=True)


def test_property_suite_reports_a_blow_up_of_the_downscaled_run():
    # u0 = exp(-x^2) with f = -D u0 on the grid is an exact discrete steady
    # state, so the run at 10x the p = 2 step limit stays put bit for bit;
    # the downscaled copy is no steady state and blows up. That BlowUpError
    # used to escape the suite, which promises a failing report.
    h, half_width = 0.1, 2.0

    def u0(x):
        return np.exp(-x * x)

    u0_grid = sample_on_grid(u0, 1, h, half_width, extension="boundary")
    du0 = apply_dp_grid(stencil_1d(h, 2.0), u0_grid)
    data = HolderData(
        u0=u0, f=lambda x: -du0, a=1.0, L_u0=1.0, L_f=10.0, sup_u0=1.0,
        sup_f=float(np.max(np.abs(du0))),
    )
    cfg = plan_config(2.0, 1, 20.0, half_width, data, h=h, tau=0.05, extension="boundary")
    assert cfg.N == 400
    final = solve(cfg, data).levels[-1].values
    assert final.tobytes() == u0_grid.values.tobytes()
    report = run_property_suite(cfg, data, samples=50)
    assert not report.passed
    details = {res.name: res.detail for res in report.results}
    assert details.pop("continuous_dependence") == (
        "scheme blew up at step 247, node (-19,); the time step likely violates "
        "the CFL restriction"
    )
    assert set(details.values()) == {"not evaluated: solver blew up"}


def test_property_suite_validation():
    data = constant_data(1.0, 0.0)
    cfg = _theoretical_config(2.0, data, 0.5, 0.125, extension="boundary")
    with pytest.raises(ValueError):
        run_property_suite(cfg, data, samples=0)
    cfg4 = SchemeConfig(p=3.0, d=4, T=0.1, r=0.5, h=0.25, tau=0.05, N=2, half_width=1.0)
    with pytest.raises(ConfigurationError, match="mollifier"):
        run_property_suite(cfg4, data, samples=10)


def _pinned_suite(name):
    if name.startswith("barenblatt p="):
        p = float(name[-1])
        data = barenblatt_data(p, horizon=0.1)
        return _theoretical_config(p, data, 0.05, 0.1), data, 1000, 20260817
    if name == "cusp theoretical p=3":
        data = sqrt_cusp_data()
        return _theoretical_config(3.0, data, 0.1, 0.1), data, 1000, 20260817
    if name == "cusp practical p=4":
        data = sqrt_cusp_data()
        return plan_config(4.0, 1, 0.05, 2.0, data, h=0.1), data, 500, 11
    if name == "constant boundary":
        data = constant_data(2.0, 0.5)
        return _theoretical_config(3.0, data, 0.25, 0.1, extension="boundary"), data, 200, 7
    if name == "tent practical p=4":
        data = tent_data()
        return plan_config(4.0, 1, 0.1, 2.0, data, h=0.1), data, 1000, 3
    if name == "barenblatt d=2":
        data = barenblatt_data(3.0, horizon=0.05, d=2)
        return plan_config(3.0, 2, 0.05, 2.0, data, r=0.4), data, 500, 5
    data = oscillatory_data(0.1)
    if name == "unstable p=2":
        # tau = 0.55 h^2 is past the heat limit h^2/2: the checkerboard grows
        # by 1.2 per step, so three checks fail with finite margins
        return plan_config(2.0, 1, 8 * 0.0055, 1.0, data, h=0.1, tau=0.0055), data, 300, 2
    return plan_config(4.0, 1, 0.5, 1.0, data, h=0.1, num_steps=8), data, 100, 20260817


@pytest.mark.parametrize(
    "name, digest",
    [
        ("barenblatt p=3", "80c15bbb0dc9e3374fb4a0a8a21a226e629eb4926d473b02623f6c434d6ffb03"),
        ("barenblatt p=4", "4921f3ca242c66dc932859cea08a3bf4961d0f4bac73feb105a6bdfe302fb03b"),
        ("cusp theoretical p=3", "bae21f96b45923a3ebfb3d53c66a84d8b80b7daf515a0cabef5d79a745f48708"),
        ("cusp practical p=4", "d74271cad73912b290da3729aa0eace2793b5e24ee82af1d14591f7d540ae3e7"),
        ("constant boundary", "6a1c9943902a52fd64aee3d3edf8c06108108a5b22882de0b1097616940dfef2"),
        ("tent practical p=4", "a5261c69a36a2d1b6f9f40237760a7e53ad6b24a3cd6f4c7dd7e42afc50628d1"),
        ("barenblatt d=2", "332294e7db82e245c8d795a537bc9af7d582535c07c966cc9fa064507a8a9b72"),
        ("unstable p=2", "26a1ef31cd8a8056a2fae9b0836da6e78251f757f4805a94284617562c312d23"),
        ("blow-up", "b1dd112805649bb83759853685729bd267f1ce399e25eb53d6d9fbc41530c254"),
    ],
)
def test_property_suite_reports_are_pinned(name, digest):
    # sha256 of to_json() as the suite wrote it with a per-sample
    # time_interpolate loop and per-axis node coordinates; the array form
    # must give the same report byte for byte, passing or failing, d = 1 or 2
    config, data, samples, seed = _pinned_suite(name)
    report = run_property_suite(config, data, samples=samples, seed=seed)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
