import filecmp
import itertools
import json
import math
import os

import numpy as np
import pytest

from plapfd import ErrorRow, GridField, grid_axis
from plapfd import cli
from plapfd.cli import _write_snapshot, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_table(capsys):
    code, out, err = run_cli(["constants"], capsys)
    assert code == 0
    assert "4.504567" in out
    assert "13.468421" in out
    assert "28.489429" in out
    assert "M <= 4.51" in out


def test_consistency_exact_column(capsys):
    code, out, err = run_cli(
        ["consistency", "--p=3", "--d=1", "--r_levels=[0.5,0.25,0.125]", "--window=1.0"],
        capsys,
    )
    assert code == 0
    assert "off_origin" in out
    for line in out.splitlines()[1:]:
        assert line.split()[-1] == "0.000000e+00"


def test_invalid_p_exits_2(capsys):
    code, out, err = run_cli(["solve", "--p=1.5"], capsys)
    assert code == 2
    assert "p must be ≥ 2" in err


# tabulated tent at p = 50 with L_u0 = 1: the theoretical bound overflows
_P50_TENT = [
    "solve",
    "--p=50",
    "--h=0.1",
    "--T=0.01",
    "--snapshot_times=[0.01]",
    "--data.kind=tabulated",
    "--data.u0_table=[[-1,0],[0,1],[1,0]]",
    "--data.a=1",
    "--data.L_u0=1",
    "--data.L_f=0",
    "--data.sup_u0=1",
    "--data.sup_f=0",
]


@pytest.mark.parametrize(
    "argv, code, named",
    [
        (["solve", "--cfl.c=0"], 2, "c_practical"),
        (["solve", "--cfl.c=-1"], 2, "c_practical"),
        (["solve", "--tau=Infinity"], 2, "tau must be finite"),
        (["consistency", "--window=Infinity"], 2, "window"),
        ([*_P50_TENT, "--cfl.mode=theoretical"], 2, "outside float range"),
        (_P50_TENT, 0, None),
        (["solve", "--T=0.01", "--h=0.01", "--cfl.c=1e-320"], 2, "c_practical"),
        (["solve", "--T=0.01", "--h=0.1", "--cfl.c=1e-320"], 2, "c_practical"),
        (["solve", "--T=0.01", "--tau=1e-320"], 2, "tau gives a time step too small"),
        (["solve", "--T=0.01", "--snapshot_times=[NaN]"], 2, "snapshot_times"),
        (["solve", "--cfl.c=1e-300"], 2, "N = 1e+304 steps"),
        (["solve", "--tau=1e-200"], 2, "N = 1e+200 steps"),
        (["solve", f"--num_steps={10**30}"], 2, "N = 1e+30 steps"),
        (["solve", "--T=0.01", f"--num_steps={10**400}"], 2, "N = 1e+400 steps"),
        (["solve", "--r=0.05"], 2, "require r = h (got r=0.05, h=0.01)"),
        (["solve", "--r=1e-200"], 2, "require r = h (got r=1e-200, h=0.01)"),
        (["solve", "--extension=mirror"], 2, "extension must be one of ('zero', 'boundary')"),
        (
            ["solve", "--data.kind=foo"],
            2,
            "data.kind must be one of ('barenblatt', 'constant', 'tabulated') (got 'foo')",
        ),
        (["solve", "--tau=0.001", "--num_steps=7"], 2, "N * tau = 0.007 does not reproduce"),
        (["solve", "--p=3", "--T=1", "--num_steps=40"], 4, "blew up at step 10, node (-5,)"),
        (["solve", "--config=TMP/list.json"], 2, "config file must hold a JSON object"),
        (["solve", "--config=TMP/meta.json"], 2, "metadata config block must be an object"),
        (["solve", "--cfl=3"], 2, "cfl must be an object"),
        (["solve", "--p=null"], 2, "p must not be null"),
        (["solve", "foo"], 2, "unrecognized argument 'foo'"),
        (["solve", "--=3"], 2, "empty key in override '--=3'"),
        (["solve", "--cfl=3", "--cfl.c=2"], 2, "conflicting overrides at 'cfl.c'"),
        ([*_P50_TENT, "--data.u0_table=[1]"], 2, "data.u0_table must be a list of [x, value] pairs"),
        ([*_P50_TENT, "--data.u0_table=[[0,1]]"], 2, "data.u0_table needs at least 2 rows"),
        ([*_P50_TENT, "--data.u0_table=[[-Infinity,0],[0,1],[1,0]]"], 2,
         "data.u0_table must hold finite numbers"),
        ([*_P50_TENT, "--data.u0_table=[[NaN,0],[0,1],[1,0]]"], 2,
         "data.u0_table must hold finite numbers"),
        ([*_P50_TENT, "--data.f_table=[[-1,0],[1,Infinity]]"], 2,
         "data.f_table must hold finite numbers"),
        ([*_P50_TENT, "--data.f_table=[[-1,0],[1,NaN]]"], 2,
         "data.f_table must hold finite numbers"),
        ([*_P50_TENT, "--d=2"], 2, "tabulated data is one-dimensional"),
        (["convergence", "--d=2"], 2, "the convergence benchmark is one-dimensional"),
        (["convergence", "--cfl.mode=theoretical"], 2, "uses the practical step rule"),
        (["solve", "--snapshot_times=[null]"], 2, "snapshot_times[0] has type NoneType"),
        (["solve", "--snapshot_times=[[1]]"], 2, "snapshot_times[0] has type list"),
        (["solve", '--snapshot_times=["a"]'], 2, "snapshot_times[0] has type str"),
        (["consistency", "--r_levels=[null]"], 2, "r_levels[0] has type NoneType"),
        (["convergence", "--levels=[null,0.1,0.2]"], 2, "levels[0] has type NoneType"),
        (["convergence", "--levels=[0.5,true,0.25]"], 2, "levels[1] has type bool"),
        (["solve", "--p=400", "--h=0.1"], 2, "weight h^-p (h = 0.1, p = 400.0) is outside float range"),
        (["consistency", "--d=2", "--p=400", "--r_levels=[0.1]"], 2, "stencil weight h^d / ("),
        (["consistency", "--d=2", "--r_levels=[1e200]"], 2, "stencil weight h^d / ("),
        (["consistency", "--d=1", "--p=3", "--r_levels=[1e120]"], 2, "stencil weight h^-p"),
        (["consistency", "--d=2", "--r_levels=[1e250]"], 2, "coupled mesh size c * r^1.5"),
        (
            ["solve", "--d=2", "--r=1e200", "--h=null", "--T=0.01", "--snapshot_times=[0.01]"],
            2,
            "c_practical gives a time step too large for float range",
        ),
        (
            ["solve", "--d=4", "--r=0.5", "--h=0.25", "--half_width=1.0", "--T=0.1",
             "--data.kind=constant", "--num_steps=2", "--snapshot_times=[0.1]"],
            0,
            None,
        ),
    ],
    ids=[
        "cfl.c=0",
        "cfl.c=-1",
        "tau=inf",
        "window=inf",
        "p50-theoretical",
        "p50-practical",
        "cfl.c-underflows",
        "cfl.c-subnormal",
        "tau-subnormal",
        "snapshot-nan",
        "cfl.c=1e-300",
        "tau=1e-200",
        "num_steps=1e30",
        "num_steps=1e400",
        "1d-r-differs-from-h",
        "1d-r-too-small-for-the-step",
        "extension=mirror",
        "data.kind=foo",
        "tau-and-num_steps-disagree",
        "blow-up",
        "config-is-a-list",
        "metadata-config-not-an-object",
        "cfl-not-an-object",
        "p=null",
        "bare-argument",
        "empty-key",
        "conflicting-overrides",
        "table-rows-not-pairs",
        "table-one-row",
        "table-x-infinite",
        "table-x-nan",
        "f-table-value-infinite",
        "f-table-value-nan",
        "tabulated-in-2d",
        "convergence-2d",
        "convergence-theoretical",
        "snapshot-null",
        "snapshot-nested",
        "snapshot-string",
        "r_levels-null",
        "levels-null",
        "levels-bool",
        "1d-weight-overflows",
        "2d-weight-underflows",
        "2d-weight-overflows",
        "1d-weight-underflows",
        "coupling-overflows",
        "practical-target-overflows",
        "d4-practical",
    ],
)
def test_out_of_range_numbers_exit_cleanly(tmp_path, capsys, argv, code, named):
    # each used to end in a traceback (exit 1), at --cfl.c=-1 in a run of
    # one step of size T, at a NaN snapshot time in a message naming no
    # key, at more than 2**53 steps in a run that could not finish, or at
    # a step count past float range in an OverflowError; a 1D --r other
    # than h ran with r = h and exited 0, and one too small was reported
    # as a step too small; num_steps given with tau was dropped; main must
    # return, never raise, and a failed run writes no metadata; TMP names
    # tmp_path, which holds a config file that is a list and a metadata
    # file whose config block is not an object; a null, nested or string
    # element of a number list raised TypeError or named no key, and a
    # bool ran as 1.0; a stencil weight or step past float range raised
    # OverflowError or ZeroDivisionError, or ran on weights [0, 0]; an
    # infinite table abscissa ran on np.interp's edge value, and a NaN one
    # was refused in a message naming no key
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "meta.json").write_text('{"config": 3, "derived": {}}')
    argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
    got, out, err = run_cli([*argv, f"--output_dir={tmp_path}"], capsys)
    assert got == code, err
    if code:
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "metadata.json").exists()
    else:
        derived = json.loads((tmp_path / "metadata.json").read_text())["derived"]
        assert [derived[k] for k in ("Ktilde", "C", "tau_max_theoretical")] == [None] * 3


def test_help_lists_each_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for name, (fn, _) in cli._COMMANDS.items():
        assert fn.__doc__ and f"{name} {fn.__doc__}" in out


def test_defaults_tree_is_pinned():
    # DEFAULTS is read from _SCHEMA; every run resolves against this tree,
    # so its values and its key order (metadata.json's config) must stay
    want = {
        "p": 4.0,
        "d": 1,
        "T": 1.0,
        "half_width": 2.0,
        "h": 0.01,
        "r": None,
        "coupling_c": 0.1,
        "tau": None,
        "num_steps": None,
        "cfl": {"mode": "practical", "c": 0.2},
        "extension": "zero",
        "data": {"kind": "barenblatt", "t_shift": 1.0},
        "snapshot_times": [1.0],
        "levels": [0.04, 0.02, 0.01, 0.005],
        "r_levels": None,
        "window": 0.15,
        "samples": 1000,
        "seed": 20260817,
        "output_dir": ".",
    }
    assert json.dumps(cli.DEFAULTS) == json.dumps(want)


@pytest.mark.parametrize(
    "d, want",
    [(1, [0.4, 0.2, 0.1, 0.05]), (2, [0.4, 0.2, 0.1, 0.05]), (3, [0.8, 0.6, 0.4])],
)
def test_consistency_default_radii_per_dimension(monkeypatch, capsys, d, want):
    # a null r_levels resolves per dimension: the d <= 2 radii would not
    # finish in d = 3; a given list wins in every d
    seen = []

    def table(p, d, r_levels, window, coupling_c):
        seen.append(r_levels)
        return []

    monkeypatch.setattr(cli, "consistency_table", table)
    assert run_cli(["consistency", f"--d={d}"], capsys)[0] == 0
    assert run_cli(["consistency", f"--d={d}", "--r_levels=null"], capsys)[0] == 0
    assert run_cli(["consistency", f"--d={d}", "--r_levels=[0.5]"], capsys)[0] == 0
    assert seen == [want, want, [0.5]]


def test_unknown_key_rejected(capsys):
    code, out, err = run_cli(["solve", "--bogus=1"], capsys)
    assert code == 2
    assert "unknown config key: bogus" in err
    code, out, err = run_cli(["solve", "--cfl.fudge=1"], capsys)
    assert code == 2
    assert "cfl.fudge" in err


def test_type_errors_rejected(capsys):
    code, out, err = run_cli(["solve", "--h=fast"], capsys)
    assert code == 2
    assert "expected" in err
    code, out, err = run_cli(["solve", "--tau=true"], capsys)
    assert code == 2


def test_missing_output_dir_exits_3(tmp_path, capsys):
    missing = os.path.join(tmp_path, "nope")
    code, out, err = run_cli(
        ["solve", f"--output_dir={missing}", "--T=0.1", "--h=0.2"], capsys
    )
    assert code == 3
    assert "does not exist" in err


def _solve_args(outdir, extra=()):
    return [
        "solve",
        "--p=3",
        "--T=0.1",
        "--h=0.2",
        "--snapshot_times=[0,0.05,0.1]",
        f"--output_dir={outdir}",
        *extra,
    ]


def test_solve_writes_snapshots_and_metadata(tmp_path, capsys):
    code, out, err = run_cli(_solve_args(tmp_path), capsys)
    assert code == 0
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert set(meta) == {"config", "derived", "outputs"}
    snaps = meta["outputs"]["snapshots"]
    assert [s["file"] for s in snaps] == [
        "snapshot_00.csv",
        "snapshot_01.csv",
        "snapshot_02.csv",
    ]
    assert snaps[0]["level"] == 0
    assert snaps[2]["level"] == meta["derived"]["N"]
    assert meta["derived"]["stencil_size"] == 2
    assert meta["derived"]["nodes_per_axis"] == 21
    # config holds the inputs as given; the plan chose tau, N and the 1D r
    assert [meta["config"][k] for k in ("h", "r", "tau", "num_steps")] == [0.2, None, None, None]

    raw = (tmp_path / "snapshot_00.csv").read_bytes()
    lines = raw.split(b"\r\n")
    assert lines[0] == b"x,u"
    assert len(lines) == 1 + 21 + 1
    first = lines[1].split(b",")
    assert first[0] == b"-2"


def test_solve_metadata_round_trip_is_bit_identical(tmp_path, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    code, _, _ = run_cli(_solve_args(dir_a), capsys)
    assert code == 0
    code, _, _ = run_cli(
        [
            "solve",
            f"--config={dir_a / 'metadata.json'}",
            f"--output_dir={dir_b}",
        ],
        capsys,
    )
    assert code == 0
    meta_a = json.loads((dir_a / "metadata.json").read_text())
    meta_b = json.loads((dir_b / "metadata.json").read_text())
    meta_a["config"].pop("output_dir")
    meta_b["config"].pop("output_dir")
    assert meta_a == meta_b
    for name in ("snapshot_00.csv", "snapshot_01.csv", "snapshot_02.csv"):
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False)

    def solve_into(out, *argv):
        code, _, err = run_cli(["solve", *argv, f"--output_dir={out}"], capsys)
        assert code == 0, err
        return json.loads((out / "metadata.json").read_text())

    def refeed(src, out, *extra):
        return solve_into(out, f"--config={src / 'metadata.json'}", *extra)

    # config holds no plan, so an edited input plans again: the step count,
    # cfl.c, and in d = 2 the r to which the plan couples h
    dir_c = tmp_path / "c"
    dir_c.mkdir()
    assert refeed(dir_a, dir_c, "--num_steps=7")["derived"]["N"] == 7
    short = ["--p=3", "--T=0.01", "--snapshot_times=[0.01]"]
    assert solve_into(dir_c, "--h=0.1", *short)["derived"]["N"] == 5
    assert refeed(dir_c, dir_c, "--cfl.c=0.01")["derived"]["N"] == 100
    meta = solve_into(dir_c, "--d=2", "--r=0.5", "--h=null", *short)
    assert (meta["config"]["h"], meta["derived"]["nodes_per_axis"]) == (None, 113)
    derived = refeed(dir_c, dir_c, "--r=0.3")["derived"]
    assert (derived["nodes_per_axis"], derived["stencil_size"]) == (243, 1048)
    # a file whose config holds the plan, as files written before config
    # held the inputs as given do, still reproduces its run
    dir_d = tmp_path / "d"
    dir_d.mkdir()
    old = json.loads((dir_a / "metadata.json").read_text())
    old["config"].update(h=0.2, r=0.2, tau=old["derived"]["tau"], num_steps=old["derived"]["N"])
    (dir_d / "metadata.json").write_text(json.dumps(old))
    assert refeed(dir_d, dir_d)["derived"] == old["derived"]
    for name in ("snapshot_00.csv", "snapshot_01.csv", "snapshot_02.csv"):
        assert filecmp.cmp(dir_a / name, dir_d / name, shallow=False)


def test_constant_data_follows_its_line(tmp_path, capsys):
    # u0 = 1.5, f = 0.5 under the boundary extension: every node moves on
    # the line u0 + t * f
    code, _, err = run_cli(
        _solve_args(
            tmp_path, ["--data.kind=constant", "--data.u0=1.5", "--data.f=0.5", "--extension=boundary"]
        ),
        capsys,
    )
    assert code == 0, err
    snaps = json.loads((tmp_path / "metadata.json").read_text())["outputs"]["snapshots"]
    for snap in snaps:
        u = np.loadtxt(tmp_path / snap["file"], delimiter=",", skiprows=1)[:, 1]
        np.testing.assert_allclose(u, 1.5 + snap["t"] * 0.5, rtol=0, atol=1e-12)


def test_snapshot_at_a_half_step_takes_the_later_level(tmp_path, capsys):
    # tau = 0.25: each time sits halfway between two levels, and the later
    # one wins, so no two files hold the same level
    code, _, err = run_cli(
        ["solve", "--data.kind=constant", "--data.u0=1", "--data.f=1", "--T=1",
         "--num_steps=4", "--snapshot_times=[0.125,0.375,0.625,0.875]",
         f"--output_dir={tmp_path}"],
        capsys,
    )
    assert code == 0, err
    snaps = json.loads((tmp_path / "metadata.json").read_text())["outputs"]["snapshots"]
    assert [(s["level"], s["t"]) for s in snaps] == [(1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)]


@pytest.mark.parametrize(
    "d, extra", [(1, []), (2, ["--d=2", "--r=0.5", "--h=0.25", "--half_width=2.0"])]
)
def test_solve_builds_its_stencil_once(tmp_path, capsys, monkeypatch, d, extra):
    # the run and the metadata's stencil_size share one stencil build
    from plapfd import stepping

    calls = []
    for name in ("stencil_1d", "stencil_ball"):
        build = getattr(stepping, name)

        def counted(*args, _build=build, _name=name):
            calls.append(_name)
            return _build(*args)

        monkeypatch.setattr(stepping, name, counted)
    code, _, _ = run_cli(_solve_args(tmp_path, extra), capsys)
    assert code == 0
    assert calls == ["stencil_1d" if d == 1 else "stencil_ball"]
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["derived"]["stencil_size"] == (2 if d == 1 else 8)


def test_solve_rejects_snapshot_beyond_horizon(tmp_path, capsys):
    code, out, err = run_cli(
        ["solve", "--T=0.1", "--h=0.2", f"--output_dir={tmp_path}"], capsys
    )
    # default snapshot time 1.0 lies beyond T = 0.1
    assert code == 2
    assert "snapshot time" in err


def test_convergence_outputs(tmp_path, capsys):
    code, out, err = run_cli(
        [
            "convergence",
            "--p=4",
            "--T=0.1",
            "--levels=[0.4,0.3,0.2]",
            f"--output_dir={tmp_path}",
        ],
        capsys,
    )
    assert code == 0
    assert "observed order:" in out
    lines = (tmp_path / "errors.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"h,r,tau,sup_error,runtime_seconds"
    assert len(lines) == 1 + 3 + 1
    dat = (tmp_path / "convergence_loglog.dat").read_text().splitlines()
    assert dat[0] == "# log10(h) log10(sup_error)"
    assert len(dat) == 4


def test_convergence_bytes_match_per_value_format(tmp_path, capsys, monkeypatch):
    # 400 rows, 2,000 values: r, tau and runtime carry every awkward double,
    # h and sup_error stay positive so their logs exist
    rng = np.random.default_rng(20261018)
    values = rng.standard_normal((400, 5)) * 10.0 ** rng.integers(-300, 301, (400, 5))
    special = [-0.0, 0.0, 5e-324, -5e-324, float("inf"), -float("inf"), float("nan"), 1.0 / 3.0]
    values[: len(special), 1:4] = np.array(special)[:, None]
    values[:, [0, 3]] = np.abs(values[:, [0, 3]]) + 5e-324
    values[:3, 0] = [0.3, 0.2, 0.1]
    rows = [ErrorRow(*map(float, row)) for row in values]
    monkeypatch.setattr(cli, "convergence_study", lambda *args, **kwargs: rows)
    monkeypatch.setattr(cli, "observed_order", lambda rows: 1.0)
    code, out, err = run_cli(["convergence", f"--output_dir={tmp_path}"], capsys)
    assert code == 0, err

    lines = ["h,r,tau,sup_error,runtime_seconds"]
    lines += [",".join(format(x, ".17g") for x in row) for row in values.tolist()]
    assert (tmp_path / "errors.csv").read_bytes() == ("\r\n".join(lines) + "\r\n").encode()
    dat = "# log10(h) log10(sup_error)\n" + "".join(
        f"{math.log10(row.h):.17g} {math.log10(row.sup_error):.17g}\n" for row in rows
    )
    assert (tmp_path / "convergence_loglog.dat").read_bytes() == dat.encode()


def test_convergence_needs_three_levels(tmp_path, capsys):
    code, out, err = run_cli(
        ["convergence", "--levels=[0.2,0.1]", f"--output_dir={tmp_path}"], capsys
    )
    assert code == 2
    assert "3 distinct mesh sizes" in err


def test_properties_pass_route(tmp_path, capsys):
    code, out, err = run_cli(
        [
            "properties",
            "--p=3",
            "--samples=200",
            f"--output_dir={tmp_path}",
        ],
        capsys,
    )
    assert code == 0
    assert out.count("PASS") == 5
    report = json.loads((tmp_path / "properties.json").read_text())
    assert report["passed"] is True
    assert report["seed"] == 20260817


def test_properties_violation_exits_5(tmp_path, capsys):
    # checkerboard initial data with a practical step far beyond the
    # stability limit: the run blows up and the report must say so
    table = [[round(-1.0 + 0.1 * k, 1), 1.0 if k % 2 == 0 else -1.0] for k in range(21)]
    code, out, err = run_cli(
        [
            "properties",
            "--p=4",
            "--cfl.mode=practical",
            "--cfl.c=1.0",
            "--data.kind=tabulated",
            f"--data.u0_table={json.dumps(table)}",
            "--data.a=1",
            "--data.L_u0=20",
            "--data.L_f=0",
            "--data.sup_u0=1",
            "--data.sup_f=0",
            "--samples=100",
            f"--output_dir={tmp_path}",
        ],
        capsys,
    )
    assert code == 5
    assert "FAIL" in out
    assert "property violations detected" in err
    report = json.loads((tmp_path / "properties.json").read_text())
    assert report["passed"] is False


def test_tabulated_data_requires_certificates(tmp_path, capsys):
    code, out, err = run_cli(
        [
            "properties",
            "--data.kind=tabulated",
            "--data.u0_table=[[0,0],[1,1]]",
            f"--output_dir={tmp_path}",
        ],
        capsys,
    )
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize("d, h, half_width", [(1, 0.01, 2.0), (2, 0.1, 1.0)])
def test_snapshot_bytes_match_per_value_format(tmp_path, d, h, half_width):
    # 401 nodes in 1D, 21^2 in 2D; extreme values go through the same %.17g
    rng = np.random.default_rng(20260817)
    shape = (len(grid_axis(h, half_width)),) * d
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 1.0 / 3.0, 2.0**-1074 * 3]
    values.flat[: len(special)] = special
    field = GridField(d=d, h=h, half_width=half_width, values=values)
    path = tmp_path / "snap.csv"
    _write_snapshot(str(path), field)

    ax = field.axis()
    lines = ["x,u" if d == 1 else "x1,x2,u"]
    for idx in itertools.product(range(shape[0]), repeat=d):
        row = [ax[i] for i in idx] + [values[idx]]
        lines.append(",".join(format(float(x), ".17g") for x in row))
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_config_file_with_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"p": 3.0, "T": 0.1, "h": 0.2, "window": 1.0}))
    code, out, err = run_cli(
        ["consistency", f"--config={cfg_path}", "--r_levels=[0.5,0.25]", "--p=4"],
        capsys,
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    # the command-line p = 4 override wins over the file's p = 3; the
    # two-point rule at p = 4 is not exact away from the origin
    assert rows[0].split()[-1] != "0.000000e+00"
