"""Command-line interface.

Subcommands: ``solve`` (run the scheme, write CSV snapshots plus a metadata
JSON that can be re-fed as a config to reproduce the run bit for bit),
``convergence`` (Barenblatt error table with observed order),
``consistency`` (discrete operator against the exact p-Laplacian on
``|x|^2``), ``properties`` (randomized structural checks, JSON report), and
``constants`` (mollifier constants table).

Configuration comes from one JSON file via ``--config``; every field can
be overridden on the command line as ``--key=value`` with dotted paths for
nested fields (``--cfl.mode=theoretical``). Unknown keys are rejected.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 I/O
failure, 4 numerical failure (blow-up), 5 property violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .analysis import (
    consistency_table,
    convergence_study,
    observed_order,
    run_property_suite,
)
from .errors import BlowUpError, ConfigurationError
from .exact import barenblatt_data
from .mollifier import REFERENCE_BOUNDS, mollifier_constants
from .operators import _check_p, _one_of, grid_points, grid_radius
from .stepping import (
    HolderData,
    _zero,
    constant_data,
    iter_levels,
    plan_config,
    stencil_for,
    theoretical_step_bound,
)

_NUMBER = (int, float)
_NUMBERS = (list,)  # a list of _NUMBER elements, each checked
_NO_DEFAULT = object()  # an optional key that DEFAULTS leaves out

# key -> (default, accepted types, nullable); nested dicts hold their own
# tables. DEFAULTS is read from this table.
_SCHEMA = {
    "p": (4.0, _NUMBER, False),
    "d": (1, (int,), False),
    "T": (1.0, _NUMBER, False),
    "half_width": (2.0, _NUMBER, False),
    "h": (0.01, _NUMBER, True),
    "r": (None, _NUMBER, True),
    "coupling_c": (0.1, _NUMBER, False),
    "tau": (None, _NUMBER, True),
    "num_steps": (None, (int,), True),
    "cfl": {
        "mode": ("practical", (str,), False),
        "c": (0.2, _NUMBER, False),
    },
    "extension": ("zero", (str,), False),
    "data": {
        "kind": ("barenblatt", (str,), False),
        "t_shift": (1.0, _NUMBER, False),
        "u0": (_NO_DEFAULT, _NUMBER, False),
        "f": (_NO_DEFAULT, _NUMBER, False),
        "u0_table": (_NO_DEFAULT, (list,), False),
        "f_table": (_NO_DEFAULT, (list,), False),
        "a": (_NO_DEFAULT, _NUMBER, False),
        "L_u0": (_NO_DEFAULT, _NUMBER, False),
        "L_f": (_NO_DEFAULT, _NUMBER, False),
        "sup_u0": (_NO_DEFAULT, _NUMBER, False),
        "sup_f": (_NO_DEFAULT, _NUMBER, False),
        "support_radius": (_NO_DEFAULT, _NUMBER, True),
    },
    "snapshot_times": ([1.0], _NUMBERS, False),
    "levels": ([0.04, 0.02, 0.01, 0.005], _NUMBERS, False),
    "r_levels": (None, _NUMBERS, True),
    "window": (0.15, _NUMBER, False),
    "samples": (1000, (int,), False),
    "seed": (20260817, (int,), False),
    "output_dir": (".", (str,), False),
}


def _defaults(schema: dict) -> dict:
    out = {}
    for key, rule in schema.items():
        if isinstance(rule, dict):
            out[key] = _defaults(rule)
        elif rule[0] is not _NO_DEFAULT:
            out[key] = rule[0]
    return out


DEFAULTS = _defaults(_SCHEMA)


def _validate(cfg: dict, schema=_SCHEMA, path="") -> None:
    for key, val in cfg.items():
        where = f"{path}{key}"
        if key not in schema:
            raise ConfigurationError(f"unknown config key: {where}")
        rule = schema[key]
        if isinstance(rule, dict):
            if not isinstance(val, dict):
                raise ConfigurationError(f"{where} must be an object")
            _validate(val, rule, where + ".")
            continue
        _, types, nullable = rule
        if val is None:
            if not nullable:
                raise ConfigurationError(f"{where} must not be null")
            continue
        _check_type(where, val, types)
        if types is _NUMBERS:
            for i, x in enumerate(val):
                _check_type(f"{where}[{i}]", x, _NUMBER)


def _check_type(where: str, val, types: tuple) -> None:
    """Refuse ``val`` unless it is one of ``types``; a bool is never a number."""
    if isinstance(val, bool) or not isinstance(val, types):
        raise ConfigurationError(
            f"{where} has type {type(val).__name__}, expected "
            + " or ".join(t.__name__ for t in types)
        )


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def _parse_overrides(tokens) -> dict:
    out: dict = {}
    for tok in tokens:
        if not tok.startswith("--") or "=" not in tok:
            raise ConfigurationError(
                f"unrecognized argument {tok!r}; overrides look like --key=value"
            )
        key, _, raw = tok[2:].partition("=")
        if not key:
            raise ConfigurationError(f"empty key in override {tok!r}")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"conflicting overrides at {key!r}")
        node[parts[-1]] = val
    return out


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConfigurationError("config file must hold a JSON object")
    if "config" in obj and "derived" in obj:
        # a solve metadata file; its config block holds the run's inputs
        obj = obj["config"]
        if not isinstance(obj, dict):
            raise ConfigurationError("metadata config block must be an object")
    return obj


def _resolve(args, extra_defaults=None) -> dict:
    cfg = DEFAULTS
    if extra_defaults:
        cfg = _merge(cfg, extra_defaults)
    if args.config is not None:
        cfg = _merge(cfg, _load_config_file(args.config))
    cfg = _merge(cfg, _parse_overrides(args.overrides))
    _validate(cfg)
    _check_p(cfg["p"])
    return cfg


def _interp_table(table, name):
    try:
        xs = np.array([float(row[0]) for row in table])
        vs = np.array([float(row[1]) for row in table])
    except (TypeError, ValueError, IndexError):
        raise ConfigurationError(f"{name} must be a list of [x, value] pairs")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        raise ConfigurationError(f"{name} must hold finite numbers")
    if len(xs) < 2 or np.any(np.diff(xs) <= 0):
        raise ConfigurationError(f"{name} needs at least 2 rows with increasing x")

    def fn(x):
        return np.interp(x, xs, vs)

    return fn


def _build_data(cfg: dict) -> HolderData:
    spec = cfg["data"]
    kind = _one_of("data.kind", spec["kind"], ("barenblatt", "constant", "tabulated"))
    if kind == "barenblatt":
        return barenblatt_data(
            cfg["p"], horizon=cfg["T"], d=cfg["d"], t_shift=spec["t_shift"]
        )
    if kind == "constant":
        return constant_data(spec.get("u0", 0.0), spec.get("f", 0.0))
    if cfg["d"] != 1:
        raise ConfigurationError("tabulated data is one-dimensional")
    missing = [k for k in ("a", "L_u0", "L_f", "sup_u0", "sup_f") if k not in spec]
    if missing:
        raise ConfigurationError(
            "tabulated data needs explicit regularity constants: missing "
            + ", ".join(missing)
        )
    u0 = _interp_table(spec["u0_table"], "data.u0_table") if "u0_table" in spec else _zero
    f = _interp_table(spec["f_table"], "data.f_table") if "f_table" in spec else _zero
    return HolderData(
        u0=u0,
        f=f,
        a=spec["a"],
        L_u0=spec["L_u0"],
        L_f=spec["L_f"],
        sup_u0=spec["sup_u0"],
        sup_f=spec["sup_f"],
        support_radius=spec.get("support_radius"),
    )


def _plan(cfg: dict, data: HolderData):
    return plan_config(
        cfg["p"],
        cfg["d"],
        cfg["T"],
        cfg["half_width"],
        data,
        h=cfg["h"],
        r=cfg["r"],
        cfl_mode=cfg["cfl"]["mode"],
        c_practical=cfg["cfl"]["c"],
        coupling_c=cfg["coupling_c"],
        tau=cfg["tau"],
        num_steps=cfg["num_steps"],
        extension=cfg["extension"],
    )


def _require_dir(path: str) -> None:
    if not os.path.isdir(path):
        raise FileNotFoundError(f"output directory does not exist: {path}")


def _write_table(path: str, header: str, table, delimiter=",", newline="\r\n") -> None:
    """Write one header line, then the rows of ``table`` with every value as
    ``%.17g``, which round-trips each double."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(
            fh,
            table,
            fmt="%.17g",
            delimiter=delimiter,
            newline=newline,
            header=header,
            comments="",
        )


def _write_snapshot(path: str, field) -> None:
    names = ["x"] if field.d == 1 else [f"x{i + 1}" for i in range(field.d)]
    pts = grid_points(field.d, field.h, field.half_width)
    table = np.column_stack([pts.reshape(-1, field.d), field.values.reshape(-1)])
    _write_table(path, ",".join(names + ["u"]), table)


def cmd_solve(cfg: dict) -> int:
    """Run the scheme; write CSV snapshots and a re-feedable metadata.json."""
    _require_dir(cfg["output_dir"])
    data = _build_data(cfg)
    config = _plan(cfg, data)
    snap_times = [float(t) for t in cfg["snapshot_times"]]
    for t in snap_times:
        if not 0.0 <= t <= config.T * (1.0 + 1e-12):
            raise ConfigurationError(f"snapshot_times: snapshot time {t} outside [0, {config.T}]")
    target = {}
    for k, t in enumerate(snap_times):
        target.setdefault(config.nearest_level(t), []).append(k)
    outputs = [None] * len(snap_times)
    for j, lvl in enumerate(iter_levels(config, data)):
        if j in target:
            for k in target[j]:
                name = f"snapshot_{k:02d}.csv"
                _write_snapshot(os.path.join(cfg["output_dir"], name), lvl)
                outputs[k] = {
                    "file": name,
                    "requested_t": snap_times[k],
                    "level": j,
                    "t": float(config.times(j)),
                }
    try:
        kt, C, tau_max = theoretical_step_bound(config.p, config.d, config.r, config.T, data)
    except ConfigurationError:  # d outside the mollifier table, or outside float range
        kt = C = tau_max = None
    stencil = stencil_for(config)
    metadata = {
        "config": cfg,  # the inputs as given: a re-fed file plans the run again
        "derived": {
            "N": config.N,
            "tau": config.tau,
            "nodes_per_axis": 2 * grid_radius(config.h, config.half_width) + 1,
            "cfl_mode": config.cfl_mode,
            "Ktilde": kt,
            "C": C,
            "tau_max_theoretical": tau_max,
            "M_bound": stencil.M_bound,
            "stencil_size": len(stencil),
            "seed": cfg["seed"],
        },
        "outputs": {"snapshots": outputs},
    }
    meta_path = os.path.join(cfg["output_dir"], "metadata.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for entry in outputs:
        print(f"wrote {entry['file']} (level {entry['level']}, t = {entry['t']:.6g})")
    print(f"wrote metadata.json (N = {config.N}, tau = {config.tau:.6g})")
    return 0


def cmd_convergence(cfg: dict) -> int:
    """Barenblatt error table in 1D, with the observed order."""
    _require_dir(cfg["output_dir"])
    if cfg["d"] != 1:
        raise ConfigurationError("the convergence benchmark is one-dimensional")
    if cfg["cfl"]["mode"] != "practical":
        raise ConfigurationError("the convergence benchmark uses the practical step rule")
    hs = [float(h) for h in cfg["levels"]]
    if len(set(hs)) < 3:
        raise ConfigurationError("need at least 3 distinct mesh sizes in 'levels'")
    rows = convergence_study(
        cfg["p"],
        hs,
        T=cfg["T"],
        half_width=cfg["half_width"],
        t_shift=cfg["data"]["t_shift"],
        c_practical=cfg["cfl"]["c"],
    )
    csv_path = os.path.join(cfg["output_dir"], "errors.csv")
    _write_table(
        csv_path,
        "h,r,tau,sup_error,runtime_seconds",
        [[row.h, row.r, row.tau, row.sup_error, row.runtime_seconds] for row in rows],
    )
    dat_path = os.path.join(cfg["output_dir"], "convergence_loglog.dat")
    _write_table(
        dat_path,
        "# log10(h) log10(sup_error)",
        [[math.log10(row.h), math.log10(row.sup_error)] for row in rows],
        delimiter=" ",
        newline="\n",
    )
    order = observed_order(rows)
    for row in rows:
        print(f"h = {row.h:<10.6g} sup_error = {row.sup_error:.6e} ({row.runtime_seconds:.2f} s)")
    print(f"observed order: {order:.4f}")
    print(f"wrote {csv_path} and {dat_path}")
    return 0


def cmd_consistency(cfg: dict) -> int:
    """Discrete operator against the exact p-Laplacian of |x|^2."""
    r_levels = cfg["r_levels"]
    if r_levels is None:  # in d = 3 each halving of r costs 16-20x
        r_levels = [0.4, 0.2, 0.1, 0.05] if cfg["d"] <= 2 else [0.8, 0.6, 0.4]
    rows = consistency_table(
        cfg["p"],
        cfg["d"],
        [float(r) for r in r_levels],
        window=cfg["window"],
        coupling_c=cfg["coupling_c"],
    )
    print(f"{'r':>12} {'h':>12} {'offsets':>8} {'max_error':>14} {'off_origin':>14}")
    for row in rows:
        print(
            f"{row.r:>12.6g} {row.h:>12.6g} {row.stencil_size:>8d} "
            f"{row.max_error:>14.6e} {row.max_error_off_origin:>14.6e}"
        )
    return 0


def cmd_properties(cfg: dict) -> int:
    """Randomized structural checks of the scheme, as a JSON report."""
    _require_dir(cfg["output_dir"])
    data = _build_data(cfg)
    config = _plan(cfg, data)
    report = run_property_suite(config, data, samples=cfg["samples"], seed=cfg["seed"])
    path = os.path.join(cfg["output_dir"], "properties.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    for res in report.results:
        line = f"{res.name}: {'PASS' if res.passed else 'FAIL'}"
        line += f" (checked {res.checked}, worst margin {res.worst_margin:.3e})"
        if res.detail:
            line += f" [{res.detail}]"
        print(line)
    print(f"wrote {path}")
    if not report.passed:
        print("property violations detected", file=sys.stderr)
        return 5
    return 0


def cmd_constants(cfg: dict) -> int:
    """Mollifier constants M, K1, K2 against their reference bounds."""
    print(f"{'d':>2} {'M':>12} {'K1':>12} {'K2':>12} {'quad_error':>12}  reference bounds")
    for d, (bm, b1, b2) in REFERENCE_BOUNDS.items():
        mc = mollifier_constants(d)
        print(
            f"{d:>2} {mc.M:>12.6f} {mc.K1:>12.6f} {mc.K2:>12.6f} {mc.quad_error:>12.3e}"
            f"  M <= {bm}, K1 <= {b1}, K2 <= {b2}"
        )
    return 0


_COMMANDS = {
    "solve": (cmd_solve, None),
    "convergence": (cmd_convergence, None),
    "consistency": (cmd_consistency, None),
    "properties": (
        cmd_properties,
        {"h": 0.1, "T": 0.25, "cfl": {"mode": "theoretical"}},
    ),
    "constants": (cmd_constants, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapfd",
        description="Explicit finite differences for the parabolic p-Laplace equation.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (fn, _extra) in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__, allow_abbrev=False)
        sp.add_argument("--config", default=None, help="JSON configuration file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    args.overrides = extra
    fn, extra_defaults = _COMMANDS[args.command]
    try:
        cfg = _resolve(args, extra_defaults)
        return fn(cfg)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
