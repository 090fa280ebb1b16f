"""The four benchmark workloads.

Each workload has a set-up (the work ``setup_s`` times), a unit (one
timed call into plapfd's public entry point) and the outputs the gate
compares bit for bit with ``digests.json``. The seed never changes a
number the solver sees: it orders independent solves and snapshot
requests, and seeds the property suite's sampler. So the recorded
digests hold for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil

import numpy as np

from plapfd import analysis, cli, exact, mollifier, operators, stepping
from tracing import patch_everywhere, unpatch

# the lru-cached function itself; wrappers installed later hide cache_clear
_MOLLIFIER_CONSTANTS = mollifier.mollifier_constants


def clear_mollifier_cache() -> None:
    _MOLLIFIER_CONSTANTS.cache_clear()


def sha256_of(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def nodes_of(config) -> int:
    return (2 * operators.grid_radius(config.h, config.half_width) + 1) ** config.d


class Capture:
    """Pass-through wrappers that keep what the gate needs: the config and
    last level of every ``iter_levels`` call, and optionally every
    Trajectory that ``solve`` returns."""

    def __init__(self, trajectories: bool):
        self.levels: list = []
        self.trajectories: list = []
        iter_levels = stepping.iter_levels
        solve = stepping.solve

        def capture_levels(config, data):
            rec = [config, None]
            self.levels.append(rec)
            for lvl in iter_levels(config, data):
                rec[1] = lvl
                yield lvl

        def capture_solve(config, data):
            traj = solve(config, data)
            self.trajectories.append(traj)
            return traj

        self._undo = patch_everywhere(iter_levels, capture_levels)
        if trajectories:
            self._undo += patch_everywhere(solve, capture_solve)

    def reset(self) -> None:
        self.levels = []
        self.trajectories = []

    def node_updates(self) -> int:
        """Sum of N * nodes over the solves of one unit."""
        return sum(cfg.N * nodes_of(cfg) for cfg, _ in self.levels)

    def close(self) -> None:
        unpatch(self._undo)


class Workload:
    name = ""
    keeps_trajectories = False
    sizes: dict = {}

    def __init__(self, size: str, seed: int, scratch: str):
        self.size = size
        self.seed = seed
        self.scratch = scratch
        self.opts = self.sizes[size]

    def setup(self) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def outputs(self, result, capture: Capture) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Conv1d(Workload):
    """analysis.convergence_study at p in {3, 4}: many cheap 1D steps."""

    name = "conv1d"
    sizes = {
        "full": {"ps": (3.0, 4.0), "hs": (0.04, 0.02, 0.01), "T": 0.1},
        "tiny": {"ps": (3.0, 4.0), "hs": (0.04, 0.02, 0.01), "T": 0.005},
    }

    def setup(self):
        o = self.opts
        mollifier.mollifier_constants(1)
        for p in o["ps"]:
            data = exact.barenblatt_data(p, horizon=o["T"])
            for h in o["hs"]:
                cfg = stepping.plan_config(p, 1, o["T"], 2.0, data, h=h, c_practical=0.2)
                stepping.stencil_for(cfg)
        rng = random.Random(self.seed)
        self.order = [(p, rng.sample(o["hs"], len(o["hs"]))) for p in rng.sample(o["ps"], len(o["ps"]))]

    def run(self):
        T = self.opts["T"]
        return [
            (p, analysis.convergence_study(p, hs, T=T, half_width=2.0, c_practical=0.2))
            for p, hs in self.order
        ]

    def outputs(self, result, capture):
        out = {}
        for p, rows in result:
            for row in rows:
                out[f"p={p:g} h={row.h:g} sup_error"] = repr(row.sup_error)
        for cfg, last in capture.levels:
            out[f"p={cfg.p:g} h={cfg.h:g} final_sha256"] = sha256_of(last.values)
        out["sup_error"] = repr(max(row.sup_error for _, rows in result for row in rows))
        return out


def barenblatt_2d(p, horizon, t_shift=1.0):
    """2D Barenblatt data built here, since barenblatt_data is d = 1 only.

    ``L_u0`` uses the profile bound ``K p / (p - 2)`` (radial, so valid in
    every d); it is a certificate only, which the practical step rule does
    not read.
    """
    sol = exact.barenblatt_solution(2, p, t_shift)

    def u0(x, y):
        return exact.barenblatt_eval(sol, np.stack([x, y], axis=-1), 0.0)

    def f(x, y):
        return np.zeros_like(x)

    data = stepping.HolderData(
        u0=u0,
        f=f,
        a=1.0,
        L_u0=sol.K * p / (p - 2.0) * t_shift ** (-(sol.alpha + sol.beta)),
        L_f=0.0,
        sup_u0=sol.K * t_shift ** (-sol.alpha),
        sup_f=0.0,
        support_radius=sol.support_radius(horizon),
    )
    return sol, data


class Ball2d(Workload):
    """2D Barenblatt on the ball stencil: few, very expensive steps."""

    name = "ball2d"
    sizes = {
        "full": {"r": 0.3, "coupling_c": 0.1, "half_width": 1.44, "T": 0.1},
        "tiny": {"r": 0.3, "coupling_c": 0.3, "half_width": 1.44, "T": 0.05},
    }

    def setup(self):
        o = self.opts
        mollifier.mollifier_constants(2)
        self.sol, self.data = barenblatt_2d(3.0, o["T"])
        self.config = stepping.plan_config(
            3.0, 2, o["T"], o["half_width"], self.data, r=o["r"], coupling_c=o["coupling_c"]
        )
        stepping.stencil_for(self.config)

    def run(self):
        return analysis.barenblatt_error_row(self.config, self.data, self.sol)

    def outputs(self, result, capture):
        (_, last), = capture.levels
        return {"sup_error": repr(result.sup_error), "final_sha256": sha256_of(last.values)}


class PropsTheory(Workload):
    """run_property_suite in theoretical mode: long N, every level stored."""

    name = "props_theory"
    keeps_trajectories = True
    sizes = {
        "full": {"h": 0.05, "T": 0.1, "samples": 1000},
        "tiny": {"h": 0.1, "T": 0.05, "samples": 200},
    }

    def setup(self):
        o = self.opts
        mollifier.mollifier_constants(1)
        self.data = exact.barenblatt_data(4.0, horizon=o["T"])
        self.config = stepping.plan_config(
            4.0, 1, o["T"], 2.0, self.data, h=o["h"], cfl_mode="theoretical"
        )
        stepping.stencil_for(self.config)
        self.sol = exact.barenblatt_solution(1, 4.0)
        self._sup_error = {}

    def run(self):
        return analysis.run_property_suite(
            self.config, self.data, samples=self.opts["samples"], seed=self.seed
        )

    def outputs(self, report, capture):
        out = {"passed": repr(report.passed)}
        for res in report.results:
            # these two checks read every level, so they do not depend on the seed
            if res.name in ("stability", "continuous_dependence"):
                out[f"{res.name} worst_margin"] = repr(res.worst_margin)
                out[f"{res.name} checked"] = repr(res.checked)
        for k, traj in enumerate(capture.trajectories):
            digest = hashlib.sha256()
            for lvl in traj.levels:
                digest.update(lvl.values.tobytes())
            out[f"solve{k} trajectory_sha256"] = digest.hexdigest()
            out[f"solve{k} final_sha256"] = sha256_of(traj.levels[-1].values)
        # identical bytes give an identical error, so compute it once per run
        key = out.get("solve0 trajectory_sha256")
        if key not in self._sup_error:
            self._sup_error[key] = analysis.sup_error(capture.trajectories[0], self.sol)
        out["sup_error"] = repr(self._sup_error[key])
        return out


class CliSnapshots(Workload):
    """In-process ``plapfd solve`` with clamped extension and many snapshots."""

    name = "cli_snapshots"
    sizes = {
        "full": {"h": 0.01, "T": 0.25, "snapshots": 250},
        "tiny": {"h": 0.04, "T": 0.05, "snapshots": 20},
    }

    def setup(self):
        o = self.opts
        mollifier.mollifier_constants(1)
        data = exact.barenblatt_data(4.0, horizon=o["T"])
        config = stepping.plan_config(4.0, 1, o["T"], 2.0, data, h=o["h"], extension="boundary")
        stepping.stencil_for(config)
        count = o["snapshots"]
        levels = sorted({round(k * config.N / (count - 1)) for k in range(count)})
        times = [j * config.tau for j in levels]
        random.Random(self.seed).shuffle(times)
        self.out_dir = os.path.join(self.scratch, "snapshots")
        self.argv = [
            "solve",
            f"--output_dir={self.out_dir}",
            "--p=4",
            f"--h={o['h']!r}",
            f"--T={o['T']!r}",
            "--extension=boundary",
            "--snapshot_times=" + json.dumps(times),
        ]
        self.sol = exact.barenblatt_solution(1, 4.0)
        self._sup_error = {}

    def run(self):
        os.makedirs(self.out_dir, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def outputs(self, code, capture):
        out = {"exit_code": repr(code)}
        with open(os.path.join(self.out_dir, "metadata.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        out["metadata_derived_sha256"] = hashlib.sha256(
            json.dumps(meta["derived"], sort_keys=True).encode()
        ).hexdigest()
        snaps = sorted(meta["outputs"]["snapshots"], key=lambda s: s["level"])
        listing = hashlib.sha256()
        for snap in snaps:
            with open(os.path.join(self.out_dir, snap["file"]), "rb") as fh:
                listing.update(f"{snap['level']} {hashlib.sha256(fh.read()).hexdigest()}\n".encode())
        out["snapshot_count"] = repr(len(snaps))
        out["snapshots_sha256"] = listing.hexdigest()
        (_, last), = capture.levels
        out["final_sha256"] = sha256_of(last.values)
        key = out["snapshots_sha256"]
        if key not in self._sup_error:
            self._sup_error[key] = self._snapshot_error(snaps)
        out["sup_error"] = repr(self._sup_error[key])
        # untimed: the next unit starts from an empty directory
        shutil.rmtree(self.out_dir)
        return out

    def _snapshot_error(self, snaps) -> float:
        """Largest nodal error of the written CSVs against the exact profile."""
        worst = 0.0
        for snap in snaps:
            table = np.loadtxt(os.path.join(self.out_dir, snap["file"]), delimiter=",", skiprows=1)
            exact_u = exact.barenblatt_eval(self.sol, table[:, 0], snap["t"])
            worst = max(worst, float(np.max(np.abs(table[:, 1] - exact_u))))
        return worst

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Conv1d, Ball2d, PropsTheory, CliSnapshots)}


def probe_cli(scratch: str) -> None:
    """One config resolution and one 401-node snapshot write through cli."""
    ns, extra = cli._build_parser().parse_known_args(["solve", "--p=4", "--h=0.01", "--T=0.5"])
    ns.overrides = extra
    cli._resolve(ns)
    data = exact.barenblatt_data(4.0, horizon=0.5)
    field = operators.sample_on_grid(data.u0, 1, 0.01, 2.0)
    cli._write_snapshot(os.path.join(scratch, "probe_snapshot.csv"), field)


def probe_analysis(seed: int) -> None:
    """A small theoretical-mode property suite (p = 4, h = 0.1, T = 0.05)."""
    data = exact.barenblatt_data(4.0, horizon=0.05)
    config = stepping.plan_config(4.0, 1, 0.05, 2.0, data, h=0.1, cfl_mode="theoretical")
    analysis.run_property_suite(config, data, samples=200, seed=seed)


def probe_stencil_3d() -> None:
    """The d = 3 ball stencil at r = 0.1: 132,306 offsets, built but never applied."""
    operators.stencil_ball(0.1, operators.couple_h_to_r(0.1, 3.0, 3), 3.0, 3)
