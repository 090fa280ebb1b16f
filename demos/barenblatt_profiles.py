#!/usr/bin/env python3
# Evolve a compactly supported self-similar bump with the explicit scheme and
# compare the numerical profile against the closed-form solution at a few
# output times.
#
# Usage:
#   python demos/barenblatt_profiles.py
#   python demos/barenblatt_profiles.py --p 4 --h 0.04 --plot profiles.png
#
# Dependencies: numpy (matplotlib only if --plot is given)
#
# Notes:
# - The exact solution starts from a time-shifted profile so the initial data
#   is Lipschitz; the free boundary then spreads like (t + shift)^beta.
# - The practical step-size rule is used. The printed max deviation at each
#   output time should shrink roughly like the convergence tables when h
#   is refined.
import argparse
import sys

import numpy as np

from plapfd import (
    barenblatt_data,
    barenblatt_eval,
    barenblatt_solution,
    iter_levels,
    plan_config,
)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=float, default=3.0)
    ap.add_argument("--h", type=float, default=0.05)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--half-width", type=float, default=2.0)
    ap.add_argument("--snapshots", type=int, default=4)
    ap.add_argument("--plot", metavar="PNG", default=None)
    args = ap.parse_args(argv)

    sol = barenblatt_solution(1, args.p, t_shift=1.0)
    data = barenblatt_data(args.p, args.T, d=1, t_shift=1.0)
    cfg = plan_config(args.p, 1, args.T, args.half_width, data, h=args.h)
    print(f"p={args.p:g}  h={cfg.h:g}  r={cfg.r:g}  tau={cfg.tau:.3e}  steps={cfg.N}")

    want = np.linspace(0.0, args.T, args.snapshots)
    idx = sorted({cfg.nearest_level(t) for t in want})
    keep = {}
    for j, level in enumerate(iter_levels(cfg, data)):
        if j in idx:
            keep[j] = level
    xs = keep[idx[0]].axis()

    print(f"{'t':>8} {'support':>9} {'peak num':>10} {'peak exact':>11} {'max |dev|':>10}")
    curves = []
    for j in idx:
        t = float(cfg.times(j))
        exact = barenblatt_eval(sol, xs, t)
        num = keep[j].values
        dev = float(np.max(np.abs(num - exact)))
        support = (t + sol.t_shift) ** sol.beta
        print(f"{t:8.4f} {support:9.4f} {float(num.max()):10.6f}"
              f" {float(exact.max()):11.6f} {dev:10.3e}")
        curves.append((t, num, exact))

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed, skipping plot", file=sys.stderr)
            return 0
        fig, ax = plt.subplots()
        for t, num, exact in curves:
            (line,) = ax.plot(xs, num, label=f"t={t:.2f}")
            ax.plot(xs, exact, "--", color=line.get_color(), alpha=0.6)
        ax.set_xlabel("x")
        ax.set_ylabel("u")
        ax.legend(title="solid: scheme, dashed: exact")
        fig.savefig(args.plot, dpi=150, bbox_inches="tight")
        print(f"wrote {args.plot}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
