#!/usr/bin/env python3
"""Run the randomized invariant checks on one solver configuration.

Five families of inequalities are sampled: sup-norm preservation of the
modulus certificate, the stability bound, continuous dependence on the
data, time equicontinuity of the levels, and equicontinuity of the
interpolant. The report is printed as JSON so it can be diffed across
runs; the default seed makes it reproducible.

Usage:
    python demos/property_report.py
    python demos/property_report.py --p 4 --samples 500 --json report.json
"""

import argparse
import sys

from plapfd import barenblatt_data, plan_config, run_property_suite


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=3.0)
    ap.add_argument("--h", type=float, default=0.1)
    ap.add_argument("--T", type=float, default=0.5)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=20260817)
    ap.add_argument("--json", metavar="FILE", default=None,
                    help="also dump the report to a file")
    args = ap.parse_args(argv)

    data = barenblatt_data(args.p, args.T, d=1)
    cfg = plan_config(args.p, 1, args.T, 2.0, data, h=args.h,
                      cfl_mode="theoretical")
    report = run_property_suite(cfg, data, samples=args.samples, seed=args.seed)

    for res in report.results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark}  {res.name:28s} checked={res.checked:6d}"
              f"  worst margin={res.worst_margin:+.3e}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}"
          f"  (samples={report.samples}, seed={report.seed})")

    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote {args.json}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
