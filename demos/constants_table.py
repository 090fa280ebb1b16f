#!/usr/bin/env python3
"""Print the mollifier constants M, K1, K2 per dimension.

The constants are tabulated from an adaptive-quadrature run over the
smooth bump profile, which the test suite repeats bit for bit.
Each value is checked against its certified upper bound; the test suite
additionally pins them with closed-form identities (K1 = M/e in d=1, and
ratios of normalizations across dimensions).

Usage:
    python demos/constants_table.py [--d 1 2 3]
"""

import argparse
import sys

from plapfd import REFERENCE_BOUNDS, mollifier_constants


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, nargs="+", default=[1, 2, 3],
                    help="dimensions to tabulate")
    args = ap.parse_args(argv)

    print(f"{'d':>2} {'M':>12} {'K1':>12} {'K2':>12} {'quad err':>10}  bounds")
    for d in args.d:
        c = mollifier_constants(d)
        mb, k1b, k2b = REFERENCE_BOUNDS[d]
        ok = c.M <= mb and c.K1 <= k1b and c.K2 <= k2b
        print(f"{d:2d} {c.M:12.6f} {c.K1:12.6f} {c.K2:12.6f} {c.quad_error:10.2e}"
              f"  M<={mb} K1<={k1b} K2<={k2b} [{'ok' if ok else 'VIOLATED'}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
