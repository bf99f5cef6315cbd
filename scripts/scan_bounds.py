"""Sweep the closed-form extent bound against the optimizer.

For each canonical lens quotient in an order range this prints the
upper bound, a seeded lower bound, and the gap.  The gap is expected
to be nonnegative (the optimizer never certifies more than the bound)
and never to grow as the restart budget grows, since adding restarts
leaves the ones already run unchanged.  A bad range or budget exits
with status 2 and the error message.

    python3 scripts/scan_bounds.py --n-min 5 --n-max 40 --out gaps.csv
"""

import argparse
import csv
import sys

from isom4.errors import BudgetError, InvalidInputError
from isom4.sphere import (
    EXTENT_Q,
    EXTENT_THRESHOLD,
    LOWER_BOUND_SLACK,
    ExtentConfig,
    LensParams,
    extent_lower_bound,
    scan_extent,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-min", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=30)
    ap.add_argument("--q", type=int, default=EXTENT_Q)
    ap.add_argument("--restarts", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    rows = []
    try:
        cfg = ExtentConfig(q=args.q, restarts=args.restarts, seed=args.seed)
        # the optimizer's budget grows with n, so a range may pass it midway
        for entry in scan_extent(args.n_min, args.n_max, args.q, EXTENT_THRESHOLD):
            report = extent_lower_bound(LensParams(entry.n, entry.k, entry.l), cfg)
            gap = entry.upper_bound - report.lower_bound
            rows.append((entry.n, entry.k, entry.l, entry.upper_bound,
                         report.lower_bound, gap))
            print(f"n={entry.n:4d} (k,l)=({entry.k},{entry.l})  "
                  f"upper={entry.upper_bound:.9f}  "
                  f"lower={report.lower_bound:.9f}  gap={gap:.2e}")
    except (InvalidInputError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    gaps = [r[5] for r in rows]
    print(f"\n{len(rows)} quotients, max gap {max(gaps):.3e}, "
          f"median gap {sorted(gaps)[len(gaps) // 2]:.3e}")
    if min(gaps) < -LOWER_BOUND_SLACK:
        print("WARNING: lower bound exceeded upper bound", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "k", "l", "upper", "lower", "gap"])
            w.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())


# sanity anchor: extent_upper_bound(61, 5) should print
# 1.045585400859, just under pi/3 = 1.047197551197
