"""Peak memory of each verify-all check.

Runs the checks of ``isom4 verify-all`` one by one, in suite order, and
prints for each its transient: the tracemalloc peak during the check
above what was allocated when it started, which counts numpy buffers as
well as Python objects.  Next to it stands the process RSS high-water
mark (``ru_maxrss``) after the check, so the check that raises it is
the one that sets the peak of a whole run.  A bad seed exits with
status 2 and the error message.

    python3 scripts/peak_memory.py --seed 1
"""

import argparse
import resource
import sys
import tracemalloc

from isom4.errors import InvalidInputError
from isom4.verify import _SUITE, VerifyConfig


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    try:
        cfg = VerifyConfig(seed=args.seed)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'check':>30} {'status':>11} {'transient MB':>13} {'rss peak MB':>12}")
    transients = []
    tracemalloc.start()
    try:
        for check_id, fn, _ in _SUITE:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            status = fn(cfg)[0]
            transient = tracemalloc.get_traced_memory()[1] - base
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            transients.append((transient, check_id))
            print(f"{check_id:>30} {status:>11} {transient / 2**20:>13.2f} {rss:>12.2f}")
    finally:
        tracemalloc.stop()
    transient, check_id = max(transients)
    print(f"\nlargest transient {transient / 2**20:.2f} MB in {check_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
