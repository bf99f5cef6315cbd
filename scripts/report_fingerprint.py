"""One sha256 per seed of the verify-all report, run times left out.

Each digest is taken over ``without_runtimes(verify_all(VerifyConfig(seed)))``,
serialized as JSON with sorted keys.
Two builds whose digests agree for a seed print the same report at that
seed: same ids, statuses, texts and numbers.  A bad seed exits with
status 2 and the error message.

    python3 scripts/report_fingerprint.py --seeds 0 1 2 3 4 5
"""

import argparse
import hashlib
import json
import sys

from isom4.errors import InvalidInputError
from isom4.verify import VerifyConfig, verify_all, without_runtimes


def fingerprint(report: dict) -> str:
    """sha256 of the report without its run times."""
    text = json.dumps(without_runtimes(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)

    try:
        configs = [VerifyConfig(seed=seed) for seed in args.seeds]
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for cfg in configs:
        print(f"seed {cfg.seed} {fingerprint(verify_all(cfg))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
