"""Write reference.json: the frozen outputs the benchmark checks against.

  python3 perfbench/freeze_reference.py

Run it only at a commit whose outputs are known good; the file it
writes is what `fail_ratio` compares later commits with.  It records
``verify_statuses``, the id -> status map of every ``verify_all``
check at the VerifyConfig seed the workloads replay.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from isom4 import VerifyConfig, verify_all
    from workloads import VERIFY_CONFIG_SEED

    report = verify_all(VerifyConfig(seed=VERIFY_CONFIG_SEED))
    reference = {"verify_statuses": {c["id"]: c["status"] for c in report["checks"]}}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
