"""The verify-all report, pinned to the byte.

``tests/data/verify_report_seed0.json`` holds the cold report of the
session fixture (seed 0, an empty cache) without its ``runtime_ms``
fields.  A change that alters the report rewrites the file with
``python tests/test_report_golden.py`` and says why.
"""

import json
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "verify_report_seed0.json"


def _pinned_text(report: dict) -> str:
    checks = [{k: v for k, v in c.items() if k != "runtime_ms"} for c in report["checks"]]
    return json.dumps({**report, "checks": checks}, indent=1, sort_keys=True) + "\n"


def test_report_matches_golden(report_and_rerun):
    cold, _ = report_and_rerun
    assert _pinned_text(cold) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    from isom4.cache import ResultCache
    from isom4.verify import VerifyConfig, verify_all

    with tempfile.TemporaryDirectory() as tmp:
        report = verify_all(VerifyConfig(cache=ResultCache(tmp)))
    GOLDEN.write_text(_pinned_text(report), encoding="utf-8")
    print(f"wrote {GOLDEN}")
