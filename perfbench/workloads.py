"""Inputs, operations and reference checks of the two workloads.

The inputs are made here; the library only sees them.  Both workloads
run ``verify_all`` on the fixed ``VERIFY_CONFIG_SEED``.  `build()` is
the set-up phase, `Plan.run()` is the timed phase, and `Plan.check()`
compares the outputs with the frozen reference in ``reference.json``
after the clock has stopped.

An operation, the unit `fail_ratio` counts, is one check of
``verify_all``.  It fails when its status differs from the frozen map of
id to status, when the id is missing or unknown, or when ``verify_all``
itself raised (then every check fails).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("verify-cold", "verify-warm")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# README.md, "The VerifyConfig seed": its h2-cyclic-rule draw includes
# (33, 24), on which snf spends about 5 s, so that cost is part of every
# iteration whatever --seed is.
VERIFY_CONFIG_SEED = 1


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def operation_count(reference: dict) -> int:
    """Operations one iteration attempts; all of them fail when the
    measured process does not finish."""
    return len(reference["verify_statuses"])


@dataclass
class Outcome:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class Plan:
    run: object  # () -> raw outputs, the timed phase
    check: object  # (raw outputs) -> list[Outcome]
    inputs: dict = field(default_factory=dict)


# The timed phase looks verify_all up on its module at call time, so
# the tracer's rebinding reaches the benchmark's own call too.

def build(cache_dir: Path, reference: dict) -> Plan:
    """The set-up phase: a VerifyConfig whose result cache is cache_dir."""
    from isom4 import verify
    from isom4.cache import ResultCache

    cfg = verify.VerifyConfig(seed=VERIFY_CONFIG_SEED, cache=ResultCache(cache_dir))
    frozen = reference["verify_statuses"]

    def run():
        try:
            return verify.verify_all(cfg)
        except Exception as exc:  # every check then counts as failed
            return {"error": repr(exc)}

    def check(report):
        return check_verify_report(report, frozen)

    return Plan(run, check, {"verify_config_seed": VERIFY_CONFIG_SEED})


def check_verify_report(report: dict, frozen: dict) -> list[Outcome]:
    if "checks" not in report:
        return [Outcome(cid, False, report.get("error", "no report"))
                for cid in frozen]
    got = {c["id"]: c["status"] for c in report["checks"]}
    out = [Outcome(cid, got.get(cid) == want,
                   f"status {got.get(cid)!r}, frozen {want!r}")
           for cid, want in frozen.items()]
    out.extend(Outcome(cid, False, "id not in the frozen reference")
               for cid in got if cid not in frozen)
    return out


def report_runtimes(report: dict) -> dict[str, float]:
    return {c["id"]: c["runtime_ms"] / 1000.0 for c in report.get("checks", ())}


def status_counts(report: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for c in report.get("checks", ()):
        counts[c["status"]] = counts.get(c["status"], 0) + 1
    return counts
