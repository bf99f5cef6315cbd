"""Self-test of the benchmark's own checks.

  python3 perfbench/selftest.py

* A corrupted reference must be counted as failures, never passed:
  the frozen status map is corrupted in several ways and the failures
  are counted.
* The tracer must open spans across layers, account for the traced
  time, and leave no wrapper bound after ``uninstall()``.
* A measured process that times out or exits with an error must count
  every operation of its iteration as failed.
* BENCHMARK.json must name exactly the metrics run.py prints.

Exits 0 when every assertion holds.  Takes a few seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LayerTracer  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def failures(outcomes) -> int:
    return sum(not o.ok for o in outcomes)


def test_verify_reference(reference):
    frozen = reference["verify_statuses"]
    expect(len(frozen) == 32 and sorted(frozen.values()).count("PASS") == 28,
           "frozen verify map has 32 checks, 28 PASS")
    report = {"checks": [{"id": k, "status": v, "runtime_ms": 1} for k, v in frozen.items()]}
    expect(failures(workloads.check_verify_report(report, frozen)) == 0,
           "the frozen statuses pass against themselves")
    corrupt = dict(frozen)
    first = next(iter(corrupt))
    corrupt[first] = "FAIL"
    expect(failures(workloads.check_verify_report(report, corrupt)) == 1,
           "one flipped status counts as one failure")
    fewer = dict(frozen)
    fewer.pop(first)
    expect(failures(workloads.check_verify_report(report, fewer)) == 1,
           "a check missing from the reference counts as a failure")
    expect(failures(workloads.check_verify_report({"error": "boom"}, frozen)) == 32,
           "a crashed verify_all fails every check")


def test_tracer():
    from isom4 import cohomology, groups, verify

    original = cohomology.second_cohomology
    tracer = LayerTracer()
    tracer.install()
    try:
        expect(cohomology.second_cohomology is not original
               and verify.second_cohomology is cohomology.second_cohomology,
               "install rebinds a function in its own and in importing modules")
        start = time.perf_counter()
        result = cohomology.second_cohomology(groups.dihedral(8), 2)
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    expect(result.invariant_factors == (2, 2, 2), "traced call returns the library result")
    expect(cohomology.second_cohomology is original and verify.second_cohomology is original
           and not tracer.leftover_wrappers(), "uninstall restores every binding")
    m = tracer.metrics(elapsed)
    expect(m["cohomology.calls"] >= 1 and m["snf.calls"] >= 1 and m["groups.construct.calls"] >= 1,
           "spans and counts reach cohomology, snf and groups")
    expect(m["snf.cells_in"] > 0 and m["groups.max_order"] == 8, "snf input cells and group order recorded")
    total = sum(m[f"{layer}.self_s"] for layer in run.LAYERS) + m["trace.outside_s"]
    expect(abs(total - elapsed) < 1e-6, "layer self times plus outside time equal the traced time")
    tracer.install()
    tracer.uninstall()
    expect(not tracer.leftover_wrappers(), "a second install/uninstall also leaves nothing bound")


def test_failed_worker(reference):
    state = ROOT / ".bench_build" / "perfbench"
    state.mkdir(parents=True, exist_ok=True)
    runner = run.Runner("verify-cold", state, reference)
    want = workloads.operation_count(reference)
    try:
        not_a_dir = runner.tmp / "not-a-directory"
        not_a_dir.write_text("")
        crashed = runner.child(not_a_dir)
        expect(crashed["attempted"] == crashed["failed"] == want,
               f"a worker that exits with an error fails all {want} operations")
        saved, run.CHILD_TIMEOUT_S = run.CHILD_TIMEOUT_S, 0.5
        try:
            late = runner.child(runner.fresh_dir())
        finally:
            run.CHILD_TIMEOUT_S = saved
        expect(late["attempted"] == late["failed"] == want and "timeout" in late["failures"][0],
               f"a worker that times out fails all {want} operations")
    finally:
        runner.close()


def test_benchmark_json(reference):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py")
    units = run.per_layer_units(reference["verify_statuses"])
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == units,
           "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def main() -> int:
    reference = workloads.load_reference()
    test_verify_reference(reference)
    test_tracer()
    test_benchmark_json(reference)
    test_failed_worker(reference)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
