import ast
import copy
import dataclasses
import os
import subprocess
import sys

import pytest

import isom4

from isom4 import cohomology, fixedpoints, verify
from isom4.cache import ResultCache
from isom4.errors import InvalidInputError
from isom4.groups import alternating, binary_tetrahedral, cyclic, klein_by_cyclic3
from isom4.sphere import EXTENT_THRESHOLD
from isom4.verify import (
    _SUITE,
    REPORT_VERSION,
    STATUSES,
    CheckRecord,
    VerifyConfig,
    _check_extent_scan,
    exit_code,
    h2_record,
)

# the suite's checks by id: checks of one shape are one function bound
# to their case data
CHECKS = {check_id: check for check_id, check, _ in _SUITE}
_check_extension_binary_covers = CHECKS["extension-binary-covers"]
_check_extension_dicyclic_m2 = CHECKS["extension-dicyclic-m2"]
_check_fixedpoint_sphere_batch = CHECKS["fixedpoint-sphere-batch"]
_check_fixedpoint_plane_batch = CHECKS["fixedpoint-plane-batch"]

EXPECTED_NON_PASS = {
    "h2-octahedral-discrepancy": "DISCREPANCY",
    "extension-klein-exponent": "DISCREPANCY",
    "extension-dicyclic-m4": "DISCREPANCY",
    "embed-two-group-unsupported": "UNSUPPORTED",
}


def test_report_schema(report_and_rerun):
    report, _ = report_and_rerun
    assert set(report) == {"version", "seed", "checks", "legend"}
    assert report["version"] == REPORT_VERSION
    assert report["seed"] == 0
    for check in report["checks"]:
        assert set(check) == {"id", "status", "expected", "actual", "runtime_ms"}
        assert check["status"] in STATUSES
        assert check["expected"]
        assert check["actual"]
        assert isinstance(check["runtime_ms"], int)


def test_at_least_25_distinct_checks(report_and_rerun):
    report, _ = report_and_rerun
    ids = [c["id"] for c in report["checks"]]
    assert len(ids) >= 25
    assert len(set(ids)) == len(ids)


def test_legend_covers_every_check(report_and_rerun):
    report, _ = report_and_rerun
    ids = {c["id"] for c in report["checks"]}
    assert set(report["legend"]) == ids
    assert all(isinstance(v, str) and v for v in report["legend"].values())


def test_expected_statuses(report_and_rerun):
    report, _ = report_and_rerun
    for check in report["checks"]:
        want = EXPECTED_NON_PASS.get(check["id"], "PASS")
        assert check["status"] == want, (check["id"], check["actual"])


def test_exit_code_zero_without_failures(report_and_rerun):
    report, _ = report_and_rerun
    assert exit_code(report) == 0
    broken = copy.deepcopy(report)
    broken["checks"][0]["status"] = "FAIL"
    assert exit_code(broken) == 1


def test_warm_rerun_identical_modulo_runtime(report_and_rerun):
    cold, warm = report_and_rerun

    def strip(rep):
        out = copy.deepcopy(rep)
        for check in out["checks"]:
            check.pop("runtime_ms")
        return out

    assert strip(cold) == strip(warm)


def test_scan_check_fails_below_sharp_threshold(monkeypatch):
    # deck order 60 holds the 36 canonical quotients whose bound reaches pi/3
    monkeypatch.setattr(verify, "EXTENT_SHARP_N", 60)
    status, _, actual = _check_extent_scan(VerifyConfig())
    assert status == "FAIL"
    assert "60" in actual


def test_sharp_threshold_fails_naming_its_deck_order(monkeypatch):
    # a bound of exactly pi/3 is at least pi/3 at 60 but not below it at 61
    monkeypatch.setattr(verify, "extent_upper_bound", lambda params, q: EXTENT_THRESHOLD)
    assert CHECKS["extent-sharp-at-60"](VerifyConfig()) == (
        "PASS", "upper bound at deck order 60 >= pi/3 = 1.0471975512", "1.0471975512")
    assert CHECKS["extent-sharp-at-61"](VerifyConfig()) == (
        "FAIL", "upper bound at deck order 61 < pi/3 = 1.0471975512", "1.0471975512")


@pytest.mark.parametrize("check_id,order,actual", [
    ("embed-abelian-sample", 30, "not faithful: Z2 x Z15, Z6 x Z5"),
    ("embed-central-products", 96, "not faithful: octa m=4"),
    ("embed-klein-family", 60, "not faithful: (r,m+)=(1,5)"),
    ("embed-quaternion-u2", 72, "not faithful: Q8 by Z9"),
    ("embed-dihedral-mixed", 12, "not faithful: dicyclic12"),
])
def test_embedding_sweep_fails_naming_its_case(monkeypatch, check_id, order, actual):
    # the reps of one order are declared unfaithful; the record names
    # those rows only (seed 0 draws two abelian groups of order 30)
    monkeypatch.setattr(verify, "is_faithful_rep", lambda rep: rep.group.size != order)
    status, _, got = CHECKS[check_id](VerifyConfig())
    assert (status, got) == ("FAIL", actual)


def test_extension_models_fail_naming_their_rows(monkeypatch):
    # the cyclic group of order 4k in place of the dicyclic cover, and
    # the binary tetrahedral group in place of the binary icosahedral one
    monkeypatch.setattr(verify, "binary_dihedral", cyclic)
    monkeypatch.setattr(verify, "binary_icosahedral", binary_tetrahedral)
    assert CHECKS["extension-dicyclic-m2"](VerifyConfig()) == (
        "FAIL", "nontrivial extension of the dihedral group of order 2k by Z_2 is "
        "the dicyclic group of order 4k, k in {3, 5}", "mismatch at k=3, k=5")
    status, _, actual = CHECKS["extension-binary-covers"](VerifyConfig())
    assert (status, actual) == ("FAIL", "mismatch at icosa m=2, icosa m=4")


def test_printed_model_checks_fail_naming_their_parameters(monkeypatch):
    # printed model shifted to the realized exponent: the printed model holds
    monkeypatch.setattr(verify, "klein_by_cyclic3", lambda r: klein_by_cyclic3(r + 1))
    assert CHECKS["extension-klein-exponent"](VerifyConfig()) == (
        "FAIL", "printed model False and corrected model True at r=1",
        "printed=True, corrected=False")
    # no unique extension: neither model holds
    monkeypatch.setattr(verify, "unique_nontrivial_extension", lambda group, m: None)
    assert CHECKS["extension-dicyclic-m4"](VerifyConfig()) == (
        "FAIL", "printed model False and corrected model True at m=4, k=3",
        "printed=False, corrected=False")


def test_lefschetz_batch_fails_naming_its_draw(monkeypatch):
    # draw 7 reported with a 2-dimensional fixed space: a circle, chi 0
    unit = fixedpoints._unit_multiplicity

    def one_circle(eigvals):
        keys = unit(eigvals).copy()
        keys[7] = 2
        return keys

    monkeypatch.setattr(fixedpoints, "_unit_multiplicity", one_circle)
    assert _check_fixedpoint_sphere_batch(VerifyConfig()) == (
        "FAIL", "chi(Fix) = 2 = Lefschetz number for 1000 random rotations of the 4-sphere",
        "999/1000 pass; first failing draw 7")


def test_fixedpoint_checks_take_the_largest_seed():
    # the batches take 64-bit seeds, so the check's seed offset wraps
    cfg = VerifyConfig(seed=2**64 - 1)
    for check in (_check_fixedpoint_sphere_batch, _check_fixedpoint_plane_batch):
        status, _, actual = check(cfg)
        assert (status, actual) == ("PASS", "1000/1000 pass")


def test_check_record_validation():
    with pytest.raises(InvalidInputError):
        CheckRecord("x", "MAYBE", "a", "b", 0)
    with pytest.raises(InvalidInputError):
        CheckRecord("x", "PASS", "a", "b", -1)


def test_config_holds_only_seed_and_cache():
    # every suite size is a constant the report states; the checks read
    # nothing else off the config
    assert [f.name for f in dataclasses.fields(VerifyConfig)] == ["seed", "cache"]
    with open(verify.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    assert read == {"seed", "cache"}


def test_config_validation():
    for seed in (-1, 2**64):
        with pytest.raises(InvalidInputError):
            VerifyConfig(seed=seed)


def test_cache_holds_only_h2(tmp_path):
    # the scan and the dicyclic comparisons cost milliseconds and are
    # recomputed; an H^2 entry is the CohomologyResult JSON, and both
    # its key and its record name the universal-coefficient route
    cfg = VerifyConfig(cache=ResultCache(tmp_path))
    assert _check_extent_scan(cfg)[0] == "PASS"
    assert _check_extension_dicyclic_m2(cfg)[0] == "PASS"
    assert not list(tmp_path.iterdir())
    record = h2_record(alternating(4), 6, cfg.cache)
    assert record == {"invariant_factors": [6], "order": 6, "route": "uct"}
    assert [p.name[:7] for p in tmp_path.iterdir()] == ["h2-uct-"]
    assert h2_record(alternating(4), 6, cfg.cache) == record


def test_binary_covers_build_a5_once_and_only_on_a_miss(tmp_path, monkeypatch):
    # both moduli classify one A5 object, so its Sylow 2-subgroup V4 and
    # A5 itself are each solved once; a warm call builds and solves nothing
    built, solved = [], []
    monkeypatch.setattr(verify, "alternating", lambda n: built.append(n) or alternating(n))
    system = cohomology._cocycle_system
    monkeypatch.setattr(cohomology, "_cocycle_system",
                        lambda group: solved.append(group.size) or system(group))
    cfg = VerifyConfig(cache=ResultCache(tmp_path))
    for want_built, want_solved in (([5], [4, 60]), ([], [])):
        assert _check_extension_binary_covers(cfg)[0] == "PASS"
        assert (built, solved) == (want_built, want_solved)
        built.clear()
        solved.clear()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ext-double-cover-icosa-m2.json", "ext-double-cover-icosa-m4.json"]


def test_verify_run_never_imports_numpy_ma():
    # np.unique reads np.ma.is_masked, so one call would import numpy.ma
    # (about 13 ms) in a fresh process; element sets are masks instead
    code = ("import sys\n"
            "from isom4.verify import VerifyConfig, verify_all\n"
            "verify_all(VerifyConfig(seed=1))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(isom4.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert out.stdout.strip() == "False"
