import importlib.util
from pathlib import Path

import pytest

from isom4 import sphere, verify

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def scan_bounds():
    return _load("scan_bounds")


@pytest.fixture(scope="module")
def peak_memory():
    return _load("peak_memory")


@pytest.fixture(scope="module")
def report_fingerprint():
    return _load("report_fingerprint")


@pytest.mark.parametrize("argv,message", [
    (["--n-min", "2"], "scan starts at deck order 3"),
    (["--n-min", "5", "--n-max", "4"], "empty scan range"),
    (["--q", "1"], "tuple size q must be at least 2"),
    # 8 restarts x q = 5 x n = 30000 passes the optimizer's 2^20 at the first quotient
    (["--n-min", "30000", "--n-max", "30001"],
     "restarts x q x deck order = 1200000 exceeds the budget 1048576"),
], ids=["below-3", "empty", "q-1", "past-orbit-budget"])
def test_scan_bounds_refuses_bad_input(scan_bounds, capsys, argv, message):
    assert scan_bounds.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scan_bounds_small_range(scan_bounds, capsys):
    assert scan_bounds.main(["--n-min", "5", "--n-max", "6", "--restarts", "1"]) == 0
    assert "4 quotients" in capsys.readouterr().out


def test_scan_bounds_warns_when_a_lower_bound_passes_the_upper(scan_bounds, monkeypatch, capsys):
    monkeypatch.setattr(sphere, "extent_upper_bound", lambda n, q: 0.5)
    assert scan_bounds.main(["--n-min", "5", "--n-max", "5", "--restarts", "1"]) == 1
    assert capsys.readouterr().err == "WARNING: lower bound exceeded upper bound\n"


def test_peak_memory_refuses_bad_seed(peak_memory, capsys):
    assert peak_memory.main(["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must fit in 64 unsigned bits\n"


def test_peak_memory_reports_each_check(peak_memory, monkeypatch, capsys):
    # two checks of the suite keep the smoke test short
    suite = peak_memory._SUITE[:2]
    monkeypatch.setattr(peak_memory, "_SUITE", suite)
    assert peak_memory.main(["--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for check_id, _, _ in suite:
        row = next(line.split() for line in lines if line.split()[:1] == [check_id])
        assert row[1] == "PASS" and float(row[2]) >= 0.0 and float(row[3]) > 0.0
    assert lines[-1].startswith("largest transient ")


def test_report_fingerprint_refuses_bad_seed(report_fingerprint, capsys):
    assert report_fingerprint.main(["--seeds", "0", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: seed must fit in 64 unsigned bits\n")


def test_report_fingerprint_leaves_out_run_times(report_fingerprint, monkeypatch, capsys):
    # two checks of the suite keep the smoke test short
    monkeypatch.setattr(verify, "_SUITE", verify._SUITE[:2])
    assert report_fingerprint.main(["--seeds", "1", "2"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [["seed", "1"], ["seed", "2"]]
    report = verify.verify_all(verify.VerifyConfig(seed=1))
    assert report_fingerprint.fingerprint(report) == lines[0][2]
    for check in report["checks"]:
        check["runtime_ms"] += 1000
    assert report_fingerprint.fingerprint(report) == lines[0][2]
    report["checks"][0]["actual"] += " "
    assert report_fingerprint.fingerprint(report) != lines[0][2]
