import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argv,message", [
    (["--n-min", "2"], "scan starts at deck order 3"),
    (["--n-min", "5", "--n-max", "4"], "empty scan range"),
    (["--q", "1"], "tuple size q must be at least 2"),
    (["--n-min", "3", "--n-max", "100000"],
     "scan of deck orders [3, 100000] exceeds 1500000 rows"),
], ids=["below-3", "empty", "q-1", "past-row-cap"])
def test_scan_bounds_refuses_bad_input(scan_bounds, capsys, argv, message):
    assert scan_bounds.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scan_bounds_small_range(scan_bounds, capsys):
    assert scan_bounds.main(["--n-min", "5", "--n-max", "6", "--restarts", "1"]) == 0
    assert "4 quotients" in capsys.readouterr().out


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
