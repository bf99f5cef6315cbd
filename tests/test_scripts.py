import importlib.util
from pathlib import Path

import pytest

SCAN_BOUNDS = Path(__file__).resolve().parent.parent / "scripts" / "scan_bounds.py"


@pytest.fixture(scope="module")
def scan_bounds():
    spec = importlib.util.spec_from_file_location("scan_bounds", SCAN_BOUNDS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv,message", [
    (["--n-min", "2"], "scan starts at deck order 3"),
    (["--n-min", "5", "--n-max", "4"], "empty scan range"),
    (["--q", "1"], "tuple size q must be at least 2"),
], ids=["below-3", "empty", "q-1"])
def test_scan_bounds_refuses_bad_input(scan_bounds, capsys, argv, message):
    assert scan_bounds.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scan_bounds_small_range(scan_bounds, capsys):
    assert scan_bounds.main(["--n-min", "5", "--n-max", "6", "--restarts", "1"]) == 0
    assert "4 quotients" in capsys.readouterr().out
