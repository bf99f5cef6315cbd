"""verify_all runs ``_SIDE_LANE`` in one forked child beside the rest.

The report must be the one a single in-process lane gives, a child that
dies must turn its checks into FAIL records without touching the
others, an interrupt in the parent must propagate, no child may outlive
``verify_all``, and output buffered before the fork is written once.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import isom4
from isom4 import verify
from isom4.verify import _SIDE_LANE, _SUITE, VerifyConfig, _run_check, verify_all

SRC = os.path.dirname(os.path.dirname(os.path.abspath(isom4.__file__)))


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _strip(checks):
    return [{k: v for k, v in check.items() if k != "runtime_ms"} for check in checks]


def _one_lane(cfg):
    return [_run_check(check_id, fn, cfg).to_json() for check_id, fn, _ in _SUITE]


def _run_python(code: str) -> str:
    # without PYTHONUNBUFFERED, stdout on a pipe is block-buffered
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120).stdout


def _with_lane_check(monkeypatch, fn):
    monkeypatch.setattr(verify, "_SUITE", tuple(
        (check_id, fn if check_id in _SIDE_LANE else check, anchor)
        for check_id, check, anchor in _SUITE))


def test_side_lane_names_suite_checks():
    assert set(_SIDE_LANE) <= {check_id for check_id, _, _ in _SUITE}


def test_two_lanes_give_the_one_lane_report(report_and_rerun):
    # seed 0 from the session's cold run, seed 1 here
    cold, _ = report_and_rerun
    seed1 = verify_all(VerifyConfig(seed=1))
    for report, seed in ((cold, 0), (seed1, 1)):
        assert _strip(report["checks"]) == _strip(_one_lane(VerifyConfig(seed=seed)))
        assert report["legend"] == {check_id: anchor for check_id, _, anchor in _SUITE}


def test_one_cpu_gives_the_same_report():
    # both lanes share the one CPU the process may use
    cpu = min(os.sched_getaffinity(0))
    out = _run_python("import json, os\n"
                      f"os.sched_setaffinity(0, {{{cpu}}})\n"
                      "from isom4.verify import VerifyConfig, verify_all\n"
                      "print(json.dumps(verify_all(VerifyConfig(seed=1))))\n")
    report = json.loads(out)
    assert _strip(report["checks"]) == _strip(verify_all(VerifyConfig(seed=1))["checks"])


def _exit_three(cfg):
    os._exit(3)


def _raise_system_exit(cfg):
    raise SystemExit(0)


@pytest.mark.parametrize("check,code", [(_exit_three, 3), (_raise_system_exit, 1)],
                         ids=["os-exit", "system-exit"])
def test_a_dead_child_fails_only_its_checks(monkeypatch, report_and_rerun, check, code):
    cold, _ = report_and_rerun
    _with_lane_check(monkeypatch, check)
    report = verify_all(VerifyConfig())
    for want, got in zip(_strip(cold["checks"]), _strip(report["checks"])):
        if got["id"] in _SIDE_LANE:
            assert got == {"id": want["id"], "status": "FAIL", "expected": "check completes",
                           "actual": f"forked check process exited with status {code}"}
        else:
            assert got == want


def _lane_only(monkeypatch, fn):
    # the side lane's rows alone, each running fn
    monkeypatch.setattr(verify, "_SUITE", tuple(
        (check_id, fn, anchor) for check_id, _, anchor in _SUITE if check_id in _SIDE_LANE))


def test_a_child_that_sends_nothing_fails_its_checks(monkeypatch):
    _lane_only(monkeypatch, lambda cfg: os._exit(0))
    assert {(c["status"], c["actual"]) for c in verify_all(VerifyConfig())["checks"]} == {
        ("FAIL", "forked check process exited with status 0 and sent no readable record")}


def test_parent_interrupt_kills_the_child_and_propagates(monkeypatch):
    def interrupted(cfg):
        raise KeyboardInterrupt

    suite = [(check_id, (lambda cfg: time.sleep(60)) if check_id in _SIDE_LANE else check,
              anchor) for check_id, check, anchor in _SUITE]
    here = next(i for i, row in enumerate(suite) if row[0] not in _SIDE_LANE)
    suite[here] = (suite[here][0], interrupted, suite[here][2])
    monkeypatch.setattr(verify, "_SUITE", tuple(suite))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify_all(VerifyConfig())
    assert time.monotonic() - start < 30


def _refused():
    raise OSError("no process")


@pytest.mark.parametrize("fork,forked", [(os.fork, True), (_refused, False), (None, False)],
                         ids=["fork", "refused", "absent"])
def test_the_side_lane_forks_where_it_can(monkeypatch, fork, forked):
    # where fork fails or does not exist, this process runs every check
    _lane_only(monkeypatch, lambda cfg: ("PASS", "e", str(os.getpid())))
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    pids = {c["actual"] for c in verify_all(VerifyConfig())["checks"]}
    assert (pids == {str(os.getpid())}) is not forked


def test_output_buffered_before_the_fork_is_printed_once():
    out = _run_python("from isom4.verify import VerifyConfig, verify_all\n"
                      "print('x', end='')\n"
                      "verify_all(VerifyConfig(seed=1))\n")
    assert out == "x"
