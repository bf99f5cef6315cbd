import csv
import json
import math
import re
from pathlib import Path

import pytest

from isom4.cli import build_parser, main, parse_group_spec
from isom4.cohomology import group_digest
from isom4.errors import InvalidInputError
from isom4 import groups
from isom4.groups import build_group, is_isomorphic, quaternion_group
from isom4.verify import _SUITE, _check_h2_table, _row_group

BOUND_61 = 1.0455854008586938

# the verify-all H^2 table rows whose group has order at most 24
SMALL_H2_ROWS = [
    (check_id, family, parameter, m)
    for check_id, check, _ in _SUITE if getattr(check, "func", None) is _check_h2_table
    for _, family, parameter, m in check.args[0]
    if _row_group(family, parameter).size <= 24
]


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# --- spec parsing ------------------------------------------------------------


def test_parse_named_groups():
    assert parse_group_spec("S4").size == 24
    assert parse_group_spec("icosa").size == 60
    assert is_isomorphic(parse_group_spec("q8"), quaternion_group())


def test_parse_parametric_groups():
    assert parse_group_spec("cyclic:12").size == 12
    assert parse_group_spec("abelian:3,9").size == 27
    assert parse_group_spec("metacyclic:7,3,2").size == 21
    assert parse_group_spec("binary-dihedral:12").size == 12


def test_parse_group_spec_errors():
    with pytest.raises(InvalidInputError):
        parse_group_spec("frieze")
    with pytest.raises(InvalidInputError):
        parse_group_spec("cyclic:3,4")
    with pytest.raises(InvalidInputError):
        parse_group_spec("cyclic:x")
    with pytest.raises(InvalidInputError):
        parse_group_spec("frieze:3")


# --- subcommands ----------------------------------------------------------------


def test_extent_command(capsys):
    code, data = run_json(capsys, "extent", "61", "1", "1")
    assert code == 0
    assert abs(data["upper_bound"] - BOUND_61) < 1e-12
    assert data["n"] == 61


def test_extent_with_optimizer(capsys):
    code, data = run_json(capsys, "extent", "7", "1", "2",
                          "--optimize", "--restarts", "4", "--seed", "1")
    assert code == 0
    assert data["lower_bound"] <= data["upper_bound"] + 1e-9
    assert data["optimizer_iterations"] > 0


def test_extent_rejects_non_canonical(capsys):
    code, _ = run(capsys, "extent", "7", "3", "2")
    assert code == 2


def test_scan_extent_json(capsys):
    code, data = run_json(capsys, "scan-extent", "--min", "61", "--max", "65")
    assert code == 0
    assert data["q"] == 5 and data["threshold"] == math.pi / 3
    assert data["violations"] == 0
    assert [row["n"] for row in data["rows"]] == [61, 62, 63, 64, 65]
    assert all(set(row) == {"n", "upper_bound", "pass"} and row["pass"]
               for row in data["rows"])


def test_scan_extent_detects_violation(capsys):
    code, data = run_json(capsys, "scan-extent", "--min", "60", "--max", "61")
    assert code == 1
    assert data["violations"] == 1
    assert [(row["n"], row["pass"]) for row in data["rows"]] == [(60, False), (61, True)]


def test_scan_extent_csv_header(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, _ = run(capsys, "scan-extent", "--min", "61", "--max", "63",
                  "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,upper_bound,pass"
    assert len(lines) == 4
    assert lines[1].startswith("61,") and lines[1].endswith(",true")


def test_h2_command_pass(capsys):
    # the whole output, key order included
    code, out = run(capsys, "h2", "--group", "A4", "--m", "2")
    assert code == 0
    assert out == json.dumps({
        "group_id": group_digest(build_group("tetra")), "m": 2, "invariant_factors": [2],
        "class_count": 2, "route": "uct", "predicted": [2], "advertised": [2], "tag": "PASS",
    }, indent=2) + "\n"


def test_h2_command_discrepancy(capsys):
    code, data = run_json(capsys, "h2", "--group", "S4", "--m", "2")
    assert code == 0
    assert data["invariant_factors"] == [2, 2]
    assert data["predicted"] == [2, 2]
    assert data["advertised"] == [2]
    assert data["tag"] == "DISCREPANCY"


@pytest.mark.parametrize("check_id, family, parameter, m", SMALL_H2_ROWS)
def test_h2_command_tags_like_verify(capsys, report_and_rerun,
                                     check_id, family, parameter, m):
    spec = family if parameter is None else f"{family}:{parameter}"
    code, data = run_json(capsys, "h2", "--group", spec, "--m", str(m))
    assert code == 0
    assert data["invariant_factors"] == data["predicted"]
    octa_even = family == "octa" and m % 2 == 0
    assert data["tag"] == ("DISCREPANCY" if octa_even else "PASS")
    status = {c["id"]: c["status"] for c in report_and_rerun[0]["checks"]}
    assert status[check_id] == ("DISCREPANCY" if family == "octa" else "PASS")


def test_extensions_command(capsys):
    code, data = run_json(capsys, "extensions", "--group", "dihedral:6",
                          "--m", "2")
    assert code == 0
    assert data["class_total"] == 2
    assert len(data["isomorphism_types"]) == 2
    assert all(t["order"] == 12 for t in data["isomorphism_types"])
    assert data["key_ties"] == []


def test_extensions_command_reports_key_ties(capsys):
    # Z2 x Q8 and Z4 x| Z4 have 10 classes, element orders 1, 2^3, 4^12
    # and a center of order 4, so their order in the listing is not
    # canonical, and the output says so
    code, data = run_json(capsys, "extensions", "--group", "q8", "--m", "2")
    assert code == 0
    types = data["isomorphism_types"]
    assert sorted(tuple(t["abelian_invariants"]) for t in types) == [(2, 2, 2), (2, 4)]
    assert data["key_ties"] == [[0, 1]]


def test_embed_command_pass(capsys):
    code, data = run_json(capsys, "embed", "--group", "cyclic:12")
    assert code == 0
    # 13 is the least odd prime = 1 mod lcm(4, 12)
    assert data == {"status": "PASS", "order": 12, "dimension": 5, "prime": 13}


def test_embed_command_unsupported(capsys):
    code, data = run_json(capsys, "embed", "--group", "abelian:2,2,2")
    assert code == 0
    assert data == {"status": "UNSUPPORTED",
                    "reason": "abelian groups of rank above 2 do not fit two rotation blocks"}


# one spec per name of the group table, small parameters: the recipe
# follows from the name, and Q8, the binary dihedral 2-groups of order 8
# and more and the groups without a recipe are refused; Z2 x Z2 and Z4,
# the smallest klein-by-3power and binary-dihedral groups, are abelian
EMBED_STATUS = {
    "cyclic:12": "PASS",
    "abelian:3,9": "PASS",
    "dihedral:8": "PASS",
    "tetra": "PASS",
    "octa": "PASS",
    "icosa": "PASS",
    "q8": "UNSUPPORTED",
    "binary-tetra": "PASS",
    "binary-octa": "PASS",
    "binary-icosa": "PASS",
    "binary-dihedral:4": "PASS",
    "binary-dihedral:12": "PASS",
    "binary-dihedral:8": "UNSUPPORTED",
    "binary-dihedral:24": "UNSUPPORTED",
    "metacyclic:7,3,2": "UNSUPPORTED",
    "klein-by-3power:0": "PASS",
    "klein-by-3power:1": "PASS",
    "q8-by-3power:0": "UNSUPPORTED",
    "q8-by-3power:2": "PASS",
}


def test_embed_status_covers_the_group_table():
    assert {spec.partition(":")[0] for spec in EMBED_STATUS} == set(groups._GROUP_TABLE)


@pytest.mark.parametrize("spec, status", EMBED_STATUS.items())
def test_embed_command_reads_the_recipe_off_the_name(capsys, spec, status):
    code, data = run_json(capsys, "embed", "--group", spec)
    assert (code, data["status"]) == (0, status)
    if status == "PASS":
        assert data["order"] == parse_group_spec(spec).size
    # the structure hint of earlier versions is no option
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--group", spec, "--hint", "abelian"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --hint abelian" in capsys.readouterr().err


def test_fixedpoint_catalog(capsys):
    # the whole output, key order included: three records of six keys
    code, out = run(capsys, "fixedpoint")
    assert code == 0
    keys = ["label", "trace_h2", "fix_euler", "expected_pass", "eq_pass",
            "derived_self_intersection"]
    rows = [("cp2-conjugation", -1, 1, True, True, -1),
            ("cp2-holomorphic-split", 1, 3, True, True, 1),
            ("free-involution-hypothetical", 0, 0, False, False, 0)]
    assert out == json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"


def test_classify_command(capsys):
    code, data = run_json(capsys, "classify", "--b2", "2", "--parity", "odd",
                          "--pseudofree", "true", "--form", "odd")
    assert code == 0
    ids = {r["id"] for r in data}
    assert "odd-b2-2-cyclic" in ids
    assert "odd-form-pseudofree-families" in ids


def test_classify_rejects_bad_b2(capsys):
    code, _ = run(capsys, "classify", "--b2", "9", "--parity", "odd")
    assert code == 2


def test_scan_extent_refuses_a_range_past_the_deck_order_cap(capsys):
    assert main(["scan-extent", "--min", "61", "--max", "100001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: deck order capped at 100000\n"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan-extent"])  # missing required --min/--max
    assert exc.value.code == 2


# --- each subcommand accepts only the options its handler reads ---------------

OPTIONS = {
    "extent": {"--out", "--seed", "--q", "--optimize", "--restarts"},
    "scan-extent": {"--out", "--format", "--min", "--max", "--q"},
    "h2": {"--out", "--group", "--m"},
    "extensions": {"--out", "--group", "--m"},
    "embed": {"--out", "--group"},
    "fixedpoint": {"--out"},
    "classify": {"--out", "--b2", "--parity", "--pseudofree", "--form"},
    "verify-all": {"--out", "--seed", "--format"},
}


def declared_options() -> dict[str, set[str]]:
    """The options each subcommand parser declares, without --help."""
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "command")
    return {
        name: {flag for action in sub._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }


def test_subcommand_options():
    declared = declared_options()
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 27


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_option_table() -> dict[str, set[str]]:
    """Subcommand -> the options its row of README's option table lists."""
    lines = README.read_text(encoding="utf-8").splitlines()
    table = {}
    for line in lines[lines.index("| subcommand | options |") + 2:]:
        if not line.startswith("|"):
            break
        # an escaped "\|" inside a cell has no spaces around it
        name_cell, options_cell = line.split(" | ", 1)
        name = re.search(r"`([\w-]+)", name_cell).group(1)
        table[name] = {code.split()[0] for code in re.findall(r"`(--[^`]*)`", options_cell)}
    return table


def test_readme_option_table_matches_parsers():
    declared = {name: flags - {"--out"} for name, flags in declared_options().items()}
    assert readme_option_table() == declared


@pytest.mark.parametrize("flag", ["--threshold-n", "--scan-max", "--batch-count",
                                  "--spot-checks", "--restarts"])
def test_removed_verify_all_flags_exit_two(capsys, flag):
    # the suite has one size; the report states it
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", flag, "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} 1" in captured.err


HEADS = {
    "extent": ["extent", "61", "1", "1"],
    "scan-extent": ["scan-extent", "--min", "61", "--max", "62"],
    "h2": ["h2", "--group", "A4", "--m", "2"],
    "extensions": ["extensions", "--group", "A4", "--m", "2"],
    "embed": ["embed", "--group", "cyclic:12"],
    "fixedpoint": ["fixedpoint"],
    "classify": ["classify", "--b2", "2", "--parity", "odd"],
    "verify-all": ["verify-all"],
}
UNREAD = [(name, flag) for name in HEADS
          for flag in ("--seed", "--format", "--cache-dir") if flag not in OPTIONS[name]]


@pytest.mark.parametrize("name, flag", UNREAD, ids=[" ".join(u) for u in UNREAD])
def test_unread_flag_exits_two(capsys, tmp_path, monkeypatch, name, flag):
    monkeypatch.chdir(tmp_path)
    value = {"--seed": "9", "--format": "csv", "--cache-dir": "d"}[flag]
    with pytest.raises(SystemExit) as exc:
        main([*HEADS[name], flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv, message", [
    (["extent", "2", "1", "1"], "closed-form bound requires deck order >= 3"),
    (["extent", "61", "1", "1", "--restarts", "0", "--seed", "7"],
     "--restarts, --seed: read only with --optimize"),
    # these used to run for minutes building RNGs, or die in a MemoryError
    (["extent", "61", "1", "1", "--optimize", "--restarts", "1000000000000"],
     "restarts x q^2 x max(deck order, 64) = 1600000000000000 exceeds the budget 262144"),
    (["extent", "61", "1", "1", "--optimize", "--q", "30000"],
     "restarts x q^2 x max(deck order, 64) = 1843200000000 exceeds the budget 262144"),
    # these used to take about 0.9 GB and minutes, 94 s, or 10 s
    (["extent", "99991", "1", "2", "--optimize"],
     "restarts x q^2 x max(deck order, 64) = 79992800 exceeds the budget 262144"),
    (["extent", "64", "1", "1", "--optimize", "--restarts", "1024", "--q", "16"],
     "restarts x q^2 x max(deck order, 64) = 16777216 exceeds the budget 262144"),
    (["extent", "3", "1", "1", "--optimize", "--restarts", "388", "--q", "15"],
     "restarts x q^2 x max(deck order, 64) = 5587200 exceeds the budget 262144"),
    # the modulus cap of the cohomology layer, both ends
    (["h2", "--group", "A4", "--m", "65"], "modulus must lie in [1, 64]"),
    (["h2", "--group", "A4", "--m", "0"], "modulus must lie in [1, 64]"),
    (["extensions", "--group", "A4", "--m", "65"], "modulus must lie in [1, 64]"),
], ids=["extent-n-2-unsupported", "extent-optimizer-options-alone",
        "extent-restarts-past-the-cap", "extent-q-past-the-cap",
        "extent-past-the-orbit-budget", "extent-past-the-sweep-budget",
        "extent-small-deck-order-past-the-floor-budget",
        "h2-modulus-past-the-cap", "h2-modulus-zero", "extensions-modulus-past-the-cap"])
def test_refused_input_exits_two(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("name", ["binary-dihedral", "dihedral"])
def test_group_parameter_past_the_cap_exits_two(capsys, name):
    # a 400-digit order used to end in an OverflowError or ValueError traceback
    assert main(["h2", "--group", f"{name}:{'8' * 400}", "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a {name} parameter exceeds the order cap 512\n"


def test_verify_all_command_csv(capsys, tmp_path, report_and_rerun):
    out = tmp_path / "report.csv"
    code, echo = run(capsys, "verify-all", "--format", "csv", "--out", str(out))
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["id", "status", "expected", "actual", "runtime_ms"]
    assert len(rows) == 32
    assert [row[:4] for row in rows] == [
        [c["id"], c["status"], c["expected"], c["actual"]]
        for c in report_and_rerun[0]["checks"]]
    assert echo.splitlines() == [f"{status:<12} {check_id}" for check_id, status, *_ in rows]
