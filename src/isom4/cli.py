"""Command-line front end.

One subcommand per claim family plus ``verify-all`` for the whole
suite.  Exit codes: 0 when nothing failed (documented discrepancies
included), 1 when at least one check failed, 2 on usage or input
errors and on inputs outside the implemented scope.  Each subcommand
accepts only the options its handler reads.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys

from .cache import ResultCache
from .claims import ClassificationQuery, classify
from .cohomology import classify_central_extensions, group_digest
from .embeddings import embed_into_so5, is_faithful_rep
from .errors import BudgetError, InvalidInputError, UnsupportedCaseError
from .fixedpoints import BATCH_COUNT, batch_lefschetz_cp2, batch_lefschetz_s4, involution_catalog
from .groups import FiniteGroup, build_group, canonical_group_name
from .sphere import (
    EXTENT_Q,
    EXTENT_THRESHOLD,
    ExtentConfig,
    LensParams,
    extent_lower_bound,
    extent_upper_bound,
    scan_extent,
)
from .verify import H2_TABLE, VerifyConfig, exit_code, h2_record, h2_tag, verify_all


def _split_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """(name, integer parameters) of a group spec 'name:p1,p2'."""
    name, sep, tail = spec.partition(":")
    try:
        params = tuple(int(piece) for piece in tail.split(",")) if sep else ()
    except ValueError:
        raise InvalidInputError(f"non-integer parameter in {spec!r}") from None
    return name, params


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build a group from a compact spec: a name of the group table in
    ``isom4.groups``, then ':' and its comma-separated parameters.

    Named: A4/tetra, S4/octa, A5/icosa, Q8/quaternion8, binary-tetra/octa/icosa.
    Parametric: cyclic:12, abelian:3,9, dihedral:8, binary-dihedral:12,
    metacyclic:7,3,2, klein-by-3power:1, q8-by-3power:2."""
    name, params = _split_spec(spec)
    return build_group(name, *params)


def parse_hint_spec(spec: str) -> dict:
    """Parse 'kind:key=val,key=val' into an embedding structure hint."""
    kind, _, tail = spec.partition(":")
    hint = {"kind": kind.strip()}
    if tail:
        for piece in tail.split(","):
            key, sep, value = piece.partition("=")
            if not sep:
                raise InvalidInputError(f"hint field {piece!r} is not key=value")
            value = value.strip()
            hint[key.strip()] = int(value) if value.lstrip("-").isdigit() else value
    return hint


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {out_path}: {exc}") from None


def _emit_json(data, args) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=False), args.out)


def _emit_csv(rows, args) -> None:
    """One header line of the first row's keys, then one line per row;
    booleans print as true/false.  ``rows`` may be a generator, so a
    long scan is never held as dicts."""
    rows = iter(rows)
    first = next(rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(first)
    writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in row.values()]
                     for row in itertools.chain([first], rows))
    _emit(buf.getvalue(), args.out)


# ------------------------------------------------------------ subcommands

def _given(args, *names) -> dict:
    """The options of ``names`` set on the command line.  Each defaults
    to None, so a value means it was given, and the callee's default
    applies to the others."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _refuse(given: dict, why: str):
    """Refuse options given in a mode that does not read them."""
    if given:
        raise InvalidInputError(", ".join(f"--{name}" for name in given) + f": {why}")


def _cmd_extent(args) -> int:
    optimizer = _given(args, "restarts", "seed")
    if not args.optimize:
        _refuse(optimizer, "read only with --optimize")
    params = LensParams(args.n, args.k, args.l)
    record = {
        "n": params.n, "k": params.k, "l": params.l, "q": args.q,
        "upper_bound": extent_upper_bound(params, args.q),
    }
    if args.optimize:
        cfg = ExtentConfig(q=args.q, **optimizer)
        report = extent_lower_bound(params, cfg)
        record["lower_bound"] = report.lower_bound
        record["optimizer_iterations"] = report.iterations_used
    _emit_json(record, args)
    return 0


def _cmd_scan_extent(args) -> int:
    rows = scan_extent(args.min, args.max, args.q, args.threshold)
    failures = sum(not row.passes for row in rows)
    if args.format == "csv":
        _emit_csv((row.to_json() for row in rows), args)
    else:
        _emit_json({
            "threshold": args.threshold,
            "rows": [row.to_json() for row in rows],
            "violations": failures,
        }, args)
    return 1 if failures else 0


def _cmd_h2(args) -> int:
    name, params = _split_spec(args.group)
    family = canonical_group_name(name)
    group = build_group(family, *params)
    cache = None if args.cache_dir is None else ResultCache(args.cache_dir)
    record = h2_record(group, args.m, cache)
    predicted = advertised = tag = None
    if family in H2_TABLE:
        predicted, advertised = H2_TABLE[family](params[0] if params else None, args.m)
        tag = h2_tag(record["invariant_factors"], predicted, advertised)
    # fixed field order so cached and fresh runs print identically
    _emit_json({
        "group_id": group_digest(group),
        "m": args.m,
        "invariant_factors": list(record["invariant_factors"]),
        # the central extension classes number |H^2|
        "class_count": record["order"],
        "route": record["route"],
        "predicted": None if predicted is None else list(predicted),
        "advertised": None if advertised is None else list(advertised),
        "tag": tag,
    }, args)
    return 1 if tag == "FAIL" else 0


def _cmd_extensions(args) -> int:
    group = parse_group_spec(args.group)
    classes = classify_central_extensions(group, args.m)
    keys = [cls.key for cls in classes]
    _emit_json({
        "group": args.group,
        "m": args.m,
        "isomorphism_types": [
            {
                "order": cls.group.size,
                "abelian_invariants": list(cls.group.abelian_invariants),
                "class_count": cls.class_count,
                "class_orders": list(cls.class_orders),
            }
            for cls in classes
        ],
        "class_total": sum(cls.class_count for cls in classes),
        # positions of types whose ordering keys coincide: their relative
        # order is that of their first cohomology class, not canonical
        "key_ties": [[i for i, k in enumerate(keys) if k == key]
                     for key in dict.fromkeys(keys) if keys.count(key) > 1],
    }, args)
    return 0


def _cmd_embed(args) -> int:
    group = parse_group_spec(args.group)
    hint = parse_hint_spec(args.hint)
    try:
        rep = embed_into_so5(group, hint)
    except UnsupportedCaseError as exc:
        _emit_json({"status": "UNSUPPORTED", "reason": str(exc)}, args)
        return 0
    record = {
        "status": "PASS" if is_faithful_rep(rep) else "FAIL",
        "order": group.size,
        "dimension": rep.dimension,
        "residual": rep.homomorphism_residual(),
    }
    _emit_json(record, args)
    return 0 if record["status"] == "PASS" else 1


def _cmd_fixedpoint(args) -> int:
    if args.catalog:
        _refuse(_given(args, "manifold", "count", "seed"), "not read with --catalog")
        entries = involution_catalog()
        _emit_json([
            {
                "label": e["label"],
                "trace_h2": e["data"].trace_h2,
                "fix_euler": e["data"].fix_euler,
                "expected_pass": e["expected_pass"],
                "eq_pass": e["result"]["eq_pass"],
                "derived_self_intersection":
                    e["result"]["derived_self_intersection"],
            }
            for e in entries
        ], args)
        mismatch = any(e["result"]["eq_pass"] != e["expected_pass"]
                       for e in entries)
        return 1 if mismatch else 0
    batch = batch_lefschetz_cp2 if args.manifold == "cp2" else batch_lefschetz_s4
    result = batch(**_given(args, "count", "seed"))
    _emit_json(result, args)
    return 0 if result["all_pass"] else 1


def _cmd_classify(args) -> int:
    query = ClassificationQuery(
        b2=args.b2,
        order_parity=args.parity,
        pseudofree=None if args.pseudofree is None else args.pseudofree == "true",
        intersection_form=args.form,
    )
    records = classify(query)
    _emit_json([record.to_json() for record in records], args)
    return 0


def _cmd_verify_all(args) -> int:
    kwargs = _given(args, "seed")
    if args.cache_dir is not None:
        kwargs["cache"] = ResultCache(args.cache_dir)
    report = verify_all(VerifyConfig(**kwargs))
    if args.format == "csv":
        _emit_csv(report["checks"], args)
    else:
        _emit_json(report, args)
    if args.out is not None:
        # keep a human-readable verdict on the terminal as well
        for check in report["checks"]:
            sys.stdout.write(f"{check['status']:<12} {check['id']}\n")
    return exit_code(report)


# ----------------------------------------------------------------- parser

# the options that more than one subcommand reads
_SHARED = {
    "--seed": dict(type=int, default=None, help="RNG seed (default 0)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--cache-dir": dict(default=None, help="directory for cached results"),
}


def _subcommand(subparsers, name, fn, help, shared=()):
    """A subcommand parser with ``--out`` and the listed shared options;
    each subcommand declares only the options its handler reads."""
    p = subparsers.add_parser(name, help=help)
    p.add_argument("--out", default=None, help="write output to this path")
    for flag in shared:
        p.add_argument(flag, **_SHARED[flag])
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isom4",
        description="Verification suite for isometry bounds on positively "
                    "curved 4-manifolds.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(subparsers, "extent", _cmd_extent,
                    "closed-form extent bound of one lens quotient", ("--seed",))
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--q", type=int, default=EXTENT_Q)
    p.add_argument("--optimize", action="store_true",
                   help="also run the lower-bound optimizer")
    p.add_argument("--restarts", type=int, default=None,
                   help="optimizer restarts (default 32)")

    p = _subcommand(subparsers, "scan-extent", _cmd_scan_extent,
                    "bound every canonical quotient in a range", ("--format",))
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--q", type=int, default=EXTENT_Q)
    p.add_argument("--threshold", type=float, default=EXTENT_THRESHOLD,
                   help="pass threshold (default pi/3)")

    p = _subcommand(subparsers, "h2", _cmd_h2,
                    "degree-2 cohomology of a group with Z_m coefficients", ("--cache-dir",))
    p.add_argument("--group", required=True, help="group spec, e.g. A4 or dihedral:8")
    p.add_argument("--m", type=int, required=True)

    p = _subcommand(subparsers, "extensions", _cmd_extensions,
                    "classify central extensions of a group by Z_m")
    p.add_argument("--group", required=True)
    p.add_argument("--m", type=int, required=True)

    p = _subcommand(subparsers, "embed", _cmd_embed, "faithful SO(5) model of a hinted group")
    p.add_argument("--group", required=True)
    p.add_argument("--hint", required=True,
                   help="structure hint, e.g. abelian or central-product:poly=octa,m=2")

    p = _subcommand(subparsers, "fixedpoint", _cmd_fixedpoint,
                    "Lefschetz fixed-point batches", ("--seed",))
    p.add_argument("--manifold", choices=("s4", "cp2"), default=None,
                   help="default s4")
    p.add_argument("--count", type=int, default=None,
                   help=f"batch size (default {BATCH_COUNT})")
    p.add_argument("--catalog", action="store_true",
                   help="print the involution trace catalog instead")

    p = _subcommand(subparsers, "classify", _cmd_classify,
                    "statement records matching a manifold/action query")
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--parity", choices=("odd", "even"), required=True)
    p.add_argument("--pseudofree", choices=("true", "false"), default=None)
    p.add_argument("--form", choices=("odd", "even", "definite"), default=None)

    _subcommand(subparsers, "verify-all", _cmd_verify_all, "run the whole check suite",
                ("--seed", "--format", "--cache-dir"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInputError, BudgetError, UnsupportedCaseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
