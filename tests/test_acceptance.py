"""End-to-end acceptance gates, one test per criterion.

Each test prints exactly one ACCEPTANCE line with its verdict before
asserting, so a `pytest -v -s` run reads as a checklist.  Numeric
tolerances are stated inline next to each assertion.
"""

import math
import re
import time

import numpy as np

from isom4.claims import ClassificationQuery, classify
from isom4.cohomology import classify_central_extensions, unique_nontrivial_extension
from isom4.embeddings import pu3_metacyclic
from isom4.fixedpoints import involution_catalog, lefschetz_sweep_cp2
from isom4.groups import (
    alternating,
    binary_dihedral,
    build_group,
    cyclic,
    cyclic_central_product,
    dihedral,
    direct_product,
    inverted_odd_cycle,
    is_isomorphic,
    symmetric,
)
from isom4.sphere import (
    ExtentConfig,
    LensParams,
    canonicalize_lens,
    extent_lower_bound,
    extent_upper_bound,
    isolated_fixed_point_budget,
    scan_extent,
)

THRESHOLD = math.pi / 3.0
BOUND_61 = 1.0455854008586938  # high-precision oracle, frozen
BOUND_60 = 1.0472172441694827


def records(report_and_rerun, *ids):
    """The verify-all records with these ids, from the shared cold run."""
    by_id = {c["id"]: c for c in report_and_rerun[0]["checks"]}
    return {cid: by_id[cid] for cid in ids}


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_scan_range():
    start = time.perf_counter()
    violations = [n for n, value in scan_extent(61, 300, 5) if not value < THRESHOLD]
    elapsed = time.perf_counter() - start
    [(_, at_60)] = scan_extent(60, 60, 5)
    ok = not violations and at_60 >= THRESHOLD and elapsed < 60.0
    report(1, ok,
           f"0 violations in [61, 300] expected, found {len(violations)}; "
           f"n=60 bound {at_60:.10f} >= pi/3; scan took {elapsed:.1f}s (< 60s)")


def test_criterion_02_fixed_point_budget():
    bound = extent_upper_bound(61, 5)
    budget = isolated_fixed_point_budget(bound)
    ok = (budget["contradiction"]
          and abs(bound - BOUND_61) < 1e-12
          and round(bound, 4) == 1.0456)
    report(2, ok,
           f"bound {bound:.12f} (oracle {BOUND_61:.12f}, tol 1e-12), "
           f"60 angles give {budget['six_point_budget']:.6f} "
           f"<= 20*pi = {20 * math.pi:.6f}: contradiction="
           f"{budget['contradiction']}")


def test_criterion_03_optimizer_sound():
    rng = np.random.default_rng(0)
    worst_gap = -math.inf
    for i in range(50):
        n = int(rng.integers(3, 201))
        k = int(rng.integers(1, n))
        l = int(rng.integers(1, n))
        if math.gcd(k, n) != 1 or math.gcd(l, n) != 1:
            k = l = 1
        params = canonicalize_lens(n, k, l)
        upper = extent_upper_bound(params.n, 5)
        lower = extent_lower_bound(
            params, ExtentConfig(q=5, restarts=6, seed=i)).lower_bound
        worst_gap = max(worst_gap, lower - upper)
        assert lower <= upper + 1e-9, (params, lower, upper)
    sphere = extent_lower_bound(LensParams(1, 1, 1), ExtentConfig(q=2, seed=0))
    ok = worst_gap <= 1e-9 and sphere.lower_bound >= math.pi - 1e-3
    report(3, ok,
           f"50 seeded quotients: max(lower - upper) = {worst_gap:.2e} "
           f"(tol 1e-9); 2-point extent of S^3 = {sphere.lower_bound:.6f} "
           f">= pi - 1e-3")


def test_criterion_04_h2_tables(report_and_rerun):
    checks = records(report_and_rerun, "h2-tetrahedral-table",
                     "h2-icosahedral-table", "h2-dihedral-odd-trivial",
                     "h2-dihedral-even-z2", "h2-dihedral-2group-rank3",
                     "h2-octahedral-discrepancy")
    # the octahedral group: computed rank 2 against the advertised
    # single Z_2; recorded as a discrepancy, not a hard failure
    octa = checks.pop("h2-octahedral-discrepancy")
    ok = (all(c["status"] == "PASS" for c in checks.values())
          and octa["status"] == "DISCREPANCY")
    report(4, ok,
           "; ".join(f"{cid} {c['status']}: {c['actual']}" for cid, c in checks.items())
           + f"; octahedral {octa['status']}: {octa['actual']}")


def test_criterion_05_extension_classification():
    icosa = classify_central_extensions(alternating(5), 2)
    split = [c for c in icosa if c.class_orders == (1,)]
    twisted = [c for c in icosa if c.class_orders == (2,)]
    icosa_ok = (
        len(icosa) == 2
        and len(split) == 1
        and len(twisted) == 1
        and is_isomorphic(split[0].group,
                          direct_product(cyclic(2), alternating(5)))
        and is_isomorphic(twisted[0].group,
                          build_group("binary-icosa"))
    )
    octa = classify_central_extensions(symmetric(4), 2)
    octa_ok = (
        len(octa) == 4
        and any(is_isomorphic(c.group, direct_product(cyclic(2), symmetric(4)))
                for c in octa)
        and any(is_isomorphic(c.group, build_group("binary-octa"))
                for c in octa)
    )
    ok = icosa_ok and octa_ok
    report(5, ok,
           f"icosahedral: {len(icosa)} types (split + binary cover); "
           f"octahedral: {len(octa)} types including split and binary cover "
           f"(rank-2 coefficient group, so 4 not 2)")


def _realized_is(m, k, model):
    """Whether the unique nontrivial extension of Z_m by the dihedral
    group of order 2k is isomorphic to ``model``."""
    found = unique_nontrivial_extension(dihedral(2 * k), m)
    return found is not None and is_isomorphic(found, model)


def test_criterion_06_dicyclic_products():
    # the printed model: Z_m joined with the dicyclic group of order 4k
    ok_23 = _realized_is(2, 3, cyclic_central_product(2, binary_dihedral(12)))
    ok_25 = _realized_is(2, 5, cyclic_central_product(2, binary_dihedral(20)))
    printed_43 = _realized_is(4, 3, cyclic_central_product(4, binary_dihedral(12)))
    corrected_43 = _realized_is(4, 3, inverted_odd_cycle(3, 4))
    ok = ok_23 and ok_25 and (not printed_43) and corrected_43
    report(6, ok,
           f"(m,k)=(2,3): printed model holds = {ok_23}; (2,5): {ok_25}; "
           f"(4,3): printed model holds = {printed_43} with corrected "
           f"model = {corrected_43}: DISCREPANCY documented")


def _projective_gap(mats: np.ndarray) -> float:
    """min over a != b of max |M_a^H M_b - tr(M_a^H M_b)/3 I|: how far
    the elements' matrices stay from differing by a unit scalar."""
    prods = np.einsum("aji,bjk->abik", mats.conj(), mats)
    prods -= np.einsum("abii->ab", prods)[..., None, None] / 3 * np.eye(3)
    dist = np.max(np.abs(prods), axis=(2, 3))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def test_criterion_07_projective_unitary_models():
    worst = 0.0
    gap = math.inf
    all_lefschetz = True
    for m, n, r in ((7, 3, 2), (13, 3, 3), (31, 3, 5)):
        rep = pu3_metacyclic(m, n, r)
        worst = max(worst, rep.homomorphism_residual())
        # faithful in PU(3): no two distinct elements differ by a scalar
        gap = min(gap, _projective_gap(rep.matrices))
        all_lefschetz = all_lefschetz and not lefschetz_sweep_cp2(rep.matrices)["failures"]
    all_faithful = gap > 1e-8
    ok = worst < 1e-12 and all_faithful and all_lefschetz
    report(7, ok,
           f"3 metacyclic models: max residual {worst:.2e} (tol 1e-12), "
           f"faithful = {all_faithful} (min scalar gap {gap:.2f}), every element has chi(Fix) = 3 "
           f"on the projective plane = {all_lefschetz}")


def test_criterion_08_so5_embeddings(report_and_rerun):
    checks = records(report_and_rerun, "embed-abelian-sample",
                     "embed-central-products", "embed-klein-family",
                     "embed-quaternion-u2", "embed-dihedral-mixed",
                     "embed-two-group-unsupported")
    refused = checks.pop("embed-two-group-unsupported")
    # each PASS names the exact route and the odd primes it closed modulo
    primes = [[int(p) for p in found.group(1).split(", ")]
              for c in checks.values()
              if (found := re.search(r"exact closure modulo (\d+(?:, \d+)*)$", c["actual"]))]
    ok = (all(c["status"] == "PASS" for c in checks.values())
          and len(primes) == len(checks)
          and all(p % 2 == 1 and all(p % q for q in range(3, math.isqrt(p) + 1))
                  for ps in primes for p in ps)
          and refused["status"] == "UNSUPPORTED")
    report(8, ok,
           "; ".join(f"{cid} {c['status']}: {c['actual']}" for cid, c in checks.items())
           + f"; Q8 model {refused['status']}: {refused['actual']}")


def test_criterion_09_lefschetz_batches(report_and_rerun):
    checks = records(report_and_rerun, "fixedpoint-sphere-batch", "fixedpoint-plane-batch")
    # each record's tally reads "passed/swept pass; <stratum> <count>, ..."
    tallies = [re.match(r"(\d+)/(\d+) pass; ", c["actual"]) for c in checks.values()]
    conj = next(e for e in involution_catalog()
                if e["label"] == "cp2-conjugation")
    conj_ok = (conj["fix_euler"] == 1
               and conj["eq_pass"]
               and conj["derived_self_intersection"] == -1)
    ok = (all(c["status"] == "PASS" for c in checks.values())
          and all(t is not None and t[1] == t[2] for t in tallies)
          and conj_ok)
    report(9, ok,
           "; ".join(f"{cid} {c['status']}: {c['actual']}" for cid, c in checks.items())
           + "; conjugation involution satisfies 1 = 2 + (-1) with "
           f"self-intersection -1 = {conj_ok}")


def test_criterion_10_order_bounds(report_and_rerun):
    checks = records(report_and_rerun, "gl-order-check",
                     "cyclic-normal-index-catalog")
    gl = checks["gl-order-check"]
    catalog = checks["cyclic-normal-index-catalog"]
    indices = {name: int(idx) for name, idx in
               (entry.rsplit("=", 1) for entry in catalog["actual"].split(", "))}
    ok = (gl["status"] == "PASS" and gl["actual"] == "168"
          and catalog["status"] == "PASS"
          and len(indices) == 10
          and max(indices.values()) <= 120 and indices["A5"] == 60)
    report(10, ok,
           f"|GL(3, F_2)| = {gl['actual']} (expected 168) {gl['status']}; "
           f"cyclic normal indices {catalog['status']}: {catalog['actual']} "
           f"(all <= 120, icosahedral = 60)")


def test_classification_lookups_round_out_the_gate():
    # statement lookups used by the suite resolve and carry their bounds
    records = classify(ClassificationQuery(b2=2, order_parity="odd",
                                           pseudofree=True,
                                           intersection_form="odd"))
    ids = {r.id for r in records}
    assert "odd-b2-2-cyclic" in ids
    assert "odd-form-pseudofree-families" in ids
    by_id = {r.id: r for r in records}
    assert by_id["normal-cyclic-index-120"].bounds == (("cyclic_normal_index", 120),)
