"""End-to-end verification suite behind the command line.

Every check produces one record with a stable id, a verdict, and
printable expected/actual values.  DISCREPANCY marks the documented
places where the computation contradicts the advertised value without
failing the run; UNSUPPORTED marks inputs that are out of scope by
design.  For a fixed seed the report is deterministic modulo the
runtime fields.  A record's text formats every count, case, bound and
tolerance from the value its check computes with, and checks of one
shape (sharp threshold, SO(5) sweep, printed versus corrected model,
unique extension, Lefschetz sweep) share one function.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import time
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .cache import ResultCache
from .claims import _TABLE as _STATEMENTS
from .claims import ClassificationQuery, classify
from .cohomology import (
    _cochain_second_cohomology,
    classify_central_extensions,
    group_digest,
    second_cohomology,
    unique_nontrivial_extension,
)
from .embeddings import (
    _padded_to_so5,
    abelian_so5,
    embed_into_so5,
    klein_twist,
    o4_in_so5,
    pu3_metacyclic,
    so4_central_product,
    so5_model,
    u2_mixed,
)
from .errors import InvalidInputError, UnsupportedCaseError
from .fixedpoints import (
    _LEFSCHETZ_CP2,
    _LEFSCHETZ_S4,
    involution_catalog,
    lefschetz_sweep_cp2,
    lefschetz_sweep_s4,
)
from .groups import (
    _integer_fields,
    _spec_text,
    _tolerance_text,
    abelian,
    alternating,
    binary_dihedral,
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    build_group,
    build_metacyclic,
    cyclic,
    cyclic_central_product,
    dihedral,
    direct_product,
    inverted_odd_cycle,
    is_isomorphic,
    klein_by_cyclic3,
    matches_family,
    max_cyclic_normal_index,
    order_gl,
    q8_by_cyclic3,
    quaternion_group,
    symmetric,
)
from .sphere import (
    BUDGET_ANGLES,
    BUDGET_TRIANGLES,
    EXTENT_Q,
    EXTENT_SHARP_N,
    EXTENT_THRESHOLD,
    LOWER_BOUND_SLACK,
    ExtentConfig,
    LensParams,
    _require_seed,
    canonicalize_lens,
    extent_lower_bound,
    extent_upper_bound,
    isolated_fixed_point_budget,
    scan_extent,
)

__all__ = [
    "REPORT_VERSION",
    "CheckRecord",
    "VerifyConfig",
    "exit_code",
    "verify_all",
]

REPORT_VERSION = 1
STATUSES = ("PASS", "FAIL", "DISCREPANCY", "UNSUPPORTED")
# the scan certifies the extent bound on every deck order from
# EXTENT_SHARP_N to SCAN_MAX_N; the optimizer is checked on
# OPTIMIZER_CASES random quotients
SCAN_MAX_N = 300
OPTIMIZER_CASES = 3
# the optimizer must find the round 3-sphere's diameter pi this closely
DIAMETER_TOLERANCE = 1e-3
# A5 is simple, so its only normal cyclic subgroup is the trivial one
ICOSAHEDRAL_CYCLIC_INDEX = 60
# the paper's bound on that index, as its statement record states it
CYCLIC_INDEX_BOUND = dict(next(
    record for _, record in _STATEMENTS if record.id == "normal-cyclic-index-120"
).bounds)["cyclic_normal_index"]
# |GL(3, F_2)|, the automorphisms of the rank-3 odd lattice mod 2-torsion,
# and its factors (p^n - p^i)
GL_DEGREE, GL_PRIME = 3, 2
GL_3_2_ORDER = 168
_GL_FACTORS = "".join(f"({GL_PRIME}^{GL_DEGREE}-{GL_PRIME**i})" for i in range(GL_DEGREE))
# embed-quaternion-u2 models u2_mixed(r, s, 1), Q8 extended by a
# 3^(s+1)-cycle; embed-dihedral-mixed models o4_in_so5(m, k), the
# dicyclic group of order 2km
QUATERNION_U2_RS = (1, 1)
QUATERNION_U2_CYCLE = 3 ** (QUATERNION_U2_RS[1] + 1)
DIHEDRAL_MIXED_MK = (2, 3)
DIHEDRAL_MIXED_ORDER = 2 * DIHEDRAL_MIXED_MK[0] * DIHEDRAL_MIXED_MK[1]
# the closed groups the Lefschetz checks sweep: so5_model specs, padded
# to 5x5 as embed_into_so5 pads them, and pu3_metacyclic's (m, n, r)
LEFSCHETZ_SO5_SPECS = (("abelian", 4, 6), ("dihedral", 10), ("icosa",), ("binary-icosa",),
                       ("klein-by-3power", 2), ("q8-by-3power", 2), ("binary-dihedral", 12))
# No metacyclic element fixes CP^1 + point, as none but the identity has
# a repeated eigenvalue: A^i, i != 0 mod m, has the distinct exponents
# i, ir, ir^2 mod m (r - 1 and r + 1 = -r^2 are units), and A^i B^j,
# j != 0 mod 3, is monomial with characteristic polynomial x^3 - c.  The
# involution catalog's diag(1, 1, -1) reaches that stratum instead.
LEFSCHETZ_PU3_PARAMS = ((7, 3, 2), (13, 3, 3), (31, 3, 5))
_NUMBER_WORDS = ("no", "one", "two", "three", "four", "five")


@dataclass(frozen=True)
class CheckRecord:
    id: str
    status: str
    expected: str
    actual: str
    runtime_ms: int

    def __post_init__(self):
        if self.status not in STATUSES:
            raise InvalidInputError(f"unknown check status {self.status!r}")
        if self.runtime_ms < 0:
            raise InvalidInputError("runtime must be nonnegative")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerifyConfig:
    """The two inputs of a run; the suite itself has one size.

    ``seed`` draws the random cases (optimizer quotients, cyclic H^2
    pairs, abelian embeddings).  ``cache`` is the benchmark harness's
    warm fixture (``perfbench``); no command sets it.  When set, it
    holds the H^2 tables and the two binary-cover comparisons across
    runs; every other check is recomputed."""

    seed: int = 0
    cache: ResultCache | None = None

    def __post_init__(self):
        (seed,) = _integer_fields(self, "seed")
        _require_seed(seed)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _cached(cache: ResultCache | None, key: str, compute):
    if cache is None:
        return compute()
    value, _ = cache.get_or_compute(key, compute)
    return value


def _number(count: int) -> str:
    return _NUMBER_WORDS[count] if count < len(_NUMBER_WORDS) else str(count)


def _all_of(count: int) -> str:
    return "both" if count == 2 else f"all {_number(count)}"


def _series(items) -> str:
    """'a and b', or 'a, b, and c'."""
    *head, last = items
    if len(head) < 2:
        return " and ".join([*head, last])
    return f"{', '.join(head)}, and {last}"


def _set_text(values) -> str:
    return "{" + ", ".join(map(str, values)) + "}"


# ---------------------------------------------------------------- sphere

def _check_extent_sharp(n, cfg):
    """The bound at deck order ``n`` is below pi/3 iff n >= EXTENT_SHARP_N."""
    value = extent_upper_bound(n, EXTENT_Q)
    below = n >= EXTENT_SHARP_N
    return ("PASS" if (value < EXTENT_THRESHOLD) == below else "FAIL",
            f"upper bound at deck order {n} {'<' if below else '>='} pi/3 = "
            f"{_fmt(EXTENT_THRESHOLD)}", _fmt(value))


def _check_extent_scan(cfg):
    bad = [(n, value) for n, value in scan_extent(EXTENT_SHARP_N, SCAN_MAX_N, EXTENT_Q)
           if not value < EXTENT_THRESHOLD]
    expected = (f"0 quotients with bound >= pi/3 for deck order in "
                f"[{EXTENT_SHARP_N}, {SCAN_MAX_N}]")
    if not bad:
        return "PASS", expected, "0 violations"
    worst = max(value for _, value in bad)
    return ("FAIL", expected,
            f"deck orders {_set_text(n for n, _ in bad)} violate, worst bound {_fmt(worst)}")


def _check_budget(cfg):
    bound = extent_upper_bound(EXTENT_SHARP_N, EXTENT_Q)
    budget = isolated_fixed_point_budget(bound)
    ok = budget["contradiction"]
    return ("PASS" if ok else "FAIL",
            f"six isolated fixed points need total angle > {BUDGET_TRIANGLES}*pi, yet "
            f"{BUDGET_ANGLES} angles of at most the extent bound cannot exceed it",
            f"{BUDGET_ANGLES} * {_fmt(bound)} = {_fmt(budget['six_point_budget'])} vs "
            f"{BUDGET_TRIANGLES}*pi = {_fmt(BUDGET_TRIANGLES * math.pi)}; contradiction={ok}")


def _check_optimizer_consistency(cfg):
    rng = np.random.default_rng(cfg.seed)
    worst_gap = -math.inf
    cases = []
    for _ in range(OPTIMIZER_CASES):
        n = int(rng.integers(3, 201))
        while True:
            k = int(rng.integers(1, n))
            l = int(rng.integers(1, n))
            if math.gcd(k, n) == 1 and math.gcd(l, n) == 1:
                break
        params = canonicalize_lens(n, k, l)
        seed = int(rng.integers(2**63))
        report = extent_lower_bound(params, ExtentConfig(q=EXTENT_Q, seed=seed))
        worst_gap = max(worst_gap,
                        report.lower_bound - extent_upper_bound(params.n, EXTENT_Q))
        cases.append(f"({params.n},{params.k},{params.l})")
    ok = worst_gap <= LOWER_BOUND_SLACK
    return ("PASS" if ok else "FAIL",
            "optimized spread never exceeds the closed-form bound "
            f"(tolerance {_tolerance_text(LOWER_BOUND_SLACK)})",
            f"worst lower-upper gap {_fmt(worst_gap)} over {', '.join(cases)}")


def _check_sphere_diameter(cfg):
    ecfg = ExtentConfig(q=2, seed=cfg.seed)
    report = extent_lower_bound(LensParams(1, 1, 1), ecfg)
    ok = report.lower_bound >= math.pi - DIAMETER_TOLERANCE
    return ("PASS" if ok else "FAIL",
            f"{ecfg.q}-point extent of the round 3-sphere reaches pi within "
            f"{_tolerance_text(DIAMETER_TOLERANCE)}",
            _fmt(report.lower_bound))


# ------------------------------------------------------------ cohomology

def _gcd_factor(a, m):
    d = math.gcd(a, m)
    return (d,) if d > 1 else ()


def _even_only(m, factors):
    return () if m % 2 else factors


def _same(factors):
    return factors, factors


# The published H^2(Q; Z_m) values, one rule per group family (a name
# of the group table in ``groups``): (parameter, m) -> (computed,
# advertised) invariant factors.  The two values differ only for the
# octahedral group at even m.
H2_TABLE = {
    "cyclic": lambda n, m: _same(_gcd_factor(n, m)),
    "dihedral": lambda order, m: _same(
        _even_only(m, (2,) if order // 2 % 2 else (2, 2, 2))),
    "tetra": lambda _, m: _same(_gcd_factor(6, m)),
    "octa": lambda _, m: (_even_only(m, (2, 2)), _even_only(m, (2,))),
    "icosa": lambda _, m: _same(_gcd_factor(2, m)),
}


def _row_group(family: str, parameter=None):
    """The group of an H2_TABLE row: ``family`` with its one parameter, if any."""
    return build_group(family) if parameter is None else build_group(family, parameter)


def h2_tag(got, computed, advertised) -> str:
    """PASS, DISCREPANCY (matches the computed value, not the advertised
    one) or FAIL for H^2 invariant factors ``got``."""
    if tuple(got) != computed:
        return "FAIL"
    return "PASS" if computed == advertised else "DISCREPANCY"


def h2_record(group, m, cache) -> dict:
    """``second_cohomology(group, m).to_json()``, read through ``cache``
    when one is given; the key names the universal-coefficient route, so
    no entry another route wrote is served."""
    return _cached(cache, f"h2-uct-{group_digest(group)}-m{m}",
                   lambda: second_cohomology(group, m).to_json())


def _h2_verdict(rows, factors):
    """Worst tag over rows (label, family, parameter, m) of H2_TABLE, the
    predicted values as text, and the failing rows; ``factors(group, m)``
    computes H^2."""
    row_group = functools.cache(_row_group)  # each group table built once
    tags = []
    wanted = []
    bad = []
    for label, family, parameter, m in rows:
        computed, advertised = H2_TABLE[family](parameter, m)
        got = tuple(factors(row_group(family, parameter), m))
        tags.append(h2_tag(got, computed, advertised))
        wanted.append(f"{label} m={m} -> {computed}")
        if tags[-1] == "FAIL":
            bad.append(f"{label} m={m}: got {got}, want {computed}")
    status = max(tags, key=("PASS", "DISCREPANCY", "FAIL").index)
    return status, "; ".join(wanted), "; ".join(bad)


def _check_h2_table(rows, cfg, discrepancy=None, both_routes=False):
    """Check over table rows, cached per group table; ``discrepancy``
    holds the (expected, actual) texts reported when the rows reproduce
    a documented conflict.  With ``both_routes`` every row is also
    computed on the cochain route, and a disagreement fails the check."""
    def factors(group, m):
        got = tuple(h2_record(group, m, cfg.cache)["invariant_factors"])
        if both_routes:
            second = _cochain_second_cohomology(group, m).invariant_factors
            if second != got:
                raise RuntimeError(f"H^2 routes disagree at m={m}: universal "
                                   f"coefficients {got}, cochains {second}")
        return got

    status, expected, bad = _h2_verdict(rows, factors)
    if status == "DISCREPANCY":
        return (status, *discrepancy)
    return status, expected, bad or "all entries match"


def _check_h2_cyclic_rule(cfg):
    rng = np.random.default_rng(cfg.seed + 1)
    pairs = [(int(rng.integers(2, 41)), int(rng.integers(2, 33))) for _ in range(6)]
    status, _, bad = _h2_verdict(
        [(f"Z{n}", "cyclic", n, m) for n, m in pairs],
        lambda group, m: _cochain_second_cohomology(group, m).invariant_factors)
    return (status,
            "H^2 of a cyclic group Z_n with Z_m coefficients is Z_gcd(n,m)",
            bad or f"verified on {pairs}")


# ------------------------------------------------------------ extensions

def _check_extensions_icosahedral(cfg):
    m = 2
    a5 = alternating(5)
    classes = classify_central_extensions(a5, m)
    models = ((f"Z{m} x A5", f"the product Z{m} x A5", direct_product(cyclic(m), a5)),
              ("binary icosahedral", "the binary icosahedral double cover",
               binary_icosahedral()))
    names = [next((name for name, _, model in models if is_isomorphic(c.group, model)),
                  f"unrecognized order {c.group.size}") for c in classes]
    ok = len(classes) == len(models) and all(name in names for name, _, _ in models)
    # names in a fixed order, whatever the order of the listing
    return ("PASS" if ok else "FAIL",
            f"exactly {_number(len(models))} isomorphism types: "
            f"{_series(text for _, text, _ in models)}",
            f"{len(classes)} types: {', '.join(sorted(names))}")


def _check_extensions_octahedral(cfg):
    m = 2
    s4 = symmetric(4)
    classes = classify_central_extensions(s4, m)
    split = direct_product(cyclic(m), s4)
    binary = binary_octahedral()
    found_split = any(is_isomorphic(c.group, split) for c in classes)
    found_binary = any(is_isomorphic(c.group, binary) for c in classes)
    total = sum(c.class_count for c in classes)
    # the classes number |H^2(S4; Z_m)|, the computed value of the table
    want = math.prod(H2_TABLE["octa"](None, m)[0])
    ok = found_split and found_binary and total == want
    return ("PASS" if ok else "FAIL",
            "the binary octahedral double cover and the split product both "
            f"occur among the {want} cohomology classes",
            f"{total} classes in {len(classes)} isomorphism types; "
            f"split={found_split}, binary={found_binary}")


def _icosahedral_covers():
    ms = (2, 4)
    a5 = functools.cache(partial(alternating, 5))  # built once, if a row computes
    return ("unique nontrivial extension of the icosahedral group by Z_m is Z_m "
            "joined with its binary double cover over the common central "
            f"involution, m in {_set_text(ms)}",
            [(f"icosa m={m}", a5, m, binary_icosahedral) for m in ms])


def _dicyclic_covers():
    m, ks = 2, (3, 5)
    return ("nontrivial extension of the dihedral group of order 2k by "
            f"Z_{m} is the dicyclic group of order 4k, k in {_set_text(ks)}",
            [(f"k={k}", partial(dihedral, 2 * k), m, partial(binary_dihedral, 4 * k))
             for k in ks])


def _is_unique_extension(base, m, cover) -> bool:
    found = unique_nontrivial_extension(base(), m)
    return found is not None and is_isomorphic(found, cyclic_central_product(m, cover()))


def _check_extension_models(case, models, cache_prefix, cfg):
    """Z_m joined with ``cover()`` over the central involution is the unique
    nontrivial extension of Z_m by ``base()`` on every row (label, base, m,
    cover) of ``case()``; with ``cache_prefix`` each row's verdict is
    cached under ``{cache_prefix}-m{m}``."""
    expected, rows = case()
    cache = cfg.cache if cache_prefix else None
    bad = [label for label, base, m, cover in rows
           if not _cached(cache, f"{cache_prefix}-m{m}",
                          partial(_is_unique_extension, base, m, cover))]
    if bad:
        return "FAIL", expected, f"mismatch at {', '.join(bad)}"
    return "PASS", expected, f"{_all_of(len(rows))} {models} models verified"


def _klein_exponent(r):
    return (alternating(4), 3**r, klein_by_cyclic3(r), klein_by_cyclic3(r + 1),
            ("advertised 3-power extension of the tetrahedral group keeps the "
             "same cyclic exponent 3^r",
             "realized group needs exponent 3^(r+1): printed model False, "
             f"corrected model True at r={r}"))


def _dicyclic_split(m, k):
    # the printed model reads the order-4k factor as the dicyclic group;
    # with the ordinary dihedral group the product is already the split
    # extension, so only this reading can hold at all
    dicyclic = binary_dihedral(4 * k)
    return (dihedral(2 * k), m, cyclic_central_product(m, dicyclic), inverted_odd_cycle(k, m),
            (f"advertised model at m={m}, k={k} is Z_{m} joined with the "
             f"dicyclic group of order {dicyclic.size} over the central involution",
             "that central product is already the split extension once 4 "
             f"divides m; the realized group is Z_{k} acted on by Z_{2 * (m & -m)} "
             "through inversion (printed False, corrected True)"))


def _check_printed_model(case, params, cfg):
    """DISCREPANCY when the unique nontrivial extension is the corrected
    model, not the printed one; ``case(**params)`` gives (base, m,
    printed, corrected, the discrepancy's expected and actual texts)."""
    base, m, printed_model, corrected_model, discrepancy = case(**params)
    found = unique_nontrivial_extension(base, m)
    printed = found is not None and is_isomorphic(found, printed_model)
    corrected = found is not None and is_isomorphic(found, corrected_model)
    if printed is False and corrected is True:
        return ("DISCREPANCY", *discrepancy)
    where = ", ".join(f"{name}={value}" for name, value in params.items())
    return ("FAIL", f"printed model False and corrected model True at {where}",
            f"printed={printed}, corrected={corrected}")


# ------------------------------------------------------------ embeddings

def _abelian_sample(cfg):
    samples, max_order = 10, 100
    rng = np.random.default_rng(cfg.seed + 2)
    rows = []
    for _ in range(samples):
        a = int(rng.integers(1, 11))
        b = int(rng.integers(1, max_order // a + 1))
        rows.append((f"Z{a} x Z{b}", abelian([a, b]), partial(abelian_so5, (a, b))))
    return (f"{len(rows)} sampled abelian groups of rank at most 2 and order at "
            f"most {max_order} embed faithfully in SO(5)", rows)


def _central_products(cfg):
    ms = (2, 4)
    lifts = (("octa", binary_octahedral()), ("icosa", binary_icosahedral()))
    rows = [(f"{poly} m={m}", cyclic_central_product(m, lift),
             partial(so4_central_product, poly, m))
            for poly, lift in lifts for m in ms]
    return ("Z_m joined with the binary octahedral/icosahedral group over the "
            "central involution embeds faithfully in SO(5), m in "
            f"{_set_text(ms)}", rows)


def _klein_family(cfg):
    cases = ((1, 1), (1, 5), (1, 7), (2, 1))
    rows = [(f"(r,m+)=({r},{m_plus})", direct_product(klein_by_cyclic3(r), cyclic(m_plus)),
             partial(klein_twist, r, m_plus))
            for r, m_plus in cases]
    return ("rank-2 elementary 2-group rotations twisted by a 3-power cycle, "
            "times a coprime cyclic factor, embed faithfully in SO(5) for "
            f"3^r * m+ up to {max(3**r * m_plus for r, m_plus in cases)}", rows)


def _quaternion_u2(cfg):
    r, s = QUATERNION_U2_RS
    return (f"the quaternion group extended by a {QUATERNION_U2_CYCLE}-cycle acts unitarily "
            "on C^2; the realified model embeds faithfully in SO(5)",
            [(f"Q8 by Z{QUATERNION_U2_CYCLE}", q8_by_cyclic3(s + 1),
              partial(u2_mixed, r, s, 1))])


def _dihedral_mixed(cfg):
    m, k = DIHEDRAL_MIXED_MK
    group = binary_dihedral(DIHEDRAL_MIXED_ORDER)
    return (f"the dicyclic group of order {group.size} (m={m}, k={k} mixed "
            "dihedral case) embeds faithfully in SO(5)",
            [(f"dicyclic{group.size}", group, partial(o4_in_so5, m, k))])


def _check_embeddings(case, passed, cfg):
    """Every row (label, group, model thunk) of ``case(cfg)``, which also
    gives the expected text, embeds faithfully in SO(5) by the recipe its
    thunk builds: a closed model is faithful, so a row fails when
    ``embed_into_so5`` refuses its model as another group's.  ``passed``
    formats the PASS text from n (rows), order (last group) and the
    primes modulo which the closures decided the models' tables exactly."""
    expected, rows = case(cfg)
    primes, bad = set(), []
    for label, group, model in rows:
        model = model()
        try:
            primes.add(embed_into_so5(group, model).prime)
        except InvalidInputError:  # the model is not a model of the group
            bad.append(label)
    if bad:
        return "FAIL", expected, f"not faithful: {', '.join(bad)}"
    primes = ", ".join(map(str, sorted(primes)))
    return "PASS", expected, passed.format(n=len(rows), order=rows[-1][1].size, primes=primes)


def _check_embed_two_group(cfg):
    try:
        so5_model("q8")
    except UnsupportedCaseError as exc:
        return ("UNSUPPORTED",
                "2-groups with an index-2 cyclic subgroup have no explicit "
                "recipe and must be refused, not mis-embedded",
                str(exc))
    return "FAIL", "unsupported-case error for the SO(5) model of Q8", "no error raised"


# ----------------------------------------------------------- fixed points

def _so5_models():
    return ("SO(5) models", [(_spec_text(name, params),
                              _padded_to_so5(so5_model(name, *params)).matrices)
                             for name, *params in LEFSCHETZ_SO5_SPECS])


def _pu3_models():
    return ("PU(3) models", [(_spec_text("metacyclic", params), pu3_metacyclic(*params).matrices)
                             for params in LEFSCHETZ_PU3_PARAMS])


def _check_lefschetz_sweep(case, sweep, lefschetz, cfg):
    """chi(Fix) = ``lefschetz`` on every element of the closed groups
    ``case()`` gives as (kind, [(spec, matrices)]), classified by one
    ``sweep`` over their stacked matrices; a failure is named by its
    group and its index there."""
    kind, rows = case()
    result = sweep(np.concatenate([mats for _, mats in rows]))
    count, failures = result["count"], result["failures"]
    expected = (f"chi(Fix) = {lefschetz} = Lefschetz number for every element of the "
                f"{kind} {_series([spec for spec, _ in rows])}")
    tally = f"{count - len(failures)}/{count} pass"
    if failures:
        index = failures[0]
        for spec, mats in rows:
            if index < len(mats):
                break
            index -= len(mats)
        return "FAIL", expected, f"{tally}; first failing element {index} of {spec}"
    strata = ", ".join(f"{label} {n}" for label, n in result["strata"].items())
    return "PASS", expected, f"{tally}; {strata}"


def _check_involution_catalog(cfg):
    entries = involution_catalog()
    bad = [e["label"] for e in entries if e["eq_pass"] != e["expected_pass"]]
    # the conjugation of CP^2 fixes RP^2: chi = 1 and [F]^2 = -1
    euler, square = 1, -1
    conj = next(e for e in entries if e["label"] == "cp2-conjugation")
    conj_ok = conj["fix_euler"] == euler and conj["derived_self_intersection"] == square
    expected = ("chi(Fix) = 2 + [Fix]^2 holds for the conjugation and "
                "holomorphic involutions and rules out the free one; the "
                f"conjugation record reads {euler} = 2 + ({square})")
    if not bad and conj_ok:
        return "PASS", expected, f"{len(entries)}/{len(entries)} catalog entries as predicted"
    return "FAIL", expected, f"mismatched entries: {bad or 'conjugation record'}"


# ------------------------------------------------------- group structure

def _check_gl_order(cfg):
    value = order_gl(GL_DEGREE, GL_PRIME)
    return ("PASS" if value == GL_3_2_ORDER else "FAIL",
            f"|GL({GL_DEGREE}, F_{GL_PRIME})| = {_GL_FACTORS} = {GL_3_2_ORDER}", str(value))


# the groups of cyclic-normal-index-catalog, as (name, constructor)
CYCLIC_INDEX_CATALOG = (
    ("Z30", partial(cyclic, 30)),
    ("D24", partial(dihedral, 24)),
    ("dicyclic24", partial(binary_dihedral, 24)),
    ("A4", partial(alternating, 4)),
    ("S4", partial(symmetric, 4)),
    ("A5", partial(alternating, 5)),
    ("binary tetrahedral", binary_tetrahedral),
    ("binary octahedral", binary_octahedral),
    ("binary icosahedral", binary_icosahedral),
    ("metacyclic(7,3,2)", partial(build_metacyclic, 7, 3, 2)),
)


def _check_cyclic_index_catalog(cfg):
    indices = {name: max_cyclic_normal_index(build()) for name, build in CYCLIC_INDEX_CATALOG}
    ok = (max(indices.values()) <= CYCLIC_INDEX_BOUND
          and indices["A5"] == ICOSAHEDRAL_CYCLIC_INDEX)
    return ("PASS" if ok else "FAIL",
            "every catalog group has a normal cyclic subgroup of index at "
            f"most {CYCLIC_INDEX_BOUND}, with the icosahedral group at exactly "
            f"{ICOSAHEDRAL_CYCLIC_INDEX}",
            ", ".join(f"{name}={idx}" for name, idx in indices.items()))


def _check_family_membership(cfg):
    cases = [
        ("Z15 odd-cyclic", cyclic(15), "odd-cyclic", True),
        ("D24 odd-cyclic", dihedral(24), "odd-cyclic", False),
        ("dicyclic x Z5", direct_product(binary_dihedral(12), cyclic(5)),
         "binary-dihedral-times-odd-cyclic", True),
        ("metacyclic(7,3,2)", build_metacyclic(7, 3, 2),
         "metacyclic-odd-projective", True),
        ("A5 polyhedral", alternating(5), "polyhedral", True),
        ("Q8 polyhedral", quaternion_group(), "polyhedral", False),
        ("Z3 x Z9 rank", abelian([3, 9]), "abelian-rank-le-2", True),
        ("Z2^3 rank", abelian([2, 2, 2]), "abelian-rank-le-2", False),
    ]
    bad = [name for name, g, family, want in cases
           if matches_family(g, family) is not want]
    expected = "structural family tags match hand-checked witnesses"
    if not bad:
        return "PASS", expected, f"{len(cases)}/{len(cases)} witnesses agree"
    return "FAIL", expected, f"mismatches: {', '.join(bad)}"


def _check_classification_lookup(cfg):
    parity = "odd"
    # (b2, the records the lookup must contain, what they state)
    wanted = (
        (1, ("odd-order-structure", "odd-nonabelian-projective-plane"),
         "the structure dichotomy"),
        (2, ("odd-b2-2-cyclic",), "the cyclic branch"),
        (0, ("odd-b2-0-abelian",), "the rank-2 abelian statement"),
    )
    bad = []
    for b2, ids, _ in wanted:
        got = {r.id for r in classify(ClassificationQuery(b2=b2, order_parity=parity))}
        missing = [i for i in ids if i not in got]
        if missing:
            bad.append(f"(b2={b2}, {parity}) lacks {missing}")
    expected = ("the decision table returns "
                f"{_series(f'{what} at b2={b2}' for b2, _, what in wanted)} "
                f"for {parity} order")
    if not bad:
        return "PASS", expected, f"{_all_of(len(wanted))} lookups contain the required records"
    return "FAIL", expected, "; ".join(bad)


_SUITE = (
    ("extent-sharp-at-60", partial(_check_extent_sharp, EXTENT_SHARP_N - 1),
     "The closed-form 5-point extent bound on the lens quotient of deck "
     f"order {EXTENT_SHARP_N - 1} with both rotation exponents 1 is at least pi/3."),
    ("extent-sharp-at-61", partial(_check_extent_sharp, EXTENT_SHARP_N),
     "The closed-form 5-point extent bound on the lens quotient of deck "
     f"order {EXTENT_SHARP_N} with both rotation exponents 1 is strictly below pi/3."),
    ("extent-scan-range", _check_extent_scan,
     f"Every canonical lens quotient with deck order from {EXTENT_SHARP_N} "
     f"to {SCAN_MAX_N} has 5-point extent bound strictly below pi/3."),
    ("fixed-point-budget", _check_budget,
     "Six isolated fixed points of an isometric circle-commuting action "
     "would span twenty geodesic triangles whose angle sum exceeds "
     f"{BUDGET_TRIANGLES}*pi, contradicting the extent bound; hence at most five."),
    ("extent-optimizer-consistency", _check_optimizer_consistency,
     "A maximized q-point spread found by local search never exceeds the "
     "closed-form upper bound on the same quotient."),
    ("sphere-diameter-recovery", _check_sphere_diameter,
     "On the round 3-sphere the optimizer recovers the diameter pi as "
     "the 2-point extent."),
    ("h2-tetrahedral-table",
     partial(_check_h2_table,
             [("A4", "tetra", None, m) for m in (2, 3, 4, 5, 6, 12)]),
     "The degree-2 cohomology of the tetrahedral group with Z_m "
     "coefficients is cyclic of order gcd(6, m)."),
    ("h2-icosahedral-table",
     partial(_check_h2_table, [("A5", "icosa", None, m) for m in (2, 3, 4, 6)]),
     "The degree-2 cohomology of the icosahedral group with Z_m "
     "coefficients is cyclic of order gcd(2, m)."),
    ("h2-dihedral-odd-trivial",
     partial(_check_h2_table,
             [(f"D{n}", "dihedral", n, m) for n in (6, 10) for m in (3, 5)]),
     "Dihedral groups of orders 6 and 10 have trivial degree-2 "
     "cohomology with odd cyclic coefficients."),
    ("h2-dihedral-even-z2",
     partial(_check_h2_table,
             [(f"D{n}", "dihedral", n, m) for n in (6, 10) for m in (2, 4, 6)]),
     "Dihedral groups of orders 6 and 10 have degree-2 cohomology Z_2 "
     "with even cyclic coefficients."),
    ("h2-dihedral-2group-rank3",
     partial(_check_h2_table,
             [(f"D{n}", "dihedral", n, m) for n in (8, 12) for m in (2, 4)]),
     "Dihedral groups of orders 8 and 12 have degree-2 cohomology of "
     "rank 3 over Z_2 with even cyclic coefficients."),
    ("h2-octahedral-discrepancy",
     partial(_check_h2_table, [("S4", "octa", None, m) for m in (2, 3, 4, 6)],
             discrepancy=(
                 "advertised value for even m is a single Z_2",
                 "computed Z_2 x Z_2 for even m: the Schur multiplier "
                 "M(S4) = Z_2 and H_1(S4) = Z_2 give Hom(M(S4), Z_m) + "
                 "Ext(H_1(S4), Z_m) = Z_2 + Z_2, and the cochain route "
                 "agrees; odd m trivial as advertised"),
             both_routes=True),
     "The degree-2 cohomology of the octahedral group with even cyclic "
     "coefficients: advertised as one copy of Z_2, computed as "
     "Z_2 x Z_2, the sum of Hom(M(S4), Z_m) and Ext(H_1(S4), Z_m) with "
     "M(S4) = H_1(S4) = Z_2, on both the universal-coefficient and the "
     "cochain route."),
    ("h2-cyclic-rule", _check_h2_cyclic_rule,
     "The degree-2 cohomology of Z_n with Z_m coefficients is cyclic of "
     "order gcd(n, m)."),
    ("extensions-icosahedral-m2", _check_extensions_icosahedral,
     "The central extensions of the icosahedral group by Z_2 are the "
     "split product and the binary icosahedral group, exactly two "
     "isomorphism types."),
    ("extensions-octahedral-m2", _check_extensions_octahedral,
     "The central extensions of the octahedral group by Z_2 comprise "
     "four cohomology classes and include the split product and the "
     "binary octahedral group."),
    ("extension-binary-covers",
     partial(_check_extension_models, _icosahedral_covers, "central-product",
             "ext-double-cover-icosa"),
     "The unique nontrivial central extension of the icosahedral group "
     "by Z_m (m = 2, 4) is the central product of Z_m with the binary "
     "icosahedral group over the shared involution."),
    ("extension-klein-exponent", partial(_check_printed_model, _klein_exponent, {"r": 1}),
     "The nontrivial central extension of the tetrahedral group by a "
     "3-power: the advertised model keeps exponent 3^r, the realized "
     "group requires 3^(r+1)."),
    ("extension-dicyclic-m2", partial(_check_extension_models, _dicyclic_covers, "dicyclic", None),
     "The nontrivial central extension of the dihedral group of order "
     "2k by Z_2 is the dicyclic group of order 4k, for odd k."),
    ("extension-dicyclic-m4", partial(_check_printed_model, _dicyclic_split, {"m": 4, "k": 3}),
     "The advertised central-product model for the nontrivial extension "
     "of the dihedral group of order 2k by Z_m degenerates once 4 "
     "divides m; the realized group is an odd cycle inverted by a "
     "2-power cycle."),
    ("embed-abelian-sample",
     partial(_check_embeddings, _abelian_sample, "{n}/{n} faithful, exact closure modulo {primes}"),
     "Abelian groups of rank at most 2 act orthogonally on R^5 through "
     "two rotation planes and a fixed axis."),
    ("embed-central-products",
     partial(_check_embeddings, _central_products,
             "{n}/{n} faithful, exact closure modulo {primes}"),
     "Central products of a cyclic 2-power with a binary polyhedral "
     "group act on R^4 by left/right quaternion multiplication, hence "
     "orthogonally on R^5."),
    ("embed-klein-family",
     partial(_check_embeddings, _klein_family, "{n} cases faithful, exact closure modulo {primes}"),
     "The rank-2 elementary 2-group twisted by a 3-power cycle, times a "
     "coprime cyclic factor, acts as rotations on R^3 plus a plane "
     "rotation, hence orthogonally on R^5."),
    ("embed-quaternion-u2",
     partial(_check_embeddings, _quaternion_u2,
             "order {order} faithful, exact closure modulo {primes}"),
     f"The quaternion group extended by a {QUATERNION_U2_CYCLE}-cycle is a unitary subgroup "
     "of U(2); realifying gives a faithful orthogonal action on R^5."),
    ("embed-dihedral-mixed",
     partial(_check_embeddings, _dihedral_mixed, "faithful, exact closure modulo {primes}"),
     f"The dicyclic group of order {DIHEDRAL_MIXED_ORDER} sits in U(2) as the mixed dihedral "
     f"case m={DIHEDRAL_MIXED_MK[0]}, k={DIHEDRAL_MIXED_MK[1]}; realifying gives a faithful "
     "orthogonal action on R^5."),
    ("embed-two-group-unsupported", _check_embed_two_group,
     "2-groups with an index-2 cyclic subgroup carry no printed matrix "
     "recipe; the embedding front end must refuse them explicitly."),
    ("fixedpoint-sphere-batch",
     partial(_check_lefschetz_sweep, _so5_models, lefschetz_sweep_s4, _LEFSCHETZ_S4),
     "Every rotation of the 4-sphere, the identity included, fixes a point "
     f"set of Euler characteristic {_LEFSCHETZ_S4}, its Lefschetz number; the "
     f"sweep covers every element of {_number(len(LEFSCHETZ_SO5_SPECS))} closed "
     "groups that the SO(5) recipes build."),
    ("fixedpoint-plane-batch",
     partial(_check_lefschetz_sweep, _pu3_models, lefschetz_sweep_cp2, _LEFSCHETZ_CP2),
     "Every unitary map of the projective plane fixes a point set of Euler "
     f"characteristic {_LEFSCHETZ_CP2}, its Lefschetz number; the sweep covers "
     f"every element of {_number(len(LEFSCHETZ_PU3_PARAMS))} metacyclic "
     "PU(3) models."),
    ("fixedpoint-involution-catalog", _check_involution_catalog,
     "For a locally linear involution with 2-dimensional fixed set F, "
     "chi(F) = 2 + [F]^2; the conjugation involution realizes "
     "1 = 2 + (-1)."),
    ("gl-order-check", _check_gl_order,
     "The integral automorphisms of the rank-3 odd intersection lattice "
     f"have order {_GL_FACTORS} = {GL_3_2_ORDER} up to 2-torsion."),
    ("cyclic-normal-index-catalog", _check_cyclic_index_catalog,
     "Each catalog group contains a normal cyclic subgroup of index at "
     f"most {CYCLIC_INDEX_BOUND}; the icosahedral group realizes exactly "
     f"{ICOSAHEDRAL_CYCLIC_INDEX}."),
    ("family-membership-spot-checks", _check_family_membership,
     "The structural family tags recognize hand-checked member and "
     "non-member groups."),
    ("classification-lookup", _check_classification_lookup,
     "The classification decision table returns the expected statement "
     "records on the three reference queries."),
)


# extent-optimizer-consistency runs in a forked child beside the other
# checks: it reads only cfg.seed, gets no cache, reads no group memo,
# and is 55-60 % of a run, so on two CPUs a run takes about as long as
# the longer lane, not the sum of both
_SIDE_LANE = ("extent-optimizer-consistency",)


def _run_check(check_id, fn, cfg) -> CheckRecord:
    start = time.perf_counter()
    try:
        status, expected, actual = fn(cfg)
    except Exception as exc:  # a crashed check is a failed check
        status, expected, actual = "FAIL", "check completes", repr(exc)
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return CheckRecord(check_id, status, expected, actual, elapsed)


def _fork_lane(rows, cfg) -> tuple[int, int] | None:
    """Fork a child that runs ``rows`` and pickles their records into a
    pipe; returns its pid and the pipe's read end, or None where this
    process cannot fork."""
    if not hasattr(os, "fork"):
        return None
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    # the child leaves only through os._exit: it never returns into the
    # caller's frames, flushes no inherited stdio buffer and runs no
    # atexit hook; a check that raises SystemExit exits with status 1
    code = 1
    try:
        os.close(read_fd)
        records = [_run_check(check_id, fn, cfg) for check_id, fn, _ in rows]
        with open(write_fd, "wb") as pipe:
            pickle.dump(records, pipe)
        code = 0
    finally:
        os._exit(code)


def _join_lane(rows, pid: int, read_fd: int) -> list[CheckRecord]:
    """Read the child's records to EOF, then reap it.  When it exited
    non-zero or sent nothing readable, each row becomes a FAIL naming
    the exit status; the run time of a lost record is unknown and reads
    0."""
    try:
        with open(read_fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        try:
            return pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError):
            pass
    actual = f"forked check process exited with status {code}"
    if code == 0:
        actual += " and sent no readable record"
    return [CheckRecord(check_id, "FAIL", "check completes", actual, 0)
            for check_id, _, _ in rows]


def verify_all(config: VerifyConfig | None = None) -> dict:
    """Run the whole suite; returns the JSON-ready report.

    The checks of ``_SIDE_LANE`` run in one forked child (POSIX
    ``fork``) while this process runs the others, and each record keeps
    its place in the suite: the report is the one a single lane gives."""
    cfg = config if config is not None else VerifyConfig()
    legend = {}
    for check_id, _, anchor in _SUITE:
        if check_id in legend:
            raise InvalidInputError(f"duplicate check id {check_id!r}")
        legend[check_id] = anchor
    side = [row for row in _SUITE if row[0] in _SIDE_LANE]
    lane = _fork_lane(side, replace(cfg, cache=None)) if side else None
    forked = _SIDE_LANE if lane is not None else ()  # else one lane runs all
    side_records = []
    try:
        records = [_run_check(check_id, fn, cfg) for check_id, fn, _ in _SUITE
                   if check_id not in forked]
    except BaseException:
        if lane is not None:
            os.kill(lane[0], signal.SIGKILL)
        raise
    finally:
        if lane is not None:
            side_records = _join_lane(side, *lane)
    by_id = {record.id: record for record in records + side_records}
    return {
        "version": REPORT_VERSION,
        "seed": cfg.seed,
        "checks": [by_id[check_id].to_json() for check_id in legend],
        "legend": legend,
    }


def without_runtimes(report: dict) -> dict:
    """The report without its ``runtime_ms`` fields: two runs give the same
    report exactly when these are equal."""
    return {**report, "checks": [{k: v for k, v in check.items() if k != "runtime_ms"}
                                 for check in report["checks"]]}


def exit_code(report: dict) -> int:
    """0 when nothing failed (discrepancies are documented, not fatal)."""
    return 1 if any(c["status"] == "FAIL" for c in report["checks"]) else 0
