"""End-to-end verification suite behind the command line.

Every check produces one record with a stable id, a verdict, and
printable expected/actual values.  DISCREPANCY marks the documented
places where the computation contradicts the advertised value without
failing the run; UNSUPPORTED marks inputs that are out of scope by
design.  For a fixed seed the report is deterministic modulo the
runtime fields.  A record's text formats every count, case, bound and
tolerance from the value its check computes with, and checks of one
shape (sharp threshold, SO(5) sweep, printed versus corrected model,
unique extension, Lefschetz batch) share one function.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass
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
from .embeddings import embed_into_so5, is_faithful_rep
from .errors import InvalidInputError, UnsupportedCaseError
from .fixedpoints import (
    _LEFSCHETZ_CP2,
    _LEFSCHETZ_S4,
    batch_lefschetz_cp2,
    batch_lefschetz_s4,
    involution_catalog,
)
from .groups import (
    DEFAULT_TOLERANCE,
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
    canonicalize_lens,
    extent_lower_bound,
    extent_upper_bound,
    isolated_fixed_point_budget,
    scan_extent_threshold,
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
# |GL(3, F_2)|, the automorphisms of the rank-3 odd lattice mod 2-torsion
GL_3_2_ORDER = 168
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
    pairs, abelian embeddings, Lefschetz batches).  ``cache``, when
    set, holds the H^2 tables and the two binary-cover comparisons
    across runs; every other check is recomputed."""

    seed: int = 0
    cache: ResultCache | None = None

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidInputError("seed must fit in 64 unsigned bits")


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
    value = extent_upper_bound(LensParams(n, 1, 1), EXTENT_Q)
    below = n >= EXTENT_SHARP_N
    return ("PASS" if (value < EXTENT_THRESHOLD) == below else "FAIL",
            f"upper bound at deck order {n} {'<' if below else '>='} pi/3 = "
            f"{_fmt(EXTENT_THRESHOLD)}", _fmt(value))


def _check_extent_scan(cfg):
    bad = scan_extent_threshold(EXTENT_SHARP_N, SCAN_MAX_N, EXTENT_Q, EXTENT_THRESHOLD)
    expected = (f"0 quotients with bound >= pi/3 for deck order in "
                f"[{EXTENT_SHARP_N}, {SCAN_MAX_N}]")
    if not bad:
        return "PASS", expected, "0 violations"
    worst = max(bad, key=lambda row: row.upper_bound)
    return ("FAIL", expected,
            f"{len(bad)} violations, e.g. (n,k,l)=({worst.n},{worst.k},{worst.l}) "
            f"bound {_fmt(worst.upper_bound)}")


def _check_budget(cfg):
    bound = extent_upper_bound(LensParams(EXTENT_SHARP_N, 1, 1), EXTENT_Q)
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
        worst_gap = max(worst_gap, report.lower_bound - report.upper_bound)
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


def h2_record(group, m, cache=None) -> dict:
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
        rows.append((f"Z{a} x Z{b}", abelian([a, b]), {"kind": "abelian"}))
    return (f"{len(rows)} sampled abelian groups of rank at most 2 and order at "
            f"most {max_order} embed faithfully in SO(5), residual < "
            f"{_tolerance_text(DEFAULT_TOLERANCE)}", rows)


def _central_products(cfg):
    ms = (2, 4)
    lifts = (("octa", binary_octahedral()), ("icosa", binary_icosahedral()))
    rows = [(f"{poly} m={m}", cyclic_central_product(m, lift),
             {"kind": "central-product", "poly": poly, "m": m})
            for poly, lift in lifts for m in ms]
    return ("Z_m joined with the binary octahedral/icosahedral group over the "
            "central involution embeds faithfully in SO(5), m in "
            f"{_set_text(ms)}", rows)


def _klein_family(cfg):
    cases = ((1, 1), (1, 5), (1, 7), (2, 1))
    rows = [(f"(r,m+)=({r},{m_plus})", direct_product(klein_by_cyclic3(r), cyclic(m_plus)),
             {"kind": "klein-3power", "power": r, "m_plus": m_plus})
            for r, m_plus in cases]
    return ("rank-2 elementary 2-group rotations twisted by a 3-power cycle, "
            "times a coprime cyclic factor, embed faithfully in SO(5) for "
            f"3^r * m+ up to {max(3**r * m_plus for r, m_plus in cases)}", rows)


def _quaternion_u2(cfg):
    r, s = 1, 1
    cycle = 3 ** (s + 1)
    return (f"the quaternion group extended by a {cycle}-cycle acts unitarily "
            "on C^2; the realified model embeds faithfully in SO(5)",
            [(f"Q8 by Z{cycle}", q8_by_cyclic3(s + 1),
              {"kind": "u2-mixed", "r": r, "s": s, "m_plus": 1})])


def _dihedral_mixed(cfg):
    m, k = 2, 3
    group = binary_dihedral(2 * k * m)
    return (f"the dicyclic group of order {group.size} (m={m}, k={k} mixed "
            "dihedral case) embeds faithfully in SO(5)",
            [(f"dicyclic{group.size}", group, {"kind": "dihedral-mixed", "m": m, "k": k})])


def _check_embeddings(case, passed, cfg):
    """Every row (label, group, hint) of ``case(cfg)``, which also gives
    the expected text, embeds faithfully in SO(5); ``passed`` formats the
    PASS text from n (rows), order (last group) and residual (largest)."""
    expected, rows = case(cfg)
    worst = 0.0
    bad = []
    for label, group, hint in rows:
        rep = embed_into_so5(group, hint)
        worst = max(worst, float(rep.homomorphism_residual()))
        if not is_faithful_rep(rep):
            bad.append(label)
    if bad:
        return "FAIL", expected, f"not faithful: {', '.join(bad)}"
    return "PASS", expected, passed.format(n=len(rows), order=group.size, residual=worst)


def _check_embed_two_group(cfg):
    try:
        embed_into_so5(abelian([2, 2, 2]), {"kind": "two-group"})
    except UnsupportedCaseError as exc:
        return ("UNSUPPORTED",
                "2-groups with an index-2 cyclic subgroup have no explicit "
                "recipe and must be refused, not mis-embedded",
                str(exc))
    return "FAIL", "unsupported-case error for the 2-group hint", "no error raised"


# ----------------------------------------------------------- fixed points

def _check_lefschetz_batch(batch, offset, lefschetz, maps, cfg):
    """chi(Fix) = ``lefschetz`` on a ``batch`` of random ``maps``."""
    # the batches take 64-bit seeds; below 2^64 - offset this is seed + offset
    result = batch(seed=(cfg.seed + offset) % 2**64)
    count, failures = result["count"], result["failures"]
    expected = f"chi(Fix) = {lefschetz} = Lefschetz number for {count} random {maps}"
    tally = f"{count - len(failures)}/{count} pass"
    if failures:
        return "FAIL", expected, f"{tally}; first failing draw {failures[0]}"
    return "PASS", expected, tally


def _check_involution_catalog(cfg):
    entries = involution_catalog()
    bad = [e["label"] for e in entries
           if e["result"]["eq_pass"] != e["expected_pass"]]
    # the conjugation of CP^2 fixes RP^2: chi = 1 and [F]^2 = -1
    euler, square = 1, -1
    conj = next(e for e in entries if e["label"] == "cp2-conjugation")
    conj_ok = (conj["data"].fix_euler == euler
               and conj["result"]["derived_self_intersection"] == square)
    expected = ("chi(Fix) = 2 + [Fix]^2 holds for the conjugation and "
                "holomorphic involutions and rules out the free one; the "
                f"conjugation record reads {euler} = 2 + ({square})")
    if not bad and conj_ok:
        return "PASS", expected, f"{len(entries)}/{len(entries)} catalog entries as predicted"
    return "FAIL", expected, f"mismatched entries: {bad or 'conjugation record'}"


# ------------------------------------------------------- group structure

def _check_gl_order(cfg):
    n, p = 3, 2
    value = order_gl(n, p)
    factors = "".join(f"({p}^{n}-{p**i})" for i in range(n))
    return ("PASS" if value == GL_3_2_ORDER else "FAIL",
            f"|GL({n}, F_{p})| = {factors} = {GL_3_2_ORDER}", str(value))


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
    claim = next(record for _, record in _STATEMENTS
                 if record.id == "normal-cyclic-index-120")
    bound = dict(claim.bounds)["cyclic_normal_index"]
    indices = {name: max_cyclic_normal_index(build()) for name, build in CYCLIC_INDEX_CATALOG}
    ok = max(indices.values()) <= bound and indices["A5"] == ICOSAHEDRAL_CYCLIC_INDEX
    return ("PASS" if ok else "FAIL",
            "every catalog group has a normal cyclic subgroup of index at "
            f"most {bound}, with the icosahedral group at exactly {ICOSAHEDRAL_CYCLIC_INDEX}",
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
     "order 60 with both rotation exponents 1 is at least pi/3."),
    ("extent-sharp-at-61", partial(_check_extent_sharp, EXTENT_SHARP_N),
     "The closed-form 5-point extent bound on the lens quotient of deck "
     "order 61 with both rotation exponents 1 is strictly below pi/3."),
    ("extent-scan-range", _check_extent_scan,
     f"Every canonical lens quotient with deck order from {EXTENT_SHARP_N} "
     f"to {SCAN_MAX_N} has 5-point extent bound strictly below pi/3."),
    ("fixed-point-budget", _check_budget,
     "Six isolated fixed points of an isometric circle-commuting action "
     "would span twenty geodesic triangles whose angle sum exceeds "
     "20*pi, contradicting the extent bound; hence at most five."),
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
     partial(_check_embeddings, _abelian_sample, "{n}/{n} faithful, max residual {residual:.2e}"),
     "Abelian groups of rank at most 2 act orthogonally on R^5 through "
     "two rotation planes and a fixed axis."),
    ("embed-central-products",
     partial(_check_embeddings, _central_products,
             "{n}/{n} faithful, max residual {residual:.2e}"),
     "Central products of a cyclic 2-power with a binary polyhedral "
     "group act on R^4 by left/right quaternion multiplication, hence "
     "orthogonally on R^5."),
    ("embed-klein-family",
     partial(_check_embeddings, _klein_family, "{n} cases faithful, max residual {residual:.2e}"),
     "The rank-2 elementary 2-group twisted by a 3-power cycle, times a "
     "coprime cyclic factor, acts as rotations on R^3 plus a plane "
     "rotation, hence orthogonally on R^5."),
    ("embed-quaternion-u2",
     partial(_check_embeddings, _quaternion_u2, "order {order} faithful, residual {residual:.2e}"),
     "The quaternion group extended by a 9-cycle is a unitary subgroup "
     "of U(2); realifying gives a faithful orthogonal action on R^5."),
    ("embed-dihedral-mixed",
     partial(_check_embeddings, _dihedral_mixed, "faithful, residual {residual:.2e}"),
     "The dicyclic group of order 12 sits in U(2) as the mixed dihedral "
     "case m=2, k=3; realifying gives a faithful orthogonal action on "
     "R^5."),
    ("embed-two-group-unsupported", _check_embed_two_group,
     "2-groups with an index-2 cyclic subgroup carry no printed matrix "
     "recipe; the embedding front end must refuse them explicitly."),
    ("fixedpoint-sphere-batch",
     partial(_check_lefschetz_batch, batch_lefschetz_s4, 3, _LEFSCHETZ_S4,
             "rotations of the 4-sphere"),
     "A nontrivial rotation of the 4-sphere fixes a point set of Euler "
     "characteristic 2, its Lefschetz number."),
    ("fixedpoint-plane-batch",
     partial(_check_lefschetz_batch, batch_lefschetz_cp2, 4, _LEFSCHETZ_CP2,
             "unitary maps of the projective plane"),
     "A unitary map of the projective plane fixes a point set of Euler "
     "characteristic 3, its Lefschetz number."),
    ("fixedpoint-involution-catalog", _check_involution_catalog,
     "For a locally linear involution with 2-dimensional fixed set F, "
     "chi(F) = 2 + [F]^2; the conjugation involution realizes "
     "1 = 2 + (-1)."),
    ("gl-order-check", _check_gl_order,
     "The integral automorphisms of the rank-3 odd intersection lattice "
     "have order (2^3-1)(2^3-2)(2^3-4) = 168 up to 2-torsion."),
    ("cyclic-normal-index-catalog", _check_cyclic_index_catalog,
     "Each catalog group contains a normal cyclic subgroup of index at "
     "most 120; the icosahedral group realizes exactly 60."),
    ("family-membership-spot-checks", _check_family_membership,
     "The structural family tags recognize hand-checked member and "
     "non-member groups."),
    ("classification-lookup", _check_classification_lookup,
     "The classification decision table returns the expected statement "
     "records on the three reference queries."),
)


def verify_all(config: VerifyConfig | None = None) -> dict:
    """Run the whole suite; returns the JSON-ready report."""
    cfg = config if config is not None else VerifyConfig()
    checks = []
    legend = {}
    for check_id, fn, anchor in _SUITE:
        if check_id in legend:
            raise InvalidInputError(f"duplicate check id {check_id!r}")
        start = time.perf_counter()
        try:
            status, expected, actual = fn(cfg)
        except Exception as exc:  # a crashed check is a failed check
            status, expected, actual = "FAIL", "check completes", repr(exc)
        elapsed = int(round((time.perf_counter() - start) * 1000))
        checks.append(CheckRecord(check_id, status, expected, actual, elapsed))
        legend[check_id] = anchor
    return {
        "version": REPORT_VERSION,
        "seed": cfg.seed,
        "checks": [record.to_json() for record in checks],
        "legend": legend,
    }


def exit_code(report: dict) -> int:
    """0 when nothing failed (discrepancies are documented, not fatal)."""
    return 1 if any(c["status"] == "FAIL" for c in report["checks"]) else 0
