import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import isom4.cohomology
from isom4.cohomology import (
    Cochain2,
    CohomologyResult,
    _checked_extension,
    _class_basis,
    _coboundary_matrix,
    _cochain_second_cohomology,
    _local_cohomology,
    _nonidentity,
    _prime_powers,
    _verify_distinct_classes,
    build_central_extension,
    classify_central_extensions,
    cocycle_representatives,
    group_digest,
    second_cohomology,
    unique_nontrivial_extension,
)
from isom4.errors import BudgetError, InvalidInputError, InvalidParametersError
from isom4.groups import (
    _GROUP_TABLE,
    FiniteGroup,
    abelian,
    alternating,
    binary_dihedral,
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    build_group,
    cyclic,
    cyclic_central_product,
    dihedral,
    direct_product,
    inverted_odd_cycle,
    is_isomorphic,
    klein_by_cyclic3,
    minimal_generating_set,
    q8_by_cyclic3,
    sylow_subgroup,
    symmetric,
)
from isom4.snf import solve_mod_prime_power
from isom4.verify import _SUITE, VerifyConfig

_CHECKS = {check_id: check for check_id, check, _ in _SUITE}
_check_extension_klein_exponent = _CHECKS["extension-klein-exponent"]
_check_extension_dicyclic_m4 = _CHECKS["extension-dicyclic-m4"]


def factors(group, m):
    return second_cohomology(group, m).invariant_factors


# --- tables ----------------------------------------------------------------


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12))
def test_cyclic_rule(n, m):
    g = math.gcd(n, m)
    assert factors(cyclic(n), m) == ((g,) if g > 1 else ())


def test_tetrahedral_table():
    a4 = alternating(4)
    for m in (2, 3, 4, 5, 6, 12):
        g = math.gcd(6, m)
        assert factors(a4, m) == ((g,) if g > 1 else ()), f"m={m}"


def test_icosahedral_small_moduli():
    a5 = alternating(5)
    assert factors(a5, 2) == (2,)
    assert factors(a5, 3) == ()


def test_icosahedral_large_two_power():
    # universal coefficients: M(A5) = Z_2 and H_1 = 0, found from one
    # solve on the Klein four Sylow subgroup mod 4 and one on A5 mod 2;
    # nothing is solved mod 2^5
    assert factors(alternating(5), 32) == (2,)


# one group per table name of order at most 60 (binary-icosa has 120),
# two parameters where the name takes one
ROUTE_GROUPS = [
    ("cyclic", 12), ("cyclic", 8), ("abelian", 2, 2, 4), ("abelian", 3, 3),
    ("abelian", 4, 4), ("dihedral", 8), ("dihedral", 12), ("dihedral", 24),
    ("tetra",), ("octa",), ("icosa",), ("q8",), ("binary-tetra",),
    ("binary-octa",), ("binary-dihedral", 12), ("binary-dihedral", 16),
    ("metacyclic", 7, 3, 2), ("metacyclic", 13, 3, 3), ("klein-by-3power", 1),
    ("klein-by-3power", 2), ("q8-by-3power", 1),
]


def test_route_groups_cover_the_group_table():
    assert {spec[0] for spec in ROUTE_GROUPS} == set(_GROUP_TABLE) - {"binary-icosa"}
    assert all(build_group(*spec).size <= 60 for spec in ROUTE_GROUPS)


@pytest.mark.parametrize("spec", ROUTE_GROUPS, ids=lambda spec: ":".join(map(str, spec)))
def test_routes_agree(spec):
    group = build_group(*spec)
    for m in (2, 3, 4, 6, 8, 9, 12, 16, 32, 64):
        uct = second_cohomology(group, m)
        cochain = _cochain_second_cohomology(group, m)
        assert (uct.route, cochain.route) == ("uct", "cochain")
        assert uct.invariant_factors == cochain.invariant_factors, f"m={m}"


@pytest.mark.parametrize("spec", [("dihedral", 8), ("q8",), ("abelian", 2, 2, 4)],
                         ids=lambda spec: ":".join(map(str, spec)))
def test_p_group_solves_once_per_prime(spec, monkeypatch):
    # Q is its own Sylow 2-subgroup, so the solve mod |Q| already gives
    # M(Q) + H_1(Q) and nothing is solved again at the exponent of M(Q)
    group = build_group(*spec)
    calls = []

    def counted(g, p, a):
        calls.append(p)
        return _local_cohomology(g, p, a)

    monkeypatch.setattr(isom4.cohomology, "_local_cohomology", counted)
    uct = second_cohomology(group, 8)
    assert calls == [2]
    monkeypatch.undo()
    assert uct.invariant_factors == _cochain_second_cohomology(group, 8).invariant_factors


def counting_local_solves(monkeypatch):
    """Record (group object, p, a) for every _local_cohomology solve."""
    calls = []

    def counted(g, p, a):
        calls.append((g, p, a))
        return _local_cohomology(g, p, a)

    monkeypatch.setattr(isom4.cohomology, "_local_cohomology", counted)
    return calls


def test_schur_multiplier_solved_once_per_group_object(monkeypatch):
    # M(A5)_2 is found by solving A5 mod 2 once; m = 4 and m = 6 read it
    # off the object, and a fresh A5 object solves again
    calls = counting_local_solves(monkeypatch)
    a5 = alternating(5)
    results = [second_cohomology(a5, m).invariant_factors for m in (2, 4, 6)]
    assert results == [(2,), (2,), (2,)]
    assert [(p, a) for g, p, a in calls if g is a5] == [(2, 1)]
    assert second_cohomology(alternating(5), 4).invariant_factors == (2,)
    assert [(p, a) for g, p, a in calls if g.size == 60] == [(2, 1), (2, 1)]


def test_cochain_route_solves_at_every_modulus(monkeypatch):
    # the cross-check reads nothing the group object holds
    calls = counting_local_solves(monkeypatch)
    a5 = alternating(5)
    second_cohomology(a5, 2)
    del calls[:]
    for m in (2, 4, 6):
        _cochain_second_cohomology(a5, m)
    assert [(p, a) for g, p, a in calls] == [(2, 1), (2, 2), (2, 1), (3, 1)]


def test_class_basis_reads_the_held_sylow_part(monkeypatch):
    # Q8 x| Z_3 has H_1 = Z_3 and Sylow 2-subgroup Q8 with M(Q8) = 0, so
    # the class basis at m = 2 and m = 4 rests on one solve of Q8 mod 8
    calls = counting_local_solves(monkeypatch)
    group = build_group("q8-by-3power", 1)
    assert [len(cocycle_representatives(group, m)) for m in (2, 4)] == [1, 1]
    assert [(g.size, p, a) for g, p, a in calls] == [(8, 2, 3)]


@pytest.mark.parametrize("spec", [("icosa",), ("octa",), ("binary-octa",),
                                  ("dihedral", 24), ("metacyclic", 7, 3, 2),
                                  ("q8-by-3power", 1), ("abelian", 2, 30),
                                  ("cyclic", 1)])
def test_sylow_subgroup_has_full_prime_power_order(spec):
    group = build_group(*spec)
    for p in (2, 3, 5, 7, 11):
        els = sylow_subgroup(group, p)
        full = p ** max((a for a in range(8) if group.size % p**a == 0))
        assert els.size == full, f"p={p}"
        assert group.is_subgroup(els)
        assert all(full % o == 0 for o in group.element_orders[els])


def test_sylow_subgroup_needs_a_prime():
    with pytest.raises(InvalidParametersError):
        sylow_subgroup(alternating(5), 4)


def test_icosahedral_bases_carry_across_two_powers():
    # H_1(A5) = 0 and M(A5) = Z_2, so the basis mod 2^a is 2^(a-1) times
    # the basis mod 2; each representative is still checked exactly
    a5 = alternating(5)
    base = cocycle_representatives(a5, 2)[1].values
    for m in (4, 8, 32, 64):
        reps = cocycle_representatives(a5, m)
        assert [r.class_order for r in reps] == [1, 2], f"m={m}"
        assert all(r.is_cocycle() for r in reps)
        assert np.array_equal(reps[1].values, (m // 2) * base)


@pytest.mark.parametrize("group", [dihedral(8), direct_product(cyclic(2), alternating(4))],
                         ids=["D8", "Z2xA4"])
def test_prime_dividing_h1_solves_at_full_power(group):
    # 2 divides |H_1|, so Ext(H_1, Z_8) is not zero and the basis mod 8
    # is the full solve mod 8, not a carried one
    basis = _class_basis(group, 8)
    orders, gens = _local_cohomology(group, 2, 3)
    assert basis.factor_orders == orders
    assert np.array_equal(basis.generators, gens)
    assert second_cohomology(group, 8) == CohomologyResult(
        _cochain_second_cohomology(group, 8).invariant_factors)
    reps = cocycle_representatives(group, 8)
    assert len(reps) == math.prod(orders)
    assert all(r.is_cocycle() for r in reps)


def test_dihedral_tables():
    for order in (6, 10):
        assert factors(dihedral(order), 3) == ()
        assert factors(dihedral(order), 2) == (2,)
        assert factors(dihedral(order), 4) == (2,)
    for order in (8, 12):
        assert factors(dihedral(order), 2) == (2, 2, 2)
        # reflections invert the rotation part, so no odd torsion survives
        assert factors(dihedral(order), 3) == ()


def test_octahedral_rank_two():
    s4 = symmetric(4)
    assert factors(s4, 2) == (2, 2)
    assert factors(s4, 3) == ()
    assert factors(s4, 4) == (2, 2)


def test_klein_rank_three():
    assert factors(abelian([2, 2]), 2) == (2, 2, 2)


def test_trivial_modulus():
    assert factors(alternating(4), 1) == ()


def test_trivial_group():
    reps = cocycle_representatives(cyclic(1), 3)
    assert len(reps) == 1 and reps[0].class_order == 1
    assert factors(cyclic(1), 4) == _cochain_second_cohomology(cyclic(1), 4).invariant_factors == ()


# --- representatives and extensions ------------------------------------------


def test_representatives_satisfy_cocycle_identity():
    a4 = alternating(4)
    reps = cocycle_representatives(a4, 2)
    assert len(reps) == 2
    assert all(r.is_cocycle() for r in reps)
    assert reps[0].class_order == 1
    assert not reps[0].values.any()
    assert reps[1].class_order == 2


def test_representative_orders_partition_group():
    d8 = dihedral(8)
    reps = cocycle_representatives(d8, 2)
    assert len(reps) == 8
    assert sorted(r.class_order for r in reps) == [1, 2, 2, 2, 2, 2, 2, 2]


def test_zero_cocycle_builds_split_extension():
    s3 = dihedral(6)
    zero = Cochain2(s3, 4, np.zeros((6, 6), dtype=np.int64))
    ext = build_central_extension(s3, 4, zero)
    assert is_isomorphic(ext, direct_product(cyclic(4), s3))


def test_extension_rejects_foreign_cochain():
    s3, z3 = dihedral(6), cyclic(3)
    zero = Cochain2(z3, 2, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(InvalidInputError):
        build_central_extension(s3, 2, zero)
    wrong_mod = Cochain2(s3, 2, np.zeros((6, 6), dtype=np.int64))
    with pytest.raises(InvalidInputError):
        build_central_extension(s3, 4, wrong_mod)


def test_extension_rejects_non_cocycle():
    z3 = cyclic(3)
    vals = np.zeros((3, 3), dtype=np.int64)
    vals[1, 1] = 1  # f(x, x) = 1 with f(x, x^2) = 0 breaks associativity
    f = Cochain2(z3, 2, vals)
    assert not f.is_cocycle()
    with pytest.raises(InvalidInputError):
        build_central_extension(z3, 2, f)


_SMALL_BASES = (lambda: cyclic(3), lambda: cyclic(4), lambda: dihedral(6),
                lambda: abelian([2, 2]), lambda: dihedral(8))


@st.composite
def _normalized_cochains(draw):
    """(group, m, f): f a class representative, a representative with
    one value moved, or a random normalized cochain."""
    group = draw(st.sampled_from(_SMALL_BASES))()
    m = draw(st.sampled_from([2, 3, 4]))
    n = group.size
    source = draw(st.sampled_from(["representative", "perturbed", "random"]))
    if source == "random":
        values = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n * n,
                                        max_size=n * n))).reshape(n, n)
    else:
        reps = cocycle_representatives(group, m)
        values = reps[draw(st.integers(0, len(reps) - 1))].values.copy()
        if source == "perturbed":
            values[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += \
                draw(st.integers(1, m - 1))
    values[group.identity, :] = 0
    values[:, group.identity] = 0
    return group, m, Cochain2(group, m, values)


@given(_normalized_cochains())
def test_extension_refused_exactly_off_the_cocycles(case):
    # the twisted table's validation as a group decides the cocycle
    # identity: build_central_extension refuses exactly the cochains
    # is_cocycle rejects
    group, m, f = case
    try:
        build_central_extension(group, m, f)
    except InvalidInputError as exc:
        assert str(exc) == "cochain does not satisfy the cocycle identity"
        assert not f.is_cocycle()
    else:
        assert f.is_cocycle()


def _coboundary_of(group, c, m):
    """The table of the coboundary of the 1-cochain c, zero at the
    identity: (g, h) -> c(g) + c(h) - c(gh) mod m."""
    c = np.array(c, dtype=np.int64)
    c[group.identity] = 0
    return (c[:, None] + c[None, :] - c[group.table]) % m


def _solvable(bnd, vec, m):
    return all(solve_mod_prime_power(bnd, vec, p, a) is not None for p, a in _prime_powers(m))


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("spec", [("cyclic", 4), ("cyclic", 6), ("dihedral", 6),
                                  ("dihedral", 8), ("tetra",), ("octa",)],
                         ids=lambda spec: ":".join(map(str, spec)))
def test_generator_pair_rows_decide_coboundaries(spec, m):
    # a difference of representatives, plus a planted coboundary or not,
    # is a coboundary on the generator-pair rows of d1 exactly when it
    # is one on the whole d1 system, and exactly when the two
    # representatives are the same
    group = build_group(*spec)
    reps = cocycle_representatives(group, m)
    gens, noni = minimal_generating_set(group), _nonidentity(group)
    full, rows = _coboundary_matrix(group, noni), _coboundary_matrix(group, gens)
    assert full.shape == ((group.size - 1) ** 2, group.size - 1)
    assert rows.shape == (len(gens) * (group.size - 1), group.size - 1)
    rng = np.random.default_rng(group.size * m)
    for a in reps:
        for b in reps:
            for c in (np.zeros(group.size), rng.integers(0, m, group.size)):
                diff = (a.values - b.values + _coboundary_of(group, c, m)) % m
                on_full = _solvable(full, diff[np.ix_(noni, noni)].reshape(-1), m)
                on_gens = _solvable(rows, diff[np.ix_(gens, noni)].reshape(-1), m)
                assert on_full == on_gens == (a is b)


@pytest.mark.parametrize("spec, m", [(("tetra",), 6), (("dihedral", 8), 2), (("icosa",), 4)],
                         ids=["tetra-6", "dihedral:8-2", "icosa-4"])
def test_planted_cohomologous_pair_is_refused(spec, m):
    group = build_group(*spec)
    reps = cocycle_representatives(group, m)
    c = np.random.default_rng(m).integers(1, m, group.size)
    twin = Cochain2(group, m, reps[-1].values + _coboundary_of(group, c, m))
    assert twin.is_cocycle() and not np.array_equal(twin.values, reps[-1].values)
    with pytest.raises(RuntimeError, match="representatives are cohomologous"):
        _verify_distinct_classes(group, m, [*reps, twin])


def test_extension_refuses_a_projection_off_the_base_group():
    # relabel (a, q) -> (a, tau(q)) in the twisted table, tau swapping a
    # rotation and a reflection of D6, so no automorphism: the result
    # is still a group, its fiber is still central and cyclic, and its
    # quotient by the fiber is still isomorphic to D6, but (a, q) -> q
    # is no longer a homomorphism
    group, m = dihedral(6), 2
    ext = build_central_extension(group, m, cocycle_representatives(group, m)[-1])
    n = group.size
    rotation, reflection = 1, 3
    assert group.element_orders[[rotation, reflection]].tolist() == [3, 2]
    a, q = np.divmod(np.arange(m * n), n)
    tau = np.arange(n)
    tau[[rotation, reflection]] = [reflection, rotation]
    sigma = a * n + tau[q]
    relabelled = np.empty_like(ext.table)
    relabelled[np.ix_(sigma, sigma)] = sigma[ext.table]
    fiber = np.arange(m) * n + group.identity
    assert is_isomorphic(FiniteGroup(relabelled).quotient(fiber)[0], group)
    with pytest.raises(InvalidInputError, match="extension quotient is not the base group"):
        _checked_extension(group, m, FiniteGroup(relabelled))
    assert _checked_extension(group, m, ext) is ext


def test_icosahedral_classification():
    classes = classify_central_extensions(alternating(5), 2)
    assert len(classes) == 2
    assert sum(c.class_count for c in classes) == 2
    split = [c for c in classes if c.class_orders == (1,)]
    twisted = [c for c in classes if c.class_orders == (2,)]
    assert len(split) == 1 and len(twisted) == 1
    assert is_isomorphic(split[0].group,
                         direct_product(cyclic(2), alternating(5)))
    assert is_isomorphic(twisted[0].group, binary_icosahedral())


def test_tetrahedral_classification():
    # H^2(A4; Z_2) = Z_2: the split Z2 x A4 and the binary tetrahedral
    # group, so two classes in two isomorphism types
    classes = classify_central_extensions(alternating(4), 2)
    assert len(classes) == 2
    assert sum(c.class_count for c in classes) == 2
    assert sorted(c.class_orders for c in classes) == [(1,), (2,)]
    assert any(is_isomorphic(c.group, direct_product(cyclic(2), alternating(4)))
               for c in classes)
    assert any(is_isomorphic(c.group, binary_tetrahedral()) for c in classes)


@pytest.mark.parametrize("m", [4, 8])
def test_dihedral_listing_ignores_representative_order(monkeypatch, m):
    # the types are listed by invariants of each extension group, so
    # feeding the representatives in reverse changes nothing
    def listing():
        return [(c.group.size, c.group.abelian_invariants, c.class_count, c.class_orders)
                for c in classify_central_extensions(dihedral(8), m)]

    forward = listing()
    reps = cocycle_representatives(dihedral(8), m)
    monkeypatch.setattr(isom4.cohomology, "cocycle_representatives",
                        lambda group, mm: reps[::-1])
    assert listing() == forward
    keys = [c.key for c in classify_central_extensions(dihedral(8), m)]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_octahedral_classification():
    classes = classify_central_extensions(symmetric(4), 2)
    assert len(classes) == 4
    assert all(c.group.size == 48 for c in classes)
    assert all(c.class_count == 1 for c in classes)
    assert any(is_isomorphic(c.group, direct_product(cyclic(2), symmetric(4)))
               for c in classes)
    assert any(is_isomorphic(c.group, binary_octahedral()) for c in classes)


# --- model comparisons --------------------------------------------------------


def test_double_cover_not_unique_for_octahedral():
    # four distinct extension types, so the uniqueness premise fails
    assert unique_nontrivial_extension(symmetric(4), 2) is None


def test_dicyclic_model_by_residue():
    # Z_m joined with the dicyclic group of order 12 is the realized
    # group only when m = 2 mod 4; the corrected model holds at every m
    for m, printed in ((2, True), (4, False)):
        found = unique_nontrivial_extension(dihedral(6), m)
        assert is_isomorphic(found, cyclic_central_product(m, binary_dihedral(12))) == printed
        assert is_isomorphic(found, inverted_odd_cycle(3, m))


def test_klein_exponent_variants():
    # the printed exponent 3^r fails at r = 1; the realized group needs 3^(r+1)
    found = unique_nontrivial_extension(alternating(4), 3)
    assert not is_isomorphic(found, klein_by_cyclic3(1))
    assert is_isomorphic(found, klein_by_cyclic3(2))


@pytest.mark.parametrize("check", [_check_extension_klein_exponent,
                                   _check_extension_dicyclic_m4],
                         ids=["klein-exponent", "dicyclic-m4"])
def test_extension_checks_classify_once(check, monkeypatch):
    # each check compares one realized extension with a printed and a
    # corrected model, so it classifies that extension once
    calls = []
    classify = isom4.cohomology.classify_central_extensions

    def counted(group, m):
        calls.append(m)
        return classify(group, m)

    monkeypatch.setattr(isom4.cohomology, "classify_central_extensions", counted)
    assert check(VerifyConfig())[0] == "DISCREPANCY"
    assert len(calls) == 1


def test_tstar_model():
    # A4 by Z_2, class order exactly 2: the binary tetrahedral group
    found = [c.group for c in classify_central_extensions(alternating(4), 2)
             if 2 in c.class_orders]
    assert len(found) == 1 and is_isomorphic(found[0], binary_tetrahedral())


def test_q8_mixed_model():
    # A4 by Z_6, class order divisible by 6: Q8 extended by a 9-cycle
    found = [c.group for c in classify_central_extensions(alternating(4), 6)
             if any(o % 6 == 0 for o in c.class_orders)]
    assert len(found) == 1 and is_isomorphic(found[0], q8_by_cyclic3(2))


# --- guardrails and records ----------------------------------------------------


def test_caps():
    with pytest.raises(BudgetError):
        second_cohomology(cyclic(61), 2)
    with pytest.raises(BudgetError):
        second_cohomology(cyclic(3), 65)


def test_cochain_validation():
    z3 = cyclic(3)
    with pytest.raises(InvalidInputError):
        Cochain2(z3, 2, np.zeros((2, 2), dtype=np.int64))
    bad = np.ones((3, 3), dtype=np.int64)
    with pytest.raises(InvalidInputError):
        Cochain2(z3, 2, bad)  # nonzero along the identity row


def test_cohomology_result_validation():
    assert CohomologyResult((2, 4)).order == 8
    assert CohomologyResult(()).order == 1
    assert CohomologyResult((2,), route="cochain").to_json() == {
        "invariant_factors": [2], "order": 2, "route": "cochain"}
    with pytest.raises(InvalidInputError):
        CohomologyResult((2,), route="spectral")
    with pytest.raises(InvalidInputError):
        CohomologyResult((1, 2))
    with pytest.raises(InvalidInputError):
        CohomologyResult((4, 2))


def test_group_digest_stability():
    a = group_digest(cyclic(5))
    assert a == group_digest(cyclic(5))
    assert a != group_digest(cyclic(6))
    assert all(c in "0123456789abcdef" for c in a)
    assert len(a) == 16
