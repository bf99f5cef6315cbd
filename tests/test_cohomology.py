import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import isom4.cohomology
from isom4.cohomology import (
    Cochain2,
    CohomologyResult,
    _class_basis,
    _cochain_second_cohomology,
    _local_cohomology,
    build_central_extension,
    classify_central_extensions,
    cocycle_representatives,
    group_digest,
    second_cohomology,
    verify_extension_isomorphism,
)
from isom4.errors import BudgetError, InvalidInputError, InvalidParametersError
from isom4.groups import (
    _GROUP_TABLE,
    abelian,
    alternating,
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    is_isomorphic,
    sylow_subgroup,
    symmetric,
)


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
    assert not verify_extension_isomorphism(
        "polyhedral-double-cover", kind="octa", m=2)


def test_dicyclic_model_by_residue():
    assert verify_extension_isomorphism(
        "dihedral-central-product", m=2, k=3, variant="printed")
    assert verify_extension_isomorphism(
        "dihedral-central-product", m=2, k=3, variant="corrected")
    assert not verify_extension_isomorphism(
        "dihedral-central-product", m=4, k=3, variant="printed")
    assert verify_extension_isomorphism(
        "dihedral-central-product", m=4, k=3, variant="corrected")


def test_klein_exponent_variants():
    assert not verify_extension_isomorphism(
        "klein-3power", r=1, m_plus=1, variant="printed")
    assert verify_extension_isomorphism(
        "klein-3power", r=1, m_plus=1, variant="corrected")


def test_tstar_model():
    assert verify_extension_isomorphism("tstar-2power", r=1, m_plus=1)


def test_q8_mixed_model():
    assert verify_extension_isomorphism("q8-mixed", r=1, s=1, m_plus=1)


def test_verification_tag_validation():
    with pytest.raises(InvalidInputError):
        verify_extension_isomorphism("unknown-model")
    with pytest.raises(InvalidParametersError):
        verify_extension_isomorphism("polyhedral-double-cover", kind="cube", m=2)
    with pytest.raises(InvalidParametersError):
        verify_extension_isomorphism("polyhedral-double-cover", kind="octa", m=3)
    with pytest.raises(InvalidParametersError):
        verify_extension_isomorphism("dihedral-central-product", m=2, k=4)
    with pytest.raises(InvalidParametersError):
        verify_extension_isomorphism("klein-3power", r=1, m_plus=2)
    # no 3-part in the modulus: nothing to verify, reported as a miss
    assert not verify_extension_isomorphism("klein-3power", r=0, m_plus=5)


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
