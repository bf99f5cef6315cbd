import ast
import math
import os
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from isom4.cli import parse_group_spec
from isom4.cohomology import group_digest
from isom4 import embeddings, groups
from isom4.embeddings import polyhedral_so3, so4_central_product, u2_mixed
from isom4.errors import BudgetError, InvalidInputError, InvalidParametersError
from isom4.groups import (
    _GROUP_ALIASES,
    _GROUP_TABLE,
    ORDER_CAP,
    FiniteGroup,
    abelian,
    alternating,
    binary_dihedral,
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    build_group,
    build_metacyclic,
    canonical_group_name,
    cyclic,
    cyclic_central_product,
    dihedral,
    direct_product,
    find_isomorphism,
    group_from_quaternions,
    inverted_odd_cycle,
    is_isomorphic,
    klein_by_cyclic3,
    matches_family,
    max_cyclic_normal_index,
    minimal_generating_set,
    normal_cyclic_subgroups,
    order_gl,
    pu3_presentation_valid,
    q8_by_cyclic3,
    quaternion_group,
    symmetric,
)
from isom4.verify import CYCLIC_INDEX_CATALOG, H2_TABLE
from reference import (
    family_by_search,
    index_two_subgroups,
    is_normal,
    is_subgroup,
    quotient,
    smith_normal_form,
    so3_times_rotation,
)
from test_claims import FAMILY_WITNESSES


# --- table validation ---------------------------------------------------


def test_rejects_non_square():
    with pytest.raises(InvalidInputError):
        FiniteGroup(np.zeros((2, 3), dtype=np.int32))


@pytest.mark.parametrize("table", [[[0.0, 1.9], [1.2, 0.4]], [[0.0, 1.0], [1.0, 0.0]],
                                   [["0", "1"], ["1", "0"]], [[0, 1j], [1j, 0]],
                                   [[0, np.nan], [np.nan, 0]]],
                         ids=["fraction", "float", "string", "complex", "nan"])
def test_rejects_non_integer_tables(table):
    # a float table was truncated and a string table parsed: both built Z_2
    with pytest.raises(InvalidParametersError, match="is not an integer array"):
        FiniteGroup(table)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64, np.uint64])
def test_integer_tables_pass(dtype):
    z2 = [[0, 1], [1, 0]]
    assert np.array_equal(FiniteGroup(np.array(z2, dtype=dtype)).table, z2)
    assert np.array_equal(FiniteGroup([[np.int64(0), np.int16(1)], [1, 0]]).table, z2)
    if np.iinfo(dtype).max > 2**32:
        # range is checked before the narrowing to int32, so no entry wraps
        with pytest.raises(InvalidInputError, match="element indices"):
            FiniteGroup(np.array([[0, 2**32 + 1], [2**32 + 1, 0]], dtype=dtype))


def test_rejects_non_latin():
    with pytest.raises(InvalidInputError):
        FiniteGroup([[0, 0], [1, 1]])


def test_rejects_latin_rows_over_repeated_columns():
    # every row is a permutation, the first two columns are not
    with pytest.raises(InvalidInputError, match="not a Latin square"):
        FiniteGroup([[0, 1, 2], [1, 0, 2], [2, 1, 0]])


def _latin_by_sorting(t):
    # the reference: every row and every column sorts to 0..n-1
    n = t.shape[0]
    return (np.array_equal(np.sort(t, axis=1), np.broadcast_to(np.arange(n), (n, n)))
            and np.array_equal(np.sort(t, axis=0), np.broadcast_to(np.arange(n)[:, None], (n, n))))


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False),
       st.booleans())
def test_latin_test_agrees_with_sorting(n, rnd, transpose):
    # rows (or columns) are permutations, so only the other axis decides
    t = np.array([rnd.sample(range(n), n) for _ in range(n)])
    if transpose:
        t = t.T
    if _latin_by_sorting(t):
        try:
            FiniteGroup(t)
        except InvalidInputError as exc:
            assert "Latin" not in str(exc)
    else:
        with pytest.raises(InvalidInputError, match="not a Latin square"):
            FiniteGroup(t)


def test_rejects_missing_identity():
    with pytest.raises(InvalidInputError):
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


# order-5 loop: unit, two-sided inverses, but (a*b)*b != a*(b*b)
_ORDER_5_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_rejects_non_associative_loop():
    with pytest.raises(InvalidInputError):
        FiniteGroup(_ORDER_5_LOOP)


def _reduced_latin_squares(n, order=None):
    """Latin squares on 0..n-1 whose first row and column are 0..n-1, so
    that 0 is a two-sided identity.  Cells are filled row by row, trying
    symbols in order(cell) if given, else 0..n-1."""
    sq = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            yield [row[:] for row in sq]
            return
        i, j = cells[c]
        used = set(sq[i][:j]) | {sq[r][j] for r in range(i)}
        for v in (order(c) if order else range(n)):
            if v not in used:
                sq[i][j] = v
                yield from fill(c + 1)

    return fill(0)


def _is_associative(table):
    # the n^3 reference: t[t[i, j], k] == t[i, t[j, k]] for every triple
    t = np.asarray(table)
    return np.array_equal(t[t], t[:, t])


def _refusal(table):
    """The message FiniteGroup must refuse a non-associative loop with."""
    t = np.asarray(table)
    inv = np.argmax(t == 0, axis=1)
    two_sided = np.all(t[inv, np.arange(len(t))] == 0)
    return "not associative" if two_sided else "inverses"


def test_order_5_loops_accepted_iff_associative():
    loops = list(_reduced_latin_squares(5))
    assert len(loops) == 56
    assert sum(_is_associative(t) for t in loops) == 6  # Z5, relabelled
    for t in loops:
        if _is_associative(t):
            assert FiniteGroup(t).is_abelian
        else:
            with pytest.raises(InvalidInputError, match=_refusal(t)):
                FiniteGroup(t)


@given(st.integers(min_value=5, max_value=8), st.randoms(use_true_random=False))
def test_random_non_associative_loops_refused(n, rnd):
    table = next(_reduced_latin_squares(n, lambda c: rnd.sample(range(n), n)))
    assume(not _is_associative(table))
    with pytest.raises(InvalidInputError, match=_refusal(table)):
        FiniteGroup(table)


# with the group coordinate running fastest, the first generators the
# associativity test picks lie in the group factor and pass; only a later
# one, from the loop factor, exposes the failure
@pytest.mark.parametrize("order", [2, 3, 6])
def test_loop_factor_refused_after_group_generators(order):
    loop = np.array(_ORDER_5_LOOP)
    group = (cyclic(order) if order < 6 else symmetric(3)).table
    product = (loop[:, None, :, None] * order + group[None, :, None, :])
    with pytest.raises(InvalidInputError, match="not associative"):
        FiniteGroup(product.reshape(5 * order, 5 * order))


# the associativity test picks its generators by element index, so
# relabelling a group changes them; every labelling must pass
@given(st.sampled_from(["q8", "binary-tetra", "octa"]), st.data())
def test_relabelled_groups_accepted(name, data):
    g = build_group(name)
    perm = np.array(data.draw(st.permutations(range(g.size))))
    relabelled = np.empty_like(g.table)
    relabelled[perm[:, None], perm[None, :]] = perm[g.table]
    assert FiniteGroup(relabelled).identity == perm[g.identity]


def test_order_cap_enforced():
    with pytest.raises(BudgetError):
        cyclic(ORDER_CAP + 1)
    with pytest.raises(BudgetError):
        direct_product(cyclic(32), cyclic(32))
    # refused before a table of (3^30)^2 entries is allocated
    with pytest.raises(BudgetError, match=r"^group order 205891132094649 exceeds cap 512$"):
        klein_by_cyclic3(30)


@pytest.mark.parametrize("build,order", [
    (lambda: abelian([32, 32]), 1024),
    (lambda: direct_product(cyclic(32), cyclic(32)), 1024),
    (lambda: build_metacyclic(257, 2, 1), 514),
    (lambda: dihedral(514), 514),
    (lambda: dihedral(100000), 100000),
    (lambda: symmetric(7), 5040),
    (lambda: symmetric(10), 3628800),
    (lambda: alternating(7), 2520),
    (lambda: alternating(10), 1814400),
], ids=["abelian-1024", "direct-product-1024", "metacyclic-514",
        "dihedral-514", "dihedral-100000", "s7", "s10", "a7", "a10"])
def test_builders_refuse_from_the_order(build, order):
    # refused from the order alone: dihedral(100000) used to ask for a
    # 74.5 GiB table, and alternating(10) to list all 10! permutations
    # for 15 s first; every builder words the refusal alike
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=rf"^group order {order} exceeds cap 512$"):
        build()
    assert time.perf_counter() - start < 1.0


# --- constructors ---------------------------------------------------------


@given(st.integers(min_value=1, max_value=40))
def test_cyclic_basics(n):
    g = cyclic(n)
    assert g.size == n
    assert g.is_abelian
    assert int(g.element_orders.max()) == n
    assert g.abelian_invariants == ((n,) if n > 1 else ())


@given(st.integers(min_value=2, max_value=12))
def test_dihedral_structure(k):
    g = dihedral(2 * k)
    assert g.size == 2 * k
    # k reflections of order 2 outside the rotation subgroup
    orders = g.element_orders
    assert int(np.sum(orders == 2)) == (k + 1 if k % 2 == 0 else k)
    assert g.is_abelian == (k <= 2)
    if k > 2:
        assert int(g.center.size) == (2 if k % 2 == 0 else 1)


def test_dihedral_rejects_odd_order():
    with pytest.raises(InvalidParametersError):
        dihedral(7)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(NON_FINITE, st.integers(min_value=0, max_value=3))
def test_quaternion_closure_refuses_non_finite(bad, position):
    q = [0.0, 1.0, 0.0, 0.0]
    q[position] = bad
    with pytest.raises(InvalidInputError, match="not finite"):
        group_from_quaternions(groups._const([[0.0, 0.0, 1.0, 0.0], q], 8), 8)


def test_permutation_groups():
    s4, a4, a5 = symmetric(4), alternating(4), alternating(5)
    assert (s4.size, a4.size, a5.size) == (24, 12, 60)
    assert s4.abelian_invariants == (2,)
    assert a4.abelian_invariants == (3,)
    assert a5.abelian_invariants == ()
    assert [symmetric(n).size for n in range(4)] == [1, 1, 2, 6]
    assert [alternating(n).size for n in range(4)] == [1, 1, 1, 3]


def test_quaternion_structure():
    q = quaternion_group()
    assert q.size == 8
    assert int(np.sum(q.element_orders == 2)) == 1
    assert int(np.sum(q.element_orders == 4)) == 6
    assert int(q.center.size) == 2
    assert q.abelian_invariants == (2, 2)


def test_binary_polyhedral_orders():
    for g, n in ((binary_tetrahedral(), 24), (binary_octahedral(), 48),
                 (binary_icosahedral(), 120)):
        assert g.size == n
        # unique involution, and it is central
        invs = np.nonzero(g.element_orders == 2)[0]
        assert invs.size == 1
        assert invs[0] in g.center


@given(st.sampled_from([8, 12, 16, 20, 24, 32]))
def test_binary_dihedral_structure(order):
    g = binary_dihedral(order)
    assert g.size == order
    assert int(np.sum(g.element_orders == 2)) == 1


def test_binary_dihedral_8_is_quaternion():
    assert is_isomorphic(binary_dihedral(8), quaternion_group())


def test_build_group_dispatch():
    assert build_group("icosa").size == 60
    assert build_group("cyclic", 7).size == 7
    with pytest.raises(InvalidParametersError):
        build_group("cyclic")
    with pytest.raises(InvalidInputError):
        build_group("frieze")
    with pytest.raises(InvalidParametersError):
        polyhedral_so3("cyclic", 0)


# one sample parameter text per parametric name of the group table
SAMPLE_PARAMS = {"cyclic": "12", "abelian": "3,9", "dihedral": "8",
                 "binary-dihedral": "12", "metacyclic": "7,3,2",
                 "klein-by-3power": "1", "q8-by-3power": "2"}


def test_every_group_name_parses():
    assert {name for name, (arity, _) in _GROUP_TABLE.items() if arity != 0} \
        == set(SAMPLE_PARAMS)
    for name in [*_GROUP_TABLE, *_GROUP_ALIASES]:
        params = SAMPLE_PARAMS.get(_GROUP_ALIASES.get(name, name))
        spec = f"{name.upper()}:{params}" if params else name.upper()
        args = [int(p) for p in params.split(",")] if params else []
        assert np.array_equal(parse_group_spec(spec).table, build_group(name, *args).table)
        assert canonical_group_name(f" {name.upper()} ") \
            == _GROUP_ALIASES.get(name, name)
    assert set(H2_TABLE) <= set(_GROUP_TABLE)


# group_digest is the H^2 cache key, so the element order each closure
# produces is pinned: a change would orphan every cached entry
@pytest.mark.parametrize("build,digest", [
    (lambda: build_group("binary-icosa"), "da2a0052476b0933"),
    (lambda: build_group("binary-octa"), "be5e9cc1b3112cab"),
    (lambda: build_group("binary-tetra"), "2ffe03eb0f2bdb84"),
    (lambda: build_group("q8"), "bcbc4efc22bc440f"),
    (lambda: build_group("binary-dihedral", 12), "8077e384603dabe4"),
    (lambda: build_group("q8-by-3power", 2), "b8b23a84373c0859"),
    (lambda: build_group("octa"), "43f3b9992593e80b"),
    (lambda: build_group("icosa"), "6a6deac0c444348f"),
    (lambda: so4_central_product("icosa", 4).group, "19b53a10ec482a41"),
    (lambda: so4_central_product("octa", 2).group, "df7cea5aa4d11193"),
    (lambda: u2_mixed(1, 1, 1).group, "2f07e781817ea7b8"),
    (lambda: so3_times_rotation(1, "icosa").group, "36e352eb6fae211f"),
], ids=["binary-icosa", "binary-octa", "binary-tetra", "q8", "binary-dihedral-12",
        "q8-by-3power-2", "octa", "icosa", "so4-icosa-4", "so4-octa-2", "u2-1-1",
        "so3xso2-icosa"])
def test_closure_tables_are_pinned(build, digest):
    assert group_digest(build()) == digest


@pytest.mark.parametrize("build", [
    lambda: build_group("binary-icosa"),
    lambda: build_group("binary-octa"),
    lambda: build_group("binary-tetra"),
    lambda: build_group("q8"),
    lambda: build_group("binary-dihedral", 12),
    lambda: build_group("q8-by-3power", 2),
    lambda: so4_central_product("icosa", 4),
    lambda: so4_central_product("octa", 2),
    lambda: u2_mixed(1, 1, 1),
    lambda: so3_times_rotation(1, "icosa"),
], ids=["binary-icosa", "binary-octa", "binary-tetra", "q8", "binary-dihedral-12",
        "q8-by-3power-2", "so4-icosa-4", "so4-octa-2", "u2-1-1", "so3xso2-icosa"])
def test_closure_tables_match_all_pairs(build, monkeypatch):
    # the matrix closures pinned above (octa and icosa are permutation
    # tables): each table, derived from generator steps, equals the one
    # read off every product's exact key
    closures = []
    close = groups._close_unitary

    def recording(source, order):
        closures.append(close(source, order))
        return closures[-1]

    monkeypatch.setattr(groups, "_close_unitary", recording)
    monkeypatch.setattr(embeddings, "_close_unitary", recording)
    build()
    assert closures
    for table, mats, exact, p in closures:
        # every product of the exact matrices mod p, looked up by its bytes
        n = exact.shape[0]
        index = {key.tobytes(): i for i, key in enumerate(exact.reshape(n, -1))}
        pairs = (exact[:, None] @ exact[None]).reshape(n * n, -1) % p
        assert np.array_equal(table, np.array([index[pair.tobytes()] for pair in pairs])
                              .reshape(n, n))
        # the float gate: the float matrices pass the same table
        assert groups._table_residual(table, mats) <= groups.DEFAULT_TOLERANCE


def _rotation(order: int, m: int) -> np.ndarray:
    """The source of the rotation by 2pi/m over zeta_n, n = lcm(4, order)."""
    return embeddings._rot2(math.lcm(4, order), m)


def test_closure_refuses_merged_elements(monkeypatch):
    # zeta sent to 1 instead of a primitive root merges elements: every
    # power of diag(zeta_7, 1/zeta_7) then reduces to the identity, so the
    # closure stops short of the stated order and is refused
    prime = groups._source_prime
    monkeypatch.setattr(groups, "_source_prime",
                        lambda n, d: (prime(n, d)[0], np.ones(n, dtype=np.int64)))
    zeta, inverse = groups._power(28, 4), groups._power(28, -4)
    with pytest.raises(InvalidInputError, match=r"^closure has order 1, expected 7$"):
        groups._close_unitary([[[zeta, 0 * zeta], [0 * zeta, inverse]]], 7)


def test_closure_decides_its_stated_order():
    # an order above the cap is refused before any product is formed: a
    # generator that is no rotation would be refused otherwise
    not_unitary = [2 * groups._const(np.eye(2), 4)]
    with pytest.raises(BudgetError, match=rf"^closure order {ORDER_CAP + 1} exceeds "
                                          rf"the order cap {ORDER_CAP}$"):
        groups._close_unitary(not_unitary, ORDER_CAP + 1)
    # a quarter turn generates four elements: the closure stops at the
    # product that passes a stated order of 3
    with pytest.raises(InvalidInputError, match=r"^closure grows past its order 3$"):
        groups._close_unitary([_rotation(3, 4)], 3)
    with pytest.raises(InvalidInputError, match=r"^closure grows past its order 6$"):
        group_from_quaternions(groups._const([[0, 1, 0, 0], [0, 0, 1, 0]], 12), 6)
    with pytest.raises(InvalidInputError, match=r"^closure has order 3, expected 9$"):
        groups._close_unitary([_rotation(9, 3)], 9)
    with pytest.raises(InvalidInputError, match="^generators must be orthogonal/unitary$"):
        groups._close_unitary(not_unitary, 2)
    table, mats, exact, p = groups._close_unitary([_rotation(7, 7)], 7)
    assert table.shape == (7, 7) and mats.shape[0] == exact.shape[0] == 7 and p == 29


# the tables of the semidirect builders, each a cyclic group acting
# through the powers of one automorphism, pinned as the closures are
@pytest.mark.parametrize("build,digest", [
    (lambda: klein_by_cyclic3(0), "256d294984150588"),
    (lambda: klein_by_cyclic3(1), "63fec905102d5a58"),
    (lambda: klein_by_cyclic3(3), "810464932eebc24d"),
    (lambda: build_metacyclic(7, 3, 2), "a29b1ccf85e3b58b"),
    (lambda: build_metacyclic(7, 9, 2), "771a750c63dcc36f"),
    (lambda: build_metacyclic(9, 6, 4), "f0ee4519c131eb25"),
    (lambda: build_metacyclic(1, 5, 0), "95487095eff0b8ac"),
    (lambda: inverted_odd_cycle(3, 2), "174aeb1588bd8992"),
    (lambda: inverted_odd_cycle(3, 4), "994368261b96505b"),
    (lambda: inverted_odd_cycle(5, 12), "5bf4facbcccd5e8c"),
], ids=["klein-0", "klein-1", "klein-3", "meta-7-3-2", "meta-7-9-2", "meta-9-6-4",
        "meta-1-5-0", "inverted-3-2", "inverted-3-4", "inverted-5-12"])
def test_semidirect_tables_are_pinned(build, digest):
    assert group_digest(build()) == digest


# --- products and extensions ----------------------------------------------


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=9))
def test_coprime_direct_product_is_cyclic(a, b):
    assume(math.gcd(a, b) == 1)
    assert is_isomorphic(direct_product(cyclic(a), cyclic(b)), cyclic(a * b))


def _chained_abelian(invariants):
    """The reference construction: direct products chained from Z_1."""
    g = cyclic(1)
    for k in invariants:
        g = direct_product(g, cyclic(k))
    return g


@pytest.mark.parametrize("invariants", [
    [], [1], [5], [1, 5], [5, 1], [2, 2], [2, 4, 8], [3, 9], [2, 2, 2], [4, 15],
    [2, 3, 5, 7], [2, 256],
])
def test_abelian_table_is_the_chained_product(invariants):
    assert np.array_equal(abelian(invariants).table, _chained_abelian(invariants).table)


def test_abelian_refuses_bad_orders():
    with pytest.raises(InvalidParametersError):
        abelian([3, 0])
    with pytest.raises(BudgetError):
        abelian([2, 300])


def test_abelian_invariant_factors_ascending():
    assert abelian([2, 4]).abelian_invariants == (2, 4)
    assert abelian([8, 3]).abelian_invariants == (24,)
    assert abelian([2, 2, 3]).abelian_invariants == (2, 6)


@st.composite
def _cyclic_orders(draw):
    a = draw(st.integers(min_value=1, max_value=240))
    b = draw(st.integers(min_value=1, max_value=240 // a))
    c = draw(st.integers(min_value=1, max_value=240 // (a * b)))
    return a, b, c


@given(_cyclic_orders())
def test_abelian_invariants_match_smith_form(orders):
    diagonal = smith_normal_form(np.diag(orders))[0].diagonal()
    assert abelian(orders).abelian_invariants == tuple(int(x) for x in diagonal if x != 1)


@pytest.mark.parametrize("build,invariants", [
    (lambda: direct_product(symmetric(4), cyclic(6)), (2, 6)),
    (lambda: direct_product(alternating(5), cyclic(4)), (4,)),
    (lambda: direct_product(quaternion_group(), cyclic(3)), (2, 6)),
    (lambda: direct_product(dihedral(8), cyclic(2)), (2, 2, 2)),
    (lambda: direct_product(binary_tetrahedral(), cyclic(9)), (3, 9)),
    (lambda: direct_product(build_metacyclic(7, 3, 2), cyclic(3)), (3, 3)),
    (binary_icosahedral, ()),
    (binary_octahedral, (2,)),
    (lambda: q8_by_cyclic3(2), (9,)),
    (lambda: cyclic(1), ()),
], ids=["s4-z6", "a5-z4", "q8-z3", "d8-z2", "binary-tetra-z9", "metacyclic-z3",
        "binary-icosa", "binary-octa", "q8-by-9", "trivial"])
def test_abelian_invariants_of_nonabelian_products(build, invariants):
    assert build().abelian_invariants == invariants


def test_semidirect_trivial_action_is_direct():
    assert is_isomorphic(groups._cyclic_extension(cyclic(5), np.arange(5), 4), cyclic(20))


def test_semidirect_validates_action():
    z5 = cyclic(5)
    for bad in ([0, 1, 1, 3, 4], [0, 1, 2, 3], [0, 1, 2, 3, 4, 0]):  # no permutation of Z5
        with pytest.raises(InvalidInputError):
            groups._cyclic_extension(z5, bad, 4)
    with pytest.raises(InvalidInputError):  # a permutation but not an automorphism of Z5
        groups._cyclic_extension(z5, [0, 2, 1, 3, 4], 4)
    with pytest.raises(InvalidInputError):  # x -> 2x has order 4, so Z_2 cannot act by it
        groups._cyclic_extension(z5, [0, 2, 4, 1, 3], 2)
    assert groups._cyclic_extension(z5, [0, 2, 4, 1, 3], 4).size == 20
    # Z_1 acts trivially whatever the automorphism
    assert groups._cyclic_extension(z5, [0, 2, 4, 1, 3], 1).is_abelian


def test_central_product_identifies_involutions():
    # Z4 and Q8 joined over their involutions: the Pauli group, of order
    # 16 = 32/2, centre Z4 and abelianization Z2^3
    g = cyclic_central_product(4, quaternion_group())
    assert g.size == 16
    assert g.center.size == 4 and g.abelian_invariants == (2, 2, 2)


def test_cyclic_central_product_is_the_central_product():
    # the table is the quotient of Z_m x G by {1, (m/2, z)}, numbered as
    # the quotient numbers it: a comparison target built either way has
    # one table, so an isomorphism search against it tries the same
    # candidates
    for m, lift in ((4, binary_octahedral()), (6, binary_tetrahedral()),
                    (4, quaternion_group()), (8, binary_dihedral(12))):
        zh = int(np.flatnonzero(lift.element_orders == 2)[0])
        pair = [lift.identity, m // 2 * lift.size + zh]
        assert np.array_equal(cyclic_central_product(m, lift).table,
                              quotient(direct_product(cyclic(m), lift), pair)[0].table)
    assert cyclic_central_product(2, lift) is lift


def test_model_constructors_refuse_bad_parameters():
    lift = binary_dihedral(12)
    for m in (0, 3):
        with pytest.raises(InvalidParametersError):
            cyclic_central_product(m, lift)
    # three involutions, then none: no single central involution to join over
    for g in (abelian([2, 2]), cyclic(3)):
        with pytest.raises(InvalidInputError, match="exactly one involution"):
            cyclic_central_product(4, g)
    for k, m in ((4, 2), (1, 2), (3, 3), (3, 0)):
        with pytest.raises(InvalidParametersError):
            inverted_odd_cycle(k, m)


def test_metacyclic_twist_relation():
    m, n, r = 7, 3, 2
    g = build_metacyclic(m, n, r)
    assert g.size == m * n
    x = 1 * n  # (a, b) = (1, 0)
    y = 1      # (a, b) = (0, 1)
    conj = g.op(g.op(y, x), int(g.inverses[y]))
    assert conj == (r % m) * n
    with pytest.raises(InvalidParametersError):
        build_metacyclic(7, 3, 3)  # 3^3 != 1 mod 7


def test_klein_by_cyclic3_models():
    assert is_isomorphic(klein_by_cyclic3(0), abelian([2, 2]))
    assert is_isomorphic(klein_by_cyclic3(1), alternating(4))
    assert klein_by_cyclic3(2).size == 36


def test_q8_by_cyclic3_models():
    assert is_isomorphic(q8_by_cyclic3(1), binary_tetrahedral())
    g = q8_by_cyclic3(2)
    assert g.size == 72
    assert int(g.element_orders.max()) % 9 == 0


# --- presentations and counting -------------------------------------------


def test_pu3_presentation_conditions():
    assert pu3_presentation_valid(7, 3, 2)
    assert pu3_presentation_valid(13, 3, 3)
    assert pu3_presentation_valid(31, 3, 5)
    assert not pu3_presentation_valid(7, 3, 1)   # trivial twist
    assert not pu3_presentation_valid(8, 3, 2)   # even m
    assert not pu3_presentation_valid(7, 6, 2)   # even n
    assert not pu3_presentation_valid(9, 3, 4)   # gcd(n(r-1), m) = 3


# the metacyclic parameters are integers: numpy integers pass, anything
# else is refused (r = 2.7 used to truncate silently to the order-21
# model, and a numpy r died in three-argument pow)
METACYCLIC_CALLS = {
    "build_metacyclic": lambda m, n, r: build_metacyclic(m, n, r).size == 21,
    "build_group": lambda m, n, r: build_group("metacyclic", m, n, r).size == 21,
    "pu3_presentation_valid": pu3_presentation_valid,
    "pu3_metacyclic": lambda m, n, r: embeddings.pu3_metacyclic(m, n, r).group.size == 21,
}


@pytest.mark.parametrize("call", METACYCLIC_CALLS.values(), ids=METACYCLIC_CALLS.keys())
@pytest.mark.parametrize("params, accepted", [
    ((7, 3, np.int64(2)), True), ((np.int32(7), np.int64(3), 2), True),
    ((7, 3, 2.0), False), ((7, 3, 2.7), False), ((7.0, 3, 2), False), ((7, "3", 2), False),
], ids=["numpy-r", "numpy-m-n", "float-r", "fractional-r", "float-m", "text-n"])
def test_metacyclic_parameters_are_integers(call, params, accepted):
    if accepted:
        assert call(*params)
    else:
        with pytest.raises(InvalidParametersError, match="is not an integer"):
            call(*params)


# every constructor and recipe reads its parameters as integers:
# cyclic(2.5) used to build Z_3, abelian([2.5, 3]) Z_6, and the recipes
# truncated through int(), where the others died in a bare TypeError
NON_INTEGER_BUILDS = {
    "cyclic": lambda: cyclic(2.5),
    "abelian": lambda: abelian([2.5, 3]),
    "dihedral": lambda: dihedral(6.0),
    "symmetric": lambda: symmetric(4.0),
    "alternating": lambda: alternating("4"),
    "binary_dihedral": lambda: binary_dihedral(12.0),
    "klein_by_cyclic3": lambda: klein_by_cyclic3(1.5),
    "q8_by_cyclic3": lambda: q8_by_cyclic3(1.0),
    "inverted_odd_cycle": lambda: inverted_odd_cycle(3, 2.0),
    "cyclic_central_product": lambda: cyclic_central_product(4.0, quaternion_group()),
    "abelian_so5": lambda: embeddings.abelian_so5((2.5,)),
    "klein_twist": lambda: embeddings.klein_twist(1.5, 1),
    "so4_central_product": lambda: so4_central_product("icosa", 2.5),
    "u2_mixed": lambda: u2_mixed(1.5, 1, 1),
    "o4_in_so5": lambda: embeddings.o4_in_so5(2.5, 3),
}


@pytest.mark.parametrize("build", NON_INTEGER_BUILDS.values(), ids=NON_INTEGER_BUILDS.keys())
def test_constructors_refuse_non_integers(build):
    with pytest.raises(InvalidParametersError, match="is not an integer"):
        build()


def test_constructors_take_numpy_integers():
    assert cyclic(np.int64(5)).size == 5
    assert abelian([np.int32(2), 3]).abelian_invariants == (6,)
    assert q8_by_cyclic3(np.int64(1)).size == 24
    assert embeddings.abelian_so5((np.int64(2), 3)).group.size == 6
    assert embeddings.o4_in_so5(np.int64(2), np.int32(3)).group.size == 12


def test_order_gl_values():
    assert order_gl(3, 2) == 168
    assert order_gl(2, 3) == 48
    assert order_gl(1, 5) == 4
    with pytest.raises(InvalidParametersError):
        order_gl(0, 2)
    with pytest.raises(InvalidParametersError):
        order_gl(2, 1)
    # a prime power is a field order; 2.5 and 6 are not
    assert order_gl(2, 4) == 180
    assert order_gl(3, np.int64(2)) == 168
    with pytest.raises(InvalidParametersError, match="not an integer"):
        order_gl(3, 2.5)
    with pytest.raises(InvalidParametersError, match="not an integer"):
        order_gl(2.5, 3)
    with pytest.raises(InvalidParametersError, match="not a prime power"):
        order_gl(2, 6)


def test_package_import_loads_only_numpy_beyond_stdlib():
    # a fresh `import isom4` pays for numpy and the standard library
    # only (modules that site hooks load before the import are not the
    # package's doing)
    import isom4

    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import isom4\n"
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(isom4.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    loaded = ast.literal_eval(out.stdout.strip())
    assert "isom4" in loaded
    assert [m for m in loaded if m not in sys.stdlib_module_names
            and m not in ("numpy", "isom4")] == []


# --- isomorphism testing ----------------------------------------------------


def test_find_isomorphism_is_homomorphism():
    g, h = dihedral(6), symmetric(3)
    phi = find_isomorphism(g, h)
    assert phi is not None
    assert np.unique(phi).size == g.size
    assert np.array_equal(h.table[phi[:, None], phi[None, :]], phi[g.table])


def test_isomorphism_negatives():
    assert not is_isomorphic(cyclic(4), abelian([2, 2]))
    assert not is_isomorphic(quaternion_group(), dihedral(8))
    assert not is_isomorphic(cyclic(6), symmetric(3))
    assert not is_isomorphic(cyclic(6), cyclic(7))


def test_isomorphism_nonabelian_positive():
    assert is_isomorphic(binary_octahedral(), binary_octahedral())
    assert is_isomorphic(build_metacyclic(3, 2, 2), symmetric(3))


# --- subgroup structure ------------------------------------------------------


def test_quotient_of_quaternion_by_center():
    q = quaternion_group()
    quo, proj = quotient(q, q.center)
    assert quo.size == 4
    assert quo.abelian_invariants == (2, 2)
    assert proj.shape == (8,)


def test_quotient_requires_normal():
    s3 = symmetric(3)
    flip = int(np.nonzero(s3.element_orders == 2)[0][0])
    with pytest.raises(InvalidInputError):
        quotient(s3, s3.closure([flip]))


def test_restrict_reindexes():
    g = cyclic(12)
    sub, members = g.restrict(g.closure([4]))
    assert sub.size == 3
    assert list(members) == [0, 4, 8]
    assert is_isomorphic(sub, cyclic(3))


def test_normal_cyclic_subgroups_of_s4():
    sizes = sorted(s.size for s in normal_cyclic_subgroups(symmetric(4)))
    assert sizes == [1]
    assert max_cyclic_normal_index(symmetric(4)) == 24


def test_max_cyclic_normal_index_catalog():
    assert max_cyclic_normal_index(alternating(5)) == 60
    assert max_cyclic_normal_index(dihedral(12)) == 2
    assert max_cyclic_normal_index(cyclic(10)) == 1
    assert max_cyclic_normal_index(quaternion_group()) == 2


def test_index_two_subgroups():
    s4 = index_two_subgroups(symmetric(4))
    assert len(s4) == 1
    sub, _ = symmetric(4).restrict(s4[0])
    assert is_isomorphic(sub, alternating(4))
    assert index_two_subgroups(alternating(4)) == []
    assert len(index_two_subgroups(dihedral(8))) == 3


@pytest.mark.parametrize("build", [
    lambda: cyclic(8), lambda: cyclic(9), lambda: abelian([2, 4]), lambda: abelian([2, 2, 2]),
    lambda: dihedral(8), lambda: dihedral(12), quaternion_group, lambda: symmetric(4),
    lambda: alternating(4), lambda: binary_dihedral(12), lambda: build_metacyclic(7, 3, 2),
], ids=["z8", "z9", "z2xz4", "z2^3", "d8", "d12", "q8", "s4", "a4", "dicyclic12",
        "metacyclic-7-3-2"])
def test_index_two_subgroups_are_the_maps_onto_z2(build):
    # Hom(G, Z2) = Hom(G/G', Z2) has 2^r elements, r the number of even
    # invariant factors of G/G'; each nonzero one has its own kernel
    g = build()
    rank = sum(1 for factor in g.abelian_invariants if factor % 2 == 0)
    subgroups = index_two_subgroups(g)
    assert len(subgroups) == 2**rank - 1
    assert len({members.tobytes() for members in subgroups}) == len(subgroups)
    for members in subgroups:
        assert 2 * members.size == g.size and is_normal(g, members)


# element-set entry points and the index lists they must refuse: a
# negative index would wrap to the end, one past the order would index
# out of bounds
ELEMENT_SET_CALLS = {
    "closure": lambda g, els: g.closure(els),
    "is_subgroup": is_subgroup,
    "is_normal": is_normal,
    "restrict": lambda g, els: g.restrict(els),
    "quotient": quotient,
}


@pytest.mark.parametrize("call", ELEMENT_SET_CALLS.values(), ids=ELEMENT_SET_CALLS.keys())
@pytest.mark.parametrize("elements", [[0, -3], [-1], [7], [0, 6]],
                         ids=["minus-3", "minus-1", "past-7", "past-6"])
def test_element_sets_refuse_indices_outside_the_group(call, elements):
    with pytest.raises(InvalidInputError, match=r"\[0, 6\)"):
        call(cyclic(6), elements)


def test_element_sets_accept_repeats_and_any_order():
    g = cyclic(6)
    assert list(g.closure([4, 2, 4])) == [0, 2, 4]
    assert is_subgroup(g, [4, 0, 2, 2]) and is_normal(g, np.array([3, 0, 3]))
    assert not is_subgroup(g, []) and not is_subgroup(g, [2, 4])
    sub, members = g.restrict([3, 0, 3])
    assert sub.size == 2 and list(members) == [0, 3]


def reference_classes(g):
    """Conjugacy classes one representative at a time, least first."""
    seen, out = set(), []
    for r in range(g.size):
        if r not in seen:
            cls = sorted({g.op(g.op(x, r), int(g.inverses[x])) for x in range(g.size)})
            seen.update(cls)
            out.append(cls)
    return out


@pytest.mark.parametrize("build", [partial(symmetric, 4), binary_octahedral,
                                   partial(build_metacyclic, 7, 3, 2), partial(cyclic, 9),
                                   partial(q8_by_cyclic3, 1)],
                         ids=["S4", "binary-octa", "metacyclic-7-3-2", "Z9", "q8-by-3"])
def test_conjugacy_classes_match_one_class_at_a_time(build):
    g = build()
    classes = reference_classes(g)
    assert [c.tolist() for c in g.conjugacy_classes] == classes
    sizes = {x: len(c) for c in classes for x in c}
    assert g.class_sizes_by_element.tolist() == [sizes[x] for x in range(g.size)]


def reference_normal_cyclic_subgroups(g):
    """One closure per element, kept when new and normal."""
    seen, out = set(), []
    for x in range(g.size):
        sub = g.closure([x])
        if sub.tobytes() not in seen:
            seen.add(sub.tobytes())
            if is_normal(g, sub):
                out.append(sub)
    return out


@pytest.mark.parametrize("name,build", CYCLIC_INDEX_CATALOG,
                         ids=[name for name, _ in CYCLIC_INDEX_CATALOG])
def test_normal_cyclic_subgroups_match_closures(name, build):
    g = build()
    found = normal_cyclic_subgroups(g)
    assert [s.tolist() for s in found] == [s.tolist() for s in reference_normal_cyclic_subgroups(g)]


def test_minimal_generating_set_generates():
    for g in (quaternion_group(), symmetric(4), cyclic(30)):
        gens = minimal_generating_set(g)
        assert g.closure(gens).size == g.size
    assert len(minimal_generating_set(cyclic(30))) == 1


# --- family recognizers ------------------------------------------------------


FAMILY_CASES = [
    ("cyclic", cyclic(12), True),
    ("cyclic", abelian([2, 2]), False),
    ("abelian-rank-le-2", abelian([4, 5]), True),
    ("abelian-rank-le-2", abelian([2, 2, 2]), False),
    ("abelian-rank-le-2", quaternion_group(), False),
    ("polyhedral", alternating(4), True),
    ("polyhedral", symmetric(4), True),
    ("polyhedral", alternating(5), True),
    ("polyhedral", dihedral(10), True),
    ("polyhedral", cyclic(9), True),
    ("polyhedral", quaternion_group(), False),
    ("polyhedral", binary_dihedral(12), False),
    ("odd-cyclic", cyclic(15), True),
    ("odd-cyclic", cyclic(4), False),
    ("odd-cyclic-by-z2", dihedral(6), True),
    ("odd-cyclic-by-z2", cyclic(6), True),
    ("odd-cyclic-by-z2", dihedral(8), False),
    ("odd-cyclic-by-z4", build_metacyclic(5, 4, 2), True),
    ("odd-cyclic-by-z4", dihedral(6), False),
    ("odd-cyclic-by-klein", direct_product(cyclic(3), abelian([2, 2])), True),
    ("odd-cyclic-by-klein", cyclic(12), False),
    ("metacyclic-odd-projective", build_metacyclic(7, 3, 2), True),
    ("metacyclic-odd-projective", cyclic(21), False),
    ("metacyclic-odd-projective", alternating(4), False),
    ("binary-dihedral-times-odd-cyclic",
     direct_product(binary_dihedral(8), cyclic(3)), True),
    ("binary-dihedral-times-odd-cyclic", dihedral(24), False),
    ("odd-metacyclic-2power-by-z2", build_metacyclic(3, 32, 2), True),
    ("odd-metacyclic-2power-by-z2", alternating(4), False),
]


@pytest.mark.parametrize("family,group,expected",
                         FAMILY_CASES,
                         ids=[f"{f}-{g.size}-{e}" for f, g, e in FAMILY_CASES])
def test_family_membership(family, group, expected):
    assert matches_family(group, family) == expected


def test_unknown_family_tag():
    with pytest.raises(InvalidInputError):
        matches_family(cyclic(2), "frieze")


def test_family_tags_run_no_search(monkeypatch):
    # every tag is decided by its certificate: the subgroup and
    # isomorphism searches (is_isomorphic calls find_isomorphism) are
    # never reached
    def search(*args):
        raise AssertionError("a family tag ran a search")

    monkeypatch.setattr(groups, "normal_cyclic_subgroups", search)
    monkeypatch.setattr(groups, "find_isomorphism", search)
    for family, group, expected in FAMILY_CASES:
        assert matches_family(group, family) == expected, family
    for family, group in FAMILY_WITNESSES.items():
        if group is not None:
            assert matches_family(group, family), family


def metacyclic_triples(limit):
    """Every (m, n, r) with m n <= limit, 0 <= r < m, gcd(r, m) = 1 and
    r^n = 1 mod m: each a valid ``build_metacyclic`` input."""
    return [(m, mn // m, r) for mn in range(1, limit + 1) for m in range(1, mn + 1)
            if mn % m == 0 for r in range(m)
            if math.gcd(r, m) == 1 and pow(r, mn // m, m) == 1 % m]


ORACLE_GROUPS = {
    "family-cases": lambda: [group for _, group, _ in FAMILY_CASES],
    "metacyclic-mn-le-96": lambda: [build_metacyclic(*t) for t in metacyclic_triples(96)],
    "dihedral-le-48": lambda: [dihedral(order) for order in range(2, 49, 2)],
    "dicyclic-le-48": lambda: [binary_dihedral(order) for order in range(4, 49, 4)],
}


@pytest.mark.parametrize("build", ORACLE_GROUPS.values(), ids=ORACLE_GROUPS.keys())
def test_family_certificates_agree_with_the_searches(build):
    disagree = [(i, g.size, family)
                for i, g in enumerate(build()) for family in groups._FAMILY_TESTS
                if matches_family(g, family) != family_by_search(g, family)]
    assert disagree == []


def test_metacyclic_certificate_reads_m_n_r():
    m, n, r = groups._metacyclic_certificate(build_metacyclic(7, 3, 2))
    assert (m, n) == (7, 3) and pu3_presentation_valid(m, n, r)
    # cyclic: G' is trivial; A4: even order; G/G' = Z3 x Z3 is not cyclic
    for g in (cyclic(21), alternating(4), direct_product(build_metacyclic(7, 3, 2), cyclic(3))):
        assert groups._metacyclic_certificate(g) is None
