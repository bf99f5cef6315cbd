import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from isom4.errors import InvalidInputError, InvalidParametersError
from isom4.snf import (
    _drop_redundant_rows,
    _imatmul,
    _row_blocks,
    det_exact,
    kernel_mod_p,
    kernel_mod_prime_power,
    module_presentation_local,
    rank_mod_p,
    rref_mod_p,
    smith_normal_form,
    solve_mod_prime_power,
)

int_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-50, max_value=50),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(int_matrices)
def test_snf_identity_exact(rows):
    a = np.array(rows, dtype=object)
    d, u, v = smith_normal_form(rows)
    assert (u @ a @ v == d).all()
    # unimodular transforms
    assert abs(det_exact(u)) == 1
    assert abs(det_exact(v)) == 1


@given(int_matrices)
def test_snf_divisibility_chain(rows):
    d, _, _ = smith_normal_form(rows)
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


def test_snf_known_matrix():
    d, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [int(d[i, i]) for i in range(3)] == [2, 2, 156]


def test_det_exact_no_overflow():
    a = [[10**9, 1], [1, 10**9]]
    assert det_exact(a) == 10**18 - 1


@given(int_matrices, st.sampled_from([2, 3, 5, 7]))
def test_kernel_mod_p(rows, p):
    a = np.array(rows, dtype=np.int64)
    ker = kernel_mod_p(a, p)
    assert ker.shape[0] == a.shape[1]
    assert np.all((a.astype(object) @ ker.astype(object)) % p == 0)
    # completeness: rank-nullity over the field
    assert ker.shape[1] == a.shape[1] - rank_mod_p(a, p)


@given(int_matrices, st.sampled_from([(2, 3), (3, 2), (5, 2)]))
def test_kernel_mod_prime_power(rows, pk):
    p, k = pk
    a = np.array(rows, dtype=np.int64)
    gens = kernel_mod_prime_power(a, p, k)
    mod = p**k
    assert np.all((a.astype(object) @ gens.astype(object)) % mod == 0)


def _span(gens, mod):
    """Every Z/mod-combination of the columns of gens, by closure."""
    zero = (0,) * gens.shape[0]
    spanned, frontier = {zero}, [zero]
    cols = [tuple(int(x) % mod for x in gens[:, j]) for j in range(gens.shape[1])]
    while frontier:
        base = frontier.pop()
        for col in cols:
            nxt = tuple((b + c) % mod for b, c in zip(base, col))
            if nxt not in spanned:
                spanned.add(nxt)
                frontier.append(nxt)
    return spanned


def test_kernel_mod_prime_power_counts_solutions():
    # brute force over (Z/8)^2 for a small matrix
    a = np.array([[2, 4], [0, 4]], dtype=np.int64)
    gens = kernel_mod_prime_power(a, 2, 3)
    truth = {(x, y) for x in range(8) for y in range(8)
             if (2 * x + 4 * y) % 8 == 0 and (4 * y) % 8 == 0}
    assert _span(gens, 8) == truth


@given(int_matrices, st.sampled_from([(2, 2), (3, 2)]))
def test_solve_mod_prime_power_on_images(rows, pk):
    p, k = pk
    a = np.array(rows, dtype=np.int64)
    mod = p**k
    x_true = np.arange(a.shape[1], dtype=np.int64) % mod
    b = (a @ x_true) % mod
    x = solve_mod_prime_power(a, b, p, k)
    assert x is not None
    assert np.all((a.astype(object) @ x.astype(object) - b) % mod == 0)


def test_solve_mod_prime_power_detects_no_solution():
    assert solve_mod_prime_power([[2]], [1], 2, 2) is None


def test_rref_mod_p_is_idempotent():
    a = np.array([[2, 1, 0], [4, 2, 1]], dtype=np.int64)
    r1, piv1 = rref_mod_p(a, 5)
    r2, piv2 = rref_mod_p(r1, 5)
    assert np.array_equal(r1, r2)
    assert piv1 == piv2


def test_module_presentation_cyclic_factors():
    # (Z/9)^2 modulo the column (3, 3): factors 3 and 9
    orders, gens = module_presentation_local(np.array([[3], [3]]), 3, 2)
    assert sorted(orders) == [3, 9]
    assert gens.shape[0] == 2


def test_module_presentation_free_case():
    orders, _ = module_presentation_local(np.zeros((2, 0), dtype=np.int64), 2, 3)
    assert sorted(orders) == [8, 8]


def test_module_presentation_trivial_quotient():
    orders, _ = module_presentation_local(np.eye(2, dtype=np.int64), 5, 1)
    assert list(orders) == []


small_systems = st.integers(min_value=0, max_value=3).flatmap(
    lambda m: st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(st.integers(min_value=-12, max_value=12),
                           min_size=m * n, max_size=m * n).map(
            lambda xs: np.array(xs, dtype=np.int64).reshape(m, n))))


@given(small_systems, st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                       (3, 2), (5, 1), (7, 1)]))
@example(np.zeros((0, 3), dtype=np.int64), (2, 2))  # gave 9 columns before
def test_kernel_mod_prime_power_at_most_n_generators(a, pk):
    p, k = pk
    mod = p**k
    gens = kernel_mod_prime_power(a, p, k)
    n = a.shape[1]
    assert gens.shape[0] == n and gens.shape[1] <= n
    truth = {x for x in itertools.product(range(mod), repeat=n)
             if all(sum(int(c) * v for c, v in zip(row, x)) % mod == 0
                    for row in a)}
    assert _span(gens, mod) == truth


local_relations = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4),
    st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1)])).flatmap(
    lambda drk: st.tuples(
        st.lists(st.integers(min_value=0, max_value=drk[2][0] ** drk[2][1] - 1),
                 min_size=drk[0] * drk[1], max_size=drk[0] * drk[1]).map(
            lambda xs: np.array(xs, dtype=np.int64).reshape(drk[0], drk[1])),
        st.just(drk[2])))


@given(local_relations)
def test_module_presentation_matches_integer_snf(case):
    rel, (p, k) = case
    d = rel.shape[0]
    orders, gens = module_presentation_local(rel, p, k)
    # independent route: (Z/p^k)^d / span(rel) is the cokernel over Z
    # of [rel | p^k I]
    full = np.hstack([rel, p**k * np.eye(d, dtype=np.int64)])
    diag, _, _ = smith_normal_form(full.tolist())
    assert list(orders) == [int(diag[i, i]) for i in range(d) if diag[i, i] != 1]
    assert gens.shape == (d, len(orders))


def _presentation_reference(rel, p, k):
    """Entry-by-entry loop form of module_presentation_local: the same
    pivot rule and operations on Python integers."""
    mod = p**k
    d, r = rel.shape
    m = [[int(x) % mod for x in row] for row in rel]
    pinv = [[int(i == j) for j in range(d)] for i in range(d)]

    def valuation(x):
        v = 0
        while x and x % p == 0:
            x //= p
            v += 1
        return v if x else k

    t = 0
    while t < min(d, r):
        cands = [(valuation(m[i][j]), i, j) for i in range(t, d) for j in range(t, r)]
        v, i0, j0 = min(cands)  # least valuation, then row-major order
        if v == k:
            break
        m[i0], m[t] = m[t], m[i0]
        for row in pinv:
            row[i0], row[t] = row[t], row[i0]
        for row in m:
            row[j0], row[t] = row[t], row[j0]
        unit = m[t][t] // p**v
        m[t] = [x * pow(unit, -1, mod) % mod for x in m[t]]
        for row in pinv:
            row[t] = row[t] * unit % mod
        for i in range(t + 1, d):
            f = m[i][t] // p**v
            m[i] = [(x - f * y) % mod for x, y in zip(m[i], m[t])]
            for row in pinv:
                row[t] = (row[t] + f * row[i]) % mod
        for j in range(t + 1, r):
            f = m[t][j] // p**v
            for row in m:
                row[j] = (row[j] - f * row[t]) % mod
        t += 1
    keep = [i for i in range(d) if (valuation(m[i][i]) if i < t else k) > 0]
    orders = [p ** (valuation(m[i][i]) if i < t else k) for i in keep]
    return orders, [[pinv[row][i] for i in keep] for row in range(d)]


@given(local_relations)
def test_module_presentation_matches_loop_reference(case):
    rel, (p, k) = case
    orders, gens = module_presentation_local(rel, p, k)
    want_orders, want_gens = _presentation_reference(rel, p, k)
    assert orders == want_orders
    assert gens.tolist() == want_gens


@pytest.mark.parametrize("p,k,d", [(127, 1, 1), (127, 1, 2), (3, 9, 1), (3, 9, 5), (2, 20, 1)],
                         ids=["int16", "int32-rows", "int32", "int64", "int64-exponent"])
def test_local_elimination_reduces_before_narrowing(p, k, d):
    # the work dtype is the narrowest holding (d + 1) (p^k - 1)^2; entries
    # outside [0, p^k) and outside that dtype must be reduced, not
    # wrapped.  Their residues are multiples of p, so the quotient is
    # nontrivial, and wrapping would move most of them off p Z
    mod = p**k
    rng = np.random.default_rng(p + k + d)
    rel = mod * rng.integers(-2**20, 2**20, size=(d, 4)) + p * rng.integers(0, mod, size=(d, 4)) % mod
    orders, gens = module_presentation_local(rel, p, k)
    want_orders, want_gens = _presentation_reference(rel, p, k)
    assert orders == want_orders
    assert gens.tolist() == want_gens
    ker = kernel_mod_prime_power(rel, p, k)
    assert np.all((rel.astype(object) @ ker.astype(object)) % mod == 0)
    assert orders


@pytest.mark.parametrize("y_max", [50, 2**44], ids=["float", "int64"])
def test_imatmul_blocks_change_no_bit(y_max):
    rng = np.random.default_rng(y_max)
    x = rng.integers(-50, 50, size=(3000, 70), endpoint=True).astype(np.int16)
    y = rng.integers(-y_max, y_max, size=(70, 3), endpoint=True)
    x[0, 0], y[0, 0] = 50, y_max
    # y_max = 2^44 puts the bound past 2^52, onto the int64 path
    assert (50 * y_max * x.shape[1] < 2**52) == (y_max == 50)
    assert len(_row_blocks(x.shape[0], x.shape[1] + y.shape[1])) > 2
    assert _imatmul(x, y).tolist() == (x.astype(object) @ y.astype(object)).tolist()


def test_local_kernels_beyond_int64_products():
    # products of residues mod 2^40 or 65537^2 overflow int64; both
    # local reductions still come out exact
    mod = 2**40
    rel = np.array([[2**3, 2**20], [2**5, 2**39]], dtype=np.int64)
    orders, _ = module_presentation_local(rel, 2, 40)
    diag, _, _ = smith_normal_form(np.hstack([rel, mod * np.eye(2, dtype=np.int64)]).tolist())
    assert orders == [int(diag[i, i]) for i in range(2) if diag[i, i] != 1]
    # the same over Z/p^2 for p = 65537: 5p x + 3 y = 0 has the free
    # solution module spanned by (1, -5p / 3), one generator with a
    # unit first entry
    p = 65537
    a = np.array([[5 * p, 3]], dtype=np.int64)
    gens = kernel_mod_prime_power(a, p, 2)
    assert gens.shape == (2, 1) and gens[0, 0] % p != 0
    assert np.all((a.astype(object) @ gens.astype(object)) % p**2 == 0)


@pytest.mark.parametrize("k", [16, 40])
def test_kernel_mod_prime_power_at_large_exponents(k):
    # 3 is a unit, so y = -2^20 x / 3 and the solutions of [2^20, 3] form
    # a free module of 2^k elements; one elimination step finds it
    a = np.array([[2**20, 3]])
    start = time.perf_counter()
    gens = kernel_mod_prime_power(a, 2, k)
    assert time.perf_counter() - start < 1.0
    assert gens.shape[0] == 2 and 1 <= gens.shape[1] <= 2
    assert np.all((a.astype(object) @ gens.astype(object)) % 2**k == 0)
    # the solution module is cyclic, so the span is all of it exactly
    # when some generator has a unit entry
    assert np.any(gens % 2 == 1)


@given(st.lists(st.lists(st.integers(min_value=-400, max_value=400),
                         min_size=4, max_size=4), min_size=1, max_size=12))
def test_kernel_mod_p_above_byte_range(rows):
    # p = 131 has residues above 127, where rows are compared as
    # big-endian 16-bit records; repeat rows to exercise the dedup
    a = np.array(rows + rows[:3], dtype=np.int64)
    ker = kernel_mod_p(a, 131)
    assert np.all((a.astype(object) @ ker.astype(object)) % 131 == 0)
    assert ker.shape[1] == a.shape[1] - rank_mod_p(a, 131)


@given(st.sampled_from([2, 3, 127, 131, 65537]),
       st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_drop_redundant_rows_matches_unique(p, m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(m, n)) * rng.integers(0, 2, size=(m, n))
    a = np.vstack([a, a[: m // 2], np.zeros((1, n), dtype=np.int64)])
    want = np.unique(a[np.any(a != 0, axis=1)], axis=0)
    got = _drop_redundant_rows(a, p)
    assert np.array_equal(got, want)


def test_prime_validation():
    with pytest.raises(InvalidParametersError):
        kernel_mod_p(np.eye(2, dtype=np.int64), 4)
    with pytest.raises(InvalidParametersError):
        module_presentation_local(np.zeros((1, 0), dtype=np.int64), 6, 1)


def test_ragged_input_refused():
    with pytest.raises(InvalidInputError):
        smith_normal_form([[1, 2], [3]])
