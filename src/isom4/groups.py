"""Finite groups as dense multiplication tables.

Every group is a Latin square over element indices, fully validated at
construction (identity, two-sided inverses, associativity).  Order is
capped at 512: each family needed here fits, and table form turns every
structural question into a finite scan.

Constructors cover cyclic, abelian, dihedral, symmetric/alternating,
the binary polyhedral groups (from unit-quaternion models), metacyclic
presentations, direct products, cyclic extensions (a cyclic group
acting through the powers of one automorphism), and central products
with a cyclic group over a shared involution.  The named groups live in
one table, read through :func:`build_group`, and every matrix or
quaternion model is closed exactly, modulo a prime, into a table of the
order its caller states by one routine, the only one that checks that
order.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BudgetError, InvalidInputError, InvalidParametersError
from .snf import _prime_powers, _require_integer_array, _require_prime, _row_blocks

ORDER_CAP = 512

__all__ = [
    "FiniteGroup",
    "build_group",
    "canonical_group_name",
    "cyclic",
    "abelian",
    "dihedral",
    "symmetric",
    "alternating",
    "quaternion_group",
    "binary_dihedral",
    "binary_tetrahedral",
    "binary_octahedral",
    "binary_icosahedral",
    "direct_product",
    "cyclic_central_product",
    "inverted_odd_cycle",
    "klein_by_cyclic3",
    "q8_by_cyclic3",
    "build_metacyclic",
    "pu3_presentation_valid",
    "structural_invariants",
    "minimal_generating_set",
    "find_isomorphism",
    "is_isomorphic",
    "normal_cyclic_subgroups",
    "max_cyclic_normal_index",
    "sylow_subgroup",
    "matches_family",
    "order_gl",
]


def _require_order(n: int) -> None:
    """Refuse a group order above ``ORDER_CAP``, before any table of it
    is built."""
    if n > ORDER_CAP:
        raise BudgetError(f"group order {n} exceeds cap {ORDER_CAP}")


def _require_integers(**values) -> tuple[int, ...]:
    """The values as ints, in order; a non-integer is refused, numpy integers pass.
    Arrays follow the same rule through ``snf._require_integer_array``."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise InvalidParametersError(f"{name} = {value!r} is not an integer")
    return tuple(int(value) for value in values.values())


def _integer_fields(obj, *names: str) -> tuple[int, ...]:
    """The named fields of the frozen dataclass ``obj`` as ``_require_integers``
    returns them, each stored back: the object keeps the ints it checked."""
    values = _require_integers(**{name: getattr(obj, name) for name in names})
    for name, value in zip(names, values):
        object.__setattr__(obj, name, value)
    return values


def _index_mask(n: int, indices) -> np.ndarray:
    """The length-n boolean mask of an index list: the element set as
    numpy holds it without sorting.  Indices outside [0, n) are refused,
    negative ones included, which numpy would otherwise wrap.

    One counting pass builds it: np.bincount refuses negative entries
    itself, and an index >= n shows as a count past position n."""
    try:
        counts = np.bincount(np.asarray(indices, dtype=np.int64).ravel(), minlength=n)
    except ValueError:
        counts = None
    if counts is None or counts.size > n:
        raise InvalidInputError(f"element indices must lie in [0, {n})")
    return counts.astype(bool)


def _require_associative(table: np.ndarray, identity: int) -> None:
    """Light's associativity test (A. H. Clifford and G. B. Preston, *The
    Algebraic Theory of Semigroups*, vol. 1, 1961, section 1.2).

    The elements a with (xa)y = x(ay) for all x, y contain the identity
    and are closed under the product, so testing the generators of a
    set whose closure under right multiplication is the whole table
    proves associativity.  Generators are taken greedily, the first
    element not yet reached each time, and the closure multiplies only
    by them, so finding them assumes nothing.  Each test costs n^2.
    """
    n = table.shape[0]
    reached = _index_mask(n, [identity])
    gens = []
    while not reached.all():
        a = int(np.argmin(reached))
        if not np.array_equal(table[table[:, a]], table[:, table[a]]):
            raise InvalidInputError("table is not associative")
        gens.append(a)
        reached[a] = True
        frontier = np.flatnonzero(reached)
        while frontier.size:
            fresh = _index_mask(n, table[frontier][:, gens].ravel()) & ~reached
            frontier = np.flatnonzero(fresh)
            reached |= fresh


@dataclass(eq=False)
class FiniteGroup:
    table: np.ndarray
    # the Schur multipliers of the Sylow subgroups and the local solves
    # of H^2(Q; Z_{p^c}) that cohomology reads, keyed by cohomology as
    # (part, p, ...): they depend on the group alone, so each is solved
    # once per group object
    cohomology_parts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        table = _require_integer_array("multiplication table", self.table)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise InvalidInputError("multiplication table must be square")
        n = table.shape[0]
        if n == 0:
            raise InvalidInputError("group must be nonempty")
        _require_order(n)
        # checked in the given dtype, so no entry wraps into range
        if table.min() < 0 or table.max() >= n:
            raise InvalidInputError("table entries must be element indices")
        table = np.asarray(table, dtype=np.int32)
        # a row or column of n entries in [0, n) is a permutation exactly
        # when it holds every value: one boolean scatter per axis, marking
        # hit[r * n + v] when line r holds v
        starts = np.arange(0, n * n, n, dtype=np.int32)[:, None]
        for lines in (table, table.T):
            hit = np.zeros(n * n, dtype=bool)
            hit[starts + lines] = True
            if not hit.all():
                raise InvalidInputError("table is not a Latin square")
        idx = np.arange(n, dtype=np.int32)
        left_ids = np.nonzero((table == idx).all(axis=1))[0]
        ids = [int(e) for e in left_ids if np.array_equal(table[:, e], idx)]
        if len(ids) != 1:
            raise InvalidInputError("table has no two-sided identity")
        self.identity = ids[0]
        inv = np.argmax(table == self.identity, axis=1)
        if not (np.all(table[idx, inv] == self.identity) and np.all(table[inv, idx] == self.identity)):
            raise InvalidInputError("table lacks two-sided inverses")
        _require_associative(table, self.identity)
        table.setflags(write=False)
        self.table = table

    @property
    def size(self) -> int:
        return int(self.table.shape[0])

    def __repr__(self):
        return f"FiniteGroup(order={self.size})"

    def op(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    @cached_property
    def inverses(self) -> np.ndarray:
        return np.argmax(self.table == self.identity, axis=1)

    @cached_property
    def element_orders(self) -> np.ndarray:
        n = self.size
        idx = np.arange(n)
        out = np.zeros(n, dtype=np.int64)
        out[self.identity] = 1
        cur = idx.copy()
        k = 1
        while np.any(out == 0):
            k += 1
            cur = self.table[cur, idx]
            fresh = (out == 0) & (cur == self.identity)
            out[fresh] = k
        return out

    @cached_property
    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    @cached_property
    def center(self) -> np.ndarray:
        return np.nonzero((self.table == self.table.T).all(axis=1))[0]

    @cached_property
    def _class_names(self) -> np.ndarray:
        """The least element of each element's conjugacy class: column x
        of the (n, n) table of g x g^-1 is the class of x."""
        return self.table[self.table, self.inverses[:, None]].min(axis=0)

    @cached_property
    def conjugacy_classes(self) -> list[np.ndarray]:
        """Classes in order of their least element, each ascending."""
        names = self._class_names
        sizes = np.bincount(names)
        return np.split(np.argsort(names, kind="stable"), np.cumsum(sizes[sizes > 0])[:-1])

    @cached_property
    def class_sizes_by_element(self) -> np.ndarray:
        return np.bincount(self._class_names)[self._class_names]

    @cached_property
    def commutator_subgroup(self) -> np.ndarray:
        inv = self.inverses
        ghg = self.table[self.table, inv[:, None]]
        return self.closure(self.table[ghg, inv[None, :]].ravel())

    def closure(self, gens) -> np.ndarray:
        """Ascending elements of the subgroup the given indices generate."""
        member = _index_mask(self.size, gens)
        member[self.identity] = True
        frontier = np.flatnonzero(member)
        while frontier.size:
            prods = self.table[np.ix_(np.flatnonzero(member), frontier)].ravel()
            fresh = _index_mask(self.size, prods) & ~member
            frontier = np.flatnonzero(fresh)
            member |= fresh
        return np.flatnonzero(member)

    def _is_closed(self, inside: np.ndarray) -> bool:
        """Whether the masked element set is a subgroup."""
        els = np.flatnonzero(inside)
        return bool(inside[self.identity] and inside[self.table[np.ix_(els, els)]].all())

    def restrict(self, elements) -> tuple["FiniteGroup", np.ndarray]:
        """Subgroup on the given (closed) element set, reindexed densely."""
        inside = _index_mask(self.size, elements)
        if not self._is_closed(inside):
            raise InvalidInputError("element set is not a subgroup")
        els = np.flatnonzero(inside)
        pos = np.cumsum(inside) - 1  # pos[x]: the rank of x in els
        sub = pos[self.table[np.ix_(els, els)]]
        return FiniteGroup(sub), els

    @cached_property
    def abelian_invariants(self) -> tuple[int, ...]:
        """Invariant factors of the abelianization, ascending divisibility.

        Counted, without quotient tables: one pass takes the order of
        every coset gG' in G/G' (the smallest k with g^k in G').  If the
        p-part of G/G' is the sum of the Z/p^e_i, then
        c_k = #{g : ord(gG') divides p^k} / |G'| = p^(sum_i min(e_i, k)),
        so log_p c_k - log_p c_(k-1) factors have exponent >= k.  The
        j-th largest p-factors of all primes multiply to the j-th
        largest invariant factor."""
        n = self.size
        inside = _index_mask(n, self.commutator_subgroup)
        derived = int(np.count_nonzero(inside))
        # the element_orders loop, stopped on membership in G'
        idx = np.arange(n)
        orders = inside.astype(np.int64)
        cur, k = idx, 1
        while not orders.all():
            k += 1
            cur = self.table[cur, idx]
            orders[(orders == 0) & inside[cur]] = k
        factors: list[int] = []  # descending: the j-th largest at j
        for p, a in _prime_powers(n // derived):
            at_least = []  # at_least[k-1]: factors of exponent >= k
            logged, pk = 0, 1
            while logged < a:
                pk *= p
                count = int(np.count_nonzero(pk % orders == 0)) // derived
                log = round(math.log(count, p))
                at_least.append(log - logged)
                logged = log
            for j in range(at_least[0]):
                power = p ** sum(1 for m in at_least if m > j)
                if j < len(factors):
                    factors[j] *= power
                else:
                    factors.append(power)
        return tuple(factors[::-1])


def structural_invariants(g: FiniteGroup) -> dict:
    return {
        "order": g.size,
        "element_order_histogram": dict(Counter(g.element_orders.tolist())),
        "center_size": int(g.center.size),
        "abelianization_invariants": g.abelian_invariants,
        "conjugacy_class_sizes": sorted(len(c) for c in g.conjugacy_classes),
    }


# ---------------------------------------------------------------------------
# constructors


def cyclic(n: int) -> FiniteGroup:
    (n,) = _require_integers(n=n)
    if n < 1:
        raise InvalidParametersError("cyclic order must be positive")
    _require_order(n)
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def abelian(invariants) -> FiniteGroup:
    """Z_{k1} x ... x Z_{kr} in one mixed-radix table, the last
    coordinate running fastest, so its elements come in the order of
    ``direct_product`` chained from ``cyclic(1)``."""
    orders = _require_integers(**{f"invariant {i + 1}": k for i, k in enumerate(invariants)})
    if any(k < 1 for k in orders):
        raise InvalidParametersError("cyclic order must be positive")
    _require_order(math.prod(orders))
    table = np.zeros((1, 1), dtype=np.int64)
    for k in orders:
        idx = np.arange(k)
        step = (idx[:, None] + idx[None, :]) % k
        size = table.shape[0] * k
        table = (table[:, None, :, None] * k + step[None, :, None, :]).reshape(size, size)
    return FiniteGroup(table)


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order 2k."""
    (order,) = _require_integers(order=order)
    if order < 2 or order % 2:
        raise InvalidParametersError("dihedral order must be even and >= 2")
    _require_order(order)
    k = order // 2
    a, b = np.divmod(np.arange(order), k)  # element index = b + k*a is (rot b, flip a)
    a1, a2 = a[:, None], a[None, :]
    b1, b2 = b[:, None], b[None, :]
    rot = (b1 + np.where(a1 == 1, -b2, b2)) % k
    flip = (a1 + a2) % 2
    return FiniteGroup(flip * k + rot)


def symmetric(n: int) -> FiniteGroup:
    (n,) = _require_integers(n=n)
    _require_order(math.factorial(max(n, 0)))
    return _permutation_group(itertools.permutations(range(n)))


def alternating(n: int) -> FiniteGroup:
    (n,) = _require_integers(n=n)
    _require_order(max(1, math.factorial(max(n, 0)) // 2))
    return _permutation_group(p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1)


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _permutation_group(perms) -> FiniteGroup:
    """Table of a group of permutations of k points, element i the i-th
    in sorted order.  Read as a base-k number, most significant image
    first, a permutation's code ascends with that order, so one
    np.searchsorted finds every product (p q)(x) = p(q(x)), formed in
    row blocks of about ``snf._BLOCK_ENTRIES`` entries."""
    perms = np.array(sorted(perms), dtype=np.int64)
    n, k = perms.shape
    weights = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    products = np.empty((n, n), dtype=np.int64)
    for rows in _row_blocks(n, n * k):
        products[rows] = perms[rows][:, perms] @ weights
    return FiniteGroup(np.searchsorted(perms @ weights, products))


# --- closing generators into a table ----------------------------------------

# float residual below which a matrix identity counts as exact
DEFAULT_TOLERANCE = 1e-9


def _tolerance_text(value: float) -> str:
    """A tolerance as messages and reports print it: 1e-9, not 1e-09."""
    mantissa, exponent = f"{value:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _require_within(err: float, tol: float, message: str) -> None:
    """Refuse unless err <= tol.  Written so that a NaN error, which
    every comparison calls False, is refused too: non-finite input
    makes the error NaN or inf, and the refusal then says so."""
    if not err <= tol:
        if not math.isfinite(err):
            message = f"{message} (input is not finite)"
        raise InvalidInputError(message)


def _key_rows(keys: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one byte-string record."""
    keys = np.ascontiguousarray(keys)
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()


def _table_residual(table: np.ndarray, mats: np.ndarray) -> float:
    """Worst entry of |M_a M_b - M_table[a, b]| over all pairs a, b.

    Entry ((a, i), (b, k)) of a block of products is the sum over j of
    M_a[i, j] M_b[j, k], accumulated in order of j from rounded products,
    one outer product per j.  No fused multiply-add enters, so the value
    is bit for bit the one of np.einsum("aij,bjk->abik"), formed about
    2.6 times faster; a BLAS matmul fuses and moves the last bits.
    Blocks of about ``snf._BLOCK_ENTRIES`` entries stay in cache, and
    np.maximum, unlike Python's max, keeps a NaN block maximum."""
    n, d = mats.shape[0], mats.shape[1]
    cols = mats.transpose(1, 0, 2).reshape(d, n * d)  # cols[j, (b, k)] = M_b[j, k]
    worst = 0.0
    for blk in _row_blocks(n, n * d * d):
        rows = mats[blk].transpose(2, 0, 1).reshape(d, -1)  # rows[j, (a, i)] = M_a[i, j]
        prod = np.multiply.outer(rows[0], cols[0])
        term = np.empty_like(prod)
        for j in range(1, d):
            prod += np.multiply.outer(rows[j], cols[j], out=term)
        # entry ((a, i), (b, k)) less M_table[a, b][i, k], subtracted
        # through a strided view, not a transposed copy
        prod.reshape(-1, d, n, d)[...] -= mats[table[blk]].transpose(0, 2, 1, 3)
        worst = np.maximum(worst, np.max(np.abs(prod)))
    return float(worst)


def _unitary_drift(mats: np.ndarray) -> float:
    """max |M^H M - I| over a stack of square matrices: how far they lie
    from orthogonal/unitary.  Every caller compares it with its own
    tolerance; a non-finite entry makes it NaN or inf, which
    ``_require_within`` refuses, so numpy need not warn first."""
    mats = np.asarray(mats)
    with np.errstate(invalid="ignore", over="ignore"):
        gram = np.swapaxes(mats, 1, 2).conj() @ mats
        return float(np.max(np.abs(gram - np.eye(mats.shape[1]))))


# A source states matrices exactly: the integer array (..., n) of the
# coefficients of SOURCE_DENOMINATOR times their entries over the powers
# of zeta_n = e^(2 pi i/n).  Cos and sin of 2pi/m are (z + 1/z)/2 and
# (z - 1/z)/2i for z = zeta_m, 1/sqrt2 is cos(2pi/8), and sqrt5 is the
# Gauss sum zeta_5 - zeta_5^2 - zeta_5^3 + zeta_5^4.
SOURCE_DENOMINATOR = 4


def _power(n: int, k: int, c: int = SOURCE_DENOMINATOR) -> np.ndarray:
    """The source of c/SOURCE_DENOMINATOR times zeta_n^k."""
    return c * (np.arange(n) == k % n)


def _const(values, n: int) -> np.ndarray:
    """The source over zeta_n of an array of multiples of 1/4."""
    values = SOURCE_DENOMINATOR * np.asarray(values)
    return np.pad(values[..., None], [(0, 0)] * values.ndim + [(0, n - 1)])


def _cos_sin(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The sources of cos(2pi/m) and sin(2pi/m) over zeta_n, lcm(4, m) | n."""
    j, q = n // m, n // 4
    return (_power(n, j, 2) + _power(n, -j, 2),
            _power(n, j - q, 2) + _power(n, q - j, 2))


def _icosa_numbers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sources of (sqrt5 - 1)/4, (sqrt5 + 1)/4 and 1/2 over zeta_n, 5 | n."""
    j = n // 5
    root5 = sum(_power(n, i * j, c) for i, c in ((1, 1), (2, -1), (3, -1), (4, 1)))
    return root5 - _power(n, 0, 1), root5 + _power(n, 0, 1), _power(n, 0, 2)


def _source_prime(n: int, d: int) -> tuple[int, np.ndarray]:
    """The least odd prime p = 1 (mod n), prime to n and to 4, whose d x d
    products sum exactly in int64, and the powers 1, w, ..., w^(n-1) mod
    p of the first w = g^((p-1)/n), g = 2, 3, ..., of order exactly n."""
    p = n + 1
    while p % 2 == 0 or _prime_powers(p) != [(p, 1)]:
        p += n
    if d * (p - 1) ** 2 >= 2**63:
        raise BudgetError(f"the prime {p} for zeta_{n} overflows int64 products")
    w = next(w for w in (pow(g, (p - 1) // n, p) for g in range(2, p))
             if all(pow(w, n // q, p) != 1 for q, _ in _prime_powers(n)))
    return p, np.fromiter(itertools.accumulate(range(1, n), lambda x, _: x * w % p, initial=1),
                          np.int64, n)


def _zeta_order(order: int) -> int:
    """n = lcm(4, order): every entry of a model here of a group of that
    order lies in Z[zeta_n, 1/2].  An order above ``ORDER_CAP`` raises
    BudgetError, so no source is built for it."""
    if order > ORDER_CAP:
        raise BudgetError(f"closure order {order} exceeds the order cap {ORDER_CAP}")
    return math.lcm(4, order)


def _close_unitary(source, order: int):
    """Close orthogonal/unitary generators, k stacked d x d matrices
    given by their ``source``, into the group of the stated ``order``,
    exactly.  The order is decided here and nowhere else: one above the
    cap is refused first, a closure that finds an element past ``order``
    at that product, and one that stops short of it as well.

    At zeta_n the source gives the float generators, which must be
    orthogonal/unitary; at a primitive n-th root of unity mod p
    (``_source_prime``) it gives the integer matrices the closure runs
    on, keyed by their bytes.  Reduction mod an odd unramified prime is
    injective on a finite matrix group over Z[zeta_n, 1/2] (Minkowski's
    lemma; J.-P. Serre, "Bounds for the orders of the finite subgroups
    of G(k)", 2007), so the closure has the complex group's table.

    Breadth first, each level times every generator on the right, in
    order: each new element b is parent[b] * via[b], a spanning tree of
    the Cayley graph (the Schreier-tree construction, D. F. Holt, B. Eick
    and E. A. O'Brien, *Handbook of Computational Group Theory*, 2005).
    Column b of the table is right multiplication by via[b] applied to
    column parent[b], and the float matrix of b is parent[b]'s times
    via[b]'s.  Returns (table, float matrices, matrices mod p, p); the
    table is a group's by construction, and its keeper validates it."""
    _zeta_order(order)
    source = np.asarray(source)
    k, d, n = source.shape[0], source.shape[1], source.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        floats = source @ np.exp(2j * np.pi * np.arange(n) / n) / SOURCE_DENOMINATOR
    if np.array_equal(source, source[..., -np.arange(n) % n]):
        floats = floats.real  # every entry equals its complex conjugate
    _require_within(_unitary_drift(floats), DEFAULT_TOLERANCE,
                    "generators must be orthogonal/unitary")
    p, powers = _source_prime(n, d)
    gens = source.astype(np.int64) @ powers % p * pow(SOURCE_DENOMINATOR, -1, p) % p
    eye = np.eye(d, dtype=np.int64)
    index = {eye.tobytes(): 0}
    levels, right, parent, via = [eye[None]], [], [0], [0]
    while levels[-1].shape[0]:
        first = len(index) - levels[-1].shape[0]  # index of the level's first element
        prods = (levels[-1][:, None] @ gens[None]).reshape(-1, d, d) % p
        found, fresh = [], []
        for i, key in enumerate(_key_rows(prods.reshape(prods.shape[0], -1)).tolist()):
            if key not in index:
                if len(index) >= order:
                    raise InvalidInputError(f"closure grows past its order {order}")
                index[key] = len(index)
                fresh.append(i)
                parent.append(first + i // k)
                via.append(i % k)
            found.append(index[key])
        right.append(np.array(found).reshape(-1, k))
        levels.append(prods[fresh])
    size = len(index)
    if size != order:
        raise InvalidInputError(f"closure has order {size}, expected {order}")
    right = np.concatenate(right)
    parent, via = np.array(parent), np.array(via)
    cols = np.empty((size, size), dtype=np.int64)  # cols[b] is column b of the table
    cols[0] = np.arange(size)
    mats = np.empty((size, d, d), dtype=floats.dtype)
    mats[0] = np.eye(d)
    start = 1
    for level in levels[1:]:  # the parents of a level lie in the levels before it
        new = slice(start, start + level.shape[0])
        cols[new] = right[cols[parent[new]], via[new, None]]
        mats[new] = mats[parent[new]] @ floats[via[new]]
        start = new.stop
    return cols.T, mats, np.concatenate(levels), p


# --- unit-quaternion models -------------------------------------------------

# x -> q x on coordinates (1, i, j, k): entry (r, c) is its sign times
# coordinate _QUAT_INDEX[r, c] of q
_QUAT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGNS = np.array([[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]])


def _left_mul(q) -> np.ndarray:
    """Source of x -> q x for a quaternion source q of shape (4, n)."""
    return _LEFT_SIGNS[:, :, None] * np.asarray(q)[_QUAT_INDEX]


def group_from_quaternions(source, order: int) -> FiniteGroup:
    """Close unit quaternions, a (k, 4, n) source, into the group of the
    stated order, through their left multiplications on R^4."""
    return FiniteGroup(_close_unitary([_left_mul(q) for q in source], order)[0])


def _binary_quaternions(kind: str, n: int) -> np.ndarray:
    """Unit-quaternion generators, a source over zeta_n, of the binary
    cover of the rotation group ``kind``: (1 + i + j + k)/2 and i, with
    (1 + i)/sqrt2 for the octahedral group; the icosahedral group pairs
    (1 + i + j + k)/2 with cos(pi/5) + sin(pi/5) u, u the unit axis along
    (0, 1, golden ratio), which is ((sqrt5 + 1) + (sqrt5 - 1) j + 2k)/4."""
    half, qi = _const([0.5] * 4, n), _const([0, 1, 0, 0], n)
    if kind == "tetra":
        return np.stack([half, qi])
    if kind == "octa":
        r2 = _cos_sin(n, 8)[0]
        return np.stack([half, qi, [r2, r2, 0 * r2, 0 * r2]])
    minus, plus, one_half = _icosa_numbers(n)
    return np.stack([half, [plus, 0 * plus, minus, one_half]])


_BINARY_ORDERS = {"tetra": 24, "octa": 48, "icosa": 120}  # of each binary cover


def quaternion_group() -> FiniteGroup:
    return group_from_quaternions(_const([[0, 1, 0, 0], [0, 0, 1, 0]], _zeta_order(8)), 8)


def binary_dihedral(order: int) -> FiniteGroup:
    """Binary dihedral (dicyclic) group of order 4k: cos(pi/k) + sin(pi/k) i and j."""
    (order,) = _require_integers(order=order)
    if order < 4 or order % 4:
        raise InvalidParametersError("binary dihedral order must be a multiple of 4")
    n = _zeta_order(order)
    c, s = _cos_sin(n, order // 2)
    return group_from_quaternions(np.stack([[c, s, 0 * c, 0 * c], _const([0, 0, 1, 0], n)]),
                                  order)


def binary_tetrahedral() -> FiniteGroup:
    return group_from_quaternions(_binary_quaternions("tetra", _zeta_order(24)), 24)


def binary_octahedral() -> FiniteGroup:
    return group_from_quaternions(_binary_quaternions("octa", _zeta_order(48)), 48)


def binary_icosahedral() -> FiniteGroup:
    return group_from_quaternions(_binary_quaternions("icosa", _zeta_order(120)), 120)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    ng, nh = g.size, h.size
    _require_order(ng * nh)
    tg = g.table.astype(np.int64)
    th = h.table.astype(np.int64)
    table = (tg[:, None, :, None] * nh + th[None, :, None, :]).reshape(ng * nh, ng * nh)
    return FiniteGroup(table)


def cyclic_central_product(m: int, g: FiniteGroup) -> FiniteGroup:
    """Z_m joined with g over the central involution, for even m and a
    group g with a single involution z (which is therefore central); g
    itself at m = 2.  The binary polyhedral covers, the printed dicyclic
    models and the Q8 twist are compared in this form.

    Element a * |g| + b is the pair (a, b) with a < m/2, which stands
    for itself and for (a + m/2, b z): the least pair of each class of
    Z_m x g modulo (m/2, z), numbered as the quotient table numbers it."""
    (m,) = _require_integers(m=m)
    if m < 2 or m % 2:
        raise InvalidParametersError("m must be even and >= 2")
    involutions = np.flatnonzero(g.element_orders == 2)
    if involutions.size != 1:
        raise InvalidInputError("group must have exactly one involution")
    if m == 2:
        return g
    half, size = m // 2, g.size
    _require_order(half * size)
    a, b = np.divmod(np.arange(half * size), size)
    a = a[:, None] + a[None, :]
    b = g.table[b[:, None], b[None, :]].astype(np.int64)
    # a past m/2 folds back through (m/2, z)
    wrap = a >= half
    b[wrap] = g.table[b[wrap], int(involutions[0])]
    return FiniteGroup(np.where(wrap, a - half, a) * size + b)


def _cyclic_extension(base: FiniteGroup, automorphism, order: int) -> FiniteGroup:
    """base x| Z_order, the generator s of Z_order acting on base as the
    permutation ``automorphism``, so b acts as s^b; element a * order + b
    is the pair (a, b), and (a1, b1)(a2, b2) = (a1 s^b1(a2), b1 + b2).
    The permutation must be an automorphism of base with s^order = 1,
    unless order is 1, where it acts trivially whatever it is."""
    for size in (order, base.size * order):
        _require_order(size)
    s = np.asarray(automorphism, dtype=np.int64)
    if s.shape != (base.size,) or not _index_mask(base.size, s).all():
        raise InvalidInputError("the action must be a permutation of the base")
    if not np.array_equal(base.table[np.ix_(s, s)], s[base.table]):
        raise InvalidInputError("the action must be an automorphism of the base")
    powers = [np.arange(base.size)]  # powers[b] = s^b
    for _ in range(1, order):
        powers.append(s[powers[-1]])
    if order > 1 and not np.array_equal(s[powers[-1]], powers[0]):
        raise InvalidInputError(f"the action's order must divide {order}")
    powers = np.array(powers)
    a, b = np.divmod(np.arange(base.size * order), order)
    twisted = powers[b[:, None], a[None, :]]  # s^b1(a2)
    table = base.table[a[:, None], twisted].astype(np.int64) * order
    return FiniteGroup(table + (b[:, None] + b[None, :]) % order)


def inverted_odd_cycle(k: int, m: int) -> FiniteGroup:
    """(Z_k x| Z_{2^(r+1)}) x Z_{m'} for odd k >= 3 and even m = 2^r m'
    with m' odd, the 2-power cycle inverting Z_k through its quotient
    of order 2: the group the nontrivial central extension of Z_m by the
    dihedral group of order 2k realizes, for every even m."""
    k, m = _require_integers(k=k, m=m)
    if k < 3 or k % 2 == 0:
        raise InvalidParametersError("k must be odd and >= 3")
    if m < 2 or m % 2:
        raise InvalidParametersError("m must be even and >= 2")
    r = (m & -m).bit_length() - 1
    m_odd = m >> r
    target = _cyclic_extension(cyclic(k), -np.arange(k) % k, 2 ** (r + 1))
    if m_odd > 1:
        target = direct_product(target, cyclic(m_odd))
    return target


def build_metacyclic(m: int, n: int, r: int) -> FiniteGroup:
    """Z_m x| Z_n on pairs (a, b) with (a1,b1)(a2,b2) = (a1 + r^b1 a2,
    b1 + b2), a mod m and b mod n; requires integers with r^n = 1 mod m."""
    m, n, r = _require_integers(m=m, n=n, r=r)
    if m < 1 or n < 1:
        raise InvalidParametersError("metacyclic orders must be positive")
    if pow(r, n, m) != 1 % m:
        raise InvalidParametersError("metacyclic twist must satisfy r^n = 1 mod m")
    _require_order(m * n)
    # the generator of Z_n acts on Z_m as multiplication by r
    return _cyclic_extension(cyclic(m), r % m * np.arange(m) % m, n)


def klein_by_cyclic3(power: int) -> FiniteGroup:
    """(Z2 + Z2) x| Z_{3^power}, the cyclic factor rotating the three
    involutions; the action factors through Z_3 (trivial for power 0)."""
    (power,) = _require_integers(power=power)
    if power < 0:
        raise InvalidParametersError("power must be nonnegative")
    return _cyclic_extension(abelian([2, 2]), [0, 2, 3, 1], 3**power)


def q8_by_cyclic3(power: int) -> FiniteGroup:
    """Q8 x| Z_{3^power}, the cyclic factor conjugating by the unit
    quaternion (-1+i+j+k)/2, which cycles the axes i -> k -> j; the
    action factors through Z_3."""
    (power,) = _require_integers(power=power)
    if power < 0:
        raise InvalidParametersError("power must be nonnegative")
    q8 = quaternion_group()
    # the closure labels i and j as 1 and 2; the conjugation sends i to
    # k = ij and j to i
    return _cyclic_extension(q8, _induced_map(q8, q8, [1, 2], [q8.op(1, 2), 1]), 3**power)


# The one table of group names: canonical name -> (parameter count,
# builder); None counts one or more parameters.
_GROUP_TABLE = {
    "cyclic": (1, cyclic),
    "abelian": (None, lambda *invariants: abelian(invariants)),
    "dihedral": (1, dihedral),
    "tetra": (0, lambda: alternating(4)),
    "octa": (0, lambda: symmetric(4)),
    "icosa": (0, lambda: alternating(5)),
    "q8": (0, quaternion_group),
    "binary-tetra": (0, binary_tetrahedral),
    "binary-octa": (0, binary_octahedral),
    "binary-icosa": (0, binary_icosahedral),
    "binary-dihedral": (1, binary_dihedral),
    "metacyclic": (3, build_metacyclic),
    "klein-by-3power": (1, klein_by_cyclic3),
    "q8-by-3power": (1, q8_by_cyclic3),
}
_GROUP_ALIASES = {"a4": "tetra", "s4": "octa", "a5": "icosa", "quaternion8": "q8"}


def canonical_group_name(name: str) -> str:
    """Table name of ``name`` (case-insensitive, aliases resolved)."""
    key = name.strip().lower()
    key = _GROUP_ALIASES.get(key, key)
    if key not in _GROUP_TABLE:
        raise InvalidInputError(f"unknown group name {name!r}")
    return key


def _group_key(name: str, params) -> str:
    """Table name of ``name`` once ``params`` fits its parameter count.
    Each parameter is an integer, a factor, exponent or residue of an
    order under the cap, so a non-integer or one above ``ORDER_CAP`` is
    refused before any builder or model runs."""
    key = canonical_group_name(name)
    arity = _GROUP_TABLE[key][0]
    if not (bool(params) if arity is None else len(params) == arity):
        want = "one or more" if arity is None else arity
        raise InvalidParametersError(f"{key} takes {want} parameter(s), got {len(params)}")
    _require_integers(**{f"{key} parameter {i + 1}": value for i, value in enumerate(params)})
    if any(value > ORDER_CAP for value in params):
        raise BudgetError(f"a {key} parameter exceeds the order cap {ORDER_CAP}")
    return key


def _spec_text(name: str, params) -> str:
    """The group spec 'name:p1,p2' of a name and its parameters."""
    return name + (":" + ",".join(map(str, params)) if params else "")


def build_group(name: str, *params: int) -> FiniteGroup:
    """The group a table name (or alias) and its integer parameters
    denote, e.g. ``build_group("A5")`` or ``build_group("dihedral", 8)``."""
    return _GROUP_TABLE[_group_key(name, params)][1](*params)


def pu3_presentation_valid(m: int, n: int, r: int) -> bool:
    """Side conditions of the odd-order metacyclic presentation on
    integers: gcd(n(r-1), m) = 1, r^3 = 1 mod m, r != 1 mod m, m, n odd."""
    m, n, r = _require_integers(m=m, n=n, r=r)
    if m < 1 or n < 1 or r < 0:
        return False
    return (
        m % 2 == 1
        and n % 2 == 1
        and math.gcd(n * (r - 1), m) == 1
        and pow(r, 3, m) == 1 % m
        and r % m != 1 % m
    )


def order_gl(n: int, p: int) -> int:
    """Order of GL(n, F_p): the product of p^n - p^i over i < n.  Only a
    prime power p is the order of a field, so anything else is refused,
    and a p that ``snf._prime_powers`` cannot factor with ``BudgetError``."""
    (n,) = _require_integers(n=n)
    if n < 1 or n > 64:
        raise InvalidParametersError("dimension out of the exact-mode range")
    if not isinstance(p, numbers.Integral) or p < 2:
        raise InvalidParametersError(f"field order {p!r} is not an integer of at least 2")
    p = int(p)
    if len(_prime_powers(p)) != 1:
        raise InvalidParametersError(f"field order {p} is not a prime power")
    pn = p**n
    out = 1
    for i in range(n):
        out *= pn - p**i
    return out


# ---------------------------------------------------------------------------
# isomorphism testing


def minimal_generating_set(g: FiniteGroup) -> list[int]:
    order_desc = np.argsort(-g.element_orders, kind="stable")
    gens: list[int] = []
    have = np.zeros(g.size, dtype=bool)
    have[g.identity] = True
    for x in order_desc:
        if have[x]:
            continue
        gens.append(int(x))
        have[g.closure(gens)] = True
        if have.all():
            break
    return gens


def _induced_map(g: FiniteGroup, h: FiniteGroup, gens, imgs):
    """Partial map forced by generator images, or None on conflict."""
    phi = -np.ones(g.size, dtype=np.int64)
    phi[g.identity] = h.identity
    frontier = [g.identity]
    while frontier:
        fresh = []
        for x in frontier:
            fx = phi[x]
            for s, t in zip(gens, imgs):
                xs = g.table[x, s]
                yt = h.table[fx, t]
                if phi[xs] < 0:
                    phi[xs] = yt
                    fresh.append(xs)
                elif phi[xs] != yt:
                    return None
        frontier = fresh
    return phi


def find_isomorphism(g: FiniteGroup, h: FiniteGroup):
    """An explicit isomorphism as an index array, or None.

    Screens on cheap invariants, then backtracks over images of a small
    generating set; a candidate survives only if the induced map closes
    without conflicts, and the winner is verified on the full table."""
    if g.size != h.size:
        return None
    if structural_invariants(g) != structural_invariants(h):
        return None
    if g.size == 1:
        return np.array([h.identity], dtype=np.int64)
    gens = minimal_generating_set(g)
    g_ord, h_ord = g.element_orders, h.element_orders
    g_cs, h_cs = g.class_sizes_by_element, h.class_sizes_by_element
    candidates = []
    for level, s in enumerate(gens):
        pool = np.nonzero((h_ord == g_ord[s]) & (h_cs == g_cs[s]))[0]
        if level == 0:
            # any iso can be post-composed with an inner automorphism,
            # so one candidate per conjugacy class suffices here; the
            # pool holds whole classes (order and class size are class
            # functions), so each class's least element stands for it
            pool = pool[h._class_names[pool] == pool]
        candidates.append(pool)
    sub_sizes = [g.closure(gens[: i + 1]).size for i in range(len(gens))]

    def backtrack(level, imgs):
        if level == len(gens):
            phi = _induced_map(g, h, gens, imgs)
            if phi is None or np.any(phi < 0):
                return None
            if not _index_mask(h.size, phi).all():
                return None
            if np.array_equal(h.table[phi[:, None], phi[None, :]], phi[g.table]):
                return phi
            return None
        for c in candidates[level]:
            chosen = imgs + [int(c)]
            phi = _induced_map(g, h, gens[: level + 1], chosen)
            if phi is None:
                continue
            assigned = phi >= 0
            if assigned.sum() != sub_sizes[level]:
                continue
            if np.count_nonzero(_index_mask(h.size, phi[assigned])) != assigned.sum():
                continue
            out = backtrack(level + 1, chosen)
            if out is not None:
                return out
        return None

    return backtrack(0, [])


def is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    return find_isomorphism(g, h) is not None


# ---------------------------------------------------------------------------
# structural queries


def normal_cyclic_subgroups(g: FiniteGroup) -> list[np.ndarray]:
    """All normal cyclic subgroups, one entry per subgroup, in order of
    their least generator.

    One power table answers for every element at once: row x of the
    (n, n) mask ``member`` is <x>, filled by max order steps of
    x -> x^k.  <x> = <y> exactly when each holds the other, and <x> is
    normal exactly when it holds every conjugate g x g^-1."""
    n = g.size
    idx = np.arange(n)
    member = np.zeros((n, n), dtype=bool)
    cur = idx
    for _ in range(int(g.element_orders.max())):
        member[idx, cur] = True
        cur = g.table[cur, idx]
    first = np.argmax(member & member.T, axis=1) == idx
    normal = member[idx, g.table[g.table, g.inverses[:, None]]].all(axis=0)
    return [np.flatnonzero(member[x]) for x in np.flatnonzero(first & normal)]


def max_cyclic_normal_index(g: FiniteGroup) -> int:
    best = 1
    for sub in normal_cyclic_subgroups(g):
        best = max(best, sub.size)
    return g.size // best


def sylow_subgroup(g: FiniteGroup, p: int) -> np.ndarray:
    """Element set of one Sylow p-subgroup (just the identity when p does
    not divide |G|).

    Grows a p-subgroup H one element at a time: while H is not Sylow, p
    divides [N(H) : H], so N(H) holds an element x outside H of p-power
    order, and H<x> is again a p-subgroup.
    """
    _require_prime(p)
    full = p ** dict(_prime_powers(g.size)).get(p, 0)  # the p-part of |G|
    # an element order divides |G|, so it is a power of p iff it divides full
    p_power = full % g.element_orders == 0
    sub = np.array([g.identity])
    while sub.size < full:
        inside = _index_mask(g.size, sub)
        conj = g.table[g.table[:, sub], g.inverses[:, None]]
        normalizer = inside[conj].all(axis=1)
        x = int(np.flatnonzero(normalizer & p_power & ~inside)[0])
        sub = g.closure(np.append(sub, x))
    return sub


def _is_cyclic(g: FiniteGroup) -> bool:
    return int(g.element_orders.max()) == g.size


# --- family certificates ------------------------------------------------------


def _powers(g: FiniteGroup, x: int) -> np.ndarray:
    """x^0, x^1, ..., x^(k-1), k the order of x."""
    k = int(g.element_orders[x])
    return np.fromiter(itertools.accumulate(range(1, k), lambda y, _: g.table[y, x],
                                            initial=g.identity), np.int64, k)


def _odd_core_index(g: FiniteGroup) -> int:
    """The 2-part of |G| if the odd-order elements form a cyclic subgroup
    N of that index (one has the order of their count), else 0.  A normal
    subgroup of odd order and 2-power index is a normal Hall subgroup, so
    N is the only one; gN in G/N has the 2-part of the order of g."""
    odd = g.element_orders[g.element_orders % 2 == 1]
    two_part = g.size & -g.size
    return two_part if odd.size * two_part == g.size and int(odd.max()) == odd.size else 0


def _odd_metacyclic_2power_by_z2(g: FiniteGroup) -> bool:
    """|G| = 2^(k+2) |N|, k odd and > 1, and an x of order divisible by
    2^(k+1): N<x> (N<x^2> if that is G) is then an index-2 H with H/N
    cyclic of order 2^(k+1); conversely a generator of H/N lifts to such an x."""
    two_part = _odd_core_index(g)
    k = two_part.bit_length() - 3
    return k > 1 and k % 2 == 1 and bool(np.any(g.element_orders % (two_part // 2) == 0))


def _dihedral_relations_hold(g: FiniteGroup, inside: np.ndarray, twisted: bool) -> bool:
    """Whether a, the first element of the mask ``inside`` of order h =
    |inside|/2, and b, its first element outside <a>, satisfy
    b a b^-1 = a^-1 and b^2 = 1 (b^2 = a^(h/2) if ``twisted``).  These
    present the dihedral (dicyclic) group of order 2h, and <a, b> holds
    <a> and b<a>, so then <a, b> is that group; in that group every such
    a and b satisfy them (a generates the cyclic subgroup of index 2,
    except in Z2, the Klein group and Q8, where any choice does)."""
    half = int(np.count_nonzero(inside)) // 2
    found = np.flatnonzero(inside & (g.element_orders == half))
    if found.size == 0:
        return False
    a, powers = int(found[0]), _powers(g, int(found[0]))
    b = int(np.argmax(inside & ~_index_mask(g.size, powers)))
    square = powers[half // 2] if twisted else g.identity
    return bool(g.table[b, b] == square and g.table[g.table[b, a], g.inverses[b]] == g.inverses[a])


def _binary_dihedral_times_odd(g: FiniteGroup) -> bool:
    """G = P x C, C the central odd-order elements (cyclic) and P those of
    order prime to |C|, 8 <= |P| = 0 mod 4, dicyclic by its relations,
    which also make P a subgroup: the dicyclic <a, b> lies in P."""
    orders = g.element_orders
    core = g.center[orders[g.center] % 2 == 1]
    inside = np.gcd(orders, core.size) == 1
    size = int(np.count_nonzero(inside))
    return (int(orders[core].max()) == core.size and size * core.size == g.size
            and math.gcd(size, core.size) == 1 and size >= 8 and size % 4 == 0
            and _dihedral_relations_hold(g, inside, twisted=True))


def _metacyclic_certificate(g: FiniteGroup) -> tuple[int, int, int] | None:
    """(m, n, r) if g is <A, B | A^m = B^n = 1, B A B^-1 = A^r> under the
    side conditions of ``pu3_presentation_valid``, else None.  These make
    [B, A] = A^(r-1) generate <A> = G', so G' is cyclic of order m > 1 and
    G/G' cyclic of order n > 1 prime to m; an element b of order n spans a
    complement (Schur-Zassenhaus), and b a b^-1 = a^r for a generator a of
    G'.  Another b turns r into r^j, j a unit mod n; a valid r has order 3
    mod m and 3 | n, so 3 does not divide j and the test is unchanged."""
    if g.size % 2 == 0:
        return None
    orders, derived = g.element_orders, g.commutator_subgroup
    m, invariants = derived.size, g.abelian_invariants
    if (m == 1 or int(orders[derived].max()) != m or len(invariants) != 1
            or math.gcd(m, invariants[0]) != 1):
        return None
    n = invariants[0]
    a, b = int(derived[np.argmax(orders[derived] == m)]), int(np.argmax(orders == n))
    r = np.flatnonzero(_powers(g, a) == g.table[g.table[b, a], g.inverses[b]])[0]
    return (m, n, int(r)) if pu3_presentation_valid(m, n, r) else None


def _polyhedral(g: FiniteGroup) -> bool:
    """Cyclic, dihedral by its relations, A4, S4 or A5.  Among the groups
    of order 12 and 24 (H. U. Besche, B. Eick and E. A. O'Brien, "A
    millennium project: constructing small groups", 2002), A4 and S4
    alone have trivial centre; a perfect group of order 60 is simple, as
    every smaller group is solvable, and A5 is the one such group."""
    n = g.size
    if _is_cyclic(g) or (n % 2 == 0 and _dihedral_relations_hold(g, np.ones(n, bool), False)):
        return True
    if n in (12, 24):
        return g.center.size == 1
    return n == 60 and g.commutator_subgroup.size == n


_FAMILY_TESTS = {
    "cyclic": _is_cyclic,
    "abelian-rank-le-2": lambda g: g.is_abelian and len(g.abelian_invariants) <= 2,
    "polyhedral": _polyhedral,
    "odd-cyclic": lambda g: g.size % 2 == 1 and _is_cyclic(g),
    "odd-cyclic-by-z2": lambda g: _odd_core_index(g) == 2,
    "odd-cyclic-by-z4": lambda g: _odd_core_index(g) == 4 and np.any(g.element_orders % 4 == 0),
    "odd-cyclic-by-klein": lambda g: _odd_core_index(g) == 4 and np.all(g.element_orders % 4),
    "metacyclic-odd-projective": lambda g: _metacyclic_certificate(g) is not None,
    "binary-dihedral-times-odd-cyclic": _binary_dihedral_times_odd,
    "odd-metacyclic-2power-by-z2": _odd_metacyclic_2power_by_z2,
}


def matches_family(g: FiniteGroup, family: str) -> bool:
    """Structural membership test for the classification families.  Each
    tag is a certificate on element orders, the centre, G' and G/G', and
    at most one two-generator presentation check: a cyclic subgroup of
    odd-order elements (odd-cyclic-by-*, odd-metacyclic-2power-by-z2),
    (m, n, r) off G' (metacyclic-odd-projective), dicyclic or dihedral
    relations (binary-dihedral-times-odd-cyclic, polyhedral).  An
    unknown tag raises InvalidInputError."""
    try:
        test = _FAMILY_TESTS[family]
    except KeyError:
        raise InvalidInputError(f"unknown family tag {family!r}") from None
    return bool(test(g))
