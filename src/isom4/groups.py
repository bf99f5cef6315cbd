"""Finite groups as dense multiplication tables.

Every group is a Latin square over element indices, fully validated at
construction (identity, two-sided inverses, associativity).  Order is
capped at 512: each family needed here fits, and table form turns every
structural question into a finite scan.

Constructors cover cyclic, abelian, dihedral, symmetric/alternating,
the binary polyhedral groups (built from unit-quaternion models and
exactified into tables), metacyclic presentations, direct/semidirect
products, and central products over a shared involution.  The named
groups live in one table, read through :func:`build_group`, and every
matrix or quaternion model is closed into a table by one routine.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BudgetError, InvalidInputError, InvalidParametersError
from .snf import _require_prime, _row_blocks, kernel_mod_p

ORDER_CAP = 512

__all__ = [
    "FiniteGroup",
    "GroupKind",
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
    "semidirect_product",
    "central_product",
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
    "index_two_subgroups",
    "sylow_subgroup",
    "matches_family",
    "order_gl",
]


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
    # p-parts of the Schur multiplier M(Q), of Q and of its Sylow
    # p-subgroup, and the local bases of H^2(Q; Z_{p^c}) that class
    # enumeration reads, keyed by cohomology as (part, p, ...): they
    # depend on the group alone, so each is solved once per group object
    cohomology_parts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise InvalidInputError("multiplication table must be square")
        n = table.shape[0]
        if n == 0:
            raise InvalidInputError("group must be nonempty")
        if n > ORDER_CAP:
            raise BudgetError(f"group order {n} exceeds cap {ORDER_CAP}")
        if table.min() < 0 or table.max() >= n:
            raise InvalidInputError("table entries must be element indices")
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

    def _is_normal(self, inside: np.ndarray) -> bool:
        """Whether the masked element set is a normal subgroup."""
        if not self._is_closed(inside):
            return False
        conj = self.table[self.table[:, np.flatnonzero(inside)], self.inverses[:, None]]
        return bool(inside[conj].all())

    def is_subgroup(self, elements) -> bool:
        return self._is_closed(_index_mask(self.size, elements))

    def is_normal(self, elements) -> bool:
        return self._is_normal(_index_mask(self.size, elements))

    def restrict(self, elements) -> tuple["FiniteGroup", np.ndarray]:
        """Subgroup on the given (closed) element set, reindexed densely."""
        inside = _index_mask(self.size, elements)
        if not self._is_closed(inside):
            raise InvalidInputError("element set is not a subgroup")
        els = np.flatnonzero(inside)
        pos = np.cumsum(inside) - 1  # pos[x]: the rank of x in els
        sub = pos[self.table[np.ix_(els, els)]]
        return FiniteGroup(sub), els

    def quotient(self, normal_elements) -> tuple["FiniteGroup", np.ndarray]:
        """Quotient by a normal subgroup; returns (group, projection)."""
        inside = _index_mask(self.size, normal_elements)
        if not self._is_normal(inside):
            raise InvalidInputError("quotient requires a normal subgroup")
        rep = self.table[:, np.flatnonzero(inside)].min(axis=1)
        is_rep = _index_mask(self.size, rep)
        reps = np.flatnonzero(is_rep)
        proj = (np.cumsum(is_rep) - 1)[rep]
        qtable = proj[self.table[np.ix_(reps, reps)]]
        return FiniteGroup(qtable), proj

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
        rest, p = n // derived, 2
        while rest > 1:
            if rest % p:
                p += 1
                continue
            at_least = []  # at_least[k-1]: factors of exponent >= k
            logged, pk = 0, 1
            while rest % p == 0:
                pk *= p
                count = int(np.count_nonzero(pk % orders == 0)) // derived
                log = round(math.log(count, p))
                at_least.append(log - logged)
                rest //= p ** at_least[-1]
                logged = log
            for j in range(at_least[0]):
                power = p ** sum(1 for m in at_least if m > j)
                if j < len(factors):
                    factors[j] *= power
                else:
                    factors.append(power)
        return tuple(factors[::-1])


@dataclass(frozen=True)
class GroupKind:
    tag: str
    order_param: int | None = None

    def __post_init__(self):
        if self.order_param is not None and self.order_param < 1:
            raise InvalidParametersError("order parameter must be positive")


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
    if n < 1:
        raise InvalidParametersError("cyclic order must be positive")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def abelian(invariants) -> FiniteGroup:
    """Z_{k1} x ... x Z_{kr} in one mixed-radix table, the last
    coordinate running fastest, so its elements come in the order of
    ``direct_product`` chained from ``cyclic(1)``."""
    orders = [int(k) for k in invariants]
    if any(k < 1 for k in orders):
        raise InvalidParametersError("cyclic order must be positive")
    if math.prod(orders) > ORDER_CAP:
        raise BudgetError("abelian group exceeds the order cap")
    table = np.zeros((1, 1), dtype=np.int64)
    for k in orders:
        idx = np.arange(k)
        step = (idx[:, None] + idx[None, :]) % k
        size = table.shape[0] * k
        table = (table[:, None, :, None] * k + step[None, :, None, :]).reshape(size, size)
    return FiniteGroup(table)


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order 2k."""
    if order < 2 or order % 2:
        raise InvalidParametersError("dihedral order must be even and >= 2")
    k = order // 2
    a, b = np.divmod(np.arange(order), k)  # element index = b + k*a is (rot b, flip a)
    a1, a2 = a[:, None], a[None, :]
    b1, b2 = b[:, None], b[None, :]
    rot = (b1 + np.where(a1 == 1, -b2, b2)) % k
    flip = (a1 + a2) % 2
    return FiniteGroup(flip * k + rot)


def symmetric(n: int) -> FiniteGroup:
    return _permutation_group(itertools.permutations(range(n)))


def alternating(n: int) -> FiniteGroup:
    perms = [p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1]
    return _permutation_group(perms)


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _permutation_group(perms) -> FiniteGroup:
    perms = sorted(perms)
    if len(perms) > ORDER_CAP:
        raise BudgetError("permutation group exceeds the order cap")
    # the empty permutation (of no points) keys as the identity of one point
    perms = np.array([p or (0,) for p in perms], dtype=np.int64)
    # (p q)(x) = p(q(x)); the permutation itself is its key
    return _cayley_table(perms, lambda s, t: perms[s:t, perms].reshape(-1, perms.shape[1]))


# --- closing generators into a table ----------------------------------------

# matrix entries are short trig/golden-ratio expressions, so 1e-6 is a
# comfortable dedup scale while float error stays near machine epsilon
DEDUP_DECIMALS = 6
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


def _key_index(keys: np.ndarray):
    """Lookup from key rows to the index of the equal row of ``keys``,
    through one sort of the byte records."""
    records = _key_rows(keys)
    order = np.argsort(records)
    ordered = records[order]

    def lookup(queries: np.ndarray) -> np.ndarray:
        found = _key_rows(queries)
        pos = np.minimum(np.searchsorted(ordered, found), ordered.size - 1)
        if not np.array_equal(ordered[pos], found):
            raise InvalidInputError("a product falls outside the closed element set")
        return order[pos]

    return lookup


def _cayley_table(keys: np.ndarray, products) -> FiniteGroup:
    """Table of the group whose element i has key row ``keys[i]``;
    ``products(s, t)`` gives the key rows of elements s..t-1 times every
    element, row-major, in blocks of about ``snf._BLOCK_ENTRIES`` key
    entries."""
    n = keys.shape[0]
    lookup = _key_index(keys)
    table = np.empty((n, n), dtype=np.int32)
    for rows in _row_blocks(n, n * keys.shape[1]):
        table[rows] = lookup(products(rows.start, rows.stop)).reshape(-1, n)
    return FiniteGroup(table)


def _matrix_keys(mats: np.ndarray) -> np.ndarray:
    """Dedup key per matrix: its entries (real, then imaginary parts)
    rounded to DEDUP_DECIMALS, with -0.0 folded into 0.0."""
    flat = mats.reshape(mats.shape[0], -1)
    if np.iscomplexobj(flat):
        flat = np.hstack([flat.real, flat.imag])
    return np.round(flat, DEDUP_DECIMALS) + 0.0


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
        prod -= mats[table[blk]].transpose(0, 2, 1, 3).reshape(prod.shape)
        worst = np.maximum(worst, np.max(np.abs(prod)))
    return float(worst)


def _close_unitary(generators) -> tuple[FiniteGroup, np.ndarray, float]:
    """Close square orthogonal/unitary generators under multiplication.

    Breadth first: each level multiplies the new elements on the right
    by every generator, in order, and keeps the products whose key is
    new.  Recording the index of every such product gives right
    multiplication by each generator s as a permutation R_s, and each
    new element b as parent[b] * via[b], a spanning tree of the Cayley
    graph.  Column b of the table is then R_via[b] applied to column
    parent[b], from column 0 of the identity: n^2 integer gathers and
    no further matrix products (the Schreier-tree construction, D. F.
    Holt, B. Eick and E. A. O'Brien, *Handbook of Computational Group
    Theory*, 2005).  The whole table is then checked against the
    matrices, |M_a M_b - M_table[a, b]| <= DEFAULT_TOLERANCE for all
    pairs, so the returned matrices (one per element) form a faithful
    representation.  Returns (group, matrices, that all-pairs residual):
    a caller that keeps these very matrices reads the residual instead
    of forming the n^2 products again."""
    gens = [np.asarray(g) for g in generators]
    dtype = np.complex128 if any(np.iscomplexobj(g) for g in gens) else np.float64
    d = gens[0].shape[0]
    if any(g.shape != (d, d) for g in gens):
        raise InvalidInputError("generators must be square and equally sized")
    gens = np.stack(gens).astype(dtype)
    k = gens.shape[0]
    eye = np.eye(d, dtype=dtype)
    # a non-finite generator is refused below; numpy need not warn first
    with np.errstate(invalid="ignore", over="ignore"):
        drift = np.max(np.abs(gens.conj().transpose(0, 2, 1) @ gens - eye))
    _require_within(drift, DEFAULT_TOLERANCE, "generators must be orthogonal/unitary")
    index = {_matrix_keys(eye[None])[0].tobytes(): 0}
    levels, right, parent, via = [eye[None]], [], [0], [0]
    while levels[-1].shape[0]:
        first = len(index) - levels[-1].shape[0]  # index of the level's first element
        prods = (levels[-1][:, None] @ gens[None]).reshape(-1, d, d)
        found = np.empty(prods.shape[0], dtype=np.int64)
        fresh = []
        for i, key in enumerate(_matrix_keys(prods)):
            key = key.tobytes()
            if key not in index:
                if len(index) >= ORDER_CAP:
                    raise BudgetError("matrix closure exceeds the order cap")
                index[key] = len(index)
                fresh.append(i)
                parent.append(first + i // k)
                via.append(i % k)
            found[i] = index[key]
        right.append(found.reshape(-1, k))
        levels.append(prods[fresh])
    mats = np.concatenate(levels)
    right = np.concatenate(right)
    n = mats.shape[0]
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for b in range(1, n):
        table[:, b] = right[table[:, parent[b]], via[b]]
    residual = _table_residual(table, mats)
    _require_within(residual, DEFAULT_TOLERANCE, "a product falls outside the closed element set")
    return FiniteGroup(table), mats, residual


# --- unit-quaternion models -------------------------------------------------


def _left_mul(q) -> np.ndarray:
    """4x4 matrix of x -> q x; its first column is q itself."""
    a, b, c, d = (float(x) for x in q)
    return np.array([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]])


def group_from_quaternions(generators) -> tuple[FiniteGroup, np.ndarray]:
    """Close a set of unit quaternions under multiplication and return
    the abstract group together with the quaternion per element.

    The closure runs on the left-multiplication matrices, whose entries
    are the coordinates up to sign, so coordinates are deduplicated at
    1e-6, far coarser than the float error of these short products."""
    group, mats, _ = _close_unitary([_left_mul(q) for q in generators])
    return group, np.ascontiguousarray(mats[:, :, 0])


_HALF = (0.5, 0.5, 0.5, 0.5)
_QI = (0.0, 1.0, 0.0, 0.0)
_QJ = (0.0, 0.0, 1.0, 0.0)
_R2 = 1.0 / math.sqrt(2.0)
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_ICOSA_AXIS = np.array([0.0, 1.0, _PHI]) / math.sqrt(2.0 + _PHI)
_SIN5 = math.sin(math.pi / 5.0)

# unit-quaternion generators of each binary polyhedral group, keyed by
# the rotation group it double-covers, with the order of their closure
_BINARY_QUAT_GENS = {
    "tetra": ((_HALF, _QI), 24),
    "octa": ((_HALF, _QI, (_R2, _R2, 0.0, 0.0)), 48),
    "icosa": ((_HALF, (math.cos(math.pi / 5.0), *(_SIN5 * _ICOSA_AXIS))), 120),
}


def quaternion_group() -> FiniteGroup:
    return group_from_quaternions([_QI, _QJ])[0]


def binary_dihedral(order: int) -> FiniteGroup:
    """Binary dihedral (dicyclic) group of the given order 4k."""
    if order < 4 or order % 4:
        raise InvalidParametersError("binary dihedral order must be a multiple of 4")
    k = order // 4
    a = (math.cos(math.pi / k), math.sin(math.pi / k), 0.0, 0.0)
    g, _ = group_from_quaternions([a, _QJ])
    if g.size != order:
        raise InvalidInputError("quaternion closure produced the wrong order")
    return g


def _binary_polyhedral(kind: str) -> FiniteGroup:
    gens, expected = _BINARY_QUAT_GENS[kind]
    g, _ = group_from_quaternions(gens)
    if g.size != expected:
        raise InvalidInputError(f"quaternion closure has order {g.size}, expected {expected}")
    return g


def binary_tetrahedral() -> FiniteGroup:
    return _binary_polyhedral("tetra")


def binary_octahedral() -> FiniteGroup:
    return _binary_polyhedral("octa")


def binary_icosahedral() -> FiniteGroup:
    return _binary_polyhedral("icosa")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    ng, nh = g.size, h.size
    if ng * nh > ORDER_CAP:
        raise BudgetError("direct product exceeds the order cap")
    tg = g.table.astype(np.int64)
    th = h.table.astype(np.int64)
    table = (tg[:, None, :, None] * nh + th[None, :, None, :]).reshape(ng * nh, ng * nh)
    return FiniteGroup(table)


def semidirect_product(n: FiniteGroup, h: FiniteGroup, action: np.ndarray) -> FiniteGroup:
    """Semidirect product N x| H for action[b] the automorphism of N
    attached to b in H; element index is a * |H| + b."""
    action = np.asarray(action, dtype=np.int64)
    if action.shape != (h.size, n.size):
        raise InvalidInputError("action must map each H element to an N permutation")
    idx = np.arange(n.size)
    if not np.array_equal(action[h.identity], idx):
        raise InvalidInputError("identity must act trivially")
    for b in range(h.size):
        perm = action[b]
        if not np.array_equal(np.sort(perm), idx):
            raise InvalidInputError("action rows must be permutations")
        if not np.array_equal(n.table[np.ix_(perm, perm)], perm[n.table]):
            raise InvalidInputError("action rows must be automorphisms")
    comp = action[:, action]  # comp[b1, b2] = action[b1] o action[b2]
    if not np.array_equal(action[h.table], comp.reshape(h.size, h.size, n.size)):
        raise InvalidInputError("action must be a homomorphism")
    if n.size * h.size > ORDER_CAP:
        raise BudgetError("semidirect product exceeds the order cap")
    a1 = np.arange(n.size)[:, None, None, None]
    b1 = np.arange(h.size)[None, :, None, None]
    a2 = np.arange(n.size)[None, None, :, None]
    b2 = np.arange(h.size)[None, None, None, :]
    twisted = action[b1, a2]
    prod_a = n.table[a1, twisted]
    prod_b = h.table[b1, b2]
    table = prod_a.astype(np.int64) * h.size + prod_b
    size = n.size * h.size
    return FiniteGroup(np.broadcast_to(table, (n.size, h.size, n.size, h.size)).reshape(size, size))


def central_product(g: FiniteGroup, h: FiniteGroup, zg: int, zh: int) -> FiniteGroup:
    """Quotient of G x H identifying the central involutions zg and zh."""
    for grp, z in ((g, zg), (h, zh)):
        if z not in grp.center or grp.element_orders[z] != 2:
            raise InvalidInputError("identified elements must be central of order 2")
    nh = h.size
    total = g.size * nh
    if total // 2 > ORDER_CAP:
        raise BudgetError("central product exceeds the order cap")
    pair = np.arange(total, dtype=np.int64)
    a, b = np.divmod(pair, nh)
    partner = g.table[a, zg].astype(np.int64) * nh + h.table[b, zh]
    rep = np.minimum(pair, partner)
    is_rep = _index_mask(total, rep)
    reps = np.flatnonzero(is_rep)
    pos = np.cumsum(is_rep) - 1  # pos[x]: the rank of x in reps
    ra, rb = np.divmod(reps, nh)
    prod = (g.table[np.ix_(ra, ra)].astype(np.int64) * nh + h.table[np.ix_(rb, rb)]).ravel()
    table = pos[rep[prod]].reshape(reps.size, reps.size)
    return FiniteGroup(table)


def cyclic_central_product(m: int, g: FiniteGroup) -> FiniteGroup:
    """Z_m joined with g over the central involution, for even m and a
    group g with a single involution (which is therefore central); g
    itself at m = 2.  The binary polyhedral covers, the printed dicyclic
    models and the Q8 twist are compared in this form."""
    if m < 2 or m % 2:
        raise InvalidParametersError("m must be even and >= 2")
    involutions = np.flatnonzero(g.element_orders == 2)
    if involutions.size != 1:
        raise InvalidInputError("group must have exactly one involution")
    if m == 2:
        return g
    return central_product(cyclic(m), g, m // 2, int(involutions[0]))


def inverted_odd_cycle(k: int, m: int) -> FiniteGroup:
    """(Z_k x| Z_{2^(r+1)}) x Z_{m'} for odd k >= 3 and even m = 2^r m'
    with m' odd, the 2-power cycle inverting Z_k through its quotient
    of order 2: the group the nontrivial central extension of Z_m by the
    dihedral group of order 2k realizes, for every even m."""
    if k < 3 or k % 2 == 0:
        raise InvalidParametersError("k must be odd and >= 3")
    if m < 2 or m % 2:
        raise InvalidParametersError("m must be even and >= 2")
    r = (m & -m).bit_length() - 1
    m_odd = m >> r
    order_h = 2 ** (r + 1)
    act = np.tile(np.arange(k, dtype=np.int64), (order_h, 1))
    act[1::2] = (-act[1::2]) % k
    target = semidirect_product(cyclic(k), cyclic(order_h), act)
    if m_odd > 1:
        target = direct_product(target, cyclic(m_odd))
    return target


def build_metacyclic(m: int, n: int, r: int) -> FiniteGroup:
    """Z_m x| Z_n on pairs (a, b) with (a1,b1)(a2,b2) = (a1 + r^b1 a2,
    b1 + b2), a mod m and b mod n; requires r^n = 1 mod m."""
    if m < 1 or n < 1:
        raise InvalidParametersError("metacyclic orders must be positive")
    if pow(r, n, m) != 1 % m:
        raise InvalidParametersError("metacyclic twist must satisfy r^n = 1 mod m")
    if m * n > ORDER_CAP:
        raise BudgetError("metacyclic group exceeds the order cap")
    powers = np.array([pow(r, b, m) for b in range(n)], dtype=np.int64)
    # b acts on Z_m as multiplication by r^b
    return semidirect_product(cyclic(m), cyclic(n), powers[:, None] * np.arange(m) % m)


def _powers_of_permutation(perm: np.ndarray, count: int) -> list[np.ndarray]:
    out = [np.arange(len(perm))]
    for _ in range(count - 1):
        out.append(perm[out[-1]])
    return out


def klein_by_cyclic3(power: int) -> FiniteGroup:
    """(Z2 + Z2) x| Z_{3^power}, the cyclic factor rotating the three
    involutions; the action factors through Z_3 (trivial for power 0)."""
    if power < 0:
        raise InvalidParametersError("power must be nonnegative")
    v = abelian([2, 2])
    h = cyclic(3**power)
    cyc = np.array([0, 2, 3, 1])
    pows = _powers_of_permutation(cyc, 3)
    action = np.array([pows[b % 3] for b in range(h.size)])
    return semidirect_product(v, h, action)


def q8_by_cyclic3(power: int) -> FiniteGroup:
    """Q8 x| Z_{3^power}, the cyclic factor conjugating by the unit
    quaternion (-1+i+j+k)/2, which cycles the axes i -> j -> k; the
    action factors through Z_3."""
    if power < 0:
        raise InvalidParametersError("power must be nonnegative")
    q8, mats, _ = _close_unitary([_left_mul(_QI), _left_mul(_QJ)])
    conj = _left_mul((-0.5, 0.5, 0.5, 0.5)) @ mats @ _left_mul((-0.5, -0.5, -0.5, -0.5))
    cyc = _key_index(_matrix_keys(mats))(_matrix_keys(conj))
    h = cyclic(3**power)
    pows = _powers_of_permutation(cyc, 3)
    action = np.array([pows[b % 3] for b in range(h.size)])
    return semidirect_product(q8, h, action)


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


def build_group(name: str, *params: int) -> FiniteGroup:
    """The group a table name (or alias) and its integer parameters
    denote, e.g. ``build_group("A5")`` or ``build_group("dihedral", 8)``."""
    key = canonical_group_name(name)
    arity, build = _GROUP_TABLE[key]
    fits = bool(params) if arity is None else len(params) == arity
    if not fits:
        want = "one or more" if arity is None else arity
        raise InvalidParametersError(f"{key} takes {want} parameter(s), got {len(params)}")
    return build(*params)


def pu3_presentation_valid(m: int, n: int, r: int) -> bool:
    """Side conditions of the odd-order metacyclic presentation:
    gcd(n(r-1), m) = 1, r^3 = 1 mod m, r != 1 mod m, and m, n odd."""
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
    if n < 1 or n > 64:
        raise InvalidParametersError("dimension out of the exact-mode range")
    if p < 2:
        raise InvalidParametersError("p must be at least 2")
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
    rest = g.size
    while rest % p == 0:
        rest //= p
    full = g.size // rest  # the p-part of |G|
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


def index_two_subgroups(g: FiniteGroup) -> list[np.ndarray]:
    """Element sets of all index-2 subgroups (kernels of maps onto Z_2,
    found through the abelianization)."""
    ab, proj = g.quotient(g.commutator_subgroup)
    rows = []
    for i in range(ab.size):
        for j in range(ab.size):
            row = np.zeros(ab.size, dtype=np.int64)
            row[i] += 1
            row[j] += 1
            row[ab.table[i, j]] += 1
            rows.append(row % 2)
    hom_basis = kernel_mod_p(np.array(rows, dtype=np.int64), 2)
    out = []
    seen = set()
    for bits in itertools.product((0, 1), repeat=hom_basis.shape[1]):
        if not any(bits):
            continue
        chi = np.zeros(ab.size, dtype=np.int64)
        for b, col in zip(bits, hom_basis.T):
            chi = (chi + b * col) % 2
        if not chi.any():
            continue
        members = np.nonzero(chi[proj] == 0)[0]
        key = members.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(members)
    return out


def _is_cyclic(g: FiniteGroup) -> bool:
    return int(g.element_orders.max()) == g.size


def _match_odd_cyclic_by(g: FiniteGroup, quotient_model: FiniteGroup) -> bool:
    qsize = quotient_model.size
    if g.size % qsize or (g.size // qsize) % 2 == 0:
        return False
    target = g.size // qsize
    for sub in normal_cyclic_subgroups(g):
        if sub.size != target:
            continue
        quo, _ = g.quotient(sub)
        if is_isomorphic(quo, quotient_model):
            return True
    return False


def _match_metacyclic_projective(g: FiniteGroup) -> bool:
    if g.size % 2 == 0:
        return False
    orders = g.element_orders
    for sub in normal_cyclic_subgroups(g):
        m = int(sub.size)
        n = g.size // m
        if n == 1 or m == 1 or math.gcd(m, n) != 1:
            continue
        quo, proj = g.quotient(sub)
        if not _is_cyclic(quo):
            continue
        x = int(sub[np.argmax(orders[sub])])  # a generator of the subgroup
        powers = [g.identity]
        while len(powers) < m:
            powers.append(g.op(powers[-1], x))
        power_index = {p: e for e, p in enumerate(powers)}
        for hcand in np.nonzero(orders == n)[0]:
            if int(quo.element_orders[proj[hcand]]) != n:
                continue
            conj = g.op(g.op(int(hcand), x), int(g.inverses[hcand]))
            r = power_index[conj]
            if pu3_presentation_valid(m, n, r):
                return True
    return False


def _match_binary_dihedral_times_odd(g: FiniteGroup) -> bool:
    orders = g.element_orders
    central_odd = [int(i) for i in g.center if orders[i] % 2 == 1]
    core = g.closure(central_odd)
    csub, _ = g.restrict(core)
    if not _is_cyclic(csub):
        return False
    m_plus = csub.size
    if m_plus % 2 == 0:
        return False
    p_els = np.nonzero([math.gcd(int(o), m_plus) == 1 for o in orders])[0]
    if p_els.size * m_plus != g.size or math.gcd(int(p_els.size), m_plus) != 1:
        return False
    if not g.is_subgroup(p_els):
        return False
    if p_els.size < 8 or p_els.size % 4:
        return False
    psub, _ = g.restrict(p_els)
    return is_isomorphic(psub, binary_dihedral(psub.size))


def _match_odd_metacyclic_2power_by_z2(g: FiniteGroup) -> bool:
    order = g.size
    v2 = 0
    while order % 2 == 0:
        order //= 2
        v2 += 1
    n = v2 - 2
    if n <= 1 or n % 2 == 0:
        return False
    odd_part = order
    for members in index_two_subgroups(g):
        sub, _ = g.restrict(members)
        for nsub in normal_cyclic_subgroups(sub):
            if nsub.size != odd_part:
                continue
            quo, _ = sub.quotient(nsub)
            if quo.size == 2 ** (n + 1) and _is_cyclic(quo):
                return True
    return False


def _match_polyhedral(g: FiniteGroup) -> bool:
    if _is_cyclic(g):
        return True
    n = g.size
    if n % 2 == 0 and is_isomorphic(g, dihedral(n)):
        return True
    if n == 12:
        return is_isomorphic(g, alternating(4))
    if n == 24:
        return is_isomorphic(g, symmetric(4))
    if n == 60:
        return is_isomorphic(g, alternating(5))
    return False


_FAMILY_TESTS = {
    "cyclic": _is_cyclic,
    "abelian-rank-le-2": lambda g: g.is_abelian and len(g.abelian_invariants) <= 2,
    "polyhedral": _match_polyhedral,
    "odd-cyclic": lambda g: g.size % 2 == 1 and _is_cyclic(g),
    "odd-cyclic-by-z2": lambda g: _match_odd_cyclic_by(g, cyclic(2)),
    "odd-cyclic-by-z4": lambda g: _match_odd_cyclic_by(g, cyclic(4)),
    "odd-cyclic-by-klein": lambda g: _match_odd_cyclic_by(g, abelian([2, 2])),
    "metacyclic-odd-projective": _match_metacyclic_projective,
    "binary-dihedral-times-odd-cyclic": _match_binary_dihedral_times_odd,
    "odd-metacyclic-2power-by-z2": _match_odd_metacyclic_2power_by_z2,
}


def matches_family(g: FiniteGroup, family: str) -> bool:
    """Structural membership test for the classification families.

    Each family is recognized through normal-subgroup shape: a normal
    cyclic piece of the demanded order and parity plus the demanded
    quotient, with the stated coprimality side conditions."""
    try:
        test = _FAMILY_TESTS[family]
    except KeyError:
        raise InvalidInputError(f"unknown family tag {family!r}") from None
    return bool(test(g))
