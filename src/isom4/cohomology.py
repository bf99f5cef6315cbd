"""Second cohomology with cyclic coefficients and central extensions.

H^2(Q; Z_m) is read off universal coefficients,
H^2(Q; Z_m) = Hom(M(Q), Z_m) + Ext(H_1 Q, Z_m), with H_1 Q the
abelianization and M(Q) the Schur multiplier.  The p-part of M(Q) has
exponent dividing that of M(P) for a Sylow p-subgroup P (restriction to
P is injective on p-primary cohomology; K. Brown, *Cohomology of
Groups*, III.10), so one small cochain solve on P and one solve on Q at
the exponent of M(P) give M(Q)_p, the first alone when P = Q, and
nothing is solved when P is cyclic.  The cochain route, one solve per
prime power of m, stays as the second route.  Both read each local
solve H^2(Q; Z_{p^a}) through one memo per group object, so the two
share a solve where they need the same (p, a) and are independent
elsewhere.

Cochains are normalized bar cochains: a 2-cochain is a map
f : Q x Q -> Z_m vanishing whenever an argument is the identity, cut
down to the (|Q|-1)^2 pairs of nonidentity elements.  The cocycle
system is reduced before any linear algebra.  Its rows: the integer row
lattice of the full coboundary map d2 is generated by the rows attached
to a generating set of Q (rows compose along products).  Its unknowns:
a cocycle is determined by its values on the pairs (s, k) with s a
generator, so the system is solved in those, |gens| (|Q|-1) unknowns
instead of (|Q|-1)^2 (118 instead of 3,481 for A5).  Kernels are
computed per prime power and merged by CRT, avoiding one huge integer
Smith form.

A model the paper prints for an extension is compared by building it
with the ``groups`` constructors and testing it for isomorphism with
``unique_nontrivial_extension``'s result.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InvalidInputError, InvalidParametersError
from .groups import (
    FiniteGroup,
    _integer_fields,
    _require_integers,
    _require_order,
    is_isomorphic,
    minimal_generating_set,
    sylow_subgroup,
)
from .snf import (
    _imatmul,
    _prime_powers,
    _reduce,
    _require_integer_array,
    _row_blocks,
    kernel_mod_prime_power,
    module_presentation_local,
    solve_mod_prime_power,
)

__all__ = [
    "Cochain2",
    "CohomologyResult",
    "ExtensionClass",
    "GROUP_ORDER_CAP",
    "MODULUS_CAP",
    "CLASS_ENUMERATION_CAP",
    "second_cohomology",
    "cocycle_representatives",
    "build_central_extension",
    "classify_central_extensions",
    "unique_nontrivial_extension",
    "group_digest",
]

GROUP_ORDER_CAP = 60
MODULUS_CAP = 64
CLASS_ENUMERATION_CAP = 64


@dataclass(frozen=True)
class Cochain2:
    """Normalized 2-cochain on a finite group with values in Z_m.

    values is the full |Q| x |Q| table; rows and columns at the identity
    must be zero.  class_order, when present, is the order of the
    cohomology class this cochain represents.
    """

    group: FiniteGroup
    modulus: int
    values: np.ndarray
    class_order: int | None = None

    def __post_init__(self):
        (modulus,) = _integer_fields(self, "modulus")
        if modulus < 1:
            raise InvalidParametersError("modulus must be positive")
        # reduced in the given dtype, so no entry wraps
        vals = _reduce(_require_integer_array("cochain values", self.values),
                       modulus).astype(np.int64)
        n = self.group.size
        if vals.shape != (n, n):
            raise InvalidInputError("cochain table must be |Q| x |Q|")
        e = self.group.identity
        if vals[e, :].any() or vals[:, e].any():
            raise InvalidInputError("cochain must vanish at the identity")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class CohomologyResult:
    """Invariant factors of H^2(Q; Z_m), ascending divisibility, and the
    route that computed them: "uct" (universal coefficients) or
    "cochain" (the full cochain complex)."""

    invariant_factors: tuple[int, ...]
    route: str = "uct"

    def __post_init__(self):
        fac = tuple(int(x) for x in self.invariant_factors)
        if any(x <= 1 for x in fac):
            raise InvalidInputError("invariant factors must exceed 1")
        for a, b in zip(fac, fac[1:]):
            if b % a:
                raise InvalidInputError("factors must form a divisibility chain")
        if self.route not in ("uct", "cochain"):
            raise InvalidInputError(f"unknown H^2 route {self.route!r}")
        object.__setattr__(self, "invariant_factors", fac)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def to_json(self) -> dict:
        return {"invariant_factors": list(self.invariant_factors), "order": self.order,
                "route": self.route}


@dataclass(frozen=True)
class ExtensionClass:
    """One isomorphism type among the central extensions of Z_m by Q.

    ``group`` is the table of the type's first class, so it is defined
    only up to isomorphism: which class comes first follows the H^2
    basis the kernel returns.  ``key``, ``class_count`` and
    ``class_orders`` depend on the type alone."""

    group: FiniteGroup
    class_count: int
    class_orders: tuple[int, ...]

    @property
    def key(self) -> tuple:
        """Invariants of the group alone that order the listing: number
        of conjugacy classes, sorted element orders, order of the center."""
        g = self.group
        # Burnside: the classes number the commuting pairs over |G|
        classes = int((g.table == g.table.T).sum()) // g.size
        return classes, tuple(sorted(g.element_orders.tolist())), int(g.center.size)


def group_digest(group: FiniteGroup) -> str:
    """Stable content hash of the multiplication table."""
    payload = np.ascontiguousarray(group.table, dtype=np.int64).tobytes()
    return hashlib.sha1(payload).hexdigest()[:16]


def _nonidentity(group: FiniteGroup) -> np.ndarray:
    return np.flatnonzero(np.arange(group.size) != group.identity)


def _cocycle_system(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cocycle system in the values of f on generator pairs.

    The unknowns y are the values f(s, k), s in a generating set and k
    nonidentity.  The cocycle identity at (s, h, k) reads
    f(sh, k) = f(h, k) + f(s, hk) - f(s, h), so a breadth-first walk from
    the generators writes every f(g, k) as an integer form in y.
    Returns (forms, rows, gens):
    - forms, shape ((n-1)^2, len(y)): the cochain on all pairs (g, k)
      of nonidentity elements, flattened as pos(g) * (n-1) + pos(k), is
      forms @ y;
    - rows: the cocycle identities for each generator s at every pair
      (h, k), written in y, zero rows dropped.  Identities with other
      first arguments are integer combinations of these (rows compose
      along products), so forms @ y is a cocycle exactly when
      rows @ y = 0;
    - gens: the generating set, from ``minimal_generating_set``; y lists
      f(s, k) for s in gens, then k nonidentity ascending.

    The walk also proves the lemma the solves rest on: a cocycle is
    determined by its values on the generator pairs, so it is a
    coboundary exactly when it agrees with one there.
    """
    n = group.size
    e = group.identity
    table = group.table
    noni = _nonidentity(group)
    gens = minimal_generating_set(group)
    # ycol[i, k]: index in y of f(s_i, k)
    ycol = np.full((len(gens), n), -1, dtype=np.int64)
    ycol[:, noni] = np.arange(len(gens) * (n - 1)).reshape(len(gens), n - 1)
    # forms[g, k]: f(g, k) as a form in y, zero at the identity; each
    # step of the walk moves a coefficient by at most 1, so they stay
    # below n in size and the rows below 4n
    forms = np.zeros((n, n, len(gens) * (n - 1)), dtype=np.int16)
    for i, s in enumerate(gens):
        forms[s, noni, ycol[i, noni]] = 1
    reached = np.zeros(n, dtype=bool)
    reached[[e, *gens]] = True
    queue = list(gens)
    for h in queue:
        hk = table[h, noni]
        keep = hk != e
        for i, s in enumerate(gens):
            g = int(table[s, h])
            if reached[g]:
                continue
            reached[g] = True
            queue.append(g)
            forms[g] = forms[h]
            forms[g, noni[keep], ycol[i, hk[keep]]] += 1
            forms[g, noni, ycol[i, h]] -= 1
    flat = forms[np.ix_(noni, noni)].reshape((n - 1) ** 2, -1)
    hh = np.repeat(noni, n - 1)
    kk = np.tile(noni, n - 1)
    hk = table[hh, kk]
    # formed in row blocks, each cut to its nonzero rows at once, so no
    # temporary the size of the whole system is made (about half the
    # identities of A5 are zero)
    rows = []
    for s in gens:
        for blk in _row_blocks(flat.shape[0], flat.shape[1]):
            r = flat[blk] - forms[table[s, hh[blk]], kk[blk]]
            r += forms[s, hk[blk]]
            r -= forms[s, hh[blk]]
            rows.append(r[r.any(axis=1)])
    return flat, np.vstack(rows), gens


def _coboundary_matrix(group: FiniteGroup, firsts) -> np.ndarray:
    """The rows of d1 on normalized 1-cochains at the pairs (g, h), g in
    ``firsts`` (in that order) and h nonidentity ascending: column c
    gives the coboundary of the indicator cochain of the nonidentity
    element c.  ``firsts`` a generating set gives the generator-pair
    rows that decide coboundaries (``_cocycle_system``); all nonidentity
    elements give the whole of d1."""
    n = group.size
    e = group.identity
    noni = _nonidentity(group)
    pos = np.full(n, -1, dtype=np.int64)
    pos[noni] = np.arange(n - 1)
    firsts = np.asarray(firsts, dtype=np.int64)
    gg = np.repeat(firsts, n - 1)
    hh = np.tile(noni, firsts.size)
    pair = np.arange(gg.size)
    out = np.zeros((gg.size, n - 1), dtype=np.int8)
    np.add.at(out, (pair, pos[hh]), 1)
    np.add.at(out, (pair, pos[gg]), 1)
    gh = group.table[gg, hh]
    keep = gh != e
    np.add.at(out, (pair[keep], pos[gh[keep]]), -1)
    return out


def _local_cohomology(group: FiniteGroup, p: int, a: int) -> tuple:
    """H^2(Q; Z_{p^a}) as (orders, generator cocycle columns).

    orders are ascending prime-power invariant factors; the matching
    columns have length (n-1)^2 with entries mod p^a.  The solve runs in
    the values on generator pairs (``_cocycle_system``): a cocycle
    vanishing there vanishes everywhere, so it is a coboundary exactly
    when its values there are those of one.
    """
    forms, rows, gens = _cocycle_system(group)
    mod = p**a
    kernel = kernel_mod_prime_power(rows, p, a)
    bnd = np.asarray(_coboundary_matrix(group, gens), dtype=np.int64)
    stacked = np.hstack([kernel, bnd])
    lam = kernel_mod_prime_power(stacked, p, a)[: kernel.shape[1]]
    orders, coeffs = module_presentation_local(lam, p, a)
    # forms enters unreduced: the product is reduced mod p^a anyway
    gens = _imatmul(forms, (kernel @ coeffs) % mod) % mod
    return tuple(int(o) for o in orders), gens


def _check_caps(group: FiniteGroup, m: int):
    """Refuse a group above ``GROUP_ORDER_CAP`` and a modulus that is no
    integer or lies outside [1, ``MODULUS_CAP``], before any solve."""
    _require_integers(m=m)
    if group.size > GROUP_ORDER_CAP:
        raise BudgetError(f"group order capped at {GROUP_ORDER_CAP}")
    if not 1 <= m <= MODULUS_CAP:
        raise BudgetError(f"modulus must lie in [1, {MODULUS_CAP}]")


def _without(factors, removed) -> tuple[int, ...]:
    """The multiset ``factors`` less ``removed``; both list cyclic
    prime-power factors, so the decomposition is unique."""
    rest = list(factors)
    for f in removed:
        if f not in rest:
            raise RuntimeError("internal error: H_1 is not a summand of H^2")
        rest.remove(f)
    return tuple(rest)


def _exponent(orders) -> int:
    """log_p of the largest of ``orders``, powers of one prime p; 0 when
    there are none."""
    return max((_prime_powers(o)[0][1] for o in orders), default=0)


def _held_by_group(part: str):
    """Keep the value of a function of (group, p, ...) on the group
    object, in ``group.cohomology_parts``: the Schur multiplier of a
    Sylow subgroup and the local H^2 solves depend on the group and the
    prime power alone, not on the modulus asked for, so one solve serves
    every modulus for as long as the object lives."""
    def wrap(solve):
        @functools.wraps(solve)
        def held(group: FiniteGroup, *params):
            key = (part, *params)
            if key not in group.cohomology_parts:
                group.cohomology_parts[key] = solve(group, *params)
            return group.cohomology_parts[key]
        return held
    return wrap


@_held_by_group("local")
def _local_basis(group: FiniteGroup, p: int, a: int) -> tuple:
    """``_local_cohomology(group, p, a)``, solved once per group object
    for the Schur parts, class enumeration and the cochain route alike:
    solving the same system again would check nothing new."""
    return _local_cohomology(group, p, a)


@_held_by_group("sylow")
def _sylow_schur(group: FiniteGroup, p: int) -> tuple[int, ...]:
    """Elementary divisors of M(P) for a Sylow p-subgroup P; () when P is
    cyclic.

    At c = log_p |P| the solve H^2(P; Z_{p^c}) = M(P) + H_1(P) is exact,
    since |P| annihilates both.
    """
    els = sylow_subgroup(group, p)
    if int(group.element_orders[els].max()) == els.size:
        return ()
    sub = group if els.size == group.size else group.restrict(els)[0]
    orders, _ = _local_basis(sub, p, _prime_powers(els.size)[0][1])
    return _without(orders, sub.abelian_invariants)


def _schur_part(group: FiniteGroup, p: int) -> tuple[int, ...]:
    """Elementary divisors of M(Q)_p, the p-part of the Schur multiplier.

    When Q is a p-group this is M(P).  Otherwise its exponent divides
    p^e = exp M(P), so H^2(Q; Z_{p^e}) holds all of it beside
    H_1(Q)/p^e, which is known.
    """
    schur = _sylow_schur(group, p)
    if not schur or len(_prime_powers(group.size)) == 1:
        return schur
    e = _exponent(schur)
    orders, _ = _local_basis(group, p, e)
    return _without(orders, [math.gcd(h, p**e) for h in group.abelian_invariants
                             if h % p == 0])


@dataclass(frozen=True)
class _ClassBasis:
    """Direct-sum basis of H^2(Q; Z_m) with mod-m lifted generators."""

    factor_orders: tuple[int, ...]
    generators: np.ndarray  # shape ((n-1)^2, len(factor_orders)), mod m


def _class_basis(group: FiniteGroup, m: int) -> _ClassBasis:
    width = (group.size - 1) ** 2
    h1_order = math.prod(group.abelian_invariants)
    orders = []
    gens = []
    for p, a in _prime_powers(m):
        c = a
        if h1_order % p:
            # H^2(Q; Z_{p^a}) = Hom(M(Q)_p, Z_{p^a}), and Z_{p^e} -> Z_{p^a},
            # x -> p^(a-e) x, is an isomorphism on it for a > e: the basis
            # at p^e times p^(a-e) is a basis at p^a, orders unchanged
            c = min(a, _exponent(_sylow_schur(group, p)))
        if c == 0:
            continue
        local_orders, local_gens = _local_basis(group, p, c)
        if not local_orders:
            continue
        q = p**a
        rest = m // q
        lift = rest * pow(rest, -1, q)  # CRT idempotent: 1 mod q, 0 mod m/q
        orders.extend(local_orders)
        gens.append((local_gens * p ** (a - c) * lift) % m)
    if not orders:
        return _ClassBasis((), np.zeros((width, 0), dtype=np.int64))
    return _ClassBasis(tuple(orders), np.hstack(gens))


def _merge_invariant_factors(orders) -> tuple[int, ...]:
    """CRT-merge prime-power factors into one divisibility chain."""
    per_prime: dict[int, list[int]] = {}
    for o in orders:
        p = _prime_powers(o)[0][0]
        per_prime.setdefault(p, []).append(o)
    if not per_prime:
        return ()
    depth = max(len(v) for v in per_prime.values())
    merged = []
    for i in range(depth):
        f = 1
        for chain in per_prime.values():
            # align largest factors together: pad short chains in front
            j = i - (depth - len(chain))
            if j >= 0:
                f *= sorted(chain)[j]
        merged.append(f)
    return tuple(sorted(merged))


def second_cohomology(group: FiniteGroup, m: int) -> CohomologyResult:
    """H^2(Q; Z_m) for the trivial action, as invariant factors, by
    universal coefficients: Hom(M(Q), Z_m) + Ext(H_1 Q, Z_m), where each
    cyclic factor Z_d of M(Q) or H_1 Q contributes Z_gcd(d, m)."""
    _check_caps(group, m)
    orders = []
    for p, a in _prime_powers(m):
        if group.size % p:
            continue
        h1 = [h for h in group.abelian_invariants if h % p == 0]
        orders += [math.gcd(d, p**a) for d in (*_schur_part(group, p), *h1)]
    return CohomologyResult(_merge_invariant_factors(orders))


def _cochain_second_cohomology(group: FiniteGroup, m: int) -> CohomologyResult:
    """H^2(Q; Z_m) from the cochain complex alone, one solve per prime
    power of m: the second route, independent of universal coefficients."""
    _check_caps(group, m)
    orders = []
    if group.size > 1:
        for p, a in _prime_powers(m):
            orders.extend(_local_basis(group, p, a)[0])
    return CohomologyResult(_merge_invariant_factors(orders), route="cochain")


def _vector_to_table(group: FiniteGroup, vec: np.ndarray, m: int) -> np.ndarray:
    n = group.size
    noni = _nonidentity(group)
    table = np.zeros((n, n), dtype=np.int64)
    table[np.ix_(noni, noni)] = vec.reshape(n - 1, n - 1) % m
    return table


def cocycle_representatives(group: FiniteGroup, m: int) -> list[Cochain2]:
    """One normalized cocycle per cohomology class, zero class first.

    Distinctness is re-verified independently of the basis solve by
    ``_verify_distinct_classes``: for every pair, the difference is
    checked to not be a coboundary on the generator-pair rows of d1,
    at each prime power of m.
    """
    _check_caps(group, m)
    basis = _class_basis(group, m)
    total = math.prod(basis.factor_orders)
    if total > CLASS_ENUMERATION_CAP:
        raise BudgetError(f"class count {total} exceeds {CLASS_ENUMERATION_CAP}")
    reps = []
    coords = []
    for flat in range(total):
        c = []
        rest = flat
        for o in basis.factor_orders:
            c.append(rest % o)
            rest //= o
        vec = (basis.generators @ np.array(c, dtype=np.int64)) % m if c else None
        if vec is None:
            vec = np.zeros(basis.generators.shape[0], dtype=np.int64)
        order = 1
        for ci, oi in zip(c, basis.factor_orders):
            order = math.lcm(order, oi // math.gcd(oi, ci))
        reps.append(
            Cochain2(group, m, _vector_to_table(group, vec, m), class_order=order)
        )
        coords.append(tuple(c))
    reps = [r for _, r in sorted(zip(coords, reps), key=lambda t: (t[1].class_order, t[0]))]
    _verify_distinct_classes(group, m, reps)
    return reps


def _verify_distinct_classes(group: FiniteGroup, m: int, reps: list[Cochain2]):
    """Raise unless no two of ``reps`` differ by a coboundary.

    Each difference is solved against the rows of d1 at the generator
    pairs (s, k) only, |gens| (|Q|-1) rows (118 for A5, not 3,481).  The
    difference of two cocycles is a cocycle, and a cocycle that agrees
    with a coboundary on the generator pairs is that coboundary
    (``_cocycle_system``), so this decides exactly what the whole d1
    system decides.  A difference solvable on the whole system is
    solvable on these rows, so no cohomologous pair passes."""
    if len(reps) <= 1 or group.size == 1:
        return
    gens = minimal_generating_set(group)
    bnd = _coboundary_matrix(group, gens)
    tables = [r.values[np.ix_(gens, _nonidentity(group))].reshape(-1) for r in reps]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            diff = (tables[i] - tables[j]) % m
            solvable_everywhere = True
            for p, a in _prime_powers(m):
                if solve_mod_prime_power(bnd, diff, p, a) is None:
                    solvable_everywhere = False
                    break
            if solvable_everywhere:
                raise RuntimeError(
                    "internal error: representatives are cohomologous"
                )


def build_central_extension(group: FiniteGroup, m: int, f: Cochain2) -> FiniteGroup:
    """Group on Z_m x Q with multiplication twisted by the cocycle f.

    A normalized f makes the twisted table a Latin square with two-sided
    identity (0, 1), and that table is associative exactly when f is a
    cocycle, so the table's own validation as a group decides the
    cocycle identity.  The construction is checked on the result by
    ``_checked_extension``: the fiber {(a, 1)} is central and cyclic of
    order m, and the projection (a, q) -> q is a homomorphism onto Q
    with that kernel.
    """
    if f.group is not group and not np.array_equal(f.group.table, group.table):
        raise InvalidInputError("cochain belongs to a different group")
    if f.modulus != _require_integers(m=m)[0]:
        raise InvalidInputError("cochain modulus mismatch")
    n = group.size
    _require_order(m * n)
    a1 = np.arange(m)[:, None, None, None]
    q1 = np.arange(n)[None, :, None, None]
    a2 = np.arange(m)[None, None, :, None]
    q2 = np.arange(n)[None, None, None, :]
    a_out = (a1 + a2 + f.values[q1, q2]) % m
    q_out = group.table[q1, q2]
    table = np.broadcast_to(a_out * n + q_out, (m, n, m, n)).reshape(m * n, m * n)
    try:
        ext = FiniteGroup(table)
    except InvalidInputError as exc:
        raise InvalidInputError("cochain does not satisfy the cocycle identity") from exc
    return _checked_extension(group, m, ext)


def _checked_extension(group: FiniteGroup, m: int, ext: FiniteGroup) -> FiniteGroup:
    """``ext``, element a |Q| + q standing for (a, q), checked to be a
    central extension of Z_m by Q.

    The projection (a, q) -> q must be a homomorphism on all pairs.  Its
    kernel is the fiber {(a, 1)} by the indexing, so it is an explicit
    isomorphism from the quotient by the fiber onto Q; in particular the
    fiber is a subgroup of order m.  The fiber must be central and hold
    an element of order m, so it is cyclic of order m."""
    n = group.size
    fiber = np.arange(m) * n + group.identity
    if not all(x in ext.center for x in fiber.tolist()):
        raise InvalidInputError("extension fiber is not central")
    if int(ext.element_orders[fiber].max()) != m:
        raise InvalidInputError("extension fiber is not cyclic of order m")
    proj = np.arange(m * n) % n
    if not np.array_equal(proj[ext.table], group.table[np.ix_(proj, proj)]):
        raise InvalidInputError("extension quotient is not the base group")
    return ext


def classify_central_extensions(group: FiniteGroup, m: int) -> list[ExtensionClass]:
    """Central extensions of Z_m by Q up to isomorphism.

    Builds one group per cohomology class and merges isomorphic ones,
    keeping the number of classes behind each type visible.  Types are
    listed by ``ExtensionClass.key``; types with equal keys keep the
    order in which their first class appears.  Each type's ``group`` is
    the table of its first class, defined only up to isomorphism: the
    classes follow the H^2 basis the kernel returns, which a relabelling
    of Q can change, while the sorted (key, class count, class orders)
    of the types cannot.
    """
    reps = cocycle_representatives(group, m)
    out: list[dict] = []
    for f in reps:
        ext = build_central_extension(group, m, f)
        for entry in out:
            if is_isomorphic(entry["group"], ext):
                entry["count"] += 1
                entry["orders"].append(f.class_order)
                break
        else:
            out.append({"group": ext, "count": 1, "orders": [f.class_order]})
    classes = [
        ExtensionClass(
            group=e["group"],
            class_count=e["count"],
            class_orders=tuple(sorted(e["orders"])),
        )
        for e in out
    ]
    return sorted(classes, key=lambda c: c.key)


def unique_nontrivial_extension(group: FiniteGroup, m: int) -> FiniteGroup | None:
    """The single central extension type of Z_m by ``group`` with a
    nontrivial class; None when there is no such type or more than one.
    The group is classified once, so one result can be compared with
    several models."""
    hits = [entry.group for entry in classify_central_extensions(group, m)
            if any(o > 1 for o in entry.class_orders)]
    return hits[0] if len(hits) == 1 else None
