"""Second cohomology with cyclic coefficients and central extensions.

H^2(Q; Z_m) is read off universal coefficients,
H^2(Q; Z_m) = Hom(M(Q), Z_m) + Ext(H_1 Q, Z_m), with H_1 Q the
abelianization and M(Q) the Schur multiplier.  The p-part of M(Q) has
exponent dividing that of M(P) for a Sylow p-subgroup P (restriction to
P is injective on p-primary cohomology; K. Brown, *Cohomology of
Groups*, III.10), so one small cochain solve on P and one solve on Q at
the exponent of M(P) give M(Q)_p, the first alone when P = Q, and
nothing is solved when P is cyclic.  The cochain route, one solve per
prime power of m, stays as the independent second route.

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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InvalidInputError, InvalidParametersError
from .groups import (
    FiniteGroup,
    alternating,
    binary_dihedral,
    build_group,
    central_product,
    cyclic,
    dihedral,
    direct_product,
    is_isomorphic,
    klein_by_cyclic3,
    minimal_generating_set,
    q8_by_cyclic3,
    semidirect_product,
    sylow_subgroup,
)
from .snf import (
    _imatmul,
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
    "EXTENSION_ORDER_CAP",
    "second_cohomology",
    "cocycle_representatives",
    "build_central_extension",
    "classify_central_extensions",
    "verify_extension_isomorphism",
    "group_digest",
]

GROUP_ORDER_CAP = 60
MODULUS_CAP = 64
CLASS_ENUMERATION_CAP = 64
EXTENSION_ORDER_CAP = 512


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
        vals = np.array(self.values, dtype=np.int64)
        n = self.group.size
        if vals.shape != (n, n):
            raise InvalidInputError("cochain table must be |Q| x |Q|")
        if self.modulus < 1:
            raise InvalidParametersError("modulus must be positive")
        vals %= self.modulus
        e = self.group.identity
        if vals[e, :].any() or vals[:, e].any():
            raise InvalidInputError("cochain must vanish at the identity")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def value(self, g: int, h: int) -> int:
        return int(self.values[g, h])

    def is_cocycle(self) -> bool:
        """Exact check of f(h,k) - f(gh,k) + f(g,hk) - f(g,h) = 0 mod m."""
        f = self.values
        t = self.group.table
        # axes (g, h, k): f[t][g,h,k] = f(gh, k); f[:, t][g,h,k] = f(g, hk)
        lhs = f[None, :, :] - f[t] + f[:, t] - f[:, :, None]
        return bool((lhs % self.modulus == 0).all())


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
    """One isomorphism type among the central extensions of Z_m by Q."""

    group: FiniteGroup
    class_count: int
    class_orders: tuple[int, ...]
    sample: Cochain2

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


def _prime_powers(m: int) -> list[tuple[int, int]]:
    out = []
    rest = m
    p = 2
    while rest > 1:
        if rest % p == 0:
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    return out


def _nonidentity(group: FiniteGroup) -> np.ndarray:
    return np.flatnonzero(np.arange(group.size) != group.identity)


def _cocycle_system(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cocycle system in the values of f on generator pairs.

    The unknowns y are the values f(s, k), s in a generating set and k
    nonidentity.  The cocycle identity at (s, h, k) reads
    f(sh, k) = f(h, k) + f(s, hk) - f(s, h), so a breadth-first walk from
    the generators writes every f(g, k) as an integer form in y.
    Returns (forms, rows, sel):
    - forms, shape ((n-1)^2, len(y)): the cochain on all pairs (g, k)
      of nonidentity elements, flattened as pos(g) * (n-1) + pos(k), is
      forms @ y;
    - rows: the cocycle identities for each generator s at every pair
      (h, k), written in y, zero rows dropped.  Identities with other
      first arguments are integer combinations of these (rows compose
      along products), so forms @ y is a cocycle exactly when
      rows @ y = 0;
    - sel: the positions of the pairs (s, k) among all pairs, in the
      order of y.
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
    hh = np.repeat(noni, n - 1)
    kk = np.tile(noni, n - 1)
    hk = table[hh, kk]
    rows = np.vstack([forms[hh, kk] - forms[table[s, hh], kk] + forms[s, hk] - forms[s, hh]
                      for s in gens])
    rows = rows[rows.any(axis=1)]
    pos = np.searchsorted(noni, gens)
    sel = (pos[:, None] * (n - 1) + np.arange(n - 1)).reshape(-1)
    return forms[np.ix_(noni, noni)].reshape((n - 1) ** 2, -1), rows, sel


def _coboundary_matrix(group: FiniteGroup) -> np.ndarray:
    """d1 on normalized 1-cochains: column c gives the coboundary of the
    indicator cochain of the nonidentity element c."""
    n = group.size
    e = group.identity
    noni = _nonidentity(group)
    pos = np.full(n, -1, dtype=np.int64)
    pos[noni] = np.arange(n - 1)
    width = (n - 1) * (n - 1)
    gg = np.repeat(noni, n - 1)
    hh = np.tile(noni, n - 1)
    pair = pos[gg] * (n - 1) + pos[hh]
    out = np.zeros((width, n - 1), dtype=np.int8)
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
    forms, rows, sel = _cocycle_system(group)
    mod = p**a
    kernel = kernel_mod_prime_power(rows, p, a)
    bnd = np.asarray(_coboundary_matrix(group)[sel], dtype=np.int64)
    stacked = np.hstack([kernel, bnd])
    lam = kernel_mod_prime_power(stacked, p, a)[: kernel.shape[1]]
    orders, coeffs = module_presentation_local(lam, p, a, dim=kernel.shape[1])
    gens = _imatmul(forms % mod, (kernel @ coeffs) % mod) % mod
    return tuple(int(o) for o in orders), gens


def _check_caps(group: FiniteGroup, m: int):
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
    orders, _ = _local_cohomology(sub, p, _prime_powers(els.size)[0][1])
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
    orders, _ = _local_cohomology(group, p, e)
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
        local_orders, local_gens = _local_cohomology(group, p, c)
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
            orders.extend(_local_cohomology(group, p, a)[0])
    return CohomologyResult(_merge_invariant_factors(orders), route="cochain")


def _vector_to_table(group: FiniteGroup, vec: np.ndarray, m: int) -> np.ndarray:
    n = group.size
    noni = _nonidentity(group)
    table = np.zeros((n, n), dtype=np.int64)
    table[np.ix_(noni, noni)] = vec.reshape(n - 1, n - 1) % m
    return table


def cocycle_representatives(group: FiniteGroup, m: int) -> list[Cochain2]:
    """One normalized cocycle per cohomology class, zero class first.

    Distinctness is re-verified independently: for every pair, the
    difference is checked to not be a coboundary by solving the d1
    system at each prime power of m.
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
    if len(reps) <= 1 or group.size == 1:
        return
    noni = _nonidentity(group)
    bnd = np.asarray(_coboundary_matrix(group), dtype=np.int64)
    tables = [r.values[np.ix_(noni, noni)].reshape(-1) for r in reps]
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

    The construction is checked on the result: the fiber {(a, 1)} is a
    central cyclic subgroup of order m and the quotient by it is
    isomorphic to Q.
    """
    if f.group is not group and not np.array_equal(f.group.table, group.table):
        raise InvalidInputError("cochain belongs to a different group")
    if f.modulus != m:
        raise InvalidInputError("cochain modulus mismatch")
    if not f.is_cocycle():
        raise InvalidInputError("cochain does not satisfy the cocycle identity")
    n = group.size
    if m * n > EXTENSION_ORDER_CAP:
        raise BudgetError(f"extension order {m * n} exceeds {EXTENSION_ORDER_CAP}")
    a1 = np.arange(m)[:, None, None, None]
    q1 = np.arange(n)[None, :, None, None]
    a2 = np.arange(m)[None, None, :, None]
    q2 = np.arange(n)[None, None, None, :]
    a_out = (a1 + a2 + f.values[q1, q2]) % m
    q_out = group.table[q1, q2]
    table = np.broadcast_to(a_out * n + q_out, (m, n, m, n)).reshape(m * n, m * n)
    ext = FiniteGroup(table)
    fiber = np.arange(m) * n + group.identity
    if not all(x in ext.center for x in fiber.tolist()):
        raise InvalidInputError("extension fiber is not central")
    sub, _ = ext.restrict(fiber)
    if int(sub.element_orders.max()) != m:
        raise InvalidInputError("extension fiber is not cyclic of order m")
    quot, _ = ext.quotient(fiber)
    if not is_isomorphic(quot, group):
        raise InvalidInputError("extension quotient is not the base group")
    return ext


def classify_central_extensions(group: FiniteGroup, m: int) -> list[ExtensionClass]:
    """Central extensions of Z_m by Q up to isomorphism.

    Builds one group per cohomology class and merges isomorphic ones,
    keeping the number of classes behind each type visible.  Types are
    listed by ``ExtensionClass.key``; types with equal keys keep the
    order in which their first class appears.
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
            out.append({"group": ext, "count": 1, "orders": [f.class_order], "sample": f})
    classes = [
        ExtensionClass(
            group=e["group"],
            class_count=e["count"],
            class_orders=tuple(sorted(e["orders"])),
            sample=e["sample"],
        )
        for e in out
    ]
    return sorted(classes, key=lambda c: c.key)


def _unique_nontrivial_extension(
    group: FiniteGroup, m: int, order_filter=None
) -> FiniteGroup | None:
    """The single nontrivial extension type, optionally filtered by the
    order of the realizing classes; None when not unique or absent."""
    classes = classify_central_extensions(group, m)
    hits = []
    for entry in classes:
        orders = [o for o in entry.class_orders if o > 1]
        if not orders:
            continue
        if order_filter is not None and not any(order_filter(o) for o in orders):
            continue
        hits.append(entry.group)
    if len(hits) != 1:
        return None
    return hits[0]


def _binary_polyhedral_target(kind: str, m: int) -> FiniteGroup:
    lift = build_group("binary-" + kind)
    if m == 2:
        return lift
    zg = m // 2
    zh = int(np.flatnonzero(lift.element_orders == 2)[0])
    return central_product(cyclic(m), lift, zg, zh)


def verify_extension_isomorphism(tag: str, **params) -> bool:
    """Compare a classified nontrivial central extension against the
    predicted model group.

    Tags:
      polyhedral-double-cover: kind in {octa, icosa}, even m; base S4/A5,
        model Z_m x_{Z2} (binary octa/icosa).  True only when the
        nontrivial extension type is unique and matches.
      klein-3power: r >= 0, m_plus coprime to 6, m = 3^r * m_plus odd;
        base A4, model ((Z2)^2 x| Z_{3^e}) x Z_{m_plus} with e = r for
        variant "printed" and e = r + 1 for variant "corrected".
      tstar-2power: r >= 1, m_plus odd, m = 2^r * m_plus; base A4,
        class order exactly 2, model Z_{m_plus} x (Z_{2^r} x_{Z2} T*).
      q8-mixed: r, s >= 1, m_plus coprime to 6, m = 2^r 3^s m_plus;
        base A4, class order divisible by 6, model
        Z_{2^r m_plus} x_{Z2} (Q8 x| Z_{3^(s+1)}).
      dihedral-central-product: odd k >= 3, even m; base D_{2k}.
        variant "printed" tests the model Z_m x_{Z2} (dicyclic of
        order 4k), true exactly when m == 2 mod 4; "corrected" tests
        (Z_k x| Z_{2^(r+1)}) x Z_{m'} with m = 2^r m', true for all
        even m.
    """
    if tag == "polyhedral-double-cover":
        kind = params["kind"]
        m = int(params["m"])
        if kind not in ("octa", "icosa"):
            raise InvalidParametersError("kind must be octa or icosa")
        if m < 2 or m % 2:
            raise InvalidParametersError("m must be even")
        base = build_group(kind)
        found = _unique_nontrivial_extension(base, m)
        target = _binary_polyhedral_target(kind, m)
        return found is not None and is_isomorphic(found, target)

    if tag == "klein-3power":
        r = int(params["r"])
        m_plus = int(params["m_plus"])
        variant = params.get("variant", "corrected")
        if r < 0 or m_plus < 1 or math.gcd(m_plus, 6) != 1:
            raise InvalidParametersError("need r >= 0 and m_plus coprime to 6")
        if variant not in ("printed", "corrected"):
            raise InvalidParametersError("variant must be printed or corrected")
        m = 3**r * m_plus
        if r == 0:
            # no 3-torsion classes exist; nothing to compare
            return False
        found = _unique_nontrivial_extension(alternating(4), m)
        power = r if variant == "printed" else r + 1
        target = direct_product(klein_by_cyclic3(power), cyclic(m_plus))
        return found is not None and is_isomorphic(found, target)

    if tag == "tstar-2power":
        r = int(params["r"])
        m_plus = int(params["m_plus"])
        if r < 1 or m_plus < 1 or m_plus % 2 == 0:
            raise InvalidParametersError("need r >= 1 and odd m_plus")
        m = 2**r * m_plus
        found = _unique_nontrivial_extension(
            alternating(4), m, order_filter=lambda o: o == 2
        )
        target = direct_product(cyclic(m_plus), _binary_polyhedral_target("tetra", 2**r))
        return found is not None and is_isomorphic(found, target)

    if tag == "q8-mixed":
        r = int(params["r"])
        s = int(params["s"])
        m_plus = int(params["m_plus"])
        if r < 1 or s < 1 or m_plus < 1 or math.gcd(m_plus, 6) != 1:
            raise InvalidParametersError("need r, s >= 1 and m_plus coprime to 6")
        m = 2**r * 3**s * m_plus
        found = _unique_nontrivial_extension(
            alternating(4), m, order_filter=lambda o: o % 6 == 0
        )
        twist = q8_by_cyclic3(s + 1)
        zg_group = cyclic(2**r * m_plus)
        zh = int(np.flatnonzero(twist.element_orders == 2)[0])
        target = central_product(zg_group, twist, 2 ** (r - 1) * m_plus, zh)
        return found is not None and is_isomorphic(found, target)

    if tag == "dihedral-central-product":
        m = int(params["m"])
        k = int(params["k"])
        variant = str(params.get("variant", "printed"))
        if k < 3 or k % 2 == 0:
            raise InvalidParametersError("k must be odd and >= 3")
        if m < 2 or m % 2:
            raise InvalidParametersError("m must be even")
        if variant not in ("printed", "corrected"):
            raise InvalidParametersError("variant must be printed or corrected")
        found = _unique_nontrivial_extension(dihedral(2 * k), m)
        if found is None:
            return False
        if variant == "printed":
            # the advertised model reads the order-4k factor as the
            # dicyclic group; with the ordinary dihedral group the
            # product is already the split extension, so only this
            # reading can hold at all
            lift = binary_dihedral(4 * k)
            if m == 2:
                target = lift
            else:
                zh = int(np.flatnonzero(lift.element_orders == 2)[0])
                target = central_product(cyclic(m), lift, m // 2, zh)
        else:
            # the central-product model collapses to the split
            # extension once 4 | m; the group realized by the
            # nontrivial class is (Z_k x| Z_{2^(r+1)}) x Z_{m'}
            # with m = 2^r m', the 2-power acting by inversion
            # through its quotient of order 2
            r = (m & -m).bit_length() - 1
            m_odd = m >> r
            order_h = 2 ** (r + 1)
            act = np.tile(np.arange(k, dtype=np.int64), (order_h, 1))
            act[1::2] = (-act[1::2]) % k
            target = semidirect_product(cyclic(k), cyclic(order_h), act)
            if m_odd > 1:
                target = direct_product(target, cyclic(m_odd))
        return is_isomorphic(found, target)

    raise InvalidInputError(f"unknown verification tag: {tag}")

