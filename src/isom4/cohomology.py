"""Second cohomology with cyclic coefficients and central extensions.

Everything runs on normalized bar cochains: a 2-cochain is a map
f : Q x Q -> Z_m vanishing whenever an argument is the identity, cut
down to the (|Q|-1)^2 pairs of nonidentity elements.  The cocycle
system is reduced before any linear algebra: the integer row lattice of
the full coboundary map d2 is generated by the rows attached to a
generating set of Q (rows compose along products), which shrinks the
worst case here from ~2*10^5 rows to ~7*10^3.  Kernels are computed per
prime power and merged by CRT, avoiding one huge integer Smith form.
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
)
from .snf import (
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
    """Invariant factors of H^2(Q; Z_m), ascending divisibility."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fac = tuple(int(x) for x in self.invariant_factors)
        if any(x <= 1 for x in fac):
            raise InvalidInputError("invariant factors must exceed 1")
        for a, b in zip(fac, fac[1:]):
            if b % a:
                raise InvalidInputError("factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", fac)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def to_json(self) -> dict:
        return {"invariant_factors": list(self.invariant_factors), "order": self.order}


@dataclass(frozen=True)
class ExtensionClass:
    """One isomorphism type among the central extensions of Z_m by Q."""

    group: FiniteGroup
    class_count: int
    class_orders: tuple[int, ...]
    sample: Cochain2


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
    return np.array([x for x in range(group.size) if x != group.identity])


def _cocycle_rows(group: FiniteGroup) -> np.ndarray:
    """Generating rows of the integer row lattice of the d2 map.

    Variables are pairs (g, h) of nonidentity elements, flattened as
    pos(g) * (n-1) + pos(h).  For each generator s of Q the rows run
    over all pairs (h, k); rows for arbitrary first arguments are
    integer combinations of these, so the kernel is unchanged.
    """
    n = group.size
    e = group.identity
    noni = _nonidentity(group)
    pos = np.full(n, -1, dtype=np.int64)
    pos[noni] = np.arange(n - 1)
    width = (n - 1) * (n - 1)
    gens = minimal_generating_set(group)
    if not gens:
        return np.zeros((0, width), dtype=np.int8)
    table = group.table
    hh = np.repeat(noni, n - 1)
    kk = np.tile(noni, n - 1)
    rows_per_gen = width
    out = np.zeros((len(gens) * rows_per_gen, width), dtype=np.int8)
    row_base = np.arange(rows_per_gen)
    for gi, s in enumerate(gens):
        rows = gi * rows_per_gen + row_base
        np.add.at(out, (rows, pos[hh] * (n - 1) + pos[kk]), 1)
        sh = table[s, hh]
        keep = sh != e
        np.add.at(out, (rows[keep], pos[sh[keep]] * (n - 1) + pos[kk[keep]]), -1)
        hk = table[hh, kk]
        keep = hk != e
        np.add.at(out, (rows[keep], pos[s] * (n - 1) + pos[hk[keep]]), 1)
        np.add.at(out, (rows, pos[s] * (n - 1) + pos[hh]), -1)
    return out


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


# Process-global reuse of the local H^2 bases, keyed by table digest and
# prime power.  It pays within one verify-all run: clearing it before
# each check costs about 3 s of a cold seed-1 run, almost all of it in
# extension-binary-covers and extensions-icosahedral-m2 rebuilding the A5
# bases that h2-icosahedral-table already solved.
_LOCAL_CACHE: dict[tuple, tuple] = {}


def _local_cohomology(group: FiniteGroup, p: int, a: int) -> tuple:
    """H^2(Q; Z_{p^a}) as (orders, generator cocycle columns).

    orders are ascending prime-power invariant factors; the matching
    columns have length (n-1)^2 with entries mod p^a.
    """
    key = (group_digest(group), p, a)
    hit = _LOCAL_CACHE.get(key)
    if hit is not None:
        return hit
    rows = _cocycle_rows(group)
    bnd = _coboundary_matrix(group)
    mod = p**a
    kernel = kernel_mod_prime_power(rows, p, a)
    if kernel.shape[1] == 0:
        result = ((), np.zeros((bnd.shape[0], 0), dtype=np.int64))
        _LOCAL_CACHE[key] = result
        return result
    stacked = np.hstack([kernel, np.asarray(bnd, dtype=np.int64)])
    lam = kernel_mod_prime_power(stacked, p, a)[: kernel.shape[1]]
    orders, coeffs = module_presentation_local(lam, p, a, dim=kernel.shape[1])
    gens = (kernel @ coeffs) % mod if coeffs.shape[1] else np.zeros(
        (kernel.shape[0], 0), dtype=np.int64
    )
    result = (tuple(int(o) for o in orders), gens)
    _LOCAL_CACHE[key] = result
    return result


def _check_caps(group: FiniteGroup, m: int):
    if group.size > GROUP_ORDER_CAP:
        raise BudgetError(f"group order capped at {GROUP_ORDER_CAP}")
    if not 1 <= m <= MODULUS_CAP:
        raise BudgetError(f"modulus must lie in [1, {MODULUS_CAP}]")


@dataclass(frozen=True)
class _ClassBasis:
    """Direct-sum basis of H^2(Q; Z_m) with mod-m lifted generators."""

    factor_orders: tuple[int, ...]
    generators: np.ndarray  # shape ((n-1)^2, len(factor_orders)), mod m


def _class_basis(group: FiniteGroup, m: int) -> _ClassBasis:
    n = group.size
    width = (n - 1) * (n - 1)
    if n == 1 or m == 1:
        return _ClassBasis((), np.zeros((width, 0), dtype=np.int64))
    orders = []
    gens = []
    for p, a in _prime_powers(m):
        local_orders, local_gens = _local_cohomology(group, p, a)
        if not local_orders:
            continue
        q = p**a
        rest = m // q
        lift = rest * pow(rest, -1, q)  # CRT idempotent: 1 mod q, 0 mod m/q
        orders.extend(local_orders)
        gens.append((local_gens * lift) % m)
    if not orders:
        return _ClassBasis((), np.zeros((width, 0), dtype=np.int64))
    return _ClassBasis(tuple(orders), np.hstack(gens))


def _merge_invariant_factors(basis: _ClassBasis) -> tuple[int, ...]:
    """CRT-merge per-prime factor lists into one divisibility chain."""
    per_prime: dict[int, list[int]] = {}
    for o in basis.factor_orders:
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
    """H^2(Q; Z_m) for the trivial action, as invariant factors."""
    _check_caps(group, m)
    basis = _class_basis(group, m)
    return CohomologyResult(_merge_invariant_factors(basis))


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
    keeping the number of classes behind each type visible.
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
    return [
        ExtensionClass(
            group=e["group"],
            class_count=e["count"],
            class_orders=tuple(sorted(e["orders"])),
            sample=e["sample"],
        )
        for e in out
    ]


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

