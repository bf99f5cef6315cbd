"""References the tests compare the library against.

No command, check or script reaches these, so they live beside the
tests: integer Smith normal form and the Bareiss determinant (the exact
oracles of the kernel and presentation tests), the round distance on
S^3, the deck rotations and the quotient distance (the geometric
definitions ``sphere._orbit_dots`` is checked through), the sphere
isometry that realizes ``canonicalize_lens``, the subgroup, normality
and quotient tests on element sets, the cocycle identity, the block
recipe of a polyhedral rotation group times a plane rotation in SO(5),
and the subgroup and isomorphism searches that decided the family tags
before ``groups.matches_family`` read them off certificates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from isom4.cohomology import Cochain2
from isom4.embeddings import (
    MatrixRep,
    _block_diag,
    _closed_rep,
    _eye,
    _rot2,
    _so3_generators,
)
from isom4.errors import InvalidInputError, InvalidParametersError
from isom4.groups import (
    FiniteGroup,
    _index_mask,
    _induced_map,
    _is_cyclic,
    _zeta_order,
    abelian,
    alternating,
    binary_dihedral,
    cyclic,
    dihedral,
    is_isomorphic,
    matches_family,
    minimal_generating_set,
    normal_cyclic_subgroups,
    pu3_presentation_valid,
    symmetric,
)
from isom4.sphere import LensParams, SpherePoint, _deck_phases, _orbit_dots, canonicalize_lens

# ---------------------------------------------------------------------------
# exact integer linear algebra


def _as_int_matrix(a):
    mat = [[int(x) for x in row] for row in a]
    if not mat or not mat[0]:
        raise InvalidInputError("matrix must be nonempty")
    width = len(mat[0])
    if any(len(row) != width for row in mat):
        raise InvalidInputError("matrix rows have unequal lengths")
    return mat


def smith_normal_form(a):
    """Diagonalize an integer matrix over Z.

    Returns ``(d, u, v)`` with ``u @ a @ v == d``, where ``u`` and ``v``
    are unimodular and the diagonal of ``d`` is nonnegative with each
    entry dividing the next.  All three are object-dtype arrays so the
    identity can be checked without overflow.
    """
    mat = _as_int_matrix(a)
    m, n = len(mat), len(mat[0])
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            mat[i], mat[j] = mat[j], mat[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in mat:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        rd, rs = mat[dst], mat[src]
        for j in range(n):
            rd[j] += c * rs[j]
        rd, rs = u[dst], u[src]
        for j in range(m):
            rd[j] += c * rs[j]

    def add_col(dst, src, c):
        for row in mat:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        mat[i] = [-x for x in mat[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        while True:
            # re-pivot every round: smallest nonzero entry of the block
            pivot, best = None, 0
            for i in range(t, m):
                row = mat[i]
                for j in range(t, n):
                    x = row[j]
                    if x and (pivot is None or abs(x) < best):
                        pivot, best = (i, j), abs(x)
            if pivot is None:
                return _finish(mat, u, v, t)
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            if mat[t][t] < 0:
                negate_row(t)
            d = mat[t][t]
            # balanced remainders: any leftover has magnitude <= d/2, so
            # the next round's pivot at least halves and entries stay small
            cleared = True
            for i in range(t + 1, m):
                if mat[i][t]:
                    add_row(i, t, -((mat[i][t] + d // 2) // d))
                    cleared = cleared and mat[i][t] == 0
            for j in range(t + 1, n):
                if mat[t][j]:
                    add_col(j, t, -((mat[t][j] + d // 2) // d))
                    cleared = cleared and mat[t][j] == 0
            if not cleared:
                continue
            # the pivot must divide the whole trailing block before we
            # can move on, otherwise d_t | d_{t+1} can fail later
            bad = None
            for i in range(t + 1, m):
                if any(x % d for x in mat[i][t + 1 :]):
                    bad = i
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        t += 1

    return _finish(mat, u, v, t)


def _finish(mat, u, v, rank):
    for i in range(rank):
        if mat[i][i] < 0:
            mat[i] = [-x for x in mat[i]]
            u[i] = [-x for x in u[i]]
    d = np.array(mat, dtype=object)
    return d, np.array(u, dtype=object), np.array(v, dtype=object)


def det_exact(a):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    mat = _as_int_matrix(a)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise InvalidInputError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


# ---------------------------------------------------------------------------
# round geometry of S^3 and its lens quotients


def s3_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Geodesic distance on the round unit 3-sphere."""
    dot = sum(a * b for a, b in zip(p.coords, q.coords))
    return math.acos(max(-1.0, min(1.0, dot)))


def rotate_planes(p: SpherePoint, a1: float, a2: float) -> SpherePoint:
    """Rotate the two complex coordinates of p by the angles a1 and a2."""
    x0, x1, x2, x3 = p.coords
    z1 = complex(x0, x1) * complex(math.cos(a1), math.sin(a1))
    z2 = complex(x2, x3) * complex(math.cos(a2), math.sin(a2))
    return SpherePoint((z1.real, z1.imag, z2.real, z2.imag))


def deck_transform(params: LensParams, j: int, p: SpherePoint) -> SpherePoint:
    """Apply the j-th deck rotation to a point of S^3."""
    if not 0 <= j < params.n:
        raise InvalidInputError(f"deck index {j} outside [0, {params.n})")
    return rotate_planes(p, 2.0 * math.pi * j * params.k / params.n,
                         2.0 * math.pi * j * params.l / params.n)


def lens_distance(params: LensParams, p: SpherePoint, q: SpherePoint) -> float:
    """Quotient distance: min over the deck orbit of q of the S^3 distance."""
    best = _orbit_dots(_deck_phases(params), np.array(p.coords), np.array(q.coords))
    return math.acos(max(-1.0, min(1.0, float(best))))


@dataclass(frozen=True)
class CanonicalMap:
    """Sphere isometry carrying one lens presentation to its canonical one.

    Applied in order: conjugate z1, conjugate z2, swap the two complex
    coordinates.  Each flag records whether the move was used.
    """

    conjugate_z1: bool
    conjugate_z2: bool
    swap: bool

    def apply(self, p: SpherePoint) -> SpherePoint:
        x0, x1, x2, x3 = p.coords
        if self.conjugate_z1:
            x1 = -x1
        if self.conjugate_z2:
            x3 = -x3
        if self.swap:
            x0, x1, x2, x3 = x2, x3, x0, x1
        return SpherePoint((x0, x1, x2, x3))


def canonicalize_lens_with_map(n: int, k: int, l: int) -> tuple[LensParams, CanonicalMap]:
    """``canonicalize_lens(n, k, l)`` and the sphere isometry realizing it.

    Negating an exponent mod n conjugates the matching complex
    coordinate, and swapping the exponents swaps the coordinates.
    """
    params = canonicalize_lens(n, k, l)
    if params.n <= 2:
        return params, CanonicalMap(False, False, False)
    k, l = int(k) % n, int(l) % n
    conj1, conj2 = 2 * k > n, 2 * l > n
    if conj1:
        k = n - k
    if conj2:
        l = n - l
    return params, CanonicalMap(conj1, conj2, k > l)


# ---------------------------------------------------------------------------
# element sets of a group, and the cocycle identity


def is_subgroup(g: FiniteGroup, elements) -> bool:
    return g._is_closed(_index_mask(g.size, elements))


def is_normal(g: FiniteGroup, elements) -> bool:
    inside = _index_mask(g.size, elements)
    if not g._is_closed(inside):
        return False
    conj = g.table[g.table[:, np.flatnonzero(inside)], g.inverses[:, None]]
    return bool(inside[conj].all())


def quotient(g: FiniteGroup, normal_elements) -> tuple[FiniteGroup, np.ndarray]:
    """Quotient by a normal subgroup; returns (group, projection)."""
    if not is_normal(g, normal_elements):
        raise InvalidInputError("quotient requires a normal subgroup")
    rep = g.table[:, np.asarray(normal_elements)].min(axis=1)
    is_rep = _index_mask(g.size, rep)
    proj = (np.cumsum(is_rep) - 1)[rep]
    reps = np.flatnonzero(is_rep)
    return FiniteGroup(proj[g.table[np.ix_(reps, reps)]]), proj


def is_cocycle(f: Cochain2) -> bool:
    """Exact check of f(h,k) - f(gh,k) + f(g,hk) - f(g,h) = 0 mod m."""
    v, t = f.values, f.group.table
    # axes (g, h, k): v[t][g,h,k] = f(gh, k); v[:, t][g,h,k] = f(g, hk)
    return not ((v[None, :, :] - v[t] + v[:, t] - v[:, :, None]) % f.modulus).any()


# ---------------------------------------------------------------------------
# a block recipe into SO(5)


def so3_times_rotation(cyclic_order: int, name: str, *params: int) -> MatrixRep:
    """The polyhedral rotation group ``polyhedral_so3(name, *params)`` in
    SO(3) times the cyclic group of rotations by 2pi/cyclic_order in
    SO(2), block diagonal in SO(5)."""
    t = int(cyclic_order)
    if t < 1:
        raise InvalidParametersError("cyclic order must be positive")
    poly_order, so3_gens = _so3_generators(name, *params)
    n = _zeta_order(poly_order * t)
    return _closed_rep([*(_block_diag(g, _eye(2, n)) for g in so3_gens(n)),
                        _block_diag(_eye(3, n), _rot2(n, t))], poly_order * t)


# ---------------------------------------------------------------------------
# family tags by search


def index_two_subgroups(g: FiniteGroup) -> list[np.ndarray]:
    """Element sets of all index-2 subgroups, the kernels of the maps
    onto Z_2.  A map is fixed by its images of the generators, so each
    nonzero choice of them that extends to a homomorphism
    (``_induced_map`` finds no conflict) is one map, met once."""
    gens = minimal_generating_set(g)
    z2 = cyclic(2)
    maps = (_induced_map(g, z2, gens, images)
            for images in itertools.product((0, 1), repeat=len(gens)) if any(images))
    return [np.flatnonzero(phi == 0) for phi in maps if phi is not None]


def _match_odd_cyclic_by(g: FiniteGroup, quotient_model: FiniteGroup) -> bool:
    qsize = quotient_model.size
    if g.size % qsize or (g.size // qsize) % 2 == 0:
        return False
    target = g.size // qsize
    for sub in normal_cyclic_subgroups(g):
        if sub.size != target:
            continue
        quo, _ = quotient(g, sub)
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
        quo, proj = quotient(g, sub)
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
    if not is_subgroup(g, p_els):
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
            quo, _ = quotient(sub, nsub)
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


# the quotient models, built once; the tags decided without a search in
# the library too are their own oracle
_Z2, _Z4, _KLEIN = cyclic(2), cyclic(4), abelian([2, 2])
_FAMILY_SEARCHES = {
    "polyhedral": _match_polyhedral,
    "odd-cyclic-by-z2": lambda g: _match_odd_cyclic_by(g, _Z2),
    "odd-cyclic-by-z4": lambda g: _match_odd_cyclic_by(g, _Z4),
    "odd-cyclic-by-klein": lambda g: _match_odd_cyclic_by(g, _KLEIN),
    "metacyclic-odd-projective": _match_metacyclic_projective,
    "binary-dihedral-times-odd-cyclic": _match_binary_dihedral_times_odd,
    "odd-metacyclic-2power-by-z2": _match_odd_metacyclic_2power_by_z2,
}


def family_by_search(g: FiniteGroup, family: str) -> bool:
    """``matches_family`` as the subgroup and isomorphism searches decide it."""
    search = _FAMILY_SEARCHES.get(family)
    return matches_family(g, family) if search is None else bool(search(g))
