"""Explicit matrix models for the group families in this package.

Covers the polyhedral rotation groups in SO(3), the unit-quaternion
double cover of SO(4), four block/unitary recipes that land every
supported central extension inside SO(5), and the diagonal-plus-shift
projective model in PU(3).

Nothing here is taken on faith: every returned representation is
closed under products, checked against the abstract multiplication
table (up to a unit scalar for projective reps), and checked for
injectivity at a fixed dedup margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetError,
    InvalidInputError,
    InvalidParametersError,
    UnsupportedCaseError,
)
from .groups import (
    DEFAULT_TOLERANCE,
    ORDER_CAP,
    FiniteGroup,
    GroupKind,
    _BINARY_QUAT_GENS,
    _QI,
    _QJ,
    _close_unitary,
    _require_within,
    _table_residual,
    build_metacyclic,
    find_isomorphism,
    pu3_presentation_valid,
)

__all__ = [
    "MatrixRep",
    "QuatPair",
    "DEFAULT_TOLERANCE",
    "quat_pair_to_so4",
    "polyhedral_so3",
    "build_recipe_rep",
    "pu3_metacyclic",
    "is_faithful_rep",
    "embed_into_so5",
]

_INJECTIVITY_MARGIN = 10.0


@dataclass(frozen=True)
class QuatPair:
    """A pair of unit quaternions, the two-sided rotation data on R^4."""

    p: tuple[float, float, float, float]
    q: tuple[float, float, float, float]

    def __post_init__(self):
        for name in ("p", "q"):
            raw = tuple(float(x) for x in getattr(self, name))
            if len(raw) != 4:
                raise InvalidInputError("quaternions have four coordinates")
            _require_within(abs(math.sqrt(sum(x * x for x in raw)) - 1.0), 1e-12,
                            "quaternions must be unit norm")
            object.__setattr__(self, name, raw)


def _quat_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def quat_pair_to_so4(pair: QuatPair) -> np.ndarray:
    """Matrix of x -> p*x*conj(q) on quaternion coordinates (1, i, j, k).

    The pair map is a surjection onto SO(4) with kernel {(1,1), (-1,-1)},
    so pushing a subgroup of pairs through it realizes the quotient by
    that shared sign."""
    p, q = pair.p, pair.q
    qc = (q[0], -q[1], -q[2], -q[3])
    basis = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
             (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    cols = [_quat_mul(_quat_mul(p, e), qc) for e in basis]
    return np.array(cols, dtype=np.float64).T


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """A checked matrix representation aligned with a group table.

    ``matrices[i]`` is the image of element ``i``.  Construction
    verifies orthogonality/unitarity, determinant +1 for real reps, and
    the homomorphism identity on all pairs; projective reps may be off
    by a unit scalar per pair.  The rep is frozen and its matrices are
    read-only, so the residual computed here stays the rep's residual.
    """

    group: FiniteGroup
    dimension: int
    field_tag: str
    projective: bool
    matrices: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE
    _residual: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.field_tag not in ("real", "complex"):
            raise InvalidInputError("field_tag must be 'real' or 'complex'")
        if self.dimension < 1:
            raise InvalidParametersError("dimension must be positive")
        if not (0.0 < self.tolerance < 1.0):
            raise InvalidParametersError("tolerance must lie in (0, 1)")
        dtype = np.float64 if self.field_tag == "real" else np.complex128
        try:
            mats = np.asarray(self.matrices, dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"matrices do not fit a {self.field_tag} array") from exc
        n, d = self.group.size, self.dimension
        if mats.shape != (n, d, d):
            raise InvalidInputError("need one dimension x dimension matrix per element")
        eye = np.eye(d)
        gram = np.einsum("nji,njk->nik", mats.conj(), mats)
        _require_within(np.max(np.abs(gram - eye)), self.tolerance,
                        "matrices must be orthogonal/unitary within tolerance")
        if self.field_tag == "real":
            dets = np.linalg.det(mats)
            _require_within(np.max(np.abs(dets - 1.0)), self.tolerance,
                            "real matrices must have determinant +1")
        residual = _homomorphism_residual(self.group.table, mats, self.projective)
        _require_within(
            residual, self.tolerance,
            f"homomorphism residual {residual:.3e} exceeds tolerance {self.tolerance:.3e}")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "_residual", residual)

    def homomorphism_residual(self) -> float:
        """Worst deviation from the homomorphism identity over all pairs,
        as computed when the rep was validated."""
        return self._residual

    def to_json(self) -> dict:
        if self.field_tag == "real":
            mats = self.matrices.tolist()
        else:
            mats = np.stack([self.matrices.real, self.matrices.imag], axis=-1).tolist()
        return {
            "order": self.group.size,
            "dimension": self.dimension,
            "field_tag": self.field_tag,
            "projective": self.projective,
            "tolerance": self.tolerance,
            "matrices": mats,
        }


def _homomorphism_residual(table: np.ndarray, mats: np.ndarray, projective: bool) -> float:
    """Worst deviation from M_a M_b = M_ab over all pairs; a projective
    rep may be off by a unit scalar per pair."""
    if not projective:
        return _table_residual(table, mats)
    n, d = mats.shape[0], mats.shape[1]
    # np.maximum, unlike Python's max, keeps a NaN block maximum
    worst = 0.0
    step = max(1, (1 << 20) // max(1, n * d * d))
    for s in range(0, n, step):
        blk = mats[s : s + step]
        prod = np.einsum("aij,bjk->abik", blk, mats)
        tgt = mats[table[s : s + step]]
        lam = np.einsum("abij,abij->ab", tgt.conj(), prod) / d
        worst = np.maximum(worst, np.max(np.abs(np.abs(lam) - 1.0)))
        prod = prod - lam[..., None, None] * tgt
        worst = np.maximum(worst, np.max(np.abs(prod)))
    return float(worst)


def _phase_normalized(mats: np.ndarray) -> np.ndarray:
    """Scale each matrix so its first nonzero entry (row-major) is real
    positive, turning projective equality into plain comparison."""
    flat = mats.reshape(mats.shape[0], -1)
    first = np.argmax(np.abs(flat) > 1e-8, axis=1)
    lead = flat[np.arange(flat.shape[0]), first]
    lead = np.where(np.abs(lead) < 1e-8, 1.0, lead)
    return (flat * (np.abs(lead) / lead)[:, None]).reshape(mats.shape)


def is_faithful_rep(rep: MatrixRep) -> bool:
    """Homomorphism identity on all pairs plus injectivity.

    Injectivity asks every pair of distinct elements to sit farther
    apart than ten times the rep tolerance, after phase normalization
    when the rep is projective."""
    if not rep.homomorphism_residual() <= rep.tolerance:
        return False
    mats = _phase_normalized(rep.matrices) if rep.projective else rep.matrices
    n = mats.shape[0]
    if n == 1:
        return True
    gap = math.inf
    step = max(1, (1 << 20) // max(1, n * rep.dimension**2))
    for s in range(0, n, step):
        blk = mats[s : s + step]
        dist = np.max(np.abs(blk[:, None] - mats[None, :]), axis=(2, 3))
        rows = np.arange(s, min(s + step, n))
        dist[np.arange(rows.size), rows] = math.inf
        gap = min(gap, float(dist.min()))
    return gap > _INJECTIVITY_MARGIN * rep.tolerance


def _closed_rep(generators, expected_order: int) -> tuple[FiniteGroup, np.ndarray]:
    group, mats = _close_unitary(generators)
    if group.size != expected_order:
        raise InvalidInputError(
            f"closure has order {group.size}, expected {expected_order}")
    return group, mats


# ---------------------------------------------------------------------------
# elementary blocks


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _block_diag(*blocks) -> np.ndarray:
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim))
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def _rodrigues(axis: np.ndarray, theta: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    cross = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return math.cos(theta) * np.eye(3) + math.sin(theta) * cross \
        + (1.0 - math.cos(theta)) * np.outer(axis, axis)


def _su2(q) -> np.ndarray:
    """2x2 unitary of the unit quaternion a+bi+cj+dk."""
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def _realify(mat: np.ndarray) -> np.ndarray:
    """Orthogonal 4x4 of a 2x2 unitary on coordinates (x1, x2, y1, y2)."""
    a, b = mat.real, mat.imag
    return np.block([[a, -b], [b, a]])


_KLEIN_SIGNS = (np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]))
# coordinate 3-cycle x -> y -> z -> x, the rotation by 2pi/3 about (1,1,1)
_P3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_ROTZ4 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _rot3_z(theta: float) -> np.ndarray:
    return _block_diag(_rot2(theta), np.eye(1))


def _so3_generators(kind: GroupKind) -> tuple[list[np.ndarray], int]:
    tag = kind.tag
    if tag == "cyclic":
        if kind.order_param is None:
            raise InvalidParametersError("cyclic kind needs an order")
        j = kind.order_param
        return [_rot3_z(2.0 * math.pi / j)], j
    if tag == "dihedral":
        if kind.order_param is None:
            raise InvalidParametersError("dihedral kind needs an order")
        order = kind.order_param
        if order < 2 or order % 2:
            raise InvalidParametersError("dihedral order must be even and >= 2")
        k = order // 2
        return [_rot3_z(2.0 * math.pi / k), np.diag([1.0, -1.0, -1.0])], order
    if tag == "tetra":
        return [*_KLEIN_SIGNS, _P3], 12
    if tag == "octa":
        return [*_KLEIN_SIGNS, _P3, _ROTZ4], 24
    if tag == "icosa":
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        rot5 = _rodrigues(np.array([0.0, 1.0, phi]), 2.0 * math.pi / 5.0)
        return [_P3, rot5], 60
    raise InvalidInputError(f"no rotation model for group kind {tag!r}")


def polyhedral_so3(kind: GroupKind) -> MatrixRep:
    """Faithful 3-dimensional rotation model of a polyhedral group.

    Cyclic groups rotate about the z-axis, dihedral groups add the
    half-turn about x, the tetrahedral and octahedral groups are signed
    coordinate permutations, and the icosahedral group combines the
    coordinate 3-cycle with a 5-fold golden-ratio vertex rotation."""
    gens, expected = _so3_generators(kind)
    group, mats = _closed_rep(gens, expected_order=expected)
    return MatrixRep(group=group, dimension=3, field_tag="real",
                     projective=False, matrices=mats)


# ---------------------------------------------------------------------------
# the four block recipes into SO(4)/SO(5)


def build_recipe_rep(recipe: str, **params) -> MatrixRep:
    """Dispatch on the four explicit embedding recipes.

    so3xso2: block diagonal rotations, either a polyhedral group times
      a cyclic rotation block (``kind``, ``cyclic_order``) or the
      twisted family generated by the Klein four-group of diagonal
      signs together with diag(P3, R(2pi/(3^power * m_plus)))
      (``klein_power``, ``m_plus``).
    so4-central-product: image of quaternion pairs (zeta_m, 1) and
      (1, binary polyhedral generators); the shared sign in the kernel
      of the pair map realizes the central product (``kind``, ``m``).
    u2: scalars of order 2^r * m_plus joined with the quaternion group
      and the twisted 3-power element exp(2pi i/3^(s+1)) * W inside
      U(2), realified to SO(4) (``r``, ``s``, ``m_plus``).
    o4-in-so5: the dihedral-by-cyclic families as orthogonal 4x4
      blocks, padded by the determinant to land in SO(5) (``m``,
      ``k``).
    """
    if recipe == "so3xso2":
        return _recipe_so3xso2(**params)
    if recipe == "so4-central-product":
        return _recipe_so4_central_product(**params)
    if recipe == "u2":
        return _recipe_u2(**params)
    if recipe == "o4-in-so5":
        return _recipe_o4_in_so5(**params)
    raise InvalidInputError(f"unknown recipe {recipe!r}")


def _recipe_so3xso2(kind: GroupKind | None = None, cyclic_order: int | None = None,
                    klein_power: int | None = None, m_plus: int = 1) -> MatrixRep:
    block_mode = kind is not None
    klein_mode = klein_power is not None
    if block_mode == klein_mode:
        raise InvalidParametersError(
            "pass either kind/cyclic_order or klein_power/m_plus")
    if block_mode:
        t = 1 if cyclic_order is None else int(cyclic_order)
        if t < 1:
            raise InvalidParametersError("cyclic order must be positive")
        so3_gens, poly_order = _so3_generators(kind)
        expected = poly_order * t
        if expected > ORDER_CAP:
            raise BudgetError("product order exceeds the group cap")
        gens = [_block_diag(g, np.eye(2)) for g in so3_gens]
        gens.append(_block_diag(np.eye(3), _rot2(2.0 * math.pi / t)))
    else:
        r, mp = int(klein_power), int(m_plus)
        if r < 1:
            raise InvalidParametersError("klein_power must be >= 1")
        if mp < 1 or math.gcd(mp, 6) != 1:
            raise InvalidParametersError("m_plus must be positive and prime to 6")
        t = 3**r * mp
        expected = 4 * t
        if expected > ORDER_CAP:
            raise BudgetError("product order exceeds the group cap")
        gens = [_block_diag(g, np.eye(2)) for g in _KLEIN_SIGNS]
        # one generator carries the 3-cycle and the rotation together,
        # so only a third of the rotation block commutes with the signs
        gens.append(_block_diag(_P3, _rot2(2.0 * math.pi / t)))
    group, mats = _closed_rep(gens, expected_order=expected)
    return MatrixRep(group=group, dimension=5, field_tag="real",
                     projective=False, matrices=mats)


def _recipe_so4_central_product(kind: str, m: int) -> MatrixRep:
    if kind not in _BINARY_QUAT_GENS:
        raise InvalidInputError(f"no binary quaternion model for kind {kind!r}")
    m = int(m)
    if m < 2 or m % 2:
        raise InvalidParametersError("m must be even and >= 2")
    quat_gens, lift_order = _BINARY_QUAT_GENS[kind]
    expected = m * lift_order // 2
    if expected > ORDER_CAP:
        raise BudgetError("central product order exceeds the group cap")
    one = (1.0, 0.0, 0.0, 0.0)
    zeta = (math.cos(2.0 * math.pi / m), math.sin(2.0 * math.pi / m), 0.0, 0.0)
    gens = [quat_pair_to_so4(QuatPair(zeta, one))]
    gens.extend(quat_pair_to_so4(QuatPair(one, g)) for g in quat_gens)
    group, mats = _closed_rep(gens, expected_order=expected)
    return MatrixRep(group=group, dimension=4, field_tag="real",
                     projective=False, matrices=mats)


_W_QUAT = (-0.5, 0.5, 0.5, 0.5)


def _recipe_u2(r: int, s: int, m_plus: int = 1) -> MatrixRep:
    r, s, mp = int(r), int(s), int(m_plus)
    if r < 1:
        raise InvalidParametersError("r must be >= 1")
    if s < 0:
        raise InvalidParametersError("s must be >= 0")
    if mp < 1 or math.gcd(mp, 6) != 1:
        raise InvalidParametersError("m_plus must be positive and prime to 6")
    expected = 2 ** (r + 2) * 3 ** (s + 1) * mp
    if expected > ORDER_CAP:
        raise BudgetError("unitary closure order exceeds the group cap")
    lam = np.exp(2j * np.pi / 3 ** (s + 1))
    scalar = np.exp(2j * np.pi / (2**r * mp)) * np.eye(2)
    gens = [scalar, _su2(_QI), _su2(_QJ), lam * _su2(_W_QUAT)]
    group, cmats = _closed_rep(gens, expected_order=expected)
    mats = np.stack([_realify(c) for c in cmats])
    return MatrixRep(group=group, dimension=4, field_tag="real",
                     projective=False, matrices=mats)


def _recipe_o4_in_so5(m: int, k: int) -> MatrixRep:
    m, k = int(m), int(k)
    if k < 3 or k % 2 == 0:
        raise InvalidParametersError("k must be odd and >= 3")
    if m < 1:
        raise InvalidParametersError("m must be positive")
    expected = 2 * k * m
    if expected > ORDER_CAP:
        raise BudgetError("closure order exceeds the group cap")
    if m % 2:
        # split case: two independent O(2) blocks
        gens4 = [
            _block_diag(_rot2(2.0 * math.pi / m), np.eye(2)),
            _block_diag(np.eye(2), _rot2(2.0 * math.pi / k)),
            _block_diag(np.eye(2), np.diag([1.0, -1.0])),
        ]
    else:
        # nonsplit case: a unitary pair with the swap twisted by a
        # 2-power phase, inverting the rotation eigenvalues
        r = (m & -m).bit_length() - 1
        m_odd = m >> r
        omega = np.exp(2j * np.pi / k)
        cgens = [
            np.diag([omega, omega.conjugate()]),
            np.exp(2j * np.pi / 2 ** (r + 1)) * np.array([[0.0, 1.0], [1.0, 0.0]]),
        ]
        if m_odd > 1:
            cgens.append(np.exp(2j * np.pi / m_odd) * np.eye(2))
        gens4 = [_realify(c) for c in cgens]
    padded = []
    for g in gens4:
        det = float(np.linalg.det(g))
        _require_within(abs(abs(det) - 1.0), DEFAULT_TOLERANCE, "generators must be orthogonal")
        padded.append(_block_diag(g, np.array([[1.0 if det > 0 else -1.0]])))
    group, mats = _closed_rep(padded, expected_order=expected)
    return MatrixRep(group=group, dimension=5, field_tag="real",
                     projective=False, matrices=mats)


# ---------------------------------------------------------------------------
# the projective 3-dimensional model


def pu3_metacyclic(m: int, n: int, r: int) -> MatrixRep:
    """Diagonal-plus-shift projective unitary model of the metacyclic
    group with presentation A^m = B^3 = 1, B A B^-1 = A^r.

    A maps to diag(zeta, zeta^r, zeta^(r^2)) and B to the coordinate
    shift; the twist relation then holds linearly, not only up to
    scalar, so the residual is pure float noise.  Only n = 3 is
    supported: the cube condition r^3 = 1 mod m is exactly what lets
    a 3-cycle of the diagonal realize the twist."""
    m, n, r = int(m), int(n), int(r)
    if n != 3:
        raise InvalidInputError("the diagonal-plus-shift model needs n = 3")
    if m < 1:
        raise InvalidParametersError("m must be positive")
    if m == 1:
        r = 0
    elif not pu3_presentation_valid(m, n, r):
        raise InvalidParametersError("parameters fail the presentation side conditions")
    group = build_metacyclic(m, 3, r)
    shift = np.zeros((3, 3), dtype=np.complex128)
    for i in range(3):
        shift[i, (i + 1) % 3] = 1.0
    shift_pows = [np.eye(3, dtype=np.complex128), shift, shift @ shift]
    exps = np.outer(np.arange(m), np.array([1, r % m, (r * r) % m])) % m
    mats = np.zeros((group.size, 3, 3), dtype=np.complex128)
    for a in range(m):
        diag = np.exp(2j * np.pi * exps[a] / m)
        for b in range(3):
            mats[a * 3 + b] = diag[:, None] * shift_pows[b]
    return MatrixRep(group=group, dimension=3, field_tag="complex",
                     projective=True, matrices=mats)


# ---------------------------------------------------------------------------
# top-level dispatch


def _padded_to_so5(rep: MatrixRep) -> np.ndarray:
    """The rep's matrices with an identity block below them, up to 5x5.

    Padding keeps orthogonality, determinant and the homomorphism
    identity, so the caller validates only the relabelled result."""
    if rep.dimension == 5:
        return rep.matrices
    if rep.field_tag != "real" or rep.projective:
        raise InvalidInputError("only real non-projective reps can be padded")
    mats = np.tile(np.eye(5), (rep.group.size, 1, 1))
    mats[:, : rep.dimension, : rep.dimension] = rep.matrices
    return mats


def _abelian_rank2_rep(g: FiniteGroup) -> MatrixRep:
    if not np.array_equal(g.table, g.table.T):
        raise InvalidInputError("hint says abelian but the table is not commutative")
    invariants = g.abelian_invariants
    if len(invariants) > 2:
        raise UnsupportedCaseError(
            "abelian groups of rank above 2 do not fit two rotation blocks")
    gens = []
    for slot, order in enumerate(invariants):
        block = _block_diag(np.eye(2 * slot), _rot2(2.0 * math.pi / order),
                            np.eye(3 - 2 * slot))
        gens.append(block)
    if not gens:
        gens.append(np.eye(5))
    group, mats = _closed_rep(gens, expected_order=g.size)
    return MatrixRep(group=group, dimension=5, field_tag="real",
                     projective=False, matrices=mats)


def embed_into_so5(g: FiniteGroup, structure_hint: dict) -> MatrixRep:
    """Faithful special-orthogonal 5-dimensional rep of ``g``.

    The hint names which construction produced the group; the recipe
    builds the matrix model, the model's closure group is matched to
    ``g`` by an explicit isomorphism, and the matrices are relabeled
    so the returned rep is indexed by ``g`` itself.  Hints:

      {"kind": "abelian"}                          rank <= 2
      {"kind": "polyhedral-product", "poly", "order_param", "cyclic_order"}
      {"kind": "klein-3power", "power", "m_plus"}
      {"kind": "central-product", "poly", "m"}
      {"kind": "u2-mixed", "r", "s", "m_plus"}
      {"kind": "dihedral-mixed", "m", "k"}

    2-groups with an index-2 cyclic subgroup have no printed recipe
    and raise the unsupported-case error, as does any unknown hint.
    """
    hint = dict(structure_hint)
    kind = hint.pop("kind", None)
    if kind == "abelian":
        rep = _abelian_rank2_rep(g)
    elif kind == "polyhedral-product":
        poly = GroupKind(hint["poly"], hint.get("order_param"))
        rep = build_recipe_rep("so3xso2", kind=poly,
                               cyclic_order=hint.get("cyclic_order", 1))
    elif kind == "klein-3power":
        rep = build_recipe_rep("so3xso2", klein_power=hint["power"],
                               m_plus=hint.get("m_plus", 1))
    elif kind == "central-product":
        rep = build_recipe_rep("so4-central-product", kind=hint["poly"], m=hint["m"])
    elif kind == "u2-mixed":
        rep = build_recipe_rep("u2", r=hint["r"], s=hint["s"],
                               m_plus=hint.get("m_plus", 1))
    elif kind == "dihedral-mixed":
        rep = build_recipe_rep("o4-in-so5", m=hint["m"], k=hint["k"])
    elif kind == "two-group":
        raise UnsupportedCaseError(
            "2-groups with an index-2 cyclic subgroup have no explicit recipe here")
    else:
        raise UnsupportedCaseError(f"no embedding recipe for structure hint {kind!r}")
    mats = _padded_to_so5(rep)
    phi = find_isomorphism(g, rep.group)
    if phi is None:
        raise InvalidInputError("structure hint does not match the group")
    return MatrixRep(group=g, dimension=5, field_tag="real", projective=False,
                     matrices=mats[phi], tolerance=rep.tolerance)
