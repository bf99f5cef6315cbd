"""Explicit matrix models for the group families in this package.

Covers the polyhedral rotation groups in SO(3) (named as the group
table of ``groups`` names them), the unit-quaternion double cover of
SO(4), five block/unitary recipes that land every supported central
extension inside SO(5) (``embed_into_so5`` calls the one its structure
hint names), and the diagonal-plus-shift projective model in PU(3).

A recipe supplies only generators and the order of the group they
generate; ``groups._close_unitary`` closes them, refuses an order above
the cap and a closure of any other order, and checks the table against
every product.  Every returned representation is also checked against
its multiplication table (up to a unit scalar for projective reps), and
``is_faithful_rep`` checks injectivity at a fixed margin.
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
    _BINARY_QUAT_GENS,
    _QI,
    _QJ,
    _QW,
    _close_unitary,
    _group_key,
    _left_mul,
    _require_within,
    _right_mul,
    _table_residual,
    _unitary_drift,
    build_metacyclic,
    find_isomorphism,
    pu3_presentation_valid,
)
from .snf import _row_blocks

__all__ = [
    "MatrixRep",
    "QuatPair",
    "DEFAULT_TOLERANCE",
    "quat_pair_to_so4",
    "polyhedral_so3",
    "so3_times_rotation",
    "klein_twist",
    "so4_central_product",
    "u2_mixed",
    "o4_in_so5",
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


def quat_pair_to_so4(pair: QuatPair) -> np.ndarray:
    """Matrix of x -> p*x*conj(q) on quaternion coordinates (1, i, j, k).

    The pair map is a surjection onto SO(4) with kernel {(1,1), (-1,-1)},
    so pushing a subgroup of pairs through it realizes the quotient by
    that shared sign."""
    q = pair.q
    return _left_mul(pair.p) @ _right_mul((q[0], -q[1], -q[2], -q[3]))


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """A checked matrix representation aligned with a group table.

    ``matrices[i]`` is the image of element ``i``; the dimension and
    the field (real or complex) are read off their shape and dtype.
    Construction verifies orthogonality/unitarity, determinant +1 for
    real reps, and the homomorphism identity on all pairs, each within
    ``DEFAULT_TOLERANCE``; projective reps may be off by a unit scalar
    per pair.  The rep is frozen and its matrices are read-only, so the
    residual computed here stays the rep's residual.

    Inside this module the all-pairs residual is formed once per
    distinct matrix set (``_measured``): a rep on the matrices
    ``_close_unitary`` returned reads the residual the closure measured
    on them, and ``embed_into_so5``'s relabelled rep carries its model's
    residual through an explicit isomorphism.  Every other check runs
    on every rep.
    """

    group: FiniteGroup
    matrices: np.ndarray
    projective: bool
    _residual: float = field(init=False, repr=False)

    def __post_init__(self):
        self._validate(None)

    @classmethod
    def _measured(cls, group: FiniteGroup, matrices: np.ndarray, residual: float) -> "MatrixRep":
        """The linear rep of ``group`` on ``matrices``, whose all-pairs
        residual against ``group.table`` is already known to be
        ``residual`` to the bit: every check of the constructor runs
        except that pass over the n^2 products."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "group", group)
        object.__setattr__(rep, "matrices", matrices)
        object.__setattr__(rep, "projective", False)
        rep._validate(residual)
        return rep

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]

    @property
    def field_tag(self) -> str:
        return "complex" if np.iscomplexobj(self.matrices) else "real"

    def _validate(self, residual: float | None):
        """The constructor's checks; the all-pairs residual is formed
        here unless it is passed in."""
        try:
            mats = np.asarray(self.matrices)
            mats = np.asarray(mats, np.complex128 if np.iscomplexobj(mats) else np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError("matrices do not fit a numeric array") from exc
        n = self.group.size
        if mats.ndim != 3 or mats.shape[0] != n or not 0 < mats.shape[1] == mats.shape[2]:
            raise InvalidInputError("need one square matrix per element")
        _require_within(_unitary_drift(mats), DEFAULT_TOLERANCE,
                        "matrices must be orthogonal/unitary within tolerance")
        if not np.iscomplexobj(mats):
            dets = np.linalg.det(mats)
            _require_within(np.max(np.abs(dets - 1.0)), DEFAULT_TOLERANCE,
                            "real matrices must have determinant +1")
        if residual is None:
            residual = _homomorphism_residual(self.group.table, mats, self.projective)
        _require_within(
            residual, DEFAULT_TOLERANCE,
            f"homomorphism residual {residual:.3e} exceeds tolerance {DEFAULT_TOLERANCE:.3e}")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "_residual", residual)

    def homomorphism_residual(self) -> float:
        """Worst deviation from the homomorphism identity over all pairs,
        as computed when the rep was validated."""
        return self._residual


def _homomorphism_residual(table: np.ndarray, mats: np.ndarray, projective: bool) -> float:
    """Worst deviation from M_a M_b = M_ab over all pairs; a projective
    rep may be off by a unit scalar per pair.  Both branches run over
    row blocks of about ``snf._BLOCK_ENTRIES`` product entries, and
    every entry is formed within one block, so the value is the one of
    a single pass over all pairs."""
    if not projective:
        return _table_residual(table, mats)
    n, d = mats.shape[0], mats.shape[1]
    # np.maximum, unlike Python's max, keeps a NaN block maximum
    worst = 0.0
    for blk in _row_blocks(n, n * d * d):
        prod = np.einsum("aij,bjk->abik", mats[blk], mats)
        tgt = mats[table[blk]]
        lam = np.einsum("abij,abij->ab", tgt.conj(), prod) / d
        worst = np.maximum(worst, np.max(np.abs(np.abs(lam) - 1.0)))
        prod -= lam[..., None, None] * tgt
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
    """Injectivity of a rep, whose construction already refused a
    homomorphism residual above ``DEFAULT_TOLERANCE``.

    Injectivity asks every pair of distinct elements to sit farther
    apart than ten times ``DEFAULT_TOLERANCE``, after phase normalization
    when the rep is projective.  The distances are formed in row blocks
    of about ``snf._BLOCK_ENTRIES`` entries."""
    mats = _phase_normalized(rep.matrices) if rep.projective else rep.matrices
    n = mats.shape[0]
    if n == 1:
        return True
    gap = math.inf
    for blk in _row_blocks(n, n * rep.dimension**2):
        dist = np.max(np.abs(mats[blk, None] - mats[None, :]), axis=(2, 3))
        rows = np.arange(blk.start, blk.stop)
        dist[np.arange(rows.size), rows] = math.inf
        gap = min(gap, float(dist.min()))
    return gap > _INJECTIVITY_MARGIN * DEFAULT_TOLERANCE


def _closed_rep(generators, order: int) -> MatrixRep:
    """The linear rep that closing the generators into the group of the
    stated order gives, on the closure's own matrices, so it reads the
    residual the closure measured."""
    return MatrixRep._measured(*_close_unitary(generators, order))


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


def _so3_generators(name: str, *params: int) -> tuple[list[np.ndarray], int]:
    """Rotation generators of the polyhedral group a group-table name
    and its parameters denote, with the group's order."""
    key = _group_key(name, params)
    if key == "cyclic":
        j = params[0]
        if j < 1:
            raise InvalidParametersError("cyclic order must be positive")
        return [_rot3_z(2.0 * math.pi / j)], j
    if key == "dihedral":
        order = params[0]
        if order < 2 or order % 2:
            raise InvalidParametersError("dihedral order must be even and >= 2")
        k = order // 2
        return [_rot3_z(2.0 * math.pi / k), np.diag([1.0, -1.0, -1.0])], order
    if key == "tetra":
        return [*_KLEIN_SIGNS, _P3], 12
    if key == "octa":
        return [*_KLEIN_SIGNS, _P3, _ROTZ4], 24
    if key == "icosa":
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        rot5 = _rodrigues(np.array([0.0, 1.0, phi]), 2.0 * math.pi / 5.0)
        return [_P3, rot5], 60
    raise InvalidInputError(f"no rotation model for group {key!r}")


def polyhedral_so3(name: str, *params: int) -> MatrixRep:
    """Faithful 3-dimensional rotation model of a polyhedral group, named
    as ``build_group`` names it: ``polyhedral_so3("A4")``,
    ``polyhedral_so3("dihedral", 8)``.

    Cyclic groups rotate about the z-axis, dihedral groups add the
    half-turn about x, the tetrahedral and octahedral groups are signed
    coordinate permutations, and the icosahedral group combines the
    coordinate 3-cycle with a 5-fold golden-ratio vertex rotation."""
    return _closed_rep(*_so3_generators(name, *params))


# ---------------------------------------------------------------------------
# the block and unitary recipes into SO(4)/SO(5)


def so3_times_rotation(cyclic_order: int, name: str, *params: int) -> MatrixRep:
    """The polyhedral rotation group ``polyhedral_so3(name, *params)`` in
    SO(3) times the cyclic group of rotations by 2pi/cyclic_order in
    SO(2), block diagonal in SO(5)."""
    t = int(cyclic_order)
    if t < 1:
        raise InvalidParametersError("cyclic order must be positive")
    so3_gens, poly_order = _so3_generators(name, *params)
    gens = [_block_diag(g, np.eye(2)) for g in so3_gens]
    gens.append(_block_diag(np.eye(3), _rot2(2.0 * math.pi / t)))
    return _closed_rep(gens, poly_order * t)


def klein_twist(power: int, m_plus: int) -> MatrixRep:
    """The Klein four-group of diagonal signs on R^3, joined with
    diag(P3, R(2pi/(3^power * m_plus))), P3 the coordinate 3-cycle:
    (Z2 + Z2) x| Z_{3^power} times Z_{m_plus}, block diagonal in SO(5)."""
    r, mp = int(power), int(m_plus)
    if r < 1:
        raise InvalidParametersError("power must be >= 1")
    if mp < 1 or math.gcd(mp, 6) != 1:
        raise InvalidParametersError("m_plus must be positive and prime to 6")
    t = 3**r * mp
    gens = [_block_diag(g, np.eye(2)) for g in _KLEIN_SIGNS]
    # one generator carries the 3-cycle and the rotation together,
    # so only a third of the rotation block commutes with the signs
    gens.append(_block_diag(_P3, _rot2(2.0 * math.pi / t)))
    return _closed_rep(gens, 4 * t)


def so4_central_product(kind: str, m: int) -> MatrixRep:
    """Z_m joined with a binary polyhedral group over the central
    involution, in SO(4): left multiplication by zeta_m and right
    multiplication by conj(g) for the binary generators g, the images of
    the quaternion pairs (zeta_m, 1) and (1, g).  The shared sign in the
    kernel of the pair map realizes the central product."""
    if kind not in _BINARY_QUAT_GENS:
        raise InvalidInputError(f"no binary quaternion model for kind {kind!r}")
    m = int(m)
    if m < 2 or m % 2:
        raise InvalidParametersError("m must be even and >= 2")
    quat_gens, lift_order = _BINARY_QUAT_GENS[kind]
    gens = [_left_mul((math.cos(2.0 * math.pi / m), math.sin(2.0 * math.pi / m), 0.0, 0.0))]
    gens.extend(_right_mul((g[0], -g[1], -g[2], -g[3])) for g in quat_gens)
    return _closed_rep(gens, m * lift_order // 2)


def u2_mixed(r: int, s: int, m_plus: int) -> MatrixRep:
    """Scalars of order 2^r * m_plus joined with the quaternion group and
    the twisted 3-power element exp(2pi i/3^(s+1)) W inside U(2), W the
    unit quaternion cycling i -> j -> k, realified to SO(4)."""
    r, s, mp = int(r), int(s), int(m_plus)
    if r < 1:
        raise InvalidParametersError("r must be >= 1")
    if s < 0:
        raise InvalidParametersError("s must be >= 0")
    if mp < 1 or math.gcd(mp, 6) != 1:
        raise InvalidParametersError("m_plus must be positive and prime to 6")
    lam = np.exp(2j * np.pi / 3 ** (s + 1))
    scalar = np.exp(2j * np.pi / (2**r * mp)) * np.eye(2)
    gens = [scalar, _su2(_QI), _su2(_QJ), lam * _su2(_QW)]
    unitary = _closed_rep(gens, 2 ** (r + 2) * 3 ** (s + 1) * mp)
    # realified matrices are a new matrix set, so this rep forms its own residual
    mats = np.stack([_realify(c) for c in unitary.matrices])
    return MatrixRep(group=unitary.group, matrices=mats, projective=False)


def o4_in_so5(m: int, k: int) -> MatrixRep:
    """The dihedral-by-cyclic group of order 2km, k odd, as orthogonal
    4 x 4 blocks padded by the determinant to land in SO(5): two O(2)
    blocks for odd m, a unitary pair whose swap carries a 2-power phase
    for even m."""
    m, k = int(m), int(k)
    if k < 3 or k % 2 == 0:
        raise InvalidParametersError("k must be odd and >= 3")
    if m < 1:
        raise InvalidParametersError("m must be positive")
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
    return _closed_rep(padded, 2 * k * m)


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
    return MatrixRep(group=group, matrices=mats, projective=True)


# ---------------------------------------------------------------------------
# top-level dispatch


def _padded_to_so5(rep: MatrixRep) -> np.ndarray:
    """The rep's matrices with an identity block below them, up to 5x5.

    Padding keeps orthogonality, determinant and the homomorphism
    residual to the bit: every product entry gains only exact zero
    terms, and the new entries are exactly those of the identity."""
    if rep.field_tag != "real" or rep.projective:
        raise InvalidInputError("only real non-projective reps can be padded")
    if rep.dimension == 5:
        return rep.matrices
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
    return _closed_rep(gens, g.size)


# hint kind -> (required fields, optional fields with their defaults,
# the recipe called with every field); ``poly`` is a name, of the group
# table for a polyhedral product and of a binary cover for a central
# product, every other field is an integer
_HINTS = {
    "abelian": ((), {}, _abelian_rank2_rep),
    "polyhedral-product": (
        ("poly",), {"order_param": None, "cyclic_order": 1},
        lambda g, poly, order_param, cyclic_order: so3_times_rotation(
            cyclic_order, poly, *(() if order_param is None else (order_param,)))),
    "klein-3power": (
        ("power",), {"m_plus": 1},
        lambda g, power, m_plus: klein_twist(power, m_plus)),
    "central-product": (
        ("poly", "m"), {},
        lambda g, poly, m: so4_central_product(poly, m)),
    "u2-mixed": (
        ("r", "s"), {"m_plus": 1},
        lambda g, r, s, m_plus: u2_mixed(r, s, m_plus)),
    "dihedral-mixed": (
        ("m", "k"), {},
        lambda g, m, k: o4_in_so5(m, k)),
}


def _hint_fields(kind: str, hint: dict) -> dict:
    """The hint's fields with defaults filled in; a missing, unknown or
    mistyped field raises InvalidInputError."""
    required, optional, _ = _HINTS[kind]
    missing = [name for name in required if name not in hint]
    if missing:
        raise InvalidInputError(f"hint {kind!r} lacks field {missing[0]!r}")
    unknown = [name for name in hint if name not in required and name not in optional]
    if unknown:
        raise InvalidInputError(f"hint {kind!r} has no field {unknown[0]!r}")
    for name, value in hint.items():
        if name == "poly" and not isinstance(value, str):
            raise InvalidInputError("hint field 'poly' must be a name")
        if name != "poly" and (not isinstance(value, (int, np.integer))
                               or isinstance(value, bool)):
            raise InvalidInputError(f"hint field {name!r} must be an integer")
        # every integer field is a factor or an exponent of the model's
        # order, so a larger one names no model under the cap; refused
        # here, it never reaches a float conversion that would overflow
        if name != "poly" and value > ORDER_CAP:
            raise BudgetError(f"hint field {name!r} exceeds the order cap {ORDER_CAP}")
    return {**optional, **hint}


def embed_into_so5(g: FiniteGroup, structure_hint: dict) -> MatrixRep:
    """Faithful special-orthogonal 5-dimensional rep of ``g``.

    The hint names which construction produced the group; the recipe
    builds the matrix model, the model's closure group is matched to
    ``g`` by an explicit isomorphism, and the matrices are relabeled
    so the returned rep is indexed by ``g`` itself.  The isomorphism is
    checked on the integer tables, so it permutes the pairs of elements
    and the relabelled rep carries the model's all-pairs residual
    instead of forming the products again.  Hints (fields in brackets
    are optional):

      {"kind": "abelian"}                          rank <= 2
      {"kind": "polyhedral-product", "poly", ["order_param", "cyclic_order"]}
      {"kind": "klein-3power", "power", ["m_plus"]}
      {"kind": "central-product", "poly", "m"}
      {"kind": "u2-mixed", "r", "s", ["m_plus"]}
      {"kind": "dihedral-mixed", "m", "k"}

    A missing, unknown or mistyped field raises InvalidInputError.
    2-groups with an index-2 cyclic subgroup have no printed recipe
    and raise the unsupported-case error, as does any unknown hint.
    """
    hint = dict(structure_hint)
    kind = hint.pop("kind", None)
    if kind == "two-group":
        raise UnsupportedCaseError(
            "2-groups with an index-2 cyclic subgroup have no explicit recipe here")
    if kind not in _HINTS:
        raise UnsupportedCaseError(f"no embedding recipe for structure hint {kind!r}")
    rep = _HINTS[kind][2](g, **_hint_fields(kind, hint))
    mats = _padded_to_so5(rep)
    phi = find_isomorphism(g, rep.group)
    # phi must be a bijection onto the model that maps g.table onto the
    # model's table
    if phi is None or not (
            rep.group.size == g.size
            and np.array_equal(np.sort(phi), np.arange(g.size))
            and np.array_equal(rep.group.table[np.ix_(phi, phi)], phi[g.table])):
        raise InvalidInputError("structure hint does not match the group")
    return MatrixRep._measured(g, mats[phi], rep.homomorphism_residual())
