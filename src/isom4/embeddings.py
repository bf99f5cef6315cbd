"""Explicit matrix models for the group families in this package.

Covers the polyhedral rotation groups in SO(3) (named as the group
table of ``groups`` names them), the unit-quaternion double cover of
SO(4), five block/unitary recipes that land every supported central
extension inside SO(5) (``embed_into_so5`` calls the one its structure
hint names), and the diagonal-plus-shift projective model in PU(3).

A recipe states its generators once, as a cyclotomic source (see
``groups.SOURCE_DENOMINATOR``), and ``groups._close_unitary`` closes
them exactly modulo a prime: the table is exact and the rep faithful,
with no all-pairs pass.  The source at e^(2 pi i/n) gives the float
matrices of the ``MatrixRep``, whose all-pairs residual is a cross-check
formed on demand.  A rep on a caller's own matrices is checked in
floats: every product, and a margin between distinct elements.
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
    _BINARY_ORDERS,
    _binary_quaternions,
    _close_unitary,
    _const,
    _cos_sin,
    _group_key,
    _icosa_numbers,
    _left_mul,
    _power,
    _require_within,
    _table_residual,
    _unitary_drift,
    _zeta_order,
    canonical_group_name,
    find_isomorphism,
    pu3_presentation_valid,
)
from .snf import _row_blocks

__all__ = [
    "MatrixRep",
    "DEFAULT_TOLERANCE",
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


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """A checked matrix representation aligned with a group table.

    ``matrices[i]`` is the image of element ``i``; the dimension and
    the field (real or complex) are read off their shape and dtype.
    Construction verifies orthogonality/unitarity, determinant +1 for
    real reps, and the homomorphism identity on all pairs, each within
    ``DEFAULT_TOLERANCE``; projective reps may be off by a unit scalar
    per pair.  The rep is frozen and its matrices are read-only.

    The recipes here build their reps by an exact closure modulo
    ``prime`` (``_closed``), faithful by construction; their n^2 products
    are formed only when ``homomorphism_residual`` asks for them.
    ``prime`` is None on a caller's matrices."""

    group: FiniteGroup
    matrices: np.ndarray
    projective: bool
    prime: int | None = field(default=None, init=False)
    _residual: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._validate()
        residual = self.homomorphism_residual()
        _require_within(residual, DEFAULT_TOLERANCE, f"homomorphism residual {residual:.3e} "
                        f"exceeds tolerance {DEFAULT_TOLERANCE:.3e}")

    @classmethod
    def _closed(cls, group, matrices, projective: bool, prime: int) -> "MatrixRep":
        """The rep on the float matrices of a closure modulo ``prime``,
        indexed by its exact table; every per-matrix check runs."""
        rep = object.__new__(cls)
        for name, value in (("group", group), ("matrices", matrices),
                            ("projective", projective), ("prime", prime), ("_residual", None)):
            object.__setattr__(rep, name, value)
        rep._validate()
        return rep

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]

    @property
    def field_tag(self) -> str:
        return "complex" if np.iscomplexobj(self.matrices) else "real"

    def _validate(self):
        """The per-matrix checks of the constructor."""
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
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    def homomorphism_residual(self) -> float:
        """Worst deviation from the homomorphism identity over all pairs,
        formed once: when a caller's matrices are validated, and on a
        closed rep, whose table is exact, as a float cross-check."""
        if self._residual is None:
            object.__setattr__(self, "_residual", _homomorphism_residual(
                self.group.table, self.matrices, self.projective))
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


def is_faithful_rep(rep: MatrixRep) -> bool:
    """Injectivity of a rep, whose construction already refused a
    homomorphism residual above ``DEFAULT_TOLERANCE``.

    A closed rep is faithful by construction: its elements are distinct
    matrices modulo its prime.  On a caller's matrices, every pair of
    distinct elements must sit farther apart than ten times
    ``DEFAULT_TOLERANCE``: M_a - M_b, or for a projective rep M_a^H M_b
    less its nearest scalar.  The distances are formed in row blocks of
    about ``snf._BLOCK_ENTRIES`` entries."""
    if rep.prime is not None:
        return True
    mats, n, d = rep.matrices, rep.group.size, rep.dimension
    gap = math.inf
    for blk in _row_blocks(n, n * d * d):
        if rep.projective:
            diff = np.einsum("aij,bik->abjk", mats[blk].conj(), mats)
            diff -= np.einsum("abjj->ab", diff)[..., None, None] / d * np.eye(d)
        else:
            diff = mats[blk, None] - mats[None, :]
        dist = np.max(np.abs(diff), axis=(2, 3))
        dist[np.arange(dist.shape[0]), np.arange(blk.start, blk.stop)] = math.inf
        gap = min(gap, float(dist.min()))
    return gap > _INJECTIVITY_MARGIN * DEFAULT_TOLERANCE


def _closed_rep(source, order: int) -> MatrixRep:
    """The rep closing the generators of ``source`` to ``order`` gives."""
    table, mats, _, prime = _close_unitary(source, order)
    return MatrixRep._closed(FiniteGroup(table), mats, False, prime)


# ---------------------------------------------------------------------------
# elementary blocks, as sources over zeta_n


def _rot2(n: int, m: int) -> np.ndarray:
    """Rotation by 2pi/m."""
    c, s = _cos_sin(n, m)
    return np.array([[c, -s], [s, c]])


def _eye(k: int, n: int) -> np.ndarray:
    return _const(np.eye(k, dtype=np.int64), n)


def _block_diag(*blocks) -> np.ndarray:
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim) + blocks[0].shape[2:], dtype=blocks[0].dtype)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def _su2(q) -> np.ndarray:
    """[[a + bi, c + di], [-c + di, a - bi]] of a quaternion source q."""
    a, b, c, d = q
    ib, id_ = (np.roll(x, a.shape[-1] // 4) for x in (b, d))
    return np.array([[a + ib, c + id_], [-c + id_, a - ib]])


def _realified(unitary: MatrixRep) -> MatrixRep:
    """A closed unitary rep realified on coordinates (x1, x2, y1, y2)."""
    a, b = unitary.matrices.real, unitary.matrices.imag
    return MatrixRep._closed(unitary.group, np.block([[a, -b], [b, a]]), False, unitary.prime)


_KLEIN_SIGNS = (np.diag([1, -1, -1]), np.diag([-1, 1, -1]))
# coordinate 3-cycle x -> y -> z -> x, the rotation by 2pi/3 about (1,1,1)
_P3 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
_ROTZ4 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])


def _so3_generators(name: str, *params: int):
    """The order of the polyhedral group a group-table name and its
    parameters denote, and n -> the source of its rotation generators."""
    key = _group_key(name, params)
    if key == "cyclic":
        j = params[0]
        if j < 1:
            raise InvalidParametersError("cyclic order must be positive")
        return j, lambda n: [_block_diag(_rot2(n, j), _eye(1, n))]
    if key == "dihedral":
        order = params[0]
        if order < 2 or order % 2:
            raise InvalidParametersError("dihedral order must be even and >= 2")
        return order, lambda n: [_block_diag(_rot2(n, order // 2), _eye(1, n)),
                                 _const(np.diag([1, -1, -1]), n)]
    if key == "tetra":
        return 12, lambda n: _const([*_KLEIN_SIGNS, _P3], n)
    if key == "octa":
        return 24, lambda n: _const([*_KLEIN_SIGNS, _P3, _ROTZ4], n)
    if key == "icosa":
        def icosa(n):
            # the rotation by 2pi/5 about the vertex (0, 1, golden ratio)
            minus, plus, half = _icosa_numbers(n)
            return [_const(_P3, n), np.array([[minus, -plus, half], [plus, half, minus],
                                              [-half, minus, plus]])]
        return 60, icosa
    raise InvalidInputError(f"no rotation model for group {key!r}")


def polyhedral_so3(name: str, *params: int) -> MatrixRep:
    """Faithful 3-dimensional rotation model of a polyhedral group, named
    as ``build_group`` names it: ``polyhedral_so3("A4")``,
    ``polyhedral_so3("dihedral", 8)``.

    Cyclic groups rotate about the z-axis, dihedral groups add the
    half-turn about x, the tetrahedral and octahedral groups are signed
    coordinate permutations, and the icosahedral group combines the
    coordinate 3-cycle with a 5-fold golden-ratio vertex rotation."""
    order, gens = _so3_generators(name, *params)
    return _closed_rep(gens(_zeta_order(order)), order)


# ---------------------------------------------------------------------------
# the block and unitary recipes into SO(4)/SO(5); each sizes its source
# by its order first, so an order above the cap builds nothing


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
    n = _zeta_order(4 * t)
    # one generator carries the 3-cycle and the rotation together,
    # so only a third of the rotation block commutes with the signs
    return _closed_rep([*(_block_diag(_const(g, n), _eye(2, n)) for g in _KLEIN_SIGNS),
                        _block_diag(_const(_P3, n), _rot2(n, t))], 4 * t)


def so4_central_product(kind: str, m: int) -> MatrixRep:
    """Z_m joined with a binary polyhedral group over the central
    involution, in SO(4): left multiplication by zeta_m and right
    multiplication by conj(g) for the binary generators g, the images of
    the quaternion pairs (zeta_m, 1) and (1, g).  The shared sign in the
    kernel of the pair map realizes the central product; x -> x conj(g)
    is C L_g C, C = diag(1, -1, -1, -1).  ``kind`` names the rotation
    group the cover double-covers, as ``build_group`` names it."""
    kind = canonical_group_name(kind)
    if kind not in _BINARY_ORDERS:
        raise InvalidInputError(f"no binary quaternion model for kind {kind!r}")
    m = int(m)
    if m < 2 or m % 2:
        raise InvalidParametersError("m must be even and >= 2")
    order = m * _BINARY_ORDERS[kind] // 2
    n = _zeta_order(order)
    c, s = _cos_sin(n, m)
    conj = np.outer([1, -1, -1, -1], [1, -1, -1, -1])[:, :, None]
    return _closed_rep([_left_mul([c, s, 0 * c, 0 * c]),
                        *(conj * _left_mul(q) for q in _binary_quaternions(kind, n))], order)


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
    order = 2 ** (r + 2) * 3 ** (s + 1) * mp
    n = _zeta_order(order)
    qi, qj, w = (_su2(_const(q, n)) for q in ([0, 1, 0, 0], [0, 0, 1, 0], [-0.5, 0.5, 0.5, 0.5]))
    # a scalar root of unity times a source shifts its coefficients
    scalar = np.roll(_eye(2, n), n // (2**r * mp), axis=-1)
    return _realified(_closed_rep([scalar, qi, qj, np.roll(w, n // 3 ** (s + 1), axis=-1)],
                                  order))


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
    n = _zeta_order(2 * k * m)
    if m % 2:
        # split case: two independent O(2) blocks, the reflection padded
        # by its determinant -1
        return _closed_rep([_block_diag(_rot2(n, m), _eye(3, n)),
                            _block_diag(_eye(2, n), _rot2(n, k), _eye(1, n)),
                            _const(np.diag([1, 1, 1, -1, -1]), n)], 2 * k * m)
    # nonsplit case: a unitary pair with the swap twisted by a 2-power
    # phase, inverting the rotation eigenvalues; realified, each
    # generator has determinant |det|^2 = 1
    r = (m & -m).bit_length() - 1
    omega = _power(n, n // k)
    gens = [np.array([[omega, 0 * omega], [0 * omega, _power(n, -(n // k))]]),
            np.roll(_const([[0, 1], [1, 0]], n), n // 2 ** (r + 1), axis=-1)]
    if m >> r > 1:
        gens.append(np.roll(_eye(2, n), n // (m >> r), axis=-1))
    return _padded_to_so5(_realified(_closed_rep(gens, 2 * k * m)))


# ---------------------------------------------------------------------------
# the projective 3-dimensional model


def pu3_metacyclic(m: int, n: int, r: int) -> MatrixRep:
    """Diagonal-plus-shift projective unitary model of the metacyclic
    group with presentation A^m = B^3 = 1, B A B^-1 = A^r.

    A maps to diag(zeta, zeta^r, zeta^(r^2)), zeta = e^(2pi i/m), and B to
    the coordinate shift; the twist relation then holds linearly, not
    only up to scalar.  The linear lift is closed exactly and meets the
    scalars only in the identity; it satisfies the presentation, so the
    words A^a B^b index it as ``build_metacyclic`` indexes the group.
    Only n = 3 is supported: the cube condition r^3 = 1 mod m is exactly
    what lets a 3-cycle of the diagonal realize the twist."""
    m, n, r = int(m), int(n), int(r)
    if n != 3:
        raise InvalidInputError("the diagonal-plus-shift model needs n = 3")
    if m < 1:
        raise InvalidParametersError("m must be positive")
    if m == 1:
        r = 0
    elif not pu3_presentation_valid(m, n, r):
        raise InvalidParametersError("parameters fail the presentation side conditions")
    z = _zeta_order(3 * m)
    diag = np.zeros((3, 3, z), dtype=np.int64)
    for i, e in enumerate((1, r, r * r)):
        diag[i, i] = _power(z, e * (z // m))
    t, mats, exact, prime = _close_unitary([diag, _const(np.roll(np.eye(3), 1, axis=1), z)], 3 * m)
    # its one scalar is the identity (an element that reduces to a scalar
    # is one), so the lift maps isomorphically onto its image in PU(3)
    if np.count_nonzero(np.all(exact == exact[:, :1, :1] * np.eye(3, dtype=int), axis=(1, 2))) > 1:
        raise InvalidInputError("the model meets the scalars of U(3)")
    # A^m = B^3 = 1 and B A = A^r B hold for A, B labelled 1, 2 (or B as 1
    # when A = 1): the closure, of order 3m, is then the metacyclic group,
    # and the words A^i B^j index it as build_metacyclic does
    a, b = (1, 2) if m > 1 else (0, 1)
    powers = [0]
    for _ in range(m):
        powers.append(t[powers[-1], a])
    if not (powers[m] == 0 and t[t[b, b], b] == 0 and t[b, a] == t[powers[r % m], b]):
        raise InvalidInputError("the closure does not satisfy the metacyclic presentation")
    col = np.array(powers[:m])
    phi = np.stack([col, t[col, b], t[t[col, b], b]], axis=1).ravel()
    group = FiniteGroup(np.argsort(phi)[t[phi][:, phi]])
    return MatrixRep._closed(group, mats[phi], True, prime)


# ---------------------------------------------------------------------------
# top-level dispatch


def _padded_to_so5(rep: MatrixRep) -> MatrixRep:
    """A closed real rep with an identity block below its matrices, up to
    5x5: padding keeps orthogonality, determinant and the table."""
    if rep.dimension == 5:
        return rep
    mats = np.tile(np.eye(5), (rep.group.size, 1, 1))
    mats[:, : rep.dimension, : rep.dimension] = rep.matrices
    return MatrixRep._closed(rep.group, mats, False, rep.prime)


def _abelian_rank2_rep(g: FiniteGroup) -> MatrixRep:
    if not np.array_equal(g.table, g.table.T):
        raise InvalidInputError("hint says abelian but the table is not commutative")
    invariants = g.abelian_invariants
    if len(invariants) > 2:
        raise UnsupportedCaseError(
            "abelian groups of rank above 2 do not fit two rotation blocks")
    n = _zeta_order(g.size)
    # one rotation plane per invariant, then the identity on the rest
    gens = [_block_diag(_eye(2 * slot, n), _rot2(n, order), _eye(3 - 2 * slot, n))
            for slot, order in enumerate(invariants)]
    return _closed_rep(gens or [_eye(5, n)], g.size)


# hint kind -> (required fields, optional fields with their defaults,
# the recipe called with every field); ``poly`` is a name of the group
# table, every other field is an integer
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
        # order, so a larger one names no model under the cap
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
    rep = _padded_to_so5(_HINTS[kind][2](g, **_hint_fields(kind, hint)))
    phi = find_isomorphism(g, rep.group)
    # phi must be a bijection onto the model that maps g.table onto the
    # model's table
    if phi is None or not (
            rep.group.size == g.size
            and np.array_equal(np.sort(phi), np.arange(g.size))
            and np.array_equal(rep.group.table[np.ix_(phi, phi)], phi[g.table])):
        raise InvalidInputError("structure hint does not match the group")
    return MatrixRep._closed(g, rep.matrices[phi], False, rep.prime)
