"""Explicit matrix models for the group families in this package.

Covers the polyhedral rotation groups in SO(3) (named as the group
table of ``groups`` names them), the unit-quaternion double cover of
SO(4), the block/unitary recipes that land every supported central
extension inside SO(5) (``so5_model`` reads a group's recipe off its
table name, ``embed_into_so5`` relabels a model onto the group), and
the diagonal-plus-shift projective model in PU(3).

A recipe states its generators once, as a cyclotomic source (see
``groups.SOURCE_DENOMINATOR``), and ``groups._close_unitary`` closes
them exactly modulo a prime: the table is exact and the rep faithful,
with no all-pairs pass.  The source at e^(2 pi i/n) gives the float
matrices of the ``MatrixRep``, whose all-pairs residual is a cross-check
formed on demand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParametersError,
    UnsupportedCaseError,
)
from .groups import (
    DEFAULT_TOLERANCE,
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
    _require_integers,
    _require_within,
    _spec_text,
    _table_residual,
    _unitary_drift,
    _zeta_order,
    canonical_group_name,
    find_isomorphism,
    pu3_presentation_valid,
)

__all__ = [
    "MatrixRep",
    "DEFAULT_TOLERANCE",
    "polyhedral_so3",
    "klein_twist",
    "so4_central_product",
    "u2_mixed",
    "o4_in_so5",
    "pu3_metacyclic",
    "abelian_so5",
    "so5_model",
    "embed_into_so5",
]

@dataclass(frozen=True, eq=False)
class MatrixRep:
    """A matrix representation aligned with the exact table of a group.

    ``matrices[i]`` is the float image of element ``i``; the dimension
    and the field (real or complex) are read off their shape and dtype.
    ``prime`` is the prime the closure decided the table modulo: reduction
    modulo it is injective on the group, so the rep is faithful by
    construction.  Construction checks each matrix alone: orthogonal or
    unitary, determinant +1 when real, within ``DEFAULT_TOLERANCE``.  The
    rep is frozen and its matrices are read-only."""

    group: FiniteGroup
    matrices: np.ndarray
    prime: int

    def __post_init__(self):
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

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]

    @property
    def field_tag(self) -> str:
        return "complex" if np.iscomplexobj(self.matrices) else "real"

    def homomorphism_residual(self) -> float:
        """Worst deviation from M_a M_b = M_ab over all pairs of the
        exact table: a float cross-check, formed on each call."""
        return _table_residual(self.group.table, self.matrices)


def _closed_rep(source, order: int) -> MatrixRep:
    """The rep closing the generators of ``source`` to ``order`` gives."""
    table, mats, _, prime = _close_unitary(source, order)
    return MatrixRep(FiniteGroup(table), mats, prime)


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
    return MatrixRep(unitary.group, np.block([[a, -b], [b, a]]), unitary.prime)


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


def klein_twist(power: int, m_plus: int) -> MatrixRep:
    """The Klein four-group of diagonal signs on R^3, joined with
    diag(P3, R(2pi/(3^power * m_plus))), P3 the coordinate 3-cycle:
    (Z2 + Z2) x| Z_{3^power} times Z_{m_plus}, block diagonal in SO(5)."""
    r, mp = _require_integers(power=power, m_plus=m_plus)
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
    (m,) = _require_integers(m=m)
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
    r, s, mp = _require_integers(r=r, s=s, m_plus=m_plus)
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
    m, k = _require_integers(m=m, k=k)
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
    words A^a B^b index it as ``build_metacyclic`` indexes the group, and
    the rep returned is that linear lift, whose table is the group's.
    Only n = 3 is supported: the cube condition r^3 = 1 mod m is exactly
    what lets a 3-cycle of the diagonal realize the twist."""
    m, n, r = _require_integers(m=m, n=n, r=r)
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
    return MatrixRep(group, mats[phi], prime)


# ---------------------------------------------------------------------------
# the SO(5) front end


def _padded_to_so5(rep: MatrixRep) -> MatrixRep:
    """A closed real rep with an identity block below its matrices, up to
    5x5: padding keeps orthogonality, determinant and the table."""
    if rep.dimension == 5:
        return rep
    mats = np.tile(np.eye(5), (rep.group.size, 1, 1))
    mats[:, : rep.dimension, : rep.dimension] = rep.matrices
    return MatrixRep(rep.group, mats, rep.prime)


def abelian_so5(orders) -> MatrixRep:
    """Z_{k1} x ... x Z_{kr} in SO(5): one rotation plane per invariant
    factor d, by 2pi/d, then the identity on the rest.  Rank above 2 is
    refused, since two planes hold at most two factors."""
    factors = sorted(_require_integers(**{f"order {i + 1}": k for i, k in enumerate(orders)}))
    if any(k < 1 for k in factors):
        raise InvalidParametersError("cyclic order must be positive")
    # (gcd, lcm) pairwise leaves each factor dividing the ones after it
    for i, j in itertools.combinations(range(len(factors)), 2):
        factors[i], factors[j] = math.gcd(factors[i], factors[j]), math.lcm(factors[i], factors[j])
    invariants = [k for k in factors if k > 1]
    if len(invariants) > 2:
        raise UnsupportedCaseError(
            "abelian groups of rank above 2 do not fit two rotation blocks")
    order = math.prod(invariants)
    n = _zeta_order(order)
    gens = [_block_diag(_eye(2 * slot, n), _rot2(n, k), _eye(3 - 2 * slot, n))
            for slot, k in enumerate(invariants)]
    return _closed_rep(gens or [_eye(5, n)], order)


def so5_model(name: str, *params: int) -> MatrixRep:
    """The SO(k) recipe, k <= 5, for ``build_group(name, *params)``,
    read off the group-table name:

      cyclic, abelian                 ``abelian_so5`` on the orders
      dihedral, tetra, octa, icosa    ``polyhedral_so3``
      binary-tetra/octa/icosa         ``so4_central_product(kind, 2)``
      klein-by-3power:r, r >= 1       ``klein_twist(r, 1)``
      klein-by-3power:0 (Z2 x Z2)     ``abelian_so5((2, 2))``
      q8-by-3power:p, p >= 1          ``u2_mixed(1, p - 1, 1)``
      binary-dihedral:4k, k odd >= 3  ``o4_in_so5(2, k)``
      binary-dihedral:4 (Z4)          ``abelian_so5((4,))``

    Q8 and the binary dihedral 2-groups of order 8 and more have no
    printed recipe and raise the unsupported-case error, as does every
    other group."""
    key = _group_key(name, params)
    if key in ("cyclic", "abelian"):
        return abelian_so5(params)
    if key in ("dihedral", "tetra", "octa", "icosa"):
        return polyhedral_so3(key, *params)
    if key in ("binary-tetra", "binary-octa", "binary-icosa"):
        return so4_central_product(key.removeprefix("binary-"), 2)
    if key == "klein-by-3power":
        return klein_twist(params[0], 1) if params[0] else abelian_so5((2, 2))
    if key == "q8-by-3power" and params[0] != 0:
        return u2_mixed(1, params[0] - 1, 1)
    if key == "binary-dihedral":
        k, rest = divmod(params[0], 4)
        if k < 1 or rest:
            raise InvalidParametersError("binary dihedral order must be a multiple of 4")
        if k == 1:
            return abelian_so5((4,))
        if k % 2:
            return o4_in_so5(2, k)
    # q8-by-3power gets here at p = 0 only, binary-dihedral at even k
    if key in ("q8", "q8-by-3power") or key == "binary-dihedral" and k & (k - 1) == 0:
        raise UnsupportedCaseError(
            "2-groups with an index-2 cyclic subgroup have no explicit recipe here")
    raise UnsupportedCaseError(f"no SO(5) recipe for {_spec_text(key, params)}")


def embed_into_so5(g: FiniteGroup, model: MatrixRep) -> MatrixRep:
    """Faithful special-orthogonal 5-dimensional rep of ``g`` from a
    closed real ``model`` of it in SO(k), k <= 5: any recipe here, or
    the one ``so5_model`` reads off g's table name.

    The model is padded to 5x5 by an identity block, its closure group
    is matched to ``g`` by an explicit isomorphism, and the matrices are
    relabeled so the returned rep is indexed by ``g`` itself.  The
    isomorphism is checked on the integer tables, so the relabeled rep
    keeps the model's exact table and prime; a model of another group
    raises InvalidInputError.
    """
    if model.field_tag != "real" or model.dimension > 5:
        raise InvalidInputError("the model must be real and at most 5-dimensional")
    rep = _padded_to_so5(model)
    phi = find_isomorphism(g, rep.group)
    # phi must be a bijection onto the model that maps g.table onto the
    # model's table
    if phi is None or not (
            rep.group.size == g.size
            and np.array_equal(np.sort(phi), np.arange(g.size))
            and np.array_equal(rep.group.table[np.ix_(phi, phi)], phi[g.table])):
        raise InvalidInputError("the model is not a model of the group")
    return MatrixRep(g, rep.matrices[phi], rep.prime)
