"""Fixed-point sets of linear actions and their trace identities.

Two closed models are in scope: the 4-sphere acted on by SO(5), and
the complex projective plane acted on by U(3) (plus the anti-linear
conjugation involution as a catalog constant).  Fixed sets come from
eigenvalue multiplicities, Euler characteristics from the standard
table, and each check compares that count with the Lefschetz number.
That number is not computed from the action: it is the constant every
orientation-preserving map of S^4 has (2) or every unitary map of CP^2
has (3), since such maps act trivially on rational cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParametersError
from .groups import _require_within, _tolerance_text, _unitary_drift

__all__ = [
    "CLUSTER_TOL",
    "FixComponent",
    "FixedSetDescriptor",
    "InvolutionTraceData",
    "fixed_set_s4",
    "lefschetz_check_s4",
    "fixed_set_cp2",
    "lefschetz_check_cp2",
    "involution_identity_check",
    "involution_catalog",
    "random_so5",
    "random_u3",
    "batch_lefschetz_s4",
    "batch_lefschetz_cp2",
]

# catalog matrices have exactly representable or trigonometric entries,
# so true eigenvalue gaps are O(1) and this threshold only has to beat
# float noise
CLUSTER_TOL = 1e-9

_ALLOWED_DIMENSIONS = (0, 1, 2, 4)

# every orientation-preserving map of S^4 and every unitary map of CP^2
# acts trivially on rational cohomology
_LEFSCHETZ_S4 = 2
_LEFSCHETZ_CP2 = 3


@dataclass(frozen=True)
class FixComponent:
    dimension: int
    euler_char: int
    label: str

    def __post_init__(self):
        if self.dimension not in _ALLOWED_DIMENSIONS:
            raise InvalidInputError(f"unsupported component dimension {self.dimension}")


@dataclass(frozen=True)
class FixedSetDescriptor:
    components: tuple[FixComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def euler_char(self) -> int:
        return sum(c.euler_char for c in self.components)


@dataclass(frozen=True)
class InvolutionTraceData:
    """Traces attached to an involution on a definite 4-manifold.

    With a definite intersection form the equivariant signature is the
    trace on middle cohomology by definition, so the two fields must
    agree."""

    trace_h2: int
    signature_g: int
    fix_euler: int

    def __post_init__(self):
        if self.signature_g != self.trace_h2:
            raise InvalidInputError("definite form: signature must equal the H^2 trace")


def _require_special_orthogonal(mats: np.ndarray) -> None:
    """Refuse a stack (N, 5, 5) unless every matrix is orthogonal and of
    determinant +1 within the cluster tolerance."""
    _require_within(_unitary_drift(mats), CLUSTER_TOL,
                    f"matrix must be orthogonal within {_tolerance_text(CLUSTER_TOL)}")
    _require_within(np.max(np.abs(np.linalg.det(mats) - 1.0)), CLUSTER_TOL,
                    "matrix must have determinant +1")


def _require_unitary(mats: np.ndarray) -> None:
    """Refuse a stack (N, 3, 3) unless every matrix is unitary within the
    cluster tolerance."""
    _require_within(_unitary_drift(mats), CLUSTER_TOL,
                    f"matrix must be unitary within {_tolerance_text(CLUSTER_TOL)}")


def _as_special_orthogonal_5(g) -> np.ndarray:
    mat = np.asarray(g, dtype=np.float64)
    if mat.shape != (5, 5):
        raise InvalidInputError("expected a 5x5 matrix")
    _require_special_orthogonal(mat[None])
    return mat


def _as_unitary_3(u) -> np.ndarray:
    mat = np.asarray(u, dtype=np.complex128)
    if mat.shape != (3, 3):
        raise InvalidInputError("expected a 3x3 matrix")
    _require_unitary(mat[None])
    return mat


def _unit_multiplicity(eigvals: np.ndarray) -> np.ndarray:
    """Number of eigenvalues within the cluster tolerance of 1, per row
    of a stack (..., 5) of eigenvalues."""
    return np.count_nonzero(np.abs(eigvals - 1.0) < CLUSTER_TOL, axis=-1)


def _s4_fixed_set(d: int) -> FixedSetDescriptor:
    """Fixed set on the sphere of a rotation whose eigenvalue 1 has
    multiplicity d: the eigenspace meets the sphere in S^(d-1)."""
    if d == 0:
        return FixedSetDescriptor(())
    sphere_dim = d - 1
    euler = 2 if sphere_dim % 2 == 0 else 0
    return FixedSetDescriptor((FixComponent(sphere_dim, euler, f"S^{sphere_dim}"),))


def fixed_set_s4(g) -> FixedSetDescriptor:
    """Fixed set on the unit sphere: the eigenvalue-1 eigenspace of
    dimension d meets the sphere in S^(d-1).

    An orientation-preserving isometry of an odd-dimensional space has
    odd eigenvalue-1 multiplicity, so the fixed set is never empty and
    its sphere has even dimension."""
    mat = _as_special_orthogonal_5(g)
    return _s4_fixed_set(int(_unit_multiplicity(np.linalg.eigvals(mat))))


def lefschetz_check_s4(g) -> dict:
    """Trace prediction vs fixed-set count on the sphere.

    Orientation-preserving maps act trivially on top cohomology, so
    the alternating trace sum collapses to 1 + 1 = 2."""
    fix = fixed_set_s4(g)
    return {
        "lefschetz": _LEFSCHETZ_S4,
        "fix_euler": fix.euler_char,
        "pass": fix.euler_char == _LEFSCHETZ_S4,
    }


def _cluster_count(eigvals: np.ndarray) -> np.ndarray:
    """Number of eigenvalue clusters per row of a stack (..., k).

    Eigenvalues are taken in order; each joins the first earlier cluster
    whose first member lies within the cluster tolerance, or else starts
    a new cluster."""
    k = eigvals.shape[-1]
    # owner[..., j]: index of the first member of j's cluster
    owner = np.empty(eigvals.shape, dtype=np.intp)
    for j in range(k):
        owner[..., j] = j
        for i in reversed(range(j)):
            near = np.abs(eigvals[..., j] - eigvals[..., i]) < CLUSTER_TOL
            owner[..., j] = np.where(near & (owner[..., i] == i), i, owner[..., j])
    return np.count_nonzero(owner == np.arange(k), axis=-1)


def _cp2_fixed_set(clusters: int) -> FixedSetDescriptor:
    """Fixed set on the plane of a unitary with the given number of
    eigenvalue clusters: three give three points, two a line and a
    point, one the whole plane."""
    if clusters == 3:
        return FixedSetDescriptor(tuple(FixComponent(0, 1, "point") for _ in range(3)))
    if clusters == 2:
        return FixedSetDescriptor((FixComponent(2, 2, "CP^1"), FixComponent(0, 1, "point")))
    if clusters == 1:
        return FixedSetDescriptor((FixComponent(4, 3, "CP^2"),))
    raise InvalidInputError(f"unexpected eigenvalue cluster count {clusters}")


def fixed_set_cp2(u) -> FixedSetDescriptor:
    """Fixed set of a unitary on the projective plane, by eigenvalue
    multiplicity pattern: (1,1,1) gives three points, (2,1) a line and
    a point, (3) the whole plane.  Every pattern totals three."""
    mat = _as_unitary_3(u)
    return _cp2_fixed_set(int(_cluster_count(np.linalg.eigvals(mat))))


def lefschetz_check_cp2(u) -> dict:
    """Trace prediction vs fixed-set count on the projective plane.

    Unitary (hence homologically trivial) actions have alternating
    trace sum 1 + 1 + 1 = 3 over the three even cohomology groups."""
    fix = fixed_set_cp2(u)
    return {
        "lefschetz": _LEFSCHETZ_CP2,
        "fix_euler": fix.euler_char,
        "pass": fix.euler_char == _LEFSCHETZ_CP2,
    }


def involution_identity_check(data: InvolutionTraceData) -> dict:
    """The involution trace identity: fixed-set count equals 2 plus the
    equivariant signature; the self-intersection of the fixed surface
    is reported from the signature side, not recomputed."""
    return {
        "eq_pass": data.fix_euler == 2 + data.signature_g,
        "derived_self_intersection": data.signature_g,
    }


def involution_catalog() -> list[dict]:
    """Involution trace records on the projective plane.

    The conjugation entry is the anti-linear involution: its fixed set
    is the real projective plane (count 1) and it negates the middle
    cohomology class.  The holomorphic entry is diag(1, 1, -1), whose
    data comes from the linear model.  The free entry is the
    impossible case: no fixed points forces count 0 against the
    predicted 2."""
    holo = fixed_set_cp2(np.diag([1.0, 1.0, -1.0]))
    entries = [
        {
            "label": "cp2-conjugation",
            "data": InvolutionTraceData(trace_h2=-1, signature_g=-1, fix_euler=1),
            "expected_pass": True,
        },
        {
            "label": "cp2-holomorphic-split",
            "data": InvolutionTraceData(trace_h2=1, signature_g=1,
                                        fix_euler=holo.euler_char),
            "expected_pass": True,
        },
        {
            "label": "free-involution-hypothetical",
            "data": InvolutionTraceData(trace_h2=0, signature_g=0, fix_euler=0),
            "expected_pass": False,
        },
    ]
    for entry in entries:
        entry["result"] = involution_identity_check(entry["data"])
    return entries


# matrices drawn and classified at a time, so a batch of any count runs
# in bounded memory
_BATCH_CHUNK = 4096
# the default size of a random Lefschetz batch
BATCH_COUNT = 1000


def _so5_stack(rng: np.random.Generator, count: int) -> np.ndarray:
    """count Haar-ish rotations: QR of Gaussian matrices with the R
    diagonal signs fixed, reflected into the determinant +1 component.
    The draws are those of count one-matrix calls, in order."""
    q, r = np.linalg.qr(rng.normal(size=(count, 5, 5)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def _u3_stack(rng: np.random.Generator, count: int) -> np.ndarray:
    """count Haar unitaries: QR of complex Gaussians with the R diagonal
    phases divided out.  Each matrix draws its real parts, then its
    imaginary parts, as one-matrix calls do."""
    x = rng.normal(size=(count, 2, 3, 3))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d.conjugate() / np.abs(d))[:, None, :]


def random_so5(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish rotation: QR of a Gaussian matrix with the R diagonal
    sign fixed, reflected into the determinant +1 component."""
    return _so5_stack(rng, 1)[0]


def random_u3(rng: np.random.Generator) -> np.ndarray:
    """Haar unitary: QR of a complex Gaussian with R diagonal phases
    divided out."""
    return _u3_stack(rng, 1)[0]


def _batch(count: int, seed: int, sample, require, invariant, fixed_set,
           lefschetz: int) -> dict:
    """Draw count matrices from ``default_rng(seed)`` chunk by chunk,
    validate each chunk and list the indices whose fixed set misses the
    Lefschetz number.  ``invariant`` maps a stack of eigenvalues to the
    integer ``fixed_set`` classifies, as the one-matrix functions do."""
    if count < 1:
        raise InvalidParametersError("batch count must be positive")
    if not 0 <= seed < 2**64:
        raise InvalidParametersError("seed must fit in 64 unsigned bits")
    rng = np.random.default_rng(seed)
    failures = []
    for start in range(0, count, _BATCH_CHUNK):
        mats = sample(rng, min(_BATCH_CHUNK, count - start))
        require(mats)
        keys = invariant(np.linalg.eigvals(mats))
        # one fixed_set per distinct key: the sorted keys, each first of
        # a run of equal neighbours
        values = np.sort(keys)
        values = values[np.append(True, values[1:] != values[:-1])]
        euler = np.array([fixed_set(int(v)).euler_char for v in values])
        euler = euler[np.searchsorted(values, keys)]
        failures.extend((start + np.flatnonzero(euler != lefschetz)).tolist())
    return {"count": count, "failures": failures, "all_pass": not failures}


def batch_lefschetz_s4(count: int = BATCH_COUNT, seed: int = 0) -> dict:
    """:func:`lefschetz_check_s4` on count random rotations."""
    return _batch(count, seed, _so5_stack, _require_special_orthogonal,
                  _unit_multiplicity, _s4_fixed_set, _LEFSCHETZ_S4)


def batch_lefschetz_cp2(count: int = BATCH_COUNT, seed: int = 0) -> dict:
    """:func:`lefschetz_check_cp2` on count random unitaries."""
    return _batch(count, seed, _u3_stack, _require_unitary,
                  _cluster_count, _cp2_fixed_set, _LEFSCHETZ_CP2)
