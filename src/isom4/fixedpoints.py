"""Fixed-point sets of linear actions and their trace identities.

Two closed models are in scope: the 4-sphere acted on by SO(5), and
the complex projective plane acted on by U(3) (plus the anti-linear
conjugation involution as a catalog constant).  Fixed sets come from
eigenvalue multiplicities, Euler characteristics from the standard
table, and each check compares that count with the Lefschetz number.
That number is not computed from the action: it is the constant every
orientation-preserving map of S^4 has (2) or every unitary map of CP^2
has (3), since such maps act trivially on rational cohomology.  A
sweep classifies a whole stack of matrices, such as every element of
a closed group, and counts the matrices per fixed-set stratum; one
matrix is a stack of one.  ``fixed_set_cp2`` classifies a single
unitary by the same rule, for the involution catalog.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .groups import _require_within, _tolerance_text, _unitary_drift

__all__ = [
    "CLUSTER_TOL",
    "FixComponent",
    "FixedSetDescriptor",
    "InvolutionTraceData",
    "fixed_set_cp2",
    "involution_identity_check",
    "involution_catalog",
    "lefschetz_sweep_s4",
    "lefschetz_sweep_cp2",
]

# the swept stacks are closed finite groups of roots of unity: their
# eigenvalues agree to float noise (1e-15) or differ by O(1) (0.2 at
# least), as Tier-1 asserts, so this threshold only has to beat noise
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

    @property
    def label(self) -> str:
        """The component labels, a repeated one counted: 'S^2',
        '3 x point', 'CP^1 + point'; 'empty' without components."""
        counts = Counter(c.label for c in self.components)
        return " + ".join(label if n == 1 else f"{n} x {label}"
                          for label, n in counts.items()) or "empty"


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


def _as_stack(mats, k: int, dtype) -> np.ndarray:
    """``mats`` as a stack (N, k, k), N >= 1; a one-matrix caller adds
    the axis."""
    mats = np.asarray(mats, dtype=dtype)
    if mats.ndim != 3 or mats.shape[1:] != (k, k) or not len(mats):
        raise InvalidInputError(f"expected one or more {k}x{k} matrices")
    return mats


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
    mats = _as_stack(np.asarray(u)[None], 3, np.complex128)
    _require_unitary(mats)
    return _cp2_fixed_set(int(_cluster_count(np.linalg.eigvals(mats))[0]))


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


def _sweep(mats: np.ndarray, invariant, fixed_set, lefschetz: int) -> dict:
    """Classify every matrix of a validated stack: ``invariant`` maps
    the stack's eigenvalues to the integers ``fixed_set`` classifies,
    once per distinct integer.  The
    strata are counted by fixed-set label, in label order."""
    keys = invariant(np.linalg.eigvals(mats)).tolist()
    fixed = {key: fixed_set(key) for key in set(keys)}
    strata = dict(sorted((fixed[key].label, n) for key, n in Counter(keys).items()))
    failures = [i for i, key in enumerate(keys) if fixed[key].euler_char != lefschetz]
    return {"count": len(keys), "strata": strata, "failures": failures}


def lefschetz_sweep_s4(mats) -> dict:
    """Fixed set against the Lefschetz number on every rotation of a
    stack (N, 5, 5): the count, the count per fixed-set stratum ('S^0',
    'S^2', 'S^4') and the indices whose fixed set misses the Lefschetz
    number.

    A rotation whose eigenvalue 1 has multiplicity d fixes S^(d-1) on
    the unit sphere.  Orientation-preserving maps act trivially on top
    cohomology, so the alternating trace sum collapses to 1 + 1 = 2; an
    orientation-preserving isometry of an odd-dimensional space has odd
    eigenvalue-1 multiplicity, so its fixed sphere has even dimension
    and Euler characteristic 2."""
    mats = _as_stack(mats, 5, np.float64)
    _require_special_orthogonal(mats)
    return _sweep(mats, _unit_multiplicity, _s4_fixed_set, _LEFSCHETZ_S4)


def lefschetz_sweep_cp2(mats) -> dict:
    """Fixed set against the Lefschetz number on every unitary of a
    stack (N, 3, 3): the count, the count per fixed-set stratum
    ('3 x point', 'CP^1 + point', 'CP^2', as :func:`fixed_set_cp2`
    classifies one unitary) and the indices whose fixed set misses the
    Lefschetz number.

    Unitary (hence homologically trivial) actions have alternating
    trace sum 1 + 1 + 1 = 3 over the three even cohomology groups."""
    mats = _as_stack(mats, 3, np.complex128)
    _require_unitary(mats)
    return _sweep(mats, _cluster_count, _cp2_fixed_set, _LEFSCHETZ_CP2)
