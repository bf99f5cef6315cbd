"""Fixed-point sets of linear actions and their trace identities.

Two closed models are in scope: the 4-sphere acted on by SO(5), and
the complex projective plane acted on by U(3) (plus the anti-linear
conjugation involution as a catalog constant).  A fixed set is a
stratum, a (label, Euler characteristic) pair read off eigenvalue
multiplicities, and each check compares that count with the Lefschetz
number.  That number is not computed from the action: it is the
constant every orientation-preserving map of S^4 has (2) or every
unitary map of CP^2 has (3), since such maps act trivially on rational
cohomology.  A sweep classifies a whole stack of matrices, such as
every element of a closed group, and counts the matrices per stratum;
one matrix is a stack of one.  The involution catalog holds the
records of the identity chi(Fix) = 2 + [Fix]^2, as ``isom4 fixedpoint``
prints them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import InvalidInputError
from .groups import _require_within, _tolerance_text, _unitary_drift

__all__ = [
    "CLUSTER_TOL",
    "involution_catalog",
    "lefschetz_sweep_s4",
    "lefschetz_sweep_cp2",
]

# the swept stacks are closed finite groups of roots of unity: their
# eigenvalues agree to float noise (1e-15) or differ by O(1) (0.2 at
# least), as Tier-1 asserts, so this threshold only has to beat noise
CLUSTER_TOL = 1e-9

# every orientation-preserving map of S^4 and every unitary map of CP^2
# acts trivially on rational cohomology
_LEFSCHETZ_S4 = 2
_LEFSCHETZ_CP2 = 3

# the fixed set of a unitary on the plane, as (label, Euler
# characteristic), by its number of eigenvalue clusters: three give
# three points, two a line and a point, one the whole plane
_CP2_FIXED_SETS = {3: ("3 x point", 3), 2: ("CP^1 + point", 3), 1: ("CP^2", 3)}

# the catalog involutions: (label, trace on H^2, Euler characteristic of
# the fixed set, whether the identity should hold).  The anti-linear
# conjugation fixes the real projective plane (count 1) and negates the
# H^2 class; the holomorphic diag(1, 1, -1) takes its count (None here)
# from its plane stratum; a free involution, the impossible case, fixes
# nothing: count 0 against the predicted 2.
_INVOLUTIONS = (
    ("cp2-conjugation", -1, 1, True),
    ("cp2-holomorphic-split", 1, None, True),
    ("free-involution-hypothetical", 0, 0, False),
)


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


def _s4_fixed_set(d: int) -> tuple[str, int]:
    """Fixed set on the sphere of a rotation whose eigenvalue 1 has
    multiplicity d: the eigenspace meets the sphere in S^(d-1)."""
    if d == 0:
        return "empty", 0
    return f"S^{d - 1}", 2 if d % 2 else 0


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


def involution_catalog() -> list[dict]:
    """The involution trace identity on the projective plane, one record
    per catalog involution: its label, trace on H^2, fixed-set count,
    whether the identity should hold, whether chi(Fix) = 2 + trace does
    hold, and the self-intersection of the fixed surface.  With a
    definite intersection form the equivariant signature is the H^2
    trace, so the self-intersection is that trace, not recomputed."""
    holomorphic = np.linalg.eigvals(np.diag([1.0, 1.0, -1.0]))
    _, linear_euler = _CP2_FIXED_SETS[int(_cluster_count(holomorphic))]
    records = []
    for label, trace, euler, expected in _INVOLUTIONS:
        euler = linear_euler if euler is None else euler
        records.append({
            "label": label,
            "trace_h2": trace,
            "fix_euler": euler,
            "expected_pass": expected,
            "eq_pass": euler == 2 + trace,
            "derived_self_intersection": trace,
        })
    return records


def _sweep(mats: np.ndarray, invariant, fixed_set, lefschetz: int) -> dict:
    """Classify every matrix of a validated stack: ``invariant`` maps
    the stack's eigenvalues to the integers ``fixed_set`` turns into
    (label, Euler characteristic) strata, once per distinct integer.
    The strata are counted by label, in label order."""
    keys = invariant(np.linalg.eigvals(mats)).tolist()
    fixed = {key: fixed_set(key) for key in set(keys)}
    strata = dict(sorted((fixed[key][0], n) for key, n in Counter(keys).items()))
    failures = [i for i, key in enumerate(keys) if fixed[key][1] != lefschetz]
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
    _require_within(_unitary_drift(mats), CLUSTER_TOL,
                    f"matrix must be orthogonal within {_tolerance_text(CLUSTER_TOL)}")
    _require_within(np.max(np.abs(np.linalg.det(mats) - 1.0)), CLUSTER_TOL,
                    "matrix must have determinant +1")
    return _sweep(mats, _unit_multiplicity, _s4_fixed_set, _LEFSCHETZ_S4)


def lefschetz_sweep_cp2(mats) -> dict:
    """Fixed set against the Lefschetz number on every unitary of a
    stack (N, 3, 3): the count, the count per fixed-set stratum
    ('3 x point', 'CP^1 + point', 'CP^2') and the indices whose fixed set
    misses the Lefschetz number.

    Unitary (hence homologically trivial) actions have alternating
    trace sum 1 + 1 + 1 = 3 over the three even cohomology groups."""
    mats = _as_stack(mats, 3, np.complex128)
    _require_within(_unitary_drift(mats), CLUSTER_TOL,
                    f"matrix must be unitary within {_tolerance_text(CLUSTER_TOL)}")
    return _sweep(mats, _cluster_count, _CP2_FIXED_SETS.__getitem__, _LEFSCHETZ_CP2)
