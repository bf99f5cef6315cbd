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

from .errors import InvalidInputError

__all__ = [
    "CLUSTER_TOL",
    "FixComponent",
    "FixedSetDescriptor",
    "InvolutionTraceData",
    "LinearSphereAction",
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


def _as_special_orthogonal_5(g) -> np.ndarray:
    mat = np.asarray(g, dtype=np.float64)
    if mat.shape != (5, 5):
        raise InvalidInputError("expected a 5x5 matrix")
    if np.max(np.abs(mat.T @ mat - np.eye(5))) > CLUSTER_TOL:
        raise InvalidInputError("matrix must be orthogonal within 1e-9")
    if abs(np.linalg.det(mat) - 1.0) > CLUSTER_TOL:
        raise InvalidInputError("matrix must have determinant +1")
    return mat


def _as_unitary_3(u) -> np.ndarray:
    mat = np.asarray(u, dtype=np.complex128)
    if mat.shape != (3, 3):
        raise InvalidInputError("expected a 3x3 matrix")
    if np.max(np.abs(mat.conj().T @ mat - np.eye(3))) > CLUSTER_TOL:
        raise InvalidInputError("matrix must be unitary within 1e-9")
    return mat


@dataclass(eq=False)
class LinearSphereAction:
    """A batch of special-orthogonal 5x5 matrices acting on the sphere."""

    matrices: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=np.float64)
        if mats.ndim == 2:
            mats = mats[None]
        if mats.ndim != 3 or mats.shape[1:] != (5, 5):
            raise InvalidInputError("expected one or more 5x5 matrices")
        for mat in mats:
            _as_special_orthogonal_5(mat)
        mats.setflags(write=False)
        self.matrices = mats

    @property
    def count(self) -> int:
        return int(self.matrices.shape[0])


def fixed_set_s4(g) -> FixedSetDescriptor:
    """Fixed set on the unit sphere: the eigenvalue-1 eigenspace of
    dimension d meets the sphere in S^(d-1).

    An orientation-preserving isometry of an odd-dimensional space has
    odd eigenvalue-1 multiplicity, so the fixed set is never empty and
    its sphere has even dimension."""
    mat = _as_special_orthogonal_5(g)
    eigvals = np.linalg.eigvals(mat)
    d = int(np.count_nonzero(np.abs(eigvals - 1.0) < CLUSTER_TOL))
    if d == 0:
        return FixedSetDescriptor(())
    sphere_dim = d - 1
    euler = 2 if sphere_dim % 2 == 0 else 0
    return FixedSetDescriptor((FixComponent(sphere_dim, euler, f"S^{sphere_dim}"),))


def lefschetz_check_s4(g) -> dict:
    """Trace prediction vs fixed-set count on the sphere.

    Orientation-preserving maps act trivially on top cohomology, so
    the alternating trace sum collapses to 1 + 1 = 2."""
    fix = fixed_set_s4(g)
    lefschetz = 2
    return {
        "lefschetz": lefschetz,
        "fix_euler": fix.euler_char,
        "pass": fix.euler_char == lefschetz,
    }


def fixed_set_cp2(u) -> FixedSetDescriptor:
    """Fixed set of a unitary on the projective plane, by eigenvalue
    multiplicity pattern: (1,1,1) gives three points, (2,1) a line and
    a point, (3) the whole plane.  Every pattern totals three."""
    mat = _as_unitary_3(u)
    eigvals = np.linalg.eigvals(mat)
    clusters: list[list[complex]] = []
    for lam in eigvals:
        for cluster in clusters:
            if abs(lam - cluster[0]) < CLUSTER_TOL:
                cluster.append(lam)
                break
        else:
            clusters.append([lam])
    pattern = tuple(sorted((len(c) for c in clusters), reverse=True))
    if pattern == (1, 1, 1):
        comps = tuple(FixComponent(0, 1, "point") for _ in range(3))
    elif pattern == (2, 1):
        comps = (FixComponent(2, 2, "CP^1"), FixComponent(0, 1, "point"))
    elif pattern == (3,):
        comps = (FixComponent(4, 3, "CP^2"),)
    else:
        raise InvalidInputError(f"unexpected eigenvalue pattern {pattern}")
    return FixedSetDescriptor(comps)


def lefschetz_check_cp2(u) -> dict:
    """Trace prediction vs fixed-set count on the projective plane.

    Unitary (hence homologically trivial) actions have alternating
    trace sum 1 + 1 + 1 = 3 over the three even cohomology groups."""
    fix = fixed_set_cp2(u)
    lefschetz = 3
    return {
        "lefschetz": lefschetz,
        "fix_euler": fix.euler_char,
        "pass": fix.euler_char == lefschetz,
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


def random_so5(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish rotation: QR of a Gaussian matrix with the R diagonal
    sign fixed, reflected into the determinant +1 component."""
    q, r = np.linalg.qr(rng.normal(size=(5, 5)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_u3(rng: np.random.Generator) -> np.ndarray:
    """Haar unitary: QR of a complex Gaussian with R diagonal phases
    divided out."""
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d.conjugate() / np.abs(d))


def batch_lefschetz_s4(count: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(count):
        record = lefschetz_check_s4(random_so5(rng))
        if not record["pass"]:
            failures.append(i)
    return {"count": count, "failures": failures, "all_pass": not failures}


def batch_lefschetz_cp2(count: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(count):
        record = lefschetz_check_cp2(random_u3(rng))
        if not record["pass"]:
            failures.append(i)
    return {"count": count, "failures": failures, "all_pass": not failures}
