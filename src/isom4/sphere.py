"""Round geometry of S^3 and its free cyclic quotients.

A quotient is described by a triple (n, k, l): the deck group is Z_n
acting by (z1, z2) -> (w^k z1, w^l z2) with w = exp(2*pi*i/n).  The
module provides exact-formula upper bounds and a seeded numerical
optimizer for lower bounds on the q-extent (the maximal average
pairwise distance among q points), plus the six-point angle budget that
turns the q = 5 bound into a fixed-point count.  The published values
(q = 5, pi/3, the sharp deck order 61, the budget's triangles and
angles) and the optimizer's sweep budget and slack are module
constants, which verify-all's record texts print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InvalidInputError, InvalidParametersError, UnsupportedCaseError
from .groups import _require_within

__all__ = [
    "SpherePoint",
    "LensParams",
    "ExtentConfig",
    "ExtentReport",
    "CanonicalMap",
    "s3_distance",
    "deck_transform",
    "lens_distance",
    "alpha_q",
    "extent_upper_bound",
    "extent_lower_bound",
    "canonicalize_lens",
    "canonicalize_lens_with_map",
    "scan_extent",
    "scan_extent_threshold",
    "isolated_fixed_point_budget",
    "EXTENT_Q",
    "EXTENT_THRESHOLD",
    "EXTENT_SHARP_N",
]

DECK_ORDER_CAP = 10**5
# the published extent statement: the 5-point bound of a quotient of
# deck order n >= 61 lies strictly below pi/3, and not at n = 60
EXTENT_Q = 5
EXTENT_THRESHOLD = math.pi / 3.0
EXTENT_SHARP_N = 61
# six isolated fixed points span twenty geodesic triangles, sixty angles
BUDGET_TRIANGLES = 20
BUDGET_ANGLES = 3 * BUDGET_TRIANGLES
# rows one scan_extent call may build; [3, 400] holds 1,152,548
SCAN_ROW_CAP = 1_500_000
# the optimizer's budget: a restart stops after MAX_SWEEPS sweeps or
# once its step falls below STEP_TOLERANCE
MAX_SWEEPS = 200
STEP_TOLERANCE = 1e-5
# how far an optimized lower bound may exceed the closed-form upper
# bound before a report is refused
LOWER_BOUND_SLACK = 1e-9
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class SpherePoint:
    """Point of the unit 3-sphere, stored as four real coordinates.

    The pairs (coords[0], coords[1]) and (coords[2], coords[3]) are the
    real and imaginary parts of the two complex coordinates.
    """

    coords: tuple[float, float, float, float]

    def __post_init__(self):
        c = tuple(float(x) for x in self.coords)
        if len(c) != 4:
            raise InvalidInputError("a sphere point needs exactly 4 coordinates")
        _require_within(abs(math.sqrt(sum(x * x for x in c)) - 1.0), _UNIT_TOL,
                        "sphere point is not unit length")
        object.__setattr__(self, "coords", c)

    @staticmethod
    def from_array(arr) -> "SpherePoint":
        return SpherePoint(tuple(float(x) for x in arr))

    def as_array(self) -> np.ndarray:
        return np.array(self.coords)

    @property
    def z1(self) -> complex:
        return complex(self.coords[0], self.coords[1])

    @property
    def z2(self) -> complex:
        return complex(self.coords[2], self.coords[3])

    def to_json(self) -> list[float]:
        return list(self.coords)


@dataclass(frozen=True)
class LensParams:
    """Canonical parameters (n, k, l) of a free cyclic quotient of S^3.

    For n >= 3 the constructor insists on the canonical window
    0 < k <= l < n/2; use :func:`canonicalize_lens` first for raw
    exponents.  n = 1 is the sphere itself and n = 2 the half-turn
    quotient, both stored as k = l = 1.
    """

    n: int
    k: int
    l: int

    def __post_init__(self):
        n, k, l = int(self.n), int(self.k), int(self.l)
        if n < 1 or k < 1 or l < 1:
            raise InvalidParametersError("lens parameters must be positive")
        if math.gcd(k, n) != 1 or math.gcd(l, n) != 1:
            raise InvalidParametersError("rotation exponents must be coprime to n")
        if n <= 2:
            if (k, l) != (1, 1):
                raise InvalidParametersError(f"n = {n} requires k = l = 1")
        elif not (0 < k <= l and 2 * l < n):
            raise InvalidParametersError(
                f"(n,k,l)=({n},{k},{l}) is not canonical: need 0 < k <= l < n/2"
            )
        if n > DECK_ORDER_CAP:
            raise InvalidParametersError(f"deck order capped at {DECK_ORDER_CAP}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "l": self.l}


@dataclass(frozen=True)
class ExtentConfig:
    """One optimizer run: tuple size, restarts and seed; the sweep budget
    is ``MAX_SWEEPS`` and ``STEP_TOLERANCE``."""

    q: int
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.q < 2:
            raise InvalidParametersError("tuple size q must be at least 2")
        if self.restarts < 1:
            raise InvalidParametersError("restarts must be positive")
        if not 0 <= self.seed < 2**64:
            raise InvalidParametersError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class ExtentReport:
    params: LensParams
    q: int
    upper_bound: float
    lower_bound: float
    best_config: tuple[SpherePoint, ...]
    iterations_used: int

    def __post_init__(self):
        if self.lower_bound > self.upper_bound + LOWER_BOUND_SLACK:
            raise InvalidInputError("lower bound exceeds upper bound")
        if not 0.0 <= self.lower_bound <= math.pi:
            raise InvalidInputError("lower bound outside [0, pi]")
        if len(self.best_config) != self.q:
            raise InvalidInputError("best_config must hold q points")

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "q": self.q,
            "upper_bound": self.upper_bound,
            "lower_bound": self.lower_bound,
            "best_config": [p.to_json() for p in self.best_config],
            "iterations_used": self.iterations_used,
        }


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


def s3_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Geodesic distance on the round unit 3-sphere."""
    dot = sum(a * b for a, b in zip(p.coords, q.coords))
    return math.acos(max(-1.0, min(1.0, dot)))


def deck_transform(params: LensParams, j: int, p: SpherePoint) -> SpherePoint:
    """Apply the j-th deck rotation to a point of S^3."""
    if not 0 <= j < params.n:
        raise InvalidInputError(f"deck index {j} outside [0, {params.n})")
    a1 = 2.0 * math.pi * j * params.k / params.n
    a2 = 2.0 * math.pi * j * params.l / params.n
    z1 = p.z1 * complex(math.cos(a1), math.sin(a1))
    z2 = p.z2 * complex(math.cos(a2), math.sin(a2))
    return SpherePoint((z1.real, z1.imag, z2.real, z2.imag))


def _deck_phases(params: LensParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rotation phases (w1^j, w2^j) of the n deck transformations and
    their (4, n) real table [Re w1; -Im w1; Re w2; -Im w2]; callers
    compute them once and pass them to :func:`_orbit_dots`."""
    js = np.arange(params.n)
    w1 = np.exp(2j * np.pi * params.k * js / params.n)
    w2 = np.exp(2j * np.pi * params.l * js / params.n)
    return w1, w2, np.stack([w1.real, -w1.imag, w2.real, -w2.imag])


# forward-error constant gamma_4 = 4u / (1 - 4u) of a 4-term real dot
# product in any order, with or without fused multiply-adds (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1)
_GAMMA_4 = 4 * 2.0**-53 / (1 - 4 * 2.0**-53)
# 2 (delta_screen + delta_ref) <= 4 gamma_4 |x|_1 plus 16 half-subnormals
# of underflow; doubled to absorb the rounding of the window and the gap
_WINDOW_PER_NORM = 2 * 4 * _GAMMA_4
_WINDOW_FLOOR = 2 * 16 * 2.0**-1075


def _complex_dots(pair1, pair2, w1, w2) -> np.ndarray:
    """<a, g_j b> = Re(P1 w1^j) + Re(P2 w2^j) for the phases w1, w2 given:
    the one arithmetic definition of the orbit dots."""
    return (pair1 * w1).real + (pair2 * w2).real


def _orbit_dots(phases: tuple[np.ndarray, np.ndarray, np.ndarray], a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Max over the deck orbit of <a, g_j b>, vectorized over leading axes.

    phases: :func:`_deck_phases` of the quotient; a, b: real arrays
    (..., 4) of points, not necessarily unit but far from overflow
    (|x|_1 below about 2^1000).  The value is the complex formula
    max_j Re(P1 w1^j) + Re(P2 w2^j) with P1 = conj(az1) bz1 and
    P2 = conj(az2) bz2, bit for bit, but it is evaluated at one j per
    row:

    - screen: the same sum is the real product x . T[:, j] with
      x = (Re P1, Im P1, Re P2, Im P2) and T the phase table, so one
      GEMM (rows, 4) @ (4, n) scores every j; its argmax is j1 and a
      second argmax with j1 masked is the runner-up;
    - window: the screen and the complex formula are both 4-term dot
      products of x with a column of T, whose entries are at most 1, so
      each lies within delta <= gamma_4 |x|_1 of the exact sum.  If the
      runner-up trails the screened max by more than
      W >= 2 (delta_screen + delta_ref), every other j has a smaller
      complex value than j1, and the formula at j1 is the max;
    - fallback: rows within W of a tie take the formula over every j
      and its max; so do rows with non-finite input, whose gap or
      window is NaN or inf.
    """
    w1, w2, table = phases
    # (z1, z2) of each point, formed as x + 1j * y: a complex view of
    # the coordinates would flip the sign of zero imaginary parts
    az = a[..., 0::2] + 1j * a[..., 1::2]
    bz = b[..., 0::2] + 1j * b[..., 1::2]
    # <a, g_j b> = Re(conj(az1) bz1 w1^j) + Re(conj(az2) bz2 w2^j)
    pairs = np.conj(az) * bz
    shape = pairs.shape[:-1]
    pairs = pairs.reshape(-1, 2)
    pair1, pair2 = pairs[:, 0], pairs[:, 1]
    # rows of (Re P1, Im P1, Re P2, Im P2)
    x = pairs.view(np.float64)
    screen = x @ table
    rows = np.arange(len(x))
    j1 = screen.argmax(axis=1)
    top = screen[rows, j1]
    screen[rows, j1] = -np.inf
    runner_up = screen[rows, screen.argmax(axis=1)]
    # |x|_1 as a product with ones: 3x faster than a sum over 4 columns
    window = _WINDOW_PER_NORM * (np.abs(x) @ np.ones(4)) + _WINDOW_FLOOR
    dots = _complex_dots(pair1, pair2, w1[j1], w2[j1])
    tie = ~(top - runner_up > window)
    if tie.any():
        dots[tie] = _complex_dots(pair1[tie, None], pair2[tie, None], w1, w2).max(axis=1)
    return dots.reshape(shape)


def lens_distance(params: LensParams, p: SpherePoint, q: SpherePoint) -> float:
    """Quotient distance: min over the deck orbit of q of the S^3 distance."""
    best = _orbit_dots(_deck_phases(params), p.as_array(), q.as_array())
    return math.acos(max(-1.0, min(1.0, float(best))))


def alpha_q(q: int) -> float:
    """Reference comparison angle pi / (2 (2 - 1/floor((q+1)/2)))."""
    if q < 2:
        raise InvalidInputError("tuple size q must be at least 2")
    half = (q + 1) // 2
    return math.pi / (2.0 * (2.0 - 1.0 / half))


def extent_upper_bound(params: LensParams, q: int) -> float:
    """Closed-form upper bound for the q-extent of the quotient.

    The value depends only on (n, q); the full parameter triple is taken
    for interface uniformity.  Only the canonical range n >= 3 is
    covered by the derivation, so smaller n is refused.
    """
    if params.n < 3:
        raise UnsupportedCaseError("closed-form bound requires deck order >= 3")
    if q < 2:
        raise InvalidInputError("tuple size q must be at least 2")
    n = params.n
    a = alpha_q(q)
    c_small = math.cos(math.pi / math.sqrt(n))
    c_big = math.cos(math.pi / n)
    s_term = math.sqrt(n) * math.sin(math.pi / n) - math.sin(math.pi / math.sqrt(n))
    inner = math.cos(a) * c_small - 0.5 * math.sqrt(
        (c_small - c_big) ** 2 + (math.sin(a) * s_term) ** 2
    )
    return math.acos(max(-1.0, min(1.0, inner)))


def canonicalize_lens(n: int, k: int, l: int) -> LensParams:
    """Reduce raw exponents to the canonical window 0 < k <= l < n/2."""
    return canonicalize_lens_with_map(n, k, l)[0]


def canonicalize_lens_with_map(n: int, k: int, l: int) -> tuple[LensParams, CanonicalMap]:
    """Canonicalize and also return the sphere isometry realizing it.

    Moves used, mirroring the allowed lens-space isometries: negating an
    exponent mod n conjugates the matching complex coordinate, and
    swapping the exponents swaps the coordinates.
    """
    n = int(n)
    if n < 1:
        raise InvalidParametersError("deck order must be positive")
    k = int(k) % n if n > 1 else 1
    l = int(l) % n if n > 1 else 1
    if math.gcd(k, n) != 1 or math.gcd(l, n) != 1:
        raise InvalidInputError("rotation exponents must be coprime to n")
    if n <= 2:
        return LensParams(n, 1, 1), CanonicalMap(False, False, False)
    conj1 = 2 * k > n
    if conj1:
        k = n - k
    conj2 = 2 * l > n
    if conj2:
        l = n - l
    swap = k > l
    if swap:
        k, l = l, k
    return LensParams(n, k, l), CanonicalMap(conj1, conj2, swap)


def _canonical_exponents(n: int) -> list[int]:
    return [k for k in range(1, (n - 1) // 2 + 1) if math.gcd(k, n) == 1]


@dataclass(frozen=True)
class ScanEntry:
    n: int
    k: int
    l: int
    q: int
    upper_bound: float
    threshold: float

    @property
    def passes(self) -> bool:
        return self.upper_bound < self.threshold

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "l": self.l, "q": self.q,
                "upper_bound": self.upper_bound, "threshold": self.threshold,
                "pass": self.passes}


def _require_scan_range(n_min: int, n_max: int, threshold: float) -> None:
    if not math.isfinite(threshold):
        raise InvalidInputError("scan threshold must be finite")
    if n_min < 3:
        raise InvalidInputError("scan starts at deck order 3")
    if n_max < n_min:
        raise InvalidInputError("empty scan range")


def _bounds_by_n(n_min: int, n_max: int, q: int) -> list[tuple[int, float]]:
    # the bound depends only on (n, q): one evaluation per deck order
    return [(n, extent_upper_bound(LensParams(n, 1, 1), q))
            for n in range(n_min, n_max + 1)]


def _rows_at(n: int, q: int, value: float, threshold: float) -> list[ScanEntry]:
    exps = _canonical_exponents(n)
    return [ScanEntry(n, k, l, q, value, threshold)
            for i, k in enumerate(exps) for l in exps[i:]]


def scan_extent(n_min: int, n_max: int, q: int, threshold: float) -> list[ScanEntry]:
    """Evaluate the closed-form bound on every canonical quotient in range.

    The rows are counted first, c(c+1)/2 for c canonical exponents at
    each deck order, and a range of more than ``SCAN_ROW_CAP`` rows is
    refused before any is built: the count grows as n_max^3."""
    _require_scan_range(n_min, n_max, threshold)
    rows = 0
    for n in range(n_min, n_max + 1):
        c = len(_canonical_exponents(n))
        rows += c * (c + 1) // 2
        if rows > SCAN_ROW_CAP:
            raise BudgetError(f"scan of deck orders [{n_min}, {n_max}] exceeds "
                              f"{SCAN_ROW_CAP} rows")
    return [row for n, value in _bounds_by_n(n_min, n_max, q)
            for row in _rows_at(n, q, value, threshold)]


def scan_extent_threshold(n_min: int, n_max: int, q: int, threshold: float) -> list[ScanEntry]:
    """Entries of :func:`scan_extent` at or above the threshold.

    An empty return certifies the bound on the whole range.
    """
    _require_scan_range(n_min, n_max, threshold)
    return [row for n, value in _bounds_by_n(n_min, n_max, q)
            if not value < threshold
            for row in _rows_at(n, q, value, threshold)]


def isolated_fixed_point_budget(extent_bound: float) -> dict:
    """Angle budget of six isolated fixed points versus twenty triangles.

    Six points span 20 triangles whose total angle sum exceeds 20*pi in
    positive curvature, while each of the 60 angles is at most the
    5-extent bound.  The configuration is contradictory, certifying at
    most five such points, exactly when 60 * bound <= 20*pi.
    """
    if not 0.0 < extent_bound < math.pi:
        raise InvalidInputError("extent bound must lie in (0, pi)")
    budget = BUDGET_ANGLES * extent_bound
    return {
        "six_point_budget": budget,
        "contradiction": budget <= BUDGET_TRIANGLES * math.pi * (1.0 + 1e-12),
    }


def _pairwise_mean(phases, pts: np.ndarray) -> float:
    q = pts.shape[0]
    iu, ju = np.triu_indices(q, k=1)
    dots = _orbit_dots(phases, pts[iu], pts[ju])
    return float(np.arccos(np.clip(dots, -1.0, 1.0)).mean())


_DIRECTIONS_PER_STEP = 8
_SWEEPS_PER_DRAW = 16
_IMPROVEMENT_EPS = 1e-12
_INITIAL_STEP = 0.5


def extent_lower_bound(params: LensParams, cfg: ExtentConfig) -> ExtentReport:
    """Seeded multi-start ascent on the mean pairwise quotient distance.

    Restart r draws a fresh q-tuple from its own ``default_rng([seed, r])``
    stream, then repeatedly sweeps the points; a sweep proposes 8 random
    tangent directions per point at the restart's step size and keeps
    the best strict improvement.  The step halves after a sweep with no
    improvement, and the restart stops once it drops below
    ``STEP_TOLERANCE`` or after ``MAX_SWEEPS`` sweeps.  All restarts
    advance together as one (R, q, 4) array, each with its own stream,
    step and stopping rule, so the result is the one restarts run one
    after another would give.  Reported value is the best mean over all
    restarts; it is a certified lower bound because the achieving
    configuration is returned with it.
    """
    q = cfg.q
    phases = _deck_phases(params)
    rngs = [np.random.default_rng([cfg.seed, r]) for r in range(cfg.restarts)]
    pts = np.stack([rng.standard_normal((q, 4)) for rng in rngs])
    pts /= np.linalg.norm(pts, axis=2, keepdims=True)
    steps = np.full(cfg.restarts, _INITIAL_STEP)
    # others[i]: the indices of every point but i
    others = np.array([[j for j in range(q) if j != i] for i in range(q)])
    drawn = np.empty((cfg.restarts, min(_SWEEPS_PER_DRAW, MAX_SWEEPS), q,
                      _DIRECTIONS_PER_STEP, 4))
    sweeps_total = 0
    for sweep in range(MAX_SWEEPS):
        active = np.flatnonzero(steps >= STEP_TOLERANCE)
        if active.size == 0:
            break
        sweeps_total += active.size
        cur = pts[active]
        # a sweep moves point i only at step i, so every candidate of the
        # sweep can be drawn and placed from the points it starts with;
        # each restart draws from its own stream in the order a
        # point-by-point loop would.  Every active restart is at the
        # same sweep, and one draw of k sweeps equals k draws of one,
        # so the directions come _SWEEPS_PER_DRAW sweeps at a time; a
        # restart that stops early leaves the rest of its last draw
        # unused, and nothing else reads its stream
        if sweep % _SWEEPS_PER_DRAW == 0:
            k = min(_SWEEPS_PER_DRAW, MAX_SWEEPS - sweep)
            for r in active:
                rngs[r].standard_normal(out=drawn[r, :k])
        dirs = drawn[active, sweep % _SWEEPS_PER_DRAW]
        dirs -= (dirs @ cur[..., None]) * cur[:, :, None, :]
        norms = np.linalg.norm(dirs, axis=3, keepdims=True)
        dirs /= np.where(norms < 1e-12, 1.0, norms)
        # math.cos/sin per restart: numpy's vectorized ones need not
        # round the same on every platform, and the outputs are pinned
        cos_s = np.array([math.cos(s) for s in steps[active]])[:, None, None, None]
        sin_s = np.array([math.sin(s) for s in steps[active]])[:, None, None, None]
        cand = cos_s * cur[:, :, None, :] + sin_s * dirs
        cand /= np.linalg.norm(cand, axis=3, keepdims=True)
        # trial[:, i, 0] is point i itself, trial[:, i, 1:] its candidates
        trial = np.concatenate([cur[:, :, None, :], cand], axis=2)
        rows = np.arange(active.size)
        improved = np.zeros(active.size, dtype=bool)
        for i in range(q):
            rest = cur[:, others[i]]
            dots = _orbit_dots(phases, trial[:, i, :, None, :], rest[:, None, :, :])
            vals = np.arccos(np.clip(dots, -1.0, 1.0)).sum(axis=2)
            j = np.argmax(vals[:, 1:], axis=1) + 1
            up = vals[rows, j] > vals[:, 0] + _IMPROVEMENT_EPS
            cur[up, i] = trial[up, i, j[up]]
            improved |= up
        pts[active] = cur
        steps[active[~improved]] *= 0.5
    # scored one restart at a time: a batched mean sums the pairs in
    # another order and moves the last bit
    means = [_pairwise_mean(phases, p) for p in pts]
    best = int(np.argmax(means))
    if params.n >= 3:
        upper = extent_upper_bound(params, q)
    else:
        upper = math.pi  # diameter bound; the closed form needs n >= 3
    config = tuple(SpherePoint.from_array(row) for row in pts[best])
    return ExtentReport(
        params=params,
        q=q,
        upper_bound=upper,
        lower_bound=min(means[best], math.pi),
        best_config=config,
        iterations_used=sweeps_total,
    )
