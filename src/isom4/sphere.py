"""Round geometry of S^3 and its free cyclic quotients.

A quotient is described by a triple (n, k, l): the deck group is Z_n
acting by (z1, z2) -> (w^k z1, w^l z2) with w = exp(2*pi*i/n).  The
module provides exact-formula upper bounds and a seeded numerical
optimizer for lower bounds on the q-extent (the maximal average
pairwise distance among q points), plus the six-point angle budget that
turns the q = 5 bound into a fixed-point count.  The published values
(q = 5, pi/3, the sharp deck order 61, the budget's triangles,
angles and slack) and the optimizer's sweep budget and slack are module
constants, which verify-all's record texts print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InvalidInputError, InvalidParametersError, UnsupportedCaseError
from .groups import _integer_fields, _require_integers, _require_within

__all__ = [
    "SpherePoint",
    "LensParams",
    "ExtentConfig",
    "ExtentReport",
    "alpha_q",
    "extent_upper_bound",
    "extent_lower_bound",
    "canonicalize_lens",
    "canonical_exponents",
    "scan_extent",
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
# the optimizer's budget: a restart stops after MAX_SWEEPS sweeps or
# once its step falls below STEP_TOLERANCE
MAX_SWEEPS = 200
STEP_TOLERANCE = 1e-5
# the largest restarts x q^2 x max(n, SWEEP_DECK_FLOOR) of one optimizer
# run, n the deck order: one sweep scores 9 positions of each of the q
# points against the q - 1 others over the deck orbit, and the orbit
# kernel takes as long per call at n = 16 as at n = 96, so a deck order
# below the floor counts as the floor.  A larger product is refused
# before any array is built.  It bounds the run's size with it:
# - restarts <= MAX_SWEEP_WORK / (4 SWEEP_DECK_FLOOR) = 1024 and q <= 64;
# - the orbit screen, a (9 restarts (q - 1), n) float matrix, holds under
#   9 MAX_SWEEP_WORK / q <= 4.5 MAX_SWEEP_WORK floats (9.4 MB);
# - the ``drawn`` buffer, restarts x 16 x q x 8 x 4 floats, has
#   restarts q <= MAX_SWEEP_WORK / (q SWEEP_DECK_FLOOR) <= 2048, so at
#   most 2^20 floats (8 MiB).
# Along the edge (the most restarts the budget allows, q 2-64, n
# 1-65,536, seed 1) the slowest run measured is (restarts, q, n) =
# (1, 64, 64), 1.5-2.8 s and 39 MB on a 2-vCPU VM; no peak RSS passed 56 MB.
MAX_SWEEP_WORK = 2**18
SWEEP_DECK_FLOOR = 64
# how far an optimized lower bound may exceed the closed-form upper
# bound before verify-all's optimizer check reports FAIL
LOWER_BOUND_SLACK = 1e-9
# the six-point budget may exceed BUDGET_TRIANGLES x pi by this factor
BUDGET_SLACK = 1e-12
_UNIT_TOL = 1e-12


def _deck_order(n) -> int:
    """The one deck-order rule: n as an int, a non-integer or one above
    ``DECK_ORDER_CAP`` refused before anything of size n is built."""
    (n,) = _require_integers(n=n)
    if n > DECK_ORDER_CAP:
        raise InvalidParametersError(f"deck order capped at {DECK_ORDER_CAP}")
    return n


def _require_seed(seed: int) -> None:
    """The seed rule of ``ExtentConfig`` and ``verify.VerifyConfig``."""
    if not 0 <= seed < 2**64:
        raise InvalidParametersError("seed must fit in 64 unsigned bits")


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
        n, k, l = _integer_fields(self, "n", "k", "l")
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
        _deck_order(n)


@dataclass(frozen=True)
class ExtentConfig:
    """One optimizer run: tuple size q >= 2, restarts >= 1 and a 64-bit
    unsigned seed, integers all.  The sweep budget is ``MAX_SWEEPS`` and
    ``STEP_TOLERANCE``; the size of a run depends on the deck order too,
    so :func:`extent_lower_bound` alone refuses it (``MAX_SWEEP_WORK``)."""

    q: int
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        q, restarts, seed = _integer_fields(self, "q", "restarts", "seed")
        alpha_q(q)  # the one tuple-size rule, q >= 2
        if restarts < 1:
            raise InvalidParametersError("restarts must be positive")
        _require_seed(seed)


@dataclass(frozen=True)
class ExtentReport:
    lower_bound: float
    best_config: tuple[SpherePoint, ...]
    iterations_used: int

    def __post_init__(self):
        if not 0.0 <= self.lower_bound <= math.pi:
            raise InvalidInputError("lower bound outside [0, pi]")


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


def alpha_q(q: int) -> float:
    """Reference comparison angle pi / (2 (2 - 1/floor((q+1)/2))); q >= 2."""
    if q < 2:
        raise InvalidParametersError("tuple size q must be at least 2")
    half = (q + 1) // 2
    return math.pi / (2.0 * (2.0 - 1.0 / half))


def extent_upper_bound(n: int, q: int) -> float:
    """Closed-form upper bound for the q-extent of every quotient of deck
    order n: the value does not depend on the exponents (k, l).  n and q
    are refused as ``LensParams`` and ``ExtentConfig`` refuse them; the
    derivation covers n >= 3 only, so smaller n is unsupported."""
    n = _deck_order(n)
    (q,) = _require_integers(q=q)
    if n < 3:
        raise UnsupportedCaseError("closed-form bound requires deck order >= 3")
    a = alpha_q(q)
    c_small = math.cos(math.pi / math.sqrt(n))
    c_big = math.cos(math.pi / n)
    s_term = math.sqrt(n) * math.sin(math.pi / n) - math.sin(math.pi / math.sqrt(n))
    inner = math.cos(a) * c_small - 0.5 * math.sqrt(
        (c_small - c_big) ** 2 + (math.sin(a) * s_term) ** 2
    )
    return math.acos(max(-1.0, min(1.0, inner)))


def canonicalize_lens(n: int, k: int, l: int) -> LensParams:
    """Reduce raw exponents to the canonical window 0 < k <= l < n/2.

    Moves used, mirroring the allowed lens-space isometries: negating an
    exponent mod n conjugates the matching complex coordinate, and
    swapping the exponents swaps the coordinates.  Each of n, k and l
    must be an integer, as in ``LensParams``.
    """
    n, k, l = _require_integers(n=n, k=k, l=l)
    if n < 1:
        raise InvalidParametersError("deck order must be positive")
    k = k % n if n > 1 else 1
    l = l % n if n > 1 else 1
    if math.gcd(k, n) != 1 or math.gcd(l, n) != 1:
        raise InvalidParametersError("rotation exponents must be coprime to n")
    if n <= 2:
        return LensParams(n, 1, 1)
    k, l = min(k, n - k), min(l, n - l)
    return LensParams(n, min(k, l), max(k, l))


def canonical_exponents(n: int) -> list[int]:
    """The exponents 0 < k < n/2 coprime to n: the canonical quotients of
    deck order n >= 3 are the pairs k <= l of them.  A deck order that is
    no integer or above ``DECK_ORDER_CAP`` is refused before any list."""
    n = _deck_order(n)
    return [k for k in range(1, (n - 1) // 2 + 1) if math.gcd(k, n) == 1]


def scan_extent(n_min: int, n_max: int, q: int) -> list[tuple[int, float]]:
    """(n, bound) for every deck order n in [n_min, n_max]: every canonical
    quotient of deck order n carries the bound of n.  A range that starts
    below 3, is empty or ends above ``DECK_ORDER_CAP`` is refused before
    any bound is evaluated."""
    n_min, n_max = _require_integers(n_min=n_min, n_max=n_max)
    if n_min < 3:
        raise InvalidInputError("scan starts at deck order 3")
    if n_max < n_min:
        raise InvalidInputError("empty scan range")
    _deck_order(n_max)
    return [(n, extent_upper_bound(n, q)) for n in range(n_min, n_max + 1)]


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
        "contradiction": budget <= BUDGET_TRIANGLES * math.pi * (1.0 + BUDGET_SLACK),
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
    configuration is returned with it.  A run whose restarts x q^2 x
    max(n, ``SWEEP_DECK_FLOOR``) exceeds ``MAX_SWEEP_WORK`` is a
    ``BudgetError``, raised before the deck phases or any array is built.
    """
    q = cfg.q
    work = cfg.restarts * q * q * max(params.n, SWEEP_DECK_FLOOR)
    if work > MAX_SWEEP_WORK:
        raise BudgetError(f"restarts x q^2 x max(deck order, {SWEEP_DECK_FLOOR}) = {work} "
                          f"exceeds the budget {MAX_SWEEP_WORK}")
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
    return ExtentReport(
        lower_bound=min(means[best], math.pi),
        best_config=tuple(SpherePoint.from_array(row) for row in pts[best]),
        iterations_used=sweeps_total,
    )
