import dataclasses
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isom4 import sphere
from isom4.errors import BudgetError, InvalidInputError, InvalidParametersError
from isom4.sphere import (
    ExtentConfig,
    LensParams,
    SpherePoint,
    alpha_q,
    canonicalize_lens,
    canonicalize_lens_with_map,
    deck_transform,
    extent_lower_bound,
    extent_upper_bound,
    isolated_fixed_point_budget,
    lens_distance,
    s3_distance,
    scan_extent,
    scan_extent_threshold,
)

# frozen high-precision evaluations of the closed-form bound at q = 5
BOUND_61 = 1.0455854008586938
BOUND_60 = 1.0472172441694827
BOUND_100 = 1.0066381742026296
BOUND_1000 = 0.9490897696266588

THRESHOLD = math.pi / 3.0


def unit_points(draw_seed):
    rng = np.random.default_rng(draw_seed)
    while True:
        vec = rng.normal(size=4)
        norm = np.linalg.norm(vec)
        if norm > 1e-3:
            return SpherePoint(tuple(vec / norm))


points = st.builds(unit_points, st.integers(min_value=0, max_value=2**32 - 1))


def lens_params(n, raw_k, raw_l):
    k = 1 + raw_k % (n - 1)
    l = 1 + raw_l % (n - 1)
    while math.gcd(k, n) != 1:
        k = 1 + (k % (n - 1))
    while math.gcd(l, n) != 1:
        l = 1 + (l % (n - 1))
    return canonicalize_lens(n, k, l)


params_st = st.builds(
    lens_params,
    st.integers(min_value=3, max_value=60),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def test_frozen_bounds():
    assert extent_upper_bound(LensParams(61, 1, 1), 5) == pytest.approx(BOUND_61, abs=1e-14)
    assert extent_upper_bound(LensParams(60, 1, 1), 5) == pytest.approx(BOUND_60, abs=1e-14)
    assert extent_upper_bound(LensParams(100, 1, 1), 5) == pytest.approx(BOUND_100, abs=1e-14)
    assert extent_upper_bound(LensParams(1000, 1, 1), 5) == pytest.approx(BOUND_1000, abs=1e-14)


def test_threshold_is_sharp_at_61():
    assert extent_upper_bound(LensParams(60, 1, 1), 5) >= THRESHOLD
    assert extent_upper_bound(LensParams(61, 1, 1), 5) < THRESHOLD


def test_alpha_5_reference_angle():
    assert alpha_q(5) == pytest.approx(3.0 * math.pi / 10.0, abs=1e-15)
    assert alpha_q(2) == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_bound_decreases_in_n():
    values = [extent_upper_bound(LensParams(n, 1, 1), 5) for n in range(3, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))


@given(params_st, points, points, points)
def test_triangle_inequality(params, p, q, r):
    d_pq = lens_distance(params, p, q)
    d_qr = lens_distance(params, q, r)
    d_pr = lens_distance(params, p, r)
    assert d_pr <= d_pq + d_qr + 1e-9


# acos turns 1e-16 rounding in a dot product into ~1.5e-8 of arc near
# distance 0, so arc-level identities get 1e-7 while exact claims stay
# at coordinate level
@given(params_st, points, points)
def test_distance_symmetric_nonnegative(params, p, q):
    d = lens_distance(params, p, q)
    assert 0.0 <= d <= math.pi + 1e-12
    assert d == pytest.approx(lens_distance(params, q, p), abs=1e-7)
    assert lens_distance(params, p, p) <= 1e-7


@given(params_st, points, st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
def test_deck_composition(params, p, i_raw, j_raw):
    i, j = i_raw % params.n, j_raw % params.n
    one = deck_transform(params, (i + j) % params.n, p)
    two = deck_transform(params, i, deck_transform(params, j, p))
    assert np.allclose(one.as_array(), two.as_array(), atol=1e-12)


@given(params_st, points, points, st.integers(min_value=0, max_value=10**6))
def test_distance_deck_invariant(params, p, q, j_raw):
    j = j_raw % params.n
    moved = deck_transform(params, j, q)
    assert lens_distance(params, p, q) == pytest.approx(
        lens_distance(params, p, moved), abs=1e-7)


@given(st.integers(min_value=3, max_value=50),
       st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6),
       points, points)
def test_canonicalization_preserves_distance(n, raw_k, raw_l, p, q):
    k = raw_k % n
    l = raw_l % n
    if k == 0 or l == 0 or math.gcd(k, n) != 1 or math.gcd(l, n) != 1:
        return
    canonical, iso = canonicalize_lens_with_map(n, k, l)
    # the raw presentation needs a params object that skips the window
    # check, so measure in the raw quotient through its phase orbit
    raw_d = min(
        s3_distance(p, SpherePoint((
            (q.z1 * complex(math.cos(2 * math.pi * j * k / n),
                            math.sin(2 * math.pi * j * k / n))).real,
            (q.z1 * complex(math.cos(2 * math.pi * j * k / n),
                            math.sin(2 * math.pi * j * k / n))).imag,
            (q.z2 * complex(math.cos(2 * math.pi * j * l / n),
                            math.sin(2 * math.pi * j * l / n))).real,
            (q.z2 * complex(math.cos(2 * math.pi * j * l / n),
                            math.sin(2 * math.pi * j * l / n))).imag,
        )))
        for j in range(n)
    )
    mapped = lens_distance(canonical, iso.apply(p), iso.apply(q))
    assert mapped == pytest.approx(raw_d, abs=1e-7)


def test_bound_is_kl_independent():
    for n in (7, 12, 61):
        values = {
            extent_upper_bound(params, 5)
            for params in (canonicalize_lens(n, k, l)
                           for k in range(1, n) for l in range(1, n)
                           if math.gcd(k, n) == 1 and math.gcd(l, n) == 1)
        }
        assert len(values) == 1


def test_scan_clean_above_61():
    rows = scan_extent(61, 80, 5, THRESHOLD)
    assert rows and all(r.passes for r in rows)
    assert scan_extent_threshold(61, 80, 5, THRESHOLD) == []


def test_scan_catches_60():
    bad = scan_extent_threshold(60, 61, 5, THRESHOLD)
    exps = [k for k in range(1, 30) if math.gcd(k, 60) == 1]
    canonical = [(60, k, l) for i, k in enumerate(exps) for l in exps[i:]]
    assert len(canonical) == 36
    assert [(r.n, r.k, r.l) for r in bad] == canonical


def test_scan_rejects_degenerate_ranges():
    with pytest.raises(InvalidInputError):
        scan_extent(2, 10, 5, THRESHOLD)
    with pytest.raises(InvalidInputError):
        scan_extent(10, 9, 5, THRESHOLD)


def test_scan_counts_rows_before_building_any(monkeypatch):
    # the rows grow as n_max^3: [3, 400] holds 1,152,548 and is admitted,
    # [3, 100000] is refused before a row is built
    built = []
    monkeypatch.setattr(sphere, "_rows_at", lambda n, *rest: built.append(n) or [])
    assert scan_extent(3, 400, 5, THRESHOLD) == []
    assert built == list(range(3, 401))
    built.clear()
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"\[3, 100000\] exceeds 1500000 rows"):
        scan_extent(3, 100000, 5, THRESHOLD)
    assert time.perf_counter() - start < 1.0
    assert built == []


def test_budget_contradiction_at_61():
    bound = extent_upper_bound(LensParams(61, 1, 1), 5)
    budget = isolated_fixed_point_budget(bound)
    assert budget["contradiction"] is True
    assert budget["six_point_budget"] == pytest.approx(60.0 * BOUND_61, rel=1e-12)


def test_budget_no_contradiction_for_large_bound():
    budget = isolated_fixed_point_budget(1.2)
    assert budget["contradiction"] is False


def test_budget_rejects_silly_bounds():
    with pytest.raises(InvalidInputError):
        isolated_fixed_point_budget(0.0)
    with pytest.raises(InvalidInputError):
        isolated_fixed_point_budget(math.pi)


def test_optimizer_respects_upper_bound():
    report = extent_lower_bound(LensParams(17, 2, 5),
                                ExtentConfig(q=5, restarts=8, seed=3))
    assert report.lower_bound <= report.upper_bound + 1e-9
    assert len(report.best_config) == 5


def test_optimizer_recovers_sphere_diameter():
    report = extent_lower_bound(LensParams(1, 1, 1), ExtentConfig(q=2, seed=0))
    assert report.lower_bound >= math.pi - 1e-3


# float.hex() of lower_bound and best_config, and iterations_used, as the
# optimizer gave them when it ran its restarts one after another; running
# them together must not move a bit
PINNED_OPTIMIZER = [
    ((17, 2, 5), dict(q=5, restarts=8, seed=3), "0x1.feee9b0f8e6b8p-1", 634, [
        ["-0x1.3debb0abb9806p-3", "-0x1.f9cb185b3316cp-1",
         "-0x1.7520b065efd26p-20", "0x1.178308be7e804p-19"],
        ["0x1.1205cbe850082p-20", "-0x1.61aadbd29a942p-21",
         "0x1.3d1e46730a2bbp-1", "0x1.91f85c3fb8444p-1"],
        ["-0x1.bc9b0eb3f8f69p-19", "-0x1.07979509e7d61p-19",
         "-0x1.e9fb9f4d2f257p-1", "0x1.290eaa79417bcp-2"],
        ["0x1.19298de5c285cp-19", "0x1.19b1703cc16c0p-21",
         "-0x1.5c97abe893e12p-2", "0x1.e16b6a580167ep-1"],
        ["-0x1.4dd67e3c13c2bp-1", "-0x1.84323968da2b1p-1",
         "0x1.db3ac38763bacp-20", "-0x1.cce0e721e1935p-20"],
    ]),
    ((9, 1, 2), dict(q=3, restarts=4, seed=11), "0x1.1cdb180e8949cp+0", 204, [
        ["-0x1.359c4afc8adeap-3", "0x1.680af1d43b055p-3",
         "0x1.b5f2a23508f1cp-1", "0x1.da5a50fa51066p-2"],
        ["-0x1.7f11ef4fddb72p-1", "-0x1.4b53f5e10630cp-1",
         "0x1.fa188a444093fp-4", "0x1.421890fca082bp-4"],
        ["0x1.1cffd34fb2ccbp-2", "-0x1.6c8dded960978p-2",
         "0x1.90f91c9864372p-1", "0x1.b56ad8995b83dp-2"],
    ]),
    ((1, 1, 1), dict(q=2, seed=0), "0x1.921f9d046d0bcp+1", 1123, [
        ["0x1.b657bb54051d1p-1", "-0x1.e95686a7d2fafp-2",
         "0x1.77531c48a1992p-3", "0x1.24063160320e2p-4"],
        ["-0x1.b657c8d54d3b7p-1", "0x1.e9566398b044bp-2",
         "-0x1.775258f65b436p-3", "-0x1.2408b815c550ep-4"],
    ]),
    ((73, 5, 22), dict(q=5, restarts=6, seed=7), "0x1.e9282b80dfaa5p-1", 374, [
        ["0x1.0ae62aa93f886p-19", "-0x1.efbacbee744e0p-20",
         "-0x1.770cc1a28585cp-1", "-0x1.5c8ac9de6fb7ep-1"],
        ["-0x1.95680b2c75a48p-6", "-0x1.ffd7de477ce0bp-1",
         "0x1.1accd755d81afp-21", "0x1.1fd9c107cbf51p-19"],
        ["-0x1.02c946c990ef3p-1", "-0x1.b9c8df552da7ap-1",
         "-0x1.65fe914bc1f7cp-23", "0x1.17c1d4ae30c3ep-18"],
        ["0x1.1ca48b8353444p-2", "-0x1.ebd25dab1c5bbp-1",
         "-0x1.5622776b969a3p-20", "-0x1.ba8d595620cf6p-19"],
        ["-0x1.9ba5f6fec8175p-20", "-0x1.b6e2b11f86058p-20",
         "-0x1.1c1d405b521a2p-8", "-0x1.fffec4aeaf3f1p-1"],
    ]),
    # a sweep cap not a multiple of the 16 sweeps drawn at once, every
    # restart running to the cap: the last draw is a short one
    ((11, 2, 3), dict(q=4, restarts=5, seed=3, MAX_SWEEPS=37, STEP_TOLERANCE=1e-7),
     "0x1.246cade78b761p+0", 185, [
        ["-0x1.8bfcd87410c7bp-14", "0x1.582032f84d3ddp-18",
         "-0x1.c6f830b5d492ep-1", "-0x1.d5aabc5d3a06ap-2"],
        ["0x1.3a750a75685e6p-14", "-0x1.f04cff4f4155ep-15",
         "0x1.ff72f4c48ac39p-2", "0x1.bb905e215693bp-1"],
        ["0x1.e71e9bc0508c6p-1", "0x1.3b54ee4fff797p-2",
         "0x1.607be00cf4771p-16", "0x1.027dd4a46c849p-15"],
        ["-0x1.ef062db58fd5bp-1", "0x1.057f1a3e00a3dp-2",
         "-0x1.ecd92caef9f78p-15", "0x1.c925c99d3c5c0p-15"],
    ]),
]


@pytest.mark.parametrize("nkl,cfg,lower,iterations,config", PINNED_OPTIMIZER,
                         ids=["17-2-5", "9-1-2", "1-1-1", "73-5-22", "11-2-3-short-draw"])
def test_optimizer_outputs_pinned(nkl, cfg, lower, iterations, config, monkeypatch):
    # upper-case keys set the sweep budget, a module constant
    for name, value in cfg.items():
        if name.isupper():
            monkeypatch.setattr(sphere, name, value)
    params = LensParams(*nkl)
    cfg = ExtentConfig(**{name: value for name, value in cfg.items() if not name.isupper()})
    report = extent_lower_bound(params, cfg)
    assert report.lower_bound.hex() == lower
    assert report.iterations_used == iterations
    assert [[x.hex() for x in p.coords] for p in report.best_config] == config
    # the same seed gives the same report
    assert extent_lower_bound(params, cfg).to_json() == report.to_json()


def complex_orbit_max(phases, a, b):
    """The orbit kernel as a plain formula: the real part of the complex
    sum of the two phase products over every deck element, then the max."""
    w1, w2, _ = phases
    pair1 = np.conj(a[..., 0] + 1j * a[..., 1]) * (b[..., 0] + 1j * b[..., 1])
    pair2 = np.conj(a[..., 2] + 1j * a[..., 3]) * (b[..., 2] + 1j * b[..., 3])
    return (pair1[..., None] * w1 + pair2[..., None] * w2).real.max(axis=-1)


def test_orbit_dots_keeps_the_complex_sum():
    # the optimizer's broadcast shape: trial points against the others
    rng = np.random.default_rng(2)
    phases = sphere._deck_phases(LensParams(37, 5, 11))
    a = rng.standard_normal((3, 9, 1, 4))
    b = rng.standard_normal((3, 1, 4, 4))
    dots = sphere._orbit_dots(phases, a, b)
    assert dots.shape == (3, 9, 4)
    assert np.array_equal(dots, complex_orbit_max(phases, a, b))


def unit_rows(seed, count, scale):
    rows = np.random.default_rng(seed).standard_normal((count, 4))
    return scale * rows / np.linalg.norm(rows, axis=1, keepdims=True)


AXES = np.vstack([np.eye(4), -np.eye(4)])
small_lenses = st.sampled_from([LensParams(1, 1, 1), LensParams(2, 1, 1)])
# (n, 1, 1) lenses, whose deck orbits of axis points hold exact ties
axis_lenses = st.integers(min_value=3, max_value=60).map(lambda n: LensParams(n, 1, 1))
random_pairs = st.tuples(st.integers(min_value=0, max_value=2**32 - 1),
                         st.integers(min_value=1, max_value=40),
                         st.sampled_from([1.0, 1e-150, 1e150]))
axis_pairs = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                      min_size=1, max_size=64)
half_steps = st.tuples(st.integers(min_value=0, max_value=2**32 - 1),
                       st.integers(min_value=1, max_value=64))


def half_step_points(n, seed, count):
    """Pairs of points exp(i pi r / n) on one circle, z1 or z2, of S^3:
    their dots with neighbouring deck images tie but for rounding."""
    rng = np.random.default_rng(seed)
    angles = math.pi * rng.integers(0, 2 * n, size=(2, count)) / n
    circle = 2 * rng.integers(0, 2, size=count)
    points = np.zeros((2, count, 4))
    rows = np.arange(count)
    points[:, rows, circle] = np.cos(angles)
    points[:, rows, circle + 1] = np.sin(angles)
    return points


def assert_orbit_dots_bitwise(params, a, b):
    phases = sphere._deck_phases(params)
    got = sphere._orbit_dots(phases, a, b)
    want = complex_orbit_max(phases, a, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# the screen only chooses where to evaluate the complex formula, so the
# kernel returns the formula's max bit for bit: on random points of any
# scale, on the tiny lenses, on the exact ties of axis points, where rows
# must take the full-orbit fallback, and on the near ties of half-step
# points, where the screen and the formula may order two j differently
def test_orbit_dots_is_the_complex_max_bitwise(monkeypatch):
    fallback_rows = []
    complex_dots = sphere._complex_dots

    def counting(pair1, pair2, w1, w2):
        if np.ndim(pair1) == 2:  # the fallback: every row against every phase
            fallback_rows.append(len(pair1))
        return complex_dots(pair1, pair2, w1, w2)

    monkeypatch.setattr(sphere, "_complex_dots", counting)

    @given(st.one_of(small_lenses, params_st), random_pairs)
    def on_random_points(params, draw):
        seed, count, scale = draw
        assert_orbit_dots_bitwise(params, unit_rows(seed, count, scale),
                                  unit_rows(seed + 1, count, 1.0))

    @given(st.one_of(small_lenses, axis_lenses), axis_pairs)
    def on_axis_points(params, pairs):
        i, j = np.array(pairs).T
        assert_orbit_dots_bitwise(params, AXES[i], AXES[j])

    @given(st.one_of(small_lenses, axis_lenses), half_steps)
    def on_half_steps(params, draw):
        a, b = half_step_points(params.n, *draw)
        assert_orbit_dots_bitwise(params, a, b)

    on_random_points()
    on_axis_points()
    on_half_steps()
    assert sum(fallback_rows) > 0


# allocating the multi-MB temporaries afresh on every orbit-kernel call
# cost 237,815 minor faults on this optimizer call; the complex kernel
# with reused buffers took about 1,100, the screened kernel about 420
OPTIMIZER_FAULT_BOUND = 8_000


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor faults on Linux")
def test_optimizer_does_not_refault_its_buffers():
    resource = pytest.importorskip("resource")
    extent_lower_bound(LensParams(10, 1, 3), ExtentConfig(q=5, restarts=2, seed=0))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    extent_lower_bound(LensParams(96, 17, 25), ExtentConfig(q=5, restarts=32, seed=7))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < OPTIMIZER_FAULT_BOUND


restart_pairs = st.integers(min_value=1, max_value=5).flatmap(
    lambda r1: st.tuples(st.just(r1), st.integers(min_value=r1 + 1, max_value=6)))


# restart r reads only its own stream default_rng([seed, r]), so adding
# restarts can neither lower the best mean nor cut the sweeps of the
# restarts already there
@settings(max_examples=15)
@given(params_st, st.sampled_from([2, 3, 5]), restart_pairs,
       st.integers(min_value=0, max_value=2**32 - 1))
def test_restarts_are_independent(params, q, restarts, seed):
    r1, r2 = restarts
    fewer = extent_lower_bound(params, ExtentConfig(q=q, restarts=r1, seed=seed))
    more = extent_lower_bound(params, ExtentConfig(q=q, restarts=r2, seed=seed))
    assert more.lower_bound >= fewer.lower_bound
    assert more.iterations_used >= fewer.iterations_used
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sphere, "MAX_SWEEPS", 1)
        one_sweep = extent_lower_bound(params, ExtentConfig(q=q, restarts=r2, seed=seed))
    assert one_sweep.iterations_used == r2


def test_extent_config_holds_one_run():
    # the sweep budget is sphere.MAX_SWEEPS and sphere.STEP_TOLERANCE
    assert [f.name for f in dataclasses.fields(ExtentConfig)] == ["q", "restarts", "seed"]
    for bad in (dict(q=1), dict(q=5, restarts=0), dict(q=5, seed=-1), dict(q=5, seed=2**64)):
        with pytest.raises(InvalidParametersError):
            ExtentConfig(**bad)


def test_non_canonical_params_refused():
    with pytest.raises(InvalidParametersError):
        LensParams(10, 3, 1)  # k > l
    with pytest.raises(InvalidParametersError):
        LensParams(10, 1, 7)  # l >= n/2
    with pytest.raises(InvalidParametersError):
        LensParams(10, 2, 3)  # gcd(k, n) > 1
    with pytest.raises(InvalidParametersError):
        LensParams(2, 1, 2)


def test_canonicalize_maps_into_window():
    params = canonicalize_lens(10, 9, 7)
    assert (params.n, params.k, params.l) == (10, 1, 3)
    for n in range(3, 40):
        for k in range(1, n):
            if math.gcd(k, n) != 1:
                continue
            p = canonicalize_lens(n, k, k)
            assert 0 < p.k <= p.l and 2 * p.l < p.n


def test_sphere_point_validation():
    with pytest.raises(InvalidInputError):
        SpherePoint((1.0, 1.0, 0.0, 0.0))
    with pytest.raises(InvalidInputError):
        SpherePoint((1.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(4))
def test_sphere_point_refuses_non_finite(bad, position):
    coords = [1.0, 0.0, 0.0, 0.0]
    coords[position] = bad
    with pytest.raises(InvalidInputError, match="not finite"):
        SpherePoint(tuple(coords))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_inputs_refuse_non_finite(bad):
    with pytest.raises(InvalidInputError):
        scan_extent(61, 62, 5, bad)
    with pytest.raises(InvalidInputError):
        scan_extent_threshold(61, 62, 5, bad)
    with pytest.raises(InvalidInputError):
        isolated_fixed_point_budget(bad)
