import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isom4 import fixedpoints
from isom4.errors import InvalidInputError
from isom4.fixedpoints import involution_catalog, lefschetz_sweep_cp2, lefschetz_sweep_s4


def rot2(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def random_so5(rng):
    """A random rotation: QR of a Gaussian matrix, reflected into SO(5)."""
    q, r = np.linalg.qr(rng.normal(size=(5, 5)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_u3(rng):
    """A random unitary: QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    d = np.diag(r)
    return q * (d.conjugate() / np.abs(d))


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


def sweep_one_s4(g):
    """The sphere sweep of one rotation, a stack of one: its stratum
    names the fixed sphere, and an empty failure list says the fixed
    set's Euler characteristic is the Lefschetz number 2."""
    return lefschetz_sweep_s4(np.asarray(g)[None])


def sweep_one_cp2(u):
    """The plane sweep of one unitary, a stack of one: its stratum names
    the fixed set, and an empty failure list says the fixed set's Euler
    characteristic is the Lefschetz number 3."""
    return lefschetz_sweep_cp2(np.asarray(u)[None])


# --- sphere side -------------------------------------------------------------


def test_identity_fixes_whole_sphere():
    assert sweep_one_s4(np.eye(5)) == {"count": 1, "strata": {"S^4": 1}, "failures": []}


def test_two_rotation_blocks_fix_two_points():
    g = block_diag(rot2(0.7), rot2(1.3), np.eye(1))
    assert sweep_one_s4(g) == {"count": 1, "strata": {"S^0": 1}, "failures": []}


def test_single_rotation_block_fixes_2sphere():
    g = block_diag(rot2(0.4), np.eye(3))
    assert sweep_one_s4(g) == {"count": 1, "strata": {"S^2": 1}, "failures": []}


def test_eigenvalue_near_one_still_clusters():
    # a rotation by 1e-13 is below the cluster threshold: treated as
    # the identity rather than a spurious isolated pair
    g = block_diag(rot2(1e-13), np.eye(3))
    assert sweep_one_s4(g)["strata"] == {"S^4": 1}


def test_lefschetz_check_s4_passes_on_samples():
    assert fixedpoints._LEFSCHETZ_S4 == 2
    rng = np.random.default_rng(5)
    for _ in range(25):
        record = sweep_one_s4(random_so5(rng))
        assert record["count"] == 1
        assert record["failures"] == []


def test_sphere_rejects_bad_matrices():
    with pytest.raises(InvalidInputError):
        sweep_one_s4(np.eye(4))
    with pytest.raises(InvalidInputError):
        sweep_one_s4(2.0 * np.eye(5))
    reflect = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(InvalidInputError):
        sweep_one_s4(reflect)


# --- projective plane side -----------------------------------------------------


def test_distinct_eigenvalues_fix_three_points():
    u = np.diag(np.exp(2j * np.pi * np.array([0.0, 1.0, 2.0]) / 3.0))
    assert sweep_one_cp2(u) == {"count": 1, "strata": {"3 x point": 1}, "failures": []}


def test_repeated_eigenvalue_fixes_line_and_point():
    assert sweep_one_cp2(np.diag([1.0, 1.0, -1.0])) == {
        "count": 1, "strata": {"CP^1 + point": 1}, "failures": []}


def test_scalar_fixes_whole_plane():
    assert sweep_one_cp2(1j * np.eye(3)) == {"count": 1, "strata": {"CP^2": 1}, "failures": []}


def test_strata_euler_characteristics():
    # S^(d-1) for eigenvalue-1 multiplicity d: the even spheres count 2
    assert [fixedpoints._s4_fixed_set(d) for d in range(6)] == [
        ("empty", 0), ("S^0", 2), ("S^1", 0), ("S^2", 2), ("S^3", 0), ("S^4", 2)]
    # three points, a line and a point, the plane: each counts 3
    assert fixedpoints._CP2_FIXED_SETS == {
        3: ("3 x point", 3), 2: ("CP^1 + point", 3), 1: ("CP^2", 3)}


def test_lefschetz_check_cp2_passes_on_samples():
    assert fixedpoints._LEFSCHETZ_CP2 == 3
    rng = np.random.default_rng(9)
    for _ in range(25):
        record = sweep_one_cp2(random_u3(rng))
        assert record["count"] == 1
        assert record["failures"] == []


def test_cp2_rejects_non_unitary():
    with pytest.raises(InvalidInputError):
        sweep_one_cp2(np.ones((3, 3)))
    with pytest.raises(InvalidInputError):
        sweep_one_cp2(np.eye(2))


# --- sweeps ---------------------------------------------------------------------


def test_sweep_s4_counts_each_stratum():
    mats = np.stack([np.eye(5), block_diag(rot2(0.4), np.eye(3)),
                     block_diag(rot2(0.7), rot2(1.3), np.eye(1)),
                     block_diag(rot2(0.9), rot2(0.2), np.eye(1))])
    assert lefschetz_sweep_s4(mats) == {
        "count": 4, "strata": {"S^0": 2, "S^2": 1, "S^4": 1}, "failures": []}


def test_sweep_cp2_counts_each_stratum():
    mats = np.stack([np.diag(np.exp(2j * np.pi * np.array([0.0, 1.0, 2.0]) / 3.0)),
                     np.diag([1.0, 1.0, -1.0]), 1j * np.eye(3)]).astype(np.complex128)
    assert lefschetz_sweep_cp2(mats) == {
        "count": 3, "strata": {"3 x point": 1, "CP^1 + point": 1, "CP^2": 1},
        "failures": []}


@pytest.mark.parametrize("sweep, k", [(lefschetz_sweep_s4, 5), (lefschetz_sweep_cp2, 3)])
def test_sweeps_refuse_bad_stacks(sweep, k):
    for bad in (np.eye(k), np.zeros((0, k, k)), np.stack([np.eye(k + 1)])):
        with pytest.raises(InvalidInputError, match=f"expected one or more {k}x{k} matrices"):
            sweep(bad)
    with pytest.raises(InvalidInputError, match="within 1e-9"):
        sweep(np.stack([np.eye(k), 2.0 * np.eye(k)]))


# the greedy clustering rule, one eigenvalue at a time, as the reference
def _reference_clusters(eigvals):
    clusters = []
    for lam in eigvals:
        for cluster in clusters:
            if abs(lam - cluster[0]) < 1e-9:
                cluster.append(lam)
                break
        else:
            clusters.append([lam])
    return clusters


near_unit = st.sampled_from([0.0, 1e-10, -4e-10, 6e-10, 2e-9, 0.3, -0.3, 1.0])


@given(st.lists(st.tuples(near_unit, near_unit), min_size=3, max_size=3))
def test_cluster_count_matches_greedy_clustering(offsets):
    # eigenvalues at and around 1 and 1 + 1e-9 i, where the greedy rule's
    # order matters: a chain a ~ b ~ c need not put c with a
    eigvals = np.array([1.0 + re + 1j * im for re, im in offsets])
    assert fixedpoints._cluster_count(eigvals) == len(_reference_clusters(eigvals))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


# NaN makes every "err > tol" test False, so an all-NaN matrix used to
# be accepted and classifying it died in numpy's eigvals
@given(NON_FINITE, st.integers(min_value=0, max_value=24))
def test_sphere_inputs_refuse_non_finite(bad, position):
    mat = np.eye(5)
    mat.reshape(-1)[position] = bad
    with pytest.raises(InvalidInputError, match="not finite"):
        sweep_one_s4(mat)


@given(NON_FINITE, st.integers(min_value=0, max_value=8), st.booleans())
def test_plane_inputs_refuse_non_finite(bad, position, imaginary):
    mat = np.eye(3, dtype=np.complex128)
    mat.reshape(-1)[position] = complex(0.0, bad) if imaginary else bad
    with pytest.raises(InvalidInputError, match="not finite"):
        sweep_one_cp2(mat)


def test_fixed_set_s4_refuses_skewed_and_reflected():
    good = random_so5(np.random.default_rng(11))
    skewed = good.copy()
    skewed[0, 0] += 1e-6
    with pytest.raises(InvalidInputError, match="orthogonal within 1e-9"):
        sweep_one_s4(skewed)
    reflected = good.copy()
    reflected[:, 0] *= -1.0
    with pytest.raises(InvalidInputError, match="determinant \\+1"):
        sweep_one_s4(reflected)
    assert sweep_one_s4(good)["failures"] == []


# --- involution identities --------------------------------------------------------


def test_involution_identity_arithmetic():
    # chi(Fix) = 2 + trace, the trace standing in for the signature and
    # the self-intersection on a definite form
    for record in involution_catalog():
        assert record["eq_pass"] == (record["fix_euler"] == 2 + record["trace_h2"])
        assert record["derived_self_intersection"] == record["trace_h2"]
    conj = involution_catalog()[0]
    assert (conj["trace_h2"], conj["fix_euler"], conj["eq_pass"]) == (-1, 1, True)
    assert conj["derived_self_intersection"] == -1


def test_involution_catalog_entries():
    entries = involution_catalog()
    by_label = {e["label"]: e for e in entries}
    assert set(by_label) == {"cp2-conjugation", "cp2-holomorphic-split",
                             "free-involution-hypothetical"}
    conj = by_label["cp2-conjugation"]
    # real locus count 1 = 2 + (-1): the fixed surface carries
    # self-intersection -1 through the signature term
    assert conj["fix_euler"] == 1
    assert conj["eq_pass"]
    assert conj["derived_self_intersection"] == -1
    holo = by_label["cp2-holomorphic-split"]
    # the count of diag(1, 1, -1), read off its plane stratum
    assert holo["fix_euler"] == 3
    assert holo["eq_pass"]
    free = by_label["free-involution-hypothetical"]
    assert not free["eq_pass"]
    assert not free["expected_pass"]
    for entry in entries:
        assert entry["eq_pass"] == entry["expected_pass"]
