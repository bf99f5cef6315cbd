import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isom4 import fixedpoints
from isom4.errors import InvalidInputError, InvalidParametersError
from isom4.fixedpoints import (
    FixComponent,
    FixedSetDescriptor,
    InvolutionTraceData,
    batch_lefschetz_cp2,
    batch_lefschetz_s4,
    fixed_set_cp2,
    fixed_set_s4,
    involution_catalog,
    involution_identity_check,
    lefschetz_check_cp2,
    lefschetz_check_s4,
    random_so5,
    random_u3,
)


def rot2(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


# --- sphere side -------------------------------------------------------------


def test_identity_fixes_whole_sphere():
    fix = fixed_set_s4(np.eye(5))
    assert fix.euler_char == 2
    assert fix.components[0].dimension == 4


def test_two_rotation_blocks_fix_two_points():
    g = block_diag(rot2(0.7), rot2(1.3), np.eye(1))
    fix = fixed_set_s4(g)
    assert [c.dimension for c in fix.components] == [0]
    assert fix.euler_char == 2


def test_single_rotation_block_fixes_2sphere():
    g = block_diag(rot2(0.4), np.eye(3))
    fix = fixed_set_s4(g)
    assert [c.dimension for c in fix.components] == [2]
    assert fix.euler_char == 2


def test_eigenvalue_near_one_still_clusters():
    # a rotation by 1e-13 is below the cluster threshold: treated as
    # the identity rather than a spurious isolated pair
    g = block_diag(rot2(1e-13), np.eye(3))
    assert fixed_set_s4(g).components[0].dimension == 4


def test_lefschetz_check_s4_passes_on_samples():
    rng = np.random.default_rng(5)
    for _ in range(25):
        record = lefschetz_check_s4(random_so5(rng))
        assert record["lefschetz"] == 2
        assert record["pass"]


def test_sphere_rejects_bad_matrices():
    with pytest.raises(InvalidInputError):
        fixed_set_s4(np.eye(4))
    with pytest.raises(InvalidInputError):
        fixed_set_s4(2.0 * np.eye(5))
    reflect = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(InvalidInputError):
        fixed_set_s4(reflect)


# --- projective plane side -----------------------------------------------------


def test_distinct_eigenvalues_fix_three_points():
    u = np.diag(np.exp(2j * np.pi * np.array([0.0, 1.0, 2.0]) / 3.0))
    fix = fixed_set_cp2(u)
    assert len(fix.components) == 3
    assert fix.euler_char == 3


def test_repeated_eigenvalue_fixes_line_and_point():
    fix = fixed_set_cp2(np.diag([1.0, 1.0, -1.0]))
    assert sorted(c.dimension for c in fix.components) == [0, 2]
    assert fix.euler_char == 3


def test_scalar_fixes_whole_plane():
    fix = fixed_set_cp2(1j * np.eye(3))
    assert [c.dimension for c in fix.components] == [4]
    assert fix.euler_char == 3


def test_lefschetz_check_cp2_passes_on_samples():
    rng = np.random.default_rng(9)
    for _ in range(25):
        record = lefschetz_check_cp2(random_u3(rng))
        assert record["lefschetz"] == 3
        assert record["pass"]


def test_cp2_rejects_non_unitary():
    with pytest.raises(InvalidInputError):
        fixed_set_cp2(np.ones((3, 3)))
    with pytest.raises(InvalidInputError):
        fixed_set_cp2(np.eye(2))


# --- batches --------------------------------------------------------------------


def test_batch_s4_small():
    out = batch_lefschetz_s4(50, seed=1)
    assert out == {"count": 50, "failures": [], "all_pass": True}


def test_batch_cp2_small():
    out = batch_lefschetz_cp2(50, seed=1)
    assert out == {"count": 50, "failures": [], "all_pass": True}


def test_batches_deterministic():
    assert batch_lefschetz_s4(10, seed=3) == batch_lefschetz_s4(10, seed=3)


@pytest.mark.parametrize("batch", [batch_lefschetz_s4, batch_lefschetz_cp2])
@pytest.mark.parametrize("count,seed,message", [
    (0, 1, "batch count must be positive"),
    (-5, 1, "batch count must be positive"),
    (3, -1, "seed must fit in 64 unsigned bits"),
    (3, 2**64, "seed must fit in 64 unsigned bits"),
])
def test_batches_refuse_bad_inputs(batch, count, seed, message):
    with pytest.raises(InvalidParametersError, match=message):
        batch(count, seed)


def test_batches_accept_seed_range_ends():
    assert batch_lefschetz_s4(2, 0)["all_pass"]
    assert batch_lefschetz_cp2(2, 2**64 - 1)["all_pass"]


# the per-matrix code the stacked batches replaced, kept as the reference


def _reference_so5(rng):
    q, r = np.linalg.qr(rng.normal(size=(5, 5)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _reference_u3(rng):
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d.conjugate() / np.abs(d))


def _reference_euler_s4(mat):
    d = int(np.count_nonzero(np.abs(np.linalg.eigvals(mat) - 1.0) < 1e-9))
    return 2 if d > 0 and (d - 1) % 2 == 0 else 0


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


def _reference_euler_cp2(mat):
    pattern = sorted(len(c) for c in _reference_clusters(np.linalg.eigvals(mat)))
    return {(1, 1, 1): 1 + 1 + 1, (1, 2): 2 + 1, (3,): 3}[tuple(pattern)]


REFERENCES = {
    "s4": (batch_lefschetz_s4, fixedpoints._so5_stack, _reference_so5,
           _reference_euler_s4, 2),
    "cp2": (batch_lefschetz_cp2, fixedpoints._u3_stack, _reference_u3,
            _reference_euler_cp2, 3),
}


def _check_against_reference(manifold, count, seed, chunk):
    batch, stack, sample, euler, lefschetz = REFERENCES[manifold]
    rng = np.random.default_rng(seed)
    reference = [sample(rng) for _ in range(count)]
    failures = [i for i, mat in enumerate(reference) if euler(mat) != lefschetz]
    rng = np.random.default_rng(seed)
    stacked = np.concatenate([stack(rng, min(chunk, count - start))
                              for start in range(0, count, chunk)])
    assert np.array_equal(stacked, np.stack(reference))
    assert batch(count, seed) == {"count": count, "failures": failures,
                                  "all_pass": not failures}


@pytest.mark.parametrize("manifold", ["s4", "cp2"])
@pytest.mark.parametrize("count", [1, 7, 12])
@pytest.mark.parametrize("seed", range(5))
def test_stacked_batches_match_per_matrix_code(monkeypatch, manifold, count, seed):
    # a 5-matrix chunk makes count 12 cross two chunk boundaries
    monkeypatch.setattr(fixedpoints, "_BATCH_CHUNK", 5)
    _check_against_reference(manifold, count, seed, 5)


@pytest.mark.parametrize("manifold", ["s4", "cp2"])
def test_stacked_batches_cross_the_real_chunk(manifold):
    chunk = fixedpoints._BATCH_CHUNK
    _check_against_reference(manifold, chunk + 1, 0, chunk)


def test_single_samplers_are_the_stacked_ones():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        assert np.array_equal(random_so5(rng), _reference_so5(ref))
        assert np.array_equal(random_u3(rng), _reference_u3(ref))


near_unit = st.sampled_from([0.0, 1e-10, -4e-10, 6e-10, 2e-9, 0.3, -0.3, 1.0])


@given(st.lists(st.tuples(near_unit, near_unit), min_size=3, max_size=3))
def test_cluster_count_matches_greedy_clustering(offsets):
    # eigenvalues at and around 1 and 1 + 1e-9 i, where the greedy rule's
    # order matters: a chain a ~ b ~ c need not put c with a
    eigvals = np.array([1.0 + re + 1j * im for re, im in offsets])
    assert fixedpoints._cluster_count(eigvals) == len(_reference_clusters(eigvals))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


# NaN makes every "err > tol" test False, so an all-NaN matrix used to
# be accepted and fixed_set_s4 of it died in numpy's eigvals
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(NON_FINITE, st.integers(min_value=0, max_value=24))
def test_sphere_inputs_refuse_non_finite(bad, position):
    mat = np.eye(5)
    mat.reshape(-1)[position] = bad
    for build in (fixed_set_s4, lefschetz_check_s4):
        with pytest.raises(InvalidInputError, match="not finite"):
            build(mat)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(NON_FINITE, st.integers(min_value=0, max_value=8), st.booleans())
def test_plane_inputs_refuse_non_finite(bad, position, imaginary):
    mat = np.eye(3, dtype=np.complex128)
    mat.reshape(-1)[position] = complex(0.0, bad) if imaginary else bad
    for build in (fixed_set_cp2, lefschetz_check_cp2):
        with pytest.raises(InvalidInputError, match="not finite"):
            build(mat)


def test_fixed_set_s4_refuses_skewed_and_reflected():
    good = random_so5(np.random.default_rng(11))
    skewed = good.copy()
    skewed[0, 0] += 1e-6
    with pytest.raises(InvalidInputError, match="orthogonal within 1e-9"):
        fixed_set_s4(skewed)
    reflected = good.copy()
    reflected[:, 0] *= -1.0
    with pytest.raises(InvalidInputError, match="determinant \\+1"):
        fixed_set_s4(reflected)
    assert fixed_set_s4(good).euler_char == 2


# --- involution identities --------------------------------------------------------


def test_involution_identity_arithmetic():
    data = InvolutionTraceData(trace_h2=-1, signature_g=-1, fix_euler=1)
    result = involution_identity_check(data)
    assert result["eq_pass"]
    assert result["derived_self_intersection"] == -1


def test_involution_data_validation():
    with pytest.raises(InvalidInputError):
        InvolutionTraceData(trace_h2=1, signature_g=-1, fix_euler=1)


def test_involution_catalog_entries():
    entries = involution_catalog()
    by_label = {e["label"]: e for e in entries}
    assert set(by_label) == {"cp2-conjugation", "cp2-holomorphic-split",
                             "free-involution-hypothetical"}
    conj = by_label["cp2-conjugation"]
    # real locus count 1 = 2 + (-1): the fixed surface carries
    # self-intersection -1 through the signature term
    assert conj["data"].fix_euler == 1
    assert conj["result"]["eq_pass"]
    assert conj["result"]["derived_self_intersection"] == -1
    holo = by_label["cp2-holomorphic-split"]
    assert holo["data"].fix_euler == 3
    assert holo["result"]["eq_pass"]
    free = by_label["free-involution-hypothetical"]
    assert not free["result"]["eq_pass"]
    assert not free["expected_pass"]
    for entry in entries:
        assert entry["result"]["eq_pass"] == entry["expected_pass"]


def test_component_dimension_validation():
    with pytest.raises(InvalidInputError):
        FixComponent(3, 0, "bad")
    desc = FixedSetDescriptor((FixComponent(0, 1, "pt"), FixComponent(2, 2, "S^2")))
    assert desc.euler_char == 3
