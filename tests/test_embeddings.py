import dataclasses
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isom4 import embeddings, groups, verify
from isom4.embeddings import (
    DEFAULT_TOLERANCE,
    MatrixRep,
    QuatPair,
    embed_into_so5,
    is_faithful_rep,
    klein_twist,
    o4_in_so5,
    polyhedral_so3,
    pu3_metacyclic,
    quat_pair_to_so4,
    so3_times_rotation,
    so4_central_product,
    u2_mixed,
)
from isom4.errors import (
    BudgetError,
    InvalidInputError,
    InvalidParametersError,
    UnsupportedCaseError,
)
from isom4.groups import (
    abelian,
    alternating,
    binary_dihedral,
    binary_tetrahedral,
    central_product,
    cyclic,
    dihedral,
    direct_product,
    klein_by_cyclic3,
    q8_by_cyclic3,
)
from isom4.snf import _row_blocks

EMBEDDING_RESIDUALS = (Path(__file__).resolve().parent.parent / "scripts"
                       / "embedding_residuals.py")


def random_unit_quat(rng):
    v = rng.normal(size=4)
    return tuple(v / np.linalg.norm(v))


# --- quaternion pairs -------------------------------------------------------


def test_quat_pairs_land_in_so4():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pair = QuatPair(random_unit_quat(rng), random_unit_quat(rng))
        mat = quat_pair_to_so4(pair)
        assert np.allclose(mat.T @ mat, np.eye(4), atol=1e-12)
        assert abs(np.linalg.det(mat) - 1.0) < 1e-12


def test_quat_pair_sign_kernel():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p, q = random_unit_quat(rng), random_unit_quat(rng)
        neg_p = tuple(-x for x in p)
        neg_q = tuple(-x for x in q)
        same = quat_pair_to_so4(QuatPair(neg_p, neg_q))
        assert np.allclose(quat_pair_to_so4(QuatPair(p, q)), same, atol=1e-15)
        # flipping only one side moves the matrix: the kernel is the
        # shared sign and nothing else
        half = quat_pair_to_so4(QuatPair(p, neg_q))
        assert not np.allclose(quat_pair_to_so4(QuatPair(p, q)), half, atol=1e-6)


def test_quat_pair_validation():
    with pytest.raises(InvalidInputError):
        QuatPair((1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(InvalidInputError):
        QuatPair((2.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(NON_FINITE, st.integers(min_value=0, max_value=7))
def test_quat_pair_refuses_non_finite(bad, position):
    coords = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    coords[position] = bad
    with pytest.raises(InvalidInputError, match="not finite"):
        QuatPair(tuple(coords[:4]), tuple(coords[4:]))


# --- checked reps -----------------------------------------------------------


def test_polyhedral_so3_models():
    tetra = polyhedral_so3("tetra")
    assert tetra.group.size == 12
    assert is_faithful_rep(tetra)
    icosa = polyhedral_so3("icosa")
    assert icosa.group.size == 60
    assert is_faithful_rep(icosa)
    assert icosa.homomorphism_residual() < DEFAULT_TOLERANCE


def test_polyhedral_models_read_group_table_names():
    # names, aliases and parameter counts are read as build_group reads them
    for alias, name in (("A4", "tetra"), ("s4", "octa"), ("A5", "icosa")):
        rep, same = polyhedral_so3(alias), polyhedral_so3(name)
        assert np.array_equal(rep.group.table, same.group.table)
        assert np.array_equal(rep.matrices, same.matrices)
    assert np.array_equal(so3_times_rotation(3, "A4").matrices,
                          so3_times_rotation(3, "tetra").matrices)
    assert polyhedral_so3("dihedral", 8).group.size == 8
    for call, message in (
            (lambda: polyhedral_so3("tetra", 3), r"^tetra takes 0 parameter\(s\), got 1$"),
            (lambda: polyhedral_so3("dihedral"), r"^dihedral takes 1 parameter\(s\), got 0$"),
            (lambda: so3_times_rotation(2, "cyclic"), r"^cyclic takes 1 parameter\(s\), got 0$")):
        with pytest.raises(InvalidParametersError, match=message):
            call()
    with pytest.raises(InvalidInputError, match=r"^unknown group name 'frieze'$"):
        polyhedral_so3("frieze")
    with pytest.raises(InvalidInputError, match=r"^no rotation model for group 'q8'$"):
        polyhedral_so3("q8")
    a4 = alternating(4)
    assert embed_into_so5(a4, {"kind": "polyhedral-product", "poly": "A4"}).group is a4
    with pytest.raises(InvalidParametersError):
        embed_into_so5(a4, {"kind": "polyhedral-product", "poly": "tetra", "order_param": 3})


def test_rep_rejects_non_orthogonal():
    with pytest.raises(InvalidInputError):
        MatrixRep(group=cyclic(1), matrices=[2.0 * np.eye(2)], projective=False)


def test_rep_rejects_negative_determinant():
    mats = [np.eye(2), np.diag([1.0, -1.0])]
    with pytest.raises(InvalidInputError):
        MatrixRep(group=cyclic(2), matrices=mats, projective=False)


def test_rep_rejects_non_homomorphism():
    theta = 2.0 * math.pi / 3.0
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    with pytest.raises(InvalidInputError):
        MatrixRep(group=cyclic(3), matrices=[np.eye(2), rot, rot], projective=False)


# every tolerance test is written "not err <= tol", which NaN fails; an
# all-NaN rep used to pass with residual 0.0
@given(NON_FINITE, st.sampled_from(["real", "complex"]), st.booleans(),
       st.integers(min_value=0, max_value=7))
def test_rep_refuses_non_finite(bad, field_tag, projective, position):
    mats = np.stack([np.eye(2), -np.eye(2)]).astype(
        np.float64 if field_tag == "real" else np.complex128)
    mats.reshape(-1)[position] = bad
    with pytest.raises(InvalidInputError, match="not finite"):
        MatrixRep(group=cyclic(2), matrices=mats, projective=projective)


def test_residual_keeps_nan():
    mats = np.full((2, 2, 2), np.nan)
    for projective in (False, True):
        assert math.isnan(embeddings._homomorphism_residual(cyclic(2).table, mats, projective))


def test_rep_reads_dimension_and_field_off_the_matrices():
    real = MatrixRep(group=cyclic(1), matrices=[np.eye(3)], projective=False)
    assert (real.dimension, real.field_tag) == (3, "real")
    unitary = MatrixRep(group=cyclic(1), matrices=[np.eye(2, dtype=complex)], projective=False)
    assert (unitary.dimension, unitary.field_tag) == (2, "complex")
    for bad in (np.ones((1, 2, 3)), np.ones((1, 0, 0)), np.eye(2), np.ones((2, 1, 1))):
        with pytest.raises(InvalidInputError, match="one square matrix per element"):
            MatrixRep(group=cyclic(1), matrices=bad, projective=False)


def test_rep_matrices_frozen():
    rep = polyhedral_so3("tetra")
    with pytest.raises(ValueError):
        rep.matrices[0, 0, 0] = 5.0


def test_rep_fields_frozen():
    rep = polyhedral_so3("tetra")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.matrices = np.tile(np.eye(3), (12, 1, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.projective = True


def _residual_script_cases():
    spec = importlib.util.spec_from_file_location("embedding_residuals",
                                                  EMBEDDING_RESIDUALS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pytest.param(group, hint, id=label) for label, group, hint in module.cases()
            if hint["kind"] != "two-group"]


@pytest.mark.parametrize("group,hint", _residual_script_cases())
def test_stored_residual_is_fresh_residual(group, hint):
    rep = embed_into_so5(group, hint)
    fresh = embeddings._homomorphism_residual(rep.group.table, rep.matrices,
                                              rep.projective)
    assert rep.homomorphism_residual().hex() == fresh.hex()


# (order, float.hex of the stored residual) of every rep the embed-*
# checks build at seed 1, in suite order
EMBED_RESIDUALS_SEED1 = [
    (9, "0x1.0000000000000p-50"), (24, "0x1.6000000000000p-50"),
    (82, "0x1.5000000000000p-49"), (63, "0x1.4000000000000p-50"),
    (10, "0x1.0000000000000p-52"), (44, "0x1.6000000000000p-49"),
    (49, "0x1.4000000000000p-51"), (18, "0x1.e8930a2f4f66ap-51"),
    (77, "0x1.0800000000000p-48"), (12, "0x1.6000000000000p-50"),
    (48, "0x1.b504f333f9de5p-52"), (96, "0x1.0000000000000p-51"),
    (120, "0x1.8000000000000p-51"), (240, "0x1.e000000000000p-51"),
    (12, "0x1.6000000000000p-51"), (60, "0x1.4000000000000p-50"),
    (84, "0x1.a000000000000p-50"), (36, "0x1.0000000000000p-50"),
    (72, "0x1.c000000000000p-50"), (12, "0x1.c000000000000p-51"),
]


def test_embed_check_residuals_pinned(monkeypatch):
    # the report prints these residuals; their arithmetic must not drift
    reps = []

    def recording(group, hint):
        reps.append(embed_into_so5(group, hint))
        return reps[-1]

    monkeypatch.setattr(verify, "embed_into_so5", recording)
    cfg = verify.VerifyConfig(seed=1)
    for check_id, check, _ in verify._SUITE:
        if check_id.startswith("embed-"):
            check(cfg)
    assert [(rep.group.size, rep.homomorphism_residual().hex()) for rep in reps] \
        == EMBED_RESIDUALS_SEED1


def test_embedding_validates_recipe_and_result_only(monkeypatch):
    # one all-pairs residual per distinct matrix set: the closure forms
    # it, the recipe rep on the closure's matrices reads it, and the
    # padded, relabelled 5x5 rep carries it; u2 realifies its unitary
    # closure, a second matrix set with a pass of its own
    dicyclic, group = binary_dihedral(12), q8_by_cyclic3(2)
    calls = []
    residual = groups._table_residual

    def counting(table, mats):
        calls.append(mats.shape)
        return residual(table, mats)

    monkeypatch.setattr(groups, "_table_residual", counting)
    monkeypatch.setattr(embeddings, "_table_residual", counting)
    rep = embed_into_so5(dicyclic, {"kind": "dihedral-mixed", "m": 2, "k": 3})
    assert calls == [(12, 5, 5)]
    calls.clear()
    rep = embed_into_so5(group, {"kind": "u2-mixed", "r": 1, "s": 1, "m_plus": 1})
    assert calls == [(group.size, 2, 2), (group.size, 4, 4)]
    assert is_faithful_rep(rep)
    assert rep.homomorphism_residual() < DEFAULT_TOLERANCE
    assert len(calls) == 2


# --- the projective unitary model ---------------------------------------------


@pytest.mark.parametrize("m,n,r", [(7, 3, 2), (13, 3, 3), (31, 3, 5)])
def test_pu3_metacyclic_faithful(m, n, r):
    rep = pu3_metacyclic(m, n, r)
    assert rep.group.size == 3 * m
    assert rep.dimension == 3
    assert rep.projective
    assert rep.field_tag == "complex"
    assert rep.homomorphism_residual() < 1e-12
    assert is_faithful_rep(rep)


def test_pu3_degenerate_m1():
    rep = pu3_metacyclic(1, 3, 0)
    assert rep.group.size == 3
    assert is_faithful_rep(rep)


def test_pu3_validation():
    with pytest.raises(InvalidInputError):
        pu3_metacyclic(7, 5, 2)
    with pytest.raises(InvalidParametersError):
        pu3_metacyclic(9, 3, 4)  # gcd(n(r-1), m) = 3
    with pytest.raises(InvalidParametersError):
        pu3_metacyclic(7, 3, 1)  # trivial twist


# --- all-pairs kernels in row blocks -------------------------------------------

# tracemalloc peak of one all-pairs kernel above what was allocated
# before the call.  With 2^20-entry blocks the injectivity scan of the
# order-240 central product traced 14.1 MB and the projective residual
# of the order-309 PU(3) model 53.9 MB; with 2^16-entry blocks they
# trace 1.0 MB and 3.2 MB
ALL_PAIRS_TRACED_BOUND = 4 << 20


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def central_product_240():
    return so4_central_product("icosa", 4)


@pytest.fixture(scope="module")
def pu3_309():
    return pu3_metacyclic(103, 3, 46)


def _rotation_rep(order: int, angle: float) -> MatrixRep:
    """Z_order -> SO(2), i -> rotation by i * angle."""
    c, s = np.cos(np.arange(order) * angle), np.sin(np.arange(order) * angle)
    mats = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=1)
    return MatrixRep(group=cyclic(order), matrices=mats, projective=False)


def test_injectivity_checked_across_row_blocks():
    # i -> rot(2 pi i / m) on Z_2m sends i and i + m to one rotation; at
    # m = 128 a row block holds at most m rows, so each such pair lies
    # in two different blocks
    m = 128
    assert max(b.stop - b.start for b in _row_blocks(2 * m, 2 * m * 2 * 2)) <= m
    assert not is_faithful_rep(_rotation_rep(2 * m, 2 * math.pi / m))
    assert is_faithful_rep(_rotation_rep(2 * m, math.pi / m))


def test_all_pairs_kernels_stay_within_block_budget(central_product_240, pu3_309):
    assert central_product_240.group.size == 240 and pu3_309.group.size == 309
    assert _traced_peak(lambda: is_faithful_rep(central_product_240)) < ALL_PAIRS_TRACED_BOUND
    table, mats = pu3_309.group.table, pu3_309.matrices
    assert _traced_peak(
        lambda: embeddings._homomorphism_residual(table, mats, True)) < ALL_PAIRS_TRACED_BOUND


def test_blocked_projective_residual_is_one_pass_bitwise(pu3_309):
    table, mats = pu3_309.group.table, pu3_309.matrices
    assert len(_row_blocks(mats.shape[0], mats.shape[0] * 9)) > 1
    prod = np.einsum("aij,bjk->abik", mats, mats)
    tgt = mats[table]
    lam = np.einsum("abij,abij->ab", tgt.conj(), prod) / 3
    one_pass = max(np.max(np.abs(np.abs(lam) - 1.0)),
                   np.max(np.abs(prod - lam[..., None, None] * tgt)))
    blocked = embeddings._homomorphism_residual(table, mats, True)
    assert blocked.hex() == float(one_pass).hex()


# --- recipes into SO(5) --------------------------------------------------------


def test_recipe_parameter_validation():
    with pytest.raises(InvalidParametersError):
        so3_times_rotation(0, "tetra")
    with pytest.raises(InvalidParametersError):
        klein_twist(0, 1)
    with pytest.raises(InvalidParametersError):
        klein_twist(1, 2)
    with pytest.raises(InvalidParametersError):
        u2_mixed(0, 1, 1)
    with pytest.raises(InvalidParametersError):
        u2_mixed(1, 1, 3)
    with pytest.raises(InvalidParametersError):
        o4_in_so5(2, 4)
    with pytest.raises(InvalidInputError):
        so4_central_product("cube", 2)
    with pytest.raises(InvalidParametersError):
        so4_central_product("tetra", 3)


def test_recipe_orders_are_capped_by_the_closure():
    # 4 * 3^5 = 972 elements: refused before any product is formed
    with pytest.raises(BudgetError, match=r"^closure order 972 exceeds the order cap 512$"):
        klein_twist(5, 1)
    # a hint integer past the cap names no model; 3^700 would overflow a float
    with pytest.raises(BudgetError, match=r"^hint field 'power' exceeds the order cap 512$"):
        embed_into_so5(klein_by_cyclic3(1), {"kind": "klein-3power", "power": 700})


def check_embedding(group, hint):
    rep = embed_into_so5(group, hint)
    assert rep.group is group
    assert rep.dimension == 5
    assert rep.field_tag == "real"
    assert rep.homomorphism_residual() < DEFAULT_TOLERANCE
    assert is_faithful_rep(rep)
    return rep


def test_embed_abelian_rank_two():
    check_embedding(abelian([4, 5]), {"kind": "abelian"})
    check_embedding(cyclic(17), {"kind": "abelian"})


def test_embed_abelian_rank_three_unsupported():
    with pytest.raises(UnsupportedCaseError):
        embed_into_so5(abelian([2, 2, 2]), {"kind": "abelian"})


def test_embed_abelian_hint_mismatch():
    with pytest.raises(InvalidInputError):
        embed_into_so5(dihedral(6), {"kind": "abelian"})


def test_embed_polyhedral_product():
    g = direct_product(alternating(4), cyclic(5))
    check_embedding(g, {"kind": "polyhedral-product", "poly": "tetra",
                        "cyclic_order": 5})


def test_embed_klein_family():
    g = direct_product(klein_by_cyclic3(1), cyclic(5))
    check_embedding(g, {"kind": "klein-3power", "power": 1, "m_plus": 5})


def test_embed_central_products():
    lift = binary_tetrahedral()
    zh = int(np.flatnonzero(lift.element_orders == 2)[0])
    for m in (2, 4):
        g = central_product(cyclic(m), lift, m // 2, zh)
        check_embedding(g, {"kind": "central-product", "poly": "tetra", "m": m})


def test_embed_unitary_mixed():
    check_embedding(q8_by_cyclic3(2), {"kind": "u2-mixed",
                                       "r": 1, "s": 1, "m_plus": 1})


def test_embed_dihedral_mixed():
    check_embedding(binary_dihedral(12), {"kind": "dihedral-mixed",
                                          "m": 2, "k": 3})
    check_embedding(dihedral(6), {"kind": "dihedral-mixed", "m": 1, "k": 3})


def test_embed_two_group_refused():
    with pytest.raises(UnsupportedCaseError):
        embed_into_so5(abelian([2, 2, 2]), {"kind": "two-group"})
    with pytest.raises(UnsupportedCaseError):
        embed_into_so5(cyclic(2), {"kind": "mystery"})


def test_embed_wrong_group_for_hint():
    with pytest.raises(InvalidInputError):
        embed_into_so5(cyclic(12), {"kind": "klein-3power",
                                    "power": 1, "m_plus": 1})
