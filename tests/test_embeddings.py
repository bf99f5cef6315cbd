import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isom4 import embeddings, verify
from isom4.embeddings import (
    DEFAULT_TOLERANCE,
    MatrixRep,
    QuatPair,
    build_recipe_rep,
    embed_into_so5,
    is_faithful_rep,
    polyhedral_so3,
    pu3_metacyclic,
    quat_pair_to_so4,
)
from isom4.errors import (
    InvalidInputError,
    InvalidParametersError,
    UnsupportedCaseError,
)
from isom4.groups import (
    GroupKind,
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
    tetra = polyhedral_so3(GroupKind("tetra"))
    assert tetra.group.size == 12
    assert is_faithful_rep(tetra)
    icosa = polyhedral_so3(GroupKind("icosa"))
    assert icosa.group.size == 60
    assert is_faithful_rep(icosa)
    assert icosa.homomorphism_residual() < DEFAULT_TOLERANCE


def test_rep_rejects_non_orthogonal():
    with pytest.raises(InvalidInputError):
        MatrixRep(group=cyclic(1), dimension=2, field_tag="real",
                  projective=False, matrices=[2.0 * np.eye(2)])


def test_rep_rejects_negative_determinant():
    mats = [np.eye(2), np.diag([1.0, -1.0])]
    with pytest.raises(InvalidInputError):
        MatrixRep(group=cyclic(2), dimension=2, field_tag="real",
                  projective=False, matrices=mats)


def test_rep_rejects_non_homomorphism():
    theta = 2.0 * math.pi / 3.0
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    with pytest.raises(InvalidInputError):
        MatrixRep(group=cyclic(3), dimension=2, field_tag="real",
                  projective=False, matrices=[np.eye(2), rot, rot])


# every tolerance test is written "not err <= tol", which NaN fails; an
# all-NaN rep used to pass with residual 0.0
@given(NON_FINITE, st.sampled_from(["real", "complex"]), st.booleans(),
       st.integers(min_value=0, max_value=7))
def test_rep_refuses_non_finite(bad, field_tag, projective, position):
    mats = np.stack([np.eye(2), -np.eye(2)]).astype(
        np.float64 if field_tag == "real" else np.complex128)
    mats.reshape(-1)[position] = bad
    with pytest.raises(InvalidInputError, match="not finite"):
        MatrixRep(group=cyclic(2), dimension=2, field_tag=field_tag,
                  projective=projective, matrices=mats)


def test_residual_keeps_nan():
    mats = np.full((2, 2, 2), np.nan)
    for projective in (False, True):
        assert math.isnan(embeddings._homomorphism_residual(cyclic(2).table, mats, projective))


def test_rep_parameter_validation():
    with pytest.raises(InvalidInputError):
        MatrixRep(group=cyclic(1), dimension=1, field_tag="rational",
                  projective=False, matrices=[np.eye(1)])
    for tolerance in (2.0, math.nan, math.inf):
        with pytest.raises(InvalidParametersError):
            MatrixRep(group=cyclic(1), dimension=1, field_tag="real",
                      projective=False, matrices=[np.eye(1)], tolerance=tolerance)


def test_rep_matrices_frozen():
    rep = polyhedral_so3(GroupKind("tetra"))
    with pytest.raises(ValueError):
        rep.matrices[0, 0, 0] = 5.0


def test_rep_fields_frozen():
    rep = polyhedral_so3(GroupKind("tetra"))
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
    # a dimension-4 recipe: its rep and the relabelled 5x5 rep are
    # validated, the padded intermediate is not, and reading the
    # residual afterwards computes nothing
    calls = []
    residual = embeddings._homomorphism_residual

    def counting(*args):
        calls.append(args[1].shape)
        return residual(*args)

    monkeypatch.setattr(embeddings, "_homomorphism_residual", counting)
    rep = embed_into_so5(binary_dihedral(12), {"kind": "dihedral-mixed",
                                               "m": 2, "k": 3})
    assert calls == [(12, 5, 5), (12, 5, 5)]
    calls.clear()
    group = q8_by_cyclic3(2)
    rep = embed_into_so5(group, {"kind": "u2-mixed", "r": 1, "s": 1, "m_plus": 1})
    assert calls == [(group.size, 4, 4), (group.size, 5, 5)]
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


# --- recipes into SO(5) --------------------------------------------------------


def test_recipe_dispatch_validation():
    with pytest.raises(InvalidInputError):
        build_recipe_rep("so6")
    with pytest.raises(InvalidInputError):
        build_recipe_rep("so3xso2", kind=GroupKind("tetra"), klein_power=1)
    with pytest.raises(InvalidInputError):
        build_recipe_rep("so3xso2")
    with pytest.raises(InvalidParametersError):
        build_recipe_rep("u2", r=0, s=1)
    with pytest.raises(InvalidParametersError):
        build_recipe_rep("u2", r=1, s=1, m_plus=3)
    with pytest.raises(InvalidParametersError):
        build_recipe_rep("o4-in-so5", m=2, k=4)
    with pytest.raises(InvalidInputError):
        build_recipe_rep("so4-central-product", kind="cube", m=2)
    with pytest.raises(InvalidParametersError):
        build_recipe_rep("so4-central-product", kind="tetra", m=3)


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
