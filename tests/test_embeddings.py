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
    abelian_so5,
    embed_into_so5,
    klein_twist,
    o4_in_so5,
    polyhedral_so3,
    pu3_metacyclic,
    so4_central_product,
    so5_model,
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
    build_metacyclic,
    cyclic,
    cyclic_central_product,
    dihedral,
    direct_product,
    klein_by_cyclic3,
    q8_by_cyclic3,
)
from isom4.snf import _row_blocks
from reference import so3_times_rotation

EMBEDDING_RESIDUALS = (Path(__file__).resolve().parent.parent / "scripts"
                       / "embedding_residuals.py")


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# a prime = 1 mod lcm(4, |G|) for the small cyclic groups the
# constructor tests hand their own matrices
PRIME = 13


# --- checked reps -----------------------------------------------------------


def test_polyhedral_so3_models():
    tetra = polyhedral_so3("tetra")
    assert tetra.group.size == 12
    icosa = polyhedral_so3("icosa")
    assert icosa.group.size == 60
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
    assert embed_into_so5(a4, so5_model("A4")).group is a4
    with pytest.raises(InvalidParametersError):
        so5_model("tetra", 3)


def test_rep_rejects_non_orthogonal():
    with pytest.raises(InvalidInputError):
        MatrixRep(group=cyclic(1), matrices=[2.0 * np.eye(2)], prime=PRIME)


def test_rep_rejects_negative_determinant():
    mats = [np.eye(2), np.diag([1.0, -1.0])]
    with pytest.raises(InvalidInputError):
        MatrixRep(group=cyclic(2), matrices=mats, prime=PRIME)


# every tolerance test is written "not err <= tol", which NaN fails; an
# all-NaN rep used to pass with residual 0.0
@given(NON_FINITE, st.sampled_from(["real", "complex"]), st.integers(min_value=0, max_value=7))
def test_rep_refuses_non_finite(bad, field_tag, position):
    mats = np.stack([np.eye(2), -np.eye(2)]).astype(
        np.float64 if field_tag == "real" else np.complex128)
    mats.reshape(-1)[position] = bad
    with pytest.raises(InvalidInputError, match="not finite"):
        MatrixRep(group=cyclic(2), matrices=mats, prime=PRIME)


def test_residual_keeps_nan():
    mats = np.full((2, 2, 2), np.nan)
    assert math.isnan(groups._table_residual(cyclic(2).table, mats))


def test_rep_reads_dimension_and_field_off_the_matrices():
    real = MatrixRep(group=cyclic(1), matrices=[np.eye(3)], prime=PRIME)
    assert (real.dimension, real.field_tag) == (3, "real")
    unitary = MatrixRep(group=cyclic(1), matrices=[np.eye(2, dtype=complex)], prime=PRIME)
    assert (unitary.dimension, unitary.field_tag) == (2, "complex")
    for bad in (np.ones((1, 2, 3)), np.ones((1, 0, 0)), np.eye(2), np.ones((2, 1, 1))):
        with pytest.raises(InvalidInputError, match="one square matrix per element"):
            MatrixRep(group=cyclic(1), matrices=bad, prime=PRIME)


def test_rep_matrices_frozen():
    rep = polyhedral_so3("tetra")
    with pytest.raises(ValueError):
        rep.matrices[0, 0, 0] = 5.0


def test_rep_fields_frozen():
    rep = polyhedral_so3("tetra")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.matrices = np.tile(np.eye(3), (12, 1, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.prime = 37


def _residual_script():
    spec = importlib.util.spec_from_file_location("embedding_residuals",
                                                  EMBEDDING_RESIDUALS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_residual_script_passes(capsys):
    # the script's float cross-check, with its Q8 refusal row, gates Tier-1
    assert _residual_script().main() == 0
    out = capsys.readouterr().out
    assert "Q8 (expect refusal)" in out and "refused" in out


# (order, prime) of every rep the embed-* checks build at seed 1, in
# suite order: p is the least odd prime = 1 mod lcm(4, order)
EMBED_PRIMES_SEED1 = [
    (9, 37), (24, 73), (82, 821), (63, 757), (10, 41), (44, 89), (49, 197),
    (18, 37), (77, 617), (12, 13), (48, 97), (96, 97), (120, 241), (240, 241),
    (12, 13), (60, 61), (84, 337), (36, 37), (72, 73), (12, 13),
]


def test_embed_check_primes_pinned(monkeypatch):
    # the report names these primes; the float matrices of each rep,
    # indexed by its exact table, pass the float cross-check
    reps = []

    def recording(group, model):
        reps.append(embed_into_so5(group, model))
        return reps[-1]

    monkeypatch.setattr(verify, "embed_into_so5", recording)
    cfg = verify.VerifyConfig(seed=1)
    for check_id, check, _ in verify._SUITE:
        if check_id.startswith("embed-"):
            check(cfg)
    assert [(rep.group.size, rep.prime) for rep in reps] == EMBED_PRIMES_SEED1
    assert max(rep.homomorphism_residual() for rep in reps) <= DEFAULT_TOLERANCE


def test_embedding_validates_recipe_and_result_only(monkeypatch):
    # the exact closure decides every table: embedding forms no
    # all-pairs residual, and a rep forms its float cross-check each
    # time it is asked
    dicyclic, group = binary_dihedral(12), q8_by_cyclic3(2)
    calls = []
    residual = groups._table_residual

    def counting(table, mats):
        calls.append(mats.shape)
        return residual(table, mats)

    monkeypatch.setattr(groups, "_table_residual", counting)
    monkeypatch.setattr(embeddings, "_table_residual", counting)
    embed_into_so5(dicyclic, o4_in_so5(2, 3))
    rep = embed_into_so5(group, u2_mixed(1, 1, 1))
    assert calls == []
    assert rep.homomorphism_residual() < DEFAULT_TOLERANCE
    assert rep.homomorphism_residual() < DEFAULT_TOLERANCE
    assert calls == [(group.size, 5, 5)] * 2


# every recipe of this module, each stated by one cyclotomic source
RECIPES = {
    "so3-cyclic-7": lambda: polyhedral_so3("cyclic", 7),
    "so3-dihedral-10": lambda: polyhedral_so3("dihedral", 10),
    "so3-tetra": lambda: polyhedral_so3("tetra"),
    "so3-octa": lambda: polyhedral_so3("octa"),
    "so3-icosa": lambda: polyhedral_so3("icosa"),
    "so3xso2-icosa-3": lambda: so3_times_rotation(3, "icosa"),
    "klein-1-5": lambda: klein_twist(1, 5),
    "klein-2-1": lambda: klein_twist(2, 1),
    "so4-tetra-4": lambda: so4_central_product("tetra", 4),
    "so4-octa-2": lambda: so4_central_product("octa", 2),
    "so4-icosa-4": lambda: so4_central_product("icosa", 4),
    "u2-1-1-1": lambda: u2_mixed(1, 1, 1),
    "u2-2-0-5": lambda: u2_mixed(2, 0, 5),
    "o4-3-5": lambda: o4_in_so5(3, 5),
    "o4-12-3": lambda: o4_in_so5(12, 3),
    "abelian-4-15": lambda: abelian_so5((4, 15)),
    "pu3-13-3-3": lambda: pu3_metacyclic(13, 3, 3),
}


@pytest.mark.parametrize("build", RECIPES.values(), ids=RECIPES.keys())
def test_recipe_float_matrices_pass_the_exact_table(build):
    # the float gate: the source evaluated at e^(2 pi i/n), indexed by the
    # table its closure mod p decided, passes the all-pairs residual
    rep = build()
    n = math.lcm(4, rep.group.size)
    assert rep.prime % n == 1
    assert rep.homomorphism_residual() <= DEFAULT_TOLERANCE


# --- the projective unitary model ---------------------------------------------


@pytest.mark.parametrize("m,n,r", [(7, 3, 2), (13, 3, 3), (31, 3, 5)])
def test_pu3_metacyclic_faithful(m, n, r):
    rep = pu3_metacyclic(m, n, r)
    assert rep.group.size == 3 * m
    assert rep.dimension == 3
    assert rep.field_tag == "complex"
    # the linear lift satisfies the group's own table
    assert rep.homomorphism_residual() < 1e-12


def test_pu3_degenerate_m1():
    rep = pu3_metacyclic(1, 3, 0)
    assert rep.group.size == 3
    assert rep.homomorphism_residual() < 1e-12


def test_pu3_validation():
    with pytest.raises(InvalidInputError):
        pu3_metacyclic(7, 5, 2)
    with pytest.raises(InvalidParametersError):
        pu3_metacyclic(9, 3, 4)  # gcd(n(r-1), m) = 3
    with pytest.raises(InvalidParametersError):
        pu3_metacyclic(7, 3, 1)  # trivial twist


# --- the all-pairs residual in row blocks ------------------------------------

# tracemalloc peak of the all-pairs residual above what was allocated
# before the call.  Its blocks hold about 2^16 product entries: the
# order-240 central product traces 1.7 MB and the order-309 PU(3)
# model 3.4 MB
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


def test_all_pairs_kernels_stay_within_block_budget(central_product_240, pu3_309):
    assert central_product_240.group.size == 240 and pu3_309.group.size == 309
    for rep in (central_product_240, pu3_309):
        assert _traced_peak(rep.homomorphism_residual) < ALL_PAIRS_TRACED_BOUND


def test_blocked_residual_is_one_pass_bitwise(central_product_240, pu3_309):
    # both fixtures span several row blocks; the blocked residual is the
    # one of np.einsum over all pairs at once, bit for bit
    for rep in (central_product_240, pu3_309):
        table, mats = rep.group.table, rep.matrices
        assert len(_row_blocks(mats.shape[0], mats.shape[0] * mats.shape[1] ** 2)) > 1
        one_pass = np.max(np.abs(np.einsum("aij,bjk->abik", mats, mats) - mats[table]))
        assert rep.homomorphism_residual().hex() == float(one_pass).hex()


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
    # a table parameter past the cap names no model; 3^700 would overflow a float
    with pytest.raises(BudgetError,
                       match=r"^a klein-by-3power parameter exceeds the order cap 512$"):
        so5_model("klein-by-3power", 700)


def check_embedding(group, model):
    rep = embed_into_so5(group, model)
    assert rep.group is group
    assert rep.dimension == 5
    assert rep.field_tag == "real"
    assert rep.homomorphism_residual() < DEFAULT_TOLERANCE
    return rep


def test_embed_abelian_rank_two():
    check_embedding(abelian([4, 5]), abelian_so5((4, 5)))
    check_embedding(cyclic(17), abelian_so5((17,)))
    # the planes follow the invariant factors: Z2 x Z3 x Z5 is Z30
    check_embedding(abelian([2, 3, 5]), abelian_so5((2, 3, 5)))
    check_embedding(abelian([6, 4]), abelian_so5((6, 4)))


def test_embed_abelian_rank_three_unsupported():
    with pytest.raises(UnsupportedCaseError, match="rank above 2"):
        abelian_so5((2, 2, 2))
    with pytest.raises(UnsupportedCaseError, match="rank above 2"):
        abelian_so5((2, 6, 10, 1))


def test_embed_abelian_hint_mismatch():
    # a model of another group fails in the isomorphism match
    with pytest.raises(InvalidInputError, match="^the model is not a model of the group$"):
        embed_into_so5(dihedral(6), abelian_so5((6,)))


def test_embed_polyhedral_product():
    g = direct_product(alternating(4), cyclic(5))
    check_embedding(g, so3_times_rotation(5, "tetra"))


def test_embed_klein_family():
    g = direct_product(klein_by_cyclic3(1), cyclic(5))
    check_embedding(g, klein_twist(1, 5))


def test_embed_central_products():
    lift = binary_tetrahedral()
    for m in (2, 4):
        check_embedding(cyclic_central_product(m, lift), so4_central_product("tetra", m))


def test_central_product_names_its_cover_as_build_group_does():
    # A4 is the table's alias of tetra, as for a polyhedral product
    lift = binary_tetrahedral()
    check_embedding(lift, so4_central_product("A4", 2))
    with pytest.raises(InvalidInputError, match=r"^no binary quaternion model for kind 'q8'$"):
        so4_central_product("Q8", 2)


def test_embed_unitary_mixed():
    check_embedding(q8_by_cyclic3(2), u2_mixed(1, 1, 1))


def test_embed_dihedral_mixed():
    check_embedding(binary_dihedral(12), o4_in_so5(2, 3))
    check_embedding(dihedral(6), o4_in_so5(1, 3))


def test_embed_two_group_refused():
    two_group = r"^2-groups with an index-2 cyclic subgroup have no explicit recipe here$"
    for spec in (("q8",), ("quaternion8",), ("q8-by-3power", 0), ("binary-dihedral", 8),
                 ("binary-dihedral", 16)):
        with pytest.raises(UnsupportedCaseError, match=two_group):
            so5_model(*spec)
    with pytest.raises(UnsupportedCaseError, match=r"^no SO\(5\) recipe for binary-dihedral:24$"):
        so5_model("binary-dihedral", 24)
    with pytest.raises(UnsupportedCaseError, match=r"^no SO\(5\) recipe for metacyclic:7,3,2$"):
        so5_model("metacyclic", 7, 3, 2)
    with pytest.raises(InvalidInputError, match=r"^unknown group name 'mystery'$"):
        so5_model("mystery")


def test_embed_wrong_group_for_hint():
    with pytest.raises(InvalidInputError, match="^the model is not a model of the group$"):
        embed_into_so5(cyclic(12), klein_twist(1, 1))
    # the model must be a real one that fits SO(5)
    with pytest.raises(InvalidInputError, match="^the model must be real"):
        embed_into_so5(build_metacyclic(7, 3, 2), pu3_metacyclic(7, 3, 2))
