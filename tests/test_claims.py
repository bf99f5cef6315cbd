import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isom4.claims import B2_MAX, ClassificationQuery, StatementRecord, classify
from isom4.errors import InvalidInputError, InvalidParametersError
from isom4.groups import (
    abelian,
    alternating,
    build_metacyclic,
    cyclic,
    dihedral,
    matches_family,
)

queries = st.builds(
    ClassificationQuery,
    b2=st.integers(min_value=0, max_value=B2_MAX),
    order_parity=st.sampled_from(["odd", "even"]),
    pseudofree=st.sampled_from([None, True, False]),
    intersection_form=st.sampled_from([None, "odd", "even", "definite"]),
)


def ids_for(**kwargs):
    return {r.id for r in classify(ClassificationQuery(**kwargs))}


# --- query validation --------------------------------------------------------


def test_query_rejects_bad_b2():
    with pytest.raises(InvalidInputError):
        ClassificationQuery(b2=-1, order_parity="odd")
    with pytest.raises(InvalidInputError):
        ClassificationQuery(b2=B2_MAX + 1, order_parity="odd")
    # 1.7 and "2" used to be read as b2 = 1 and b2 = 2
    for bad in (1.7, "2", 2.0):
        with pytest.raises(InvalidParametersError, match="is not an integer"):
            ClassificationQuery(b2=bad, order_parity="odd")
    assert ClassificationQuery(b2=np.int64(2), order_parity="odd").b2 == 2


def test_query_rejects_bad_enums():
    with pytest.raises(InvalidInputError):
        ClassificationQuery(b2=0, order_parity="prime")
    with pytest.raises(InvalidInputError):
        ClassificationQuery(b2=0, order_parity="odd", intersection_form="spin")
    with pytest.raises(InvalidInputError):
        ClassificationQuery(b2=0, order_parity="odd", pseudofree="yes")


def test_classify_rejects_raw_dicts():
    with pytest.raises(InvalidInputError):
        classify({"b2": 0, "order_parity": "odd"})


# --- statement lookups --------------------------------------------------------


def test_odd_sphere_lookup():
    ids = ids_for(b2=0, order_parity="odd")
    assert "odd-order-structure" in ids
    assert "odd-b2-0-abelian" in ids
    assert "odd-b2-0-pseudofree-cyclic" not in ids  # needs pseudofree=True
    assert "index-two-so5" not in ids               # needs b2 >= 2


def test_pseudofree_gate():
    with_flag = ids_for(b2=0, order_parity="odd", pseudofree=True)
    assert "odd-b2-0-pseudofree-cyclic" in with_flag
    without = ids_for(b2=0, order_parity="odd", pseudofree=False)
    assert "odd-b2-0-pseudofree-cyclic" not in without


def test_even_order_suppresses_odd_records():
    ids = ids_for(b2=0, order_parity="even")
    assert not any(i.startswith("odd-") for i in ids)
    assert "homologically-trivial-structure" in ids


def test_b2_one_lookup():
    # odd order at b2 = 1: the structure dichotomy and CP^2's projective
    # plane family, the one lookup of the dichotomy not asserted above
    ids = ids_for(b2=1, order_parity="odd")
    assert "odd-order-structure" in ids
    assert "odd-nonabelian-projective-plane" in ids


def test_b2_two_lookup():
    ids = ids_for(b2=2, order_parity="odd")
    assert "odd-b2-2-cyclic" in ids
    assert "index-two-so5" in ids
    assert "normal-cyclic-index-120" in ids
    assert "odd-b2-high-abelian" not in ids


def test_high_b2_switches_trivial_action_conclusion():
    low = classify(ClassificationQuery(b2=1, order_parity="even"))
    high = classify(ClassificationQuery(b2=4, order_parity="even"))
    low_rec = next(r for r in low if r.id == "homologically-trivial-structure")
    high_rec = next(r for r in high if r.id == "homologically-trivial-structure")
    assert low_rec.families == ("polyhedral", "metacyclic-odd-projective")
    assert high_rec.families == ("cyclic",)


def test_form_gated_records():
    definite = ids_for(b2=2, order_parity="even", intersection_form="definite")
    assert "definite-elementary-two-rank" in definite
    even_form = ids_for(b2=2, order_parity="even", intersection_form="even")
    assert "even-form-b2-2-extensions" in even_form
    odd_form = ids_for(b2=2, order_parity="even", intersection_form="odd",
                       pseudofree=True)
    assert "odd-form-pseudofree-families" in odd_form
    assert "odd-form-pseudofree-families" not in ids_for(
        b2=2, order_parity="even", intersection_form="odd")


def test_bounds_carried_on_records():
    records = classify(ClassificationQuery(b2=3, order_parity="even"))
    by_id = {r.id: r for r in records}
    assert by_id["index-two-so5"].bounds == (("subgroup_index", 2),)
    assert by_id["normal-cyclic-index-120"].bounds == (("cyclic_normal_index", 120),)


def test_to_json_shape():
    record = classify(ClassificationQuery(b2=2, order_parity="even"))[0]
    data = record.to_json()
    assert set(data) == {"id", "hypothesis", "conclusion", "families", "bounds"}
    assert isinstance(data["families"], list)
    assert isinstance(data["bounds"], dict)


# --- properties ------------------------------------------------------------------


@given(queries)
def test_every_query_matches_something(q):
    records = classify(q)
    assert records  # the trivial-action record has no gate
    assert len({r.id for r in records}) == len(records)
    for r in records:
        assert r.hypothesis and r.conclusion


@given(queries)
def test_records_are_statement_records(q):
    for r in classify(q):
        assert isinstance(r, StatementRecord)
        assert isinstance(r.families, tuple)
        assert isinstance(r.bounds, tuple)


@given(queries)
def test_records_are_table_constants(q):
    # the table's records are built once: two lookups return the same
    # objects, and exactly one of the two trivial-action rows matches
    first, second = classify(q), classify(q)
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert [r.id for r in first].count("homologically-trivial-structure") == 1


# a member of each family tag the table can name (None: no witness)
FAMILY_WITNESSES = {
    "cyclic": cyclic(5),
    "abelian-rank-le-2": abelian([3, 9]),
    "polyhedral": alternating(4),
    "odd-cyclic": cyclic(7),
    "odd-cyclic-by-z2": dihedral(6),
    "odd-cyclic-by-z4": build_metacyclic(5, 4, 2),
    "odd-cyclic-by-klein": abelian([3, 2, 2]),
    "metacyclic-odd-projective": build_metacyclic(7, 3, 2),
    "binary-dihedral-times-odd-cyclic": None,
    "odd-metacyclic-2power-by-z2": None,
}


def test_all_declared_family_tags_resolve():
    tags = set()
    for b2 in range(B2_MAX + 1):
        for parity in ("odd", "even"):
            for form in (None, "odd", "even", "definite"):
                q = ClassificationQuery(b2=b2, order_parity=parity,
                                        pseudofree=True,
                                        intersection_form=form)
                for r in classify(q):
                    tags.update(r.families)
    # every tag the table mentions must be a real recognizer
    assert tags <= set(FAMILY_WITNESSES)
    for tag in sorted(tags):
        g = FAMILY_WITNESSES[tag]
        if g is not None:
            assert matches_family(g, tag), tag
