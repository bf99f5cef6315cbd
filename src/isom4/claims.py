"""Decision table for the headline classification statements.

A query fixes what is known about the manifold (middle Betti number,
intersection form) and about the action (order parity, pseudofreeness);
``classify`` returns every encoded statement whose hypotheses are met.
Records carry prose together with machine-checkable family tags, so a
caller holding a concrete group can test the conclusion through
``groups.matches_family``.

The table encodes statements, not proofs; where a statement assumes the
group order exceeds a universal constant, the record says so and the
constant is not reconciled across records.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .groups import _integer_fields

__all__ = [
    "B2_MAX",
    "ClassificationQuery",
    "StatementRecord",
    "classify",
]

# An effective isometric action in positive curvature forces
# chi(M) <= 7, so b2 <= 5 once M is simply connected.
B2_MAX = 5

_PARITIES = ("odd", "even")
_FORMS = ("odd", "even", "definite")


@dataclass(frozen=True)
class ClassificationQuery:
    """Hypothesis side of a classification lookup.

    ``pseudofree`` means every nontrivial element has only isolated
    fixed points; ``None`` leaves the condition unspecified, and
    records that require it are then omitted."""

    b2: int
    order_parity: str
    pseudofree: bool | None = None
    intersection_form: str | None = None

    def __post_init__(self):
        (b2,) = _integer_fields(self, "b2")
        if not 0 <= b2 <= B2_MAX:
            raise InvalidInputError(f"b2 must lie in [0, {B2_MAX}]")
        if self.order_parity not in _PARITIES:
            raise InvalidInputError("order_parity must be 'odd' or 'even'")
        if self.pseudofree is not None and not isinstance(self.pseudofree, bool):
            raise InvalidInputError("pseudofree must be a boolean or None")
        if self.intersection_form is not None and self.intersection_form not in _FORMS:
            raise InvalidInputError(
                "intersection_form must be 'odd', 'even' or 'definite'"
            )


@dataclass(frozen=True)
class StatementRecord:
    """One matched statement.

    ``families`` lists the structure tags the conclusion pins down
    (testable via ``groups.matches_family``); ``bounds`` carries the
    numeric bounds the conclusion asserts, as (name, value) pairs."""

    id: str
    hypothesis: str
    conclusion: str
    families: tuple[str, ...] = ()
    bounds: tuple[tuple[str, int], ...] = ()

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "hypothesis": self.hypothesis,
            "conclusion": self.conclusion,
            "families": list(self.families),
            "bounds": {name: value for name, value in self.bounds},
        }


_LARGE = "the group order is at least a universal constant"


def _odd(q: ClassificationQuery) -> bool:
    return q.order_parity == "odd"


# (predicate on the query, the statement it unlocks), in report order;
# a statement whose conclusion depends on the query has one row per case
_TABLE = (
    (_odd, StatementRecord(
        id="odd-order-structure",
        hypothesis=f"the group has odd order and {_LARGE}",
        conclusion=(
            "the group is either abelian of rank at most 2, or non-abelian "
            "and isomorphic to a subgroup of the projective unitary group "
            "PU(3), generated by a metacyclic presentation with coprime "
            "parameters"
        ),
        families=("abelian-rank-le-2", "metacyclic-odd-projective"),
    )),
    (lambda q: _odd(q) and q.b2 == 0, StatementRecord(
        id="odd-b2-0-abelian",
        hypothesis="the group has odd order and the manifold has b2 = 0",
        conclusion="the group is abelian of rank at most 2",
        families=("abelian-rank-le-2",),
    )),
    (lambda q: _odd(q) and q.b2 == 0 and q.pseudofree is True, StatementRecord(
        id="odd-b2-0-pseudofree-cyclic",
        hypothesis=(
            "the group has odd order, the manifold has b2 = 0, and the "
            "action is pseudofree"
        ),
        conclusion=(
            "the group acts as a polyhedral or dihedral group on the "
            "4-sphere, hence is cyclic by oddness"
        ),
        families=("odd-cyclic",),
    )),
    (lambda q: _odd(q) and q.b2 <= 1, StatementRecord(
        id="odd-abelian-rank2-model",
        hypothesis=(
            f"the group has odd order, is abelian of rank 2, and {_LARGE}"
        ),
        conclusion=(
            "the manifold is homeomorphic to the 4-sphere or the complex "
            "projective plane"
        ),
        families=("abelian-rank-le-2",),
    )),
    (lambda q: _odd(q) and q.b2 == 1, StatementRecord(
        id="odd-nonabelian-projective-plane",
        hypothesis=f"the group has odd order, is non-abelian, and {_LARGE}",
        conclusion=(
            "the manifold is homeomorphic to the complex projective plane "
            "and the group embeds into PU(3) with a metacyclic presentation"
        ),
        families=("metacyclic-odd-projective",),
    )),
    (lambda q: _odd(q) and q.b2 == 2, StatementRecord(
        id="odd-b2-2-cyclic",
        hypothesis=(
            f"the group has odd order, the manifold has b2 = 2, and {_LARGE}"
        ),
        conclusion=(
            "the group acts trivially on second homology, contains a cyclic "
            "normal subgroup of finite index, and is itself cyclic"
        ),
        families=("odd-cyclic",),
    )),
    (lambda q: _odd(q) and q.b2 >= 3, StatementRecord(
        id="odd-b2-high-abelian",
        hypothesis=(
            f"the group has odd order, the manifold has b2 >= 3, and {_LARGE}"
        ),
        conclusion=(
            "the group fixes a point with faithful isotropy representation "
            "in SO(4) and is abelian of rank at most 2"
        ),
        families=("abelian-rank-le-2",),
    )),
    (lambda q: q.b2 >= 2, StatementRecord(
        id="index-two-so5",
        hypothesis=(
            "the manifold is not homeomorphic to the 4-sphere or the complex "
            f"projective plane with either orientation, and {_LARGE}"
        ),
        conclusion=(
            "the group contains a subgroup of index at most 2 isomorphic "
            "to a subgroup of SO(5)"
        ),
        bounds=(("subgroup_index", 2),),
    )),
    (lambda q: q.b2 >= 1, StatementRecord(
        id="normal-cyclic-index-120",
        hypothesis=(
            f"the manifold is not homeomorphic to the 4-sphere, and {_LARGE}"
        ),
        conclusion=(
            "the group contains a normal cyclic subgroup of index at most 120"
        ),
        bounds=(("cyclic_normal_index", 120),),
    )),
    (lambda q: q.intersection_form == "definite", StatementRecord(
        id="definite-elementary-two-rank",
        hypothesis=(
            "the intersection form is definite and an elementary abelian "
            "2-group of rank k acts effectively"
        ),
        conclusion="k is at most 4",
        bounds=(("elementary_two_rank", 4),),
    )),
    (lambda q: (q.b2 in (2, 3) and q.intersection_form == "odd"
                and q.pseudofree is True), StatementRecord(
        id="odd-form-pseudofree-families",
        hypothesis=(
            "the manifold has 2 <= b2 <= 3 with odd intersection form, no "
            "homologically trivial element fixes a surface, and "
            f"{_LARGE}"
        ),
        conclusion=(
            "the homologically trivial subgroup is Z_n, Z_n by Z_2, Z_n by "
            "Z_4, or Z_n by (Z_2 + Z_2), with n odd"
        ),
        families=(
            "odd-cyclic",
            "odd-cyclic-by-z2",
            "odd-cyclic-by-z4",
            "odd-cyclic-by-klein",
        ),
    )),
    (lambda q: q.b2 == 2 and q.intersection_form == "even", StatementRecord(
        id="even-form-b2-2-extensions",
        hypothesis=(
            "the manifold has b2 = 2 with even intersection form, and "
            f"{_LARGE}"
        ),
        conclusion=(
            "the group is an extension of a polyhedral group by a subgroup "
            "of Z_2 + Z_2; when the quotient is all of Z_2 + Z_2 the group "
            "is a binary dihedral group times an odd cyclic group, or an "
            "odd metacyclic group extended by a 2-power cyclic group and "
            "then by Z_2"
        ),
        families=(
            "binary-dihedral-times-odd-cyclic",
            "odd-metacyclic-2power-by-z2",
        ),
    )),
    (lambda q: q.b2 >= 3, StatementRecord(
        id="homologically-trivial-structure",
        hypothesis=f"the group acts trivially on second homology and {_LARGE}",
        conclusion="the group is cyclic",
        families=("cyclic",),
    )),
    (lambda q: q.b2 < 3, StatementRecord(
        id="homologically-trivial-structure",
        hypothesis=f"the group acts trivially on second homology and {_LARGE}",
        conclusion=(
            "the group is a polyhedral group, or a non-cyclic subgroup of "
            "PU(3)"
        ),
        families=("polyhedral", "metacyclic-odd-projective"),
    )),
)


def classify(query: ClassificationQuery) -> list[StatementRecord]:
    """All encoded statements whose hypotheses the query satisfies.

    A record that requires pseudofreeness is returned only when the
    query asserts it; a record with no parity or form requirement
    matches any query."""
    if not isinstance(query, ClassificationQuery):
        raise InvalidInputError("query must be a ClassificationQuery")
    return [record for matches, record in _TABLE if matches(query)]
