"""Cross-check survey for the orthogonal embedding recipes.

Each recipe states its generators once, as integer coefficients over
zeta_n = e^(2 pi i/n), n = lcm(4, order).  The table is decided by an
exact closure modulo p, the least odd prime p = 1 (mod n), which the
code chooses; reduction modulo such a prime is injective on a finite
matrix group, so the rep is faithful by construction.  This script
builds every supported embedding case and prints the group order, that
prime, and the float cross-check: the homomorphism residual of the
source evaluated at zeta_n, over all pairs of the exact table.
Residuals should sit at the float noise floor (1e-14 or so); anything
above ``groups.DEFAULT_TOLERANCE`` (1e-9) is a bug in a source, not
roundoff.  Run it as ``PYTHONPATH=src python scripts/embedding_residuals.py``.
"""

import sys
from functools import partial

from isom4.embeddings import (
    abelian_so5,
    embed_into_so5,
    klein_twist,
    o4_in_so5,
    so4_central_product,
    so5_model,
    u2_mixed,
)
from isom4.errors import UnsupportedCaseError
from isom4.groups import (
    DEFAULT_TOLERANCE,
    abelian,
    binary_dihedral,
    binary_icosahedral,
    binary_octahedral,
    cyclic,
    cyclic_central_product,
    dihedral,
    direct_product,
    klein_by_cyclic3,
    q8_by_cyclic3,
    quaternion_group,
)


def cases():
    """(label, group, model thunk) of every supported embedding case."""
    yield "abelian Z4 x Z15", abelian([4, 15]), partial(abelian_so5, (4, 15))
    yield "cyclic Z97", cyclic(97), partial(abelian_so5, (97,))
    for poly, lift in (("octa", binary_octahedral()),
                       ("icosa", binary_icosahedral())):
        for m in (2, 4):
            yield (f"Z{m} x_Z2 binary-{poly}", cyclic_central_product(m, lift),
                   partial(so4_central_product, poly, m))
    for r, m_plus in ((1, 1), (1, 5), (2, 1)):
        group = direct_product(klein_by_cyclic3(r), cyclic(m_plus))
        yield f"klein twist r={r} m+={m_plus}", group, partial(klein_twist, r, m_plus)
    yield "Q8 by 9-cycle", q8_by_cyclic3(2), partial(u2_mixed, 1, 1, 1)
    yield "dicyclic-12", binary_dihedral(12), partial(o4_in_so5, 2, 3)
    yield "D6 mixed", dihedral(6), partial(o4_in_so5, 1, 3)


def main():
    worst = 0.0
    print(f"{'case':>28} {'order':>6} {'prime':>6} {'residual':>10}")
    # Q8 is refused on purpose: no printed recipe covers 2-groups
    refused = ("Q8 (expect refusal)", quaternion_group(), partial(so5_model, "q8"))
    for label, group, model in [*cases(), refused]:
        try:
            rep = embed_into_so5(group, model())
        except UnsupportedCaseError as exc:
            print(f"{label:>28} {group.size:>6} {'--':>6} {'refused':>10}  ({exc})")
            continue
        residual = rep.homomorphism_residual()
        worst = max(worst, residual)
        print(f"{label:>28} {group.size:>6} {rep.prime:>6} {residual:>10.2e}")
    print(f"\nmax residual {worst:.3e}")
    return 0 if worst < DEFAULT_TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
