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

from isom4.embeddings import embed_into_so5, is_faithful_rep
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
)


def cases():
    yield "abelian Z4 x Z15", abelian([4, 15]), {"kind": "abelian"}
    yield "cyclic Z97", cyclic(97), {"kind": "abelian"}
    for poly, lift in (("octa", binary_octahedral()),
                       ("icosa", binary_icosahedral())):
        for m in (2, 4):
            yield (f"Z{m} x_Z2 binary-{poly}", cyclic_central_product(m, lift),
                   {"kind": "central-product", "poly": poly, "m": m})
    for r, m_plus in ((1, 1), (1, 5), (2, 1)):
        group = direct_product(klein_by_cyclic3(r), cyclic(m_plus))
        yield (f"klein twist r={r} m+={m_plus}", group,
               {"kind": "klein-3power", "power": r, "m_plus": m_plus})
    yield ("Q8 by 9-cycle", q8_by_cyclic3(2),
           {"kind": "u2-mixed", "r": 1, "s": 1, "m_plus": 1})
    yield ("dicyclic-12", binary_dihedral(12),
           {"kind": "dihedral-mixed", "m": 2, "k": 3})
    yield ("D6 mixed", dihedral(6), {"kind": "dihedral-mixed", "m": 1, "k": 3})
    # refused on purpose: no printed recipe covers 2-groups
    yield "Z2^3 (expect refusal)", abelian([2, 2, 2]), {"kind": "two-group"}


def main():
    worst = 0.0
    print(f"{'case':>28} {'order':>6} {'prime':>6} {'residual':>10} {'faithful':>9}")
    for label, group, hint in cases():
        try:
            rep = embed_into_so5(group, hint)
        except UnsupportedCaseError as exc:
            print(f"{label:>28} {group.size:>6} {'--':>6} {'--':>10} {'refused':>9}  ({exc})")
            continue
        residual = rep.homomorphism_residual()
        worst = max(worst, residual)
        print(f"{label:>28} {group.size:>6} {rep.prime:>6} {residual:>10.2e} "
              f"{str(is_faithful_rep(rep)):>9}")
    print(f"\nmax residual {worst:.3e}")
    return 0 if worst < DEFAULT_TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
