"""Monomial groups in odd prime dimension: the three-sublattice analysis.

When a monomial group contains every sign change and a p-cycle, its only
nontrivial stable sublattices are Z^p itself, the even-coordinate-sum
lattice, and the lattice generated by the all-ones vector.  Each admits a
generating orbit of explicitly known size, the largest being 2^p.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from glattice.gf2cyclo import diag_generators
from glattice.matgroup import MatGroup, orbit
from glattice.monomial import (
    cycle_matrix,
    full_monomial_group,
    o2_diagonal_part,
    project_pi,
    three_sublattice_report,
)

for p in (5, 7, 11, 13):
    rep = three_sublattice_report(p)
    status = "2p(p-1) < 2^p" if rep.inequality_holds else "2p(p-1) >= 2^p (hypothesis p >= 7 matters!)"
    print(f"p = {p}: {status}")
    for row in rep.rows:
        print(f"    {row.lattice_label:>4}: orbit of {row.witness} has size {row.orbit_size}, spans: {row.spans}")

print()
print("BFS cross-check at p = 7:")
mon7 = full_monomial_group(7)
for v in [(1, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0), (1,) * 7]:
    print(f"    |orbit{v}| = {orbit(mon7, v).size}")

print()
print("Maximal normal 2-subgroups as sign subspaces (p = 7):")
examples = [
    ("<7-cycle, -I>", MatGroup(7, (cycle_matrix(7), diag_generators(7)[0]))),
    ("<7-cycle, D_1>", MatGroup(7, (cycle_matrix(7), diag_generators(7)[1]))),
]
for label, g in examples:
    pi = project_pi(g)
    basis = o2_diagonal_part(g)
    print(f"    {label}: pi-image order {pi.order}, sign subspace dimension {len(basis)}")
