"""Walk through the Weyl-group symmetric-rank table.

For each irreducible root system we list every lattice between the root
and weight lattices, the minimal size of a Weyl-stable generating set,
and the orbit that achieves it.  At small rank we re-derive each number
two independent ways: the parabolic-stabilizer formula and an explicit
orbit enumeration, then confirm minimality by bounded-exhaustive search.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from glattice.matgroup import orbit, stable_span
from glattice.rootsys import RootSystemSpec, build, expected_symrank, rdim_lower_bound, weyl_symrank_table
from glattice.search import symrank_search

print("Symmetric ranks of Weyl lattices (rank <= 6)")
print(f"{'system':>7} {'lattice':>9} {'symrank':>8} {'generator':>10}  checks")
for row in weyl_symrank_table(6):
    model = build(RootSystemSpec(row.family, row.rank))
    g = model.matgroup()
    orb = orbit(g, row.witness)
    span_ok = stable_span(g, row.witness) == row.target.basis
    closed_form = expected_symrank(row)
    line = (
        f"{row.family}{row.rank:>2} {row.lattice_label:>9} {row.symrank:>8} "
        f"{row.generator_label:>10}  orbit={orb.size} closed_form={closed_form} span={'ok' if span_ok else 'NO'}"
    )
    if not row.spans_labelled_lattice:
        line += "  (orbit spans the index-2 standard sublattice)"
    print(line)

print()
print("Bounded-exhaustive minimality at radius 3, rank <= 3:")
for row in weyl_symrank_table(3):
    model = build(RootSystemSpec(row.family, row.rank))
    res = symrank_search(model.matgroup(), row.target.basis, radius=3)
    print(
        f"  {row.family}{row.rank} {row.lattice_label}: minimum within box = {res.upper_bound}"
        f" (table {expected_symrank(row)}), witness {[w.entries for w in res.witness]}"
    )

print()
print("Resulting lower bounds on the maximal representation dimension:")
for n in range(1, 11):
    b = rdim_lower_bound(n)
    print(f"  n={n:>2}: {b.value:>5}  via ({b.witness_kind} lattice, W({b.witness_family}{b.witness_rank}))")
