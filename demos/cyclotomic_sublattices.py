"""From GF(2) cyclotomic factors to sign groups and binary sublattices.

For an odd prime p, the factorization of x^p - 1 over GF(2) indexes three
parallel structures: the shift-stable subspaces of F_2^p, the shift-stable
diagonal sign groups, and the primitive shift-and-sign-stable sublattices
of Z^p.  This script prints all three side by side.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from glattice.gf2cyclo import (
    binary_sublattices,
    cp_stable_subspaces,
    diag_generators,
    factor_xp_minus_1,
)
from glattice.intmat import full_lattice, index
from glattice.monomial import support_reduce

P = 7
fact = factor_xp_minus_1(P)
print(f"x^{P} - 1 over GF(2):")
for i, (f, coset) in enumerate(zip(fact.factors, fact.cosets)):
    print(f"  f_{i} = {f.coeff_string()} (degree {f.degree}), exponent coset {sorted(coset)}")

print()
print("Sign matrices from the complementary products:")
for i, d in enumerate(diag_generators(P)):
    print(f"  D_{i} = diag{tuple(d[j, j] for j in range(P))}")

print()
subs = cp_stable_subspaces(P)
print("Subsets of components -> subspace dimension -> sublattice of Z^p:")
for subset, lat in sorted(binary_sublattices(P).items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
    dim = len(subs[subset])
    idx = index(lat, full_lattice(P)) if lat.rank == P else "-"
    extras = ""
    if subset and subset != frozenset({0}):
        v = support_reduce(lat, P)
        extras = f"  binary generator {v} (support {sum(map(bool, v))} <= {2 * P // 3})"
    print(f"  S={str(sorted(subset)):>10}: subspace dim {dim}, lattice index {idx}{extras}")
