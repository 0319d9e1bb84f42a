"""Theta series of positive definite forms and the diagonal generating bound.

The set of vectors whose norm equals some diagonal entry of the Gram
matrix is stable under every automorphism of the form and contains the
standard basis, so its size bounds the symmetric rank of Z^n under the
full automorphism group from above.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from glattice.intmat import IntMatrix
from glattice.matgroup import MatGroup, orbit, stable_span
from glattice.rootsys import RootSystemSpec, build
from glattice.theta import GramForm, diagonal_bound, identity_form, theta_prefix

print("Theta coefficients of small forms (N_0..N_6):")
for label, form in [
    ("I_2", identity_form(2)),
    ("I_4", identity_form(4)),
    ("A2 root gram", GramForm(IntMatrix.from_rows([(2, -1), (-1, 2)]))),
    ("diag(1,3)", GramForm(IntMatrix.from_rows([(1, 0), (0, 3)]))),
]:
    pre = theta_prefix(form, 6)
    db = diagonal_bound(form)
    print(f"  {label:>13}: {pre.coefficients}   diagonal norms {sorted(db.diagonal_norms)} -> bound {db.bound}")

print()
print("Orbit inside a norm class (Weyl group of A2 in the root basis):")
a2 = build(RootSystemSpec("A", 2))
# the simple reflections act on weight coordinates; the Cartan matrix of A2 is symmetric,
# so their transposes are the action on root coordinates
g = MatGroup(2, [s.transpose() for s in a2.simple_reflections])
norm = a2.cartan[0, 0]  # the root (1, 0) is e_1, so its norm is the first diagonal entry of the Gram matrix
class_size = theta_prefix(GramForm(a2.cartan), norm).coefficients[norm]
print(f"  orbit of a root: size {orbit(g, (1, 0)).size}, norm {norm}, norm-class size {class_size},"
      f" spans Z^2: {stable_span(g, (1, 0)).is_full()}")
print("  (orbit size <= class size, and the orbit already generates the lattice)")
