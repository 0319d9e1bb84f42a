import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypothesis import strategies as st  # noqa: E402

from glattice.intmat import IntMatrix, LatticeBasis, hnf_from_rows  # noqa: E402
from glattice.matgroup import MatGroup, orbit  # noqa: E402


def orbit_span(g: MatGroup, v) -> LatticeBasis:
    """Oracle for ``stable_span``: HNF basis of the span of the listed orbit of v."""
    return hnf_from_rows(sorted(orbit(g, v).elements), g.dim)


def unimodular_matrices(n: int):
    """Strategy: products of elementary row additions and row sign changes in GL_n(Z)."""
    op = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))

    def product(ops) -> IntMatrix:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j, c in ops:
            if i == j:
                rows[i] = [-x for x in rows[i]]
            else:
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        return IntMatrix.from_rows(rows)

    return st.lists(op, max_size=12).map(product)
