import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dataclasses import dataclass  # noqa: E402
from math import gcd  # noqa: E402
from typing import NamedTuple  # noqa: E402

from hypothesis import strategies as st  # noqa: E402

from glattice._primes import ceil_log2, pow2_at_least  # noqa: E402
from glattice.bounds import LOG_FRAC_BITS  # noqa: E402
from glattice.gf2cyclo import GF2Poly, binary_sublattices, factor_xp_minus_1  # noqa: E402
from glattice.intmat import IntMatrix, IntVector, LatticeBasis, _hnf_insert, _xgcd, as_vector, full_lattice, hnf_from_rows, zero_lattice  # noqa: E402
from glattice.matgroup import MatGroup, closure, orbit  # noqa: E402
from glattice.search import _rep_key  # noqa: E402


def log2_upper(x: int) -> int:
    """Oracle for ``log2_fixed_upper``: the least k with 2^k >= x^(2^LOG_FRAC_BITS), from the power itself."""
    return ceil_log2(x ** (1 << LOG_FRAC_BITS))


class LemmaCheck(NamedTuple):
    hypothesis: bool
    conclusion: bool
    implication_ok: bool


def check_numerical_lemma(a: int, c: int, b: int) -> LemmaCheck:
    """The doubling lemma: b >= a and 2^a >= a c imply 2^b >= b c."""
    if min(a, b, c) < 1:
        raise ValueError("arguments must be positive")
    hyp = b >= a and pow2_at_least(a, a * c)
    concl = pow2_at_least(b, b * c)
    return LemmaCheck(hyp, concl, (not hyp) or concl)


def is_primitive(lattice: LatticeBasis) -> bool:
    """True iff the lattice is not m*M for any m >= 2 (rank 0 is not primitive)."""
    if lattice.rank == 0:
        return False
    g = 0
    for e in lattice.basis.entries:
        g = gcd(g, e)
    return g == 1


def stabilizer_order(g: MatGroup, v) -> int:
    """|G| / |orbit(v)| (orbit-stabilizer), checking that the orbit size divides |G|."""
    _, order = closure(g)
    size = orbit(g, v).size
    if order % size != 0:
        raise AssertionError("orbit size does not divide group order")
    return order // size


def binary_sublattice(p: int, subset) -> LatticeBasis:
    """The entry of ``binary_sublattices(p)`` for one subset of components."""
    return binary_sublattices(p)[frozenset(subset)]


def binary_coefficient_vector(p: int, i: int) -> IntVector:
    """v_i: the 0/1 coefficient vector of g_i, the product of every factor of x^p - 1 but the i-th."""
    return IntVector(factor_xp_minus_1(p).complementary_product(i).coeffs(p))


def cyclic_shifts(v) -> list[tuple[int, ...]]:
    """The n cyclic shifts of a vector of length n, the unshifted one first."""
    e = as_vector(v).entries
    n = len(e)
    return [tuple(e[(j - k) % n] for j in range(n)) for k in range(n)]


def binary_sublattices_oracle(p: int) -> dict[frozenset, LatticeBasis]:
    """Oracle for ``binary_sublattices``: for each subset S of the components, in
    the bit order of its mask, ``hnf_from_rows`` of 2 Z^p and the integer cyclic
    shifts of v_i for i in S (the zero lattice for the empty S)."""
    m = len(factor_xp_minus_1(p).factors)
    shifts = [cyclic_shifts(binary_coefficient_vector(p, i)) for i in range(m)]
    doubles = [tuple(2 * (k == j) for k in range(p)) for j in range(p)]
    out = {}
    for bits in range(2**m):
        s = [i for i in range(m) if bits >> i & 1]
        out[frozenset(s)] = hnf_from_rows([r for i in s for r in shifts[i]] + doubles, p) if s else zero_lattice(p)
    return out


def _powmod(a: GF2Poly, e: int, modulus: GF2Poly) -> GF2Poly:
    """a^e mod modulus, by square-and-multiply."""
    out, base = GF2Poly(1) % modulus, a % modulus
    while e:
        if e & 1:
            out = (out * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return out


def _compose_mod(f: GF2Poly, arg: GF2Poly, modulus: GF2Poly) -> GF2Poly:
    """f(arg) mod modulus, by Horner's rule."""
    out = GF2Poly(0)
    for k in range(f.degree, -1, -1):
        out = (out * arg + GF2Poly(f.coeff(k))) % modulus
    return out


def coset_labels_oracle(p: int, factors) -> list[tuple[frozenset, GF2Poly]]:
    """Oracle for the coset labels of ``factor_xp_minus_1``: (C, f) for each
    nontrivial cyclotomic coset C of p in order of min C, where zeta = x mod the
    factor of smallest bits and f is the one factor with f(zeta^(min C)) = 0."""
    anchor = min(factors, key=lambda f: f.bits)
    seen, out = set(), []
    for c in range(1, p):
        if c in seen:
            continue
        coset = frozenset(c * 2**k % p for k in range(p))
        seen |= coset
        zeta_c = _powmod(GF2Poly(2), c, anchor)
        (hit,) = [f for f in factors if _compose_mod(f, zeta_c, anchor).is_zero()]
        out.append((coset, hit))
    return out


def orbit_span(g: MatGroup, *vectors) -> LatticeBasis:
    """Oracle for ``stable_span``: HNF basis of the span of the listed orbits of the vectors."""
    return hnf_from_rows(sorted(set().union(*(orbit(g, v).elements for v in vectors))), g.dim)


def closure_oracle(g: MatGroup) -> tuple[frozenset, int]:
    """Oracle for ``closure``: element entry tuples and order, by BFS over matrix products."""
    ident = IntMatrix.identity(g.dim)
    seen = {ident.entries}
    queue = [ident]
    for cur in queue:
        for gen in g.generators:
            nxt = cur.mul(gen)
            if nxt.entries not in seen:
                seen.add(nxt.entries)
                queue.append(nxt)
    return frozenset(seen), len(seen)


def bfs_orbit(gens, v) -> frozenset:
    """Orbit of v by plain BFS with full matrix-vector products (oracle)."""
    seen = {v}
    queue = [v]
    for cur in queue:
        for h in gens:
            nxt = apply(h, cur).entries
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def orbit_records_oracle(gl: MatGroup, order) -> list[tuple]:
    """Oracle for ``search._orbit_records``: (size, rep, span rows) of each kept orbit, sorted.

    Runs a full BFS from the first vector of each orbit in the order of
    the basis vectors, then the candidates of order.  An orbit is kept
    exactly when its size is at most the cap in force at its first vector
    in that order; the cap is the incumbent, which starts as the total
    size of the basis vectors' orbits (or a smaller spanning orbit among
    them) and falls to the size of each smaller kept orbit that spans
    Z^r.  The rep is the ``_rep_key`` least vector of the orbit.
    """
    r = gl.dim
    full = full_lattice(r)
    basis_vectors = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    visited: set[tuple[int, ...]] = set()
    records = []
    incumbent = None
    for k, v in enumerate(basis_vectors + list(order)):
        if k == r and incumbent is None:
            incumbent = sum(size for size, _, _ in records)
        if v in visited:
            continue  # not the first vector of its orbit
        orb = bfs_orbit(gl.generators, v)
        visited.update(orb)
        if incumbent is not None and len(orb) > incumbent:
            continue
        span = hnf_from_rows(sorted(orb), r)
        records.append((len(orb), min(orb, key=_rep_key), tuple(span.rows())))
        if span == full and (incumbent is None or len(orb) < incumbent):
            incumbent = len(orb)
    return sorted(records, key=lambda rec: (rec[0], _rep_key(rec[1])))


def min_spanning_selection_oracle(records, r: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Oracle for ``search._min_spanning_selection``: the same branch-and-bound over every record.

    No record is dropped for repeating an earlier record's span.
    """
    full_rows = tuple(full_lattice(r).rows())

    def insert(span, rows):
        for row in rows:
            span = _hnf_insert(span, row)
        return span

    if insert((), (row for rec in records for row in rec.span_rows)) != full_rows:
        raise AssertionError("box orbits fail to span their own lattice")
    # suffix_rate[i] = (a, b): a/b is the least size per unit of rank,
    # s_j / k_j, over records j >= i; an orbit of size s_j whose span has
    # rank k_j raises the rank of a span by at most k_j
    suffix_rate: list[tuple[int, int]] = [(1, 0)] * len(records)
    rate = (1, 0)  # 1/0 stands for infinity; every k_j is at least 1
    for i in range(len(records) - 1, -1, -1):
        s, k = records[i].size, len(records[i].span_rows)
        if s * rate[1] < rate[0] * k:
            rate = (s, k)
        suffix_rate[i] = rate

    best_size = None
    best_reps: tuple[tuple[int, ...], ...] | None = None

    def dfs(i: int, size: int, span: tuple[tuple[int, ...], ...], chosen: list[int]):
        nonlocal best_size, best_reps
        if span == full_rows:
            # the prunes below let only strictly smaller selections get here
            best_size = size
            best_reps = tuple(sorted((records[j].rep for j in chosen), key=_rep_key))
            return
        if i == len(records):
            return
        if best_size is not None:
            # records are sorted by size, so any completion costs at least
            # records[i].size, and closing the rank deficit with records i..
            # costs at least deficit * a / b: no strictly cheaper completion
            a, b = suffix_rate[i]
            if size + records[i].size >= best_size or (r - len(span)) * a > (best_size - size - 1) * b:
                return
        rec = records[i]
        new_span = insert(span, rec.span_rows)
        if new_span != span:
            chosen.append(i)
            dfs(i + 1, size + rec.size, new_span, chosen)
            chosen.pop()
        dfs(i + 1, size, span, chosen)

    dfs(0, 0, (), [])
    if best_reps is None:
        raise AssertionError("search found no spanning selection")
    return best_size, best_reps


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


def apply(m: IntMatrix, v) -> IntVector:
    """Matrix-vector product m v for a column vector v (oracle for the moved-row action)."""
    vv = as_vector(v)
    if vv.dim != m.cols:
        raise ValueError("dimension mismatch in matrix-vector product")
    return IntVector(tuple(sum(m[i, j] * vv[j] for j in range(m.cols)) for i in range(m.rows)))


def det(m: IntMatrix) -> int:
    """Fraction-free (Bareiss) determinant of a square matrix (oracle)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    a = [list(r) for r in m.to_rows()]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pk - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """P @ C @ Q = D with P, Q unimodular and D diagonal, d_i | d_{i+1}."""

    P: IntMatrix
    D: IntMatrix
    Q: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(self.D.rows))


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form of a square matrix, with transforms accumulated (oracle)."""
    if m.rows != m.cols:
        raise ValueError("snf wants a square matrix")
    n = m.rows
    a = [list(r) for r in m.to_rows()]
    p = [list(r) for r in IntMatrix.identity(n).to_rows()]
    q = [list(r) for r in IntMatrix.identity(n).to_rows()]

    def row_op(i, j, x, y, z, w):
        # rows (i, j) <- (x*row_i + y*row_j, z*row_i + w*row_j); same on p
        for arr in (a, p):
            ri, rj = arr[i], arr[j]
            for t in range(len(ri)):
                ri[t], rj[t] = x * ri[t] + y * rj[t], z * ri[t] + w * rj[t]

    def col_op(i, j, x, y, z, w):
        # cols (i, j) <- (x*col_i + y*col_j, z*col_i + w*col_j); same on q
        for arr in (a, q):
            for row in arr:
                row[i], row[j] = x * row[i] + y * row[j], z * row[i] + w * row[j]

    def clear_cross(t: int):
        """Zero out column t below and row t right of the pivot at (t, t)."""
        while True:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    x, y = a[t][t], a[i][t]
                    if y % x == 0:
                        row_op(t, i, 1, 0, -(y // x), 1)
                    else:
                        g, s, u = _xgcd(x, y)
                        row_op(t, i, s, u, -(y // g), x // g)
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    x, y = a[t][t], a[t][j]
                    if y % x == 0:
                        col_op(t, j, 1, 0, -(y // x), 1)
                    else:
                        g, s, u = _xgcd(x, y)
                        col_op(t, j, s, u, -(y // g), x // g)
            if all(a[i][t] == 0 for i in range(t + 1, n)) and all(
                a[t][j] == 0 for j in range(t + 1, n)
            ):
                return

    for t in range(n):
        best = None
        for i in range(t, n):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            row_op(t, bi, 0, 1, 1, 0)
        if bj != t:
            col_op(t, bj, 0, 1, 1, 0)
        while True:
            clear_cross(t)
            offender = None
            for i in range(t + 1, n):
                if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            # fold the offending row into row t so the next pass shrinks the pivot
            row_op(t, offender, 1, 1, 0, 1)
        if a[t][t] < 0:
            for arr in (a, p):
                arr[t] = [-x for x in arr[t]]

    return SmithDecomposition(IntMatrix.from_rows(p), IntMatrix.from_rows(a), IntMatrix.from_rows(q))
