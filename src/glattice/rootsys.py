"""Irreducible root systems, Weyl groups in the weight basis, and their lattices.

Coordinates: the weight lattice is identified with Z^n by sending the
fundamental weight lambda_i to the standard basis vector e_i.  The simple
reflection sigma_i then fixes every e_j except e_i and sends e_i to
e_i - alpha_i, where alpha_i expands in the lambda-basis as row i of the
Cartan matrix (Humphreys ordering and conventions).  These matrices are
the Weyl group's simple reflections for every Cartan matrix built here,
so nothing re-checks them when ``WeylModel.simple_reflections`` makes
them, on first read:

* c_ii = 2, so sigma_i(alpha_i) = -alpha_i and sigma_i^2 = 1;
* for i != j, sigma_i and sigma_j fix every e_k with k not in {i, j} and
  keep span(alpha_i, alpha_j), a complement of that fixed space since
  4 - c_ij c_ji > 0;
* on that span they generate the dihedral group of order 2 m_ij, where
  m_ij = 2, 3, 4 or 6 as c_ij c_ji = 0, 1, 2 or 3 (Humphreys,
  *Introduction to Lie Algebras and Representation Theory*, 9.4).

The tests check these Coxeter relations for every spec of rank at most 12.
The Weyl order is stored from its closed form, which the tests check
against ``matgroup.closure``.

Orbit sizes come from the same closed forms.  The orbit of a dominant
weight v has |W| / |W_J| vectors, where J is the set of nodes with v_i = 0
and W_J is the parabolic subgroup they generate.  Each component of J is
the Dynkin diagram of its own parabolic factor, so naming its family by its
bonds (:func:`stabilizer_order_dominant`) gives its order; there is no
second table of Weyl orders.

Two cells of the classical symmetric-rank table need care and are handled
explicitly here:

* for even D_n the orbit of lambda_1 spans the index-2 standard sublattice
  Lambda_r + Z lambda_1, not the full weight lattice (no single orbit can
  span it, since Lambda/Lambda_r is C2 x C2); the emitted row keeps the
  conventional label while span verification targets the lattice actually
  spanned;
* for F_4 the first simple root is long and its orbit spans an index-4
  sublattice; the short simple root alpha_3 (short since c_23 = -2) has the
  same orbit size (24) and does span, so it is the span witness.

An A_n L+d row is spanned by lambda_d or by a lambda_{n-1} + b lambda_n
(:func:`_a_intermediate_witness`), whichever has the smaller orbit;
:func:`expected_symrank` argues that this size is minimal.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, gcd, prod

from .errors import InvalidRank, KindUnavailable
from .intmat import (
    IntMatrix,
    IntVector,
    LatticeBasis,
    as_vector,
    full_lattice,
    hnf,
    hnf_from_rows,
    unit_vector,
)
from .matgroup import MatGroup

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class RootSystemSpec:
    family: str
    rank: int

    def __post_init__(self):
        lo, hi = _RANK_RANGE.get(self.family, (None, None))
        if lo is None:
            raise InvalidRank(f"unknown family {self.family!r}")
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidRank(f"{self.family}_{self.rank} is out of range")

    def __str__(self):
        return f"{self.family}{self.rank}"


def cartan_matrix(spec: RootSystemSpec) -> IntMatrix:
    """Cartan matrix (rows express simple roots in the weight basis)."""
    n = spec.rank
    fam = spec.family
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2

    def edge(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if fam == "B":
            c[n - 2][n - 1] = -2
        if fam == "C":
            c[n - 1][n - 2] = -2
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
    elif fam == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4 (1-indexed)
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif fam == "F":
        edge(0, 1)
        edge(2, 3)
        c[1][2] = -2
        c[2][1] = -1
    elif fam == "G":
        c[0][1] = -1
        c[1][0] = -3
    return IntMatrix.from_rows(c)


def weyl_order_closed_form(spec: RootSystemSpec) -> int:
    n = spec.rank
    if spec.family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    return {
        "A": factorial(n + 1),
        "B": 2**n * factorial(n),
        "C": 2**n * factorial(n),
        "D": 2 ** (n - 1) * factorial(n),
        "F": 1152,
        "G": 12,
    }[spec.family]


@dataclass(frozen=True)
class WeylModel:
    """A Weyl group acting on weight coordinates."""

    spec: RootSystemSpec
    cartan: IntMatrix
    weyl_order: int

    @property
    def rank(self) -> int:
        return self.spec.rank

    @cached_property
    def simple_reflections(self) -> tuple[IntMatrix, ...]:
        """The simple reflections, made on first read: the closed-form table never reads them."""
        return tuple(_reflection(self.cartan, i) for i in range(self.rank))

    def simple_root(self, i: int) -> IntVector:
        """alpha_{i+1} in weight coordinates (0-indexed argument)."""
        return IntVector(self.cartan.row(i))

    def matgroup(self) -> MatGroup:
        return MatGroup(self.rank, self.simple_reflections)


def _reflection(cartan: IntMatrix, i: int) -> IntMatrix:
    n = cartan.rows
    rows = [[int(r == s) for s in range(n)] for r in range(n)]
    for j in range(n):
        rows[j][i] -= cartan[i, j]
    return IntMatrix.from_rows(rows)


def build(spec: RootSystemSpec) -> WeylModel:
    """The Weyl model of spec: its Cartan matrix and closed-form order."""
    return WeylModel(spec, cartan_matrix(spec), weyl_order_closed_form(spec))


def dominant_representative(model: WeylModel, v) -> IntVector:
    """The dominant vector in the W-orbit of v, via explicit reflections."""
    cur = list(as_vector(v).entries)
    n = model.rank
    cartan = model.cartan
    fuse = model.weyl_order
    steps = 0
    while True:
        i = next((k for k in range(n) if cur[k] < 0), None)
        if i is None:
            return IntVector(tuple(cur))
        # sigma_i: v_j -= C[i, j] * v_i
        vi = cur[i]
        for j in range(n):
            cur[j] -= cartan[i, j] * vi
        steps += 1
        if steps > fuse:
            raise AssertionError("dominance reduction failed to terminate")


def _components(cartan: IntMatrix, nodes: list[int]) -> list[list[int]]:
    nodeset = set(nodes)
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop()
            for w in nodeset:
                if w not in seen and cartan[u, w] != 0:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _component_family(cartan: IntMatrix, comp: list[int]) -> str:
    """The family of the connected sub-diagram on comp, named by its bonds.

    A triple bond is G_2.  A double bond is F_4 when both of its nodes are
    interior and B_k otherwise (C_k has the same Weyl order).  A branch node
    is D_k when two of its neighbours are leaves and E_k otherwise.  Anything
    else is a path, A_k.
    """
    adj = {u: [w for w in comp if w != u and cartan[u, w] != 0] for u in comp}
    bonds = {cartan[u, w] * cartan[w, u]: (u, w) for u in comp for w in adj[u]}
    if 3 in bonds:
        return "G"
    if 2 in bonds:
        return "F" if all(len(adj[u]) > 1 for u in bonds[2]) else "B"
    branch = [u for u in comp if len(adj[u]) == 3]
    if branch:
        return "D" if sum(len(adj[w]) == 1 for w in adj[branch[0]]) >= 2 else "E"
    return "A"


def stabilizer_order_dominant(model: WeylModel, dominant: IntVector) -> int:
    """Order of the parabolic stabilizer <sigma_i : v_i = 0> of a dominant v.

    Each component of the zero nodes is the Dynkin diagram of the parabolic
    subgroup it generates (Humphreys, *Reflection Groups and Coxeter Groups*,
    1.10 and 2.11), so its order is the closed form of its family.  A shape
    that names no valid root system raises ``InvalidRank``.
    """
    zero_nodes = [i for i, e in enumerate(dominant.entries) if e == 0]
    return prod(
        weyl_order_closed_form(RootSystemSpec(_component_family(model.cartan, comp), len(comp)))
        for comp in _components(model.cartan, zero_nodes)
    )


def weyl_orbit_size(model: WeylModel, v) -> int:
    """|W v| via the parabolic stabilizer of the dominant representative."""
    dom = dominant_representative(model, v)
    return model.weyl_order // stabilizer_order_dominant(model, dom)


@dataclass(frozen=True)
class NamedLattice:
    """One of the W-stable lattices between the root and weight lattices."""

    basis: LatticeBasis


def lattice(model: WeylModel, kind: str, d: int | None = None) -> NamedLattice:
    """Named W-stable lattice in weight coordinates, canonical HNF basis.

    Kinds:
      weight            the full weight lattice Z^n
      root              row span of the Cartan matrix
      intermediate      family A only: root lattice + Z lambda_d, d | n+1
      intermediate_D    family D only: root lattice + Z lambda_d for
                        d in {1, n-1, n} (d = 1 is the standard Z^n copy;
                        the two spin kinds need even n)
    """
    n = model.rank
    fam = model.spec.family
    if kind == "weight":
        return NamedLattice(full_lattice(n))
    if kind == "root":
        return NamedLattice(hnf(model.cartan))
    if kind == "intermediate":
        if fam != "A" or d is None or d < 1 or d > n or (n + 1) % d != 0:
            raise KindUnavailable(f"intermediate({d}) is not available for {model.spec}")
    elif kind == "intermediate_D":
        if fam != "D" or d is None:
            raise KindUnavailable(f"intermediate_D is not available for {model.spec}")
        if d not in (1, n - 1, n):
            raise KindUnavailable(f"intermediate_D({d}) is not available for {model.spec}")
        if d in (n - 1, n) and n % 2 != 0:
            raise KindUnavailable("the two spin intermediates need even rank")
    else:
        raise KindUnavailable(f"unknown lattice kind {kind!r}")
    return NamedLattice(hnf_from_rows(model.cartan.to_rows() + [unit_vector(n, d - 1).entries], n))


@dataclass(frozen=True)
class SymrankTableRow:
    """One row of the symmetric-rank table for Weyl lattices.

    ``witness`` is the vector whose orbit is verified to span ``target``
    and ``generator_label`` its conventional table entry (for F_4 the
    label stays the long root alpha_1, while the witness is the short
    simple root with the same orbit size); ``spans_labelled_lattice``
    records whether the conventional lattice label names the lattice the
    orbit spans (it does not for the even-D weight row; see the module
    docstring).  An A_n L+d row whose lambda_d orbit has more than n(n+1)
    vectors has a witness of support {n-1, n} (:func:`_a_intermediate_witness`).
    """

    family: str
    rank: int
    lattice_label: str
    symrank: int
    generator_label: str
    witness: IntVector
    target: NamedLattice
    spans_labelled_lattice: bool


def _row(model: WeylModel, label: str, gen_label: str, witness: IntVector, target: NamedLattice,
         spans: bool = True) -> SymrankTableRow:
    size = weyl_orbit_size(model, witness)
    return SymrankTableRow(model.spec.family, model.rank, label, size, gen_label, witness, target, spans)


def _a_intermediate_witness(n: int, d: int) -> tuple[str, IntVector]:
    """Label and witness of the A_n L+d row, for d | n+1 with 1 < d <= n.

    lambda_d, of C(n+1, d) images, when that is at most n(n+1); otherwise
    v = a lambda_{n-1} + b lambda_n with gcd(a, b) = 1, class -(2a + b)
    generating dZ/(n+1) in P/Q = Z/(n+1), and the least a + b = t (at most
    one pair qualifies: the values 2a + b = t + a are t - 1 < d consecutive
    integers).  Its stabilizer is W(A_{n-2}), so it has n(n+1) images; as
    s_{n-1} v - v = -a alpha_{n-1}, s_n v - v = -b alpha_n and W moves a root
    to every root, its orbit spans Z v + aQ + bQ = Z v + Q = L+d.  The pair
    (1, d - 2) qualifies, so the loop ends by t = d - 1.
    """
    if comb(n + 1, d) <= n * (n + 1):
        return f"lambda_{d}", unit_vector(n, d - 1)
    for total in range(2, d):
        for b in range(1, total):
            a = total - b
            if gcd(a, b) == 1 and gcd(2 * a + b, n + 1) == d:
                label = "+".join(f"{'' if c == 1 else c}lambda_{i}" for c, i in ((a, n - 1), (b, n)))
                return label, IntVector((0,) * (n - 2) + (a, b))
    raise AssertionError(f"no witness for A{n} L+{d}")


def symrank_table_rows_for(model: WeylModel) -> list[SymrankTableRow]:
    """All table rows for one root system, in table order."""
    n = model.rank
    fam = model.spec.family
    lam = lambda i: unit_vector(n, i - 1)  # noqa: E731
    alpha = model.simple_root
    rows: list[SymrankTableRow] = []
    if fam == "A":
        rows.append(_row(model, "L", "lambda_1", lam(1), lattice(model, "weight")))
        for d in range(2, n + 1):
            if (n + 1) % d == 0:
                gen_label, witness = _a_intermediate_witness(n, d)
                rows.append(_row(model, f"L+{d}", gen_label, witness, lattice(model, "intermediate", d)))
        rows.append(_row(model, "Lr", "alpha_1", alpha(0), lattice(model, "root")))
    elif fam == "B":
        rows.append(_row(model, "L", f"lambda_{n}", lam(n), lattice(model, "weight")))
        rows.append(_row(model, "Lr", f"alpha_{n}", alpha(n - 1), lattice(model, "root")))
    elif fam == "C":
        rows.append(_row(model, "L", "lambda_1", lam(1), lattice(model, "weight")))
        rows.append(_row(model, "Lr", "alpha_1", alpha(0), lattice(model, "root")))
    elif fam == "D":
        if n % 2 == 0:
            # the lambda_1 orbit spans the index-2 standard sublattice, and
            # Lambda/Lambda_r = C2 x C2 admits no single spanning orbit
            rows.append(
                _row(model, "L", "lambda_1", lam(1), lattice(model, "intermediate_D", 1), spans=False)
            )
            rows.append(
                _row(model, f"L+2({n - 1})", f"lambda_{n - 1}", lam(n - 1), lattice(model, "intermediate_D", n - 1))
            )
            rows.append(
                _row(model, f"L+2({n})", f"lambda_{n}", lam(n), lattice(model, "intermediate_D", n))
            )
        else:
            rows.append(_row(model, "L", f"lambda_{n}", lam(n), lattice(model, "weight")))
            rows.append(_row(model, "L+2", "lambda_1", lam(1), lattice(model, "intermediate_D", 1)))
        rows.append(_row(model, "Lr", "alpha_1", alpha(0), lattice(model, "root")))
    elif fam == "E":
        top = {6: 1, 7: 7, 8: None}[n]
        if top is not None:
            rows.append(_row(model, "L", f"lambda_{top}", lam(top), lattice(model, "weight")))
            rows.append(_row(model, "Lr", "alpha_1", alpha(0), lattice(model, "root")))
        else:
            rows.append(_row(model, "L=Lr", "alpha_1", alpha(0), lattice(model, "root")))
    elif fam == "F":
        # c_23 = -2 makes alpha_3 short; the long alpha_1's orbit spans only an index-4 sublattice
        rows.append(_row(model, "L=Lr", "alpha_1", alpha(2), lattice(model, "root")))
    elif fam == "G":
        rows.append(_row(model, "L=Lr", "alpha_1", alpha(0), lattice(model, "root")))
    return rows


def _specs_up_to(max_rank: int) -> list[RootSystemSpec]:
    specs = []
    for fam, (lo, hi) in _RANK_RANGE.items():
        top = max_rank if hi is None else min(hi, max_rank)
        for n in range(lo, top + 1):
            specs.append(RootSystemSpec(fam, n))
    return specs


def weyl_symrank_table(max_rank: int) -> list[SymrankTableRow]:
    """All symmetric-rank table rows with rank <= max_rank."""
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    rows: list[SymrankTableRow] = []
    for spec in _specs_up_to(max_rank):
        rows.extend(symrank_table_rows_for(build(spec)))
    return rows


def expected_symrank(row: SymrankTableRow) -> int:
    """Closed-form value for a table row (independent of orbit machinery).

    For A_n L+d (L+d = Q + Z lambda_d, the weights whose class in
    P/Q = Z/(n+1) is a multiple of d) the value is min(C(n+1, d), n(n+1)),
    the orbit size of the witness of :func:`_a_intermediate_witness`.  The
    box search confirms it up to rank 6 (rank <= 4 at radius 3, 5 and 6 at
    radius 2).  For n >= 7 every W-orbit below n(n+1) is that of some
    a lambda_i with i in {1, 2, n-1, n}.  Fix a prime q | d, odd unless d is
    a power of 2: such an a lambda_i lies in L+d only if q | a, so every
    such orbit in L+d lies in qP, which misses the root alpha_1 of L+d.  No
    union of them spans L+d, and any other orbit has n(n+1) vectors or
    more.  For d = 2, q = 2 and the orbits of a lambda_1 and a lambda_n,
    the only ones below C(n+1, 2), give C(n+1, 2) the same way.
    """
    n = row.rank
    fam = row.family
    label = row.lattice_label
    if fam == "A":
        if label == "L":
            return n + 1
        if label.startswith("L+"):
            return min(comb(n + 1, int(label[2:])), n * (n + 1))
        return n * (n + 1)
    if fam == "B":
        return 2**n if label == "L" else 2 * n
    if fam == "C":
        return 2 * n if label == "L" else 2 * n * (n - 1)
    if fam == "D":
        if n % 2 == 0:
            if label == "L":
                return 2 * n
            if label.startswith("L+2("):
                return 2 ** (n - 1)
        else:
            if label == "L":
                return 2 ** (n - 1)
            if label == "L+2":
                return 2 * n
        return 2 * n * (n - 1)
    if fam == "E":
        return {(6, "L"): 27, (6, "Lr"): 72, (7, "L"): 56, (7, "Lr"): 126, (8, "L=Lr"): 240}[(n, label)]
    if fam == "F":
        return 24
    return 6


@dataclass(frozen=True)
class RdimBound:
    n: int
    value: int
    witness_family: str
    witness_rank: int
    witness_kind: str  # "root" or "weight"


def rdim_lower_bound(n: int) -> RdimBound:
    """Best Weyl-lattice lower bound on the maximal representation dimension."""
    if n < 1:
        raise ValueError("dimension must be positive")
    small = {
        1: (2, "A", 1, "root"),
        2: (6, "G", 2, "root"),
        3: (12, "A", 3, "root"),
        4: (24, "C", 4, "root"),
        5: (40, "D", 5, "root"),
        6: (72, "E", 6, "root"),
    }
    if n in small:
        v, fam, r, kind = small[n]
        return RdimBound(n, v, fam, r, kind)
    return RdimBound(n, 2**n, "B", n, "weight")
