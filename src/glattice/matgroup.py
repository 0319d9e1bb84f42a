"""Finite subgroups of GL_n(Z) given by generators.

Orbits and the closure run on one breadth-first orbit kernel with a hard
cap; the closure is the orbit of the identity's entries under right
multiplication by the generators.  Hitting a cap raises
:class:`CapExceeded`, which callers treat as a first-class outcome (the
inequality engines deliberately avoid materializing huge groups).
Enumeration order is deterministic: queue order, then generator index, and
orbit representatives are the lexicographically minimal elements, so every
downstream output is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapExceeded, NonUnimodularConjugator, NonUnimodularGenerator, NotGStable
from .intmat import (
    IntMatrix,
    IntVector,
    LatticeBasis,
    as_vector,
    coordinates_in,
    hnf,
    hnf_from_rows,
)

DEFAULT_GROUP_CAP = 10**7
DEFAULT_ORBIT_CAP = 10**7


@dataclass
class MatGroup:
    """Subgroup of GL_n(Z) generated by unimodular matrices.

    Construction is cheap; the element set and order are computed lazily by
    :func:`closure` and cached on the instance.  Concurrent first calls may
    each run the closure, but every call returns the whole element set and
    the exact order: the order is cached before the element set, and the
    cache is read only once the element set is there.
    """

    dim: int
    generators: tuple[IntMatrix, ...]
    label: str | None = None
    _elements: frozenset | None = field(default=None, repr=False, compare=False)
    _order: int | None = field(default=None, repr=False, compare=False)

    def __init__(self, dim: int, generators, label: str | None = None):
        self.dim = dim
        gens = tuple(generators)
        for g in gens:
            if g.rows != dim or g.cols != dim:
                raise ValueError("generator has wrong dimension")
            if not g.is_unimodular():
                raise NonUnimodularGenerator(f"generator with determinant {g.det()}")
        self.generators = gens
        self.label = label
        self._elements = None
        self._order = None

    @classmethod
    def trivial(cls, dim: int) -> "MatGroup":
        return cls(dim, ())

    def order(self, cap: int = DEFAULT_GROUP_CAP) -> int:
        if self._order is None:
            closure(self, cap)
        return self._order

    def elements(self, cap: int = DEFAULT_GROUP_CAP) -> frozenset:
        if self._elements is None:
            closure(self, cap)
        return self._elements


@dataclass(frozen=True)
class Orbit:
    """Orbit of a vector under the generator action."""

    representative: IntVector
    elements: frozenset
    size: int

    def vectors(self) -> list[IntVector]:
        return [IntVector(t) for t in sorted(self.elements)]


def closure(g: MatGroup, cap: int = DEFAULT_GROUP_CAP) -> tuple[frozenset, int]:
    """Full element set (as row-major entry tuples) and exact order.

    The element set is the orbit of the identity's entries under right
    multiplication by the generators, run on the orbit kernel: row i of
    x h is h^T applied to row i of x, so each generator acts on the n^2
    entries as n copies of h^T.  A finite matrix group is closed under
    products of generators alone (every element has finite order), so no
    explicit inverses are needed.
    """
    if g._elements is not None:
        return g._elements, g._order
    n = g.dim
    moved = tuple(
        (
            tuple(i * n + a for i in range(n) for a in idx),
            tuple((i * n + a, i * n + b, c) for i in range(n) for a, b, c in terms),
        )
        for idx, terms in _moved_rows([h.transpose() for h in g.generators])
    )
    seen, complete = _orbit_bfs(moved, IntMatrix.identity(n).entries, cap)
    if not complete:
        raise CapExceeded("group closure", cap)
    # _order first: a reader that finds _elements set also finds _order.
    g._order = len(seen)
    g._elements = frozenset(seen)
    return g._elements, g._order


def element_matrices(g: MatGroup, cap: int = DEFAULT_GROUP_CAP) -> list[IntMatrix]:
    """All elements as matrices, sorted by entry tuple for determinism."""
    elems, _ = closure(g, cap)
    return [IntMatrix(g.dim, g.dim, t) for t in sorted(elems)]


def _moved_rows(mats) -> tuple:
    """Per square matrix, the rows unlike the identity's: (indices, terms).

    The terms are (row, column, coefficient) triples of the nonzero entries
    of those rows.  A simple reflection in lattice coordinates moves only a
    few coordinates, so the orbit kernel recomputes just those and copies
    the rest.
    """
    out = []
    for h in mats:
        n = h.rows
        idx = tuple(i for i in range(n) if h.row(i) != tuple(int(i == j) for j in range(n)))
        out.append((idx, tuple((i, j, h[i, j]) for i in idx for j in range(n) if h[i, j])))
    return tuple(out)


def _orbit_bfs(moved: tuple, start: tuple, cap: int, stop=frozenset()) -> tuple[set, bool]:
    """BFS closure of {start} under generators given by :func:`_moved_rows`.

    Returns the set reached and whether it is the whole orbit.  The BFS stops
    early, incomplete, before a new vector would make the set larger than
    cap, or on reaching a vector in stop.
    """
    seen = {start}
    queue = [start]
    for cur in queue:
        for idx, terms in moved:
            nxt = list(cur)
            for i in idx:
                nxt[i] = 0
            for i, j, c in terms:
                nxt[i] += c * cur[j]
            nxt = tuple(nxt)
            if nxt not in seen:
                if len(seen) >= cap or nxt in stop:
                    return seen, False
                seen.add(nxt)
                queue.append(nxt)
    return seen, True


def orbit(g: MatGroup, v, cap: int = DEFAULT_ORBIT_CAP) -> Orbit:
    """BFS closure of {v} under the generators."""
    vv = as_vector(v)
    if vv.dim != g.dim:
        raise ValueError("vector dimension does not match group dimension")
    seen, complete = _orbit_bfs(_moved_rows(g.generators), vv.entries, cap)
    if not complete:
        raise CapExceeded("orbit", cap)
    return Orbit(IntVector(min(seen)), frozenset(seen), len(seen))


def stable_span(g: MatGroup, v, max_rounds: int = 10_000) -> LatticeBasis:
    """Smallest g-stable lattice containing v, by basis-level fixpoint.

    Equals the span of the orbit of v but runs in time polynomial in the
    dimension rather than the orbit size: each round closes the current
    basis under the generators and re-normalizes.
    """
    vv = as_vector(v)
    lat = hnf_from_rows([vv.entries], g.dim) if not vv.is_zero() else hnf_from_rows([], g.dim)
    for _ in range(max_rounds):
        rows = lat.rows()
        new_rows = list(rows)
        for h in g.generators:
            for r in rows:
                new_rows.append(h.apply(r).entries)
        nxt = hnf_from_rows(new_rows, g.dim)
        if nxt == lat:
            return lat
        lat = nxt
    raise AssertionError("stable span failed to converge")


def stabilizer_order(g: MatGroup, v, cap: int = DEFAULT_GROUP_CAP) -> int:
    """|G| / |orbit(v)|, exact; asserts divisibility (orbit-stabilizer)."""
    _, order = closure(g, cap)
    orb = orbit(g, v, cap)
    if order % orb.size != 0:
        raise AssertionError("orbit size does not divide group order")
    return order // orb.size


def conjugate(g: MatGroup, a: IntMatrix) -> MatGroup:
    """Group with generators a h a^-1; a must be unimodular."""
    if not a.is_unimodular():
        raise NonUnimodularConjugator(f"conjugator has determinant {a.det()}")
    a_inv = a.inverse_unimodular()
    return MatGroup(g.dim, tuple(a.mul(h).mul(a_inv) for h in g.generators), label=g.label)


def restrict_lattice(l: LatticeBasis, a: IntMatrix) -> LatticeBasis:
    """Image lattice a . l = {a x : x in l}; pairs with :func:`conjugate`."""
    if not a.is_unimodular():
        raise NonUnimodularConjugator(f"conjugator has determinant {a.det()}")
    rows = [a.apply(r).entries for r in l.rows()]
    return hnf_from_rows(rows, l.ambient_dim)


def commutant_dimension(g: MatGroup) -> int:
    """Dimension over Q of {X : X h = h X for all generators h}.

    Dimension 1 certifies absolute irreducibility (hence irreducibility
    over Z); a larger value certifies nothing and is reported as "not
    certified" by callers, never as "reducible".
    """
    n = g.dim
    if not g.generators:
        return n * n
    rows: list[tuple[int, ...]] = []
    for h in g.generators:
        # (h X - X h) entry (i, j) = sum_k h[i,k] X[k,j] - X[i,k] h[k,j]
        for i in range(n):
            for j in range(n):
                coeff = [0] * (n * n)
                for k in range(n):
                    coeff[k * n + j] += h[i, k]
                    coeff[i * n + k] -= h[k, j]
                rows.append(tuple(coeff))
    return n * n - hnf_from_rows(rows, n * n).rank


CERTIFIED_IRREDUCIBLE = "certified irreducible"
NOT_CERTIFIED = "not certified"


def irreducibility_certificate(g: MatGroup) -> str:
    """Commutant-based sufficient certificate of irreducibility over Z.

    Commutant dimension 1 implies absolute irreducibility and hence
    irreducibility over Z; anything larger proves nothing either way, so
    the verdict is "not certified" -- never "reducible".
    """
    return CERTIFIED_IRREDUCIBLE if commutant_dimension(g) == 1 else NOT_CERTIFIED


def is_lattice_stable(g: MatGroup, l: LatticeBasis) -> bool:
    """Whether every generator maps the lattice into itself."""
    for h in g.generators:
        for r in l.rows():
            if coordinates_in(h.apply(r), l) is None:
                return False
    return True


def action_in_row_basis(g: MatGroup, basis: IntMatrix) -> MatGroup:
    """The action of g rewritten in an arbitrary basis given by matrix rows.

    The basis rows must be independent and span a g-stable lattice; the
    rewritten generators are integral exactly in that case.  Unlike
    :func:`in_lattice_coordinates` the basis need not be in HNF (use this
    to work in a root basis, for example).
    """
    lat = hnf(basis)
    if lat.rank < basis.rows:
        raise NotGStable("basis rows are dependent")
    # basis = U @ lat.basis with U unimodular, so coordinates in the basis
    # are those in lat under the change of basis U^T.
    u = IntMatrix.from_rows([coordinates_in(b, lat) for b in basis.to_rows()])
    return conjugate(in_lattice_coordinates(g, lat), u.transpose().inverse_unimodular())


def in_lattice_coordinates(g: MatGroup, l: LatticeBasis) -> MatGroup:
    """The action of g rewritten in the basis of a g-stable lattice.

    The resulting group acts on Z^rank(l); the change of basis is not a
    GL_n(Z) conjugation when l is a proper sublattice, but the restricted
    matrices are integral exactly because l is stable.
    """
    r = l.rank
    gens = []
    for h in g.generators:
        rows = []
        for b in l.rows():
            c = coordinates_in(h.apply(b), l)
            if c is None:
                raise NotGStable("lattice is not stable under a generator")
            rows.append(c)
        # rows[i] = coordinates of h(basis_i); action on coordinate columns
        # is the transpose of this coefficient matrix.
        gens.append(IntMatrix.from_rows(rows).transpose())
    return MatGroup(r, gens, label=g.label)
