"""Finite subgroups of GL_n(Z) given by generators.

A :class:`MatGroup` is an immutable value that carries one compiled
generator-action kernel, ``images`` (:func:`_compile_images`): a function
from a vector to the tuple of its images under the generators, the one form
in which generators act on vectors.  Orbits, stable spans and lattice
checks run on such kernels.  Given a modulus m, the same compiler builds
the action on the classes of (Z/m)^n, each class numbered by an index, so
that the search's class table is a list of index tuples.  Orbits are a
breadth-first search with a hard cap (:func:`_orbit_bfs`), which can also
stop, by such a table, at the first class it reaches k + 1 times.  The
closure lists the group coset by coset (Dimino's algorithm,
:func:`_group_closure`) as permutations: the group
acts faithfully on the union X of the orbits of the basis vectors, built
by that BFS (|X| <= n |G|; for a Weyl group in the weight basis, X is the
union of the fundamental-weight orbits), and an element is the tuple of
the indices in X of its n columns.  A generator multiplies on the left
through a compiled lookup kernel (:func:`_lookup_kernel`), n lookups per
element instead of n^2 sums.  Hitting a cap raises :class:`CapExceeded`,
which callers treat as a first-class outcome (the inequality engines
deliberately avoid materializing huge groups).  Enumeration order is
deterministic: queue order (coset order for the closure), then generator
index, so every downstream output is reproducible.

There is one span worklist, :func:`_span_rows`: it runs on a kernel and
raw tuples and returns canonical HNF rows.  It has two callers:
:func:`stable_span`, which checks its vectors and wraps the rows as a
lattice for the witness checks, and the search's orbit records, which
store the rows as they come.
"""
from __future__ import annotations

import operator
from collections.abc import Set
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, count
from typing import Callable

from .errors import CapExceeded, NonUnimodularGenerator, NotGStable
from .intmat import (
    IntMatrix,
    LatticeBasis,
    _hnf_insert,
    coordinates_in,
    hnf_from_rows,
)

DEFAULT_CAP = 10**7  # every enumeration cap: search boxes, orbits, closures, short vectors
_KERNEL_IDS = count(1)  # numbers the file names of compiled kernels


@dataclass(frozen=True)
class MatGroup:
    """Subgroup of GL_n(Z) generated by unimodular matrices.

    ``images`` is the generators' action on vectors, compiled once here by
    :func:`_compile_images`; every generator action on vectors calls it.
    """

    dim: int
    generators: tuple[IntMatrix, ...]
    images: Callable[[tuple], tuple] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        for i, h in enumerate(gens):
            if h.rows != self.dim or h.cols != self.dim:
                raise ValueError("generator has wrong dimension")
            if not h.is_unimodular():
                raise NonUnimodularGenerator(f"generator {i} is not unimodular")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "images", _compile_images(self.dim, tuple(map(_rows_terms, gens))))


@dataclass(frozen=True)
class Orbit:
    """Orbit of a vector under the generator action."""

    elements: frozenset
    size: int


def closure(g: MatGroup, cap: int = DEFAULT_CAP) -> tuple[Set, int]:
    """Full element set (as row-major entry tuples) and exact order.

    The group acts faithfully on the set X of points, the union of the
    orbits of the basis vectors e_1..e_n (capped BFS, :func:`_orbit_bfs`):
    X is G-stable, so each generator permutes it, and a matrix is
    determined by its columns g e_j, which lie in X.  An orbit is at most
    |G|, so |X| <= n |G|, and an orbit over the cap means a group over it.
    An element g is kept as its columns' indices in X, the tuple
    (index of g e_1, ..., index of g e_n), and a generator t acts on it by
    left multiplication, column j of t g being t (g e_j): one lookup
    kernel per generator (:func:`_lookup_kernel`) over t's permutation of
    X, so an element costs n lookups.  The elements are listed coset by coset by
    :func:`_group_closure`.  A finite matrix group is closed under products
    of generators alone (every element has finite order), so no explicit
    inverses are needed.

    The set is an :class:`_Elements` view over the index tuples: it
    compares, hashes, iterates and tests membership as the frozenset of
    row-major entry tuples would, and forms a matrix only when it is
    iterated or queried.
    """
    n = g.dim
    basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    points: list = []
    index: dict = {}
    for e in basis:
        if e in index:
            continue
        orb, complete = _orbit_bfs(g.images, e, cap)
        if not complete:
            raise CapExceeded("group closure", cap)
        for x in orb:
            index[x] = len(points)
            points.append(x)
    images = [g.images(x) for x in points]
    bind = _lookup_kernel(n)
    kernels = [bind(tuple(index[imgs[t]] for imgs in images)) for t in range(len(g.generators))]
    seen, complete = _group_closure(kernels, tuple(index[e] for e in basis), cap)
    if not complete:
        raise CapExceeded("group closure", cap)
    return _Elements(seen, points, index, n), len(seen)


class _Elements(Set):
    """Read-only set of matrices as row-major entry tuples, kept as column indices.

    cols holds each element as the indices in points of its columns; a
    query splits an entry tuple into columns and looks them up in index.
    """

    __slots__ = ("_cols", "_points", "_index", "_dim")

    def __init__(self, cols: set, points: list, index: dict, dim: int):
        self._cols, self._points, self._index, self._dim = cols, points, index, dim

    def __len__(self) -> int:
        return len(self._cols)

    def __iter__(self):
        points = self._points
        for c in self._cols:
            yield tuple(chain.from_iterable(zip(*[points[k] for k in c])))

    def __contains__(self, entries) -> bool:
        n = self._dim
        if not isinstance(entries, tuple) or len(entries) != n * n:
            return False
        return tuple(self._index.get(entries[j::n]) for j in range(n)) in self._cols

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)


def _rows_terms(h: IntMatrix) -> tuple:
    """Per row of h, the (column, coefficient) pairs of its nonzero entries."""
    return tuple(tuple((j, h[i, j]) for j in range(h.cols) if h[i, j]) for i in range(h.rows))


def _compile_images(dim: int, gens: tuple, modulus: int | None = None) -> Callable[[tuple], tuple]:
    """The one generator-action kernel: v -> (h_1 v, ..., h_k v) as tuples.

    gens holds, per generator, per output coordinate i, the (j, c) pairs
    with (h v)[i] = sum c v[j], as :func:`_rows_terms` builds them.  The
    function is compiled once from generated source, so an image costs one
    tuple display of sums instead of a loop over entries, and an identity
    row is a plain copy of v[i].

    With a modulus m >= 1 the kernel acts on the classes of (Z/m)^n,
    numbered in ``itertools.product(range(m), repeat=n)`` order, so that
    the class c has the index sum of c[i] * m^(n-1-i).  It takes a class c,
    with every entry in [0, m), and gives the tuple of the indices of
    h_1 c, ..., h_k c: the coefficients are reduced mod m first, those that
    vanish are dropped (a row with none left adds nothing), a row i that
    is one v[j] with coefficient 1 mod m is a plain copy of c[j] times its
    weight m^(n-1-i), and each other row is ``((<sum>) % m) * m^(n-1-i)``.
    Since reduction mod m commutes with integer matrices, this is the
    action on (Z/m)^n.  The input must be reduced: an entry outside
    [0, m) is copied as it is.

    The source holds only ``int`` literals and the local names ``v``,
    ``v0``, ``v1``, ...: ``IntMatrix`` holds only ints, since it takes each
    entry through ``operator.index``, which gives an exact ``int`` or raises
    ``TypeError``; a coefficient, modulus or weight prints as decimal
    digits, and no other input text reaches the source.  Each kernel gets
    its own file name, ``<matgroup images #N>``, so profiles and tracebacks
    tell kernels apart.
    """
    def total(terms) -> str:
        signed = [("-" if c < 0 else "+") + (f"v{j}" if abs(c) == 1 else f"{abs(c)}*v{j}") for j, c in terms]
        return " ".join(signed).lstrip("+")

    def index(rows) -> str:
        digits = []
        for i, row in enumerate(rows):
            terms = [(j, c % modulus) for j, c in row if c % modulus]
            if not terms:
                continue
            digit = f"v{terms[0][0]}" if len(terms) == 1 and terms[0][1] == 1 else f"(({total(terms)}) % {int(modulus)})"
            weight = int(modulus) ** (dim - 1 - i)
            digits.append(digit if weight == 1 else f"{digit} * {weight}")
        return " + ".join(digits) or "0"

    if modulus is None:
        body = _tuple_source([_tuple_source([total(row) or "0" for row in rows]) for rows in gens])
    else:
        body = _tuple_source([index(rows) for rows in gens])
    source = f"def images(v):\n    {_tuple_source([f'v{j}' for j in range(dim)])} = v\n    return {body}\n"
    namespace: dict = {}
    exec(compile(source, f"<matgroup images #{next(_KERNEL_IDS)}>", "exec"), {}, namespace)
    return namespace["images"]


@cache
def _lookup_kernel(dim: int) -> Callable[[tuple], Callable[[tuple], tuple]]:
    """perm -> the kernel v -> (perm[v0], ..., perm[v(dim-1)]) on tuples of indices.

    With perm the permutation of a point set by t and v an element's column
    indices, the kernel is left multiplication by t; with perm and v
    permutations of range(dim), it is the composite perm o v.  The source
    depends on dim alone, so it is compiled once per dim, like
    :func:`_compile_images` from generated source, and each call binds a
    perm in a closure.  It holds only the names ``perm``, ``v``, ``v0``,
    ``v1``, ..., and its file name is ``<matgroup lookup #N>``.
    """
    names = [f"v{j}" for j in range(dim)]
    source = (
        f"def bind(perm):\n    def act(v):\n        {_tuple_source(names)} = v\n"
        f"        return {_tuple_source([f'perm[{x}]' for x in names])}\n    return act\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<matgroup lookup #{next(_KERNEL_IDS)}>", "exec"), {}, namespace)
    return namespace["bind"]


def _tuple_source(items: list) -> str:
    """Source of a tuple display of the given expressions."""
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _orbit_bfs(images: Callable, start: tuple, cap: int, stop=frozenset(), classes=None) -> tuple[set, bool]:
    """BFS closure of {start} under a kernel from :func:`_compile_images`.

    Returns the set reached and whether it is the whole orbit.  The BFS stops
    early, incomplete, before a new vector would make the set larger than
    cap or on reaching a vector in stop.

    classes, when given, is (table, c, k): table[d] holds the indices of
    the classes of the generators' images of any vector in class d, in
    generator order (the mod-m kernel's images of d), and c is the class
    of start.  The class of the t-th image of a vector in class d is then
    table[d][t], with no kernel call, and the BFS also stops, incomplete,
    on reaching a class for the (k + 1)-th time.
    """
    seen = {start}
    queue = [start]
    if classes is None:
        for cur in queue:
            for nxt in images(cur):
                if nxt not in seen:
                    if len(seen) >= cap or nxt in stop:
                        return seen, False
                    seen.add(nxt)
                    queue.append(nxt)
        return seen, True
    table, c, k = classes
    reached = {c: 1}  # class -> members reached
    of = [c]  # of[j]: the class of queue[j]
    for cur, c in zip(queue, of):
        for nxt, d in zip(images(cur), table[c]):
            if nxt not in seen:
                n = reached.get(d, 0)
                if len(seen) >= cap or nxt in stop or n == k:
                    return seen, False
                reached[d] = n + 1
                seen.add(nxt)
                queue.append(nxt)
                of.append(d)
    return seen, True


def _group_closure(kernels, identity: tuple, cap: int) -> tuple[set, bool]:
    """The group generated by left multiplications, listed coset by coset (Dimino).

    Each kernel sends an element x to t x for its generator t (for
    instance a kernel from :func:`_lookup_kernel`).  Generators are added
    one at a time.  With H = <t_1..t_{i-1}> listed, <H, t_i> is a union of
    left cosets r H, and the listing keeps coset k at positions k|H| to
    (k+1)|H| - 1 with its elements r h in the order of H, so its first
    element is its rep r.
    The cosets partition the group and t (r H) = (t r) H, so for each rep r
    and each t_j with j <= i, the coset t_j r H is new exactly when its rep
    t_j r is new; then the whole coset is t_j applied to the listed coset
    r H, with no membership test per element.  Once every rep is handled
    the set is closed under all t_j, so it is the group.

    Returns the set reached and whether it is the whole group.  The
    listing stops early, incomplete, before a coset would make the set
    larger than cap; so for cap >= 1 it stops exactly when the group is
    larger than cap (a trivial group adds no coset, so never stops).
    """
    elements = [identity]
    seen = {identity}
    for i in range(len(kernels)):
        gens = kernels[: i + 1]
        m = len(elements)
        k = 0
        while k < len(elements):
            coset = elements[k : k + m]
            for t in gens:
                if t(coset[0]) not in seen:
                    if len(seen) + m > cap:
                        return seen, False
                    new = list(map(t, coset))
                    seen.update(new)
                    elements.extend(new)
            k += m
    return seen, True


def orbit(g: MatGroup, v, cap: int = DEFAULT_CAP) -> Orbit:
    """BFS closure of {v} under the generators."""
    v = tuple(map(operator.index, v))
    if len(v) != g.dim:
        raise ValueError("vector dimension does not match group dimension")
    seen, complete = _orbit_bfs(g.images, v, cap)
    if not complete:
        raise CapExceeded("orbit", cap)
    return Orbit(frozenset(seen), len(seen))


def stable_span(g: MatGroup, *vectors) -> LatticeBasis:
    """Smallest g-stable lattice containing the vectors, by HNF row insertion.

    Equals the span of the union of their orbits without listing an orbit:
    a worklist starts with all the vectors, each vector is inserted into
    the HNF, and the generator images of every vector that grows the span
    are queued.  A vector that does not grow the span lies in the span of
    earlier vectors that did, whose images are already queued, so the
    result is g-stable; every queued vector lies in one of the orbits, so
    the result is exactly the span of their union.  Every growth is a
    strict step up an ascending chain of sublattices of Z^n, and such
    chains are finite, so the worklist runs out.
    """
    todo = [tuple(map(operator.index, v)) for v in vectors]
    if any(len(w) != g.dim for w in todo):
        raise ValueError("vector dimension does not match group dimension")
    return LatticeBasis(g.dim, _span_rows(g.images, todo))


def _span_rows(images: Callable, todo: list) -> tuple:
    """Canonical HNF rows of the smallest stable lattice holding the tuples in todo.

    The one span worklist, for :func:`stable_span` and the search's orbit
    records: images is a kernel from :func:`_compile_images`, and todo is
    extended in place by the images of every tuple that grows the span.  A
    tuple inserted once is skipped when it comes again: it lies in the
    span, and either it grew the span, so its images are already queued,
    or it did not.
    """
    span: tuple = ()
    inserted = set()
    for w in todo:
        if w not in inserted:
            inserted.add(w)
            grown = _hnf_insert(span, w)
            if grown is not span:
                span = grown
                todo.extend(images(w))
    return span


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


def in_lattice_coordinates(g: MatGroup, l: LatticeBasis) -> MatGroup:
    """The action of g rewritten in the basis of a g-stable lattice.

    The resulting group acts on Z^rank(l); the change of basis is not a
    GL_n(Z) conjugation when l is a proper sublattice, but the restricted
    matrices are integral exactly because l is stable.  On all of Z^n
    (basis the identity) coordinates are ambient coordinates, so the
    result is g itself.
    """
    if l.ambient_dim != g.dim:
        raise ValueError("lattice dimension does not match group dimension")
    if l.is_full():
        return g
    images = [g.images(b) for b in l.rows()]
    gens = []
    for k in range(len(g.generators)):
        rows = [coordinates_in(imgs[k], l) for imgs in images]
        if None in rows:
            raise NotGStable("lattice is not stable under a generator")
        # rows[i] = coordinates of h(basis_i); action on coordinate columns
        # is the transpose of this coefficient matrix.
        gens.append(IntMatrix.from_rows(rows).transpose())
    return MatGroup(l.rank, gens)
