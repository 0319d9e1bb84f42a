"""Certified upper bounds and bounded-exhaustive minima for symmetric ranks.

The search enumerates every lattice vector whose coefficient vector (in
the lattice's own basis) lies in the box [-B, B]^rank, groups them into
orbits, and runs a branch-and-bound over orbit subsets minimizing total
size subject to spanning the lattice.  The result is exact *within the
box*: a generating orbit of a farther vector could in principle be
smaller, so unconditional minimality is only claimed when the bound
meets the certified lower bound (the rank).

The box is generated in canonical niceness order (sup-norm, then absolute
values, then positive signs first), so the whole box is never sorted.
One ``seen`` set of box vectors, those whose orbit was built or abandoned
as too large, decides which vectors still start a BFS and stops a BFS that
reaches an abandoned orbit.

An abandoned BFS also marks the negations of the box vectors it reached.
This is sound because -I commutes with every generator: the orbit of -v
is minus the orbit of v and has the same size, the box is symmetric, and
the orbit-size cap never rises, so the orbit of -v is over every later
cap and would be abandoned too.

Most box vectors never start a BFS, by an exact lower bound on their
orbit size.  Reduction mod m commutes with every integer matrix, so the
orbit of v maps onto the orbit of v mod m in (Z/m)^r and
|orbit(v)| >= |orbit(v mod m)|.  With m = ``RESIDUE_MODULUS`` = 3 the
orbit sizes of all 3^r classes come from one table per search, built by
a BFS on the generators' compiled mod-m kernel (``_compile_images`` with
a modulus), one kernel call per class; 3 <= 2 * radius + 1, so the table
never has more entries than the box.  After the basis vectors, only the
box vectors in classes whose size is at most the cap are listed, class
by class, then sorted into ``_box`` order.  The listing is filtered
once, against the cap at listing time.  A box vector that is not listed
has an orbit over that cap, and the cap never rises, so a BFS from it
would be abandoned.  A listed vector whose class is over a cap that fell
later starts a BFS under the running cap, and that BFS is abandoned.
The records, their count and the witness are those of visiting the whole
box: an orbit is kept exactly when its size is at most the cap at its
first box vector in ``_box`` order.  Over the 14 Weyl lattices of rank 5
and 6 at radius 2, BFS starts fall from 16,183 to 1,050 and vectors
visited from 168,115 to 25,558.  When no class is over the cap, as for
the trivial group, {+-I} or a coordinate swap, the whole box is walked
as it is generated, with no sort.

An orbit record is built from plain tuples.  Its span rows come from the
one span worklist of ``matgroup`` (``_span_rows``), started at the BFS
start alone, and no lattice object is made per record.  Its
representative is the least vector of the orbit in ``_rep_key`` order:
a scan of the orbit for a basis vector, and the BFS start itself for a
box vector, since a complete BFS from a box vector proves that no
earlier box vector lies in its orbit (see ``_orbit_records``).

The box holds (2B + 1)^rank - 1 vectors, and a box larger than the
orbit cap raises ``CapExceeded`` before any vector is listed.

Orbits are ordered by (size, canonical representative) and the search
returns the first minimum it finds in that record order, so results are
reproducible run to run.  Only strictly smaller selections replace the
incumbent, so no equal-size candidates are compared.  (Exhausting *every*
equal-size combination purely to canonicalize the witness would be
exponential in the number of equal-size orbits and is deliberately not
done.)

The branch-and-bound is one routine over orbit records,
``_min_spanning_selection``, and it searches each distinct span once: a
later record with the span of an earlier one is never smaller, so a
minimum that holds it can swap it for the earlier one.  Its depth-first
search carries each partial span as canonical HNF rows and adds an orbit
by inserting its span's rows one at a time.  It stops a branch by two
prunes: size per unit of rank (no completion can be strictly cheaper than
the incumbent) and no progress (an orbit that leaves the span unchanged
is never chosen).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import neg

from .errors import CapExceeded, NotInLattice
from .intmat import IntMatrix, IntVector, LatticeBasis, _hnf_insert, as_vector, full_lattice, member
from .matgroup import (
    DEFAULT_CAP,
    MatGroup,
    _compile_images,
    _orbit_bfs,
    _rows_terms,
    _span_rows,
    in_lattice_coordinates,
    orbit,
    stable_span,
)


@dataclass(frozen=True)
class SymrankResult:
    """Outcome of a bounded-exhaustive symmetric-rank search."""

    upper_bound: int
    witness: tuple[IntVector, ...]  # orbit representatives, ambient coordinates
    lower_bound: int
    exactness: str  # "exact_within_bound"
    search_radius: int
    orbit_count: int  # orbits materialized (oversized orbits are pruned unmaterialized)

    @property
    def unconditional(self) -> bool:
        return self.upper_bound == self.lower_bound


@dataclass(frozen=True)
class _OrbitRecord:
    size: int
    rep: tuple[int, ...]
    span_rows: tuple[tuple[int, ...], ...]


RESIDUE_MODULUS = 3  # m in |orbit(v)| >= |orbit(v mod m)|; 3 <= 2 * radius + 1, so no more classes than box vectors


def _rep_key(t: tuple[int, ...]):
    """Canonical niceness order: small sup-norm, small entries, positive signs."""
    a = tuple(map(abs, t))
    return (max(a), a, tuple(map(neg, t)))


def _box(r: int, radius: int):
    """The nonzero vectors of [-radius, radius]^r in ``_rep_key`` order.

    By sup-norm m, then by the tuple of absolute values (every tuple with
    maximum m, in lexicographic order), then by signs, with x before -x at
    each nonzero entry from the left.
    """
    for m in range(1, radius + 1):
        for a in itertools.product(range(m + 1), repeat=r):
            if max(a) == m:
                yield from itertools.product(*[(x, -x) if x else (0,) for x in a])


def _residue_orbit_sizes(gl: MatGroup) -> dict[tuple[int, ...], int]:
    """The orbit size of every class c of (Z/m)^r under gl reduced mod m.

    m is ``RESIDUE_MODULUS``.  Classes are written with entries in
    [0, m); the classes are visited orbit by orbit, so the mod-m kernel
    from :func:`_compile_images` runs once per class.  Reduction mod m
    commutes with every integer matrix, so the orbit of v maps onto the
    orbit of its class and ``sizes[v mod m] <= |orbit(v)|``.
    """
    m = RESIDUE_MODULUS
    images = _compile_images(gl.dim, tuple(map(_rows_terms, gl.generators)), m)
    sizes: dict[tuple[int, ...], int] = {}
    for c in itertools.product(range(m), repeat=gl.dim):
        if c not in sizes:
            orb, _ = _orbit_bfs(images, c, m**gl.dim)
            sizes.update(dict.fromkeys(orb, len(orb)))
    return sizes


def _listed_box(r: int, radius: int, sizes: dict[tuple[int, ...], int], cap: int) -> list[tuple[int, ...]]:
    """The box vectors whose class allows an orbit within cap, in ``_rep_key`` order.

    When no class is over the cap the whole box is listed, already in
    order, by ``_box``.  Otherwise the vectors are listed class by class,
    each coordinate from the x in [-radius, radius] with x = c_i (mod m),
    and sorted.  The listing is filtered once, against the cap at listing
    time.
    """
    if max(sizes.values()) <= cap:
        return list(_box(r, radius))
    m = RESIDUE_MODULUS
    by_residue = [[x for x in range(-radius, radius + 1) if x % m == c] for c in range(m)]
    listed = [
        v
        for c, s in sizes.items()
        if s <= cap
        for v in itertools.product(*map(by_residue.__getitem__, c))
        if any(v)
    ]
    listed.sort(key=_rep_key)
    return listed


def _orbit_records(gl: MatGroup, radius: int, orbit_cap: int) -> list[_OrbitRecord]:
    """Group the coefficient box into orbits under the restricted action.

    Each record holds the orbit's size, its canonical representative and
    the canonical HNF rows of its span, which the search inserts into a
    partial span one row at a time.  The rows come from the span worklist
    of ``matgroup`` (``_span_rows``) started at the BFS start alone, as
    plain tuples.

    The basis vectors are visited first, then the box vectors that
    ``_listed_box`` lists, in ``_box`` order; ``seen`` holds the box
    vectors whose orbit was built or abandoned, so each orbit is built at
    most once.  BFS of a new orbit is capped at the incumbent bound once
    one is known: an orbit strictly larger than an already-found spanning
    configuration can never occur in a minimal solution, so abandoning it
    is sound.  The first incumbent is the size of a single spanning orbit
    or, once the basis vectors are visited, the total size of their
    distinct orbits, whose union spans.

    A box vector whose class mod ``RESIDUE_MODULUS`` has an orbit over the
    cap at listing time is never listed: its own orbit is at least as
    large (see the module docstring).  A listed vector is not checked
    again when the cap falls; if its orbit is over the running cap, its
    BFS is abandoned.

    Generator BFS in a finite group reaches only vectors of the start's
    orbit, and orbits are disjoint, so a BFS never reaches a vector of an
    orbit that was built: a vector in ``seen`` that it reaches lies in an
    abandoned orbit, and ``seen`` is its stop set.  The incumbent only
    falls, so the cap in force when that orbit was abandoned is never below
    a later cap: the later BFS is in an orbit over its own cap and stops
    there.  An abandoned BFS also puts the negations of the box vectors it
    reached in ``seen``: they lie in an orbit of the same size (see the
    module docstring).  Vectors outside the box are not kept, and in the
    box phase only listed vectors are, which keeps memory at the size of
    the box.

    The representative is the ``_rep_key`` minimum of the orbit.  In the
    basis phase it is found by a scan of the orbit, since e_i need not be
    that minimum.  In the box phase it is the BFS start v itself, when
    the BFS is complete.  Let w be a vector of v's orbit before v in
    ``_rep_key`` order.  Its sup-norm is at most v's, so w is in the box;
    its class mod ``RESIDUE_MODULUS`` lies in the orbit of v's class, which
    has the same size, so w is listed, and before v.  By w's turn the
    orbit was built, which put v in ``seen``, or it was abandoned or
    negation-marked at a cap at least the current one, so it is over the
    current cap.  Either way v's BFS cannot be complete.
    """
    r = gl.dim
    full_rows = tuple(full_lattice(r).rows())
    seen: set[tuple[int, ...]] = set()
    records: list[_OrbitRecord] = []
    incumbent: int | None = None

    def build(v: tuple[int, ...], cap: int, kept, v_is_rep: bool) -> bool:
        """BFS from v within cap, marking ``kept(orbit)`` in seen; record the orbit if complete."""
        nonlocal incumbent
        orb, complete = _orbit_bfs(gl.images, v, cap, seen)
        reached = kept(orb)
        seen.update(reached)
        if not complete:
            seen.update(tuple(map(neg, w)) for w in reached)
            return False
        span = _span_rows(gl.images, [v])
        rep = v if v_is_rep else min(orb, key=_rep_key)
        records.append(_OrbitRecord(len(orb), rep, span))
        if span == full_rows and (incumbent is None or len(orb) < incumbent):
            incumbent = len(orb)
        return True

    def in_box(orb) -> list[tuple[int, ...]]:
        return [w for w in orb if max(map(abs, w)) <= radius]

    for i in range(r):
        v = tuple(int(i == j) for j in range(r))
        if v in seen:
            continue
        cap = orbit_cap if incumbent is None else min(orbit_cap, incumbent)
        if not build(v, cap, in_box, False) and incumbent is None:
            raise CapExceeded("orbit", cap)
    if incumbent is None:
        incumbent = sum(rec.size for rec in records)
    cap = min(orbit_cap, incumbent)
    listed = _listed_box(r, radius, _residue_orbit_sizes(gl), cap)
    listed_set = set(listed)
    for v in listed:
        if v in seen:
            continue
        if build(v, cap, listed_set.intersection, True):
            cap = min(orbit_cap, incumbent)
    records.sort(key=lambda rec: (rec.size, _rep_key(rec.rep)))
    return records


def _min_spanning_selection(records: list[_OrbitRecord], r: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The first least total size of records whose spans together span Z^r, and their reps.

    records come in record order, by (size, ``_rep_key(rep)``), and the
    reps are returned in ``_rep_key`` order.  The depth-first search tries
    including each record before excluding it, replaces the incumbent only
    by a strictly smaller selection, never chooses a record that leaves the
    span unchanged, and returns the first minimum in that order.

    Only the first record of each distinct ``span_rows`` is searched, and
    this changes neither the size nor the reps returned.  Let i < j share a
    span, so size(i) <= size(j).  A minimal selection S holding j cannot
    hold i too, since j after i adds nothing; S - j + i spans, is no
    larger and so is minimal as well, and each of its records still grows
    the span, or a smaller selection would exist.  The search reaches
    S - j + i before S, as it includes i before excluding it, so the first
    minimum holds no repeated span.  Over the kept records it visits the
    same selections in the same order, less those that hold a repeat, and
    both prunes stay sound.
    """
    first: dict[tuple[tuple[int, ...], ...], _OrbitRecord] = {}
    for rec in records:
        first.setdefault(rec.span_rows, rec)
    records = list(first.values())
    full_rows = tuple(full_lattice(r).rows())

    def insert(span, rows):
        for row in rows:
            span = _hnf_insert(span, row)
        return span

    # a spanning selection must exist, or the search below would walk its
    # whole tree to find none
    if insert((), (row for rec in records for row in rec.span_rows)) != full_rows:
        raise AssertionError("records fail to span Z^r")
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


def symrank_search(
    g: MatGroup,
    l: LatticeBasis,
    radius: int = 3,
    orbit_cap: int = DEFAULT_CAP,
) -> SymrankResult:
    """Minimal total size of a spanning union of orbits within the box.

    orbit_cap bounds every enumeration of the search: the box, each orbit
    BFS and the witness re-verification.  A box of more than orbit_cap
    vectors raises ``CapExceeded("box", orbit_cap)`` before any is listed.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    gl = in_lattice_coordinates(g, l)  # NotGStable unless g keeps l
    r = l.rank
    if (2 * radius + 1) ** r - 1 > orbit_cap:
        raise CapExceeded("box", orbit_cap)
    if r == 0:
        return SymrankResult(0, (), 0, "exact_within_bound", radius, 0)
    # basis coefficient vectors are inside every box with radius >= 1, so
    # the records span Z^r
    records = _orbit_records(gl, radius, orbit_cap)
    best_size, best_reps = _min_spanning_selection(records, r)
    # map representatives back to ambient coordinates (rep . basis) and
    # re-verify both the bound and the span in the group's own action
    ambient_reps = tuple(map(IntVector, IntMatrix.from_rows(best_reps).mul(l.basis).to_rows()))
    union = set().union(*(orbit(g, rep, orbit_cap).elements for rep in ambient_reps))
    if len(union) != best_size:
        raise AssertionError(f"witness orbits hold {len(union)} vectors, not {best_size}")
    if stable_span(g, *ambient_reps) != l:
        raise AssertionError("witness union does not span the target lattice")
    return SymrankResult(
        best_size,
        ambient_reps,
        r,
        "exact_within_bound",
        radius,
        len(records),
    )


def verify_orbit_generates(
    g: MatGroup, l: LatticeBasis, v, cap: int = DEFAULT_CAP
) -> tuple[bool, int]:
    """Whether the orbit of v spans l, along with the orbit size.

    v must lie in l (otherwise its orbit cannot even be a subset).  The
    orbit is listed first, so an orbit over cap raises ``CapExceeded``;
    its span is then ``stable_span``, which lists no orbit.
    """
    vv = as_vector(v)
    if not member(vv, l):
        raise NotInLattice(f"{vv.entries} is not in the target lattice")
    size = orbit(g, vv, cap).size
    return stable_span(g, vv) == l, size
