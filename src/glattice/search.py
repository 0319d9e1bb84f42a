"""Certified upper bounds and bounded-exhaustive minima for symmetric ranks.

The search enumerates every lattice vector whose coefficient vector (in
the lattice's own basis) lies in the box [-B, B]^rank, groups them into
orbits, and runs a branch-and-bound over orbit subsets minimizing total
size subject to spanning the lattice.  The result is exact *within the
box*: a generating orbit of a farther vector could in principle be
smaller, so unconditional minimality is only claimed when the bound
meets the certified lower bound (the rank).

Orbits are built by one routine, ``_orbit_records``, over a listing of
candidates: the basis vectors first, as a seed, then the listed vectors
in order.  Its docstring states the three conditions a listing meets and
shows from them that the records are those of the unfiltered candidates
and that a listed orbit's representative is its BFS start.  A record
holds its size, its representative, the group's kernel and a bound on the
rank of its span, min(rank, |O|/2 if -v is in O, else |O|).  Its span
rows are computed the first time they are read and then kept: they come
from the one span worklist of ``matgroup`` (``_span_rows``) started at
the representative, and are the rows a ``LatticeBasis`` of that span
holds.  The search reads only the spans it needs, often a handful where
the box holds hundreds of orbits.

The search's listing (``_listed_box``) is the box in ``_rep_key`` order
(sup-norm, then absolute values, then positive signs first) less the
vectors that an exact lower bound puts over the cap.  Reduction mod m
commutes with every integer matrix, so the orbit of v maps onto the
orbit of v mod m in (Z/m)^r and |orbit(v)| >= |orbit(v mod m)|, a bound
that is the same on the whole orbit.  With m = ``RESIDUE_MODULUS`` = 3
the orbit sizes of all 3^r classes come from one table per search
(``_residue_orbit_sizes``), built by a BFS on the generators' compiled
mod-m kernel (``_compile_images`` with a modulus), one kernel call per
class; 3 <= 2 * radius + 1, so the table never has more entries than the
box.  The box vectors of the classes within the cap at listing time are
listed class by class and sorted into that order.  When no class is over
the cap, as for the trivial group, {+-I} or a coordinate swap, the whole
box is listed as ``_box`` generates it, with no sort.  The least vector
of an orbit has the least sup-norm, so it is in the box when any member
is, and its class lies in the same class orbit, so it is listed, and
first, when any member is.

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
prunes, both before it reads the next record's span: size per unit of
rank, with each record's rank bound in place of its rank (no completion
can be strictly cheaper than the incumbent), and no progress (an orbit
that leaves the span unchanged is never chosen).  A record whose span an
earlier record has is skipped when the search reaches it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul, neg
from typing import Callable

from .errors import CapExceeded, NotInLattice
from .intmat import IntVector, LatticeBasis, _hnf_insert, as_vector, full_lattice, member
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


@dataclass(frozen=True)
class _OrbitRecord:
    """A kept orbit: its size, rep, a bound on its span's rank and, read on demand, that span's rows."""

    size: int
    rep: tuple[int, ...]
    rank_bound: int  # min(r, |O| / 2 if -rep is in O else |O|)
    images: Callable = field(repr=False, compare=False)  # the group's kernel

    @cached_property
    def span_rows(self) -> tuple[tuple[int, ...], ...]:
        return _span_rows(self.images, [self.rep])


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


def _orbit_records(gl: MatGroup, listing, orbit_cap: int) -> list[_OrbitRecord]:
    """Group the basis vectors, then the candidates that listing gives, into orbits.

    Each record holds the orbit's size, its representative (the
    ``_rep_key`` least vector of the orbit), the kernel, and a bound on
    the rank of its span: min(r, |O|/2 if -v is in O, else |O|), since if
    -v is in O then O = -O, and each pair +-w spans one line.  The
    canonical HNF rows of the span, which the search inserts into a
    partial span one row at a time, are read on demand: the span worklist
    of ``matgroup`` (``_span_rows``) runs from the representative alone,
    as plain tuples, the first time a record's ``span_rows`` is read.
    Only a span of rank r can be Z^r, so a record is read here only when
    its rank bound is r and it is smaller than the incumbent.

    The basis vectors are the seed, and their orbits span Z^r.  The first
    incumbent is the size of a single spanning orbit among them or, once
    they are all visited, the total size of their distinct orbits.  Then
    ``listing(cap)``, called once at the cap the seed left, returns a list
    of candidate tuples in the order in which they start a BFS.  BFS of a new
    orbit is capped at the incumbent once one is known: an orbit strictly
    larger than a spanning configuration already found can never occur in
    a minimal solution, so abandoning it is sound.  The incumbent only
    falls, so the cap never rises.

    ``seen`` holds the vectors whose orbit was built or abandoned: all
    that a seed BFS reached (a seed orbit is held by its BFS anyway), and
    the listed ones that a listed BFS reached, so each orbit is built at
    most once.  Generator BFS in a finite group reaches only vectors of
    the start's orbit, and orbits are disjoint, so a vector in ``seen``
    that a BFS reaches lies in an orbit abandoned at a cap no lower than
    the BFS's own, and ``seen`` is its stop set.  An abandoned BFS also
    puts the negations of the vectors it kept in ``seen``: -I commutes
    with every generator, so the orbit of -w is minus the orbit of w, of
    the same size, and would be abandoned too.

    The listing meets three conditions:

    1. a candidate is left out only by a lower bound on its orbit size
       that is the same on its whole orbit and is over the cap;
    2. if an orbit has a listed member, its ``_rep_key`` least member is
       listed and comes before its other listed members;
    3. the cap never rises.

    By 1 and 3 an orbit with a candidate left out is over every cap from
    the listing on, so its BFS would have been abandoned, and the records
    are those of the unfiltered candidates: an orbit is kept exactly when
    its size is at most the cap at its first vector, basis vectors first.
    A seed orbit's representative is found by a scan of the orbit, since
    e_i need not be its least member.  A listed orbit's is its BFS start
    v.  Let w be a member of v's orbit before v in ``_rep_key`` order.  By
    2, w is listed, and before v.  By w's turn the orbit was built, which
    put v in ``seen``, or it was abandoned or negation-marked at a cap no
    lower than the current one, by 3, so it is over the current cap.
    Either way v's BFS cannot be complete.
    """
    r = gl.dim
    full_rows = full_lattice(r).hnf_rows
    seen: set[tuple[int, ...]] = set()
    records: list[_OrbitRecord] = []
    incumbent: int | None = None

    def build(v: tuple[int, ...], cap: int, listed: set | None) -> bool:
        """BFS from v within cap; mark the reach in seen (past the seed, its listed part); record the orbit if complete."""
        nonlocal incumbent
        orb, complete = _orbit_bfs(gl.images, v, cap, seen)
        kept = orb if listed is None else listed.intersection(orb)
        seen.update(kept)
        if not complete:
            seen.update(tuple(map(neg, w)) for w in kept)
            return False
        size = len(orb)
        rank_bound = min(r, size // 2 if tuple(map(neg, v)) in orb else size)
        rec = _OrbitRecord(size, min(orb, key=_rep_key) if listed is None else v, rank_bound, gl.images)
        records.append(rec)
        if rank_bound == r and (incumbent is None or size < incumbent) and rec.span_rows == full_rows:
            incumbent = size
        return True

    for i in range(r):
        v = tuple(int(i == j) for j in range(r))
        if v in seen:
            continue
        cap = orbit_cap if incumbent is None else min(orbit_cap, incumbent)
        if not build(v, cap, None) and incumbent is None:
            raise CapExceeded("orbit", cap)
    if incumbent is None:
        incumbent = sum(rec.size for rec in records)
    cap = min(orbit_cap, incumbent)
    listed = listing(cap)
    listed_set = set(listed)
    for v in listed:
        if v not in seen and build(v, cap, listed_set):
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
    minimum holds no repeated span.

    The check is made when the search reaches a record, after the prunes:
    it reads the record's span then, and skips the record when
    ``first.setdefault(span, i) != i``.  The search reaches record i only
    from record i - 1, after that record's prunes, so the span of every
    earlier record is in ``first`` before record i is first reached, and
    no later record is reached before it; a record is skipped exactly when
    an earlier record has its span.  The size-per-rank prune takes, for
    each record j, its rank bound k_j = min(r, |O_j|/2 if -v is in O_j,
    else |O_j|) in place of the rank of its span, which is no larger, and
    takes the least rate over every later record, repeats included.  So
    both prunes stay sound and are no stronger than over the distinct
    spans with exact ranks: they cut no branch that holds a strictly
    smaller selection, and the first minimum in record order is the same.
    """
    full_rows = full_lattice(r).hnf_rows

    def insert(span, rows):
        for row in rows:
            span = _hnf_insert(span, row)
        return span

    # a spanning selection must exist, or the search below would walk its
    # whole tree to find none; the spans are read in record order until
    # they span Z^r
    span = ()
    for rec in records:
        span = insert(span, rec.span_rows)
        if span == full_rows:
            break
    else:
        raise AssertionError("records fail to span Z^r")
    # suffix_rate[i] = (a, b): a/b is the least size per unit of rank,
    # s_j / k_j, over records j >= i; an orbit of size s_j raises the rank
    # of a span by at most its rank bound k_j
    suffix_rate: list[tuple[int, int]] = [(1, 0)] * len(records)
    rate = (1, 0)  # 1/0 stands for infinity; every k_j is at least 1
    for i in range(len(records) - 1, -1, -1):
        s, k = records[i].size, records[i].rank_bound
        if s * rate[1] < rate[0] * k:
            rate = (s, k)
        suffix_rate[i] = rate
    first: dict[tuple[tuple[int, ...], ...], int] = {}  # span rows -> index of its first record

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
        if first.setdefault(rec.span_rows, i) == i:
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
    # the seed's basis vectors lie in every box with radius >= 1, so every
    # record is an orbit of the box
    records = _orbit_records(gl, lambda cap: _listed_box(r, radius, _residue_orbit_sizes(gl), cap), orbit_cap)
    best_size, best_reps = _min_spanning_selection(records, r)
    # map representatives back to ambient coordinates (rep . hnf_rows) and
    # re-verify both the bound and the span in the group's own action
    ambient_reps = tuple(IntVector(tuple(sum(map(mul, rep, col)) for col in zip(*l.hnf_rows))) for rep in best_reps)
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

    g must keep l (``NotGStable`` otherwise, as in :func:`symrank_search`)
    and v must lie in l (otherwise its orbit cannot even be a subset).  The
    orbit is listed first, so an orbit over cap raises ``CapExceeded``;
    its span is then ``stable_span``, which lists no orbit.
    """
    in_lattice_coordinates(g, l)  # NotGStable unless g keeps l
    vv = as_vector(v)
    if not member(vv, l):
        raise NotInLattice(f"{vv.entries} is not in the target lattice")
    size = orbit(g, vv, cap).size
    return stable_span(g, vv) == l, size
