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
orbit sizes of all 3^r classes come from one table per search, one
kernel call per class; 3 <= 2 * radius + 1, so the table never has more
entries than the box.  After the basis vectors, only the box vectors in
classes whose size is at most the cap are listed, class by class, then
sorted into ``_box`` order, and each is checked again against the cap in
force when it is reached.  A box vector that is not listed or fails the
check has an orbit over the cap at that point, and the cap never rises,
so a BFS from it would be abandoned.  The records, their count and the
witness are those of visiting the whole box: an orbit is kept exactly
when its size is at most the cap at its first box vector in ``_box``
order, and that vector is listed and passes the check.  Over the 14 Weyl
lattices of rank 5 and 6 at radius 2, BFS starts fall from 16,183 to
1,050 and vectors visited from 168,115 to 25,558.  When no class is over
the cap, as for the trivial group, {+-I} or a coordinate swap, the whole
box is walked as it is generated, with no sort.

Orbits are ordered by (size, canonical representative) and the search
returns the first minimum it finds in that record order, so results are
reproducible run to run.  Only strictly smaller selections replace the
incumbent, so no equal-size candidates are compared.  (Exhausting *every*
equal-size combination purely to canonicalize the witness would be
exponential in the number of equal-size orbits and is deliberately not
done.)

The depth-first search carries each partial span as canonical HNF rows
and adds an orbit by inserting its span's rows one at a time.  It stops
a branch by three prunes: size per unit of rank (no completion can be
strictly cheaper than the incumbent), suffix span (the remaining orbits
cannot complete the span) and no progress (an orbit that leaves the span
unchanged is never chosen).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import neg

from .errors import CapExceeded, NotGStable, NotInLattice
from .intmat import IntVector, LatticeBasis, _hnf_insert, as_vector, full_lattice, hnf_from_rows, member
from .matgroup import (
    DEFAULT_CAP,
    MatGroup,
    _orbit_bfs,
    in_lattice_coordinates,
    is_lattice_stable,
    orbit,
    stable_span,
)


@dataclass(frozen=True)
class SymrankResult:
    """Outcome of a bounded-exhaustive symmetric-rank search."""

    upper_bound: int
    witness: tuple[IntVector, ...]  # orbit representatives, ambient coordinates
    lower_bound: int
    exactness: str  # "exact_within_bound" | "upper_only"
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
    return (max(map(abs, t)), tuple(map(abs, t)), tuple(-x for x in t))


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
    [0, m); the classes are visited orbit by orbit, so the kernel runs once
    per class.  Reduction mod m commutes with every integer matrix, so the
    orbit of v maps onto the orbit of its class and
    ``sizes[v mod m] <= |orbit(v)|``.
    """
    m = RESIDUE_MODULUS
    mod = m.__rmod__  # x -> x % m

    def images(c):
        return [tuple(map(mod, w)) for w in gl.images(c)]

    sizes: dict[tuple[int, ...], int] = {}
    for c in itertools.product(range(m), repeat=gl.dim):
        if c not in sizes:
            orb, _ = _orbit_bfs(images, c, m**gl.dim)
            sizes.update(dict.fromkeys(orb, len(orb)))
    return sizes


def _listed_box(r: int, radius: int, sizes: dict[tuple[int, ...], int], cap: int) -> list:
    """(v, b) for the box vectors v whose class allows an orbit within cap, in ``_rep_key`` order.

    b is a lower bound on the size of the orbit of v: its class's entry of
    ``sizes``, or 1 when no class is over the cap and the whole box is
    listed, already in order, by ``_box``.  Otherwise the vectors are
    listed class by class, each coordinate from the x in [-radius, radius]
    with x = c_i (mod m), and sorted.
    """
    if max(sizes.values()) <= cap:
        return [(v, 1) for v in _box(r, radius)]
    m = RESIDUE_MODULUS
    by_residue = [[x for x in range(-radius, radius + 1) if x % m == c] for c in range(m)]
    keyed = sorted(
        (_rep_key(v), v, s)
        for c, s in sizes.items()
        if s <= cap
        for v in itertools.product(*map(by_residue.__getitem__, c))
        if any(v)
    )
    return [(v, s) for _, v, s in keyed]


def _orbit_records(gl: MatGroup, radius: int, orbit_cap: int) -> list[_OrbitRecord]:
    """Group the coefficient box into orbits under the restricted action.

    Each record holds the orbit's size, its canonical representative and
    the canonical HNF rows of its span (from ``stable_span``), which the
    search inserts into a partial span one row at a time.

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
    cap is never listed, and a listed one is skipped, with no BFS, once
    the cap falls below its class's orbit size: its own orbit is at least
    as large (see the module docstring).

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
    """
    r = gl.dim
    full_rows = full_lattice(r).rows()
    seen: set[tuple[int, ...]] = set()
    records: list[_OrbitRecord] = []
    incumbent: int | None = None

    def build(v: tuple[int, ...], cap: int, kept) -> bool:
        """BFS from v within cap, marking ``kept(orbit)`` in seen; record the orbit if complete."""
        nonlocal incumbent
        orb, complete = _orbit_bfs(gl.images, v, cap, seen)
        reached = kept(orb)
        seen.update(reached)
        if not complete:
            seen.update(tuple(map(neg, w)) for w in reached)
            return False
        span = stable_span(gl, v).rows()
        records.append(_OrbitRecord(len(orb), min(orb, key=_rep_key), tuple(span)))
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
        if not build(v, cap, in_box) and incumbent is None:
            raise CapExceeded("orbit", cap)
    if incumbent is None:
        incumbent = sum(rec.size for rec in records)
    cap = min(orbit_cap, incumbent)
    listed = _listed_box(r, radius, _residue_orbit_sizes(gl), cap)
    listed_set = {v for v, _ in listed}
    for v, bound in listed:
        if bound > cap or v in seen:
            continue
        if build(v, cap, listed_set.intersection):
            cap = min(orbit_cap, incumbent)
    records.sort(key=lambda rec: (rec.size, _rep_key(rec.rep)))
    return records


def symrank_search(
    g: MatGroup,
    l: LatticeBasis,
    radius: int = 3,
    orbit_cap: int = DEFAULT_CAP,
) -> SymrankResult:
    """Minimal total size of a spanning union of orbits within the box."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if not is_lattice_stable(g, l):
        raise NotGStable("lattice is not stable under the group")
    r = l.rank
    if r == 0:
        return SymrankResult(0, (), 0, "exact_within_bound", radius, 0)
    gl = in_lattice_coordinates(g, l)
    records = _orbit_records(gl, radius, orbit_cap)
    full_rows = tuple(full_lattice(r).rows())

    def insert(span, rows):
        for row in rows:
            span = _hnf_insert(span, row)
        return span

    suffix_spans: list[tuple[tuple[int, ...], ...]] = [()] * (len(records) + 1)
    for i in range(len(records) - 1, -1, -1):
        suffix_spans[i] = insert(suffix_spans[i + 1], records[i].span_rows)
    # basis coefficient vectors are inside every box with radius >= 1, so a
    # spanning selection always exists
    if suffix_spans[0] != full_rows:
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

    def consider(size: int, chosen: list[int]):
        nonlocal best_size, best_reps
        # the prunes in dfs let only strictly smaller selections get here
        best_size = size
        best_reps = tuple(sorted((records[i].rep for i in chosen), key=_rep_key))

    def dfs(i: int, size: int, span: tuple[tuple[int, ...], ...], chosen: list[int]):
        if span == full_rows:
            consider(size, chosen)
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
        if suffix_spans[i] != full_rows and insert(span, suffix_spans[i]) != full_rows:
            return  # remaining orbits cannot complete the span
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
    # map representatives back to ambient coordinates and re-verify
    basis_rows = l.rows()
    ambient_reps = []
    for rep in best_reps:
        amb = [0] * l.ambient_dim
        for c, row in zip(rep, basis_rows):
            for j, e in enumerate(row):
                amb[j] += c * e
        ambient_reps.append(IntVector(tuple(amb)))
    union_rows = []
    for rep in ambient_reps:
        union_rows.extend(sorted(orbit(g, rep, orbit_cap).elements))
    if hnf_from_rows(union_rows, l.ambient_dim) != l:
        raise AssertionError("witness union does not span the target lattice")
    return SymrankResult(
        best_size,
        tuple(ambient_reps),
        r,
        "exact_within_bound",
        radius,
        len(records),
    )


def verify_orbit_generates(
    g: MatGroup, l: LatticeBasis, v, cap: int = DEFAULT_CAP
) -> tuple[bool, int]:
    """Whether the orbit of v spans l, along with the orbit size.

    v must lie in l (otherwise its orbit cannot even be a subset).
    """
    vv = as_vector(v)
    if not member(vv, l):
        raise NotInLattice(f"{vv.entries} is not in the target lattice")
    orb = orbit(g, vv, cap)
    span = hnf_from_rows(sorted(orb.elements), l.ambient_dim)
    return span == l, orb.size


@dataclass(frozen=True)
class CandidateResult:
    label: str
    result: SymrankResult


@dataclass(frozen=True)
class TableMaxReport:
    """Maximum symrank over user-supplied candidates.

    The report is conditional on the completeness of the candidate list;
    this tool never claims the list covers all conjugacy classes.
    """

    dim: int
    candidates: tuple[CandidateResult, ...]
    maximum: int
    tag: str = "conditional on candidate completeness"


def table_dimension_maximum(
    n: int,
    candidates,
    radius: int = 3,
    orbit_cap: int = DEFAULT_CAP,
) -> TableMaxReport:
    """Per-candidate search results and their maximum.

    candidates: iterable of (label, MatGroup, LatticeBasis) triples, all in
    ambient dimension n.
    """
    out = []
    for label, grp, lat in candidates:
        if grp.dim != n or lat.ambient_dim != n:
            raise ValueError("candidate dimension mismatch")
        out.append(CandidateResult(label, symrank_search(grp, lat, radius, orbit_cap)))
    if not out:
        raise ValueError("no candidates supplied")
    return TableMaxReport(n, tuple(out), max(c.result.upper_bound for c in out))
