"""Certified upper bounds and bounded-exhaustive minima for symmetric ranks.

The search enumerates every lattice vector whose coefficient vector (in
the lattice's own basis) lies in the box [-B, B]^rank, groups them into
orbits, and runs a branch-and-bound over orbit subsets minimizing total
size subject to spanning the lattice.  The result is exact *within the
box*: a generating orbit of a farther vector could in principle be
smaller, so unconditional minimality is only claimed when the bound
meets the certified lower bound (the rank).

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

from .errors import CapExceeded, NotGStable, NotInLattice
from .intmat import IntVector, LatticeBasis, _hnf_insert, as_vector, full_lattice, hnf_from_rows
from .matgroup import (
    DEFAULT_ORBIT_CAP,
    MatGroup,
    _moved_rows,
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


def _rep_key(t: tuple[int, ...]):
    """Canonical niceness order: small sup-norm, small entries, positive signs."""
    return (max(map(abs, t)), tuple(map(abs, t)), tuple(-x for x in t))


def _orbit_records(gl: MatGroup, radius: int, orbit_cap: int) -> list[_OrbitRecord]:
    """Group the coefficient box into orbits under the restricted action.

    Each record holds the orbit's size, its canonical representative and
    the canonical HNF rows of its span (from ``stable_span``), which the
    search inserts into a partial span one row at a time.

    Each orbit is built at most once.  BFS of a new orbit is capped at the
    incumbent bound once one is known: an orbit strictly larger than an
    already-found spanning configuration can never occur in a minimal
    solution, so abandoning it is sound.  Generator BFS in a finite group
    reaches only vectors of the start's orbit, so every box vector an
    abandoned BFS reached lies in that oversized orbit and is marked
    ``big`` at once.  The incumbent only falls, so the cap in force when a
    vector was marked is never below a later cap: a later BFS that reaches
    a marked vector is in an orbit over its own cap and stops there.
    Vectors outside the box are not marked, which keeps memory at the size
    of the box.
    """
    r = gl.dim
    box = [c for c in itertools.product(range(-radius, radius + 1), repeat=r) if any(c)]
    box.sort(key=_rep_key)
    full_rows = tuple(full_lattice(r).rows())
    box_set = set(box)
    moved = _moved_rows(gl.generators)
    big: set[tuple[int, ...]] = set()  # box vectors known to be in oversized orbits
    records: list[_OrbitRecord] = []
    vector_record: dict[tuple[int, ...], int] = {}  # box vector -> index of its orbit
    incumbent: int | None = None
    basis_vectors = [tuple(int(i == j) for j in range(r)) for i in range(r)]

    def union_incumbent() -> int | None:
        idxs = []
        for e in basis_vectors:
            if e not in vector_record:
                return None
            if vector_record[e] not in idxs:
                idxs.append(vector_record[e])
        return sum(records[i].size for i in idxs)

    for coeffs in basis_vectors + box:
        if coeffs in vector_record or coeffs in big:
            continue
        cap = orbit_cap if incumbent is None else min(orbit_cap, incumbent)
        orb, complete = _orbit_bfs(moved, coeffs, cap, big)
        if not complete:
            if incumbent is None:
                raise CapExceeded("orbit", cap)
            big.update(box_set.intersection(orb))
            continue
        idx, size = len(records), len(orb)
        span = stable_span(gl, coeffs)
        rep = min(orb, key=_rep_key)
        records.append(_OrbitRecord(size, rep, tuple(span.rows())))
        for e in box_set.intersection(orb):
            vector_record[e] = idx
        if span.rows() == list(full_rows) and (incumbent is None or size < incumbent):
            incumbent = size
        if incumbent is None:
            u = union_incumbent()
            if u is not None:
                incumbent = u
    records.sort(key=lambda rec: (rec.size, _rep_key(rec.rep)))
    return records


def symrank_search(
    g: MatGroup,
    l: LatticeBasis,
    radius: int = 3,
    orbit_cap: int = DEFAULT_ORBIT_CAP,
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
    g: MatGroup, l: LatticeBasis, v, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[bool, int]:
    """Whether the orbit of v spans l, along with the orbit size.

    v must lie in l (otherwise its orbit cannot even be a subset).
    """
    vv = as_vector(v)
    from .intmat import member

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
    orbit_cap: int = DEFAULT_ORBIT_CAP,
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
