"""The three benchmark workloads: inputs, reference answers and checks.

Each workload is a list of :class:`Instance` objects built by :func:`setup`.
``run`` is the timed call into glattice; ``check`` runs afterwards, outside
the timed region, and compares the answer with a reference held here as a
literal (never computed by glattice).  Search witnesses are re-checked with
the small independent orbit and Hermite-normal-form routines below.
"""
from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("weyl-search", "small-groups", "certify")

# ---------------------------------------------------------------------------
# Reference answers (literals).
# ---------------------------------------------------------------------------

# Symmetric ranks of the Weyl lattices, from the source paper's table.
# Key: (root system, lattice label as printed by `rootsys-table`).
PAPER_SYMRANK = {
    ("A5", "L"): 6,
    ("A5", "L+2"): 15,
    ("A5", "L+3"): 20,
    ("A5", "Lr"): 30,
    ("B5", "L"): 32,
    ("B5", "Lr"): 10,
    ("C5", "L"): 10,
    ("C5", "Lr"): 40,
    ("D5", "L"): 16,
    ("D5", "L+2"): 10,
    ("D5", "Lr"): 40,
    ("A6", "L"): 7,
    ("D6", "L"): 12,
    ("E6", "L"): 27,
    ("E6", "Lr"): 72,
    ("E7", "L"): 56,
    ("E7", "Lr"): 126,
    ("E8", "L=Lr"): 240,
    ("F4", "L=Lr"): 24,
    ("G2", "L=Lr"): 6,
}

# weyl-search rows: (root system, label, glattice lattice kind, kind parameter).
# The even-D "L" row is the index-2 lattice spanned by the lambda_1 orbit.
WEYL_SEARCH_ROWS = (
    ("A5", "L", "weight", None),
    ("A5", "L+2", "intermediate", 2),
    ("A5", "L+3", "intermediate", 3),
    ("A5", "Lr", "root", None),
    ("B5", "L", "weight", None),
    ("B5", "Lr", "root", None),
    ("C5", "L", "weight", None),
    ("C5", "Lr", "root", None),
    ("D5", "L", "weight", None),
    ("D5", "L+2", "intermediate_D", 1),
    ("D5", "Lr", "root", None),
    ("A6", "L", "weight", None),
    ("D6", "L", "intermediate_D", 1),
    ("E6", "L", "weight", None),
)
WEYL_SEARCH_RADIUS = 2

WEYL_ORDER = {"F4": 1152, "A5": 720, "B5": 3840, "D5": 1920, "A6": 5040, "D6": 23040}

E8_THETA = (1, 0, 240, 0, 2160, 0, 6720)  # N_0 .. N_6 of the E8 root lattice

PROP515_ORBITS = {7: (14, 84, 128), 11: (22, 220, 2048), 13: (26, 312, 8192)}

# x^p - 1 over GF(2) has (p - 1) / ord_2(p) + 1 irreducible factors.
GF2_FACTOR_COUNT = {127: 126 // 7 + 1, 257: 256 // 16 + 1, 521: 520 // 260 + 1}


def _perm_matrix(n: int, images: dict[int, int]) -> list[list[int]]:
    """Permutation matrix sending e_i to e_images[i] (identity elsewhere)."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[images.get(i, i)][i] = 1
    return m


def _minus_identity(n: int) -> list[list[int]]:
    return [[-int(i == j) for j in range(n)] for i in range(n)]


# small-groups: (name, n, generators, box radius B, expected symmetric rank).
SMALL_GROUPS = (
    ("trivial-Z3-B3", 3, (), 3, 3),
    ("trivial-Z4-B1", 4, (), 1, 4),
    ("pm-Z3-B3", 3, (_minus_identity(3),), 3, 6),
    ("pm-Z4-B1", 4, (_minus_identity(4),), 1, 8),
    ("swap-Z3-B3", 3, (_perm_matrix(3, {0: 1, 1: 0}),), 3, 3),
    ("swap-Z4-B1", 4, (_perm_matrix(4, {0: 1, 1: 0}),), 1, 4),
    ("cycle4-Z4-B2", 4, (_perm_matrix(4, {0: 1, 1: 2, 2: 3, 3: 0}),), 2, 4),
    ("S3-Z3-B3", 3, (_perm_matrix(3, {0: 1, 1: 0}), _perm_matrix(3, {0: 1, 1: 2, 2: 0})), 3, 3),
)

# Cheap subsets for the smoke tests (run.py --smoke); timed runs use every instance.
SMOKE = {
    "weyl-search": {"A5 L", "C5 L", "B5 Lr"},
    "small-groups": {"pm-Z4-B1", "swap-Z4-B1", "cycle4-Z4-B2"},
    "certify": {"closure W(F4)", "closure W(A5)", "verify prop515", "theta E8", "gf2 127", "monomial 7"},
}

# ---------------------------------------------------------------------------
# Independent checking routines (plain Python, no glattice).
# ---------------------------------------------------------------------------


def orbit(gens, v, cap: int = 10**6) -> set[tuple[int, ...]]:
    """Orbit of v under the matrices gens (acting on column vectors)."""
    seen = {tuple(v)}
    queue = [tuple(v)]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = tuple(sum(a * b for a, b in zip(row, cur)) for row in g)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise ValueError("reference orbit exceeds its cap")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def hnf(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of the integer span of rows."""
    rest = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    for col in range(n):
        while True:
            nz = [r for r in rest if r[col]]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda r: abs(r[col]))
            for r in nz:
                if r is not piv:
                    q = r[col] // piv[col]
                    for j in range(col, n):
                        r[j] -= q * piv[j]
            rest = [r for r in rest if any(r)]
        nz = [r for r in rest if r[col]]
        if nz:
            piv = nz[0]
            rest.remove(piv)
            if piv[col] < 0:
                piv[:] = [-x for x in piv]
            out.append(piv)
    for i, r in enumerate(out):
        c = next(j for j, x in enumerate(r) if x)
        for k in range(i):
            q = out[k][c] // r[c]
            out[k] = [a - q * b for a, b in zip(out[k], r)]
    return tuple(tuple(r) for r in out)


def witness_error(gens, witness, target_rows, expected: int) -> str | None:
    """Why a witness fails: its orbit union must have the claimed size and span the target."""
    n = len(target_rows[0])
    union: set[tuple[int, ...]] = set()
    for w in witness:
        union |= orbit(gens, w)
    if len(union) != expected:
        return f"witness orbits have {len(union)} vectors, expected {expected}"
    if hnf(sorted(union), n) != hnf(target_rows, n):
        return "witness orbits do not span the target lattice"
    return None


# ---------------------------------------------------------------------------
# Instances.
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    name: str
    run: Callable[[], object]  # the timed call into glattice
    check: Callable[[object], str | None]  # None when the answer is right


def _cli_runner(glattice, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        buf = io.StringIO()
        rc = glattice.cli.main(argv, out=buf)
        return rc, buf.getvalue()

    return run


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _cli_check(check_tables: Callable[[list], str | None]):
    """Check of a CLI run: exit code 0, then check_tables on its JSON output."""
    def check(result) -> str | None:
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        return check_tables(_json_lines(text))

    return check


def _all_pass(tables: list) -> str | None:
    bad = [r for r in tables[0] if r.get("status") != "pass"]
    return f"rows not passing: {bad}" if bad else None


def _spec(name: str):
    return name[0], int(name[1:])


def _weyl_search(glattice, workdir: Path) -> list[Instance]:
    models = {}
    out = []
    for system, label, kind, d in WEYL_SEARCH_ROWS:
        if system not in models:
            models[system] = glattice.rootsys.build(glattice.rootsys.RootSystemSpec(*_spec(system)))
        model = models[system]
        lat = glattice.rootsys.lattice(model, kind, d)
        stem = f"{system}-{label.replace('+', 'p')}"
        group_path = workdir / f"{stem}-group.json"
        lattice_path = workdir / f"{stem}-lattice.json"
        gens = model.simple_reflections
        group_path.write_text(json.dumps(glattice.serialize.group_to_json(model.rank, gens, label=system)))
        basis = glattice.intmat.IntMatrix.from_rows(lat.basis.rows())
        lattice_path.write_text(json.dumps(glattice.serialize.matrix_to_json(basis)))
        argv = ["symrank", "--group", str(group_path), "--lattice", str(lattice_path),
                "--radius", str(WEYL_SEARCH_RADIUS)]
        out.append(Instance(
            f"{system} {label}",
            _cli_runner(glattice, argv),
            _symrank_cli_check([g.to_rows() for g in gens], lat.basis.rows(),
                               PAPER_SYMRANK[(system, label)]),
        ))
    return out


def _symrank_cli_check(gens, target_rows, expected: int):
    def check(result) -> str | None:
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        payload = json.loads(text)
        if payload["upper_bound"] != expected:
            return f"symmetric rank {payload['upper_bound']}, expected {expected}"
        witness = [tuple(int(x) for x in w["entries"]) for w in payload["witness"]]
        return witness_error(gens, witness, target_rows, expected)

    return check


def _signed_permutation(n: int, rng: random.Random) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = rng.choice((1, -1))
    return m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _small_groups(glattice, rng: random.Random) -> list[Instance]:
    out = []
    for name, n, gens, radius, expected in SMALL_GROUPS:
        # P g P^-1 with P a signed permutation (P^-1 = P^T): the box
        # [-B, B]^n is mapped onto itself, so the answer is unchanged.
        p = _signed_permutation(n, rng)
        conj = [_matmul(_matmul(p, g), _transpose(p)) for g in gens]
        matrices = tuple(glattice.intmat.IntMatrix.from_rows(g) for g in conj)
        lattice = glattice.intmat.full_lattice(n)

        def run(n=n, matrices=matrices, lattice=lattice, radius=radius):
            group = glattice.matgroup.MatGroup(n, matrices)
            return glattice.search.symrank_search(group, lattice, radius=radius)

        def check(res, conj=conj, n=n, expected=expected) -> str | None:
            if res.upper_bound != expected:
                return f"symmetric rank {res.upper_bound}, expected {expected}"
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            return witness_error(conj, [w.entries for w in res.witness], identity, expected)

        out.append(Instance(name, run, check))
    return out


def _certify(glattice, workdir: Path) -> list[Instance]:
    out = []
    for system, order in WEYL_ORDER.items():
        model = glattice.rootsys.build(glattice.rootsys.RootSystemSpec(*_spec(system)))

        def run(model=model):
            # a fresh group each time: MatGroup caches its closure
            group = glattice.matgroup.MatGroup(model.rank, model.simple_reflections)
            return glattice.matgroup.closure(group)[1]

        def check(got, order=order) -> str | None:
            return None if got == order else f"order {got}, expected {order}"

        out.append(Instance(f"closure W({system})", run, check))

    def table_check(tables) -> str | None:
        got = {(r["root_system"], r["lattice"]): r["symrank"] for r in tables[0]}
        bad = {k: (got.get(k), v) for k, v in PAPER_SYMRANK.items() if got.get(k) != v}
        return f"(got, expected) differ: {bad}" if bad else None

    out.append(Instance(
        "rootsys-table 8",
        _cli_runner(glattice, ["--format", "json", "rootsys-table", "--max-rank", "8"]),
        _cli_check(table_check),
    ))

    def prop515_check(tables) -> str | None:
        err = _all_pass(tables)
        got = {r["p"]: (r["orbit_Zp"], r["orbit_LE"], r["orbit_L1"]) for r in tables[0]}
        return err or (None if got == PROP515_ORBITS else f"orbit sizes {got}")

    for name in ("prop515", "thmA", "thmA2", "almost-simple"):
        out.append(Instance(
            f"verify {name}",
            _cli_runner(glattice, ["--format", "json", "verify", "--name", name]),
            _cli_check(prop515_check if name == "prop515" else _all_pass),
        ))

    e8 = glattice.rootsys.cartan_matrix(glattice.rootsys.RootSystemSpec("E", 8))
    gram_path = workdir / "e8-gram.json"
    gram_path.write_text(json.dumps(glattice.serialize.matrix_to_json(e8)))

    def theta_check(tables) -> str | None:
        got = tuple(r["count"] for r in tables[0])
        return None if got == E8_THETA else f"theta coefficients {got}"

    out.append(Instance(
        "theta E8",
        _cli_runner(glattice, ["--format", "json", "theta", "--gram", str(gram_path), "--horizon", "6"]),
        _cli_check(theta_check),
    ))

    for p, count in GF2_FACTOR_COUNT.items():
        def gf2_check(tables, p=p, count=count) -> str | None:
            degrees = [r["degree"] for r in tables[0]]
            if len(degrees) != count or sum(degrees) != p:
                return f"{len(degrees)} factors of total degree {sum(degrees)}"
            return None

        out.append(Instance(
            f"gf2 {p}",
            _cli_runner(glattice, ["--format", "json", "gf2", "factor-xp1", "--p", str(p)]),
            _cli_check(gf2_check),
        ))

    def monomial_check(tables) -> str | None:
        rows = tables[1]
        got = tuple(r["orbit_size"] for r in rows)
        if got != PROP515_ORBITS[7] or not all(r["spans"] for r in rows):
            return f"orbit sizes {got}"
        return None

    out.append(Instance(
        "monomial 7",
        _cli_runner(glattice, ["--format", "json", "monomial", "classify", "--p", "7"]),
        _cli_check(monomial_check),
    ))
    return out


def setup(workload: str, seed: int, glattice, workdir: Path, draw: int = 0) -> list[Instance]:
    """Build every input of a workload; glattice is the imported package.

    The inputs depend on (seed, draw) only: each set-up of a run takes the
    next draw, so the small-groups conjugations differ from pass to pass.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "weyl-search":
        return _weyl_search(glattice, workdir)
    if workload == "small-groups":
        return _small_groups(glattice, random.Random(f"inputs-{seed}-{draw}"))
    if workload == "certify":
        return _certify(glattice, workdir)
    raise ValueError(f"unknown workload {workload!r}")
