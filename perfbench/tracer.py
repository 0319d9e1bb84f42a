"""Per-layer tracing of glattice from outside the package.

:class:`Tracer` replaces each public function of the traced modules by a
wrapper, at the module attribute the caller looks up (``glattice.search.orbit``
is the ``orbit`` that ``search`` calls, ``glattice.matgroup.hnf_from_rows`` the
``hnf_from_rows`` that ``matgroup`` calls).  A wrapper records one span per
call -- function, start, end, parent span, instance, a measured amount and
the exception raised, if any -- in memory.  ``uninstall`` puts the original
functions back, so untraced passes pay nothing.

A layer is a module.  A span's self time is its duration minus the time its
child spans cover; a layer's self time is the sum over its spans.
"""
from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED_MODULES = (
    "cli", "serialize", "search", "matgroup", "intmat", "rootsys",
    "theta", "gf2cyclo", "monomial", "bounds", "groupdata",
)


# Amount recorded with a span, per function: (args, kwargs, result, exception) -> int.
# A capped orbit BFS reached the cap's number of vectors before it stopped.
AMOUNTS = {
    "matgroup.orbit": lambda a, kw, out, exc: out.size if exc is None else getattr(exc, "cap", 0),
    "intmat.hnf_from_rows": lambda a, kw, out, exc: len(a[0] if a else kw["rows"]),
    "search.symrank_search": lambda a, kw, out, exc: 0 if exc else out.orbit_count,
    "matgroup.closure": lambda a, kw, out, exc: 0 if exc else out[1],
    "theta.short_vectors": lambda a, kw, out, exc: 0 if exc else len(out),
}

# Not traced: a type coercion that would be most of all spans while costing
# less than the span that records it.
UNTRACED = {"intmat.as_vector"}

# Span fields.
KEY, START, END, PARENT, INSTANCE, AMOUNT, ERROR = range(7)


class Tracer:
    def __init__(self, modules: dict):
        """modules maps each name in TRACED_MODULES to the imported module."""
        self.spans: list[list] = []
        self.keys: list[tuple[str, str]] = []  # (layer.function, caller module)
        self.instance = None
        self._stack: list[int] = []
        self._patches = []
        names = {m.__name__: short for short, m in modules.items()}
        for caller, mod in modules.items():
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ not in names:
                    continue
                key = f"{names[fn.__module__]}.{fn.__name__}"
                if key in UNTRACED:
                    continue
                self.keys.append((key, caller))
                wrapper = self._wrap(fn, len(self.keys) - 1, AMOUNTS.get(key))
                self._patches.append((mod, attr, fn, wrapper))

    def _wrap(self, fn, key_id, amount):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [key_id, 0.0, 0.0, stack[-1] if stack else -1, self.instance, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                stack.pop()
                rec[ERROR] = type(exc).__name__
                if amount is not None:
                    rec[AMOUNT] = amount(args, kwargs, None, exc)
                raise
            rec[END] = perf_counter()
            stack.pop()
            if amount is not None:
                rec[AMOUNT] = amount(args, kwargs, out, None)
            return out

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    def totals(self, phase) -> dict[str, float]:
        """Counts and times of the spans whose instance id starts with phase.

        Keys: ``<layer.function>.calls`` (also ``.calls.<caller>``), ``.s``
        (inclusive, not counting calls nested in a call of the same
        function), ``.self_s``, ``.amount``, ``.errors.<exception>``, and
        ``<layer>.self_s``.
        """
        spans = self.spans
        child = defaultdict(float)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(spans):
            inst = rec[INSTANCE]
            if inst is None or inst[0] != phase:
                continue
            key, caller = self.keys[rec[KEY]]
            dur = rec[END] - rec[START]
            self_s = dur - child[i]
            out[f"{key}.calls"] += 1
            out[f"{key}.calls.{caller}"] += 1
            out[f"{key}.self_s"] += self_s
            out[f"{key.split('.')[0]}.self_s"] += self_s
            out[f"{key}.amount"] += rec[AMOUNT]
            if rec[ERROR]:
                out[f"{key}.errors.{rec[ERROR]}"] += 1
            p = rec[PARENT]
            while p >= 0 and self.keys[spans[p][KEY]][0] != key:
                p = spans[p][PARENT]
            if p < 0:
                out[f"{key}.s"] += dur
        return out

    def write(self, path: Path) -> None:
        """Write every span as JSON: names, then one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["function", "caller", "start", "end", "parent", "instance", "amount", "error"],
                "spans": [[*self.keys[r[KEY]], *r[START:]] for r in self.spans],
            }, fh, separators=(",", ":"))
