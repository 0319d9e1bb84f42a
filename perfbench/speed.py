"""The host's speed, sampled while the benchmark runs, and times at a reference speed.

The machines this benchmark runs on share their cores: the same pure-Python
code runs up to 2x slower while a neighbour is busy, for milliseconds at a
time and for minutes at a time.  A wall time then says as much about the
neighbour as about glattice.  :class:`SpeedProbe` samples the host's speed
while glattice runs: every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler
times a fixed tiny computation (:func:`probe_work`, this directory's code,
never glattice's).  :meth:`SpeedProbe.seconds` turns a measured span into
the seconds it would take at the reference speed, the speed at which
:func:`probe_work` takes ``REFERENCE_S``:

    (span - probe time inside it) * REFERENCE_S / (harmonic mean of the
    probe times from MARGIN_S before the span to MARGIN_S after it)

The harmonic mean, because the probes are spread evenly over wall time and
the program's work is not: over a span, work done is the integral of
1 / slowdown over time.  A change to glattice moves its wall time and leaves
the probe's alone, so it moves the scaled time by the same factor.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01
MARGIN_S = 0.1
# A round figure inside the range of probe_work's harmonic mean over a run
# on a 2-vCPU x86-64 VM with Python 3.11.7 (0.18-0.36 ms); scaled times read
# as seconds on that machine when it runs at this speed.
REFERENCE_S = 0.00025

# probe_work: the orbit of (1, 2, 3, 4) under S4, 24 vectors, by
# breadth-first search over tuples and matrix rows, as matgroup.orbit does.
_GENS = (
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
)
_START = (1, 2, 3, 4)


def probe_work() -> int:
    seen = {_START}
    queue = [_START]
    while queue:
        cur = queue.pop()
        for g in _GENS:
            nxt = tuple(sum(a * b for a, b in zip(row, cur)) for row in g)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


class SpeedProbe:
    """Samples probe_work every INTERVAL_S while entered (main thread only)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame):
        start = perf_counter()
        probe_work()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, start: float, end: float) -> float:
        """Seconds [start, end) takes at the reference speed, probe time
        excluded; the plain span when no probe ran."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples if start - MARGIN_S <= t < end + MARGIN_S]
        if not near:
            return end - start
        return (end - start - inside) * REFERENCE_S / statistics.harmonic_mean(near)

    def summary(self) -> str:
        times = [d for _, d in self.samples]
        if not times:
            return "speed probe: not run"
        return (f"speed probe: {len(times)} samples, harmonic mean {statistics.harmonic_mean(times) * 1e3:.4f} ms, "
                f"median {statistics.median(times) * 1e3:.4f} ms, fastest {min(times) * 1e3:.4f} ms "
                f"(reference {REFERENCE_S * 1e3:.4f} ms)")
