"""Run one workload of the glattice benchmark and print its metrics.

    python3 perfbench/run.py --workload weyl-search --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; glattice is imported from ``src/`` next to
this directory, in this process, single-threaded.  A set-up imports glattice
afresh and builds every input of the workload; ``SETUPS_PER_PASS`` of them
run before each pass, the pass uses the last, and ``setup_s`` is the median
of all.  Whole passes run, each instance once per pass in a seeded order,
while another pass would end within ``--seconds``, at least ``MIN_PASSES``.
Every answer is checked against a reference after its timed call.

The host runs up to 2x faster or slower for milliseconds and for minutes
at a time, so with ``--trace 0`` every time is given at a reference speed,
from the host's speed sampled while it was measured (see ``speed.py``); the
report prints the probe's figures too.  The percentiles are over the times
of every instance in every pass, pooled; the rate is over a mean pass.
small-groups draws new inputs for each pass, and both average over them
where a per-instance median would pick one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead; the spans are written to ``perfbench/_out``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when a result
was printed (whether or not every answer was right) and 2 when the benchmark
could not run, for example because ``src/glattice`` is missing.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUPS_PER_PASS = 5
MIN_PASSES = 2

# End-to-end metrics: name -> unit.
END_TO_END = {
    "instances_per_s": "1/s",
    "instance_s.p50": "s",
    "instance_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> (unit, better, key in Tracer.totals).  Counts
# and ratios come from the traced set-up plus the first traced pass; times
# and rates add the set-up to the median over traced passes.
PER_LAYER = {
    "matgroup.orbit.calls": ("count", "lower", "matgroup.orbit.calls"),
    "matgroup.orbit.capped": ("count", "lower", "matgroup.orbit.errors.CapExceeded"),
    "matgroup.orbit.useful_ratio": ("ratio", "higher", None),
    "matgroup.orbit.vectors": ("count", "lower", "matgroup.orbit.amount"),
    "matgroup.orbit.s": ("s", "lower", "matgroup.orbit.s"),
    "matgroup.orbit.self_s": ("s", "lower", "matgroup.orbit.self_s"),
    "intmat.hnf_from_rows.calls": ("count", "lower", "intmat.hnf_from_rows.calls"),
    "intmat.hnf_from_rows.calls.search": ("count", "lower", "intmat.hnf_from_rows.calls.search"),
    "intmat.hnf_from_rows.calls.matgroup": ("count", "lower", "intmat.hnf_from_rows.calls.matgroup"),
    "intmat.hnf_from_rows.rows_in": ("count", "lower", "intmat.hnf_from_rows.amount"),
    "intmat.hnf_from_rows.s": ("s", "lower", "intmat.hnf_from_rows.s"),
    "intmat.hnf_from_rows.self_s": ("s", "lower", "intmat.hnf_from_rows.self_s"),
    "search.symrank_search.calls": ("count", "lower", "search.symrank_search.calls"),
    "search.symrank_search.s": ("s", "lower", "search.symrank_search.s"),
    "search.self_s": ("s", "lower", "search.self_s"),
    "search.orbits_materialized": ("count", "lower", "search.symrank_search.amount"),
    "matgroup.stable_span.calls": ("count", "lower", "matgroup.stable_span.calls"),
    "matgroup.stable_span.s": ("s", "lower", "matgroup.stable_span.s"),
    "matgroup.lattice_coords.s": ("s", "lower", "matgroup.in_lattice_coordinates.s"),
    "matgroup.closure.calls": ("count", "lower", "matgroup.closure.calls"),
    "matgroup.closure.elements": ("count", "lower", "matgroup.closure.amount"),
    "matgroup.closure.s": ("s", "lower", "matgroup.closure.s"),
    "matgroup.closure.self_s": ("s", "lower", "matgroup.closure.self_s"),
    "bounds.min_threshold.s": ("s", "lower", "bounds.min_threshold.s"),
    "bounds.prime_case_check.calls": ("count", "lower", "bounds.prime_case_check.calls"),
    "theta.theta_prefix.s": ("s", "lower", "theta.theta_prefix.s"),
    "theta.vectors": ("count", "lower", "theta.short_vectors.amount"),
    "gf2cyclo.factor_xp_minus_1.s": ("s", "lower", "gf2cyclo.factor_xp_minus_1.s"),
    "monomial.three_sublattice_report.s": ("s", "lower", "monomial.three_sublattice_report.s"),
    "groupdata.almost_simple_scan.s": ("s", "lower", "groupdata.almost_simple_scan.s"),
    "rootsys.weyl_symrank_table.s": ("s", "lower", "rootsys.weyl_symrank_table.s"),
    "rootsys.build.s": ("s", "lower", "rootsys.build.s"),
    "cli.main.s": ("s", "lower", "cli.main.s"),
    "cli.self_s": ("s", "lower", "cli.self_s"),
    "serialize.load_group_file.s": ("s", "lower", "serialize.load_group_file.s"),
    **{
        f"{layer}.self_s": ("s", "lower", f"{layer}.self_s")
        for layer in ("matgroup", "intmat", "rootsys", "theta", "gf2cyclo", "monomial",
                      "bounds", "groupdata", "serialize")
    },
    "tracing.untraced_instances_per_s": ("1/s", "higher", None),
    "tracing.traced_instances_per_s": ("1/s", "higher", None),
    "tracing.overhead_ratio": ("ratio", "lower", None),
}


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def import_glattice():
    """Import glattice afresh from this checkout's src/ and return the package."""
    if not (SRC / "glattice" / "__init__.py").is_file():
        raise SetupError(f"no glattice package under {SRC}")
    for name in [m for m in sys.modules if m == "glattice" or m.startswith("glattice.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("glattice")
    for name in tracing.TRACED_MODULES:
        importlib.import_module(f"glattice.{name}")
    if Path(pkg.__file__).resolve().parent != SRC / "glattice":
        raise SetupError(f"imported glattice from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload: str, seed: int, workdir: Path, draw: int = 0, trace: bool = False,
           probe: SpeedProbe | None = None):
    """Import glattice and build every input; returns (seconds, instances, tracer).
    With a running probe the seconds are at the reference speed."""
    gc.collect()
    start = perf_counter()
    pkg = import_glattice()
    tr = None
    if trace:
        tr = tracing.Tracer({name: getattr(pkg, name) for name in tracing.TRACED_MODULES})
        tr.instance = ("setup", "setup")
        tr.install()
    instances = workloads.setup(workload, seed, pkg, workdir, draw)
    end = perf_counter()
    elapsed = probe.seconds(start, end) if probe is not None else end - start
    if tr is not None:
        tr.uninstall()
        tr.instance = None
    return elapsed, instances, tr


def run_pass(instances, rng: random.Random, pass_no: int, probe: SpeedProbe,
             tr=None) -> list[tuple[str, float, str | None]]:
    """Run every instance once in a seeded order: (name, seconds, error or None),
    the seconds at the reference speed if the probe is running."""
    order = list(instances)
    rng.shuffle(order)
    if tr is not None:
        tr.install()
    results = []
    for inst in order:
        gc.collect()
        if tr is not None:
            tr.instance = (pass_no, inst.name)
        start = perf_counter()
        try:
            answer = inst.run()
            error = None
        except Exception as exc:  # CapExceeded and any other failure count as failed
            answer = None
            error = f"{type(exc).__name__}: {exc}"
        elapsed = probe.seconds(start, perf_counter())
        if tr is not None:
            tr.instance = None
        if error is None:
            try:
                error = inst.check(answer)
            except Exception as exc:
                error = f"answer check raised {type(exc).__name__}: {exc}"
        results.append((inst.name, elapsed, error))
    if tr is not None:
        tr.uninstall()
    return results


def mean_times(passes) -> dict[str, float]:
    """Each instance's mean time over the passes."""
    times: dict[str, list[float]] = {}
    for results in passes:
        for name, t, _ in results:
            times.setdefault(name, []).append(t)
    return {name: statistics.fmean(ts) for name, ts in times.items()}


def rate(passes) -> float:
    """Instances answered correctly in every pass, per second of a mean pass."""
    wrong = {name for results in passes for name, _, err in results if err}
    mean = mean_times(passes)
    return (len(mean) - len(wrong)) / sum(mean.values())


def run_passes(seed: int, seconds: float, next_instances, probe: SpeedProbe, tr=None):
    """At least MIN_PASSES passes, and more while another one, as long as the
    passes so far on average, would end within `seconds`; with a tracer, even
    passes run untraced and odd passes traced, as many of each.
    next_instances() gives the instances of the next pass.
    Returns [(traced, results)]."""
    rng = random.Random(f"order-{seed}")
    passes = []
    start = perf_counter()
    while (len(passes) < MIN_PASSES
           or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
           or (tr is not None and len(passes) % 2)):
        traced = tr is not None and len(passes) % 2 == 1
        instances = next_instances()
        passes.append((traced, run_pass(instances, rng, len(passes), probe,
                                        tr if traced else None)))
    return passes


def end_to_end(passes, setup_times) -> dict[str, float]:
    pooled = [t for _, results in passes for _, t, _ in results]
    return {
        "instances_per_s": rate([r for _, r in passes]),
        "instance_s.p50": statistics.median(pooled),
        "instance_s.p90": statistics.quantiles(pooled, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tr, passes) -> dict[str, float]:
    traced = [no for no, (is_traced, _) in enumerate(passes) if is_traced]
    setup = tr.totals("setup")
    per_pass = []
    for no in traced:
        totals = dict(setup)
        for key, value in tr.totals(no).items():
            totals[key] = totals.get(key, 0) + value
        per_pass.append(totals)
    out = {}
    for name, (unit, _, key) in PER_LAYER.items():
        if key is None:
            continue
        if unit == "s":
            out[name] = statistics.median(t.get(key, 0.0) for t in per_pass)
        else:
            out[name] = per_pass[0].get(key, 0)
    calls = out["matgroup.orbit.calls"]
    out["matgroup.orbit.useful_ratio"] = (calls - out["matgroup.orbit.capped"]) / calls if calls else 0.0
    untraced = rate([r for t, r in passes if not t])
    traced_rate = rate([r for t, r in passes if t])
    out["tracing.untraced_instances_per_s"] = untraced
    out["tracing.traced_instances_per_s"] = traced_rate
    out["tracing.overhead_ratio"] = (untraced - traced_rate) / untraced
    return out


def print_report(args, passes, metrics: dict, units: dict, setup_times) -> None:
    n = sum(len(results) for _, results in passes)
    print(f"glattice benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"passes {len(passes)} x {len(passes[0][1])} instances, set-ups {len(setup_times)}")
    notes = {
        "instances_per_s": f"mean of {len(passes)} passes per instance",
        "instance_s.p50": f"median of {n} samples, every instance in every pass",
        "instance_s.p90": f"90th percentile of the same {n} samples",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "matgroup.orbit.useful_ratio": f"base {metrics.get('matgroup.orbit.calls', 0):.0f} calls",
    }
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    failed = sum(1 for _, results in passes for _, _, err in results if err)
    print(f"  {'failed_ratio':40s} {failed / n:14.6g} {'ratio':6s} {failed} of {n} attempted")
    by_instance: dict[str, list[float]] = {}
    for _, results in passes:
        for name, t, _ in results:
            by_instance.setdefault(name, []).append(t)
    print("instance times (s), in pass order:")
    for name, times in sorted(by_instance.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  {name:24s} " + " ".join(f"{t:8.4f}" for t in times))


def print_self_split(tr, passes) -> None:
    """The functions with the most self time in the first traced pass."""
    first = next(no for no, (t, _) in enumerate(passes) if t)
    totals = tr.totals(first)
    ranked = sorted(
        ((v, k[: -len(".self_s")]) for k, v in totals.items() if k.endswith(".self_s") and k.count(".") == 2),
        reverse=True,
    )
    whole = sum(t for _, t, _ in passes[first][1])
    print(f"self time in traced pass {first} ({whole:.3f} s):")
    for value, key in ranked[:6]:
        print(f"  {key:40s} {value:10.4f} s {100 * value / whole:6.1f}%")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run a reduced instance set (for tests)")
    args = ap.parse_args(argv)

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    setup_times: list[float] = []
    probe = SpeedProbe()
    tr = None

    def fresh_instances():
        """SETUPS_PER_PASS new set-ups (fresh import of glattice, every input
        rebuilt); the instances of the last."""
        for _ in range(SETUPS_PER_PASS):
            draw = len(setup_times)
            elapsed, instances, _ = set_up(args.workload, args.seed, workdir / f"setup-{draw}", draw,
                                           probe=probe)
            setup_times.append(elapsed)
        return instances

    try:
        if args.trace:
            elapsed, instances, tr = set_up(args.workload, args.seed, workdir, trace=True)
            setup_times.append(elapsed)
            next_instances = lambda: instances  # noqa: E731
        else:
            next_instances = fresh_instances
        if args.smoke:
            keep = workloads.SMOKE[args.workload]
            smoke_next = next_instances
            next_instances = lambda: [i for i in smoke_next() if i.name in keep]  # noqa: E731
        if args.trace:
            passes = run_passes(args.seed, args.seconds, next_instances, probe, tr)
        else:
            with probe:
                passes = run_passes(args.seed, args.seconds, next_instances, probe)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(tr, passes)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics = end_to_end(passes, setup_times)
        units = END_TO_END
    errors = [(name, err) for _, results in passes for name, _, err in results if err]
    for name, err in errors:
        print(f"FAILED {name}: {err}", file=sys.stderr)
    print_report(args, passes, metrics, units, setup_times)
    print(probe.summary())
    if args.trace:
        print_self_split(tr, passes)
        spans_path = HERE / "_out" / f"spans-{args.workload}.json"
        tr.write(spans_path)
        print(f"{len(tr.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(results) for _, results in passes),
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
