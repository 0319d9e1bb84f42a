"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run reduced ("smoke") passes of every workload in subprocesses, the way
the benchmark is meant to be run, from the root of the checkout.
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed, trace, cwd=ROOT, script=BENCH / "run.py", smoke=True):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_answers_everything(workload):
    out = result(bench(workload, seed=3, trace=0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (result(bench(workload, seed=5, trace=1)) for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == set(run.PER_LAYER)
    counts = [name for name, (unit, _, _) in run.PER_LAYER.items() if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = bench("certify", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py", smoke=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_reference_checks_reject_wrong_answers():
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert workloads.witness_error([swap], [(1, 0, 0), (0, 0, 1)], identity, 3) is None
    assert workloads.witness_error([swap], [(1, 0, 0)], identity, 2) is not None  # does not span
    assert workloads.witness_error([swap], [(1, 1, 0), (0, 0, 1)], identity, 2) is not None
    assert workloads.witness_error([swap], [(1, 0, 0), (0, 0, 1)], identity, 4) is not None
    check = workloads._symrank_cli_check([swap], identity, 3)
    good = json.dumps({"upper_bound": 3, "witness": [{"entries": ["1", "0", "0"]}, {"entries": ["0", "0", "1"]}]})
    assert check((0, good)) is None
    assert check((4, "")) == "exit code 4"
    assert "expected 3" in check((0, good.replace('"upper_bound": 3', '"upper_bound": 2')))


def test_hnf_is_canonical():
    rows = [(2, 4, 4), (-6, 6, 12), (10, -4, -16)]
    assert workloads.hnf(rows, 3) == ((2, 4, 4), (0, 6, 0), (0, 0, 12))
    assert workloads.hnf([(1, 0), (0, 1)], 2) == workloads.hnf([(3, 1), (2, 1)], 2)


def test_speed_probe_gives_times_at_the_reference_speed():
    probe = speed.SpeedProbe()
    assert probe.seconds(1.0, 3.0) == 2.0  # no samples: the plain span
    slow = 2 * speed.REFERENCE_S  # a host at half the reference speed
    probe.samples = [(0.95, slow), (1.5, slow), (3.05, slow), (3.5, speed.REFERENCE_S)]
    assert probe.seconds(1.0, 3.0) == pytest.approx((2.0 - slow) / 2)
    with probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 10
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
