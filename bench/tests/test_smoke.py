"""Every workload runs to its end at toy sizes, traced counts repeat exactly,
and the command refuses to run without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

BENCH = Path(__file__).resolve().parent.parent


def _run(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(workload, trace, seed=1):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_reports_every_end_to_end_metric(workload):
    result = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    expected = len(workloads.WORKLOADS[workload].expected_failures)
    assert result["failed"] == expected


def test_traced_counts_repeat_exactly():
    first, second = (_result("nuclear-completion", 1) for _ in range(2))
    assert set(first["metrics"]) == set(layers.LAYER_METRICS)
    counts = [name for name, (unit, _) in layers.LAYER_METRICS.items() if unit == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["problem.distance_failed"]["value"] == 1


def test_tracer_puts_the_program_back():
    import ebound
    from ebound import problem, space

    before = (ebound.probe, problem.affine_project, space.DenseMap.__call__)
    tracer = layers.Tracer()
    tracer.install()
    assert problem.affine_project is not before[1]
    tracer.uninstall()
    assert (ebound.probe, problem.affine_project, space.DenseMap.__call__) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run("--workload", "registry", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
