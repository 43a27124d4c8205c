"""Minimal-size runs of every workload emit exactly the metrics that
BENCHMARK.json names, and the entry point refuses what it cannot measure."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bootstrap
import layers
import workloads

BENCH = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
RUN = Path(__file__).resolve().parents[1] / "run.py"


def _tiny(wl: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(
        wl,
        train=dataclasses.replace(wl.train, train_pairs=2, epochs=1, eval_pairs=1),
        direct=dataclasses.replace(wl.direct, pairs=2, pose_starts=1, pose_iters=2, depth_starts=1, depth_iters=2),
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == layers.PER_LAYER


def test_rates_are_median_units_at_nominal_host_speed():
    def unit(items, seconds, slowdown):
        return workloads.Unit(0, None, [], {"r": (items, seconds)}, {}, seconds, slowdown=slowdown)

    # 10/s on a host running at half speed is 20/s at nominal speed
    units = [unit(10, 1.0, 2.0), unit(10, 2.0, 1.0), unit(30, 1.0, 1.0)]
    assert workloads.rates(units) == {"r": pytest.approx(20.0)}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace, tmp_path):
    outcome = workloads.run_workload(_tiny(workloads.WORKLOADS[name]), 7, 0.0, trace, tmp_path, 0.0, [])
    assert outcome.correct, outcome.notes
    assert outcome.failed == 0 and outcome.attempted > 0
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(outcome.metrics) == [m["name"] for m in listed]
    assert all(unit == m["unit"] for (_, unit), m in zip(outcome.metrics.values(), listed))


def _run(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, str(args[0]), *args[1:]], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


def test_refuses_a_thread_pool():
    env = dict(os.environ, DVO_THREADS="2")
    done = _run([RUN, "--workload", "direct-32", "--seed", "1", "--seconds", "1"], bootstrap.ROOT, env)
    assert done.returncode == 2 and done.stdout == ""
    assert "DVO_THREADS" in done.stderr


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    done = _run([tmp_path / "perfbench" / "run.py", "--workload", "direct-32", "--seed", "1", "--seconds", "1"], tmp_path)
    assert done.returncode == 2 and done.stdout == ""
    assert "no dvokit sources" in done.stderr
