"""`bench/step.py`: one short run on this checkout's sources."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_step_bench_prints_finite_figures(tmp_path):
    out = tmp_path / "BENCH_step.json"
    with out.open("w") as f:
        subprocess.run(
            [sys.executable, str(_ROOT / "bench" / "step.py"), str(_ROOT / "src"), "--reps", "1"],
            stdout=f, cwd=tmp_path, check=True, timeout=300,
        )
    record = json.loads(out.read_text())
    assert record["reps"] == 1
    runs = ["finetune-linear-32", "pretrain-64"]
    assert sorted(record["run_ms"]) == sorted(record["storage_mib"]) == runs
    assert sorted(record["checkpoint_write_ms"]) == ["fresh", "replace"]
    figures = [record["adam_step_ms"], *record["run_ms"].values(), *record["checkpoint_write_ms"].values()]
    assert all(math.isfinite(ms) and ms > 0 for ms in figures), figures
    storage = list(record["storage_mib"].values())
    if os.path.exists("/proc/self/io"):
        assert all(math.isfinite(mib) for mib in storage), storage
    else:
        assert storage == [None, None]
    assert record["env"]["nproc"] >= 1 and record["env"]["blas_threads"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_step.json"]


def test_storage_is_null_without_proc_io(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(_ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_step", _ROOT / "bench" / "step.py")
    step = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step)
    if os.path.exists("/proc/self/io"):
        assert isinstance(step.stored_bytes(), int)
    monkeypatch.setattr(step, "PROC_IO", tmp_path / "missing")
    assert step.stored_bytes() is None
