"""`bench/step.py`: one short run on this checkout's sources."""

import json
import math
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
    assert sorted(record["run_ms"]) == ["finetune-linear-32", "pretrain-64"]
    assert sorted(record["checkpoint_write_ms"]) == ["fresh", "replace"]
    figures = [*record["run_ms"].values(), record["adam_step_ms"], *record["checkpoint_write_ms"].values()]
    assert all(math.isfinite(ms) and ms > 0 for ms in figures), figures
    assert record["env"]["nproc"] >= 1 and record["env"]["blas_threads"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_step.json"]
