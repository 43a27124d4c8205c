"""`bench/render.py`: one short run on this checkout's sources."""

import json
import math
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_render_bench_prints_finite_figures(tmp_path):
    out = tmp_path / "BENCH_render.json"
    with out.open("w") as f:
        subprocess.run(
            [sys.executable, str(_ROOT / "bench" / "render.py"), str(_ROOT / "src"), "--reps", "1"],
            stdout=f, cwd=tmp_path, check=True, timeout=120,
        )
    record = json.loads(out.read_text())
    assert record["reps"] == 1
    assert sorted(record["render_ms"]) == sorted(
        f"{name}/{size}px" for name in ("room", "cluttered-room", "dynamic-room") for size in (16, 32, 64)
    )
    assert sorted(record["trajectory_ms"]) == ["32px/17-frames", "64px/5-frames"]
    figures = [*record["render_ms"].values(), *record["trajectory_ms"].values()]
    assert all(math.isfinite(ms) and ms > 0 for ms in figures), figures
    assert record["env"]["nproc"] >= 1 and record["env"]["blas_threads"] == 1
