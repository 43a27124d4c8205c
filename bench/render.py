"""Time dvokit's synthetic renderer and print one JSON record.

Usage:

    python3 bench/render.py <src-dir> [--reps N] > record.json

`<src-dir>` is the directory that holds the `dvokit` package (a checkout's
`src/`), so the same script times older sources, as `tools/fingerprint.py`
digests them. It times:
  - `synth.render` of each scene preset (texture seed 0, frame 0, identity
    camera) at 16, 32 and 64 px (`render_ms`, keyed "<preset>/<size>px")
  - `synth.generate_trajectory` on `dynamic-room` with the default random
    walk, as the benchmark's set-up renders its frames: 17 frames at 32 px
    (path seed 1, the held-out pairs of `finetune-linear-32`) and 5 frames
    at 64 px (path seed 0, the training pairs of `pretrain-64`)
    (`trajectory_ms`, keyed "<size>px/<frames>-frames")
Each figure is the median, in milliseconds, of N timed repetitions (default
7) that follow one untimed run. BLAS is pinned to one thread before numpy
loads. The record also holds the environment: nproc, python, numpy, the
BLAS numpy was built with and its thread count.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
PRESETS = ("room", "cluttered-room", "dynamic-room")
SIZES = (16, 32, 64)
TRAJECTORIES = ((32, 17, 1), (64, 5, 0))  # (size, frames, path seed)


def median_ms(run, reps: int) -> float:
    run()  # warm: first-call costs stay out of the figure
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def record(reps: int) -> dict:
    import numpy as np

    from dvokit import synth
    from dvokit.geometry import Pose

    render_ms = {}
    for name in PRESETS:
        for size in SIZES:
            scene, k = synth.preset_scene(name, 0), synth.default_intrinsics(size)
            render_ms[f"{name}/{size}px"] = median_ms(lambda: synth.render(scene, 0, Pose.identity(), k), reps)
    trajectory_ms = {}
    for size, frames, path in TRAJECTORIES:
        scene, k = synth.preset_scene("dynamic-room", 0), synth.default_intrinsics(size)

        def walk():
            synth.generate_trajectory(scene, k, frames, synth.MotionSpec(), np.random.default_rng(path))

        trajectory_ms[f"{size}px/{frames}-frames"] = median_ms(walk, reps)
    return {"reps": reps, "render_ms": render_ms, "trajectory_ms": trajectory_ms, "env": environment()}


def main(argv: list[str], record=record) -> int:
    """Parse `<src-dir> [--reps N]` from `argv`, pin BLAS, put the sources
    first on the import path and print `record(reps)` as JSON."""
    args = argv[1:]
    reps = 7
    if len(args) == 3 and args[1] == "--reps" and args[2].isdigit() and int(args[2]) > 0:
        reps = int(args[2])
    elif len(args) != 1:
        args = []
    if not args or not (Path(args[0]) / "dvokit" / "__init__.py").is_file():
        print(f"usage: python3 {argv[0]} <directory holding the dvokit package> [--reps N]", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads
    sys.path.insert(0, str(Path(args[0]).resolve()))
    print(json.dumps(record(reps), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
