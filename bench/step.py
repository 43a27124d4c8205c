"""Time dvokit's training runs and their host-side parts, and print one JSON
record.

Usage:

    python3 bench/step.py <src-dir> [--reps N] > record.json

`<src-dir>` is the directory that holds the `dvokit` package (a checkout's
`src/`), so the same script times older sources, as `bench/render.py` does.
The pairs are those of the benchmark's training route (`perfbench`): scene
`dynamic-room`, texture seed 0, the random walk of path seed 0, and run
seed 0. It times:
  - `finetune_run` shaped like `finetune-linear-32`: 32 px, linear head,
    4 pairs, batch 2, 2 epochs (`run_ms`, key "finetune-linear-32")
  - `pretrain_run` shaped like `pretrain-64`: 64 px, 4 pairs, batch 4,
    2 epochs (`run_ms`, key "pretrain-64")
    Both write their per-epoch checkpoints and report into one `out_dir`
    per run shape, so each repetition replaces the files of the one
    before, as the benchmark's reruns do.
  - one `AdamW.step` of the full 32 px model, every parameter stepped, on
    fixed gradients (`adam_step_ms`)
  - `save_checkpoint` of the finetune run's last checkpoint arrays, onto a
    fresh name each time and over an existing file (`checkpoint_write_ms`,
    keys "fresh" and "replace")
Each figure is the median, in milliseconds, of N timed repetitions (default
7) that follow one untimed run. Files go to a temporary directory, removed
at the end. BLAS is pinned to one thread before numpy loads. The record also
holds the environment, as `bench/render.py` records it.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from render import BLAS_THREADS, environment, median_ms

SCENE, TEXTURE_SEED, TRAIN_PATH, SEED = "dynamic-room", 0, 0, 0
RUNS = (  # (name, phase, size, batch size); each of 4 pairs and 2 epochs
    ("finetune-linear-32", "finetune", 32, 2),
    ("pretrain-64", "pretrain", 64, 4),
)
PAIRS, EPOCHS = 4, 2


def record(reps: int, workdir: Path) -> dict:
    import numpy as np

    from dvokit import synth, train
    from dvokit.model import DvoModel, load_checkpoint, save_checkpoint, toy_config
    from dvokit.optim import AdamW

    run_ms = {}
    for name, phase, size, batch_size in RUNS:
        k = synth.default_intrinsics(size)
        scene = synth.preset_scene(SCENE, seed=TEXTURE_SEED)
        frames = synth.generate_trajectory(scene, k, PAIRS + 1, synth.MotionSpec(), np.random.default_rng(TRAIN_PATH))
        dataset = train.PairDataset([synth.make_pair(frames, i, k) for i in range(PAIRS)])
        cfg = train.RunConfig(seed=SEED, epochs=EPOCHS, batch_size=batch_size, out_dir=str(workdir / name))
        run = train.finetune_run if phase == "finetune" else train.pretrain_run
        run_ms[name] = median_ms(lambda: run(cfg, dataset), reps)

    model = DvoModel(toy_config(), np.random.default_rng(SEED))
    opt = AdamW(list(model.named_parameters()))
    rng = np.random.default_rng(SEED)
    grads = {name: 1e-3 * rng.standard_normal(p.shape) for name, p in opt.params}
    adam_step_ms = median_ms(lambda: opt.step(grads), reps)

    config, arrays = load_checkpoint(workdir / RUNS[0][0] / f"checkpoint-epoch{EPOCHS - 1:03d}.dvoc")
    fresh = (workdir / f"fresh-{i}.dvoc" for i in itertools.count())
    checkpoint_write_ms = {
        "fresh": median_ms(lambda: save_checkpoint(next(fresh), arrays, config), reps),
        "replace": median_ms(lambda: save_checkpoint(workdir / "replaced.dvoc", arrays, config), reps),
    }
    return {
        "reps": reps,
        "run_ms": run_ms,
        "adam_step_ms": adam_step_ms,
        "checkpoint_write_ms": checkpoint_write_ms,
        "env": environment(),
    }


def main(argv: list[str]) -> int:
    args = argv[1:]
    reps = 7
    if len(args) == 3 and args[1] == "--reps" and args[2].isdigit() and int(args[2]) > 0:
        reps = int(args[2])
    elif len(args) != 1:
        args = []
    if not args or not (Path(args[0]) / "dvokit" / "__init__.py").is_file():
        print("usage: python3 bench/step.py <directory holding the dvokit package> [--reps N]", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads
    sys.path.insert(0, str(Path(args[0]).resolve()))
    with tempfile.TemporaryDirectory(prefix="dvokit-bench-step-") as workdir:
        result = record(reps, Path(workdir))
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
