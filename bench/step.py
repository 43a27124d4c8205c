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
    fixed gradients in the parameters' dtype (`adam_step_ms`). Where `step`
    takes no argument, each timed call copies them into the optimizer's
    `grad` and then steps, since a step overwrites `grad` with its update;
    the copy is a pass the training route does without, as its backward
    fills `grad`. Older sources take them as a name -> array mapping
  - `save_checkpoint` of the finetune run's last checkpoint arrays, in the
    parameters' dtype as a training run hands them to `save_checkpoint` at
    the end of each epoch, onto a fresh name each time and over an existing
    file (`checkpoint_write_ms`, keys "fresh" and "replace")
Arguments, timing and environment are `bench/render.py`'s: each figure is
the median, in milliseconds, of N timed repetitions (default 7) that follow
one untimed run, with BLAS pinned to one thread. `storage_mib`, per run
shape, is what the timed repetitions sent to storage, in MiB: the growth of
`write_bytes` less `cancelled_write_bytes` in `/proc/self/io` (read after
each run, some 15 us), so data dirtied and then replaced before writeback
counts for nothing; it is null where that file is missing. Files go to a
temporary directory, removed at the end.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import tempfile
from pathlib import Path

from render import environment, main, median_ms

SCENE, TEXTURE_SEED, TRAIN_PATH, SEED = "dynamic-room", 0, 0, 0
RUNS = (  # (name, phase, size, batch size); each of 4 pairs and 2 epochs
    ("finetune-linear-32", "finetune", 32, 2),
    ("pretrain-64", "pretrain", 64, 4),
)
PAIRS, EPOCHS = 4, 2
PROC_IO = Path("/proc/self/io")


def stored_bytes() -> int | None:
    """Bytes this process has sent to storage so far, or None without /proc."""
    try:
        fields = dict(line.split(": ") for line in PROC_IO.read_text().splitlines())
    except FileNotFoundError:
        return None
    return int(fields["write_bytes"]) - int(fields["cancelled_write_bytes"])


def timed(run, reps: int) -> tuple[float, float | None]:
    """(`median_ms` of `run`, MiB its timed repetitions sent to storage)."""
    stored = []  # after each run: the untimed one, then each timed one

    def run_and_count():
        run()
        stored.append(stored_bytes())

    ms = median_ms(run_and_count, reps)
    return ms, None if stored[0] is None else (stored[-1] - stored[0]) / 2**20


def record(reps: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="dvokit-bench-step-") as workdir:
        return record_in(reps, Path(workdir))


def record_in(reps: int, workdir: Path) -> dict:
    import numpy as np

    from dvokit import synth, train
    from dvokit.model import DvoModel, load_checkpoint, save_checkpoint, toy_config
    from dvokit.optim import AdamW

    run_ms, storage_mib = {}, {}
    for name, phase, size, batch_size in RUNS:
        k = synth.default_intrinsics(size)
        scene = synth.preset_scene(SCENE, seed=TEXTURE_SEED)
        frames = synth.generate_trajectory(scene, k, PAIRS + 1, synth.MotionSpec(), np.random.default_rng(TRAIN_PATH))
        dataset = train.PairDataset([synth.make_pair(frames, i, k) for i in range(PAIRS)])
        cfg = train.RunConfig(seed=SEED, epochs=EPOCHS, batch_size=batch_size, out_dir=str(workdir / name))
        run = train.finetune_run if phase == "finetune" else train.pretrain_run
        run_ms[name], storage_mib[name] = timed(lambda: run(cfg, dataset), reps)

    model = DvoModel(toy_config(), np.random.default_rng(SEED))
    opt = AdamW(list(model.named_parameters()))
    rng = np.random.default_rng(SEED)
    grads = {name: (1e-3 * rng.standard_normal(p.shape)).astype(p.data.dtype) for name, p in opt.params}
    if inspect.signature(opt.step).parameters:
        adam_step_ms = median_ms(lambda: opt.step(grads), reps)
    else:
        flat = np.concatenate([g.ravel() for g in grads.values()])

        def copy_and_step():
            np.copyto(opt.grad, flat)
            opt.step()

        adam_step_ms = median_ms(copy_and_step, reps)

    config, arrays = load_checkpoint(workdir / RUNS[0][0] / f"checkpoint-epoch{EPOCHS - 1:03d}.dvoc")
    dtype = model.patch_embed.weight.data.dtype
    arrays = {name: value if name == "opt.step" else value.astype(dtype) for name, value in arrays.items()}
    fresh = (workdir / f"fresh-{i}.dvoc" for i in itertools.count())
    paths = {"fresh": lambda: next(fresh), "replace": lambda: workdir / "replaced.dvoc"}
    write_ms = {kind: median_ms(lambda: save_checkpoint(path(), arrays, config), reps) for kind, path in paths.items()}
    return {
        "reps": reps,
        "run_ms": run_ms,
        "storage_mib": storage_mib,
        "adam_step_ms": adam_step_ms,
        "checkpoint_write_ms": write_ms,
        "env": environment(),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv, record))
