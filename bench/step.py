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
    fixed gradients in the parameters' dtype, as `batch_gradients` hands
    them over (`adam_step_ms`)
  - `save_checkpoint` of the finetune run's last checkpoint arrays, in the
    parameters' dtype as a training run hands them to `save_checkpoint` at
    the end of each epoch, onto a fresh name each time and over an existing
    file (`checkpoint_write_ms`, keys "fresh" and "replace")
Each figure is the median, in milliseconds, of N timed repetitions (default
7) that follow one untimed run. `perfbench/hostspeed.py`'s reference kernel
runs right before and right after each figure's repetitions, and the
`*_scaled` keys hold each median divided by the host's slowdown over them
(the mean of the two kernel times over `hostspeed.NOMINAL_S`), as the
benchmark scales its units: the figure on the host at the nominal speed.
`storage_mib`, per run shape, is what the timed repetitions sent to storage,
in MiB: the growth of `write_bytes` less `cancelled_write_bytes` in
`/proc/self/io`, so data dirtied and then replaced before writeback counts
for nothing; it is null where that file is missing. Files go to a temporary
directory, removed at the end. BLAS is pinned to one thread before numpy
loads. The record also holds the environment, as `bench/render.py` records
it.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from render import BLAS_THREADS, environment

SCENE, TEXTURE_SEED, TRAIN_PATH, SEED = "dynamic-room", 0, 0, 0
RUNS = (  # (name, phase, size, batch size); each of 4 pairs and 2 epochs
    ("finetune-linear-32", "finetune", 32, 2),
    ("pretrain-64", "pretrain", 64, 4),
)
PAIRS, EPOCHS = 4, 2
HOSTSPEED = Path(__file__).resolve().parents[1] / "perfbench" / "hostspeed.py"
PROC_IO = Path("/proc/self/io")


def stored_bytes() -> int | None:
    """Bytes this process has sent to storage so far, or None without /proc."""
    try:
        fields = dict(line.split(": ") for line in PROC_IO.read_text().splitlines())
    except FileNotFoundError:
        return None
    return int(fields["write_bytes"]) - int(fields["cancelled_write_bytes"])


def timed(run, reps: int, hostspeed) -> tuple[float, float, float | None]:
    """(median ms, median ms at the host's nominal speed, MiB sent to
    storage) of `reps` runs that follow one untimed run."""
    run()  # warm: first-call costs stay out of the figure
    clock, before = hostspeed.HostClock(), stored_bytes()
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    mib = None if before is None else (stored_bytes() - before) / 2**20
    ms = 1e3 * statistics.median(times)
    return ms, ms / clock.slowdown(), mib


def record(reps: int, workdir: Path) -> dict:
    import numpy as np

    from dvokit import synth, train
    from dvokit.model import DvoModel, load_checkpoint, save_checkpoint, toy_config
    from dvokit.optim import AdamW

    spec = importlib.util.spec_from_file_location("hostspeed", HOSTSPEED)
    hostspeed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hostspeed)
    run_ms, run_ms_scaled, storage_mib = {}, {}, {}
    for name, phase, size, batch_size in RUNS:
        k = synth.default_intrinsics(size)
        scene = synth.preset_scene(SCENE, seed=TEXTURE_SEED)
        frames = synth.generate_trajectory(scene, k, PAIRS + 1, synth.MotionSpec(), np.random.default_rng(TRAIN_PATH))
        dataset = train.PairDataset([synth.make_pair(frames, i, k) for i in range(PAIRS)])
        cfg = train.RunConfig(seed=SEED, epochs=EPOCHS, batch_size=batch_size, out_dir=str(workdir / name))
        run = train.finetune_run if phase == "finetune" else train.pretrain_run
        run_ms[name], run_ms_scaled[name], storage_mib[name] = timed(lambda: run(cfg, dataset), reps, hostspeed)

    model = DvoModel(toy_config(), np.random.default_rng(SEED))
    opt = AdamW(list(model.named_parameters()))
    rng = np.random.default_rng(SEED)
    grads = {name: (1e-3 * rng.standard_normal(p.shape)).astype(p.data.dtype) for name, p in opt.params}
    adam_step_ms, adam_step_ms_scaled, _ = timed(lambda: opt.step(grads), reps, hostspeed)

    config, arrays = load_checkpoint(workdir / RUNS[0][0] / f"checkpoint-epoch{EPOCHS - 1:03d}.dvoc")
    dtype = model.patch_embed.weight.data.dtype
    arrays = {name: value if name == "opt.step" else value.astype(dtype) for name, value in arrays.items()}
    fresh = (workdir / f"fresh-{i}.dvoc" for i in itertools.count())
    paths = {"fresh": lambda: next(fresh), "replace": lambda: workdir / "replaced.dvoc"}
    write_ms, write_ms_scaled = {}, {}
    for kind, path in paths.items():
        write_ms[kind], write_ms_scaled[kind], _ = timed(lambda: save_checkpoint(path(), arrays, config), reps, hostspeed)
    return {
        "reps": reps,
        "run_ms": run_ms,
        "run_ms_scaled": run_ms_scaled,
        "storage_mib": storage_mib,
        "adam_step_ms": adam_step_ms,
        "adam_step_ms_scaled": adam_step_ms_scaled,
        "checkpoint_write_ms": write_ms,
        "checkpoint_write_ms_scaled": write_ms_scaled,
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
