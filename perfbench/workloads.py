"""The benchmark's workloads: fixed scenes, seeded starts, dvokit's user
routes (train then evaluate, and direct), output checks and the end-to-end
metrics.

Every workload sets up the same kind of inputs and runs both routes, so each
end-to-end metric exists on each workload. A workload differs in its
configuration and in which route gets most of the measured window (its
main route). README.md says why each workload exists.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dvokit import direct, formats, synth, train
from dvokit.autodiff import EmptyValidSetError, NonFiniteError
from dvokit.evaluation import DepthEvalConfig
from dvokit.model import DvoModel, forward_dvo, load_checkpoint, model_state, toy_config

import layers
from hostspeed import HostClock
from tracing import Tracer, installed

# The scene and the camera paths are fixed; the workload seed draws what the
# program starts from: model initialisation, batch order and masks (through
# RunConfig.seed) and the direct route's start poses and depths. With seeded
# paths and textures the quality metrics varied across seeds by more than any
# usable bound (final_loss IQR/median 0.23-0.44 over five to eight seeds).
SCENE, TEXTURE_SEED = "dynamic-room", 0
TRAIN_PATH, EVAL_PATH, DIRECT_PATH = 0, 1, 2
# Share of the measured window that goes to the workload's main route; the
# other route's units are interleaved with it, so both see the same stretches
# of a noisy host.
MAIN_SHARE = 0.6


@dataclass(frozen=True)
class TrainSpec:
    phase: str  # "finetune" or "pretrain"
    size: int
    head_kind: str
    batch_size: int
    train_pairs: int
    epochs: int
    eval_pairs: int


@dataclass(frozen=True)
class DirectSpec:
    size: int
    pairs: int
    pose_starts: int  # pose problems per pair, each from its own perturbed start
    pose_iters: int
    depth_starts: int  # depth problems per pair, each from its own start depth
    depth_iters: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    main: str  # "train" or "direct"
    train: TrainSpec
    direct: DirectSpec


LINEAR_32 = TrainSpec("finetune", 32, "linear", batch_size=2, train_pairs=4, epochs=2, eval_pairs=16)
DIRECT_32 = DirectSpec(32, pairs=8, pose_starts=12, pose_iters=3, depth_starts=2, depth_iters=8)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "finetune-linear-32",
            "default desk finetune (linear head, adapters on): encoder/decoder, backward, losses and AdamW all count; no DPT head",
            "train",
            LINEAR_32,
            DIRECT_32,
        ),
        Workload(
            "finetune-dpt-64",
            "the DPT head takes most of forward and backward at 64 px, so Conv3x3 and head changes show here",
            "train",
            TrainSpec("finetune", 64, "dpt", batch_size=2, train_pairs=2, epochs=1, eval_pairs=2),
            DIRECT_32,
        ),
        Workload(
            "pretrain-64",
            "masked completion at batch 4 trains without warp, losses.py or depth head: the bypass for geometry, loss and head changes",
            "train",
            TrainSpec("pretrain", 64, "linear", batch_size=4, train_pairs=4, epochs=2, eval_pairs=4),
            DIRECT_32,
        ),
        Workload(
            "direct-32",
            "direct optimisation is its main route: no network, so losses, geometry and autodiff are nearly all of the traced work",
            "direct",
            LINEAR_32,
            DIRECT_32,
        ),
    )
}


# ---- bookkeeping ----------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed: training steps, direct runs, dataset loads."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)


@dataclass
class Checks:
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclass
class Unit:
    """One execution of one part of a route: what it produced and how long it took."""

    part: int
    fingerprint: object  # loss curves and reports; equal on every run of a part
    curves: list[float]
    work: dict[str, tuple[int, float]]  # rate metric -> (items, seconds)
    results: dict[str, list[float]]  # raw quality figures, reduced by the route
    wall_s: float
    traced: bool = False
    slowdown: float = 1.0  # the host's slowdown while the unit ran (hostspeed.py)


# ---- inputs -----------------------------------------------------------------------------


@dataclass
class Inputs:
    train_set: train.PairDataset
    eval_set: train.PairDataset
    direct_pairs: list[synth.FramePair]
    dataset_bytes: int


def _frames(size: int, n_frames: int, path: int):
    k = synth.default_intrinsics(size)
    scene = synth.preset_scene(SCENE, seed=TEXTURE_SEED)
    rng = np.random.default_rng(path)
    return synth.generate_trajectory(scene, k, n_frames, synth.MotionSpec(), rng), k


def _pairs(frames, k) -> list[synth.FramePair]:
    return [synth.make_pair(frames, i, k) for i in range(len(frames) - 1)]


def set_up(wl: Workload, seed: int, workdir: Path, tally: Tally) -> Inputs:
    """Render the train trajectory, write it with save_dataset and read it
    back; render held-out eval pairs and the direct route's pairs; build a
    model. A failed dataset load is counted and the in-memory pairs are used."""
    frames, k = _frames(wl.train.size, wl.train.train_pairs + 1, TRAIN_PATH)
    data_dir = workdir / "train-data"
    formats.save_dataset(data_dir, frames, k, TEXTURE_SEED, SCENE)
    dataset_bytes = sum(f.stat().st_size for f in data_dir.iterdir())
    tally.attempted += 1
    try:
        train_set = train.PairDataset.from_dir(data_dir)
    except formats.DataError as e:
        tally.fail(f"dataset load: {e}")
        train_set = train.PairDataset(_pairs(frames, k))

    eval_frames, k = _frames(wl.train.size, wl.train.eval_pairs + 1, EVAL_PATH)
    direct_frames, k_direct = _frames(wl.direct.size, wl.direct.pairs + 1, DIRECT_PATH)
    DvoModel(toy_config(head_kind=wl.train.head_kind), np.random.default_rng(seed))
    return Inputs(train_set, train.PairDataset(_pairs(eval_frames, k)), _pairs(direct_frames, k_direct), dataset_bytes)


# ---- the train route: finetune_run / pretrain_run, then evaluate_depth ---------------------


def _steps_reached(cfg: train.RunConfig, n_pairs: int, err: Exception) -> int:
    """Training steps attempted up to and including a diverged one. The batch
    order mirrors train._run_phase: a permutation drawn from [seed, epoch]."""
    per_epoch = math.ceil(n_pairs / cfg.batch_size)
    if not isinstance(err, train.TrainingDivergence):
        return cfg.epochs * per_epoch
    order = np.random.default_rng([cfg.seed, err.epoch]).permutation(n_pairs)
    position = int(np.flatnonzero(order == err.pair_index)[0])
    return err.epoch * per_epoch + position // cfg.batch_size + 1


class TrainRoute:
    """One part: a whole training run on the train set, then evaluate_depth
    on the held-out pairs."""

    name = "train"
    parts = 1

    def __init__(self, spec: TrainSpec, inputs: Inputs, seed: int, workdir: Path):
        self.inputs = inputs
        self.cfg = train.RunConfig(
            seed=seed,
            model=toy_config(head_kind=spec.head_kind),
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            out_dir=str(workdir / "run"),
        )
        self.run = train.finetune_run if spec.phase == "finetune" else train.pretrain_run
        self.loss_key = "l_total" if spec.phase == "finetune" else "reconstruction"
        self.model = None  # the first unit's model, kept for the output checks

    def unit(self, part: int, tally: Tally) -> Unit | None:
        n_pairs = len(self.inputs.train_set)
        started = time.perf_counter()
        try:
            model, report = self.run(self.cfg, self.inputs.train_set)
        except (train.TrainingDivergence, NonFiniteError) as e:
            tally.attempted += _steps_reached(self.cfg, n_pairs, e)
            tally.fail(f"training step: {e}")
            return None
        trained = time.perf_counter()
        scores = train.evaluate_depth(model, self.inputs.eval_set)
        done = time.perf_counter()
        tally.attempted += self.cfg.epochs * math.ceil(n_pairs / self.cfg.batch_size)
        if self.model is None:
            self.model = model
        return Unit(
            part=part,
            fingerprint=(report.curves, scores.to_json()),
            curves=[v for values in report.curves.values() for v in values],
            work={
                "train_pairs_per_s": (n_pairs * self.cfg.epochs, trained - started),
                "eval_pairs_per_s": (len(self.inputs.eval_set), done - trained),
            },
            results={"final_loss": [report.curves[self.loss_key][-1]], "eval_abs_rel": [scores.abs_rel]},
            wall_s=done - started,
        )

    def quality(self, first_pass: list[Unit], checks: Checks) -> dict[str, float]:
        """The first unit's figures, plus the output checks on its model:
        depth bounds, unscaled error and the checkpoint round trip."""
        out = {key: values[0] for key, values in first_pass[0].results.items()}
        model, cfg = self.model, self.model.cfg
        for i, pair in enumerate(self.inputs.eval_set.pairs):
            for depth in forward_dvo(model, pair.image_a, pair.image_b)[:2]:
                d = depth.data
                checks.expect(
                    bool(np.all(np.isfinite(d)) and d.min() >= cfg.min_depth and d.max() <= cfg.max_depth),
                    f"predicted depth of eval pair {i} outside [{cfg.min_depth}, {cfg.max_depth}]",
                )
        unscaled = train.evaluate_depth(
            model, self.inputs.eval_set, DepthEvalConfig(cap=cfg.max_depth, median_scaling=False)
        )
        out["eval_abs_rel_unscaled"] = unscaled.abs_rel

        # every unit writes the same checkpoints (units are checked to be equal)
        last = Path(self.cfg.out_dir) / f"checkpoint-epoch{self.cfg.epochs - 1:03d}.dvoc"
        _, arrays = load_checkpoint(last)
        saved = {k[len("model.") :]: v for k, v in arrays.items() if k.startswith("model.")}
        state = model_state(model)
        checks.expect(
            saved.keys() == state.keys() and all(np.array_equal(saved[k], state[k]) for k in state),
            f"{last.name} does not reload to the returned model's state",
        )
        return out


# ---- the direct route: optimize_direct in pose and depth mode ------------------------------


class DirectRoute:
    """One part per pair: pose mode from several perturbed starts, then depth
    mode from several constant start depths. The quality figures are means
    over a full pass; many short problems keep them steady across seeds."""

    name = "direct"

    def __init__(self, spec: DirectSpec, inputs: Inputs, seed: int):
        self.spec = spec
        self.pairs = inputs.direct_pairs
        self.parts = len(self.pairs)
        rng = np.random.default_rng(seed)
        self.starts = [
            (
                [direct.perturbed_twist(p.gt_pose.twist(), rng) for _ in range(spec.pose_starts)],
                rng.uniform(2.0, 3.0, size=spec.depth_starts),
            )
            for p in self.pairs
        ]

    def _solve(self, tally: Tally, pair, mode: str, iters: int, **start):
        tally.attempted += 1
        try:
            result = direct.optimize_direct(pair, mode, iters=iters, **start)
        except EmptyValidSetError as e:
            tally.fail(f"direct {mode}: {e}")
            return None
        if result.diverged:
            tally.fail(f"direct {mode}: diverged after {result.iters} iterations")
            return None
        return result

    def unit(self, part: int, tally: Tally) -> Unit | None:
        pair, (twists, depths) = self.pairs[part], self.starts[part]
        started = time.perf_counter()
        poses = [self._solve(tally, pair, "pose", self.spec.pose_iters, init_twist=t) for t in twists]
        depths = [self._solve(tally, pair, "depth", self.spec.depth_iters, init_depth=d) for d in depths]
        wall = time.perf_counter() - started
        results = [*poses, *depths]
        if None in results:
            return None
        return Unit(
            part=part,
            fingerprint=[r.curve for r in results],
            curves=[v for r in results for v in r.curve],
            work={"direct_iters_per_s": (sum(r.iters for r in results), wall)},
            results={
                "direct_final_loss": [r.final_loss for r in results],
                "direct_rot_err_deg": [r.rot_err_deg for r in poses],
                "direct_trans_err_m": [r.trans_err_m for r in poses],
                "direct_abs_rel": [r.abs_rel for r in depths],
            },
            wall_s=wall,
        )

    def quality(self, first_pass: list[Unit], checks: Checks) -> dict[str, float]:
        """Means over every problem of one pass."""
        keys = first_pass[0].results
        return {key: statistics.fmean(v for u in first_pass for v in u.results[key]) for key in keys}


# ---- running a workload ------------------------------------------------------------------


def measure(routes: dict, main: str, seconds: float, tally: Tally, tracer: Tracer | None = None) -> dict[str, list[Unit]]:
    """Run the routes' parts in turn, interleaved so that the main route gets
    MAIN_SHARE of the time, until `seconds` have passed and every route has
    made a full pass over its parts. With a tracer, whole passes of the main
    route alternate untraced and traced, starting untraced, and at least one
    of each runs; the other route is never traced. A host-speed kernel runs
    before the first unit and after every unit, to give each its slowdown."""
    share = {name: MAIN_SHARE if name == main else 1.0 - MAIN_SHARE for name in routes}
    passes = {name: 2 if tracer is not None and name == main else 1 for name in routes}
    used = dict.fromkeys(routes, 0.0)
    attempts = dict.fromkeys(routes, 0)
    units: dict[str, list[Unit]] = {name: [] for name in routes}
    clock = HostClock()
    started = time.perf_counter()
    while True:
        short = [n for n, r in routes.items() if attempts[n] < passes[n] * r.parts]
        if not short and time.perf_counter() - started >= seconds:
            return units
        name = min(short or routes, key=lambda n: used[n] / share[n])
        route = routes[name]
        part, lap = attempts[name] % route.parts, attempts[name] // route.parts
        traced = tracer is not None and name == main and lap % 2 == 1
        attempts[name] += 1
        begun = time.perf_counter()
        if traced:
            with installed(tracer, layers.dvokit_patches()), tracer.span(layers.UNIT_SPAN):
                unit = route.unit(part, tally)
        else:
            unit = route.unit(part, tally)
        used[name] += time.perf_counter() - begun
        slowdown = clock.slowdown()
        if unit is not None:
            unit.traced = traced
            unit.slowdown = slowdown
            units[name].append(unit)


def _first_pass(route, units: list[Unit], checks: Checks) -> list[Unit] | None:
    """The first unit of every part, after checking that losses are finite and
    that every later unit of a part reproduces the first bit for bit (for
    traced units this shows that the wrappers change nothing)."""
    first: dict[int, Unit] = {}
    for unit in units:
        ref = first.setdefault(unit.part, unit)
        checks.expect(
            all(math.isfinite(v) for v in unit.curves), f"{route.name}: non-finite loss in part {unit.part}"
        )
        checks.expect(
            unit.fingerprint == ref.fingerprint,
            f"{route.name}: a {'traced' if unit.traced else 'untraced'} unit of part {unit.part} differs from the first",
        )
    if len(first) < route.parts:
        checks.expect(False, f"{route.name}: {route.parts - len(first)} parts never completed")
        return None
    return [first[p] for p in range(route.parts)]


def rates(units: list[Unit]) -> dict[str, float]:
    """Median over units of each rate, at nominal host speed.

    Co-tenants of the host slow it by up to a third for seconds to minutes
    at a time, so raw rates depend on when a run happened; each unit's rate is
    multiplied by the host's slowdown measured around it (hostspeed.py)."""
    per_unit: dict[str, list[float]] = {}
    for unit in units:
        for key, (items, seconds) in unit.work.items():
            per_unit.setdefault(key, []).append(items / seconds * unit.slowdown)
    return {key: statistics.median(values) for key, values in per_unit.items()}


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    slowdown: float  # the host's median slowdown over the units (hostspeed.py)


END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "train_pairs_per_s": ("1/s", "higher"),
    "eval_pairs_per_s": ("1/s", "higher"),
    "direct_iters_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "final_loss": ("loss", "lower"),
    "eval_abs_rel": ("ratio", "lower"),
    "eval_abs_rel_unscaled": ("ratio", "lower"),
    "direct_rot_err_deg": ("deg", "lower"),
    "direct_trans_err_m": ("m", "lower"),
    "direct_abs_rel": ("ratio", "lower"),
}


def run_workload(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    import_s: float,
    other_setups_s: list[float],
) -> Outcome:
    """Set up, measure both routes for `seconds`, check the outputs and
    return the end-to-end metrics (or, with `trace`, the per-layer metrics).
    setup_s is the median of this process's set-up (`import_s` plus set_up)
    and `other_setups_s`, measured in fresh processes, unscaled: a set-up
    lasts under a second and mostly imports and writes files, and scaling it
    by the host's slowdown did not make it steadier. Throughputs come from
    rates."""
    tally, checks = Tally(), Checks()
    setup_tracer = Tracer()
    started = time.perf_counter()
    if trace:
        with installed(setup_tracer, layers.dvokit_patches()):
            inputs = set_up(wl, seed, workdir, tally)
        setup_tracer.counts["formats.dataset_bytes"] = inputs.dataset_bytes
    else:
        inputs = set_up(wl, seed, workdir, tally)
    setups_s = [import_s + time.perf_counter() - started, *other_setups_s]

    routes = {"train": TrainRoute(wl.train, inputs, seed, workdir), "direct": DirectRoute(wl.direct, inputs, seed)}
    unit_tracer = Tracer() if trace else None
    units = measure(routes, wl.main, seconds, tally, unit_tracer)

    values: dict[str, float] = {}
    for name, route in routes.items():
        first_pass = _first_pass(route, units[name], checks)
        if first_pass is None:
            continue
        values.update(route.quality(first_pass, checks))
        values.update(rates([u for u in units[name] if not u.traced]))

    # final_loss is the loss of the workload's main route
    direct_loss = values.pop("direct_final_loss", None)
    if wl.main == "direct" and direct_loss is not None:
        values["final_loss"] = direct_loss
    values["setup_s"] = statistics.median(setups_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        main_units = units[wl.main]
        walls = {t: [u.wall_s for u in main_units if u.traced == t] for t in (False, True)}
        overhead = statistics.median(walls[True]) - statistics.median(walls[False]) if all(walls.values()) else 0.0
        per_layer = layers.layer_metrics(setup_tracer, unit_tracer, overhead)
        metrics = {k: (per_layer[k], unit) for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        missing = set(END_TO_END) - set(values)
        checks.expect(not missing, f"metrics not measured: {sorted(missing)}")
        metrics = {k: (values[k], unit) for k, (unit, _) in END_TO_END.items() if k in values}

    slowdown = statistics.median([u.slowdown for route_units in units.values() for u in route_units] or [1.0])
    return Outcome(not checks.failures, tally.attempted, tally.failed, metrics, checks.failures + tally.notes, slowdown)
