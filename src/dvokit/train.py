"""Training loops: masked cross-view completion pretraining and
self-supervised finetuning, with deterministic batching, per-epoch
checkpoints, and JSON run reports."""

from __future__ import annotations

import functools
import json
import subprocess
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .autodiff import NonFiniteError
from .evaluation import DepthEvalConfig, EvalReport, depth_metrics, mean_reports
from .formats import DataError, load_pairs
from .losses import LossWeights, total_loss
from .model import (
    DvoModel,
    ModelConfig,
    forward_dvo,
    freeze_for_adapters,
    load_state,
    model_state,
    pretrain_step,
    save_checkpoint,
    load_checkpoint,
    toy_config,
)
from .optim import AdamW
from .synth import FramePair


class TrainingDivergence(RuntimeError):
    """A non-finite loss or gradient; carries the offending epoch and pair index."""

    def __init__(self, epoch: int, pair_index: int, cause: Exception):
        super().__init__(f"training diverged at epoch {epoch}, pair {pair_index}: {cause}")
        self.epoch = epoch
        self.pair_index = pair_index


@dataclass
class RunConfig:
    seed: int = 0
    model: ModelConfig = field(default_factory=toy_config)
    loss: LossWeights = field(default_factory=LossWeights)
    epochs: int = 4
    batch_size: int = 2
    out_dir: str = ""

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class RunReport:
    config: dict
    version: str
    wall_clock_sec: float
    epochs: int
    curves: dict[str, list[float]]
    eval_snapshots: list[dict | None]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@functools.cache
def version_string() -> str:
    """Package version plus the git description of the checkout holding this
    package (not of the caller's working directory), when there is one.
    Computed once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"v{__version__}+g{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"v{__version__}"


# ---- batched gradient accumulation ---------------------------------------------------


def batch_gradients(model: DvoModel, jobs: list, loss_fn):
    """Evaluate `loss_fn(model, job)` per job in order, each on its own graph,
    and average the gradients in job order. Returns (list of per-job scalar
    dicts, mean gradient of every trainable parameter by name), the second
    ready for `AdamW.step`; a parameter no loss reaches gets zeros. In
    checked mode each job's gradients are tested as they are computed, so a
    non-finite one raises NonFiniteError naming the parameter while its job
    is the last one started.

    loss_fn returns (scalar Tensor, dict of floats to log).
    """
    named = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    params = [p for _, p in named]
    scalar_list, total = [], None
    for job in jobs:
        loss, scalars = loss_fn(model, job)
        gs = ad.grads(loss, params)
        if ad.checked_enabled():
            for (name, _), g in zip(named, gs):
                if not np.isfinite(g).all():
                    raise NonFiniteError(f"non-finite gradient of '{name}', which checked mode does not trap")
        del loss  # frees this job's graph before the next job builds its own
        total = gs if total is None else [t + g for t, g in zip(total, gs)]
        scalar_list.append(scalars)
    scale = 1.0 / len(jobs)
    return scalar_list, {name: t * scale for (name, _), t in zip(named, total)}


# ---- datasets -------------------------------------------------------------------------


class PairDataset:
    """A list of frame pairs with shared intrinsics."""

    def __init__(self, pairs: list[FramePair]):
        if not pairs:
            raise ValueError("dataset has no pairs")
        self.pairs = pairs

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, i) -> FramePair:
        return self.pairs[i]

    @classmethod
    def from_dir(cls, path) -> "PairDataset":
        pairs, _ = load_pairs(path)
        return cls(pairs)


# Target pixels of one evaluation forward: 16 pairs at 32 px, 4 at 64 px.
# Evaluating 16 pairs at 64 px with the DPT head peaked at 285 MB RSS in
# 16-pair chunks and at 122 MB in 4-pair chunks, which also ran faster.
EVAL_CHUNK_PIXELS = 16_384


def _predicted_depths_a(model: DvoModel, pairs: list[FramePair]) -> np.ndarray:
    """Frame-a depth maps (P, H, W) of `pairs`, from one forward that records
    no graph. A frame array shared by several pairs (by identity, as
    `make_pair` and `load_pairs` share the frame between consecutive pairs)
    is encoded once."""
    images = {id(image): image for pair in pairs for image in (pair.image_a, pair.image_b)}
    row = {key: i for i, key in enumerate(images)}
    with ad.no_grad():
        grids = model.encode(np.stack(list(images.values())))
        tgt, ref = (
            replace(grids, tokens=grids.tokens[[row[id(getattr(pair, frame))] for pair in pairs]])
            for frame in ("image_a", "image_b")
        )
        return model.depth(tgt, ref).data


def evaluate_depth(model: DvoModel, dataset: PairDataset, eval_cfg: DepthEvalConfig | None = None) -> EvalReport:
    """Mean per-image depth metrics of the frame-a predictions.

    The pairs run in chunks of consecutive pairs, as many as fit
    EVAL_CHUNK_PIXELS target pixels (at least one). Each chunk is one
    forward that records no graph and runs unchecked: its distinct frames,
    matched by array identity, are encoded as one batch, and one decoder and
    depth-head call gives every pair's depth map, each the same, bit for
    bit, as that pair's forward alone. A chunk whose forward raises or gives
    a non-finite depth map is replayed checked (``ad.replayed``), so the
    error names the op. Each pair's metrics are computed on its own."""
    eval_cfg = eval_cfg or DepthEvalConfig(cap=model.cfg.max_depth)
    height, width = dataset.pairs[0].image_a.shape[-2:]
    chunk = max(1, EVAL_CHUNK_PIXELS // (height * width))
    reports = []
    for start in range(0, len(dataset), chunk):
        pairs = dataset.pairs[start : start + chunk]
        depths = ad.replayed(
            functools.partial(_predicted_depths_a, model, pairs),
            lambda depths: {f"depth map of pair {start + i}": d for i, d in enumerate(depths)},
        )
        for depth, pair in zip(depths, pairs):
            reports.append(depth_metrics(depth, pair.gt_depth_a.values, eval_cfg))
    return mean_reports(reports)


# ---- the two training phases ---------------------------------------------------------


def _completion_loss(model, pair, rng):
    loss = pretrain_step(model, pair.image_a, pair.image_b, rng)
    return loss, {"reconstruction": loss.item()}


def _finetune_loss(model, pair, weights: LossWeights):
    depth_a, depth_b, twist = forward_dvo(model, pair.image_a, pair.image_b)
    bd = total_loss(pair, depth_a, depth_b, twist, weights)
    return bd.l_total, bd.scalars()


def _step_values(step) -> dict[str, np.ndarray]:
    """What a training step must leave finite: its loss terms and gradients."""
    scalar_list, grads_by_name = step
    values = {"loss": np.array([v for scalars in scalar_list for v in scalars.values()])}
    values.update((f"gradient of '{name}'", g) for name, g in grads_by_name.items())
    return values


# The tensors no loss of a phase reaches. The phase does not step them, so
# AdamW gets no zero gradients for them and checkpoints hold no moments.
_UNREACHED = {"finetune": ("pixel_head.", "mask_token"), "pretrain": ("depth_head.", "pose_head.")}


def _checkpoint_config(cfg: RunConfig, phase: str, epoch: int) -> dict:
    return {"model": cfg.model.to_dict(), "extra": {"phase": phase, "epoch": epoch, "seed": cfg.seed}}


def _save_epoch_checkpoint(out_dir: Path, cfg: RunConfig, phase, epoch, model, opt) -> Path:
    arrays = {f"model.{k}": v for k, v in model_state(model).items()}
    arrays.update(opt.state_arrays())
    path = out_dir / f"checkpoint-epoch{epoch:03d}.dvoc"
    save_checkpoint(path, arrays, _checkpoint_config(cfg, phase, epoch))
    return path


def _load_checkpoint_into(path, model: DvoModel, opt: AdamW | None = None) -> int | None:
    """Fill `model` (and `opt`, on resume) from a checkpoint that must have
    been written for the model's configuration; on resume, return the epoch
    it was written after. A config header that is not an object with a
    model configuration (and, on resume, an integer `extra.epoch`), a file
    lacking any needed array or holding one of another shape, or (on
    resume) an `opt.step` that is not a non-negative integer, raises
    DataError naming `path`; another model configuration raises ValueError
    naming `path` and the keys that differ."""
    config, arrays = load_checkpoint(path)
    saved = config.get("model") if isinstance(config, dict) else None
    if not isinstance(saved, dict):
        raise DataError(f"checkpoint {path} has no model configuration")
    ours = model.cfg.to_dict()
    if saved != ours:
        differ = [
            f"{key} (checkpoint {saved.get(key, 'absent')}, model {ours.get(key, 'absent')})"
            for key in sorted(saved.keys() | ours.keys())
            if key not in saved or key not in ours or saved[key] != ours[key]
        ]
        raise ValueError(f"checkpoint/config mismatch: {path} differs from the model in {', '.join(differ)}")
    epoch = None
    needed = {f"model.{name}": param.shape for name, param in model.named_parameters()}
    if opt is not None:
        extra = config.get("extra")
        epoch = extra.get("epoch") if isinstance(extra, dict) else None
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
            raise DataError(f"checkpoint {path} has no integer extra.epoch to resume after")
        needed.update((name, value.shape) for name, value in opt.state_arrays().items())
    missing = [name for name in needed if name not in arrays]
    if missing:
        raise DataError(f"checkpoint {path} lacks {len(missing)} arrays, first '{missing[0]}'")
    for name, shape in needed.items():
        if arrays[name].shape != shape:
            raise DataError(f"checkpoint {path} holds '{name}' of shape {arrays[name].shape}, the model needs {shape}")
    if opt is not None:
        (step,) = arrays["opt.step"]
        if not (np.isfinite(step) and step >= 0 and step == np.floor(step)):
            raise DataError(f"checkpoint {path} holds 'opt.step' {step}, not a non-negative integer")
    load_state(model, {k[len("model.") :]: v for k, v in arrays.items() if k.startswith("model.")})
    if opt is not None:
        opt.load_state_arrays(arrays)
    return epoch


def _run_phase(
    cfg: RunConfig,
    dataset: PairDataset,
    phase: str,
    init_checkpoint: str | None = None,
    resume: str | None = None,
    eval_dataset: PairDataset | None = None,
    freeze_backbone: bool = False,
) -> tuple[DvoModel, RunReport]:
    """Train one phase. Each step runs unchecked and tests its loss terms and
    gradients for finiteness once; a failing step is replayed checked
    (``ad.replayed``) from the same inputs and epoch rng state, so
    ``TrainingDivergence`` names the op, the epoch and the pair. A
    non-finite gradient behind finite losses, which checked mode does not
    trap, is named by parameter, with the pair whose gradient it is."""
    started = time.monotonic()
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    model = DvoModel(cfg.model, np.random.default_rng(cfg.seed))
    start_epoch = 0
    if init_checkpoint is not None:  # warm start
        _load_checkpoint_into(init_checkpoint, model)
    if freeze_backbone:
        freeze_for_adapters(model)
    for name, param in model.named_parameters():
        if name.startswith(_UNREACHED[phase]):
            param.requires_grad = False
    opt = AdamW(list(model.named_parameters()))
    if resume is not None:
        start_epoch = _load_checkpoint_into(resume, model, opt) + 1

    curves: dict[str, list[float]] = {}
    snapshots: list[dict | None] = []

    for epoch in range(start_epoch, cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(dataset))
        started_pairs: list[int] = []  # the last one is the job batch_gradients is on

        def loss_fn(m, i):
            started_pairs.append(i)
            if phase == "pretrain":  # each job draws its mask from `rng`, in batch order
                return _completion_loss(m, dataset[i], rng)
            return _finetune_loss(m, dataset[i], cfg.loss)

        epoch_scalars: dict[str, list[float]] = {}
        for lo in range(0, len(order), cfg.batch_size):
            jobs = [int(i) for i in order[lo : lo + cfg.batch_size]]
            rng_state = rng.bit_generator.state

            def step():
                rng.bit_generator.state = rng_state  # a replay redraws the same masks
                started_pairs.clear()
                return batch_gradients(model, jobs, loss_fn)

            try:
                scalar_list, grads_by_name = ad.replayed(step, _step_values)
            except (NonFiniteError, FloatingPointError) as e:
                raise TrainingDivergence(epoch, started_pairs[-1], e) from e
            opt.step(grads_by_name)
            for scalars in scalar_list:
                for key, value in scalars.items():
                    epoch_scalars.setdefault(key, []).append(value)
        for key, values in epoch_scalars.items():
            curves.setdefault(key, []).append(float(np.mean(values)))
        if eval_dataset is not None:
            snapshots.append(json.loads(evaluate_depth(model, eval_dataset).to_json()))
        else:
            snapshots.append(None)
        if out_dir:
            _save_epoch_checkpoint(out_dir, cfg, phase, epoch, model, opt)

    report = RunReport(
        config=asdict(cfg),
        version=version_string(),
        wall_clock_sec=time.monotonic() - started,
        epochs=cfg.epochs,
        curves=curves,
        eval_snapshots=snapshots,
    )
    if out_dir:
        (out_dir / "report.json").write_text(report.to_json() + "\n")
    return model, report


def pretrain_run(cfg: RunConfig, dataset: PairDataset, resume: str | None = None):
    """Minimize the masked completion loss over the dataset pairs."""
    return _run_phase(cfg, dataset, "pretrain", resume=resume)


def finetune_run(
    cfg: RunConfig,
    dataset: PairDataset,
    init_checkpoint: str | None = None,
    resume: str | None = None,
    eval_dataset: PairDataset | None = None,
    freeze_backbone: bool = False,
):
    """Minimize the self-supervised warping objective over the dataset pairs."""
    return _run_phase(
        cfg,
        dataset,
        "finetune",
        init_checkpoint=init_checkpoint,
        resume=resume,
        eval_dataset=eval_dataset,
        freeze_backbone=freeze_backbone,
    )
