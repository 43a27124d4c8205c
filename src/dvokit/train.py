"""Training loops: masked cross-view completion pretraining and
self-supervised finetuning, with deterministic batching, per-epoch
checkpoints, and JSON run reports."""

from __future__ import annotations

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
    """Non-finite loss; carries the offending epoch and pair index."""

    def __init__(self, epoch: int, pair_index: int, cause: Exception):
        super().__init__(f"non-finite loss at epoch {epoch}, pair {pair_index}: {cause}")
        self.epoch = epoch
        self.pair_index = pair_index


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    weight_decay: float = 0.0
    betas: tuple[float, float] = (0.9, 0.999)

    def __post_init__(self):
        self.betas = tuple(self.betas)
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass
class RunConfig:
    seed: int = 0
    model: ModelConfig = field(default_factory=toy_config)
    loss: LossWeights = field(default_factory=LossWeights)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
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


def version_string() -> str:
    """Package version plus the git description of the checkout holding this
    package (not of the caller's working directory), when there is one."""
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
    ready for `AdamW.step`; a parameter no loss reaches gets zeros.

    loss_fn returns (scalar Tensor, dict of floats to log).
    """
    named = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    params = [p for _, p in named]
    scalar_list, total = [], None
    for job in jobs:
        loss, scalars = loss_fn(model, job)
        gs = ad.grads(loss, params)
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


def evaluate_depth(model: DvoModel, dataset: PairDataset, eval_cfg: DepthEvalConfig | None = None) -> EvalReport:
    """Mean per-image depth metrics of the frame-a predictions."""
    eval_cfg = eval_cfg or DepthEvalConfig(cap=model.cfg.max_depth)
    reports = []
    for pair in dataset.pairs:
        grids = model.encode(np.stack([pair.image_a, pair.image_b]))
        tgt, ref = (replace(grids, tokens=grids.tokens[i]) for i in (0, 1))
        depth = model.depth(tgt, ref)
        reports.append(depth_metrics(depth.data, pair.gt_depth_a.values, eval_cfg))
    return mean_reports(reports)


# ---- the two training phases ---------------------------------------------------------


def _completion_loss(model, pair, rng):
    loss = pretrain_step(model, pair.image_a, pair.image_b, rng)
    return loss, {"reconstruction": loss.item()}


def _finetune_loss(model, pair, weights: LossWeights):
    depth_a, depth_b, twist = forward_dvo(model, pair.image_a, pair.image_b)
    bd = total_loss(pair, depth_a, depth_b, twist, weights)
    return bd.l_total, bd.scalars()


def _checkpoint_config(cfg: RunConfig, phase: str, epoch: int) -> dict:
    return {"model": cfg.model.to_dict(), "extra": {"phase": phase, "epoch": epoch, "seed": cfg.seed}}


def _save_epoch_checkpoint(out_dir: Path, cfg: RunConfig, phase, epoch, model, opt) -> Path:
    arrays = {f"model.{k}": v for k, v in model_state(model).items()}
    arrays.update(opt.state_arrays())
    path = out_dir / f"checkpoint-epoch{epoch:03d}.dvoc"
    save_checkpoint(path, arrays, _checkpoint_config(cfg, phase, epoch))
    return path


def _load_checkpoint_into(path, model: DvoModel, opt: AdamW | None = None) -> dict:
    """Fill `model` (and `opt`) from a checkpoint that must have been written
    for the model's configuration; returns the checkpoint's config. A file
    lacking any of their arrays raises DataError naming `path`."""
    config, arrays = load_checkpoint(path)
    if config["model"] != model.cfg.to_dict():
        raise ValueError("checkpoint/config mismatch: model configuration differs")
    needed = [f"model.{name}" for name, _ in model.named_parameters()]
    if opt is not None:
        needed += list(opt.state_arrays())
    missing = [name for name in needed if name not in arrays]
    if missing:
        raise DataError(f"checkpoint {path} lacks {len(missing)} arrays, first '{missing[0]}'")
    load_state(model, {k[len("model.") :]: v for k, v in arrays.items() if k.startswith("model.")})
    if opt is not None:
        opt.load_state_arrays(arrays)
    return config


def _run_phase(
    cfg: RunConfig,
    dataset: PairDataset,
    phase: str,
    init_checkpoint: str | None = None,
    resume: str | None = None,
    eval_dataset: PairDataset | None = None,
    freeze_backbone: bool = False,
) -> tuple[DvoModel, RunReport]:
    started = time.monotonic()
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    model = DvoModel(cfg.model, np.random.default_rng(cfg.seed))
    start_epoch = 0
    if init_checkpoint is not None:  # warm start
        _load_checkpoint_into(init_checkpoint, model)
    if freeze_backbone:
        from .model import freeze_for_adapters

        freeze_for_adapters(model)
    opt = AdamW(
        list(model.named_parameters()),
        lr=cfg.optimizer.lr,
        betas=cfg.optimizer.betas,
        weight_decay=cfg.optimizer.weight_decay,
    )
    if resume is not None:
        start_epoch = int(_load_checkpoint_into(resume, model, opt)["extra"]["epoch"]) + 1

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
            try:
                scalar_list, grads_by_name = batch_gradients(model, jobs, loss_fn)
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
