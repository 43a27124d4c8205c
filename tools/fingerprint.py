"""Digest what dvokit computes, so a refactor can show that its outputs are
bit-identical to those of its parent, or how far they moved.

Usage:

    python3 tools/fingerprint.py <src-dir> > digests.json
    python3 tools/fingerprint.py --compare parent.json change.json

`<src-dir>` is the directory that holds the `dvokit` package (a checkout's
`src/`). The script prints one JSON object mapping item names to sha256
digests (first 16 hex digits). Every item is digested on its own, so a
difference names what changed (say, a checkpoint's config header while its
arrays stay the same). The numbers behind every item but the frames, the
dataset files, the checkpoints, `eval.json` (its numbers are those of
`eval.metrics`) and the `valid` map are also printed as they are, under
`values/<item>`; checkpoint arrays stay digest-only, because they are too
large for JSON. `--compare` lists the items that differ between two
such outputs and, for each `values/` item, the largest relative difference
of its numbers, so a change that moves outputs by round-off shows by how
much.

What it runs, all seeded and on the `dynamic-room` scene:
  - random-walk trajectories of 4 frames at 32 and 64 px (images, depths,
    dynamic masks, camera poses)
  - every file `save_dataset` writes for the 32 px trajectory
  - 2-epoch finetune and pretrain runs on the 3 pairs of each trajectory,
    with the linear head at 32 px and the DPT head at 64 px: the last
    checkpoint's arrays and config, the loss curves, and `evaluate_depth`
    on the same pairs (its JSON and, apart, its metric values), and each
    pair's predicted depth map, computed one pair at a time with
    `model.encode` and `model.depth` under `autodiff.no_grad` (where the
    sources have it), so these items cross-check the chunked forward of
    `evaluate_depth`, whose metrics the items above digest
  - one `total_loss` on the first 32 px pair, at perturbed depths and
    pose: its scalars, its `d_diff`, `m_s` and `valid` maps, and its
    gradients w.r.t. both depths and the twist
  - `losses.ssim` and `geometry.bilinear_sample` on fixed seeded inputs
    (sample coordinates off the grid, at integers, 1e-12 px below integers,
    on both borders and outside): one item per op, digesting its output and
    the gradient of a weighted sum of it w.r.t. each input
  - `geometry.quaternion_from_rotation` on seeded rotations: 5 by less
    than 90 degrees (positive trace) and 5 by about 170 degrees about each
    of x, y and z (negative trace, that axis's diagonal entry the largest)
  - the `nn` layers that run on the fused `autodiff.linear` and
    `autodiff.attention`: `SelfAttention`, `CrossAttention`, `Linear` (its
    weight trained and frozen), `Conv1x1` and `AdaptMlp`, on seeded
    parameters and inputs of 7 tokens (or 7 x 3 maps) without and with a
    leading axis of 2: one item each, digesting the output and the gradient
    of a weighted sum of it w.r.t. each input and trained parameter. Sources
    whose layer cannot run an item (an older constructor, or no leading
    axes) leave that item out
  - 20-iteration `optimize_direct` pose and depth runs on a 32 px pair from
    `perturbed_twist` starts (curves and results)
  - the failure path: 32 px linear finetune and pretrain runs whose last
    pair has one NaN pixel in its second image (the `TrainingDivergence`
    text, epoch and pair)

It writes only to a temporary directory and takes about 6 s on a 2-core host.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

_METRICS = ("abs_rel", "rmse", "delta1", "delta2", "delta3", "n_pixels", "scale_s")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _frames(synth, size: int):
    k = synth.default_intrinsics(size)
    scene = synth.preset_scene("dynamic-room", seed=0)
    frames = synth.generate_trajectory(scene, k, 4, synth.MotionSpec(), np.random.default_rng(size))
    return frames, k


def _pair_depth(model, pair):
    """Frame a's depth map, decoded with frame b as reference. Both frames
    are encoded as one batch; sources whose encoder takes one image at a
    time (before fbf13c1) encode them one by one, and sources without
    `model.depth` (before 1bc6f91) decode and run the head themselves."""
    try:
        grids = model.encode(np.stack([pair.image_a, pair.image_b]))
        tgt, ref = (replace(grids, tokens=grids.tokens[j]) for j in (0, 1))
    except ValueError:
        tgt, ref = model.encode(pair.image_a), model.encode(pair.image_b)
    if hasattr(model, "depth"):
        return model.depth(tgt, ref)
    return model.depth_from_blocks(model.decode(tgt, ref), tgt.rows, tgt.cols)


def _layer_parts(autodiff, build, shapes, lead, rng):
    """Output of the layer `build(rng)` on inputs of `shapes` behind the
    `lead` axes, and the gradients of a weighted sum of it w.r.t. each input
    and each parameter that requires grad; every parameter is redrawn from
    `rng` first (scale 0.3, so an adapter branch is live). None where the
    sources' layer cannot run it."""
    try:
        layer = build(rng)
        params = [p for _, p in layer.named_parameters()]
        for p in params:
            p.data = rng.normal(scale=0.3, size=p.data.shape)
        inputs = [autodiff.Tensor(rng.normal(size=(*lead, *shape)), requires_grad=True) for shape in shapes]
        out = layer(*inputs)
    except (TypeError, ValueError):
        return None
    weighted = (out * autodiff.Tensor(rng.normal(size=out.shape))).sum()
    leaves = inputs + [p for p in params if p.requires_grad]
    return [out.data, *autodiff.grads(weighted, leaves)]


def fingerprint(tmp: Path) -> dict:
    from dvokit import autodiff, direct, formats, geometry, losses, nn, synth, train
    from dvokit.model import load_checkpoint, toy_config

    # sources older than no_grad record the graph; the depth values are the same
    no_grad = getattr(autodiff, "no_grad", contextlib.nullcontext)

    out: dict = {}

    def record(item: str, *parts) -> None:
        out[item] = _digest(*parts)
        values = [part.tolist() if isinstance(part, np.ndarray) else part for part in parts]
        out[f"values/{item}"] = values[0] if len(values) == 1 else values

    trajectories = {size: _frames(synth, size) for size in (32, 64)}
    for size, (frames, _) in trajectories.items():
        out[f"frames-{size}"] = _digest(
            *(part for fr in frames for part in (fr.image, fr.depth, fr.dynamic_mask.astype(float))),
            *(fr.cam_to_world.matrix() for fr in frames),
        )

    frames, k = trajectories[32]
    data_dir = tmp / "dataset"
    formats.save_dataset(data_dir, frames, k, 0, "dynamic-room")
    for path in sorted(data_dir.iterdir()):
        out[f"dataset/{path.name}"] = _digest(path.read_bytes())

    for size, head in ((32, "linear"), (64, "dpt")):
        frames, k = trajectories[size]
        dataset = train.PairDataset([synth.make_pair(frames, i, k) for i in range(len(frames) - 1)])
        for phase, run in (("finetune", train.finetune_run), ("pretrain", train.pretrain_run)):
            name = f"{phase}-{size}-{head}"
            run_dir = tmp / name
            cfg = train.RunConfig(
                seed=0, model=toy_config(head_kind=head), epochs=2, batch_size=2, out_dir=str(run_dir)
            )
            model, report = run(cfg, dataset)
            config, arrays = load_checkpoint(run_dir / f"checkpoint-epoch{cfg.epochs - 1:03d}.dvoc")
            out[f"{name}/checkpoint.arrays"] = _digest(*(part for key in sorted(arrays) for part in (key, arrays[key])))
            out[f"{name}/checkpoint.config"] = _digest(config)
            record(f"{name}/curves", report.curves)
            scores = train.evaluate_depth(model, dataset)
            out[f"{name}/eval.json"] = _digest(scores.to_json())
            record(f"{name}/eval.metrics", {key: getattr(scores, key) for key in _METRICS})
            with no_grad():
                for i, pair in enumerate(dataset.pairs):
                    record(f"{name}/eval.depth-{i}", _pair_depth(model, pair).data)

    frames, k = trajectories[32]
    pairs = [synth.make_pair(frames, i, k) for i in range(len(frames) - 1)]
    image_b = pairs[-1].image_b.copy()
    image_b[0, 5, 7] = np.nan
    pairs[-1] = replace(pairs[-1], image_b=image_b)
    for phase, run in (("finetune", train.finetune_run), ("pretrain", train.pretrain_run)):
        cfg = train.RunConfig(seed=0, model=toy_config(), epochs=2, batch_size=2)
        try:
            run(cfg, train.PairDataset(pairs))
            failure = None
        except train.TrainingDivergence as e:
            failure = {"text": str(e), "epoch": e.epoch, "pair": e.pair_index}
        record(f"divergence/{phase}-32-linear", failure)

    pair = synth.make_pair(frames, 0, k)
    noise = np.random.default_rng(1)
    starts = {
        "depth_a": pair.gt_depth_a.values * np.exp(noise.normal(scale=0.05, size=pair.gt_depth_a.shape)),
        "depth_b": pair.gt_depth_b.values * np.exp(noise.normal(scale=0.05, size=pair.gt_depth_b.shape)),
        "twist": pair.gt_pose.twist() + noise.normal(scale=0.01, size=6),
    }
    leaves = {name: autodiff.Tensor(value, requires_grad=True) for name, value in starts.items()}
    breakdown = losses.total_loss(pair, leaves["depth_a"], leaves["depth_b"], leaves["twist"])
    record("loss/scalars", {**breakdown.scalars(), "valid_count": breakdown.valid_count})
    for name in ("d_diff", "m_s"):
        record(f"loss/{name}", getattr(breakdown, name).astype(float))
    out["loss/valid"] = _digest(breakdown.valid.astype(float))
    for name, grad in zip(leaves, autodiff.grads(breakdown.l_total, list(leaves.values()))):
        record(f"loss/grad.{name}", grad)

    rng = np.random.default_rng(2)
    grid = np.stack(np.meshgrid(np.arange(-1.0, 10.0), np.arange(-1.0, 9.0)), axis=-1)
    coords = np.concatenate([grid, grid - 1e-12, rng.uniform(-1.0, 10.0, size=grid.shape)]).reshape(-1, 2)
    for name, op, inputs in (
        ("ssim", losses.ssim, [rng.random((3, 8, 9)), rng.random((3, 8, 9))]),
        ("bilinear_sample", geometry.bilinear_sample, [rng.random((2, 8, 9)), coords]),
    ):
        leaves = [autodiff.Tensor(value, requires_grad=True) for value in inputs]
        result = op(*leaves)
        weighted = (result * autodiff.Tensor(rng.normal(size=result.shape))).sum()
        record(f"op/{name}", result.data, *autodiff.grads(weighted, leaves))
    rotvecs = [rng.normal(size=3) for _ in range(5)]
    rotvecs = [v / np.linalg.norm(v) * rng.uniform(0.1, 1.5) for v in rotvecs]
    for axis in np.eye(3):
        tilted = [axis + rng.normal(scale=0.1, size=3) for _ in range(5)]
        rotvecs += [v / np.linalg.norm(v) * np.radians(rng.uniform(165.0, 175.0)) for v in tilted]
    rotations = Rotation.from_rotvec(rotvecs).as_matrix()
    record("op/quaternion_from_rotation", np.array([geometry.quaternion_from_rotation(r) for r in rotations]))

    def frozen_linear(rng):
        layer = nn.Linear(24, 12, rng)
        layer.weight.requires_grad = False
        return layer

    # width 24 and 4 heads: the attention scale 6^-0.5 is not a power of two,
    # so applying it elsewhere would round differently
    layers = {
        "SelfAttention": (lambda rng: nn.SelfAttention(24, 4, rng), [(7, 24)]),
        "CrossAttention": (lambda rng: nn.CrossAttention(24, 4, rng), [(7, 24), (9, 24)]),
        "Linear": (lambda rng: nn.Linear(24, 12, rng), [(7, 24)]),
        "Linear-frozen-weight": (frozen_linear, [(7, 24)]),
        "Conv1x1": (lambda rng: nn.Conv1x1(24, 12, rng), [(24, 7, 3)]),
        "AdaptMlp": (lambda rng: nn.AdaptMlp(24, 96, 4, rng), [(7, 24)]),
    }
    for name, (build, shapes) in layers.items():
        for lead, suffix in (((), ""), ((2,), "-batched")):
            item = f"nn/{name}{suffix}"
            parts = _layer_parts(autodiff, build, shapes, lead, np.random.default_rng(sum(map(ord, item))))
            if parts is not None:
                record(item, *parts)

    rng = np.random.default_rng(0)
    for i in range(2):
        start = direct.perturbed_twist(pair.gt_pose.twist(), rng)
        record(f"direct/pose-{i}", asdict(direct.optimize_direct(pair, "pose", iters=20, init_twist=start)))
    for depth in (2.0, 3.0):
        record(f"direct/depth-{depth}", asdict(direct.optimize_direct(pair, "depth", iters=20, init_depth=depth)))
    return out


def _numbers(value, path=""):
    """(path, number) for every int or float leaf of a JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _numbers(value[key], f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{path}/{i}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def _largest_relative_difference(a, b) -> float:
    """Largest |x - y| / max(|x|, |y|) over the numbers of two JSON values
    of the same layout; inf when the layouts differ or one side alone is
    NaN or infinite."""
    xs, ys = dict(_numbers(a)), dict(_numbers(b))
    if xs.keys() != ys.keys():
        return math.inf
    worst = 0.0
    for key, x in xs.items():
        y = ys[key]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        rel = abs(x - y) / max(abs(x), abs(y))
        worst = max(worst, rel if math.isfinite(rel) else math.inf)
    return worst


def compare(parent: dict, change: dict) -> list[str]:
    """One line per item that differs or exists on one side only."""
    lines = []
    for item in sorted(parent.keys() | change.keys()):
        if item not in parent or item not in change:
            lines.append(f"{item}: only in {'change' if item in change else 'parent'}")
        elif parent[item] != change[item]:
            if item.startswith("values/"):
                rel = _largest_relative_difference(parent[item], change[item])
                lines.append(f"{item}: largest relative difference {rel:.3g}")
            else:
                lines.append(f"{item}: differs")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[1] == "--compare":
        parent, change = (json.loads(Path(p).read_text()) for p in argv[2:])
        lines = compare(parent, change)
        print("\n".join(lines) if lines else f"all {len(parent)} items identical")
        return 0
    if len(argv) != 2 or not (Path(argv[1]) / "dvokit" / "__init__.py").is_file():
        print(
            "usage: python3 tools/fingerprint.py <directory holding the dvokit package>\n"
            "       python3 tools/fingerprint.py --compare <parent.json> <change.json>",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(Path(argv[1]).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        digests = fingerprint(Path(tmp))
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
