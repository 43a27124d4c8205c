"""Digest what dvokit computes, so a refactor can show that its outputs are
bit-identical to those of its parent, or how far they moved.

Usage:

    python3 tools/fingerprint.py <src-dir> > digests.json
    python3 tools/fingerprint.py --compare parent.json change.json
    python3 tools/fingerprint.py --compare --rtol 1e-12 parent.json change.json

`<src-dir>` is the directory that holds the `dvokit` package (a checkout's
`src/`). The script prints one JSON object mapping item names to sha256
digests (first 16 hex digits). Every item is digested on its own, so a
difference names what changed (say, a checkpoint's config header while its
arrays stay the same). The numbers behind every item but the frames, the
dataset files and the `valid` map are also printed as they are, under
`values/<item>`; for a checkpoint's arrays, which are too large for JSON,
five numbers per array stand for them (`_array_summaries`).
`--compare` lists the items of both outputs that differ and, for each
`values/` item, the largest relative difference of its numbers, so a
change that moves outputs by round-off shows by how much. `--rtol R` gates
a round-off change instead: an item passes when it is identical or its
`values/` twin differs by at most R, relative. A digest that differs while
its twin does not fails, as what moved is then something the numbers do
not show. Items that exist on one side only (an op or layer that one of
the two sources lacks) are listed after the failing ones, as "only in
parent" or "only in change". The exit status is 1 when any item of both
outputs fails, 3 when items on one side only are the only finding and 0
when all items are identical, so a script can gate a refactor on it.

What it runs, all seeded and on the `dynamic-room` scene:
  - random-walk trajectories of 4 frames at 32 and 64 px (images, depths,
    dynamic masks, camera poses)
  - every file `save_dataset` writes for the 32 px trajectory
  - 2-epoch finetune and pretrain runs on the 3 pairs of each trajectory,
    with the linear head at 32 px and the DPT head at 64 px: the last
    checkpoint's parameters (`checkpoint.params`, its `model.*` arrays),
    optimizer state (`checkpoint.moments`, its `opt.*` arrays: the step
    count and Adam's moments) and config, the loss curves, and
    `evaluate_depth` on the same pairs (its JSON), and each pair's
    predicted depth map, computed one pair at a time with `model.encode`
    and `model.depth` under `autodiff.no_grad` (where the sources have
    it), so these items cross-check the chunked forward of
    `evaluate_depth`, whose metrics the items above digest
  - one `total_loss` on the first 32 px pair, at perturbed depths and
    pose: its scalars, its `d_diff`, `m_s` and `valid` maps, and its
    gradients w.r.t. both depths and the twist
  - `losses.ssim` (as a node, `_ssim_node`) and `geometry.bilinear_sample`
    on fixed seeded inputs (sample coordinates off the grid, at integers,
    1e-12 px below integers, on both borders and outside): one item per op,
    digesting its output and the gradient of a weighted sum of it w.r.t.
    each input
  - the DPT head's kernels, the same way, on seeded maps with a leading axis
    of 2: `autodiff.conv3x3`, `autodiff.conv3x3_up2` (older sources),
    `autodiff.conv3x3_up2_gelu_linear` (its conv, then GELU and a projection
    to one channel) and `autodiff.upsample_nearest` by 2 and by 4
    (`op/upsample_nearest-k2`, `-k4`); and the transformer's, on seeded
    tokens: `autodiff.layernorm` (its input, scale and shift) and
    `autodiff.softmax` (older sources) along the last and the first axis
    (`op/softmax-axis-1`, `-axis0`); `autodiff.gelu_linear` on tokens
    (`op/gelu_linear-tokens`) and, to one channel, on the swapped view of
    (2, 24, 35) maps (`-maps`), the layout in which the DPT head projected
    its full-resolution map before `conv3x3_up2_gelu_linear`. Sources
    without an op, or whose op takes no leading axes, leave its item out
  - `optim.AdamW`: 5 steps on three seeded parameters with seeded
    gradients (`optim/adamw`), digesting the parameters and the state
    (step count and moments). Where `step` takes no argument, the
    gradients are written into the optimizer's `grad_views` before each
    step; older sources take them as a name -> array mapping. Sources whose
    step takes no argument and that have no `grad_views` (it read the
    tensors' own gradients) leave the item out
  - `geometry.quaternion_from_rotation` on seeded rotations: 5 by less
    than 90 degrees (positive trace) and 5 by about 170 degrees about each
    of x, y and z (negative trace, that axis's diagonal entry the largest)
  - `geometry.rotation_from_axis_angle` on seeded axes at |r| = 1e-7
    (the Taylor branch), 0, 0.3 and 1.5 (`op/rotation_from_axis_angle-taylor`,
    `-zero`, `-0.3`, `-1.5`): the rotation and the gradient of a weighted
    sum of it
  - `geometry.warp_depth` and `losses.smoothness` on a 9 x 11 camera: the
    flow and depth of the warp of a seeded depth map by a twist leaf
    (`op/warp_depth-pose`) and of a depth leaf by a constant Pose
    (`-depth`), and the smoothness term of a depth leaf (`op/smoothness`,
    sources with `losses.edge_weights`), each with the gradient of a
    weighted sum of it
  - the loss's other nodes on the same camera, in sources that have
    `losses.depth_consistency`: `losses.photometric_loss` of two seeded
    images, and `losses.depth_consistency` (of the warp's map, with flows
    on, 1e-12 px inside and outside the image border, and a seeded depth b)
    and `losses.masked_mean` (of a seeded map, with a seeded mask) over
    that map's valid set, each with the gradient of a weighted sum of it
    w.r.t. each input (`op/photometric_loss`, `op/depth_consistency`,
    `op/masked_mean`)
  - the `nn` layers that run on the fused `autodiff.linear` and
    `autodiff.attention`: `SelfAttention`, `CrossAttention`, `Linear` (its
    weight trained and frozen), `Conv1x1` (to 12 channels, and to 1 as
    the DPT head's `head_out` was; older sources only) and `AdaptMlp`, on
    seeded parameters and inputs, rounded to float32 as the network runs,
    of 7 tokens (or 7 x 3 maps) without and with a leading axis of 2: one
    item each, digesting the output and the gradient of a weighted sum of
    it w.r.t. each input and trained parameter. Sources that lack a
    layer's class, or whose layer cannot run an item (an older
    constructor, or no leading axes), leave that item out
  - 20-iteration `optimize_direct` pose and depth runs on a 32 px pair from
    `perturbed_twist` starts (curves and results)
  - the failure path: 32 px linear finetune and pretrain runs whose last
    pair has one NaN pixel in its second image (the `TrainingDivergence`
    text, epoch and pair)

On the current sources it prints 163 items: 92 digests and the 71
`values/` entries beside them. It writes only to a temporary directory and
takes about 6 s on a 2-core host.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import math
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

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


def _array_summaries(arrays: dict) -> dict:
    """Per array: the sums of its magnitudes, of its squares and of its
    positive entries, its largest magnitude, and the sum of its magnitudes
    weighted by position (1 to n, over n), so that a sign flip or a
    reordering moves a number too. No sum here can cancel: layer norm makes
    the gradient of a bias that only feeds it sum to zero, so Adam's first
    moment of such a bias sums to ~1e-20 with entries up to ~3e-6, and a
    round-off change moved that plain sum by a factor of 2. Every sum runs
    in float64, so a float32 array summarises as its float64 widening does
    (checkpoints of format 3 store float32, those of format 2 float64)."""
    summaries = {}
    for key, a in sorted(arrays.items()):
        a = np.asarray(a, dtype=np.float64)
        flat = np.abs(a).ravel()
        weights = np.arange(1, flat.size + 1) / max(flat.size, 1)
        summaries[key] = [
            float(flat.sum()), float((flat * flat).sum()), float(np.maximum(a, 0.0).sum()),
            float(flat.max(initial=0.0)), float(weights @ flat),
        ]
    return summaries


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


def _op_parts(autodiff, op, inputs, rng):
    """Output of `op` on the arrays `inputs` and the gradients of a weighted
    sum of it (weights drawn from `rng`) w.r.t. each input. None where the
    sources' op cannot run it (say, one that takes no leading axes)."""
    leaves = [autodiff.Tensor(value, requires_grad=True) for value in inputs]
    try:
        result = op(*leaves)
    except (TypeError, ValueError):
        return None
    weighted = (result * autodiff.Tensor(rng.normal(size=result.shape))).sum()
    return [result.data, *autodiff.grads(weighted, leaves)]


def _ssim_node(autodiff, ssim):
    """`losses.ssim` as a node of two Tensors. Older sources' is one; newer
    sources' maps two arrays to the SSIM map and its backward, a kernel of
    the photometric node, so the node is built here."""

    def node(a, b):
        result = ssim(a.data, b.data)
        if isinstance(result, autodiff.Tensor):  # the node, run on constants
            return ssim(a, b)
        out, backward = result
        return autodiff.Tensor._make(out, (a, b), lambda g: backward(g, True, True), "ssim")

    return node


def _layer_parts(autodiff, build, shapes, lead, rng):
    """Output of the layer `build(rng)` on inputs of `shapes` behind the
    `lead` axes, and the gradients of a weighted sum of it w.r.t. each input
    and each parameter that requires grad; every parameter is redrawn from
    `rng` first (scale 0.3, so an adapter branch is live). Parameters and
    inputs are rounded to float32, the dtype the network runs in, so a
    fault of a layer's float32 arithmetic shows. None where the sources'
    layer cannot run it."""
    try:
        layer = build(rng)
        params = [p for _, p in layer.named_parameters()]
        for p in params:
            p.data = rng.normal(scale=0.3, size=p.data.shape).astype(np.float32)
        inputs = [
            autodiff.Tensor(rng.normal(size=(*lead, *shape)).astype(np.float32), requires_grad=True)
            for shape in shapes
        ]
        out = layer(*inputs)
    except (TypeError, ValueError):
        return None
    weighted = (out * autodiff.Tensor(rng.normal(size=out.shape))).sum()
    leaves = inputs + [p for p in params if p.requires_grad]
    return [out.data, *autodiff.grads(weighted, leaves)]


def fingerprint(tmp: Path) -> dict:
    from dvokit import autodiff, direct, formats, geometry, losses, nn, optim, synth, train
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
            for item, prefix in (("params", "model."), ("moments", "opt.")):
                part = {key: value for key, value in arrays.items() if key.startswith(prefix)}
                out[f"{name}/checkpoint.{item}"] = _digest(*(x for key in sorted(part) for x in (key, part[key])))
                out[f"values/{name}/checkpoint.{item}"] = _array_summaries(part)
            out[f"{name}/checkpoint.config"] = _digest(config)
            record(f"{name}/curves", report.curves)
            record(f"{name}/eval.json", json.loads(train.evaluate_depth(model, dataset).to_json()))
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
        ("ssim", _ssim_node(autodiff, losses.ssim), [rng.random((3, 8, 9)), rng.random((3, 8, 9))]),
        ("bilinear_sample", geometry.bilinear_sample, [rng.random((2, 8, 9)), coords]),
    ):
        record(f"op/{name}", *_op_parts(autodiff, op, inputs, rng))
    rotvecs = [rng.normal(size=3) for _ in range(5)]
    rotvecs = [v / np.linalg.norm(v) * rng.uniform(0.1, 1.5) for v in rotvecs]
    for axis in np.eye(3):
        tilted = [axis + rng.normal(scale=0.1, size=3) for _ in range(5)]
        rotvecs += [v / np.linalg.norm(v) * np.radians(rng.uniform(165.0, 175.0)) for v in tilted]
    rotations = Rotation.from_rotvec(rotvecs).as_matrix()
    record("op/quaternion_from_rotation", np.array([geometry.quaternion_from_rotation(r) for r in rotations]))

    # the Rodrigues rotation on both branches: the series below |r|^2 = 1e-12
    # (at |r| = 1e-7 and at zero) and the closed form above it
    for name, norm in (("taylor", 1e-7), ("zero", 0.0), ("0.3", 0.3), ("1.5", 1.5)):
        item = f"op/rotation_from_axis_angle-{name}"
        op_rng = np.random.default_rng(sum(map(ord, item)))
        axis = op_rng.normal(size=3)
        rotvec = axis / np.linalg.norm(axis) * norm
        record(item, *_op_parts(autodiff, geometry.rotation_from_axis_angle, [rotvec], op_rng))

    # the warp and the smoothness term (one node each since they were fused)
    # on a 9x11 camera: the warp's flow and depth as one (H, W, 3) map in
    # pose mode (a constant depth, a twist leaf) and in depth mode (a depth
    # leaf, a constant Pose), and the smoothness term of a depth leaf
    k_small = geometry.CameraIntrinsics(fx=9.9, fy=9.9, cx=5.0, cy=4.0, width=11, height=9)
    shape_rng = np.random.default_rng(sum(map(ord, "op/warp_depth")))
    depth0, twist0 = shape_rng.uniform(2.0, 4.0, size=(9, 11)), shape_rng.normal(scale=0.05, size=6)
    image0 = shape_rng.random((3, 9, 11))

    def warp_map(depth, pose):
        warp = geometry.warp_depth(depth, pose, k_small)
        return autodiff.concat([warp.flow, warp.depth.reshape(9, 11, 1)], axis=2)

    edges = getattr(losses, "edge_weights", None)
    surfaces = {
        "warp_depth-pose": (lambda twist: warp_map(depth0, twist), twist0),
        "warp_depth-depth": (lambda depth: warp_map(depth, geometry.pose_from_twist(twist0)), depth0),
        "smoothness": (
            edges and (lambda depth: losses.smoothness(depth, edges(image0))), depth0
        ),
    }
    for name, (op, value) in surfaces.items():
        item = f"op/{name}"
        if op is not None:
            record(item, *_op_parts(autodiff, op, [value], np.random.default_rng(sum(map(ord, item)))))

    # the loss's other nodes (sources that have them) on the same camera: the
    # photometric map of two seeded images, and the depth inconsistency and
    # the masked mean over a valid set whose top row lands on the image
    # border, 1e-12 px inside and outside it, and just beyond the 1e-9 px
    # tolerance
    if hasattr(losses, "depth_consistency"):
        loss_rng = np.random.default_rng(sum(map(ord, "op/depth_consistency")))
        uvz0 = warp_map(depth0, geometry.pose_from_twist(twist0)).data.copy()
        edge = uvz0[0, :, :2]
        edge[:, 1] = np.array([0.0, 1e-12, -1e-12, -2e-9, 3.0])[np.arange(11) % 5]
        edge[::3, 0] = np.array([0.0, 10.0, 10.0 - 1e-12, 10.0 + 1e-12])
        upper = np.array([10.0, 8.0]) + 1e-9
        valid = (uvz0[..., 2] > 1e-9) & ((uvz0[..., :2] >= -1e-9) & (uvz0[..., :2] <= upper)).all(axis=-1)
        mask = loss_rng.uniform(0.2, 1.0, size=int(valid.sum()))
        nodes = {
            "photometric_loss": (losses.photometric_loss, [image0, loss_rng.random((3, 9, 11))]),
            "depth_consistency": (
                lambda uvz, depth_b: losses.depth_consistency(uvz, depth_b, valid),
                [uvz0, loss_rng.uniform(2.0, 4.0, size=(9, 11))],
            ),
            "masked_mean": (lambda values: losses.masked_mean(values, mask, valid), [loss_rng.random((9, 11))]),
        }
        for name, (op, inputs) in nodes.items():
            item = f"op/{name}"
            record(item, *_op_parts(autodiff, op, inputs, np.random.default_rng(sum(map(ord, item)))))

    # the DPT head's kernels, on maps with a leading axis of 2, the
    # transformer's layernorm and softmax, and GELU into a projection
    conv_shapes = [(2, 6, 5, 7), (3, 3, 6, 4), (4,)]
    softmax = getattr(autodiff, "softmax", None)
    gelu_linear = getattr(autodiff, "gelu_linear", None)
    kernels = {
        "conv3x3": (getattr(autodiff, "conv3x3", None), conv_shapes),
        "conv3x3_up2": (getattr(autodiff, "conv3x3_up2", None), conv_shapes),
        "conv3x3_up2_gelu_linear": (getattr(autodiff, "conv3x3_up2_gelu_linear", None), [*conv_shapes, (4, 1), (1,)]),
        "upsample_nearest-k2": (lambda t: autodiff.upsample_nearest(t, 2), [(2, 3, 5, 6)]),
        "upsample_nearest-k4": (lambda t: autodiff.upsample_nearest(t, 4), [(2, 3, 5, 6)]),
        "layernorm": (getattr(autodiff, "layernorm", None), [(2, 7, 24), (24,), (24,)]),
        "softmax-axis-1": (softmax and (lambda t: softmax(t, axis=-1)), [(2, 4, 7, 7)]),
        "softmax-axis0": (softmax and (lambda t: softmax(t, axis=0)), [(2, 4, 7, 7)]),
        "gelu_linear-tokens": (gelu_linear, [(2, 7, 24), (24, 12), (12,)]),
        "gelu_linear-maps": (
            gelu_linear and (lambda x, w, b: gelu_linear(x.transpose(0, 2, 1), w, b)),
            [(2, 24, 35), (24, 1), (1,)],
        ),
    }
    for name, (op, shapes) in kernels.items():
        item = f"op/{name}"
        op_rng = np.random.default_rng(sum(map(ord, item)))
        parts = None if op is None else _op_parts(autodiff, op, [op_rng.normal(size=s) for s in shapes], op_rng)
        if parts is not None:
            record(item, *parts)

    # AdamW, 5 steps on seeded parameters and gradients
    opt_rng = np.random.default_rng(sum(map(ord, "optim/adamw")))
    shapes = [(24, 12), (12,), (3, 3, 4, 5)]
    params = [(f"p{i}", autodiff.Tensor(opt_rng.normal(size=s), requires_grad=True)) for i, s in enumerate(shapes)]
    opt = optim.AdamW(params)
    takes_gradients = len(inspect.signature(opt.step).parameters) == 1
    if takes_gradients or hasattr(opt, "grad_views"):
        for _ in range(5):
            grads = {name: opt_rng.normal(size=p.shape) for name, p in params}
            if takes_gradients:
                opt.step(grads)
            else:
                for name, g in grads.items():
                    np.copyto(opt.grad_views[name], g)
                opt.step()
        state = opt.state_arrays()
        record("optim/adamw", *(p.data for _, p in params), *(state[key] for key in sorted(state)))

    def frozen_linear(rng):
        layer = nn.Linear(24, 12, rng)
        layer.weight.requires_grad = False
        return layer

    # width 24 and 4 heads: the attention scale 6^-0.5 is not a power of two,
    # so applying it elsewhere would round differently
    conv1x1 = getattr(nn, "Conv1x1", None)
    layers = {
        "SelfAttention": (lambda rng: nn.SelfAttention(24, 4, rng), [(7, 24)]),
        "CrossAttention": (lambda rng: nn.CrossAttention(24, 4, rng), [(7, 24), (9, 24)]),
        "Linear": (lambda rng: nn.Linear(24, 12, rng), [(7, 24)]),
        "Linear-frozen-weight": (frozen_linear, [(7, 24)]),
        "Conv1x1": (conv1x1 and (lambda rng: conv1x1(24, 12, rng)), [(24, 7, 3)]),
        "Conv1x1-to-1": (conv1x1 and (lambda rng: conv1x1(24, 1, rng)), [(24, 7, 3)]),
        "AdaptMlp": (lambda rng: nn.AdaptMlp(24, 96, 4, rng), [(7, 24)]),
    }
    for name, (build, shapes) in layers.items():
        if build is None:
            continue
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


def compare(parent: dict, change: dict, rtol: float | None = None) -> tuple[list[str], list[str]]:
    """One line per item of both that differs and one per item on one side
    only, as two lists. With `rtol`, the first lists only the items that
    fail it: an item passes when it is identical, or when its `values/` twin
    differs too and passes (the twin judges it), and a `values/` item when
    its largest relative difference is at most `rtol`."""
    failing = []
    one_sided = [
        f"{item}: only in {'change' if item in change else 'parent'}"
        for item in sorted(parent.keys() ^ change.keys())
    ]
    for item in sorted(parent.keys() & change.keys()):
        twin = f"values/{item}"
        if parent[item] == change[item]:
            continue
        elif item.startswith("values/"):
            rel = _largest_relative_difference(parent[item], change[item])
            if rtol is None or not rel <= rtol:
                beyond = "" if rtol is None else f", beyond {rtol:g}"
                failing.append(f"{item}: largest relative difference {rel:.3g}{beyond}")
        elif rtol is None:
            failing.append(f"{item}: differs")
        elif twin not in parent or twin not in change:
            failing.append(f"{item}: differs, with no values/ twin")
        elif parent[twin] == change[twin]:  # what moved, its numbers do not show
            failing.append(f"{item}: differs, but its values/ twin does not")
    return failing, one_sided


def main(argv: list[str]) -> int:
    args = argv[1:]
    if args[:1] == ["--compare"] and len(args) in (3, 5) and (len(args) == 3 or args[1] == "--rtol"):
        rtol = float(args[2]) if len(args) == 5 else None
        parent, change = (json.loads(Path(p).read_text()) for p in args[-2:])
        failing, one_sided = compare(parent, change, rtol)
        if failing:
            print("\n".join(failing + one_sided))
            return 1
        shared = f"{len(parent.keys() & change.keys())} {'shared ' if one_sided else ''}items"
        within = "" if rtol is None else f" or within rtol {rtol:g}"
        print("\n".join([f"all {shared} identical{within}", *one_sided]))
        return 3 if one_sided else 0
    if len(argv) != 2 or not (Path(argv[1]) / "dvokit" / "__init__.py").is_file():
        print(
            "usage: python3 tools/fingerprint.py <directory holding the dvokit package>\n"
            "       python3 tools/fingerprint.py --compare [--rtol R] <parent.json> <change.json>",
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
