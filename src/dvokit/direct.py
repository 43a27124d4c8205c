"""Direct gradient descent of the self-supervised objective over pose or
per-pixel depth, with ground truth holding the other quantity fixed.

This is the network-free sanity route on synthetic pairs with exact ground
truth. With ground-truth depth, the objective alone recovers a perturbed pose
to under 1 cm and 0.1 degrees (tests/test_direct.py: 300 iterations on a
32 px pair). Depth mode carries no such bound: on that pair, a ~7 cm
baseline at ~6 m depth, depth is barely observable and AbsRel ends between
0.45 and 0.65 from constant starts of 2-3 m (tests/test_direct.py: 0.64
from 2 m, 0.47 from 3 m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import EmptyValidSetError, Tensor, replayed
from .geometry import pose_distance, pose_from_twist, warp_depth
from .losses import PairObjective, total_loss
from .optim import AdamW
from .synth import FramePair

_LR = 0.01


@dataclass
class DirectResult:
    mode: str
    iters: int
    final_loss: float
    diverged: bool = False
    rot_err_deg: float | None = None
    trans_err_m: float | None = None
    abs_rel: float | None = None
    curve: list[float] = field(default_factory=list)


def perturbed_twist(gt_twist: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ground-truth twist composed with a random rotation of 1-5 degrees and
    a random translation of 0.02-0.1 m, each about a uniformly drawn axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = math.radians(rng.uniform(0.2, 1.0) * 5.0)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    shift = rng.uniform(0.2, 1.0) * 0.1
    delta = np.concatenate([direction * shift, axis * angle])
    return pose_from_twist(delta).compose(pose_from_twist(gt_twist)).twist()


def optimize_direct(
    pair: FramePair,
    mode: str,
    iters: int = 300,
    init_twist: np.ndarray | None = None,
    init_depth: float = 2.5,
) -> DirectResult:
    """Gradient-descend the total objective over the selected variables.

    mode 'pose': optimize the 6-vector twist with ground-truth depths fixed.
    mode 'depth': optimize per-pixel log-depth of both frames with the
    ground-truth pose fixed (initialized at a constant `init_depth`).

    AdamW steps at a learning rate of 0.01 that decays to 0 on a cosine
    schedule over `iters`.

    Parameters track the best (lowest-loss) iterate, so starting at a
    stationary point stays there. Reported errors compare the best iterate
    with the pair's ground truth (depth error on the final valid set).

    Built once per call, as no iteration changes them: the pair's
    ``losses.PairObjective``, in pose mode the depth Tensors with frame a's
    smoothness term, in depth mode the ground-truth Pose.

    Each iteration's loss and gradient (in the optimizer's buffer, through
    ``AdamW.fill_grad`` as in training) run unchecked; one that raises or
    leaves either non-finite is replayed checked (``autodiff.replayed``),
    so the error names the op, or the variable whose gradient is not finite.
    """
    if mode not in ("pose", "depth"):
        raise ValueError(f"unknown mode '{mode}'")
    gt_twist = pair.gt_pose.twist()
    h, w = pair.gt_depth_a.shape

    if mode == "pose":
        start = gt_twist if init_twist is None else np.asarray(init_twist, dtype=np.float64)
        pose = Tensor(start.copy(), requires_grad=True)
        depth_a, depth_b = (Tensor(np.log(d.values)).exp() for d in (pair.gt_depth_a, pair.gt_depth_b))
        objective = PairObjective(pair, fixed_depth_a=depth_a)
        variables = [("twist", pose)]
    else:
        pose = pose_from_twist(gt_twist)
        log_a = Tensor(np.full((h, w), math.log(init_depth)), requires_grad=True)
        log_b = Tensor(np.full((h, w), math.log(init_depth)), requires_grad=True)
        objective = PairObjective(pair)
        variables = [("log_depth_a", log_a), ("log_depth_b", log_b)]

    def loss_and_gradient():
        depths = (depth_a, depth_b) if mode == "pose" else (log_a.exp(), log_b.exp())
        bd = total_loss(objective, *depths, pose)
        opt.fill_grad([lambda: bd.l_total])
        return bd

    def tested(bd):
        return {"loss": bd.l_total.data, "gradient": opt.grad}

    opt = AdamW(variables, lr=_LR)
    curve: list[float] = []
    best_loss = math.inf
    best_state = {name: var.data.copy() for name, var in variables}
    diverged = False

    for it in range(iters):
        try:
            bd = replayed(loss_and_gradient, tested)
        except EmptyValidSetError:
            diverged = True
            break
        value = bd.l_total.item()
        curve.append(value)
        if value < best_loss:
            best_loss = value
            best_state = {name: var.data.copy() for name, var in variables}
        opt.lr = _LR * 0.5 * (1.0 + math.cos(math.pi * it / iters))
        opt.step()

    for name, var in variables:
        var.data = best_state[name]

    result = DirectResult(
        mode=mode,
        iters=len(curve),
        final_loss=best_loss if curve else math.inf,
        diverged=diverged,
        curve=curve,
    )
    if mode == "pose":
        rot, trans = pose_distance(pose_from_twist(pose.data), pair.gt_pose)
        result.rot_err_deg, result.trans_err_m = rot, trans
    else:
        pred = np.exp(log_a.data)
        gt = pair.gt_depth_a.values
        res = warp_depth(pred, pose, pair.intrinsics)
        if res.valid.any():
            # absolute scale is observable here (pose translation is metric),
            # so no median scaling: plain AbsRel over the valid set
            p, g = pred[res.valid], gt[res.valid]
            result.abs_rel = float(np.mean(np.abs(p - g) / g))
        else:
            result.diverged = True
    return result
