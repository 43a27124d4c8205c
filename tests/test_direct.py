"""Direct optimisation of the self-supervised objective (no network)."""

import numpy as np

from dvokit.direct import optimize_direct, perturbed_twist


def test_pose_mode_recovers_a_perturbed_pose(static_pair_32):
    start = perturbed_twist(static_pair_32.gt_pose.twist(), np.random.default_rng(0))
    result = optimize_direct(static_pair_32, "pose", iters=300, init_twist=start)
    assert not result.diverged
    assert result.trans_err_m < 0.01
    assert result.rot_err_deg < 0.1
    assert result.final_loss <= result.curve[0]
