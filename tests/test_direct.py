"""Direct optimisation of the self-supervised objective (no network)."""

import numpy as np
import pytest

from dvokit import autodiff as ad
from dvokit import direct
from dvokit.direct import optimize_direct, perturbed_twist


def test_pose_mode_recovers_a_perturbed_pose(static_pair_32):
    start = perturbed_twist(static_pair_32.gt_pose.twist(), np.random.default_rng(0))
    result = optimize_direct(static_pair_32, "pose", iters=300, init_twist=start)
    assert not result.diverged
    assert result.trans_err_m < 0.01
    assert result.rot_err_deg < 0.1
    assert result.final_loss <= result.curve[0]


@pytest.mark.parametrize("init_depth", [2.0, 3.0])
def test_depth_mode_ends_in_the_documented_abs_rel_range(static_pair_32, init_depth):
    # the module docstring's range: 0.642 from 2 m, 0.473 from 3 m
    result = optimize_direct(static_pair_32, "depth", iters=300, init_depth=init_depth)
    assert not result.diverged
    assert 0.45 < result.abs_rel < 0.65
    assert result.final_loss < result.curve[0]


def test_a_nan_input_raises_what_a_checked_iteration_raises(static_pair_32, with_nan_pixel, monkeypatch):
    bad = with_nan_pixel(static_pair_32)
    with pytest.raises(ad.NonFiniteError, match="op '") as replayed:
        optimize_direct(bad, "pose", iters=2)
    monkeypatch.setattr(direct, "replayed", lambda fn, tested: fn())  # every iteration checked
    with pytest.raises(ad.NonFiniteError) as checked:
        optimize_direct(bad, "pose", iters=2)
    assert str(replayed.value) == str(checked.value)


def test_unchecked_iterations_make_no_finiteness_call(static_pair_32, monkeypatch):
    calls = []
    monkeypatch.setattr(ad, "_verify_finite", lambda data, op: calls.append(op))

    def count(iters):
        calls.clear()
        optimize_direct(static_pair_32, "depth", iters=iters)
        return len(calls)

    # the checked calls are the set-up's and the result's, not the iterations'
    assert count(2) == count(5)
