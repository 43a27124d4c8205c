from dataclasses import replace

import numpy as np
import pytest

from dvokit.geometry import Pose, pose_from_twist
from dvokit.synth import default_intrinsics, preset_scene, render_pair


def _static_pair(size, seed=21, twist=(0.05, -0.02, 0.04, 0.012, -0.008, 0.01)):
    scene = preset_scene("room", seed=seed)
    pose_a = Pose(np.eye(3), [0.1, -0.05, 0.2])
    pose_b = pose_a.compose(pose_from_twist(twist))
    return render_pair(scene, default_intrinsics(size), pose_a, pose_b)


@pytest.fixture(scope="session")
def with_nan_pixel():
    """f(pair): a copy of the pair with one NaN pixel in its second image."""

    def f(pair):
        image_b = pair.image_b.copy()
        image_b[0, 5, 7] = np.nan
        return replace(pair, image_b=image_b)

    return f


@pytest.fixture(scope="session")
def static_pair_16():
    return _static_pair(16)


@pytest.fixture(scope="session")
def static_pair_32():
    return _static_pair(32)


@pytest.fixture(scope="session")
def static_pair_64():
    return _static_pair(64)


@pytest.fixture(scope="session")
def dynamic_pair_32():
    from dvokit.synth import MotionSpec, generate_trajectory, make_pair

    k = default_intrinsics(32)
    scene = preset_scene("dynamic-room", seed=9)
    frames = generate_trajectory(
        scene, k, 2, MotionSpec(kind="line", step=(0.02, 0.0, 0.03)), np.random.default_rng(1)
    )
    pair = make_pair(frames, 0, k)
    assert pair.dynamic_mask_a is not None
    return pair
