"""Pinhole camera model, rigid transforms, and differentiable warping: the
warp, the Rodrigues rotation and bilinear sampling are one graph node each.

Conventions used throughout the package:

* Pixel (u, v) sits at continuous coordinate (u, v); the image domain is
  [0, W-1] x [0, H-1]. Depth is the camera-frame z coordinate in meters.
* ``Pose`` maps points as ``x_out = R @ x_in + t``. A relative pose "a to b"
  maps camera-a coordinates into camera-b coordinates. A camera-to-world
  pose maps camera coordinates into world coordinates; the relative pose
  between two cameras is ``invert(world_b) o world_a``.
* Twist layout is (t_x, t_y, t_z, r_x, r_y, r_z): translation in meters plus
  an axis-angle rotation. ``pose_from_twist`` maps a twist to a Pose and
  ``Pose.twist`` maps back. The map is decoupled (Rodrigues rotation,
  translation copied verbatim), not the coupled SE(3) exponential.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

_VALID_EPS = 1e-9


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("focal lengths and principal point must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        for extent in (self.width, self.height):
            # JSON true/false load as bool, an int subclass
            if isinstance(extent, bool) or not isinstance(extent, (int, np.integer)):
                raise ValueError(f"image extents must be integers, got {extent!r}")
        if self.width < 2 or self.height < 2:
            raise ValueError("image extents must be at least 2 pixels")

    def to_dict(self) -> dict:
        return asdict(self)


class Pose:
    """Rigid transform: ``x_out = rotation @ x_in + translation``."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation, validate: bool = True):
        self.rotation = np.array(rotation, dtype=np.float64)
        self.translation = np.array(translation, dtype=np.float64).reshape(3)
        if validate:
            self._validate()

    def _validate(self):
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise ValueError("pose is not finite")
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > 1e-8:
            raise ValueError(f"rotation is not orthonormal (err {err:.2e})")
        if abs(np.linalg.det(self.rotation) - 1.0) > 1e-8:
            raise ValueError("rotation determinant is not +1")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3), validate=False)

    def twist(self) -> np.ndarray:
        """Inverse of ``pose_from_twist``, for rotations below pi."""
        return np.concatenate([self.translation, so3_log(self.rotation)])

    def compose(self, other: "Pose") -> "Pose":
        """self o other: apply `other` first, then `self`."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
            validate=False,
        )

    def invert(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation, validate=False)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def __repr__(self) -> str:
        return f"Pose(t={self.translation}, angle={np.degrees(rotation_angle(self.rotation)):.3f} deg)"


@dataclass
class DepthMap:
    """Per-pixel depth in meters; every value must be finite and positive."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("depth map must be 2-D")
        if not (np.isfinite(self.values) & (self.values > 0)).all():
            raise ValueError("depth values must be finite and positive")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


# ---- SO(3) / SE(3) -----------------------------------------------------------------


def quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (qx, qy, qz, qw) from a rotation matrix (Shepperd's method)."""
    r = np.asarray(r, dtype=np.float64)
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        qx = (r[2, 1] - r[1, 2]) / s
        qy = (r[0, 2] - r[2, 0]) / s
        qz = (r[1, 0] - r[0, 1]) / s
        q = np.array([qx, qy, qz, 0.25 * s])
    else:
        # i: the largest diagonal entry; j < k the other two; (a, b) cyclic after i
        i = int(np.argmax(np.diag(r)))
        j, k = (m for m in range(3) if m != i)
        a, b = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(1.0 + r[i, i] - r[j, j] - r[k, k]) * 2.0
        q = np.empty(4)
        q[i] = 0.25 * s
        q[j] = (r[i, j] + r[j, i]) / s
        q[k] = (r[i, k] + r[k, i]) / s
        q[3] = (r[b, a] - r[a, b]) / s
    return q / np.linalg.norm(q)


def rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from a (qx, qy, qz, qw) quaternion (normalized first)."""
    q = np.asarray(q, dtype=np.float64).reshape(4)
    q = q / np.linalg.norm(q)
    x, y, z, w = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def so3_log(r: np.ndarray) -> np.ndarray:
    """Axis-angle from a rotation matrix, robust for all angles below pi."""
    q = quaternion_from_rotation(r)
    vec, w = q[:3], q[3]
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        return 2.0 * vec  # first-order: angle ~ 0
    angle = 2.0 * np.arctan2(norm, w)
    if angle > np.pi:
        angle -= 2.0 * np.pi
    return vec / norm * angle


def rotation_angle(r: np.ndarray) -> float:
    """Geodesic rotation angle of a rotation matrix, in radians."""
    c = (np.trace(r) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def pose_from_twist(twist) -> Pose:
    """Pose from a twist: Rodrigues rotation, translation copied directly."""
    v = np.asarray(twist, dtype=np.float64).reshape(6)
    return Pose(rotation_from_axis_angle(Tensor(v[3:])).data, v[:3], validate=False)


def pose_distance(a: Pose, b: Pose) -> tuple[float, float]:
    """(rotation error in degrees, translation error in meters) between poses."""
    rot = np.degrees(rotation_angle(a.rotation @ b.rotation.T))
    trans = float(np.linalg.norm(a.translation - b.translation))
    return rot, trans


# ---- differentiable rotation from a twist ------------------------------------------

# row i is the flattened skew matrix [e_i]_x, whose column j is e_i x e_j, so
# r @ _SKEW is [r]_x flattened
_SKEW = np.cross(np.eye(3)[:, None], np.eye(3)).transpose(0, 2, 1).reshape(3, 9)


def _rodrigues(x: np.ndarray):
    """(R, backward) of an axis-angle array x of shape (3,): the Rodrigues
    rotation R = I + a K + b K^2, K = [x]x, with t = |x|, a = sin t / t and
    b = (1 - cos t) / t^2, or below t^2 = 1e-12 their series in t^2 (a finite
    gradient through the origin), and the map from R's gradient to x's. Both
    run the primitive-node composite's arithmetic (``tests/oracles.py``) in
    its order, so they give its values bit for bit."""
    t2 = (x * x).sum()
    if t2 < 1e-12:
        a = 1.0 - t2 * (1.0 / 6.0) + t2 * t2 * (1.0 / 120.0)
        b = 0.5 - t2 * (1.0 / 24.0) + t2 * t2 * (1.0 / 720.0)
    else:
        t = np.sqrt(t2)
        sin, cos = np.sin(t), np.cos(t)
        a, b = sin / t, (1.0 - cos) / t2
    k = (x.reshape(1, 3) @ _SKEW).reshape(3, 3)
    kk = k @ k

    def backward(g):
        g_a, g_b, g_kk = (g * k).sum(axis=(0, 1)), (g * kk).sum(axis=(0, 1)), g * b
        g_k = g * a + g_kk @ np.swapaxes(k, -1, -2) + k.reshape(-1, 3).T @ g_kk.reshape(-1, 3)
        # each sum in the order backpropagation through the composite adds it
        if t2 < 1e-12:  # a's, then b's: the t2 term, then the t2 * t2 term once per factor
            g_t2 = -g_a * (1.0 / 6.0) + g_a * (1.0 / 120.0) * t2 + g_a * (1.0 / 120.0) * t2
            g_t2 = g_t2 + -g_b * (1.0 / 24.0) + g_b * (1.0 / 720.0) * t2 + g_b * (1.0 / 720.0) * t2
        else:  # t: as sin t / t's divisor, through sin, through cos; t2: as b's divisor, through t
            g_t = -g_a * sin / (t * t) + g_a / t * cos + g_b / t2 * sin
            g_t2 = -g_b * (1.0 - cos) / (t2 * t2) + g_t / (2.0 * t)
        return g_t2 * x + g_t2 * x + (g_k.reshape(1, 9) @ np.swapaxes(_SKEW, -1, -2)).reshape(3)  # x*x, then K

    return np.eye(3) + a * k + b * kk, backward


def rotation_from_axis_angle(r: Tensor) -> Tensor:
    """``_rodrigues``'s rotation of an axis-angle Tensor of shape (3,), as one graph node."""
    rotation, backward = _rodrigues(r.data)
    return Tensor._make(rotation, (r,), lambda g: (backward(g),), "rotation_from_axis_angle")


# ---- projection ----------------------------------------------------------------------


def pixel_grid(k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) coordinate arrays of shape (H, W)."""
    u = np.arange(k.width, dtype=np.float64)
    v = np.arange(k.height, dtype=np.float64)
    return np.tile(u, (k.height, 1)), np.tile(v[:, None], (1, k.width))


@dataclass
class WarpResult:
    """Output of warping a depth map into a second camera.

    uvz: ``reproject``'s (H, W, 3) map of target (u', v') coordinates and
        transformed z per source pixel, whose getitem views, made when read,
        are ``flow`` (H, W, 2) and ``depth`` (H, W)
    valid: source pixels with positive transformed depth whose target lands
        in the image domain [0, W-1] x [0, H-1], widened by 1e-9 px so that
        round-off at the border (a pixel reprojected onto itself can land
        1e-15 px outside) does not decide validity. ``bilinear_sample``
        clamps to the domain, so border samples are well defined. This is
        the valid set used by every loss.
    """

    uvz: Tensor
    valid: np.ndarray
    flow = property(lambda self: self.uvz[..., :2])
    depth = property(lambda self: self.uvz[..., 2])


def ray_matrix(k: CameraIntrinsics) -> np.ndarray:
    """(3, H*W) rays: the column for pixel (u, v) is ((u - cx)/fx, (v - cy)/fy, 1)."""
    u, v = pixel_grid(k)
    return np.stack([(u - k.cx) / k.fx, (v - k.cy) / k.fy, np.ones((k.height, k.width))]).reshape(3, -1)


def reproject(depth: Tensor | np.ndarray, pose: Pose | Tensor, k: CameraIntrinsics, rays=None) -> Tensor:
    """Where each pixel lands in the target camera, (u', v', z) as one
    (H, W, 3) graph node: P = rays * depth row, (3, H*W), mapped by one
    matmul, ``R @ P + t``, and projected by one broadcast multiply, divide
    and add over its x, y rows (z <= 1e-9 divides by 1). `depth` is an
    (H, W) Tensor or array, `pose` a Pose or a twist Tensor (6,), `rays`
    ``ray_matrix(k)`` if the caller keeps it. It computes in float64 (a
    float32 depth or twist from the network is widened), and forward and
    backward run the composite's arithmetic (``tests/oracles.py``) in its
    order, bit for bit."""
    h, w = k.height, k.width
    depth = depth if isinstance(depth, Tensor) else Tensor(depth)
    rays = ray_matrix(k) if rays is None else rays
    if isinstance(pose, Pose):
        parents, rotation, translation = (depth,), pose.rotation, pose.translation
    else:
        twist = np.asarray(pose.data, dtype=np.float64)
        parents, translation = (depth, pose), twist[0:3]
        rotation, rotation_backward = _rodrigues(twist[3:6])
    points = rays * depth.data.reshape(1, h * w)
    cam = rotation @ points + translation.reshape(3, 1)
    front = cam[2] > _VALID_EPS
    z_safe = np.where(front, cam[2], 1.0)
    focal = np.array([[k.fx], [k.fy]])
    scaled = cam[:2] * focal
    rows = np.concatenate([scaled / z_safe + np.array([[k.cx], [k.cy]]), cam[2:]])  # u', v', z: the map transposed

    def grad_fn(g):
        g_rows = g.reshape(h * w, 3).T  # a view when g has the layout of the node's map
        g_cam = np.zeros((3, h * w))  # the x, y rows' and the z row's gradients, each added to zeros
        g_cam[:2] += g_rows[:2] / z_safe * focal
        g_cam[2] += (-g_rows[:2] * scaled / (z_safe * z_safe)).sum(axis=(0,)) * front + g_rows[2]
        g_depth = g_twist = None
        if depth.requires_grad:  # through R @ P, then rays * depth row
            g_points = rotation.reshape(-1, 3).T @ g_cam.reshape(-1, h * w)
            g_depth = (g_points * rays).sum(axis=(0,), keepdims=True).reshape(h, w)
        if len(parents) == 2 and pose.requires_grad:  # the translation's and the rotation's slices, added to zeros
            g_r = rotation_backward(g_cam @ np.swapaxes(points, -1, -2))
            g_twist = 0.0 + np.concatenate([g_cam.sum(axis=(1,), keepdims=True).reshape(3), g_r])
        return (g_depth, g_twist)[: len(parents)]

    return Tensor._make(rows.T.reshape(h, w, 3), parents, grad_fn, "reproject")


def warp_depth(depth: Tensor | np.ndarray, pose: Pose | Tensor, k: CameraIntrinsics, rays=None) -> WarpResult:
    """Backproject each pixel, apply the relative pose, reproject into the
    target: ``reproject``'s node (same arguments) and its valid set.
    Invalid pixels are masked, never raised."""
    uvz = reproject(depth, pose, k, rays)
    rows = uvz.data.reshape(-1, 3).T  # (3, H*W), the node's rows
    upper = np.array([[k.width - 1.0], [k.height - 1.0]]) + _VALID_EPS
    valid = (rows[2] > _VALID_EPS) & ((rows[:2] >= -_VALID_EPS) & (rows[:2] <= upper)).all(axis=0)
    return WarpResult(uvz=uvz, valid=valid.reshape(k.height, k.width))


def bilinear_sample(img: Tensor, coords: Tensor) -> Tensor:
    """Sample a (C, H, W) image at continuous (x, y) coords (..., 2) with one
    graph node on ``autodiff.bilinear``'s kernels, at the warp's 1e-9 px
    tolerance. Out-of-bounds coordinates clamp to the border (callers mask
    them out via the warp's valid set)."""
    out, backward = ad.bilinear(img.data, coords.data, _VALID_EPS)
    wrt = (img.requires_grad, coords.requires_grad)
    return Tensor._make(out, (img, coords), lambda g: backward(g, *wrt), "bilinear_sample")
