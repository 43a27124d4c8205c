"""Pinhole camera model, rigid transforms, and differentiable warping.

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

    @classmethod
    def from_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            cx=float(d["cx"]),
            cy=float(d["cy"]),
            width=d["width"],
            height=d["height"],
        )


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


def rotation_from_axis_angle(r: Tensor) -> Tensor:
    """Rodrigues rotation from an axis-angle Tensor of shape (3,), with a
    Taylor branch near zero; differentiable when `r` requires grad."""
    theta_sq = (r * r).sum()
    if theta_sq.item() < 1e-12:
        # series in theta^2 keeps the gradient finite through the origin
        a = 1.0 - theta_sq * (1.0 / 6.0) + theta_sq * theta_sq * (1.0 / 120.0)
        b = 0.5 - theta_sq * (1.0 / 24.0) + theta_sq * theta_sq * (1.0 / 720.0)
    else:
        theta = theta_sq.sqrt()
        a = theta.sin() / theta
        b = (1.0 - theta.cos()) / theta_sq
    k = (r.reshape(1, 3) @ Tensor(_SKEW)).reshape(3, 3)
    return Tensor(np.eye(3)) + a * k + b * (k @ k)


def pose_tensors(pose: Pose | Tensor) -> tuple[Tensor, Tensor]:
    """(rotation, translation) Tensors: constants from a Pose, or the
    differentiable Rodrigues rotation of a twist Tensor of shape (6,)."""
    if isinstance(pose, Pose):
        return Tensor(pose.rotation), Tensor(pose.translation)
    return rotation_from_axis_angle(pose[3:6]), pose[0:3]


# ---- projection ----------------------------------------------------------------------


def pixel_grid(k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) coordinate arrays of shape (H, W)."""
    u = np.arange(k.width, dtype=np.float64)
    v = np.arange(k.height, dtype=np.float64)
    return np.tile(u, (k.height, 1)), np.tile(v[:, None], (1, k.width))


@dataclass
class WarpResult:
    """Output of warping a depth map into a second camera.

    depth: transformed z per source pixel (H, W) Tensor
    flow: target (u', v') coordinates per source pixel, (H, W, 2) Tensor
    valid: source pixels with positive transformed depth whose target lands
        in the image domain [0, W-1] x [0, H-1], widened by 1e-9 px so that
        round-off at the border (a pixel reprojected onto itself can land
        1e-15 px outside) does not decide validity. ``bilinear_sample``
        clamps to the domain, so border samples are well defined. This is
        the valid set used by every loss.
    """

    depth: Tensor
    flow: Tensor
    valid: np.ndarray


def warp_depth(depth: Tensor | np.ndarray, pose: Pose | Tensor, k: CameraIntrinsics) -> WarpResult:
    """Backproject each pixel, apply the relative pose, reproject into the target.

    The pixels form one (3, H*W) point matrix: the constant ray matrix, whose
    column for pixel (u, v) is ((u - cx)/fx, (v - cy)/fy, 1), times the
    depth row. The pose maps it with one matmul, ``R @ P + t``, and the
    projection is one broadcast multiply, divide and add over its x, y rows.

    `depth` is a Tensor (differentiable path) or an ndarray. `pose` is a Pose
    or a twist Tensor of shape (6,) (differentiable). Invalid pixels are
    masked, never raised.
    """
    d = depth if isinstance(depth, Tensor) else Tensor(depth)
    r_t, t_t = pose_tensors(pose)
    h, w = k.height, k.width

    u, v = pixel_grid(k)
    rays = np.stack([(u - k.cx) / k.fx, (v - k.cy) / k.fy, np.ones((h, w))]).reshape(3, h * w)
    points = r_t @ (Tensor(rays) * d.reshape(1, h * w)) + t_t.reshape(3, 1)

    z = points[2]
    front = z.data > _VALID_EPS
    z_safe = ad.where(front, z, 1.0)
    uv = points[:2] * np.array([[k.fx], [k.fy]]) / z_safe + np.array([[k.cx], [k.cy]])

    upper = np.array([[w - 1.0], [h - 1.0]]) + _VALID_EPS
    valid = front & ((uv.data >= -_VALID_EPS) & (uv.data <= upper)).all(axis=0)
    flow = uv.transpose().reshape(h, w, 2)
    return WarpResult(depth=z.reshape(h, w), flow=flow, valid=valid.reshape(h, w))


def bilinear_sample(img: Tensor, coords: Tensor) -> Tensor:
    """Sample a (C, H, W) image at continuous (x, y) coords (..., 2) with one
    graph node, ``autodiff.bilinear_sample``, at the warp's 1e-9 px
    tolerance. Out-of-bounds coordinates clamp to the border (callers mask
    them out via the warp's valid set)."""
    return ad.bilinear_sample(img, coords, _VALID_EPS)
