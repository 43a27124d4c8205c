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

from dataclasses import dataclass

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
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width < 2 or self.height < 2:
            raise ValueError("image extents must be at least 2 pixels")

    def to_dict(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            cx=float(d["cx"]),
            cy=float(d["cy"]),
            width=int(d["width"]),
            height=int(d["height"]),
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

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def __repr__(self) -> str:
        return f"Pose(t={self.translation}, angle={np.degrees(rotation_angle(self.rotation)):.3f} deg)"


@dataclass
class DepthMap:
    """Per-pixel depth in meters; every value must be positive."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("depth map must be 2-D")
        if np.any(self.values <= 0):
            raise ValueError("depth values must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


# ---- SO(3) / SE(3) -----------------------------------------------------------------


def _skew(w: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def so3_exp(axis_angle) -> np.ndarray:
    """Rodrigues rotation from an axis-angle vector (Taylor branch near zero)."""
    w = np.asarray(axis_angle, dtype=np.float64).reshape(3)
    theta_sq = float(w @ w)
    k = _skew(w)
    if theta_sq < 1e-12:
        a = 1.0 - theta_sq / 6.0 + theta_sq * theta_sq / 120.0
        b = 0.5 - theta_sq / 24.0 + theta_sq * theta_sq / 720.0
    else:
        theta = np.sqrt(theta_sq)
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta_sq
    return np.eye(3) + a * k + b * (k @ k)


def quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (qx, qy, qz, qw) from a rotation matrix (Shepperd's method)."""
    r = np.asarray(r, dtype=np.float64)
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        qw = 0.25 * s
        qx = (r[2, 1] - r[1, 2]) / s
        qy = (r[0, 2] - r[2, 0]) / s
        qz = (r[1, 0] - r[0, 1]) / s
    else:
        i = int(np.argmax(np.diag(r)))
        if i == 0:
            s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
            qx, qy, qz = 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s
            qw = (r[2, 1] - r[1, 2]) / s
        elif i == 1:
            s = np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
            qx, qy, qz = (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s
            qw = (r[0, 2] - r[2, 0]) / s
        else:
            s = np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
            qx, qy, qz = (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s
            qw = (r[1, 0] - r[0, 1]) / s
    q = np.array([qx, qy, qz, qw])
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
    return Pose(so3_exp(v[3:]), v[:3], validate=False)


def pose_distance(a: Pose, b: Pose) -> tuple[float, float]:
    """(rotation error in degrees, translation error in meters) between poses."""
    rot = np.degrees(rotation_angle(a.rotation @ b.rotation.T))
    trans = float(np.linalg.norm(a.translation - b.translation))
    return rot, trans


# ---- differentiable rotation from a twist ------------------------------------------

_E0 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
_E1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
_E2 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def rotation_from_axis_angle(r: Tensor) -> Tensor:
    """Differentiable Rodrigues rotation from an axis-angle Tensor of shape (3,)."""
    theta_sq = (r * r).sum()
    if theta_sq.item() < 1e-12:
        # series in theta^2 keeps the gradient finite through the origin
        a = 1.0 - theta_sq * (1.0 / 6.0) + theta_sq * theta_sq * (1.0 / 120.0)
        b = 0.5 - theta_sq * (1.0 / 24.0) + theta_sq * theta_sq * (1.0 / 720.0)
    else:
        theta = theta_sq.sqrt()
        a = theta.sin() / theta
        b = (1.0 - theta.cos()) / theta_sq
    k = r[0] * Tensor(_E0) + r[1] * Tensor(_E1) + r[2] * Tensor(_E2)
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

    `depth` is a Tensor (differentiable path) or an ndarray. `pose` is a Pose
    or a twist Tensor of shape (6,) (differentiable). Invalid pixels are
    masked, never raised.
    """
    d = depth if isinstance(depth, Tensor) else Tensor(depth)
    r_t, t_t = pose_tensors(pose)

    u, v = pixel_grid(k)
    x = Tensor((u - k.cx) / k.fx) * d
    y = Tensor((v - k.cy) / k.fy) * d

    xt = r_t[0, 0] * x + r_t[0, 1] * y + r_t[0, 2] * d + t_t[0]
    yt = r_t[1, 0] * x + r_t[1, 1] * y + r_t[1, 2] * d + t_t[1]
    zt = r_t[2, 0] * x + r_t[2, 1] * y + r_t[2, 2] * d + t_t[2]

    front = zt.data > _VALID_EPS
    z_safe = ad.where(front, zt, 1.0)
    ut = (xt * k.fx) / z_safe + k.cx
    vt = (yt * k.fy) / z_safe + k.cy

    valid = (
        front
        & (ut.data >= -_VALID_EPS)
        & (ut.data <= k.width - 1.0 + _VALID_EPS)
        & (vt.data >= -_VALID_EPS)
        & (vt.data <= k.height - 1.0 + _VALID_EPS)
    )
    flow = ad.stack([ut, vt], axis=-1)
    return WarpResult(depth=zt, flow=flow, valid=valid)


def bilinear_sample(img: Tensor, coords: Tensor) -> Tensor:
    """Sample a (C, H, W) image at continuous (x, y) coords of shape (..., 2).

    Out-of-bounds coordinates clamp to the border (callers mask them out
    via the warp's valid set). Differentiable w.r.t. both image and coords.
    """
    img = img if isinstance(img, Tensor) else Tensor(img)
    coords = coords if isinstance(coords, Tensor) else Tensor(coords)
    _, h, w = img.shape

    x = coords[..., 0].clamp(0.0, w - 1.0)
    y = coords[..., 1].clamp(0.0, h - 1.0)
    x0 = np.clip(np.floor(x.data), 0, w - 2).astype(np.int64)
    y0 = np.clip(np.floor(y.data), 0, h - 2).astype(np.int64)
    wx = x - Tensor(x0.astype(np.float64))
    wy = y - Tensor(y0.astype(np.float64))

    v00 = ad.gather_hw(img, y0, x0)
    v01 = ad.gather_hw(img, y0, x0 + 1)
    v10 = ad.gather_hw(img, y0 + 1, x0)
    v11 = ad.gather_hw(img, y0 + 1, x0 + 1)

    top = v00 * (1.0 - wx) + v01 * wx
    bot = v10 * (1.0 - wx) + v11 * wx
    return top * (1.0 - wy) + bot * wy
