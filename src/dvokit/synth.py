"""Synthetic closed-room scenes with exact ground truth.

Scenes are raycast (no rasterization) so depth is exact per pixel, which the
loss-consistency oracles rely on. Geometry is a textured axis-aligned room
interior plus optional static boxes and one optional moving box (per-frame
translation). Albedo comes from seeded multi-octave value noise, so renders
are bit-identical given the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraIntrinsics, DepthMap, Pose, pixel_grid, warp_depth

_RAY_EPS = 1e-9


# ---- procedural texture ---------------------------------------------------------


_U64 = (1 << 64) - 1


def _hash_to_unit(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic lattice hash -> floats in [0, 1). splitmix64-style mixing."""
    salt_mix = np.uint64((salt * 0x2545F4914F6CDD1D + 0x632BE59BD9B4E019) & _U64)
    with np.errstate(over="ignore"):
        h = (
            ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ^ iy.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
            ^ iz.astype(np.uint64) * np.uint64(0x94D049BB133111EB)
            ^ salt_mix
        )
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _smootherstep(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _value_noise(points: np.ndarray, freq: float, salt: int) -> np.ndarray:
    """Trilinearly interpolated lattice noise in [0, 1); C2-smooth fade."""
    p = points * freq
    p0 = np.floor(p)
    f = _smootherstep(p - p0)
    i0 = p0.astype(np.int64)
    ix, iy, iz = i0[..., 0], i0[..., 1], i0[..., 2]

    def corner(dx, dy, dz):
        return _hash_to_unit(ix + dx, iy + dy, iz + dz, salt)

    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    c00 = corner(0, 0, 0) * (1 - fx) + corner(1, 0, 0) * fx
    c10 = corner(0, 1, 0) * (1 - fx) + corner(1, 1, 0) * fx
    c01 = corner(0, 0, 1) * (1 - fx) + corner(1, 0, 1) * fx
    c11 = corner(0, 1, 1) * (1 - fx) + corner(1, 1, 1) * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def albedo(points: np.ndarray, seed: int) -> np.ndarray:
    """Lambertian albedo (..., 3) in [0.03, 0.97] from multi-octave value noise.

    Three octaves from 0.2 cycles/m, each twice the frequency and half the
    amplitude of the last. Texture smoothness trades photometric signal
    against bilinear resampling error: at these values the photometric loss
    at ground truth stays below 1e-3 at 32 px (5.1e-4 on the static pair of
    `test_total_loss_ground_truth_inputs_near_zero`, which bounds it) while
    leaving usable gradients.
    """
    octaves, base_freq, gain = 3, 0.2, 0.5
    out = np.zeros(points.shape[:-1] + (3,))
    for ch in range(3):
        total, amp, freq, norm = 0.0, 1.0, base_freq, 0.0
        for oc in range(octaves):
            total = total + amp * _value_noise(points, freq, seed * 7919 + ch * 131 + oc * 17)
            norm += amp
            amp *= gain
            freq *= 2.0
        out[..., ch] = total / norm
    return 0.03 + 0.94 * out


# ---- scene geometry ----------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by opposite corners (world meters)."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def arrays(self):
        return np.asarray(self.lo, dtype=np.float64), np.asarray(self.hi, dtype=np.float64)


@dataclass(frozen=True)
class MovingBox:
    """A box translating rigidly by `velocity` (m/frame); rotation-free motion."""

    box: Box
    velocity: tuple[float, float, float]

    def at_frame(self, frame: int) -> Box:
        off = np.asarray(self.velocity) * frame
        lo, hi = self.box.arrays()
        return Box(tuple(lo + off), tuple(hi + off))


@dataclass
class Scene:
    """Closed textured scene: every camera ray hits geometry.

    `room` is the enclosing interior box; `boxes` are static obstacles; the
    optional `moving` box gets its own per-frame translation (it exists so the
    self-discovered mask has signal).
    """

    room: Box
    boxes: list[Box] = field(default_factory=list)
    moving: MovingBox | None = None
    texture_seed: int = 0

    def geometry_at(self, frame: int) -> list[Box]:
        geo = list(self.boxes)
        if self.moving is not None:
            geo.append(self.moving.at_frame(frame))
        return geo

    def moving_index(self) -> int | None:
        """Index (into raycast object ids) of the moving box, if any."""
        if self.moving is None:
            return None
        return 1 + len(self.boxes)  # 0 is the room shell


def _ray_room_exit(origins: np.ndarray, dirs: np.ndarray, room: Box) -> np.ndarray:
    """Distance to the room shell for rays starting inside the room."""
    lo, hi = room.arrays()
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origins) / dirs
        t2 = (hi - origins) / dirs
    t_far = np.maximum(t1, t2)
    t_far = np.where(np.isnan(t_far), np.inf, t_far)
    return np.min(t_far, axis=-1)


def _ray_box_enter(origins: np.ndarray, dirs: np.ndarray, box: Box) -> np.ndarray:
    """Slab-test entry distance for an exterior box; inf when missed."""
    lo, hi = box.arrays()
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origins) / dirs
        t2 = (hi - origins) / dirs
    t_near = np.max(np.where(np.isnan(t1), -np.inf, np.minimum(t1, t2)), axis=-1)
    t_far = np.min(np.where(np.isnan(t2), np.inf, np.maximum(t1, t2)), axis=-1)
    hit = (t_near <= t_far) & (t_near > _RAY_EPS)
    return np.where(hit, t_near, np.inf)


def raycast(scene: Scene, frame: int, origins: np.ndarray, dirs: np.ndarray):
    """Nearest hit along each ray: returns (t, object id). Id 0 is the room."""
    t_best = _ray_room_exit(origins, dirs, scene.room)
    if np.any(~np.isfinite(t_best)):
        raise RuntimeError("ray escaped the closed scene")
    obj = np.zeros(t_best.shape, dtype=np.int64)
    for i, box in enumerate(scene.geometry_at(frame)):
        t_box = _ray_box_enter(origins, dirs, box)
        closer = t_box < t_best
        t_best = np.where(closer, t_box, t_best)
        obj = np.where(closer, i + 1, obj)
    return t_best, obj


def _cast(scene: Scene, frame: int, cam_to_world: Pose, k: CameraIntrinsics, uv: np.ndarray):
    """Raycast pixel coordinates `uv` of shape (..., 2). Returns (colors
    (3, ...), depth (...), object ids (...)).

    Ray directions keep unit z in the camera frame, so the hit parameter t is
    the camera-frame z depth directly.
    """
    dirs_cam = np.stack(
        [(uv[..., 0] - k.cx) / k.fx, (uv[..., 1] - k.cy) / k.fy, np.ones(uv.shape[:-1])], axis=-1
    )
    dirs = dirs_cam @ cam_to_world.rotation.T
    origins = np.broadcast_to(cam_to_world.translation, dirs.shape)
    t, obj = raycast(scene, frame, origins, dirs)
    hits = origins + dirs * t[..., None]
    colors = albedo(hits, scene.texture_seed)
    return np.moveaxis(colors, -1, 0), t, obj


def render(scene: Scene, frame: int, cam_to_world: Pose, k: CameraIntrinsics):
    """Raycast an image. Returns (image (3, H, W) in [0, 1], depth (H, W), dyn mask)."""
    img, t, obj = _cast(scene, frame, cam_to_world, k, np.stack(pixel_grid(k), axis=-1))
    mi = scene.moving_index()
    dyn = obj == mi if mi is not None else np.zeros(t.shape, dtype=bool)
    return img, t, dyn


def render_at(scene: Scene, frame: int, cam_to_world: Pose, k: CameraIntrinsics, uv: np.ndarray):
    """Continuous-coordinate render oracle: colors/depths at arbitrary (u, v)."""
    colors, t, _ = _cast(scene, frame, cam_to_world, k, np.asarray(uv, dtype=np.float64))
    return colors, t


# ---- frame pairs and trajectories --------------------------------------------------


@dataclass
class FramePair:
    """Two frames with intrinsics and exact ground truth.

    gt_pose maps camera-a coordinates into camera-b coordinates (the transform
    the warp consumes). Re-rendering frame b's colors at the warped coordinates
    reproduces frame a's colors on static co-visible pixels.
    """

    image_a: np.ndarray
    image_b: np.ndarray
    intrinsics: CameraIntrinsics
    gt_depth_a: DepthMap
    gt_depth_b: DepthMap
    gt_pose: Pose
    dynamic_mask_a: np.ndarray | None = None


@dataclass
class Frame:
    image: np.ndarray
    depth: np.ndarray
    dynamic_mask: np.ndarray
    cam_to_world: Pose


# A random walk adds N(0, 0.05 m) to each coordinate of a position step and
# N(0, 1.5 deg) to yaw and pitch, redrawing up to 60 times until at least
# MIN_OVERLAP of the current frame stays co-visible in the next.
_JITTER_M = 0.05
_JITTER_DEG = 1.5
_MAX_RETRIES = 60
MIN_OVERLAP = 0.6


@dataclass(frozen=True)
class MotionSpec:
    """Camera path specification for trajectory generation."""

    kind: str = "random-walk"  # static | line | random-walk
    step: tuple[float, float, float] = (0.0, 0.0, 0.08)


def default_intrinsics(size: int = 32) -> CameraIntrinsics:
    c = (size - 1) / 2.0
    return CameraIntrinsics(fx=0.9 * size, fy=0.9 * size, cx=c, cy=c, width=size, height=size)


def preset_scene(name: str, seed: int = 0) -> Scene:
    """Named scene presets used by tests and the benchmark."""
    room = Box((-3.0, -3.0, -1.5), (3.0, 3.0, 6.0))
    if name == "room":
        return Scene(room=room, texture_seed=seed)
    if name == "cluttered-room":
        return Scene(
            room=room,
            boxes=[
                Box((-1.4, -1.3, 3.0), (-0.4, -0.3, 4.0)),
                Box((0.5, 0.1, 2.4), (1.3, 1.0, 3.3)),
            ],
            texture_seed=seed,
        )
    if name == "dynamic-room":
        return Scene(
            room=room,
            boxes=[Box((-1.4, -1.3, 3.2), (-0.5, -0.4, 4.1))],
            moving=MovingBox(Box((0.3, -0.4, 2.3), (0.95, 0.3, 2.95)), velocity=(-0.16, 0.02, 0.0)),
            texture_seed=seed,
        )
    raise ValueError(f"unknown scene preset '{name}'")


def covisible_fraction(depth_a: np.ndarray, depth_b: np.ndarray, rel_pose: Pose, k: CameraIntrinsics) -> float:
    """Fraction of frame-a pixels that project validly into frame b with
    consistent depth, within 2 % of frame b's depth at the nearest pixel
    (filters occlusions)."""
    res = warp_depth(depth_a, rel_pose, k)
    d_hat, flow, valid = res.depth.data, res.flow.data, res.valid
    if valid.sum() == 0:
        return 0.0
    xs = np.clip(np.round(flow[..., 0]).astype(int), 0, k.width - 1)
    ys = np.clip(np.round(flow[..., 1]).astype(int), 0, k.height - 1)
    target = depth_b[ys, xs]
    consistent = np.abs(d_hat - target) <= 0.02 * np.maximum(target, 1e-6)
    return float((valid & consistent).sum()) / valid.size


def _camera_pose_at(position: np.ndarray, yaw: float, pitch: float) -> Pose:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    r_yaw = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    r_pitch = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    return Pose(r_yaw @ r_pitch, position, validate=False)


def generate_trajectory(
    scene: Scene,
    k: CameraIntrinsics,
    n_frames: int,
    motion: MotionSpec,
    rng: np.random.Generator,
) -> list[Frame]:
    """Render a camera path keeping consecutive co-visibility at MIN_OVERLAP
    or above."""
    if n_frames < 2 and motion.kind != "static":
        raise ValueError("need at least 2 frames")
    frames: list[Frame] = []
    pos = np.array([0.0, 0.0, 0.0])
    yaw, pitch = 0.0, 0.0
    pose = _camera_pose_at(pos, yaw, pitch)

    rendered = render(scene, 0, pose, k)
    for idx in range(n_frames):
        frames.append(Frame(*rendered, cam_to_world=pose))
        if idx == n_frames - 1:
            break
        for attempt in range(_MAX_RETRIES + 1):
            if motion.kind == "static":
                new_pos, new_yaw, new_pitch = pos, yaw, pitch
            elif motion.kind == "line":
                new_pos = pos + np.asarray(motion.step)
                new_yaw, new_pitch = yaw, pitch
            elif motion.kind == "random-walk":
                new_pos = pos + np.asarray(motion.step) + rng.normal(scale=_JITTER_M, size=3)
                new_yaw = yaw + rng.normal(scale=math.radians(_JITTER_DEG))
                new_pitch = pitch + rng.normal(scale=math.radians(_JITTER_DEG))
            else:
                raise ValueError(f"unknown motion kind '{motion.kind}'")
            new_pos = np.clip(new_pos, [-2.0, -2.0, -1.0], [2.0, 2.0, 1.6])
            cand = _camera_pose_at(new_pos, new_yaw, new_pitch)
            rel = cand.invert().compose(pose)  # current frame into next frame
            rendered = render(scene, idx + 1, cand, k)  # the next frame, if accepted
            frac = covisible_fraction(frames[-1].depth, rendered[1], rel, k)
            if frac >= MIN_OVERLAP:
                pos, yaw, pitch, pose = new_pos, new_yaw, new_pitch, cand
                break
            if motion.kind != "random-walk" or attempt == _MAX_RETRIES:
                raise RuntimeError(
                    f"co-visibility constraint unreachable at frame {idx} (got {frac:.2f})"
                )
    return frames


def relative_pose(frame_a: Frame, frame_b: Frame) -> Pose:
    """Transform taking camera-a coordinates to camera-b coordinates."""
    return frame_b.cam_to_world.invert().compose(frame_a.cam_to_world)


def make_pair(frames: list[Frame], i: int, k: CameraIntrinsics) -> FramePair:
    a, b = frames[i], frames[i + 1]
    dyn = a.dynamic_mask if a.dynamic_mask.any() else None
    return FramePair(
        image_a=a.image,
        image_b=b.image,
        intrinsics=k,
        gt_depth_a=DepthMap(a.depth),
        gt_depth_b=DepthMap(b.depth),
        gt_pose=relative_pose(a, b),
        dynamic_mask_a=dyn,
    )


def render_pair(scene: Scene, k: CameraIntrinsics, pose_a: Pose, pose_b: Pose) -> FramePair:
    """Render frames 0 and 1 of the scene at explicit camera poses as a pair."""
    frames = [Frame(*render(scene, i, pose, k), cam_to_world=pose) for i, pose in enumerate((pose_a, pose_b))]
    return make_pair(frames, 0, k)
