"""File IO for synthetic datasets: PPM images, PFM depth, TUM trajectories,
and a JSON pair manifest. All multi-byte binary data is little-endian."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, DepthMap, Pose, quaternion_from_rotation, rotation_from_quaternion
from .synth import FramePair, relative_pose


class DataError(ValueError):
    """Malformed or inconsistent on-disk data."""


# ---- PPM (P6, 8-bit binary) ----------------------------------------------------


def write_ppm(path, image: np.ndarray) -> None:
    """Write a (3, H, W) float image in [0, 1] as binary 8-bit P6."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise DataError("expected a (3, H, W) image")
    _, h, w = img.shape
    quantized = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.moveaxis(quantized, 0, -1).tobytes())


# magic, width, height and maxval separated by whitespace, then exactly one
# whitespace byte: the payload may itself start with whitespace byte values
_PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_ppm(path) -> np.ndarray:
    """Read binary P6 into a (3, H, W) float image in [0, 1]."""
    raw = Path(path).read_bytes()
    header = _PPM_HEADER.match(raw)
    if header is None:
        raise DataError(f"malformed PPM header in {path}")
    w, h, maxval = (int(x) for x in header.groups())
    if maxval != 255:
        raise DataError(f"only maxval 255 PPM is supported ({path})")
    pixels = np.frombuffer(raw[header.end() : header.end() + w * h * 3], dtype=np.uint8)
    if pixels.size != w * h * 3:
        raise DataError(f"PPM payload size mismatch in {path}")
    img = pixels.reshape(h, w, 3).astype(np.float64) / 255.0
    return np.moveaxis(img, -1, 0)


# ---- PFM (single channel, scale -1.0 = little-endian) ----------------------------


def write_pfm(path, values: np.ndarray) -> None:
    """Write an (H, W) array as grayscale PFM (float32, little-endian, bottom-up)."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 2:
        raise DataError("expected an (H, W) array")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(arr[::-1].astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", maxsplit=3)
    if len(parts) < 4 or parts[0] != b"Pf":
        raise DataError(f"malformed PFM header in {path}")
    try:
        w, h = (int(x) for x in parts[1].split())
        scale = float(parts[2])
    except ValueError as e:
        raise DataError(f"malformed PFM header in {path}") from e
    if w <= 0 or h <= 0:
        raise DataError(f"PFM size {w}x{h} is not positive in {path}")
    if scale >= 0:
        raise DataError("only little-endian PFM (negative scale) is supported")
    data = np.frombuffer(parts[3][: w * h * 4], dtype="<f4")
    if data.size != w * h:
        raise DataError(f"PFM payload size mismatch in {path}")
    return data.reshape(h, w)[::-1].astype(np.float64)


# ---- TUM trajectories --------------------------------------------------------------
# line format: "t tx ty tz qx qy qz qw" with a unit, w-last quaternion


def write_tum(path, poses: list[Pose]) -> None:
    """One line per pose; the timestamp is the frame index."""
    lines = []
    for i, pose in enumerate(poses):
        q = quaternion_from_rotation(pose.rotation)
        tx, ty, tz = pose.translation
        lines.append(
            f"{i:.6f} {tx:.17g} {ty:.17g} {tz:.17g} "
            f"{q[0]:.17g} {q[1]:.17g} {q[2]:.17g} {q[3]:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_tum(path) -> tuple[list[Pose], list[float]]:
    poses, stamps = [], []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 8:
            raise DataError(f"{path}:{ln}: expected 8 fields, got {len(fields)}")
        try:
            vals = [float(x) for x in fields]
        except ValueError as e:
            raise DataError(f"{path}:{ln}: non-numeric field") from e
        if not np.isfinite(vals).all():
            raise DataError(f"{path}:{ln}: non-finite field")
        q = np.array(vals[4:8])
        if abs(np.linalg.norm(q) - 1.0) > 1e-6:
            raise DataError(f"{path}:{ln}: quaternion is not unit (norm {np.linalg.norm(q):.6f})")
        poses.append(Pose(rotation_from_quaternion(q), vals[1:4]))
        stamps.append(vals[0])
    return poses, stamps


# ---- dataset manifest ----------------------------------------------------------------


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def read_manifest(path) -> dict:
    """Parse a manifest: a JSON object (NaN and Infinity refused) whose
    `frames` and `pairs` are lists of objects, with `intrinsics`."""
    try:
        manifest = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise DataError(f"cannot read manifest {path}: {e}") from e
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    for key in ("intrinsics", "frames", "pairs"):
        if key not in manifest:
            raise DataError(f"manifest {path} missing '{key}'")
    for key in ("frames", "pairs"):
        entries = manifest[key]
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise DataError(f"manifest {path}: '{key}' is not a list of objects")
    return manifest


def save_dataset(out_dir, frames, k: CameraIntrinsics, seed: int, scene_name: str) -> dict:
    """Write frames + trajectory + manifest under `out_dir`; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frame_entries = []
    for i, fr in enumerate(frames):
        img_name, depth_name = f"frame_{i:05d}.ppm", f"depth_{i:05d}.pfm"
        write_ppm(out / img_name, fr.image)
        write_pfm(out / depth_name, fr.depth)
        entry = {"image": img_name, "depth": depth_name}
        if fr.dynamic_mask.any():
            mask_name = f"dynmask_{i:05d}.pfm"
            write_pfm(out / mask_name, fr.dynamic_mask.astype(np.float64))
            entry["dynamic_mask"] = mask_name
        frame_entries.append(entry)

    write_tum(out / "trajectory.tum", [fr.cam_to_world for fr in frames])

    pairs = []
    for i in range(len(frames) - 1):
        rel = relative_pose(frames[i], frames[i + 1])
        q = quaternion_from_rotation(rel.rotation)
        pairs.append(
            {
                "a": i,
                "b": i + 1,
                "rel_pose": {
                    "translation": [float(x) for x in rel.translation],
                    "quaternion_xyzw": [float(x) for x in q],
                },
            }
        )

    manifest = {
        "intrinsics": k.to_dict(),
        "frames": frame_entries,
        "pairs": pairs,
        "trajectory": "trajectory.tum",
        "seed": seed,
        "scene": scene_name,
    }
    write_manifest(out / "manifest.json", manifest)
    return manifest


def load_pairs(dataset_dir):
    """Load a dataset directory into FramePair objects (in manifest order).

    Missing or invalid intrinsics, `frames` or `pairs` that is not a list
    of objects, a frame entry without an image or depth file name or with a
    name that is not a string, a frame file that cannot be read or whose
    size differs from the intrinsics, a depth that is not finite and
    positive, a dynamic mask that is not finite, a pair index that is not a
    frame number, or a missing or malformed relative pose raises DataError
    naming the manifest, and the file when one is at fault."""
    root = Path(dataset_dir)
    path = root / "manifest.json"
    manifest = read_manifest(path)
    try:
        k = CameraIntrinsics.from_dict(manifest["intrinsics"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"manifest {path}: invalid intrinsics ({e!r})") from e

    def read(reader, name):
        if not isinstance(name, str):
            raise DataError(f"manifest {path}: file name {name!r} is not a string")
        file = root / name
        try:
            data = reader(file)
        except (OSError, ValueError) as e:  # DataError, or DepthMap's refusal
            raise DataError(f"manifest {path}: cannot read {file}: {e}") from e
        h, w = data.shape[-2:]
        if (h, w) != (k.height, k.width):
            raise DataError(f"manifest {path}: {file} is {w}x{h} px, the intrinsics say {k.width}x{k.height}")
        return data

    def read_mask(file):
        values = read_pfm(file)
        if not np.isfinite(values).all():
            raise DataError("the dynamic mask is not finite")
        return values > 0.5

    images, depths, masks = [], [], []
    for i, entry in enumerate(manifest["frames"]):
        missing = [key for key in ("image", "depth") if key not in entry]
        if missing:
            raise DataError(f"manifest {path}: frame {i} lacks '{missing[0]}'")
        images.append(read(read_ppm, entry["image"]))
        depths.append(read(lambda file: DepthMap(read_pfm(file)), entry["depth"]))
        masks.append(read(read_mask, entry["dynamic_mask"]) if "dynamic_mask" in entry else None)
    pairs = []
    for j, p in enumerate(manifest["pairs"]):
        a, b = p.get("a"), p.get("b")
        for index in (a, b):
            # type(), not isinstance(): JSON true/false load as bool, an int subclass
            if type(index) is not int or not 0 <= index < len(images):
                raise DataError(f"manifest {path}: pair {j} index {index!r} is not a frame number")
        try:
            rel = Pose(
                rotation_from_quaternion(np.array(p["rel_pose"]["quaternion_xyzw"])),
                p["rel_pose"]["translation"],
            )
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"manifest {path}: pair {j} has no valid rel_pose ({e!r})") from e
        pairs.append(
            FramePair(
                image_a=images[a],
                image_b=images[b],
                intrinsics=k,
                gt_depth_a=depths[a],
                gt_depth_b=depths[b],
                gt_pose=rel,
                dynamic_mask_a=masks[a],
            )
        )
    return pairs, manifest
