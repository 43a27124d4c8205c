"""Two-frame transformer for depth and relative pose, with a masked
cross-view completion pretraining objective.

A shared encoder embeds both frames; a cross-attention decoder processes the
target frame against the reference frame. Depth comes from either a per-token
linear head or a multi-scale fusion (DPT-style) head tapping four decoder
blocks; the relative pose comes from a 2-layer MLP on the two frames'
concatenated encoder tokens, per patch, then mean-pooled. Adapter
bottlenecks can be enabled in every block's MLP for frozen-backbone
finetuning.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .formats import DataError


# Fixed recipe: 8 px patches, 4 attention heads in every block, and CroCo's
# 90 % patch mask for cross-view completion (arXiv 2210.10716).
PATCH = 8
HEADS = 4
MASK_RATIO = 0.9


@dataclass
class ModelConfig:
    enc_dim: int = 64
    enc_depth: int = 4
    dec_dim: int = 48
    dec_depth: int = 4
    adapter_dim: int = 16
    head_kind: str = "linear"  # linear | dpt
    min_depth: float = 0.1
    max_depth: float = 10.0

    def __post_init__(self):
        if self.enc_dim % HEADS or self.dec_dim % HEADS:
            raise ValueError(f"model dims must be divisible by the head count {HEADS}")
        if not 0 < self.min_depth < self.max_depth:
            raise ValueError("need 0 < min_depth < max_depth")
        if self.head_kind not in ("linear", "dpt"):
            raise ValueError("head_kind must be 'linear' or 'dpt'")

    def to_dict(self) -> dict:
        return asdict(self)


def toy_config(**overrides) -> ModelConfig:
    """Desk-scale default: trains in minutes on synthetic pairs."""
    return ModelConfig(**overrides)


@dataclass
class TokenGrid:
    """Per-patch features (..., N, D) plus the grid geometry they came from.

    `keep` (..., K) lists the retained token positions when the frame was
    partially masked (pretraining), per pair (``ad.row_index``); None means
    all rows*cols tokens are present.
    """

    tokens: Tensor
    rows: int
    cols: int
    keep: np.ndarray | None = None


# ---- patch plumbing ---------------------------------------------------------------


def patchify(image: Tensor) -> Tensor:
    """(..., 3, H, W) -> (..., N, PATCH*PATCH*3), rows-major patch order."""
    *lead, c, h, w = image.shape
    nl = len(lead)
    gh, gw = h // PATCH, w // PATCH
    x = image.reshape(*lead, c, gh, PATCH, gw, PATCH)
    x = x.transpose(*range(nl), nl + 1, nl + 3, nl + 2, nl + 4, nl)
    return x.reshape(*lead, gh * gw, PATCH * PATCH * c)


def unpatchify_map(tokens: Tensor, rows: int, cols: int) -> Tensor:
    """(..., N, PATCH*PATCH) -> (..., H, W)."""
    lead = tokens.shape[:-2]
    nl = len(lead)
    x = tokens.reshape(*lead, rows, cols, PATCH, PATCH)
    x = x.transpose(*range(nl), nl, nl + 2, nl + 1, nl + 3)
    return x.reshape(*lead, rows * PATCH, cols * PATCH)


def _swap_last(x: Tensor) -> Tensor:
    """Swap the last two axes of a tensor of any rank."""
    lead = tuple(range(x.ndim - 2))
    return x.transpose(*lead, x.ndim - 1, x.ndim - 2)


def depth_from_raw(x: Tensor, min_depth: float, max_depth: float) -> Tensor:
    """Sigmoid-bounded inverse depth: outputs always in [min_depth, max_depth].
    A saturated sigmoid can round just past a bound (float32 0.29999998 at
    min_depth 0.3), so the map is clipped to the values of x's dtype that
    lie inside the bounds."""
    inv_lo, inv_hi = 1.0 / max_depth, 1.0 / min_depth
    dtype = x.data.dtype.type
    lo, hi = float(dtype(min_depth)), float(dtype(max_depth))
    lo = lo if lo >= min_depth else float(np.nextafter(dtype(lo), dtype(np.inf)))
    hi = hi if hi <= max_depth else float(np.nextafter(dtype(hi), dtype(-np.inf)))
    return (1.0 / (inv_lo + x.sigmoid() * (inv_hi - inv_lo))).clip(lo, hi)


# ---- heads ----------------------------------------------------------------------------


class LinearDepthHead(nn.Module):
    """Per-token inverse-depth regression through a 128-wide hidden layer."""

    def __init__(self, cfg: ModelConfig, rng):
        self.norm = nn.LayerNorm(cfg.dec_dim)
        self.fc1 = nn.Linear(cfg.dec_dim, 128, rng)
        self.fc2 = nn.Linear(128, PATCH**2, rng)
        self._cfg = cfg

    def __call__(self, blocks: list[Tensor], rows: int, cols: int) -> Tensor:
        raw = ad.gelu_linear(self.fc1(self.norm(blocks[-1])), self.fc2.weight, self.fc2.bias)
        grid = unpatchify_map(raw, rows, cols)
        return depth_from_raw(grid, self._cfg.min_depth, self._cfg.max_depth)


class DptDepthHead(nn.Module):
    """Multi-scale fusion head tapping four decoder blocks.

    Of D decoder blocks it taps blocks ceil(k*D/4) for k = 1..4, the rule
    by which DPT (arXiv 2103.13413) taps blocks 3, 6, 9 and 12 of ViT-B's
    12: (1, 2, 3, 4) at D = 4, (1, 1, 2, 2) at D = 2.

    Each tapped block's tokens are projected to a common width (DPT's
    reassemble, a 1x1 projection of each token) and reshaped to a 2D map,
    resized to {4, 2, 1, 1/2} x the token grid (shallow taps get the higher
    resolutions), fused coarse-to-fine with residual 3x3 conv units and 2x
    nearest upsampling, then upsampled x2 to full image resolution by
    `head_conv`, a 3x3 conv to 128 channels, GELU and `head_out`, the 1x1
    projection to one channel: one ``ad.conv3x3_up2_gelu_linear`` node,
    which convolves the coarse map polyphase and takes one output phase at
    a time through GELU and the projection, so the 128-channel map is
    never formed at full resolution.
    """

    def __init__(self, cfg: ModelConfig, rng):
        width = cfg.dec_dim
        self.norms = nn.ModuleList([nn.LayerNorm(cfg.dec_dim) for _ in range(4)])
        self.projs = nn.ModuleList([nn.Linear(cfg.dec_dim, width, rng) for _ in range(4)])
        self.fuse = nn.ModuleList([nn.ResidualConvUnit(width, rng) for _ in range(4)])
        self.head_conv = nn.Conv3x3(width, 128, rng)
        self.head_out = nn.Linear(128, 1, rng)
        self._cfg = cfg
        self._taps = [math.ceil(k * cfg.dec_depth / 4) for k in range(1, 5)]

    def _reassemble(self, tokens: Tensor, rows: int, cols: int, tap_pos: int) -> Tensor:
        projected = self.projs[tap_pos](self.norms[tap_pos](tokens))
        fmap = _swap_last(projected).reshape(*tokens.shape[:-2], self._cfg.dec_dim, rows, cols)
        scale = (4, 2, 1, 0)[tap_pos]  # 0 marks the 1/2 downsample
        if scale == 0:
            return fmap[..., ::2, ::2]
        if scale == 1:
            return fmap
        return ad.upsample_nearest(fmap, scale)

    def __call__(self, blocks: list[Tensor], rows: int, cols: int) -> Tensor:
        if rows % 2 or cols % 2:
            raise ValueError("dpt head needs an even token grid")
        taps = [blocks[i - 1] for i in self._taps]
        feats = [self._reassemble(t, rows, cols, i) for i, t in enumerate(taps)]
        x = self.fuse[3](feats[3])
        x = self.fuse[2](ad.upsample_nearest(x, 2) + feats[2])
        x = self.fuse[1](ad.upsample_nearest(x, 2) + feats[1])
        x = self.fuse[0](ad.upsample_nearest(x, 2) + feats[0])
        # the fused map has 4 px per token, half of PATCH = 8: one x2 step left
        head = (self.head_conv.weight, self.head_conv.bias, self.head_out.weight, self.head_out.bias)
        return depth_from_raw(ad.conv3x3_up2_gelu_linear(x, *head), self._cfg.min_depth, self._cfg.max_depth)


class PoseHead(nn.Module):
    """2-layer MLP on the two frames' concatenated encoder tokens, per
    patch, then mean-pooled.

    Both layers act per patch pair (so local correspondence information
    survives), and the twist is their mean over patches, which is the
    final layer applied to the mean-pooled hidden layer, as that layer is
    affine. It starts at zero with a 0.01 output scale so training begins
    at the identity pose. Tokens (..., N, D) of both frames give twists
    (..., 6).
    """

    def __init__(self, cfg: ModelConfig, rng):
        self.fc1 = nn.Linear(2 * cfg.enc_dim, 128, rng)
        self.fc2 = nn.Linear(128, 6, rng, zero=True)

    def __call__(self, tokens_a: Tensor, tokens_b: Tensor) -> Tensor:
        if tokens_a.shape != tokens_b.shape:
            raise ValueError("token grids of both frames must match")
        hidden = self.fc1(ad.concat([tokens_a, tokens_b], axis=-1))
        return ad.gelu_linear(hidden, self.fc2.weight, self.fc2.bias).mean(axis=-2) * 0.01


class PixelHead(nn.Module):
    """Per-token pixel regression used by the completion pretraining."""

    def __init__(self, cfg: ModelConfig, rng):
        self.norm = nn.LayerNorm(cfg.dec_dim)
        self.fc1 = nn.Linear(cfg.dec_dim, 128, rng)
        self.fc2 = nn.Linear(128, PATCH**2 * 3, rng)

    def __call__(self, tokens: Tensor) -> Tensor:
        return ad.gelu_linear(self.fc1(self.norm(tokens)), self.fc2.weight, self.fc2.bias)


# ---- the model -------------------------------------------------------------------------


class DvoModel(nn.Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.patch_embed = nn.Linear(PATCH * PATCH * 3, cfg.enc_dim, rng)
        self.enc_blocks = nn.ModuleList(
            [nn.EncoderBlock(cfg.enc_dim, HEADS, rng, cfg.adapter_dim) for _ in range(cfg.enc_depth)]
        )
        self.enc_norm = nn.LayerNorm(cfg.enc_dim)
        self.dec_proj = nn.Linear(cfg.enc_dim, cfg.dec_dim, rng)
        self.mask_token = ad.parameter(nn._init(rng, (cfg.dec_dim,)))
        self.dec_blocks = nn.ModuleList(
            [nn.DecoderBlock(cfg.dec_dim, HEADS, rng, cfg.adapter_dim) for _ in range(cfg.dec_depth)]
        )
        self.depth_head = (
            DptDepthHead(cfg, rng) if cfg.head_kind == "dpt" else LinearDepthHead(cfg, rng)
        )
        self.pose_head = PoseHead(cfg, rng)
        self.pixel_head = PixelHead(cfg, rng)

    # `cfg` is an attribute but not a parameter: named_parameters skips
    # non-Tensor, non-Module values.

    def grid_shape(self, image_shape) -> tuple[int, int]:
        h, w = image_shape[-2:]
        if h % PATCH or w % PATCH:
            raise ValueError(f"image dims {h}x{w} not divisible by patch size {PATCH}")
        return h // PATCH, w // PATCH

    def encode(self, image, keep: np.ndarray | None = None) -> TokenGrid:
        """Patch-embed + positional encoding + encoder blocks.

        `image` is (..., 3, H, W), an array taken in the parameters' dtype
        (float32) or a Tensor; the tokens are (..., N, enc_dim). `keep`
        restricts processing to the listed token positions (masked
        pretraining; a (..., K) index of axis -2, one row per pair, see
        ``ad.row_index``); position encodings are applied per grid position
        before subsetting, so kept tokens are encoded identically either way.
        """
        img = image if isinstance(image, Tensor) else Tensor(np.asarray(image, self.patch_embed.weight.data.dtype))
        rows, cols = self.grid_shape(img.shape)
        x = self.patch_embed(patchify(img))
        x = x + Tensor(nn.posemb_2d(rows, cols, self.cfg.enc_dim, x.data.dtype))
        if keep is not None:
            keep = np.asarray(keep, dtype=np.int64)
            if keep.shape[-1] == rows * cols:
                keep = None  # keeping everything is the unmasked path
            else:
                x = x[ad.row_index(keep)]
        for block in self.enc_blocks:
            x = block(x)
        return TokenGrid(tokens=self.enc_norm(x), rows=rows, cols=cols, keep=keep)

    def decode(self, tgt: TokenGrid, ref: TokenGrid) -> list[Tensor]:
        """Run decoder blocks on the target tokens with cross-attention to the
        reference tokens; returns every block's output so heads can tap
        intermediate depths. Masked target positions are filled with the
        learnable mask token. Both grids may carry the same leading axes."""
        x = self.dec_proj(tgt.tokens)
        n_full = tgt.rows * tgt.cols
        if tgt.keep is not None:
            lead = tgt.tokens.shape[:-2]
            base = self.mask_token.reshape(1, -1) * Tensor(np.ones((*lead, n_full, 1), self.mask_token.data.dtype))
            x = ad.row_scatter(base, tgt.keep, x)
        x = x + Tensor(nn.posemb_2d(tgt.rows, tgt.cols, self.cfg.dec_dim, x.data.dtype))
        y = self.dec_proj(ref.tokens) + Tensor(nn.posemb_2d(ref.rows, ref.cols, self.cfg.dec_dim, x.data.dtype))
        outs = []
        for block in self.dec_blocks:
            x = block(x, y)
            outs.append(x)
        return outs

    def depth(self, tgt: TokenGrid, ref: TokenGrid) -> Tensor:
        """Depth map (..., H, W) of the target frame, decoded with the
        reference frame."""
        return self.depth_head(self.decode(tgt, ref), tgt.rows, tgt.cols)


def forward_dvo(model: DvoModel, image_a, image_b) -> tuple[Tensor, Tensor, Tensor]:
    """Depth maps for both frames plus the twist taking frame a to frame b.

    Images (..., 3, H, W) give depths (..., H, W) and twists (..., 6): any
    leading axes index pairs. The shared encoder runs once over all the
    frames, each pair's two stacked on axis -4; the decoder and depth head
    then run once, each frame decoding with its partner as reference; the
    pose head reads both frames' encoder tokens. Every pair's values are
    the same, bit for bit, as its own forward's: each op works per frame
    (numpy runs one GEMM per matrix), so only gradients summed over pairs,
    such as a weight's, round differently.
    """
    grids = model.encode(np.stack([image_a, image_b], axis=-4))
    tokens = grids.tokens
    depth = model.depth(grids, replace(grids, tokens=tokens[..., ::-1, :, :]))
    twist = model.pose_head(tokens[..., 0, :, :], tokens[..., 1, :, :])
    return depth[..., 0, :, :], depth[..., 1, :, :], twist


# ---- masked cross-view completion pretraining -------------------------------------------


def normalized_patch_targets(image) -> np.ndarray:
    """Per-patch pixel targets (..., N, PATCH*PATCH*3) of images (..., 3, H, W),
    normalized to zero mean / unit variance."""
    img = image if isinstance(image, Tensor) else Tensor(image)
    flat = patchify(img).data
    mu = flat.mean(axis=-1, keepdims=True)
    var = flat.var(axis=-1, keepdims=True)
    return (flat - mu) / np.sqrt(var + 1e-6)


def masked_patch_mse(pred: Tensor, targets: np.ndarray, masked: np.ndarray) -> Tensor:
    """Mean squared error over masked patches only, per pair: `masked`
    (..., M) picks rows of `pred` and `targets` (..., N, d) as
    ``ad.row_index`` does, giving errors (...)."""
    at = ad.row_index(masked)
    return ((pred[at] - Tensor(targets[at])) ** 2.0).mean(axis=(-2, -1))


def sample_mask(n_tokens: int, mask_ratio: float, rng: np.random.Generator):
    """Uniformly random masked/kept index split; errors on degenerate covers."""
    n_mask = math.ceil(mask_ratio * n_tokens)
    if n_mask <= 0 or n_mask >= n_tokens:
        raise ValueError("mask covers all or no tokens")
    perm = rng.permutation(n_tokens)
    return np.sort(perm[:n_mask]), np.sort(perm[n_mask:])


def completion_loss(model: DvoModel, image_a, image_b, masked: np.ndarray, keep: np.ndarray) -> Tensor:
    """Reconstruction loss: predict the pixels of the `masked` frame-a patches
    from the `keep` patches plus the fully visible second frame.

    Images (..., 3, H, W) with per-pair indices `masked` (..., M) and `keep`
    (..., K) give losses (...): any leading axes index pairs, which share
    one encoder call per frame, one decoder and one pixel-head call. Each
    pair's loss is the same, bit for bit, as its own forward's, as in
    ``forward_dvo``."""
    grid_a = model.encode(image_a, keep=keep)
    grid_b = model.encode(image_b)
    blocks = model.decode(grid_a, grid_b)
    pred = model.pixel_head(blocks[-1])
    targets = normalized_patch_targets(image_a)
    return masked_patch_mse(pred, targets, masked)


def pretrain_step(model: DvoModel, image_a, image_b, rng: np.random.Generator) -> Tensor:
    """Completion losses (...) of images (..., 3, H, W), each pair's under
    its own mask drawn from `rng` at MASK_RATIO, in pair (C) order, so a
    batch draws the masks its pairs draw one by one."""
    rows, cols = model.grid_shape(image_a.shape)
    lead = image_a.shape[:-3]
    draws = [sample_mask(rows * cols, MASK_RATIO, rng) for _ in range(math.prod(lead))]
    masked, keep = (np.stack(part).reshape(*lead, -1) for part in zip(*draws))
    return completion_loss(model, image_a, image_b, masked, keep)


# ---- adapters / freezing / state ------------------------------------------------------

_HEAD_PREFIXES = ("depth_head.", "pose_head.")


def _is_adapter(name: str) -> bool:
    return ".adapter_down." in name or ".adapter_up." in name


def freeze_for_adapters(model: DvoModel) -> int:
    """Mark everything except adapter branches and the depth and pose heads
    non-trainable.

    Returns the number of frozen parameter tensors."""
    if model.cfg.adapter_dim <= 0:
        raise ValueError("adapters disabled in this config")
    frozen = 0
    for name, param in model.named_parameters():
        trainable = _is_adapter(name) or name.startswith(_HEAD_PREFIXES)
        param.requires_grad = trainable
        frozen += not trainable
    return frozen


def model_state(model: DvoModel) -> dict[str, np.ndarray]:
    return {name: param.data.copy() for name, param in model.named_parameters()}


# ---- checkpoint file format ----------------------------------------------------------------
# magic "DVOC", u32 version, u32 json length + UTF-8 JSON config, then blobs
# (u32 name length, name, u32 item size, u32 rank, u32 extents…, then the
# data: little-endian f4 for item size 4, f8 for 8) ordered lexicographically
# by name, then a footer: end magic "DVOE" and the u32 blob count, so a file
# cut between two blobs does not load. All integers little-endian.

_MAGIC = b"DVOC"
_END_MAGIC = b"DVOE"
_VERSION = 3


# Per `os.writev` call: at most Linux's IOV_MAX buffers, ending with the
# buffer that reaches 1 MiB. With fresh checkpoints' data still dirty in the
# page cache, a 10.7 MB checkpoint took 3.0 ms in ~1 MiB calls and 10.4 ms
# in one call, which the kernel throttles as a whole (median of 20).
_IOV_MAX, _CALL_BYTES = 1024, 1 << 20


def _write_buffers(fd: int, buffers: list) -> None:
    """Write `buffers` to `fd` in order, in `os.writev` calls; a short
    write resumes where it stopped."""
    views = [memoryview(b).cast("B") for b in buffers]
    i = 0
    while i < len(views):
        end, size = i, 0
        while end < len(views) and end - i < _IOV_MAX and size < _CALL_BYTES:
            size += views[end].nbytes
            end += 1
        n = os.writev(fd, views[i:end])
        while i < len(views) and n >= views[i].nbytes:
            n -= views[i].nbytes
            i += 1
        if n:
            views[i] = views[i][n:]


def atomic_write(path, buffers: list) -> None:
    """Write `buffers` (at least one byte: `posix_fallocate` refuses a zero
    length) to a sibling `.tmp` file, then rename it over `path`, so a
    process that dies mid-write leaves `path` whole and as it was; an error
    removes the `.tmp`. Nothing is fsynced: a power loss may still lose
    or cut the file. The blocks are allocated before any data is written, so
    a failure such as ENOSPC raises first, and ext4 has no delayed allocation
    to flush when the rename replaces an existing file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb", buffering=0) as f:
            if fallocate := getattr(os, "posix_fallocate", None):  # not on macOS or Windows
                fallocate(f.fileno(), 0, sum(memoryview(b).nbytes for b in buffers))
            _write_buffers(f.fileno(), buffers)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def save_checkpoint(path, arrays: dict[str, np.ndarray], config: dict) -> None:
    """Write the checkpoint through `atomic_write`, whose contract it keeps:
    it survives a crash of the process, not a power loss. Float32 arrays,
    such as the network's, are stored as f4, written straight from their
    memory where it is contiguous and little-endian; every other array is
    stored as f8, widened first where it is not float64."""
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    buffers = [_MAGIC + struct.pack("<II", _VERSION, len(blob)) + blob]
    for name in sorted(arrays):
        data = np.asarray(arrays[name])
        data = np.asarray(data, order="C", dtype="<f4" if data.dtype.kind == "f" and data.itemsize == 4 else "<f8")
        encoded = name.encode("utf-8")
        shape = struct.pack(f"<{data.ndim + 2}I", data.itemsize, data.ndim, *data.shape)
        buffers.append(struct.pack("<I", len(encoded)) + encoded + shape)
        buffers.append(data.reshape(-1))  # a view: numpy's export record dies with it, not with a live array
    buffers.append(_END_MAGIC + struct.pack("<I", len(arrays)))
    atomic_write(path, buffers)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(config, arrays by name), each array in its stored dtype, float32 or
    float64. A malformed or truncated file, or one of another version,
    raises DataError naming `path`. Each array is read once, straight into
    its own buffer."""
    with open(path, "rb") as f:
        size = end = f.seek(0, os.SEEK_END)
        offset = f.seek(0)

        def take(n: int) -> int:  # n, once the n bytes from offset are known to be there
            nonlocal offset
            if offset + n > end:
                raise DataError(f"checkpoint {path} is truncated ({size} bytes)")
            offset += n
            return n

        def u32(count: int = 1) -> tuple[int, ...]:
            return struct.unpack(f"<{count}I", f.read(take(4 * count)))

        if f.read(take(4)) != _MAGIC:
            raise DataError(f"{path} is not a checkpoint (bad magic)")
        (version,) = u32()
        if version != _VERSION:
            raise DataError(f"unsupported checkpoint version {version} in {path}")
        end -= 8
        f.seek(max(end, offset))
        footer = f.read(8)
        if end < offset or footer[:4] != _END_MAGIC:
            raise DataError(f"checkpoint {path} is truncated ({size} bytes): no end marker")
        (count,) = struct.unpack("<I", footer[4:])
        f.seek(offset)
        try:
            config = json.loads(f.read(take(u32()[0])).decode("utf-8"))
            arrays: dict[str, np.ndarray] = {}
            while offset < end:
                name = f.read(take(u32()[0])).decode("utf-8")
                (itemsize,) = u32()
                if itemsize not in (4, 8):
                    raise DataError(f"malformed checkpoint {path}: array '{name}' has item size {itemsize}, not 4 or 8")
                shape = u32(u32()[0])
                take(itemsize * math.prod(shape))  # before allocating: a malformed shape can be huge
                try:  # a zero extent passes `take` beside extents whose product overflows
                    arrays[name] = np.empty(shape, dtype=f"<f{itemsize}")
                except ValueError as e:
                    raise DataError(f"malformed checkpoint {path}: array '{name}' of shape {shape}: {e}") from e
                f.readinto(arrays[name])
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"malformed checkpoint {path}: {e}") from e
    if len(arrays) != count:
        raise DataError(f"checkpoint {path} holds {len(arrays)} arrays, its footer says {count}")
    return config, arrays
