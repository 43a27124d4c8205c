"""Which dvokit names the traced run wraps, and the per-layer metrics it
derives from the spans.

Each wrapper replaces a name where dvokit looks it up: `train.total_loss`
(not `losses.total_loss`) is what the training loop calls, class attributes
such as `nn.LayerNorm.__call__` are what instances call. Times are self
times (a span's duration minus its wrapped children), so the layer times of
one unit and `trace.other_ms` add up to the unit's wall time less the
tracer's count hooks.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter

from dvokit import autodiff, direct, formats, losses, model, nn, optim, synth, train

from tracing import Patch, Span, Tracer, self_time_by_name

UNIT_SPAN = "unit"

# Twelve of the commonest op kinds in the workloads' graphs (about 85 %
# of the nodes of a training step).
TOP_OPS = (
    "add", "mul", "matmul", "getitem", "reshape", "transpose",
    "div", "sub", "mean", "exp", "concat", "gelu",
)


def _count_tape(counts: Counter, args, tape) -> None:
    counts["autodiff.graphs"] += 1
    counts["autodiff.graph_nodes"] += len(tape.nodes)
    counts["autodiff.graph_bytes"] += sum(node.data.nbytes for node in tape.nodes)
    counts.update(f"autodiff.nodes.{node.op}" for node in tape.nodes)


def _count_tokens(counts: Counter, args, grid) -> None:
    counts["model.encode_tokens"] += grid.tokens.shape[0]


def _count_valid(counts: Counter, args, breakdown) -> None:
    counts["losses.valid_px"] += breakdown.valid_count
    counts["losses.px"] += breakdown.valid.size


def _count_params(counts: Counter, args, _) -> None:
    opt = args[0]
    counts["optim.param_count"] = max(counts["optim.param_count"], sum(p.size for _, p in opt.params))


def _count_checkpoint(counts: Counter, args, _) -> None:
    counts["model.checkpoint_write_bytes"] += os.path.getsize(args[0])


def _count_iters(counts: Counter, args, result) -> None:
    counts["direct.iters"] += result.iters


def dvokit_patches() -> list[Patch]:
    return [
        # set-up
        Patch(synth, "render", "synth.render"),
        Patch(formats, "save_dataset", "formats.save_dataset"),
        Patch(train, "load_pairs", "formats.load_pairs"),
        # network
        Patch(model.DvoModel, "encode", "model.encode", _count_tokens),
        Patch(model.DvoModel, "decode", "model.decode"),
        Patch(model.LinearDepthHead, "__call__", "model.depth_head"),
        Patch(model.DptDepthHead, "__call__", "model.depth_head"),
        Patch(model.PoseHead, "__call__", "model.pose_head"),
        Patch(model.PixelHead, "__call__", "model.pixel_head"),
        Patch(nn.SelfAttention, "__call__", "nn.attention"),
        Patch(nn.CrossAttention, "__call__", "nn.attention"),
        Patch(nn.LayerNorm, "__call__", "nn.layernorm"),
        Patch(nn.Mlp, "__call__", "nn.mlp"),
        Patch(nn.AdaptMlp, "__call__", "nn.mlp"),
        Patch(nn.Conv3x3, "__call__", "nn.conv3x3"),
        # objective
        Patch(train, "total_loss", "losses.total_loss", _count_valid),
        Patch(direct, "total_loss", "losses.total_loss", _count_valid),
        Patch(losses, "ssim", "losses.ssim"),
        Patch(losses, "warp_depth", "geometry.warp_depth"),
        Patch(direct, "warp_depth", "geometry.warp_depth"),
        Patch(losses, "bilinear_sample", "geometry.bilinear_sample"),
        # gradients and updates
        Patch(autodiff, "backward", "autodiff.backward"),
        Patch(autodiff.Tape, "trace", "autodiff.backward", _count_tape),
        Patch(optim.AdamW, "step", "optim.step", _count_params),
        # training loop, evaluation, direct route
        Patch(train, "batch_gradients", "train.batch_gradients"),
        Patch(train, "save_checkpoint", "model.checkpoint_write", _count_checkpoint),
        Patch(train, "evaluate_depth", "evaluation.evaluate_depth"),
        Patch(train, "depth_metrics", "evaluation.depth_metrics"),
        Patch(direct, "optimize_direct", "direct.optimize", _count_iters),
    ]


# Metric name -> (unit, better). Times are ms per unit of the workload's
# main route, set-up figures are per set-up, graph figures are per backward
# call; README.md has the full table.
PER_LAYER: dict[str, tuple[str, str]] = {
    "synth.render_calls": ("count", "lower"),
    "synth.render_ms": ("ms", "lower"),
    "formats.save_dataset_ms": ("ms", "lower"),
    "formats.load_pairs_ms": ("ms", "lower"),
    "formats.dataset_bytes": ("bytes", "lower"),
    "model.encode_ms": ("ms", "lower"),
    "model.encode_calls": ("count", "lower"),
    "model.encode_tokens": ("count", "lower"),
    "model.decode_ms": ("ms", "lower"),
    "model.depth_head_ms": ("ms", "lower"),
    "model.pose_head_ms": ("ms", "lower"),
    "model.pixel_head_ms": ("ms", "lower"),
    "model.checkpoint_write_ms": ("ms", "lower"),
    "model.checkpoint_write_bytes": ("bytes", "lower"),
    "nn.attention_ms": ("ms", "lower"),
    "nn.layernorm_ms": ("ms", "lower"),
    "nn.mlp_ms": ("ms", "lower"),
    "nn.conv3x3_ms": ("ms", "lower"),
    "geometry.warp_depth_ms": ("ms", "lower"),
    "geometry.bilinear_sample_ms": ("ms", "lower"),
    "losses.total_loss_ms": ("ms", "lower"),
    "losses.ssim_ms": ("ms", "lower"),
    "losses.valid_fraction": ("ratio", "higher"),
    "autodiff.backward_ms": ("ms", "lower"),
    "autodiff.graph_nodes": ("count", "lower"),
    "autodiff.graph_bytes": ("bytes", "lower"),
    **{f"autodiff.nodes.{op}": ("count", "lower") for op in TOP_OPS},
    "optim.step_ms": ("ms", "lower"),
    "optim.param_count": ("count", "lower"),
    "train.batch_gradients_ms": ("ms", "lower"),
    "train.step_ms_p50": ("ms", "lower"),
    "train.step_ms_tail": ("ms", "lower"),
    "train.step_samples": ("count", "higher"),
    "evaluation.evaluate_depth_ms": ("ms", "lower"),
    "evaluation.depth_metrics_ms": ("ms", "lower"),
    "direct.iter_ms": ("ms", "lower"),
    "trace.unit_ms": ("ms", "lower"),
    "trace.other_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}

_SETUP_TIMES = ("synth.render", "formats.save_dataset", "formats.load_pairs")
_UNIT_TIMES = (
    "model.encode", "model.decode", "model.depth_head", "model.pose_head", "model.pixel_head",
    "model.checkpoint_write", "nn.attention", "nn.layernorm", "nn.mlp", "nn.conv3x3",
    "geometry.warp_depth", "geometry.bilinear_sample", "losses.total_loss", "losses.ssim",
    "autodiff.backward", "optim.step", "train.batch_gradients",
    "evaluation.evaluate_depth", "evaluation.depth_metrics",
)


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile above the median with at least ten of
    `n` samples beyond it, or None when there is none."""
    p = 100 * (n - 10) // n if n > 0 else 0
    return p if p > 50 else None


def step_times_ms(spans: list[Span]) -> list[float]:
    """One training step: from a batch_gradients call to the end of the
    optimizer step that applies it."""
    steps = [s for s in spans if s.name == "optim.step"]
    out = []
    for grads in (s for s in spans if s.name == "train.batch_gradients"):
        after = next((s for s in steps if s.start >= grads.end), None)
        if after is not None:
            out.append(1e3 * (after.end - grads.start))
    return out


def layer_metrics(setup: Tracer, units: Tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced set-up and the traced units."""
    n_units = sum(1 for s in units.spans if s.name == UNIT_SPAN)
    setup_self = self_time_by_name(setup.spans)
    unit_self = self_time_by_name(units.spans)
    counts = units.counts
    span_count = Counter(s.name for s in units.spans)

    out: dict[str, float] = {
        "synth.render_calls": sum(1 for s in setup.spans if s.name == "synth.render"),
        "formats.dataset_bytes": setup.counts["formats.dataset_bytes"],
    }
    for name in _SETUP_TIMES:
        out[f"{name}_ms"] = 1e3 * setup_self[name]
    for name in _UNIT_TIMES:
        out[f"{name}_ms"] = 1e3 * unit_self[name] / n_units
    out["model.encode_calls"] = span_count["model.encode"] / n_units
    out["model.encode_tokens"] = counts["model.encode_tokens"] / n_units
    writes = span_count["model.checkpoint_write"]
    out["model.checkpoint_write_bytes"] = counts["model.checkpoint_write_bytes"] / writes if writes else 0
    out["losses.valid_fraction"] = counts["losses.valid_px"] / counts["losses.px"] if counts["losses.px"] else 0.0

    graphs = counts["autodiff.graphs"]
    for key in ("autodiff.graph_nodes", "autodiff.graph_bytes", *(f"autodiff.nodes.{op}" for op in TOP_OPS)):
        out[key] = counts[key] / graphs if graphs else 0
    out["optim.param_count"] = counts["optim.param_count"]

    steps = sorted(step_times_ms(units.spans))
    out["train.step_samples"] = len(steps)
    if steps:
        out["train.step_ms_p50"] = statistics.median(steps)
        p = tail_percentile(len(steps))
        out["train.step_ms_tail"] = steps[-1] if p is None else statistics.quantiles(steps, n=100)[p - 1]
    else:
        out["train.step_ms_p50"] = out["train.step_ms_tail"] = 0.0

    optimize = [s for s in units.spans if s.name == "direct.optimize"]
    iters = counts["direct.iters"]
    out["direct.iter_ms"] = 1e3 * sum(s.end - s.start for s in optimize) / iters if iters else 0.0

    unit_walls = [s.end - s.start for s in units.spans if s.name == UNIT_SPAN]
    out["trace.unit_ms"] = 1e3 * statistics.median(unit_walls)
    out["trace.other_ms"] = 1e3 * unit_self[UNIT_SPAN] / n_units
    out["trace.overhead_ms"] = 1e3 * overhead_s
    return out
