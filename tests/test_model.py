import errno
import os
import struct
import tracemalloc
from functools import partial
from dataclasses import replace

import numpy as np
import oracles
import pytest

from dvokit import autodiff as ad
from dvokit import nn
from dvokit.autodiff import Tensor, grads
from dvokit.losses import total_loss
from dvokit.model import (
    DptDepthHead,
    DvoModel,
    ModelConfig,
    forward_dvo,
    freeze_for_adapters,
    load_checkpoint,
    masked_patch_mse,
    model_state,
    normalized_patch_targets,
    patchify,
    pretrain_step,
    sample_mask,
    save_checkpoint,
    toy_config,
    unpatchify_map,
)
from dvokit.optim import AdamW


TINY = ModelConfig(enc_dim=32, enc_depth=2,
                   dec_dim=32, dec_depth=2, adapter_dim=8)


def _model(cfg=TINY, seed=0):
    return DvoModel(cfg, np.random.default_rng(seed))


def _image(seed=1, size=32):
    return np.random.default_rng(seed).random((3, size, size))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(enc_dim=30)
    with pytest.raises(ValueError):
        ModelConfig(min_depth=2.0, max_depth=1.0)
    with pytest.raises(ValueError):
        ModelConfig(head_kind="conv")
    cfg = toy_config()
    assert ModelConfig(**cfg.to_dict()) == cfg


def test_patchify_roundtrip():
    img = Tensor(_image())
    tokens = patchify(img)
    assert tokens.shape == (16, 192)
    # single-channel roundtrip through the map unpatchifier
    mono = Tensor(_image()[0:1])
    tok = patchify(mono)  # (16, 64)
    back = unpatchify_map(tok, 4, 4)
    assert np.array_equal(back.data, mono.data[0])


def test_encode_shapes_and_keep_identity():
    model = _model()
    img = _image()
    grid = model.encode(img)
    assert grid.tokens.shape == (16, 32)
    assert (grid.rows, grid.cols) == (4, 4)

    grid_all = model.encode(img, keep=np.arange(16))
    assert grid_all.keep is None
    assert np.array_equal(grid_all.tokens.data, grid.tokens.data)

    with pytest.raises(ValueError):
        model.encode(np.zeros((3, 30, 32)))


@pytest.mark.parametrize("keep", [None, np.array([0, 5, 6, 9, 15])], ids=["all", "kept"])
def test_a_batch_of_frames_encodes_and_decodes_like_each_frame(keep):
    model = _model()
    images = [_image(30), _image(31)]
    batched = model.encode(np.stack(images), keep=keep)
    singles = [model.encode(img, keep=keep) for img in images]
    ref = model.encode(np.stack(images[::-1]))
    blocks = model.decode(batched, ref)
    for i, single in enumerate(singles):
        expected = single.tokens.data
        assert np.abs(batched.tokens.data[i] - expected).max() <= 1e-12 * np.abs(expected).max()
        # the decoder fills masked positions with the mask token per frame
        expected = model.decode(single, model.encode(images[1 - i]))[-1].data
        assert np.abs(blocks[-1].data[i] - expected).max() <= 1e-12 * np.abs(expected).max()


def test_encode_kept_token_permutation_equivariance():
    model = oracles.float64_model(_model())
    img = _image(2)
    keep = np.array([1, 3, 7, 11, 14])
    out = model.encode(img, keep=keep).tokens.data

    # feeding a permuted keep list returns the same features, permuted
    perm = np.array([3, 0, 4, 1, 2])
    out_perm = model.encode(img, keep=keep[perm]).tokens.data
    assert np.abs(out_perm - out[perm]).max() < 1e-12


def test_decode_returns_all_blocks_and_cross_attention_is_live():
    model = _model()
    ga = model.encode(_image(3))
    gb = model.encode(_image(4))
    outs = model.decode(ga, gb)
    assert len(outs) == TINY.dec_depth

    zero_ref = type(gb)(tokens=Tensor(np.zeros_like(gb.tokens.data)), rows=gb.rows, cols=gb.cols)
    outs_zeroed = model.decode(ga, zero_ref)
    assert np.abs(outs[-1].data - outs_zeroed[-1].data).max() > 1e-9


def test_decode_gradients_reach_both_frames():
    model = _model()
    img_a, img_b = Tensor(_image(5)), Tensor(_image(6))
    ta, tb = Tensor(img_a.data, requires_grad=True), Tensor(img_b.data, requires_grad=True)
    outs = model.decode(model.encode(ta), model.encode(tb))
    loss = (outs[-1] ** 2.0).mean()
    ga, gb = grads(loss, [ta, tb])
    assert np.abs(ga).max() > 0 and np.abs(gb).max() > 0


def test_linear_depth_head_shape_and_bounds():
    model = _model()
    img = _image(7)
    d, d2, twist = forward_dvo(model, img, _image(8))
    assert d.shape == (32, 32) and d2.shape == (32, 32)
    assert twist.shape == (6,)
    for t in (d, d2):
        assert t.data.min() >= TINY.min_depth and t.data.max() <= TINY.max_depth


def test_depth_bounds_hold_for_any_parameters():
    wild = DvoModel(TINY, np.random.default_rng(9))
    for _, p in wild.named_parameters():
        p.data = p.data + np.random.default_rng(0).normal(scale=3.0, size=p.data.shape)
    d, _, _ = forward_dvo(wild, _image(10), _image(11))
    assert d.data.min() >= TINY.min_depth and d.data.max() <= TINY.max_depth


@pytest.mark.parametrize("head_kind", ["linear", "dpt"])
@pytest.mark.parametrize("bounds", [(0.1, 10.0), (0.3, 5.0)], ids=["default", "float32-rounds-past"])
@pytest.mark.parametrize("raw", [-1e3, 1e3])
def test_float32_depth_bounds_hold_at_saturation(head_kind, bounds, raw):
    # float32 rounds a saturated sigmoid's depth to 0.29999998 at min_depth
    # 0.3; the clip keeps it at the first float32 inside the bound
    cfg = replace(TINY, head_kind=head_kind, min_depth=bounds[0], max_depth=bounds[1])
    wild = DvoModel(cfg, np.random.default_rng(9))
    for _, p in wild.named_parameters():
        p.data = (p.data + np.random.default_rng(0).normal(scale=3.0, size=p.data.shape)).astype(np.float32)
    last = wild.depth_head.head_out if head_kind == "dpt" else wild.depth_head.fc2
    last.weight.data[...] = 0.0
    last.bias.data[...] = raw  # every raw output is raw
    d, _, _ = forward_dvo(wild, _image(10), _image(11))
    assert d.data.dtype == np.float32
    assert float(d.data.min()) >= cfg.min_depth and float(d.data.max()) <= cfg.max_depth
    bound = cfg.min_depth if raw > 0 else cfg.max_depth
    assert np.abs(d.data.astype(np.float64) - bound).max() <= np.spacing(np.float32(bound))


def test_pose_head_zero_init_gives_identity_twist():
    model = _model()
    ga = model.encode(_image(12))
    gb = model.encode(_image(13))
    twist = model.pose_head(ga.tokens, gb.tokens)
    assert np.array_equal(twist.data, np.zeros(6))


def test_pose_head_asymmetry_after_training_signal():
    model = _model()
    # nudge the final layer so the head is non-trivial
    model.pose_head.fc2.weight.data = np.random.default_rng(14).normal(
        scale=0.1, size=model.pose_head.fc2.weight.shape
    )
    ga = model.encode(_image(15))
    gb = model.encode(_image(16))
    t_ab = model.pose_head(ga.tokens, gb.tokens).data
    t_ba = model.pose_head(gb.tokens, ga.tokens).data
    assert np.abs(t_ab - t_ba).max() > 1e-9


def test_encoder_weight_sharing():
    model = _model()
    img = _image(17)
    g1 = model.encode(img)
    g2 = model.encode(img)
    assert np.array_equal(g1.tokens.data, g2.tokens.data)


def test_dpt_head_shapes_toy_and_paper_construction():
    cfg = ModelConfig(enc_dim=32, enc_depth=2,
                      dec_dim=32, dec_depth=4, adapter_dim=0, head_kind="dpt")
    model = DvoModel(cfg, np.random.default_rng(1))
    img = _image(18, size=64)
    d, _, _ = forward_dvo(model, img, _image(19, size=64))
    assert d.shape == (64, 64)
    assert d.data.min() >= cfg.min_depth and d.data.max() <= cfg.max_depth


def test_dpt_taps_are_all_live():
    cfg = ModelConfig(enc_dim=32, enc_depth=2,
                      dec_dim=32, dec_depth=4, adapter_dim=0, head_kind="dpt")
    model = DvoModel(cfg, np.random.default_rng(2))
    img = _image(20, size=32)
    ga, gb = model.encode(img), model.encode(_image(21, size=32))
    blocks = model.decode(ga, gb)
    base = model.depth_head(blocks, ga.rows, ga.cols).data

    zeroed = list(blocks)
    zeroed[0] = Tensor(np.zeros_like(blocks[0].data))
    changed = model.depth_head(zeroed, ga.rows, ga.cols).data
    assert np.abs(base - changed).max() > 1e-12


@pytest.mark.parametrize("dec_depth, taps", [(1, [1, 1, 1, 1]), (2, [1, 1, 2, 2]), (4, [1, 2, 3, 4]), (12, [3, 6, 9, 12])])
def test_dpt_head_taps_decoder_blocks_by_dpts_rule(dec_depth, taps, monkeypatch):
    cfg = ModelConfig(enc_dim=16, enc_depth=1, dec_dim=16, dec_depth=dec_depth, adapter_dim=0, head_kind="dpt")
    head = DptDepthHead(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    blocks = [Tensor(rng.normal(size=(4, cfg.dec_dim))) for _ in range(dec_depth)]
    seen = []
    reassemble = DptDepthHead._reassemble

    def recording(self, tokens, rows, cols, tap_pos):
        seen.append(next(i for i, block in enumerate(blocks, 1) if block is tokens))
        return reassemble(self, tokens, rows, cols, tap_pos)

    monkeypatch.setattr(DptDepthHead, "_reassemble", recording)
    head(blocks, 2, 2)
    assert seen == taps


def test_posemb_2d_is_one_read_only_array_per_grid():
    emb = nn.posemb_2d(2, 3, 8)
    assert nn.posemb_2d(2, 3, 8) is emb and emb.shape == (6, 8)
    assert nn.posemb_2d(3, 2, 8) is not emb
    with pytest.raises(ValueError, match="read-only"):
        emb[0, 0] = 1.0


def test_dpt_head_matches_upsampling_then_convolving(static_pair_32, monkeypatch):
    # the head's polyphase conv, GELU and projection node against the path
    # it replaced (upsample, convolve, then GELU into the projection), on
    # the same weights
    model = oracles.float64_model(DvoModel(toy_config(head_kind="dpt"), np.random.default_rng(6)))
    pair = static_pair_32
    params = [p for _, p in model.depth_head.named_parameters()]

    def run():
        grids = model.encode(np.stack([pair.image_a, pair.image_b]))
        depth = model.depth(grids, grids)
        c = np.random.default_rng(7).normal(size=depth.shape)
        return [depth.data] + ad.grads((depth * Tensor(c)).sum(), params)

    new = run()
    composite = partial(oracles.conv3x3_up2_gelu_linear_composite, up2=oracles.conv3x3_up2_composite)
    monkeypatch.setattr(ad, "conv3x3_up2_gelu_linear", composite)
    for a, b in zip(new, run()):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("head_kind", ["linear", "dpt"])
def test_depth_is_bit_identical_without_a_graph(head_kind, static_pair_32):
    model = DvoModel(toy_config(head_kind=head_kind), np.random.default_rng(8))
    pair = static_pair_32

    def depth():
        grids = model.encode(np.stack([pair.image_a, pair.image_b]))
        return model.depth(grids, replace(grids, tokens=grids.tokens[::-1]))

    with_graph = depth()
    with ad.no_grad():
        without = depth()
    assert with_graph.requires_grad and not without.requires_grad
    assert np.array_equal(with_graph.data, without.data)


def test_pretrain_mask_count_and_errors():
    rng = np.random.default_rng(3)
    masked, keep = sample_mask(16, 0.9, rng)
    assert len(masked) == int(np.ceil(0.9 * 16)) == 15
    assert len(keep) == 1
    assert sorted(np.concatenate([masked, keep])) == list(range(16))
    with pytest.raises(ValueError, match="mask covers"):
        sample_mask(16, 0.999, rng)  # ceil -> all tokens


def test_pretrain_exact_prediction_gives_zero_loss():
    img = _image(22)
    targets = normalized_patch_targets(img)
    masked = np.array([0, 3, 7])
    loss = masked_patch_mse(Tensor(targets), targets, masked)
    assert loss.item() == 0.0


def test_pretrain_step_runs_and_differentiates():
    model = _model()
    rng = np.random.default_rng(4)
    loss = pretrain_step(model, _image(23), _image(24), rng)
    assert np.isfinite(loss.item()) and loss.item() > 0
    g_embed, g_mask = ad.grads(loss, [model.patch_embed.weight, model.mask_token])
    assert np.abs(g_embed).max() > 0
    assert np.abs(g_mask).max() > 0


def test_forward_dvo_loss_differentiable_to_all_trainable_params(static_pair_32):
    model = _model()
    pair = static_pair_32
    d_a, d_b, twist = forward_dvo(model, pair.image_a, pair.image_b)
    bd = total_loss(pair, d_a, d_b, twist)
    assert np.isfinite(bd.l_total.item())
    found = ad.backward(bd.l_total)
    names = dict(model.named_parameters())
    # every parameter in the forward graph is reached by backward; the
    # completion-only parameters (pixel head, mask token) are not
    for name, p in names.items():
        if name.startswith("pixel_head.") or name == "mask_token":
            assert id(p) not in found, name
        else:
            assert id(p) in found, name
    # nonzero flow all the way down to the patch embedding and into the
    # zero-initialized pose output layer
    assert np.abs(found[id(names["patch_embed.weight"])]).max() > 0
    assert np.abs(found[id(names["pose_head.fc2.weight"])]).max() > 0
    assert np.abs(found[id(names["depth_head.fc2.weight"])]).max() > 0


@pytest.mark.parametrize("head_kind", ["linear", "dpt"])
def test_forward_dvo_matches_the_per_frame_reference(head_kind, static_pair_32):
    pair = static_pair_32
    model = oracles.float64_model(DvoModel(toy_config(head_kind=head_kind), np.random.default_rng(3)))
    # a live pose head, so the pose and its gradients are not the identity's
    model.pose_head.fc2.weight.data = np.random.default_rng(4).normal(0.0, 0.5, (128, 6))
    params = [p for _, p in model.named_parameters()]

    def run(forward):
        outs = forward(model, pair.image_a, pair.image_b)
        loss = total_loss(pair, *outs).l_total
        return [o.data for o in outs] + ad.grads(loss, params)

    for new, ref in zip(run(forward_dvo), run(oracles.forward_dvo_per_frame)):
        assert new.shape == ref.shape
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("head_kind", ["linear", "dpt"])
def test_forward_dvo_on_leading_pair_axes_gives_each_pairs_own_forward_bit_for_bit(head_kind):
    model = DvoModel(toy_config(head_kind=head_kind), np.random.default_rng(3))
    model.pose_head.fc2.weight.data = np.random.default_rng(4).normal(0.0, 0.5, (128, 6)).astype(np.float32)
    images_a = np.stack([[_image(40 + 2 * i + j) for j in range(2)] for i in range(3)])  # (3, 2, 3, 32, 32)
    images_b = np.stack([[_image(60 + 2 * i + j) for j in range(2)] for i in range(3)])
    depths_a, depths_b, twists = forward_dvo(model, images_a, images_b)
    assert depths_a.shape == depths_b.shape == (3, 2, 32, 32) and twists.shape == (3, 2, 6)
    for i in range(3):
        for j in range(2):
            lone = forward_dvo(model, images_a[i, j], images_b[i, j])
            for batched, own in zip((depths_a, depths_b, twists), lone):
                assert batched.data[i, j].tobytes() == own.data.tobytes()


@pytest.mark.parametrize(
    "pair_fixture,head_kind,bound",
    [("static_pair_32", "linear", 364), ("static_pair_64", "dpt", 434)],
)
def test_finetune_loss_graph_node_count(pair_fixture, head_kind, bound, request):
    # one finetune loss is 364 (32 px, linear head) and 434 (64 px, DPT head)
    # nodes with both frames batched through encoder, decoder and depth head,
    # and holds no gelu node; the clip that keeps float32 depths inside their
    # bounds added 1 to 363 and 433; the photometric map, the depth inconsistency
    # and the masked mean as one node each took 19 off 382 and 452 (the
    # warp's depth view left the graph with them); the warp as one node and two views of it, and
    # the smoothness term as one node, took 29 off 411 and 481; the pose head's GELU fused with its projection,
    # pooled after it, took 3 off 414 and 484 (its gelu and two reshape
    # nodes); projecting each DPT tap's tokens before the swap to a map took
    # 16 off 500 (4 reshape and transpose nodes a tap); the DPT head's conv,
    # GELU and projection as one node took 4 off 504 (the reshape and
    # transpose nodes of the swapped channel view went with them); one-node
    # GELU projections took 9 off 423 and 11 off 515 (8 MLPs and the depth
    # head; the DPT head's last projection also dropped the output transpose
    # and getitem of its channel-map route), the one-node Rodrigues rotation
    # took 19 off 442 and 534 (the twist is zero at init, where the composite
    # took its 20-node series branch), one-node linear layers and attention
    # took 203 off 645 and 206 off 740, one-node SSIM and bilinear sampling 58
    # off 703 and 798, picking the valid pixels by index in the loss 1 off 704
    # and 799, the warp as matrix algebra 33 off 737 and 832, and per-frame
    # graphs took 1,099 and 1,261
    pair = request.getfixturevalue(pair_fixture)
    model = DvoModel(toy_config(head_kind=head_kind), np.random.default_rng(0))
    d_a, d_b, twist = forward_dvo(model, pair.image_a, pair.image_b)
    loss = total_loss(pair, d_a, d_b, twist).l_total
    nodes = ad.Tape.trace(loss).nodes
    assert len(nodes) <= bound
    assert "gelu" not in {node.op for node in nodes}


def test_pretrain_loss_graph_node_count(static_pair_32):
    # one masked completion loss is 398 nodes; one-node GELU projections
    # took 13 off 411 (12 MLPs and the pixel head), one-node linear layers
    # and attention 270 off 681
    model = DvoModel(toy_config(), np.random.default_rng(0))
    loss = pretrain_step(model, static_pair_32.image_a, static_pair_32.image_b, np.random.default_rng(0))
    assert len(ad.Tape.trace(loss).nodes) <= 398


def test_pretrain_step_on_leading_pair_axes_gives_each_pairs_own_loss_bit_for_bit():
    model = oracles.float64_model(DvoModel(toy_config(), np.random.default_rng(3)))
    params = [p for name, p in model.named_parameters() if not name.startswith(("depth_head.", "pose_head."))]
    images_a = np.stack([[_image(40 + 2 * i + j, 64) for j in range(2)] for i in range(2)])  # (2, 2, 3, 64, 64)
    images_b = np.stack([[_image(60 + 2 * i + j, 64) for j in range(2)] for i in range(2)])
    losses = pretrain_step(model, images_a, images_b, np.random.default_rng(5))
    assert losses.shape == (2, 2)

    rng = np.random.default_rng(5)  # lone pairs draw the masks in the batch's pair order
    lone = [pretrain_step(model, images_a[i, j], images_b[i, j], rng) for i in range(2) for j in range(2)]
    assert [loss.data.tobytes() for loss in lone] == [loss.tobytes() for loss in losses.data.reshape(4)]
    summed = [sum(gs) for gs in zip(*(ad.grads(loss, params) for loss in lone))]
    for new, ref in zip(ad.grads(losses.sum(), params), summed):
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dpt_forward_graph_holds_at_most_45_mb(static_pair_64):
    # a 64 px DPT forward_dvo graph holds 21.6 MB in float32 (43.0 MB in
    # float64): of the head's last node, each output phase's pre-activations
    # and GELU's cdf, not the activation (57.4 MB in float64 when GELU and
    # head_out were two nodes and each conv node kept its padded input)
    model = DvoModel(toy_config(head_kind="dpt"), np.random.default_rng(0))
    forward_dvo(model, static_pair_64.image_a, static_pair_64.image_b)  # cached embeddings
    tracemalloc.start()
    try:
        outs = forward_dvo(model, static_pair_64.image_a, static_pair_64.image_b)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(t.requires_grad for t in outs)
    assert held <= 24e6


def test_dpt_training_job_peaks_at_most_60_mb(static_pair_64):
    # forward, loss and backward of one 64 px DPT pair peak at 30.1 MB in
    # float32 (56.8 MB in float64); 68.4 MB in float64 when the head's conv
    # and its GELU projection were two nodes, whose backward built three 8 MB
    # full-resolution arrays: a token-major copy of the activation, a
    # phase-major copy of the gradient and GELU's gradient
    model = DvoModel(toy_config(head_kind="dpt"), np.random.default_rng(0))
    params = [p for _, p in model.named_parameters()]

    def job():
        outs = forward_dvo(model, static_pair_64.image_a, static_pair_64.image_b)
        return ad.grads(total_loss(static_pair_64, *outs).l_total, params)

    job()  # cached embeddings
    tracemalloc.start()
    try:
        job()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 33e6


@pytest.mark.parametrize("pair_fixture,phase", [("static_pair_32", "finetune"), ("static_pair_64", "pretrain")])
def test_tape_trace_keeps_the_previous_node_order(pair_fixture, phase, request):
    # the order sets how three or more gradients flowing into one tensor are
    # summed, so the walk must give the very same order, not just any
    # topological one
    pair = request.getfixturevalue(pair_fixture)
    model = DvoModel(toy_config(), np.random.default_rng(0))
    if phase == "finetune":
        loss = total_loss(pair, *forward_dvo(model, pair.image_a, pair.image_b)).l_total
    else:
        loss = pretrain_step(model, pair.image_a, pair.image_b, np.random.default_rng(0))
    new, old = ad.Tape.trace(loss).nodes, oracles.tape_trace_previous(loss)
    assert len(new) == len(old)
    assert all(a is b for a, b in zip(new, old))


def test_adapter_noop_at_init_and_count():
    # a block's AdaptMLP with zero up-projection matches the plain MLP bitwise
    cfg_ad = ModelConfig(enc_dim=32, enc_depth=1,
                         dec_dim=32, dec_depth=1, adapter_dim=8)
    cfg_plain = ModelConfig(**{**cfg_ad.to_dict(), "adapter_dim": 0})
    m_ad = DvoModel(cfg_ad, np.random.default_rng(5))
    m_plain = DvoModel(cfg_plain, np.random.default_rng(5))
    # align the shared weights (construction order differs once adapters exist)
    plain_names = dict(m_plain.named_parameters())
    for name, p in m_ad.named_parameters():
        plain_name = name.replace(".mlp.mlp.", ".mlp.")
        if plain_name in plain_names:
            plain_names[plain_name].data = p.data.copy()
    img = _image(25)
    out_ad = m_ad.encode(img).tokens.data
    out_plain = m_plain.encode(img).tokens.data
    assert np.array_equal(out_ad, out_plain)


def test_freeze_for_adapters_contract():
    model = _model()
    frozen = freeze_for_adapters(model)
    assert frozen > 0
    for name, p in model.named_parameters():
        is_trainable = (".adapter_down." in name or ".adapter_up." in name
                        or name.startswith(("depth_head.", "pose_head.")))
        assert p.requires_grad == is_trainable

    before = {n: p.data.copy() for n, p in model.named_parameters() if not p.requires_grad}
    opt = AdamW(list(model.named_parameters()), lr=1e-2)
    rng = np.random.default_rng(6)
    for step in range(3):
        loss = pretrain_step(model, _image(26 + step), _image(40 + step), rng)
        gs = ad.grads(loss, [p for _, p in opt.params])
        for (name, _), g in zip(opt.params, gs):
            opt.grad_views[name][...] = g
        opt.step()
    for n, p in model.named_parameters():
        if not p.requires_grad:
            assert np.array_equal(p.data, before[n]), n


def test_adamw_steps_from_the_gradients_in_grad_views():
    a, b = ad.parameter([1.0, 2.0]), ad.parameter([3.0])
    opt = AdamW([("a", a), ("b", b)], lr=0.1)
    assert opt.step_count == 0
    opt.grad_views["a"][...] = np.ones(2)
    opt.grad_views["b"][...] = np.zeros(1)
    assert np.array_equal(opt.grad, [1.0, 1.0, 0.0])  # the views share the one buffer

    opt.step()
    assert opt.step_count == 1
    assert np.allclose(a.data, [0.9, 1.9])  # a first Adam step moves lr along -sign(g)
    assert np.array_equal(b.data, [3.0])  # zero gradient, no weight decay


def _model_params():
    return list(DvoModel(toy_config(), np.random.default_rng(0)).named_parameters())


def _edge_case_params():
    """A 0-d, a size-0 and a frozen parameter among ordinary ones."""
    rng = np.random.default_rng(1)
    params = [
        (name, ad.parameter(rng.normal(size=shape).astype(np.float32)))
        for name, shape in [("w", (4, 5)), ("scalar", ()), ("empty", (0, 3)), ("frozen", (3,)), ("b", (5,))]
    ]
    params[3][1].requires_grad = False
    return params


@pytest.mark.parametrize("named_params", [_model_params, _edge_case_params], ids=["model", "edge-cases"])
def test_adamw_steps_as_the_previous_formula_and_hands_out_copies(named_params):
    rng = np.random.default_rng(3)
    param_lists = [named_params() for _ in range(2)]
    frozen = {name: p.data.copy() for name, p in param_lists[0] if not p.requires_grad}
    new, old = (AdamW(params) for params in param_lists)
    for _ in range(5):
        # in each parameter's dtype, float32, as backward adds them into AdamW's buffer
        grads = {name: rng.normal(size=p.shape).astype(p.data.dtype) for name, p in param_lists[0]}
        for name, view in new.grad_views.items():
            view[...] = grads[name]
        new.step()
        oracles.adam_step_previous(old, grads)
    for (name, p), (_, q) in zip(*param_lists):
        assert p.data.tobytes() == q.data.tobytes(), name
    assert all(dict(param_lists[0])[name].data.tobytes() == data.tobytes() for name, data in frozen.items())
    state = new.state_arrays()
    assert list(state) == list(old.state_arrays())
    assert all(state[k].tobytes() == v.tobytes() for k, v in old.state_arrays().items())
    # the live moments are views of one buffer, each in its parameter's shape
    views = {k: v for k, v in new.state_views().items() if k != "opt.step"}
    assert len(views) == 2 * len(new.params) and {id(v.base) for v in views.values()} == {id(new._buffer)}
    assert all(views[f"opt.{kind}.{name}"].shape == p.shape for name, p in new.params for kind in "mv")
    # copies: changing them changes neither the optimizer nor a later copy
    for value in state.values():
        value += 1.0
    assert all(np.array_equal(v, new.state_views()[k]) for k, v in old.state_arrays().items())


def test_adamw_refuses_parameters_of_more_than_one_dtype():
    single, double = ad.parameter(np.zeros(2, np.float32)), ad.parameter(np.zeros(3))
    with pytest.raises(ValueError, match="one dtype: 'a' is float32, 'b' is float64"):
        AdamW([("a", single), ("b", double)])
    double.requires_grad = False  # a frozen parameter is not stepped, so its dtype does not count
    assert [name for name, _ in AdamW([("a", single), ("b", double)]).params] == ["a"]


def test_checkpoint_roundtrip_and_mismatch(tmp_path):
    model = _model(seed=7)
    state = {f"model.{k}": v for k, v in model_state(model).items()}
    state["opt.step"] = np.array([3.0])
    config = {"model": model.cfg.to_dict(), "extra": {"epoch": 2}}
    path = tmp_path / "ckpt.dvoc"
    save_checkpoint(path, state, config)

    cfg_back, arrays = load_checkpoint(path)
    assert cfg_back == config
    assert set(arrays) == set(state)
    for k in state:  # in their own dtype: the float32 parameters, the float64 step count
        assert arrays[k].dtype == state[k].dtype and np.array_equal(arrays[k], state[k]), k
    # binary layout starts with the magic and little-endian version
    raw = path.read_bytes()
    assert raw[:4] == b"DVOC"
    assert int.from_bytes(raw[4:8], "little") == 3


def test_save_checkpoint_writes_the_plain_writers_bytes(tmp_path):
    rng = np.random.default_rng(4)
    arrays = {
        "model.scalar": np.array(2.5),
        "model.transposed": rng.normal(size=(5, 3)).T,
        "model.float32": rng.normal(size=(2, 3)).astype(np.float32),
        "model.float32-transposed": rng.normal(size=(3, 4)).astype(np.float32).T,
        "model.float32-big-endian": rng.normal(size=(3,)).astype(">f4"),
        "model.float16": rng.normal(size=(2,)).astype(np.float16),
        "model.big-endian": rng.normal(size=(4, 2)).astype(">f8"),
        "opt.step": np.array([3.0]),
    }
    config = {"model": TINY.to_dict(), "extra": {"epoch": 0}}
    save_checkpoint(tmp_path / "new.dvoc", arrays, config)
    oracles.save_checkpoint_plain(tmp_path / "old.dvoc", arrays, config)
    assert (tmp_path / "new.dvoc").read_bytes() == (tmp_path / "old.dvoc").read_bytes()
    loaded = load_checkpoint(tmp_path / "new.dvoc")[1]
    single = {"model.float32", "model.float32-transposed", "model.float32-big-endian"}
    for name, value in arrays.items():  # float32 stays float32, every other dtype widens to float64
        assert loaded[name].dtype == (np.float32 if name in single else np.float64), name
        assert loaded[name].shape == value.shape and np.array_equal(loaded[name], value), name


@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_a_0_d_array_round_trips_with_rank_0(tmp_path, dtype):
    path = tmp_path / "scalar.dvoc"
    save_checkpoint(path, {"x": np.array(2.5, dtype=dtype)}, {})
    back = load_checkpoint(path)[1]["x"]
    assert back.shape == () and back.dtype == np.dtype(dtype) and back == 2.5
    raw = path.read_bytes()  # the record: name length, name, item size, rank 0 and no extent, then the payload
    record = struct.pack("<I", 1) + b"x" + struct.pack("<II", back.itemsize, 0) + back.tobytes()
    assert raw[raw.index(b"}") + 1 : -8] == record


def test_save_checkpoint_stores_float32_arrays_in_half_the_bytes(tmp_path):
    rng = np.random.default_rng(7)
    wide = {f"model.a{i}": rng.normal(size=(64, 32)) for i in range(3)}
    narrow = {name: value.astype(np.float32) for name, value in wide.items()}
    for name, arrays in (("wide", wide), ("narrow", narrow)):
        save_checkpoint(tmp_path / f"{name}.dvoc", arrays, {})
    sizes = {name: (tmp_path / f"{name}.dvoc").stat().st_size for name in ("wide", "narrow")}
    assert sizes["wide"] - sizes["narrow"] == 3 * 64 * 32 * 4


def test_save_checkpoint_splits_at_iov_max_and_resumes_short_writes(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    arrays = {  # 1,202 buffers, some empty, in both stored dtypes
        f"model.a{i:03d}": rng.normal(size=(i % 4, 3)).astype(np.float32 if i % 2 else np.float64) for i in range(600)
    }
    config = {"extra": {"epoch": 0}}
    oracles.save_checkpoint_plain(tmp_path / "old.dvoc", arrays, config)
    save_checkpoint(tmp_path / "new.dvoc", arrays, config)
    calls, writev = [], os.writev

    def short_writev(fd, buffers):  # at most 1,000 bytes a call, so most calls stop inside a buffer
        calls.append(len(buffers))
        return os.write(fd, b"".join(buffers)[:1000])

    monkeypatch.setattr(os, "writev", short_writev)
    save_checkpoint(tmp_path / "short.dvoc", arrays, config)
    monkeypatch.setattr(os, "writev", writev)
    old = (tmp_path / "old.dvoc").read_bytes()
    assert (tmp_path / "new.dvoc").read_bytes() == old
    assert (tmp_path / "short.dvoc").read_bytes() == old
    assert max(calls) == 1024 and len(calls) == -(-len(old) // 1000)


def test_save_checkpoint_ends_a_write_call_at_the_buffer_that_reaches_1_mib(tmp_path, monkeypatch):
    arrays = {name: np.full(75_000, 1.5) for name in "abc"}  # 600 kB each
    calls, writev = [], os.writev

    def recording_writev(fd, buffers):
        calls.append(len(buffers))
        return writev(fd, buffers)

    monkeypatch.setattr(os, "writev", recording_writev)
    save_checkpoint(tmp_path / "big.dvoc", arrays, {})
    monkeypatch.setattr(os, "writev", writev)
    # the header, then a name-and-shape record and the data per array, then the footer
    assert calls == [5, 3]
    assert all(np.array_equal(v, arrays[k]) for k, v in load_checkpoint(tmp_path / "big.dvoc")[1].items())


def _checkpoint_arrays():
    rng = np.random.default_rng(6)
    arrays = {"model.w": rng.normal(size=(40, 30)).astype(np.float32), "opt.step": np.array([2.0])}
    return arrays, {"extra": {"epoch": 1}}


def test_save_checkpoint_preallocates_the_whole_file_once(tmp_path, monkeypatch):
    arrays, config = _checkpoint_arrays()
    oracles.save_checkpoint_plain(tmp_path / "old.dvoc", arrays, config)
    calls, fallocate = [], os.posix_fallocate

    def recording_fallocate(fd, offset, length):
        calls.append((offset, length, os.fstat(fd).st_size))
        fallocate(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", recording_fallocate)
    save_checkpoint(tmp_path / "new.dvoc", arrays, config)
    old = (tmp_path / "old.dvoc").read_bytes()
    assert calls == [(0, len(old), 0)]  # on the empty temporary file, before any data
    assert (tmp_path / "new.dvoc").read_bytes() == old


def test_a_failed_preallocation_writes_nothing_and_keeps_the_existing_checkpoint(tmp_path, monkeypatch):
    arrays, config = _checkpoint_arrays()
    path = tmp_path / "ckpt.dvoc"
    save_checkpoint(path, {"opt.step": np.array([1.0])}, {})
    before = path.read_bytes()
    writes = []

    def no_space(fd, offset, length):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "posix_fallocate", no_space)
    monkeypatch.setattr(os, "writev", lambda fd, buffers: writes.append(fd))
    with pytest.raises(OSError, match="No space left on device"):
        save_checkpoint(path, arrays, config)
    assert writes == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.dvoc"]
    assert path.read_bytes() == before


def test_rewriting_a_checkpoint_gives_the_bytes_of_a_write_to_a_new_name(tmp_path):
    arrays, config = _checkpoint_arrays()
    path = tmp_path / "ckpt.dvoc"
    save_checkpoint(path, {**arrays, "opt.m.w": 2.0 * arrays["model.w"]}, config)  # longer than the rewrite
    save_checkpoint(path, arrays, config)
    save_checkpoint(tmp_path / "new.dvoc", arrays, config)
    assert path.read_bytes() == (tmp_path / "new.dvoc").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.dvoc", "new.dvoc"]


def test_checkpoint_bytes_deterministic(tmp_path):
    model = _model(seed=9)
    cfgd = {"model": model.cfg.to_dict()}
    p1, p2 = tmp_path / "a.dvoc", tmp_path / "b.dvoc"
    save_checkpoint(p1, model_state(model), cfgd)
    save_checkpoint(p2, model_state(model), cfgd)
    assert p1.read_bytes() == p2.read_bytes()
