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
    load_state,
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
    model = _model()
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
    # the polyphase head conv against the path it replaced, on the same weights
    model = DvoModel(toy_config(head_kind="dpt"), np.random.default_rng(6))
    pair = static_pair_32
    params = [p for _, p in model.depth_head.named_parameters()]

    def run():
        grids = model.encode(np.stack([pair.image_a, pair.image_b]))
        depth = model.depth(grids, grids)
        c = np.random.default_rng(7).normal(size=depth.shape)
        return [depth.data] + ad.grads((depth * Tensor(c)).sum(), params)

    new = run()
    monkeypatch.setattr(ad, "conv3x3_up2", oracles.conv3x3_up2_composite)
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
    model = DvoModel(toy_config(head_kind=head_kind), np.random.default_rng(3))
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


@pytest.mark.parametrize(
    "pair_fixture,head_kind,bound",
    [("static_pair_32", "linear", 442), ("static_pair_64", "dpt", 534)],
)
def test_finetune_loss_graph_node_count(pair_fixture, head_kind, bound, request):
    # one finetune loss is 442 (32 px, linear head) and 534 (64 px, DPT
    # head) nodes with both frames batched through encoder, decoder and
    # depth head; one-node linear layers and attention took 203 off 645
    # and 206 off 740, one-node SSIM and bilinear sampling 58 off 703 and
    # 798, picking the valid pixels by index in the loss 1 off 704 and 799,
    # the warp as matrix algebra 33 off 737 and 832, and per-frame graphs
    # took 1,099 and 1,261
    pair = request.getfixturevalue(pair_fixture)
    model = DvoModel(toy_config(head_kind=head_kind), np.random.default_rng(0))
    d_a, d_b, twist = forward_dvo(model, pair.image_a, pair.image_b)
    loss = total_loss(pair, d_a, d_b, twist).l_total
    assert len(ad.Tape.trace(loss).nodes) <= bound


def test_pretrain_loss_graph_node_count(static_pair_32):
    # one masked completion loss is 411 nodes; one-node linear layers and
    # attention took 270 off 681
    model = DvoModel(toy_config(), np.random.default_rng(0))
    loss = pretrain_step(model, static_pair_32.image_a, static_pair_32.image_b, np.random.default_rng(0))
    assert len(ad.Tape.trace(loss).nodes) <= 411


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
        opt.step({name: g for (name, _), g in zip(opt.params, gs)})
    for n, p in model.named_parameters():
        if not p.requires_grad:
            assert np.array_equal(p.data, before[n]), n


def test_adamw_step_takes_every_stepped_gradient_by_name():
    a, b = ad.parameter([1.0, 2.0]), ad.parameter([3.0])
    opt = AdamW([("a", a), ("b", b)], lr=0.1)
    with pytest.raises(KeyError, match="b"):
        opt.step({"a": np.ones(2)})
    assert opt.step_count == 0
    assert np.array_equal(a.data, [1.0, 2.0])

    opt.step({"a": np.ones(2), "b": np.zeros(1)})
    assert opt.step_count == 1
    assert np.allclose(a.data, [0.9, 1.9])  # a first Adam step moves lr along -sign(g)
    assert np.array_equal(b.data, [3.0])  # zero gradient, no weight decay


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
    for k in state:
        assert np.array_equal(arrays[k], state[k])
    # binary layout starts with the magic and little-endian version
    raw = path.read_bytes()
    assert raw[:4] == b"DVOC"
    assert int.from_bytes(raw[4:8], "little") == 2

    model2 = _model(seed=8)
    load_state(model2, {k[len("model.") :]: v for k, v in arrays.items() if k.startswith("model.")})
    for (n1, p1), (n2, p2) in zip(model.named_parameters(), model2.named_parameters()):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)

    bad = {k: v for k, v in arrays.items()}
    bad["model.patch_embed.weight"] = np.zeros((3, 3))
    with pytest.raises(ValueError, match="mismatch"):
        load_state(model2, {k[len("model.") :]: v for k, v in bad.items() if k.startswith("model.")})

    with pytest.raises(ValueError, match="missing"):
        load_state(model2, {})


def test_checkpoint_bytes_deterministic(tmp_path):
    model = _model(seed=9)
    cfgd = {"model": model.cfg.to_dict()}
    p1, p2 = tmp_path / "a.dvoc", tmp_path / "b.dvoc"
    save_checkpoint(p1, model_state(model), cfgd)
    save_checkpoint(p2, model_state(model), cfgd)
    assert p1.read_bytes() == p2.read_bytes()
