import dataclasses
from collections import Counter

import numpy as np
import pytest

from dvokit import autodiff as ad
from dvokit import geometry, losses
from dvokit.autodiff import EmptyValidSetError, Tensor, grads
from dvokit.direct import optimize_direct
from dvokit.losses import (
    LossWeights,
    PairObjective,
    depth_consistency,
    edge_weights,
    masked_mean,
    photometric_loss,
    smoothness,
    ssim,
    total_loss,
)

import oracles
from oracles import depth_diff, finite_diff_check, render_pair, smoothness_reference, ssim_reference


def test_loss_weights_validation():
    LossWeights()
    with pytest.raises(ValueError):
        LossWeights(lambda_ssim=1.2)
    with pytest.raises(ValueError):
        LossWeights(beta=-0.1)
    for bad in ({"lambda_ssim": np.nan}, {"beta": np.nan}, {"gamma": np.nan}, {"beta": np.inf}):
        with pytest.raises(ValueError):
            LossWeights(**bad)


def test_depth_diff_cases():
    same = depth_diff(Tensor(np.full((2, 2), 2.0)), Tensor(np.full((2, 2), 2.0)))
    assert np.all(same.data == 0.0)

    dd = depth_diff(Tensor(np.full((2, 2), 3.0)), Tensor(np.full((2, 2), 1.0)))
    assert np.allclose(dd.data, 0.5)

    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(0.1, 9.0, (8, 8)))
    b = Tensor(rng.uniform(0.1, 9.0, (8, 8)))
    dd = depth_diff(a, b).data
    assert np.all(dd >= 0.0) and np.all(dd < 1.0)

    # the valid pixels only, as total_loss passes them
    picked = depth_diff(Tensor(np.array([3.0, 1.0])), Tensor(np.array([1.0, 1.0])))
    assert np.array_equal(picked.data, [0.5, 0.0])


def _identity_pair_16():
    from dvokit.geometry import Pose
    from dvokit.synth import default_intrinsics, preset_scene

    return render_pair(preset_scene("room", 3), default_intrinsics(16), Pose.identity(), Pose.identity())


def test_geometric_loss_cases():
    # at the identity pose every pixel is valid and samples frame b at its
    # own grid point, so l_g is the mean of |a - b| / (a + b) over the image
    from dvokit.geometry import Pose

    pair = _identity_pair_16()
    depth = pair.gt_depth_a.values
    assert total_loss(pair, depth, depth, Pose.identity()).l_g.item() == 0.0

    bd = total_loss(pair, depth, 3.0 * depth, Pose.identity())
    assert bd.valid.all()
    assert bd.l_g.item() == pytest.approx(0.5, abs=1e-12)

    half = depth.copy()
    half[:8] *= 3.0
    assert total_loss(pair, depth, half, Pose.identity()).l_g.item() == pytest.approx(0.25, abs=1e-9)


def test_ssim_identity_and_shape_check():
    rng = np.random.default_rng(1)
    a = rng.random((3, 6, 6))
    out, _ = ssim(a, a.copy())
    assert np.allclose(out, 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        ssim(a, a[:, :4])


def test_ssim_inverted_high_variance_patch_near_minus_one():
    yy, xx = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    checker = ((yy + xx) % 2).astype(np.float64)
    b = np.stack([checker] * 3)
    a = 1.0 - b
    center = ssim(a, b)[0][2:-2, 2:-2]
    assert center.max() < -0.9


def test_ssim_matches_bruteforce_reference():
    rng = np.random.default_rng(2)
    a = rng.random((3, 7, 9))
    b = np.clip(a + rng.normal(scale=0.1, size=a.shape), 0, 1)
    ours, _ = ssim(a, b)
    ref = ssim_reference(a, b)
    assert np.abs(ours - ref).max() < 1e-10


def test_photometric_zero_for_identical_images():
    rng = np.random.default_rng(3)
    img = rng.random((3, 8, 8))
    valid = np.ones((8, 8), dtype=bool)
    scalar = photometric_loss(Tensor(img), Tensor(img.copy()))[valid].mean()
    assert abs(scalar.item()) < 1e-12


def test_photometric_constant_images_hand_case():
    # constant images differing by 0.1: the L1 share is (1-0.85)*0.1 = 0.015
    # exactly; the SSIM share is frozen from the brute-force reference
    # (constant images with different means do NOT give SSIM == 1: the
    # luminance term is (2*0.4*0.5+C1)/(0.4^2+0.5^2+C1)).
    a = np.full((3, 8, 8), 0.4)
    b = np.full((3, 8, 8), 0.5)
    valid = np.ones((8, 8), dtype=bool)
    w = LossWeights()

    scalar = photometric_loss(Tensor(a), Tensor(b), w)[valid].mean()
    ssim_val = ssim_reference(a, b)[0, 0]  # spatially constant
    expected = 0.15 * 0.1 + 0.85 * (1.0 - ssim_val) / 2.0
    assert abs(scalar.item() - expected) < 1e-12
    assert abs(0.15 * 0.1 - 0.015) < 1e-15
    assert expected == pytest.approx(0.0253633, abs=1e-6)  # frozen from oracle


def test_photometric_lambda_zero_is_pure_l1():
    rng = np.random.default_rng(4)
    a, b = rng.random((3, 8, 8)), rng.random((3, 8, 8))
    valid = rng.random((8, 8)) > 0.3
    scalar = photometric_loss(Tensor(a), Tensor(b), LossWeights(lambda_ssim=0.0))[valid].mean()
    expected = np.abs(a - b).mean(axis=0)[valid].mean()
    assert abs(scalar.item() - expected) < 1e-12


def _unmasked_photometric(pair, depth_a, pose):
    """Mean of the photometric map over the valid set, with no mask."""
    from dvokit.geometry import bilinear_sample, warp_depth

    warp = warp_depth(Tensor(depth_a), pose, pair.intrinsics)
    synth = bilinear_sample(Tensor(pair.image_b), warp.flow)
    return photometric_loss(Tensor(pair.image_a), synth)[warp.valid].mean().item()


def test_masked_photometric_limits_and_linearity(static_pair_16):
    pair = static_pair_16
    da, db = _perturbed(pair, np.random.default_rng(5))
    valid = total_loss(pair, da, db, pair.gt_pose).valid
    assert valid.any() and not valid.all()

    def l_pm(mask):
        return total_loss(pair, da, db, pair.gt_pose, mask_override=mask).l_p_masked.item()

    unmasked = _unmasked_photometric(pair, da, pair.gt_pose)
    ones = np.ones(valid.shape)
    assert l_pm(ones) == unmasked
    assert l_pm(np.zeros(valid.shape)) == 0.0
    assert abs(l_pm(np.full(valid.shape, 0.5)) - 0.5 * unmasked) < 1e-15
    # the override is read on the valid set only
    assert l_pm(np.where(valid, ones, 7.0)) == unmasked


def test_smoothness_constant_depth_is_zero():
    img = np.random.default_rng(6).random((3, 5, 5))
    assert smoothness(Tensor(np.full((5, 5), 2.0)), edge_weights(img)).item() == 0.0


def test_smoothness_ramp_hand_case():
    # 4x4 depth ramp 1..4 along x on a constant image: normalized slope is
    # 1/2.5, so every x-term is 0.16 and every y-term 0; pooled mean = 0.08
    depth = np.tile(np.arange(1.0, 5.0), (4, 1))
    image = np.full((3, 4, 4), 0.5)
    val = smoothness(Tensor(depth), edge_weights(image)).item()
    assert val == pytest.approx(0.08, abs=1e-15)
    assert val == pytest.approx(smoothness_reference(depth, image), abs=1e-15)


def test_smoothness_aligned_edges_reduce_loss():
    depth = np.tile(np.arange(1.0, 5.0), (4, 1))
    flat = np.full((3, 4, 4), 0.5)
    edgy = np.tile(np.linspace(0.0, 1.0, 4), (3, 4, 1))  # strong x-gradient
    low = smoothness(Tensor(depth), edge_weights(edgy)).item()
    high = smoothness(Tensor(depth), edge_weights(flat)).item()
    assert low < high
    assert low == pytest.approx(smoothness_reference(depth, edgy), rel=1e-12)


def test_total_loss_uses_the_paper_weights(static_pair_32):
    pair = static_pair_32
    assert LossWeights() == LossWeights(lambda_ssim=0.85, beta=0.5, gamma=0.1)
    bd = total_loss(pair, pair.gt_depth_a.values, pair.gt_depth_b.values, pair.gt_pose)
    assert bd.l_total.item() == bd.l_p_masked.item() + 0.5 * bd.l_g.item() + 0.1 * bd.l_s.item()


def test_total_loss_identity_holds_exactly(static_pair_32):
    pair = static_pair_32
    bd = total_loss(pair, pair.gt_depth_a.values, pair.gt_depth_b.values, pair.gt_pose)
    w = LossWeights()
    assert bd.l_total.item() == bd.l_p_masked.item() + w.beta * bd.l_g.item() + w.gamma * bd.l_s.item()


def test_total_loss_ground_truth_inputs_near_zero(static_pair_32):
    pair = static_pair_32
    bd = total_loss(pair, pair.gt_depth_a.values, pair.gt_depth_b.values, pair.gt_pose)
    assert bd.l_p_masked.item() < 1e-3
    assert bd.l_g.item() < 1e-3
    assert bd.valid_count > 0


def test_total_loss_mask_properties(static_pair_32):
    pair = static_pair_32
    bd = total_loss(pair, pair.gt_depth_a.values, pair.gt_depth_b.values, pair.gt_pose)
    ms_valid = bd.m_s[bd.valid]
    assert np.all(ms_valid >= 0.0) and np.all(ms_valid <= 1.0)
    assert np.array_equal(bd.m_s[bd.valid], 1.0 - bd.d_diff[bd.valid])
    assert not bd.valid.all()
    assert np.all(bd.d_diff[~bd.valid] == 0.0) and np.all(bd.m_s[~bd.valid] == 0.0)
    agree = bd.valid & (bd.d_diff == 0.0)
    if agree.any():
        assert np.all(bd.m_s[agree] == 1.0)


def test_mask_identity_pose_exact_ones():
    from dvokit.geometry import Pose

    pair = _identity_pair_16()
    bd = total_loss(pair, pair.gt_depth_a.values, pair.gt_depth_a.values, Pose.identity())
    assert np.all(bd.m_s[bd.valid] == 1.0)
    assert bd.l_g.item() == 0.0


def test_moving_object_lowers_mask_inside_footprint(dynamic_pair_32):
    pair = dynamic_pair_32
    bd = total_loss(pair, pair.gt_depth_a.values, pair.gt_depth_b.values, pair.gt_pose)
    inside = bd.valid & pair.dynamic_mask_a
    outside = bd.valid & ~pair.dynamic_mask_a
    assert inside.any() and outside.any()
    assert bd.m_s[inside].mean() < bd.m_s[outside].mean()


def test_all_loss_terms_nonnegative(static_pair_32):
    pair = static_pair_32
    rng = np.random.default_rng(9)
    noisy_a = pair.gt_depth_a.values * np.exp(rng.normal(scale=0.1, size=pair.gt_depth_a.shape))
    noisy_b = pair.gt_depth_b.values * np.exp(rng.normal(scale=0.1, size=pair.gt_depth_b.shape))
    bd = total_loss(pair, noisy_a, noisy_b, pair.gt_pose)
    assert bd.l_p_masked.item() >= 0.0
    assert bd.l_g.item() >= 0.0
    assert bd.l_s.item() >= 0.0


def test_masked_photometric_never_exceeds_unmasked(static_pair_32):
    pair = static_pair_32
    rng = np.random.default_rng(10)
    noisy_a = pair.gt_depth_a.values * np.exp(rng.normal(scale=0.15, size=pair.gt_depth_a.shape))
    bd = total_loss(pair, noisy_a, pair.gt_depth_b.values, pair.gt_pose)
    assert bd.l_p_masked.item() <= _unmasked_photometric(pair, noisy_a, pair.gt_pose) + 1e-15


def test_lambda_swap_changes_only_photometric(static_pair_32):
    pair = static_pair_32
    rng = np.random.default_rng(11)
    noisy_a = pair.gt_depth_a.values * np.exp(rng.normal(scale=0.05, size=pair.gt_depth_a.shape))
    bd_ssim = total_loss(pair, noisy_a, pair.gt_depth_b.values, pair.gt_pose, LossWeights(lambda_ssim=0.85))
    bd_l1 = total_loss(pair, noisy_a, pair.gt_depth_b.values, pair.gt_pose, LossWeights(lambda_ssim=0.0))
    assert bd_ssim.l_g.item() == bd_l1.l_g.item()
    assert bd_ssim.l_s.item() == bd_l1.l_s.item()
    assert bd_ssim.l_p_masked.item() != bd_l1.l_p_masked.item()


def test_empty_valid_set_propagates(static_pair_16):
    pair = static_pair_16
    # translate the target camera far forward: every point lands behind it
    from dvokit.geometry import Pose

    away = Pose(np.eye(3), [0.0, 0.0, -50.0])
    with pytest.raises(EmptyValidSetError, match="empty-valid-set"):
        total_loss(pair, pair.gt_depth_a.values, pair.gt_depth_b.values, away)


def _crop_8(a):
    return a[..., :8, :8]


def _pad_20(a):
    return np.pad(a, [(0, 0)] * (a.ndim - 2) + [(2, 2), (2, 2)], mode="edge")


@pytest.mark.parametrize(
    "field,resize",
    [
        ("image_b", _crop_8),
        ("image_b", _pad_20),
        ("image_a", _crop_8),
        ("depth_a", _crop_8),
        ("depth_b", _pad_20),
    ],
    ids=["image_b-8px", "image_b-20px", "image_a-8px", "depth_a-8px", "depth_b-20px"],
)
def test_total_loss_rejects_frames_not_at_the_intrinsics_size(static_pair_16, field, resize):
    pair = static_pair_16
    args = {"depth_a": pair.gt_depth_a.values, "depth_b": pair.gt_depth_b.values}
    if field in args:
        args[field] = resize(args[field])
    else:
        pair = dataclasses.replace(pair, **{field: resize(getattr(pair, field))})
    with pytest.raises(ValueError, match=rf"{field} has shape \(.*\), the intrinsics need \(.*16, 16\)"):
        total_loss(pair, args["depth_a"], args["depth_b"], pair.gt_pose)


def _perturbed(pair, rng, scale=0.03):
    da = pair.gt_depth_a.values * np.exp(rng.normal(scale=scale, size=pair.gt_depth_a.shape))
    db = pair.gt_depth_b.values * np.exp(rng.normal(scale=scale, size=pair.gt_depth_b.shape))
    return da, db


def test_total_loss_gradient_wrt_depths_fd(static_pair_16):
    # the photometric mask is gradient-stopped, so the finite-difference
    # probe evaluates the loss with the mask frozen at the base point
    pair = static_pair_16
    rng = np.random.default_rng(12)
    da, db = _perturbed(pair, rng)
    twist = Tensor(pair.gt_pose.twist())
    ms0 = total_loss(pair, Tensor(da), Tensor(db), twist).m_s

    def f_da(t):
        return total_loss(pair, t, Tensor(db), twist, mask_override=ms0).l_total

    assert finite_diff_check(f_da, da, h=1e-6) < 1e-4

    def f_db(t):
        return total_loss(pair, Tensor(da), t, twist, mask_override=ms0).l_total

    assert finite_diff_check(f_db, db, h=1e-6) < 1e-4


def test_total_loss_graph_node_count(static_pair_32):
    # leaf log-depths of both frames and a twist leaf: 17 nodes; 36 before
    # the photometric map, the depth inconsistency and the masked mean
    # became one node each (and the warp's depth view left the graph); 65 before
    # the warp became one node (and two views of it, the flow and the depth)
    # and the smoothness term one node, 80 before
    # the Rodrigues rotation became one node, 138 before SSIM and bilinear
    # sampling became one node each and the smoothness edge weights
    # constants, 139 before the terms picked the valid pixels by index, 172
    # before the warp ran as one (3, H*W) point matrix, one matmul rotation
    # and one Rodrigues with a matmul skew matrix
    pair = static_pair_32
    log_a = Tensor(np.log(pair.gt_depth_a.values), requires_grad=True)
    log_b = Tensor(np.log(pair.gt_depth_b.values), requires_grad=True)
    twist = Tensor(pair.gt_pose.twist() + 0.01, requires_grad=True)
    loss = total_loss(pair, log_a.exp(), log_b.exp(), twist).l_total
    assert len(ad.Tape.trace(loss).nodes) <= 17


def test_pose_mode_graph_node_count(static_pair_32):
    # direct pose descent's graph, a twist leaf with both depths constant:
    # 11 nodes; 29 before the photometric map, the depth inconsistency and
    # the masked mean became one node each, 41 before the warp became one
    # node and two views of it, 56 before the Rodrigues rotation became one
    # node
    pair = static_pair_32
    depth_a, depth_b = (Tensor(np.log(d.values)).exp() for d in (pair.gt_depth_a, pair.gt_depth_b))
    twist = Tensor(pair.gt_pose.twist() + 0.01, requires_grad=True)
    loss = total_loss(PairObjective(pair, fixed_depth_a=depth_a), depth_a, depth_b, twist).l_total
    assert len(ad.Tape.trace(loss).nodes) <= 11


def _loss_variables(pair, mode):
    """(variables, depth_a, depth_b, pose): in pose mode a twist leaf and
    constant depths, as direct pose descent runs them; in depth mode leaf
    log-depths and a constant Pose."""
    if mode == "pose":
        twist = Tensor(pair.gt_pose.twist() + 0.01, requires_grad=True)
        return [twist], Tensor(pair.gt_depth_a.values), Tensor(pair.gt_depth_b.values), twist
    starts = ((pair.gt_depth_a, 0.01), (pair.gt_depth_b, -0.01))
    wrt = [Tensor(np.log(d.values) + s, requires_grad=True) for d, s in starts]
    return wrt, wrt[0].exp(), wrt[1].exp(), pair.gt_pose


def _same_bits(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", ["pose", "depth"])
@pytest.mark.parametrize("pair_fixture", ["static_pair_16", "static_pair_32", "static_pair_64"])
def test_warp_and_smoothness_nodes_are_their_composites_bit_for_bit(pair_fixture, mode, request):
    # each node against its primitive-node composite, then the loss against
    # the composite loss built on those composites: its value, maps and
    # gradients, so the nodes add the depth's gradients in the order the
    # composite graph did
    pair = request.getfixturevalue(pair_fixture)
    k = pair.intrinsics
    weights = Tensor(np.random.default_rng(k.width).normal(size=(k.height, k.width, 3)))
    edges = edge_weights(pair.image_a)

    def run(reproject, smooth, loss):
        wrt, d_a, d_b, pose = _loss_variables(pair, mode)
        uvz, l_s = reproject(d_a, pose, k), smooth(d_a, edges)
        bd = loss(d_a, d_b, pose)
        out = [uvz.data, *grads((uvz * weights).sum(), wrt), l_s.data, *(grads(l_s, wrt) if l_s.requires_grad else [])]
        return out + [bd.l_total.data, bd.d_diff, bd.m_s, *grads(bd.l_total, wrt)]

    def fused_loss(d_a, d_b, pose):
        return total_loss(PairObjective(pair, fixed_depth_a=d_a if mode == "pose" else None), d_a, d_b, pose)

    def composite_loss(d_a, d_b, pose):
        warp, smooth = oracles.warp_depth_composite, oracles.smoothness_composite
        return oracles.total_loss_composite(pair, d_a, d_b, pose, warp=warp, smooth=smooth)

    fused = run(geometry.reproject, smoothness, fused_loss)
    _same_bits(fused, run(oracles.reproject_composite, oracles.smoothness_composite, composite_loss))


@pytest.mark.parametrize("mode", ["pose", "depth"])
@pytest.mark.parametrize("pair_fixture", ["static_pair_16", "static_pair_32", "static_pair_64"])
def test_photometric_consistency_and_mean_nodes_are_their_composites_bit_for_bit(pair_fixture, mode, request):
    # each node on the loss's own inputs against its primitive-node
    # composite (its output and the gradients of a seeded weighted sum of
    # it), then the loss against the one that runs the composites in their
    # place: its value, maps and gradients
    pair = request.getfixturevalue(pair_fixture)
    k = pair.intrinsics
    rng = np.random.default_rng(k.width + 1)
    wrt, d_a, d_b, pose = _loss_variables(pair, mode)
    warp = geometry.warp_depth(d_a, pose, k)
    valid = warp.valid
    synthesized = geometry.bilinear_sample(Tensor(pair.image_b), warp.flow)
    moments = ad.ssim_moments(pair.image_a)
    mask = rng.uniform(0.2, 1.0, size=int(valid.sum()))
    image_a = Tensor(pair.image_a)

    def consistency_composite(uvz, depth_b, valid):
        return oracles.depth_consistency_composite(uvz[..., :2], uvz[..., 2], depth_b, valid)

    nodes = [
        (photometric_loss, oracles.photometric_loss_composite, (image_a, synthesized, LossWeights(), moments)),
        (depth_consistency, consistency_composite, (warp.uvz, d_b, valid)),
        (masked_mean, oracles.masked_mean_composite, (synthesized.mean(axis=0), mask, valid)),
    ]
    for node, composite, args in nodes:
        weights = Tensor(rng.normal(size=node(*args).shape))
        new, old = (fn(*args) for fn in (node, composite))
        _same_bits([new.data, *grads((new * weights).sum(), wrt)], [old.data, *grads((old * weights).sum(), wrt)])

    def breakdown(bd):
        return [bd.l_total.data, bd.l_p_masked.data, bd.l_g.data, bd.d_diff, bd.m_s, *grads(bd.l_total, wrt)]

    fused = total_loss(PairObjective(pair, fixed_depth_a=d_a if mode == "pose" else None), d_a, d_b, pose)
    _same_bits(breakdown(fused), breakdown(oracles.total_loss_composite(pair, d_a, d_b, pose)))


@pytest.mark.parametrize("mode", ["pose", "depth"])
def test_mask_override_with_the_computed_mask_is_the_loss_bit_for_bit(static_pair_32, mode):
    pair = static_pair_32
    wrt, d_a, d_b, pose = _loss_variables(pair, mode)
    computed = total_loss(pair, d_a, d_b, pose)
    overridden = total_loss(pair, d_a, d_b, pose, mask_override=computed.m_s)
    assert np.array_equal(overridden.m_s, computed.m_s)
    _same_bits(*([bd.l_total.data, *grads(bd.l_total, wrt)] for bd in (overridden, computed)))


def test_a_nan_in_depth_b_is_named_by_the_consistency_node(static_pair_16):
    pair = static_pair_16
    valid = geometry.warp_depth(pair.gt_depth_a.values, pair.gt_pose, pair.intrinsics).valid
    depth_b = pair.gt_depth_b.values.copy()
    depth_b[valid] = np.nan  # every pixel the valid set can sample, and more
    with pytest.raises(ad.NonFiniteError, match="'depth_consistency'"):
        total_loss(pair, pair.gt_depth_a.values, depth_b, pair.gt_pose)
    with ad.checked(False), np.errstate(invalid="ignore"):
        assert np.isnan(total_loss(pair, pair.gt_depth_a.values, depth_b, pair.gt_pose).l_g.item())


@pytest.mark.parametrize(
    "mode,builders",
    [
        ("pose", ["ray_matrix", "edge_weights", "ssim_moments", "smoothness", "exp"]),
        ("depth", ["ray_matrix", "edge_weights", "ssim_moments", "rotation_from_axis_angle"]),
    ],
)
def test_direct_descent_builds_each_problem_constant_once(static_pair_32, monkeypatch, mode, builders):
    # what no iteration changes (in pose mode the exp of both fixed depths
    # and frame a's smoothness term, in depth mode the fixed pose's rotation)
    # is built by the set-up alone, so 2 and 5 iterations build it alike
    owners = {"exp": Tensor, "rotation_from_axis_angle": geometry}
    calls = Counter()
    for name in builders:
        owner = owners.get(name, losses)

        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def count(iters):
        calls.clear()
        optimize_direct(static_pair_32, mode, iters=iters)
        return dict(calls)

    builds = count(2)
    assert set(builds) == set(builders)
    assert count(5) == builds


@pytest.mark.parametrize("pair_fixture", ["static_pair_32", "static_pair_64"])
def test_twist_gradient_at_the_identity_does_not_depend_on_round_off(pair_fixture, request):
    # at the identity twist every warped coordinate is an integer up to
    # round-off; depths scaled by 1 +- 4e-16 move only that round-off, which
    # moved this gradient by 0.21 (32 px) and 0.041 (64 px) relative when
    # the sampler picked its cell with a plain floor
    pair = request.getfixturevalue(pair_fixture)

    def twist_gradient(scale):
        twist = Tensor(np.zeros(6), requires_grad=True)
        depths = (pair.gt_depth_a.values * scale, pair.gt_depth_b.values * scale)
        return ad.grads(total_loss(pair, *depths, twist).l_total, [twist])[0]

    base = twist_gradient(1.0)
    for scale in (1.0 + 4e-16, 1.0 - 4e-16):
        assert np.abs(twist_gradient(scale) - base).max() <= 1e-12 * np.abs(base).max()


def _flow_kink_margin(pair, depth_a, twist):
    """Distance of the warped coordinates from bilinear kinks (integer grid
    lines) and from the valid-set boundary; finite differences are only
    meaningful away from these non-smooth points."""
    from dvokit.geometry import warp_depth

    res = warp_depth(Tensor(depth_a), Tensor(twist), pair.intrinsics)
    coords = res.flow.data[res.valid]
    grid_margin = np.abs(coords - np.round(coords)).min()
    u, v = res.flow.data[..., 0], res.flow.data[..., 1]
    k = pair.intrinsics
    bound_margin = np.minimum.reduce(
        [np.abs(u), np.abs(u - (k.width - 1.0)), np.abs(v), np.abs(v - (k.height - 1.0))]
    ).min()
    return min(grid_margin, bound_margin)


def test_total_loss_gradient_wrt_twist_fd(static_pair_16):
    pair = static_pair_16
    rng = np.random.default_rng(13)
    da, db = _perturbed(pair, rng)
    for _ in range(100):  # seeded search for a kink-free evaluation point
        twist0 = pair.gt_pose.twist() + rng.normal(scale=0.01, size=6)
        if _flow_kink_margin(pair, da, twist0) > 2e-3:
            break
    else:
        pytest.fail("no kink-free twist found")

    ms0 = total_loss(pair, Tensor(da), Tensor(db), Tensor(twist0)).m_s

    def f(t):
        return total_loss(pair, Tensor(da), Tensor(db), t, mask_override=ms0).l_total

    assert finite_diff_check(f, twist0, h=1e-6) < 1e-4


def test_geometric_term_gradient_has_no_mask_stop(static_pair_16):
    # L_g keeps its full gradient (only the photometric weighting is stopped)
    pair = static_pair_16
    rng = np.random.default_rng(14)
    da, db = _perturbed(pair, rng)
    for _ in range(100):
        twist0 = pair.gt_pose.twist() + rng.normal(scale=0.01, size=6)
        if _flow_kink_margin(pair, da, twist0) > 2e-3:
            break

    def f(t):
        return total_loss(pair, Tensor(da), Tensor(db), t).l_g

    assert finite_diff_check(f, twist0, h=1e-6) < 1e-4


def test_mask_stop_gradient_changes_twist_gradient(static_pair_16):
    # documents the stop: differentiating through a live mask would give a
    # different gradient than the one backward computes
    pair = static_pair_16
    rng = np.random.default_rng(15)
    da, db = _perturbed(pair, rng)
    twist0 = pair.gt_pose.twist() + rng.normal(scale=0.01, size=6)

    leaf = Tensor(twist0, requires_grad=True)
    bd = total_loss(pair, Tensor(da), Tensor(db), leaf)
    (g_stopped,) = grads(bd.l_total, [leaf])

    # numeric derivative of the fully-live objective differs measurably
    h = 1e-6
    tp, tm = twist0.copy(), twist0.copy()
    tp[4] += h
    tm[4] -= h
    live = (
        total_loss(pair, Tensor(da), Tensor(db), Tensor(tp)).l_total.item()
        - total_loss(pair, Tensor(da), Tensor(db), Tensor(tm)).l_total.item()
    ) / (2 * h)
    assert abs(live - g_stopped[4]) > 1e-6
