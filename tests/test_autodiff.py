import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from dvokit import autodiff as ad
from dvokit import nn
from dvokit.autodiff import Tensor
from dvokit.geometry import CameraIntrinsics, bilinear_sample, pose_from_twist, reproject, rotation_from_axis_angle
from dvokit.losses import depth_consistency, edge_weights, masked_mean, photometric_loss, smoothness

import oracles
from oracles import finite_diff_check


def test_exp_values_and_broadcast_add():
    x = Tensor([0.0, 1.0])
    assert np.allclose(x.exp().data, [1.0, np.e])
    s = Tensor([1.0, 2.0]) + Tensor([10.0])
    assert np.array_equal(s.data, [11.0, 12.0])


def test_abs_value_and_subgradient():
    x = Tensor([-3.0], requires_grad=True)
    y = oracles.absolute(x).sum()
    (gx,) = ad.grads(y, [x])
    assert y.item() == 3.0
    assert gx[0] == -1.0

    z = Tensor([0.0], requires_grad=True)
    (gz,) = ad.grads(oracles.absolute(z).sum(), [z])
    assert gz[0] == 0.0  # subgradient 0 at 0


def test_non_broadcastable_shapes_raise():
    with pytest.raises(ValueError):
        _ = Tensor(np.zeros(3)) + Tensor(np.zeros(4))


def test_div_by_zero_checked_mode():
    with pytest.raises(ZeroDivisionError):
        _ = Tensor([1.0]) / Tensor([0.0])
    with ad.checked(False):
        with np.errstate(divide="ignore"):
            out = Tensor([1.0]) / Tensor([0.0])
        assert np.isinf(out.data[0])


def test_nan_trap():
    with np.errstate(invalid="ignore"):
        with pytest.raises(ad.NonFiniteError):
            _ = oracles.sqrt(Tensor([-1.0]))


def test_matmul_identity_and_hand_case():
    x = Tensor([[2.0], [5.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(oracles.matmul(eye, x).data, x.data)
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal(oracles.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(4, 3))
    a0 = rng.normal(size=(5, 4))
    err = finite_diff_check(lambda a: oracles.matmul(a, Tensor(b)).sum(), a0, h=1e-6)
    assert err < 1e-6


def test_matmul_dim_mismatch():
    with pytest.raises(ValueError):
        _ = oracles.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_mean_and_empty_reduction():
    assert Tensor([2.0, 4.0]).mean().item() == 3.0
    empty = Tensor(np.ones((4, 4)))[np.zeros((4, 4), dtype=bool)]
    with pytest.raises(ad.EmptyValidSetError, match="empty-valid-set"):
        empty.sum()
    with pytest.raises(ad.EmptyValidSetError):
        Tensor(np.ones((4, 4)))[np.zeros((4, 4), dtype=bool)].mean()


def test_mean_gradient_is_uniform():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (g,) = ad.grads(x.mean(), [x])
    assert np.allclose(g, np.full((2, 3), 1.0 / 6.0))


def test_softmax_uniform_and_layernorm_moments_and_gelu_zero():
    u = oracles.softmax(Tensor(np.full(7, 3.25)))
    assert np.allclose(u.data, np.full(7, 1.0 / 7.0))

    # large-variance rows so the eps bias (eps / var) is below 1e-9
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(scale=300.0, size=(5, 16)))
    gamma, beta = Tensor(np.ones(16)), Tensor(np.zeros(16))
    y = ad.layernorm(x, gamma, beta).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-9
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-9

    assert oracles.gelu(Tensor([0.0])).data[0] == 0.0


def test_backward_simple_square_and_disconnected_leaf():
    x = Tensor([3.0], requires_grad=True)
    y = Tensor([1.0], requires_grad=True)
    loss = (x * x).sum()
    found = ad.backward(loss)
    assert list(found) == [id(x)]  # the disconnected leaf is not reached
    assert found[id(x)][0] == 6.0
    gx, gy = ad.grads(loss, [x, y])
    assert gx[0] == 6.0
    assert np.all(gy == 0.0)


def test_data_keeps_float32_and_float64_and_python_scalars_take_the_tensors_dtype():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    assert Tensor(np.ones(2)).data.dtype == np.float64
    assert Tensor(np.ones(2, np.int64)).data.dtype == np.float64
    assert Tensor([True, False]).data.dtype == np.float64
    x = Tensor(np.array([0.1, 3.0], np.float32), requires_grad=True)
    for y in (x * 0.1, 0.1 * x, x + 1, x - 0.5, x / 3.0, 3.0 / x, x**2.0, x.sigmoid(), x.clip(0.2, 1.0)):
        assert y.data.dtype == np.float32, y.op
    assert (x * np.ones(2)).data.dtype == np.float64  # a float64 array promotes, as in numpy


def test_float64_consumers_hand_a_float32_tensor_its_gradient_in_float32():
    c1, c2 = Tensor(np.array([0.1, 0.3, -0.7])), Tensor(np.array([1.0 / 3.0, 1.0 / 7.0, 2.0]))

    def gradients(x):
        hidden = x.exp()  # a node in x's dtype, whose two consumers are float64
        loss = ((hidden * c1) * (x * c1)).sum() + (hidden * c2).sum()
        return ad.grads(loss, [x])[0], hidden

    x32 = np.array([1.5, -2.0, 0.25], np.float32)
    got, hidden = gradients(Tensor(x32, requires_grad=True))
    assert hidden.data.dtype == np.float32 and got.dtype == np.float32
    want, _ = gradients(Tensor(x32.astype(np.float64), requires_grad=True))
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(x * 2.0)


def test_three_layer_mlp_gradient_vs_finite_differences():
    rng = np.random.default_rng(3)
    sizes = [(5, 8), (8, 8), (8, 1)]
    weights = [rng.normal(scale=0.5, size=s) for s in sizes]
    x0 = rng.normal(size=(2, 5))

    def run(inp, ws):
        h = inp
        for i, w in enumerate(ws[:-1]):
            h = oracles.gelu(oracles.matmul(h, w)) if i else oracles.matmul(h, w).sigmoid()
        return oracles.matmul(h, ws[-1]).sum()

    # gradient w.r.t. the input
    err = finite_diff_check(lambda t: run(t, [Tensor(w) for w in weights]), x0, h=1e-5)
    assert err < 1e-4
    # gradient w.r.t. each weight matrix
    for i in range(3):
        def f(w, i=i):
            ws = [Tensor(v) for v in weights]
            ws[i] = w
            return run(Tensor(x0), ws)

        assert finite_diff_check(f, weights[i], h=1e-5) < 1e-4


def test_finite_diff_sum_is_tiny():
    rng = np.random.default_rng(4)
    err = finite_diff_check(lambda t: t.sum(), rng.normal(size=(3, 5)), h=1e-4)
    assert err < 1e-10


def test_finite_diff_negative_control():
    def wrong_square(t):
        # deliberately wrong backward: claims d(x^2)/dx = 3x
        out = np.square(t.data)
        return Tensor._make(out, (t,), lambda g: (g * 3.0 * t.data,), "bad-square").sum()

    err = finite_diff_check(wrong_square, np.array([2.0, -1.5]), h=1e-5)
    assert err > 1e-2


ELEMENTWISE_CASES = [
    ("add", lambda t, c: (t + c).sum()),
    ("sub", lambda t, c: (c - t).mean()),
    ("mul", lambda t, c: (t * c).sum()),
    ("div", lambda t, c: (t / (c * c + 0.5)).sum()),
    ("exp", lambda t, c: (t * 0.3).exp().sum()),
    ("sqrt", lambda t, c: oracles.sqrt(t * t + 0.7).sum()),
    ("abs", lambda t, c: oracles.absolute(t + 0.173).sum()),
    ("pow", lambda t, c: ((t * t + 0.2) ** 1.5).sum()),
    ("sin", lambda t, c: oracles.sin(t).sum()),
    ("cos", lambda t, c: oracles.cos(t).mean()),
    ("sigmoid", lambda t, c: t.sigmoid().sum()),
    ("relu", lambda t, c: (t + 0.31).relu().sum()),
    ("gelu", lambda t, c: oracles.gelu(t).sum()),
    ("softmax", lambda t, c: (oracles.softmax(t, axis=-1) * c).sum()),
]


@pytest.mark.parametrize("name,fn", ELEMENTWISE_CASES, ids=[c[0] for c in ELEMENTWISE_CASES])
def test_every_op_passes_fd_at_ten_random_points(name, fn):
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(10):
        x0 = rng.normal(scale=0.8, size=(3, 4))
        c = Tensor(rng.normal(size=(3, 4)))
        err = finite_diff_check(lambda t: fn(t, c), x0, h=1e-5)
        assert err < 1e-4, f"{name}: fd error {err}"


def test_structural_ops_gradients():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 6))

    def via_structs(t):
        a = t.reshape(2, 12).transpose(1, 0)  # (12, 2)
        b = ad.concat([a, a * 2.0], axis=1)  # (12, 4)
        c = ad.concat([b.reshape(1, 12, 4), (b + 1.0).reshape(1, 12, 4)], axis=0)  # (2, 12, 4)
        d = c[0, 2:9, :3]
        return (d * d).sum()

    assert finite_diff_check(via_structs, x0, h=1e-5) < 1e-4


def test_boolean_mask_getitem_backward_equals_np_add_at_bitwise():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(5, 6, 2)), requires_grad=True)
    mask = rng.random((5, 6)) < 0.5
    c = rng.normal(size=(int(mask.sum()), 2))
    c[0, 0], c[2], c[-1, 1] = -0.0, -0.0, -0.0
    got = ad.grads((x[mask] * Tensor(c)).sum(), [x])[0]
    want = np.zeros(x.shape)
    np.add.at(want, (mask,), c)
    assert got.tobytes() == want.tobytes()


def test_gather_and_scatter_gradients():
    rng = np.random.default_rng(8)
    img0 = rng.normal(size=(2, 5, 5))
    iy = np.array([[0, 4], [2, 2]])
    ix = np.array([[1, 3], [2, 2]])  # repeated index exercises accumulation

    def g(t):  # integer-array getitem: repeated elements sum with np.add.at
        return (t[:, iy, ix] * 1.7).sum()

    assert finite_diff_check(g, img0, h=1e-5) < 1e-4

    base0 = rng.normal(size=(6, 3))
    rows = Tensor(rng.normal(size=(2, 3)))

    def s(t):
        return (ad.row_scatter(t, np.array([1, 4]), rows) ** 2.0).sum()

    assert finite_diff_check(s, base0, h=1e-5) < 1e-4

    def s_rows(t):
        return (ad.row_scatter(Tensor(base0), np.array([1, 4]), t) ** 2.0).sum()

    assert finite_diff_check(s_rows, rng.normal(size=(2, 3)), h=1e-5) < 1e-4

    # leading axes: rows are replaced on axis -2 of every batch entry
    base_b = rng.normal(size=(2, 6, 3))
    rows_b = rng.normal(size=(2, 2, 3))
    out = ad.row_scatter(Tensor(base_b), np.array([1, 4]), Tensor(rows_b)).data
    for i in range(2):
        assert np.array_equal(out[i], ad.row_scatter(Tensor(base_b[i]), np.array([1, 4]), Tensor(rows_b[i])).data)

    def s_batched(t):
        return (ad.row_scatter(t, np.array([1, 4]), Tensor(rows_b)) ** 2.0).sum()

    assert finite_diff_check(s_batched, base_b, h=1e-5) < 1e-4

    def s_rows_batched(t):
        return (ad.row_scatter(Tensor(base_b), np.array([1, 4]), t) ** 2.0).sum()

    assert finite_diff_check(s_rows_batched, rows_b, h=1e-5) < 1e-4


def test_row_scatter_with_a_per_pair_index_is_the_per_pair_loop():
    rng = np.random.default_rng(10)
    base0, rows0 = rng.normal(size=(2, 6, 3)), rng.normal(size=(2, 2, 3))
    idx = np.array([[1, 4], [0, 5]])  # each pair's own rows, as per-pair masks keep
    c = rng.normal(size=base0.shape)

    def run(base, i, rows, weight):
        leaves = [Tensor(base, requires_grad=True), Tensor(rows, requires_grad=True)]
        out = ad.row_scatter(leaves[0], i, leaves[1])
        return [out.data] + ad.grads((out * Tensor(weight)).sum(), leaves)

    shared = run(base0, idx, rows0, c)
    for p in range(2):
        lone = run(base0[p], idx[p], rows0[p], c[p])
        assert all(s[p].tobytes() == v.tobytes() for s, v in zip(shared, lone))
    assert finite_diff_check(lambda t: (ad.row_scatter(t, idx, Tensor(rows0)) ** 2.0).sum(), base0, h=1e-5) < 1e-4
    assert finite_diff_check(lambda t: (ad.row_scatter(Tensor(base0), idx, t) ** 2.0).sum(), rows0, h=1e-5) < 1e-4


def test_upsample_nearest_and_where_gradients():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(2, 3, 3))
    assert finite_diff_check(lambda t: ad.upsample_nearest(t, 2).mean(), x0, h=1e-5) < 1e-4
    xb = rng.normal(size=(2, 2, 3, 4))
    cb = Tensor(rng.normal(size=(2, 2, 9, 12)))
    up = ad.upsample_nearest(Tensor(xb), 3).data
    assert up.shape == (2, 2, 9, 12)
    assert np.array_equal(up[1], ad.upsample_nearest(Tensor(xb[1]), 3).data)
    assert finite_diff_check(lambda t: (ad.upsample_nearest(t, 3) * cb).sum(), xb, h=1e-5) < 1e-4

    mask = rng.random((3, 3)) > 0.5

    def w(t):
        return oracles.where(mask, t * 2.0, t * t).sum()

    assert finite_diff_check(w, rng.normal(size=(3, 3)), h=1e-5) < 1e-4


@pytest.mark.parametrize("factor", [2.5, True, 0, -2], ids=["float", "bool", "zero", "negative"])
def test_upsample_nearest_refuses_a_factor_that_is_not_a_positive_int(factor):
    with pytest.raises(ValueError, match=f"upsample_nearest factor must be an int of at least 1, got {factor!r}"):
        ad.upsample_nearest(Tensor(np.ones((2, 3, 3))), factor)


# (2, 48, 32, 32) and (2, 48, 8, 8) are the DPT head's maps at 64 px; a
# width of 1 is the one layout in which numpy sums each block as one run
@pytest.mark.parametrize(
    "shape", [(2, 48, 32, 32), (2, 48, 8, 8), (48, 5, 6), (3, 4, 1)], ids=["32px", "8px", "no-lead-axis", "width-1"]
)
@pytest.mark.parametrize("k", [2, 4])
def test_upsample_nearest_backward_is_numpys_block_sum_bit_for_bit(shape, k):
    rng = np.random.default_rng(k + sum(shape))
    *lead, h, w = shape
    g = rng.normal(size=(*lead, h * k, w * k))
    # blocks of -0.0, which numpy's sum turns into +0.0, and blocks that
    # mix zeros of both signs
    g[..., :k, :k] = -0.0
    g[..., -k:, -k:] = np.where(rng.random((k, k)) < 0.5, -0.0, 0.0)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    (got,) = ad.grads((ad.upsample_nearest(x, k) * Tensor(g)).sum(), [x])
    want = g.reshape(*lead, h, k, w, k).sum(axis=(-3, -1))
    assert got.tobytes() == want.tobytes()


def test_determinism_bit_identical():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 8))

    def run():
        x = Tensor(a, requires_grad=True)
        y = oracles.softmax(oracles.gelu(oracles.matmul(x, Tensor(b))), axis=-1).mean()
        (g,) = ad.grads(y, [x])
        return y.item(), g

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "matmul", "where", "linear", "gelu_linear"])
def test_no_gradient_is_computed_for_a_constant_operand(op):
    rng = np.random.default_rng(11)
    x = ad.parameter(rng.normal(size=(3, 3)))
    c = Tensor(rng.normal(size=(3, 3)) + 3.0)
    build = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "matmul": oracles.matmul,
        "where": lambda a, b: oracles.where(np.eye(3, dtype=bool), a, b),
        "linear": lambda a, b: ad.linear(a, b, Tensor(np.zeros(3))),
        "gelu_linear": lambda a, b: ad.gelu_linear(a, b, Tensor(np.zeros(3))),
    }[op]
    for out, const_pos in ((build(x, c), 1), (build(c, x), 0)):
        grads_out = out._grad_fn(np.ones(out.shape))
        assert grads_out[const_pos] is None
        assert grads_out[1 - const_pos].shape == x.shape


def test_tape_visits_each_op_once():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    z = y + y  # diamond: y consumed twice
    tape = ad.Tape.trace(z.sum())
    ids = [id(n) for n in tape.nodes]
    assert len(ids) == len(set(ids))
    (g,) = ad.grads(z.sum(), [x])
    assert np.array_equal(g, [4.0, 4.0])


# ---- fused ops: one graph node each, checked against the composites they replaced ----

def _coords_off_grid(rng):
    """(4, 3, 2) sample coordinates for a (..., 5, 6) image, in and around
    it, each at least 0.05 px from an integer: finite differences of the
    sampler are one-sided at integers and at the clamped borders."""
    xy = rng.uniform([-1.5, -1.5], [6.5, 5.5], size=(4, 3, 2))
    near = np.abs(xy - np.round(xy)) < 0.05
    return np.where(near, xy + 0.1, xy)


def _coords_on_grid(_rng):
    """Sample coordinates for a (..., 5, 6) image at exact integers, both
    borders of each axis (0 and W-1, 0 and H-1), outside and between."""
    return np.array(
        [[0.0, 0.0], [5.0, 4.0], [0.0, 4.0], [5.0, 0.0], [2.0, 3.0], [3.0, 2.5],
         [-0.7, 1.0], [6.3, 5.2], [1.5, -2.0], [4.0, 1.25], [2.5, 0.0], [5.0, 2.75]]
    )


def _rotvec_in_the_series(rng):
    """An axis-angle vector of |r| = 1e-7, in the Taylor branch of
    `rotation_from_axis_angle` (|r|^2 < 1e-12); differences of 1e-5 leave it."""
    axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis) * 1e-7


def _frozen(op, frozen):
    """`op` with its input number `frozen` a constant (a frozen weight, or a
    projection that needs no gradient)."""
    return lambda *inputs, **kwargs: op(*(Tensor(t.data) if i == frozen else t for i, t in enumerate(inputs)), **kwargs)


def _swapped_rows(op):
    """`op` on its first input with the last two axes swapped: the rows of a
    channel-major map, a view strided by its width."""
    return lambda x, *rest: op(oracles.swap_last(x), *rest)


def _swapped_draw(shape):
    """A draw of `shape` seen with its last two axes swapped: the rows of a
    channel-major map, as an input array."""
    return lambda rng: np.swapaxes(rng.normal(size=shape), -1, -2)


# a 7x6 camera and depths of 2-4 m in front of it, moved by twists of a few
# cm and degrees: every pixel stays in front, so the warp is smooth there
_K_7X6 = CameraIntrinsics(fx=6.3, fy=6.3, cx=3.0, cy=2.5, width=7, height=6)
_POSE_7X6 = pose_from_twist([0.03, -0.02, 0.05, 0.02, -0.03, 0.01])
_EDGES_7X6 = edge_weights(np.random.default_rng(3).random((3, 6, 7)))


def _depth_7x6(rng):
    return rng.uniform(2.0, 4.0, size=(6, 7))


def _twist_small(rng):
    return rng.normal(scale=0.05, size=6)


# a valid set of the 7x6 camera that holds pixel (0, 0), and a mask on it
_VALID_7X6 = np.random.default_rng(4).random((6, 7)) > 0.3
_VALID_7X6[0, 0] = True
_MASK_7X6 = np.random.default_rng(5).uniform(0.2, 1.0, size=int(_VALID_7X6.sum()))


def _uvz_7x6(rng):
    """A (6, 7, 3) warp map: each pixel's flow 0.1-0.9 px right of and
    below it, off the sampler's kinks (pixel (0, 0)'s in cell (0, 0)), and
    z of 2-4 m."""
    v, u = np.mgrid[0:6, 0:7].astype(np.float64)
    flow = np.stack([u, v], axis=-1) + rng.uniform(0.1, 0.9, size=(6, 7, 2))
    return np.concatenate([flow, rng.uniform(2.0, 4.0, size=(6, 7, 1))], axis=2)


def _consistency(depth_b, uvz, valid):
    """`depth_consistency` with depth b first, so that a NaN put in the
    first input lands in depth b: a NaN flow is the warp's to trap."""
    return depth_consistency(uvz, depth_b, valid)


def _consistency_composite(depth_b, uvz, valid):
    return oracles.depth_consistency_composite(uvz[..., :2], uvz[..., 2], depth_b, valid)


FUSED_OPS = {
    # name: (fused op, composite oracle, input shapes or draw(rng), keyword arguments)
    "linear": (ad.linear, oracles.linear_composite, [(5, 6), (6, 4), (4,)], {}),
    "linear-batched": (ad.linear, oracles.linear_composite, [(2, 5, 6), (6, 4), (4,)], {}),
    "linear-frozen-weight": (
        _frozen(ad.linear, 1), _frozen(oracles.linear_composite, 1), [(2, 5, 6), (6, 4), (4,)], {}
    ),
    "gelu_linear": (ad.gelu_linear, oracles.gelu_linear_composite, [(5, 6), (6, 4), (4,)], {}),
    "gelu_linear-batched": (ad.gelu_linear, oracles.gelu_linear_composite, [(2, 5, 6), (6, 4), (4,)], {}),
    "gelu_linear-swapped-to-1": (
        ad.gelu_linear, oracles.gelu_linear_composite, [_swapped_draw((2, 6, 5)), (6, 1), (1,)], {}
    ),
    "attention-self": (ad.attention, oracles.attention_composite, [(5, 12)], {"heads": 2}),
    "attention-self-batched": (ad.attention, oracles.attention_composite, [(2, 5, 12)], {"heads": 2}),
    "attention-self-7-tokens": (ad.attention, oracles.attention_composite, [(7, 24)], {"heads": 4}),
    "attention-cross": (ad.attention, oracles.attention_composite, [(5, 4), (6, 8)], {"heads": 2}),
    "attention-cross-batched": (ad.attention, oracles.attention_composite, [(2, 5, 4), (2, 6, 8)], {"heads": 2}),
    "attention-cross-frozen-q": (
        _frozen(ad.attention, 0), _frozen(oracles.attention_composite, 0), [(5, 4), (6, 8)], {"heads": 2}
    ),
    "attention-cross-frozen-kv": (
        _frozen(ad.attention, 1), _frozen(oracles.attention_composite, 1), [(5, 4), (6, 8)], {"heads": 2}
    ),
    "conv3x3": (ad.conv3x3, oracles.conv3x3_composite, [(3, 5, 6), (3, 3, 3, 4), (4,)], {}),
    "conv3x3-batched": (ad.conv3x3, oracles.conv3x3_composite, [(2, 3, 5, 6), (3, 3, 3, 4), (4,)], {}),
    "conv3x3_up2": (oracles.conv3x3_up2, oracles.conv3x3_up2_composite, [(3, 3, 5), (3, 3, 3, 4), (4,)], {}),
    "conv3x3_up2-batched": (
        oracles.conv3x3_up2, oracles.conv3x3_up2_composite, [(2, 2, 3, 3, 5), (3, 3, 3, 2), (2,)], {}
    ),
    "conv3x3_up2_gelu_linear": (
        ad.conv3x3_up2_gelu_linear,
        oracles.conv3x3_up2_gelu_linear_composite,
        [(3, 3, 5), (3, 3, 3, 4), (4,), (4, 1), (1,)],
        {},
    ),
    "conv3x3_up2_gelu_linear-batched": (
        ad.conv3x3_up2_gelu_linear,
        oracles.conv3x3_up2_gelu_linear_composite,
        [(2, 2, 3, 3, 5), (3, 3, 3, 2), (2,), (2, 1), (1,)],
        {},
    ),
    "layernorm": (ad.layernorm, oracles.layernorm_composite, [(5, 8), (8,), (8,)], {}),
    "softmax-axis-1": (oracles.softmax, oracles.softmax_composite, [(3, 4, 5)], {"axis": -1}),
    "softmax-axis0": (oracles.softmax, oracles.softmax_composite, [(3, 4, 5)], {"axis": 0}),
    "ssim": (oracles.ssim, oracles.ssim_composite, [(3, 6, 7), (3, 6, 7)], {}),
    # at the warp's 1e-9 px tolerance
    "bilinear_sample": (bilinear_sample, oracles.bilinear_sample_composite, [(2, 5, 6), _coords_off_grid], {}),
    "bilinear_sample-on-grid": (bilinear_sample, oracles.bilinear_sample_composite, [(2, 5, 6), _coords_on_grid], {}),
    "rotation_from_axis_angle": (rotation_from_axis_angle, oracles.rotation_from_axis_angle_composite, [(3,)], {}),
    "rotation_from_axis_angle-taylor": (
        rotation_from_axis_angle, oracles.rotation_from_axis_angle_composite, [_rotvec_in_the_series], {}
    ),
    # the warp of a depth map by a twist (pose mode's), or by a constant Pose (depth mode's)
    "reproject-twist": (reproject, oracles.reproject_composite, [_depth_7x6, _twist_small], {"k": _K_7X6}),
    "reproject-pose": (reproject, oracles.reproject_composite, [_depth_7x6], {"pose": _POSE_7X6, "k": _K_7X6}),
    "smoothness": (smoothness, oracles.smoothness_composite, [_depth_7x6], {"edges": _EDGES_7X6}),
    "photometric_loss": (photometric_loss, oracles.photometric_loss_composite, [(3, 6, 7), (3, 6, 7)], {}),
    "depth_consistency": (_consistency, _consistency_composite, [_depth_7x6, _uvz_7x6], {"valid": _VALID_7X6}),
    "masked_mean": (
        masked_mean, oracles.masked_mean_composite, [(6, 7)], {"mask": _MASK_7X6, "valid": _VALID_7X6}
    ),
}

FUSED_FD_CASES = [
    ("linear", 0), ("linear", 1), ("linear", 2),
    ("linear-batched", 0), ("linear-batched", 1), ("linear-batched", 2),
    ("linear-frozen-weight", 0), ("linear-frozen-weight", 2),
    ("gelu_linear", 0), ("gelu_linear", 1), ("gelu_linear", 2),
    ("gelu_linear-batched", 0), ("gelu_linear-batched", 1), ("gelu_linear-batched", 2),
    ("gelu_linear-swapped-to-1", 0), ("gelu_linear-swapped-to-1", 1), ("gelu_linear-swapped-to-1", 2),
    ("attention-self", 0), ("attention-self-batched", 0), ("attention-self-7-tokens", 0),
    ("attention-cross", 0), ("attention-cross", 1), ("attention-cross-batched", 0), ("attention-cross-batched", 1),
    ("attention-cross-frozen-q", 1), ("attention-cross-frozen-kv", 0),
    ("conv3x3", 0), ("conv3x3", 1), ("conv3x3", 2),
    ("conv3x3-batched", 0), ("conv3x3-batched", 1), ("conv3x3-batched", 2),
    ("conv3x3_up2", 0), ("conv3x3_up2", 1), ("conv3x3_up2", 2),
    ("conv3x3_up2-batched", 0), ("conv3x3_up2-batched", 1), ("conv3x3_up2-batched", 2),
    *(("conv3x3_up2_gelu_linear", i) for i in range(5)),
    *(("conv3x3_up2_gelu_linear-batched", i) for i in range(5)),
    ("layernorm", 0), ("layernorm", 1), ("layernorm", 2),
    ("softmax-axis-1", 0), ("softmax-axis0", 0),
    ("ssim", 0), ("ssim", 1), ("bilinear_sample", 0), ("bilinear_sample", 1),
    ("rotation_from_axis_angle", 0), ("rotation_from_axis_angle-taylor", 0),
    ("reproject-twist", 0), ("reproject-twist", 1), ("reproject-pose", 0), ("smoothness", 0),
    ("photometric_loss", 0), ("photometric_loss", 1), ("depth_consistency", 0), ("depth_consistency", 1),
    ("masked_mean", 0),
]


def _draw(shapes, rng, scale=1.0):
    return [shape(rng) if callable(shape) else rng.normal(scale=scale, size=shape) for shape in shapes]


@pytest.mark.parametrize("name,wrt", FUSED_FD_CASES, ids=[f"{n}-wrt{i}" for n, i in FUSED_FD_CASES])
def test_fused_op_passes_fd_at_ten_random_points(name, wrt):
    op, _, shapes, kwargs = FUSED_OPS[name]
    rng = np.random.default_rng(sum(map(ord, name)) + wrt)
    for _ in range(10):
        inputs = _draw(shapes, rng, scale=0.8)
        c = Tensor(rng.normal(size=op(*map(Tensor, inputs), **kwargs).shape))

        def f(t):
            args = [t if i == wrt else Tensor(a) for i, a in enumerate(inputs)]
            return (op(*args, **kwargs) * c).sum()

        err = finite_diff_check(f, inputs[wrt], h=1e-5)
        assert err < 1e-4, f"{name} w.r.t. input {wrt}: fd error {err}"


@pytest.mark.parametrize("name", list(FUSED_OPS))
def test_fused_op_matches_the_composite_it_replaced(name):
    op, composite, shapes, kwargs = FUSED_OPS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    inputs = _draw(shapes, rng)
    c = rng.normal(size=op(*map(Tensor, inputs), **kwargs).shape)

    def run(fn):
        leaves = [Tensor(a, requires_grad=True) for a in inputs]
        out = fn(*leaves, **kwargs)
        return [out.data] + ad.grads((out * Tensor(c)).sum(), leaves)

    for new, old in zip(run(op), run(composite)):
        assert new.shape == old.shape
        assert np.abs(new - old).max() <= 1e-12 * max(1.0, np.abs(old).max())


# The shapes the toy model runs (enc_dim 64, dec_dim 48, 4 heads; both frames
# batched, 16 tokens a frame at 32 px and 64 at 64 px; the masked encoder of
# 64 px pretraining keeps 6 of a frame's 64 tokens, ceil(0.9 * 64) = 58 being
# masked, of one pair or of the two pairs a graph shares), on which the fused
# ops must give what the composites gave, bit for bit.
MODEL_SHAPE_CASES = {
    "linear-encoder-qkv": (ad.linear, oracles.linear_composite, [(2, 16, 64), (64, 192), (192,)], {}),
    "linear-frozen-decoder-mlp": (
        _frozen(ad.linear, 1), _frozen(oracles.linear_composite, 1), [(2, 64, 48), (48, 192), (192,)], {}
    ),
    # the DPT head's reassemble: each tap's C-order tokens projected
    "linear-dpt-reassemble": (ad.linear, oracles.linear_composite, [(2, 64, 48), (48, 48), (48,)], {}),
    # layout cases: channel-major maps projected through their swapped view,
    # 48 -> 48 over a 16 x 16 map and 128 -> 1 over a 64 x 64 one
    "linear-dpt-projection": (
        _swapped_rows(ad.linear), _swapped_rows(oracles.linear_composite), [(2, 48, 256), (48, 48), (48,)], {}
    ),
    "linear-dpt-head-out": (
        _swapped_rows(ad.linear), _swapped_rows(oracles.linear_composite), [(2, 128, 4096), (128, 1), (1,)], {}
    ),
    "attention-encoder-32px": (ad.attention, oracles.attention_composite, [(2, 16, 192)], {"heads": 4}),
    "attention-masked-encoder-64px": (ad.attention, oracles.attention_composite, [(6, 192)], {"heads": 4}),
    "attention-masked-encoder-64px-two-pairs": (
        ad.attention, oracles.attention_composite, [(2, 6, 192)], {"heads": 4}
    ),
    "attention-decoder-self-64px": (ad.attention, oracles.attention_composite, [(2, 64, 144)], {"heads": 4}),
    "attention-decoder-cross-64px": (
        ad.attention, oracles.attention_composite, [(2, 64, 48), (2, 64, 96)], {"heads": 4}
    ),
}


@pytest.mark.parametrize("name", list(MODEL_SHAPE_CASES))
def test_fused_op_is_bit_identical_to_the_composite_at_the_models_shapes(name):
    op, composite, shapes, kwargs = MODEL_SHAPE_CASES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    inputs = _draw(shapes, rng)
    c = rng.normal(size=op(*map(Tensor, inputs), **kwargs).shape)

    def run(fn):
        leaves = [Tensor(a, requires_grad=True) for a in inputs]
        out = fn(*leaves, **kwargs)
        return [out.data] + ad.grads((out * Tensor(c)).sum(), leaves)

    for new, old in zip(run(op), run(composite)):
        assert new.shape == old.shape
        assert np.array_equal(new, old)


def test_linear_returns_the_input_gradient_in_the_inputs_layout():
    rng = np.random.default_rng(12)
    weight, bias = rng.normal(size=(48, 5)), rng.normal(size=5)
    g = rng.normal(size=(2, 64, 5))
    # a reversed view, as the decoder's reference tokens are: its gradient
    # is the plain C-contiguous g @ W.T
    x = Tensor(rng.normal(size=(2, 64, 48))[::-1], requires_grad=True)
    (gx,) = ad.grads((ad.linear(x, Tensor(weight), Tensor(bias)) * Tensor(g)).sum(), [x])
    assert gx.flags.c_contiguous
    assert gx.tobytes() == (g @ weight.T).tobytes()


@pytest.mark.parametrize("frozen", [None, 0, 1, 2], ids=["none-frozen", "x-frozen", "weight-frozen", "bias-frozen"])
@pytest.mark.parametrize(
    "shapes,swapped",
    # an MLP's hidden tokens (batch of two frames), and a (2, 128, 64, 64)
    # map projected to one channel through its swapped view (2, 4096, 128),
    # as the DPT head ran its last projection before `conv3x3_up2_gelu_linear`
    [([(2, 16, 256), (256, 64), (64,)], False), ([(2, 128, 4096), (128, 1), (1,)], True)],
    ids=["tokens", "dpt-head-out"],
)
def test_gelu_linear_is_bit_identical_to_gelu_then_linear(shapes, swapped, frozen):
    rng = np.random.default_rng(shapes[0][-1] + (frozen or 0))
    x, weight, bias = (rng.normal(size=shape) for shape in shapes)
    if swapped:
        x = np.swapaxes(x, -1, -2)
    c = rng.normal(size=(*x.shape[:-1], weight.shape[1]))

    def run(op):
        leaves = [Tensor(a, requires_grad=i != frozen) for i, a in enumerate((x, weight, bias))]
        out = op(*leaves)
        return [out.data] + ad.grads((out * Tensor(c)).sum(), [t for t in leaves if t.requires_grad])

    new, old = run(ad.gelu_linear), run(oracles.gelu_linear_composite)
    assert [a.shape for a in new] == [a.shape for a in old]
    assert _bits(new) == _bits(old)


def test_conv3x3_up2_gelu_linear_matches_the_two_nodes_at_the_heads_shape():
    # the 64 px DPT head: (2, 48, 32, 32) maps, 128 channels, one out. The
    # output and the input and conv-weight gradients are the two nodes'
    # (`conv3x3_up2` and `gelu_linear`), bit for bit; the conv-bias and
    # projection gradients are sums the node takes phase by phase, in
    # another order
    rng = np.random.default_rng(48)
    shapes = [(2, 48, 32, 32), (3, 3, 48, 128), (128,), (128, 1), (1,)]
    inputs = [rng.normal(size=shape) for shape in shapes]
    inputs[1] *= 0.05  # pre-activations of about unit scale, on both sides of GELU's bend
    c = rng.normal(size=(2, 64, 64))

    def run(op):
        leaves = [Tensor(a, requires_grad=True) for a in inputs]
        out = op(*leaves)
        return [out.data] + ad.grads((out * Tensor(c)).sum(), leaves)

    new, old = run(ad.conv3x3_up2_gelu_linear), run(oracles.conv3x3_up2_gelu_linear_composite)
    assert [a.shape for a in new] == [a.shape for a in old]
    assert _bits(new[:3]) == _bits(old[:3])
    for a, b in zip(new[3:], old[3:]):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def _gelu_cdf_points() -> np.ndarray:
    """40,960 inputs, shuffled: a grid over [-40, 40]; |u| = |x / sqrt 2| = 1
    and 6, where the formulas change, and one ulp either side; 0, -0,
    +-1e-300, +-inf and NaN."""
    edges = [
        np.nextafter(e, to) for e in (math.sqrt(2.0), 6.0 * math.sqrt(2.0)) for to in (0.0, e, np.inf)
    ]
    special = [0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan, *edges, *(-e for e in edges)]
    points = np.concatenate([special, np.linspace(-40.0, 40.0, 2 * 256 * 80 - len(special))])
    return np.random.default_rng(0).permutation(points)


@pytest.mark.parametrize("layout", ["c-order", "swapped", "broadcast"])
def test_gelu_cdf_matches_math_erf(layout):
    points = _gelu_cdf_points()
    if layout == "swapped":
        x = _swapped_draw((2, 256, 80))(np.random.default_rng(1))
        x[...] = points.reshape(x.shape)
    elif layout == "broadcast":  # dense in no axis order
        x = np.broadcast_to(points.reshape(80, 512), (2, 80, 512))
    else:
        x = points.reshape(2, 80, 256)
    want = np.vectorize(lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))))(x)
    with np.errstate(all="raise"):  # NaN and the tails raise nothing
        got = ad._gelu_cdf(x)
    assert got.strides == x.strides or layout == "broadcast"
    np.testing.assert_allclose(got, want, rtol=0.0, atol=3.3e-16)
    assert set(got[np.abs(want - 0.5) == 0.5].tolist()) <= {0.0, 1.0}  # exactly, where math.erf says so


def test_gelu_cdf_of_float32_stays_float32_within_2_ulp_of_the_float64_cdf():
    # the special points, and a dense run over |u| < 1's upper end, where a
    # float32 evaluation of the rational was 2.1 ulp of 0.5 out
    x = np.concatenate([_gelu_cdf_points(), np.linspace(-2.0, 2.0, 400_001)]).astype(np.float32)
    got, want = ad._gelu_cdf(x), ad._gelu_cdf(x.astype(np.float64))
    assert got.dtype == np.float32
    number = ~np.isnan(want)  # at NaN input alone
    assert np.array_equal(np.isnan(got), ~number)
    ulp = np.spacing(np.abs(want[number]).astype(np.float32)).astype(np.float64)  # at the cdf's own value
    assert (np.abs(got[number] - want[number]) <= 2.0 * ulp).all()


def test_importing_dvokit_loads_no_scipy():
    code = (
        "import importlib, pkgutil, sys, dvokit\n"
        "for module in pkgutil.iter_modules(dvokit.__path__):\n"
        "    importlib.import_module('dvokit.' + module.name)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ad.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _head_projection(c_out):
    """A fixed projection of `c_out` channels to one, and its bias."""
    return Tensor(np.linspace(-1.0, 1.0, c_out)[:, None]), Tensor([0.1])


# the conv ops by name, each on (x, weight, bias); the DPT head's node with a
# fixed projection to one channel
CONV_OPS = {
    "conv3x3": ad.conv3x3,
    "conv3x3_up2": oracles.conv3x3_up2,
    "conv3x3_up2_gelu_linear": lambda x, weight, bias: ad.conv3x3_up2_gelu_linear(
        x, weight, bias, *_head_projection(weight.shape[-1])
    ),
}


@pytest.mark.parametrize("name", list(CONV_OPS))
@pytest.mark.parametrize("c_out", [48, 128])
def test_conv_forward_is_bit_identical_to_the_two_copy_im2col(name, c_out, monkeypatch):
    # the DPT head's (2, 48, 32, 32) maps, into a fusion unit (48) and the
    # head conv (128)
    op = CONV_OPS[name]
    rng = np.random.default_rng(c_out)
    x, weight, bias = rng.normal(size=(2, 48, 32, 32)), rng.normal(size=(3, 3, 48, c_out)), rng.normal(size=c_out)
    got = op(Tensor(x), Tensor(weight), Tensor(bias)).data
    monkeypatch.setattr(ad, "_taps_forward", oracles.taps_forward_two_copies)
    want = op(Tensor(x), Tensor(weight), Tensor(bias)).data
    assert got.tobytes() == want.tobytes()


def test_fused_layers_check_their_operands():
    with pytest.raises(ValueError, match=r"linear expects \(\.\.\., D\), \(D, D'\) and \(D',\)"):
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
    with pytest.raises(ValueError, match="linear expects"):
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones(4)))
    with pytest.raises(ValueError, match=r"gelu_linear expects \(\.\.\., D\), \(D, D'\) and \(D',\)"):
        ad.gelu_linear(Tensor(np.ones(3)), Tensor(np.ones((3, 5))), Tensor(np.ones(5)))
    for packed in ([(5, 10)], [(5, 4), (6, 4)], [(2, 5, 4), (3, 6, 8)], [(5, 6), (6, 12)]):
        with pytest.raises(ValueError, match="attention expects"):
            ad.attention(*(Tensor(np.ones(shape)) for shape in packed), heads=4)
    # the layers leave the width check to the op: 4 heads do not divide 6
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((5, 6)))
    for layer, inputs in ((nn.SelfAttention(6, 4, rng), (x,)), (nn.CrossAttention(6, 4, rng), (x, x))):
        with pytest.raises(ValueError, match="attention expects"):
            layer(*inputs)


@pytest.mark.parametrize("name", list(FUSED_OPS))
def test_fused_op_traps_nan_input_in_checked_mode(name):
    op, _, shapes, kwargs = FUSED_OPS[name]
    inputs = [shape(np.random.default_rng(0)) if callable(shape) else np.ones(shape) for shape in shapes]
    inputs[0][(0, 0)[: inputs[0].ndim]] = np.nan  # [0, 0], or [0] of a vector
    tensors = [Tensor(a, requires_grad=True) for a in inputs]
    op_name = name.split("-")[0]
    with pytest.raises(ad.NonFiniteError, match=f"'{op_name}'"):
        op(*tensors, **kwargs)
    with ad.checked(False):
        out = op(*tensors, **kwargs)
    assert out.op == op_name
    assert np.isnan(out.data).any()


@pytest.mark.parametrize("name", list(CONV_OPS))
def test_conv_ops_check_their_operands(name):
    op = CONV_OPS[name]
    with pytest.raises(ValueError, match=f"{name} expects"):
        op(Tensor(np.ones((4, 4))), Tensor(np.ones((3, 3, 4, 2))), Tensor(np.ones(2)))
    with pytest.raises(ValueError, match=rf"{name} weight must be \(3, 3, 2, C_out\)"):
        op(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 3, 3, 2))), Tensor(np.ones(2)))
    with pytest.raises(ValueError, match=rf"{name} bias must be \(2,\)"):
        op(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 3, 2, 2))), Tensor(np.ones(3)))


def test_conv3x3_up2_gelu_linear_checks_its_projection():
    x, weight, bias = Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 3, 2, 3))), Tensor(np.ones(3))
    for proj_weight, proj_bias in (((3, 2), (2,)), ((2, 1), (1,)), ((3,), (1,)), ((3, 1), ())):
        with pytest.raises(ValueError, match=r"conv3x3_up2_gelu_linear projection must be \(3, 1\) and \(1,\)"):
            ad.conv3x3_up2_gelu_linear(x, weight, bias, Tensor(np.ones(proj_weight)), Tensor(np.ones(proj_bias)))


@pytest.mark.parametrize("name", list(CONV_OPS))
def test_conv_ops_give_each_map_of_a_batch_what_it_gets_alone(name):
    op = CONV_OPS[name]
    # 12 maps of 48 channels at 4x4 px: a GEMM over the whole batch would take
    # OpenBLAS's large-matrix kernel (> 1e6 multiply-adds), one map's alone
    # its small-matrix kernel, which rounds differently
    rng = np.random.default_rng(5)
    x, weight, bias = rng.normal(size=(3, 4, 48, 4, 4)), rng.normal(size=(3, 3, 48, 48)), rng.normal(size=48)
    batched = op(Tensor(x), Tensor(weight), Tensor(bias)).data
    for i in np.ndindex(3, 4):
        assert np.array_equal(batched[i], op(Tensor(x[i]), Tensor(weight), Tensor(bias)).data)


# ---- the in-place kernels give what the previous ones gave, bit for bit ------------------


def _bits(arrays):
    """Each array's bytes: equal bytes are equal values, signs of zero included."""
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("shape", [(2, 16, 64), (64, 64), (7, 64), (2, 64, 48)], ids=str)
def test_layernorm_is_bit_identical_to_the_previous_kernel(shape):
    rng = np.random.default_rng(shape[-2] * shape[-1])
    d = shape[-1]
    x, c = rng.normal(size=shape), rng.normal(size=shape)
    x.reshape(-1, d)[0] = 0.7  # a constant row, centred to zeros
    c.reshape(-1, d)[1] = 0.0  # a row that gets no gradient
    c.reshape(-1, d)[2, ::2] = -0.0
    gamma, beta = rng.normal(size=d), rng.normal(size=d)
    gamma[:2], beta[:2] = (0.0, -0.0), (-0.0, 0.0)

    def run(op):
        leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = op(*leaves)
        return [out.data] + ad.grads((out * Tensor(c)).sum(), leaves)

    assert _bits(run(ad.layernorm)) == _bits(run(oracles.layernorm_previous))


def _softmax_case(shape, axis):
    rng = np.random.default_rng(sum(shape) - axis)
    x, c = rng.normal(scale=3.0, size=shape), rng.normal(size=shape)
    x[1] = 0.25  # a constant slice along every axis but the first
    c[0] = 0.0
    c[-1, ..., ::3] = -0.0
    return x, c


@pytest.mark.parametrize("axis", [-1, 0])
@pytest.mark.parametrize("shape", [(2, 4, 16, 16), (4, 64, 64), (4, 7, 7)], ids=str)
def test_softmax_is_bit_identical_to_the_previous_kernels(shape, axis, monkeypatch):
    x, c = _softmax_case(shape, axis)

    def run():
        leaf = Tensor(x, requires_grad=True)
        out = oracles.softmax(leaf, axis=axis)
        return [out.data] + ad.grads((out * Tensor(c)).sum(), [leaf])

    new = run()
    monkeypatch.setattr(ad, "_softmax", oracles.softmax_previous)
    monkeypatch.setattr(ad, "_softmax_grad", oracles.softmax_grad_previous)
    assert _bits(new) == _bits(run())


@pytest.mark.parametrize(
    "shapes", [[(2, 64, 144)], [(2, 64, 48), (2, 64, 96)], [(7, 192)]], ids=["self-64px", "cross-64px", "masked-64px"]
)
def test_attention_is_bit_identical_with_the_previous_softmax_kernels(shapes, monkeypatch):
    # the decoder's self- and cross-attention at 64 px, and the masked encoder's
    rng = np.random.default_rng(len(shapes) * shapes[0][-1])
    inputs = [rng.normal(size=shape) for shape in shapes]
    c = rng.normal(size=ad.attention(*map(Tensor, inputs), heads=4).shape)

    def run():
        leaves = [Tensor(a, requires_grad=True) for a in inputs]
        out = ad.attention(*leaves, heads=4)
        return [out.data] + ad.grads((out * Tensor(c)).sum(), leaves)

    new = run()
    monkeypatch.setattr(ad, "_softmax", oracles.softmax_previous)
    monkeypatch.setattr(ad, "_softmax_grad", oracles.softmax_grad_previous)
    assert _bits(new) == _bits(run())


# ---- no_grad: ops record no graph -------------------------------------------------------


def _graph_op(x):
    return ad.conv3x3(x.reshape(1, 2, 3), Tensor(np.ones((3, 3, 1, 2))), Tensor(np.zeros(2))).exp() * 2.0


def test_no_grad_results_are_constants_with_the_same_values():
    x = ad.parameter(np.arange(6.0) / 6.0)
    with_graph = _graph_op(x)
    with ad.no_grad():
        without = _graph_op(x)
    assert with_graph.requires_grad and with_graph._parents
    assert not without.requires_grad
    assert without._parents == () and without._grad_fn is None
    assert np.array_equal(without.data, with_graph.data)
    with pytest.raises(ValueError, match="does not require grad"):
        ad.backward(without.sum())


def test_no_grad_is_restored_after_nesting_and_after_an_exception():
    x = ad.parameter(np.ones(3))
    with ad.no_grad():
        with ad.no_grad():
            assert not (x * 2.0).requires_grad
        assert not (x * 2.0).requires_grad  # the inner exit keeps the outer context
    assert (x * 2.0).requires_grad
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert (x * 2.0).requires_grad


def test_no_grad_does_not_reach_another_thread():
    x = ad.parameter(np.ones(3))
    seen = []
    inside, done = threading.Event(), threading.Event()

    def other():
        inside.wait(timeout=10)
        seen.append((x * 2.0).requires_grad)
        done.set()

    worker = threading.Thread(target=other)
    worker.start()
    with ad.no_grad():
        inside.set()
        assert done.wait(timeout=10)
        assert not (x * 2.0).requires_grad
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [True]


def test_no_grad_keeps_trapping_non_finite_values():
    with ad.no_grad():
        with np.errstate(invalid="ignore"):
            with pytest.raises(ad.NonFiniteError, match="'sqrt'"):
                oracles.sqrt(ad.parameter([-1.0]))
        bad = np.ones((1, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ad.NonFiniteError, match="'conv3x3_up2_gelu_linear'"):
            ad.conv3x3_up2_gelu_linear(
                Tensor(bad), *map(ad.parameter, (np.ones((3, 3, 1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1)))
            )


@pytest.mark.parametrize(
    "axis,keepdims",
    [(None, False), (None, True), (1, False), (-1, False), (-2, True), ((0, 2), False), ((0, -1), True)],
)
def test_reduction_gradient_fill_is_the_broadcast_copy_it_replaced(axis, keepdims):
    # sum's and mean's backward spread the reduction's gradient over the
    # operand's shape into an array of their own, as the copy of a
    # broadcast view did
    t = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
    g = np.asarray(t.data.sum(axis=axis, keepdims=keepdims) * 0.37)
    new, old = t._expand_reduced(g, axis, keepdims), oracles.expand_reduced_previous(t, g, axis, keepdims)
    assert new.shape == old.shape and new.dtype == old.dtype and new.tobytes() == old.tobytes()
    assert new.flags.owndata and new.flags.writeable
