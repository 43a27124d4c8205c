import threading

import numpy as np
import pytest

from dvokit import autodiff as ad
from dvokit.autodiff import Tensor, finite_diff_check

import oracles


def test_exp_values_and_broadcast_add():
    x = Tensor([0.0, 1.0])
    assert np.allclose(x.exp().data, [1.0, np.e])
    s = Tensor([1.0, 2.0]) + Tensor([10.0])
    assert np.array_equal(s.data, [11.0, 12.0])


def test_abs_value_and_subgradient():
    x = Tensor([-3.0], requires_grad=True)
    y = x.abs().sum()
    (gx,) = ad.grads(y, [x])
    assert y.item() == 3.0
    assert gx[0] == -1.0

    z = Tensor([0.0], requires_grad=True)
    (gz,) = ad.grads(z.abs().sum(), [z])
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
            _ = Tensor([-1.0]).sqrt()


def test_matmul_identity_and_hand_case():
    x = Tensor([[2.0], [5.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal((eye @ x).data, x.data)
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal((a @ b).data, [[3.0], [7.0]])


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(4, 3))
    a0 = rng.normal(size=(5, 4))
    err = finite_diff_check(lambda a: (a @ Tensor(b)).sum(), a0, h=1e-6)
    assert err < 1e-6


def test_matmul_dim_mismatch():
    with pytest.raises(ValueError):
        _ = Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))


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
    u = ad.softmax(Tensor(np.full(7, 3.25)))
    assert np.allclose(u.data, np.full(7, 1.0 / 7.0))

    # large-variance rows so the eps bias (eps / var) is below 1e-9
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(scale=300.0, size=(5, 16)))
    gamma, beta = Tensor(np.ones(16)), Tensor(np.zeros(16))
    y = ad.layernorm(x, gamma, beta).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-9
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-9

    assert Tensor([0.0]).gelu().data[0] == 0.0


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
            h = (h @ w).gelu() if i else (h @ w).sigmoid()
        return (h @ ws[-1]).sum()

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
    ("sqrt", lambda t, c: (t * t + 0.7).sqrt().sum()),
    ("abs", lambda t, c: (t + 0.173).abs().sum()),
    ("clamp", lambda t, c: t.clamp(-0.5, 0.5).sum()),
    ("pow", lambda t, c: ((t * t + 0.2) ** 1.5).sum()),
    ("sin", lambda t, c: t.sin().sum()),
    ("cos", lambda t, c: t.cos().mean()),
    ("sigmoid", lambda t, c: t.sigmoid().sum()),
    ("relu", lambda t, c: (t + 0.31).relu().sum()),
    ("gelu", lambda t, c: t.gelu().sum()),
    ("softmax", lambda t, c: (ad.softmax(t, axis=-1) * c).sum()),
]


@pytest.mark.parametrize("name,fn", ELEMENTWISE_CASES, ids=[c[0] for c in ELEMENTWISE_CASES])
def test_every_op_passes_fd_at_ten_random_points(name, fn):
    rng = np.random.default_rng(hash(name) % 2**32)
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
        return ad.where(mask, t * 2.0, t * t).sum()

    assert finite_diff_check(w, rng.normal(size=(3, 3)), h=1e-5) < 1e-4


def test_determinism_bit_identical():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 8))

    def run():
        x = Tensor(a, requires_grad=True)
        y = ad.softmax((x @ Tensor(b)).gelu(), axis=-1).mean()
        (g,) = ad.grads(y, [x])
        return y.item(), g

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "matmul", "where", "linear"])
def test_no_gradient_is_computed_for_a_constant_operand(op):
    rng = np.random.default_rng(11)
    x = ad.parameter(rng.normal(size=(3, 3)))
    c = Tensor(rng.normal(size=(3, 3)) + 3.0)
    build = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "matmul": lambda a, b: a @ b,
        "where": lambda a, b: ad.where(np.eye(3, dtype=bool), a, b),
        "linear": lambda a, b: ad.linear(a, b, Tensor(np.zeros(3))),
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


def _frozen(op, frozen):
    """`op` with its input number `frozen` a constant (a frozen weight, or a
    projection that needs no gradient)."""
    return lambda *inputs, **kwargs: op(*(t.detach() if i == frozen else t for i, t in enumerate(inputs)), **kwargs)


def _swapped_rows(op):
    """`op` on its first input with the last two axes swapped, the strided
    view `nn.Conv1x1` projects."""
    return lambda x, *rest: op(oracles.swap_last(x), *rest)


FUSED_OPS = {
    # name: (fused op, composite oracle, input shapes or draw(rng), keyword arguments)
    "linear": (ad.linear, oracles.linear_composite, [(5, 6), (6, 4), (4,)], {}),
    "linear-batched": (ad.linear, oracles.linear_composite, [(2, 5, 6), (6, 4), (4,)], {}),
    "linear-frozen-weight": (
        _frozen(ad.linear, 1), _frozen(oracles.linear_composite, 1), [(2, 5, 6), (6, 4), (4,)], {}
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
    "conv3x3_up2": (ad.conv3x3_up2, oracles.conv3x3_up2_composite, [(3, 3, 5), (3, 3, 3, 4), (4,)], {}),
    "conv3x3_up2-batched": (
        ad.conv3x3_up2, oracles.conv3x3_up2_composite, [(2, 2, 3, 3, 5), (3, 3, 3, 2), (2,)], {}
    ),
    "layernorm": (ad.layernorm, oracles.layernorm_composite, [(5, 8), (8,), (8,)], {}),
    "softmax-axis-1": (ad.softmax, oracles.softmax_composite, [(3, 4, 5)], {"axis": -1}),
    "softmax-axis0": (ad.softmax, oracles.softmax_composite, [(3, 4, 5)], {"axis": 0}),
    "ssim": (ad.ssim, oracles.ssim_composite, [(3, 6, 7), (3, 6, 7)], {}),
    "bilinear_sample": (
        ad.bilinear_sample, oracles.bilinear_sample_composite, [(2, 5, 6), _coords_off_grid], {"tol": 1e-9}
    ),
    "bilinear_sample-on-grid": (
        ad.bilinear_sample, oracles.bilinear_sample_composite, [(2, 5, 6), _coords_on_grid], {"tol": 1e-9}
    ),
}

FUSED_FD_CASES = [
    ("linear", 0), ("linear", 1), ("linear", 2),
    ("linear-batched", 0), ("linear-batched", 1), ("linear-batched", 2),
    ("linear-frozen-weight", 0), ("linear-frozen-weight", 2),
    ("attention-self", 0), ("attention-self-batched", 0), ("attention-self-7-tokens", 0),
    ("attention-cross", 0), ("attention-cross", 1), ("attention-cross-batched", 0), ("attention-cross-batched", 1),
    ("attention-cross-frozen-q", 1), ("attention-cross-frozen-kv", 0),
    ("conv3x3", 0), ("conv3x3", 1), ("conv3x3", 2),
    ("conv3x3-batched", 0), ("conv3x3-batched", 1), ("conv3x3-batched", 2),
    ("conv3x3_up2", 0), ("conv3x3_up2", 1), ("conv3x3_up2", 2),
    ("conv3x3_up2-batched", 0), ("conv3x3_up2-batched", 1), ("conv3x3_up2-batched", 2),
    ("layernorm", 0), ("layernorm", 1), ("layernorm", 2),
    ("softmax-axis-1", 0), ("softmax-axis0", 0),
    ("ssim", 0), ("ssim", 1), ("bilinear_sample", 0), ("bilinear_sample", 1),
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
# 64 px pretraining keeps 7 tokens of one frame), on which the fused ops
# must give what the composites gave, bit for bit.
MODEL_SHAPE_CASES = {
    "linear-encoder-qkv": (ad.linear, oracles.linear_composite, [(2, 16, 64), (64, 192), (192,)], {}),
    "linear-frozen-decoder-mlp": (
        _frozen(ad.linear, 1), _frozen(oracles.linear_composite, 1), [(2, 64, 48), (48, 192), (192,)], {}
    ),
    "linear-dpt-projection": (
        _swapped_rows(ad.linear), _swapped_rows(oracles.linear_composite), [(2, 48, 256), (48, 48), (48,)], {}
    ),
    "attention-encoder-32px": (ad.attention, oracles.attention_composite, [(2, 16, 192)], {"heads": 4}),
    "attention-masked-encoder-64px": (ad.attention, oracles.attention_composite, [(7, 192)], {"heads": 4}),
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


def test_fused_layers_check_their_operands():
    with pytest.raises(ValueError, match=r"linear expects \(\.\.\., D\), \(D, D'\) and \(D',\)"):
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
    with pytest.raises(ValueError, match="linear expects"):
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones(4)))
    for packed in ([(5, 10)], [(5, 4), (6, 4)], [(2, 5, 4), (3, 6, 8)], [(5, 6), (6, 12)]):
        with pytest.raises(ValueError, match="attention expects"):
            ad.attention(*(Tensor(np.ones(shape)) for shape in packed), heads=4)


@pytest.mark.parametrize("name", list(FUSED_OPS))
def test_fused_op_traps_nan_input_in_checked_mode(name):
    op, _, shapes, kwargs = FUSED_OPS[name]
    inputs = [shape(np.random.default_rng(0)) if callable(shape) else np.ones(shape) for shape in shapes]
    inputs[0][0, 0] = np.nan
    tensors = [Tensor(a, requires_grad=True) for a in inputs]
    op_name = name.split("-")[0]
    with pytest.raises(ad.NonFiniteError, match=f"'{op_name}'"):
        op(*tensors, **kwargs)
    with ad.checked(False):
        out = op(*tensors, **kwargs)
    assert out.op == op_name
    assert np.isnan(out.data).any()


@pytest.mark.parametrize("op", [ad.conv3x3, ad.conv3x3_up2], ids=["conv3x3", "conv3x3_up2"])
def test_conv_ops_check_their_operands(op):
    name = op.__name__
    with pytest.raises(ValueError, match=f"{name} expects"):
        op(Tensor(np.ones((4, 4))), Tensor(np.ones((3, 3, 4, 2))), Tensor(np.ones(2)))
    with pytest.raises(ValueError, match=rf"{name} weight must be \(3, 3, 2, C_out\)"):
        op(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 3, 3, 2))), Tensor(np.ones(2)))
    with pytest.raises(ValueError, match=rf"{name} bias must be \(2,\)"):
        op(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 3, 2, 2))), Tensor(np.ones(3)))


@pytest.mark.parametrize("op", [ad.conv3x3, ad.conv3x3_up2], ids=["conv3x3", "conv3x3_up2"])
def test_conv_ops_give_each_map_of_a_batch_what_it_gets_alone(op):
    # 12 maps of 48 channels at 4x4 px: a GEMM over the whole batch would take
    # OpenBLAS's large-matrix kernel (> 1e6 multiply-adds), one map's alone
    # its small-matrix kernel, which rounds differently
    rng = np.random.default_rng(5)
    x, weight, bias = rng.normal(size=(3, 4, 48, 4, 4)), rng.normal(size=(3, 3, 48, 48)), rng.normal(size=48)
    batched = op(Tensor(x), Tensor(weight), Tensor(bias)).data
    for i in np.ndindex(3, 4):
        assert np.array_equal(batched[i], op(Tensor(x[i]), Tensor(weight), Tensor(bias)).data)


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
                ad.parameter([-1.0]).sqrt()
        bad = np.ones((1, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ad.NonFiniteError, match="'conv3x3_up2'"):
            ad.conv3x3_up2(Tensor(bad), ad.parameter(np.ones((3, 3, 1, 1))), ad.parameter(np.zeros(1)))
