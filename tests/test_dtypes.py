"""The network computes in float32 and the objective and the direct route in
float64. A stray float64 constant on the network path (an np.float64 scalar
or array) would silently promote it back to float64; these tests walk every
node of the graphs the routes build."""

import numpy as np
import pytest

from dvokit import autodiff as ad
from dvokit import direct, model as model_module, train
from dvokit.direct import optimize_direct, perturbed_twist
from dvokit.losses import LossWeights, total_loss
from dvokit.model import DvoModel, forward_dvo, pretrain_step, toy_config
from dvokit.optim import AdamW


def _nodes(*roots):
    """Every tensor the roots were computed from, constants included."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _dtypes(nodes):
    return {(node.op, node.data.dtype.name) for node in nodes}


@pytest.mark.parametrize("head_kind", ["linear", "dpt"])
def test_every_node_of_forward_dvo_is_float32_and_the_objective_float64(head_kind, static_pair_32):
    model = DvoModel(toy_config(head_kind=head_kind), np.random.default_rng(0))
    assert {param.data.dtype for _, param in model.named_parameters()} == {np.dtype(np.float32)}
    outs = forward_dvo(model, static_pair_32.image_a, static_pair_32.image_b)
    network = _nodes(*outs)
    assert {node.data.dtype for node in network} == {np.dtype(np.float32)}, _dtypes(network)
    # every node that total_loss adds on top of the network's is float64
    seen = {id(node) for node in network}
    loss = total_loss(static_pair_32, *outs).l_total
    objective = [node for node in _nodes(loss) if id(node) not in seen]
    assert {node.data.dtype for node in objective} == {np.dtype(np.float64)}, _dtypes(objective)


def test_every_node_of_the_networks_part_of_completion_loss_is_float32(static_pair_32, monkeypatch):
    model = DvoModel(toy_config(), np.random.default_rng(0))
    predictions = []
    mse = model_module.masked_patch_mse

    def recording(pred, targets, masked):
        predictions.append(pred)
        return mse(pred, targets, masked)

    monkeypatch.setattr(model_module, "masked_patch_mse", recording)
    images = np.stack([static_pair_32.image_a] * 2), np.stack([static_pair_32.image_b] * 2)
    loss = pretrain_step(model, *images, np.random.default_rng(0))
    network = _nodes(*predictions)
    assert {node.data.dtype for node in network} == {np.dtype(np.float32)}, _dtypes(network)
    assert loss.data.dtype == np.float64  # the reconstruction error against float64 targets


@pytest.mark.parametrize("phase", ["finetune", "pretrain"])
def test_batch_gradients_returns_float32_gradients(phase, static_pair_32):
    model = DvoModel(toy_config(), np.random.default_rng(0))
    for name, param in model.named_parameters():
        param.requires_grad = not name.startswith(train._UNREACHED[phase])
    rng = np.random.default_rng(0)
    loss_fns = {
        "finetune": lambda m, jobs: train._finetune_losses(m, jobs, LossWeights()),
        "pretrain": lambda m, jobs: train._completion_losses(m, jobs, rng),
    }
    opt = AdamW(list(model.named_parameters()))
    train.batch_gradients(model, opt, [[static_pair_32, static_pair_32]], loss_fns[phase])
    grads = opt.grad_views
    trainable = {name for name, param in model.named_parameters() if param.requires_grad}
    assert set(grads) == trainable
    assert {name: g.dtype for name, g in grads.items() if g.dtype != np.float32} == {}


@pytest.mark.parametrize("mode", ["pose", "depth"])
def test_every_node_of_an_optimize_direct_iteration_is_float64(mode, static_pair_32, monkeypatch):
    losses, grads = [], []
    recorded_loss, recorded_backward = direct.total_loss, ad.backward

    def recording_loss(*args, **kwargs):
        breakdown = recorded_loss(*args, **kwargs)
        losses.append(breakdown.l_total)
        return breakdown

    def recording_backward(loss, into=None):
        found = recorded_backward(loss, into)
        grads.extend(found.values())
        return found

    monkeypatch.setattr(direct, "total_loss", recording_loss)
    monkeypatch.setattr(ad, "backward", recording_backward)
    start = perturbed_twist(static_pair_32.gt_pose.twist(), np.random.default_rng(1))
    optimize_direct(static_pair_32, mode, iters=2, init_twist=start)
    nodes = _nodes(*losses)
    assert len(losses) == 2 and {node.data.dtype for node in nodes} == {np.dtype(np.float64)}, _dtypes(nodes)
    assert grads and {g.dtype for g in grads} == {np.dtype(np.float64)}
