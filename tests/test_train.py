"""Training loops: resume equivalence, ordered gradient reduction, divergence
reporting, adapter finetuning with a frozen backbone, checkpoint/config
consistency, per-epoch evaluation and the version string."""

import errno
import json
import os
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import oracles
import pytest

from dvokit import autodiff as ad
from dvokit import model as model_module
from dvokit import train
from dvokit.autodiff import EmptyValidSetError, NonFiniteError
from dvokit.formats import DataError
from dvokit.losses import LossWeights, total_loss
from dvokit.optim import AdamW
from dvokit.model import (
    DvoModel,
    forward_dvo,
    load_checkpoint,
    model_state,
    pretrain_step,
    sample_mask,
    save_checkpoint,
    toy_config,
)
from dvokit.synth import MotionSpec, default_intrinsics, generate_trajectory, make_pair, preset_scene


@pytest.fixture(scope="module")
def dataset():
    k = default_intrinsics(32)
    frames = generate_trajectory(
        preset_scene("room", seed=3), k, 4, MotionSpec(kind="line", step=(0.02, 0.0, 0.05)),
        np.random.default_rng(0),
    )
    return train.PairDataset([make_pair(frames, i, k) for i in range(3)])


def _cfg(out_dir, epochs, **model):
    return train.RunConfig(seed=5, model=toy_config(**model), epochs=epochs, batch_size=2, out_dir=str(out_dir))


def _run(phase):
    return train.finetune_run if phase == "finetune" else train.pretrain_run


def _gradients(model, graphs, loss_fn):
    """`batch_gradients` into a fresh optimizer over the model's parameters:
    (the per-job scalars, the mean gradients by name in `opt.grad_views`)."""
    opt = AdamW(list(model.named_parameters()))
    return train.batch_gradients(model, opt, graphs, loss_fn), opt.grad_views


def _loss(model, pair):
    depth_a, depth_b, twist = forward_dvo(model, pair.image_a, pair.image_b)
    l_total = total_loss(pair, depth_a, depth_b, twist).l_total
    return l_total, {"l_total": l_total.item()}


@pytest.mark.parametrize("phase", ["finetune", "pretrain"])
def test_resume_is_bit_identical_to_an_uninterrupted_run(tmp_path, dataset, phase):
    run = _run(phase)
    run(_cfg(tmp_path / "full", epochs=2), dataset)
    run(_cfg(tmp_path / "first", epochs=1), dataset)
    run(
        _cfg(tmp_path / "resumed", epochs=2),
        dataset,
        resume=str(tmp_path / "first" / "checkpoint-epoch000.dvoc"),
    )
    full = (tmp_path / "full" / "checkpoint-epoch001.dvoc").read_bytes()
    resumed = (tmp_path / "resumed" / "checkpoint-epoch001.dvoc").read_bytes()
    assert full == resumed


def test_batch_gradients_is_the_ordered_mean_of_per_job_grads(dataset):
    model = DvoModel(toy_config(), np.random.default_rng(1))
    named = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    per_job = [ad.grads(_loss(model, pair)[0], [p for _, p in named]) for pair in dataset.pairs]

    one_job_graphs = [[pair] for pair in dataset.pairs]
    scalars, grads_by_name = _gradients(model, one_job_graphs, lambda m, jobs: [_loss(m, p) for p in jobs])

    assert scalars == [_loss(model, pair)[1] for pair in dataset.pairs]
    assert list(grads_by_name) == [n for n, _ in named]
    for i, (name, _) in enumerate(named):
        expected = (per_job[0][i] + per_job[1][i] + per_job[2][i]) * (1.0 / 3.0)
        assert np.array_equal(grads_by_name[name], expected), name


def test_batch_gradients_keeps_the_sign_of_a_zero_gradient():
    # the buffer starts at -0.0, and -0.0 + x is x for every x, so a
    # one-job graph's gradient of -0.0 stays -0.0; a parameter no loss
    # reaches gets +0.0
    weights = ad.parameter(np.ones(3, np.float32))
    unreached = ad.parameter(np.ones(2, np.float32))
    signs = ad.Tensor(np.array([-0.0, 0.0, 2.0], np.float32))
    opt = AdamW([("w", weights), ("unreached", unreached)])
    train.batch_gradients(None, opt, [[0]], lambda m, jobs: [((weights * signs).sum(), {})])
    assert opt.grad_views["w"].tobytes() == signs.data.tobytes()
    assert opt.grad_views["unreached"].tobytes() == np.zeros(2, np.float32).tobytes()


# ---- one graph per finetuning step --------------------------------------------------


def _finetune_losses(m, jobs):
    return train._finetune_losses(m, jobs, LossWeights())


def _live_model(head_kind="linear"):
    model = DvoModel(toy_config(head_kind=head_kind), np.random.default_rng(3))
    # a live pose head, so the pose and its gradients are not the identity's
    model.pose_head.fc2.weight.data = np.random.default_rng(4).normal(0.0, 0.5, (128, 6)).astype(np.float32)
    return model


def _lone_step(model, pair, params):
    """A pair's scalars and gradients from its own unbatched forward."""
    bd = total_loss(pair, *forward_dvo(model, pair.image_a, pair.image_b))
    return bd.scalars(), ad.grads(bd.l_total, params)


def _recording_forwards(monkeypatch):
    """The leading axes of every forward the training loop runs, as it runs them."""
    calls = []

    def recording_forward(model, images_a, images_b):
        calls.append(images_a.shape[:-3])
        return forward_dvo(model, images_a, images_b)

    monkeypatch.setattr(train, "forward_dvo", recording_forward)
    return calls


def _recording_pretrain_steps(monkeypatch):
    """The leading axes of every pretraining forward the training loop runs."""
    calls = []

    def recording_step(model, images_a, images_b, rng):
        calls.append(images_a.shape[:-3])
        return pretrain_step(model, images_a, images_b, rng)

    monkeypatch.setattr(train, "pretrain_step", recording_step)
    return calls


@pytest.mark.parametrize("pair_fixture,head_kind", [("static_pair_32", "linear"), ("static_pair_64", "dpt")])
def test_a_one_pair_graph_gives_the_lone_pairs_gradients_bit_for_bit(pair_fixture, head_kind, request):
    pair = request.getfixturevalue(pair_fixture)
    model = _live_model(head_kind)
    named = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    scalars, grads = _lone_step(model, pair, [p for _, p in named])

    batched_scalars, grads_by_name = _gradients(model, [[pair]], _finetune_losses)

    assert batched_scalars == [scalars]
    for (name, _), g in zip(named, grads):
        assert grads_by_name[name].tobytes() == g.tobytes(), name


def test_a_two_pair_graph_keeps_each_pairs_loss_and_averages_the_gradients(dataset):
    model = oracles.float64_model(_live_model())
    named = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    pairs = dataset.pairs[:2]
    lone = [_lone_step(model, pair, [p for _, p in named]) for pair in pairs]

    scalars, grads_by_name = _gradients(model, [pairs], _finetune_losses)

    assert scalars == [s for s, _ in lone]  # each pair's loss terms, bit for bit
    for i, (name, _) in enumerate(named):
        mean = (lone[0][1][i] + lone[1][1][i]) * 0.5
        assert np.abs(grads_by_name[name] - mean).max() <= 1e-12 * np.abs(mean).max(), name


def _line_pairs(size, n_pairs):
    k = default_intrinsics(size)
    frames = generate_trajectory(
        preset_scene("room", seed=3), k, n_pairs + 1, MotionSpec(kind="line", step=(0.02, 0.0, 0.05)),
        np.random.default_rng(0),
    )
    return train.PairDataset([make_pair(frames, i, k) for i in range(n_pairs)])


@pytest.mark.parametrize("size,n_pairs,forwards", [(32, 3, [(2,), (1,)]), (64, 2, [(1,), (1,)])])
def test_the_pixel_budget_shares_a_graph_at_32_px_and_not_at_64_px(tmp_path, monkeypatch, size, n_pairs, forwards):
    pairs = _line_pairs(size, n_pairs)  # in batches of two
    calls = _recording_forwards(monkeypatch)
    train.finetune_run(_cfg(tmp_path, epochs=1), pairs)
    assert calls == forwards


@pytest.mark.parametrize("size,n_pairs,batch_size,forwards", [(32, 3, 2, [(2,), (1,)]), (64, 4, 4, [(2,), (2,)])])
def test_the_pretraining_budget_shares_a_graph_at_32_and_64_px(tmp_path, monkeypatch, size, n_pairs, batch_size, forwards):
    calls = _recording_pretrain_steps(monkeypatch)
    train.pretrain_run(replace(_cfg(tmp_path, epochs=1), batch_size=batch_size), _line_pairs(size, n_pairs))
    assert calls == forwards


def _completion_losses(seed):
    rng = np.random.default_rng(seed)
    return lambda m, jobs: train._completion_losses(m, jobs, rng)


def _pretrained_params(model):
    return [(n, p) for n, p in model.named_parameters() if not n.startswith(train._UNREACHED["pretrain"])]


def test_a_one_pair_pretraining_graph_gives_pretrain_steps_loss_and_gradients_bit_for_bit(static_pair_64):
    model = DvoModel(toy_config(), np.random.default_rng(3))
    named = _pretrained_params(model)
    loss = pretrain_step(model, static_pair_64.image_a, static_pair_64.image_b, np.random.default_rng(6))
    grads = ad.grads(loss, [p for _, p in named])

    scalars, grads_by_name = _gradients(model, [[static_pair_64]], _completion_losses(6))

    assert scalars == [{"reconstruction": loss.item()}]
    for (name, _), g in zip(named, grads):
        assert grads_by_name[name].tobytes() == g.tobytes(), name


def test_a_two_pair_pretraining_graph_keeps_each_pairs_loss_and_averages_the_gradients():
    model = oracles.float64_model(DvoModel(toy_config(), np.random.default_rng(3)))
    named = _pretrained_params(model)
    pairs = _line_pairs(64, 2).pairs
    rng = np.random.default_rng(6)  # the lone pairs draw their masks in the graph's pair order
    lone = [pretrain_step(model, pair.image_a, pair.image_b, rng) for pair in pairs]
    lone_grads = [ad.grads(loss, [p for _, p in named]) for loss in lone]

    scalars, grads_by_name = _gradients(model, [pairs], _completion_losses(6))

    assert scalars == [{"reconstruction": loss.item()} for loss in lone]  # bit for bit
    for i, (name, _) in enumerate(named):
        mean = (lone_grads[0][i] + lone_grads[1][i]) * 0.5
        assert np.abs(grads_by_name[name] - mean).max() <= 1e-12 * np.abs(mean).max(), name


def test_a_four_pair_64_px_pretraining_step_peaks_at_most_12600_kb():
    # two graphs of two 64 px pairs peak at 11.4 MB in float32, with the
    # gradients added into the optimizer's buffer (13.7 MB when backward
    # copied each leaf's gradient out; 26.6 MB in float64 then, against
    # 20.1 MB for four one-pair graphs and 42.8 MB for one graph of four)
    model = DvoModel(toy_config(), np.random.default_rng(0))
    for name, param in model.named_parameters():
        param.requires_grad = not name.startswith(train._UNREACHED["pretrain"])
    pairs = _line_pairs(64, 4).pairs
    size = train.TRAIN_GRAPH_PIXELS["pretrain"] // 64**2
    graphs = [pairs[i : i + size] for i in range(0, len(pairs), size)]
    assert [len(graph) for graph in graphs] == [2, 2]
    opt = AdamW(list(model.named_parameters()))

    def step():
        return train.batch_gradients(model, opt, graphs, _completion_losses(0))

    step()  # cached embeddings
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.6e6


def test_batch_gradients_frees_each_graph_before_building_the_next():
    # a 32 px finetuning batch of 8 in two graphs of 4: entering the second,
    # the first graph's gradients are in the optimizer's buffer, made before,
    # and nothing else is held (0.04 MB; 1.7 MB while batch_gradients kept
    # them in arrays of its own, 19.6 MB while a job's loss from the first
    # graph stayed bound)
    model = DvoModel(toy_config(), np.random.default_rng(0))
    for name, param in model.named_parameters():
        param.requires_grad = not name.startswith(train._UNREACHED["finetune"])
    pairs = _line_pairs(32, 8).pairs
    held = []

    def loss_fn(m, jobs):
        held.append(tracemalloc.get_traced_memory()[0])
        return _finetune_losses(m, jobs)

    opt = AdamW(list(model.named_parameters()))
    train.batch_gradients(model, opt, [pairs[:4], pairs[4:]], loss_fn)  # cached embeddings
    held.clear()
    tracemalloc.start()
    try:
        train.batch_gradients(model, opt, [pairs[:4], pairs[4:]], loss_fn)
    finally:
        tracemalloc.stop()
    assert held[1] <= 0.5e6


def test_an_empty_valid_set_in_a_shared_graph_names_the_epoch_and_the_pair(tmp_path, dataset, monkeypatch):
    cfg = _cfg(tmp_path, epochs=1)
    order = np.random.default_rng([cfg.seed, 0]).permutation(len(dataset))
    out_of_view = dataset.pairs[int(order[1])]  # the second pair of the first batch of two

    def loss_moving_out_of_view(pair, depth_a, depth_b, twist, *args, **kwargs):
        if pair is out_of_view:  # a 1 km step sideways takes every pixel out of frame b's view
            twist = twist + ad.Tensor(np.array([1e3, 0.0, 0.0, 0.0, 0.0, 0.0]))
        return total_loss(pair, depth_a, depth_b, twist, *args, **kwargs)

    monkeypatch.setattr(train, "total_loss", loss_moving_out_of_view)
    calls = _recording_forwards(monkeypatch)
    with pytest.raises(train.TrainingDivergence) as info:
        train.finetune_run(cfg, dataset)
    assert info.value.epoch == 0
    assert dataset.pairs[info.value.pair_index] is out_of_view
    assert isinstance(info.value.__cause__, EmptyValidSetError)
    assert calls == [(2,), (1,), (1,)]  # the shared graph, then its checked replay pair by pair


def test_a_two_pair_32_px_training_step_peaks_at_most_7000_kb(dataset):
    # forward, losses and backward of two 32 px pairs in one graph peak at
    # 6.4 MB in float32, with the gradients added into the optimizer's buffer
    # (7.6 MB when backward copied each leaf's gradient out; 13.1 MB in
    # float64 then, against 12.0 MB for the same pairs in two one-pair graphs)
    model = DvoModel(toy_config(), np.random.default_rng(0))
    opt = AdamW(list(model.named_parameters()))

    def step():
        return train.batch_gradients(model, opt, [dataset.pairs[:2]], _finetune_losses)

    step()  # cached embeddings
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.0e6


def test_divergence_names_the_epoch_and_the_pair(tmp_path, dataset, monkeypatch):
    seen = []

    def failing_loss(pair, *args, **kwargs):
        seen.append(pair)
        if len(seen) == 4:  # first pair of epoch 1 (epoch 0 makes three calls)
            raise NonFiniteError("non-finite value produced by op 'div'")
        return total_loss(pair, *args, **kwargs)

    monkeypatch.setattr(train, "total_loss", failing_loss)
    with pytest.raises(train.TrainingDivergence) as info:
        train.finetune_run(_cfg(tmp_path, epochs=2), dataset)
    assert info.value.epoch == 1
    assert dataset.pairs[info.value.pair_index] is seen[-1]
    assert isinstance(info.value.__cause__, NonFiniteError)


def test_divergence_names_the_pair_whose_loss_raised(tmp_path, dataset, monkeypatch):
    seen = []

    def failing_loss(pair, *args, **kwargs):
        seen.append(pair)
        if len(seen) == 2:  # second job of the first batch of two
            raise NonFiniteError("non-finite value produced by op 'div'")
        return total_loss(pair, *args, **kwargs)

    monkeypatch.setattr(train, "total_loss", failing_loss)
    with pytest.raises(train.TrainingDivergence) as info:
        train.finetune_run(_cfg(tmp_path, epochs=1), dataset)
    assert info.value.epoch == 0
    assert seen[0] is not seen[1]
    assert dataset.pairs[info.value.pair_index] is seen[1]


@pytest.mark.parametrize("target", ["save_checkpoint", "_write_buffers"])
@pytest.mark.parametrize("failing_epoch", [0, 1])
def test_a_failed_checkpoint_write_raises_from_the_run_and_leaves_no_file(
    tmp_path, dataset, monkeypatch, target, failing_epoch
):
    """The failure surfaces from the run as the write's own error. The
    training loop calls `train.save_checkpoint`, the name the benchmark's
    tracer wraps; a failure inside `_write_buffers` leaves part of the file
    in the `.tmp`, which `atomic_write` removes."""
    module = train if target == "save_checkpoint" else model_module
    real, writes = getattr(module, target), []

    def write(first, payload, *rest):
        writes.append(first)
        if len(writes) <= failing_epoch:
            return real(first, payload, *rest)
        if target == "_write_buffers":
            os.write(first, payload[0])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(module, target, write)
    with pytest.raises(OSError, match="No space left on device"):
        train.finetune_run(_cfg(tmp_path, epochs=2), dataset)
    assert len(writes) == failing_epoch + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint-epoch000.dvoc"][:failing_epoch]


def test_a_failed_report_write_keeps_the_previous_report(tmp_path, dataset, monkeypatch):
    train.finetune_run(_cfg(tmp_path, epochs=1), dataset)
    before = (tmp_path / "report.json").read_bytes()
    real = model_module._write_buffers

    def write(fd, buffers):
        if bytes(buffers[0][:1]) != b"{":  # a checkpoint
            return real(fd, buffers)
        os.write(fd, buffers[0][:10])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(model_module, "_write_buffers", write)
    with pytest.raises(OSError, match="No space left on device"):
        train.finetune_run(_cfg(tmp_path, epochs=1), dataset)
    assert (tmp_path / "report.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint-epoch000.dvoc", "report.json"]


def test_a_divergence_leaves_every_earlier_checkpoint_complete_and_resumable(tmp_path, dataset, monkeypatch):
    seen = []

    def failing_loss(pair, *args, **kwargs):  # as in test_divergence_names_the_epoch_and_the_pair
        seen.append(pair)
        if len(seen) == 4:  # first pair of epoch 1, once epoch 0's checkpoint is written
            raise NonFiniteError("non-finite value produced by op 'div'")
        return total_loss(pair, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(train, "total_loss", failing_loss)
        with pytest.raises(train.TrainingDivergence) as info:
            train.finetune_run(_cfg(tmp_path / "diverged", epochs=2), dataset)
    assert info.value.epoch == 1
    assert sorted(p.name for p in (tmp_path / "diverged").iterdir()) == ["checkpoint-epoch000.dvoc"]
    left = tmp_path / "diverged" / "checkpoint-epoch000.dvoc"
    config, _ = load_checkpoint(left)
    assert config["extra"]["epoch"] == 0
    train.finetune_run(_cfg(tmp_path / "full", epochs=2), dataset)
    train.finetune_run(_cfg(tmp_path / "resumed", epochs=2), dataset, resume=str(left))
    full = (tmp_path / "full" / "checkpoint-epoch001.dvoc").read_bytes()
    assert (tmp_path / "resumed" / "checkpoint-epoch001.dvoc").read_bytes() == full


def test_each_epoch_writes_its_checkpoint_through_train_save_checkpoint_before_the_next(
    tmp_path, dataset, monkeypatch
):
    """One call of `train.save_checkpoint` per epoch, the name the
    benchmark's tracer wraps, and the file is on disk when it returns,
    before the next epoch's first loss."""
    events, real_save, real_loss = [], train.save_checkpoint, train.total_loss

    def save(path, arrays, config):
        real_save(path, arrays, config)
        events.append((Path(path).name, sorted(p.name for p in tmp_path.iterdir())))

    def loss(*args, **kwargs):
        events.append("loss")
        return real_loss(*args, **kwargs)

    monkeypatch.setattr(train, "save_checkpoint", save)
    monkeypatch.setattr(train, "total_loss", loss)
    train.finetune_run(_cfg(tmp_path, epochs=2), dataset)
    first, second = "checkpoint-epoch000.dvoc", "checkpoint-epoch001.dvoc"
    assert events == ["loss"] * 3 + [(first, [first])] + ["loss"] * 3 + [(second, [first, second])]
    assert sorted(p.name for p in tmp_path.iterdir()) == [first, second, "report.json"]


def _nan_at(dataset, index, with_nan_pixel):
    return train.PairDataset([with_nan_pixel(p) if i == index else p for i, p in enumerate(dataset.pairs)])


def _divergence(run, cfg, dataset):
    with pytest.raises(train.TrainingDivergence) as info:
        run(cfg, dataset)
    return str(info.value), info.value.epoch, info.value.pair_index


@pytest.mark.parametrize("phase", ["finetune", "pretrain"])
def test_a_nan_input_diverges_as_a_checked_run_does(tmp_path, dataset, phase, monkeypatch, with_nan_pixel):
    bad = _nan_at(dataset, 1, with_nan_pixel)
    replayed = _divergence(_run(phase), _cfg(tmp_path / "replayed", epochs=1), bad)
    monkeypatch.setattr(ad, "replayed", lambda fn, tested: fn())  # every step checked
    checked = _divergence(_run(phase), _cfg(tmp_path / "checked", epochs=1), bad)
    assert replayed == checked
    assert "op '" in replayed[0] and replayed[2] == 1


def test_the_pretraining_replay_redraws_the_first_pass_masks(tmp_path, dataset, monkeypatch, with_nan_pixel):
    cfg = _cfg(tmp_path, epochs=1)
    second = int(np.random.default_rng([cfg.seed, 0]).permutation(len(dataset))[1])
    drawn = []

    def recording_sample_mask(*args):
        masks = sample_mask(*args)
        drawn.append((ad.checked_enabled(), masks))
        return masks

    monkeypatch.setattr(model_module, "sample_mask", recording_sample_mask)
    with pytest.raises(train.TrainingDivergence):
        train.pretrain_run(cfg, _nan_at(dataset, second, with_nan_pixel))
    first = [masks for checked, masks in drawn if not checked]
    replay = [masks for checked, masks in drawn if checked]
    assert len(first) == len(replay) == 2  # the failing pair is the batch's second job
    for (masked, keep), (masked_again, keep_again) in zip(first, replay):
        assert np.array_equal(masked, masked_again) and np.array_equal(keep, keep_again)


def test_a_nan_first_pair_of_a_shared_pretraining_graph_is_named(tmp_path, dataset, monkeypatch, with_nan_pixel):
    cfg = _cfg(tmp_path, epochs=1)
    first = int(np.random.default_rng([cfg.seed, 0]).permutation(len(dataset))[0])
    calls = _recording_pretrain_steps(monkeypatch)
    with pytest.raises(train.TrainingDivergence) as info:
        train.pretrain_run(cfg, _nan_at(dataset, first, with_nan_pixel))
    assert (info.value.epoch, info.value.pair_index) == (0, first)
    assert calls == [(2,), (1,)]  # the shared graph, then its checked replay, which stops at the first pair


def test_a_nan_gradient_behind_a_finite_loss_names_the_parameter(tmp_path, dataset, monkeypatch):
    def loss_with_nan_gradient(pair, depth_a, *args, **kwargs):
        bd = total_loss(pair, depth_a, *args, **kwargs)
        # finite forward (sqrt(0) = 0), but the backward of sqrt at 0 is 0/0
        return replace(bd, l_total=bd.l_total + 0 * oracles.sqrt(depth_a.mean() * 0))

    monkeypatch.setattr(train, "total_loss", loss_with_nan_gradient)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(train.TrainingDivergence) as info:
        train.finetune_run(_cfg(tmp_path, epochs=1), dataset)
    assert info.value.epoch == 0
    assert isinstance(info.value.__cause__, NonFiniteError)
    name = re.search(r"non-finite gradient of '(.+)', which checked mode does not trap", str(info.value)).group(1)
    assert name in dict(DvoModel(toy_config(), np.random.default_rng(0)).named_parameters())


def test_a_nan_gradient_is_named_with_the_pair_whose_gradient_it_is(tmp_path, dataset, monkeypatch):
    seen = []

    def first_job_nan_gradient(pair, depth_a, *args, **kwargs):
        seen.append(pair)
        bd = total_loss(pair, depth_a, *args, **kwargs)
        if len(seen) % 2 == 1:  # the first job of a batch of two, in each pass
            return replace(bd, l_total=bd.l_total + 0 * oracles.sqrt(depth_a.mean() * 0))
        return bd

    monkeypatch.setattr(train, "total_loss", first_job_nan_gradient)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(train.TrainingDivergence) as info:
        train.finetune_run(_cfg(tmp_path, epochs=1), dataset)
    assert str(info.value).startswith("training diverged at epoch 0, pair ")
    assert "non-finite gradient of '" in str(info.value)
    assert len(seen) == 3  # both jobs of the first pass, the first of the replay
    assert seen[0] is not seen[1] and seen[2] is seen[0]
    assert dataset.pairs[info.value.pair_index] is seen[0]


def test_unchecked_steps_make_no_finiteness_call(tmp_path, dataset, monkeypatch):
    calls = []
    monkeypatch.setattr(ad, "_verify_finite", lambda data, op: calls.append(op))
    ad.Tensor([1.0]) + 1.0  # a checked op calls it
    assert calls == ["add"]
    calls.clear()
    train.finetune_run(_cfg(tmp_path, epochs=1), dataset, eval_dataset=train.PairDataset(dataset.pairs[:1]))
    train.pretrain_run(_cfg(tmp_path, epochs=1), dataset)
    assert calls == []


@pytest.fixture(scope="module")
def frozen_run(tmp_path_factory, dataset):
    """One epoch of adapter finetuning: the backbone frozen, the adapters and
    task heads trained. Returns the initial state, the model and the
    checkpoint."""
    cfg = _cfg(tmp_path_factory.mktemp("frozen"), epochs=1)
    initial = model_state(DvoModel(cfg.model, np.random.default_rng(cfg.seed)))
    model, _ = train.finetune_run(cfg, dataset, freeze_backbone=True)
    return initial, model, Path(cfg.out_dir) / "checkpoint-epoch000.dvoc"


def test_frozen_finetune_moves_only_adapters_and_depth_and_pose_heads(frozen_run):
    initial, model, _ = frozen_run
    frozen = {name for name, p in model.named_parameters() if not p.requires_grad}
    moved = {name for name, p in model.named_parameters() if not np.array_equal(p.data, initial[name])}
    assert len(frozen) == 149 and not frozen & moved
    assert moved == {
        name
        for name in initial
        if name.startswith(("depth_head.", "pose_head.")) or ".adapter_down." in name or ".adapter_up." in name
    }


def test_frozen_finetune_resumes_bit_identically(tmp_path, dataset, frozen_run):
    _, _, first = frozen_run
    train.finetune_run(_cfg(tmp_path / "full", epochs=2), dataset, freeze_backbone=True)
    train.finetune_run(_cfg(tmp_path / "resumed", epochs=2), dataset, resume=str(first), freeze_backbone=True)
    full = (tmp_path / "full" / "checkpoint-epoch001.dvoc").read_bytes()
    assert (tmp_path / "resumed" / "checkpoint-epoch001.dvoc").read_bytes() == full


def test_a_warm_start_fills_the_model_from_the_checkpoint(tmp_path, dataset):
    cfg = _cfg(tmp_path / "pre", epochs=1)
    train.pretrain_run(cfg, dataset)
    ckpt = tmp_path / "pre" / "checkpoint-epoch000.dvoc"
    _, arrays = load_checkpoint(ckpt)
    fine = _cfg(tmp_path / "fine", epochs=1)
    model, _ = train.finetune_run(fine, dataset, init_checkpoint=str(ckpt), freeze_backbone=True)
    initial = model_state(DvoModel(cfg.model, np.random.default_rng(cfg.seed)))
    frozen = [(name, p) for name, p in model.named_parameters() if not p.requires_grad]
    assert len(frozen) == 149
    assert all(np.array_equal(p.data, arrays[f"model.{name}"]) for name, p in frozen)
    # pretraining moved the backbone, so a model left at its initial draw fails above
    assert any(not np.array_equal(p.data, initial[name]) for name, p in frozen)


def test_warm_start_from_a_checkpoint_missing_model_arrays_raises(tmp_path, dataset):
    train.pretrain_run(_cfg(tmp_path / "pre", epochs=1), dataset)
    config, arrays = load_checkpoint(tmp_path / "pre" / "checkpoint-epoch000.dvoc")
    ckpt = tmp_path / "no-pixel-head.dvoc"  # a complete file, written without the pixel head
    save_checkpoint(ckpt, {k: v for k, v in arrays.items() if not k.startswith("model.pixel_head.")}, config)
    with pytest.raises(DataError, match=re.escape(f"checkpoint {ckpt} lacks 6 arrays, first 'model.pixel_head.")):
        train.finetune_run(_cfg(tmp_path / "fine", epochs=1), dataset, init_checkpoint=str(ckpt))


def test_resume_from_a_checkpoint_missing_optimizer_arrays_raises(tmp_path, dataset, frozen_run):
    # a frozen run keeps optimizer state for the trained tensors only, so
    # resuming it without freezing lacks the backbone's moments
    _, _, ckpt = frozen_run
    with pytest.raises(DataError, match=re.escape(f"checkpoint {ckpt} lacks 284 arrays, first 'opt.m.")):
        train.finetune_run(_cfg(tmp_path / "resumed", epochs=2), dataset, resume=str(ckpt))


@pytest.mark.parametrize("phase", ["finetune", "pretrain"])
def test_a_phase_steps_exactly_the_tensors_its_loss_reaches(tmp_path, dataset, phase):
    cfg = _cfg(tmp_path, epochs=1)
    _run(phase)(cfg, dataset)
    _, arrays = load_checkpoint(tmp_path / "checkpoint-epoch000.dvoc")
    model = DvoModel(cfg.model, np.random.default_rng(cfg.seed))
    pair = dataset.pairs[0]
    if phase == "pretrain":
        loss = pretrain_step(model, pair.image_a, pair.image_b, np.random.default_rng(0))
    else:
        loss = _loss(model, pair)[0]
    leaves = ad.backward(loss)
    reached = {name for name, p in model.named_parameters() if id(p) in leaves}
    for moment in ("opt.m.", "opt.v."):
        assert {key[len(moment) :] for key in arrays if key.startswith(moment)} == reached


def test_a_checkpoint_with_moments_for_unreached_tensors_resumes_bit_identically(tmp_path, dataset):
    # finetune checkpoints once also held the all-zero moments of the pixel
    # head and the mask token; resuming ignores them
    train.finetune_run(_cfg(tmp_path / "first", epochs=1), dataset)
    first = tmp_path / "first" / "checkpoint-epoch000.dvoc"
    config, arrays = load_checkpoint(first)
    unreached = [name for name in arrays if name.startswith(("model.pixel_head.", "model.mask_token"))]
    assert len(unreached) == 7
    older = tmp_path / "older.dvoc"
    zeros = {f"opt.{m}.{name[len('model.') :]}": np.zeros_like(arrays[name]) for name in unreached for m in "mv"}
    save_checkpoint(older, {**arrays, **zeros}, config)
    for ckpt, out in ((first, "resumed"), (older, "resumed-older")):
        train.finetune_run(_cfg(tmp_path / out, epochs=2), dataset, resume=str(ckpt))
    resumed = (tmp_path / "resumed" / "checkpoint-epoch001.dvoc").read_bytes()
    assert (tmp_path / "resumed-older" / "checkpoint-epoch001.dvoc").read_bytes() == resumed


@pytest.mark.parametrize("phase", ["finetune", "pretrain"])
def test_resume_with_a_different_model_config_raises(tmp_path, dataset, phase):
    _run(phase)(_cfg(tmp_path / "first", epochs=1), dataset)
    ckpt = str(tmp_path / "first" / "checkpoint-epoch000.dvoc")
    expected = f"checkpoint/config mismatch: {ckpt} differs from the model in enc_depth (checkpoint 4, model 2)"
    with pytest.raises(ValueError, match=re.escape(expected)):
        _run(phase)(_cfg(tmp_path / "resumed", epochs=2, enc_depth=2), dataset, resume=ckpt)


def test_init_checkpoint_with_a_different_model_config_raises(tmp_path, dataset):
    train.pretrain_run(_cfg(tmp_path / "pre", epochs=1), dataset)
    ckpt = str(tmp_path / "pre" / "checkpoint-epoch000.dvoc")
    with pytest.raises(ValueError, match="mismatch"):
        train.finetune_run(_cfg(tmp_path / "fine", epochs=1, adapter_dim=8), dataset, init_checkpoint=ckpt)


@pytest.fixture(scope="module")
def finetune_checkpoint(tmp_path_factory, dataset):
    """The config header and arrays of a one-epoch finetune checkpoint."""
    cfg = _cfg(tmp_path_factory.mktemp("finetune"), epochs=1)
    train.finetune_run(cfg, dataset)
    return load_checkpoint(Path(cfg.out_dir) / "checkpoint-epoch000.dvoc")


def test_loading_a_checkpoint_holds_each_array_once(tmp_path, finetune_checkpoint):
    # the loader once held the whole file beside a copy of every array (19.7
    # MB at its peak for a 10.2 MB file), and a resume copied each moment again
    config, arrays = finetune_checkpoint
    path = tmp_path / "ckpt.dvoc"
    save_checkpoint(path, arrays, config)
    model = DvoModel(toy_config(), np.random.default_rng(0))
    for name, param in model.named_parameters():
        param.requires_grad = not name.startswith(train._UNREACHED["finetune"])
    opt = AdamW(list(model.named_parameters()))
    for load in (lambda: load_checkpoint(path), lambda: train._load_checkpoint_into(path, model, opt)):
        tracemalloc.start()
        try:
            load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * path.stat().st_size
    assert opt.step_count == int(arrays["opt.step"][0])
    for key, value in opt.state_views().items():  # the moments in their parameters' dtype, float32
        assert value.tobytes() == arrays[key].astype(value.dtype).tobytes(), key


def test_a_float32_models_checkpoint_is_adopted_without_a_copy(tmp_path, finetune_checkpoint, monkeypatch):
    # the loader's arrays are already in the parameters' dtype, so the
    # parameters take them as they are; the moments are copied into the
    # optimizer's buffer
    config, arrays = finetune_checkpoint
    path = tmp_path / "ckpt.dvoc"
    save_checkpoint(path, arrays, config)
    loaded = {}

    def load(p):
        config, arrays = load_checkpoint(p)
        loaded.update(arrays)
        return config, arrays

    monkeypatch.setattr(train, "load_checkpoint", load)
    model = DvoModel(toy_config(), np.random.default_rng(0))
    for name, param in model.named_parameters():
        param.requires_grad = not name.startswith(train._UNREACHED["finetune"])
    opt = AdamW(list(model.named_parameters()))
    assert train._load_checkpoint_into(path, model, opt) == 0
    for name, param in model.named_parameters():
        assert param.data is loaded[f"model.{name}"], name
    for key, value in opt.state_views().items():
        if key != "opt.step":
            assert np.shares_memory(value, opt._buffer) and value.tobytes() == loaded[key].tobytes(), key


def test_a_float32_models_checkpoint_round_trips_exactly(tmp_path, dataset):
    # the file holds each float32 parameter and moment in float32; a resume
    # reloads them as they were
    model, _ = train.finetune_run(_cfg(tmp_path, epochs=1), dataset)
    path = tmp_path / "checkpoint-epoch000.dvoc"
    _, arrays = load_checkpoint(path)
    for key, value in arrays.items():
        assert value.dtype == (np.float64 if key == "opt.step" else np.float32), key
    fresh = DvoModel(model.cfg, np.random.default_rng(0))
    for name, param in fresh.named_parameters():
        param.requires_grad = not name.startswith(train._UNREACHED["finetune"])
    opt = AdamW(list(fresh.named_parameters()))
    assert train._load_checkpoint_into(path, fresh, opt) == 0
    for (name, p), (_, q) in zip(model.named_parameters(), fresh.named_parameters()):
        assert p.data.dtype == q.data.dtype == np.float32 and p.data.tobytes() == q.data.tobytes(), name
    for key, value in opt.state_views().items():
        if key != "opt.step":
            assert value.dtype == np.float32 and value.tobytes() == arrays[key].tobytes(), key
    # written again from the reloaded state, the file is the same, bit for bit
    resaved = {f"model.{name}": p.data for name, p in fresh.named_parameters()} | opt.state_views()
    save_checkpoint(tmp_path / "again.dvoc", resaved, load_checkpoint(path)[0])
    assert (tmp_path / "again.dvoc").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("phase", ["finetune", "pretrain"])
def test_a_checkpoint_widened_to_float64_resumes_bit_identically(tmp_path, dataset, phase):
    # a run's checkpoint with every array widened to float64 is stored in f8,
    # loads as float64, and resumes (each array cast back to float32) to the
    # same values
    _run(phase)(_cfg(tmp_path / "full", epochs=2), dataset)
    first = tmp_path / "full" / "checkpoint-epoch000.dvoc"
    config, arrays = load_checkpoint(first)
    wide = tmp_path / "wide.dvoc"
    save_checkpoint(wide, {key: value.astype(np.float64) for key, value in arrays.items()}, config)
    config_wide, arrays_wide = load_checkpoint(wide)
    assert config_wide == config and arrays_wide.keys() == arrays.keys()
    for key, value in arrays_wide.items():
        assert value.dtype == np.float64 and np.array_equal(value, arrays[key]), key
    assert wide.stat().st_size > 1.9 * first.stat().st_size
    _run(phase)(_cfg(tmp_path / "resumed", epochs=2), dataset, resume=str(wide))
    full = (tmp_path / "full" / "checkpoint-epoch001.dvoc").read_bytes()
    assert (tmp_path / "resumed" / "checkpoint-epoch001.dvoc").read_bytes() == full


def test_a_rerun_into_the_same_out_dir_rewrites_every_file_as_it_was(tmp_path, dataset):
    # each file of the second run replaces the first's: the checkpoints keep
    # their bytes, the report differs in its wall clock only, and no `.tmp`
    # is left beside them
    cfg = _cfg(tmp_path, epochs=2)
    names = ["checkpoint-epoch000.dvoc", "checkpoint-epoch001.dvoc", "report.json"]
    train.finetune_run(cfg, dataset)
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    first = {name: (tmp_path / name).read_bytes() for name in names}
    train.finetune_run(cfg, dataset)
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names[:2]:
        assert (tmp_path / name).read_bytes() == first[name], name
        assert len(first[name]) <= 5_200_000, (name, len(first[name]))
    assert [load_checkpoint(tmp_path / name)[0]["extra"]["epoch"] for name in names[:2]] == [0, 1]
    reports = [json.loads(raw) for raw in (first["report.json"], (tmp_path / "report.json").read_bytes())]
    for report in reports:
        report.pop("wall_clock_sec")
    assert reports[0] == reports[1]


def test_a_float64_checkpoint_loads_rounded_to_float32(tmp_path):
    # a checkpoint of a float64 model's parameters and moments, which
    # save_checkpoint stores as f8: each loads as its float32 rounding
    cfg = _cfg(tmp_path, epochs=1)
    wide = oracles.float64_model(DvoModel(cfg.model, np.random.default_rng(1)))
    rng = np.random.default_rng(2)
    for _, param in wide.named_parameters():
        param.data = param.data + rng.normal(scale=1e-3, size=param.shape)  # not float32 values
    opt = AdamW(list(wide.named_parameters()))
    for name, p in wide.named_parameters():
        opt.grad_views[name][...] = rng.normal(size=p.shape)
    opt.step()
    arrays = {f"model.{name}": p.data for name, p in wide.named_parameters()} | opt.state_arrays()
    path = tmp_path / "wide.dvoc"
    save_checkpoint(path, arrays, train._checkpoint_config(cfg, "finetune", 0))
    assert all(value.dtype == np.float64 for value in load_checkpoint(path)[1].values())
    model = DvoModel(cfg.model, np.random.default_rng(0))
    narrow = AdamW(list(model.named_parameters()))
    assert train._load_checkpoint_into(path, model, narrow) == 0
    loaded = {f"model.{name}": p.data for name, p in model.named_parameters()} | narrow.state_views()
    assert loaded.keys() == arrays.keys()
    for key, value in loaded.items():
        want = arrays[key] if key == "opt.step" else arrays[key].astype(np.float32)
        assert value.dtype == want.dtype and value.tobytes() == want.tobytes(), key


def test_a_checkpoint_written_with_dpt_source_blocks_names_the_key(tmp_path, dataset, finetune_checkpoint):
    # checkpoints once recorded the DPT head's tapped blocks, now derived from dec_depth
    config, arrays = finetune_checkpoint
    ckpt = tmp_path / "older.dvoc"
    save_checkpoint(ckpt, arrays, {**config, "model": {**config["model"], "dpt_source_blocks": [1, 2, 3, 4]}})
    expected = f"{ckpt} differs from the model in dpt_source_blocks (checkpoint [1, 2, 3, 4], model absent)"
    with pytest.raises(ValueError, match=re.escape(f"checkpoint/config mismatch: {expected}")):
        train.finetune_run(_cfg(tmp_path / "fine", epochs=1), dataset, init_checkpoint=str(ckpt))


_MALFORMED_HEADERS = {
    "not-an-object": (lambda config: [config], "has no model configuration"),
    "no-model": (lambda config: {"extra": config["extra"]}, "has no model configuration"),
    "no-epoch": (lambda config: {**config, "extra": {"phase": "finetune"}}, "has no integer extra.epoch"),
    "text-epoch": (lambda config: {**config, "extra": {**config["extra"], "epoch": "first"}}, "has no integer extra.epoch"),
}


@pytest.mark.parametrize(
    "route, case",
    [("init_checkpoint", "not-an-object"), ("init_checkpoint", "no-model")]
    + [("resume", case) for case in _MALFORMED_HEADERS],
)
def test_a_malformed_checkpoint_config_raises_data_error_naming_the_path(
    tmp_path, dataset, finetune_checkpoint, route, case
):
    config, arrays = finetune_checkpoint
    header, message = _MALFORMED_HEADERS[case]
    ckpt = tmp_path / "malformed.dvoc"
    save_checkpoint(ckpt, arrays, header(config))
    with pytest.raises(DataError, match=re.escape(f"checkpoint {ckpt} {message}")):
        train.finetune_run(_cfg(tmp_path / "run", epochs=2), dataset, **{route: str(ckpt)})


_MISSHAPEN = {
    # case: (route, array, stored value from the written one, message after the path)
    "moment-shape": (
        "resume", "opt.m.dec_blocks.0.attn.proj.bias", lambda a: a[:1],
        "holds 'opt.m.dec_blocks.0.attn.proj.bias' of shape (1,), the model needs (48,)",
    ),
    "model-shape-resume": (
        "resume", "model.enc_blocks.1.attn.qkv.weight", lambda a: a[:, :-1],
        "holds 'model.enc_blocks.1.attn.qkv.weight' of shape (64, 191), the model needs (64, 192)",
    ),
    "model-shape-warm-start": (
        "init_checkpoint", "model.dec_proj.bias", lambda a: a[None],
        "holds 'model.dec_proj.bias' of shape (1, 48), the model needs (48,)",
    ),
    "nan-step": ("resume", "opt.step", lambda a: a * np.nan, "holds 'opt.step' nan, not a non-negative integer"),
    "negative-step": ("resume", "opt.step", lambda a: -a, "holds 'opt.step' -2.0, not a non-negative integer"),
    "fractional-step": ("resume", "opt.step", lambda a: a + 0.5, "holds 'opt.step' 2.5, not a non-negative integer"),
    "step-shape": ("resume", "opt.step", lambda a: np.zeros(2), "holds 'opt.step' of shape (2,), the model needs (1,)"),
}


@pytest.mark.parametrize("case", list(_MISSHAPEN))
def test_a_checkpoint_array_of_the_wrong_shape_or_step_raises_data_error_naming_it(
    tmp_path, dataset, finetune_checkpoint, case
):
    route, name, stored, message = _MISSHAPEN[case]
    config, arrays = finetune_checkpoint
    ckpt = tmp_path / "misshapen.dvoc"
    save_checkpoint(ckpt, {**arrays, name: stored(arrays[name])}, config)
    with pytest.raises(DataError, match=re.escape(f"checkpoint {ckpt} {message}")):
        train.finetune_run(_cfg(tmp_path / "run", epochs=2), dataset, **{route: str(ckpt)})


def test_gradients_keep_the_callers_checked_mode(dataset, monkeypatch):
    # DVO_THREADS once selected a thread pool whose workers did not see the
    # caller's thread-local checked mode; it must change nothing now.
    monkeypatch.setenv("DVO_THREADS", "2")
    model = DvoModel(toy_config(), np.random.default_rng(2))
    seen = []

    def loss_fn(m, jobs):
        seen.append(ad.checked_enabled())
        return [_loss(m, pair) for pair in jobs]

    with ad.checked(False):
        _gradients(model, [[pair] for pair in dataset.pairs[:2]], loss_fn)
    assert seen == [False, False]


def test_version_string_does_not_depend_on_the_working_directory(tmp_path, monkeypatch):
    here = train.version_string()
    monkeypatch.chdir(tmp_path)
    assert train.version_string() == here


def test_finetune_records_one_eval_snapshot_per_epoch(tmp_path, dataset):
    eval_set = train.PairDataset(dataset.pairs[:2])
    model, report = train.finetune_run(_cfg(tmp_path, epochs=2), dataset, eval_dataset=eval_set)
    assert len(report.eval_snapshots) == 2
    assert report.eval_snapshots[0] != report.eval_snapshots[1]
    assert report.eval_snapshots[-1] == json.loads(train.evaluate_depth(model, eval_set).to_json())
