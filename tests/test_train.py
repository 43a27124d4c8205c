"""Training loops: resume equivalence, ordered gradient reduction, divergence
reporting, checkpoint/config consistency, per-epoch evaluation and the
version string."""

import json
import re

import numpy as np
import pytest

from dvokit import autodiff as ad
from dvokit import train
from dvokit.autodiff import NonFiniteError
from dvokit.formats import DataError
from dvokit.losses import total_loss
from dvokit.model import DvoModel, forward_dvo, toy_config
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

    scalars, grads_by_name = train.batch_gradients(model, dataset.pairs, _loss)

    assert scalars == [_loss(model, pair)[1] for pair in dataset.pairs]
    assert list(grads_by_name) == [n for n, _ in named]
    for i, (name, _) in enumerate(named):
        expected = (per_job[0][i] + per_job[1][i] + per_job[2][i]) * (1.0 / 3.0)
        assert np.array_equal(grads_by_name[name], expected), name


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


def _cut_before(path, name_prefix: bytes) -> None:
    """Truncate a checkpoint at the first array whose name starts with the
    prefix, so the file ends cleanly after the array before it."""
    raw = path.read_bytes()
    path.write_bytes(raw[: raw.index(name_prefix) - 4])  # each array opens with its u32 name length


def test_warm_start_from_a_checkpoint_missing_model_arrays_raises(tmp_path, dataset):
    train.pretrain_run(_cfg(tmp_path / "pre", epochs=1), dataset)
    ckpt = tmp_path / "pre" / "checkpoint-epoch000.dvoc"
    _cut_before(ckpt, b"model.pixel_head.")
    with pytest.raises(DataError, match=re.escape(str(ckpt))):
        train.finetune_run(_cfg(tmp_path / "fine", epochs=1), dataset, init_checkpoint=str(ckpt))


def test_resume_from_a_checkpoint_missing_optimizer_arrays_raises(tmp_path, dataset):
    train.finetune_run(_cfg(tmp_path / "first", epochs=1), dataset)
    ckpt = tmp_path / "first" / "checkpoint-epoch000.dvoc"
    _cut_before(ckpt, b"opt.")
    with pytest.raises(DataError, match=re.escape(str(ckpt))):
        train.finetune_run(_cfg(tmp_path / "resumed", epochs=2), dataset, resume=str(ckpt))


@pytest.mark.parametrize("phase", ["finetune", "pretrain"])
def test_resume_with_a_different_model_config_raises(tmp_path, dataset, phase):
    _run(phase)(_cfg(tmp_path / "first", epochs=1), dataset)
    ckpt = str(tmp_path / "first" / "checkpoint-epoch000.dvoc")
    with pytest.raises(ValueError, match="mismatch"):
        _run(phase)(_cfg(tmp_path / "resumed", epochs=2, enc_depth=2), dataset, resume=ckpt)


def test_init_checkpoint_with_a_different_model_config_raises(tmp_path, dataset):
    train.pretrain_run(_cfg(tmp_path / "pre", epochs=1), dataset)
    ckpt = str(tmp_path / "pre" / "checkpoint-epoch000.dvoc")
    with pytest.raises(ValueError, match="mismatch"):
        train.finetune_run(_cfg(tmp_path / "fine", epochs=1, adapter_dim=8), dataset, init_checkpoint=ckpt)


def test_gradients_keep_the_callers_checked_mode(dataset, monkeypatch):
    # DVO_THREADS once selected a thread pool whose workers did not see the
    # caller's thread-local checked mode; it must change nothing now.
    monkeypatch.setenv("DVO_THREADS", "2")
    model = DvoModel(toy_config(), np.random.default_rng(2))
    seen = []

    def loss_fn(m, pair):
        seen.append(ad.checked_enabled())
        return _loss(m, pair)

    with ad.checked(False):
        train.batch_gradients(model, dataset.pairs[:2], loss_fn)
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
