"""Training loops: resume equivalence, ordered gradient reduction, divergence
reporting, adapter finetuning with a frozen backbone, checkpoint/config
consistency, per-epoch evaluation and the version string."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dvokit import autodiff as ad
from dvokit import model as model_module
from dvokit import train
from dvokit.autodiff import NonFiniteError
from dvokit.formats import DataError
from dvokit.losses import total_loss
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


def test_a_nan_gradient_behind_a_finite_loss_names_the_parameter(tmp_path, dataset, monkeypatch):
    def loss_with_nan_gradient(pair, depth_a, *args, **kwargs):
        bd = total_loss(pair, depth_a, *args, **kwargs)
        # finite forward (sqrt(0) = 0), but the backward of sqrt at 0 is 0/0
        return replace(bd, l_total=bd.l_total + 0 * (depth_a.mean() * 0).sqrt())

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
            return replace(bd, l_total=bd.l_total + 0 * (depth_a.mean() * 0).sqrt())
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
