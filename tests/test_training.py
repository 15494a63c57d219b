"""Training loop, evaluation, and checkpoint persistence tests."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from segnetr.autodiff import Tensor
from segnetr.autodiff import functional as F
from segnetr.autodiff.module import Module
from segnetr.costs import confusion, iou_dice
from segnetr.data import SyntheticSamples, gen_synthetic
from segnetr.errors import (
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from segnetr.model import ModelConfig, build
from segnetr.training import (
    CHECKPOINT_MAGIC,
    TrainRun,
    evaluate,
    load_checkpoint,
    predict,
    save_checkpoint,
    toy_config,
    train,
)

from .conftest import perturb_state


def small_cfg(seed=0, **over):
    return ModelConfig(base_channels=4, resolution=32, seed=seed, **over)


def small_run(seed=0, **over):
    kw = dict(steps=4, batch_size=2, eval_interval=2, train_size=6, eval_size=4)
    kw.update(over)
    return TrainRun(small_cfg(seed=seed), **kw)


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        model = build(small_cfg())
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        train(small_run(lr=0.0), model=model)
        for n, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[n], err_msg=n)

    def test_default_run_is_the_toy_task(self):
        cfg = toy_config()
        assert (cfg.resolution, cfg.base_channels, cfg.num_classes) == (112, 16, 2)
        run = TrainRun(cfg)
        assert run.steps == 500 and run.lr == 1e-4 and run.batch_size == 4

    def test_histories_are_deterministic(self):
        a, b = small_run(seed=5), small_run(seed=5)
        train(a)
        train(b)
        assert a.loss_history == b.loss_history
        assert a.metric_history == b.metric_history

    def test_different_seed_changes_history(self):
        a, b = small_run(seed=5), small_run(seed=6)
        train(a)
        train(b)
        assert a.loss_history != b.loss_history

    def test_history_lengths_match_step_count(self):
        run = small_run(steps=5, eval_interval=2)
        train(run)
        assert len(run.loss_history) == 5
        assert [s for s, _, _ in run.metric_history] == [1, 3, 4]

    def test_non_finite_loss_aborts_naming_the_step(self, monkeypatch):
        model = build(small_cfg())
        model.stem.weight.data[...] = np.nan
        logits_refs = []
        cross_entropy = F.cross_entropy

        def recording_cross_entropy(logits, labels):
            logits_refs.append(weakref.ref(logits.data))
            return cross_entropy(logits, labels)

        monkeypatch.setattr(F, "cross_entropy", recording_cross_entropy)
        with pytest.raises(TrainingError, match="at step 0") as failure:
            train(small_run(), model=model)
        # the traceback held by ``failure`` does not keep the failed step's graph
        assert failure.traceback and [ref() for ref in logits_refs] == [None]

    def test_target_dice_stops_early(self):
        run = small_run(steps=50, eval_interval=2, target_dice=0.0)
        train(run)
        assert len(run.loss_history) == 2

    def test_writes_csv_and_checkpoint(self, tmp_path):
        run = small_run(steps=3, eval_interval=2, out_dir=str(tmp_path))
        train(run)
        csv = (tmp_path / "metrics.csv").read_text().splitlines()
        assert csv[0] == "step,loss,mean_iou,mean_dice"
        assert len(csv) == 4
        assert csv[1].endswith(",,")  # step 0: no eval columns
        assert run.checkpoint_path == str(tmp_path / "model.ckpt")
        assert (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("name, value, least", [
        ("steps", 0, 1), ("eval_interval", 0, 1), ("batch_size", 1, 2),
        ("train_size", 0, 1), ("train_size", -3, 1), ("eval_size", 0, 1),
    ])
    def test_sizes_below_their_least_rejected_at_construction(self, tmp_path, name, value, least):
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match=f"^{name} must be >= {least}, got {value}$"):
            small_run(out_dir=str(out), **{name: value})
        assert not out.exists()

    def test_unusable_out_dir_fails_before_the_first_step(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        run = small_run(out_dir=str(taken))
        with pytest.raises(FileExistsError):
            train(run)
        assert run.loss_history == []


class TestDataResidency:
    """``train`` paints each batch from its indices: neither the training
    nor the held-out set is ever held whole."""

    BATCH = 16

    def _peak(self, **sizes):
        run = small_run(steps=2, eval_interval=2, batch_size=self.BATCH, **sizes)
        tracemalloc.start()
        try:
            train(run)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_set_sizes(self):
        train(small_run(steps=1, batch_size=self.BATCH))  # first-call caches
        batch_bytes = self.BATCH * 32 * 32 * (3 * 4 + 8)  # float32 images, int64 masks
        small = self._peak(train_size=8, eval_size=8)
        # 512 samples at 32² are 10.5 MB, 32 batches' worth
        for sizes in (dict(train_size=512, eval_size=8), dict(train_size=8, eval_size=512)):
            assert abs(self._peak(**sizes) - small) < batch_bytes, sizes


class TestEvaluate:
    def test_evaluate_twice_is_identical_and_pure(self):
        model = build(small_cfg())
        ds = gen_synthetic(4, 32, 2, seed=1)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        m1 = evaluate(model, ds)
        m2 = evaluate(model, ds)
        assert (m1.mean_iou, m1.mean_dice) == (m2.mean_iou, m2.mean_dice)
        for n, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[n])
        assert model.training

    def test_train_split_at_least_fresh_split_in_expectation(self):
        train_scores, fresh_scores = [], []
        for seed in range(5):
            run = small_run(seed=seed, steps=30, eval_interval=30, train_size=8, eval_size=8, lr=1e-3)
            model = train(run)
            train_seed = int(np.random.SeedSequence(run.cfg.seed).spawn(3)[0].generate_state(1)[0])
            train_ds = gen_synthetic(8, 32, 2, train_seed)
            fresh_ds = gen_synthetic(8, 32, 2, seed + 9000)
            train_scores.append(evaluate(model, train_ds).mean_dice)
            fresh_scores.append(evaluate(model, fresh_ds).mean_dice)
        assert np.mean(train_scores) >= np.mean(fresh_scores) - 1e-9

    def test_perfect_oracle_scores_one(self):
        ds = gen_synthetic(4, 16, 3, seed=2)

        class Oracle(Module):
            def __init__(self, masks, k):
                super().__init__()
                self.masks, self.k, self.cursor = masks, k, 0

            def eval(self):
                self.cursor = 0
                return super().eval()

            def forward(self, x):
                chunk = self.masks[self.cursor : self.cursor + x.shape[0]]
                self.cursor += x.shape[0]
                onehot = np.eye(self.k, dtype=np.float32)[chunk]
                return Tensor(onehot.transpose(0, 3, 1, 2))

        metrics = evaluate(Oracle(ds.masks, 3), ds)
        assert metrics.mean_iou == metrics.mean_dice == 1.0

    @pytest.mark.parametrize("n, batch_size, k", [(7, 3, 3), (4, 4, 2), (5, 2, 4)])
    def test_per_batch_metrics_equal_the_whole_set_counts(self, n, batch_size, k):
        model = perturb_state(build(small_cfg(num_classes=k)), 21)
        whole = gen_synthetic(n, 32, k, seed=n)
        want = iou_dice(confusion(predict(model, whole.images, batch_size), whole.masks, k))
        for data in (SyntheticSamples(n, 32, k, seed=n), whole):
            got = evaluate(model, data, batch_size)
            for field in ("iou", "dice", "evaluated"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert (got.mean_iou, got.mean_dice) == (want.mean_iou, want.mean_dice)

    def test_predict_rejects_an_empty_batch(self):
        model = build(small_cfg())
        with pytest.raises(ValidationError, match="empty batch"):
            predict(model, np.zeros((0, 3, 32, 32), dtype=np.float32))
        assert model.training

    def test_predict_restores_train_mode_when_a_forward_raises(self):
        # evaluate promises to mutate nothing, so a failed forward must not
        # leave the model in eval mode
        model = build(small_cfg())
        with pytest.raises(ShapeError):
            predict(model, np.zeros((2, 4, 32, 32), dtype=np.float32))
        assert all(m.training for m in model.modules())

    def test_predict_returns_class_maps(self):
        model = build(small_cfg(num_classes=3))
        images = gen_synthetic(3, 32, 3, seed=3).images
        preds = predict(model, images, batch_size=2)
        assert preds.shape == (3, 32, 32)
        assert preds.min() >= 0 and preds.max() < 3


class TestCheckpoints:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = build(small_cfg(seed=4))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, str(p1))
        fresh = build(small_cfg(seed=9))
        load_checkpoint(str(p1), fresh)
        save_checkpoint(fresh, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_forward_is_bitwise(self, tmp_path):
        model = perturb_state(build(small_cfg(seed=4)), 12).eval()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 3, 32, 32)).astype(np.float32))
        want = model(x).data.copy()
        assert np.abs(want).max() > 0
        fresh = load_checkpoint(path, build(small_cfg(seed=99))).eval()
        np.testing.assert_array_equal(fresh(x).data, want)

    def test_loads_and_runs_at_another_resolution(self, tmp_path):
        # the checkpoint holds no extent: a model saved from a 112 config
        # loads into a 224 build, and both give the same 224x224 logits
        model = perturb_state(build(toy_config(seed=4)), 13).eval()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        big = load_checkpoint(path, build(replace(toy_config(seed=99), resolution=224))).eval()
        x = Tensor(np.random.default_rng(5).standard_normal((1, 3, 224, 224)).astype(np.float32))
        want = model(x).data
        assert want.shape == (1, 2, 224, 224) and np.abs(want).max() > 0
        assert big(x).data.tobytes() == want.tobytes()

    def test_eval_forward_follows_loaded_checkpoint(self, tmp_path):
        # the eval fold is rebuilt on every call: a model that already ran
        # eval forwards must give the loaded weights' output, not its own
        model = perturb_state(build(small_cfg(seed=4)), 6).eval()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 3, 32, 32)).astype(np.float32))
        want = model(x).data.copy()
        other = build(small_cfg(seed=99)).eval()
        assert not np.array_equal(other(x).data, want)
        np.testing.assert_array_equal(load_checkpoint(path, other)(x).data, want)

    def test_failed_write_keeps_earlier_checkpoint(self, tmp_path):
        model = build(small_cfg(seed=4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        good = path.read_bytes()

        class FailsPartway:
            # the third tensor cannot be encoded as float32, after the
            # header and two tensors are already written
            def named_state(self):
                state = list(model.named_state())
                yield from state[:2]
                yield "bad", np.array(["not", "numbers"])

        with pytest.raises(ValueError):
            save_checkpoint(FailsPartway(), str(path))
        assert path.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_corrupt_magic_rejected(self, tmp_path):
        model = build(small_cfg())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(str(path), model)

    def test_unsupported_version_rejected(self, tmp_path):
        model = build(small_cfg())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(str(path), model)

    def test_truncated_file_rejected(self, tmp_path):
        model = build(small_cfg())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(str(path), model)

    def test_mismatched_config_names_the_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(small_cfg()), str(path))
        wider = build(ModelConfig(base_channels=6, resolution=32))
        with pytest.raises(CheckpointShapeError, match="stem.weight"):
            load_checkpoint(str(path), wider)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = build(small_cfg())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(str(path), model)

    def test_magic_constant(self):
        assert CHECKPOINT_MAGIC == b"SGNR"
