"""Training and evaluation loops, checkpoint persistence, metric logging.

Everything downstream of (seed, config) is deterministic: data generation,
batch sampling, initialization, and optimization draw from spawned
SeedSequence children, and the metrics CSV and checkpoint bytes are fixed
functions of the run.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import functional as F
from .autodiff.adam import Adam
from .autodiff.module import Module
from .autodiff.tensor import Tensor, backward, no_grad
from .costs import Metrics, confusion, iou_dice
from .data import SyntheticDataset, gen_synthetic
from .errors import (
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    TrainingError,
)
from .model import ModelConfig, build

CHECKPOINT_MAGIC = b"SGNR"
CHECKPOINT_VERSION = 1


def toy_config(seed: int = 0) -> ModelConfig:
    """Default desk-scale task: 112×112 SegNetr(C=16), two classes.

    The 7×7 deepest stage (P=1, global window 2) exercises the odd-grid
    cyclic-wrap displacement path on purpose."""
    return ModelConfig(variant="segnetr", base_channels=16, resolution=112,
                       num_classes=2, seed=seed)


@dataclass
class TrainRun:
    """One training job plus its accumulated histories.

    ``loss_history`` gains one entry per executed step; ``metric_history``
    gains one ``(step, mean_iou, mean_dice)`` entry per held-out evaluation
    (every ``eval_interval`` steps and at the final step).  ``target_dice``
    stops the run early once the held-out Dice reaches it.  ``steps`` and
    ``eval_interval`` must be at least 1 and ``batch_size`` at least 2
    (training-mode batch norm rejects a singleton batch).
    """

    cfg: ModelConfig
    steps: int = 500
    batch_size: int = 4
    eval_interval: int = 50
    lr: float = 1e-4
    train_size: int = 64
    eval_size: int = 16
    target_dice: Optional[float] = None
    out_dir: Optional[str] = None
    seed: Optional[int] = None  # defaults to cfg.seed
    loss_history: list[float] = field(default_factory=list)
    metric_history: list[tuple[int, float, float]] = field(default_factory=list)
    checkpoint_path: Optional[str] = None

    def __post_init__(self):
        for name, least in (("steps", 1), ("eval_interval", 1), ("batch_size", 2)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.seed is None:
            self.seed = self.cfg.seed


def predict(model: Module, images: np.ndarray, batch_size: int = 4) -> np.ndarray:
    """Class maps from argmax over the logits channel, in eval mode."""
    was_training = model.training
    model.eval()
    preds = []
    with no_grad():
        for start in range(0, images.shape[0], batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            preds.append(np.argmax(logits.data, axis=1))
    if was_training:
        model.train()
    return np.concatenate(preds, axis=0)


def evaluate(model: Module, dataset: SyntheticDataset, batch_size: int = 4) -> Metrics:
    """Mean IoU/Dice over the dataset; mutates nothing on the model."""
    preds = predict(model, dataset.images, batch_size)
    counts = confusion(preds, dataset.masks, dataset.num_classes)
    return iou_dice(counts)


def train(run: TrainRun, model: Optional[Module] = None) -> Module:
    """Run the training loop described by ``run`` and return the model.

    Per step: forward, cross-entropy, backward, Adam update, loss logged.
    Held-out IoU/Dice are computed every ``eval_interval`` steps and at the
    end.  A non-finite loss aborts with a TrainingError naming the step;
    the step's logits and loss, which own its graph, are dropped first, so
    the traceback does not keep the graph alive.
    """
    cfg = run.cfg
    cfg.validate()
    train_seed, eval_seed, batch_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(run.seed).spawn(3)
    )
    train_ds = gen_synthetic(run.train_size, cfg.resolution, cfg.num_classes, train_seed)
    eval_ds = gen_synthetic(run.eval_size, cfg.resolution, cfg.num_classes, eval_seed)
    if model is None:
        model = build(cfg)
    optimizer = Adam([p for _, p in model.named_parameters()], lr=run.lr)
    batch_rng = np.random.default_rng(batch_seed)

    csv_lines = ["step,loss,mean_iou,mean_dice"]
    stop = False
    for step in range(run.steps):
        model.train()
        idx = batch_rng.integers(0, len(train_ds), size=run.batch_size)
        logits = model(Tensor(train_ds.images[idx]))
        loss = F.cross_entropy(logits, train_ds.masks[idx])
        loss_value = float(loss.data)
        if not math.isfinite(loss_value):
            del logits, loss
            raise TrainingError(f"non-finite loss {loss_value} at step {step}")
        run.loss_history.append(loss_value)
        optimizer.zero_grad()
        backward(loss)
        optimizer.step()

        last = step == run.steps - 1
        if (step + 1) % run.eval_interval == 0 or last:
            metrics = evaluate(model, eval_ds, run.batch_size)
            run.metric_history.append((step, metrics.mean_iou, metrics.mean_dice))
            csv_lines.append(
                f"{step},{loss_value!r},{metrics.mean_iou!r},{metrics.mean_dice!r}"
            )
            if run.target_dice is not None and metrics.mean_dice >= run.target_dice:
                stop = True
        else:
            csv_lines.append(f"{step},{loss_value!r},,")
        if stop:
            break

    if run.out_dir is not None:
        out = Path(run.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
        run.checkpoint_path = str(out / "model.ckpt")
        save_checkpoint(model, run.checkpoint_path)
    return model


# -- checkpoint format -------------------------------------------------------
#
# magic "SGNR" | version u32 | tensor count u32 | per tensor:
#   name length u16 | UTF-8 name | rank u8 | extents u32 each | raw LE f32
# Tensor order is the model's named_state construction order.


def save_checkpoint(model: Module, path: str) -> None:
    # written to a temp file and renamed, so a failed write keeps an earlier checkpoint
    entries = list(model.named_state())
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(entries)))
            for name, arr in entries:
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise CheckpointTruncatedError(f"file ended while reading {what}")
    return data


def load_checkpoint(path: str, model: Module) -> Module:
    """Load a checkpoint into ``model`` in place; shapes and names must match
    the model's own state order exactly."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointMagicError(f"{path} does not start with {CHECKPOINT_MAGIC!r}")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(f"unsupported checkpoint version {version}")
        entries = list(model.named_state())
        if count != len(entries):
            raise CheckpointShapeError(
                f"checkpoint holds {count} tensors, model expects {len(entries)}"
            )
        for name, arr in entries:
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            stored = _read_exact(fh, name_len, "name").decode("utf-8")
            if stored != name:
                raise CheckpointShapeError(f"expected tensor {name!r}, found {stored!r}")
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, f"{name} rank"))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"{name} extents"))
            if shape != arr.shape:
                raise CheckpointShapeError(
                    f"tensor {name!r} has shape {shape} in file, {arr.shape} in model"
                )
            raw = _read_exact(fh, 4 * arr.size, f"{name} data")
            values = np.frombuffer(raw, dtype="<f4").reshape(shape)
            np.copyto(arr, values.astype(arr.dtype, copy=False))
        if fh.read(1):
            raise CheckpointShapeError(f"{path} has trailing bytes after {count} tensors")
    return model
