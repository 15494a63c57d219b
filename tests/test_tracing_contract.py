"""The benchmark's tracer against the program it wraps.

``perfbench/tracing.py`` finds the layout ops and modules it times by name;
a rename or a layout op that stops being called would leave its per-layer
metrics empty without failing anything.  This test installs the tracer as
the benchmark does, runs one small training step and one evaluation
forward, and checks what it saw.  The tracer is only read, never changed.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

import segnetr.model
import segnetr.training
from segnetr.autodiff import Tensor, no_grad

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layout_op_and_padded_windows(tmp_path):
    tracing = _load_tracing()
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    # the default schedule tiles every 32² stage exactly; P=2 at the 2×2
    # deepest stage pads its global windows from 2×2 to 4×4
    cfg = dataclasses.replace(segnetr.training.toy_config(0), resolution=32, base_channels=4,
                              patch_schedule=(8, 4, 2, 2))
    tracer.install(patcher)
    try:
        segnetr.training.train(segnetr.training.TrainRun(
            cfg, steps=1, batch_size=2, eval_interval=1, train_size=2, eval_size=2, out_dir=str(tmp_path)))
        model = segnetr.model.build(cfg).eval()
        image = np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype(np.float32)
        with no_grad():
            model(Tensor(image))
    finally:
        patcher.restore()
    assert {f"layout.{op}" for op in tracing.LAYOUT_OPS} <= set(tracer.names)
    assert not tracer.errors
    assert tracer.window_padded > 0
