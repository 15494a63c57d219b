"""The benchmark's workloads.

Each is a closed loop with one client in one process: the next operation
starts only after the previous one returned.  An operation is a training
step (``train_toy``), an inference request (``infer_224``) or one
layout-plus-gradient suite pass (``verify``).  Inputs come only from the
seed.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import segnetr
import segnetr.training
import segnetr.verify
from segnetr.autodiff.tensor import Tensor, no_grad

from tracing import Patcher, StepClock, Tracer

#: Largest relative L2 distance between the float32 logits and the logits
#: of a float64 copy of the same weights.
F64_TOLERANCE = 1e-4


@dataclasses.dataclass(frozen=True)
class Sizes:
    train_resolution: int = 112
    train_channels: int = 16
    train_steps_per_call: int = 20
    train_eval_interval: int = 10
    train_batch: int = 4
    infer_resolution: int = 224
    infer_channels: int = 64
    infer_inputs: int = 4
    layout_cases_per_p: int = 50


FULL = Sizes()
SMOKE = Sizes(train_resolution=32, train_channels=4, train_steps_per_call=2, train_eval_interval=1,
              infer_resolution=32, infer_channels=4, infer_inputs=2, layout_cases_per_p=2)


class Workload:
    name = ""
    #: what one operation is, and what ``items_per_s`` counts
    op_name = ""
    item_name = ""

    def __init__(self, seed: int, sizes: Sizes, out_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir
        self.samples_ms: list[float] = []
        self.items = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.record: dict = {}
        self.tracer: Tracer | None = None

    def install(self, patcher: Patcher) -> None:
        """Hooks the untimed bookkeeping needs in every run."""

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Correctness checks that run outside the timed loop."""

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def op_span(self, name: str, new_op: bool = True):
        """Open a root span for one operation when tracing; returns a closer.
        Training advances the op id at each optimizer step instead."""
        tr = self.tracer
        if tr is None:
            return lambda: None
        tr.op_id += new_op
        idx = tr.open(name, "op")
        return lambda: tr.close(idx)


def loop(workload: Workload, seconds: float) -> dict:
    """Run iterations for about ``seconds``: the next one starts while at
    least half of a median iteration still fits."""
    workload.samples_ms, workload.items, workload.busy_s = [], 0, 0.0
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.iteration()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(durations) > seconds:
            break
    return {"samples_ms": list(workload.samples_ms), "items": workload.items,
            "busy_s": workload.busy_s, "wall_s": elapsed, "iterations": len(durations)}


# -- train_toy ------------------------------------------------------------------


class TrainToy(Workload):
    name = "train_toy"
    op_name = "optimizer step (forward, cross-entropy, backward, Adam)"
    item_name = "training samples per second of train() wall time, evaluation and checkpoint included"

    def install(self, patcher: Patcher) -> None:
        self.clock = StepClock()
        self.clock.install(patcher)
        self.csv_hashes: set[str] = set()

    def _run(self, out_dir: str, steps: int, **extra) -> segnetr.TrainRun:
        return segnetr.TrainRun(self.cfg, steps=steps, batch_size=self.sizes.train_batch,
                                eval_interval=self.sizes.train_eval_interval, out_dir=out_dir,
                                **extra)

    def setup(self) -> None:
        s = self.sizes
        self.cfg = dataclasses.replace(segnetr.toy_config(self.seed), resolution=s.train_resolution,
                                       base_channels=s.train_channels)
        self.cost = segnetr.cost_report(segnetr.model.build(self.cfg))
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            segnetr.training.train(self._run(tmp, 1, train_size=s.train_batch, eval_size=s.train_batch))

    def iteration(self) -> None:
        steps = self.sizes.train_steps_per_call
        first = len(self.clock.step_ms)
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            run = self._run(tmp, steps)
            close = self.op_span("op.train_call", new_op=False)
            t0 = time.perf_counter()
            try:
                model = segnetr.training.train(run)
            except Exception as exc:  # a failed step is counted, not fatal
                self.busy_s += time.perf_counter() - t0
                close()
                self.check(False, f"train step {len(run.loss_history)}: {type(exc).__name__}: {exc}")
                self.attempted += len(run.loss_history)
                return
            self.busy_s += time.perf_counter() - t0
            close()
            self.samples_ms += self.clock.step_ms[first:]
            self.items += len(run.loss_history) * self.sizes.train_batch
            for step, loss in enumerate(run.loss_history):
                self.check(math.isfinite(loss), f"loss {loss} at step {step}")
            digest = hashlib.sha256((Path(tmp) / "metrics.csv").read_bytes()).hexdigest()
            self.csv_hashes.add(digest)
            self.record["metrics_csv_sha256"] = digest
            self.check(len(self.csv_hashes) == 1, "metrics.csv differs between calls with one seed")
            fresh = segnetr.training.load_checkpoint(run.checkpoint_path, segnetr.model.build(self.cfg))
            same = all(_bitwise_equal(a, b) for (_, a), (_, b)
                       in zip(model.named_state(), fresh.named_state()))
            self.check(same, "model.ckpt does not reload bit for bit")


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- infer_224 ------------------------------------------------------------------


def _as_trained(model, seed: int, calibration: np.ndarray) -> None:
    """Stand in for a trained checkpoint, from the seed alone.

    A fresh build starts the head and the fusion weights at zero, which
    makes every logit zero and every output check vacuous, and keeps the
    batch-norm running statistics at (0, 1), under which eval-mode
    activations grow to about 1e5 by the head.  So the head gets a
    Kaiming-uniform draw, the fusion weights 0.5, and the running statistics
    the batch statistics of one train-mode forward over ``calibration``
    (momentum 1, no graph recorded)."""
    rng = np.random.default_rng([seed, 1])
    head = model.head.weight
    bound = math.sqrt(6.0 / (head.shape[1] * head.shape[2] * head.shape[3]))
    head.data[...] = rng.uniform(-bound, bound, size=head.shape)
    for name, p in model.named_parameters():
        if name.endswith(("alpha_local", "alpha_global")):
            p.data[...] = 0.5
    norms = [m for m in model.modules() if isinstance(m, segnetr.blocks.BatchNorm2d)]
    for m in norms:
        m.momentum = 1.0
    model.train()
    with no_grad():
        model(Tensor(calibration))
    for m in norms:
        m.momentum = 0.1
    model.eval()


class Infer224(Workload):
    name = "infer_224"
    op_name = "batch-1 eval forward under no_grad plus argmax"
    item_name = "images per second of request time"

    def setup(self) -> None:
        """Build, inputs, cost report; the calibration forward in
        ``_as_trained`` is the warm-up call."""
        s = self.sizes
        self.cfg = segnetr.ModelConfig(variant="segnetr", base_channels=s.infer_channels,
                                       resolution=s.infer_resolution, seed=self.seed)
        self.model = segnetr.model.build(self.cfg)
        self.images = segnetr.gen_synthetic(s.infer_inputs, s.infer_resolution, 2, self.seed).images
        self.cost = segnetr.cost_report(self.model)
        _as_trained(self.model, self.seed, self.images[:2])
        self.first: dict[int, np.ndarray] = {}
        self.requests = 0

    def _request(self, i: int):
        with no_grad():
            logits = self.model(Tensor(self.images[i : i + 1]))
        return logits.data, np.argmax(logits.data, axis=1)

    def iteration(self) -> None:
        i = self.requests % self.sizes.infer_inputs
        self.requests += 1
        close = self.op_span("op.request")
        t0 = time.perf_counter()
        try:
            logits, pred = self._request(i)
        except Exception as exc:
            close()
            self.check(False, f"request {self.requests}: {type(exc).__name__}: {exc}")
            return
        dt = time.perf_counter() - t0
        close()
        self.samples_ms.append(dt * 1e3)
        self.busy_s += dt
        self.items += 1
        r = self.sizes.infer_resolution
        ok = (logits.shape == (1, 2, r, r) and pred.shape == (1, r, r)
              and bool(np.isfinite(logits).all()))
        if ok and i in self.first:
            ok = logits.tobytes() == self.first[i].tobytes()
        elif ok:
            self.first[i] = logits
        self.check(ok, f"request {self.requests} on input {i}: bad shape, non-finite or changed logits")

    def finish(self) -> None:
        if 0 not in self.first:
            self.check(False, "no float32 logits of input 0 to compare with float64")
            return
        model64 = segnetr.model.build(self.cfg, dtype=np.float64).eval()
        for (_, mine), (_, theirs) in zip(model64.named_state(), self.model.named_state()):
            np.copyto(mine, theirs)
        with no_grad():
            ref = model64(Tensor(self.images[:1].astype(np.float64), dtype=np.float64)).data
        err = float(np.linalg.norm(self.first[0] - ref) / np.linalg.norm(ref))
        self.record["f64_relative_error"] = err
        self.record["f64_tolerance"] = F64_TOLERANCE
        self.check(err <= F64_TOLERANCE, f"float32 logits differ from float64 by {err:.3e}")
        total = self.cost.total("2flop")
        self.record["forward_2flop"] = total
        if self.samples_ms:
            self.record["gflops_per_s"] = total / statistics.median(self.samples_ms) / 1e6


# -- verify ---------------------------------------------------------------------


class Verify(Workload):
    name = "verify"
    op_name = "one layout_suite plus gradient_suite pass"
    item_name = "suite checks per second"

    def setup(self) -> None:
        segnetr.verify.layout_suite(self.seed, cases_per_p=self.sizes.layout_cases_per_p)

    def iteration(self) -> None:
        close = self.op_span("op.pass")
        t0 = time.perf_counter()
        try:
            results = (segnetr.verify.layout_suite(self.seed, cases_per_p=self.sizes.layout_cases_per_p)
                       + segnetr.verify.gradient_suite(self.seed))
        except Exception as exc:
            close()
            self.check(False, f"suite pass raised {type(exc).__name__}: {exc}")
            return
        dt = time.perf_counter() - t0
        close()
        self.samples_ms.append(dt * 1e3)
        self.busy_s += dt
        self.items += len(results)
        for r in results:
            self.check(r.passed, f"{r.name}: {r.detail}")


WORKLOADS = {w.name: w for w in (TrainToy, Infer224, Verify)}
