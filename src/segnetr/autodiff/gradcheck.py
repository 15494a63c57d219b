"""Central finite-difference gradient verification.

Runs in 64-bit: callers build their inputs as float64 tensors and the checked
function must route through the autodiff ops.  Non-scalar outputs are reduced
with a fixed random projection so one backward pass covers every output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, backward, no_grad, sum_


@dataclass
class GradCheckResult:
    max_rel_error: float
    per_input: list[float]

    def ok(self, tol: float) -> bool:
        return self.max_rel_error < tol


STEP = 1e-4


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def grad_check(fn: Callable[..., Tensor], inputs: Sequence[Tensor]) -> GradCheckResult:
    """Compare analytic gradients of ``fn(*inputs)`` against central
    differences of step ``STEP``, at every coordinate of every input.

    Relative error uses a max(|a|, |b|, 1e-8) denominator.
    """
    probe = fn(*inputs)
    projection = None
    if probe.size != 1:
        # Small projections keep the loss and its forward round-off tiny, so
        # central-difference noise stays far below the 1e-8 error floor while
        # per-coordinate gradients remain well above it.
        projection = Tensor(
            np.random.default_rng(0).standard_normal(probe.shape).astype(probe.dtype)
            / (probe.size * 64)
        )

    def loss() -> Tensor:
        out = fn(*inputs)
        if projection is not None:
            out = sum_(out * projection)
        return out

    for t in inputs:
        t.grad = None
    backward(loss())
    analytic = [None if t.grad is None else t.grad.copy() for t in inputs]

    per_input: list[float] = []
    with no_grad():
        for t, ana in zip(inputs, analytic):
            if not t.requires_grad:
                per_input.append(0.0)
                continue
            if ana is None:
                ana = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            worst = 0.0
            ana_flat = ana.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + STEP
                f_plus = float(loss().data)
                flat[i] = saved - STEP
                f_minus = float(loss().data)
                flat[i] = saved
                numeric = (f_plus - f_minus) / (2.0 * STEP)
                worst = max(worst, _rel_error(float(ana_flat[i]), numeric))
            per_input.append(worst)
    return GradCheckResult(max(per_input, default=0.0), per_input)
