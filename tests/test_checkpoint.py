"""The block checkpoint: a SegnetrBlock recorded as one node that keeps its
input and runs its body again in the backward."""

import contextlib

import numpy as np
import pytest

from segnetr.autodiff import Module, Tensor, backward, checkpoint, no_grad, sum_
from segnetr.autodiff.tensor import _GRAD_MODE
from segnetr.blocks import INTERACTION_MODES, SegnetrBlock
from segnetr.errors import ContractError
from segnetr.model import ModelConfig, SegnetrModel
from segnetr.training import TrainRun, train

SHAPE = (2, 4, 8, 8)


def make_block(mode="parallel", dtype=np.float64):
    return SegnetrBlock(4, 2, mode, rng=np.random.default_rng(11), dtype=dtype).train()


def block_input(dtype=np.float64, seed=1):
    return Tensor(np.random.default_rng(seed).standard_normal(SHAPE).astype(dtype), requires_grad=True)


def step(fn, x):
    """Backpropagate a fixed projection of ``fn(x)``; returns the output."""
    y = fn(x)
    g = np.random.default_rng(2).standard_normal(y.shape).astype(y.dtype)
    backward(sum_(y * Tensor(g)))
    return y


def buffers(module):
    return [b.copy() for m in module.modules() for b in m._buffers.values()]


def state_bytes(module):
    return [(name, arr.tobytes()) for name, arr in module.named_state()]


def grad_bytes(module):
    return [(name, p.grad.tobytes()) for name, p in module.named_parameters()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("mode", INTERACTION_MODES)
def test_checkpoint_gradients_equal_the_recorded_body_bitwise(mode, dtype):
    plain, ckpt = make_block(mode, dtype), make_block(mode, dtype)
    xp, xc = block_input(dtype), block_input(dtype)
    yp, yc = step(plain._body, xp), step(ckpt, xc)
    assert yp.data.tobytes() == yc.data.tobytes()
    assert xp.grad.tobytes() == xc.grad.tobytes()
    assert grad_bytes(plain) == grad_bytes(ckpt)
    assert state_bytes(plain) == state_bytes(ckpt)


@pytest.mark.parametrize("skip_mode", ["irsc", "concat"])
def test_model_steps_equal_the_recorded_bodies_bitwise(monkeypatch, skip_mode):
    def run():
        cfg = ModelConfig(base_channels=4, resolution=32, skip_mode=skip_mode, seed=3)
        model = SegnetrModel(cfg)
        result = TrainRun(cfg, steps=2, batch_size=2, eval_interval=2, train_size=4, eval_size=2, lr=1e-2)
        train(result, model=model)
        return state_bytes(model), result.loss_history

    with_checkpoints = run()
    monkeypatch.setattr(SegnetrBlock, "forward", SegnetrBlock._body)
    assert run() == with_checkpoints


def test_running_buffers_update_once_per_training_forward():
    plain, ckpt = make_block(), make_block()
    before = buffers(ckpt)
    plain._body(block_input())
    y = ckpt(block_input())
    after_forward = buffers(ckpt)
    assert any(not np.array_equal(a, b) for a, b in zip(before, after_forward))
    assert [b.tobytes() for b in after_forward] == [b.tobytes() for b in buffers(plain)]
    backward(sum_(y))
    assert [b.tobytes() for b in buffers(ckpt)] == [b.tobytes() for b in after_forward]


def test_nothing_is_recorded_under_no_grad():
    block = make_block()

    def no_list():
        raise AssertionError("a buffer list was built under no_grad")

    block.modules = no_list
    with no_grad():
        y = block(block_input())
    assert y._node is None and not y._tracked


def test_untracked_input_still_gives_parameter_gradients():
    plain, ckpt = make_block(), make_block()
    for block in (plain, ckpt):
        x = Tensor(np.random.default_rng(1).standard_normal(SHAPE))
        step(block._body if block is plain else block, x)
        assert x.grad is None
    assert grad_bytes(plain) == grad_bytes(ckpt)


def test_backward_inside_no_grad_takes_gradients_through_the_rerun():
    plain, ckpt = make_block(), make_block()
    xp, xc = block_input(), block_input()
    step(plain._body, xp)
    y = ckpt(xc)
    loss = sum_(y * Tensor(np.random.default_rng(2).standard_normal(y.shape)))
    with no_grad():
        backward(loss)
        assert not _GRAD_MODE.enabled
    assert xp.grad.tobytes() == xc.grad.tobytes()
    assert grad_bytes(plain) == grad_bytes(ckpt)


@pytest.mark.parametrize("inside_no_grad", [False, True])
def test_rerun_failure_restores_grad_mode_and_buffers(inside_no_grad):
    block = make_block()
    calls, real = [], block.local_branch.forward

    def fails_on_rerun(pooled):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("re-run failed")
        return real(pooled)

    block.local_branch.forward = fails_on_rerun
    loss = sum_(block(block_input()))
    after_forward = buffers(block)
    with no_grad() if inside_no_grad else contextlib.nullcontext():
        with pytest.raises(RuntimeError, match="re-run failed"):
            backward(loss)
        assert _GRAD_MODE.enabled is not inside_no_grad
    assert _GRAD_MODE.enabled
    assert [b.tobytes() for b in buffers(block)] == [b.tobytes() for b in after_forward]


def test_second_backward_through_a_consumed_checkpoint_raises():
    block = make_block()
    y = block(block_input())
    backward(sum_(y))
    with pytest.raises(ContractError, match="consumed"):
        backward(sum_(y * 2.0))


def test_mode_change_between_forward_and_backward_raises():
    block = make_block()
    y = block(block_input())
    block.eval()
    with pytest.raises(ContractError, match="train/eval mode"):
        backward(sum_(y))


def test_checkpoint_of_a_plain_function_keeps_only_its_input():
    x = block_input()
    calls = []

    def square(t):
        calls.append(t)
        return t * t

    y = checkpoint(square, x, Module())
    assert len(y._node[1]) == 1 and y._node[1][0] is x
    backward(sum_(y))
    assert len(calls) == 2 and calls[1] is not x
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
