"""Minimal reverse-mode autodiff over dense numpy tensors."""

from .adam import Adam, AdamState
from .functional import (
    batch_norm,
    batch_norm_silu,
    bilinear_upsample2x,
    conv2d,
    cross_entropy,
    gelu,
    global_avg_pool,
    layer_norm,
    linear,
    sigmoid,
    silu,
    softmax,
)
from .gradcheck import GradCheckResult, grad_check
from .module import Module, ModuleList, Parameter
from .tensor import (
    Tensor,
    backward,
    concat,
    mean,
    no_grad,
    pad,
    reshape,
    slice_,
    sum_,
    transpose,
)

__all__ = [
    "Adam",
    "AdamState",
    "GradCheckResult",
    "Module",
    "ModuleList",
    "Parameter",
    "Tensor",
    "backward",
    "batch_norm",
    "batch_norm_silu",
    "bilinear_upsample2x",
    "concat",
    "conv2d",
    "cross_entropy",
    "gelu",
    "global_avg_pool",
    "grad_check",
    "layer_norm",
    "linear",
    "mean",
    "no_grad",
    "pad",
    "reshape",
    "sigmoid",
    "silu",
    "slice_",
    "softmax",
    "sum_",
    "transpose",
]
