"""Cost accounting (parameters, MACs, FLOPs) and segmentation metrics.

Accounting conventions, applied uniformly:

- conv MACs = out_H · out_W · out_C · (in_C / groups) · kH · kW, bias excluded;
- linear MACs = rows · d_in · d_out (rows = leading rows actually fed);
- norms, activations, reductions, gates, residual adds: one op per element,
  tracked separately as "eltops";
- bilinear ×2 upsampling: the separable two-tap implementation, 2 MACs per
  intermediate and per final element;
- layout transforms (window partition/reverse, displacement, patch merge and
  reverse, alternate selection, padding, cropping, concatenation): zero cost;
- everything is counted for a single sample (batch 1).

Because "FLOPs" is ambiguous, totals are available under two conventions:
``mac`` treats one MAC as one FLOP (total = MACs + eltops) and ``2flop``
counts multiply and accumulate separately (total = 2·MACs + eltops).

Reports are built by walking the live module tree, so every parameter row is
read off the real model and the report total is verified against
``model.num_params()`` before the report is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .autodiff.module import Module
from .errors import ContractError, ValidationError

CONVENTIONS = ("mac", "2flop")


@dataclass(frozen=True)
class CostRow:
    """One accounted layer: parameter count, MACs, and elementwise ops.

    ``is_attention`` marks rows belonging to a window-attention branch, so the
    linear-complexity property (attention MACs scale exactly with H·W) can be
    checked on the tagged subtotal.
    """

    name: str
    params: int
    macs: int
    eltops: int = 0
    is_attention: bool = False


@dataclass
class CostReport:
    rows: list[CostRow]
    input_hw: tuple[int, int]
    convention: str = "mac"

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValidationError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_eltops(self) -> int:
        return sum(r.eltops for r in self.rows)

    @property
    def attention_macs(self) -> int:
        return sum(r.macs for r in self.rows if r.is_attention)

    def total(self, convention: Optional[str] = None) -> int:
        conv = convention or self.convention
        if conv not in CONVENTIONS:
            raise ValidationError(f"convention must be one of {CONVENTIONS}, got {conv!r}")
        if conv == "mac":
            return self.total_macs + self.total_eltops
        return 2 * self.total_macs + self.total_eltops

    def as_csv(self) -> str:
        lines = ["layer,params,macs"]
        lines += [f"{r.name},{r.params},{r.macs}" for r in self.rows]
        return "\n".join(lines) + "\n"

    def as_text(self) -> str:
        name_w = max(len("layer"), *(len(r.name) for r in self.rows)) if self.rows else 5
        header = f"{'layer':<{name_w}}  {'params':>12}  {'macs':>14}  {'eltops':>14}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            tag = "  [attn]" if r.is_attention else ""
            lines.append(
                f"{r.name:<{name_w}}  {r.params:>12,}  {r.macs:>14,}  {r.eltops:>14,}{tag}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<{name_w}}  {self.total_params:>12,}  {self.total_macs:>14,}  "
            f"{self.total_eltops:>14,}"
        )
        h, w = self.input_hw
        lines.append(f"input {h}x{w}, attention MACs {self.attention_macs:,}")
        lines.append(
            f"total ops: mac convention {self.total('mac'):,} | "
            f"2flop convention {self.total('2flop'):,}"
        )
        return "\n".join(lines) + "\n"


def count_params(model: Module) -> int:
    """Sum of element counts of all learnable tensors."""
    return sum(p.size for _, p in model.named_parameters())


def conv_macs(out_h: int, out_w: int, out_c: int, in_c: int, k: int, groups: int = 1) -> int:
    return out_h * out_w * out_c * (in_c // groups) * k * k


def linear_macs(rows: int, d_in: int, d_out: int) -> int:
    return rows * d_in * d_out


def _conv_out(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    return (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1


class _Walk:
    """Accumulates rows while mirroring a model's forward geometry."""

    def __init__(self):
        self.rows: list[CostRow] = []

    def add(self, name: str, params: int, macs: int, eltops: int = 0, attn: bool = False):
        self.rows.append(CostRow(name, int(params), int(macs), int(eltops), attn))

    def conv(self, name: str, mod, h: int, w: int, *, attn: bool = False):
        out_c, in_per_group, k, _ = mod.weight.shape
        oh, ow = _conv_out(h, w, k, mod.stride, mod.padding)
        self.add(name, mod.num_params(), conv_macs(oh, ow, out_c, in_per_group * mod.groups, k, mod.groups), 0, attn)

    def norm(self, name: str, mod, elements: int, *, attn: bool = False):
        self.add(name, mod.num_params(), 0, elements, attn)

    def act(self, name: str, elements: int, *, attn: bool = False):
        self.add(name, 0, 0, elements, attn)

    def linear(self, name: str, mod, rows: int, *, attn: bool = False):
        d_out, d_in = mod.weight.shape
        self.add(name, mod.num_params(), linear_macs(rows, d_in, d_out), 0, attn)

    def layout(self, name: str, *, attn: bool = False):
        self.add(name, 0, 0, 0, attn)

    def upsample2x(self, name: str, c: int, h: int, w: int):
        # separable two-tap interpolation: rows pass then columns pass
        rows_pass = (2 * h) * w * c * 2
        cols_pass = (2 * h) * (2 * w) * c * 2
        self.add(name, 0, rows_pass + cols_pass, 0)


def _ceil_to(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def _walk_mbconv(walk: _Walk, name: str, mod, c: int, h: int, w: int):
    mid = c * mod.EXPANSION
    walk.conv(f"{name}.expand", mod.expand, h, w)
    walk.norm(f"{name}.expand_norm", mod.expand_norm, mid * h * w)
    walk.act(f"{name}.silu1", mid * h * w)
    walk.conv(f"{name}.depthwise", mod.depthwise, h, w)
    walk.norm(f"{name}.depthwise_norm", mod.depthwise_norm, mid * h * w)
    walk.act(f"{name}.silu2", mid * h * w)
    walk.act(f"{name}.se_pool", mid * h * w)
    walk.conv(f"{name}.se_reduce", mod.se_reduce, 1, 1)
    squeezed = mod.se_reduce.weight.shape[0]
    walk.act(f"{name}.se_silu", squeezed)
    walk.conv(f"{name}.se_expand", mod.se_expand, 1, 1)
    walk.act(f"{name}.se_sigmoid", mid)
    walk.act(f"{name}.se_gate", mid * h * w)
    walk.conv(f"{name}.project", mod.project, h, w)
    walk.norm(f"{name}.project_norm", mod.project_norm, c * h * w)
    walk.act(f"{name}.residual", c * h * w)


def _walk_branch(walk: _Walk, name: str, mod, h: int, w: int):
    """One window gate over the block's pooled (h, w) map."""
    win = mod.window
    if mod.kind == "global":
        walk.layout(f"{name}.displace", attn=True)
    walk.layout(f"{name}.partition", attn=True)
    nw = (_ceil_to(h, win) // win) * (_ceil_to(w, win) // win)
    area = win * win
    attn = mod.attention
    walk.norm(f"{name}.norm", attn.norm, nw * area, attn=True)
    walk.linear(f"{name}.fc1", attn.fc1, nw, attn=True)
    walk.act(f"{name}.gelu", nw * attn.HIDDEN_RATIO * area, attn=True)
    walk.linear(f"{name}.fc2", attn.fc2, nw, attn=True)
    walk.act(f"{name}.softmax", nw * area, attn=True)
    walk.act(f"{name}.weight", nw * area, attn=True)
    walk.layout(f"{name}.reverse", attn=True)


# map-sized ops forming the factor f: α·g and 1 + … per branch; series mode
# adds the products P·f_l and f_l·g_g
_FUSE_MAP_OPS = {"local": 2, "global": 2, "parallel": 4, "series": 6}


def _walk_block(walk: _Walk, name: str, mod, c: int, h: int, w: int):
    _walk_mbconv(walk, f"{name}.mbconv", mod.mbconv, c, h, w)
    mode = mod.mode
    if mode == "without":
        return
    walk.act(f"{name}.pool", c * h * w, attn=True)
    fuse_params = 0
    if mode in ("local", "series", "parallel"):
        _walk_branch(walk, f"{name}.local", mod.local_branch, h, w)
        fuse_params += 1
    if mode in ("global", "series", "parallel"):
        _walk_branch(walk, f"{name}.global", mod.global_branch, h, w)
        fuse_params += 1
    walk.add(f"{name}.fuse", fuse_params, 0, _FUSE_MAP_OPS[mode] * h * w)
    walk.act(f"{name}.gate", c * h * w)


def _walk_double_conv(walk: _Walk, name: str, mod, c: int, h: int, w: int):
    walk.conv(f"{name}.conv1", mod.conv1, h, w)
    walk.norm(f"{name}.norm1", mod.norm1, c * h * w)
    walk.act(f"{name}.silu1", c * h * w)
    walk.conv(f"{name}.conv2", mod.conv2, h, w)
    walk.norm(f"{name}.norm2", mod.norm2, c * h * w)
    walk.act(f"{name}.silu2", c * h * w)


def _stage_body(walk, model, name: str, stage, c: int, h: int, w: int):
    from .model import MiniUnet

    if isinstance(model, MiniUnet):
        _walk_double_conv(walk, name, stage, c, h, w)
    else:
        for b, block in enumerate(stage):
            _walk_block(walk, f"{name}.{b}", block, c, h, w)


def cost_report(model: Module, input_hw: Union[int, tuple[int, int], None] = None,
                convention: str = "mac") -> CostReport:
    """Walk ``model`` and account every layer at the given input size.

    ``input_hw`` may be an int (square) or an (H, W) pair, and defaults to
    the model's configured resolution.  Stage extents come from
    ``model.stage_extents``, so the report accepts exactly the inputs the
    forward accepts and raises the same ShapeError otherwise.
    """
    from .model import NUM_STAGES, UNet, stage_extents

    if not isinstance(model, UNet):
        raise ContractError(f"cost_report supports UNet models, got {type(model).__name__}")
    cfg = model.cfg
    if input_hw is None:
        input_hw = cfg.resolution
    if isinstance(input_hw, int):
        input_hw = (input_hw, input_hw)
    extents = stage_extents(*input_hw, cfg.stage_tiling)

    walk = _Walk()
    chans = cfg.channels
    walk.conv("stem", model.stem, *input_hw)
    h, w = extents[0]
    walk.norm("stem_norm", model.stem_norm, chans[0] * h * w)
    walk.act("stem_silu", chans[0] * h * w)

    for s in range(NUM_STAGES):
        _stage_body(walk, model, f"encoder.{s}", model.encoder_stages[s], chans[s], *extents[s])
        walk.layout(f"encoder.{s}.patch_merge")
        walk.conv(f"encoder.{s}.merge_proj", model.merge_projections[s], *extents[s + 1])

    for i, s in enumerate(reversed(range(NUM_STAGES))):
        carry = chans[s + 1] if s + 1 < NUM_STAGES else chans[-1]
        walk.upsample2x(f"decoder.{s}.upsample", carry, *extents[s + 1])
        walk.layout(f"decoder.{s}.skip")
        walk.conv(f"decoder.{s}.fuse_proj", model.fuse_projections[i], *extents[s])
        _stage_body(walk, model, f"decoder.{s}", model.decoder_stages[i], chans[s], *extents[s])

    walk.conv("head", model.head, *extents[0])
    walk.upsample2x("head.upsample", cfg.num_classes, *extents[0])

    report = CostReport(walk.rows, tuple(input_hw), convention)
    live = count_params(model)
    if report.total_params != live:
        raise ContractError(
            f"cost walk counted {report.total_params} parameters but the model has {live}"
        )
    return report


def count_flops(model: Module, input_hw: Union[int, tuple[int, int], None] = None,
                convention: str = "mac") -> int:
    """Total operation count for one sample under the named convention."""
    return cost_report(model, input_hw, convention).total()


# -- segmentation metrics ---------------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-class pixel counts; all arrays have length num_classes."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    total_pixels: int

    def __post_init__(self):
        for arr in (self.tp, self.fp, self.fn):
            if np.any(arr < 0) or arr.sum() > self.total_pixels:
                raise ValidationError("confusion counts must be non-negative and bounded")


@dataclass(frozen=True)
class Metrics:
    """Per-class and mean IoU/Dice.  Classes with an empty union (no pixels
    in either prediction or ground truth) score 1 by convention and are
    excluded from the means."""

    iou: np.ndarray
    dice: np.ndarray
    evaluated: np.ndarray
    mean_iou: float
    mean_dice: float


def confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> ConfusionCounts:
    """Exact per-class pixel counting over integer class maps."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValidationError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    if not np.issubdtype(pred.dtype, np.integer) or not np.issubdtype(gt.dtype, np.integer):
        raise ValidationError("confusion expects integer class maps (argmax logits first)")
    if pred.size == 0:
        raise ValidationError("empty class maps")
    for name, arr in (("pred", pred), ("gt", gt)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValidationError(f"{name} contains classes outside [0, {num_classes})")
    matrix = np.bincount(
        (gt.reshape(-1) * num_classes + pred.reshape(-1)).astype(np.int64),
        minlength=num_classes * num_classes,
    ).reshape(num_classes, num_classes)
    tp = np.diag(matrix).copy()
    fp = matrix.sum(axis=0) - tp
    fn = matrix.sum(axis=1) - tp
    return ConfusionCounts(tp, fp, fn, int(pred.size))


def iou_dice(counts: ConfusionCounts) -> Metrics:
    """IoU = TP/(TP+FP+FN), Dice = 2TP/(2TP+FP+FN), per class and averaged.

    The means run over classes that actually occur (union nonzero); if every
    class is empty the means are 1.0 vacuously.
    """
    union = counts.tp + counts.fp + counts.fn
    evaluated = union > 0
    iou = np.ones(union.shape, dtype=np.float64)
    dice = np.ones(union.shape, dtype=np.float64)
    np.divide(counts.tp, union, out=iou, where=evaluated)
    np.divide(2 * counts.tp, 2 * counts.tp + counts.fp + counts.fn, out=dice, where=evaluated)
    mean_iou = float(iou[evaluated].mean()) if evaluated.any() else 1.0
    mean_dice = float(dice[evaluated].mean()) if evaluated.any() else 1.0
    return Metrics(iou, dice, evaluated, mean_iou, mean_dice)
