"""Model assembly: one U-shaped skeleton whose stage bodies are SegNetr
blocks (SegNetr / SegNetr-S) or double convs (a mini U-Net baseline).

Geometry (``stage_extents``): a stride-2 stem halves the input, then four
encoder stages run with channels (C, 2C, 4C, 8C) and the local patch
schedule (default 8, 4, 2, 1; global windows are always 2P).  Each stage ends
with patch merge (cached for the skip path) and a 1×1 projection; the decoder
mirrors the encoder with bilinear ×2 upsampling, skip fusion, a 1×1
projection, and the same stage body.  The head is a 1×1 conv to num_classes
followed by a final ×2 upsample back to the input extents.

H and W are independent.  Odd stage extents (e.g. 7×7 from a 112 input, 15×11
from 240×176) are handled by padding one row or column after the grid before
patch merge and cropping it after the matching upsample, so the round trip is
exact.  Only SegNetr stages need their patch size to tile their extents
(``ModelConfig.stage_tiling``); mini-unet stages have no windows.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .autodiff import functional as F
from .autodiff.module import Module, ModuleList
from .autodiff.tensor import Tensor, concat, slice_
from .blocks import (
    INTERACTION_MODES,
    BatchNorm2d,
    Conv2d,
    SegnetrBlock,
    conv_norm,
    hwc_to_nchw,
    irsc_fuse,
    nchw_to_hwc,
)
from .errors import ConfigError, ShapeError
from .layout import pad_to_multiple, patch_merge

NUM_STAGES = 4
STAGE_MULTIPLIERS = (1, 2, 4, 8)
VARIANTS = ("segnetr", "segnetr-s", "mini-unet")
SKIP_MODES = ("irsc", "concat")

_VARIANT_CHANNELS = {"segnetr": 64, "segnetr-s": 32, "mini-unet": 16}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _are_ints(values, n: int) -> bool:
    return isinstance(values, tuple) and len(values) == n and all(_is_int(v) for v in values)


def stage_extents(h: int, w: int, schedule: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (H, W) of each stage for an (h, w) input, then the bottleneck's.

    The stride-2 stem and each patch merge halve an extent, rounding up.  The
    input must be even, so the final ×2 upsample gives it back, and each
    stage's patch size must divide both of its extents, as the global
    branch's displacement needs; ShapeError names the first violation.
    """
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise ShapeError(f"stem: input extents {h}x{w} must be even and at least 2")
    extents = []
    for s, p in enumerate((*schedule, 1)):  # the bottleneck, last, needs no tiling
        h, w = -(-h // 2), -(-w // 2)
        if h % p or w % p:
            raise ShapeError(f"stage {s}: patch size {p} does not divide its extents {h}x{w}")
        extents.append((h, w))
    return tuple(extents)


@dataclass
class ModelConfig:
    variant: str = "segnetr"
    base_channels: Optional[int] = None
    patch_schedule: tuple[int, ...] = (8, 4, 2, 1)
    interaction_mode: str = "parallel"
    skip_mode: str = "irsc"
    num_classes: int = 2
    resolution: int = 224
    depths: tuple[int, ...] = (1, 1, 1, 1)
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.patch_schedule, list):
            self.patch_schedule = tuple(self.patch_schedule)
        if isinstance(self.depths, list):
            self.depths = tuple(self.depths)
        if self.base_channels is None and isinstance(self.variant, str):
            self.base_channels = _VARIANT_CHANNELS.get(self.variant)

    @property
    def channels(self) -> tuple[int, ...]:
        return tuple(self.base_channels * m for m in STAGE_MULTIPLIERS)

    @property
    def stage_tiling(self) -> tuple[int, ...]:
        """The patch size each stage's extents must divide: the patch schedule
        for SegNetr stages, 1 for mini-unet's windowless double convs."""
        return (1,) * NUM_STAGES if self.variant == "mini-unet" else self.patch_schedule

    def validate(self) -> None:
        """Raise ConfigError naming the first violated constraint."""
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not _is_int(self.base_channels) or self.base_channels < 2 or self.base_channels % 2:
            raise ConfigError(
                f"base_channels must be a positive even integer, got {self.base_channels!r}"
            )
        if self.interaction_mode not in INTERACTION_MODES:
            raise ConfigError(
                f"interaction_mode must be one of {INTERACTION_MODES}, got {self.interaction_mode!r}"
            )
        if self.skip_mode not in SKIP_MODES:
            raise ConfigError(f"skip_mode must be one of {SKIP_MODES}, got {self.skip_mode!r}")
        if not _is_int(self.num_classes) or self.num_classes < 2:
            raise ConfigError(f"num_classes must be an integer >= 2, got {self.num_classes!r}")
        if not _are_ints(self.depths, NUM_STAGES) or any(d < 1 for d in self.depths):
            raise ConfigError(f"depths must be {NUM_STAGES} positive integers, got {self.depths!r}")
        if not _is_int(self.resolution):
            raise ConfigError(f"resolution must be an integer, got {self.resolution!r}")
        if not _are_ints(self.patch_schedule, NUM_STAGES) or any(p < 1 for p in self.patch_schedule):
            raise ConfigError(
                f"patch_schedule must be {NUM_STAGES} positive integers, got {self.patch_schedule!r}"
            )
        try:
            stage_extents(self.resolution, self.resolution, self.stage_tiling)
        except ShapeError as exc:
            raise ConfigError(f"resolution {self.resolution} does not fit the patch schedule: {exc}") from exc
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    # -- JSON round trip -------------------------------------------------------

    def to_json(self) -> str:
        d = asdict(self)
        d["patch_schedule"] = list(self.patch_schedule)
        d["depths"] = list(self.depths)
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config JSON must be an object")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def load(cls, path: str) -> "ModelConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class UNet(Module):
    """The U-shaped skeleton every variant shares: stem, four encoder stages
    each followed by patch merge and a 1×1 projection, then four decoder
    stages each preceded by a ×2 upsample, the skip fusion and a 1×1
    projection, and a 1×1 head.  ``stage(channels, s, rng)`` builds the body
    of stage ``s``, the only part that differs between variants."""

    def __init__(self, cfg: ModelConfig, stage, *, dtype=np.float32):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        chans = cfg.channels
        c0 = chans[0]

        self.stem = Conv2d(3, c0, 3, stride=2, padding=1, bias=False, rng=rng, dtype=dtype)
        self.stem_norm = BatchNorm2d(c0, dtype=dtype)

        self.encoder_stages = ModuleList()
        self.merge_projections = ModuleList()
        for s in range(NUM_STAGES):
            self.encoder_stages.append(stage(chans[s], s, rng))
            out_c = chans[s + 1] if s + 1 < NUM_STAGES else chans[-1]
            self.merge_projections.append(Conv2d(4 * chans[s], out_c, 1, rng=rng, dtype=dtype))

        self.fuse_projections = ModuleList()
        self.decoder_stages = ModuleList()
        for s in reversed(range(NUM_STAGES)):
            carry = chans[s + 1] if s + 1 < NUM_STAGES else chans[-1]
            skip_c = chans[s] // 2 if cfg.skip_mode == "irsc" else chans[s]
            self.fuse_projections.append(Conv2d(carry + skip_c, chans[s], 1, rng=rng, dtype=dtype))
            self.decoder_stages.append(stage(chans[s], s, rng))

        self.head = Conv2d(c0, cfg.num_classes, 1, rng=rng, dtype=dtype)

    def run_stage(self, stage: Module, y: Tensor) -> Tensor:
        return stage(y)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeError(f"expected input (N, 3, H, W), got {x.shape}")
        if x.shape[0] == 0:
            raise ShapeError(f"empty batch: input {x.shape} holds no image")
        stage_extents(x.shape[2], x.shape[3], self.cfg.stage_tiling)
        y = conv_norm(x, self.stem, self.stem_norm, silu=True)
        skips = []
        for s in range(NUM_STAGES):
            y = self.run_stage(self.encoder_stages[s], y)
            # at multiple 2 any pad comes after the grid, so crops start at 0
            padded, _, hw = pad_to_multiple(nchw_to_hwc(y), 2)
            merged = patch_merge(padded)
            skips.append((y if self.cfg.skip_mode == "concat" else merged, hw))
            y = self.merge_projections[s](hwc_to_nchw(merged))
        for i in range(NUM_STAGES):
            y = F.bilinear_upsample2x(y)
            payload, (h, w) = skips.pop()
            if y.shape[-2:] != (h, w):
                y = slice_(y, (Ellipsis, slice(0, h), slice(0, w)))
            if self.cfg.skip_mode == "irsc":
                y = hwc_to_nchw(irsc_fuse(payload, nchw_to_hwc(y)))
            else:
                y = concat([y, payload], axis=1)
            y = self.fuse_projections[i](y)
            y = self.run_stage(self.decoder_stages[i], y)
        logits = self.head(y)
        return F.bilinear_upsample2x(logits)


class SegnetrModel(UNet):
    """The skeleton with stacks of ``depths[s]`` SegNetr blocks per stage."""

    def __init__(self, cfg: ModelConfig, *, dtype=np.float32):
        def stage(channels: int, s: int, rng) -> ModuleList:
            return ModuleList(
                SegnetrBlock(channels, cfg.patch_schedule[s], cfg.interaction_mode, rng=rng, dtype=dtype)
                for _ in range(cfg.depths[s])
            )

        super().__init__(cfg, stage, dtype=dtype)
        # At depth 8 the 0.5-weighted branch fusion compounds activation scale
        # by ~2x per block, which stalls optimization at a fixed 1e-4 learning
        # rate.  Ramping the fusion weights from zero (they stay learnable and
        # lift off immediately) and starting the head at zero logits keeps the
        # assembled model trainable; standalone blocks keep the 0.5 init.
        self.head.weight.data[...] = 0
        for name, p in self.named_parameters():
            if name.endswith(("alpha_local", "alpha_global")):
                p.data[...] = 0

    def run_stage(self, stage: ModuleList, y: Tensor) -> Tensor:
        # each block is called from here, not through the list, so every
        # block is a direct child of the model's call
        for block in stage:
            y = block(y)
        return y


class DoubleConv(Module):
    """Two 3×3 conv + norm + SiLU layers at constant width."""

    def __init__(self, channels: int, *, rng, dtype=np.float32):
        super().__init__()
        self.conv1 = Conv2d(channels, channels, 3, padding=1, bias=False, rng=rng, dtype=dtype)
        self.norm1 = BatchNorm2d(channels, dtype=dtype)
        self.conv2 = Conv2d(channels, channels, 3, padding=1, bias=False, rng=rng, dtype=dtype)
        self.norm2 = BatchNorm2d(channels, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        h = conv_norm(x, self.conv1, self.norm1, silu=True)
        return conv_norm(h, self.conv2, self.norm2, silu=True)


class MiniUnet(UNet):
    """The skeleton with one double-conv body per stage, so the IRSC skip
    plugs into a plain U-Net unchanged."""

    def __init__(self, cfg: ModelConfig, *, dtype=np.float32):
        super().__init__(cfg, lambda channels, s, rng: DoubleConv(channels, rng=rng, dtype=dtype), dtype=dtype)


def build(cfg: ModelConfig, *, dtype=np.float32) -> UNet:
    """Construct the model named by ``cfg.variant`` (seeded, deterministic)."""
    cfg.validate()
    if cfg.variant == "mini-unet":
        return MiniUnet(cfg, dtype=dtype)
    return SegnetrModel(cfg, dtype=dtype)
