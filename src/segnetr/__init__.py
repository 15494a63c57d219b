"""SegNetr: window-based local-global interaction segmentation network.

A from-scratch NumPy implementation: dense tensors with reverse-mode
autodiff, exact window/patch layout transforms, the SegNetr block and
U-shaped model, cost accounting, and a synthetic training harness.
"""

from .costs import CostReport, CostRow, confusion, cost_report, count_flops, count_params, iou_dice
from .data import SyntheticDataset, SyntheticSamples, gen_synthetic
from .model import ModelConfig, MiniUnet, SegnetrModel, build
from .training import (
    TrainRun,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    toy_config,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "CostRow",
    "MiniUnet",
    "ModelConfig",
    "SegnetrModel",
    "SyntheticDataset",
    "SyntheticSamples",
    "TrainRun",
    "build",
    "confusion",
    "cost_report",
    "count_flops",
    "count_params",
    "evaluate",
    "gen_synthetic",
    "iou_dice",
    "load_checkpoint",
    "save_checkpoint",
    "toy_config",
    "train",
    "__version__",
]
