"""Command-line surface.

Subcommands: summarize, train, eval, gradcheck, layout-test, ablate.  The
process exits 0 only when every requested check passed.  SEGNETR_SEED
overrides the config seed for any subcommand.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from typing import Optional

from .autodiff.gradcheck import worker_count
from .costs import cost_report
from .data import SyntheticSamples
from .errors import CheckpointError, ConfigError, TrainingError
from .model import ModelConfig, build
from .training import TrainRun, evaluate, load_checkpoint, toy_config, train
from .verify import gradient_suite, layout_suite


def _load_config(path: Optional[str], default: ModelConfig) -> ModelConfig:
    cfg = ModelConfig.load(path) if path else default
    env_seed = os.environ.get("SEGNETR_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError:
            raise ConfigError(f"SEGNETR_SEED must be an integer, got {env_seed!r}")
    cfg.validate()
    return cfg


def _cmd_summarize(args) -> int:
    cfg = _load_config(args.config, ModelConfig())
    model = build(cfg)
    report = cost_report(model, convention=args.convention)
    sys.stdout.write(report.as_text())
    total = report.total(args.convention)
    print(f"params: {report.total_params:,} ({report.total_params / 1e6:.2f} M)")
    print(f"GFLOPs ({args.convention} convention): {total / 1e9:.2f}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.as_csv())
        print(f"wrote CSV to {args.csv}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args.config, toy_config())
    run = TrainRun(
        cfg,
        steps=args.steps,
        batch_size=args.batch_size,
        eval_interval=args.eval_interval,
        target_dice=args.target_dice,
        out_dir=args.out,
    )
    try:
        train(run)
    except TrainingError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    first, last = run.loss_history[0], run.loss_history[-1]
    print(f"ran {len(run.loss_history)} steps; loss {first:.4f} -> {last:.4f}")
    for step, miou, mdice in run.metric_history:
        print(f"  step {step}: mean IoU {miou:.4f}, mean Dice {mdice:.4f}")
    if run.checkpoint_path:
        print(f"checkpoint: {run.checkpoint_path}")
    return 0


def _cmd_eval(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {args.samples}")
    cfg = _load_config(args.config, toy_config())
    model = build(cfg)
    try:
        load_checkpoint(args.checkpoint, model)
    except CheckpointError as exc:
        print(f"checkpoint load failed: {exc}", file=sys.stderr)
        return 1
    # painted one batch at a time, so --samples does not set memory use
    samples = SyntheticSamples(args.samples, cfg.resolution, cfg.num_classes, cfg.seed + 1)
    metrics = evaluate(model, samples)
    print(f"mean IoU {metrics.mean_iou:.4f}, mean Dice {metrics.mean_dice:.4f}")
    for k in range(cfg.num_classes):
        note = "" if metrics.evaluated[k] else " (empty, excluded from mean)"
        print(f"  class {k}: IoU {metrics.iou[k]:.4f}, Dice {metrics.dice[k]:.4f}{note}")
    return 0


def _print_results(results, label: str) -> int:
    failed = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        print(f"{label} {r.name}: {status}{detail}")
        failed += not r.passed
    if failed:
        print(f"{failed} {label} check(s) failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_gradcheck(args) -> int:
    # finite differences always run in 64-bit
    t0 = time.perf_counter()
    rc = _print_results(gradient_suite(), "gradcheck")
    procs = worker_count()
    print(f"gradient suite finished in {time.perf_counter() - t0:.1f}s "
          f"({procs} process{'es' if procs > 1 else ''})")
    return rc


def _cmd_layout_test(args) -> int:
    t0 = time.perf_counter()
    rc = _print_results(layout_suite(), "layout")
    print(f"layout suite finished in {time.perf_counter() - t0:.1f}s")
    return rc


def _cmd_ablate(args) -> int:
    cfg = _load_config(args.config, toy_config())
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise ConfigError(f"--modes must name at least one interaction mode, got {args.modes!r}")
    rows = []
    for mode in modes:
        mode_cfg = replace(cfg, interaction_mode=mode)
        mode_cfg.validate()
        model = build(mode_cfg)
        report = cost_report(model)
        run = TrainRun(mode_cfg, steps=args.steps, eval_interval=max(1, args.steps // 2))
        try:
            train(run, model)
        except TrainingError as exc:
            print(f"mode {mode}: training aborted: {exc}", file=sys.stderr)
            return 1
        _, miou, mdice = run.metric_history[-1]
        rows.append((mode, report.total_params, report.total("2flop") / 1e9,
                     run.loss_history[-1], miou, mdice))
    print(f"{'mode':<10} {'params':>12} {'GFLOPs(2f)':>11} {'loss':>8} {'mIoU':>7} {'mDice':>7}")
    for mode, params, gflops, loss, miou, mdice in rows:
        print(f"{mode:<10} {params:>12,} {gflops:>11.3f} {loss:>8.4f} {miou:>7.4f} {mdice:>7.4f}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="segnetr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="parameter/FLOP report for a config")
    p.add_argument("--config", help="path to a config JSON (default: SegNetr C=64 at 224)")
    p.add_argument("--convention", choices=("mac", "2flop"), default="2flop")
    p.add_argument("--csv", help="also write the per-layer CSV here")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("train", help="train on the synthetic task")
    p.add_argument("--config", help="path to a config JSON (default: toy 112x112 C=16)")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--eval-interval", type=int, default=50)
    p.add_argument("--target-dice", type=float, default=None,
                   help="stop early once held-out Dice reaches this")
    p.add_argument("--out", help="directory for metrics.csv and model.ckpt")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on fresh synthetic data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="config JSON matching the checkpoint")
    p.add_argument("--samples", type=int, default=16)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks (float64)")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("layout-test", help="layout transform invariant checks")
    p.set_defaults(fn=_cmd_layout_test)

    p = sub.add_parser("ablate", help="interaction-mode ablation table")
    p.add_argument("--modes", default="without,local,global,series,parallel")
    p.add_argument("--config", help="path to a config JSON (default: toy 112x112 C=16)")
    p.add_argument("--steps", type=int, default=120, help="training steps per mode")
    p.set_defaults(fn=_cmd_ablate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
