"""Smoke self-test of the benchmark at tiny sizes (32x32 inputs, C=4).

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks the result line's schema
and that it carries every metric BENCHMARK.json names, with the declared
unit.  It then corrupts one output per workload (a checkpoint byte, a logit,
a verify check) and checks that the run counts it as failed.  Exits 0 when
all checks hold.  About a minute on two cores; the verify gradient suite has
no size knob and dominates.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run

SECONDS = 0.5


def expected_metrics() -> dict[int, dict[str, str]]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_once(workload: str, trace: int):
    import workloads

    args = run.parse_args(["--workload", workload, "--seed", "3",
                           "--seconds", str(SECONDS), "--trace", str(trace)])
    line, _ = run.run(args, workloads.SMOKE)
    return line


def schema_problems(line: dict, want: dict[str, str]) -> list[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        problems.append(f"attempted {line.get('attempted')!r}")
    if not isinstance(line.get("failed"), int) or line["failed"] < 0:
        problems.append(f"failed {line.get('failed')!r}")
    metrics = line.get("metrics", {})
    missing = set(want) - set(metrics)
    extra = set(metrics) - set(want)
    if missing or extra:
        problems.append(f"missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], float) or not math.isfinite(m["value"]):
            problems.append(f"{name}: {m}")
        elif name in want and m["unit"] != want[name]:
            problems.append(f"{name}: unit {m['unit']!r}, declared {want[name]!r}")
    return problems


class corrupted:
    """Patch one output of ``workload`` so that a correct benchmark must
    count a failure."""

    def __init__(self, workload: str):
        self.workload = workload
        self.saved = []

    def patch(self, owner, attr, value):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        import segnetr.model
        import segnetr.training
        import segnetr.verify

        if self.workload == "train_toy":
            save = segnetr.training.save_checkpoint

            def save_flipped(model, path):
                save(model, path)
                data = bytearray(Path(path).read_bytes())
                data[-1] ^= 0x01
                Path(path).write_bytes(bytes(data))

            self.patch(segnetr.training, "save_checkpoint", save_flipped)
        elif self.workload == "infer_224":
            forward = segnetr.model.SegnetrModel.forward
            calls = [0]

            def forward_nan(model, x):
                out = forward(model, x)
                calls[0] += 1
                if calls[0] > 1:
                    out.data[0, 0, 0, 0] = float("nan")
                return out

            self.patch(segnetr.model.SegnetrModel, "forward", forward_nan)
        else:
            suite = segnetr.verify.gradient_suite

            def suite_failing(seed=0):
                results = suite(seed)
                last = results[-1]
                results[-1] = type(last)(last.name, False, "corrupted by the self-test")
                return results

            self.patch(segnetr.verify, "gradient_suite", suite_failing)
        return self

    def __exit__(self, *exc):
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)
        return False


def main() -> int:
    import machine

    machine.cap_blas_threads()
    run.import_program()
    want = expected_metrics()
    failures = []
    for workload in ("train_toy", "infer_224", "verify"):
        for trace in (0, 1):
            line = run_once(workload, trace)
            problems = schema_problems(line, want[trace])
            if not line["correct"] or line["failed"]:
                problems.append(f"clean run not correct: {line['failed']}/{line['attempted']} failed")
            status = "ok" if not problems else "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += problems
        with corrupted(workload):
            line = run_once(workload, 0)
        counted = line["failed"] >= 1 and not line["correct"]
        share = line["failed"] / line["attempted"]
        print(f"{workload} corrupted: failed share {share:.3f} "
              f"({'counted' if counted else 'NOT counted'})", flush=True)
        if not counted:
            failures.append(f"{workload}: corrupted output not counted")
    print("selftest", "passed" if not failures else f"FAILED ({len(failures)} problems)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
