"""segnetr benchmark: one workload, one process, one JSON result.

    python3 perfbench/run.py --workload {train_toy,infer_224,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program under test is imported from
``src/`` next to this directory.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics of a traced loop, measured
beside an untraced loop of the same length for the tracing overhead.  The
line before it is the run record: environment, roofline, sample counts and
checks.  Run artifacts (the record, spans, the module roofline table) go to
``perfbench/out/``.  NOTES.md explains the metrics.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train_toy", "infer_224", "verify"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import segnetr from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "segnetr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/segnetr is missing")
    sys.path.insert(0, str(src))
    import segnetr

    if Path(segnetr.__file__).resolve().parent != (src / "segnetr").resolve():
        raise SystemExit(f"perfbench: imported segnetr from {segnetr.__file__}, not {src}")


def quantile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[q - 1]


def end_to_end(setup_s, loop_result, peak_rss_mb):
    samples = loop_result["samples_ms"]
    busy = loop_result["busy_s"]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_ms_p50": (quantile(samples, 2), "ms"),
        "op_ms_p75": (quantile(samples, 3), "ms"),
        "items_per_s": (loop_result["items"] / busy if busy else 0.0, "1/s"),
    }


def run(args, sizes=None):
    """Run one workload; returns (result line dict, record dict)."""
    import machine

    machine.cap_blas_threads()
    import_program()
    import tracing
    import workloads

    sizes = sizes or workloads.FULL
    import_s = time.perf_counter() - _T_START
    OUT.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, sizes, OUT)
    base = tracing.Patcher()
    w.install(base)
    tracer = tracing.Patcher()
    tr = tracing.Tracer() if args.trace else None
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "op": w.op_name, "items": w.item_name}
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            if tr is not None:
                tr.install(tracer)
            t0 = time.perf_counter()
            try:
                w.setup()
            finally:
                setup_times.append(time.perf_counter() - t0)
                tracer.restore()
        setup_s = import_s + statistics.median(setup_times)
        record["setup"] = {"import_s": import_s, "repeats_s": setup_times, "setup_s": setup_s}

        if tr is None:
            result = workloads.loop(w, args.seconds)
        else:
            untraced = workloads.loop(w, args.seconds / 2)
            loop_from = tr.start_loop()
            w.tracer = tr
            tr.install(tracer)
            try:
                result = workloads.loop(w, args.seconds / 2)
            finally:
                tracer.restore()
                w.tracer = None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        w.finish()
    finally:
        tracer.restore()
        base.restore()

    record["loop"] = {"kind": "closed, one client, one process",
                      "samples": len(result["samples_ms"])}
    record["loop"].update(result)
    record["checks"] = {"attempted": w.attempted, "failed": w.failed, "failures": w.failures}
    record.update(w.record)
    if tr is None:
        metrics = end_to_end(setup_s, result, peak_rss_mb)
    else:
        units = len(result["samples_ms"])
        metrics = tracing.layer_metrics(tr, units, getattr(w, "cost", None) and w.cost.rows, loop_from)
        p50_untraced = quantile(untraced["samples_ms"], 2)
        p50_traced = quantile(result["samples_ms"], 2)
        metrics["trace.overhead_ms"] = (p50_traced - p50_untraced, "ms")
        metrics["trace.overhead_share"] = ((p50_traced - p50_untraced) / p50_untraced, "ratio")
        metrics["trace.uncovered_share"] = (tracing.uncovered_share(tr, loop_from), "ratio")
        record["spans_per_op"] = (len(tr.start) - loop_from) / max(units, 1)
        record["untraced_samples_ms"] = untraced["samples_ms"]
        tr.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    record["environment"] = machine.environment(ROOT)
    record["roofline"] = machine.roofline()
    if tr is not None and args.workload == "infer_224":
        table = tracing.module_roofline(tr, w.cost.rows, loop_from, units, record["roofline"])
        path = OUT / f"{args.workload}-seed{args.seed}-roofline.json"
        path.write_text(json.dumps(table, indent=1))
        record["module_roofline"] = path.name
    line = {
        "correct": w.failed == 0 and w.attempted > 0,
        "attempted": max(w.attempted, 1),
        "failed": w.failed if w.attempted else 1,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record | {"result": line}, indent=1))
    return line, record


def main(argv=None) -> int:
    args = parse_args(argv)
    line, record = run(args)
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
