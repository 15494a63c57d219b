"""Spans and counters recorded from outside the program.

Everything here wraps public functions, ``Module.__call__`` and
``Adam.step`` of the segnetr package at run time, inside the benchmark's own
process; no file of the program changes.  A wrapped name is replaced in every
``segnetr.*`` module that binds it (``from .layout import patch_merge`` makes
a second binding), and ``Patcher.restore`` puts every original back.

A span is (name, start ns, end ns, parent span, op id, module tag).  Spans
are kept in memory in flat arrays and written once when the run ends.  A
layout op called from inside another layout op gets no span of its own, so
``layout.*`` times are the cost of each op as the rest of the program sees it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("autodiff", "layout", "blocks", "model", "costs", "data", "training", "verify")

AUTODIFF_OPS = ("batch_norm", "silu", "sigmoid", "gelu", "layer_norm", "softmax", "linear",
                "bilinear_upsample2x", "global_avg_pool", "cross_entropy")
CONV_KINDS = ("conv2d_dense", "conv2d_depthwise")
LAYOUT_OPS = ("local_partition", "local_reverse", "global_partition", "global_reverse",
              "patch_merge", "pad_crop")
BLOCK_SPANS = ("mbconv", "window_attention", "local_branch", "global_branch",
               "segnetr_block", "irsc_fuse")
MODEL_SEGMENTS = ("stem", "encoder.0", "encoder.1", "encoder.2", "encoder.3",
                  "decoder.0", "decoder.1", "decoder.2", "decoder.3", "head")

_now = time.perf_counter_ns


class Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, original, make) -> None:
        """Rebind every segnetr module's binding of ``original`` to
        ``make(bound)``, where ``bound`` is the current value: the original
        or a wrapper of it from an earlier patch."""
        made: dict[int, object] = {}
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "segnetr" or name.startswith("segnetr.")):
                continue
            for attr, value in list(vars(mod).items()):
                inner = value
                while inner is not original and hasattr(inner, "__wrapped__"):
                    inner = inner.__wrapped__
                if inner is original and callable(value):
                    if id(value) not in made:
                        made[id(value)] = make(value)
                    self.set(mod, attr, made[id(value)])

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class StepClock:
    """Optimizer-step boundaries for the training workload.

    A step runs from the later of the previous ``Adam.step`` end, the last
    held-out ``evaluate`` end and the model build inside ``train`` to the end
    of its own ``Adam.step``; evaluation and checkpointing therefore fall
    between steps, not inside them.
    """

    def __init__(self):
        self.step_ms: list[float] = []
        self._mark = None

    def install(self, patcher: Patcher) -> None:
        import segnetr.training as training
        from segnetr.autodiff.adam import Adam

        def boundary(fn, is_step):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                out = fn(*args, **kwargs)
                now = time.perf_counter()
                if is_step and self._mark is not None:
                    self.step_ms.append((now - self._mark) * 1e3)
                self._mark = now
                return out
            return timed

        patcher.replace_function(training.build, lambda f: boundary(f, False))
        patcher.replace_function(training.evaluate, lambda f: boundary(f, False))
        patcher.set(Adam, "step", boundary(Adam.step, True))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.stack: list[int] = []
        self.stack_layers: list[str] = []
        self.op_id = -1
        self.errors: Counter = Counter()
        self.conv_macs: Counter = Counter()
        self.layout_bytes = 0
        self.window_elements = 0
        self.window_padded = 0
        self.checkpoint_bytes = 0
        self.checks_failed = 0
        self.module_names: dict[int, str] = {}
        self.forward_batch: dict[int, int] = {}

    # -- span recording -----------------------------------------------------

    def _id(self, table: dict, items: list, key: str) -> int:
        found = table.get(key)
        if found is None:
            found = table[key] = len(items)
            items.append(key)
        return found

    def open(self, name: str, layer: str, tag: str = "") -> int:
        idx = len(self.start)
        self.name_id.append(self._id(self._name_ids, self.names, name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.tag.append(self._id(self._tag_ids, self.tags, tag) if tag else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.stack_layers.append(layer)
        self.start.append(_now())
        return idx

    def start_loop(self) -> int:
        """Zero the counters for the traced loop; returns its first span index."""
        self.conv_macs.clear()
        self.layout_bytes = self.window_elements = self.window_padded = 0
        return len(self.start)

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self.stack.pop()
        self.stack_layers.pop()

    def wrap(self, layer: str, name, fn, after=None):
        """Span every call of ``fn``; ``name`` may be a function of the call's
        arguments.  ``after(args, kwargs, result)`` records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == "layout" and self.stack_layers and self.stack_layers[-1] == "layout":
                return fn(*args, **kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            idx = self.open(span_name, layer)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- installation -------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        import segnetr.autodiff.functional as F
        import segnetr.autodiff.tensor as T
        import segnetr.blocks as blocks
        import segnetr.costs as costs
        import segnetr.data as data
        import segnetr.layout as layout
        import segnetr.model as model
        import segnetr.training as training
        import segnetr.verify as verify
        from segnetr.autodiff.adam import Adam
        from segnetr.autodiff.module import Module

        def fn(layer, name, func, after=None):
            patcher.replace_function(func, lambda bound: self.wrap(layer, name, bound, after))

        def conv_kind(x, weight, bias=None, stride=1, padding=0, groups=1):
            return CONV_KINDS[groups > 1 and groups == x.shape[1] and weight.shape[1] == 1]

        def conv_count(args, kwargs, out):
            weight = args[1]
            n, out_c, oh, ow = out.shape
            self.conv_macs[conv_kind(*args, **kwargs)] += (
                n * out_c * oh * ow * weight.shape[1] * weight.shape[2] * weight.shape[3])

        fn("autodiff", lambda *a, **k: "autodiff." + conv_kind(*a, **k), F.conv2d, conv_count)
        for op in AUTODIFF_OPS:
            fn("autodiff", "autodiff." + op, getattr(F, op))
        fn("autodiff", "autodiff.backward", T.backward)
        patcher.set(Adam, "step", self.wrap("autodiff", "autodiff.adam_step", Adam.step,
                                            self._after_adam))

        def moved(args, kwargs, out):
            windows = getattr(out, "windows", None)
            if windows is not None:
                self.window_elements += windows.size
                lead = windows.shape[:-4]
                h, w = out.orig_hw
                self.window_padded += windows.size - int(np.prod(lead)) * h * w * out.grid.c
                out = windows
            elif isinstance(out, tuple):
                out = out[0]
            self.layout_bytes += out.data.nbytes

        for op in LAYOUT_OPS[:-1]:
            fn("layout", "layout." + op, getattr(layout, op), moved)
        fn("layout", "layout.pad_crop", layout.pad_to_multiple, moved)
        fn("layout", "layout.pad_crop", layout.crop_hw, moved)

        fn("blocks", "blocks.irsc_fuse", blocks.irsc_fuse)
        block_kind = {blocks.MBConv: "blocks.mbconv", blocks.WindowAttention: "blocks.window_attention",
                      blocks.SegnetrBlock: "blocks.segnetr_block"}

        def register(args, kwargs, built):
            for name, mod in _named_modules(built):
                self.module_names[id(mod)] = name

        fn("model", "model.build", model.build, register)
        original_call = Module.__call__
        tracer = self

        def traced_call(mod, *args, **kwargs):
            dotted = tracer.module_names.get(id(mod))
            cls = type(mod)
            if cls is blocks.InteractionBranch:
                name, layer = f"blocks.{mod.kind}_branch", "blocks"
            elif cls in block_kind:
                name, layer = block_kind[cls], "blocks"
            elif dotted == "":
                name, layer = "model.forward", "model"
            elif dotted is not None:
                name, layer = "module", "model"
            else:
                return original_call(mod, *args, **kwargs)
            idx = tracer.open(name, layer, dotted or "")
            if dotted == "":
                tracer.forward_batch[idx] = args[0].shape[0]
            try:
                return original_call(mod, *args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer.close(idx)

        patcher.set(Module, "__call__", traced_call)

        fn("costs", "costs.cost_report", costs.cost_report)
        fn("costs", "costs.confusion", costs.confusion)
        fn("data", "data.gen_synthetic", data.gen_synthetic)

        def ckpt_size(args, kwargs, out):
            self.checkpoint_bytes = os.path.getsize(args[1])

        fn("training", "training.train", training.train)
        fn("training", "training.evaluate", training.evaluate)
        fn("training", "training.save_checkpoint", training.save_checkpoint, ckpt_size)
        fn("training", "training.load_checkpoint", training.load_checkpoint)

        def failed_checks(args, kwargs, results):
            self.checks_failed += sum(not r.passed for r in results)

        fn("verify", "verify.layout_suite", verify.layout_suite, failed_checks)
        fn("verify", "verify.gradient_suite", verify.gradient_suite, failed_checks)
        fn("verify", "verify.grad_check", verify.grad_check)

    def _after_adam(self, args, kwargs, out):
        self.op_id += 1

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), tags=np.array(self.tags or [""]),
                            **self.arrays())


def _named_modules(root, prefix: str = ""):
    yield prefix, root
    for name, child in root._modules.items():
        yield from _named_modules(child, f"{prefix}.{name}" if prefix else name)


# -- per-layer metrics --------------------------------------------------------


def _cost_flops(rows, prefix: str) -> int:
    """2flop count (2 per MAC plus eltops) of cost rows under ``prefix``, batch 1."""
    return sum(2 * r.macs + r.eltops for r in rows
               if r.name == prefix or r.name.startswith((prefix + ".", prefix + "_")))


def layer_metrics(tr: Tracer, units: int, cost_rows, loop_from: int) -> dict:
    """Per-layer metrics from the recorded spans.

    Kernel, layout, block and model times are per operation of the traced
    loop (``units`` steps, requests or passes, spans from index
    ``loop_from`` on).  Times of named public functions (cost report,
    synthetic data, training and verify calls) are means per call over the
    whole run, set-up included.
    """
    a = tr.arrays()
    names = np.array(tr.names)
    dur_ms = (a["end_ns"] - a["start_ns"]) / 1e6
    n = len(dur_ms)
    in_loop = np.arange(n) >= loop_from
    child_ms = np.zeros(n)
    has_parent = a["parent"] >= 0
    np.add.at(child_ms, a["parent"][has_parent], dur_ms[has_parent])
    self_ms = dur_ms - child_ms
    name_of = names[a["name_id"]] if n else np.array([], dtype=str)

    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = Counter()
    all_total = defaultdict(float)
    all_calls = Counter()
    for i in range(n):
        key = name_of[i]
        all_total[key] += dur_ms[i]
        all_calls[key] += 1
        if in_loop[i]:
            total[key] += dur_ms[i]
            self_total[key] += self_ms[i]
            calls[key] += 1
    u = max(units, 1)
    m: dict[str, tuple[float, str]] = {}

    def per_call(key):
        return all_total[key] / all_calls[key] if all_calls[key] else 0.0

    for kind in CONV_KINDS:
        t = total["autodiff." + kind]
        m[f"autodiff.{kind}.fwd_ms"] = (t / u, "ms")
        m[f"autodiff.{kind}.calls"] = (calls["autodiff." + kind] / u, "count")
        m[f"autodiff.{kind}.gflops_per_s"] = (2 * tr.conv_macs[kind] / t / 1e6 if t else 0.0, "GFLOP/s")
    for op in AUTODIFF_OPS:
        m[f"autodiff.{op}.fwd_ms"] = (total["autodiff." + op] / u, "ms")
        m[f"autodiff.{op}.calls"] = (calls["autodiff." + op] / u, "count")
    m["autodiff.backward_ms"] = (total["autodiff.backward"] / u, "ms")
    m["autodiff.adam_step_ms"] = (total["autodiff.adam_step"] / u, "ms")

    for op in LAYOUT_OPS:
        m[f"layout.{op}.ms"] = (total["layout." + op] / u, "ms")
    m["layout.bytes_moved"] = (tr.layout_bytes / u, "bytes")
    m["layout.window_pad_fraction"] = (
        tr.window_padded / tr.window_elements if tr.window_elements else 0.0, "ratio")

    for b in BLOCK_SPANS:
        m[f"blocks.{b}.total_ms"] = (total["blocks." + b] / u, "ms")
        m[f"blocks.{b}.self_ms"] = (self_total["blocks." + b] / u, "ms")

    seg_ms, forwards, batch_items = _model_segments(a, names, tr, loop_from)
    for seg in MODEL_SEGMENTS:
        t = seg_ms.get(seg, 0.0)
        flops = _cost_flops(cost_rows or (), seg)
        m[f"model.{seg}.fwd_ms"] = (t / forwards if forwards else 0.0, "ms")
        m[f"model.{seg}.gflops_per_s"] = (flops * batch_items / t / 1e6 if t else 0.0, "GFLOP/s")

    m["costs.cost_report_ms"] = (per_call("costs.cost_report"), "ms")
    m["costs.confusion_ms"] = (per_call("costs.confusion"), "ms")
    m["data.gen_synthetic_ms"] = (per_call("data.gen_synthetic"), "ms")
    m["training.evaluate_ms"] = (per_call("training.evaluate"), "ms")
    m["training.save_checkpoint_ms"] = (per_call("training.save_checkpoint"), "ms")
    m["training.load_checkpoint_ms"] = (per_call("training.load_checkpoint"), "ms")
    m["training.checkpoint_bytes"] = (float(tr.checkpoint_bytes), "bytes")
    m["verify.layout_suite_ms"] = (per_call("verify.layout_suite"), "ms")
    m["verify.gradient_suite_ms"] = (per_call("verify.gradient_suite"), "ms")
    m["verify.block_case_ms"] = (_block_case_ms(a, names), "ms")
    m["verify.checks_failed"] = (float(tr.checks_failed), "count")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (float(tr.errors[layer]), "count")
    return m


def _model_segments(a, names, tr: Tracer, loop_from: int):
    """Split each traced model forward into stem, encoder/decoder stages and
    head at the first span of each: ``encoder_stages.s.0``, the i-th
    top-level upsample (decoder stage 3-i) and ``head``."""
    name_ids = {name: i for i, name in enumerate(names)}
    tag_ids = {tag: i for i, tag in enumerate(tr.tags)}
    fwd = name_ids.get("model.forward")
    up = name_ids.get("autodiff.bilinear_upsample2x")
    starts_by_tag = {tag_ids[f"encoder_stages.{s}.0"]: f"encoder.{s}"
                     for s in range(4) if f"encoder_stages.{s}.0" in tag_ids}
    if "head" in tag_ids:
        starts_by_tag[tag_ids["head"]] = "head"
    seg_ms: dict[str, float] = defaultdict(float)
    if fwd is None:
        return seg_ms, 0, 0
    roots = np.nonzero((a["name_id"] == fwd) & (np.arange(len(a["name_id"])) >= loop_from))[0]
    children = defaultdict(list)
    for i in np.nonzero(np.isin(a["parent"], roots))[0]:
        children[int(a["parent"][i])].append(int(i))
    for r in roots:
        cuts = [("stem", int(a["start_ns"][r]))]
        ups = 0
        for c in children[int(r)]:
            if a["tag"][c] in starts_by_tag:
                cuts.append((starts_by_tag[a["tag"][c]], int(a["start_ns"][c])))
            elif a["name_id"][c] == up and ups < 4:
                cuts.append((f"decoder.{3 - ups}", int(a["start_ns"][c])))
                ups += 1
        cuts.append(("", int(a["end_ns"][r])))
        for (seg, t0), (_, t1) in zip(cuts, cuts[1:]):
            seg_ms[seg] += (t1 - t0) / 1e6
    return seg_ms, len(roots), sum(tr.forward_batch[int(r)] for r in roots)


def _block_case_ms(a, names) -> float:
    """Mean time of the gradient checks that run a SegnetrBlock."""
    ids = {name: i for i, name in enumerate(names)}
    if "verify.grad_check" not in ids or "blocks.segnetr_block" not in ids:
        return 0.0
    check, block = ids["verify.grad_check"], ids["blocks.segnetr_block"]
    marked = set()
    parent = a["parent"]
    for i in np.nonzero(a["name_id"] == block)[0]:
        p = parent[i]
        while p >= 0 and a["name_id"][p] != check:
            p = parent[p]
        if p >= 0:
            marked.add(int(p))
    if not marked:
        return 0.0
    idx = np.array(sorted(marked))
    return float(((a["end_ns"][idx] - a["start_ns"][idx]) / 1e6).mean())


def uncovered_share(tr: Tracer, loop_from: int) -> float:
    """Share of the traced operations' time that no child span covers."""
    a = tr.arrays()
    op_names = [i for i, name in enumerate(tr.names) if name.startswith("op.")]
    idx = np.arange(len(a["start_ns"]))
    roots = np.nonzero(np.isin(a["name_id"], op_names) & (idx >= loop_from))[0]
    if not len(roots):
        return 0.0
    dur = a["end_ns"] - a["start_ns"]
    covered = dur[np.isin(a["parent"], roots)].sum()
    return float(1.0 - covered / dur[roots].sum())


def _cost_prefix(dotted: str, stages: int = 4) -> str:
    """Cost-report row prefix of a module's dotted name.  Decoder module
    ``i`` is cost row ``decoder.{stages-1-i}``."""
    parts = dotted.split(".")
    head, rest = parts[0], parts[1:]
    if head == "encoder_stages":
        parts = ["encoder"] + rest
    elif head == "decoder_stages":
        parts = ["decoder", str(stages - 1 - int(rest[0]))] + rest[1:]
    elif head == "merge_projections":
        parts = ["encoder", rest[0], "merge_proj"]
    elif head == "fuse_projections":
        parts = ["decoder", str(stages - 1 - int(rest[0])), "fuse_proj"]
    renamed = {"local_branch": "local", "global_branch": "global"}
    return ".".join(renamed.get(p, p) for p in parts if p != "attention")


def module_roofline(tr: Tracer, cost_rows, loop_from: int, units: int, roof: dict) -> dict:
    """Forward ms per operation of every named Module instance, beside the
    MACs and eltops of its cost-report rows (batch 1) and the machine's
    measured roofs."""
    a = tr.arrays()
    dur_ms = (a["end_ns"] - a["start_ns"]) / 1e6
    per_tag: dict[str, float] = defaultdict(float)
    for i in np.nonzero((a["tag"] >= 0) & (np.arange(len(dur_ms)) >= loop_from))[0]:
        per_tag[tr.tags[a["tag"][i]]] += dur_ms[i]
    table = []
    for dotted, ms in per_tag.items():
        prefix = _cost_prefix(dotted) if dotted else ""
        rows = [r for r in cost_rows
                if not prefix or r.name == prefix or r.name.startswith(prefix + ".")]
        macs = sum(r.macs for r in rows)
        eltops = sum(r.eltops for r in rows)
        fwd_ms = ms / max(units, 1)
        table.append({
            "module": dotted or "(model)", "cost_rows": prefix or "(all)", "fwd_ms": fwd_ms,
            "macs": macs, "eltops": eltops,
            "gflops_per_s": (2 * macs + eltops) / fwd_ms / 1e6 if fwd_ms else 0.0,
        })
    table.sort(key=lambda r: -r["fwd_ms"])
    return {"convention": "2flop (2 per MAC plus eltops), batch 1, per operation",
            "roofline": roof, "modules": table}
