"""Shared pytest hooks and helpers.

The acceptance tests record one verdict line per criterion in
CRITERION_LINES; the terminal-summary hook replays them after the run,
outside pytest's output capture, so the full pass/fail ledger is visible
in a plain ``pytest -v`` log.
"""

import functools
import types

import numpy as np
import pytest

from segnetr.autodiff import functional as F
from segnetr.autodiff.module import Parameter
from segnetr.autodiff.tensor import Tensor, no_grad

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def perturb_state(model, seed: int):
    """Give every parameter and buffer seeded values that no fresh build has.

    A fresh build's head is zero, so all its logits are 0, and its norms,
    biases and fusion weights start at the same constants under every seed.
    A round-trip check on such a model passes whatever the load does to
    those tensors; after this call, each tensor that reaches the logits
    moves them.
    """
    rng = np.random.default_rng(seed)
    for name, arr in model.named_state():
        if name.endswith("running_var"):
            arr *= rng.uniform(0.5, 2.0, arr.shape).astype(arr.dtype)
        else:
            arr += (0.1 * rng.standard_normal(arr.shape)).astype(arr.dtype)
    return model


def _root(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s memory (``arr`` itself if not a view)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def closure_arrays(*fns) -> list:
    """Arrays that functions (backward rules) keep alive: through
    closure cells and default arguments, as bare arrays, tensors' data,
    items of a tuple or list, the array behind a bound method
    (``arr.__getitem__``) or a ``functools.partial``, and the same held by
    a function they reach (a kernel's own backward)."""
    found, pending, visited = [], list(fns), set()
    while pending:
        item = pending.pop()
        if isinstance(item, Tensor):
            item = item.data
        if id(item) in visited:
            continue
        visited.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            pending.extend(item)
        elif isinstance(item, types.FunctionType):
            for cell in item.__closure__ or ():
                try:
                    pending.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
            pending.extend(item.__defaults__ or ())
        elif isinstance(item, functools.partial):
            pending += [item.func, *item.args, *item.keywords.values()]
        elif isinstance(item, (types.BuiltinMethodType, types.MethodType, types.MethodWrapperType)):
            pending.append(item.__self__)
    return found


def graph_nodes(loss: Tensor) -> list:
    """Every pending record ``[seq, parents, rule]`` reachable from
    ``loss``, in creation order."""
    found, stack, seen = [], [loss._node], set()
    while stack:
        rec = stack.pop()
        if not rec or id(rec) in seen:
            continue
        seen.add(id(rec))
        found.append(rec)
        stack.extend(p for p in rec[1] if isinstance(p, list))
    return sorted(found, key=lambda rec: rec[0])


def graph_saved_bytes(loss: Tensor) -> int:
    """Bytes of the distinct non-parameter buffers the pending graph of
    ``loss`` keeps alive: the loss itself, every reachable record's leaf
    parents and whatever its rule reaches (``closure_arrays``).
    Views count once, as the array that owns their memory; parameters and
    arrays viewing them are left out."""
    records = graph_nodes(loss)
    params = {id(_root(p.data)) for rec in records for p in rec[1] if isinstance(p, Parameter)}
    arrays = [loss.data]
    for _, parents, rule in records:
        arrays += [p.data for p in parents if isinstance(p, Tensor)]
        arrays += closure_arrays(rule)
    seen, total = set(), 0
    for arr in arrays:
        root = _root(arr)
        if id(root) not in params and id(root) not in seen:
            seen.add(id(root))
            total += root.nbytes
    return total


def forward_macs(model, h: int, w: int) -> dict[str, int]:
    """MACs of one batch-1 eval forward at (h, w), per op, counted from the
    ``conv2d``, ``linear`` and ``bilinear_upsample2x`` calls the forward
    really makes, by the rules of the ``costs.py`` docstring: a conv's output
    elements times its fan-in, a linear's output elements times ``d_in``, and
    2 MACs per element of an upsample's row pass and of its output."""
    rules = {
        "conv2d": lambda args, out: out.size * int(np.prod(args[1].shape[1:])),
        "linear": lambda args, out: out.size * args[1].shape[1],
        "bilinear_upsample2x": lambda args, out: 2 * (out.size // 2) + 2 * out.size,
    }
    counts = dict.fromkeys(rules, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += rules[name](args, out)
            return out
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in rules:
            mp.setattr(F, name, counting(name, getattr(F, name)))
        with no_grad():
            model.eval()(Tensor(np.zeros((1, 3, h, w), dtype=np.float32)))
    return counts
