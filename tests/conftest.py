"""Shared pytest hooks and helpers.

The acceptance tests record one verdict line per criterion in
CRITERION_LINES; the terminal-summary hook replays them after the run,
outside pytest's output capture, so the full pass/fail ledger is visible
in a plain ``pytest -v`` log.
"""

import types

import numpy as np

from segnetr.autodiff.module import Parameter
from segnetr.autodiff.tensor import Tensor, active_tape

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


def closure_arrays(rule) -> list:
    """Arrays a backward rule keeps alive through its closure cells: bare
    arrays, tensors' data, either inside a tuple or list, and the same held
    by a function in a cell (a kernel's own backward, say)."""
    found, pending, visited = [], [rule], set()
    while pending:
        fn = pending.pop()
        if id(fn) in visited:
            continue
        visited.add(id(fn))
        for cell in fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # an empty cell
                continue
            for item in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(item, Tensor):
                    item = item.data
                if isinstance(item, np.ndarray):
                    found.append(item)
                elif isinstance(item, types.FunctionType):
                    pending.append(item)
    return found


def graph_saved_bytes() -> int:
    """Bytes of the distinct non-parameter buffers the pending graph keeps
    alive: every tape entry's output and inputs and its rule's closure
    cells.  Views count once, as the array that owns their memory;
    parameters and arrays viewing them are left out."""
    entries = active_tape().entries
    params, seen, total = set(), set(), 0
    for _, inputs, _ in entries:
        for t in inputs:
            if isinstance(t, Parameter):
                params.add(id(_root(t.data)))
    for out, inputs, rule in entries:
        arrays = [out.data]
        arrays += [t.data for t in inputs if not isinstance(t, Parameter)]
        arrays += closure_arrays(rule)
        for arr in arrays:
            root = _root(arr)
            if id(root) not in params and id(root) not in seen:
                seen.add(id(root))
                total += root.nbytes
    return total
