"""Shared pytest hooks.

The acceptance tests record one verdict line per criterion in
CRITERION_LINES; the terminal-summary hook replays them after the run,
outside pytest's output capture, so the full pass/fail ledger is visible
in a plain ``pytest -v`` log.
"""

import numpy as np

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
