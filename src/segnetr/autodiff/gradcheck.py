"""Central finite-difference gradient verification.

Runs in 64-bit: callers build their inputs as float64 tensors and the checked
function must route through the autodiff ops.  Non-scalar outputs are reduced
with a fixed random projection so one backward pass covers every output.

The per-coordinate differences are independent, and each costs two forwards
of per-op Python dispatch that hold the GIL, so a large check shares them
among forked worker processes, one per usable core (threads would not run
them in parallel), which take them in chunks from one queue.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import mmap
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from typing import BinaryIO, Callable, Optional, Sequence

import numpy as np

from .tensor import Tensor, backward, no_grad, sum_


@dataclass
class GradCheckResult:
    max_rel_error: float
    per_input: list[float]

    def ok(self, tol: float) -> bool:
        return self.max_rel_error < tol


STEP = 1e-4
# Checks with fewer coordinates run in process: a fork round trip costs about
# 2.5 ms, the price of a few coordinates of a SegnetrBlock check.
PARALLEL_MIN_COORDS = 128
# A split check goes out in at most this many chunks: their 4-byte records
# fill one pipe page, and a SegnetrBlock check's chunk of 3 coordinates takes
# about 3 ms, so the processes finish within a few ms of each other.
MAX_CHUNKS = 1024


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def worker_count() -> int:
    """Processes that share a check of at least ``PARALLEL_MIN_COORDS``
    coordinates: one per usable core, or 1 (the in-process loop) without
    ``os.fork`` or while another Python thread runs, since that thread could
    hold a Python-level lock across the fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def grad_check(fn: Callable[..., Tensor], inputs: Sequence[Tensor]) -> GradCheckResult:
    """Compare analytic gradients of ``fn(*inputs)`` against central
    differences of step ``STEP``, at every coordinate of every input.

    Relative error uses a max(|a|, |b|, 1e-8) denominator.  A check of at
    least ``PARALLEL_MIN_COORDS`` coordinates shares them among
    ``worker_count()`` processes; the result is bit-identical to the
    in-process loop, and an exception ``fn`` raises at a coordinate reaches
    the caller as the loop would raise it.  Side effects of ``fn`` in a
    worker (train-mode batch-norm running buffers, say) are discarded, and
    which coordinates the caller's process runs varies from call to call.
    """
    probe = fn(*inputs)
    projection = None
    if probe.size != 1:
        # Small projections keep the loss and its forward round-off tiny, so
        # central-difference noise stays far below the 1e-8 error floor while
        # per-coordinate gradients remain well above it.
        projection = Tensor(
            np.random.default_rng(0).standard_normal(probe.shape).astype(probe.dtype)
            / (probe.size * 64)
        )

    def loss() -> Tensor:
        out = fn(*inputs)
        if projection is not None:
            out = sum_(out * projection)
        return out

    for t in inputs:
        t.grad = None
    backward(loss())
    analytic = [None if t.grad is None else t.grad.copy() for t in inputs]

    flats = [t.data.reshape(-1) for t in inputs if t.requires_grad]
    starts = list(itertools.accumulate((flat.size for flat in flats), initial=0))

    def central(j: int) -> float:
        k = bisect.bisect_right(starts, j) - 1
        flat, i = flats[k], j - starts[k]
        saved = flat[i]
        flat[i] = saved + STEP
        f_plus = float(loss().data)
        flat[i] = saved - STEP
        f_minus = float(loss().data)
        flat[i] = saved
        return (f_plus - f_minus) / (2.0 * STEP)

    with no_grad():
        numeric = _central_differences(central, starts[-1])

    per_input: list[float] = []
    j = 0
    for t, ana in zip(inputs, analytic):
        if not t.requires_grad:
            per_input.append(0.0)
            continue
        if ana is None:
            ana = np.zeros_like(t.data)
        worst = 0.0
        ana_flat = ana.reshape(-1)
        for i in range(t.size):
            worst = max(worst, _rel_error(float(ana_flat[i]), float(numeric[j])))
            j += 1
        per_input.append(worst)
    return GradCheckResult(max(per_input, default=0.0), per_input)


def _central_differences(central: Callable[[int], float], n: int) -> np.ndarray:
    """``central(j)`` for j < n as a float64 array.

    The caller's process and its forked workers take chunks of coordinates
    in order from one queue and write the derivatives into one shared
    array, so a process the machine slows down takes fewer chunks instead
    of holding up the others.  Each process stops at its first failing
    coordinate; chunks go out in order, so the lowest failing coordinate is
    always met, as in the loop."""
    procs = worker_count() if n >= PARALLEL_MIN_COORDS else 1
    if procs == 1:
        out = np.empty(n)
        for j in range(n):
            out[j] = central(j)
        return out
    chunk = -(-n // MAX_CHUNKS)
    shared = mmap.mmap(-1, 8 * n)  # anonymous and shared: workers' writes reach the caller
    values = np.frombuffer(shared, dtype=np.float64)
    queue = _chunk_queue(n, chunk)
    workers = []  # (pid, read end of its pipe) of each worker not yet reaped
    try:
        for _ in range(1, procs):
            workers.append(_fork_worker(central, queue, chunk, n, values))
        failures = [_run_chunks(central, queue, chunk, n, values)]
        while workers:
            pid, pipe = workers[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            if status:
                raise ChildProcessError(
                    f"grad_check worker {pid} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} and no result"
                )
            failures.append(pickle.loads(payload))
        out = values.copy()
    finally:
        for pid, pipe in workers:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        os.close(queue)
    raised = [f for f in failures if f is not None]
    if raised:
        # the loop would have raised at the first failing coordinate
        raise min(raised, key=lambda f: f[0])[1]
    return out


def _chunk_queue(n: int, chunk: int) -> int:
    """A pipe holding the first coordinate of every chunk, in order, as
    4-byte records; returns its read end.  At most ``MAX_CHUNKS`` records
    fit one pipe page, so the write completes before anyone reads, and every
    read of 4 bytes takes exactly one record."""
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, np.arange(0, n, chunk, dtype="<u4").tobytes())
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    return read_fd


def _run_chunks(central, queue: int, chunk: int, n: int, out: np.ndarray) -> Optional[tuple[int, Exception]]:
    """Fill ``out`` at the chunks taken from ``queue`` until it is empty;
    stop at the first coordinate whose difference raises and return it with
    the exception."""
    while record := os.read(queue, 4):
        first = int.from_bytes(record, "little")
        for j in range(first, min(first + chunk, n)):
            try:
                out[j] = central(j)
            except Exception as exc:
                return j, exc
    return None


def _fork_worker(central, queue: int, chunk: int, n: int, out: np.ndarray) -> tuple[int, BinaryIO]:
    """Fork a worker that runs chunks from ``queue`` into the shared ``out``
    and writes its failure, if any, to a pipe.  Returns its pid and the
    pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork in a process with native threads.
            # The only one here is OpenBLAS's pool, which its own fork handler
            # shuts down; Python threads never get this far (see worker_count).
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                DeprecationWarning,
            )
            pid = os.fork()
        if pid == 0:
            _work(central, queue, chunk, n, out, read_fd, write_fd)
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _work(central, queue: int, chunk: int, n: int, out: np.ndarray, read_fd: int, write_fd: int) -> None:
    """The worker's whole life.  It leaves only by ``os._exit``, so it never
    returns into the caller's code, runs no atexit handler and never flushes
    the stdio buffers it inherited, which the parent flushes once."""
    code = 1
    try:
        os.close(read_fd)
        failure = _run_chunks(central, queue, chunk, n, out)
        try:
            payload = pickle.dumps(failure)
        except Exception:  # an exception that does not pickle
            j, exc = failure
            payload = pickle.dumps((j, ChildProcessError(f"grad_check worker: {exc!r}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
