"""Environment and roofline record attached to every result.

The roofline pair is measured in the same process as the workload, after the
workload's peak memory has been read: the f32 matmul rate (compute roof) and
the copy bandwidth over arrays of at least four times the last-level cache
(memory roof; Williams, Waterman and Patterson, CACM 2009).
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SCOPE = ("Only the benchmark's own process was measured: no cache dropping, "
         "no CPU affinity changes and no cgroup changes.")
MATMUL_N = 2048
REPEATS = 5
FALLBACK_LLC_BYTES = 64 * 2**20


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Hold every BLAS thread variable at or below the usable core count,
    before NumPy is imported; returns the count in force."""
    cores = cpu_count()
    wanted = cores
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) >= 1:
            wanted = min(wanted, int(value))
    for var in BLAS_THREAD_VARS[:3]:
        os.environ[var] = str(wanted)
    return wanted


def last_level_cache_bytes() -> tuple[int, str]:
    """Largest cache of cpu0 as sysfs reports it, or a stated fallback."""
    best = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    if best:
        return best, "sysfs"
    return FALLBACK_LLC_BYTES, "assumed (sysfs unreadable)"


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_sha": git_sha(root),
        "measurement_scope": SCOPE,
    }


def roofline() -> dict:
    llc, llc_source = last_level_cache_bytes()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((MATMUL_N, MATMUL_N), dtype=np.float32)
    b = rng.standard_normal((MATMUL_N, MATMUL_N), dtype=np.float32)
    c = a @ b
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        rates.append(2 * MATMUL_N**3 / (time.perf_counter() - t0) / 1e9)
    del a, b, c

    copy_bytes = 4 * llc
    src = np.ones(copy_bytes // 4, dtype=np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    bandwidth = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        bandwidth.append(2 * copy_bytes / (time.perf_counter() - t0) / 1e9)
    del src, dst
    return {
        "matmul_f32_gflops_per_s": statistics.median(rates),
        "matmul_size": f"{MATMUL_N}x{MATMUL_N} @ {MATMUL_N}x{MATMUL_N} float32 "
                       f"({MATMUL_N * MATMUL_N * 4 / 2**20:.0f} MiB per operand), median of {REPEATS}",
        "copy_gb_per_s": statistics.median(bandwidth),
        "copy_size": f"{copy_bytes / 2**20:.0f} MiB float32 source and destination "
                     f"(4x the {llc / 2**20:.0f} MiB last-level cache, {llc_source}); "
                     f"bytes read plus bytes written, median of {REPEATS}",
    }
