"""Environment and drift record for one benchmark run."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy


def src_sha256(src: Path) -> str:
    """Hash of every Python file under ``src`` (path and bytes), so runs of
    the same program text share quality records even without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it is one."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def reference_kernel_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy kernel shaped like the program's hot
    loop (small gate matmuls and sigmoids in Python) plus one 256x256
    matmul. Reported beside results to show CPU speed drift; never used to
    rescale them."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((64, 16)) * 0.1
    x = rng.standard_normal((256, 256))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        h = np.ones(16)
        for _ in range(2000):
            z = w @ h
            h = 1.0 / (1.0 + np.exp(-z[:16])) * np.tanh(z[16:32])
        y = x @ x
        times.append(time.perf_counter() - t0)
    if not np.isfinite(y).all() or not np.isfinite(h).all():
        raise FloatingPointError("reference kernel produced non-finite values")
    return statistics.median(times) * 1e3


def record(root: Path, workload: str, config_hash: str) -> dict:
    return {
        "commit": git_commit(root),
        "src_sha256": src_sha256(root / "src"),
        "workload": workload,
        "config_hash": config_hash,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
