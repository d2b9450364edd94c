"""Facts about the machine and the checkout that a benchmark result depends on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    """Unified cache sizes of cpu0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified":
            sizes[f"L{level}"] = size
    return sizes


def _blas():
    """numpy's BLAS build and, for its bundled OpenBLAS, the thread count in use."""
    info = {"threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                break
    return info


def _git(root):
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not (root / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.stdout.strip())


def facts(root, seed):
    sha, dirty = _git(root)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }
