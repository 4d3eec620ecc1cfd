"""Paths, the pinned process environment, and the environment record.

Every process that imports ``bvlorentz`` for the benchmark is started with
``pinned_env()``, so BLAS runs on one thread and the figures do not depend
on how many cores happen to be idle.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Scratch inputs and op outputs; deleted when a run ends.
WORK = ROOT / ".perfbench_work"
#: Results, digests and traces kept for comparing two commits.
OUT = ROOT / ".perfbench_out"

BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def use_source_tree() -> None:
    """Import ``bvlorentz`` from this checkout's ``src/``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_record() -> dict:
    """What the parent process can say about the machine and the checkout."""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "blas_threads": {var: BLAS_THREADS for var in _THREAD_VARS},
    }


def library_record() -> dict:
    """Versions as seen inside a worker, after numpy is imported."""
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_seen": {var: os.environ.get(var) for var in _THREAD_VARS},
    }
