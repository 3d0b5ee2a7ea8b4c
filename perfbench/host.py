"""Provenance recorded with every result: host, versions, threads, commit."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

THREAD_VARS = (
    "POINTMASS_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    """Per-level cache sizes of CPU 0 as the kernel lists them, e.g.
    ``{"L1 Data": "48K", "L2 Unified": "2048K"}``."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            fields = []
            for name in ("level", "type", "size"):
                with open(os.path.join(base, index, name), encoding="ascii") as fh:
                    fields.append(fh.read().strip())
            out[f"L{fields[0]} {fields[1]}"] = fields[2]
    except OSError:
        pass
    return out


def _git(root: str, *args: str) -> str | None:
    """Output of a git command run in ``root``, which git may not search
    above; ``None`` where that fails, as in a checkout that is not a
    repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: str) -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    status = _git(root, "status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git(root, "rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
    }
