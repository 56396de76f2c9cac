"""Process set-up shared by the benchmark scripts: thread pinning, the source
path, and the environment record that goes with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment() -> None:
    """One BLAS thread per process, so a single client never runs more
    threads than `jobs`; drop DYNDML_* defaults so flags alone configure the
    CLI. Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for var in [k for k in os.environ if k.startswith("DYNDML_")]:
        del os.environ[var]


def add_source_path() -> None:
    """Put the checkout's `src/` first on the import path; raise if absent."""
    if not os.path.isfile(os.path.join(SRC, "dyndml", "__init__.py")):
        raise FileNotFoundError(f"no dyndml package under {SRC}")
    sys.path.insert(0, SRC)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over src/dyndml/*.py, which identifies the code when git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dyndml")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS[:2]},
    }
