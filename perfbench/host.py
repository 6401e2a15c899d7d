"""Host metadata recorded with every result.

Records what the process itself sees: the CPUs in its affinity mask, the BLAS
library numpy loaded and that library's thread count, the interpreter and
numpy versions, the tensor dtype policy, and which source tree ran.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import subprocess
from pathlib import Path

import numpy as np

# Symbol names of the thread/core queries across OpenBLAS builds (plain,
# 64-bit-integer, and the scipy-openblas wheels numpy ships with).
_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)
_CORE_SYMBOLS = (
    "openblas_get_corename",
    "openblas_get_corename64_",
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
)


def _loaded_blas_paths() -> list[str]:
    """Shared objects mapped into this process whose name mentions BLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = {
        line.split()[-1]
        for line in maps.splitlines()
        if "blas" in line.rsplit("/", 1)[-1].lower() and "/" in line
    }
    return sorted(paths)


def _call_first(lib: ctypes.CDLL, symbols: tuple[str, ...], restype):
    for symbol in symbols:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_info() -> dict:
    """BLAS library name/version from numpy's build, plus live thread count."""
    info: dict = {"library": None, "version": None, "threads": None,
                  "core": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = deps.get("name")
        info["version"] = deps.get("version")
    except (TypeError, KeyError):  # numpy without the dict-mode config
        pass
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _call_first(lib, _THREAD_SYMBOLS, ctypes.c_int)
        if threads is None:
            continue
        info["threads"] = int(threads)
        core = _call_first(lib, _CORE_SYMBOLS, ctypes.c_char_p)
        info["core"] = core.decode() if core else None
        break
    return info


def source_digest(root: Path) -> str:
    """SHA-256 over the Python sources under ``root`` (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the git checkout rooted at ``root``, or None if it is not one.

    A plain source tree nested inside some other repository reports None,
    not that repository's HEAD.
    """
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    toplevel, head = lines
    return head if Path(toplevel).resolve() == root.resolve() else None


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_metadata(repo_root: Path) -> dict:
    """Everything about the host and code that a result depends on."""
    from repro.autograd import get_default_dtype

    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "os_cpus": os.cpu_count(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dtype_policy": np.dtype(get_default_dtype()).name,
        "machine": platform.machine(),
        "commit": git_commit(repo_root),
        "source_sha256": source_digest(repo_root / "src"),
    }
