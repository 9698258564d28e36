"""Environment manifest recorded with every benchmark result.

The benchmark runs batchlab as shipped and never sets a BLAS thread count;
it records the count in effect and the thread variables, because default
BLAS threading changes the step-time tail.
"""

import ctypes
import os
import platform
import subprocess

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# thread-count getters exported by the OpenBLAS builds numpy wheels ship
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_build():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _openblas_threads():
    """Thread count of the OpenBLAS library loaded into this process, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_revision(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def collect(root, loadavg_at_start):
    """Manifest dict; call after numpy is imported so its BLAS is loaded."""
    import numpy as np

    blas = _blas_build()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg_at_start": list(loadavg_at_start),
        "git_revision": _git_revision(root),
    }
