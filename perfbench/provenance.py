"""Source location and run provenance for the benchmark's result files."""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


class MissingSource(RuntimeError):
    """The package sources are not next to the benchmark."""


def require_source(root):
    """Put ``root/src`` first on sys.path; refuse to run without it.

    The benchmark must measure the checkout it sits in, never an installed
    copy of the package, so the import location is checked as well.
    """
    src = Path(root) / "src"
    if not (src / "neqlifshitz" / "__init__.py").is_file():
        raise MissingSource(f"no package sources under {src}")
    sys.path.insert(0, str(src))
    import neqlifshitz
    where = Path(neqlifshitz.__file__).resolve().parent
    if where != (src / "neqlifshitz").resolve():
        raise MissingSource(f"neqlifshitz imported from {where}, not {src}")
    return src


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _commit(root):
    """HEAD of the checkout when it is a git work tree of its own."""
    if not (Path(root) / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root):
    """sha256 over the package sources, stable across checkouts."""
    h = hashlib.sha256()
    src = Path(root) / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # the layout differs between versions
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def collect(root, seed):
    import mpmath
    import numpy
    import scipy
    return {
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "loadavg_start": _read("/proc/loadavg").strip(),
        "argv": sys.argv,
    }
