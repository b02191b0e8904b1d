"""Source digest, host record and host speed.

The digest names the predictor cache, so a parent commit and a change
never share a trained model.  The host record says what the numbers
were measured on, with threading exactly as the process found it: this
module reads the BLAS thread count and never sets it.  The host speed
is how long a fixed calibration chunk takes right now; the benchmark
scales its host times by it (see ``perfbench/NOTES.md``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import time
from pathlib import Path

import numpy as np

#: What running or installing the package leaves under ``src/``; not
#: part of the source a digest should name.
_GENERATED_SUFFIXES = (".pyc", ".pyo", ".so")


def source_digest(src: Path) -> str:
    """sha256 over the relative paths and bytes of every source file."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        rel = path.relative_to(src)
        if any(part == "__pycache__" or part.endswith(".egg-info")
               for part in rel.parts):
            continue
        if not path.is_file() or path.name.endswith(_GENERATED_SUFFIXES):
            continue
        h.update(rel.as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS library name/version as numpy was built, and its live thread
    count read from the loaded OpenBLAS (``None`` when unreadable)."""
    info: dict = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = deps.get("name", "unknown")
        info["version"] = deps.get("version", "unknown")
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        with open(f"/proc/{os.getpid()}/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def sim_backend() -> str:
    """Which tick-recurrence backend the simulator uses: ``c-kernel``,
    ``numpy``, or ``unknown`` when the package no longer says."""
    try:
        from repro.sim import _ckernel
    except ImportError:
        return "unknown"
    if os.environ.get("REPRO_SIM_PURE_NUMPY"):
        return "numpy"
    load = getattr(_ckernel, "load_kernel", None)
    if load is None:
        return "unknown"
    return "c-kernel" if load() is not None else "numpy"


#: Mean seconds of one calibration chunk at the reference host speed
#: (a 2-vCPU Intel Xeon VM in its usual state).  Host times are scaled
#: by this over the chunk's mean measured next to them.
CALIBRATION_REF_S = 6.0e-4

_CAL_A = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)


def _calibration_chunk() -> float:
    """A fixed mix of the kinds of work the package does on one thread:
    interpreter loops and dict updates, and small numpy ops.  Uses no
    package code, so no change under test can make it faster or slower.
    It holds no matrix product big enough for BLAS to start its threads:
    on the reference host those take either 0.07 ms or 16 ms, and that
    cost belongs to the program's threading, which the benchmark leaves
    as users get it."""
    acc, table = 0.0, {}
    for i in range(1500):
        acc += (i * 0.37) % 1.3
        table[i & 63] = acc
    y = _CAL_A
    for _ in range(20):
        y = np.tanh(y @ _CAL_A * 0.01)
    return acc + float(y[0, 0])


def host_speed(seconds: float = 0.15) -> float:
    """Mean seconds of one calibration chunk, run back to back for
    ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        _calibration_chunk()
        times.append(time.perf_counter() - start)
    return float(np.mean(times))


def host_record() -> dict:
    """nproc, CPU model, Python/numpy versions, BLAS and sim backend."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "sim_backend": sim_backend(),
    }


__all__ = ["CALIBRATION_REF_S", "host_record", "host_speed", "sim_backend",
           "source_digest"]
