"""Machine and environment record printed with every result.

BLAS threads are recorded, never pinned: pinning would hide the pool
oversubscription the transition workload is there to show.
"""

import os
import platform
import re
import subprocess

import numpy as np
import scipy


def _openblas_version():
    try:
        info = np.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _caches():
    """{'L2': ..., 'L3': ...} as lscpu prints them, else from sysfs."""
    out = {}
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=False
        ).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    for line in text.splitlines():
        m = re.match(r"\s*(L2|L3) cache:\s*(.+)", line)
        if m:
            out[m.group(1)] = m.group(2).strip()
    if out:
        return out
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                out["L" + level] = fh.read().strip() + " (per core)"
    except OSError:
        pass
    return out


def record():
    """Flat {key: value} description of the machine and thread settings."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    rec = {
        "nproc": os.cpu_count(),
        "nproc_usable": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
    }
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    rec["num_threads_env"] = ", ".join("%s=%s" % kv for kv in threads.items()) or "unset (BLAS default)"
    for level, size in sorted(_caches().items()):
        rec["cache_" + level] = size
    return rec
