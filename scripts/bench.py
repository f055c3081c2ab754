#!/usr/bin/env python3
"""Time one monitored pass of each solver and record it in a BENCH json.

    python3 scripts/bench.py --label after --out BENCH_6.json [--reps 15]

Run from any directory: the script imports phasekit from the src/ next to
it, so a copy placed in another checkout times that checkout's code.  Each
row is one solver pass on a seeded instance, recording every pass: seconds
of a `run` with max_passes = PASSES divided by PASSES, so the start's
monitoring product is spread over the passes.  Every algorithm runs on a
real and a complex Gaussian instance (n=1000, m=8n, k=64), and block
Kaczmarz also on a coded-diffraction instance (n=1000, 8 masks) with k=n,
where each block is a whole mask.  rwf, irwf and kaczmarz_pr also run at
the phase-transition size (real, n=256, m=2n), where a pass is short
enough for per-call overhead to show.  Each row keeps the median and min over
--reps repeats.  BLAS threads default to 1 (an environment setting wins
and is recorded), so the rows measure the code, not the thread pool.  The run is stored under
--label in --out, next to the runs already there.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from phasekit.core import COMPLEX, REAL, random_signal  # noqa: E402
from phasekit.sensing import make_cdp, make_gaussian, measure  # noqa: E402
from phasekit.solvers import SolverConfig, run  # noqa: E402
from phasekit.streams import substream  # noqa: E402

N, RATIO, PASSES, K = 1000, 8, 3, 64
ALGORITHMS = ("rwf", "wf", "irwf", "kaczmarz_pr", "minibatch_irwf", "block_kaczmarz_pr")
# (model, n, m/n, algorithms, k)
INSTANCES = (
    ("real", N, RATIO, ALGORITHMS, K),
    ("complex", N, RATIO, ALGORITHMS, K),
    ("cdp", N, RATIO, ("block_kaczmarz_pr",), N),
    ("real", 256, 2, ("rwf", "irwf", "kaczmarz_pr"), K),
)


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def machine():
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "num_threads_env": threads,
    }


def time_pass(y, A, z0, alg, k, reps):
    cfg = SolverConfig(algorithm=alg, max_passes=PASSES, tol=1e-300, minibatch_k=k, seed=3)
    secs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        tr = run(y, A, z0, cfg)
        secs.append((time.perf_counter() - t0) / PASSES)
        if tr.passes_used != PASSES:
            raise RuntimeError("%s stopped after %d passes" % (alg, tr.passes_used))
    return statistics.median(secs), min(secs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run, e.g. before / after")
    ap.add_argument("--out", required=True, help="BENCH json file to add the run to")
    ap.add_argument("--reps", type=int, default=7, help="repeats per row (at least 5)")
    args = ap.parse_args()
    if args.reps < 5:
        ap.error("--reps must be at least 5")

    rows = []
    for model, n, ratio, algs, k in INSTANCES:
        if model == "cdp":
            A = make_cdp(n, ratio, seed=11)
        else:
            A = make_gaussian(n, ratio * n, REAL if model == "real" else COMPLEX, seed=11)
        y = measure(A, random_signal(n, A.field, substream(11, "x")))
        z0 = random_signal(n, A.field, substream(11, "z0"))
        for alg in algs:
            med, low = time_pass(y, A, z0, alg, k, args.reps)
            rows.append({"layer": "solvers.%s.pass" % alg, "model": model, "n": n, "m": A.m,
                         "k": k, "reps": args.reps, "median_s": med, "min_s": low})
            print("%-28s %-8s n=%-5d median %8.3f ms  min %8.3f ms"
                  % (rows[-1]["layer"], model, n, 1e3 * med, 1e3 * low))

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "machine": machine(),
        "what": "seconds per pass of a %d-pass run recording every pass" % PASSES,
        "rows": rows,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote %s (run %r)" % (path, args.label))


if __name__ == "__main__":
    main()
