#!/usr/bin/env python3
"""Time imports, solver passes, monitoring, builds and inits into a BENCH json.

    python3 scripts/bench.py --label after --out BENCH_8.json [--reps 15]

Run from any directory: the script imports phasekit from the src/ next to
it, so a copy placed in another checkout times that checkout's code.

Pass rows: one solver pass on a seeded instance, recording every pass:
seconds of a `run` with max_passes = PASSES divided by PASSES, so the
start's monitoring product is spread over the passes.  Every algorithm
runs on a real and a complex Gaussian instance (n=1000, m=8n, k=64), and
block Kaczmarz also on a coded-diffraction instance (n=1000, 8 masks) with
k=n, where each block is a whole mask.  rwf, irwf and kaczmarz_pr also run
at the phase-transition size (real, n=256, m=2n), where a pass is short
enough for per-call overhead to show.

Observe rows (solvers.observe): a rwf `run` with max_passes = 0 and the
ground truth given, which is run()'s setup plus one monitoring call (A z,
the loss and the relative error), on each Gaussian instance above; each
repeat makes OBSERVE_CALLS calls and the row keeps seconds per call.
Monitor rows (solvers.monitor) time the monitoring call's own terms on the
same instances, with A z held: the amplitude loss and the phase-invariant
distance over ||x||, so a change to them is not lost in run()'s setup and
the product.

Import row: wall seconds of a fresh `python -c "import phasekit"` process
that imports this checkout's phasekit, and the peak RSS it reports.

Setup rows: building a real and a complex Gaussian instance (n=1000,
m=8n) and a coded-diffraction one (n=128^2, 12 masks) (sensing.build), and
its default spectral init (spectral.init), each with the MB allocated at
peak during one more, untimed call (tracemalloc, which sees numpy's
buffers).

Each row keeps the median and min over --reps repeats.  BLAS threads
default to 1 (an environment setting wins and is recorded), so the rows
measure the code, not the thread pool.  The run is stored under --label
in --out, next to the runs already there.

The machine record also holds blas_stall_share, taken before the rows: the
share of STALL_PRODUCTS back-to-back products of a 2048 x 256 float64
matrix with a vector that take over STALL_S.  Such a product normally takes
0.08-0.3 ms; a share above 0 flags a process whose threaded BLAS runs in
stalled rounds (see the README), and the script warns about it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from phasekit.core import COMPLEX, REAL, _distance, amplitude_loss, random_signal  # noqa: E402
from phasekit.sensing import make_cdp, make_gaussian, measure  # noqa: E402
from phasekit.solvers import ALGORITHMS, SolverConfig, run  # noqa: E402
from phasekit.spectral import spectral_initialize  # noqa: E402
from phasekit.streams import substream  # noqa: E402

N, RATIO, PASSES, K = 1000, 8, 3, 64
OBSERVE_CALLS = 50
STALL_PRODUCTS, STALL_S = 100, 4e-3
# the import row's child prints its own peak RSS (KiB on Linux)
IMPORT_CHILD = "import resource, phasekit; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
# (model, n, m/n, algorithms, k)
INSTANCES = (
    ("real", N, RATIO, ALGORITHMS, K),
    ("complex", N, RATIO, ALGORITHMS, K),
    ("cdp", N, RATIO, ("block_kaczmarz_pr",), N),
    ("real", 256, 2, ("rwf", "irwf", "kaczmarz_pr"), K),
)
# (model, n, m/n) for the build and init rows; the coded-diffraction one is
# the image demo's size (128 x 128, 12 masks)
SETUP_INSTANCES = (("real", N, RATIO), ("complex", N, RATIO), ("cdp", 128 * 128, 12))


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def blas_stall_share():
    """Share of STALL_PRODUCTS back-to-back 2048 x 256 float64 matrix-vector
    products, at this process's BLAS thread count, that take over STALL_S."""
    M = substream(0, "stall-probe").standard_normal((2048, 256))
    v = np.ones(256)
    slow = 0
    for _ in range(STALL_PRODUCTS):
        t0 = time.perf_counter()
        M @ v
        slow += time.perf_counter() - t0 > STALL_S
    return slow / STALL_PRODUCTS


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
        "blas_stall_share": blas_stall_share(),
    }


def median_min(fn, reps):
    """Median and min seconds of reps calls of fn."""
    secs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        secs.append(time.perf_counter() - t0)
    return statistics.median(secs), min(secs)


def peak_mb(fn):
    """MB allocated at peak during one call of fn, beyond what was held."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def time_pass(y, A, z0, alg, k, reps):
    cfg = SolverConfig(algorithm=alg, max_passes=PASSES, tol=1e-300, minibatch_k=k, seed=3)

    def one():
        tr = run(y, A, z0, cfg)
        if tr.passes_used != PASSES:
            raise RuntimeError("%s stopped after %d passes" % (alg, tr.passes_used))

    med, low = median_min(one, reps)
    return med / PASSES, low / PASSES


def time_observe(y, A, z0, x, reps):
    cfg = SolverConfig(algorithm="rwf", max_passes=0)

    def calls():
        for _ in range(OBSERVE_CALLS):
            run(y, A, z0, cfg, x_opt=x)

    med, low = median_min(calls, reps)
    return med / OBSERVE_CALLS, low / OBSERVE_CALLS


def time_monitor(y, A, z0, x, reps):
    fz, yv, nx = A.apply(z0), y.values, float(np.linalg.norm(x))

    def calls():
        for _ in range(OBSERVE_CALLS):
            amplitude_loss(fz, yv)
            _distance(z0, x) / nx

    med, low = median_min(calls, reps)
    return med / OBSERVE_CALLS, low / OBSERVE_CALLS


def import_row(reps):
    """Wall seconds and peak RSS of fresh processes importing phasekit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    secs, rss = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=env,
                              capture_output=True, text=True, check=True)
        secs.append(time.perf_counter() - t0)
        rss.append(int(done.stdout) / 1024.0)
    row = {"layer": "import", "reps": reps, "median_s": statistics.median(secs), "min_s": min(secs),
           "median_rss_mb": statistics.median(rss), "min_rss_mb": min(rss)}
    print("%-28s %-8s %7s median %8.3f ms  min %8.3f ms  rss %7.1f MB"
          % ("import", "", "", 1e3 * row["median_s"], 1e3 * row["min_s"], row["median_rss_mb"]))
    return row


def build(model, n, ratio):
    if model == "cdp":
        return make_cdp(n, ratio, seed=11)
    return make_gaussian(n, ratio * n, REAL if model == "real" else COMPLEX, seed=11)


def setup_rows(reps):
    """sensing.build and spectral.init rows for each of SETUP_INSTANCES."""
    rows = []
    for model, n, ratio in SETUP_INSTANCES:
        A = build(model, n, ratio)
        y = measure(A, random_signal(n, A.field, substream(11, "x")))
        for layer, fn in (
            ("sensing.build", lambda: build(model, n, ratio)),
            ("spectral.init", lambda: spectral_initialize(y, A, seed=3)),
        ):
            med, low = median_min(fn, reps)
            rows.append({"layer": layer, "model": model, "n": n, "m": A.m, "reps": reps,
                         "median_s": med, "min_s": low, "peak_mb": peak_mb(fn)})
            print("%-28s %-8s n=%-5d median %8.3f ms  min %8.3f ms  peak %7.1f MB"
                  % (layer, model, n, 1e3 * med, 1e3 * low, rows[-1]["peak_mb"]))
        del A, y  # the next instance is built without this one held
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run, e.g. before / after")
    ap.add_argument("--out", required=True, help="BENCH json file to add the run to")
    ap.add_argument("--reps", type=int, default=7, help="repeats per row (at least 5)")
    args = ap.parse_args()
    if args.reps < 5:
        ap.error("--reps must be at least 5")
    record = machine()
    if record["blas_stall_share"] > 0:
        print("warning: %.0f%% of the BLAS probe's products took over %g ms; this process's "
              "rows cannot be compared with a run that shows none (see the README)"
              % (100 * record["blas_stall_share"], 1e3 * STALL_S), file=sys.stderr)

    rows = [import_row(args.reps)] + setup_rows(args.reps)
    for model, n, ratio, algs, k in INSTANCES:
        A = build(model, n, ratio)
        x = random_signal(n, A.field, substream(11, "x"))
        y = measure(A, x)
        z0 = random_signal(n, A.field, substream(11, "z0"))
        if model != "cdp":
            for layer, timer in (("solvers.observe", time_observe),
                                 ("solvers.monitor", time_monitor)):
                med, low = timer(y, A, z0, x, args.reps)
                rows.append({"layer": layer, "model": model, "n": n, "m": A.m,
                             "calls": OBSERVE_CALLS, "reps": args.reps, "median_s": med,
                             "min_s": low})
                print("%-28s %-8s n=%-5d median %8.3f ms  min %8.3f ms"
                      % (layer, model, n, 1e3 * med, 1e3 * low))
        for alg in algs:
            med, low = time_pass(y, A, z0, alg, k, args.reps)
            rows.append({"layer": "solvers.%s.pass" % alg, "model": model, "n": n, "m": A.m,
                         "k": k, "reps": args.reps, "median_s": med, "min_s": low})
            print("%-28s %-8s n=%-5d median %8.3f ms  min %8.3f ms"
                  % (rows[-1]["layer"], model, n, 1e3 * med, 1e3 * low))

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "machine": record,
        "what": "pass rows: seconds per pass of a %d-pass run recording every pass; "
                "observe rows: seconds per max_passes=0 run with the ground truth; "
                "monitor rows: seconds per loss and distance call on a held A z; "
                "import row: seconds and peak RSS of a fresh process importing phasekit; "
                "setup rows: seconds per call, and MB allocated at peak (tracemalloc)" % PASSES,
        "rows": rows,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote %s (run %r)" % (path, args.label))


if __name__ == "__main__":
    main()
