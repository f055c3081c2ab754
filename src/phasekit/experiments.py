"""Experiment drivers: phase transition, convergence race, initialization
accuracy, noise sweeps, single recoveries, and the 2-D image demo.

Every driver takes an ExperimentConfig and returns a ResultTable; execute()
adds CSV emission.  Every driver that solves runs each trial through the
one pipeline, _trial: measure, take the spectral init, then run each
algorithm from it.  Trial instances (signal, ensemble, noise, solver index
stream, spectral-init start vector) all derive from (cfg.seed, purpose labels,
trial index), so

* reruns are byte-identical (timestamp metadata aside),
* trial k is the same whether run alone, in sequence, or in parallel, and
* algorithms compared within an experiment face identical instances.

Parallelism over trials is opt-in via cfg.jobs; results are aggregated in
sweep order either way.
"""

import os
import time
from dataclasses import fields

import numpy as np

from ._version import __version__
from .analysis import loss_surface_rows
from .core import best_phase, random_signal, relative_error
from .pgm import read_pgm, write_pgm
from .results import ResultTable, write_csv
from .sensing import CDP, NoiseSpec, make_cdp, make_gaussian, measure
from .solvers import RunTrace, run
from .spectral import spectral_initialize
from .streams import derive_seed, substream


def make_instance(model, n, m, seed, labels):
    """Fresh (x, ensemble) with m measurements for one trial, keyed by
    (seed, *labels); a CDP ensemble gets m // n masks."""
    if model == CDP:
        A = make_cdp(n, m // n, derive_seed(seed, "ensemble", *labels))
    else:
        A = make_gaussian(n, m, model, derive_seed(seed, "ensemble", *labels))
    return random_signal(n, A.field, substream(seed, "signal", *labels)), A


def _noise_spec(cfg, x, labels, level=None):
    """NoiseSpec for this trial; `level` overrides for sweep points."""
    kind = cfg.noise_kind
    if kind == "none" or (level is not None and level == 0):
        return None
    seed = derive_seed(cfg.seed, "noise", *labels)
    if kind == "poisson":
        alpha = level if level is not None else cfg.alphas[0]
        return NoiseSpec("poisson", alpha=float(alpha), seed=seed)
    rel = level if level is not None else cfg.noise_level
    return NoiseSpec("bounded", level=float(rel) * float(np.linalg.norm(x)), seed=seed)


def _trial(cfg, x, A, labels, algorithms, level=None):
    """One trial on the instance (x, A): measurements, spectral init, then
    each solve, every algorithm from the same init.  Returns (init,
    [(algorithm, trace, solve_seconds), ...]) in the order of `algorithms`.

    run and spectral_initialize are read from this module at each call, so
    that perfbench's replay can replace them here.
    """
    y = measure(A, x, _noise_spec(cfg, x, labels, level=level))
    init = spectral_initialize(y, A, seed=derive_seed(cfg.seed, "init", *labels))
    solved = []
    for alg in algorithms:
        t0 = time.perf_counter()
        solver = cfg.solver_config(alg, derive_seed(cfg.seed, "solver", alg, *labels))
        trace = run(y, A, init.z0, solver, x_opt=x)
        solved.append((alg, trace, time.perf_counter() - t0))
    return init, solved


def _outcome(args):
    """Pool worker for every pooled driver: one trial's init relative error
    and {algorithm: (final error, passes used, solve seconds)}."""
    cfg, labels, m, level, algorithms = args
    x, A = make_instance(cfg.model, cfg.n, m, cfg.seed, labels)
    init, solved = _trial(cfg, x, A, labels, algorithms, level)
    outcomes = {alg: (trace.final_error(), trace.passes_used, secs) for alg, trace, secs in solved}
    return relative_error(init.z0, x), outcomes


def _map_trials(args, jobs):
    # the pool starts all its workers at once, so never more than the trials
    workers = min(jobs, len(args))
    if workers <= 1:
        return [_outcome(a) for a in args]
    # loaded here so that the forked workers inherit them; otherwise every
    # worker of every pool imports scipy again on its first trial
    import scipy.linalg
    import scipy.sparse.linalg
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_outcome, args, chunksize=1))


def _grid(cfg, tag, points, algorithms):
    """_outcome of cfg.trials trials at each (m, noise level) point,
    labelled (tag, point index, trial); returns one list per point."""
    args = [
        (cfg, (tag, i, t), m, level, algorithms)
        for i, (m, level) in enumerate(points)
        for t in range(cfg.trials)
    ]
    out = _map_trials(args, cfg.jobs)
    return [out[i * cfg.trials : (i + 1) * cfg.trials] for i in range(len(points))]


def config_echo(cfg):
    """Ordered {field: value} mapping for CSV metadata lines."""
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ", ".join(str(x) for x in v)
        out[f.name] = v
    return out


def _table(cfg, rows):
    """rows as a ResultTable whose columns are the first row's keys, in
    order, with the config echo as metadata."""
    meta = config_echo(cfg)
    meta["phasekit_version"] = __version__
    return ResultTable(columns=tuple(rows[0]), rows=rows, metadata=meta)


# --- phase transition ---------------------------------------------------


def run_phase_transition(cfg):
    """Success fraction per (algorithm, sample-size point).

    A trial succeeds when the final relative error is at most
    cfg.success_tol within cfg.iteration_budget passes.  Fresh signal,
    ensemble, and initialization per trial; all algorithms share them.
    """
    ms = cfg.sweep()
    grid = _grid(cfg, "pt", [(m, None) for m in ms], cfg.algorithms)
    rows = []
    for alg in cfg.algorithms:
        for m, outcomes in zip(ms, grid):
            succ = sum(1 for _, solved in outcomes if solved[alg][0] <= cfg.success_tol)
            rows.append(
                {
                    "algorithm": alg,
                    "n": cfg.n,
                    "m": m,
                    "successes": succ,
                    "trials": cfg.trials,
                    "success_rate": succ / cfg.trials,
                }
            )
    return _table(cfg, rows)


# --- convergence race ---------------------------------------------------


def run_convergence_race(cfg):
    """Mean passes (and wall seconds, informational) to cfg.success_tol.

    One instance and one shared initialization per trial; every algorithm
    starts from the same point.  Budget-limited runs contribute their full
    pass budget to the mean.
    """
    m = cfg.sweep()[0]
    args = [(cfg, ("race", t), m, None, cfg.algorithms) for t in range(cfg.trials)]
    results = _map_trials(args, cfg.jobs)
    rows = []
    for alg in cfg.algorithms:
        passes = [solved[alg][1] for _, solved in results]
        secs = [solved[alg][2] for _, solved in results]
        rows.append(
            {
                "algorithm": alg,
                "n": cfg.n,
                "m": m,
                "mean_passes": float(np.mean(passes)),
                "mean_seconds": float(np.mean(secs)),
            }
        )
    return _table(cfg, rows)


# --- initialization accuracy --------------------------------------------


def run_init_accuracy(cfg):
    """Median and quartiles of the spectral-init error per sample size."""
    ms = cfg.sweep()
    grid = _grid(cfg, "ia", [(m, None) for m in ms], ())
    rows = []
    for m, outcomes in zip(ms, grid):
        block = np.array([init_err for init_err, _ in outcomes])
        rows.append(
            {
                "n": cfg.n,
                "m": m,
                "median_err": float(np.median(block)),
                "q25": float(np.percentile(block, 25)),
                "q75": float(np.percentile(block, 75)),
            }
        )
    return _table(cfg, rows)


# --- noise sweep ----------------------------------------------------------


def run_noise_sweep(cfg):
    """Median final error per noise level.

    Poisson: the alpha column is the Poisson scale.  Bounded: cfg.alphas is
    reused as the list of relative levels ||w||/(sqrt(m) ||x||), reported in
    the same column.  noise_kind 'none' degenerates to one clean level 0.
    """
    levels = (0.0,) if cfg.noise_kind == "none" else cfg.alphas
    m = cfg.sweep()[0]
    grid = _grid(cfg, "ns", [(m, level) for level in levels], cfg.algorithms)
    rows = []
    for alg in cfg.algorithms:
        for level, outcomes in zip(levels, grid):
            block = [solved[alg][0] for _, solved in outcomes]
            rows.append(
                {
                    "algorithm": alg,
                    "alpha": float(level),
                    "median_final_err": float(np.median(block)),
                }
            )
    return _table(cfg, rows)


# --- single recovery ------------------------------------------------------


def trace_rows(trace, trial_id, algorithm, n, m):
    """RunTrace history as CSV rows (the serialized trace schema)."""
    return [
        {
            "trial_id": trial_id,
            "algorithm": algorithm,
            "n": n,
            "m": m,
            "pass_count": p,
            "relative_error": err,
            "loss": loss,
        }
        for p, err, loss in trace.history
    ]


def run_recover(cfg):
    """Full per-pass traces for each (trial, algorithm)."""
    rows = []
    m = cfg.sweep()[0]
    for trial in range(cfg.trials):
        labels = ("recover", trial)
        x, A = make_instance(cfg.model, cfg.n, m, cfg.seed, labels)
        _, solved = _trial(cfg, x, A, labels, cfg.algorithms)
        for alg, trace, _ in solved:
            rows.extend(trace_rows(trace, trial, alg, cfg.n, A.m))
    return _table(cfg, rows)


# --- image demo -----------------------------------------------------------


def synthetic_image(size=32, maxval=255):
    """Small deterministic test card: gradient, bright square, dark disk."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    img = 0.2 * maxval + 0.4 * maxval * (xx + yy) / (2 * size - 2)
    img[size // 4 : size // 2, size // 4 : size // 2] = 0.9 * maxval
    cx, cy, r = 0.7 * size, 0.65 * size, size / 6.0
    img[(xx - cx) ** 2 + (yy - cy) ** 2 < r * r] = 0.1 * maxval
    return np.rint(img).astype(np.int64)


def run_image_demo(cfg):
    """Recover a flattened grayscale image through a CDP ensemble.

    Writes recovered.pgm, trace.csv, and summary.csv under
    cfg.output_path (a directory).  An all-zero image short-circuits to an
    all-zero recovery with zero passes; there is nothing to initialize.
    """
    # the image is read, and checked, before any output exists
    if cfg.image_path:
        img, maxval = read_pgm(cfg.image_path)
    else:
        img, maxval = synthetic_image(), 255
    out_dir = cfg.output_path or EXPERIMENTS["image_demo"][2]
    os.makedirs(out_dir, exist_ok=True)
    h, w = img.shape
    n = h * w
    x = img.ravel().astype(np.float64) / maxval
    L = int(cfg.masks[0])
    alg = cfg.algorithms[0]

    xc = x.astype(np.complex128)
    labels = ("image",)
    A = make_cdp(n, L, derive_seed(cfg.seed, "ensemble", *labels))
    if np.any(x):
        _, [(_, trace, _)] = _trial(cfg, xc, A, labels, (alg,))
    else:
        # nothing to initialize: the zero image is recovered at pass 0
        trace = RunTrace(
            iterate=np.zeros(n, np.complex128), history=[(0, 0.0, 0.0)], stop_reason="tol"
        )

    aligned = (best_phase(trace.iterate, xc) * trace.iterate).real
    pixels = np.clip(np.rint(aligned * maxval), 0, maxval).reshape(h, w)
    write_pgm(os.path.join(out_dir, "recovered.pgm"), pixels, maxval)
    write_csv(
        _table(cfg, trace_rows(trace, 0, alg, n, A.m)),
        os.path.join(out_dir, "trace.csv"),
    )
    passes = trace.passes_to(cfg.success_tol)
    summary = _table(
        cfg,
        [
            {
                "algorithm": alg,
                "n": n,
                "masks": L,
                "passes_to_tol": -1 if passes is None else passes,
                "final_error": trace.final_error(),
                "stop_reason": trace.stop_reason,
            }
        ],
    )
    write_csv(summary, os.path.join(out_dir, "summary.csv"))
    return summary


# --- loss surface -----------------------------------------------------------


def run_loss_surface(cfg):
    """Expected-loss grid over (rho, ||z||) at ||x|| = 1."""
    rhos = np.linspace(-1.0, 1.0, cfg.rho_grid)
    norms = np.linspace(0.0, 2.0, cfg.normz_grid)
    rows = loss_surface_rows(rhos, norms, norm_x=1.0)
    return _table(cfg, rows)


# The ExperimentConfig fields each experiment reads, in named groups.  Each
# row below ends with its experiment's set, and its CLI command offers
# exactly those fields' flags.  Every experiment reads output_path; the CSV
# echo reads every field and does not count.
_INSTANCE = frozenset({"n", "m_over_n", "masks", "model", "trials", "seed"})
_SOLVER = frozenset({"algorithms", "success_tol", "iteration_budget", "minibatch_k", "mu",
                     "rho0", "record_every"})
_NOISE = frozenset({"noise_kind", "noise_level", "alphas"})
_JOBS = frozenset({"jobs"})
_OUT = frozenset({"output_path"})

# experiment -> (CLI command, driver, default output path, description, fields read)
EXPERIMENTS = {
    "phase_transition": ("phase-transition", run_phase_transition, "phase_transition.csv",
                         "success rate vs number of measurements",
                         _INSTANCE | _SOLVER | _NOISE | _JOBS | _OUT),
    "convergence_race": ("converge", run_convergence_race, "convergence_race.csv",
                         "mean passes to a target error, shared initialization",
                         _INSTANCE | _SOLVER | _NOISE | _JOBS | _OUT),
    "init_accuracy": ("init-accuracy", run_init_accuracy, "init_accuracy.csv",
                      "spectral initialization error vs sample size",
                      _INSTANCE | _NOISE | _JOBS | _OUT),
    # the levels are the alphas, bounded noise's included
    "noise_sweep": ("noise-sweep", run_noise_sweep, "noise_sweep.csv",
                    "final error vs noise level",
                    _INSTANCE | _SOLVER | (_NOISE - {"noise_level"}) | _JOBS | _OUT),
    "recover": ("recover", run_recover, "recover_trace.csv",
                "single recovery runs with full per-pass traces",
                _INSTANCE | _SOLVER | _NOISE | _OUT),
    # n comes from the image, and one instance is solved, through CDP masks
    "image_demo": ("image-demo", run_image_demo, "image_demo_out",
                   "recover a small grayscale image through CDP masks",
                   _SOLVER | _NOISE | _OUT | {"masks", "seed", "image_path"}),
    "loss_surface": ("loss-surface", run_loss_surface, "loss_surface.csv",
                     "expected amplitude/intensity loss grid dump",
                     _OUT | {"rho_grid", "normz_grid"}),
}


def execute(cfg):
    """Run cfg's experiment and write its outputs.

    Returns (table, output_path).  The image demo manages its own output
    directory; every other experiment writes a single CSV file.
    """
    _, driver, default_path, _, _ = EXPERIMENTS[cfg.experiment]
    table = driver(cfg)
    path = cfg.output_path or default_path
    if cfg.experiment != "image_demo":
        write_csv(table, path)
    return table, path
