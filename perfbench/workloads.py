"""The four workloads: seeded instances, one trial of each, and the checks
that decide whether an operation failed.

Instance k of a run with seed s is keyed by (master seed, tag, s, k), so
the same (s, k) is the same problem in every run and on every commit.

Program calls go through module attributes (``sensing.measure``,
``solvers.run``, ...) so that a traced run sees them.  The checks use
``relative_error`` as bound here at import, before any instrumentation,
so checking is never counted as program time.
"""

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from phasekit import experiments, results, sensing, solvers, spectral
from phasekit.config import ExperimentConfig
from phasekit.core import COMPLEX, REAL, random_signal
from phasekit.core import relative_error as checked_error
from phasekit.streams import derive_seed, substream

ALGORITHMS = ("rwf", "irwf", "kaczmarz_pr", "minibatch_irwf", "block_kaczmarz_pr")

TRANSITION_JOBS = 2
# the whole-mask block that makes block Kaczmarz run at FFT cost on CDP
WHOLE_MASK = -1


@dataclass(frozen=True)
class Instance:
    """One seeded problem and the solves run on it.

    size is the m/n ratio, or the mask count L for the cdp model.  plan
    holds (algorithm, pass budget, minibatch_k) triples; minibatch_k
    WHOLE_MASK means k = n.
    """

    tag: str
    model: str
    n: int
    size: float
    master: int
    tol: float = 1e-14
    plan: tuple = ()

    @property
    def m(self):
        return self.n * int(self.size) if self.model == "cdp" else int(round(self.size * self.n))

    def k_of(self, k):
        return self.n if k == WHOLE_MASK else k


def _race_plans(toy):
    k = 16 if toy else 64
    real = (
        ("rwf", 200, k),
        ("irwf", 30, k),
        ("kaczmarz_pr", 30, k),
        ("minibatch_irwf", 30, k),
        ("block_kaczmarz_pr", 30, k),
    )
    cplx = (("rwf", 300, k), ("irwf", 60, k), ("kaczmarz_pr", 60, k))
    if toy:  # fewer rows per pass; allow proportionally more passes
        real = tuple((a, 4 * b, kk) for a, b, kk in real)
        cplx = tuple((a, 4 * b, kk) for a, b, kk in cplx)
    return real, cplx


def instances(name, toy=False):
    """The instances one trial of `name` builds, in order."""
    if name == "race":
        real, cplx = _race_plans(toy)
        n = 64 if toy else 1000
        return (
            Instance("real", "real", n, 8, 1001, 1e-14, real),
            Instance("complex", "complex", n, 8, 1002, 1e-14, cplx),
        )
    if name == "cdp":
        big, small = (16 * 16, 32) if toy else (128 * 128, 512)
        return (
            Instance("image", "cdp", big, 12, 1005, 1e-10,
                     (("rwf", 500, 64), ("block_kaczmarz_pr", 100, WHOLE_MASK))),
            Instance("small", "cdp", small, 6, 1006, 1e-10, (("kaczmarz_pr", 200, 64),)),
        )
    if name == "init":
        n = 64 if toy else 1000
        return (Instance("m4", "real", n, 4, 1004), Instance("m8", "real", n, 8, 1004))
    if name == "transition":
        return ()
    raise ValueError("unknown workload %r" % name)


def probe_instances(name, toy=False):
    """(instance, [(algorithm, minibatch_k)]) for the per-layer probes.

    The first instance is the workload's main operator.  Each algorithm is
    probed where one pass is affordable: on the CDP workload the per-sample
    ones run on the small instance, since image-scale CDP rows are
    synthesized one FFT row at a time.
    """
    k = 16 if toy else 64
    every = [(a, k) for a in ALGORITHMS]
    if name == "cdp":
        image, small = instances(name, toy)
        return [
            (image, [("rwf", k), ("block_kaczmarz_pr", WHOLE_MASK)]),
            (small, [("irwf", k), ("kaczmarz_pr", k), ("minibatch_irwf", k)]),
        ]
    if name == "transition":
        return [(built_instances(name, toy)[-1], every)]
    main = {"race": "real", "init": "m8"}[name]
    return [([i for i in instances(name, toy) if i.tag == main][0], every)]


def built_instances(name, toy=False):
    """Instances a trial builds; for transition, one per grid point."""
    if name != "transition":
        return instances(name, toy)
    cfg = transition_config(0, 0, toy)
    return tuple(Instance("pt", "real", cfg.n, r, 1003, cfg.success_tol) for r in cfg.m_over_n)


def stored_mb(inst):
    """MB an operator holds: the dense rows, or both CDP mask arrays."""
    if inst.model == "cdp":
        return 2 * int(inst.size) * inst.n * 16 / 1e6
    return inst.m * inst.n * (8 if inst.model == "real" else 16) / 1e6


def apply_mb(inst):
    """MB one forward product reads and writes, computed from array sizes
    (not counted: cache misses and temporaries are left out).  Dense: the
    rows.  CDP: one mask array plus the L x n FFT input and output."""
    if inst.model == "cdp":
        return (int(inst.size) * inst.n + 2 * inst.m) * 16 / 1e6
    return stored_mb(inst)


def transition_config(seed, k, toy=False):
    """Criterion-3 grid at two trials per point; call k of seed s."""
    return ExperimentConfig(
        experiment="phase_transition",
        n=32 if toy else 256,
        m_over_n=(2.0, 3.0, 4.0, 5.0, 6.0),
        algorithms=("rwf", "irwf"),
        trials=2,
        success_tol=1e-5,
        iteration_budget=100 if toy else 1000,
        seed=derive_seed(1003, "bench", seed, k),
        jobs=TRANSITION_JOBS,
    )


def configs(name, toy=False):
    """ExperimentConfig records describing the workload, for validation."""
    if name == "transition":
        return [transition_config(0, 0, toy)]
    out = []
    for inst in instances(name, toy):
        algs = tuple(a for a, _, _ in inst.plan)
        kwargs = {"masks": (int(inst.size),)} if inst.model == "cdp" else {"m_over_n": (float(inst.size),)}
        out.append(
            ExperimentConfig(
                experiment="convergence_race" if algs else "init_accuracy",
                model=inst.model,
                n=inst.n,
                algorithms=algs or ("rwf",),
                success_tol=inst.tol,
                iteration_budget=max((b for _, b, _ in inst.plan), default=0),
                seed=inst.master,
                **kwargs,
            )
        )
    return out


def warm_up(name, toy=False):
    """Set-up a user pays on every call: config validation and one small
    product per field, which starts the BLAS threads."""
    for cfg in configs(name, toy):
        cfg.validate()
    models = {"race": ("real", "complex"), "cdp": ("cdp",)}.get(name, ("real",))
    for model in models:
        if model == "cdp":
            A = sensing.make_cdp(256, 4, 0)
        else:
            A = sensing.make_gaussian(256, 2048, REAL if model == "real" else COMPLEX, 0)
        A.adjoint_apply(A.apply(np.ones(A.n)))


# --- operations and their checks ------------------------------------------


@dataclass
class Op:
    """One init or solve.  error is empty when the operation passed."""

    kind: str
    label: str
    alg: str = ""
    seconds: float = float("nan")
    passes: int = 0
    stop: str = ""
    error: str = ""


@dataclass
class Trial:
    index: int
    instances: int = 1
    seconds: float = 0.0
    ops: list = field(default_factory=list)
    init_errors: dict = field(default_factory=dict)
    config: object = None
    table: object = None


def check_init(res):
    """z0 is finite and its norm is the norm estimate lambda0."""
    z0 = np.asarray(res.z0)
    if not np.all(np.isfinite(z0)):
        return "non-finite z0"
    if not abs(np.linalg.norm(z0) - res.lambda0) <= 1e-10 * max(res.lambda0, 1e-300):
        return "||z0|| = %r differs from lambda0 = %r" % (float(np.linalg.norm(z0)), res.lambda0)
    return ""


def check_solve(trace, x, tol, must_converge=True):
    """Finite iterate, no divergence, and a 'tol' stop that really is."""
    z = np.asarray(trace.iterate)
    if not np.all(np.isfinite(z)):
        return "non-finite iterate"
    if trace.stop_reason == "diverged":
        return "diverged"
    if must_converge and trace.stop_reason != "tol":
        return "stopped on %s after %d passes" % (trace.stop_reason, trace.passes_used)
    if trace.stop_reason == "tol":
        err = checked_error(z, x)
        if not err <= tol:
            return "stopped on tol but relative error %.3g > %.3g" % (err, tol)
    return ""


def build(inst, seed, k):
    labels = (inst.tag, seed, k)
    fld = REAL if inst.model == "real" else COMPLEX
    x = random_signal(inst.n, fld, substream(inst.master, "signal", *labels))
    eseed = derive_seed(inst.master, "ensemble", *labels)
    if inst.model == "cdp":
        A = sensing.make_cdp(inst.n, int(inst.size), eseed)
    else:
        A = sensing.make_gaussian(inst.n, inst.m, fld, eseed)
    return x, A, sensing.measure(A, x)


def initialize(inst, seed, k, y, A):
    iseed = derive_seed(inst.master, "init", inst.tag, seed, k)
    return spectral.spectral_initialize(y, A, spectral.InitParams(), seed=iseed)


def solver_config(inst, alg, budget, mk, seed, k, tol=None):
    return solvers.SolverConfig(
        algorithm=alg,
        max_passes=budget,
        tol=inst.tol if tol is None else tol,
        minibatch_k=inst.k_of(mk),
        seed=derive_seed(inst.master, "solver", alg, inst.tag, seed, k),
    )


def run_instance(trial, inst, seed, k):
    """Build, measure, initialize and run the plan; one Op per init/solve."""
    clock = time.perf_counter
    try:
        x, A, y = build(inst, seed, k)
    except Exception as exc:  # every planned operation fails with it
        why = "build failed: %r" % (exc,)
        trial.ops.append(Op("init", inst.tag, error=why))
        trial.ops.extend(Op("solve", "%s/%s" % (inst.tag, a), a, error=why) for a, _, _ in inst.plan)
        return
    op = Op("init", inst.tag)
    t0 = clock()
    try:
        init = initialize(inst, seed, k, y, A)
    except Exception as exc:
        op.error, init = repr(exc), None
    else:
        op.seconds = clock() - t0
        op.error = check_init(init)
        if not op.error:
            trial.init_errors[inst.tag] = checked_error(init.z0, x)
    trial.ops.append(op)
    usable = init is not None and not op.error
    for alg, budget, mk in inst.plan:
        op = Op("solve", "%s/%s" % (inst.tag, alg), alg)
        trial.ops.append(op)
        if not usable:
            op.error = "no usable initial point"
            continue
        cfg = solver_config(inst, alg, budget, mk, seed, k)
        t0 = clock()
        try:
            tr = solvers.run(y, A, init.z0, cfg, x_opt=x)
        except Exception as exc:
            op.error = repr(exc)
            continue
        op.seconds = clock() - t0
        op.passes, op.stop = tr.passes_used, tr.stop_reason
        op.error = check_solve(tr, x, inst.tol)


def check_table(table, cfg):
    """Shape and arithmetic of a phase-transition table."""
    want = len(cfg.algorithms) * len(cfg.m_over_n)
    if len(table.rows) != want:
        return "table has %d rows, expected %d" % (len(table.rows), want)
    for row in table.rows:
        if row["trials"] != cfg.trials or not 0 <= row["successes"] <= cfg.trials:
            return "bad counts in row %r" % (row,)
        if row["success_rate"] != row["successes"] / cfg.trials:
            return "success_rate disagrees with successes in row %r" % (row,)
    return ""


def transition_trial(trial, seed, k, toy, out_dir):
    """One pooled run_phase_transition call, written out as CSV.

    The pool hides which instance succeeded, so solve outcomes are known
    per table row; the serial replay (transition_replay) supplies them per
    instance for call 0.
    """
    cfg = transition_config(seed, k, toy).validate()
    trial.config = cfg
    trial.instances = len(cfg.m_over_n) * cfg.trials
    try:
        table = experiments.run_phase_transition(cfg)
        results.write_csv(table, os.path.join(out_dir, "transition.csv"))
    except Exception as exc:
        why = repr(exc)
    else:
        trial.table = table
        why = check_table(table, cfg)
    trial.ops.extend(Op("init", "pt", error=why) for _ in range(trial.instances))
    if trial.table is None:
        rows = [{"algorithm": a, "m": 0, "successes": 0} for a in cfg.algorithms for _ in cfg.m_over_n]
    else:
        rows = trial.table.rows
    for row in rows:
        for i in range(cfg.trials):
            label = "%s/m=%d" % (row["algorithm"], row["m"])
            stop = "tol" if i < row["successes"] else ""
            trial.ops.append(Op("solve", label, row["algorithm"], stop=stop, error=why))


def transition_replay(trial):
    """Rerun a pooled call serially (jobs=1) and check it per instance.

    Returns (ops, seconds): one Op per init and solve of the replay, with a
    solve marked failed when its point's success count differs from the
    pooled call's (jobs must change no row).
    """
    cfg = replace(trial.config, jobs=1)
    captured = []
    run0, init0 = experiments.run, experiments.spectral_initialize

    def run_capture(y, A, z0, scfg, x_opt=None):
        tr = run0(y, A, z0, scfg, x_opt=x_opt)
        captured.append((scfg, A.m, tr, x_opt))
        return tr

    def init_capture(y, A, params=None, seed=0):
        res = init0(y, A, params, seed=seed)
        captured.append((None, A.m, res, None))
        return res

    experiments.run, experiments.spectral_initialize = run_capture, init_capture
    t0 = time.perf_counter()
    try:
        table = experiments.run_phase_transition(cfg)
    finally:
        experiments.run, experiments.spectral_initialize = run0, init0
    seconds = time.perf_counter() - t0

    differs = set()
    if trial.table is None:
        differs = {(r["algorithm"], r["m"]) for r in table.rows}
    else:
        for pooled, serial in zip(trial.table.rows, table.rows):
            if pooled != serial:
                differs.add((serial["algorithm"], serial["m"]))
    ops = []
    for scfg, m, res, x in captured:
        if scfg is None:
            ops.append(Op("init", "pt", error=check_init(res)))
            continue
        label = "%s/m=%d" % (scfg.algorithm, m)
        op = Op("solve", label, scfg.algorithm, passes=res.passes_used, stop=res.stop_reason)
        op.error = check_solve(res, x, scfg.tol, must_converge=False)
        if not op.error and (scfg.algorithm, m) in differs:
            op.error = "success count at jobs=%d differs from the serial replay" % trial.config.jobs
        ops.append(op)
    return ops, seconds


def run_trial(name, seed, k, toy, out_dir):
    trial = Trial(index=k)
    t0 = time.perf_counter()
    if name == "transition":
        transition_trial(trial, seed, k, toy, out_dir)
    else:
        for inst in instances(name, toy):
            run_instance(trial, inst, seed, k)
    trial.seconds = time.perf_counter() - t0
    return trial
