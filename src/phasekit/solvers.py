"""Reconstruction algorithms over magnitude measurements.

All solvers descend the amplitude residual a_i^* z - y_i ph(a_i^* z),
where ph is the unit phase with ph(0) = 0 (sign with sign(0) = 0 in the
real field); the zero convention keeps the nonsmooth point harmless.

    rwf                one full gradient step per pass, step mu
    wf                 quartic intensity-loss baseline, constant step
    irwf               m single-sample updates per pass, step rho0/n
    minibatch_irwf     ceil(m/k) random k-subset updates per pass, step rho0/n
    kaczmarz_pr        irwf with the per-row step 1/||a_i||^2
    block_kaczmarz_pr  exact block projection via the pseudoinverse

Pass accounting: one pass = one batch iteration = m single-sample updates
= ceil(m/k) minibatch updates, so per-pass costs are comparable across
algorithms.  A recorded rwf or wf pass costs one forward and one adjoint
product: the A z that monitoring computes is the one the next gradient
uses.

Each algorithm is declared once, as a row of _PASSES that ALGORITHMS,
SolverConfig.validate and run() read.  Each update formula lives in one
private kernel that changes z in place: the public step functions apply it
to a copy of z, run() to its iterate.  _sample_updates is one BLAS dot/axpy
loop for both fields, and _block_projection runs on scipy's BLAS and LAPACK
alone, so one thread pool serves it.  On complex rows its bits depend on the
BLAS thread count from k = 64 on, where OpenBLAS's zpotrf starts to thread:
2-pass digests (n=1000, m=8n) agree at 1 and 2 threads for k = 32, 48 and
63, and differ for k = 64 and 96 (ROADMAP item 2).

z (z0 and x_opt in run) follows core.as_signal at length n, and y
Ensemble._check_measurements; a step or gradient maps a NaN in z to NaN.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    COMPLEX,
    _check_pair,
    _count,
    _distance,
    _instance,
    _level,
    _reference_norm,
    amplitude_loss,
    as_signal,
    intensity_loss,
    phase,
)
from .sensing import CDP, Ensemble, GaussianEnsemble, rows_apply
from .streams import substream

# default batch steps; the complex value also serves coded-diffraction runs
RWF_STEP_REAL = 0.8
RWF_STEP_COMPLEX = 1.2
WF_STEP = 0.2

DIVERGENCE_FACTOR = 1e6
BLOCK_CONDITION_LIMIT = 1e12


@dataclass
class SolverConfig:
    """Algorithm selection plus step, budget, and recording knobs.

    mu is the batch step; None resolves to 0.8 (real) / 1.2 (complex and
    coded-diffraction) for rwf, and to 0.2 for the wf baseline, where it is
    applied as mu/||z0||^2 (an experimental constant-step stand-in for the
    usual ramped schedule).  Incremental algorithms ignore mu and step by
    rho0/n per sample; Kaczmarz variants ignore both.  validate() raises
    ValueError unless the counts are integers (minibatch_k and record_every
    >= 1, max_passes and seed >= 0), the levels (mu, rho0, tol) are positive
    and finite, and minibatch_k is at most m (minibatch_irwf) or min(m, n)
    (block_kaczmarz_pr).
    """

    algorithm: str = "rwf"
    mu: float = None
    rho0: float = 1.0
    minibatch_k: int = 64
    max_passes: int = 1000
    tol: float = 1e-5
    seed: int = 0
    record_every: int = 1

    def validate(self, m=None, n=None):
        if self.algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm %r" % self.algorithm)
        if self.mu is not None:
            _level(self.mu, "mu")
        _level(self.rho0, "rho0")
        _level(self.tol, "tol")
        for name, low in (("minibatch_k", 1), ("max_passes", 0), ("record_every", 1), ("seed", 0)):
            _count(getattr(self, name), name, low)
        for size, message in zip((m, n), _PASSES[self.algorithm][2]):
            if size is not None and self.minibatch_k > size:
                raise ValueError(message)


@dataclass
class RunTrace:
    """Final iterate plus the recorded (pass, relative_error, loss) history.

    relative_error is NaN when no ground truth was supplied (stopping then
    gauges on the loss).  stop_reason is 'tol', 'budget', or 'diverged'.
    """

    iterate: np.ndarray
    history: list = field(default_factory=list)
    passes_used: int = 0
    stop_reason: str = "budget"

    def final_error(self):
        return self.history[-1][1] if self.history else float("nan")

    def final_loss(self):
        return self.history[-1][2] if self.history else float("nan")

    def passes_to(self, tol):
        """First recorded pass count with relative error <= tol, else None."""
        return next((p for p, err, _ in self.history if err <= tol), None)


def _checked_copy(z, y, A, name="z", finite=False):
    """(a float64/complex128 copy of z, complex on complex rows, y.values)
    for an Ensemble A that y and z fit; NaN in z passes unless finite."""
    yv = _instance(A, Ensemble, "A")._check_measurements(y)
    z = as_signal(z, A.n, name, finite)
    return np.array(z, dtype=np.complex128 if A.field == COMPLEX else None), yv


def _amplitude_residual(fz, y):
    """fz - y . ph(fz) at fz = A z: the amplitude-loss residual."""
    return fz - y * phase(fz)


def _intensity_residual(fz, y):
    """(|fz|^2 - y^2) . fz at fz = A z: the intensity-loss residual."""
    return (np.abs(fz) ** 2 - y**2) * fz


def _sample_updates(z, idx, y, steps, row):
    """z -= steps[i] (a_i^* z - y_i ph(a_i^* z)) a_i for each i of idx, in
    order; row(i) is a_i.  Returns z, updated in place (axpy writes into a
    contiguous float64/complex128 z).  run() passes y and steps as Python
    lists.  A complex z takes zdotc, which conjugates a_i, and zaxpy; both
    cast real rows.  axpy takes n and the scale positionally: passing a= by
    keyword slows f2py's argument parsing by a fifth of a pass at n=256, m=2n."""
    if np.iscomplexobj(z):
        from scipy.linalg.blas import zaxpy as axpy, zdotc as dot
    else:
        from scipy.linalg.blas import daxpy as axpy, ddot as dot
    n = z.shape[0]
    for i in idx:
        a = row(i)
        t = dot(a, z)
        # a real t/|t| is +-1.0 exactly, so c is t -+ y bit for bit
        c = t - y[i] * (t / abs(t)) if t else t
        z = axpy(a, z, n, -(c * steps[i]))
    return z


def _block_update(z, gamma, y, A, step):
    """z -= step A_G^*(A_G z - y_G . ph(A_G z)), the minibatch update; the
    k rows are gathered once."""
    B = A.block_rows(gamma)
    z -= step * (B.T @ _amplitude_residual(rows_apply(B, z), y[gamma]))
    return z


def _mask_projection(z, l, y, A):
    """z -= A_l^*(A_l z - y_l . ph(A_l z)) / n: the exact projection onto
    coded-diffraction mask l's measurements, since A_l A_l^* = n I."""
    resid = _amplitude_residual(A.mask_apply(l, z), y[l * A.n : (l + 1) * A.n])
    z -= A.mask_adjoint(l, resid) / A.n
    return z


def _block_projection(z, gamma, y, A):
    """z -= A_G^*(A_G A_G^*)^-1 (A_G z - y_G . ph(A_G z)), the dense block
    projection; gamma holds distinct in-range indices, at most n of them.
    Raises LinAlgError as block_kaczmarz_step documents."""
    from scipy.linalg import cho_solve, get_blas_funcs, get_lapack_funcs

    Bt = A.block_rows(gamma).T  # columns a_i, Fortran-ordered: no copy for BLAS
    gemv = get_blas_funcs("gemv", (Bt, z))  # complex for a complex z on real rows
    rk = get_blas_funcs("herk" if Bt.dtype.kind == "c" else "syrk", (Bt,))
    resid = _amplitude_residual(gemv(1.0, Bt, z, trans=2), y[gamma])  # trans=2: Bt^* z
    G = rk(1.0, Bt, trans=2)  # A_G A_G^* in the upper triangle; the lower one is 0
    G += np.triu(G, 1).T.conj()  # mirrored, so pocon's 1-norm reads the whole matrix
    potrf, pocon = get_lapack_funcs(("potrf", "pocon"), (G,))
    c, info = potrf(G)
    if info == 0:
        rcond, info = pocon(c, np.abs(G).sum(axis=0).max())
    # the negated test also rejects a NaN estimate
    if info != 0 or not rcond * BLOCK_CONDITION_LIMIT >= 1:
        raise np.linalg.LinAlgError("degenerate block")
    # a separate subtraction: a beta=1 gemv into z rounds differently
    z -= gemv(1.0, Bt, cho_solve((c, False), resid, check_finite=False))
    return z


def rwf_gradient(z, y, A):
    """(1/m) A^*(A z - y . ph(A z)), the amplitude-loss direction; NaN in, NaN out."""
    z, yv = _checked_copy(z, y, A)
    return A.adjoint_apply(_amplitude_residual(A.apply(z), yv)) / A.m


def wf_gradient(z, y, A):
    """(1/m) A^*((|A z|^2 - y^2) . A z), the intensity-loss gradient; NaN in, NaN out."""
    z, yv = _checked_copy(z, y, A)
    return A.adjoint_apply(_intensity_residual(A.apply(z), yv)) / A.m


def irwf_step(z, i, y, A, step=None):
    """Single-sample update z - step (a_i^* z - y_i ph(a_i^* z)) a_i; NaN in, NaN out.

    step defaults to 1/n; a step that is not positive and finite raises
    ValueError, and an i that is not an integer in [0, m) IndexError.
    """
    z, yv = _checked_copy(z, y, A)
    step = 1.0 / A.n if step is None else _level(step, "step")
    return _sample_updates(z, [i], yv, {i: step}, A.row)  # A.row checks i


def kaczmarz_step(z, i, y, A):
    """Row projection: irwf_step with the data-driven step 1/||a_i||^2.

    After the step the sample is fit exactly: |a_i^* z'| = y_i.  NaN in, NaN out.
    """
    sq = _instance(A, Ensemble, "A").row_sqnorm(i)
    if sq == 0:
        raise ValueError("zero sensing row %d" % i)
    return irwf_step(z, i, y, A, step=1.0 / sq)


def _check_block(gamma, A):
    gamma = A._check_rows(np.ravel(gamma))  # a scalar or nested block passes
    if gamma.size == 0:
        raise ValueError("empty index block")
    if np.unique(gamma).size != gamma.size:
        raise ValueError("block indices must be distinct")
    return gamma


def minibatch_irwf_step(z, gamma, y, A, step=None):
    """Block update z - step A_G^*(A_G z - y_G . ph(A_G z)).

    step defaults to 1/n; a step that is not positive and finite, or an
    empty or repeating block, raises ValueError, and an index that is not
    an integer in [0, m) IndexError.  NaN in, NaN out.
    """
    z, yv = _checked_copy(z, y, A)
    gamma = _check_block(gamma, A)
    step = 1.0 / A.n if step is None else _level(step, "step")
    return _block_update(z, gamma, yv, A, step)


def block_kaczmarz_step(z, gamma, y, A):
    """Exact projection onto the block's solution set.

    z - A_G^+ (A_G z - y_G . ph(A_G z)) with A_G^+ = A_G^*(A_G A_G^*)^-1,
    valid while the block rows are independent (|G| <= n).  A full
    coded-diffraction mask block has A_G A_G^* = n I exactly, so that case
    skips the dense solve and runs at FFT cost.  Otherwise A_G A_G^* is
    factored by Cholesky; LinAlgError is raised when the factorization
    fails or its reciprocal condition estimate is below
    1/BLOCK_CONDITION_LIMIT.  NaN in, NaN out.
    """
    z, yv = _checked_copy(z, y, A)
    gamma = _check_block(gamma, A)
    if gamma.size > A.n:
        raise ValueError("block larger than n cannot have independent rows")
    l = int(gamma.min()) // A.n
    if A.kind == CDP and np.array_equal(np.sort(gamma), np.arange(l * A.n, (l + 1) * A.n)):
        # mask l's whole block: the projection depends on the block as a set
        return _mask_projection(z, l, yv, A)
    return _block_projection(z, gamma, yv, A)


def _gradient_step(z, fz, y, A, mu, residual):
    """z -= (mu/m) A^*(residual(A z, y)), the batch step; fz is A z if known, else None."""
    g = A.adjoint_apply(residual(A.apply(z) if fz is None else fz, y))
    g *= mu / A.m  # scaled in place: the roundings of z - (mu/m) g, no temporary
    z -= g
    return z


def _rwf_pass(cfg, A, y, z0):
    mu = cfg.mu or (RWF_STEP_COMPLEX if A.field == COMPLEX else RWF_STEP_REAL)
    return (lambda z, fz: _gradient_step(z, fz, y, A, mu, _amplitude_residual)), 1


def _wf_pass(cfg, A, y, z0):
    mu, nz0 = cfg.mu or WF_STEP, float(np.linalg.norm(z0))
    mu = mu / nz0**2 if nz0 > 0 else mu
    return (lambda z, fz: _gradient_step(z, fz, y, A, mu, _intensity_residual)), 1


def _irwf_pass(cfg, A, y, z0, steps=None):
    # Python objects, once per run; row views index in a third of the 2-D array's time
    rng, m, y = substream(cfg.seed, "solver"), A.m, y.tolist()
    row = list(A.rows).__getitem__ if isinstance(A, GaussianEnsemble) else A.row
    steps = steps or [cfg.rho0 / A.n] * m
    return (lambda z, fz: _sample_updates(z, rng.integers(0, m, m).tolist(), y, steps, row)), 1


def _kaczmarz_pass(cfg, A, y, z0):
    sq = A.row_sqnorms()
    if not sq.all():
        raise ValueError("zero sensing row %d" % np.flatnonzero(sq == 0)[0])
    return _irwf_pass(cfg, A, y, z0, (1.0 / sq).tolist())


def _minibatch_pass(cfg, A, y, z0):
    rng, m, k, step = substream(cfg.seed, "solver"), A.m, cfg.minibatch_k, cfg.rho0 / A.n
    return (lambda z, fz: _block_update(z, rng.choice(m, k, replace=False), y, A, step)), -(-m // k)


def _block_kaczmarz_pass(cfg, A, y, z0):
    rng, m, k = substream(cfg.seed, "solver"), A.m, cfg.minibatch_k
    if A.kind == CDP and k == A.n:  # whole-mask blocks: the pseudoinverse is a 1/n scaling
        return (lambda z, fz: _mask_projection(z, int(rng.integers(0, A.L)), y, A)), A.L
    return (lambda z, fz: _block_projection(z, rng.choice(m, k, replace=False), y, A)), -(-m // k)


# algorithm: (build, the name of its monitor's loss, the messages of the sizes
# minibatch_k may not exceed, m then n).  build(cfg, A, y, z0) runs once per
# run and gives (update, count): a pass is count calls z = update(z, fz).
_K_OVER = "minibatch_k exceeds measurement count", "block size exceeds n (row-independence regime)"
_PASSES = {
    "rwf": (_rwf_pass, "amplitude_loss", ()),
    "wf": (_wf_pass, "intensity_loss", ()),
    "irwf": (_irwf_pass, "amplitude_loss", ()),
    "minibatch_irwf": (_minibatch_pass, "amplitude_loss", _K_OVER[:1]),
    "kaczmarz_pr": (_kaczmarz_pass, "amplitude_loss", ()),
    "block_kaczmarz_pr": (_block_kaczmarz_pass, "amplitude_loss", _K_OVER),
}
ALGORITHMS = tuple(_PASSES)


def run(y, A, z0, cfg, x_opt=None):
    """Drive cfg.algorithm from z0, recording every record_every passes.

    Stops on the first recorded point with gauge <= cfg.tol (gauge =
    relative error when x_opt is given, loss otherwise), when the pass
    budget runs out, or when the gauge goes non-finite / exceeds 1e6 times
    its initial value (stop_reason 'diverged').  Index draws come from the
    (cfg.seed, 'solver') stream; reruns are bit-reproducible.
    """
    z, yv = _checked_copy(z0, y, A, "z0", finite=True)
    _instance(cfg, SolverConfig, "cfg").validate(A.m, A.n)
    build, loss_name, _ = _PASSES[cfg.algorithm]
    update, count = build(cfg, A, yv, z)
    loss_fn = globals()[loss_name]  # its binding now, which a profiler may have wrapped

    use_loss = x_opt is None
    if not use_loss:
        # relative_error's checks and ||x_opt||, once per run
        x_opt = _check_pair(z, as_signal(x_opt, A.n, "x_opt"), "x_opt")[1]
        nx = _reference_norm(x_opt)

    def observe(zc):
        fz = A.apply(zc)
        loss = loss_fn(fz, yv)
        rel = float("nan") if use_loss else _distance(zc, x_opt) / nx
        return fz, rel, loss, (loss if use_loss else rel)

    fz, rel0, loss0, gauge0 = observe(z)
    history = [(0, rel0, loss0)]
    if gauge0 <= cfg.tol:
        return RunTrace(z, history, 0, "tol")
    guard = DIVERGENCE_FACTOR * gauge0

    for p in range(1, cfg.max_passes + 1):
        for _ in range(count):
            z = update(z, fz)
            fz = None

        if p % cfg.record_every == 0 or p == cfg.max_passes:
            fz, rel, loss, gauge = observe(z)
            if not math.isfinite(gauge):
                # keep history finite; the blown-up point is not recorded
                return RunTrace(z, history, p, "diverged")
            history.append((p, rel, loss))
            if gauge > guard:
                return RunTrace(z, history, p, "diverged")
            if gauge <= cfg.tol:
                return RunTrace(z, history, p, "tol")
    return RunTrace(z, history, cfg.max_passes, "budget")
