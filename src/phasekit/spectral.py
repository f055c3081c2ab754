"""Spectral initialization, computed matrix-free.

The starting point for all solvers: estimate the signal norm lambda0 from
the measurement mean, then take the leading eigenvector of the weighted
covariance

    Y = (1/m) sum_i T_i a_i a_i^*

and scale it to length lambda0.  Two preprocessings choose the weights:

* "optimal" (the default): T_i = (s_i - 1) / (s_i + sqrt(delta) - 1) with
  s_i = (y_i / lambda0)^2 and delta = m / n, the preprocessing that
  maximizes the eigenvector's asymptotic correlation with the signal for
  real Gaussian rows (Mondelli & Montanari 2017, arXiv:1708.05932; Luo,
  Alghamdi & Lu 2019, arXiv:1811.04420).  The same T serves complex and
  coded-diffraction data, where it is supported by measurement only.
  T is negative for small y, so the eigenvector sought is the top
  algebraic one.  It needs m > n, where the denominator stays positive.
* "truncated": the paper's T_i = y_i * 1{lo < y_i < hi}, with the window
  (lo, hi) = (TRUNC_LOWER, TRUNC_UPPER) * lambda0 = (1, 5) * lambda0
  discarding samples whose magnitude is out of scale with the norm
  estimate.

Both take the top eigenvector from the same Lanczos run (scipy's eigsh on
a LinearOperator).  Complex and coded-diffraction Y run in eigsh's real
symmetric mode, through the real 2n x 2n embedding of Y that the float64
view of a complex vector gives.  Y is never formed; Lanczos only needs the
product v -> (1/m) A^*(T . (A v)).
"""

from dataclasses import dataclass

import numpy as np

from .core import COMPLEX, _instance
from .sensing import Ensemble
from .streams import substream

PREPROCESSINGS = ("optimal", "truncated")

# the paper's truncation window, in units of lambda0
TRUNC_LOWER, TRUNC_UPPER = 1.0, 5.0

# Lanczos stopping tolerance on the top Ritz value.  At n = 1000, m = 8n it
# takes about 31 covariance products (41 for the truncated init on complex
# data) and gives the dense eigenvector.
LANCZOS_TOL = 1e-10


class EmptyTruncationError(ValueError):
    """Every measurement got zero weight: an empty truncation window, or
    (optimal preprocessing) every y_i equal to lambda0."""


@dataclass(frozen=True)
class InitParams:
    """Preprocessing choice: "optimal" (default; needs m > n) or
    "truncated" (the paper's init)."""

    preprocessing: str = "optimal"

    def __post_init__(self):
        if self.preprocessing not in PREPROCESSINGS:
            raise ValueError("unknown preprocessing %r" % (self.preprocessing,))


@dataclass(frozen=True)
class InitResult:
    """z0 = lambda0 * (unit leading eigenvector), plus diagnostics.

    kept_fraction is the share of samples with nonzero weight (inside the
    truncation window, or y_i != lambda0 for "optimal");
    small_truncation_set flags the degenerate regime where fewer than n
    samples have nonzero weight (the init proceeds anyway).
    iterations_used counts covariance products.  rayleigh holds the top
    eigenvalue alone, as a 1-tuple.
    """

    z0: np.ndarray
    lambda0: float
    kept_fraction: float
    iterations_used: int
    rayleigh: tuple
    small_truncation_set: bool = False


def estimate_norm(y, A):
    """Norm estimate lambda0 = (m n / sum_i ||a_i||_1) * mean(y).

    For real Gaussian rows the coefficient concentrates at sqrt(pi/2),
    undoing the E|a^T x| = sqrt(2/pi) ||x|| folding; for unit-modulus
    coded-diffraction rows each ||a_i||_1 = n exactly, so the coefficient
    is exactly 1 (computed analytically, no rows materialized).  TypeError
    unless A is an Ensemble and y Measurements, ValueError for another m.
    """
    yv = _instance(A, Ensemble, "A")._check_measurements(y)
    l1 = A.row_l1_sum()
    if l1 <= 0:
        raise ValueError("ensemble has zero total row l1 norm")
    return float(A.m * A.n / l1 * np.mean(yv))


def truncation_weights(values, lambda0):
    """Per-sample weights y_i * 1{lo < y_i < hi}, strict inequalities, over
    the window (lo, hi) = (TRUNC_LOWER, TRUNC_UPPER) * lambda0."""
    v = np.asarray(values, dtype=np.float64)
    keep = (v > TRUNC_LOWER * lambda0) & (v < TRUNC_UPPER * lambda0)
    return v * keep


def optimal_weights(values, lambda0, m, n):
    """Per-sample weights (s_i - 1) / (s_i + sqrt(m/n) - 1), s_i = (y_i/lambda0)^2.

    Defined for m > n (ValueError otherwise), where the denominator is at
    least sqrt(m/n) - 1 > 0.  lambda0 = 0 means every y_i is zero; the
    weights are then all zero.
    """
    if m <= n:
        raise ValueError("optimal preprocessing needs m > n, got m = %d, n = %d" % (m, n))
    v = np.asarray(values, dtype=np.float64)
    if lambda0 == 0:
        return np.zeros_like(v)
    s = (v / lambda0) ** 2
    return (s - 1.0) / (s + np.sqrt(m / n) - 1.0)


def weighted_covariance_apply(A, w, v):
    """Matrix-free Y v = (1/m) A^*(w . (A v))."""
    return A.adjoint_apply(w * A.apply(v)) / A.m


def _start_vector(A, seed):
    """Seeded random unit vector in the ensemble's field."""
    rng = substream(seed, "power-start")
    if A.field == COMPLEX:
        v = rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n)
    else:
        v = rng.standard_normal(A.n)
    return v / np.linalg.norm(v)


def _top_eigenpair(A, w, v0):
    """(unit top algebraic eigenvector, eigenvalue, products used) of Y.

    Lanczos runs in eigsh's real symmetric mode on the float64 view of the
    iterate: for complex Y that view interleaves (Re u_j, Im u_j), and the
    operator it sees is Y's real 2n x 2n embedding, symmetric because Y is
    Hermitian.  The embedding has Y's eigenvalues, each twice (v and i v
    embed as two orthogonal vectors), and Lanczos from the view of v0
    builds the same Ritz values as on Y itself, in exact arithmetic.  For
    real Y the view is Y itself.  ARPACK's complex mode is avoided because
    with threaded BLAS it about doubles the cost of every product.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = A.n
    if n < 3:
        # tiny n: form the n x n matrix from n products and solve it densely
        # (ARPACK needs k < n)
        basis = np.eye(n, dtype=v0.dtype)
        Y = np.column_stack([weighted_covariance_apply(A, w, e) for e in basis])
        vals, vecs = np.linalg.eigh(Y)
        return vecs[:, -1], float(vals[-1]), n
    products = 0

    def matvec(u):
        nonlocal products
        products += 1
        return weighted_covariance_apply(A, w, u.reshape(-1).view(v0.dtype)).view(np.float64)

    start = v0.view(np.float64)
    op = LinearOperator((start.size,) * 2, matvec=matvec, dtype=np.float64)
    vals, vecs = eigsh(op, k=1, which="LA", v0=start, tol=LANCZOS_TOL)
    v = vecs[:, 0].copy().view(v0.dtype)
    return v / np.linalg.norm(v), float(vals[0]), products


def spectral_initialize(y, A, params=None, seed=0):
    """Spectral initializer: returns InitResult with z0.

    Lanczos runs to LANCZOS_TOL from a seeded random unit vector in the
    ensemble's field, so runs are reproducible (a dense eigendecomposition
    from n products when n < 3).  y and A are checked as by estimate_norm, and
    "optimal" raises ValueError when m <= n.  All-zero weights raise
    EmptyTruncationError; a Lanczos run that does not converge raises
    scipy's ArpackNoConvergence.  ValueError unless seed is an integer >= 0
    (not a bool), and TypeError unless params is None or an InitParams.
    """
    params = InitParams() if params is None else _instance(params, InitParams, "params")
    lam0 = estimate_norm(y, A)
    if params.preprocessing == "optimal":
        w = optimal_weights(y.values, lam0, A.m, A.n)
    else:
        w = truncation_weights(y.values, lam0)
    kept = int(np.count_nonzero(w))
    if kept == 0:
        raise EmptyTruncationError("every measurement has zero weight")

    v, top, used = _top_eigenpair(A, w, _start_vector(A, seed))
    return InitResult(
        z0=lam0 * v,
        lambda0=lam0,
        kept_fraction=kept / A.m,
        iterations_used=used,
        rayleigh=(top,),
        small_truncation_set=kept < A.n,
    )
