"""Closed-form expectations of the loss surfaces, and related bounds.

Over real Gaussian sensing rows, the linear forms a^T z and a^T x are
jointly normal with correlation rho = z^T x / (||z|| ||x||), so the
population (m -> infinity) losses reduce to one-dimensional facts about a
correlated standard-normal pair (u, v):

  amplitude loss   E l = 1/2 ||x||^2 + 1/2 ||z||^2 - ||x|| ||z|| E|uv|
  intensity loss   E l = 3/4 ||x||^4 + 3/4 ||z||^4 - 1/2 ||x||^2 ||z||^2
                         - rho^2 ||x||^2 ||z||^2

with the closed form

  E|uv| = (2/pi) (sqrt(1 - rho^2) + rho arcsin rho),

which runs from 2/pi at rho = 0 to 1 at |rho| = 1.

Also here: the density of |uv| (through the order-zero Bessel K0), the
erfc tail bound on the probability that a random row sees x and a nearby
z with opposite signs, and a Monte Carlo estimator used to cross-check
the closed form.

The density and the bound import scipy.special on their first call, by
the package's import rule (see the phasekit docstring).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _count, _instance, _is_number, _level
from .streams import substream

# the sign-flip bound's hypothesis: ||h|| < (sqrt(2)-1)/sqrt(2) * ||x||
SIGN_FLIP_MAX_RATIO = (math.sqrt(2.0) - 1.0) / math.sqrt(2.0)


def _correlation(rho):
    """float(rho) clamped to [-1, 1]; ValueError unless |rho| <= 1 + 1e-12 (not NaN, bool, str)."""
    if not (_is_number(rho) and abs(rho) <= 1.0 + 1e-12):
        raise ValueError("rho must be in [-1, 1]")
    return min(1.0, max(-1.0, float(rho)))


@dataclass(frozen=True)
class CorrelationState:
    """(rho, ||x||, ||z||) summary a loss surface point depends on; ValueError
    unless rho passes _correlation (stored clamped), norm_x > 0, norm_z >= 0."""

    rho: float
    norm_x: float = 1.0
    norm_z: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rho", _correlation(self.rho))
        _level(self.norm_x, "norm_x")
        _level(self.norm_z, "norm_z", zero_ok=True)


def abs_product_moment(rho):
    """E|uv| for a standard-normal pair with correlation rho (_correlation's rule)."""
    rho = _correlation(rho)
    # (1-rho)(1+rho) keeps its relative accuracy where 1 - rho^2 cancels
    return 2.0 / math.pi * (math.sqrt((1.0 - rho) * (1.0 + rho)) + rho * math.asin(rho))


def expected_rwf_loss(state):
    """Population amplitude loss at the given state (TypeError unless a CorrelationState)."""
    nx, nz = _instance(state, CorrelationState, "state").norm_x, state.norm_z
    if nz == 0:
        return 0.5 * nx * nx
    return 0.5 * nx * nx + 0.5 * nz * nz - nx * nz * abs_product_moment(state.rho)


def expected_wf_loss(state):
    """Population intensity loss (real field) at the given state (TypeError as above)."""
    nx2 = _instance(state, CorrelationState, "state").norm_x**2
    nz2 = state.norm_z**2
    return 0.75 * nx2 * nx2 + 0.75 * nz2 * nz2 - 0.5 * nx2 * nz2 - state.rho**2 * nx2 * nz2


def product_magnitude_density(x_val, rho):
    """Density of |uv| at x_val for a correlated standard-normal pair.

    psi(x) = (pi sqrt(1-rho^2))^{-1} (e^{rho x/(1-rho^2)}
             + e^{-rho x/(1-rho^2)}) K0(x/(1-rho^2)),
    evaluated through the scaled Bessel so large rho x does not overflow.
    ValueError unless x_val is positive and finite and rho a number, |rho| < 1.
    """
    from scipy.special import k0e

    x_val = _level(x_val, "x_val")
    if not (_is_number(rho) and abs(rho) < 1):  # the negated test also rejects NaN
        raise ValueError("rho must be in the open interval (-1, 1)")
    rho = float(rho)
    q = 1.0 - rho * rho
    s = x_val / q
    scaled = math.exp((rho - 1.0) * s) + math.exp((-rho - 1.0) * s)
    return scaled * float(k0e(s)) / (math.pi * math.sqrt(q))


def sign_flip_bound(t, norm_x, norm_h):
    """Tail bound erfc(sqrt(t) ||x|| / (2 ||h||)) on the sign-flip odds.

    Bounds the conditional probability that a Gaussian row a with
    |a^T x| ~ sqrt(t)-scaled magnitude sees x and z = x + h with opposite
    signs.  ValueError unless t and the norms are positive and finite, in
    the regime ||h|| < (sqrt(2)-1)/sqrt(2) ||x|| where the bound holds.
    """
    from scipy.special import erfc

    t, norm_x, norm_h = _level(t, "t"), _level(norm_x, "norm_x"), _level(norm_h, "norm_h")
    if not norm_h < SIGN_FLIP_MAX_RATIO * norm_x:
        raise ValueError("outside the sign-agreement regime: require "
                         "norm_h < (sqrt(2)-1)/sqrt(2) * norm_x")
    return float(erfc(math.sqrt(t) * norm_x / (2.0 * norm_h)))


def monte_carlo_expected_rwf_loss(state, samples, seed):
    """Sample-mean estimate of the population amplitude loss.

    Draws correlated standard-normal pairs and averages
    0.5 (||z|| |u| - ||x|| |v|)^2.  Returns (estimate, standard_error).
    ValueError unless samples is an integer >= 1000 (not a bool), and
    TypeError unless state is a CorrelationState.
    """
    samples = _count(samples, "samples", 1000)
    rho = _instance(state, CorrelationState, "state").rho
    nx, nz = state.norm_x, state.norm_z
    rng = substream(seed, "mc-loss")
    comp = math.sqrt(max(0.0, 1.0 - rho * rho))
    total = 0.0
    total_sq = 0.0
    left = samples
    while left > 0:
        chunk = min(left, 1 << 20)
        u = rng.standard_normal(chunk)
        v = rho * u + comp * rng.standard_normal(chunk)
        vals = 0.5 * (nz * np.abs(u) - nx * np.abs(v)) ** 2
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        left -= chunk
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, math.sqrt(var / samples)


def loss_surface_rows(rho_values, norm_z_values, norm_x=1.0):
    """(rho, norm_z, both expected losses) grid rows for CSV dumping."""
    rows = []
    for nz in norm_z_values:
        for rho in rho_values:
            s = CorrelationState(rho=float(rho), norm_x=float(norm_x), norm_z=float(nz))
            rows.append(
                {
                    "rho": s.rho,
                    "norm_z": s.norm_z,
                    "expected_rwf_loss": expected_rwf_loss(s),
                    "expected_wf_loss": expected_wf_loss(s),
                }
            )
    return rows
