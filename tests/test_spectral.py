"""Spectral initialization: norm estimate, preprocessing, eigensolvers."""

import numpy as np
import pytest
import scipy.sparse.linalg

from phasekit.core import COMPLEX, REAL, dist_up_to_phase, random_signal, relative_error
from phasekit.sensing import GaussianEnsemble, Measurements, make_cdp, make_gaussian, measure
from phasekit.spectral import (
    EmptyTruncationError,
    InitParams,
    estimate_norm,
    optimal_weights,
    spectral_initialize,
    truncation_weights,
    weighted_covariance_apply,
)
from phasekit.streams import substream

# the paper's truncated init
TRUNCATED = InitParams(preprocessing="truncated")


def test_estimate_norm_direct_substitution():
    # rows [2], [-2]: l1 sum 4, coefficient mn / 4 = 0.5; y = (6, 6)
    A = GaussianEnsemble([[2.0], [-2.0]])
    y = measure(A, np.array([3.0]))
    assert np.array_equal(y.values, np.array([6.0, 6.0]))
    assert estimate_norm(y, A) == pytest.approx(3.0, rel=1e-15)


def test_estimate_norm_coefficient_concentrates():
    # m n / sum ||a_i||_1 -> sqrt(pi/2) ~ 1.2533 for real Gaussian rows
    A = make_gaussian(100, 1000, REAL, seed=2)
    coeff = A.m * A.n / A.row_l1_sum()
    assert 1.24 <= coeff <= 1.27


def test_estimate_norm_tracks_signal_norm():
    hits = 0
    for t in range(100):
        A = make_gaussian(256, 6 * 256, REAL, seed=1000 + t)
        x = random_signal(256, REAL, substream(500, t))
        x /= np.linalg.norm(x)
        lam = estimate_norm(measure(A, x), A)
        hits += 0.95 <= lam <= 1.05
    assert hits >= 95


def test_estimate_norm_zero_rows():
    A = GaussianEnsemble(np.zeros((3, 2)))
    y = Measurements(np.ones(3))
    with pytest.raises(ValueError):
        estimate_norm(y, A)


def test_truncation_strict_inequalities():
    lam = 2.0
    vals = np.array([1.9, 2.0, 2.1, 9.9, 10.0, 10.1])
    w = truncation_weights(vals, lam)
    # the window is (2, 10): boundary samples contribute zero weight
    assert np.array_equal(w, np.array([0.0, 0.0, 2.1, 9.9, 0.0, 0.0]))


def test_init_params_validation():
    with pytest.raises(ValueError):
        InitParams(preprocessing="orthogonality")


def test_empty_truncation_raises():
    # all-ones rows make the coefficient exactly 1, so lambda0 = mean(y);
    # constant measurements then sit on the window's lower edge (excluded)
    A = GaussianEnsemble(np.ones((4, 8)))
    y = Measurements(np.full(4, 5.0))
    with pytest.raises(EmptyTruncationError):
        spectral_initialize(y, A, TRUNCATED, seed=0)


def test_small_truncation_set_flagged():
    A = GaussianEnsemble(np.ones((4, 8)))
    y = Measurements(np.array([1.0, 1.0, 1.0, 9.0]))  # lambda0 = 3, window (3, 15)
    init = spectral_initialize(y, A, TRUNCATED, seed=0)
    assert init.small_truncation_set
    assert init.kept_fraction == pytest.approx(0.25)
    assert np.linalg.norm(init.z0) == pytest.approx(init.lambda0, rel=1e-9)


def test_z0_norm_equals_lambda0(rng):
    A = make_gaussian(32, 8 * 32, REAL, seed=6)
    x = rng.standard_normal(32)
    init = spectral_initialize(measure(A, x), A, TRUNCATED, seed=3)
    assert np.linalg.norm(init.z0) == pytest.approx(init.lambda0, rel=1e-9)


def test_matrix_free_matches_dense_covariance(rng):
    for A in (
        make_gaussian(16, 80, REAL, seed=14),
        make_gaussian(16, 80, COMPLEX, seed=14),
        make_cdp(16, 5, seed=14),
    ):
        M = A.materialize()
        w = np.abs(rng.standard_normal(A.m))
        Y = np.conj(M).T @ (w[:, None] * M) / A.m
        v = rng.standard_normal(16)
        if A.field == COMPLEX:
            v = v + 1j * rng.standard_normal(16)
        lhs = weighted_covariance_apply(A, w, v)
        rhs = Y @ v
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10


def test_scale_equivariance_power_of_two(rng):
    # doubling x doubles y, lambda0, and the weights bit-exactly, so the
    # normalized power iterates (and hence z0 / lambda0) are untouched
    A = make_gaussian(20, 160, REAL, seed=9)
    x = rng.standard_normal(20)
    i1 = spectral_initialize(measure(A, x), A, seed=2)
    i2 = spectral_initialize(measure(A, 2.0 * x), A, seed=2)
    assert i2.lambda0 == 2.0 * i1.lambda0
    assert np.array_equal(i2.z0, 2.0 * i1.z0)
    assert i2.kept_fraction == i1.kept_fraction


def test_sign_blindness(rng):
    A = make_gaussian(20, 160, REAL, seed=9)
    x = rng.standard_normal(20)
    y_pos = measure(A, x)
    y_neg = measure(A, -x)
    assert np.array_equal(y_pos.values, y_neg.values)
    i1 = spectral_initialize(y_pos, A, seed=2)
    i2 = spectral_initialize(y_neg, A, seed=2)
    assert np.array_equal(i1.z0, i2.z0)
    assert relative_error(i1.z0, x) == pytest.approx(relative_error(i1.z0, -x), rel=1e-12)


def test_init_accuracy_quick(rng):
    # At m = 8n the exact leading eigenvector of the truncated weighted
    # covariance lands around 0.52-0.66 relative error (dense eigh over 100
    # instances: median 0.575, max 0.66), so the band below is what a correct
    # implementation produces, not a convergence artifact.  The acceptance
    # suite runs the full 100-trial census.
    errs = []
    for t in range(10):
        n = 128
        A = make_gaussian(n, 8 * n, REAL, seed=3000 + t)
        x = random_signal(n, REAL, substream(600, t))
        init = spectral_initialize(measure(A, x), A, TRUNCATED, seed=t)
        errs.append(relative_error(init.z0, x))
    assert 0.40 <= np.median(errs) <= 0.68
    assert max(errs) <= 0.80


def test_measurement_count_mismatch(rng):
    A = make_gaussian(8, 24, REAL, seed=1)
    y = Measurements(np.ones(23))
    with pytest.raises(ValueError):
        spectral_initialize(y, A)
    with pytest.raises(ValueError, match="measurement count"):
        estimate_norm(y, A)


def _dense_top_eigenvector(A, y, lambda0, params=InitParams()):
    M = A.materialize()
    if params.preprocessing == "optimal":
        w = optimal_weights(y.values, lambda0, A.m, A.n)
    else:
        w = truncation_weights(y.values, lambda0)
    Y = (M.conj().T * w) @ M / A.m
    vals, vecs = np.linalg.eigh(Y)
    return vecs[:, -1], vals[-1]


@pytest.mark.parametrize("params", [InitParams(), TRUNCATED], ids=["optimal", "truncated"])
def test_lanczos_matches_dense_eigenvector(params):
    # Lanczos on the T-weighted covariance lands on the dense eigh
    # eigenvector (up to a global phase) within the product budget
    n = 64
    for A in (
        make_gaussian(n, 8 * n, REAL, seed=92),
        make_gaussian(n, 8 * n, COMPLEX, seed=92),
        make_cdp(n, 8, seed=92),
    ):
        x = random_signal(n, A.field, substream(920, A.field))
        y = measure(A, x)
        init = spectral_initialize(y, A, params, seed=5)
        assert np.linalg.norm(init.z0) == pytest.approx(init.lambda0, rel=1e-12)
        assert init.iterations_used <= 50
        v, top = _dense_top_eigenvector(A, y, init.lambda0, params)
        assert dist_up_to_phase(init.z0 / init.lambda0, v) < 1e-8
        assert init.rayleigh == pytest.approx((top,), rel=1e-9)
        if params.preprocessing == "optimal":
            assert init.kept_fraction == 1.0
        assert not init.small_truncation_set


@pytest.mark.parametrize(
    "A, params",
    [
        (make_gaussian(32, 8 * 32, COMPLEX, seed=94), InitParams()),
        (make_cdp(32, 8, seed=94), InitParams()),
        (make_gaussian(32, 8 * 32, COMPLEX, seed=94), TRUNCATED),
        (make_cdp(32, 8, seed=94), TRUNCATED),
    ],
    ids=["complex", "cdp", "complex-truncated", "cdp-truncated"],
)
def test_complex_lanczos_runs_on_a_real_operator(A, params, monkeypatch):
    # complex Y goes through eigsh's real symmetric mode on R^(2n)
    seen = []
    real_eigsh = scipy.sparse.linalg.eigsh

    def eigsh(op, **kw):
        seen.append((op.dtype, op.shape))
        return real_eigsh(op, **kw)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
    init = spectral_initialize(measure(A, random_signal(32, COMPLEX, substream(94))), A, params)
    assert seen == [(np.dtype(np.float64), (64, 64))]
    assert np.iscomplexobj(init.z0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_optimal_correct_for_tiny_n(field, n):
    # below ARPACK's minimum size the covariance is formed from n products
    A = make_gaussian(n, 6 * n, field, seed=93)
    x = random_signal(n, field, substream(930, n))
    y = measure(A, x)
    init = spectral_initialize(y, A, seed=1)
    assert np.linalg.norm(init.z0) == pytest.approx(init.lambda0, rel=1e-12)
    v, _ = _dense_top_eigenvector(A, y, init.lambda0)
    assert dist_up_to_phase(init.z0 / init.lambda0, v) < 1e-8


def test_optimal_domain_errors():
    # m <= n: the weights' denominator s + sqrt(m/n) - 1 can vanish
    A = make_gaussian(8, 8, REAL, seed=1)
    with pytest.raises(ValueError, match="m > n"):
        spectral_initialize(measure(A, np.ones(8)), A)
    with pytest.raises(ValueError, match="m > n"):
        spectral_initialize(Measurements(np.ones(8)), make_cdp(8, 1, seed=1))
    # all-ones rows give lambda0 = mean(y): constant y weighs every sample 0
    A = GaussianEnsemble(np.ones((4, 2)))
    with pytest.raises(EmptyTruncationError):
        spectral_initialize(Measurements(np.full(4, 5.0)), A)
    with pytest.raises(EmptyTruncationError):
        spectral_initialize(Measurements(np.zeros(4)), A)
