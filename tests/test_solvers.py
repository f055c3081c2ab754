"""Solver steps, the run loop, and the contraction behavior each algorithm
is supposed to exhibit.  Statistical thresholds were calibrated against the
frozen seeds used here; see the inline notes.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import core, solvers
from phasekit.core import (
    COMPLEX,
    REAL,
    amplitude_loss,
    dist_up_to_phase,
    intensity_loss,
    phase,
    random_signal,
    relative_error,
    rwf_loss,
    wf_loss,
)
from phasekit.sensing import (
    CDP,
    Ensemble,
    GaussianEnsemble,
    Measurements,
    NoiseSpec,
    make_cdp,
    make_gaussian,
    measure,
)
from phasekit.solvers import (
    ALGORITHMS,
    SolverConfig,
    block_kaczmarz_step,
    irwf_step,
    kaczmarz_step,
    minibatch_irwf_step,
    run,
    rwf_gradient,
    wf_gradient,
)
from phasekit.spectral import spectral_initialize
from phasekit.streams import substream


def _instance(n, m, field, seed, noise=None):
    # field CDP gives a coded-diffraction ensemble with m/n masks
    A = make_cdp(n, m // n, seed=seed) if field == CDP else make_gaussian(n, m, field, seed=seed)
    x = random_signal(n, A.field, substream(seed, "x"))
    return A, x, measure(A, x, noise)


# --- gradients ---------------------------------------------------------------


def test_rwf_gradient_substitution():
    A = GaussianEnsemble([[1.0]])
    y = Measurements(np.array([1.0]))
    g = rwf_gradient(np.array([2.0]), y, A)
    assert np.array_equal(g, np.array([1.0]))


def test_rwf_gradient_sign_zero_convention():
    A = GaussianEnsemble([[1.0]])
    y = Measurements(np.array([1.0]))
    g = rwf_gradient(np.array([0.0]), y, A)
    assert np.array_equal(g, np.array([0.0]))


def test_wf_gradient_substitution():
    A = GaussianEnsemble([[1.0]])
    y = Measurements(np.array([1.0]))
    g = wf_gradient(np.array([2.0]), y, A)
    assert np.array_equal(g, np.array([6.0]))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_gradients_vanish_at_truth(field):
    A, x, y = _instance(9, 36, field, seed=11)
    assert np.linalg.norm(rwf_gradient(x, y, A)) < 1e-14
    assert np.linalg.norm(wf_gradient(x, y, A)) < 1e-12


def test_gradient_measurement_mismatch():
    A = make_gaussian(4, 12, REAL, seed=0)
    y = Measurements(np.ones(11))
    with pytest.raises(ValueError):
        rwf_gradient(np.ones(4), y, A)
    with pytest.raises(ValueError):
        wf_gradient(np.ones(4), y, A)


# each public step function, on index 0 or the block [0, 1]
_STEP_CALLS = {
    "rwf_gradient": lambda z, y, A: rwf_gradient(z, y, A),
    "wf_gradient": lambda z, y, A: wf_gradient(z, y, A),
    "irwf_step": lambda z, y, A: irwf_step(z, 0, y, A),
    "kaczmarz_step": lambda z, y, A: kaczmarz_step(z, 0, y, A),
    "minibatch_irwf_step": lambda z, y, A: minibatch_irwf_step(z, [0, 1], y, A),
    "block_kaczmarz_step": lambda z, y, A: block_kaczmarz_step(z, [0, 1], y, A),
}


@pytest.mark.parametrize("count", [2, 5])
@pytest.mark.parametrize("call", list(_STEP_CALLS.values()), ids=list(_STEP_CALLS))
def test_step_functions_reject_measurement_count_mismatch(call, count):
    # a y longer than m is refused, not read by its first m entries
    A = GaussianEnsemble([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = Measurements(np.ones(count))
    with pytest.raises(ValueError, match="measurement count"):
        call(np.array([0.5, 0.5]), y, A)


@pytest.mark.parametrize(
    "call, field",
    [pytest.param(c, f, id="%s-%s" % (name, f))
     for name, c in _STEP_CALLS.items() for f in (REAL, COMPLEX)]
    + [pytest.param(lambda z, y, A: block_kaczmarz_step(z, np.arange(8, 16), y, A),
                    CDP, id="block_kaczmarz_step-whole-mask")],
)
def test_step_functions_leave_z_unchanged(call, field):
    # the kernels change z in place; the public wrappers work on a copy
    A, _, y = _instance(8, 32, field, seed=65)
    z = random_signal(8, A.field, substream(651))
    saved = z.copy()
    call(z, y, A)
    assert np.array_equal(z, saved)


def test_wf_gradient_finite_differences():
    # directional derivative of the quartic loss, central differences
    A, x, y = _instance(5, 20, REAL, seed=21)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(5)
    g = wf_gradient(z, y, A)
    h = 1e-6
    for _ in range(4):
        d = rng.standard_normal(5)
        d /= np.linalg.norm(d)
        fd = (wf_loss(z + h * d, y, A) - wf_loss(z - h * d, y, A)) / (2 * h)
        assert abs(fd - np.dot(g, d)) <= 1e-5 * max(1.0, abs(fd))


def test_rwf_gradient_finite_differences_off_kinks():
    A, x, y = _instance(6, 30, REAL, seed=22)
    rng = np.random.default_rng(4)
    z = rng.standard_normal(6)
    # the amplitude loss is smooth wherever no inner product vanishes; keep
    # the stencil well inside the smooth region
    assert np.min(np.abs(A.apply(z))) > 1e-3
    g = rwf_gradient(z, y, A)
    h = 1e-7
    for _ in range(4):
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        fd = (rwf_loss(z + h * d, y, A) - rwf_loss(z - h * d, y, A)) / (2 * h)
        assert abs(fd - np.dot(g, d)) <= 1e-6 * max(1.0, abs(fd))


def test_complex_gradient_directional_derivative():
    # d/dt loss(z + t d) at 0 equals Re<d, g> for the complex gradient
    A, x, y = _instance(6, 24, COMPLEX, seed=23)
    rng = np.random.default_rng(5)
    z = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
    g = rwf_gradient(z, y, A)
    h = 1e-7
    for d in (rng.standard_normal(6) + 0j, 1j * rng.standard_normal(6)):
        d /= np.linalg.norm(d)
        fd = (rwf_loss(z + h * d, y, A) - rwf_loss(z - h * d, y, A)) / (2 * h)
        assert abs(fd - np.real(np.vdot(g, d))) <= 1e-6 * max(1.0, abs(fd))


def test_complex_gradient_phase_equivariance():
    A, x, y = _instance(7, 28, COMPLEX, seed=24)
    rng = np.random.default_rng(6)
    z = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) / np.sqrt(2)
    c = np.exp(1j * 0.77)
    g = rwf_gradient(z, y, A)
    gc = rwf_gradient(c * z, y, A)
    assert np.linalg.norm(gc - c * g) < 1e-13 * np.linalg.norm(g)


# --- single-sample and block steps -------------------------------------------


def test_irwf_step_one_dimensional_projection():
    # a=[2], y=2, z=3, step 1/||a||^2: z' = 3 - 0.25 (6 - 2) 2 = 1
    A = GaussianEnsemble([[2.0]])
    y = Measurements(np.array([2.0]))
    z1 = irwf_step(np.array([3.0]), 0, y, A, step=0.25)
    assert np.array_equal(z1, np.array([1.0]))
    assert np.array_equal(kaczmarz_step(np.array([3.0]), 0, y, A), np.array([1.0]))


def test_irwf_step_default_step_is_one_over_n():
    A, x, y = _instance(8, 16, REAL, seed=31)
    z = random_signal(8, REAL, substream(311))
    assert np.array_equal(irwf_step(z, 3, y, A), irwf_step(z, 3, y, A, step=1.0 / 8))


def test_irwf_step_fit_sample_is_noop():
    A, x, y = _instance(8, 16, REAL, seed=32)
    # vectorized measurement vs single-row dot can differ by an ulp, so the
    # no-op is exact only up to that summation-order wobble
    for i in (0, 5, 15):
        assert np.linalg.norm(irwf_step(x, i, y, A) - x) <= 1e-14 * np.linalg.norm(x)
    # with values built from the same per-row dot the step is a strict no-op
    y_exact = Measurements(np.abs([float(np.dot(A.row(i), x)) for i in range(16)]))
    for i in (0, 5, 15):
        assert np.array_equal(irwf_step(x, i, y_exact, A), x)


def test_irwf_step_fit_sample_complex():
    A, x, y = _instance(8, 16, COMPLEX, seed=33)
    for i in (0, 7):
        z1 = irwf_step(x, i, y, A)
        assert np.linalg.norm(z1 - x) <= 1e-15 * np.linalg.norm(x)


def test_irwf_step_orthogonal_row_is_noop():
    # a = e_0 and z supported away from coordinate 0: the inner product is
    # exactly zero, ph(0)=0 kills the term
    A = GaussianEnsemble(np.eye(4)[:1])
    y = Measurements(np.array([2.5]))
    z = np.array([0.0, 1.0, -2.0, 3.0])
    assert np.array_equal(irwf_step(z, 0, y, A, step=0.3), z)


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_irwf_step_orthogonal_row_keeps_every_bit(field, zero):
    # a_i^* z is exactly zero, from a signed zero entry of z and from a
    # cancelling pair; one rule c = t - y t/|t| (c = t at t = 0) serves
    # both fields, and it must leave z as it was, signed zeros included
    unit = 1 + 1j if field == COMPLEX else 1.0
    y = Measurements(np.array([2.5]))
    for row, z in (
        ([1.0, 0.0, 0.0, 0.0], [zero, 1.0, -2.0, 3.0]),
        ([1.0, 1.0, 0.0, 0.0], [1.0, -1.0, zero, 3.0]),
    ):
        A = GaussianEnsemble(np.array([row]) * unit)
        z = np.array(z) * unit
        if field == COMPLEX:
            z[z == 0] = complex(zero, zero)
        assert irwf_step(z, 0, y, A, step=0.3).tobytes() == z.tobytes()


def test_irwf_step_index_errors():
    A, x, y = _instance(4, 8, REAL, seed=34)
    with pytest.raises(IndexError):
        irwf_step(x, -1, y, A)
    with pytest.raises(IndexError):
        irwf_step(x, 8, y, A)
    C, xc, yc = _instance(4, 8, CDP, seed=34)
    for bad in (1.5, np.float64(2.0), True):
        with pytest.raises(IndexError, match="not an integer"):
            irwf_step(x, bad, y, A)
        with pytest.raises(IndexError, match="not an integer"):
            kaczmarz_step(xc, bad, yc, C)
        for B in (A, C):
            with pytest.raises(IndexError, match="not an integer"):
                B.row_sqnorm(bad)
    # numpy integers index as Python ints do
    assert np.array_equal(irwf_step(x, np.int64(3), y, A), irwf_step(x, 3, y, A))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0, "0.1", True])
def test_step_functions_reject_bad_steps(bad):
    A, x, y = _instance(5, 10, REAL, seed=41)
    with pytest.raises(ValueError, match="step"):
        irwf_step(x, 0, y, A, step=bad)
    with pytest.raises(ValueError, match="step"):
        minibatch_irwf_step(x, [0, 1], y, A, step=bad)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_kaczmarz_is_irwf_with_row_step_bitwise(field):
    A, x, y = _instance(10, 30, field, seed=35)
    z = random_signal(10, field, substream(351))
    for i in (0, 13, 29):
        a = kaczmarz_step(z, i, y, A)
        b = irwf_step(z, i, y, A, step=1.0 / A.row_sqnorm(i))
        assert np.array_equal(a, b)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_kaczmarz_step_fits_the_sample(field):
    A, x, y = _instance(12, 36, field, seed=36)
    z = random_signal(12, field, substream(361))
    for i in (1, 17, 35):
        z1 = kaczmarz_step(z, i, y, A)
        assert abs(abs(np.vdot(A.row(i), z1)) - y.values[i]) < 1e-12


def test_kaczmarz_step_on_cdp_rows():
    A = make_cdp(16, 2, seed=37)
    x = random_signal(16, COMPLEX, substream(371))
    y = measure(A, x)
    z = random_signal(16, COMPLEX, substream(372))
    z1 = kaczmarz_step(z, 19, y, A)
    assert abs(abs(np.vdot(A.row(19), z1)) - y.values[19]) < 1e-11


def test_kaczmarz_zero_row_rejected():
    A = GaussianEnsemble([[0.0, 0.0], [1.0, 2.0]])
    y = Measurements(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        kaczmarz_step(np.array([1.0, 1.0]), 0, y, A)


def test_run_kaczmarz_zero_row_rejected():
    # kaczmarz_step's error, raised before the first pass: a zero row has
    # no projection, and its step 1/||a_i||^2 would turn the iterate to NaN
    A = GaussianEnsemble([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    y = measure(A, np.array([1.0, 2.0]))
    cfg = SolverConfig(algorithm="kaczmarz_pr", max_passes=3)
    with pytest.raises(ValueError, match="zero sensing row 1"):
        run(y, A, np.array([0.5, 0.5]), cfg)


def test_minibatch_singleton_equals_single_sample():
    A, x, y = _instance(9, 27, REAL, seed=38)
    z = random_signal(9, REAL, substream(381))
    for i in (0, 11, 26):
        a = minibatch_irwf_step(z, [i], y, A, step=0.02)
        b = irwf_step(z, i, y, A, step=0.02)
        assert np.linalg.norm(a - b) < 1e-13


def test_minibatch_full_batch_equals_scaled_gradient():
    A, x, y = _instance(7, 21, REAL, seed=39)
    z = random_signal(7, REAL, substream(391))
    step = 0.01
    a = minibatch_irwf_step(z, np.arange(21), y, A, step=step)
    b = z - (21 * step) * rwf_gradient(z, y, A)
    assert np.linalg.norm(a - b) < 1e-13


def test_minibatch_noop_at_truth():
    A, x, y = _instance(7, 21, REAL, seed=40)
    z1 = minibatch_irwf_step(x, [2, 5, 19], y, A)
    assert np.linalg.norm(z1 - x) <= 1e-14 * np.linalg.norm(x)


def test_minibatch_invalid_blocks():
    A, x, y = _instance(5, 10, REAL, seed=41)
    with pytest.raises(ValueError):
        minibatch_irwf_step(x, [], y, A)
    with pytest.raises(ValueError):
        minibatch_irwf_step(x, [1, 1], y, A)
    with pytest.raises(IndexError):
        minibatch_irwf_step(x, [0, 10], y, A)
    # non-integer indices are refused, not truncated to rows (0, 1)
    for bad in ([0.5, 1.7], np.array([0.0, 1.0]), [True, False]):
        with pytest.raises(IndexError, match="integers"):
            minibatch_irwf_step(x, bad, y, A)
        with pytest.raises(IndexError, match="integers"):
            block_kaczmarz_step(x, bad, y, A)


def test_block_steps_ravel_a_scalar_or_nested_block():
    # the step functions flatten a block before the ensemble's 1-D check
    A, x, y = _instance(6, 12, REAL, seed=41)
    z = random_signal(6, REAL, substream(411))
    for step in (minibatch_irwf_step, block_kaczmarz_step):
        assert np.array_equal(step(z, 3, y, A), step(z, [3], y, A))
        assert np.array_equal(step(z, [[1, 4], [7, 9]], y, A), step(z, [1, 4, 7, 9], y, A))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_block_kaczmarz_fits_the_block(field):
    A, x, y = _instance(16, 48, field, seed=42)
    z = random_signal(16, field, substream(421))
    gamma = np.array([3, 7, 20, 33, 41, 45, 1, 12])
    z1 = block_kaczmarz_step(z, gamma, y, A)
    fit = np.abs(A.block_apply(gamma, z1))
    assert np.max(np.abs(fit - y.values[gamma])) < 1e-10


def test_block_kaczmarz_singleton_reduces_to_kaczmarz():
    A, x, y = _instance(10, 20, REAL, seed=43)
    z = random_signal(10, REAL, substream(431))
    a = block_kaczmarz_step(z, [7], y, A)
    b = kaczmarz_step(z, 7, y, A)
    assert np.linalg.norm(a - b) < 1e-12


def test_block_kaczmarz_degenerate_block():
    A = GaussianEnsemble([[1.0, 0.0], [1.0, 0.0]])
    y = Measurements(np.array([1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        block_kaczmarz_step(np.array([2.0, 1.0]), [0, 1], y, A)


def test_block_kaczmarz_oversized_block():
    A, x, y = _instance(3, 9, REAL, seed=44)
    with pytest.raises(ValueError):
        block_kaczmarz_step(x, [0, 1, 2, 3], y, A)


@pytest.mark.parametrize("second", [[1.0, 1e-8], [1.0, 1e-8j]])
def test_block_kaczmarz_nearly_dependent_block(second):
    A = GaussianEnsemble([[1.0, 0.0], second])
    y = Measurements(np.array([1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        block_kaczmarz_step(np.array([2.0, 1.0], dtype=A.rows.dtype), [0, 1], y, A)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_block_kaczmarz_matches_pseudoinverse(field):
    A, x, y = _instance(20, 80, field, seed=48)
    z = random_signal(20, field, substream(481))
    gamma = np.array([5, 17, 2, 60, 33, 71, 9, 44, 28, 50, 13])
    AG = A.materialize()[gamma]
    fz = AG @ z
    want = z - np.linalg.pinv(AG) @ (fz - y.values[gamma] * phase(fz))
    got = block_kaczmarz_step(z, gamma, y, A)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_block_kaczmarz_complex_start_on_real_rows_matches_pseudoinverse():
    # the projection takes its BLAS type from z, so Im(z) is projected too
    A, x, y = _instance(20, 80, REAL, seed=49)
    z = random_signal(20, COMPLEX, substream(491))
    gamma = np.array([5, 17, 2, 60, 33, 71, 9, 44, 28, 50, 13])
    AG = A.materialize()[gamma]
    fz = AG @ z
    want = z - np.linalg.pinv(AG) @ (fz - y.values[gamma] * phase(fz))
    got = block_kaczmarz_step(z, gamma, y, A)
    assert got.dtype == np.complex128
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_cdp_full_mask_gram_is_n_identity():
    A = make_cdp(8, 3, seed=45)
    gamma = np.arange(8, 16)
    B = A.block_rows(gamma)
    M = np.conj(B)
    G = M @ np.conj(M).T
    assert np.max(np.abs(G - 8 * np.eye(8))) < 1e-10


def test_cdp_full_mask_fast_path_matches_dense_pseudoinverse():
    # dual route: same rows rebuilt as a dense ensemble take the generic
    # factorization path, the CDP ensemble takes the FFT shortcut
    n, L = 16, 2
    A = make_cdp(n, L, seed=46)
    dense = GaussianEnsemble(A.block_rows(np.arange(A.m)))
    x = random_signal(n, COMPLEX, substream(461))
    y = measure(A, x)
    z = random_signal(n, COMPLEX, substream(462))
    rng = np.random.default_rng(7)
    gamma = rng.permutation(np.arange(n, 2 * n))  # shuffled: set semantics
    z_fast = block_kaczmarz_step(z, gamma, y, A)
    z_dense = block_kaczmarz_step(z, gamma, y, dense)
    assert np.linalg.norm(z_fast - z_dense) < 1e-10 * np.linalg.norm(z_fast)


def test_cdp_shuffled_mask_block_takes_the_fft_path():
    # the projection is a function of the block as a set: any order of a
    # whole mask's indices gives the FFT result bit for bit
    n, L = 16, 3
    A = make_cdp(n, L, seed=49)
    x = random_signal(n, COMPLEX, substream(491))
    y = measure(A, x)
    z = random_signal(n, COMPLEX, substream(492))
    in_order = block_kaczmarz_step(z, np.arange(n, 2 * n), y, A)
    for seed in range(3):
        gamma = np.random.default_rng(seed).permutation(np.arange(n, 2 * n))
        assert np.array_equal(block_kaczmarz_step(z, gamma, y, A), in_order)


def test_cdp_full_mask_block_equals_minibatch_over_n():
    A = make_cdp(16, 3, seed=47)
    x = random_signal(16, COMPLEX, substream(471))
    y = measure(A, x)
    z = random_signal(16, COMPLEX, substream(472))
    gamma = np.arange(32, 48)
    a = block_kaczmarz_step(z, gamma, y, A)
    b = minibatch_irwf_step(z, gamma, y, A, step=1.0 / 16)
    assert np.linalg.norm(a - b) < 1e-12 * np.linalg.norm(a)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_kaczmarz_fit_property(seed, cplx):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 12))
    field = COMPLEX if cplx else REAL
    A = make_gaussian(n, m, field, seed=seed % 1000)
    x = random_signal(n, field, rng)
    y = measure(A, x)
    z = random_signal(n, field, rng)
    i = int(rng.integers(0, m))
    if A.row_sqnorm(i) < 1e-12:
        return
    z1 = kaczmarz_step(z, i, y, A)
    scale = max(1.0, float(np.linalg.norm(z)))
    assert np.all(np.isfinite(z1 if not cplx else z1.view(np.float64)))
    assert abs(abs(np.vdot(A.row(i), z1)) - y.values[i]) < 1e-9 * scale


# --- the run loop ------------------------------------------------------------


def test_run_zero_budget_returns_start():
    A, x, y = _instance(6, 18, REAL, seed=50)
    z0 = random_signal(6, REAL, substream(501))
    tr = run(y, A, z0, SolverConfig(max_passes=0), x_opt=x)
    assert np.array_equal(tr.iterate, z0)
    assert tr.stop_reason == "budget"
    assert tr.passes_used == 0
    assert len(tr.history) == 1 and tr.history[0][0] == 0


def test_run_initial_tolerance_hit():
    A, x, y = _instance(6, 18, REAL, seed=51)
    tr = run(y, A, x, SolverConfig(tol=1e-8), x_opt=x)
    assert tr.stop_reason == "tol"
    assert tr.passes_used == 0


def test_run_history_increasing_and_finite():
    for alg in ALGORITHMS:
        field = COMPLEX if alg == "block_kaczmarz_pr" else REAL
        A, x, y = _instance(8, 32, field, seed=52)
        z0 = random_signal(8, field, substream(521))
        cfg = SolverConfig(algorithm=alg, minibatch_k=4, max_passes=6, tol=1e-15)
        tr = run(y, A, z0, cfg, x_opt=x)
        ps = [p for p, _, _ in tr.history]
        assert ps[0] == 0
        assert all(b > a for a, b in zip(ps, ps[1:]))
        assert all(np.isfinite(e) and np.isfinite(l) for _, e, l in tr.history)


def test_run_record_every_subsampling():
    A, x, y = _instance(8, 32, REAL, seed=53)
    z0 = random_signal(8, REAL, substream(531))
    cfg = SolverConfig(algorithm="rwf", max_passes=20, tol=1e-15, record_every=7)
    tr = run(y, A, z0, cfg, x_opt=x)
    assert [p for p, _, _ in tr.history] == [0, 7, 14, 20]


def test_run_divergence_guard():
    A, x, y = _instance(16, 64, REAL, seed=54)
    z0 = random_signal(16, REAL, substream(541))
    cfg = SolverConfig(algorithm="rwf", mu=50.0, max_passes=400, tol=1e-15)
    tr = run(y, A, z0, cfg, x_opt=x)
    assert tr.stop_reason == "diverged"
    assert all(np.isfinite(e) for _, e, _ in tr.history)


def test_run_loss_gauge_without_truth():
    A, x, y = _instance(16, 128, REAL, seed=55)
    init = spectral_initialize(y, A, seed=1)
    cfg = SolverConfig(algorithm="rwf", max_passes=500, tol=1e-12)
    tr = run(y, A, init.z0, cfg)
    assert tr.stop_reason == "tol"
    assert np.isnan(tr.final_error())
    assert tr.final_loss() <= 1e-12
    assert rwf_loss(tr.iterate, y, A) == tr.final_loss()


def test_run_wf_gauges_on_intensity_loss():
    A, x, y = _instance(6, 48, REAL, seed=56)
    z0 = random_signal(6, REAL, substream(561))
    cfg = SolverConfig(algorithm="wf", max_passes=3, tol=1e-18)
    tr = run(y, A, z0, cfg)
    assert tr.history[0][2] == wf_loss(z0, y, A)


def test_run_validation_errors():
    A, x, y = _instance(6, 18, REAL, seed=57)
    with pytest.raises(ValueError):
        run(y, A, x, SolverConfig(algorithm="gradient descent"))
    with pytest.raises(ValueError):
        run(y, A, x, SolverConfig(tol=0.0))
    with pytest.raises(ValueError):
        run(y, A, x, SolverConfig(max_passes=-1))
    with pytest.raises(ValueError):
        run(y, A, x, SolverConfig(record_every=0))
    for bad in ({"minibatch_k": 1.5}, {"max_passes": 2.5}, {"record_every": 1.5},
                {"max_passes": 2.0}):
        with pytest.raises(ValueError, match="integer"):
            SolverConfig(**bad).validate()
    SolverConfig(minibatch_k=np.int64(4), max_passes=np.int32(3), record_every=np.uint8(2)).validate()
    for bad in ({"mu": np.nan}, {"mu": np.inf}, {"rho0": np.nan}, {"rho0": np.inf},
                {"tol": np.nan}, {"tol": np.inf}, {"tol": "1"}, {"rho0": None}, {"mu": "1"}):
        with pytest.raises(ValueError, match="finite"):
            run(y, A, x, SolverConfig(**bad))
    for bad in ({"minibatch_k": True}, {"max_passes": False}, {"record_every": True}):
        with pytest.raises(ValueError, match="integer"):
            SolverConfig(**bad).validate()
    with pytest.raises(ValueError):
        run(y, A, x, SolverConfig(algorithm="minibatch_irwf", minibatch_k=19))
    with pytest.raises(ValueError):
        run(y, A, x, SolverConfig(algorithm="block_kaczmarz_pr", minibatch_k=7))
    with pytest.raises(ValueError):
        run(y, A, np.ones(5), SolverConfig())
    with pytest.raises(ValueError):
        run(Measurements(np.ones(17)), A, x, SolverConfig())


K_OVER_M = "minibatch_k exceeds measurement count"
K_OVER_N = "block size exceeds n (row-independence regime)"


# (m, n, k, the message of each algorithm that refuses k); the others accept it
BLOCK_BOUNDS = [
    (12, 6, 13, {"minibatch_irwf": K_OVER_M, "block_kaczmarz_pr": K_OVER_M}),
    (12, 6, 7, {"block_kaczmarz_pr": K_OVER_N}),
    (12, 6, 6, {}),
    (6, 12, 7, {"minibatch_irwf": K_OVER_M, "block_kaczmarz_pr": K_OVER_M}),
    (6, 12, 13, {"minibatch_irwf": K_OVER_M, "block_kaczmarz_pr": K_OVER_M}),
    (6, 12, 6, {}),
    (None, 6, 7, {"block_kaczmarz_pr": K_OVER_N}),
    (12, None, 13, {"minibatch_irwf": K_OVER_M, "block_kaczmarz_pr": K_OVER_M}),
    (None, None, 13, {}),
]


@pytest.mark.parametrize("m, n, k, refused", BLOCK_BOUNDS)
def test_validate_bounds_the_block_size(m, n, k, refused):
    assert ALGORITHMS == ("rwf", "wf", "irwf", "minibatch_irwf", "kaczmarz_pr", "block_kaczmarz_pr")
    for alg in ALGORITHMS:
        cfg = SolverConfig(algorithm=alg, minibatch_k=k)
        if alg in refused:
            with pytest.raises(ValueError, match="^%s$" % re.escape(refused[alg])):
                cfg.validate(m, n)
        else:
            cfg.validate(m, n)


def test_run_monitors_through_the_module_loss(monkeypatch):
    # run() looks its loss up in the module, so a wrapper installed there (a
    # profiler's span) sees every recorded pass
    calls = []
    for name in ("amplitude_loss", "intensity_loss"):
        loss = getattr(solvers, name)
        monkeypatch.setattr(solvers, name, lambda fz, y, loss=loss, name=name: calls.append(name) or loss(fz, y))
    A, x, y = _instance(8, 48, REAL, seed=59)
    z0 = random_signal(8, REAL, substream(591))
    for alg in ("rwf", "wf", "kaczmarz_pr"):
        run(y, A, z0, SolverConfig(algorithm=alg, max_passes=2, tol=1e-300))
    assert calls == ["amplitude_loss"] * 3 + ["intensity_loss"] * 3 + ["amplitude_loss"] * 3


def test_run_is_deterministic():
    A, x, y = _instance(10, 40, COMPLEX, seed=58)
    z0 = random_signal(10, COMPLEX, substream(581))
    cfg = SolverConfig(algorithm="irwf", max_passes=3, tol=1e-15, seed=17)
    tr1 = run(y, A, z0, cfg, x_opt=x)
    tr2 = run(y, A, z0, cfg, x_opt=x)
    assert np.array_equal(tr1.iterate, tr2.iterate)
    assert tr1.history == tr2.history
    tr3 = run(y, A, z0, SolverConfig(algorithm="irwf", max_passes=3, tol=1e-15, seed=18), x_opt=x)
    assert not np.array_equal(tr1.iterate, tr3.iterate)


class _CountingEnsemble(Ensemble):
    """Delegates to an ensemble and counts its forward and adjoint products;
    an Ensemble itself, since every function that takes one checks."""

    def __init__(self, A):
        self.n, self.m, self.kind = A.n, A.m, A.kind
        self._A = A
        self.applies = 0
        self.adjoints = 0

    def __getattr__(self, name):
        return getattr(self._A, name)

    def apply(self, z):
        self.applies += 1
        return self._A.apply(z)

    def adjoint_apply(self, v):
        self.adjoints += 1
        return self._A.adjoint_apply(v)


@pytest.mark.parametrize("alg", ["rwf", "wf"])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_run_batch_pass_reuses_monitored_product(alg, field):
    # every pass needs one A z: the monitored one when the previous pass was
    # recorded, its own otherwise; so P passes take P + 1 forward products
    # at any stride, and the iterate does not depend on the stride
    P = 7
    A, x, y = _instance(8, 48, field, seed=57)
    z0 = random_signal(8, field, substream(571))
    iterates = []
    for every in (1, 3, P):
        counted = _CountingEnsemble(A)
        cfg = SolverConfig(algorithm=alg, max_passes=P, tol=1e-300, record_every=every)
        tr = run(y, counted, z0, cfg, x_opt=x)
        assert tr.passes_used == P
        assert (counted.applies, counted.adjoints) == (P + 1, P)
        iterates.append(tr.iterate)
    assert all(np.array_equal(iterates[0], z) for z in iterates[1:])


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda x: np.where(np.arange(8) == 3, np.nan, x), "non-finite"),
        (lambda x: np.where(np.arange(8) == 5, -np.inf, x), "non-finite"),
        (lambda x: np.zeros(8), "zero reference signal"),
        (lambda x: x[:7], "matching length"),
        (lambda x: x.astype(np.complex128), "same field"),
    ],
    ids=["nan", "inf", "zero", "wrong-length", "wrong-field"],
)
def test_run_rejects_bad_reference_before_any_pass(bad, message):
    # a non-finite x_opt used to run a pass and report a divergence
    A, x, y = _instance(8, 40, REAL, seed=59)
    z0 = random_signal(8, REAL, substream(591))
    counted = _CountingEnsemble(A)
    with pytest.raises(ValueError, match=message):
        run(y, counted, z0, SolverConfig(max_passes=5), x_opt=bad(x))
    assert (counted.applies, counted.adjoints) == (0, 0)


def test_run_checks_the_reference_pair_once(monkeypatch):
    # the monitor calls the unchecked distance kernel on every recorded pass;
    # the (z, x_opt) pair is checked once, before the first pass
    calls, check = [], core._check_pair

    def counted(z, x, name="x"):
        calls.append(name)
        return check(z, x, name)

    A, x, y = _instance(8, 40, REAL, seed=61)
    monkeypatch.setattr(solvers, "_check_pair", counted)
    monkeypatch.setattr(core, "_check_pair", counted)
    tr = run(y, A, random_signal(8, REAL, substream(611)), SolverConfig(max_passes=5, tol=1e-300),
             x_opt=x)
    assert len(tr.history) == 6
    assert calls == ["x_opt"]


@pytest.mark.parametrize("alg", ["rwf", "wf", "irwf", "kaczmarz_pr"])
@pytest.mark.parametrize("field", [REAL, COMPLEX, CDP])
def test_run_history_equals_public_definitions(alg, field):
    # run() monitors without calling relative_error or np.mean; its record
    # must still be the public definitions' bits at the returned iterate
    A, x, y = _instance(8, 32, field, seed=60)
    z0 = random_signal(8, A.field, substream(601))
    loss = intensity_loss if alg == "wf" else amplitude_loss
    for p in range(4):
        cfg = SolverConfig(algorithm=alg, max_passes=p, tol=1e-300, seed=5)
        tr = run(y, A, z0, cfg, x_opt=x)
        assert tr.passes_used == p
        last = tr.history[-1]
        assert last[0] == p
        assert last[1] == relative_error(tr.iterate, x)
        assert last[2] == loss(A.apply(tr.iterate), y.values)


# --- run loop vs public step functions (bitwise replay) ----------------------


@pytest.mark.parametrize("field", [REAL, COMPLEX, CDP])
def test_run_irwf_replays_step_function(field):
    # run() takes Gaussian rows through rows.__getitem__ and CDP rows
    # through A.row; the step function always through A.row
    n, m = 12, 48
    A, x, y = _instance(n, m, field, seed=60)
    z0 = random_signal(n, A.field, substream(601))
    cfg = SolverConfig(algorithm="irwf", rho0=1.3, max_passes=1, tol=1e-16, seed=99)
    tr = run(y, A, z0, cfg, x_opt=x)
    rng = substream(99, "solver")
    z = z0.copy()
    for i in rng.integers(0, m, size=m):
        z = irwf_step(z, int(i), y, A, step=1.3 / n)
    assert np.array_equal(tr.iterate, z)


@pytest.mark.parametrize("field", [REAL, COMPLEX, CDP])
def test_run_kaczmarz_replays_step_function(field):
    n, m = 12, 48
    A, x, y = _instance(n, m, field, seed=61)
    z0 = random_signal(n, A.field, substream(611))
    cfg = SolverConfig(algorithm="kaczmarz_pr", max_passes=1, tol=1e-16, seed=41)
    tr = run(y, A, z0, cfg, x_opt=x)
    rng = substream(41, "solver")
    z = z0.copy()
    for i in rng.integers(0, m, size=m):
        z = kaczmarz_step(z, int(i), y, A)
    assert np.array_equal(tr.iterate, z)


def test_run_complex_start_on_real_rows_replays_step_function():
    # the per-sample loop follows the iterate's field: a complex start on
    # real rows must keep Im(a_i^T z), as irwf_step does
    n, m = 12, 48
    A, x, y = _instance(n, m, REAL, seed=66)
    z0 = random_signal(n, COMPLEX, substream(661))
    cfg = SolverConfig(algorithm="irwf", max_passes=1, tol=1e-16, seed=7)
    tr = run(y, A, z0, cfg)
    rng = substream(7, "solver")
    z = z0.copy()
    for i in rng.integers(0, m, size=m):
        z = irwf_step(z, int(i), y, A, step=1.0 / n)
    assert np.array_equal(tr.iterate, z)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_run_minibatch_replays_step_function(field):
    n, m, k = 10, 35, 4  # ceil(35/4) = 9 updates per pass
    A, x, y = _instance(n, m, field, seed=62)
    z0 = random_signal(n, field, substream(621))
    cfg = SolverConfig(algorithm="minibatch_irwf", minibatch_k=k, rho0=0.7,
                       max_passes=1, tol=1e-16, seed=5)
    tr = run(y, A, z0, cfg, x_opt=x)
    rng = substream(5, "solver")
    z = z0.copy()
    for _ in range(9):
        gamma = rng.choice(m, size=k, replace=False)
        z = minibatch_irwf_step(z, gamma, y, A, step=0.7 / n)
    assert np.array_equal(tr.iterate, z)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_run_block_kaczmarz_replays_generic_step(field):
    n, m, k = 10, 40, 3
    A, x, y = _instance(n, m, field, seed=63)
    z0 = random_signal(n, field, substream(631))
    cfg = SolverConfig(algorithm="block_kaczmarz_pr", minibatch_k=k,
                       max_passes=1, tol=1e-16, seed=6)
    tr = run(y, A, z0, cfg, x_opt=x)
    rng = substream(6, "solver")
    z = z0.copy()
    for _ in range(-(-m // k)):
        gamma = rng.choice(m, size=k, replace=False)
        z = block_kaczmarz_step(z, gamma, y, A)
    assert np.array_equal(tr.iterate, z)


def test_run_block_kaczmarz_cdp_whole_mask_replay():
    n, L = 16, 4
    A = make_cdp(n, L, seed=64)
    x = random_signal(n, COMPLEX, substream(641))
    y = measure(A, x)
    z0 = random_signal(n, COMPLEX, substream(642))
    cfg = SolverConfig(algorithm="block_kaczmarz_pr", minibatch_k=n,
                       max_passes=2, tol=1e-16, seed=8)
    tr = run(y, A, z0, cfg, x_opt=x)
    rng = substream(8, "solver")
    z = z0.copy()
    for _ in range(2 * L):  # ceil(m/n) = L updates per pass, two passes
        l = int(rng.integers(0, L))
        z = block_kaczmarz_step(z, np.arange(l * n, (l + 1) * n), y, A)
    assert np.array_equal(tr.iterate, z)


# --- per-sample kernel against a plain numpy reference ------------------------


def _reference_sample_pass(z, idx, y, steps, rows):
    # the per-sample recursion in plain numpy: t = a_i^* z by np.vdot, which
    # conjugates a_i, then z - (c s_i) a_i
    for i in idx:
        t = np.vdot(rows[i], z)
        c = t - y[i] * phase(t)
        z = z - (c * steps[i]) * rows[i]
    return z


@pytest.mark.parametrize("alg", ["irwf", "kaczmarz_pr"])
@pytest.mark.parametrize(
    "field, start",
    [(REAL, REAL), (COMPLEX, COMPLEX), (CDP, COMPLEX), (REAL, COMPLEX)],
    ids=["real", "complex", "cdp", "complex-start-on-real-rows"],
)
def test_sample_updates_match_numpy_reference(alg, field, start):
    # the step functions and run() share one BLAS kernel, so replaying one
    # against the other cannot catch a wrong conjugation or axpy sign; the
    # reference takes its rows from the dense oracle, not from A.row
    n, m = 12, 48
    A, x, y = _instance(n, m, field, seed=67)
    rows = np.conj(A.materialize())
    z0 = random_signal(n, start, substream(671))
    if alg == "irwf":
        steps = np.full(m, 1.3 / n)
        step = lambda z, i: irwf_step(z, i, y, A, step=1.3 / n)  # noqa: E731
    else:
        steps = 1.0 / A.row_sqnorms()
        step = lambda z, i: kaczmarz_step(z, i, y, A)  # noqa: E731
    idx = substream(13, "solver").integers(0, m, size=m)
    want = _reference_sample_pass(z0, idx, y.values, steps, rows)
    z = z0
    for i in idx:
        z = step(z, int(i))
    tr = run(y, A, z0, SolverConfig(algorithm=alg, rho0=1.3, max_passes=1, tol=1e-300, seed=13))
    assert tr.passes_used == 1
    for got in (z, tr.iterate):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("alg, grad", [("rwf", rwf_gradient), ("wf", wf_gradient)])
@pytest.mark.parametrize("field", [REAL, COMPLEX, CDP])
def test_run_batch_pass_is_a_gradient_step(alg, grad, field):
    # run() scales A^* r by mu/m, the gradient divides it by m: equal up to
    # rounding, not bit for bit
    n, m = 12, 48
    A, x, y = _instance(n, m, field, seed=65)
    z0 = random_signal(n, A.field, substream(651))
    cfg = SolverConfig(algorithm=alg, mu=0.7, max_passes=1, tol=1e-300)
    tr = run(y, A, z0, cfg, x_opt=x)
    mu = 0.7 if alg == "rwf" else 0.7 / np.linalg.norm(z0) ** 2
    want = z0 - mu * grad(z0, y, A)
    assert tr.passes_used == 1
    assert np.linalg.norm(tr.iterate - want) <= 1e-14 * np.linalg.norm(want)


# --- contraction and basin behavior ------------------------------------------


def test_rwf_basin_contraction():
    # from a 5% perturbation, 30 batch steps should gain well over one digit
    n, m = 256, 8 * 256
    hits = 0
    for t in range(100):
        A = make_gaussian(n, m, REAL, seed=5000 + t)
        x = random_signal(n, REAL, substream(51, t))
        y = measure(A, x)
        p = random_signal(n, REAL, substream(52, t))
        p /= np.linalg.norm(p)
        z0 = x + 0.05 * np.linalg.norm(x) * p
        e0 = relative_error(z0, x)
        cfg = SolverConfig(algorithm="rwf", max_passes=30, tol=1e-15, record_every=30)
        tr = run(y, A, z0, cfg, x_opt=x)
        if relative_error(tr.iterate, x) <= e0 / 10:
            hits += 1
    assert hits >= 95


def test_irwf_per_pass_contraction_is_geometric():
    n, m = 256, 8 * 256
    errs = np.zeros((100, 6))
    for t in range(100):
        A = make_gaussian(n, m, REAL, seed=5400 + t)
        x = random_signal(n, REAL, substream(55, t))
        y = measure(A, x)
        p = random_signal(n, REAL, substream(56, t))
        p /= np.linalg.norm(p)
        z0 = x + 0.05 * np.linalg.norm(x) * p
        cfg = SolverConfig(algorithm="irwf", max_passes=5, tol=1e-15,
                           seed=700 + t, record_every=1)
        tr = run(y, A, z0, cfg, x_opt=x)
        for pp, e, _ in tr.history:
            errs[t, pp] = e
    med = np.median(errs, axis=0)
    assert med[1] < med[0]
    assert all(b < a for a, b in zip(med, med[1:]))
    assert med[5] < 1e-5 * med[0]


def test_minibatch_matches_single_sample_pass_count():
    # per-pass progress with k=64 keeps up with k=1 at the same rho0: the
    # paired pass counts to 1e-10 agree (measured: both 7 on all 50 seeds)
    n, m = 256, 8 * 256
    p1, p64 = [], []
    for t in range(50):
        A = make_gaussian(n, m, REAL, seed=5200 + t)
        x = random_signal(n, REAL, substream(53, t))
        y = measure(A, x)
        p = random_signal(n, REAL, substream(54, t))
        p /= np.linalg.norm(p)
        z0 = x + 0.05 * np.linalg.norm(x) * p
        for k, acc in ((1, p1), (64, p64)):
            cfg = SolverConfig(algorithm="minibatch_irwf", minibatch_k=k,
                               max_passes=30, tol=1e-10, seed=900 + t, record_every=1)
            tr = run(y, A, z0, cfg, x_opt=x)
            acc.append(tr.passes_to(1e-10))
    assert None not in p1 and None not in p64
    assert np.median(p64) <= np.median(p1) + 1


def test_kaczmarz_one_pass_squared_distance_contraction():
    n, m = 256, 8 * 256
    before, after = [], []
    for t in range(100):
        A = make_gaussian(n, m, REAL, seed=5600 + t)
        x = random_signal(n, REAL, substream(57, t))
        y = measure(A, x)
        p = random_signal(n, REAL, substream(58, t))
        p /= np.linalg.norm(p)
        z0 = x + 0.1 * np.linalg.norm(x) * p
        before.append(dist_up_to_phase(z0, x) ** 2)
        cfg = SolverConfig(algorithm="kaczmarz_pr", max_passes=1, tol=1e-15, seed=800 + t)
        tr = run(y, A, z0, cfg, x_opt=x)
        after.append(dist_up_to_phase(tr.iterate, x) ** 2)
    assert np.median(after) < 0.1 * np.median(before)


def test_rwf_converges_from_spectral_init():
    # m = 6n sits above the recovery threshold; every trial should land
    n, m = 256, 6 * 256
    for t in range(10):
        A = make_gaussian(n, m, REAL, seed=5800 + t)
        x = random_signal(n, REAL, substream(59, t))
        y = measure(A, x)
        init = spectral_initialize(y, A, seed=t)
        cfg = SolverConfig(algorithm="rwf", max_passes=1000, tol=1e-5, record_every=1)
        tr = run(y, A, init.z0, cfg, x_opt=x)
        assert tr.stop_reason == "tol"
        assert relative_error(tr.iterate, x) <= 1e-5


def test_sign_agreement_near_truth():
    # at ||z - x|| = 0.1 ||x|| only a few percent of samples flip sign
    n, m = 256, 8 * 256
    fracs = []
    for t in range(100):
        A = make_gaussian(n, m, REAL, seed=6000 + t)
        x = random_signal(n, REAL, substream(61, t))
        p = random_signal(n, REAL, substream(62, t))
        p /= np.linalg.norm(p)
        z = x + 0.1 * np.linalg.norm(x) * p
        fracs.append(float(np.mean(A.apply(x) * A.apply(z) < 0)))
    assert np.mean(fracs) < 0.05
    assert max(fracs) < 0.05


def test_bounded_noise_plateau():
    # noise floor: the iterate stalls near the noise level instead of
    # converging or blowing up
    n, m = 256, 8 * 256
    A = make_gaussian(n, m, REAL, seed=5900)
    x = random_signal(n, REAL, substream(60, 0))
    level = 0.01 * float(np.linalg.norm(x))
    y = measure(A, x, NoiseSpec(kind="bounded", level=level, seed=4))
    init = spectral_initialize(y, A, seed=0)
    cfg = SolverConfig(algorithm="rwf", max_passes=200, tol=1e-12, record_every=1)
    tr = run(y, A, init.z0, cfg, x_opt=x)
    final = relative_error(tr.iterate, x)
    assert 1e-6 <= final <= 0.1
