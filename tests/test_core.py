"""Distance modulo global phase and losses."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasekit import core
from phasekit.core import (
    COMPLEX,
    REAL,
    as_signal,
    best_phase,
    dist_up_to_phase,
    phase,
    relative_error,
    rwf_loss,
    wf_loss,
)
from phasekit.sensing import GaussianEnsemble, Measurements, make_cdp
from phasekit.solvers import (
    block_kaczmarz_step,
    irwf_step,
    kaczmarz_step,
    minibatch_irwf_step,
    rwf_gradient,
    wf_gradient,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def signal_pairs(draw, field=REAL):
    n = draw(st.integers(min_value=1, max_value=8))
    vec = st.lists(finite, min_size=n, max_size=n)
    z = np.array(draw(vec))
    x = np.array(draw(vec))
    if field == COMPLEX:
        z = z + 1j * np.array(draw(vec))
        x = x + 1j * np.array(draw(vec))
    return z, x


# --- dist_up_to_phase ------------------------------------------------------


def test_dist_trivial_cases(rng):
    x = rng.standard_normal(6)
    assert dist_up_to_phase(x, x) == 0.0
    assert dist_up_to_phase(-x, x) == 0.0
    xc = x + 1j * rng.standard_normal(6)
    assert dist_up_to_phase(xc, xc) == 0.0
    assert dist_up_to_phase(1j * xc, xc) == 0.0


def test_dist_real_orthogonal_pair():
    z = np.array([1.0, 0.0])
    x = np.array([0.0, 1.0])
    assert dist_up_to_phase(z, x) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_dist_matches_phase_grid_search():
    # brute force min over 1e6 phases of ||z e^{-j phi} - x||
    rng = np.random.default_rng(40)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phis = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    vals = np.linalg.norm(
        np.exp(-1j * phis)[:, None] * z[None, :] - x[None, :], axis=1
    )
    assert abs(dist_up_to_phase(z, x) - vals.min()) < 1e-9


def test_dist_symmetric_in_arguments(rng):
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert dist_up_to_phase(z, x) == pytest.approx(dist_up_to_phase(x, z), rel=1e-12)


def test_dist_resolves_tiny_errors():
    # the aligned evaluation must not floor out near sqrt(eps)*||x||
    rng = np.random.default_rng(8)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    e = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    e = 1e-13 * np.linalg.norm(x) / np.linalg.norm(e) * e
    d = dist_up_to_phase(np.exp(0.7j) * (x + e), x)
    assert d < 5e-13 * np.linalg.norm(x)
    assert d > 0.0


def test_best_phase_subnormal_inner_product():
    # |<z, x>| below the normal range once made the phase division overflow
    z, x = np.array([1j]), np.array([2.2250738585e-311j])
    assert best_phase(z, x) == 1.0
    assert dist_up_to_phase(z, x) == 1.0
    assert dist_up_to_phase(-z, x) == 1.0


def test_real_dist_is_the_smaller_signed_distance_bit_for_bit():
    # the aligned form takes c = +-1 by the sign of z.x; away from
    # orthogonality that picks the smaller of ||z - x|| and ||z + x||, and
    # computes it with the same roundings as the min of the two
    rng = np.random.default_rng(23)
    checked = 0
    for t in range(3000):
        n = int(rng.integers(2, 200))
        x = rng.standard_normal(n)
        z = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        if t % 3 == 1:  # near-aligned
            z = rng.choice([-1.0, 1.0]) * x + 10.0 ** rng.uniform(-12, -2) * z
        elif t % 3 == 2:  # near-orthogonal
            z -= (z.dot(x) / x.dot(x)) * x
            z += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5, -2) * z.std() * x
        if abs(z.dot(x)) < 1e-6 * np.linalg.norm(z) * np.linalg.norm(x):
            continue
        d, s = z - x, z + x
        assert dist_up_to_phase(z, x) == math.sqrt(min(d.dot(d), s.dot(s)))
        checked += 1
    assert checked > 2900


@given(signal_pairs(COMPLEX), st.floats(min_value=0.0, max_value=2.0 * np.pi))
def test_dist_phase_invariance(pair, theta):
    z, x = pair
    c = np.exp(1j * theta)
    base = dist_up_to_phase(z, x)
    scale = max(1.0, np.linalg.norm(z) + np.linalg.norm(x))
    assert abs(dist_up_to_phase(c * z, x) - base) <= 1e-12 * scale


@given(signal_pairs(REAL), st.floats(min_value=-8.0, max_value=8.0))
def test_dist_homogeneity_real_scaling(pair, c):
    z, x = pair
    lhs = dist_up_to_phase(c * z, c * x)
    rhs = abs(c) * dist_up_to_phase(z, x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(st.one_of(signal_pairs(REAL), signal_pairs(COMPLEX)))
def test_dist_upper_bounded_by_plain_distance(pair):
    z, x = pair
    slack = 1e-12 * max(1.0, np.linalg.norm(z) + np.linalg.norm(x))
    assert dist_up_to_phase(z, x) <= np.linalg.norm(z - x) + slack


def test_dist_rejects_mismatched_inputs(rng):
    with pytest.raises(ValueError):
        dist_up_to_phase(rng.standard_normal(4), rng.standard_normal(5))
    with pytest.raises(ValueError):
        dist_up_to_phase(rng.standard_normal(4) + 0j, rng.standard_normal(4))


def test_dist_integer_input_does_not_wrap():
    # 2**32 squared is 2**64, which wraps to 0 in int64 arithmetic
    z = np.array([2**32, 0])
    assert dist_up_to_phase(z, np.array([0, 0])) == 4294967296.0
    assert relative_error(z, np.array([0, 1])) == 4294967296.0


# --- relative_error ---------------------------------------------------------


def test_relative_error_examples(rng):
    x = rng.standard_normal(7)
    assert relative_error(x, x) == 0.0
    assert relative_error(2.0 * x, x) == pytest.approx(1.0, rel=1e-14)
    assert relative_error(np.zeros(7), x) == pytest.approx(1.0, rel=1e-14)


def test_relative_error_zero_reference():
    with pytest.raises(ValueError):
        relative_error(np.ones(3), np.zeros(3))


# --- losses -----------------------------------------------------------------


def test_rwf_loss_exact_fit(rng):
    A = GaussianEnsemble(rng.standard_normal((12, 4)))
    x = rng.standard_normal(4)
    y = Measurements(np.abs(A.apply(x)))
    assert rwf_loss(x, y, A) <= 1e-30
    assert rwf_loss(-x, y, A) <= 1e-30


def test_rwf_loss_direct_substitution():
    A = GaussianEnsemble([[1.0]])
    y = Measurements(np.array([1.0]))
    assert rwf_loss(np.array([3.0]), y, A) == 2.0

    A2 = GaussianEnsemble([[1.0], [-2.0]])
    y2 = Measurements(np.array([1.0, 2.0]))
    assert rwf_loss(np.array([0.0]), y2, A2) == 1.25


@given(st.floats(min_value=0.0, max_value=2.0 * np.pi))
def test_rwf_loss_phase_invariant(theta):
    rng = np.random.default_rng(77)
    A = GaussianEnsemble(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = Measurements(np.abs(A.apply(x)))
    base = rwf_loss(z, y, A)
    assert rwf_loss(np.exp(1j * theta) * z, y, A) == pytest.approx(
        base, rel=1e-12, abs=1e-12
    )


def test_losses_nonnegative(rng):
    A = GaussianEnsemble(rng.standard_normal((10, 3)))
    x = rng.standard_normal(3)
    y = Measurements(np.abs(A.apply(x)))
    for _ in range(20):
        z = rng.standard_normal(3)
        assert rwf_loss(z, y, A) >= 0.0
        assert core.wf_loss(z, y, A) >= 0.0


# --- phase helpers ----------------------------------------------------------


def test_phase_zero_convention():
    assert phase(np.array([0.0]))[0] == 0.0
    assert phase(np.array([0.0 + 0.0j]))[0] == 0.0
    v = np.array([3.0, -2.0, 0.0])
    assert np.array_equal(phase(v), np.array([1.0, -1.0, 0.0]))
    vc = np.array([3.0 + 4.0j, 0.0, -1.0j])
    out = phase(vc)
    nz = np.abs(vc) > 0
    assert np.allclose(np.abs(out[nz]), 1.0, atol=1e-15)
    assert out[1] == 0.0


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_phase_is_unit_for_every_nonzero_complex_magnitude(dtype):
    # numpy's complex division takes 1/|v|, which overflowed to inf for a
    # subnormal |v|; the phase of every nonzero entry has modulus 1
    info = np.finfo(np.dtype(dtype).char.lower())
    mags = [info.smallest_subnormal, 3 * info.smallest_subnormal, info.tiny / 3, info.tiny,
            info.eps, 1.0, 1e3, info.max / 4]
    # the last three have |v| = inf in the dtype, from finite parts
    v = np.array([r * np.exp(1j * a) for r in mags for a in np.linspace(0, 6, 13)]
                 + [r * s for r in mags for s in (1, -1, 1j, -1j)]
                 + [info.max * s for s in (1 + 1j, -1 + 0.5j, 0.9 - 0.9j)], dtype=dtype)
    assert (v != 0).all()
    with np.errstate(all="raise"):
        out = phase(v)
    assert out.dtype == dtype
    assert (np.abs(np.abs(out) - 1) <= 4 * info.eps).all()


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_phase_of_a_nan_complex_entry_is_nan(dtype):
    # NaN in, NaN out, for a NaN real or imaginary part; the rest keep their bits
    nan = float("nan")
    v = np.array([complex(nan, 0), complex(1, nan), complex(nan, nan), 3 + 4j, 0, 1e-40j,
                  -2.5 + 1e-3j], dtype=dtype)
    with np.errstate(all="raise"):
        out = phase(v)
        finite = phase(v[3:])
    assert out.dtype == dtype
    assert np.isnan(out[:3]).all()
    assert out[3:].tobytes() == finite.tobytes()


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_phase_of_an_infinite_complex_entry_is_its_limit(dtype):
    # infinite parts read as +-1 and finite ones as 0, as sign(+-inf) = +-1;
    # a NaN part still gives NaN, and the finite entries keep their bits
    inf, nan = float("inf"), float("nan")
    v = np.array([complex(inf, 1), complex(inf, inf), complex(-inf, 0), complex(-3, -inf),
                  complex(inf, nan), 3 + 4j, 0, 1e-40j], dtype=dtype)
    with np.errstate(all="raise"):
        out = phase(v)
        limits = phase(np.array([1, 1 + 1j, -1, -1j], dtype=dtype))
        finite = phase(v[5:])
    assert out.dtype == dtype
    assert out[:4].tobytes() == limits.tobytes()
    if dtype == np.complex128:
        assert out[:3].tolist() == [1, (1 + 1j) / math.sqrt(2), -1]
    assert np.isnan(out[4])
    assert out[5:].tobytes() == finite.tobytes()


def test_best_phase_real_is_sign(rng):
    x = rng.standard_normal(5)
    assert best_phase(x, x) == 1.0
    assert best_phase(-x, x) == -1.0


# --- as_signal validation ----------------------------------------------------


def test_as_signal_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_signal(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_signal(np.array([]))
    with pytest.raises(ValueError):
        as_signal(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        as_signal(np.array([1.0, np.inf]))


def test_nan_in_nan_out():
    # documented: these metrics pass NaN through rather than raise, which
    # run()'s divergence check relies on
    x = np.array([1.0, 2.0])
    z = np.array([np.nan, 1.0])
    assert np.isnan(phase(z)[0])
    assert np.isnan(dist_up_to_phase(z, x))
    assert np.isnan(relative_error(z, x))
    assert np.isnan(dist_up_to_phase(z + 0j, x + 0j))
    # so do the losses, the gradients and the four steps, on real, complex
    # and coded-diffraction rows; block [0, 1] is a whole CDP mask at n = 2
    rows = np.array([[1.0, 0.5], [0.0, 1.0], [2.0, -1.0], [1.0, 1.0]])
    for A in (GaussianEnsemble(rows), GaussianEnsemble(rows * (1 - 2j)), make_cdp(2, 2, seed=3)):
        y = Measurements(np.abs(A.apply(x)))
        assert np.isnan(rwf_loss(z, y, A)) and np.isnan(wf_loss(z, y, A))
        for step in (rwf_gradient(z, y, A), wf_gradient(z, y, A), irwf_step(z, 0, y, A),
                     kaczmarz_step(z, 0, y, A), minibatch_irwf_step(z, [0, 1], y, A),
                     block_kaczmarz_step(z, [0, 1], y, A)):
            assert np.isnan(step).all()


def test_as_signal_field_rules():
    assert as_signal([1, 2, 3]).dtype == np.float64
    assert as_signal(np.array([1 + 1j], np.complex64)).dtype == np.complex128
