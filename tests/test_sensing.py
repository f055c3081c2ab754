"""Ensembles: construction statistics, matrix-free products, measurement."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit.core import COMPLEX, REAL
from phasekit.sensing import (
    BLOCK_ROWS,
    L1_LEAF,
    CDPEnsemble,
    GaussianEnsemble,
    Measurements,
    NoiseSpec,
    from_descriptor,
    from_rows,
    make_cdp,
    make_gaussian,
    measure,
)
from phasekit.streams import substream


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# --- construction ------------------------------------------------------------


def test_gaussian_deterministic():
    A = make_gaussian(16, 40, REAL, seed=5)
    B = make_gaussian(16, 40, REAL, seed=5)
    assert np.array_equal(A.rows, B.rows)
    assert not np.array_equal(A.rows, make_gaussian(16, 40, REAL, seed=6).rows)


def test_gaussian_real_entry_statistics():
    A = make_gaussian(100, 5000, REAL, seed=1)
    assert -0.01 <= A.rows.mean() <= 0.01
    assert 0.97 <= A.rows.var() <= 1.03


def test_gaussian_complex_entry_statistics():
    A = make_gaussian(100, 5000, COMPLEX, seed=1)
    assert 0.97 <= np.mean(np.abs(A.rows) ** 2) <= 1.03


@pytest.mark.parametrize("n, m", [(7, 600), (3, 256), (5, 257), (4, 1)])
def test_complex_gaussian_bytes_match_one_shot_draws(n, m):
    # the rows are the one-shot (re + 1j*im)/sqrt(2) from the ensemble
    # stream, bit for bit, at sizes that cross and straddle a draw block
    rng = substream(8, "ensemble")
    re = rng.standard_normal((m, n))
    im = rng.standard_normal((m, n))
    ref = (re + 1j * im) / np.sqrt(2.0)
    assert make_gaussian(n, m, COMPLEX, seed=8).rows.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "shape", [(3, 5), (256, 256), (257, 255), (1000, 131), (2051, 203), (65537, 1)]
)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_row_l1_sum_is_the_exact_abs_sum(shape, field):
    # below, at and well above 65536 elements, and sizes off a multiple of 8
    A = make_gaussian(shape[1], shape[0], field, seed=4)
    assert A.row_l1_sum() == float(np.abs(A.rows).sum())


def _peak_bytes(fn):
    """(fn(), peak bytes traced while it ran); numpy reports its buffers."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# interpreter objects around the arrays (the generator, views, frames)
SMALL = 16 * 1024


def test_complex_build_peaks_at_rows_plus_one_block():
    n = 64
    A, peak = _peak_bytes(lambda: make_gaussian(n, 40 * BLOCK_ROWS + 3, COMPLEX, seed=2))
    assert peak <= A.rows.nbytes + BLOCK_ROWS * n * 8 + SMALL


def test_row_l1_sum_adds_at_most_one_leaf():
    A = make_gaussian(64, 16 * L1_LEAF // 64 + 5, COMPLEX, seed=2)
    _, peak = _peak_bytes(A.row_l1_sum)
    assert peak <= L1_LEAF * 8 + SMALL


def test_row_sqnorms_add_only_the_norm_vector():
    # one pass over the float view of the rows, with no conjugated copy
    A = make_gaussian(64, 1000, COMPLEX, seed=2)
    _, peak = _peak_bytes(A.row_sqnorms)
    assert peak <= A.m * 8 + SMALL


@pytest.mark.parametrize(
    "A",
    [make_gaussian(37, 300, REAL, seed=6), make_gaussian(37, 300, COMPLEX, seed=6),
     from_rows(np.arange(12.0).reshape(3, 4) - 5), from_rows([[1 + 2j, -3j], [0, 4]])],
    ids=["real", "complex", "from_rows-real", "from_rows-complex"],
)
def test_row_sqnorms_are_the_squared_row_norms_once(A):
    # the per-row sum of a_ij conj(a_ij): the same bits on real rows, and the
    # same up to the order of the Re^2 and Im^2 terms on complex ones
    ref = np.einsum("ij,ij->i", A.rows, np.conj(A.rows)).real
    if A.kind == REAL:
        assert np.array_equal(A.row_sqnorms(), ref)
    else:
        np.testing.assert_allclose(A.row_sqnorms(), ref, rtol=1e-14, atol=0)
    assert A.row_sqnorms() is A.row_sqnorms()
    assert A.row_sqnorm(1) == A.row_sqnorms()[1]


@pytest.mark.parametrize("A", [make_gaussian(4, 12, COMPLEX, seed=1), make_cdp(4, 3, seed=1)],
                         ids=["gaussian", "cdp"])
def test_row_sqnorms_are_read_only(A):
    # the norms are shared by every later call and Kaczmarz step, so a
    # caller cannot zero a row's norm through them
    with pytest.raises(ValueError):
        A.row_sqnorms()[0] = 0.0
    assert A.row_sqnorm(0) > 0


def test_ensembles_and_measurements_own_their_arrays():
    # a write through an attribute, or through the array a constructor was
    # given, raises numpy's read-only ValueError or leaves the object as it was
    rows = np.arange(1.0, 13.0).reshape(3, 4)
    masks = np.exp(1j * np.arange(8.0)).reshape(2, 4)
    v = np.array([1.0, 2.0])
    G, F, C, M = GaussianEnsemble(rows, 0), from_rows(rows), CDPEnsemble(masks, 0), Measurements(v)
    R, D = make_gaussian(4, 12, COMPLEX, seed=1), make_cdp(4, 2, seed=1)
    Y = measure(R, np.ones(4))
    z = np.arange(1.0, 5.0) + 1j

    def state():
        return [G.apply(z), G.row_sqnorms().copy(), F.apply(z), C.apply(z),
                C.adjoint_apply(C.apply(z)), M.values.copy(), R.apply(z), R.row_sqnorms().copy(),
                D.adjoint_apply(D.apply(z)), Y.values.copy()]

    def scale(a):
        a *= 2

    def negate(a):
        a[...] = -1

    writes = [(scale, lambda: G.rows), (negate, lambda: G.row(0)), (negate, lambda: F.rows),
              (negate, lambda: C.masks), (negate, lambda: M.values), (scale, lambda: R.rows),
              (negate, lambda: R.row(1)), (negate, lambda: D.masks), (negate, lambda: Y.values),
              (negate, lambda: rows), (negate, lambda: masks), (negate, lambda: v)]
    for write, target in writes:
        before = state()
        try:
            write(target())
        except ValueError as exc:
            assert "read-only" in str(exc)
        assert all(np.array_equal(a, b) for a, b in zip(before, state()))


def test_gaussian_rejects_zero_dimensions():
    with pytest.raises(ValueError):
        make_gaussian(0, 5, REAL, seed=0)
    with pytest.raises(ValueError):
        make_gaussian(5, 0, REAL, seed=0)
    with pytest.raises(ValueError):
        make_gaussian(5, 5, "rational", seed=0)


def test_cdp_masks_unit_modulus():
    A = make_cdp(32, 4, seed=9)
    assert np.max(np.abs(np.abs(A.masks) - 1.0)) < 1e-12
    assert A.m == 32 * 4


def test_cdp_row_norms_exact():
    A = make_cdp(16, 2, seed=3)
    M = A.materialize()
    for i in range(A.m):
        assert abs(np.linalg.norm(M[i]) ** 2 - 16.0) < 1e-10
        assert abs(np.linalg.norm(A.row(i)) ** 2 - 16.0) < 1e-10
    assert np.array_equal(A.row_sqnorms(), np.full(A.m, 16.0))


def test_cdp_all_ones_mask_is_plain_dft():
    n = 8
    A = CDPEnsemble(np.ones((1, n), dtype=complex), seed=None)
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        col = A.apply(e)
        # a cardinal vector maps to one column of the transform matrix
        naive = np.exp(-2j * np.pi * k * np.arange(n) / n)
        assert np.max(np.abs(col - naive)) < 1e-12
        assert np.max(np.abs(np.abs(col) - 1.0)) < 1e-12


def test_descriptor_round_trip():
    for field in (REAL, COMPLEX):
        A = make_gaussian(6, 10, field, seed=12)
        assert A.descriptor()["kind"] == field
        B = from_descriptor(A.descriptor())
        assert B.kind == field
        assert np.array_equal(A.rows, B.rows)
    C = make_cdp(8, 3, seed=12)
    D = from_descriptor(C.descriptor())
    assert np.array_equal(C.masks, D.masks)
    with pytest.raises(ValueError):
        from_descriptor({"kind": "dense", "n": 2, "m": 2, "seed": 0})


# --- apply / adjoint ----------------------------------------------------------


def test_apply_zero_and_cardinal(rng):
    A = make_gaussian(5, 9, REAL, seed=2)
    assert np.array_equal(A.apply(np.zeros(5)), np.zeros(9))
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert np.array_equal(A.apply(e0), A.rows[:, 0])


def test_apply_matches_dense_oracle(rng):
    for A in (
        make_gaussian(8, 20, REAL, seed=4),
        make_gaussian(8, 20, COMPLEX, seed=4),
        make_cdp(8, 3, seed=4),
    ):
        M = A.materialize()
        z = rng.standard_normal(8)
        if A.field == COMPLEX:
            z = z + 1j * rng.standard_normal(8)
        assert _rel(A.apply(z), M @ z) < 1e-10
        v = rng.standard_normal(A.m) + (1j * rng.standard_normal(A.m) if A.field == COMPLEX else 0)
        assert _rel(A.adjoint_apply(v), np.conj(M).T @ v) < 1e-10


def test_adjoint_identity_small(rng):
    # <Az, v> == <z, A*v> with the second-argument-conjugating inner product
    for n in (8, 64):
        for A in (
            make_gaussian(n, 3 * n, REAL, seed=n),
            make_gaussian(n, 3 * n, COMPLEX, seed=n),
            make_cdp(n, 3, seed=n),
        ):
            z = rng.standard_normal(n)
            v = rng.standard_normal(A.m)
            if A.field == COMPLEX:
                z = z + 1j * rng.standard_normal(n)
                v = v + 1j * rng.standard_normal(A.m)
            lhs = np.vdot(v, A.apply(z))
            rhs = np.vdot(A.adjoint_apply(v), z)
            denom = np.linalg.norm(A.apply(z)) * np.linalg.norm(v)
            assert abs(lhs - rhs) / denom < 1e-10


def test_adjoint_single_row(rng):
    for field in (REAL, COMPLEX):
        A = make_gaussian(6, 1, field, seed=8)
        v = np.array([2.5 + (1j if field == COMPLEX else 0)])
        assert np.allclose(A.adjoint_apply(v), v[0] * A.row(0), rtol=1e-14)


def test_block_paths_match_dense(rng):
    for A in (make_gaussian(8, 20, COMPLEX, seed=13), make_cdp(8, 3, seed=13)):
        M = A.materialize()
        idx = np.array([3, 17, 5])
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert _rel(A.block_apply(idx, z), M[idx] @ z) < 1e-10
        assert _rel(A.block_adjoint(idx, u), np.conj(M[idx]).T @ u) < 1e-10


def test_cdp_rows_match_fft_apply_at_large_n():
    # a_i^* z from the synthesized row against the FFT that produces y: the
    # rows index one twiddle table, so the phase error does not grow with n
    # (exp(-2 pi i k j/n) evaluated at k j up to n^2 was off by up to 3e-12)
    n = 4096
    A = make_cdp(n, 2, seed=5)
    gen = np.random.default_rng(5)
    z = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    fz = A.apply(z)
    for i in gen.choice(A.m, size=64, replace=False):
        assert abs(np.vdot(A.row(int(i)), z) - fz[i]) <= 1e-13 * abs(fz[i])


def test_block_rows_take_a_one_dimensional_index_only():
    # a nested index once stacked (2, 2, n) rows, and a scalar one gave a
    # bare row; both are refused, so every block is (len(idx), n)
    for A in (make_gaussian(4, 8, REAL, seed=4), make_cdp(4, 2, seed=4)):
        for bad in ([[1, 2], [3, 4]], 3, np.int64(3), np.zeros((0, 2), dtype=int)):
            with pytest.raises(IndexError, match="1-D"):
                A.block_rows(bad)
            with pytest.raises(IndexError, match="1-D"):
                A.block_apply(bad, np.ones(4))
            with pytest.raises(IndexError, match="1-D"):
                A.block_adjoint(bad, np.ones(4))
        assert A.block_rows([1, 2, 3]).shape == (3, 4)


def test_cdp_block_rows_stack_rows():
    A = make_cdp(12, 3, seed=4)
    idx = [35, 0, 13, 12, 11]
    assert np.array_equal(A.block_rows(idx), np.stack([A.row(i) for i in idx]))
    for B in (A, make_gaussian(12, 36, REAL, seed=4)):
        for bad in ([0, 36], [-1]):
            with pytest.raises(IndexError):
                B.block_rows(bad)
            with pytest.raises(IndexError):
                B.block_apply(bad, np.ones(12))
            with pytest.raises(IndexError):
                B.block_adjoint(bad, np.ones(len(bad)))
        for bad in (36, -1, 10**9):
            with pytest.raises(IndexError):
                B.row_sqnorm(bad)


def test_dimension_mismatch_errors():
    A = make_gaussian(5, 9, REAL, seed=2)
    with pytest.raises(ValueError):
        A.apply(np.zeros(6))
    with pytest.raises(ValueError):
        A.adjoint_apply(np.zeros(8))
    with pytest.raises(IndexError):
        A.row(9)


def test_gaussian_isotropy():
    # (1-eps)||h||^2 <= (1/m) sum (a_i^T h)^2 <= (1+eps)||h||^2 for fixed
    # directions; the uniform (operator norm) deviation concentrates at
    # 2*sqrt(n/m) ~ 0.28 at this size, so it only gets a looser guard
    n, m = 32, 50 * 32
    A = make_gaussian(n, m, REAL, seed=21)
    cov = A.rows.T @ A.rows / m
    dirs = np.random.default_rng(77).standard_normal((64, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    quad = np.einsum("ij,jk,ik->i", dirs, cov, dirs)
    assert np.max(np.abs(quad - 1.0)) < 0.2
    assert np.linalg.norm(cov - np.eye(n), ord=2) < 0.45


# --- measurements -------------------------------------------------------------


def test_measure_clean(rng):
    A = make_gaussian(6, 14, REAL, seed=3)
    y = measure(A, np.zeros(6))
    assert y.provenance == "clean"
    assert np.array_equal(y.values, np.zeros(14))

    x = rng.standard_normal(6)
    y1 = measure(A, x)
    y3 = measure(A, 3.0 * x)
    assert np.allclose(y3.values, 3.0 * y1.values, rtol=1e-12)


def test_measure_dimension_mismatch(rng):
    A = make_gaussian(6, 14, REAL, seed=3)
    with pytest.raises(ValueError):
        measure(A, rng.standard_normal(7))


def test_bounded_noise_level_exact(rng):
    A = make_gaussian(16, 64, REAL, seed=7)
    x = 10.0 * rng.standard_normal(16)
    level = 0.05 * np.linalg.norm(x)
    y = measure(A, x, NoiseSpec("bounded", level=level, seed=30))
    assert y.provenance == "bounded"
    assert y.noise_meta["w_rms"] == pytest.approx(level, rel=1e-12)
    assert np.all(y.values >= 0)


def test_bounded_noise_halving(rng):
    A = make_gaussian(16, 64, REAL, seed=7)
    x = 10.0 * rng.standard_normal(16)
    mag = np.abs(A.apply(x))
    y1 = measure(A, x, NoiseSpec("bounded", level=0.2, seed=30))
    y2 = measure(A, x, NoiseSpec("bounded", level=0.1, seed=30))
    assert y1.noise_meta["clipped"] == 0 and y2.noise_meta["clipped"] == 0
    # same seed draws the same direction, so halving the level halves w
    assert np.allclose(y2.values - mag, 0.5 * (y1.values - mag), rtol=1e-12, atol=1e-14)


def test_bounded_noise_explicit_w():
    A = from_rows(np.eye(3))
    x = np.array([1.0, 2.0, 0.5])
    w = np.array([0.25, -0.5, -1.0])
    y = measure(A, x, NoiseSpec("bounded", w=w))
    assert np.array_equal(y.values, np.array([1.25, 1.5, 0.0]))
    assert y.noise_meta["clipped"] == 1
    with pytest.raises(ValueError):
        measure(A, x, NoiseSpec("bounded", w=np.zeros(2)))


def test_poisson_second_moment_matches_intensity():
    # one fixed row, |a^T x|^2 = 4; E[y^2] = alpha * E[Poisson(4/alpha)] = 4
    m = 100_000
    A = from_rows(np.full((m, 1), 2.0))
    y = measure(A, np.array([1.0]), NoiseSpec("poisson", alpha=0.5, seed=44))
    assert y.provenance == "poisson"
    assert np.all(y.values >= 0)
    assert np.all(np.isfinite(y.values))
    assert 3.9 <= np.mean(y.values**2) <= 4.1


def test_poisson_deterministic(rng):
    A = make_gaussian(8, 32, REAL, seed=10)
    x = rng.standard_normal(8)
    y1 = measure(A, x, NoiseSpec("poisson", alpha=0.2, seed=5))
    y2 = measure(A, x, NoiseSpec("poisson", alpha=0.2, seed=5))
    assert np.array_equal(y1.values, y2.values)


# --- value validation ----------------------------------------------------------


def test_measurements_validation():
    with pytest.raises(ValueError):
        Measurements(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        Measurements(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Measurements(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Measurements(np.array([1.0]), provenance="guessed")
    assert Measurements(np.array([0.0, 2.0])).m == 2


def test_from_rows_validation():
    # the public constructor takes the same rule
    for build in (from_rows, lambda rows: GaussianEnsemble(rows, 0)):
        for bad in (np.ones((2, 2, 2)), [[np.nan, 1.0]], [[1.0, np.inf]], [[1j * np.nan]],
                    np.zeros((0, 3)), np.zeros((3, 0)), [], np.array([["a", "b"]])):
            with pytest.raises(ValueError, match="^rows must be"):
                build(bad)
        A = build([1.0, 2.0])  # one row
        assert (A.m, A.n, A.kind) == (1, 2, REAL)
        assert build([[1j, 0]]).kind == COMPLEX


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("bounded")
    with pytest.raises(ValueError):
        NoiseSpec("poisson")
    with pytest.raises(ValueError):
        NoiseSpec("poisson", alpha=0.0)
    with pytest.raises(ValueError):
        NoiseSpec("salt")
    for level in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            NoiseSpec("bounded", level=level)
    for alpha in (-1.0, float("nan"), float("inf"), "1", True):
        with pytest.raises(ValueError):
            NoiseSpec("poisson", alpha=alpha)
    for level in ("0.1", True):
        with pytest.raises(ValueError):
            NoiseSpec("bounded", level=level)
    NoiseSpec("bounded", level=0.0)  # a zero level stays valid
    NoiseSpec("bounded", level=np.float32(0.5))
    NoiseSpec("poisson", alpha=np.int64(2))


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31),
)
def test_apply_is_linear(n, m, seed):
    rng = np.random.default_rng(seed)
    A = make_gaussian(n, m, COMPLEX, seed=seed)
    z1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = complex(rng.standard_normal(), rng.standard_normal())
    lhs = A.apply(c * z1 + z2)
    rhs = c * A.apply(z1) + A.apply(z2)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)
