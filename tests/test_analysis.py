"""Expected-loss oracles, the |uv| density, and the sign-flip tail bound.

E|uv| is checked against the closed form
E|uv| = (2/pi) (sqrt(1-rho^2) + rho arcsin rho), against the first moment
of the |uv| density (a K0 route integrated by scipy), and by Monte Carlo.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from phasekit.analysis import (
    CorrelationState,
    abs_product_moment,
    expected_rwf_loss,
    expected_wf_loss,
    loss_surface_rows,
    monte_carlo_expected_rwf_loss,
    product_magnitude_density,
    sign_flip_bound,
)


def closed_form_abs_moment(rho):
    return (2.0 / math.pi) * (math.sqrt(1.0 - rho * rho) + rho * math.asin(rho))


def test_abs_product_moment_matches_closed_form():
    for rho in np.linspace(-0.99, 0.99, 41):
        assert abs(abs_product_moment(rho) - closed_form_abs_moment(rho)) < 1e-12


def test_abs_product_moment_range_and_monotone():
    vals = [abs_product_moment(r) for r in np.linspace(0.0, 1.0, 50)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_abs_product_moment_degenerate_branch():
    assert abs_product_moment(1.0) == 1.0
    assert abs_product_moment(-1.0) == 1.0
    # 1 - eps + O(eps^1.5), not the clamp to 1
    assert abs(abs_product_moment(1.0 - 1e-9) - (1.0 - 1e-9)) < 1e-13


def test_abs_product_moment_near_unit_correlation():
    # 1 - |rho| across [1e-10, 0.3], where an earlier quadrature route raised
    gaps = np.logspace(-10, math.log10(0.3), 142)[::-1]
    for sign in (1.0, -1.0):
        rhos = sign * (1.0 - gaps)  # |rho| increasing
        moments = [abs_product_moment(r) for r in rhos]
        losses = [expected_rwf_loss(CorrelationState(r)) for r in rhos]
        assert all(math.isfinite(v) and 2.0 / math.pi <= v <= 1.0 for v in moments)
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 - 2.0 / math.pi for v in losses)
        assert all(b >= a for a, b in zip(moments, moments[1:]))
        assert all(b <= a for a, b in zip(losses, losses[1:]))
    for rho in (0.99, 0.996, 0.999, -0.999):
        first, _ = scipy.integrate.quad(
            lambda x: x * product_magnitude_density(x, rho),
            0.0,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=200,
        )
        assert abs(first - abs_product_moment(rho)) < 5e-13
    assert abs_product_moment(1.0 + 1e-13) == 1.0
    assert abs_product_moment(-1.0 - 1e-13) == 1.0


def test_abs_product_moment_rejects_out_of_range():
    with pytest.raises(ValueError):
        abs_product_moment(1.001)


def test_correlation_state_validation():
    s = CorrelationState(1.0 + 1e-13)
    assert s.rho == 1.0
    with pytest.raises(ValueError):
        CorrelationState(1.1)
    with pytest.raises(ValueError):
        CorrelationState(0.0, norm_x=0.0)
    with pytest.raises(ValueError):
        CorrelationState(0.0, norm_z=-1.0)
    assert CorrelationState(0.0, norm_z=0.0).norm_z == 0.0


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda: CorrelationState(NAN),
        lambda: CorrelationState(0.0, norm_x=NAN),
        lambda: CorrelationState(0.0, norm_z=NAN),
        lambda: CorrelationState(0.0, norm_x=math.inf),
        lambda: CorrelationState(0.0, norm_z=math.inf),
        lambda: abs_product_moment(NAN),
        lambda: loss_surface_rows([NAN], [1.0]),
        lambda: loss_surface_rows([0.0], [NAN]),
        lambda: loss_surface_rows([0.0], [1.0], norm_x=NAN),
        lambda: product_magnitude_density(NAN, 0.5),
        lambda: product_magnitude_density(1.0, NAN),
        lambda: sign_flip_bound(NAN, 1.0, 0.1),
        lambda: sign_flip_bound(0.1, NAN, 0.1),
        lambda: sign_flip_bound(0.1, 1.0, NAN),
    ],
    ids=["rho", "norm_x", "norm_z", "inf-norm_x", "inf-norm_z", "moment", "surface-rho",
         "surface-norm_z", "surface-norm_x", "density-x", "density-rho", "bound-t",
         "bound-norm_x", "bound-norm_h"],
)
def test_nan_arguments_raise(call):
    # NaN fails every comparison, so each check is a negated range test
    with pytest.raises(ValueError):
        call()

def test_expected_rwf_loss_spot_values():
    assert expected_rwf_loss(CorrelationState(1.0)) == 0.0
    assert expected_rwf_loss(CorrelationState(-1.0, norm_x=2.5, norm_z=2.5)) == 0.0
    assert expected_rwf_loss(CorrelationState(0.3, norm_x=2.0, norm_z=0.0)) == 2.0
    expected = 1.0 - 2.0 / math.pi
    assert expected_rwf_loss(CorrelationState(0.0)) == pytest.approx(expected, abs=1e-12)


def test_expected_rwf_loss_even_and_nonnegative():
    for rho in (0.2, 0.55, 0.93):
        assert expected_rwf_loss(CorrelationState(rho)) == expected_rwf_loss(
            CorrelationState(-rho)
        )
    for rho in np.linspace(-1, 1, 21):
        for nz in (0.0, 0.4, 1.0, 2.3):
            assert expected_rwf_loss(CorrelationState(rho, norm_z=nz)) >= 0.0


def test_expected_wf_loss_spot_values():
    assert expected_wf_loss(CorrelationState(1.0)) == 0.0
    assert expected_wf_loss(CorrelationState(0.9, norm_x=1.3, norm_z=0.0)) == 0.75 * 1.3**4
    assert expected_wf_loss(CorrelationState(0.0)) == 1.0


def test_density_normalizes():
    for rho in (0.0, 0.5, 0.9):
        head, e1 = scipy.integrate.quad(
            product_magnitude_density, 0.0, 1.0, args=(rho,), limit=200
        )
        tail, e2 = scipy.integrate.quad(
            product_magnitude_density, 1.0, np.inf, args=(rho,), limit=200
        )
        assert e1 + e2 < 1e-7
        assert abs(head + tail - 1.0) < 1e-6


def test_density_even_in_rho():
    for x in (0.05, 0.7, 3.0):
        assert product_magnitude_density(x, 0.6) == product_magnitude_density(x, -0.6)


def test_density_first_moment_at_zero_rho():
    head, _ = scipy.integrate.quad(
        lambda x: x * product_magnitude_density(x, 0.0), 0.0, 1.0, limit=200
    )
    tail, _ = scipy.integrate.quad(
        lambda x: x * product_magnitude_density(x, 0.0), 1.0, np.inf, limit=200
    )
    assert abs(head + tail - 2.0 / math.pi) < 1e-6


def test_density_matches_abs_moment_for_general_rho():
    # first moment of the density must equal the quadrature E|uv| route
    rho = 0.7
    head, _ = scipy.integrate.quad(
        lambda x: x * product_magnitude_density(x, rho), 0.0, 1.0, limit=200
    )
    tail, _ = scipy.integrate.quad(
        lambda x: x * product_magnitude_density(x, rho), 1.0, np.inf, limit=200
    )
    assert abs(head + tail - abs_product_moment(rho)) < 1e-8


def test_density_argument_errors():
    with pytest.raises(ValueError):
        product_magnitude_density(0.0, 0.5)
    with pytest.raises(ValueError):
        product_magnitude_density(-1.0, 0.5)
    with pytest.raises(ValueError):
        product_magnitude_density(1.0, 1.0)
    with pytest.raises(ValueError):
        product_magnitude_density(1.0, -1.0)


def test_sign_flip_bound_spot_value():
    # sqrt(t) nx / (2 nh) = 1 at t=0.04, nx=1, nh=0.1
    assert sign_flip_bound(0.04, 1.0, 0.1) == pytest.approx(0.15729920705028513, rel=1e-12)


def test_sign_flip_bound_regime_and_errors():
    with pytest.raises(ValueError):
        sign_flip_bound(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        sign_flip_bound(0.1, 0.0, 0.1)
    with pytest.raises(ValueError):
        sign_flip_bound(0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        sign_flip_bound(0.1, 1.0, 0.3)  # above (sqrt(2)-1)/sqrt(2) ~ 0.2929


def test_sign_flip_bound_monotonicities():
    ts = np.linspace(0.01, 1.0, 25)
    bt = [sign_flip_bound(float(t), 1.0, 0.1) for t in ts]
    assert all(b <= a for a, b in zip(bt, bt[1:]))
    nxs = np.linspace(0.5, 3.0, 25)
    bx = [sign_flip_bound(0.2, float(nx), 0.1) for nx in nxs]
    assert all(b <= a for a, b in zip(bx, bx[1:]))
    nhs = np.linspace(0.01, 0.29, 25)
    bh = [sign_flip_bound(0.2, 1.0, float(nh)) for nh in nhs]
    assert all(b >= a for a, b in zip(bh, bh[1:]))


def test_monte_carlo_degenerate_rho_is_exact():
    est, se = monte_carlo_expected_rwf_loss(CorrelationState(1.0), 10**4, seed=5)
    assert est == 0.0
    assert se == 0.0


def test_monte_carlo_determinism_and_validation():
    s = CorrelationState(0.4)
    a = monte_carlo_expected_rwf_loss(s, 10**4, seed=9)
    b = monte_carlo_expected_rwf_loss(s, 10**4, seed=9)
    assert a == b
    c = monte_carlo_expected_rwf_loss(s, 10**4, seed=10)
    assert c != a
    with pytest.raises(ValueError):
        monte_carlo_expected_rwf_loss(s, 999, seed=0)


def test_monte_carlo_agrees_with_quadrature():
    for rho in (-0.9, 0.0, 0.5):
        s = CorrelationState(rho)
        est, se = monte_carlo_expected_rwf_loss(s, 10**6, seed=101)
        assert abs(est - expected_rwf_loss(s)) <= 3.0 * se


def test_loss_surface_rows_accounting():
    rows = loss_surface_rows([-0.5, 0.0, 0.5], [0.8, 1.2], norm_x=1.0)
    assert len(rows) == 6
    assert [r["norm_z"] for r in rows] == [0.8, 0.8, 0.8, 1.2, 1.2, 1.2]
    r = rows[4]  # rho = 0.0, norm_z = 1.2
    s = CorrelationState(0.0, norm_x=1.0, norm_z=1.2)
    assert r["expected_rwf_loss"] == expected_rwf_loss(s)
    assert r["expected_wf_loss"] == expected_wf_loss(s)


_LAZY_IMPORT_CHECK = """
import math, sys
import phasekit
assert "scipy.special" not in sys.modules, "import phasekit loaded scipy.special"
loaded = [k for k in ("scipy.linalg", "scipy.sparse", "concurrent.futures") if k in sys.modules]
assert not loaded, "import phasekit loaded %s" % loaded
from phasekit.analysis import product_magnitude_density, sign_flip_bound
got = (product_magnitude_density(1.0, 0.0).hex(), sign_flip_bound(1.0, 1.0, 0.25).hex())
assert "scipy.special" in sys.modules, "the first call did not load scipy.special"
import scipy.special
want = (2.0 * math.exp(-1.0) * float(scipy.special.k0e(1.0)) / math.pi,
        float(scipy.special.erfc(2.0)))
assert got == tuple(w.hex() for w in want), got
"""


def test_import_leaves_scipy_special_unloaded_until_first_call(fresh_python):
    # a fresh interpreter, since this one has scipy.special loaded already
    fresh_python(_LAZY_IMPORT_CHECK)
