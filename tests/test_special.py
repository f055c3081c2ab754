"""K0 and erfc: domain errors, identities, reference values and monotonicity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import phasekit
from phasekit.special import bessel_k0, bessel_k0e, erfc


def test_k0_scaled_consistency():
    for x in (0.5, 1.0, 3.0, 10.0):
        assert bessel_k0e(x) == pytest.approx(math.exp(x) * bessel_k0(x), rel=1e-13)


def test_k0e_large_argument_asymptote():
    x = 1e8
    assert abs(bessel_k0e(x) * math.sqrt(x) - math.sqrt(math.pi / 2)) < 1e-8


def test_k0_positive_and_decreasing():
    xs = np.logspace(-4, 2, 60)
    vals = [bessel_k0(x) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_k0_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            bessel_k0(bad)
        with pytest.raises(ValueError):
            bessel_k0e(bad)


def test_k0_first_moment_integrates_to_one():
    # int_0^inf t K0(t) dt = 1, integrated in two pieces
    lo, err_lo = scipy.integrate.quad(lambda t: t * bessel_k0(t), 0.0, 2.0)
    hi, err_hi = scipy.integrate.quad(lambda t: t * bessel_k0(t), 2.0, np.inf)
    assert err_lo + err_hi < 1e-9
    assert abs(lo + hi - 1.0) < 1e-8


def test_erfc_matches_math_erfc():
    grid = np.concatenate([np.linspace(-6, 6, 241), np.linspace(6, 26, 81)])
    for z in grid:
        ref = math.erfc(float(z))
        assert abs(erfc(float(z)) - ref) <= 1e-12 * max(abs(ref), 1e-300)


def test_erfc_spot_values():
    assert erfc(0.0) == 1.0
    assert erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-13)


def test_erfc_reflection_sums_to_two():
    for z in (0.1, 0.5, 1.0, 2.5, 7.0):
        assert erfc(z) + erfc(-z) == 2.0


def test_erfc_monotone_and_bounded():
    # the tails saturate at 0 and 2 in double precision, so strictness is
    # only meaningful in the central range
    zs = np.linspace(-8, 8, 200)
    vals = [erfc(float(z)) for z in zs]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 2.0 for v in vals)
    core = [erfc(float(z)) for z in np.linspace(-5, 5, 100)]
    assert all(b < a for a, b in zip(core, core[1:]))


_LAZY_IMPORT_CHECK = """
import sys
import phasekit
assert "scipy.special" not in sys.modules, "import phasekit loaded scipy.special"
from phasekit.special import bessel_k0e, erfc
got = (bessel_k0e(1.0).hex(), erfc(0.5).hex())
assert "scipy.special" in sys.modules, "the first call did not load scipy.special"
import scipy.special
assert got == (float(scipy.special.k0e(1.0)).hex(), float(scipy.special.erfc(0.5)).hex()), got
"""


def test_import_leaves_scipy_special_unloaded_until_first_call():
    # a fresh interpreter, since this one has scipy.special loaded already
    src = str(Path(phasekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
