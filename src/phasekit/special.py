"""K0, scaled K0 and erfc as scalar functions over scipy.special.

The Bessel functions are defined for x > 0 only.  Where scipy.special
returns inf or nan for x <= 0, these raise ValueError.  All three take
and return Python floats.
"""

import scipy.special


def bessel_k0(x):
    """Modified Bessel function of the second kind, order zero."""
    x = float(x)
    if x <= 0:
        raise ValueError("bessel_k0 requires x > 0")
    return float(scipy.special.k0(x))


def bessel_k0e(x):
    """Scaled Bessel e^x K0(x); stays O(x^{-1/2}) instead of underflowing."""
    x = float(x)
    if x <= 0:
        raise ValueError("bessel_k0e requires x > 0")
    return float(scipy.special.k0e(x))


def erfc(z):
    """Complementary error function over the real line."""
    return float(scipy.special.erfc(float(z)))
