"""K0, scaled K0 and erfc as scalar functions over scipy.special.

The Bessel functions are defined for x > 0 only.  Where scipy.special
returns inf or nan for x <= 0, these raise ValueError.  All three take
and return Python floats.

scipy.special is imported on the first call, not with this module, so
`import phasekit` does not load it (about 3.5 MB of resident memory in
every process, pool workers included).
"""


def bessel_k0(x):
    """Modified Bessel function of the second kind, order zero."""
    x = float(x)
    if x <= 0:
        raise ValueError("bessel_k0 requires x > 0")
    from scipy.special import k0

    return float(k0(x))


def bessel_k0e(x):
    """Scaled Bessel e^x K0(x); stays O(x^{-1/2}) instead of underflowing."""
    x = float(x)
    if x <= 0:
        raise ValueError("bessel_k0e requires x > 0")
    from scipy.special import k0e

    return float(k0e(x))


def erfc(z):
    """Complementary error function over the real line."""
    from scipy.special import erfc as _erfc

    return float(_erfc(float(z)))
