"""Signals, the phase-invariant distance, and loss evaluation.

A signal is a plain 1-D numpy array; the scalar field is carried by the
dtype (float64 = real, complex128 = complex).  Magnitude-only measurements
cannot distinguish x from e^{j phi} x (from -x in the real case), so all
error metrics here are taken modulo a global phase.

Convention used repo-wide: the inner product conjugates its second
argument, <u, w> = sum_j u_j * conj(w_j).  All norms are Euclidean and all
scalars are double precision.  Every vector argument in the library
passes as_signal, the one vector rule.
"""

import math
import numbers

import numpy as np

REAL = "real"
COMPLEX = "complex"

_TINY = np.finfo(np.float64).tiny  # smallest normal float64
# a complex division takes 1/|v|, which overflows for |v| below the normal
# range; scaling by this power of two is exact, and it lifts every nonzero
# float32 or float64 magnitude into the normal range
_SUBNORMAL_SCALE = 2.0**64


def _is_number(v, integral=False):
    """v is a real number (an integer if integral), numpy scalars included;
    a bool is neither, so a flag cannot pass for a count or a level."""
    kind = numbers.Integral if integral else numbers.Real
    return isinstance(v, kind) and not isinstance(v, bool)


def _count(value, name, low, error=ValueError):
    """int(value) for an integer (numpy integers too, not bool) >= low."""
    if not _is_number(value, integral=True):
        raise error("%s must be an integer" % name)
    if value < low:
        raise error("%s must be >= %d" % (name, low))
    return int(value)


def _level(value, name, zero_ok=False, error=ValueError):
    """float(value) for a finite number > 0 (>= 0 with zero_ok); the
    negated range test also rejects NaN."""
    if not (_is_number(value) and (value >= 0 if zero_ok else value > 0) and value < math.inf):
        rule = "finite and >= 0" if zero_ok else "positive and finite"
        raise error("%s must be %s" % (name, rule))
    return float(value)


def _instance(value, cls, name):
    """value if it is a cls, else TypeError naming name and value's type."""
    if not isinstance(value, cls):
        raise TypeError("%s must be %s, not %s" % (name, cls.__name__, type(value).__name__))
    return value


def _numeric(x, name):
    """np.asarray(x); ValueError unless its dtype is bool, int, float or complex."""
    a = np.asarray(x)
    if a.dtype.kind not in "biufc":
        raise ValueError("%s must be numeric, not dtype %s" % (name, a.dtype))
    return a


def as_signal(x, n=None, name="signal", finite=True):
    """x as a 1-D float64 vector (complex128 if x is complex).  ValueError,
    its message starting with name, for a non-numeric dtype, a shape other
    than nonempty 1-D, a length other than n, or (if finite) NaN or inf."""
    z = _numeric(x, name)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("%s must be a nonempty 1-D vector" % name)
    if n is not None and z.size != n:
        raise ValueError("%s must be of matching length %d, not %d" % (name, n, z.size))
    z = z.astype(np.complex128 if z.dtype.kind == "c" else np.float64, copy=False)
    if finite and not np.isfinite(z).all():
        raise ValueError("%s must be free of non-finite entries" % name)
    return z


def random_signal(n, field, rng):
    """Standard Gaussian signal: N(0,1) entries, or re/im each N(0, 1/2).

    ValueError unless the length n is an integer >= 1 (not a bool), and
    TypeError unless rng is a numpy Generator.
    """
    n = _count(n, "n", 1)
    _instance(rng, np.random.Generator, "rng")
    if field == REAL:
        return rng.standard_normal(n)
    if field == COMPLEX:
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    raise ValueError("unknown field %r" % (field,))


def phase(v):
    """Elementwise unit phase v/|v| with the convention phase(0) = 0.

    Real input uses sign (sign(0) = 0), so the nonsmooth point of the
    amplitude loss contributes a zero term rather than NaN.  A nonzero
    complex entry gets a unit phase, subnormal magnitudes included.  NaN in,
    NaN out: a NaN entry gives a NaN phase and raises nothing.  Any shape; a
    bool reads as 0 or 1, and a non-numeric dtype raises ValueError.
    """
    v = _numeric(v, "v")
    if v.dtype.kind == "c":
        mag = np.abs(v)
        small = mag < np.finfo(mag.dtype).tiny  # zeros too, which scaling keeps
        if small.any():
            v = v.copy()
            v[small] *= _SUBNORMAL_SCALE
            mag = np.abs(v)
        u = np.divide(v, mag, out=np.zeros_like(v), where=mag > 0)
        # a NaN magnitude fails mag > 0, and dividing by it would warn
        u[np.isnan(mag)] = complex(math.nan, math.nan)
        return u
    return np.sign(v.astype(np.float64) if v.dtype.kind == "b" else v)  # no bool loop


def _check_pair(z, x, name="x"):
    """z and x as signals of z's length and one field, NaN allowed (x named name)."""
    z = as_signal(z, name="z", finite=False)
    x = as_signal(x, z.size, name, finite=False)
    if (z.dtype.kind == "c") != (x.dtype.kind == "c"):
        raise ValueError("%s must be in the same field as z" % name)
    return z, x


def _best_phase(z, x):
    """best_phase for a checked pair, by scalar division: numpy's array one rounds differently."""
    if z.dtype.kind == "c":
        ip = np.vdot(z, x)  # conj(z) . x = <x, z>
        if abs(ip) < _TINY:
            ip = ip * _SUBNORMAL_SCALE
        a = abs(ip)
        return ip / a if a > 0 else 1.0 + 0j
    return 1.0 if np.dot(z, x) >= 0 else -1.0


def _distance(z, x):
    """dist_up_to_phase for a checked pair, ||c z - x|| with c = best_phase(z, x)."""
    return float(np.linalg.norm(_best_phase(z, x) * z - x))


def _reference_norm(x):
    """||x|| for a relative error's reference x; ValueError for a zero x."""
    nx = float(np.linalg.norm(x))
    if nx == 0:
        raise ValueError("relative error undefined for zero reference signal")
    return nx


def best_phase(z, x):
    """Unit scalar c minimizing ||c*z - x||: the sign of z.x (+1 at 0) over the
    reals, ph(<x, z>) over the complex field (1 for orthogonal signals)."""
    return _best_phase(*_check_pair(z, x))


def dist_up_to_phase(z, x):
    """Euclidean distance between z and x minimized over a global phase, in
    the aligned form ||c z - x|| with c = best_phase(z, x): min(||z - x||,
    ||z + x||) over the reals, and over the complex field free of the
    cancellation that caps sqrt(||z||^2 + ||x||^2 - 2|<z, x>|) near
    sqrt(eps)*||x||.  NaN in, NaN out: a NaN entry gives a NaN distance and
    raises nothing, so run() sees a diverged iterate through its finiteness
    check."""
    return _distance(*_check_pair(z, x))


def relative_error(z, x):
    """dist_up_to_phase(z, x) / ||x||; the reconstruction error metric.

    NaN in, NaN out, as for dist_up_to_phase; ValueError for a zero x.
    """
    z, x = _check_pair(z, x)
    return _distance(z, x) / _reference_norm(x)


def amplitude_loss(fz, y):
    """(1/2m) sum (|fz_i| - y_i)^2 given the linear measurements fz = A z."""
    r = np.abs(fz) - y
    # np.mean's own steps: the pairwise sum, then one division by the count
    return 0.5 * (float(np.add.reduce(r * r, axis=None)) / r.size)


def intensity_loss(fz, y):
    """(1/4m) sum (|fz_i|^2 - y_i^2)^2, the quartic baseline loss."""
    r = np.abs(fz) ** 2 - np.asarray(y) ** 2
    return 0.25 * float(np.mean(r * r))


def rwf_loss(z, y, A):
    """Amplitude loss (1/2m) sum (|a_i^* z| - y_i)^2 of iterate z, for an Ensemble A
    (else TypeError) and y as A._check_measurements takes it.  NaN in, NaN out."""
    from .sensing import Ensemble  # sensing imports this module
    return amplitude_loss(_instance(A, Ensemble, "A").apply(z), A._check_measurements(y))


def wf_loss(z, y, A):
    """Intensity loss (1/4m) sum (|a_i^* z|^2 - y_i^2)^2 of z; y, A and NaN as for rwf_loss."""
    from .sensing import Ensemble  # sensing imports this module
    return intensity_loss(_instance(A, Ensemble, "A").apply(z), A._check_measurements(y))
