"""Sensing ensembles and the magnitude measurement model.

An ensemble represents the linear map z -> (a_i^* z)_{i<m} without ever
forming the conjugated matrix explicitly where structure allows:

* Gaussian ensembles store the rows a_i densely (row-major, so row access
  in incremental solvers is contiguous);
* coded-diffraction ensembles store L unit-modulus masks and apply the
  unnormalized DFT per mask, m = n*L, at O(m log n) per product.

The unnormalized DFT convention (|F_jk| = 1, numpy's fft) makes every
coded-diffraction row satisfy ||a_i||^2 = n exactly, matching the Gaussian
rows in expectation, so the same step-size conventions serve both models.

Measurements are magnitudes y_i = |a_i^* x|, optionally corrupted by
additive bounded noise or by a Poisson count model y_i =
sqrt(alpha * Poisson(|a_i^* x|^2 / alpha)) whose second moment matches the
clean intensity.

Every vector an ensemble takes passes core.as_signal at its length, NaN
allowed; Ensemble._check_measurements is the one rule for a y.

Ensembles and Measurements own their arrays, read-only: a constructor keeps
a read-only copy of what its caller passed in, while make_gaussian and
make_cdp hand over the arrays they drew, with no copy and no rescan, and
measure its y, read-only, with no copy.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import COMPLEX, REAL, _count, _instance, _level, as_signal
from .streams import substream

CDP = "cdp"
# every ensemble's kind (the CLI's models, in order); a Gaussian one's is its field
KINDS = (REAL, COMPLEX, CDP)
NOISE_KINDS = ("none", "bounded", "poisson")

# Rows per block of the complex draws, which bounds their temporary.
BLOCK_ROWS = 256
# Largest run of elements the l1 sum takes np.abs of at once.
L1_LEAF = 65536


@dataclass(frozen=True)
class Measurements:
    """Nonnegative magnitude vector with a record of how it was produced.

    provenance is one of 'clean', 'bounded', 'poisson'; noise_meta carries
    the noise scale actually applied (and for bounded noise, how many
    entries were clipped at zero).  values follows core.as_signal, and
    must also be real and nonnegative (ValueError).  It is kept
    read-only: as it is if it is read-only already and owns its memory, as
    measure hands over its own, else as a copy.
    """

    values: np.ndarray
    provenance: str = "clean"
    noise_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = as_signal(self.values, name="measurements")
        if v.dtype.kind == "c" or np.any(v < 0):
            raise ValueError("measurements must be real and nonnegative")
        if self.provenance not in ("clean", "bounded", "poisson"):
            raise ValueError("unknown provenance %r" % self.provenance)
        # a read-only array that owns its memory (measure's) is kept as it is,
        # any other copied: a write to the caller's array must not reach a y
        # that passed the checks
        if v.flags.writeable or not v.flags.owndata:
            v = _frozen(v.copy())
        object.__setattr__(self, "values", v)

    @property
    def m(self):
        return self.values.size


@dataclass(frozen=True)
class NoiseSpec:
    """Noise to inject at measurement time.

    kind 'none': clean magnitudes.
    kind 'bounded': y = |a^* x| + w, clipped at 0.  Either pass w directly
        or give `level` = target ||w||/sqrt(m); then w is drawn Gaussian
        from the (seed, 'bounded-noise') stream and rescaled so the level
        holds exactly (halving `level` at fixed seed halves w entrywise).
    kind 'poisson': y = sqrt(alpha * Poisson(|a^* x|^2 / alpha)).
    ValueError at build for a bad kind, level, alpha or seed (an int >= 0).
    """

    kind: str = "none"
    w: np.ndarray = None
    level: float = None
    alpha: float = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError("unknown noise kind %r" % self.kind)
        _count(self.seed, "seed", 0)
        if self.kind == "bounded" and self.w is None and self.level is None:
            raise ValueError("bounded noise needs w or level")
        if self.kind == "poisson" and self.alpha is None:
            raise ValueError("poisson noise needs alpha > 0")
        if self.level is not None:
            _level(self.level, "noise level", zero_ok=True)
        if self.alpha is not None:
            _level(self.alpha, "alpha")


def rows_apply(B, z):
    """(a_i^* z)_i from the stacked rows B = (a_i): conj(B @ conj(z)) for
    complex rows, which never conjugates B, and B @ z for real rows."""
    if B.dtype.kind == "c":
        return np.conj(B @ np.conj(z.astype(np.complex128, copy=False)))
    return B @ z


class Ensemble:
    """Matrix-free sensing operator with rows a_i^*.

    apply(z) returns the length-m vector of inner products a_i^* z;
    adjoint_apply(v) returns sum_i v_i a_i, the conjugate-transpose
    action.  row(i) materializes a_i itself (length n).  kind is one of
    KINDS.
    """

    kind = None

    def __init__(self, n, m, seed):
        self.n = int(n)
        self.m = int(m)
        self.seed = seed

    @classmethod
    def _adopt(cls, array, seed):
        """The ensemble on array, which its factory drew for it alone: taken
        read-only, with no copy and no rescan.  A subclass's constructor
        checks and copies its caller's array, then hands it to _own, as
        this does."""
        A = cls.__new__(cls)
        A._own(array, seed)
        return A

    @property
    def field(self):
        """The field of the rows: REAL for real Gaussian rows, else COMPLEX."""
        return REAL if self.kind == REAL else COMPLEX

    # subclasses implement: apply, adjoint_apply, row, block_rows,
    # row_sqnorms, row_l1_sum, materialize

    def _check_measurements(self, y):
        """y.values for Measurements y of this ensemble's m; TypeError for
        anything else (a bare array too), ValueError for another m."""
        if _instance(y, Measurements, "y").m != self.m:
            raise ValueError("y must be of measurement count m=%d, not %d" % (self.m, y.m))
        return y.values

    def row_sqnorm(self, i):
        return float(self.row_sqnorms()[_check_index(i, self.m)])

    def _check_rows(self, idx):
        """idx as a 1-D intp array of integers in [0, m), else IndexError."""
        idx = np.asarray(idx)
        if idx.ndim != 1:
            raise IndexError("row indices must be a 1-D sequence")
        if idx.size and idx.dtype.kind not in "iu":
            raise IndexError("row indices must be integers")
        idx = idx.astype(np.intp, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= self.m):
            raise IndexError("row index out of range")
        return idx

    def block_rows(self, idx):
        """Rows a_i for i in the 1-D index idx, stacked (len(idx), n)."""
        raise NotImplementedError

    def block_apply(self, idx, z):
        """(A z)_Gamma for an index block Gamma."""
        return rows_apply(self.block_rows(idx), as_signal(z, self.n, "z", finite=False))

    def block_adjoint(self, idx, u):
        """sum_{i in Gamma} u_i a_i."""
        B = self.block_rows(idx)
        return B.T @ as_signal(u, B.shape[0], "u", finite=False)

    def descriptor(self):
        raise NotImplementedError


class GaussianEnsemble(Ensemble):
    """Dense Gaussian rows; real N(0,1) or complex with re/im N(0, 1/2).

    rows is one row (1-D) or a stack of them (2-D) with finite entries;
    ValueError for any other shape, for no rows or no columns, and, by
    core.as_signal's rule, for a non-numeric dtype or a NaN or infinite
    entry.  The ensemble keeps a read-only float64 (complex128) copy.
    """

    def __init__(self, rows, seed):
        rows = np.atleast_2d(rows)
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError("rows must be a nonempty 1-D or 2-D array")
        self._own(as_signal(rows.ravel(), name="rows").reshape(rows.shape).copy(), seed)

    def _own(self, rows, seed):
        super().__init__(rows.shape[1], rows.shape[0], seed)
        self.rows = _frozen(rows)
        self.kind = COMPLEX if np.iscomplexobj(rows) else REAL
        self._sqnorms = None  # row_sqnorms(), once it has been called

    def apply(self, z):
        return rows_apply(self.rows, as_signal(z, self.n, "z", finite=False))

    def adjoint_apply(self, v):
        return self.rows.T @ as_signal(v, self.m, "v", finite=False)

    def row(self, i):
        return self.rows[_check_index(i, self.m)]

    def block_rows(self, idx):
        return self.rows[self._check_rows(idx)]

    # defined on this class too: perfbench's span table wraps it here
    block_apply = Ensemble.block_apply

    def row_sqnorms(self):
        if self._sqnorms is None:
            # the float view of a complex row interleaves Re and Im, so one
            # pass sums |a_ij|^2 with no conjugated copy; real rows view as is
            v = self.rows.view(self.rows.real.dtype)
            self._sqnorms = np.einsum("ij,ij->i", v, v)
            self._sqnorms.flags.writeable = False  # shared by every later call
        return self._sqnorms

    def row_l1_sum(self):
        return _abs_sum(self.rows.reshape(-1))

    def materialize(self):
        """Dense M with apply(z) == M @ z (test oracle)."""
        return np.conj(self.rows) if self.kind == COMPLEX else self.rows

    def descriptor(self):
        return {"kind": self.kind, "n": self.n, "m": self.m, "seed": self.seed}


class CDPEnsemble(Ensemble):
    """Coded diffraction patterns: per mask l, measurements F(d_l * z)."""

    kind = CDP

    def __init__(self, masks, seed):
        # a copy: _masks_conj is computed once, from the masks as they are now
        self._own(np.array(masks, dtype=np.complex128, order="C"), seed)

    def _own(self, masks, seed):
        L, n = masks.shape
        super().__init__(n, n * L, seed)
        self.L = L
        self.masks = _frozen(masks)
        self._masks_conj = _frozen(np.conj(masks))
        # conj(W_j) for W_j = exp(-2 pi i j/n): DFT row k is W_((k j) mod n),
        # so no phase is evaluated at an argument beyond 2 pi
        self._twiddle_conj = _frozen(np.exp(2j * np.pi * np.arange(n) / n))

    def apply(self, z):
        # the complex masks cast a real z, and the FFTs a real v, to complex128
        z = as_signal(z, self.n, "z", finite=False)
        return np.fft.fft(self.masks * z[None, :], axis=1).ravel()

    def adjoint_apply(self, v):
        V = as_signal(v, self.m, "v", finite=False).reshape(self.L, self.n)
        # F^H u = n * ifft(u) under the unnormalized transform
        return (self._masks_conj * (self.n * np.fft.ifft(V, axis=1))).sum(axis=0)

    def mask_apply(self, l, z):
        """The n measurements of mask l alone (l a row index into the L masks)."""
        l = _check_index(l, self.L, "mask index")
        return np.fft.fft(self.masks[l] * as_signal(z, self.n, "z", finite=False))

    def mask_adjoint(self, l, u):
        l = _check_index(l, self.L, "mask index")
        return self._masks_conj[l] * (self.n * np.fft.ifft(as_signal(u, self.n, "u", finite=False)))

    def row(self, i):
        l, k = divmod(_check_index(i, self.m), self.n)
        return self._masks_conj[l] * self._twiddle_conj[k * np.arange(self.n) % self.n]

    def block_rows(self, idx):
        l, k = np.divmod(self._check_rows(idx), self.n)
        return self._masks_conj[l] * self._twiddle_conj[np.outer(k, np.arange(self.n)) % self.n]

    def row_sqnorms(self):
        # unit-modulus mask times unit-modulus DFT entries: exactly n, as a
        # read-only broadcast that allocates nothing
        return np.broadcast_to(float(self.n), (self.m,))

    def row_l1_sum(self):
        return float(self.m) * float(self.n)

    def materialize(self):
        j = np.arange(self.n)
        F = np.exp(-2j * np.pi * np.outer(j, j) / self.n)
        return np.vstack([F * d[None, :] for d in self.masks])

    def descriptor(self):
        return {"kind": self.kind, "n": self.n, "L": self.L, "seed": self.seed}


def _frozen(a):
    """a, set read-only."""
    a.flags.writeable = False
    return a


def _check_index(i, count, name="row index"):
    """i if an integer (numpy's too, not a bool: numpy would index with it as
    a mask) in [0, count), else IndexError naming name."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise IndexError("%s %r is not an integer" % (name, i))
    if not 0 <= i < count:
        raise IndexError("%s %d out of range" % (name, i))
    return i


def _abs_sum(flat):
    """float(np.abs(flat).sum()) bit for bit, without the full |flat| copy.

    numpy sums a contiguous run pairwise, halving it at a multiple of 8, so
    splitting the same way down to leaves of at most L1_LEAF elements and
    adding the leaf sums in the same tree gives the same bits.
    """
    if flat.size <= L1_LEAF:
        return float(np.abs(flat).sum())
    half = flat.size // 2
    half -= half % 8
    return _abs_sum(flat[:half]) + _abs_sum(flat[half:])


def make_gaussian(n, m, field, seed):
    """Seeded dense Gaussian ensemble, real or complex; ValueError unless
    n and m are integers >= 1 and seed one >= 0 (not bools)."""
    n, m = _count(n, "n", 1), _count(m, "m", 1)
    rng = substream(seed, "ensemble")
    if field == REAL:
        rows = rng.standard_normal((m, n))
    elif field == COMPLEX:
        # the bits of (re + 1j*im)/sqrt(2) with re, then im, drawn whole from
        # the stream: numpy divides a complex by sqrt(2) as a multiply by
        # 1/sqrt(2), so each part is scaled that way, a block of rows at a
        # time, and no full-size temporary is made
        rows = np.empty((m, n), dtype=np.complex128)
        scale = 1.0 / np.sqrt(2.0)
        for part in (rows.real, rows.imag):
            for s in range(0, m, BLOCK_ROWS):
                block = part[s : s + BLOCK_ROWS]
                np.multiply(rng.standard_normal(block.shape), scale, out=block)
    else:
        raise ValueError("unknown field %r" % (field,))
    return GaussianEnsemble._adopt(rows, seed)


def make_cdp(n, L, seed):
    """Seeded coded-diffraction ensemble with uniform unit-modulus masks;
    ValueError unless n >= 2, L >= 1 and seed >= 0 are integers (not bools)."""
    n, L = _count(n, "n", 2), _count(L, "L", 1)
    rng = substream(seed, "ensemble")
    masks = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(L, n)))
    return CDPEnsemble._adopt(masks, seed)


def from_rows(rows, seed=None):
    """Ensemble with explicitly given rows a_i (handy for small examples),
    which GaussianEnsemble's rule takes."""
    return GaussianEnsemble(rows, seed)


def from_descriptor(d):
    """Rebuild an ensemble from its {kind, n, m|L, seed} record; the sizes
    are checked as make_gaussian and make_cdp check them, not coerced."""
    kind = d["kind"]
    if kind in (REAL, COMPLEX):
        return make_gaussian(d["n"], d["m"], kind, d["seed"])
    if kind == CDP:
        return make_cdp(d["n"], d["L"], d["seed"])
    raise ValueError("unknown ensemble kind %r" % kind)


def measure(A, x, noise=None):
    """|A x| for an Ensemble A, with noise a NoiseSpec or None (clean), each
    else TypeError; x and a given w follow core.as_signal at lengths n and
    m, and w must be real."""
    mag = np.abs(_instance(A, Ensemble, "A").apply(as_signal(x, A.n, "x")))
    if noise is None or _instance(noise, NoiseSpec, "noise").kind == "none":
        return Measurements(_frozen(mag), "clean", {})
    if noise.kind == "bounded":
        if noise.w is not None:
            w = as_signal(noise.w, A.m, "w")
        else:
            g = substream(noise.seed, "bounded-noise").standard_normal(A.m)
            w = g * (noise.level * np.sqrt(A.m) / np.linalg.norm(g))
        y = mag + w
        clipped = int(np.count_nonzero(y < 0))
        np.maximum(y, 0.0, out=y)
        meta = {"w_rms": float(np.linalg.norm(w) / np.sqrt(A.m)), "clipped": clipped}
        return Measurements(_frozen(y), "bounded", meta)
    # poisson, the one kind left: NoiseSpec refuses any other
    rng = substream(noise.seed, "poisson-noise")
    lam = mag**2 / noise.alpha
    y = np.sqrt(noise.alpha * rng.poisson(lam).astype(np.float64))
    return Measurements(_frozen(y), "poisson", {"alpha": float(noise.alpha)})
