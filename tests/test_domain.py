"""The domain of every argument the public API takes.

A count is an integer at or above its minimum (numpy integers pass, bools
do not); a level is a finite number above 0, or at least 0 where a zero
level is allowed; a correlation is a number with |rho| <= 1 + 1e-12, and
the density's open one a number with |rho| < 1; a row index is an integer
in [0, m), a mask index one in [0, L), and a block of row indices a 1-D
sequence of such.  Seeds are counts from 0 at every entry point that takes
one.  A vector is a nonempty 1-D numeric array of its length
(core.as_signal), finite where asked, complex where the field allows; a y
is Measurements of the ensemble's m; a stack of CDP masks is a nonempty
2-D numeric array of finite entries with |d| = 1 to within
sensing.UNIT_TOL; an ensemble, a state, a solver config, init params, a
noise spec and a random generator are instances of their class
(core._instance); a config's list field is a tuple; an elementwise input
has a numeric dtype.  Each row of the table names one argument or config
field, the rule it follows, the error it documents, and a call that
passes a value to it alone.  Outside the domain the call must raise that
error, naming the argument; at its edge it must not raise.  Every
callable in phasekit.__all__ has a row or a reason in NO_ROW.
"""

import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasekit
from phasekit import (
    COMPLEX,
    REAL,
    CDPEnsemble,
    ConfigError,
    CorrelationState,
    ExperimentConfig,
    GaussianEnsemble,
    InitParams,
    Measurements,
    NoiseSpec,
    SolverConfig,
    abs_product_moment,
    block_kaczmarz_step,
    dist_up_to_phase,
    estimate_norm,
    expected_rwf_loss,
    expected_wf_loss,
    from_descriptor,
    irwf_step,
    kaczmarz_step,
    load_config,
    make_cdp,
    make_gaussian,
    measure,
    minibatch_irwf_step,
    monte_carlo_expected_rwf_loss,
    phase,
    product_magnitude_density,
    random_signal,
    relative_error,
    run,
    rwf_gradient,
    rwf_loss,
    sign_flip_bound,
    spectral_initialize,
    wf_gradient,
    wf_loss,
)
from phasekit.sensing import UNIT_TOL
from phasekit.streams import derive_seed, substream

NAN, INF = float("nan"), float("inf")

_A = make_gaussian(4, 12, REAL, 0)
_X = random_signal(4, REAL, substream(1))
_Y = measure(_A, _X)
_C = make_cdp(4, 2, 0)
_ONE_PASS = SolverConfig(max_passes=1)


def _experiment(**kwargs):
    return ExperimentConfig(**kwargs).validate()


def _solver(**kwargs):
    return SolverConfig(**kwargs).validate()


def _counts(low):
    return ("count", low, low)


def _levels(zero_ok=False, least=5e-324):
    """least is the smallest valid level the edge test tries: above 0 where
    another argument bounds this one from below."""
    return ("level", zero_ok, least)


_CORRELATION = ("correlation", None, None)
_OPEN_CORRELATION = ("open correlation", None, None)


def _indices(m):
    return ("index", m, None)


def _vectors(n, field=COMPLEX, finite=False, sized=True, optional=False):
    """A vector of length n.  field COMPLEX accepts complex values, REAL
    refuses them under this name, and None (the partner's field rules)
    tries neither; finite refuses NaN and infinite entries; sized refuses
    other lengths under this name (unsized: the partner's length or none
    rules, and n only sizes the accepted values); optional accepts None."""
    return ("vector", n, (field, finite, sized, optional))


def _measurements(m):
    return ("measurements", m, None)


def _objects(*valid):
    """An instance of the class of the valid values, which are the edge cases;
    None is refused unless it is one of them."""
    return ("object", valid, None)


def _tuples(*valid):
    """A tuple, as coerce_value builds one for a list field; the valid
    values are the edge cases."""
    return ("tuple", valid, None)


_STATE = _objects(CorrelationState(0.5), CorrelationState(-1, 2.0, 0.0))
_ENSEMBLE = _objects(_A)
_NUMERIC = ("numeric", None, None)
# a stack of L masks of n entries, each finite with |d| = 1 to within UNIT_TOL
_MASKS = ("masks", None, None)


# (row id, rule, documented error, name in the message, call with the value)
DOMAIN = [
    ("random_signal.n", _counts(1), ValueError, "n", lambda v: random_signal(v, REAL, substream(0))),
    ("make_gaussian.n", _counts(1), ValueError, "n", lambda v: make_gaussian(v, 4, REAL, 0)),
    ("make_gaussian.m", _counts(1), ValueError, "m", lambda v: make_gaussian(4, v, REAL, 0)),
    ("make_cdp.n", _counts(2), ValueError, "n", lambda v: make_cdp(v, 2, 0)),
    ("make_cdp.L", _counts(1), ValueError, "L", lambda v: make_cdp(4, v, 0)),
    ("make_gaussian.seed", _counts(0), ValueError, "seed", lambda v: make_gaussian(4, 4, REAL, v)),
    ("make_cdp.seed", _counts(0), ValueError, "seed", lambda v: make_cdp(4, 2, v)),
    ("NoiseSpec.seed", _counts(0), ValueError, "seed", lambda v: NoiseSpec(seed=v)),
    ("spectral_initialize.seed", _counts(0), ValueError, "seed",
     lambda v: spectral_initialize(_Y, _A, seed=v)),
    ("substream.seed", _counts(0), ValueError, "seed", lambda v: substream(v, "x")),
    ("derive_seed.seed", _counts(0), ValueError, "seed", lambda v: derive_seed(v, "x")),
    ("from_descriptor.n", _counts(1), ValueError, "n",
     lambda v: from_descriptor({"kind": REAL, "n": v, "m": 4, "seed": 0})),
    ("from_descriptor.m", _counts(1), ValueError, "m",
     lambda v: from_descriptor({"kind": REAL, "n": 4, "m": v, "seed": 0})),
    ("from_descriptor.L", _counts(1), ValueError, "L",
     lambda v: from_descriptor({"kind": "cdp", "n": 4, "L": v, "seed": 0})),
    ("monte_carlo_expected_rwf_loss.samples", _counts(1000), ValueError, "samples",
     lambda v: monte_carlo_expected_rwf_loss(CorrelationState(0.5), v, 0)),
    ("SolverConfig.minibatch_k", _counts(1), ValueError, "minibatch_k",
     lambda v: _solver(minibatch_k=v)),
    ("SolverConfig.max_passes", _counts(0), ValueError, "max_passes",
     lambda v: _solver(max_passes=v)),
    ("SolverConfig.record_every", _counts(1), ValueError, "record_every",
     lambda v: _solver(record_every=v)),
    ("SolverConfig.seed", _counts(0), ValueError, "seed", lambda v: _solver(seed=v)),
    ("SolverConfig.mu", _levels(), ValueError, "mu", lambda v: _solver(mu=v)),
    ("SolverConfig.rho0", _levels(), ValueError, "rho0", lambda v: _solver(rho0=v)),
    ("SolverConfig.tol", _levels(), ValueError, "tol", lambda v: _solver(tol=v)),
    ("ExperimentConfig.n", _counts(1), ConfigError, "n", lambda v: _experiment(n=v)),
    ("ExperimentConfig.trials", _counts(1), ConfigError, "trials",
     lambda v: _experiment(trials=v)),
    ("ExperimentConfig.iteration_budget", _counts(0), ConfigError, "iteration_budget",
     lambda v: _experiment(iteration_budget=v)),
    ("ExperimentConfig.seed", _counts(0), ConfigError, "seed", lambda v: _experiment(seed=v)),
    ("ExperimentConfig.rho_grid", _counts(2), ConfigError, "rho_grid",
     lambda v: _experiment(rho_grid=v)),
    ("ExperimentConfig.normz_grid", _counts(1), ConfigError, "normz_grid",
     lambda v: _experiment(normz_grid=v)),
    ("ExperimentConfig.jobs", _counts(1), ConfigError, "jobs", lambda v: _experiment(jobs=v)),
    ("ExperimentConfig.masks", _counts(2), ConfigError, "mask count",
     lambda v: _experiment(masks=(v,))),
    ("ExperimentConfig.minibatch_k", _counts(1), ConfigError, "minibatch_k",
     lambda v: _experiment(minibatch_k=v)),
    ("ExperimentConfig.record_every", _counts(1), ConfigError, "record_every",
     lambda v: _experiment(record_every=v)),
    ("ExperimentConfig.success_tol", _levels(), ConfigError, "success_tol",
     lambda v: _experiment(success_tol=v)),
    ("ExperimentConfig.noise_level", _levels(zero_ok=True), ConfigError, "noise_level",
     lambda v: _experiment(noise_level=v)),
    ("ExperimentConfig.alphas", _levels(), ConfigError, "alpha",
     lambda v: _experiment(alphas=(v,))),
    # the default experiment, recover, runs one size: a sweep takes the list
    ("ExperimentConfig.m_over_n.tuple", _tuples((6.0,), (2, np.float64(2.5))), ConfigError,
     "m_over_n", lambda v: _experiment(experiment="phase_transition", m_over_n=v)),
    ("ExperimentConfig.masks.tuple", _tuples((2,), (np.int64(3), 12)), ConfigError, "masks",
     lambda v: _experiment(masks=v)),
    ("ExperimentConfig.algorithms.tuple", _tuples(("rwf",), ("rwf", "irwf")), ConfigError,
     "algorithms", lambda v: _experiment(algorithms=v)),
    ("ExperimentConfig.alphas.tuple", _tuples((0.5,), (1, np.float32(0.25))), ConfigError,
     "alphas", lambda v: _experiment(alphas=v)),
    ("ExperimentConfig.mu", _levels(), ConfigError, "mu", lambda v: _experiment(mu=v)),
    ("ExperimentConfig.rho0", _levels(), ConfigError, "rho0", lambda v: _experiment(rho0=v)),
    ("NoiseSpec.level", _levels(zero_ok=True), ValueError, "level",
     lambda v: NoiseSpec("bounded", level=v)),
    ("NoiseSpec.alpha", _levels(), ValueError, "alpha", lambda v: NoiseSpec("poisson", alpha=v)),
    ("irwf_step.step", _levels(), ValueError, "step",
     lambda v: irwf_step(_X, 0, _Y, _A, step=v)),
    ("minibatch_irwf_step.step", _levels(), ValueError, "step",
     lambda v: minibatch_irwf_step(_X, [0, 1], _Y, _A, step=v)),
    ("CorrelationState.norm_x", _levels(), ValueError, "norm_x",
     lambda v: CorrelationState(0.5, norm_x=v)),
    ("CorrelationState.norm_z", _levels(zero_ok=True), ValueError, "norm_z",
     lambda v: CorrelationState(0.5, norm_z=v)),
    ("CorrelationState.rho", _CORRELATION, ValueError, "rho", lambda v: CorrelationState(v)),
    ("abs_product_moment.rho", _CORRELATION, ValueError, "rho", lambda v: abs_product_moment(v)),
    # the bound holds only for norm_h < 0.29 norm_x: the other two norms sit inside it
    ("sign_flip_bound.t", _levels(), ValueError, "t", lambda v: sign_flip_bound(v, 1.0, 0.1)),
    ("sign_flip_bound.norm_x", _levels(least=1e-300), ValueError, "norm_x",
     lambda v: sign_flip_bound(0.1, v, 5e-324)),
    ("sign_flip_bound.norm_h", _levels(), ValueError, "norm_h",
     lambda v: sign_flip_bound(0.1, 10.0, v)),
    ("product_magnitude_density.x_val", _levels(), ValueError, "x_val",
     lambda v: product_magnitude_density(v, 0.5)),
    ("product_magnitude_density.rho", _OPEN_CORRELATION, ValueError, "rho",
     lambda v: product_magnitude_density(1.0, v)),
    # a block is a 1-D sequence of row indices: each value enters as [v]
    ("GaussianEnsemble.row", _indices(12), IndexError, "row index", lambda v: _A.row(v)),
    ("GaussianEnsemble.row_sqnorm", _indices(12), IndexError, "row index",
     lambda v: _A.row_sqnorm(v)),
    ("GaussianEnsemble.block_rows", _indices(12), IndexError, "row index",
     lambda v: _A.block_rows([v])),
    ("CDPEnsemble.row", _indices(8), IndexError, "row index", lambda v: _C.row(v)),
    ("CDPEnsemble.row_sqnorm", _indices(8), IndexError, "row index",
     lambda v: _C.row_sqnorm(v)),
    ("CDPEnsemble.block_rows", _indices(8), IndexError, "row index",
     lambda v: _C.block_rows([v])),
    ("CDPEnsemble.mask_apply", _indices(2), IndexError, "mask index",
     lambda v: _C.mask_apply(v, _X)),
    ("CDPEnsemble.mask_adjoint", _indices(2), IndexError, "mask index",
     lambda v: _C.mask_adjoint(v, _X)),
    ("irwf_step.i", _indices(12), IndexError, "row index", lambda v: irwf_step(_X, v, _Y, _A)),
    ("kaczmarz_step.i", _indices(12), IndexError, "row index",
     lambda v: kaczmarz_step(_X, v, _Y, _A)),
    # vectors follow core.as_signal; z sets the length and field of a pair
    ("run.z0", _vectors(4, finite=True), ValueError, "z0", lambda v: run(_Y, _A, v, _ONE_PASS)),
    ("run.x_opt", _vectors(4, REAL, finite=True, optional=True), ValueError, "x_opt",
     lambda v: run(_Y, _A, _X, _ONE_PASS, x_opt=v)),
    ("rwf_gradient.z", _vectors(4), ValueError, "z", lambda v: rwf_gradient(v, _Y, _A)),
    ("wf_gradient.z", _vectors(4), ValueError, "z", lambda v: wf_gradient(v, _Y, _A)),
    ("irwf_step.z", _vectors(4), ValueError, "z", lambda v: irwf_step(v, 0, _Y, _A)),
    ("kaczmarz_step.z", _vectors(4), ValueError, "z", lambda v: kaczmarz_step(v, 0, _Y, _A)),
    ("minibatch_irwf_step.z", _vectors(4), ValueError, "z",
     lambda v: minibatch_irwf_step(v, [0, 1], _Y, _A)),
    ("block_kaczmarz_step.z", _vectors(4), ValueError, "z",
     lambda v: block_kaczmarz_step(v, [0, 1], _Y, _A)),
    ("rwf_loss.z", _vectors(4), ValueError, "z", lambda v: rwf_loss(v, _Y, _A)),
    ("wf_loss.z", _vectors(4), ValueError, "z", lambda v: wf_loss(v, _Y, _A)),
    ("dist_up_to_phase.z", _vectors(4, None, sized=False), ValueError, "z",
     lambda v: dist_up_to_phase(v, _X)),
    ("dist_up_to_phase.x", _vectors(4, REAL), ValueError, "x", lambda v: dist_up_to_phase(_X, v)),
    ("relative_error.z", _vectors(4, None, sized=False), ValueError, "z",
     lambda v: relative_error(v, _X)),
    ("relative_error.x", _vectors(4, REAL), ValueError, "x", lambda v: relative_error(_X, v)),
    ("measure.x", _vectors(4, finite=True), ValueError, "x", lambda v: measure(_A, v)),
    ("Measurements.values", _vectors(4, REAL, finite=True, sized=False), ValueError,
     "measurements", lambda v: Measurements(v)),
    ("GaussianEnsemble.apply", _vectors(4), ValueError, "z", lambda v: _A.apply(v)),
    ("GaussianEnsemble.adjoint_apply", _vectors(12), ValueError, "v",
     lambda v: _A.adjoint_apply(v)),
    ("CDPEnsemble.apply", _vectors(4), ValueError, "z", lambda v: _C.apply(v)),
    ("CDPEnsemble.adjoint_apply", _vectors(8), ValueError, "v", lambda v: _C.adjoint_apply(v)),
    # y is Measurements of A's m (Ensemble._check_measurements): a wrong m is
    # the row's ValueError, and anything that is not Measurements a TypeError
    ("run.y", _measurements(12), ValueError, "y", lambda v: run(v, _A, _X, _ONE_PASS)),
    ("rwf_loss.y", _measurements(12), ValueError, "y", lambda v: rwf_loss(_X, v, _A)),
    ("wf_loss.y", _measurements(12), ValueError, "y", lambda v: wf_loss(_X, v, _A)),
    ("estimate_norm.y", _measurements(12), ValueError, "y", lambda v: estimate_norm(v, _A)),
    ("spectral_initialize.y", _measurements(12), ValueError, "y",
     lambda v: spectral_initialize(v, _A)),
    ("expected_rwf_loss.state", _STATE, TypeError, "state", lambda v: expected_rwf_loss(v)),
    ("expected_wf_loss.state", _STATE, TypeError, "state", lambda v: expected_wf_loss(v)),
    ("monte_carlo_expected_rwf_loss.state", _STATE, TypeError, "state",
     lambda v: monte_carlo_expected_rwf_loss(v, 1000, 0)),
    # an object argument is an instance of its class (core._instance)
    ("run.cfg", _objects(_ONE_PASS), TypeError, "cfg", lambda v: run(_Y, _A, _X, v)),
    ("spectral_initialize.params", _objects(None, InitParams()), TypeError, "params",
     lambda v: spectral_initialize(_Y, _A, params=v)),
    ("run.A", _ENSEMBLE, TypeError, "A", lambda v: run(_Y, v, _X, _ONE_PASS)),
    ("rwf_loss.A", _ENSEMBLE, TypeError, "A", lambda v: rwf_loss(_X, _Y, v)),
    ("wf_loss.A", _ENSEMBLE, TypeError, "A", lambda v: wf_loss(_X, _Y, v)),
    ("measure.A", _objects(_A, _C), TypeError, "A", lambda v: measure(v, _X)),
    ("measure.noise", _objects(None, NoiseSpec(), NoiseSpec("poisson", alpha=0.5)), TypeError,
     "noise", lambda v: measure(_A, _X, noise=v)),
    ("random_signal.rng", _objects(substream(0)), TypeError, "rng",
     lambda v: random_signal(4, REAL, v)),
    ("estimate_norm.A", _ENSEMBLE, TypeError, "A", lambda v: estimate_norm(_Y, v)),
    ("spectral_initialize.A", _ENSEMBLE, TypeError, "A", lambda v: spectral_initialize(_Y, v)),
    ("rwf_gradient.A", _ENSEMBLE, TypeError, "A", lambda v: rwf_gradient(_X, _Y, v)),
    ("wf_gradient.A", _ENSEMBLE, TypeError, "A", lambda v: wf_gradient(_X, _Y, v)),
    ("irwf_step.A", _ENSEMBLE, TypeError, "A", lambda v: irwf_step(_X, 0, _Y, v)),
    ("kaczmarz_step.A", _ENSEMBLE, TypeError, "A", lambda v: kaczmarz_step(_X, 0, _Y, v)),
    ("minibatch_irwf_step.A", _ENSEMBLE, TypeError, "A",
     lambda v: minibatch_irwf_step(_X, [0, 1], _Y, v)),
    ("block_kaczmarz_step.A", _ENSEMBLE, TypeError, "A",
     lambda v: block_kaczmarz_step(_X, [0, 1], _Y, v)),
    # elementwise: any shape, refused only for a dtype that is not numeric
    ("phase.v", _NUMERIC, ValueError, "v", lambda v: phase(v)),
    ("GaussianEnsemble.rows", _NUMERIC, ValueError, "rows", lambda v: GaussianEnsemble(v)),
    ("CDPEnsemble.masks", _MASKS, ValueError, "masks", lambda v: CDPEnsemble(v)),
    ("load_config.overrides", _counts(1), ConfigError, "n",
     lambda v: load_config(None, overrides={"n": v})),
]
IDS = [row[0] for row in DOMAIN]

# values outside every domain: a flag, a string, and the non-finite floats
_ALWAYS_BAD = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, NAN, INF, -INF, np.float64(NAN)]),
    st.text(max_size=4),
)


# values that are not numeric, refused by every vector and elementwise rule
_NOT_NUMERIC = st.one_of(
    st.text(max_size=4),
    st.sampled_from([b"ab", [["a", "b"]], np.array([None, 1.0]), np.array(["1", "2"])]),
)


def _invalid(rule):
    """Strategy for values the rule refuses."""
    kind, bound, extra = rule
    if kind == "vector":
        field, finite, sized, optional = extra
        ramp = np.arange(1.0, bound + 1)
        bad = [np.array([None] * bound), np.ones((2, bound)), ramp[:, None], np.array([])]
        if not optional:
            bad.append(None)
        if finite:
            bad += [np.where(ramp == 2, v, ramp) for v in (NAN, INF, -INF)]
        if field == REAL:
            bad += [ramp + 1j, ramp.astype(np.complex64)]
        wrong = st.integers(1, 2 * bound).filter(lambda k: k != bound) if sized else st.nothing()
        return st.one_of(_ALWAYS_BAD, _NOT_NUMERIC, st.sampled_from(bad), wrong.map(np.ones))
    if kind == "measurements":
        wrong = st.integers(1, 2 * bound).filter(lambda k: k != bound).map(np.ones)
        return st.one_of(_ALWAYS_BAD, st.sampled_from([None, _Y.values, list(_Y.values)]),
                         wrong, wrong.map(Measurements))
    if kind == "object":
        # look-alikes: a tuple of a state's fields, a config's dict, bare rows
        alike = [(0.5, 1.0, 1.0), {"algorithm": "rwf"}, _A.rows]
        return st.one_of(_ALWAYS_BAD, st.floats(),
                         st.sampled_from(alike + ([] if None in bound else [None])))
    if kind == "tuple":
        # an entry alone, or the entries in a list, a set or an array
        entries = bound[-1]
        alike = [entries[0], list(entries), set(entries), np.array(entries), None]
        return st.one_of(_ALWAYS_BAD, st.floats(), st.integers(), st.sampled_from(alike))
    if kind == "numeric":
        return st.one_of(_NOT_NUMERIC, st.just(None))
    if kind == "masks":
        # the wrong modulus, a non-finite entry, the wrong shape
        off = st.floats(allow_nan=False).filter(lambda r: abs(abs(r) - 1) > UNIT_TOL)
        bad = [np.full((1, 2), 1 + 2 * UNIT_TOL), np.zeros((2, 2)), [[1.0, NAN]], [[INF, 1.0]],
               [[1j, complex(NAN, 0)]], np.ones(4), np.ones((1, 2, 2)), np.ones((0, 4)), [[]]]
        return st.one_of(_ALWAYS_BAD, _NOT_NUMERIC, st.just(None), st.sampled_from(bad),
                         off.map(lambda r: np.full((2, 3), r)))
    if kind == "open correlation":
        beyond = st.one_of(st.floats(min_value=1.0), st.integers(1))
        return st.one_of(_ALWAYS_BAD, beyond, beyond.map(lambda r: -r))
    if kind == "index":
        # out of range on either side, as Python and as numpy integers
        beyond = st.one_of(st.integers(max_value=-1), st.integers(min_value=bound))
        beyond_np = st.one_of(st.integers(-(2**63), -1), st.integers(bound, 2**63 - 1))
        return st.one_of(_ALWAYS_BAD, st.floats(), st.none(), beyond, beyond_np.map(np.int64))
    if kind == "correlation":
        beyond = st.one_of(st.floats(min_value=1.0 + 1e-12, exclude_min=True), st.integers(2))
        return st.one_of(_ALWAYS_BAD, beyond, beyond.map(lambda r: -r))
    if kind == "count":
        # every float, integral ones included, is refused: a count is an integer
        below = st.integers(min_value=-(2**63), max_value=bound - 1)
        return st.one_of(_ALWAYS_BAD, st.floats(), below, below.map(np.int64))
    # a zero level is valid where zero_ok, and so is -0.0, which equals 0
    below = st.floats(max_value=-5e-324 if bound else 0.0)
    return st.one_of(_ALWAYS_BAD, below, st.integers(max_value=-1 if bound else 0))


def _valid(rule):
    """Values at the edge of the rule's domain, numpy scalars included."""
    kind, bound, least = rule
    if kind == "vector":
        field, finite, _, optional = least
        ramp = np.arange(1, bound + 1)
        ok = [list(ramp), ramp, ramp.astype(np.float32), ramp.astype(bool)]
        if optional:
            ok.append(None)
        if field == COMPLEX:
            ok += [ramp * (1 - 1j), ramp.astype(np.complex64)]
        if not finite:  # NaN in, NaN out
            ok += [np.where(ramp == 1, NAN, ramp), np.where(ramp == 2, -INF, ramp)]
        return ok
    if kind in ("object", "tuple"):
        return list(bound)
    if kind == "measurements":
        return [_Y, Measurements(2 * _Y.values)]
    if kind == "numeric":
        return [2.5, True, np.int64(-3), [[1, -2], [0, 3]], np.ones(3, np.float32), [1j, 0]]
    if kind == "masks":
        return [_C.masks, [[1, -1j]], np.full((1, 2), 1 + UNIT_TOL), np.full((2, 3), -1, np.int64),
                np.ones((1, 1), np.float32), [[True]], np.exp(1j * np.arange(4.0))[None, :]]
    if kind == "open correlation":
        edge = 1.0 - 2.0**-52
        return [edge, -edge, 0, 0.0, np.float32(0.5), np.int64(0)]
    if kind == "index":
        return [0, bound - 1, np.int64(bound - 1), np.uint16(0)]
    if kind == "correlation":
        return [1, -1, 1.0 + 1e-13, -1.0 - 1e-13, 0, np.float32(0.5), np.int64(-1)]
    if kind == "count":
        return [bound, bound + 1, np.int64(bound), np.uint16(bound)]
    return [1, 0.5, np.float32(0.25), np.int64(2)] + ([0, 0.0, -0.0] if bound else [least])


@pytest.mark.parametrize("row", DOMAIN, ids=IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_outside_the_domain_raises_the_documented_error(row, data):
    _, rule, error, name, call = row
    value = data.draw(_invalid(rule), label="value")
    if rule[0] == "measurements" and not isinstance(value, Measurements):
        error = TypeError
    with pytest.raises(error) as info:
        call(value)
    # ConfigError is a ValueError, so a bare ValueError from a config would pass above
    assert type(info.value) is error
    # an index message names the index ("row index 2.5 is not an integer")
    if rule[0] == "index":
        pattern = r"^(%s|row indices) " % re.escape(name)
    else:
        pattern = r"(^|[^\w])%s must be" % re.escape(name)
    assert re.search(pattern, str(info.value)), str(info.value)


# rows whose edge values (NaN, -inf) reach a numpy product that warns
# "invalid value encountered" (a Gaussian or CDP adjoint, the minibatch
# update); the result is still NaN, as documented
WARN_AT_THE_EDGE = {"rwf_gradient.z", "wf_gradient.z", "minibatch_irwf_step.z",
                    "CDPEnsemble.adjoint_apply"}


@pytest.mark.parametrize("row", DOMAIN, ids=IDS)
def test_the_edge_of_the_domain_is_accepted(row):
    row_id, rule, _, _, call = row
    warns = row_id in WARN_AT_THE_EDGE
    with pytest.warns(RuntimeWarning, match="invalid value") if warns else nullcontext():
        for value in _valid(rule):
            call(value)


# callables in phasekit.__all__ that take no argument a rule above covers
NO_ROW = {
    "ConfigError": "an exception class",
    "EmptyTruncationError": "an exception class",
    "InitResult": "a plain record of spectral_initialize's result",
    "RunTrace": "a plain record of run's result",
    "InitParams": "one choice from spectral.PREPROCESSINGS; test_spectral refuses another",
}


def test_every_public_callable_has_a_row_or_a_reason():
    with_row = {row_id.split(".")[0] for row_id in IDS}
    public = [name for name in phasekit.__all__ if callable(getattr(phasekit, name))]
    assert [name for name in public if name not in with_row and name not in NO_ROW] == []
    # no stale reason: each names a public callable that still has no row
    assert sorted(NO_ROW) == sorted(name for name in public if name not in with_row)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: make_gaussian(2.5, 4, "real", 0), "n"),
        (lambda: make_gaussian(True, 4, "real", 0), "n"),
        (lambda: make_cdp(4, 1.5, 0), "L"),
        (lambda: random_signal(2.5, "real", substream(0)), "n"),
        (lambda: from_descriptor({"kind": "real", "n": 2.5, "m": 4, "seed": 0}), "n"),
        (lambda: from_descriptor({"kind": "real", "n": True, "m": 4, "seed": 0}), "n"),
        (lambda: from_descriptor({"kind": "real", "n": "4", "m": 4, "seed": 0}), "n"),
        (lambda: SolverConfig(seed="3").validate(), "seed"),
        (lambda: SolverConfig(seed=2.5).validate(), "seed"),
        (lambda: SolverConfig(seed=-1).validate(), "seed"),
        (lambda: monte_carlo_expected_rwf_loss(CorrelationState(0.5), 1500.7, 0), "samples"),
        (lambda: CorrelationState(0.5, norm_x=True), "norm_x"),
    ],
    ids=["gaussian-float-n", "gaussian-bool-n", "cdp-float-L", "signal-float-n",
         "descriptor-float-n", "descriptor-bool-n", "descriptor-str-n", "solver-str-seed",
         "solver-float-seed", "solver-negative-seed", "mc-float-samples", "state-bool-norm_x"],
)
def test_sizes_seeds_and_sample_counts_are_checked_not_coerced(call, name):
    # each of these was once truncated, coerced, or failed inside numpy
    with pytest.raises(ValueError, match=r"^%s must be" % name):
        call()


@pytest.mark.parametrize("seed", ["3", True, 2.5, -1], ids=["str", "bool", "float", "negative"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: make_gaussian(4, 8, REAL, v),
        lambda v: make_cdp(4, 2, v),
        lambda v: NoiseSpec("bounded", level=0.1, seed=v),
        lambda v: spectral_initialize(_Y, _A, seed=v),
        lambda v: substream(v),
        lambda v: derive_seed(v),
    ],
    ids=["make_gaussian", "make_cdp", "NoiseSpec", "spectral_initialize", "substream",
         "derive_seed"],
)
def test_every_seeded_entry_point_refuses_a_seed_that_is_not_a_count(call, seed):
    # streams would read "3" as its UTF-8 bytes and True as 1, so a seed is
    # refused where it enters, and a NoiseSpec's when it is built
    with pytest.raises(ValueError, match=r"^seed must be"):
        call(seed)


def test_a_numpy_integer_seed_draws_what_the_int_draws():
    assert np.array_equal(make_gaussian(4, 8, REAL, np.int64(3)).rows,
                          make_gaussian(4, 8, REAL, 3).rows)
    assert np.array_equal(substream(np.int64(3), "x").standard_normal(4),
                          substream(3, "x").standard_normal(4))
    assert derive_seed(np.int64(3), "x") == derive_seed(3, "x")


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: abs_product_moment("0.5"), "rho"),
        (lambda: abs_product_moment(True), "rho"),
        (lambda: CorrelationState("0.5"), "rho"),
        (lambda: sign_flip_bound(True, 1.0, 0.1), "t"),
        (lambda: sign_flip_bound(INF, 1.0, 0.1), "t"),
        (lambda: product_magnitude_density(INF, 0.5), "x_val"),
        (lambda: product_magnitude_density("1.0", 0.5), "x_val"),
        (lambda: product_magnitude_density(1.0, "0.5"), "rho"),
        (lambda: product_magnitude_density(1.0, None), "rho"),
    ],
    ids=["moment-str-rho", "moment-bool-rho", "state-str-rho", "bound-bool-t", "bound-inf-t",
         "density-inf-x", "density-str-x", "density-str-rho", "density-none-rho"],
)
def test_analysis_arguments_are_checked_not_coerced(call, name):
    # a flag, a string or inf must not pass for a level or a correlation
    with pytest.raises(ValueError, match=r"^%s must be" % name):
        call()
