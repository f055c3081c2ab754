"""The domain of every count and level the public API takes.

A count is an integer at or above its minimum (numpy integers pass, bools
do not); a level is a finite number above 0, or at least 0 where a zero
level is allowed.  Each row of the table names one argument or config
field, the rule it follows, the error it documents, and a call that
passes a value to it alone.  Outside the domain the call must raise that
error, naming the argument; at its edge it must not raise.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    REAL,
    ConfigError,
    CorrelationState,
    ExperimentConfig,
    NoiseSpec,
    SolverConfig,
    from_descriptor,
    irwf_step,
    make_cdp,
    make_gaussian,
    measure,
    minibatch_irwf_step,
    monte_carlo_expected_rwf_loss,
    random_signal,
)
from phasekit.streams import substream

NAN, INF = float("nan"), float("inf")

_A = make_gaussian(4, 12, REAL, 0)
_X = random_signal(4, REAL, substream(1))
_Y = measure(_A, _X)


def _experiment(**kwargs):
    return ExperimentConfig(**kwargs).validate()


def _solver(**kwargs):
    return SolverConfig(**kwargs).validate()


def _counts(low):
    return ("count", low)


def _levels(zero_ok=False):
    return ("level", zero_ok)


# (row id, rule, documented error, name in the message, call with the value)
DOMAIN = [
    ("random_signal.n", _counts(1), ValueError, "n", lambda v: random_signal(v, REAL, substream(0))),
    ("make_gaussian.n", _counts(1), ValueError, "n", lambda v: make_gaussian(v, 4, REAL, 0)),
    ("make_gaussian.m", _counts(1), ValueError, "m", lambda v: make_gaussian(4, v, REAL, 0)),
    ("make_cdp.n", _counts(2), ValueError, "n", lambda v: make_cdp(v, 2, 0)),
    ("make_cdp.L", _counts(1), ValueError, "L", lambda v: make_cdp(4, v, 0)),
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
]
IDS = [row[0] for row in DOMAIN]

# values outside every domain: a flag, a string, and the non-finite floats
_ALWAYS_BAD = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, NAN, INF, -INF, np.float64(NAN)]),
    st.text(max_size=4),
)


def _invalid(rule):
    """Strategy for values the rule refuses."""
    kind, bound = rule
    if kind == "count":
        # every float, integral ones included, is refused: a count is an integer
        below = st.integers(min_value=-(2**63), max_value=bound - 1)
        return st.one_of(_ALWAYS_BAD, st.floats(), below, below.map(np.int64))
    # a zero level is valid where zero_ok, and so is -0.0, which equals 0
    below = st.floats(max_value=-5e-324 if bound else 0.0)
    return st.one_of(_ALWAYS_BAD, below, st.integers(max_value=-1 if bound else 0))


def _valid(rule):
    """Values at the edge of the rule's domain, numpy scalars included."""
    kind, bound = rule
    if kind == "count":
        return [bound, bound + 1, np.int64(bound), np.uint16(bound)]
    return [1, 0.5, np.float32(0.25), np.int64(2)] + ([0, 0.0, -0.0] if bound else [5e-324])


@pytest.mark.parametrize("row", DOMAIN, ids=IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_outside_the_domain_raises_the_documented_error(row, data):
    _, rule, error, name, call = row
    value = data.draw(_invalid(rule), label="value")
    with pytest.raises(error) as info:
        call(value)
    # ConfigError is a ValueError, so a bare ValueError from a config would pass above
    assert type(info.value) is error
    assert re.search(r"(^|[^\w])%s must be" % re.escape(name), str(info.value)), str(info.value)


@pytest.mark.parametrize("row", DOMAIN, ids=IDS)
def test_the_edge_of_the_domain_is_accepted(row):
    _, rule, _, _, call = row
    for value in _valid(rule):
        call(value)


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

