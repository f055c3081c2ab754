"""Experiment configuration and the flat config-file grammar.

Config files are plain text, one assignment per line:

    # comment, blank lines allowed; '#' starts a comment anywhere
    experiment = phase_transition
    n = 256
    m_over_n = 2, 3, 4, 5, 6
    algorithms = rwf, irwf
    trials = 50
    seed = 11

List-valued keys take comma-separated entries.  Every key maps straight
onto an ExperimentConfig field; unknown keys are errors, so typos fail
loudly before any computation starts.
"""

import math
import os
from dataclasses import dataclass, fields

from .core import _count, _is_number, _level
from .experiments import EXPERIMENTS
from .sensing import KINDS as MODELS, NOISE_KINDS
from .solvers import SolverConfig


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or broken invariant."""


@dataclass
class ExperimentConfig:
    experiment: str = "recover"
    n: int = 256
    m_over_n: tuple = (6.0,)
    masks: tuple = (12,)  # CDP mask counts L (model 'cdp' and the image demo)
    model: str = "real"
    algorithms: tuple = ("rwf",)
    trials: int = 50
    success_tol: float = 1e-5
    iteration_budget: int = 1000
    minibatch_k: int = 64
    mu: float = None
    rho0: float = 1.0
    record_every: int = 1
    noise_kind: str = "none"
    noise_level: float = 0.01  # bounded noise: ||w||/sqrt(m) = noise_level * ||x||
    alphas: tuple = (0.001, 0.01, 0.1, 1.0)
    seed: int = 1
    output_path: str = ""
    image_path: str = ""
    rho_grid: int = 41
    normz_grid: int = 21
    jobs: int = 1

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("unknown experiment %r" % self.experiment)
        if self.model not in MODELS:
            raise ConfigError("unknown model %r" % self.model)
        # a list field holds a tuple, as coerce_value builds and config_echo
        # writes back; a scalar or a string would be iterated below
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is tuple and not isinstance(value, tuple):
                raise ConfigError("%s must be a tuple, not %s" % (f.name, type(value).__name__))
        # counts: a float would pass a range test, then fail in range()
        for name, low in (("n", 1), ("trials", 1), ("iteration_budget", 0), ("seed", 0),
                          ("rho_grid", 2), ("normz_grid", 1), ("jobs", 1)):
            _count(getattr(self, name), name, low, ConfigError)
        # an empty tuple fails on its stand-in None, here and for alphas
        for L in self.masks or (None,):
            _count(L, "every mask count", 2, ConfigError)
        if not self.m_over_n or not all(
            _is_number(r) and math.isfinite(r * self.n) for r in self.m_over_n
        ):
            raise ConfigError("every m_over_n must give a finite m")
        # the swept m; none for the image demo, whose n comes from the image
        ms = [] if self.experiment == "image_demo" else self.sweep()
        # the spectral init's optimal preprocessing needs m > n
        if any(m <= self.n for m in ms):
            raise ConfigError("every m_over_n must give m > n")
        if not self.algorithms:
            raise ConfigError("need at least one algorithm")
        _level(self.success_tol, "success_tol", error=ConfigError)
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError("unknown noise kind %r" % self.noise_kind)
        _level(self.noise_level, "noise_level", zero_ok=True, error=ConfigError)
        for a in self.alphas or (None,):
            _level(a, "every alpha", error=ConfigError)
        # the paths are echoed into the CSV metadata, where a line break
        # would split the line and read_csv strips outer blanks
        for name in ("output_path", "image_path"):
            path = str(getattr(self, name))
            if any(ch in path for ch in "\r\n"):
                raise ConfigError("%s must not contain a line break" % name)
            if path != path.strip():
                raise ConfigError("%s must not start or end with a blank" % name)
        # SolverConfig's own checks for each algorithm at each swept size, so
        # that a bad block size fails before any computation; without sizes,
        # the size-free checks.  Last, so that a bad success_tol or
        # iteration_budget is reported under its own name, not as the
        # SolverConfig field it becomes.
        n = self.n if ms else None
        for alg in self.algorithms:
            solver = self.solver_config(alg)
            for m in ms or [None]:
                try:
                    solver.validate(m, n)
                except ValueError as exc:
                    raise ConfigError("%s: %s" % (alg, exc)) from exc
        return self

    def sweep(self):
        """The swept measurement counts m: n L for each mask count L with
        model 'cdp', round(r n) for each m/n ratio r otherwise."""
        if self.model == "cdp":
            return [self.n * int(L) for L in self.masks]
        return [int(round(r * self.n)) for r in self.m_over_n]

    def solver_config(self, algorithm, seed=0):
        """The SolverConfig every driver runs `algorithm` with."""
        return SolverConfig(
            algorithm=algorithm,
            mu=self.mu,
            rho0=self.rho0,
            minibatch_k=self.minibatch_k,
            max_passes=self.iteration_budget,
            tol=self.success_tol,
            seed=seed,
            record_every=self.record_every,
        )


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def coerce_value(key, raw):
    """Parse the raw string for `key` into its typed field value.

    The type is the field's annotation.  A tuple field takes comma-separated
    entries of its default's element type; mu reads 'none' (or nothing) as
    unset.
    """
    if key not in _FIELDS:
        raise ConfigError("unknown config key %r" % key)
    field = _FIELDS[key]
    raw = raw.strip()
    try:
        if field.type is tuple:
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(type(field.default[0])(p) for p in parts)
        if key == "mu":
            return None if raw.lower() in ("none", "") else float(raw)
        return field.type(raw)
    except ValueError as exc:
        raise ConfigError("bad value for %s: %r (%s)" % (key, raw, exc)) from exc


def parse_config_text(text):
    """Raw {key: string} mapping from config-file text."""
    entries = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value'" % ln)
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("line %d: missing key" % ln)
        entries[key] = val.strip()
    return entries


def load_config(path=None, overrides=None):
    """ExperimentConfig from defaults, then the config file at path (None, a
    str, bytes or an os.PathLike), then overrides.

    `overrides` holds already-typed values (CLI flags).  Every override
    applies; None unsets the field back to its built-in default (for mu,
    unset).  The one exception is `experiment`: a file written for another
    experiment is refused, not rerun as this one.  Validation runs on the
    merged result; any problem raises ConfigError.
    """
    values = {}
    if path is not None:
        # open() would take an int as a file descriptor, read it and close it
        if not isinstance(path, (str, bytes, os.PathLike)):
            raise ConfigError("config path must be a str, bytes or path, not %s"
                              % type(path).__name__)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("cannot read config file %s: %s" % (path, exc)) from exc
        for key, raw in parse_config_text(text).items():
            values[key] = coerce_value(key, raw)
    for key, val in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError("unknown config key %r" % key)
        if key == "experiment" and key in values and values[key] != val:
            raise ConfigError("config file is for experiment %r, not %r" % (values[key], val))
        values[key] = _FIELDS[key].default if val is None else val
    return ExperimentConfig(**values).validate()
