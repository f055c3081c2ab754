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
onto an ExperimentConfig field; an unknown key or one given twice is an
error, so typos fail loudly before any computation starts.

Each field is declared once, with its command-line flag (_option), and the
fields that become SolverConfig's take its defaults.
"""

import math
import os
from dataclasses import dataclass, field, fields

from .core import _count, _is_number, _level
from .experiments import EXPERIMENTS
from .sensing import KINDS as MODELS, NOISE_KINDS
from .solvers import SolverConfig


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or broken invariant."""


def _option(default, flag=None, text=None, choices=None):
    """A field with its command-line surface: its flag and help, and the
    values it may take.  cli.build_parser makes the flags from these, for
    the commands whose experiment reads the field (EXPERIMENTS), and
    validate checks the choices."""
    return field(default=default, metadata={"flag": flag, "help": text, "choices": choices})


@dataclass
class ExperimentConfig:
    # set by the command; a tuple of the keys, so that a list is refused, not hashed
    experiment: str = _option("recover", choices=tuple(EXPERIMENTS))
    n: int = _option(256, "--n", "signal dimension")
    m_over_n: tuple = _option((6.0,), "--m-over-n", "comma-separated m/n ratios")
    # CDP mask counts L (model 'cdp' and the image demo)
    masks: tuple = _option((12,), "--masks", "comma-separated CDP mask counts")
    model: str = _option("real", "--model", "sensing model", MODELS)
    algorithms: tuple = _option(("rwf",), "--algo", "comma-separated algorithm list")
    trials: int = _option(50, "--trials", "number of Monte Carlo trials")
    success_tol: float = _option(SolverConfig.tol, "--tol", "success tolerance")
    iteration_budget: int = _option(SolverConfig.max_passes, "--budget", "pass/iteration budget")
    minibatch_k: int = _option(SolverConfig.minibatch_k, "--k", "minibatch/block size")
    mu: float = _option(SolverConfig.mu, "--mu", "batch step size override")
    rho0: float = _option(SolverConfig.rho0, "--rho0", "incremental step numerator")
    record_every: int = _option(SolverConfig.record_every, "--record-every",
                                "trace recording stride")
    noise_kind: str = _option("none", "--noise", "noise model at measurement time", NOISE_KINDS)
    # bounded noise: ||w||/sqrt(m) = noise_level * ||x||
    noise_level: float = _option(0.01, "--noise-level", "bounded noise level ||w||/(sqrt(m)||x||)")
    alphas: tuple = _option((0.001, 0.01, 0.1, 1.0), "--alphas",
                            "comma-separated noise levels for sweeps")
    seed: int = _option(1, "--seed", "master seed")
    output_path: str = _option("", "--out", "output CSV path (or directory)")
    image_path: str = _option("", "--image", "input plain PGM file")
    rho_grid: int = _option(41, "--rho-grid", "number of correlation grid points")
    normz_grid: int = _option(21, "--normz-grid", "number of ||z|| grid points")
    jobs: int = _option(1, "--jobs", "trial-level worker processes (default 1)")

    def validate(self):
        # a field with choices takes one of them; a list field holds a tuple,
        # as coerce_value builds and config_echo writes back (a scalar or a
        # string would be iterated below)
        for f in fields(self):
            value = getattr(self, f.name)
            choices = f.metadata["choices"]
            if choices is not None and value not in choices:
                raise ConfigError("unknown %s %r" % (f.name.replace("_", " "), value))
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
    entries of its default's element type; a field whose default is None
    (mu) reads 'none' (or nothing) as unset.
    """
    if key not in _FIELDS:
        raise ConfigError("unknown config key %r" % key)
    f = _FIELDS[key]
    raw = raw.strip()
    try:
        if f.type is tuple:
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(type(f.default[0])(p) for p in parts)
        if f.default is None and raw.lower() in ("none", ""):
            return None
        return f.type(raw)
    except ValueError as exc:
        raise ConfigError("bad value for %s: %r (%s)" % (key, raw, exc)) from exc


def parse_config_text(text):
    """Raw {key: string} mapping from config-file text; a key given twice
    is an error, as an unknown one is."""
    entries, lines = {}, {}
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
        if key in lines:
            raise ConfigError("line %d: key %r already set on line %d" % (ln, key, lines[key]))
        lines[key] = ln
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
