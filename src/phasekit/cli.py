"""Command-line front end.

    phasekit <command> [--config FILE] [flags...]

`phasekit --help` lists the commands, one per experiment.  Flags override
config-file values, which override the built-in defaults.

Exit codes: 0 success, 1 configuration error (unknown flag/key, bad value,
unreadable config), 2 runtime failure during the experiment.
"""

import argparse
import sys
from dataclasses import fields

from ._version import __version__
from .config import MODELS, NOISE_KINDS, ConfigError, ExperimentConfig, coerce_value, load_config
from .experiments import EXPERIMENTS, execute

# (flag, config field, help) for the flags every command takes
_COMMON_FLAGS = (
    ("--n", "n", "signal dimension"),
    ("--trials", "trials", "number of Monte Carlo trials"),
    ("--seed", "seed", "master seed"),
    ("--out", "output_path", "output CSV path (or directory)"),
    ("--jobs", "jobs", "trial-level worker processes (default 1)"),
    ("--model", "model", "sensing model"),
    ("--m-over-n", "m_over_n", "comma-separated m/n ratios"),
    ("--masks", "masks", "comma-separated CDP mask counts"),
    ("--algo", "algorithms", "comma-separated algorithm list"),
    ("--tol", "success_tol", "success tolerance"),
    ("--budget", "iteration_budget", "pass/iteration budget"),
    ("--k", "minibatch_k", "minibatch/block size"),
    ("--mu", "mu", "batch step size override"),
    ("--rho0", "rho0", "incremental step numerator"),
    ("--record-every", "record_every", "trace recording stride"),
    ("--noise", "noise_kind", "noise model at measurement time"),
    ("--noise-level", "noise_level", "bounded noise level ||w||/(sqrt(m)||x||)"),
    ("--alphas", "alphas", "comma-separated noise levels for sweeps"),
)

_COMMAND_FLAGS = {
    "image-demo": (("--image", "image_path", "input plain PGM file"),),
    "loss-surface": (
        ("--rho-grid", "rho_grid", "number of correlation grid points"),
        ("--normz-grid", "normz_grid", "number of ||z|| grid points"),
    ),
}

_CHOICES = {"model": MODELS, "noise_kind": NOISE_KINDS}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; here that is a config
    # error, reported as exit 1 by main()
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _field_type(key):
    def convert(raw):
        return coerce_value(key, raw)

    convert.__name__ = key
    return convert


def _add_flags(parser, flags):
    for flag, key, text in flags:
        # a flag the user did not pass stays out of the namespace, so every
        # attribute present is an override (`--mu none` included)
        parser.add_argument(
            flag,
            dest=key,
            type=_field_type(key),
            choices=_CHOICES.get(key),
            default=argparse.SUPPRESS,
            help=text,
        )


def build_parser():
    parser = _Parser(
        prog="phasekit",
        description="Matrix-free phase retrieval experiments "
        "(reshaped/incremental Wirtinger flow, Kaczmarz variants).",
    )
    parser.add_argument("--version", action="version", version="phasekit " + __version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key = value config file")
    _add_flags(common, _COMMON_FLAGS)

    for experiment, (command, _, _, text) in EXPERIMENTS.items():
        sp = sub.add_parser(command, parents=[common], help=text, description=text)
        sp.set_defaults(experiment=experiment)
        _add_flags(sp, _COMMAND_FLAGS.get(command, ()))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if getattr(ns, "experiment", None) is None:
            parser.print_usage(sys.stderr)
            print("phasekit: error: a command is required", file=sys.stderr)
            return 1
        overrides = {
            f.name: getattr(ns, f.name) for f in fields(ExperimentConfig) if hasattr(ns, f.name)
        }
        cfg = load_config(getattr(ns, "config", None), overrides)
    except ConfigError as exc:
        print("phasekit: error: %s" % exc, file=sys.stderr)
        return 1
    try:
        table, path = execute(cfg)
    except Exception as exc:  # runtime failure, distinct from config errors
        print("phasekit: runtime error: %s" % exc, file=sys.stderr)
        return 2
    print("wrote %s (%d rows)" % (path, len(table.rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
