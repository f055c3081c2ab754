"""Command-line front end.

    phasekit <command> [--config FILE] [flags...]

`phasekit --help` lists the commands, one per experiment.  Besides
--config, a command's flags are those of the ExperimentConfig fields its
experiment reads (EXPERIMENTS), in field order, as each field declares
them; any other flag is an error.  A config file takes every field.  Flags
override config-file values, which override the built-in defaults.

Exit codes: 0 success, 1 configuration error (unknown flag/key, bad value,
unreadable config), 2 runtime failure during the experiment.
"""

import argparse
import sys
from dataclasses import fields

from ._version import __version__
from .config import ConfigError, ExperimentConfig, coerce_value, load_config
from .experiments import EXPERIMENTS, execute


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


def build_parser():
    parser = _Parser(
        prog="phasekit",
        description="Matrix-free phase retrieval experiments "
        "(reshaped/incremental Wirtinger flow, Kaczmarz variants).",
    )
    parser.add_argument("--version", action="version", version="phasekit " + __version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    for experiment, (command, _, _, text, reads) in EXPERIMENTS.items():
        sp = sub.add_parser(command, help=text, description=text)
        sp.set_defaults(experiment=experiment)
        sp.add_argument("--config", metavar="FILE", help="flat key = value config file")
        for f in fields(ExperimentConfig):
            meta = f.metadata
            if f.name in reads:
                # a flag the user did not pass stays out of the namespace, so
                # every attribute present is an override (`--mu none` included)
                sp.add_argument(
                    meta["flag"],
                    dest=f.name,
                    type=_field_type(f.name),
                    choices=meta["choices"],
                    default=argparse.SUPPRESS,
                    help=meta["help"],
                )
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
