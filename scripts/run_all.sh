#!/usr/bin/env bash
# Run every canned experiment config into results/.  The full set takes
# around ten minutes; pass config names (without .cfg) to run a subset:
#
#   scripts/run_all.sh phase_transition image_demo
#
# Each config's command is the CLI command of its `experiment`, read from
# phasekit.experiments.EXPERIMENTS in the src/ beside this script, and is
# run from that src/ too, whether or not phasekit is installed.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

command_for() {
    python3 -c '
import sys
from phasekit.config import ConfigError, load_config
from phasekit.experiments import EXPERIMENTS
try:
    print(EXPERIMENTS[load_config(sys.argv[1]).experiment][0])
except ConfigError as exc:
    sys.exit("%s: %s" % (sys.argv[1], exc))
' "$1"
}

if [ "$#" -gt 0 ]; then
    names=("$@")
else
    names=()
    for f in configs/*.cfg; do
        base=$(basename "$f" .cfg)
        names+=("$base")
    done
fi

for name in "${names[@]}"; do
    cmd=$(command_for "configs/$name.cfg")
    echo "== phasekit $cmd --config configs/$name.cfg"
    python3 -m phasekit.cli "$cmd" --config "configs/$name.cfg"
done
