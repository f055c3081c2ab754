import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import phasekit

# numerical tests can be slow on loaded machines; never fail on wall time
settings.register_profile(
    "phasekit",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("phasekit")


# --- acceptance-criteria reporting ---------------------------------------
# test_acceptance.py records one PASS/FAIL line per criterion here; the
# lines are echoed after the test summary so a plain `pytest` run shows
# the verdicts without digging through captured output.

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(171)


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter that imports phasekit from this
    checkout, for checks on what a first import or call loads; the test
    fails with the code's stderr if it raises."""
    env = dict(os.environ, PYTHONPATH=str(Path(phasekit.__file__).resolve().parents[1]))

    def run(code):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    return run
