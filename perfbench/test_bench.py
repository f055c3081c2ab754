"""Self-test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench

Checks that every metric is printed by name with a unit, that the JSON
line carries exactly the metrics BENCHMARK.json declares, that a corrupted
solve counts as a failed operation, that span self times add up to the
traced wall time, and that the benchmark refuses to run without the
phasekit sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

E2E_NAMES = (
    "setup_s",
    "trials_per_s",
    "trial_s_p50",
    "trial_s_tail",
    "passes_total",
    "success_rate",
    "error_rate",
    "init_err_p50",
    "peak_rss_mb",
)
LAYER_NAMES = {
    "all": (
        "sensing.apply_s",
        "sensing.adjoint_s",
        "sensing.apply_gbps",
        "sensing.apply_1t_s",
        "sensing.row_s",
        "sensing.block_apply_s",
        "sensing.build_s",
        "sensing.build_mb",
        "sensing.measure_s",
        "spectral.init_s",
        "spectral.cov_apply_s",
        "spectral.cov_applies",
        "spectral.cov_share",
        "solvers.observe_s",
        "solvers.rwf.observe_share",
        "trace.overhead",
        "self_s.bench",
    )
    + tuple("solvers.%s.pass_s" % a for a in ("rwf", "irwf", "kaczmarz_pr", "minibatch_irwf", "block_kaczmarz_pr")),
    "race": tuple(
        "solvers.%s.%s" % (a, m)
        for a in ("rwf", "irwf", "kaczmarz_pr", "minibatch_irwf", "block_kaczmarz_pr")
        for m in ("solve_s", "passes", "solve_pass_s", "tol_ratio", "budget_passes", "solve_observe_share")
    ),
    "transition": (
        "experiments.driver_s",
        "experiments.serial_trial_s",
        "experiments.pool_efficiency",
        "results.write_s",
        "solvers.irwf.budget_passes",
    ),
}
TIME_TO_TOL = {
    "race": ["time_to_tol_s.%s.real" % a for a in ("rwf", "irwf", "kaczmarz_pr", "minibatch_irwf", "block_kaczmarz_pr")]
    + ["time_to_tol_s.%s.complex" % a for a in ("rwf", "irwf", "kaczmarz_pr")],
    "cdp": ["time_to_tol_s.rwf.image", "time_to_tol_s.block_kaczmarz_pr.image", "time_to_tol_s.kaczmarz_pr.small"],
    "transition": ["time_to_tol_s"],
    "init": [],
}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


def _run(workload, trace, cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _metric_lines(stdout):
    """{name: unit} from the report's metric lines (n/a lines included)."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == "metric":
            out[parts[1]] = parts[3]
    return out


@pytest.mark.parametrize("workload", ["race", "transition", "cdp", "init"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    printed = _metric_lines(proc.stdout)
    if trace:
        wanted = LAYER_NAMES["all"] + LAYER_NAMES.get(workload, ())
        declared = _declared()["per_layer"]
    else:
        wanted = E2E_NAMES + tuple(TIME_TO_TOL[workload])
        declared = _declared()["end_to_end"]
    for name in wanted:
        assert name in printed and printed[name], "metric %s missing from\n%s" % (name, proc.stdout)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
    machine = [line for line in proc.stdout.splitlines() if line.startswith("machine ")]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "num_threads_env"):
        assert any(line.startswith("machine %s = " % key) for line in machine)


def test_corrupted_solve_counts_in_error_rate(monkeypatch, capsys):
    import run

    run.import_phasekit()
    from phasekit import solvers

    honest = solvers.run

    def corrupted(y, A, z0, cfg, x_opt=None):
        trace = honest(y, A, z0, cfg, x_opt=x_opt)
        trace.iterate = trace.iterate + 1.0  # still claims stop_reason 'tol'
        return trace

    monkeypatch.setattr(solvers, "run", corrupted)
    status = run.main(["--workload", "race", "--seed", "3", "--seconds", "0.1", "--toy"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] > 0
    rate = [line.split()[2] for line in out.splitlines() if line.startswith("metric error_rate")]
    assert rate and float(rate[0]) > 0


def test_self_times_add_up_to_wall():
    from spans import Tracer

    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    root = tr.begin("bench.run")
    solve = tr.begin("solvers.run.rwf")
    tr.end(tr.begin("sensing.apply"))
    tr.add("sensing.row", 0.5)
    tr.end(solve)
    tr.end(tr.begin("results.write_csv"))
    tr.end(root)
    layers = tr.layer_self_seconds()
    wall = tr.spans[0][2] - tr.spans[0][1]
    assert sum(layers.values()) == pytest.approx(wall)
    assert layers["sensing"] == pytest.approx(1.5)
    assert layers["solvers"] == pytest.approx(1.5)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("init", 0, cwd=tmp_path, run=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
