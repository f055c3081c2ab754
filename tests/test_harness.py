"""Config grammar, CSV tables, PGM io, experiment drivers, and the CLI.

Experiment tests run at toy sizes; the statistical claims at real sizes
live in test_acceptance.py.  Everything here is deterministic, so row
values can be compared exactly across reruns and worker counts.
"""

import argparse
import concurrent.futures
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from phasekit.cli import build_parser, main
from phasekit.config import (
    MODELS,
    ConfigError,
    ExperimentConfig,
    coerce_value,
    load_config,
    parse_config_text,
)
from phasekit.experiments import (
    EXPERIMENTS,
    config_echo,
    execute,
    make_instance,
    run_convergence_race,
    run_image_demo,
    run_init_accuracy,
    run_noise_sweep,
    run_phase_transition,
    run_recover,
    synthetic_image,
)
from phasekit.pgm import read_pgm, write_pgm
from phasekit.results import ResultTable, csv_fingerprint, read_csv, write_csv
from phasekit.sensing import KINDS, NOISE_KINDS
from phasekit.solvers import SolverConfig


# --- config ---------------------------------------------------------------


def test_parse_config_text():
    text = """
    # full-line comment
    experiment = recover   # trailing comment
    n = 64

    m_over_n = 2, 3.5
    """
    entries = parse_config_text(text)
    assert entries == {"experiment": "recover", "n": "64", "m_over_n": "2, 3.5"}


def test_parse_config_text_errors():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("n = 4\nnot an assignment\n")
    with pytest.raises(ConfigError, match="missing key"):
        parse_config_text("= 5\n")


def test_parse_config_text_refuses_a_repeated_key(tmp_path):
    # a repeated key is an error, as an unknown one is: no value is picked
    text = "n = 4\nseed = 2\n\n# n = 6 in a comment is no assignment\nn = 8\n"
    with pytest.raises(ConfigError, match="^line 5: key 'n' already set on line 1$"):
        parse_config_text(text)
    cfgfile = tmp_path / "twice.cfg"
    cfgfile.write_text(text)
    with pytest.raises(ConfigError, match="'n' already set"):
        load_config(str(cfgfile))


def test_coerce_value_types():
    assert coerce_value("m_over_n", "2, 3.5 ,6") == (2.0, 3.5, 6.0)
    assert coerce_value("masks", "12") == (12,)
    assert coerce_value("algorithms", "rwf, irwf") == ("rwf", "irwf")
    assert coerce_value("alphas", "0.01,0.1") == (0.01, 0.1)
    assert coerce_value("mu", "none") is None
    assert coerce_value("mu", "0.8") == 0.8
    assert coerce_value("trials", "9") == 9
    assert coerce_value("success_tol", "1e-8") == 1e-8
    assert coerce_value("model", "cdp") == "cdp"


def test_coerce_value_errors():
    with pytest.raises(ConfigError):
        coerce_value("not_a_key", "1")
    with pytest.raises(ConfigError):
        coerce_value("trials", "three")
    with pytest.raises(ConfigError):
        coerce_value("m_over_n", " , ,")


def test_load_config_precedence(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("experiment = recover\nn = 64\ntrials = 5\n")
    cfg = load_config(str(p), overrides={"n": 32, "seed": None})
    assert cfg.n == 32  # flag beats file
    assert cfg.trials == 5  # file beats default
    assert cfg.seed == 1  # None override ignored, default kept


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.cfg"))


def test_load_config_refuses_a_path_that_is_not_a_path():
    # open() takes an int as a file descriptor: it would read the pipe as a
    # config and close it
    r, w = os.pipe()
    os.write(w, b"n = 32\n")
    os.close(w)
    try:
        with pytest.raises(ConfigError, match="^config path must be"):
            load_config(r)
        os.fstat(r)  # still open
    finally:
        os.close(r)
    with pytest.raises(ConfigError, match="^config path must be"):
        load_config(3.5)
    assert load_config(Path(__file__).resolve().parents[1] / "configs" / "recover.cfg").n > 0


def test_load_config_unknown_override():
    with pytest.raises(ConfigError):
        load_config(None, overrides={"bogus": 1})


@pytest.mark.parametrize("path", sorted(Path(__file__).resolve().parents[1].glob("configs/*.cfg")),
                         ids=lambda p: p.name)
def test_canned_configs_load(path):
    cfg = load_config(str(path))
    assert cfg.experiment == parse_config_text(path.read_text())["experiment"]


def test_sweep_and_solver_config():
    cfg = ExperimentConfig(n=10, m_over_n=(2.0, 2.46), masks=(3, 4), iteration_budget=7,
                           success_tol=1e-3, mu=0.5, rho0=2.0, minibatch_k=5, record_every=3)
    assert cfg.sweep() == [20, 25]
    cfg.model = "cdp"
    assert cfg.sweep() == [30, 40]
    solver = cfg.solver_config("irwf", seed=9)
    assert (solver.algorithm, solver.mu, solver.rho0, solver.minibatch_k) == ("irwf", 0.5, 2.0, 5)
    assert (solver.max_passes, solver.tol, solver.seed, solver.record_every) == (7, 1e-3, 9, 3)


def test_solver_defaults_come_from_solver_config():
    for alg in ("rwf", "irwf", "block_kaczmarz_pr"):
        assert ExperimentConfig().solver_config(alg) == SolverConfig(algorithm=alg)


@pytest.mark.parametrize("kwargs, message", [
    ({"experiment": "nope"}, "unknown experiment 'nope'"),
    ({"experiment": ["recover"]}, r"unknown experiment \['recover'\]"),  # unhashable
    ({"model": "quaternion"}, "unknown model 'quaternion'"),
    ({"noise_kind": "pink"}, "unknown noise kind 'pink'"),
])
def test_validate_names_an_unknown_choice(kwargs, message):
    with pytest.raises(ConfigError, match="^%s$" % message):
        ExperimentConfig(**kwargs).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"experiment": "nope"},
        {"model": "quaternion"},
        {"n": 0},
        {"m_over_n": (0.5,)},
        {"m_over_n": (1.0,)},
        {"masks": (0,)},
        {"masks": (1,)},
        {"algorithms": ()},
        {"algorithms": ("gradient_descent",)},
        {"trials": 0},
        {"success_tol": 0.0},
        {"iteration_budget": -1},
        {"minibatch_k": 0},
        {"mu": -0.5},
        {"rho0": 0.0},
        {"record_every": 0},
        {"noise_kind": "cauchy"},
        {"noise_level": -0.1},
        {"alphas": (0.0,)},
        {"seed": -1},
        {"rho_grid": 1},
        {"normz_grid": 0},
        {"jobs": 0},
        {"n": 10, "algorithms": ("block_kaczmarz_pr",), "minibatch_k": 64},
        {"noise_level": float("nan")},
        {"noise_level": float("inf")},
        {"alphas": (float("nan"),)},
        {"alphas": (1.0, float("inf"))},
        {"m_over_n": (float("nan"),)},
        {"m_over_n": (float("inf"),)},
        {"m_over_n": (2.0, float("nan"))},
        {"success_tol": float("nan")},
        {"success_tol": float("inf")},
        {"mu": float("nan")},
        {"mu": float("inf")},
        {"rho0": float("nan")},
        {"rho0": float("inf")},
        {"output_path": "a\nb.csv"},
        {"image_path": "x\r.pgm"},
        {"output_path": " a.csv "},
        {"image_path": "x.pgm\t"},
        {"n": 10.5},
        {"trials": 1.5},
        {"iteration_budget": 2.5},
        {"seed": 1.5},
        {"rho_grid": 5.5},
        {"normz_grid": 2.5},
        {"jobs": 1.5},
        {"masks": (5.5,)},
        {"masks": (6, 2.0)},
        {"minibatch_k": 1.5},
        {"record_every": 1.5},
        {"success_tol": "1"},
        {"mu": "1"},
        {"rho0": None},
        {"noise_level": None},
        {"alphas": ("a",)},
        {"m_over_n": ("a",)},
        {"n": True, "m_over_n": (3.0,)},
        {"trials": True},
        {"minibatch_k": True},
    ],
)
def test_validate_rejects(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs).validate()


def test_validate_accepts_numpy_integers():
    i = np.int64
    ExperimentConfig(n=i(16), trials=i(2), iteration_budget=i(5), seed=i(3), rho_grid=i(5),
                     normz_grid=i(2), jobs=i(1), masks=(i(4),), minibatch_k=i(8),
                     record_every=i(2)).validate()


def test_experiment_table_drives_cli_and_validation():
    for experiment, (command, _, _, _, _) in EXPERIMENTS.items():
        assert build_parser().parse_args([command]).experiment == experiment
        ExperimentConfig(experiment=experiment).validate()


def test_image_demo_ignores_m_over_n():
    # the demo's n comes from the image, so no m_over_n gives it m <= n
    ExperimentConfig(experiment="image_demo", m_over_n=(1.0,)).validate()
    with pytest.raises(ConfigError, match="minibatch_k"):
        ExperimentConfig(experiment="image_demo", algorithms=("block_kaczmarz_pr",),
                         minibatch_k=0).validate()


def test_config_echo_flattens_tuples():
    echo = config_echo(ExperimentConfig(m_over_n=(2.0, 6.0), algorithms=("rwf", "wf")))
    assert echo["m_over_n"] == "2.0, 6.0"
    assert echo["algorithms"] == "rwf, wf"
    assert list(echo)[0] == "experiment"


# --- result tables ----------------------------------------------------------


def _demo_table():
    return ResultTable(
        columns=("name", "k", "v", "flag"),
        rows=[
            {"name": "a", "k": 3, "v": 0.1 + 0.2, "flag": True},
            {"name": "b", "k": -1, "v": 1e-300, "flag": False},
        ],
        metadata={"experiment": "demo", "n": 8},
    )


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(_demo_table(), path)
    meta, cols, rows = read_csv(path)
    assert meta["experiment"] == "demo"
    assert meta["n"] == "8"
    assert "timestamp" in meta
    assert cols == ("name", "k", "v", "flag")
    assert len(rows) == 2
    # repr() cells reparse to the exact same double
    assert float(rows[0]["v"]) == 0.1 + 0.2
    assert float(rows[1]["v"]) == 1e-300
    assert rows[1]["k"] == "-1"
    assert rows[0]["flag"] == "True"


def test_csv_fingerprint_drops_timestamp(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(_demo_table(), str(a))
    write_csv(_demo_table(), str(b))
    lines = b.read_text().splitlines(keepends=True)
    stamped = [i for i, ln in enumerate(lines) if ln.startswith("# timestamp = ")]
    assert len(stamped) == 1
    lines[stamped[0]] = "# timestamp = 1970-01-01T00:00:00+00:00\n"
    b.write_text("".join(lines))
    assert a.read_bytes() != b.read_bytes()
    assert csv_fingerprint(str(a)) == csv_fingerprint(str(b))


def test_csv_fingerprint_masks_columns(tmp_path):
    # a *_seconds column is wall clock and masked; every other column counts
    def fingerprint(tag, v, solve_seconds):
        table = _demo_table()
        table.columns += ("solve_seconds",)
        for row in table.rows:
            row["solve_seconds"] = 0.5
        table.rows[0].update(v=v, solve_seconds=solve_seconds)
        path = str(tmp_path / (tag + ".csv"))
        write_csv(table, path)
        return csv_fingerprint(path)

    first = fingerprint("a", 0.1, 1.5)
    assert fingerprint("b", 42.0, 1.5) != first
    assert fingerprint("c", 0.1, 42.0) == first


def _demo_with(meta=None, name="a"):
    """_demo_table with extra metadata and its first name cell replaced."""
    table = _demo_table()
    table.metadata.update(meta or {})
    table.rows[0]["name"] = name
    return table


@pytest.mark.parametrize(
    "table",
    [
        _demo_with({"output_path": "a\nb.csv"}),
        _demo_with({"note": "a\rb"}),
        _demo_with({"a\nb": 1}),
        _demo_with({"a=b": 1}),
        _demo_with({"output_path": " a.csv "}),
        _demo_with({" a": 1}),
        _demo_with(name="a,b"),
        _demo_with(name="a\nb"),
        _demo_with(name="# a"),
        ResultTable(columns=("a,b",)),
        ResultTable(columns=("a\nb",)),
        ResultTable(columns=("#a",)),
        ResultTable(columns=("a",), rows=[{"a": ""}]),
    ],
    ids=["meta-lf", "meta-cr", "key-lf", "key-equals", "meta-blanks",
         "key-blank", "cell-comma", "cell-lf", "cell-hash",
         "column-comma", "column-lf", "column-hash", "empty-row"],
)
def test_write_csv_refuses_what_read_csv_cannot_read_back(tmp_path, table):
    path = tmp_path / "sub" / "t.csv"
    with pytest.raises(ValueError, match="cannot be read back"):
        write_csv(table, str(path))
    assert not (tmp_path / "sub").exists()


def test_read_csv_requires_header(tmp_path):
    p = tmp_path / "empty.csv"
    # no header, then rows with a cell too many and a cell too few
    for text in ("# only = metadata\n", "a,b\n1,2,3\n", "a,b\n4\n"):
        p.write_text(text)
        with pytest.raises(ValueError):
            read_csv(str(p))
        with pytest.raises(ValueError):
            csv_fingerprint(str(p))


# --- pgm --------------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    img = rng.integers(0, 256, size=(5, 9))
    path = str(tmp_path / "t.pgm")
    write_pgm(path, img)
    back, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(back, img)
    # plain format caps line length at 70 characters
    with open(path) as fh:
        assert max(len(line.rstrip("\n")) for line in fh) <= 70


def test_pgm_wide_range_round_trip(tmp_path):
    img = np.array([[0, 1000], [999, 500]])
    path = str(tmp_path / "t.pgm")
    write_pgm(path, img, maxval=1000)
    back, maxval = read_pgm(path)
    assert maxval == 1000
    assert np.array_equal(back, img)


def test_pgm_write_errors(tmp_path):
    path = str(tmp_path / "t.pgm")
    with pytest.raises(ValueError):
        write_pgm(path, np.zeros(4))
    with pytest.raises(ValueError):
        write_pgm(path, np.zeros((2, 2)), maxval=0)
    with pytest.raises(ValueError):
        write_pgm(path, np.full((2, 2), 300.0))


def test_pgm_read_errors(tmp_path):
    cases = {
        "p5.pgm": "P5\n2 2\n255\n0 0 0 0\n",
        "short.pgm": "P2\n2 2\n",
        "count.pgm": "P2\n2 2\n255\n0 0 0\n",
        "range.pgm": "P2\n2 2\n255\n0 0 0 300\n",
    }
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError):
            read_pgm(str(p))


def test_pgm_refuses_what_the_format_cannot_hold(tmp_path, capsys):
    big = tmp_path / "big.pgm"
    big.write_text("P2\n4 4\n70000\n" + " ".join(["69999"] * 16) + "\n")
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(str(big))
    # the image is read before the output directory is made
    out = tmp_path / "demo"
    assert main(["image-demo", "--image", str(big), "--out", str(out), "--budget", "20"]) == 2
    assert "maxval" in capsys.readouterr().err
    assert not out.exists()
    path = str(tmp_path / "t.pgm")
    for maxval in (255.5, 255.0, True, 70000):
        with pytest.raises(ValueError, match="maxval"):
            write_pgm(path, np.zeros((2, 2)), maxval=maxval)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="pixel values must be finite"):
            write_pgm(path, np.array([[1.0, bad]]))
    assert not os.path.exists(path)


def test_pgm_read_honors_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_text("P2 # magic\n# a comment line\n2 1\n9\n3 7 # data\n")
    img, maxval = read_pgm(str(p))
    assert maxval == 9
    assert np.array_equal(img, [[3, 7]])


# --- experiment drivers -----------------------------------------------------


def test_make_instance_deterministic():
    x1, A1 = make_instance("real", 10, 40, 7, ("t", 0))
    x2, A2 = make_instance("real", 10, 40, 7, ("t", 0))
    x3, _ = make_instance("real", 10, 40, 7, ("t", 1))
    assert np.array_equal(x1, x2)
    assert np.array_equal(A1.materialize(), A2.materialize())
    assert not np.array_equal(x1, x3)
    assert A1.m == 40


def test_models_are_ensemble_kinds():
    # one vocabulary: the config's models are the ensembles' kinds
    assert MODELS == KINDS
    for model in MODELS:
        x, A = make_instance(model, 8, 24, 7, ("t", 0))
        assert A.kind == model
        assert (x.dtype == np.float64) == (model == "real")


def test_phase_transition_accounting():
    cfg = ExperimentConfig(
        experiment="phase_transition",
        n=12,
        m_over_n=(3.0, 6.0),
        algorithms=("rwf", "irwf"),
        trials=2,
        iteration_budget=40,
        seed=3,
    ).validate()
    table = run_phase_transition(cfg)
    assert len(table.rows) == 4  # algorithm-major, then sweep order
    assert [r["algorithm"] for r in table.rows] == ["rwf", "rwf", "irwf", "irwf"]
    assert [r["m"] for r in table.rows][:2] == [36, 72]
    for r in table.rows:
        assert 0 <= r["successes"] <= r["trials"] == 2
        assert r["success_rate"] == r["successes"] / 2
    # with this seed the oversampled point recovers and the starved one fails
    assert table.rows[1]["success_rate"] > table.rows[0]["success_rate"]


def test_phase_transition_cdp_sweeps_masks():
    cfg = ExperimentConfig(
        experiment="phase_transition",
        model="cdp",
        n=8,
        masks=(2, 3),
        algorithms=("rwf",),
        trials=2,
        iteration_budget=50,
        seed=5,
    ).validate()
    table = run_phase_transition(cfg)
    assert [r["m"] for r in table.rows] == [16, 24]


def test_convergence_race_rows():
    cfg = ExperimentConfig(
        experiment="convergence_race",
        n=16,
        m_over_n=(8.0,),
        algorithms=("rwf", "irwf"),
        trials=2,
        success_tol=1e-8,
        iteration_budget=300,
        seed=7,
    ).validate()
    table = run_convergence_race(cfg)
    assert table.columns == ("algorithm", "n", "m", "mean_passes", "mean_seconds")
    assert len(table.rows) == 2
    for r in table.rows:
        assert r["m"] == 128
        assert 0 < r["mean_passes"] < 300  # both converge inside the budget
        assert r["mean_seconds"] > 0


def test_init_accuracy_deterministic_rerun():
    cfg = ExperimentConfig(
        experiment="init_accuracy",
        n=24,
        m_over_n=(4.0, 8.0),
        trials=4,
        seed=21,
    ).validate()
    rows1 = run_init_accuracy(cfg).rows
    rows2 = run_init_accuracy(cfg).rows
    assert rows1 == rows2
    for r in rows1:
        assert 0 < r["q25"] <= r["median_err"] <= r["q75"]
    assert rows1[1]["median_err"] < rows1[0]["median_err"]  # more samples help


def test_noise_sweep_clean_converges():
    cfg = ExperimentConfig(
        experiment="noise_sweep",
        n=16,
        m_over_n=(8.0,),
        algorithms=("rwf",),
        trials=2,
        success_tol=1e-9,
        iteration_budget=300,
        noise_kind="none",
        seed=9,
    ).validate()
    table = run_noise_sweep(cfg)
    assert len(table.rows) == 1
    assert table.rows[0]["alpha"] == 0.0
    assert table.rows[0]["median_final_err"] <= 1e-9


def test_noise_sweep_poisson_levels():
    cfg = ExperimentConfig(
        experiment="noise_sweep",
        n=16,
        m_over_n=(8.0,),
        algorithms=("rwf",),
        trials=2,
        iteration_budget=60,
        noise_kind="poisson",
        alphas=(0.01, 1.0),
        seed=9,
    ).validate()
    table = run_noise_sweep(cfg)
    assert [r["alpha"] for r in table.rows] == [0.01, 1.0]
    for r in table.rows:
        assert np.isfinite(r["median_final_err"])
        assert r["median_final_err"] > 0


def test_recover_trace_schema():
    cfg = ExperimentConfig(
        experiment="recover",
        n=12,
        m_over_n=(6.0,),
        algorithms=("rwf", "wf"),
        trials=2,
        iteration_budget=20,
        record_every=5,
        success_tol=1e-13,
        seed=11,
    ).validate()
    table = run_recover(cfg)
    seen = set()
    for r in table.rows:
        seen.add((r["trial_id"], r["algorithm"]))
        assert r["pass_count"] in (0, 5, 10, 15, 20)
        assert np.isfinite(r["relative_error"])
        assert np.isfinite(r["loss"]) and r["loss"] >= 0
    assert seen == {(t, a) for t in (0, 1) for a in ("rwf", "wf")}
    # each block starts at pass 0 with increasing pass counts
    starts = [r for r in table.rows if r["pass_count"] == 0]
    assert len(starts) == 4


def test_image_demo_all_zero(tmp_path):
    src = str(tmp_path / "zero.pgm")
    write_pgm(src, np.zeros((4, 4)))
    out = str(tmp_path / "out")
    cfg = ExperimentConfig(
        experiment="image_demo",
        model="cdp",
        masks=(4,),
        algorithms=("rwf",),
        image_path=src,
        output_path=out,
        seed=2,
    ).validate()
    summary = run_image_demo(cfg)
    r = summary.rows[0]
    assert r["passes_to_tol"] == 0
    assert r["final_error"] == 0.0
    assert r["stop_reason"] == "tol"
    img, _ = read_pgm(os.path.join(out, "recovered.pgm"))
    assert not np.any(img)
    _, cols, rows = read_csv(os.path.join(out, "trace.csv"))
    assert len(rows) == 1 and rows[0]["pass_count"] == "0"


def test_image_demo_recovers_synthetic_card(tmp_path):
    out = str(tmp_path / "demo")
    cfg = ExperimentConfig(
        experiment="image_demo",
        model="cdp",
        masks=(12,),
        algorithms=("rwf",),
        success_tol=1e-10,
        iteration_budget=400,
        output_path=out,
        seed=13,
    ).validate()
    summary = run_image_demo(cfg)
    r = summary.rows[0]
    assert r["stop_reason"] == "tol"
    assert r["final_error"] <= 1e-10
    assert 0 < r["passes_to_tol"] <= 400
    img, maxval = read_pgm(os.path.join(out, "recovered.pgm"))
    assert maxval == 255
    assert np.array_equal(img, synthetic_image())  # pixel-perfect at 1e-10
    for name in ("trace.csv", "summary.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_image_demo_more_masks_converge_faster(tmp_path):
    passes = {}
    for L in (6, 12):
        out = str(tmp_path / ("demo%d" % L))
        cfg = ExperimentConfig(
            experiment="image_demo",
            model="cdp",
            masks=(L,),
            algorithms=("rwf",),
            success_tol=1e-10,
            iteration_budget=400,
            output_path=out,
            seed=13,
        ).validate()
        passes[L] = run_image_demo(cfg).rows[0]["passes_to_tol"]
    assert 0 < passes[12] < passes[6]


def test_synthetic_image_properties():
    img = synthetic_image()
    assert img.shape == (32, 32)
    assert img.min() >= 0 and img.max() <= 255
    assert np.array_equal(img, synthetic_image())
    assert len(np.unique(img)) > 10  # gradient plus two flat features


def test_execute_writes_loss_surface(tmp_path):
    path = str(tmp_path / "surface.csv")
    cfg = ExperimentConfig(
        experiment="loss_surface", rho_grid=5, normz_grid=3, output_path=path
    ).validate()
    table, out = execute(cfg)
    assert out == path
    assert len(table.rows) == 15
    meta, cols, rows = read_csv(path)
    assert meta["experiment"] == "loss_surface"
    assert "phasekit_version" in meta
    assert cols == ("rho", "norm_z", "expected_rwf_loss", "expected_wf_loss")
    assert len(rows) == 15
    # losses vanish where the iterate matches the signal exactly
    exact = [r for r in rows if r["rho"] == "1.0" and r["norm_z"] == "1.0"]
    assert len(exact) == 1
    assert float(exact[0]["expected_rwf_loss"]) == 0.0


def test_execute_rerun_fingerprints_match(tmp_path):
    path = str(tmp_path / "trace.csv")
    cfg = ExperimentConfig(
        experiment="recover",
        n=10,
        m_over_n=(5.0,),
        algorithms=("irwf",),
        trials=1,
        iteration_budget=10,
        seed=17,
        output_path=path,
    ).validate()
    execute(cfg)
    first = csv_fingerprint(path)
    execute(cfg)
    assert csv_fingerprint(path) == first


def test_parallel_trials_match_serial():
    base = dict(
        n=12,
        m_over_n=(3.0, 6.0),
        algorithms=("rwf",),
        trials=2,
        iteration_budget=40,
        seed=3,
    )
    drivers = [
        (run_phase_transition, dict(experiment="phase_transition")),
        (run_init_accuracy, dict(experiment="init_accuracy")),
        (
            run_noise_sweep,
            dict(experiment="noise_sweep", noise_kind="poisson", alphas=(0.01, 1.0)),
        ),
        (run_convergence_race, dict(experiment="convergence_race", algorithms=("rwf", "irwf"))),
    ]

    def rows(driver, kwargs, jobs):
        # mean_seconds is wall clock, the one field allowed to differ
        table = driver(ExperimentConfig(**kwargs, jobs=jobs).validate())
        return [{k: v for k, v in r.items() if k != "mean_seconds"} for r in table.rows]

    for driver, extra in drivers:
        kwargs = {**base, **extra}
        assert rows(driver, kwargs, 1) == rows(driver, kwargs, 2), extra["experiment"]


def test_pool_starts_no_more_workers_than_trials(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args, chunksize=1):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = ExperimentConfig(experiment="convergence_race", n=8, m_over_n=(4.0,), trials=2,
                           iteration_budget=5, jobs=64).validate()
    run_convergence_race(cfg)
    assert started == [2]
    cfg.trials = 1
    run_convergence_race(cfg)
    assert started == [2]  # a single trial runs in this process



# scipy and the process pool stay off `import phasekit` and load on first use
_FIRST_USE_CHECK = """
import sys
import numpy as np
from phasekit import REAL, SolverConfig, make_gaussian, measure, random_signal, run, spectral_initialize
from phasekit.streams import substream

def loaded(*names):
    return [k for k in names if k in sys.modules]

A = make_gaussian(8, 48, REAL, seed=1)
y = measure(A, random_signal(8, REAL, substream(1)))
assert not loaded("scipy.linalg", "scipy.sparse"), loaded("scipy.linalg", "scipy.sparse")
run(y, A, np.ones(8), SolverConfig("irwf", max_passes=1))  # the per-sample BLAS kernel
assert "scipy.linalg" in sys.modules, "first run()"
spectral_initialize(y, A)
assert loaded("scipy.sparse.linalg"), "first spectral_initialize"
"""

# a pooled driver imports scipy before it builds its pool, so that forked
# workers inherit it instead of each importing it on its first trial
_POOL_CHECK = """
import concurrent.futures, sys
from phasekit.config import ExperimentConfig
from phasekit.experiments import run_convergence_race

seen = []

class SerialPool:
    def __init__(self, max_workers):
        seen.append([k for k in ("scipy.linalg", "scipy.sparse.linalg") if k in sys.modules])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args, chunksize=1):
        return map(fn, args)

concurrent.futures.ProcessPoolExecutor = SerialPool
cfg = ExperimentConfig(experiment="convergence_race", n=8, m_over_n=(4.0,), trials=2,
                       iteration_budget=5, jobs=2).validate()
assert "scipy.linalg" not in sys.modules
run_convergence_race(cfg)
assert seen == [["scipy.linalg", "scipy.sparse.linalg"]], seen
"""

_HELP_CHECK = """
import sys
from phasekit.cli import main
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
lazy = ("scipy.linalg", "scipy.sparse", "scipy.special", "concurrent.futures")
assert not [k for k in lazy if k in sys.modules], [k for k in lazy if k in sys.modules]
"""


def test_run_and_init_load_scipy_on_first_call(fresh_python):
    fresh_python(_FIRST_USE_CHECK)


def test_pool_parent_loads_scipy_before_forking(fresh_python):
    fresh_python(_POOL_CHECK)


def test_cli_help_loads_no_scipy_or_pool(fresh_python):
    fresh_python(_HELP_CHECK)


# --- command line -----------------------------------------------------------


def _command_flags():
    """{command: {flag: dest}} of the parser, --config and --help left out."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {command: {a.option_strings[0]: a.dest for a in sp._actions
                      if a.option_strings and a.dest not in ("config", "help")}
            for command, sp in sub.choices.items()}


def test_each_field_is_a_flag_on_the_commands_it_names():
    flags = _command_flags()
    assert set(flags) == {row[0] for row in EXPERIMENTS.values()}
    for command, _, _, _, reads in EXPERIMENTS.values():
        # the fields the experiment reads, in field order, each under its own flag
        assert list(flags[command].values()) == [f.name for f in fields(ExperimentConfig)
                                                 if f.name in reads], command
        for flag, name in flags[command].items():
            assert flag == ExperimentConfig.__dataclass_fields__[name].metadata["flag"]


def _traced_reads(monkeypatch, tmp_path, experiment, model, noise_kind):
    """The ExperimentConfig fields execute reads for one toy run."""
    names = {f.name for f in fields(ExperimentConfig)}
    read = set()

    class Recording(ExperimentConfig):
        def __getattribute__(self, name):
            if name in names:
                read.add(name)
            return super().__getattribute__(name)

    cfg = Recording(experiment=experiment, n=8, model=model, masks=(2,), trials=1,
                    iteration_budget=2, noise_kind=noise_kind,
                    output_path=str(tmp_path / experiment), rho_grid=3,
                    normz_grid=2).validate()
    read.clear()
    # the echo reads every field, for the CSV metadata
    monkeypatch.setattr("phasekit.experiments.config_echo", lambda cfg: {})
    execute(cfg)
    return read


def test_each_command_offers_the_fields_its_driver_reads(monkeypatch, tmp_path):
    flags = _command_flags()
    for experiment, (command, _, _, _, reads) in EXPERIMENTS.items():
        traced = set()
        for model in MODELS:
            for noise_kind in NOISE_KINDS:
                traced |= _traced_reads(monkeypatch, tmp_path, experiment, model, noise_kind)
        traced.discard("experiment")  # set by the command
        assert traced == set(reads), experiment
        assert set(flags[command].values()) == traced, command


def test_every_flag_is_a_field():
    names = {f.name for f in fields(ExperimentConfig)}
    for command, table in _command_flags().items():
        assert set(table.values()) <= names, command
        assert len(set(table.values())) == len(table), command


def test_cli_recover_roundtrip(tmp_path, capsys):
    cfgfile = tmp_path / "r.cfg"
    out = tmp_path / "trace.csv"
    cfgfile.write_text(
        "experiment = recover\nn = 10\nm_over_n = 5\nalgorithms = rwf\n"
        "trials = 1\niteration_budget = 10\nrecord_every = 5\nseed = 4\n"
    )
    code = main(["recover", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
    meta, _, rows = read_csv(str(out))
    assert meta["experiment"] == "recover"
    assert len(rows) == 3  # passes 0, 5, 10


def test_cli_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "r.cfg"
    out = tmp_path / "trace.csv"
    cfgfile.write_text(
        "experiment = recover\nn = 10\nm_over_n = 5\nalgorithms = rwf\n"
        "trials = 1\niteration_budget = 10\nseed = 4\n"
    )
    code = main(
        ["recover", "--config", str(cfgfile), "--out", str(out), "--n", "8", "--seed", "6"]
    )
    assert code == 0
    meta, _, _ = read_csv(str(out))
    assert meta["n"] == "8"
    assert meta["seed"] == "6"


def _recover_with_mu(tmp_path, flags):
    cfgfile = tmp_path / "r.cfg"
    out = tmp_path / "trace.csv"
    cfgfile.write_text(
        "experiment = recover\nn = 10\nm_over_n = 5\nalgorithms = rwf\n"
        "trials = 1\niteration_budget = 10\nseed = 4\nmu = 0.5\n"
    )
    assert main(["recover", "--config", str(cfgfile), "--out", str(out)] + flags) == 0
    meta, _, _ = read_csv(str(out))
    return meta["mu"]


def test_cli_mu_none_unsets_config_mu(tmp_path):
    assert _recover_with_mu(tmp_path, ["--mu", "none"]) == "None"


def test_cli_absent_flag_keeps_config_mu(tmp_path):
    assert _recover_with_mu(tmp_path, []) == "0.5"


def test_cli_config_for_another_experiment_exits_1(tmp_path, capsys):
    cfgfile = tmp_path / "pt.cfg"
    out = tmp_path / "pt_out.csv"
    cfgfile.write_text(
        "experiment = phase_transition\nn = 10\nm_over_n = 5\ntrials = 1\n"
        "iteration_budget = 10\noutput_path = %s\n" % out
    )
    assert main(["converge", "--config", str(cfgfile)]) == 1
    assert not out.exists()
    assert "phase_transition" in capsys.readouterr().err
    # a matching experiment line, or none, is fine
    assert load_config(str(cfgfile), {"experiment": "phase_transition"}).output_path == str(out)
    cfgfile.write_text("output_path = %s\n" % out)
    assert load_config(str(cfgfile), {"experiment": "convergence_race"}).output_path == str(out)


def test_cli_missing_config_exits_1(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main(["recover", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)])
    assert code == 1
    assert not out.exists()  # no partial outputs on config errors
    assert "error" in capsys.readouterr().err


def test_cli_bad_config_value_exits_1(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("trials = 0\n")
    assert main(["recover", "--config", str(cfgfile)]) == 1
    assert "trials" in capsys.readouterr().err


def test_cli_m_not_above_n_exits_1(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(["init-accuracy", "--m-over-n", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "m_over_n" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--m-over-n", "nan"], ["--mu", "nan"]])
def test_cli_non_finite_value_exits_1(tmp_path, capsys, flags):
    out = tmp_path / "never.csv"
    assert main(["recover", "--n", "16", "--trials", "1", "--out", str(out)] + flags) == 1
    assert not out.exists()
    assert "phasekit: error:" in capsys.readouterr().err


def test_cli_line_break_in_out_exits_1(tmp_path, capsys):
    # the path is echoed into the CSV metadata, where it would split a line
    assert main(["loss-surface", "--out", str(tmp_path / "x\ny.csv")]) == 1
    assert "output_path must not contain a line break" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_unknown_command_exits_1(capsys):
    assert main(["transmogrify"]) == 1
    capsys.readouterr()


def test_cli_unknown_flag_exits_1(tmp_path, capsys):
    assert main(["recover", "--frobnicate", "3"]) == 1
    # a flag of a field the experiment does not read is unknown to its command
    for argv in (["recover", "--jobs", "2"], ["loss-surface", "--seed", "3"],
                 ["noise-sweep", "--noise-level", "0.1"], ["image-demo", "--n", "16"],
                 ["init-accuracy", "--algo", "irwf"]):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1, argv
        assert not out.exists()
    capsys.readouterr()


def test_cli_no_command_exits_1(capsys):
    assert main([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "phasekit" in capsys.readouterr().out


def test_cli_runtime_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_text("P5\n2 2\n255\n")  # binary magic, rejected by the reader
    out = tmp_path / "out"
    code = main(
        ["image-demo", "--image", str(bad), "--out", str(out), "--masks", "2"]
    )
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def test_cli_loss_surface_row_count(tmp_path):
    out = tmp_path / "ls.csv"
    code = main(
        ["loss-surface", "--rho-grid", "5", "--normz-grid", "3", "--out", str(out)]
    )
    assert code == 0
    _, _, rows = read_csv(str(out))
    assert len(rows) == 15
