"""Golden fingerprints: every experiment's output bytes, pinned.

Each experiment runs once at jobs=1 on the small configurations of
acceptance criterion 10, and the SHA-256 of its csv_fingerprint (timestamp
dropped, wall-clock columns masked) must equal the pinned digest.  A change
that moves any output byte fails here and must re-pin the digest and
declare the move.  Outputs are written under a temporary working directory
with relative paths, because the config echo in the metadata includes
output_path.
"""

import hashlib

import numpy as np
import pytest

from phasekit.config import ExperimentConfig
from phasekit.experiments import execute
from phasekit.pgm import write_pgm
from phasekit.results import csv_fingerprint

CONFIGS = {
    "phase_transition": dict(
        n=12, m_over_n=(3.0, 6.0), algorithms=("rwf",), trials=2, iteration_budget=40, seed=3
    ),
    "convergence_race": dict(
        n=16,
        m_over_n=(8.0,),
        algorithms=("rwf", "irwf"),
        trials=2,
        success_tol=1e-8,
        iteration_budget=300,
        seed=7,
    ),
    "init_accuracy": dict(n=24, m_over_n=(4.0, 8.0), trials=4, seed=21),
    "noise_sweep": dict(
        n=16,
        m_over_n=(8.0,),
        algorithms=("rwf",),
        trials=2,
        iteration_budget=60,
        noise_kind="poisson",
        alphas=(0.01, 1.0),
        seed=9,
    ),
    "recover": dict(
        n=10, m_over_n=(5.0,), algorithms=("irwf",), trials=1, iteration_budget=10, seed=17
    ),
    "loss_surface": dict(rho_grid=5, normz_grid=3),
}

IMAGE_DEMO = dict(
    experiment="image_demo",
    model="cdp",
    masks=(6,),
    algorithms=("rwf",),
    success_tol=1e-10,
    iteration_budget=400,
    seed=13,
    output_path="demo",
)

GOLDEN = {
    "phase_transition": "b053e80c4d9ed267252c0a3170989d72f1b68cacb1eea66c3b242cf635e95d46",
    "convergence_race": "be8856b16e4338523e94bb3f53eb1fe6333ea99a5c5c003e4c2591a97d43bfef",
    "init_accuracy": "72f5570b1613e960781445061d4dc4e9abec93630364bf0f3072ea3fcedb5e51",
    "noise_sweep": "f13918aaf8f885d39272e12030df944155c1b121ab1a81021b311dbc9d0f9da2",
    "recover": "5b17b704f10db8e4103ca1554fa6eb02c6bedcca1de8860af818ef49495bfd93",
    "loss_surface": "de0ae8fed74871278a85edfc61836ca2720db69bce58e1f27d4bc3bab9c6eea1",
    "image_demo": "b8f2fc0351a6881b7aa94793060208af103fd7588d5832e6e604dd9f1d5ab60b",
    "image_demo_all_zero": "64069a71444090d54f4914cdff72754f56ddea4bff6a50f5d15adaaf983039ea",
}


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def _demo_digest(out_dir):
    with open(out_dir + "/recovered.pgm", "rb") as fh:
        pgm = fh.read()
    return _digest(
        pgm, *(csv_fingerprint(out_dir + "/" + f) for f in ("trace.csv", "summary.csv"))
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_experiment_fingerprint(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = name + ".csv"
    cfg = ExperimentConfig(experiment=name, output_path=path, **CONFIGS[name]).validate()
    execute(cfg)
    ignore = ("mean_seconds",) if name == "convergence_race" else ()
    assert _digest(csv_fingerprint(path, ignore_columns=ignore)) == GOLDEN[name]


def test_image_demo_fingerprint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    execute(ExperimentConfig(**IMAGE_DEMO).validate())
    assert _demo_digest("demo") == GOLDEN["image_demo"]


def test_image_demo_all_zero_fingerprint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_pgm("zero.pgm", np.zeros((4, 4)))
    execute(ExperimentConfig(**IMAGE_DEMO, image_path="zero.pgm").validate())
    assert _demo_digest("demo") == GOLDEN["image_demo_all_zero"]
