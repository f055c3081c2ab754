"""Golden fingerprints: every experiment's output bytes, pinned.

Each experiment runs once at jobs=1 on the small configurations of
acceptance criterion 10, and the SHA-256 of its csv_fingerprint (timestamp
dropped, wall-clock columns masked) must equal the pinned digest.  A change
that moves any output byte fails here and must re-pin the digest and
declare the move.  Every solver has its own digest on each sensing model,
so a change to one update path re-pins only that path's digests.  Outputs are written under a temporary working directory
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

# Each solver on each sensing model, through the recover experiment (its CSV
# holds every pass's error and loss) at criterion 10's recover size.
SOLVER_CASES = {
    "%s/%s" % (model, alg): dict(
        CONFIGS["recover"],
        experiment="recover",
        model=model,
        masks=(5,),
        algorithms=(alg,),
        minibatch_k=4,
    )
    for model in ("real", "complex", "cdp")
    for alg in ("rwf", "wf", "irwf", "kaczmarz_pr", "minibatch_irwf", "block_kaczmarz_pr")
}
# whole coded-diffraction masks as blocks: the FFT projection
SOLVER_CASES["cdp/block_kaczmarz_pr_whole_mask"] = dict(
    SOLVER_CASES["cdp/block_kaczmarz_pr"], minibatch_k=10
)
BOUNDED_NOISE = dict(
    CONFIGS["noise_sweep"],
    experiment="noise_sweep",
    algorithms=("rwf", "minibatch_irwf"),
    minibatch_k=4,
    noise_kind="bounded",
    alphas=(0.01, 0.1),
)

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
# the demo measures the image as a complex signal; bounded noise scales by its norm
IMAGE_DEMO_BOUNDED = dict(IMAGE_DEMO, noise_kind="bounded", noise_level=0.001)

GOLDEN = {
    "phase_transition": "b053e80c4d9ed267252c0a3170989d72f1b68cacb1eea66c3b242cf635e95d46",
    "convergence_race": "be8856b16e4338523e94bb3f53eb1fe6333ea99a5c5c003e4c2591a97d43bfef",
    "init_accuracy": "72f5570b1613e960781445061d4dc4e9abec93630364bf0f3072ea3fcedb5e51",
    "noise_sweep": "f13918aaf8f885d39272e12030df944155c1b121ab1a81021b311dbc9d0f9da2",
    "recover": "ecc4485b284e0415153af2afd4abde949bf4811297ec69cfee761cea90b6fd64",
    "loss_surface": "de0ae8fed74871278a85edfc61836ca2720db69bce58e1f27d4bc3bab9c6eea1",
    "image_demo": "1710ae5b26a29405fdd97347effd0d01b1a9dc5e027f0130b8311831370cbe1e",
    "noise_sweep_bounded": "6d6f60e0ecbcf5780dc014de1f98d56163535ee401bc9ce76c06866c3e6ee549",
    "image_demo_all_zero": "64069a71444090d54f4914cdff72754f56ddea4bff6a50f5d15adaaf983039ea",
    "image_demo_bounded": "8e98d709311fbdc1735bb41ff25cf95d476367f9a8082e2482efb79a98ac3d6b",
}

SOLVER_GOLDEN = {
    "cdp/block_kaczmarz_pr": "fa9172dac07e1890fa1daec1e7f318f054cdd4f9bd5bc119729dd289998ab2d4",
    "cdp/block_kaczmarz_pr_whole_mask": "9b3d0abe79576388a4880f0d35a966af03f5796eeba101fb97927b39de61094f",
    "cdp/irwf": "ef34b5561d8da05e6a56fbaea9dfa12d05232da1f00b12df9bcd7bf2b6a070a0",
    "cdp/kaczmarz_pr": "788ae55bc35f78cb9de778434249af158d2434ac77a1f1eb5f559339df245b91",
    "cdp/minibatch_irwf": "6897ba0f21c16960e4b224a62ec6cebbe35b479bb268bf3ff663ea5f88a2bb5a",
    "cdp/rwf": "e1e58b41941a77144f7b5c49ed4dae12978d95fff527781769cdf88fefe389b9",
    "cdp/wf": "65ddd2d8b9bfd244b19df1fb5239a6cac5dc028db31fd7cd0ee39559881a4606",
    "complex/block_kaczmarz_pr": "bce09f1d26f5471169b8d7381ec0a2f63efa969fdb33e871af4ac71e6b02b923",
    "complex/irwf": "0443aa6c41c167d1ef6469527e3692cea005bbc10ab9edd064134ba586a19ae0",
    "complex/kaczmarz_pr": "9f71b8e3b040d0c9d3831f883a05497afacc9cbd0aff761e9aa18011f74c1d39",
    "complex/minibatch_irwf": "b664093b464013ce42974be08f265ca6a39f76ce4e994d9d0f405c99ec486687",
    "complex/rwf": "159c58a052de3930785d0425e1adfffb789326f7d08eb0c9bae1c8a1fa83d65d",
    "complex/wf": "2c0f1741ff7c347bc92004cb4133443f8ea88ee3f09eb0a8c811c12169911908",
    "real/block_kaczmarz_pr": "7b8cb3067e3edc32abe5d10e2537afa2679661b1327ad19daa991ff70b6fc54e",
    "real/irwf": "8d3b6106b03b0ae4757147db8f7e3c3ac196e500a7434d3277cb2fb48066c2a8",
    "real/kaczmarz_pr": "71ab79c621fdc0264ca6eaae4f461e6965235cb6c8733a090fe90719bc8d4e64",
    "real/minibatch_irwf": "958ac379d7c1b2b9e3076fa506e212308003c45b055ba6ef8b820cc5bba7d03e",
    "real/rwf": "c2249730b2b5206af4f901ac75ca216252bd07d3c4402d5dd021b41558e52426",
    "real/wf": "3072de318aa46c90eaaa25fa93038fa8938e5cebbcfd56062922fd7bdf843bbb",
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
    assert _digest(csv_fingerprint(path)) == GOLDEN[name]


@pytest.mark.parametrize("case", sorted(SOLVER_CASES))
def test_solver_fingerprint(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    execute(ExperimentConfig(output_path="trace.csv", **SOLVER_CASES[case]).validate())
    assert _digest(csv_fingerprint("trace.csv")) == SOLVER_GOLDEN[case]


def test_bounded_noise_fingerprint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    execute(ExperimentConfig(output_path="noise.csv", **BOUNDED_NOISE).validate())
    assert _digest(csv_fingerprint("noise.csv")) == GOLDEN["noise_sweep_bounded"]


def test_image_demo_fingerprint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    execute(ExperimentConfig(**IMAGE_DEMO).validate())
    assert _demo_digest("demo") == GOLDEN["image_demo"]


def test_image_demo_bounded_noise_fingerprint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    execute(ExperimentConfig(**IMAGE_DEMO_BOUNDED).validate())
    assert _demo_digest("demo") == GOLDEN["image_demo_bounded"]


def test_image_demo_all_zero_fingerprint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_pgm("zero.pgm", np.zeros((4, 4)))
    execute(ExperimentConfig(**IMAGE_DEMO, image_path="zero.pgm").validate())
    assert _demo_digest("demo") == GOLDEN["image_demo_all_zero"]
