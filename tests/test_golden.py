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
IMAGE_DEMO_BOUNDED = dict(IMAGE_DEMO, noise_kind="bounded", alphas=(0.001,))

GOLDEN = {
    "phase_transition": "5041693f987e7844535dce1fc22329a4dcdb327dbf48176a025d62af8b3b2c12",
    "convergence_race": "547db4d2777fa5ff53cd83d30732c23d06e81e831d724b30060564f8ee1dd97d",
    "init_accuracy": "a708ad411fa02adf7041f251b1d71065ec8e2e4572a3c22d331d1e76ebc8065d",
    "noise_sweep": "ff73988d4b67ce4ed3d564e04c514f9d1c790486792ba0247cb787ab6316d3e6",
    "recover": "d4f17fc948e06e03cca6ba8fad231b3f5ae113b787dda640d1c0e485ee1702bf",
    "loss_surface": "37b9bb0f7257662d98f4ec3382ca26009a4047291c9aebb5699a6b273f3ff2a0",
    "image_demo": "b92eb623b92ed4e2a5ed246e25b1a7ccd42d1b1dcc731122c6d560adc94d9969",
    "noise_sweep_bounded": "1628f73dd56b1097a0b57d194bdf5e873abc1ffdf15977419e4c7b558deb9e0e",
    "image_demo_all_zero": "6b4f0e44cb5d2edb67d275b1b519186b671e5ef88f77cf48e4b74f690f71cd60",
    "image_demo_bounded": "b98f47c02843a3e407a94651dfa49e958eee81d4e96c028fa509dbf72e7e660d",
}

SOLVER_GOLDEN = {
    "cdp/block_kaczmarz_pr": "83163cbd519e8a8038c117ef1b385947165f3abf35c51406d66be040067cdc72",
    "cdp/block_kaczmarz_pr_whole_mask": "38082d73a37445a1a2d53c3bbd6d86f297658497cd906a67de8f6b76fb6f8947",
    "cdp/irwf": "5ba6c306f663cce8b08e08dbdd7a887ca13a1a8ff5459a7a778a9933e9ec2505",
    "cdp/kaczmarz_pr": "020939b9c2b1033d239f1ef121ae32cbb71c0896c66b62cdb542fee67969e478",
    "cdp/minibatch_irwf": "65da4c625f51c55d7cf0026bf4a34bd002a41034ee5e9b89af743a40101fc980",
    "cdp/rwf": "4fdcdd5a30b9060b24ad6e157c51e8f66128fbce4eebd0afa85c7f1e5cb61eb1",
    "cdp/wf": "c9a29299ad71a46d608162ac6762e721cb0e4e62c546d477e47b401485f1f925",
    "complex/block_kaczmarz_pr": "2a34be6e5a1ce5899a5fbd3d9c7af91555db139920c2217b2e901c2dad0428a2",
    "complex/irwf": "1f76cdf398c6eb7931da86d519494cfa3ae098b69134649409020896d8e547b7",
    "complex/kaczmarz_pr": "7e5cf171949ba557768fd3ee34903e003108da0893ca615b51b5cca09689bd6e",
    "complex/minibatch_irwf": "5f5b7bb3eac52d65c1658b62a4e8a021ff87f846cc19487ba9e6d8009f6b64e5",
    "complex/rwf": "c349e108064c8e81774085d544c65905bac4206501407d3de912bd6e0d14af00",
    "complex/wf": "12c4eafbbba49da338923c97930d977af0e08153dae96baf405312e94bce8c28",
    "real/block_kaczmarz_pr": "eba2e750855be90e7e5ba4338fbcc2a55006e75a5398ffa375a14fdd4ba37db6",
    "real/irwf": "b9882455312c05eb6ef93c5bbe6942064cf54dd36f15af18781b802bb801d8ef",
    "real/kaczmarz_pr": "f138de937fc3c8d01c52347e5ba48a65fdfefa144aec7a4c728338ac2decc655",
    "real/minibatch_irwf": "b1b3133c92d524ce3d85c66d0144f2e098c2099d2d2b8f26af613ded61a5ca18",
    "real/rwf": "29c2198578482436fe40bef67dc089984f7182676cf0d876566507adbbf3ad79",
    "real/wf": "945a29bc89b69220919ab626bc82f718b033f895bdab2483b6891104f76653b7",
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
