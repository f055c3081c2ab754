"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Every criterion is asserted at its stated tolerance and also records a
human-readable verdict line, echoed in the terminal summary by conftest.
Statistical criteria run at fixed master seeds (1001-1009); thresholds
were locked against prior measurement runs of the same seeds, so a pass
is deterministic.  The two solver races dominate the runtime; the whole
file targets a few minutes on a laptop-class core.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate
from scipy.special import k0

import conftest
from phasekit.analysis import (
    CorrelationState,
    expected_rwf_loss,
    expected_wf_loss,
    monte_carlo_expected_rwf_loss,
    product_magnitude_density,
    sign_flip_bound,
)
from phasekit.config import ExperimentConfig
from phasekit.core import COMPLEX, REAL, random_signal, relative_error
from phasekit.experiments import execute, run_phase_transition
from phasekit.pgm import read_pgm
from phasekit.results import csv_fingerprint
from phasekit.sensing import NoiseSpec, make_cdp, make_gaussian, measure
from phasekit.solvers import (
    SolverConfig,
    block_kaczmarz_step,
    irwf_step,
    kaczmarz_step,
    minibatch_irwf_step,
    run,
)
from phasekit.spectral import InitParams, spectral_initialize
from phasekit.streams import derive_seed, substream


def _verdict(num, title, ok, detail):
    line = "criterion %2d [%s] %s: %s" % (num, "PASS" if ok else "FAIL", title, detail)
    conftest.record_acceptance(line)
    print(line)
    assert ok, line


# --- shared race fixtures (criteria 1 and 2) --------------------------------

RACE_TRIALS = 10
RACE_N, RACE_M = 1000, 8000
REAL_RACE_SEED, COMPLEX_RACE_SEED = 1001, 1002

# budgets sit at least 2x above the measured worst case so a budget stop
# can only mean a real regression
REAL_BUDGETS = {"rwf": 200, "wf": 400, "irwf": 30, "kaczmarz_pr": 30, "minibatch_irwf": 30}
COMPLEX_BUDGETS = {"rwf": 300, "irwf": 60, "kaczmarz_pr": 60}


def _race(field, label, seed, budgets, tols):
    traces = {alg: [] for alg in budgets}
    seconds = dict.fromkeys(budgets, 0.0)
    setup = 0.0
    for t in range(RACE_TRIALS):
        t0 = time.perf_counter()
        x = random_signal(RACE_N, field, substream(seed, "signal", label, t))
        A = make_gaussian(RACE_N, RACE_M, field, derive_seed(seed, "ensemble", label, t))
        y = measure(A, x)
        init = spectral_initialize(
            y, A, InitParams(), seed=derive_seed(seed, "init", label, t)
        )
        setup += time.perf_counter() - t0
        for alg, budget in budgets.items():
            cfg = SolverConfig(
                algorithm=alg,
                max_passes=budget,
                tol=tols.get(alg, 1e-14),
                seed=derive_seed(seed, "solver", alg, t),
            )
            t0 = time.perf_counter()
            traces[alg].append(run(y, A, init.z0, cfg, x_opt=x))
            seconds[alg] += time.perf_counter() - t0
    return traces, seconds, setup


@pytest.fixture(scope="module")
def race_real():
    # wf runs to 1e-10 (criterion 2's target); everything else to 1e-14
    return _race(REAL, "race-real", REAL_RACE_SEED, REAL_BUDGETS, {"wf": 1e-10})


@pytest.fixture(scope="module")
def race_complex():
    return _race(COMPLEX, "race-complex", COMPLEX_RACE_SEED, COMPLEX_BUDGETS, {})


def test_criterion_1_race_pass_counts(race_real, race_complex):
    real, rsec, rsetup = race_real
    cplx, csec, csetup = race_complex
    ceilings_real = {"rwf": 110, "irwf": 15, "kaczmarz_pr": 15, "minibatch_irwf": 15}
    ceilings_cplx = {"rwf": 260, "irwf": 32, "kaczmarz_pr": 32}
    ok = True
    parts = []
    for tag, traces, ceilings in (("real", real, ceilings_real), ("cplx", cplx, ceilings_cplx)):
        for alg, ceiling in ceilings.items():
            mean = float(np.mean([tr.passes_used for tr in traces[alg]]))
            converged = all(tr.stop_reason == "tol" for tr in traces[alg])
            ok = ok and converged and mean <= ceiling
            parts.append("%s %s %.1f<=%d" % (tag, alg, mean, ceiling))
    elapsed = rsetup + csetup + sum(rsec.values()) - rsec["wf"] + sum(csec.values())
    ok = ok and elapsed <= 300.0
    parts.append("%.0fs<=300s" % elapsed)
    _verdict(1, "race pass counts", ok, "; ".join(parts))


def test_criterion_2_rwf_beats_wf_every_trial(race_real):
    real, _, _ = race_real
    pr = [tr.passes_to(1e-10) for tr in real["rwf"]]
    pw = [tr.passes_to(1e-10) for tr in real["wf"]]
    ok = all(a is not None and b is not None and a < b for a, b in zip(pr, pw))
    _verdict(
        2,
        "rwf beats wf to 1e-10 on every real trial",
        ok,
        "rwf %s vs wf %s" % (pr, pw),
    )


def test_criterion_3_phase_transition_shape():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="phase_transition",
        n=256,
        m_over_n=(2.0, 3.0, 4.0, 5.0, 6.0),
        algorithms=("rwf", "irwf"),
        trials=50,
        success_tol=1e-5,
        iteration_budget=1000,
        seed=1003,
        jobs=4,
    ).validate()
    table = run_phase_transition(cfg)
    elapsed = time.perf_counter() - t0
    rates = {alg: [] for alg in cfg.algorithms}
    for row in table.rows:
        rates[row["algorithm"]].append(row["success_rate"])

    def monotone_ok(r):
        drops = [a - b for a, b in zip(r, r[1:]) if b < a]
        return not drops or (len(drops) == 1 and drops[0] <= 0.05 + 1e-12)

    def threshold(r):
        for ratio, rate in zip(cfg.m_over_n, r):
            if rate >= 0.95:
                return ratio
        return math.inf

    ok = (
        rates["rwf"][-1] >= 0.95
        and rates["rwf"][0] <= 0.20
        and all(monotone_ok(rates[a]) for a in cfg.algorithms)
        and threshold(rates["irwf"]) <= threshold(rates["rwf"])
        and elapsed <= 600.0
    )
    detail = "rwf %s irwf %s thresholds %.0f<=%.0f %.0fs" % (
        rates["rwf"],
        rates["irwf"],
        threshold(rates["irwf"]),
        threshold(rates["rwf"]),
        elapsed,
    )
    _verdict(3, "phase transition shape", ok, detail)


def test_criterion_4_initialization_accuracy():
    n, seed = 128, 1004
    errs = {}
    for ratio in (4, 8, 10):
        block = []
        for t in range(100):
            labels = ("init", ratio, t)
            x = random_signal(n, REAL, substream(seed, "signal", *labels))
            A = make_gaussian(n, ratio * n, REAL, derive_seed(seed, "ensemble", *labels))
            y = measure(A, x)
            init = spectral_initialize(
                y, A, InitParams(), seed=derive_seed(seed, "init", *labels)
            )
            block.append(relative_error(init.z0, x))
        errs[ratio] = np.array(block)
    hits = int((errs[8] <= 0.5).sum())
    medians = {r: float(np.median(errs[r])) for r in errs}
    ok = hits >= 95 and medians[10] < medians[4]
    detail = "err<=0.5 in %d/100 at m=8n (need >=95); medians 4n %.3f / 8n %.3f / 10n %.3f" % (
        hits,
        medians[4],
        medians[8],
        medians[10],
    )
    _verdict(4, "spectral initialization accuracy", ok, detail)


def test_criterion_5_algebraic_identities():
    checks = []
    n, m = 16, 64
    for field, tag in ((REAL, "real"), (COMPLEX, "cplx")):
        x = random_signal(n, field, substream(50, "x", tag))
        A = make_gaussian(n, m, field, derive_seed(50, "A", tag))
        y = measure(A, x)
        z = x + 0.2 * random_signal(n, field, substream(50, "z", tag))
        idx = substream(50, "idx", tag).integers(0, m, size=10)
        bitwise = all(
            np.array_equal(
                kaczmarz_step(z, int(i), y, A),
                irwf_step(z, int(i), y, A, step=1.0 / A.row_sqnorm(int(i))),
            )
            for i in idx
        )
        checks.append(("a-%s" % tag, bitwise))
        fits = []
        for i in idx[:5]:
            zp = kaczmarz_step(z, int(i), y, A)
            fits.append(abs(abs(np.vdot(A.row(int(i)), zp)) - y.values[int(i)]))
        checks.append(("c-%s" % tag, max(fits) <= 1e-12 * max(1.0, float(y.values.max()))))
        i0 = int(idx[0])
        single = irwf_step(z, i0, y, A)
        batch1 = minibatch_irwf_step(z, np.array([i0]), y, A)
        checks.append(("d-%s" % tag, float(np.linalg.norm(batch1 - single)) <= 1e-10))

    nc, L = 32, 4
    xc = random_signal(nc, COMPLEX, substream(51, "x"))
    Ac = make_cdp(nc, L, derive_seed(51, "A"))
    yc = measure(Ac, xc)
    zb = xc + 0.3 * random_signal(nc, COMPLEX, substream(51, "z"))
    zm = zb.copy()
    for k in range(100):
        gamma = np.arange((k % L) * nc, (k % L + 1) * nc)
        zb = block_kaczmarz_step(zb, gamma, yc, Ac)
        zm = minibatch_irwf_step(zm, gamma, yc, Ac, step=1.0 / nc)
    drift = float(np.linalg.norm(zb - zm) / np.linalg.norm(zb))
    checks.append(("b-cdp-100-steps", drift <= 1e-10))

    ok = all(flag for _, flag in checks)
    detail = ", ".join("%s:%s" % (name, "ok" if flag else "FAIL") for name, flag in checks)
    _verdict(5, "algebraic identities", ok, detail)


def test_criterion_6_adjoint_and_dense_oracles():
    worst_adj = 0.0
    for n in (8, 64, 1024):
        kinds = (
            ("real", make_gaussian(n, 4 * n, REAL, derive_seed(60, "g", n, 0)), REAL),
            ("cplx", make_gaussian(n, 4 * n, COMPLEX, derive_seed(60, "g", n, 1)), COMPLEX),
            ("cdp", make_cdp(n, 4, derive_seed(60, "c", n)), COMPLEX),
        )
        for tag, A, field in kinds:
            z = random_signal(n, field, substream(61, "z", tag, n))
            v = random_signal(A.m, field, substream(61, "v", tag, n))
            lhs = np.vdot(v, A.apply(z))
            rhs = np.vdot(A.adjoint_apply(v), z)
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            worst_adj = max(worst_adj, rel)
    worst_dense = 0.0
    for n in (8, 64):
        A = make_cdp(n, 4, derive_seed(62, "c", n))
        M = A.materialize()
        z = random_signal(n, COMPLEX, substream(62, "z", n))
        v = random_signal(A.m, COMPLEX, substream(62, "v", n))
        worst_dense = max(
            worst_dense,
            float(np.linalg.norm(A.apply(z) - M @ z) / np.linalg.norm(M @ z)),
            float(
                np.linalg.norm(A.adjoint_apply(v) - M.conj().T @ v)
                / np.linalg.norm(M.conj().T @ v)
            ),
            max(
                float(np.linalg.norm(A.row(i) - M[i].conj()) / np.linalg.norm(M[i]))
                for i in (0, A.m // 2, A.m - 1)
            ),
        )
    ok = worst_adj < 1e-10 and worst_dense < 1e-10
    _verdict(
        6,
        "adjoint and dense oracles",
        ok,
        "adjoint rel %.2e, cdp dense rel %.2e (both < 1e-10)" % (worst_adj, worst_dense),
    )


def test_criterion_7_expected_loss_oracles():
    worst_z = 0.0
    for rho in (-0.9, 0.0, 0.5, 0.99):
        state = CorrelationState(rho)
        est, se = monte_carlo_expected_rwf_loss(state, 10**6, seed=101)
        worst_z = max(worst_z, abs(est - expected_rwf_loss(state)) / se)
    psi_dev = 0.0
    for rho in (0.0, 0.5, 0.9):
        head, _ = scipy.integrate.quad(
            product_magnitude_density, 0.0, 1.0, args=(rho,), limit=200
        )
        tail, _ = scipy.integrate.quad(
            product_magnitude_density, 1.0, np.inf, args=(rho,), limit=200
        )
        psi_dev = max(psi_dev, abs(head + tail - 1.0))
    k0_head, _ = scipy.integrate.quad(lambda t: t * k0(t), 0.0, 2.0, limit=200)
    k0_tail, _ = scipy.integrate.quad(lambda t: t * k0(t), 2.0, np.inf, limit=200)
    k0_dev = abs(k0_head + k0_tail - 1.0)
    spots = (
        expected_wf_loss(CorrelationState(1.0)) == 0.0
        and expected_wf_loss(CorrelationState(0.9, norm_x=1.3, norm_z=0.0)) == 0.75 * 1.3**4
        and expected_wf_loss(CorrelationState(0.0)) == 1.0
    )
    ok = worst_z <= 3.0 and psi_dev <= 1e-6 and k0_dev <= 1e-8 and spots
    detail = "mc |z|max %.2f<=3; psi dev %.1e<=1e-6; tK0 dev %.1e<=1e-8; wf spots %s" % (
        worst_z,
        psi_dev,
        k0_dev,
        "exact" if spots else "FAIL",
    )
    _verdict(7, "expected-loss oracles", ok, detail)


def test_criterion_8_sign_flip_dominance():
    seed, n, samples = 1008, 64, 10**5
    x = random_signal(n, REAL, substream(seed, "signal"))
    nx = float(np.linalg.norm(x))
    h = random_signal(n, REAL, substream(seed, "offset"))
    h *= 0.1 * nx / np.linalg.norm(h)
    a = substream(seed, "samples").standard_normal((samples, n))
    s = a @ x
    u = a @ (x + h)
    flips = (s * u) < 0
    t_hat = (s / nx) ** 2
    edges = np.linspace(0.0, 2.0, 21) ** 2
    worst = -np.inf
    occupied = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (t_hat >= lo) & (t_hat < hi)
        cnt = int(sel.sum())
        if cnt == 0:
            continue
        occupied += 1
        freq = float(flips[sel].mean())
        bound = 1.0 if lo == 0.0 else sign_flip_bound(float(lo), nx, 0.1 * nx)
        se = math.sqrt(max(bound * (1.0 - bound), 1e-12) / cnt)
        worst = max(worst, freq - (bound + 3.0 * se))
    ok = occupied >= 15 and worst <= 0.0
    _verdict(
        8,
        "sign-flip bound dominance",
        ok,
        "worst freq-(bound+3se) margin %.2e over %d bins" % (worst, occupied),
    )


def test_criterion_9_noise_stability():
    n, m, seed = 256, 2048, 1009

    def final_err(x, A, y, labels):
        init = spectral_initialize(
            y, A, InitParams(), seed=derive_seed(seed, "init", *labels)
        )
        cfg = SolverConfig(
            algorithm="rwf",
            max_passes=150,
            tol=1e-9,
            seed=derive_seed(seed, "solver", "rwf", *labels),
        )
        return run(y, A, init.z0, cfg, x_opt=x).final_error()

    plateaus, ratios = [], []
    for t in range(5):
        labels = ("bounded", t)
        x = random_signal(n, REAL, substream(seed, "signal", *labels))
        A = make_gaussian(n, m, REAL, derive_seed(seed, "ensemble", *labels))
        nseed = derive_seed(seed, "noise", *labels)
        nx = float(np.linalg.norm(x))
        p1 = final_err(
            x, A, measure(A, x, NoiseSpec("bounded", level=0.01 * nx, seed=nseed)), labels
        )
        p2 = final_err(
            x, A, measure(A, x, NoiseSpec("bounded", level=0.005 * nx, seed=nseed)), labels
        )
        plateaus.append(p1)
        ratios.append(p2 / p1)
    plateau_ok = all(1e-6 <= p <= 0.1 for p in plateaus)
    ratio_ok = all(0.4 <= r <= 0.6 for r in ratios)

    medians = []
    for li, alpha in enumerate((0.001, 0.01, 0.1, 1.0)):
        errs = []
        for t in range(10):
            labels = ("poisson", li, t)
            x = random_signal(n, REAL, substream(seed, "signal", *labels))
            A = make_gaussian(n, m, REAL, derive_seed(seed, "ensemble", *labels))
            spec = NoiseSpec(
                "poisson", alpha=alpha, seed=derive_seed(seed, "noise", *labels)
            )
            errs.append(final_err(x, A, measure(A, x, spec), labels))
        medians.append(float(np.median(errs)))
    poisson_ok = all(b > a for a, b in zip(medians, medians[1:]))

    ok = plateau_ok and ratio_ok and poisson_ok
    detail = "plateau med %.1e in [1e-6,0.1]; halving ratios %.2f-%.2f; poisson medians %s" % (
        float(np.median(plateaus)),
        min(ratios),
        max(ratios),
        ["%.1e" % v for v in medians],
    )
    _verdict(9, "noise stability", ok, detail)


def test_criterion_10_rerun_determinism(tmp_path):
    experiments = {
        "phase_transition": dict(
            experiment="phase_transition",
            n=12,
            m_over_n=(3.0, 6.0),
            algorithms=("rwf",),
            trials=2,
            iteration_budget=40,
            seed=3,
        ),
        "convergence_race": dict(
            experiment="convergence_race",
            n=16,
            m_over_n=(8.0,),
            algorithms=("rwf", "irwf"),
            trials=2,
            success_tol=1e-8,
            iteration_budget=300,
            seed=7,
        ),
        "init_accuracy": dict(
            experiment="init_accuracy", n=24, m_over_n=(4.0, 8.0), trials=4, seed=21
        ),
        "noise_sweep": dict(
            experiment="noise_sweep",
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
            experiment="recover",
            n=10,
            m_over_n=(5.0,),
            algorithms=("irwf",),
            trials=1,
            iteration_budget=10,
            seed=17,
        ),
        "loss_surface": dict(experiment="loss_surface", rho_grid=5, normz_grid=3),
    }
    stable = []
    ok = True
    for name, kwargs in experiments.items():
        path = str(tmp_path / (name + ".csv"))
        cfg = ExperimentConfig(**kwargs, output_path=path).validate()
        execute(cfg)
        first = csv_fingerprint(path)
        execute(cfg)
        same = csv_fingerprint(path) == first
        ok = ok and same
        stable.append("%s:%s" % (name, "ok" if same else "DIFFERS"))

    out = str(tmp_path / "demo")
    cfg = ExperimentConfig(
        experiment="image_demo",
        model="cdp",
        masks=(6,),
        algorithms=("rwf",),
        success_tol=1e-10,
        iteration_budget=400,
        seed=13,
        output_path=out,
    ).validate()
    execute(cfg)
    with open(tmp_path / "demo" / "recovered.pgm", "rb") as fh:
        pgm_first = fh.read()
    csv_first = [
        csv_fingerprint(str(tmp_path / "demo" / f)) for f in ("trace.csv", "summary.csv")
    ]
    execute(cfg)
    with open(tmp_path / "demo" / "recovered.pgm", "rb") as fh:
        same = fh.read() == pgm_first
    same = same and csv_first == [
        csv_fingerprint(str(tmp_path / "demo" / f)) for f in ("trace.csv", "summary.csv")
    ]
    ok = ok and same
    stable.append("image_demo:%s" % ("ok" if same else "DIFFERS"))
    _verdict(10, "rerun determinism", ok, "; ".join(stable))
