"""Metric computation: end-to-end numbers from the untraced loop, and
per-layer numbers from a traced loop plus probes on the workload's own
instance.

A probe times one layer call directly (median over repeats), so it has a
value on every workload, including those whose trials never make that
call: ``solvers.<alg>.pass_s`` on ``init`` is one pass on init's operator.
Numbers derived from spans describe what the trials themselves did.
"""

import statistics
import time

import numpy as np

from phasekit import core, solvers


class Report:
    """Ordered metric lines: name, value with all its digits, unit, note."""

    def __init__(self):
        self.values = {}
        self.lines = []

    def add(self, name, value, unit, note=""):
        if name in self.values:
            raise ValueError("metric %s reported twice" % name)
        if value is None:
            self.lines.append("metric %-36s n/a %s  # %s" % (name, unit, note))
            return
        self.values[name] = (value, unit)
        self.lines.append("metric %-36s %r %s%s" % (name, value, unit, "  # " + note if note else ""))


def median_time(fn, min_reps=3, max_reps=25, budget=0.3):
    """Median wall seconds of fn() over repeats filling about `budget`."""
    times, spent = [], 0.0
    while len(times) < max_reps and (len(times) < min_reps or spent < budget):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return statistics.median(times)


def tail(samples):
    """(value, rank, n) at the highest rank with ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return sorted(samples)[rank - 1], rank, n


def all_ops(trials):
    ops = [op for t in trials for op in t.ops]
    return ops, [op for op in ops if op.error]


# --- end to end -------------------------------------------------------------


def end_to_end(workload, trials, window, setup, rss):
    """Every end-to-end metric; those that do not apply print as n/a."""
    ops, failed = all_ops(trials)
    solves = [op for op in ops if op.kind == "solve"]
    pooled = workload == "transition"
    count = sum(t.instances for t in trials)
    r = Report()
    r.add("setup_s", statistics.median(setup), "s",
          "median of %d fresh processes: %s" % (len(setup), " ".join("%.3f" % s for s in setup)))
    r.add("trials_per_s", count / window, "1/s", "%d trials in %.3f s" % (count, window))
    secs = [t.seconds for t in trials]
    if pooled:
        r.add("trial_s_p50", None, "s", "trials run inside the process pool")
        r.add("trial_s_tail", None, "s", "trials run inside the process pool")
        r.add("time_to_tol_s", None, "s", "solves run inside the process pool")
    else:
        r.add("trial_s_p50", statistics.median(secs), "s", "%d trials" % len(secs))
        tl = tail(secs)
        if tl is None:
            r.add("trial_s_tail", None, "s", "%d trials; a tail needs 11 or more" % len(secs))
        else:
            r.add("trial_s_tail", tl[0], "s", "rank %d of %d (p%.1f)" % (tl[1], tl[2], 100.0 * tl[1] / tl[2]))
        for label in sorted({op.label for op in solves}):
            tag, alg = label.split("/")
            good = [op.seconds for op in solves if op.label == label and not op.error]
            r.add("time_to_tol_s.%s.%s" % (alg, tag), statistics.fmean(good) if good else None, "s",
                  "mean of %d solves" % len(good))
    if not solves:
        r.add("passes_total", None, "count", "no solves")
        r.add("success_rate", None, "ratio", "no solves")
    else:
        counted = trials[0].ops if pooled else solves
        note = "serial replay of call 0" if pooled else "%d solves" % len(solves)
        r.add("passes_total", sum(op.passes for op in counted), "count", note)
        tol = sum(1 for op in solves if op.stop == "tol" and not op.error)
        r.add("success_rate", tol / len(solves), "ratio", "%d of %d solves reached tol" % (tol, len(solves)))
    r.add("error_rate", len(failed) / len(ops), "ratio", "%d of %d operations failed" % (len(failed), len(ops)))
    errs = [t.init_errors[tag] for t in trials for tag in ("real", "m8") if tag in t.init_errors]
    r.add("init_err_p50", statistics.median(errs) if errs else None, "ratio",
          "%d real inits at m=8n" % len(errs) if errs else "no real Gaussian init at m=8n")
    r.add("peak_rss_mb", rss[0], "MB", rss[1])
    return r


# --- per layer --------------------------------------------------------------


def _dur(spans):
    return sum(s[2] - s[1] for s in spans)


def _mean_dur(spans):
    return _dur(spans) / len(spans) if spans else None


def observe_seconds(tracer, idx):
    """Monitoring time inside one solvers.run span.

    run() monitors with A.apply, then the loss, then relative_error; an
    apply span directly followed by a loss span under the same run is the
    monitoring product, every other apply is update work.
    """
    spans = tracer.spans
    kids = []
    for i in range(idx + 1, len(spans)):
        if spans[i][1] > spans[idx][2]:
            break
        if spans[i][3] == idx:
            kids.append(i)
    total = 0.0
    for j, c in enumerate(kids):
        name = spans[c][0]
        if name in ("core.amplitude_loss", "core.intensity_loss"):
            total += _dur([spans[c]])
            if j and spans[kids[j - 1]][0] == "sensing.apply":
                total += _dur([spans[kids[j - 1]]])
        elif name == "core.relative_error":
            total += _dur([spans[c]])
    return total


def _probe_solvers(r, wl, workload, seed, toy, main):
    x, A, y, z0, inst = main
    obs = median_time(lambda: (core.rwf_loss(z0, y, A), core.relative_error(z0, x)))
    r.add("solvers.observe_s", obs, "s", "probe: rwf_loss + relative_error on %s" % inst.tag)
    pass_s = {}
    for probe_inst, algs in wl.probe_instances(workload, toy):
        if probe_inst != inst:
            x, A, y = wl.build(probe_inst, seed, 0)
            z0 = wl.initialize(probe_inst, seed, 0, y, A).z0
        for alg, k in algs:
            cfg = wl.solver_config(probe_inst, alg, 1, k, seed, 0, tol=1e-300)
            pass_s[alg] = median_time(lambda: solvers.run(y, A, z0, cfg, x_opt=x))
            r.add("solvers.%s.pass_s" % alg, pass_s[alg], "s",
                  "probe: run() capped at one pass on %s, its two observes included" % probe_inst.tag)
    r.add("solvers.rwf.observe_share", obs / (pass_s["rwf"] - obs), "ratio",
          "observe / (one-pass rwf run - its first observe)")


def _trace_solvers(r, tracer, ops):
    for alg in sorted({op.alg for op in ops if op.alg}):
        idx = [i for i, s in enumerate(tracer.spans) if s[0] == "solvers.run." + alg]
        if not idx:
            continue
        mine = [op for op in ops if op.alg == alg]
        secs = _dur([tracer.spans[i] for i in idx])
        passes = sum(op.passes for op in mine)
        r.add("solvers.%s.solve_s" % alg, secs / len(idx), "s", "trace: mean of %d solves" % len(idx))
        r.add("solvers.%s.passes" % alg, passes / len(mine), "count", "mean passes per solve")
        r.add("solvers.%s.solve_pass_s" % alg, secs / passes if passes else None, "s", "trace: seconds per pass")
        r.add("solvers.%s.tol_ratio" % alg, sum(op.stop == "tol" for op in mine) / len(mine), "ratio",
              "solves reaching tol / solves")
        r.add("solvers.%s.budget_passes" % alg, sum(op.passes for op in mine if op.stop == "budget"), "count",
              "passes spent by solves that ran out of budget (wasted)")
        r.add("solvers.%s.solve_observe_share" % alg, sum(observe_seconds(tracer, i) for i in idx) / secs, "ratio",
              "trace: monitoring share of solve time")


def per_layer(args, wl, tracer, trials, replay_seconds, one_thread_apply):
    """Per-layer metrics, then the trace-only extras and the self-time sums."""
    workload, seed, toy = args.workload, args.seed, args.toy
    r = Report()
    inst = wl.probe_instances(workload, toy)[0][0]
    x, A, y = wl.build(inst, seed, 0)
    z0 = wl.initialize(inst, seed, 0, y, A).z0
    fz = A.apply(z0)
    apply_s = median_time(lambda: A.apply(z0))
    r.add("sensing.apply_s", apply_s, "s", "probe: one A.apply on %s" % inst.tag)
    r.add("sensing.adjoint_s", median_time(lambda: A.adjoint_apply(fz)), "s", "probe: one A.adjoint_apply")
    r.add("sensing.apply_gbps", wl.apply_mb(inst) / 1e3 / apply_s, "GB/s",
          "%.1f MB computed per apply (not counted)" % wl.apply_mb(inst))
    r.add("sensing.apply_1t_s", one_thread_apply(A), "s", "probe: child process with BLAS pinned to 1 thread")
    rows = np.random.default_rng(0).integers(0, A.m, size=64)
    r.add("sensing.row_s", median_time(lambda: [A.row(int(i)) for i in rows]) / len(rows), "s",
          "probe: one A.row(i)")
    block = np.random.default_rng(1).choice(A.m, size=min(64, A.m), replace=False)
    r.add("sensing.block_apply_s", median_time(lambda: A.block_apply(block, z0)), "s",
          "probe: one %d-row A.block_apply" % block.size)

    builds = tracer.named("sensing.make_gaussian") + tracer.named("sensing.make_cdp")
    built = wl.built_instances(workload, toy)
    r.add("sensing.build_s", _mean_dur(builds), "s", "trace: mean of %d builds" % len(builds))
    r.add("sensing.build_mb", sum(wl.stored_mb(i) for i in built) / len(built), "MB",
          "computed: mean operator size over %d instance kinds" % len(built))
    measures = tracer.named("sensing.measure")
    r.add("sensing.measure_s", _mean_dur(measures), "s", "trace: mean of %d measures" % len(measures))
    inits, covs = tracer.named("spectral.init"), tracer.named("spectral.cov_apply")
    r.add("spectral.init_s", _mean_dur(inits), "s", "trace: mean of %d inits" % len(inits))
    r.add("spectral.cov_apply_s", _mean_dur(covs), "s", "trace: mean of %d products" % len(covs))
    r.add("spectral.cov_applies", len(covs) / len(inits), "count", "covariance products per init")
    r.add("spectral.cov_share", _dur(covs) / _dur(inits), "ratio", "trace: covariance products / init time")
    _probe_solvers(r, wl, workload, seed, toy, (x, A, y, z0, inst))

    ops = trials[0].ops if workload == "transition" else [op for t in trials for op in t.ops]
    _trace_solvers(r, tracer, [op for op in ops if op.kind == "solve"])
    if workload == "transition":
        calls = [s for s in tracer.named("experiments.run_phase_transition") if s[4] != "replay"]
        first = [s for s in calls if s[4] == 0][0]
        jobs = trials[0].config.jobs
        r.add("experiments.driver_s", _mean_dur(calls), "s", "trace: mean of %d pooled calls" % len(calls))
        r.add("experiments.serial_trial_s", replay_seconds / trials[0].instances, "s",
              "serial replay of call 0, per labelled trial")
        r.add("experiments.pool_efficiency", replay_seconds / (jobs * (first[2] - first[1])), "ratio",
              "serial / (jobs x pooled wall), call 0, jobs=%d" % jobs)
        writes = tracer.named("results.write_csv")
        r.add("results.write_s", _mean_dur(writes), "s", "trace: mean of %d CSV writes" % len(writes))

    root = tracer.spans[0]
    wall = root[2] - root[1]
    layers = tracer.layer_self_seconds()
    for layer, secs in layers.items():
        r.add("self_s.%s" % layer, secs, "s", "%.1f%% of traced wall" % (100.0 * secs / wall))
    r.add("self_s.sum", sum(layers.values()), "s", "layer self times + benchmark's own time")
    r.add("trace.wall_s", wall, "s", "%d spans" % len(tracer.spans))
    return r
