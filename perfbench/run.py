#!/usr/bin/env python3
"""phasekit benchmark: one seeded workload through phasekit's public
functions, every output checked, every metric printed by name and unit.

    python3 perfbench/run.py --workload race --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports phasekit from ``src/``
there and refuses to run without it.  Workloads: race, transition, cdp,
init (perfbench/README.md says what each runs and why).  Trials run in a
closed loop in this one process, each starting when the previous one
ends, until --seconds have passed; the last trial runs to its end.

--trace 0 measures the end-to-end metrics.  --trace 1 runs the same loop
with every call into phasekit's layers timed and reports the per-layer
metrics instead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, whose metrics are those
BENCHMARK.json declares for the mode.  The exit status is 0 only
when every operation passed its check.  Spans and the full report are
also written to .bench_out/ in the checkout.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 5
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def import_phasekit():
    """Put the checkout's src/ first on the path; exit if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "phasekit", "__init__.py")):
        sys.exit("perfbench: no phasekit sources under %s; run from a checkout" % SRC)
    sys.path.insert(0, SRC)
    import phasekit

    if not os.path.abspath(phasekit.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported phasekit from %s, not from %s" % (phasekit.__file__, SRC))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("race", "transition", "cdp", "init"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--apply-probe", metavar="DESCRIPTOR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return args


def closed_loop(step, seconds):
    """Run step(0), step(1), ... while less than `seconds` has passed; the
    last trial runs to its end."""
    trials = []
    start = time.perf_counter()
    while True:
        trials.append(step(len(trials)))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return trials, elapsed


def setup_seconds(args):
    """Wall time of fresh processes doing import, validation and warm-up."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--setup-probe"]
    if args.toy:
        cmd.append("--toy")
    samples = []
    for _ in range(SETUP_PROBES):
        # no timeout: waiting with one polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def apply_probe(descriptor):
    """Child side of sensing.apply_1t_s: time A.apply on the rebuilt operator."""
    import metrics
    import numpy as np
    from phasekit import sensing

    A = sensing.from_descriptor(json.loads(descriptor))
    z = np.random.default_rng(0).standard_normal(A.n)
    if A.field == "complex":
        z = z.astype(np.complex128)
    A.apply(z)
    print(json.dumps({"apply_s": metrics.median_time(lambda: A.apply(z), min_reps=5, budget=0.5)}))


def one_thread_apply_seconds(A):
    env = dict(os.environ, **ONE_THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "race",
           "--apply-probe", json.dumps(A.descriptor())]
    out = subprocess.run(cmd, check=True, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])["apply_s"]


def peak_rss_mb(workload):
    """Peak RSS of this process; for transition plus jobs x the largest child
    (an upper bound: forked pool workers share pages with their parent)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload != "transition":
        return own, "this process"
    import workloads as wl

    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + wl.TRANSITION_JOBS * child, "this process + %d x largest child" % wl.TRANSITION_JOBS


def untraced(args, wl):
    import metrics

    setup = setup_seconds(args)
    trials, window = closed_loop(lambda k: wl.run_trial(args.workload, args.seed, k, args.toy, OUT_DIR), args.seconds)
    if args.workload == "transition":
        trials[0].ops, _ = wl.transition_replay(trials[0])
    return trials, metrics.end_to_end(args.workload, trials, window, setup, peak_rss_mb(args.workload)), None


def traced(args, wl):
    import metrics
    from spans import Tracer, instrument

    tracer = Tracer()

    def step(k):
        tracer.trial = k
        return wl.run_trial(args.workload, args.seed, k, args.toy, OUT_DIR)

    replay_seconds = None
    with instrument(tracer):
        root = tracer.begin("bench.run")
        trials, _ = closed_loop(step, args.seconds)
        if args.workload == "transition":
            tracer.trial = "replay"
            trials[0].ops, replay_seconds = wl.transition_replay(trials[0])
        tracer.trial = None
        tracer.end(root)

    # the first trials again with tracing off give the tracing overhead
    again, start = [], time.perf_counter()
    for t in trials:
        again.append(wl.run_trial(args.workload, args.seed, t.index, args.toy, OUT_DIR))
        if time.perf_counter() - start >= args.seconds / 4:
            break
    report = metrics.per_layer(args, wl, tracer, trials, replay_seconds, one_thread_apply_seconds)
    on = sum(t.seconds for t in trials[: len(again)])
    off = sum(t.seconds for t in again)
    report.add("trace.overhead", on / off - 1.0, "ratio",
               "first %d trials: %.3f s traced vs %.3f s untraced" % (len(again), on, off))
    return trials, report, tracer.to_json()


def main(argv=None):
    args = parse_args(argv)
    import_phasekit()
    import machine
    import metrics
    import workloads as wl

    if args.setup_probe:
        wl.warm_up(args.workload, args.toy)
        return 0
    if args.apply_probe:
        apply_probe(args.apply_probe)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    wl.warm_up(args.workload, args.toy)
    trials, report, spans = (traced if args.trace else untraced)(args, wl)
    ops, failed = metrics.all_ops(trials)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    print("# phasekit benchmark: workload=%s seed=%d seconds=%g trace=%d%s"
          % (args.workload, args.seed, args.seconds, args.trace, " toy" if args.toy else ""))
    host = machine.record()
    for key, val in host.items():
        print("machine %s = %s" % (key, val))
    for inst in wl.built_instances(args.workload, args.toy):
        print("operator %s: %s n=%d m=%d holds %.2f MB, one apply moves %.2f MB (computed, not counted)"
              % (inst.tag, inst.model, inst.n, inst.m, wl.stored_mb(inst), wl.apply_mb(inst)))
    for line in report.lines:
        print(line)
    for op in failed[:10]:
        print("failed %s %s: %s" % (op.kind, op.label, op.error))
    if len(failed) > 10:
        print("failed ... %d more" % (len(failed) - 10))
    wrong = [m["name"] for m in declared if report.values.get(m["name"], (0, None))[1] != m["unit"]]
    if wrong:
        raise RuntimeError("metrics not measured in their declared unit: %s" % ", ".join(wrong))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": report.values[m["name"]][0], "unit": m["unit"]} for m in declared},
    }
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace, "-toy" if args.toy else "")
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"machine": host, "report": report.lines, "result": result, "trace": spans}, fh)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
