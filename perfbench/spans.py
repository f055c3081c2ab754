"""In-memory span tracer, and the instrumentation that times phasekit's
layers from outside the package.

A span is ``[name, start, end, parent, trial, summed]``: ``parent`` indexes
the enclosing span (-1 for the root), ``trial`` is the benchmark trial that
was running, and ``summed`` maps the names of high-frequency calls made
directly under this span (one ``A.row(i)`` per sample in the incremental
solvers) to ``[calls, seconds]``.  Those calls are summed instead of kept
one span each, which would cost more memory and time than the row itself.

A span's self time is its duration minus what its child spans and summed
calls cover, so the self times of all spans under the root add up to the
root's duration.  The layer of a span is the part of its name before the
first dot; the root span's self time is the benchmark's own time.

``instrument`` replaces phasekit's public functions and ensemble methods
with timing wrappers everywhere the package binds them and puts the
originals back on exit.  Nothing under ``src/`` is edited.
"""

import contextlib
import functools
import sys
import time

LAYERS = ("sensing", "spectral", "solvers", "core", "experiments", "results")


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.trial = None
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.trial, None])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span %r closed out of order" % self.spans[idx][0])

    def add(self, name, seconds):
        """Sum one high-frequency call into the innermost open span."""
        if not self._stack:
            raise RuntimeError("summed call %r outside any span" % name)
        s = self.spans[self._stack[-1]]
        if s[5] is None:
            s[5] = {}
        acc = s[5].setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += seconds

    # --- derived numbers -------------------------------------------------

    def self_times(self):
        """Self seconds per span, and per summed-call name."""
        covered = [0.0] * len(self.spans)
        summed = {}
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        for i, s in enumerate(self.spans):
            for name, (_, secs) in (s[5] or {}).items():
                covered[i] += secs
                summed[name] = summed.get(name, 0.0) + secs
        own = [s[2] - s[1] - c for s, c in zip(self.spans, covered)]
        return own, summed

    def layer_self_seconds(self):
        """{layer: self seconds}, with the root's self time under 'bench'."""
        own, summed = self.self_times()
        out = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for s, t in zip(self.spans, own):
            layer = "bench" if s[3] < 0 else s[0].split(".", 1)[0]
            out[layer] += t
        for name, t in summed.items():
            out[name.split(".", 1)[0]] += t
        return out

    def named(self, name):
        """Closed spans with this name."""
        return [s for s in self.spans if s[0] == name and s[2] is not None]

    def to_json(self):
        return {
            "fields": ["name", "start", "end", "parent", "trial", "summed"],
            "spans": self.spans,
        }


def _span_wrapper(tracer, name, fn, suffix=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name if suffix is None else name + "." + suffix(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return wrapper


def _summed_wrapper(tracer, name, fn):
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(name, clock() - t0)

    return wrapper


def _algorithm(y, A, z0, cfg, x_opt=None):
    return cfg.algorithm


def _targets():
    """(span name, function, suffix) triples and (span name, class, method,
    summed) quadruples.  A suffix names the span after an argument: each
    solvers.run span is named solvers.run.<algorithm>."""
    from phasekit import core, experiments, results, sensing, solvers, spectral

    functions = [
        ("sensing.make_gaussian", sensing.make_gaussian, None),
        ("sensing.make_cdp", sensing.make_cdp, None),
        ("sensing.measure", sensing.measure, None),
        ("spectral.init", spectral.spectral_initialize, None),
        ("spectral.cov_apply", spectral.weighted_covariance_apply, None),
        ("solvers.run", solvers.run, _algorithm),
        ("solvers.block_kaczmarz_step", solvers.block_kaczmarz_step, None),
        ("core.relative_error", core.relative_error, None),
        ("core.amplitude_loss", core.amplitude_loss, None),
        ("core.intensity_loss", core.intensity_loss, None),
        ("core.rwf_loss", core.rwf_loss, None),
        ("core.phase", core.phase, None),
        ("experiments.run_phase_transition", experiments.run_phase_transition, None),
        ("results.write_csv", results.write_csv, None),
    ]
    G, C, E = sensing.GaussianEnsemble, sensing.CDPEnsemble, sensing.Ensemble
    methods = [
        ("sensing.apply", G, "apply", False),
        ("sensing.apply", C, "apply", False),
        ("sensing.adjoint", G, "adjoint_apply", False),
        ("sensing.adjoint", C, "adjoint_apply", False),
        ("sensing.block_apply", G, "block_apply", False),
        ("sensing.block_apply", E, "block_apply", False),
        ("sensing.block_adjoint", E, "block_adjoint", False),
        ("sensing.block_rows", G, "block_rows", False),
        ("sensing.block_rows", E, "block_rows", False),
        ("sensing.mask_apply", C, "mask_apply", False),
        ("sensing.mask_adjoint", C, "mask_adjoint", False),
        ("sensing.row", G, "row", True),
        ("sensing.row", C, "row", True),
    ]
    return functions, methods


@contextlib.contextmanager
def instrument(tracer):
    """Route phasekit's layer calls through `tracer` for the block's span.

    Module-level functions are replaced in every phasekit module that binds
    them (``experiments`` imports ``run`` by name, for instance); methods
    are replaced on the class that defines them.  Pool workers forked
    inside the block inherit the wrappers but keep their spans.
    """
    functions, methods = _targets()
    undo = []
    try:
        modules = [m for k, m in sys.modules.items() if k == "phasekit" or k.startswith("phasekit.")]
        for name, fn, suffix in functions:
            wrapped = _span_wrapper(tracer, name, fn, suffix)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        undo.append((mod, attr, val))
                        setattr(mod, attr, wrapped)
        for name, cls, attr, summed in methods:
            fn = cls.__dict__[attr]
            make = _summed_wrapper if summed else _span_wrapper
            undo.append((cls, attr, fn))
            setattr(cls, attr, make(tracer, name, fn))
        yield tracer
    finally:
        for obj, attr, val in reversed(undo):
            setattr(obj, attr, val)
