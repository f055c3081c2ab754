"""Reproducible random streams.

Every stochastic component (ensemble construction, noise sampling, solver
index draws, spectral-init start vectors, per-trial signals) pulls from
its own substream keyed by a master seed plus string/int labels.  Streams
are derived through ``SeedSequence`` and driven by the counter-based
Philox engine, so

* the same (seed, labels) always yields the same draws,
* distinct labels give statistically independent streams, and
* trial k's stream does not depend on whether trials 0..k-1 ran first,
  which is what makes opt-in trial parallelism safe.
"""

import numpy as np

from .core import _count


def _as_entropy(key):
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError("stream keys must be nonnegative, got %r" % key)
        return int(key)
    if isinstance(key, str):
        return int.from_bytes(key.encode("utf-8"), "little")
    raise TypeError("stream key must be int or str, got %s" % type(key).__name__)


def substream(seed, *labels):
    """Philox generator for the stream (seed, *labels); ValueError unless seed is an int >= 0."""
    entropy = [_count(seed, "seed", 0)] + [_as_entropy(k) for k in labels]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed, *labels):
    """Collapse (seed, *labels) into a single integer seed.

    Used where a component stores a plain int seed in its descriptor
    (ensembles, noise specs) but the seed itself should come from the
    master-seed hierarchy.  The seed follows substream's rule.
    """
    entropy = [_count(seed, "seed", 0)] + [_as_entropy(k) for k in labels]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
