"""phasekit: matrix-free phase retrieval.

Recover a real or complex signal x from magnitude measurements
y_i = |a_i^* x| using amplitude-residual gradient flow (batch,
incremental, minibatch) and Kaczmarz projection variants, with spectral
initialization (optimal or truncated preprocessing), Gaussian and
coded-diffraction sensing, a reproducible experiment harness, and
closed-form expected-loss oracles.

Importing phasekit loads numpy and the standard library only.  The
functions that use scipy (its BLAS and LAPACK wrappers, eigsh, special
functions) or the process pool import them on their first call, so a
process that never calls them, `phasekit --help` for one, never loads
them.  A pooled driver imports scipy in its parent before the pool
forks, so the workers inherit it instead of each importing it again.
"""

from ._version import __version__
from .analysis import (
    CorrelationState,
    abs_product_moment,
    expected_rwf_loss,
    expected_wf_loss,
    monte_carlo_expected_rwf_loss,
    product_magnitude_density,
    sign_flip_bound,
)
from .config import ConfigError, ExperimentConfig, load_config
from .core import (
    COMPLEX,
    REAL,
    dist_up_to_phase,
    phase,
    random_signal,
    relative_error,
    rwf_loss,
    wf_loss,
)
from .sensing import (
    CDPEnsemble,
    GaussianEnsemble,
    Measurements,
    NoiseSpec,
    from_descriptor,
    make_cdp,
    make_gaussian,
    measure,
)
from .solvers import (
    ALGORITHMS,
    RunTrace,
    SolverConfig,
    block_kaczmarz_step,
    irwf_step,
    kaczmarz_step,
    minibatch_irwf_step,
    run,
    rwf_gradient,
    wf_gradient,
)
from .spectral import (
    EmptyTruncationError,
    InitParams,
    InitResult,
    estimate_norm,
    spectral_initialize,
)

__all__ = [
    "__version__",
    "COMPLEX",
    "REAL",
    "ALGORITHMS",
    "CorrelationState",
    "ConfigError",
    "CDPEnsemble",
    "EmptyTruncationError",
    "ExperimentConfig",
    "GaussianEnsemble",
    "InitParams",
    "InitResult",
    "Measurements",
    "NoiseSpec",
    "RunTrace",
    "SolverConfig",
    "abs_product_moment",
    "block_kaczmarz_step",
    "dist_up_to_phase",
    "estimate_norm",
    "expected_rwf_loss",
    "expected_wf_loss",
    "from_descriptor",
    "irwf_step",
    "kaczmarz_step",
    "load_config",
    "make_cdp",
    "make_gaussian",
    "measure",
    "minibatch_irwf_step",
    "monte_carlo_expected_rwf_loss",
    "phase",
    "product_magnitude_density",
    "random_signal",
    "relative_error",
    "run",
    "rwf_gradient",
    "rwf_loss",
    "sign_flip_bound",
    "spectral_initialize",
    "wf_gradient",
    "wf_loss",
]
