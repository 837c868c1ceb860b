"""Spectral laboratory for balanced random Toeplitz and Hankel matrices.

Simulate empirical spectral distributions of the balanced (and plain)
Toeplitz/Hankel ensembles, compute the limiting ESD moments through
pair-matched word combinatorics and singular integrals, and cross-validate
simulation against theory with exact finite-size oracles and inequality
checks.
"""

import os
from types import ModuleType as _ModuleType

# One BLAS thread per process: the worker pool behind --threads is the only
# parallelism, so a serial run and each worker is exactly one thread and no
# idle OpenBLAS helper is left to spin.  On two CPUs an n = 400 eigensolve
# took about 10 ms this way against 14-15 ms with a helper per core, and the
# bytes no longer depend on the core count.  OpenBLAS reads the variable when
# numpy first loads, so it is set before any numpy import; a user value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import (
    BalancedSpectraError,
    DegenerateTruncationError,
    InvalidArgumentError,
    ResourceLimitError,
    SolverFailureError,
    UsageError,
)
from .inputs import Distribution, InputSequence, derive_seed, generate_sequence, truncate_standardize
from .matgen import (
    MatrixKind,
    PatternedMatrix,
    build_matrix,
    needed_length,
    occurrence_count,
    principal_submatrix,
)
from .spectra import (
    EmpiricalDistribution,
    HistogramData,
    Spectrum,
    eigenvalues_symmetric,
    hoffman_wielandt_gap,
    levy_distance,
    moment,
    pooled_histogram,
    trace_power,
)
from .words import (
    LinearForm,
    Word,
    enumerate_pair_matched_words,
    generating_vertices,
    is_symmetric,
    linear_forms,
)
from .limits import (
    ComparisonReport,
    Method,
    MomentEstimate,
    compare_empirical_limit,
    finite_n_word_moment,
    limit_moment,
    limit_moment_of_order,
    limit_word_moment,
    truncated_moment_bound,
    truncated_word_moment,
)
from .experiments import simulate_spectra, trace_moment_samples

# the names imported above, without ``os`` and the submodules their imports bind
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))
)
