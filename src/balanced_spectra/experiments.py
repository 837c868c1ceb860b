"""Ensemble experiment orchestration: seeded realizations in bulk."""

from __future__ import annotations

import functools

import numpy as np

from .inputs import Distribution, derive_seed, generate_sequence
from .matgen import MatrixKind, build_matrix, check_realization, needed_length, principal_submatrix
from .parallel import parallel_map
from .spectra import Spectrum, check_power_order, eigenvalues_symmetric, trace_power


def realization_matrix(kind: MatrixKind, dist: Distribution, n: int, seed: int, eps: float = 0.0):
    """One seeded ensemble member, optionally eps-trimmed."""
    seq = generate_sequence(dist, needed_length(kind, n), seed)
    mat = build_matrix(kind, seq, n)
    # any eps but 0 goes through the trim's check, so a bad one cannot pass untrimmed
    return mat if eps == 0.0 else principal_submatrix(mat, eps)


def _realization_spectrum(
    kind: MatrixKind, dist: Distribution, n: int, master_seed: int, eps: float, r: int
) -> Spectrum:
    mat = realization_matrix(kind, dist, n, derive_seed(master_seed, r), eps)
    extra = {"realization": r}
    if eps > 0.0:
        extra["eps"] = eps
    return eigenvalues_symmetric(mat, extra_source=extra)


def simulate_spectra(
    kind: MatrixKind,
    dist: Distribution,
    n: int,
    reps: int,
    master_seed: int,
    eps: float = 0.0,
    threads: int | None = None,
) -> list[Spectrum]:
    """Solve ``reps`` independent realizations; deterministic in ``master_seed``."""
    check_realization(kind, n, eps)  # before any sequence is drawn or worker started
    solve = functools.partial(_realization_spectrum, kind, dist, n, master_seed, eps)
    return parallel_map(solve, range(reps), workers=threads)


def _realization_trace(
    kind: MatrixKind, dist: Distribution, n: int, master_seed: int, eps: float, h: int, r: int
) -> float:
    mat = realization_matrix(kind, dist, n, derive_seed(master_seed, r), eps)
    return trace_power(mat, h) / mat.parent_n


def trace_moment_samples(
    kind: MatrixKind,
    dist: Distribution,
    n: int,
    reps: int,
    master_seed: int,
    h: int,
    eps: float = 0.0,
    threads: int | None = None,
) -> np.ndarray:
    """Samples of (1/n) Tr(M^h) across seeded realizations (parent-n scaling).

    Computed by matrix powers, no eigensolve; used for variance-decay studies.
    """
    check_realization(kind, n, eps)  # before any sequence is drawn or worker started
    check_power_order(h)
    trace = functools.partial(_realization_trace, kind, dist, n, master_seed, eps, h)
    return np.array(parallel_map(trace, range(reps), workers=threads))
