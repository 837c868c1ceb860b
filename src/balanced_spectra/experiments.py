"""Ensemble experiment orchestration: seeded realizations in bulk."""

from __future__ import annotations

import numpy as np

from .inputs import Distribution, derive_seed, generate_sequence
from .matgen import MatrixKind, build_matrix, check_matrix_budget, needed_length, principal_submatrix
from .parallel import parallel_map
from .spectra import Spectrum, eigenvalues_symmetric, trace_power


def realization_matrix(kind: MatrixKind, dist: Distribution, n: int, seed: int, eps: float = 0.0):
    """One seeded ensemble member, optionally eps-trimmed."""
    seq = generate_sequence(dist, needed_length(kind, n), seed)
    mat = build_matrix(kind, seq, n)
    if eps > 0.0:
        mat = principal_submatrix(mat, eps)
    return mat


def _solve_task(args) -> Spectrum:
    kind_value, dist_value, n, seed, eps, index = args
    mat = realization_matrix(
        MatrixKind(kind_value), Distribution(dist_value), n, seed, eps
    )
    extra = {"realization": index}
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
    check_matrix_budget(n)  # before any sequence is drawn or worker started
    tasks = [
        (kind.value, dist.value, n, derive_seed(master_seed, r), eps, r)
        for r in range(reps)
    ]
    return parallel_map(_solve_task, tasks, workers=threads)


def _trace_task(args) -> float:
    kind_value, dist_value, n, seed, h, eps = args
    mat = realization_matrix(MatrixKind(kind_value), Distribution(dist_value), n, seed, eps)
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
    tasks = [
        (kind.value, dist.value, n, derive_seed(master_seed, r), h, eps)
        for r in range(reps)
    ]
    return np.array(parallel_map(_trace_task, tasks, workers=threads))
