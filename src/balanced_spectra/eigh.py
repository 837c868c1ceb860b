"""Dense symmetric eigensolver: eigenvalues only, through LAPACK.

``np.linalg.eigvalsh`` replaces the Householder + implicit-shift QL solver of
the original specification, which it matches to roundoff at a small fraction
of the cost.  LAPACK reads only the lower triangle, so this module is the one
place that checks the input: square, finite and exactly symmetric.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, SolverFailureError


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, ascending order."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    # NaN != NaN, so without this a non-finite entry reads as asymmetry
    if not np.isfinite(a).all():
        raise InvalidArgumentError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise InvalidArgumentError("matrix must be exactly symmetric")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"eigensolver did not converge: {exc}") from exc
