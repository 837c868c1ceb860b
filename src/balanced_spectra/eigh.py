"""Dense symmetric eigensolver: eigenvalues only, through LAPACK.

``np.linalg.eigvalsh`` replaces the Householder + implicit-shift QL solver of
the original specification, which it matches to roundoff at a small fraction
of the cost.  LAPACK reads only the lower triangle, so this module is the one
place that checks the input: square, finite and exactly symmetric.

A symmetric Toeplitz matrix (``t``, ``bt``, whose balancing scale depends on
|i - j| alone, and every eps-trimmed ``bt``, a top-left block of one) is also
centrosymmetric: J T J = T, with J the exchange matrix.  Its spectrum is the
union of the spectra of two half-size symmetric matrices (Cantoni & Butler,
"Eigenvalues and eigenvectors of symmetric centrosymmetric matrices", Linear
Algebra Appl. 13, 1976).  With m = n // 2, A the top-left m x m block and C
the top-right m x m block of T:

* even n = 2m: A - CJ and A + CJ;
* odd n = 2m + 1: A - CJ and the bordered block [[A + CJ, sqrt(2) x],
  [sqrt(2) x^T, t_mm]], with x = T[:m, m] the middle column above the centre.

Symmetric eigenvectors (J v = v) live in the "+" block, skew ones (J v = -v)
in the "-" block.  Two solves of half the size cost about a quarter of one
full solve, so every input that equals its own 180-degree rotation exactly
(n >= 2) takes this "halves" route.  Any other input (``h``, ``bh``, a
general symmetric matrix) takes the "full" route, one ``eigvalsh`` of the
whole matrix, and keeps its bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, SolverFailureError


def _half_blocks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The skew and symmetric blocks of an exactly centrosymmetric ``a``."""
    n = a.shape[0]
    m = n // 2
    top = a[:m, :m]
    corner = a[:m, n - m:][:, ::-1]  # C J: the top-right block, columns reversed
    skew = top - corner
    if n % 2 == 0:
        return skew, top + corner
    sym = np.empty((m + 1, m + 1))
    sym[:m, :m] = top + corner
    sym[:m, m] = sym[m, :m] = math.sqrt(2.0) * a[:m, m]
    sym[m, m] = a[m, m]
    return skew, sym


def symmetric_eigenvalues(a: np.ndarray, *, return_route: bool = False):
    """All eigenvalues of a dense symmetric matrix, ascending order.

    With ``return_route`` the result is ``(values, route)``, route being
    ``"halves"`` or ``"full"`` (see the module docstring).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    # NaN != NaN, so without this a non-finite entry reads as asymmetry
    if not np.isfinite(a).all():
        raise InvalidArgumentError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise InvalidArgumentError("matrix must be exactly symmetric")
    route = "halves" if a.shape[0] >= 2 and np.array_equal(a, a[::-1, ::-1]) else "full"
    try:
        if route == "full":
            values = np.linalg.eigvalsh(a)
        else:
            skew, sym = _half_blocks(a)
            values = np.sort(np.concatenate((np.linalg.eigvalsh(skew), np.linalg.eigvalsh(sym))))
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"eigensolver did not converge: {exc}") from exc
    return (values, route) if return_route else values
