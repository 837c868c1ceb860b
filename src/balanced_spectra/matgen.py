"""Construction of the four patterned ensembles and their submatrices.

Entry layouts (1-based indices i, j):

* Toeplitz kinds use the variable ``x_{|i-j|}`` (sequence indexed from 0),
  Hankel kinds use ``x_{i+j-1}`` (sequence indexed from 1).
* Unbalanced kinds ``T``/``H`` divide every entry by sqrt(n).
* Balanced kinds ``BT``/``BH`` divide each entry by the square root of the
  number of times its variable occurs in the matrix: ``n - |i-j|`` on the
  Toeplitz diagonals, ``min(i+j-1, 2n-i-j+1)`` on the Hankel anti-diagonals.

``principal_submatrix`` implements the epsilon-trim used to tame the balanced
scalings: top-left corner for ``BT``, symmetric trim of both index ends for
``BH``.  Submatrix entries are copied verbatim (the parent scaling is kept,
recorded through ``parent_n``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError, ResourceLimitError
from .inputs import InputSequence

MATRIX_BUDGET = 2**30  # bytes: the largest dense n x n float64 realization
_ROUND_GUARD = 1e-9


class MatrixKind(Enum):
    T = "t"
    H = "h"
    BT = "bt"
    BH = "bh"

    @classmethod
    def parse(cls, name: str) -> "MatrixKind":
        key = str(name).strip().lower()
        for member in cls:
            if key == member.value:
                return member
        raise InvalidArgumentError(f"unknown matrix kind {name!r}")

    @property
    def balanced(self) -> bool:
        return self in (MatrixKind.BT, MatrixKind.BH)

    @property
    def link(self) -> "MatrixKind":
        """The underlying pattern (T or H) of this ensemble."""
        return MatrixKind.T if self in (MatrixKind.T, MatrixKind.BT) else MatrixKind.H


@dataclass(frozen=True, eq=False)
class PatternedMatrix:
    """Dense symmetric realization of one ensemble member."""

    kind: MatrixKind
    n: int
    parent_n: int
    entries: np.ndarray
    source_seed: int

    def __post_init__(self):
        self.entries.setflags(write=False)


def needed_length(kind: MatrixKind, n: int) -> int:
    """Input-sequence length required to build an n x n matrix of ``kind``."""
    return n if kind.link is MatrixKind.T else 2 * n - 1


def occurrence_counts(kind: MatrixKind, n, i, j):
    """Occurrence counts of the variables at 1-based indices (i, j), elementwise.

    ``n - |i-j|`` for the Toeplitz pattern, ``min(i+j-1, 2n-i-j+1)``, that is
    ``n - |i+j-(n+1)|``, for Hankel (balanced kinds are reduced to their
    pattern).  ``i`` and ``j`` broadcast against each other and are not
    range-checked.
    """
    if kind.link is MatrixKind.T:
        return n - np.abs(i - j)
    return n - np.abs(i + j - (n + 1))


def occurrence_count(kind: MatrixKind, n: int, i: int, j: int) -> int:
    """Number of occurrences of entry (i, j)'s variable in the n x n pattern.

    1-based indices; ``kind`` is the pattern (T or H, balanced kinds are
    accepted and reduced to their pattern).  Values lie in [1, n].
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidArgumentError(f"indices ({i}, {j}) out of range 1..{n}")
    return int(occurrence_counts(kind, n, i, j))


def occurrence_fraction(kind: MatrixKind, x, y):
    """Limiting occurrence fraction at (x, y) of the unit square, elementwise.

    The n -> inf limit of ``occurrence_counts(kind, n, nx, ny) / n``:
    ``1 - |x-y|`` for Toeplitz, ``min(x+y, 2-x-y)`` for Hankel.
    """
    if kind.link is MatrixKind.T:
        return 1.0 - np.abs(x - y)
    return np.minimum(x + y, 2.0 - x - y)


def occurrence_draw(kind: MatrixKind, y, u, lo: float, hi: float, out=None):
    """Draw x on [lo, hi] with density 1 / (Z occurrence_fraction(kind, y, x))
    at the uniforms u in [0, 1], elementwise; return (x, Z).

    Both patterns read occ = min(c + x, 2 - c - x), with c = y for Hankel and
    1 - y for Toeplitz, kinked at x = 1 - c.  So Z = A - ln(2 - c - hi) with
    A = -ln(c + lo), and the inverse CDF at t = u Z is (c + lo) e^t - c below
    the kink (t <= A) and 2 - c - e^(A - t) above it; u = 1 gives hi up to
    rounding, and the final clip keeps every x in [lo, hi].  Where y lies
    outside [lo, hi] or occ vanishes at an end of it, Z is 0 (and x some
    point of [lo, hi]), with no logarithm of 0 taken.  ``y`` and ``u`` are
    non-empty arrays of one shape.  With ``u`` None only Z is computed, two
    logarithms and no exponential, and x is None.

    ``out`` is (x, z, work, flags): x and z of y's shape receive the result,
    and work (float64) and flags (bool), each two rows of y's shape, are
    scratch, overwritten before they are read.  None of them may share memory
    with y or u, which are only read.  Without ``out`` fresh arrays are used;
    either way every element is the same float.
    """
    if out is None:
        shape = np.shape(y)
        out = np.empty(shape), np.empty(shape), np.empty((2, *shape)), np.empty((2, *shape), dtype=bool)
    x, z, (flip, a), (bad, below) = out
    # 1 - c is formed without cancellation, so Z stays right for y within an
    # ulp of 0 or 1
    np.subtract(1.0, y, out=flip)
    c, one_minus_c = (y, flip) if kind.link is MatrixKind.H else (flip, y)
    np.add(c, lo, out=a)  # occ(y, lo)
    np.add(one_minus_c, 1.0 - hi, out=z)  # occ(y, hi)
    if y.min() < lo or y.max() > hi or a.min() <= 0.0 or z.min() <= 0.0:  # Z = 0 somewhere
        np.less(y, lo, out=bad)
        bad |= np.greater(y, hi, out=below)
        bad |= np.less_equal(a, 0.0, out=below)
        bad |= np.less_equal(z, 0.0, out=below)
        np.copyto(a, 1.0, where=bad)
        np.copyto(z, 1.0, where=bad)
    np.negative(np.log(a, out=a), out=a)  # A
    np.subtract(a, np.log(z, out=z), out=z)  # Z
    if u is None:
        return None, z
    d = np.subtract(np.multiply(u, z, out=x), a, out=a)  # t - A: at most 0 below the kink
    np.less_equal(d, 0.0, out=below)
    # e^(t - A) = (c + lo) e^t below the kink, e^(A - t) above: neither overflows
    e = np.exp(np.negative(np.abs(d, out=d), out=d), out=d)
    np.add(one_minus_c, np.subtract(1.0, e, out=x), out=x)  # above the kink
    np.copyto(x, np.subtract(e, c, out=e), where=below)  # below it
    return np.clip(x, lo, hi, out=x), z


def occurrence_integral(kind: MatrixKind, y, ends, lo: float, hi: float, out=None):
    """The integral of 1 / occurrence_fraction(kind, y, x) over x from a to b,
    (a, b) = ``ends``, elementwise, for lo <= a and b <= hi.

    With occ = min(c + x, 2 - c - x) as in ``occurrence_draw``, kinked at
    x = 1 - c, F(x) = ln(c + x) below the kink and -ln(2 - c - x) above it is
    an antiderivative that is 0 at the kink, so the integral is F(b) - F(a),
    +-ln occ at each end.  It is 0 where b <= a, where y lies outside
    [lo, hi] (as ``occurrence_draw``'s Z is) or where occ vanishes at a or b,
    with no logarithm of 0 taken.  ``ends``, two float64 rows of y's shape,
    is overwritten; ``y`` is only read.

    ``out`` is (z, work, flags): z of y's shape receives the integral, and
    work (float64, y's shape) and flags (bool, two rows of y's shape) are
    scratch.  None of them may share memory with y or ``ends``.  Without
    ``out`` fresh arrays are used; either way every element is the same float.
    """
    if out is None:
        shape = np.shape(y)
        out = np.empty(shape), np.empty(shape), np.empty((2, *shape), dtype=bool)
    z, flip, (bad, above) = out
    np.subtract(1.0, y, out=flip)
    c, one_minus_c = (y, flip) if kind.link is MatrixKind.H else (flip, y)
    np.less_equal(ends[1], ends[0], out=bad)
    if y.min() < lo or y.max() > hi:
        bad |= np.less(y, lo, out=above)
        bad |= np.greater(y, hi, out=above)
    for end in ends:  # end becomes F(end)
        np.add(c, end, out=z)  # occ below the kink
        np.subtract(1.0, end, out=end)
        end += one_minus_c  # occ above it
        if z.min() <= 0.0 or end.min() <= 0.0:  # a bad row, or occ vanishing at this end
            bad |= np.less_equal(z, 0.0, out=above)
            bad |= np.less_equal(end, 0.0, out=above)
        np.greater(z, end, out=above)
        np.minimum(z, end, out=end)
        np.copyto(end, 1.0, where=bad)
        np.log(end, out=end)
        np.negative(end, out=end, where=above)
    np.subtract(ends[1], ends[0], out=z)
    np.copyto(z, 0.0, where=bad)
    return z


def check_matrix_budget(n: int) -> None:
    """Refuse, before allocating it, an n x n float64 matrix over MATRIX_BUDGET bytes."""
    need = 8 * int(n) ** 2
    if need > MATRIX_BUDGET:
        raise ResourceLimitError(
            f"an n x n matrix at n={n} needs {need / 2**30:.1f} GiB, over the "
            f"{MATRIX_BUDGET / 2**30:g} GiB budget"
        )


def build_matrix(kind: MatrixKind, seq: InputSequence, n: int) -> PatternedMatrix:
    """Assemble one realization; symmetry is exact by construction."""
    check_realization(kind, n)
    need = needed_length(kind, n)
    if seq.length < need:
        raise InvalidArgumentError(
            f"sequence too short for {kind.value} n={n}: need {need}, have {seq.length}"
        )
    # Scale each variable once, then lay the scaled sequence out as the n
    # windows of length n of one line: no n x n index or count arrays.
    values = seq.values[:need]
    # entry (1, j) holds the j-th variable of either pattern (for Hankel j runs
    # past n along the extended first row, i+j-1 = j)
    counts = occurrence_counts(kind, n, 1, np.arange(1, need + 1))
    scaled = values / np.sqrt(counts) if kind.balanced else values / math.sqrt(n)
    if kind.link is MatrixKind.T:
        # row i (0-based) reads x_{n-1} .. x_1 x_0 x_1 .. x_{n-1} from offset n-1-i
        line = np.concatenate([scaled[:0:-1], scaled])
        entries = sliding_window_view(line, n)[::-1].copy()
    else:
        entries = sliding_window_view(scaled, n).copy()
    return PatternedMatrix(
        kind=kind, n=n, parent_n=n, entries=entries, source_seed=seq.seed
    )


def submatrix_window(kind: MatrixKind, n: int, eps: float) -> tuple[int, int]:
    """1-based inclusive index range kept by the epsilon-trim of ``kind``'s pattern.

    Toeplitz keeps the first ceil(n(1-eps)) indices; Hankel drops
    floor(n*eps/2) indices from each end.
    """
    if not 0.0 <= eps < 1.0:
        raise InvalidArgumentError("eps must lie in [0, 1)")
    if kind.link is MatrixKind.T:
        return 1, int(math.ceil(n * (1.0 - eps) - _ROUND_GUARD))
    trim = int(math.floor(n * eps / 2.0 + _ROUND_GUARD))
    return trim + 1, n - trim


def trimmed_interval(kind: MatrixKind, eps: float) -> tuple[float, float]:
    """Continuum form of the epsilon-trim: the kept part of the unit index axis."""
    if not 0.0 <= eps < 1.0:
        raise InvalidArgumentError("eps must lie in [0, 1)")
    if kind.link is MatrixKind.T:
        return 0.0, 1.0 - eps
    return eps / 2.0, 1.0 - eps / 2.0


def check_realization(kind: MatrixKind, n: int, eps: float = 0.0) -> tuple[int, int]:
    """Check a request for an n x n realization of ``kind`` trimmed by ``eps``,
    before anything is drawn or allocated; return the kept 1-based window.

    n >= 1 within ``MATRIX_BUDGET``; eps in [0, 1), above 0 only for the
    balanced kinds, and leaving at least one index.
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    check_matrix_budget(n)
    lo, hi = submatrix_window(kind, n, eps)
    if eps > 0.0 and not kind.balanced:
        raise InvalidArgumentError("eps trims are defined for balanced kinds (bt, bh)")
    if hi < lo:
        raise InvalidArgumentError(f"trim eps={eps} leaves no rows at n={n}")
    return lo, hi


def principal_submatrix(mat: PatternedMatrix, eps: float) -> PatternedMatrix:
    """Epsilon-trimmed principal submatrix with entries copied from the parent.

    Keeps the rows/columns of ``submatrix_window``.  ``parent_n`` is preserved
    so the entry scalings remain those of the parent matrix.
    """
    lo, hi = check_realization(mat.kind, mat.n, eps)
    return PatternedMatrix(
        kind=mat.kind,
        n=hi - lo + 1,
        parent_n=mat.parent_n,
        entries=mat.entries[lo - 1 : hi, lo - 1 : hi].copy(),
        source_seed=mat.source_seed,
    )
