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

from .errors import InvalidArgumentError
from .inputs import InputSequence

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


def occurrence_count(kind: MatrixKind, n: int, i: int, j: int) -> int:
    """Number of occurrences of entry (i, j)'s variable in the n x n pattern.

    1-based indices; ``kind`` is the pattern (T or H, balanced kinds are
    accepted and reduced to their pattern).  Values lie in [1, n].
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidArgumentError(f"indices ({i}, {j}) out of range 1..{n}")
    if kind.link is MatrixKind.T:
        return n - abs(i - j)
    return min(i + j - 1, 2 * n - i - j + 1)


def build_matrix(kind: MatrixKind, seq: InputSequence, n: int) -> PatternedMatrix:
    """Assemble one realization; symmetry is exact by construction."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    need = needed_length(kind, n)
    if seq.length < need:
        raise InvalidArgumentError(
            f"sequence too short for {kind.value} n={n}: need {need}, have {seq.length}"
        )
    # Scale each variable once, then lay the scaled sequence out as the n
    # windows of length n of one line: no n x n index or count arrays.
    values = seq.values[:need]
    if kind.link is MatrixKind.T:
        counts = n - np.arange(n)  # x_k fills the diagonals |i-j| = k
    else:
        m = np.arange(1, need + 1)  # x_m fills the anti-diagonal i+j-1 = m
        counts = np.minimum(m, 2 * n - m)
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


def submatrix_dimension(kind: MatrixKind, n: int, eps: float) -> int:
    """Realized dimension of the epsilon-trimmed principal submatrix."""
    if not 0.0 <= eps < 1.0:
        raise InvalidArgumentError("eps must lie in [0, 1)")
    if kind is MatrixKind.BT:
        return int(math.ceil(n * (1.0 - eps) - _ROUND_GUARD))
    if kind is MatrixKind.BH:
        trim = int(math.floor(n * eps / 2.0 + _ROUND_GUARD))
        return n - 2 * trim
    raise InvalidArgumentError("submatrix trim is defined for BT and BH only")


def principal_submatrix(mat: PatternedMatrix, eps: float) -> PatternedMatrix:
    """Epsilon-trimmed principal submatrix with entries copied from the parent.

    BT keeps the top-left ceil(n(1-eps)) rows/columns; BH drops
    floor(n*eps/2) rows/columns from each end.  ``parent_n`` is preserved so
    the entry scalings remain those of the parent matrix.
    """
    m = submatrix_dimension(mat.kind, mat.n, eps)
    if m < 1:
        raise InvalidArgumentError(f"trim eps={eps} leaves no rows at n={mat.n}")
    if mat.kind is MatrixKind.BT:
        sub = mat.entries[:m, :m]
    else:
        trim = (mat.n - m) // 2
        sub = mat.entries[trim : mat.n - trim, trim : mat.n - trim]
    return PatternedMatrix(
        kind=mat.kind,
        n=m,
        parent_n=mat.parent_n,
        entries=sub.copy(),
        source_seed=mat.source_seed,
    )
