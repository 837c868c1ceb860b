"""Spectral statistics: ESDs, moments, histograms, Levy distance, trace bounds.

The eigensolver contract: every solve returns all n eigenvalues in ascending
order, with the linear and quadratic trace identities holding to roundoff
(checked on every call; a gross violation raises ``SolverFailureError``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .eigh import symmetric_eigenvalues
from .errors import InvalidArgumentError, ResourceLimitError, SolverFailureError
from .matgen import PatternedMatrix

DEFAULT_BINS = 61
DEFAULT_RANGE = (-3.5, 3.5)
MAX_BINS = 10**6  # np.histogram holds about 360 bytes per bin: 10^6 bins took 390 MB
_LEVY_ITERATIONS = 40


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues of one matrix realization."""

    eigenvalues: np.ndarray
    n: int
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    def __reduce__(self):
        # unpickle through __init__, so a spectrum from a worker is read-only too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Uniform probability measure on a finite set of support points."""

    points: np.ndarray  # sorted ascending

    def __post_init__(self):
        self.points.setflags(write=False)

    @classmethod
    def from_values(cls, values) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(values, dtype=np.float64).ravel())
        if arr.size == 0:
            raise InvalidArgumentError("empirical distribution needs >= 1 point")
        if not np.isfinite(arr).all():
            raise InvalidArgumentError("empirical distribution points must be finite")
        return cls(points=arr)

    @classmethod
    def from_spectrum(cls, spectrum: Spectrum) -> "EmpiricalDistribution":
        return cls.from_values(spectrum.eigenvalues)

    def cdf(self, x) -> np.ndarray:
        """Right-continuous distribution function evaluated at ``x``."""
        x = np.asarray(x, dtype=np.float64)
        return np.searchsorted(self.points, x, side="right") / self.points.size


@dataclass(frozen=True, eq=False)
class HistogramData:
    """Density histogram of pooled eigenvalues.

    Densities are normalized by the total pooled count, so
    ``sum(density * width)`` equals the in-range mass fraction: exactly 1 when
    nothing falls outside the range, and ``1 - overflow/total`` otherwise.
    """

    edges: np.ndarray
    densities: np.ndarray
    realizations: int
    meta: dict
    overflow: int
    total: int

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def overflow_fraction(self) -> float:
        return self.overflow / self.total


def _entries_of(mat) -> np.ndarray:
    if isinstance(mat, PatternedMatrix):
        return mat.entries
    return np.asarray(mat, dtype=np.float64)


def eigenvalues_symmetric(mat, extra_source: dict | None = None) -> Spectrum:
    """Solve for the full spectrum of a symmetric matrix.

    Accepts a ``PatternedMatrix`` (ensemble metadata is recorded on the
    spectrum) or a plain symmetric ndarray.  The spectrum's ``source`` records
    the solve's ``route``, ``"halves"`` or ``"full"`` (see ``eigh``).
    """
    a = _entries_of(mat)
    # checks a is square, finite and symmetric
    values, route = symmetric_eigenvalues(a, return_route=True)
    n = a.shape[0]

    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    trace_gap = abs(float(values.sum()) - float(np.trace(a)))
    if trace_gap > 1e-8 * n * scale:
        raise SolverFailureError(
            f"trace identity violated: gap {trace_gap:.3e}", index=None
        )
    frob_gap = abs(float((values**2).sum()) - float((a**2).sum()))
    if frob_gap > 1e-8 * n * scale**2:
        raise SolverFailureError(
            f"Frobenius identity violated: gap {frob_gap:.3e}", index=None
        )

    source: dict = {"route": route}
    if isinstance(mat, PatternedMatrix):
        source.update(kind=mat.kind.value, n=mat.n, parent_n=mat.parent_n, seed=mat.source_seed)
    if extra_source:
        source.update(extra_source)
    return Spectrum(eigenvalues=values, n=n, source=source)


def check_power_order(h) -> None:
    """Refuse a power order that is not an integer h >= 1."""
    if isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < 1:
        raise InvalidArgumentError(f"power order must be an integer >= 1, got {h!r}")


def check_bins(bins: int) -> None:
    """Refuse a histogram bin count below 1 or above ``MAX_BINS``."""
    if bins < 1:
        raise InvalidArgumentError("bins must be >= 1")
    if bins > MAX_BINS:
        raise ResourceLimitError(f"{bins} histogram bins exceed the cap of {MAX_BINS:.0e}")


def moment(spectrum: Spectrum, h: int) -> float:
    """h-th moment of the ESD: mean of eigenvalue h-th powers."""
    check_power_order(h)
    return float(np.mean(spectrum.eigenvalues ** h))


def trace_power(mat, h: int) -> float:
    """Tr(M^h) by repeated multiplication; independent of any eigensolve."""
    check_power_order(h)
    a = _entries_of(mat)
    return float(np.trace(np.linalg.matrix_power(a, h)))


def levy_distance(f: EmpiricalDistribution, g: EmpiricalDistribution) -> float:
    """Levy distance between two empirical distributions.

    Binary search on the smallest eps such that each CDF fits inside the
    other's eps-corridor; feasibility for a given eps is checked at the jump
    points of both step functions.  Returned value is an upper bound within
    2^-40 of the exact distance.
    """
    fp, gp = f.points, g.points
    nf, ng = fp.size, gp.size
    f_levels = np.arange(1, nf + 1) / nf
    g_levels = np.arange(1, ng + 1) / ng

    def feasible(eps: float) -> bool:
        g_at = np.searchsorted(gp, fp + eps, side="right") / ng
        if np.any(g_at + eps < f_levels):
            return False
        f_at = np.searchsorted(fp, gp + eps, side="right") / nf
        return not np.any(f_at + eps < g_levels)

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(_LEVY_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def hoffman_wielandt_gap(a, b) -> tuple[float, float]:
    """Both sides of the Hoffman-Wielandt bound for a pair of symmetric matrices.

    Returns ``(lhs, rhs)`` with lhs = (1/n) sum (lambda_i(A) - lambda_i(B))^2
    over ascending-sorted spectra and rhs = (1/n) Tr (A-B)^2; the contract is
    lhs <= rhs up to roundoff.
    """
    ea, eb = _entries_of(a), _entries_of(b)
    if ea.shape != eb.shape:
        raise InvalidArgumentError("matrices must have equal dimensions")
    la = symmetric_eigenvalues(ea)
    lb = symmetric_eigenvalues(eb)
    n = ea.shape[0]
    lhs = float(np.sum((la - lb) ** 2)) / n
    rhs = float(np.sum((ea - eb) ** 2)) / n
    return lhs, rhs


def pooled_histogram(
    spectra: list[Spectrum],
    bins: int = DEFAULT_BINS,
    hist_range: tuple[float, float] | None = None,
) -> HistogramData:
    """Density histogram of all eigenvalues pooled across realizations.

    ``hist_range=None`` spans the pooled data exactly (no overflow); an
    explicit range counts out-of-range eigenvalues in the overflow field.
    """
    if not spectra:
        raise InvalidArgumentError("need at least one spectrum")
    check_bins(bins)
    pooled = np.concatenate([s.eigenvalues for s in spectra])
    if hist_range is None:
        lo, hi = float(pooled.min()), float(pooled.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = float(hist_range[0]), float(hist_range[1])
        if not lo < hi:
            raise InvalidArgumentError("histogram range must satisfy lo < hi")
    counts, edges = np.histogram(pooled, bins=bins, range=(lo, hi))
    total = int(pooled.size)
    overflow = total - int(counts.sum())
    # divide by the count first: pooling r copies then rescales exactly
    densities = (counts / total) / np.diff(edges)
    meta = dict(spectra[0].source)
    meta["pooled_realizations"] = len(spectra)
    return HistogramData(
        edges=edges,
        densities=densities,
        realizations=len(spectra),
        meta=meta,
        overflow=overflow,
        total=total,
    )
