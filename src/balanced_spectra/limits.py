"""Limiting and truncated ESD moments via word sums over singular integrals.

For a pair-matched word w of length 2k with generating positions
S = {0} u {first occurrences}, the word's contribution to the order-2k
limiting moment is

    E[ 1(all dependent forms lie in the unit interval)
       / prod_{i in S, i>0} occ(L_{i-1}(U_S), U_i) ]

with independent U(0,1) coordinates on S, where occ is the pattern's
limiting occurrence fraction (``matgen.occurrence_fraction``).  Hankel
words that are not parity-symmetric contribute exactly zero.

Three evaluation routes are provided and cross-checked against each other:

* ``finite_n_word_moment`` -- exact discrete expectation at resolution n
  (exhaustive enumeration of generating assignments, with circuit closure
  solved for one coordinate where it does not hold identically, once per
  rotation/reflection class of words), the finite-size oracle.
* ``truncated_word_moment`` -- the integral restricted to an eps-trimmed box
  where the integrand is bounded by eps^-k, via importance-sampled Monte
  Carlo or graded-mesh quadrature.
* ``limit_word_moment`` -- the eps = 0 value, either by the same Monte Carlo
  on the untrimmed box (method ``mc-ladder``) or by graded-mesh tensor
  quadrature refined toward the singular faces.

The Monte Carlo draws x_0 uniformly and each later generating coordinate
x_i, in walk order, from the density proportional to its own factor
1 / occ(L_{i-1}, x_i), whose normalizer Z(L_{i-1}) and inverse CDF are closed
forms (``matgen.occurrence_draw``).  What is left to average, the product of
the normalizers times the indicator, is at most log-singular, so plain Monte
Carlo has a CLT error bar at eps = 0 itself (importance sampling: Owen,
*Monte Carlo theory, methods and examples*, 2013, ch. 9).  Each call of the
kernel allocates one scratch set sized to a block and reuses it for every
block, so no block allocates an array and the module keeps no state: calls
may run side by side in threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .experiments import simulate_spectra
from .inputs import Distribution, derive_seed
from .matgen import (
    MatrixKind, occurrence_counts, occurrence_draw, occurrence_fraction, submatrix_window, trimmed_interval,
)
from .parallel import parallel_map
from .spectra import moment
from .words import (
    MAX_K, Word, dihedral_representative, enumerate_pair_matched_words, form_matrix, generating_vertices, is_symmetric,
    linear_forms,
)

DEFAULT_SAMPLES = 2_000_000
DEFAULT_GRID = 64
COMPARE_SAMPLES = 200_000  # Monte Carlo samples per word of compare_empirical_limit's limits
BATCHES = 16  # batches per Monte Carlo estimate, whose spread gives its error bar
GRADING = 0.7  # geometric cell ratio of the quadrature mesh
TOL_EVEN = 0.05  # relative tolerance of compare_empirical_limit, even orders
TOL_ODD = 0.1  # absolute tolerance of compare_empirical_limit, odd orders
LIMIT_METHODS = ("mc-ladder", "quadrature")
QUADRATURE_MAX_K = 3
MIN_GRID = 4  # the error bar's coarse mesh, grid // 2 cells, needs at least 2
INTEGRAND_BUDGET = 2**30  # bytes: the working set of one quadrature node's slice or one Monte Carlo batch
QUADRATURE_ROW_FLOATS = 8  # float64 values per row of that slice, an upper bound on its peak
ENUMERATION_BUDGET = 10**9
_BLOCK = 1 << 16  # rows per oracle block: its int64 forms stay cache-sized
_MC_BLOCK = 1 << 13  # rows per Monte Carlo block: its coordinates and forms stay in L2


class Method(Enum):
    FINITE_N = "finite-n"
    QUADRATURE = "quadrature"
    MC_LADDER = "mc-ladder"
    ANALYTIC = "analytic"


@dataclass(frozen=True)
class MomentEstimate:
    """A numeric moment value with provenance and an error bar."""

    value: float
    std_error: float
    method: Method
    params: dict = field(default_factory=dict)
    word: Word | None = None


class _WordContext:
    """Precomputed evaluation data for one (word, pattern) pair."""

    __slots__ = ("word", "link", "coeffs", "dependent", "gen_pairs", "needed", "k")

    def __init__(self, word: Word, kind: MatrixKind):
        self.word = word
        self.link = kind.link
        forms, _ = linear_forms(word, kind)
        self.coeffs = form_matrix(forms)  # (2k+1, k+1)
        vertices = generating_vertices(word)
        col_of = {v: i for i, v in enumerate(vertices)}
        self.dependent = [i for i in range(1, word.length) if i not in col_of]
        # one occurrence factor per generating position i > 0: occ(L_{i-1}, x_i)
        self.gen_pairs = [(i - 1, col_of[i]) for i in vertices if i > 0]
        self.needed = sorted({*self.dependent, *(row for row, _ in self.gen_pairs)})  # the forms the integrand reads
        self.k = word.k


def _integrand_on(ctx: _WordContext, forms, x, lo, hi, occ, mask: np.ndarray | None = None) -> np.ndarray:
    """Indicator-masked integrand on one block: 1 / prod occ(L_{i-1}, x_i) over
    the generating positions i > 0, left to right, where every dependent form
    lies in [lo, hi], else 0.

    ``forms[i]`` holds L_i for the rows in ``ctx.needed`` and ``x[c]``
    coordinate c, all broadcasting to the block's shape; ``occ`` is the
    occurrence rule, a limiting fraction or a count over n.  ``mask``, a
    boolean array of the block's shape, is ANDed in place with the window test,
    so the caller can read which rows counted.
    """
    shape = np.broadcast_shapes(*map(np.shape, x))
    mask = np.ones(shape, dtype=bool) if mask is None else mask
    for i in ctx.dependent:
        mask &= (forms[i] >= lo) & (forms[i] <= hi)
    (row, col), *rest = ctx.gen_pairs
    denom = occ(forms[row], x[col])  # occ returns a fresh array, so the product can start in it
    if np.shape(denom) != shape:  # a partial broadcast of an open mesh
        denom = np.broadcast_to(denom, shape).copy()
    for row, col in rest:
        denom *= occ(forms[row], x[col])
    out = np.zeros(shape)
    np.divide(1.0, denom, out=out, where=mask & (denom > 0.0))
    return out


# ---------------------------------------------------------------------------
# exact finite-n oracle


def _form(coeffs: np.ndarray, x: list, out=None) -> np.ndarray:
    """The form sum_c coeffs[c] * x[c], skipping zero coefficients and taking a
    unit coefficient's coordinate as it is (a one-term form may be it).

    ``out``, two rows of the coordinates' shape, holds the same sum, built in
    out[0] with out[1] holding each non-unit term's product, unless the form
    is a coordinate itself."""
    terms = [(x[j], c) for j, c in enumerate(coeffs) if c]
    if out is None:
        return functools.reduce(np.add, [v if c == 1 else c * v for v, c in terms])
    if len(terms) == 1 and terms[0][1] == 1:
        return terms[0][0]
    total, product = out
    (v, c), *rest = terms
    np.multiply(v, c, out=total)
    for v, c in rest:
        np.add(total, v if c == 1 else np.multiply(v, c, out=product), out=total)
    return total


def finite_n_word_moment(word: Word, kind: MatrixKind, n: int, eps: float = 0.0) -> MomentEstimate:
    """Exact discrete word contribution at matrix size n (optionally trimmed).

    Sums, over every assignment of the generating vertices to the retained
    index window whose dependent vertices stay in the window and whose walk
    closes, the reciprocal product of occurrence counts.  This is the
    zero-error finite-size reference the continuum estimates are validated
    against.

    The sum is constant on the word's rotation/reflection class
    (``words.dihedral_representative``), so it is enumerated once per class,
    kind, n and eps, and remembered.  The request is checked on every call.
    ``params`` records the enumerated ``rows``, the ``kept`` rows that passed
    the window and closure masks, and the representative's letters (``class``).
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    lo, hi = submatrix_window(kind, n, eps)
    win = hi - lo + 1
    if win < 1:
        raise InvalidArgumentError(f"eps={eps} leaves no indices at n={n}")
    free = word.k + linear_forms(word, kind)[1]  # a non-closing word solves one coordinate
    if win**free > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"finite-n enumeration of {win}^{free} = {win**free:.3g} assignments exceeds {ENUMERATION_BUDGET:.0e}"
        )
    rep = dihedral_representative(word).letters
    value, kept = _finite_n_sum(rep, kind, n, eps)
    return MomentEstimate(
        value=value,
        std_error=0.0,
        method=Method.FINITE_N,
        params={
            "kind": kind.link.value, "n": n, "eps": eps, "window": [lo, hi],
            "rows": win**free, "kept": kept, "class": rep,
        },
        word=word,
    )


@functools.lru_cache(maxsize=1024)
def _finite_n_sum(letters: str, kind: MatrixKind, n: int, eps: float) -> tuple[float, int]:
    """The word sum of ``finite_n_word_moment`` and its count of kept rows, for
    a request that function has checked.

    Closure reads c.x = 0 with c = L_{2k} - e_0.  When c vanishes (every
    Toeplitz word and every symmetric Hankel word) all k+1 coordinates are
    enumerated; otherwise the coordinate p with the smallest nonzero |c_p| is
    solved for, so only win^k assignments are enumerated and a row is kept
    when c_p divides the rest and x_p lands in the window.  Assignments are
    built in blocks of about ``_BLOCK`` rows as sums of broadcast index axes,
    on which ``_integrand_on`` evaluates the word's integrand with occurrence
    counts over n.
    """
    ctx = _WordContext(Word(letters), kind)
    lo, hi = submatrix_window(kind, n, eps)
    win = hi - lo + 1
    closure = ctx.coeffs[-1].copy()
    closure[0] -= 1
    solvable = np.flatnonzero(closure)
    p = int(solvable[np.argmin(np.abs(closure[solvable]))]) if solvable.size else None
    free = ctx.k + 1 - (p is not None)
    if p is not None:
        c_p = closure[p]
        closure[p] = 0

    # Each block holds the leading free axes at one value each (`head`), cuts
    # the next axis into slices of `step` values and spans the last `tail`
    # axes whole, with win**tail <= _BLOCK.
    tail = 0
    while tail < free - 1 and win ** (tail + 1) <= _BLOCK:
        tail += 1
    step = max(1, _BLOCK // win**tail)
    axis = np.arange(lo, hi + 1, dtype=np.int64)
    tails = [axis.reshape((win,) + (1,) * (tail - 1 - a)) for a in range(tail)]

    def occ(a, b):
        return occurrence_counts(kind, n, a, b) / n

    block_sums, kept_rows = [], 0
    for head in itertools.product(axis.tolist(), repeat=free - 1 - tail):
        for start in range(0, win, step):
            cut = axis[start : start + step]
            x = [*head, cut.reshape((-1,) + (1,) * tail), *tails]
            mask = np.ones((cut.size,) + (win,) * tail, dtype=bool)
            if p is not None:  # closure: x_p = -(c.x) / c_p must be an integer in the window
                x.insert(p, 0)
                x[p], rem = np.divmod(-_form(closure, x), c_p)
                mask &= (rem == 0) & (x[p] >= lo) & (x[p] <= hi)
            forms = {i: _form(ctx.coeffs[i], x) for i in ctx.needed}
            block_sums.append(float(np.sum(_integrand_on(ctx, forms, x, lo, hi, occ, mask))))
            kept_rows += int(np.count_nonzero(mask))
    return math.fsum(block_sums) / float(n) ** (ctx.k + 1), kept_rows


# ---------------------------------------------------------------------------
# importance-sampled Monte Carlo


def _weight_on(ctx: _WordContext, u: np.ndarray, x: np.ndarray, lo: float, hi: float, work: np.ndarray,
               flags: np.ndarray) -> np.ndarray:
    """Importance weights W / (hi - lo) of one block from its uniforms ``u``,
    shape (k + 1, rows), drawing its coordinates into ``x`` of the same shape.

    x_0 is lo + (hi - lo) u_0; each generating coordinate after it is drawn, in
    walk order, from the density proportional to 1 / occ(L_{i-1}, x) on [lo, hi]
    (``matgen.occurrence_draw``), as L_{i-1} reads earlier coordinates only.  W
    is the product of those densities' normalizers Z(L_{i-1}) where every
    dependent form lies in [lo, hi], else 0.

    ``work``, six float64 rows, and ``flags``, two boolean rows, are scratch
    it overwrites; the weights are returned in work[0].
    """
    weight, z, form, product, *draw_work = work
    np.multiply(u[0], hi - lo, out=x[0])
    x[0] += lo
    weight.fill(1.0)
    for row, col in ctx.gen_pairs:
        y = _form(ctx.coeffs[row], x, out=(form, product))
        occurrence_draw(ctx.link, y, u[col], lo, hi, out=(x[col], z, draw_work, flags))
        weight *= z
    inside, below_hi = flags
    for i in ctx.dependent:
        y = _form(ctx.coeffs[i], x, out=(form, product))
        np.greater_equal(y, lo, out=inside)
        inside &= np.less_equal(y, hi, out=below_hi)
        weight *= inside  # W is finite and >= 0, so this is W or 0
    return weight


def _mc_truncated(ctx: _WordContext, eps: float, samples: int, batches: int, seed: int) -> tuple[float, float]:
    """Importance-sampled Monte Carlo of the word integral on [lo, hi]^(k+1),
    the trimmed box of ``eps`` in [0, 1): the mean of ``batches`` batch means
    of the weight W (``_weight_on`` times hi - lo), and their standard
    deviation over sqrt(batches).

    W is at most log-singular, so eps = 0 needs no trim.  Each batch is drawn
    and weighed in blocks of ``_MC_BLOCK`` rows: the generator's stream does
    not depend on how it is cut, so each block's uniforms are the rows that
    one (rows, k + 1) draw of the whole batch holds there.  The call
    allocates one scratch set of block rows (uniforms, coordinates,
    ``_weight_on``'s work and flags) and reuses it for every block of every
    batch, the last block of a batch taking its leading rows, so no block
    allocates an array.  The batch means are averaged, not their median
    taken: W is right-skewed, and the median of skewed means is biased low.
    """
    lo, hi = trimmed_interval(ctx.link, eps)
    if batches < 2:
        raise InvalidArgumentError(f"batches must be >= 2 for a standard error, got {batches}")
    per_batch = max(1, int(math.ceil(samples / batches)))
    rng = np.random.Generator(np.random.PCG64(seed))
    means = np.empty(batches)
    vals = np.empty(per_batch)
    rows = min(per_batch, _MC_BLOCK)
    draw, x = np.empty((rows, ctx.k + 1)), np.empty((ctx.k + 1, rows))
    work, flags = np.empty((6, rows)), np.empty((2, rows), dtype=bool)
    for b in range(batches):
        for start in range(0, per_batch, _MC_BLOCK):
            m = min(_MC_BLOCK, per_batch - start)
            u = rng.random(out=draw[:m]).T
            vals[start : start + m] = _weight_on(ctx, u, x[:, :m], lo, hi, work[:, :m], flags[:, :m])
        means[b] = vals.mean()
    return float(means.mean()) * (hi - lo), float(np.std(means, ddof=1) / math.sqrt(batches)) * (hi - lo)


# ---------------------------------------------------------------------------
# graded-mesh tensor quadrature


def _graded_axis(cells: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-point Gauss nodes/weights, ascending, on a mesh graded toward both
    endpoints (an odd cell count is rounded up)."""
    half = (cells + 1) // 2
    w = GRADING ** np.arange(half - 1, -1, -1, dtype=np.float64)
    w = w / (2.0 * w.sum())
    widths = np.concatenate([w, w[::-1]])
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    edges[-1] = 1.0
    h = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    off = h / (2.0 * math.sqrt(3.0))
    nodes = np.column_stack([centers - off, centers + off]).ravel()
    span = hi - lo
    return lo + span * nodes, span * np.repeat(0.5 * h, 2)


def _mesh_is_normal(grid: int, k: int) -> bool:
    """Whether a product of k occurrence fractions on the unit mesh of ``grid``
    cells stays a normal float64, so that its reciprocal, the integrand, is
    finite.  The smallest fraction is x + y at the two lowest nodes, the
    Gauss points of the outermost cell as ``_graded_axis`` places them."""
    half = (grid + 1) // 2
    cell = GRADING ** (half - 1) * (1.0 - GRADING) / (2.0 * (1.0 - GRADING**half))
    return (cell * (1.0 - 1.0 / math.sqrt(3.0))) ** k >= np.finfo(np.float64).tiny


def _quadrature_value(ctx: _WordContext, eps: float, grid: int) -> float:
    lo, hi = trimmed_interval(ctx.link, eps)
    nodes, weights = _graded_axis(grid, lo, hi)
    # each first-axis node meets an open mesh of the other k axes, on which the
    # forms are summed by broadcasting, as the oracle sums its index axes
    rest = np.ix_(*[nodes] * ctx.k)
    rest_w = functools.reduce(np.multiply.outer, [weights] * ctx.k).ravel()
    occ = functools.partial(occurrence_fraction, ctx.link)
    total = 0.0
    for x0, w0 in zip(nodes, weights):
        x = [x0, *rest]
        forms = {i: _form(ctx.coeffs[i], x) for i in ctx.needed}
        total += w0 * float(np.dot(rest_w, _integrand_on(ctx, forms, x, lo, hi, occ).ravel()))
    return total


def _quadrature_estimate(ctx: _WordContext, eps: float, grid: int) -> tuple[float, float]:
    """Quadrature value on ``grid`` cells, with |fine - coarse| (half grid) as its error."""
    value = _quadrature_value(ctx, eps, grid)
    coarse = _quadrature_value(ctx, eps, grid // 2)
    return value, abs(value - coarse)


# ---------------------------------------------------------------------------
# public per-word estimates


def _plan(k: int, method: str, samples: int, grid: int, methods=LIMIT_METHODS) -> None:
    """Check an order-2k request before any work.

    Monte Carlo stops when one batch would exceed ``INTEGRAND_BUDGET``: its
    ceil(samples / ``BATCHES``) weights, one float64 per row, and at most
    2k + 11 more per row of one block of ``_MC_BLOCK`` rows (the call's
    scratch: k + 1 rows of uniforms, k + 1 coordinate rows, six work rows and
    two boolean rows, plus numpy's one-row buffer that casts the
    dependent-form flags; worst tracemalloc peaks of one ``_mc_truncated``
    call over the words, a sample of them at k >= 5, with batches of 1,000
    and 50,000 rows, less the one per batch row, were 10.8, 13.8, 15.8,
    17.8, 19.9, 22.0, 24.0 float64 per block row at k = 1..7).
    Quadrature stops above ``QUADRATURE_MAX_K``, when one node's slice of the
    grid, (2 cells)^k rows of at most ``QUADRATURE_ROW_FLOATS`` float64 values
    (worst tracemalloc peaks per row over the words at k = 1, 2, 3, with 10^4
    rows or more per slice: 6.8, 5.9, 5.4 Toeplitz; 6.8, 6.9, 6.5 Hankel),
    would exceed the same budget, and at a grid so fine that the mesh's
    outermost cells leave the normal float64 range (above 3958 at k = 1 and
    1972 at k = 2), where the Hankel integrand overflows and the value reads
    NaN.
    """
    if method not in methods:
        raise InvalidArgumentError(f"unknown method {method!r}: use {' or '.join(methods)}")
    if samples < 1:
        raise InvalidArgumentError(f"samples must be >= 1, got {samples}")
    if grid < MIN_GRID:
        raise InvalidArgumentError(f"grid must be >= {MIN_GRID}, got {grid}")
    if method == "quadrature":
        if k > QUADRATURE_MAX_K:
            raise ResourceLimitError(f"quadrature supports k <= {QUADRATURE_MAX_K}, got k={k}")
        cells = grid + grid % 2  # as _graded_axis rounds it
        need, what = 8 * QUADRATURE_ROW_FLOATS * (2 * cells) ** k, f"quadrature at k={k}, grid={grid}"
        unit = "node"
    else:
        rows = -(-samples // BATCHES)
        need, what = 8 * (rows + (2 * k + 11) * _MC_BLOCK), f"Monte Carlo at k={k} with {samples} samples"
        unit = "batch"
    if need > INTEGRAND_BUDGET:
        raise ResourceLimitError(
            f"{what} needs about {need / 2**30:.3g} GiB per {unit}, over the {INTEGRAND_BUDGET / 2**30:g} GiB budget"
        )
    if method == "quadrature" and not _mesh_is_normal(grid, k):
        finest, refused = MIN_GRID, grid  # bisect for the finest admitted grid
        while refused - finest > 1:
            mid = (finest + refused) // 2
            finest, refused = (mid, refused) if _mesh_is_normal(mid, k) else (finest, mid)
        raise InvalidArgumentError(
            f"grid must be <= {finest} for quadrature at k={k}, where the graded mesh's outermost cells "
            f"stay normal float64 numbers, got {grid}"
        )


def _analytic_zero(kind: MatrixKind, word: Word | None = None, order: int | None = None) -> MomentEstimate | None:
    """The exact zero of a moment of odd ``order`` or of a non-symmetric Hankel ``word``, else None."""
    if order is not None and order % 2 == 1:
        params = {"order": order, "reason": "odd moments vanish"}
    elif word is not None and kind.link is MatrixKind.H and not is_symmetric(word):
        params = {"reason": "non-symmetric Hankel word"}
    else:
        return None
    return MomentEstimate(0.0, 0.0, Method.ANALYTIC, {"kind": kind.link.value, **params}, word)


def truncated_word_moment(
    word: Word,
    kind: MatrixKind,
    eps: float,
    method: str = "mc",
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    grid: int = DEFAULT_GRID,
) -> MomentEstimate:
    """Word contribution to the eps-trimmed moment (bounded integrand).

    On the trimmed box every occurrence fraction is at least eps, so the
    integrand is bounded by eps^-k; ``mc`` is the importance-sampled Monte
    Carlo of ``limit_word_moment``, which also covers eps = 0.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidArgumentError("eps must lie in (0, 1)")
    _plan(word.k, method, samples, grid, methods=("mc", "quadrature"))
    if (zero := _analytic_zero(kind, word)) is not None:
        return zero
    ctx = _WordContext(word, kind)
    if method == "mc":
        value, se = _mc_truncated(ctx, eps, samples, BATCHES, seed)
        params = {"samples": samples, "batches": BATCHES, "seed": seed}
    else:
        value, se = _quadrature_estimate(ctx, eps, grid)
        params = {"grid": grid, "grading": GRADING}
    method = Method.MC_LADDER if method == "mc" else Method.QUADRATURE
    return MomentEstimate(
        value=value, std_error=se, method=method, params={"kind": ctx.link.value, "eps": eps, **params}, word=word
    )


def limit_word_moment(
    word: Word,
    kind: MatrixKind,
    method: str = "mc-ladder",
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    grid: int = DEFAULT_GRID,
) -> MomentEstimate:
    """Word contribution to the limiting moment (eps = 0): ``mc-ladder`` is one
    importance-sampled Monte Carlo estimate of ``samples`` draws, ``quadrature``
    the graded mesh of ``grid`` cells per axis."""
    _plan(word.k, method, samples, grid)
    if (zero := _analytic_zero(kind, word)) is not None:
        return zero
    ctx = _WordContext(word, kind)
    if method == "quadrature":
        value, se = _quadrature_estimate(ctx, 0.0, grid)
        params = {"grid": grid, "grading": GRADING}
    else:
        value, se = _mc_truncated(ctx, 0.0, samples, BATCHES, seed)
        params = {"samples": samples, "batches": BATCHES, "seed": seed}
    return MomentEstimate(
        value=value, std_error=se, method=Method(method), params={"kind": ctx.link.value, **params}, word=word
    )


# ---------------------------------------------------------------------------
# aggregated moments


def _word_estimate(
    words: list[Word], kind: MatrixKind, method: str, samples: int, seed: int, grid: int, i: int,
) -> MomentEstimate:
    return limit_word_moment(words[i], kind, method, samples=samples, seed=derive_seed(seed, i), grid=grid)


def limit_moment(
    k: int,
    kind: MatrixKind,
    method: str = "mc-ladder",
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    grid: int = DEFAULT_GRID,
    threads: int | None = 1,
) -> MomentEstimate:
    """Order-2k limiting moment: sum of word contributions with error bars.

    The per-word breakdown is recorded in ``params['per_word']``.  Words are
    independent tasks with derived seeds (``samples`` draws each for
    ``mc-ladder``), so the result does not depend on ``threads``.
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    _plan(k, method, samples, grid)
    words = enumerate_pair_matched_words(k)
    estimate = functools.partial(_word_estimate, words, kind, method, samples, seed, grid)
    estimates = parallel_map(estimate, range(len(words)), workers=threads)
    value = sum(e.value for e in estimates)
    se = math.sqrt(sum(e.std_error**2 for e in estimates))
    per_word = [
        {"word": w.letters, "symmetric": is_symmetric(w), "value": e.value, "std_error": e.std_error,
         "method": e.method.value}
        for w, e in zip(words, estimates)
    ]
    params = {
        "k": k,
        "kind": kind.link.value,
        "words": len(words),
        "per_word": per_word,
        "samples": samples,
        "seed": seed,
    }
    if method == "quadrature":
        params["grid"] = grid
        params["grading"] = GRADING
    return MomentEstimate(
        value=value,
        std_error=se,
        method=Method(method),
        params=params,
        word=None,
    )


def limit_moment_of_order(
    order: int,
    kind: MatrixKind,
    method: str = "mc-ladder",
    **kwargs,
) -> MomentEstimate:
    """Limiting ESD moment of any order: odd orders vanish identically."""
    if order < 1:
        raise InvalidArgumentError("order must be >= 1")
    if (zero := _analytic_zero(kind, order=order)) is not None:
        return zero
    est = limit_moment(order // 2, kind, method, **kwargs)
    return replace(est, params={**est.params, "order": order})


def truncated_moment_bound(k: int, eps: float) -> float:
    """Uniform bound (2k)!/(k! 2^k) * eps^-k on the eps-trimmed order-2k moment."""
    if k < 1 or not 0.0 < eps < 1.0:
        raise InvalidArgumentError("need k >= 1 and eps in (0, 1)")
    pairings = math.factorial(2 * k) // (math.factorial(k) * 2**k)
    return pairings * eps ** (-k)


# ---------------------------------------------------------------------------
# empirical-vs-limit comparison report


@dataclass(frozen=True)
class ComparisonRow:
    order: int
    empirical: float
    empirical_se: float
    limit: float
    limit_se: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    kind: str
    n: int
    reps: int
    dist: str
    seed: int
    rows: list[ComparisonRow]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def compare_empirical_limit(
    kind: MatrixKind,
    n: int,
    reps: int,
    k_max: int,
    seed: int,
    dist: Distribution = Distribution.STANDARD_NORMAL,
    *,
    method: str = "mc-ladder",
    samples: int = COMPARE_SAMPLES,
    threads: int | None = None,
) -> ComparisonReport:
    """Averaged empirical ESD moments vs limiting moments, orders 1..2*k_max.

    Even orders are compared relative to the limit value (TOL_EVEN); odd
    orders against an absolute noise threshold (TOL_ODD), the limit being
    exactly zero.
    """
    if kind not in (MatrixKind.BT, MatrixKind.BH):
        raise InvalidArgumentError("empirical-vs-limit comparison targets balanced kinds (bt, bh)")
    if reps < 2:
        raise InvalidArgumentError("need reps >= 2 for standard errors")
    _plan(k_max, method, samples, DEFAULT_GRID)
    if k_max > MAX_K:
        raise ResourceLimitError(f"orders up to {2 * k_max} need words of k={k_max}, over the enumeration cap {MAX_K}")
    spectra = simulate_spectra(kind, dist, n, reps, seed, threads=threads)
    rows = []
    for order in range(1, 2 * k_max + 1):
        values = np.array([moment(s, order) for s in spectra])
        emp = float(values.mean())
        emp_se = float(values.std(ddof=1) / math.sqrt(reps))
        lim = limit_moment_of_order(order, kind, method, samples=samples, seed=derive_seed(seed, 10_000 + order))
        if order % 2 == 1:
            tol = max(TOL_ODD, 4.0 * emp_se)
            passed = bool(abs(emp) <= tol)
        else:
            tol = max(TOL_EVEN * abs(lim.value), 4.0 * math.hypot(emp_se, lim.std_error))
            passed = bool(abs(emp - lim.value) <= tol)
        rows.append(
            ComparisonRow(
                order=order,
                empirical=emp,
                empirical_se=emp_se,
                limit=lim.value,
                limit_se=lim.std_error,
                tolerance=tol,
                passed=passed,
            )
        )
    return ComparisonReport(
        kind=kind.value, n=n, reps=reps, dist=dist.value, seed=seed, rows=rows
    )
