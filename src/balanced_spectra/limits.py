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
  where the integrand is bounded by eps^-k.
* ``limit_word_moment`` -- the eps = 0 value, which ``limit_moment`` sums
  over the words, integrated once per rotation/reflection class.

Both integrate one importance weight with one kernel (``_weight_on``): the
generating coordinates after x_0 are drawn from the densities of their own
occurrence factors, so what is left to average is at most log-singular and
has a finite variance at eps = 0 (importance sampling: Owen, *Monte Carlo
theory, methods and examples*, 2013, ch. 9).  Its uniforms are the
generator's stream (Monte Carlo: method ``mc-ladder``, or ``mc`` on a
trimmed box; ``_batch_blocks``) or the points of a randomly shifted rank-1
lattice (method ``quadrature``: Sloan & Joe, *Lattice Methods for Multiple
Integration*, 1994; ``_lattice``).  Each call keeps one scratch set sized to
a block and sums a batch through one chunk of fixed size (``_mc_truncated``),
so its memory does not grow with the samples, and the module keeps no state
but its cache of lattice vectors: calls may run side by side in threads.
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
    MatrixKind, occurrence_counts, occurrence_draw, occurrence_integral, submatrix_window, trimmed_interval,
)
from .parallel import parallel_map
from .spectra import moment
from .words import (
    MAX_K, Word, dihedral_representative, enumerate_pair_matched_words, form_matrix, generating_vertices, is_symmetric,
    linear_forms,
)

DEFAULT_SAMPLES = 2_000_000
COMPARE_SAMPLES = 200_000  # points per word of compare_empirical_limit's limits
BATCHES = 16  # batches (lattice shifts) per estimate, whose spread gives its error bar
ROUNDING_BAR = 3.0  # the least error bar of a word's estimate, in float64 eps |value| (_word_estimate)
LATTICE_WEIGHT = 0.5  # product weights gamma_j = 0.5^j of the lattice construction's coordinates
TOL_EVEN = 0.05  # relative tolerance of compare_empirical_limit, even orders
TOL_ODD = 0.1  # absolute tolerance of compare_empirical_limit, odd orders
LIMIT_METHODS = ("mc-ladder", "quadrature")
INTEGRAND_BUDGET = 2**30  # bytes: the working set of one lattice batch
LATTICE_POINT_FLOATS = 13  # float64 values per lattice point, an upper bound on the construction's peak
ENUMERATION_BUDGET = 10**9
_BLOCK = 1 << 16  # rows per oracle block: its int64 forms stay cache-sized
_MC_BLOCK = 8191  # rows per Monte Carlo block: its coordinates and forms stay in L2
_SUM_CHUNK = 8192  # values per subtree of a batch's pairwise sum (_tree_sum): at least numpy's 128-value leaf


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

    __slots__ = ("word", "link", "coeffs", "dependent", "gen_pairs", "needed", "k", "steps", "checks", "drawn")

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
        # The weight kernel's plan (``_weight_on``), steps (row, col, mode,
        # covered).  Every coordinate it makes lies in [lo, hi], so a
        # dependent form that is one coordinate is not checked.  A step draws
        # its coordinate ("draw") when a later step's form reads it, or a
        # checked form that also reads a coordinate not yet made.  When only
        # checked forms read it, and every other coordinate they read is made,
        # it is integrated out ("cond"): those forms leave ``checks`` and go to
        # ``covered`` as (coefficient of the coordinate, the rest of the form).
        # When nothing reads it, the step takes the normalizer alone: the
        # previous step's ("same") when its form is the previous step's and
        # that step was not "cond", whose integral overwrites the normalizer,
        # else its own ("z").
        self.checks = [i for i in self.dependent if sorted(self.coeffs[i]) != [0] * self.k + [1]]
        self.steps = []
        for j, (row, col) in enumerate(self.gen_pairs):  # col = j + 1: the coordinates are made in order
            readers = [i for i in self.checks if self.coeffs[i, col]]
            later = [r for r, _ in self.gen_pairs[j + 1 :]]
            covered = ()
            if np.any(self.coeffs[later, col]) or np.any(self.coeffs[readers, col + 1 :]):
                mode = "draw"
            elif readers:
                mode = "cond"
                covered = tuple((int(self.coeffs[i, col]), np.where(np.arange(self.k + 1) == col, 0, self.coeffs[i]))
                                for i in readers)
                self.checks = [i for i in self.checks if i not in readers]
            elif j and self.steps[-1][2] != "cond" and np.array_equal(self.coeffs[row], self.coeffs[self.steps[-1][0]]):
                mode = "same"
            else:
                mode = "z"
            self.steps.append((row, col, mode, covered))
        self.drawn = [col for _, col, mode, _ in self.steps if mode == "draw"]


def _integrand_on(ctx: _WordContext, forms, x, lo, hi, occ, mask: np.ndarray) -> np.ndarray:
    """Indicator-masked integrand on one block of the oracle: 1 / prod
    occ(L_{i-1}, x_i) over the generating positions i > 0, left to right, where
    every dependent form lies in [lo, hi], else 0.

    ``forms[i]`` holds L_i for the rows in ``ctx.needed`` and ``x[c]``
    coordinate c, all broadcasting to the block's shape; ``occ`` is the
    occurrence rule, a count over n.  ``mask``, a boolean array of the block's
    shape, is ANDed in place with the window test, so the caller can read which
    rows counted.
    """
    shape = mask.shape
    for i in ctx.dependent:
        mask &= (forms[i] >= lo) & (forms[i] <= hi)
    (row, col), *rest = ctx.gen_pairs
    denom = occ(forms[row], x[col])  # occ returns a fresh array, so the product can start in it
    if np.shape(denom) != shape:  # a partial broadcast of the index axes
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
# the importance weight on Monte Carlo or lattice points


def _smooth(v: np.ndarray, weight: np.ndarray, t1: np.ndarray, t2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """phi(v) = v^2 (3 - 2v) into ``out``, which float rounding keeps in
    [0, 1], and ``weight`` times phi'(v) = 6 v (1 - v) in place; t1 and t2
    are scratch, and none of the four may share memory with v."""
    np.multiply(v, 6.0, out=t1)
    t1 *= np.subtract(1.0, v, out=t2)
    weight *= t1
    np.multiply(v, -2.0, out=t2)
    t2 += 3.0
    np.multiply(v, v, out=out)
    out *= t2
    return out


def _weight_on(ctx: _WordContext, u: np.ndarray, x: np.ndarray, lo: float, hi: float, work: np.ndarray,
               flags: np.ndarray) -> np.ndarray:
    """Importance weights W / (hi - lo) of one block from its uniforms u,
    shape (k + 1, rows), row c coordinate c's, drawing its coordinates into
    ``x`` of the same shape.

    Every uniform the kernel reads goes through phi(v) = v^2 (3 - 2v), and
    the weight takes phi'(v) = 6 v (1 - v), which vanishes at both ends,
    where the factors are log-singular or kinked: a polynomial periodizing
    transform of the Korobov type (Sloan & Joe, 1994, ch. 2), an exact change
    of variables on [0, 1], the same for both point sets.  x_0 is
    lo + (hi - lo) phi(u_0).  Each generating coordinate after it is drawn,
    in walk order, at phi(u_i) from the density proportional to
    1 / occ(L_{i-1}, x) on [lo, hi] (``matgen.occurrence_draw``), as L_{i-1}
    reads earlier coordinates only.  W is the product of the phi' factors
    and of those densities' normalizers Z(L_{i-1}) where every dependent
    form lies in [lo, hi], else 0.  The steps follow ``ctx.steps``:
    a coordinate no form reads is not drawn, and only its normalizer is
    taken.  A coordinate only checked forms read, once the other coordinates
    they read are made, is integrated out (Owen, ch. 8-10, conditional Monte
    Carlo): those forms are linear in it, so they lie in [lo, hi] on one
    interval [a, b], and the step's factor is the density's mass there times
    Z, the integral of 1 / occ(L_{i-1}, x) over [a, b], a difference of two
    logarithms (``matgen.occurrence_integral``), in place of Z and the
    forms' indicator.

    A word whose steps draw nothing is aabb.. of its k, weight phi'(u_0)
    Z(x_0)^k, Z the normalizer of the form x_0: log-singular at both ends of
    [lo, hi] and symmetric about its middle.  Its u_0 is folded, w = min(u_0,
    1 - u_0), and smoothed once more, to phi(w), the weight taking phi'(w)
    after every step.  By the symmetry the fold keeps the weight, and it
    keeps x_0 off hi, where an x_0 within half an ulp would round to hi and
    lose its weight.  phi'(phi(w)) phi'(w) vanishes like w^3 at the ends, so
    the integrand is smooth and periodic: the error of the Monte Carlo's
    antithetic pairs (``_batch_blocks``), which grows with its second
    derivative, spreads over all the pairs instead of the few at the ends,
    and the lattice's shifted grid becomes a periodic trapezoid rule, below
    float64 rounding at 2,000,000 points.  No step of such a word makes or
    reads a row of ``x`` after x_0, so x[1] holds phi'(w); otherwise the row
    of a coordinate not drawn is left as it was.

    ``work``, six float64 rows, and ``flags``, two boolean rows, are scratch
    it overwrites; the weights are returned in work[0].
    """
    weight, z, form, product, *draw_work = work
    root = u[0]
    if not ctx.drawn:
        fold_factor = x[1]
        fold_factor.fill(1.0)  # 1.0 times phi'(w) is phi'(w) exactly
        root = _smooth(np.minimum(root, np.subtract(1.0, root, out=z), out=form), fold_factor, z, product,
                       out=draw_work[0])
    weight.fill(1.0)  # 1.0 times phi'(u_0) is phi'(u_0) exactly
    np.multiply(_smooth(root, weight, z, form, out=product), hi - lo, out=x[0])
    x[0] += lo  # lo + (hi - lo) t, t in [0, 1], rounds into [lo, hi] on both patterns' intervals
    for row, col, mode, covered in ctx.steps:
        if mode == "same":  # z still holds the previous step's normalizer
            weight *= z
            continue
        y = _form(ctx.coeffs[row], x, out=(form, product))
        if mode == "cond":
            a, b = draw_work  # x_col's interval, where every covered form lies in [lo, hi]
            a.fill(lo)
            b.fill(hi)
            for coeff, rest in covered:  # lo <= coeff x_col + s <= hi
                s = _form(rest, x, out=(z, product))
                lower, upper = (lo, hi) if coeff > 0 else (hi, lo)
                for end, bound, tighten in ((a, lower, np.maximum), (b, upper, np.minimum)):
                    np.subtract(bound, s, out=product)
                    if coeff != 1:
                        product /= coeff
                    tighten(end, product, out=end)
            occurrence_integral(ctx.link, y, draw_work, lo, hi, out=(z, product, flags))
        else:  # y is in form or a row of x, so product is free for phi(u_col)
            t = None if mode == "z" else _smooth(u[col], weight, z, draw_work[0], out=product)
            occurrence_draw(ctx.link, y, t, lo, hi, out=(x[col], z, draw_work, flags))
        weight *= z
    outside, above = flags
    for i in ctx.checks:
        y = _form(ctx.coeffs[i], x, out=(form, product))
        np.less(y, lo, out=outside)
        outside |= np.greater(y, hi, out=above)
        np.copyto(weight, 0.0, where=outside)
    if not ctx.drawn:
        weight *= fold_factor
    return weight


def _lattice_size(samples: int, batches: int) -> int:
    """Points per shift of the lattice rule: the smallest odd prime >= ceil(samples / batches)."""
    n = max(3, -(-samples // batches)) | 1
    while any(n % p == 0 for p in range(3, math.isqrt(n) + 1, 2)):
        n += 2
    return n


@functools.lru_cache(maxsize=32)
def _lattice(n: int, dim: int) -> np.ndarray:
    """Read-only generating vector z, z[0] = 1, of an n-point rank-1 lattice
    rule in ``dim`` dimensions, n an odd prime, by the fast component-by-
    component construction (Nuyens & Cools, Math. Comp. 75, 2006): each unit
    z[j] minimizes the shift-averaged worst-case error for the kernel
    prod_j (1 + gamma_j B2({x_j})), B2(x) = x^2 - x + 1/6 and gamma_j =
    ``LATTICE_WEIGHT``^j, over the units in the order g^t of a primitive root
    g, up to sign as B2 is symmetric, in one FFT correlation per coordinate."""
    divisors = {d for p in range(2, math.isqrt(n) + 1) if (n - 1) % p == 0 for d in (p, (n - 1) // p)}
    g = next(g for g in range(2, n) if all(pow(g, (n - 1) // d, n) != 1 for d in divisors))
    half = (n - 1) // 2
    perm = np.ones(half, dtype=np.int64)  # g^t mod n, the table doubled in place
    done = 1
    while done < half:
        step = min(done, half - done)
        np.remainder(perm[:step] * pow(g, done, n), n, out=perm[done : done + step])
        done += step
    np.minimum(perm, n - perm, out=perm)
    psi = perm / n
    psi *= psi - 1.0
    psi += 1.0 / 6.0
    # B2 repeated twice, zero-padded to a power of two, so the lags below half do not wrap
    size = 1 << (2 * half - 1).bit_length()
    spectrum = np.fft.rfft(np.concatenate([psi, psi]), size)
    z, product, w = np.ones(dim, dtype=np.int64), np.ones(half), 0
    for j in range(1, dim):
        product *= 1.0 + LATTICE_WEIGHT**j * np.roll(psi, -w)  # B2({g^(t + w) / n}): z[j - 1] = perm[w]
        correlation = np.fft.rfft(product, size)
        np.conjugate(correlation, out=correlation)
        correlation *= spectrum
        w = int(np.argmin(np.fft.irfft(correlation, size)[:half]))
        z[j] = perm[w]
    z.flags.writeable = False
    return z


def _largest_quotient(z: int, n: int) -> int:
    """The largest partial quotient of the continued fraction of z / n, 0 for z = 0."""
    largest = 0
    while z:
        q, r = divmod(n, z)
        largest, n, z = max(largest, q), z, r
    return largest


@functools.lru_cache(maxsize=32)
def _batch_lattice(n: int, d: int) -> tuple[int, ...]:
    """Multipliers z_1 .. z_d of the Monte Carlo's rank-1 lattice over a batch
    of n rows, one per drawn coordinate: z_j is the unit mod n within 200 of
    n frac(g^-j) whose z_j / n has the smallest largest partial quotient, the
    nearest to the target on a tie, with g > 1 the root of g^(d + 1) = g + 1.
    At d = 1, g is the golden ratio and z_1 a Fibonacci-type multiplier, the
    optimal two-dimensional good lattice point (Sloan & Joe, 1994); a small
    largest quotient keeps the pairs (i, i z_j mod n) evenly spread.  g is
    found by bisection and its powers by products and quotients, so the
    vector is the same on every IEEE machine."""
    low, high = 1.0, 2.0
    for _ in range(64):
        g = (low + high) / 2.0
        low, high = (g, high) if math.prod([g] * (d + 1)) < g + 1.0 else (low, g)
    z, power = [], 1.0
    for _ in range(d):
        power /= g
        target = n * (power % 1.0)
        units = (c for c in range(max(0, math.ceil(target - 200.0)), min(n, math.floor(target + 200.0) + 1))
                 if math.gcd(c, n) == 1)
        z.append(min(units, key=lambda c: (_largest_quotient(c, n), abs(c - target), c)))
    return tuple(z)


def _lattice_blocks(n: int, shifts: np.ndarray):
    """The block source of ``_mc_truncated``'s lattice: (b, start, m) -> the
    points frac(i z / n + shifts[b]), rows i = start .. start + m - 1, as one
    base row frac(r z / n), r < m, plus the block's offset, in one buffer."""
    z = _lattice(n, shifts.shape[1])
    base = np.multiply.outer(z, np.arange(min(n, _MC_BLOCK))) % n / n
    offsets = np.multiply.outer(np.arange(0, n, _MC_BLOCK), z) % n / n + shifts[:, None, :]
    offsets %= 1.0  # (batch, block, coordinate)
    points, wrap = np.empty_like(base), np.empty(base.shape[1], dtype=bool)

    def uniforms(b: int, start: int, m: int) -> np.ndarray:
        np.add(base[:, :m], offsets[b, start // _MC_BLOCK, :, None], out=points[:, :m])
        for row in points[:, :m]:
            row -= np.greater_equal(row, 1.0, out=wrap[:m])  # frac of a sum in [0, 2)
        return points[:, :m]

    return uniforms


def _batch_blocks(rng: np.random.Generator, n: int, k: int, drawn: list, batches: int, t: np.ndarray,
                  wrap: np.ndarray):
    """The block source of ``_mc_truncated``'s Monte Carlo, n rows a batch:
    (b, start, m) -> the uniforms u, shape (k + 1, m), of rows i = start ..
    start + m - 1 of batch b.  Rows of u that the word's steps do not read
    are not written.

    A word whose steps draw d = len(drawn) >= 1 coordinates draws 1 + d
    uniforms of ``rng`` a row, U_0 and then U_j for each coordinate j in
    ``drawn``.  u_0 = (i + U_0) / n, so x_0 is stratified over the batch
    (Owen, ch. 8), and u_j = ((i z_j + c_j) mod n + U_j) / n, with z =
    ``_batch_lattice(n, d)`` and c_j the batch's integer shift, drawn here
    before any point, uniformly from 0 .. n - 1: a Latin hypercube whose
    permutations are one rank-1 lattice over the batch (Tang, JASA 88,
    1993).  The residues are a table of r z_j mod n, r below a block, made
    once, plus each block's offset (start z_j + c_j) mod n in Python ints:
    both are below n, so their sum is exact and one subtraction wraps it.

    A word that draws nothing (``_weight_on`` folds its u_0) draws one
    uniform U a pair of rows: rows 2r and 2r + 1 take u_0 = (2r + U) / n and
    (2r + 2 - U) / n, reflected about the boundary of their strata, so the
    pair's error cancels to first order (antithetic pairs: Haber, Math.
    Comp. 21, 1967), and the last row of an odd batch takes (i + U) / n.  A
    block that starts on an odd row takes U from the block before, so the
    floats do not depend on how a batch is cut, in order, into blocks.  Each
    row is still in its stratum and uniform, and the batches are
    independent.

    t and wrap, a float64 and a boolean row of a block, are scratch."""
    d = len(drawn)
    z = _batch_lattice(n, d)
    shifts = rng.integers(n, size=(batches, d))
    rows = min(n, _MC_BLOCK)
    stream, u = np.empty(rows * (1 + d) if d else (rows + 1) // 2), np.empty((k + 1, rows))
    index = np.arange(rows, dtype=float)  # start + r at the block starting at start
    table = np.empty((d, rows))  # row by row: a broadcast product would take a temporary buffer
    for row, z_j in zip(table, z):
        np.multiply(index, z_j, out=row)  # r z_j < 2^40: exact
    table %= n
    partner = 0.0  # U of the last row of the block before, when that row is even

    def uniforms(b: int, start: int, m: int) -> np.ndarray:
        nonlocal partner
        np.add(index, start - index[0], out=index)  # integers, so exact
        v = u[0, :m]
        if not d:
            odd = start % 2  # 1 when the block starts on an odd row: the index of its first even row
            pairs = rng.random(out=stream[: (m - odd + 1) // 2])  # one U a row 2r of the block
            if odd:
                v[0] = 1.0 - partner
            v[odd::2] = pairs
            np.subtract(1.0, pairs[: (m - odd) // 2], out=v[odd + 1 :: 2])  # 1 - U exactly: U is a multiple of 2^-53
            if len(pairs):
                partner = float(pairs[-1])
            v += index[:m]
            v /= n
            return u[:, :m]
        draws = rng.random(out=stream[: m * (1 + d)].reshape(m, 1 + d)).T
        np.add(index[:m], draws[0], out=v)
        v /= n
        residue, above = t[:m], wrap[:m]
        for col, jitter, base, z_j, c_j in zip(drawn, draws[1:], table, z, shifts[b].tolist()):
            np.add(base[:m], (start * z_j + c_j) % n, out=residue)
            np.subtract(residue, n, out=residue, where=np.greater_equal(residue, n, out=above))
            residue += jitter
            np.divide(residue, n, out=u[col, :m])
        return u[:, :m]

    return uniforms


def _tree_sum(n: int, blocks, chunk: np.ndarray):
    """``np.add.reduce`` of the first n values the arrays ``blocks`` yield, float
    for float, holding at most ``len(chunk)`` >= 128 at once (``_mc_truncated``)."""
    rest = chunk[:0]  # what is left of the last block

    def walk(n: int):
        nonlocal rest
        if n > len(chunk):
            half = n // 2 - n // 2 % 8
            return walk(half) + walk(n - half)
        done = 0
        while done < n:
            if not len(rest):
                rest = next(blocks)
            m = min(n - done, len(rest))
            chunk[done : done + m] = rest[:m]
            rest, done = rest[m:], done + m
        return np.add.reduce(chunk[:n])

    return float(walk(n))


def _mc_truncated(ctx: _WordContext, eps: float, samples: int, batches: int, seed: int,
                  lattice: bool = False) -> tuple[float, float]:
    """Importance-sampled estimate of the word integral on [lo, hi]^(k+1), the
    trimmed box of ``eps`` in [0, 1): the mean of ``batches`` batch means of
    the weight W (``_weight_on`` times hi - lo), and their standard deviation
    over sqrt(batches).  W is at most log-singular, so eps = 0 needs no trim.

    A Monte Carlo batch is n = ceil(samples / batches) rows of the seed's
    stream (``_batch_blocks``); with ``lattice`` it is the ``_lattice_size``
    points of a rank-1 lattice under one uniform shift drawn from that
    stream, z[0] = 1 making its u_0 a shifted grid.  Either batch mean is
    unbiased, and only the source of the uniforms differs.  A batch is made in
    blocks of ``_MC_BLOCK`` rows, its floats the same however it is cut.

    A batch mean is the float numpy's ``np.add.reduce`` makes of the n
    weights as one contiguous array, over n.  That sum is pairwise: under 8
    values in order, up to 128 in eight interleaved partial sums, and a
    longer array split after its first n // 2 - (n // 2) % 8 values, each
    half summed alike.  ``_tree_sum`` walks that tree in order and sums each
    subtree of at most ``_SUM_CHUNK`` values with ``np.add.reduce`` in one
    chunk, filled from the blocks, so no array grows with n: the call's
    scratch is that chunk and one set of block rows, reused for every block.
    The batch means are averaged, not their median taken: W is right-skewed,
    and the median of skewed means is biased low.
    """
    lo, hi = trimmed_interval(ctx.link, eps)
    if batches < 2:
        raise InvalidArgumentError(f"batches must be >= 2 for a standard error, got {batches}")
    rng = np.random.Generator(np.random.PCG64(seed))
    per_batch = _lattice_size(samples, batches) if lattice else max(1, int(math.ceil(samples / batches)))
    rows = min(per_batch, _MC_BLOCK)
    means = np.empty(batches)
    chunk = np.empty(min(per_batch, _SUM_CHUNK))
    x = np.empty((ctx.k + 1, rows))
    work, flags = np.empty((6, rows)), np.empty((2, rows), dtype=bool)
    if lattice:
        uniforms = _lattice_blocks(per_batch, rng.random((batches, ctx.k + 1)))
    else:  # work[-1] and flags[0] are free until the weight is made
        uniforms = _batch_blocks(rng, per_batch, ctx.k, ctx.drawn, batches, work[-1], flags[0])

    def blocks(b: int):
        for start in range(0, per_batch, _MC_BLOCK):
            m = min(_MC_BLOCK, per_batch - start)
            yield _weight_on(ctx, uniforms(b, start, m), x[:, :m], lo, hi, work[:, :m], flags[:, :m])

    for b in range(batches):
        means[b] = _tree_sum(per_batch, blocks(b), chunk) / per_batch
    return float(means.mean()) * (hi - lo), float(np.std(means, ddof=1) / math.sqrt(batches)) * (hi - lo)


# ---------------------------------------------------------------------------
# public per-word estimates


def _plan(k: int, method: str, samples: int, methods=LIMIT_METHODS, members: int = 1) -> None:
    """Check an order-2k request of ``samples`` points per word before any
    work, for a task that integrates ``members`` words at once on
    samples x members points (``limit_moment``'s largest class).

    A Monte Carlo batch of n = ceil(points / ``BATCHES``) rows keeps nothing
    that grows with n (``_mc_truncated``); it stops where its residue table's
    products r z_j, r < min(n, ``_MC_BLOCK``) and z_j < n, could pass 2^53
    (``_batch_blocks``).  A lattice batch of n = ``_lattice_size`` points
    stops over ``INTEGRAND_BUDGET``: ``LATTICE_POINT_FLOATS`` per point to
    build its vector, and 3k + 12 per block row (CHANGES.md gives the
    measured peaks); n^2 < 2^63 keeps its residues' products in int64.
    """
    if method not in methods:
        raise InvalidArgumentError(f"unknown method {method!r}: use {' or '.join(methods)}")
    if samples < 1:
        raise InvalidArgumentError(f"samples must be >= 1, got {samples}")
    points = samples * members
    rows = -(-points // BATCHES)
    per_class = f" per word ({points} for a class of {members} words)" if members > 1 else ""
    if method != "quadrature":
        if rows * min(rows, _MC_BLOCK) > 2**53:
            raise ResourceLimitError(
                f"Monte Carlo at k={k} with {samples} samples{per_class} needs {rows} rows per batch, over the "
                f"{2**53 // _MC_BLOCK} at which its batch lattice's residues stay exact in float64"
            )
        return
    if 8 * LATTICE_POINT_FLOATS * rows <= INTEGRAND_BUDGET:  # the prime is sought only for a size that may fit
        rows = _lattice_size(points, BATCHES)
    need = 8 * (LATTICE_POINT_FLOATS * rows + (3 * k + 12) * _MC_BLOCK)
    if need > INTEGRAND_BUDGET:
        raise ResourceLimitError(
            f"quadrature at k={k} with {samples} samples{per_class} needs about {need / 2**30:.3g} GiB per batch, "
            f"over the {INTEGRAND_BUDGET / 2**30:g} GiB budget"
        )
    if rows * rows >= 2**63:
        raise ResourceLimitError(f"a lattice of {rows} points overflows int64 products of its residues")


def _analytic_zero(kind: MatrixKind, word: Word | None = None, order: int | None = None) -> MomentEstimate | None:
    """The exact zero of a moment of odd ``order`` or of a non-symmetric Hankel ``word``, else None."""
    if order is not None and order % 2 == 1:
        params = {"order": order, "reason": "odd moments vanish"}
    elif word is not None and kind.link is MatrixKind.H and not is_symmetric(word):
        params = {"reason": "non-symmetric Hankel word"}
    else:
        return None
    return MomentEstimate(0.0, 0.0, Method.ANALYTIC, {"kind": kind.link.value, **params}, word)


def _word_estimate(word: Word, kind: MatrixKind, eps: float, method: str, samples: int, seed: int,
                   methods: tuple[str, ...]) -> MomentEstimate:
    """The estimate of ``truncated_word_moment`` and ``limit_word_moment``
    (eps = 0): the request checked, then an exact zero or ``_mc_truncated``.

    The bar is at least ``ROUNDING_BAR`` eps |value|, eps = 2^-52, the
    rounding common to every batch, which no spread of batch means shows.
    In u = eps / 2 relative: each batch mean rounds to a float, by u, and 16
    equal means spread by 0; the pairwise sum of the ``BATCHES`` = 16 means,
    of one sign, rounds at log2(16) = 4 levels, by u each; the division by
    16 is exact, and the product by hi - lo rounds by u.  6u is 3 eps.  The
    lattice's error on the words that draw nothing falls below it; Monte
    Carlo bars, 1e-12 and more, lie far above it.
    """
    _plan(word.k, method, samples, methods=methods)
    if (zero := _analytic_zero(kind, word)) is not None:
        return zero
    ctx = _WordContext(word, kind)
    value, se = _mc_truncated(ctx, eps, samples, BATCHES, seed, lattice=method == "quadrature")
    se = max(se, ROUNDING_BAR * math.ulp(1.0) * abs(value))
    params = {"kind": ctx.link.value, **({"eps": eps} if eps else {}), "samples": samples, "batches": BATCHES,
              "seed": seed}
    return MomentEstimate(value, se, Method.MC_LADDER if method == "mc" else Method(method), params, word)


def truncated_word_moment(word: Word, kind: MatrixKind, eps: float, method: str = "mc", *,
                          samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MomentEstimate:
    """Word contribution to the eps-trimmed moment (bounded integrand).

    On the trimmed box every occurrence fraction is at least eps, so the
    integrand is bounded by eps^-k; ``mc`` and ``quadrature`` are the two
    point sets of ``limit_word_moment``, whose kernel also covers eps = 0.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidArgumentError("eps must lie in (0, 1)")
    return _word_estimate(word, kind, eps, method, samples, seed, ("mc", "quadrature"))


def limit_word_moment(word: Word, kind: MatrixKind, method: str = "mc-ladder", *, samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> MomentEstimate:
    """Word contribution to the limiting moment (eps = 0): the mean of
    ``BATCHES`` batch means of the importance weight on ``samples`` points in
    all, Monte Carlo draws for ``mc-ladder`` and, for ``quadrature``, a rank-1
    lattice under one random shift per batch."""
    return _word_estimate(word, kind, 0.0, method, samples, seed, LIMIT_METHODS)


# ---------------------------------------------------------------------------
# aggregated moments


@functools.lru_cache(maxsize=MAX_K)
def _classes(k: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The rotation/reflection classes of the order-2k words (``words.dihedral_representative``) in the order of
    their first words: (the representative's letters, its words' indices in ``enumerate_pair_matched_words``)."""
    classes: dict[str, list[int]] = {}
    for i, word in enumerate(enumerate_pair_matched_words(k)):
        classes.setdefault(dihedral_representative(word).letters, []).append(i)
    return tuple((rep, tuple(members)) for rep, members in classes.items())


def _largest_class(k: int) -> int:
    """The size of the largest class at k, without grouping the words: 1, 2 and 6 words at k = 1..3, then 4k, the
    order of the rotations and reversals of the 2k-circuit (``_classes`` has these sizes at every k up to MAX_K)."""
    return 4 * k if k > 3 else (1, 2, 6)[max(k, 1) - 1]


def _class_estimate(words: list[Word], classes: tuple, kind: MatrixKind, method: str, samples: int, seed: int,
                    c: int) -> MomentEstimate:
    """Class c's estimate: ``limit_word_moment`` on the member whose plan has the fewest draw steps, then checked
    forms, then the least letters, on ``samples`` points per member, seeded from its first word's index."""
    members = classes[c][1]

    def cost(word: Word) -> tuple[int, int, str]:
        ctx = _WordContext(word, kind)
        return len(ctx.drawn), len(ctx.checks), word.letters

    member = min((words[i] for i in members), key=cost)
    return limit_word_moment(member, kind, method, samples=samples * len(members), seed=derive_seed(seed, members[0]))


def limit_moment(k: int, kind: MatrixKind, method: str = "mc-ladder", *, samples: int = DEFAULT_SAMPLES,
                 seed: int = 0, threads: int | None = 1) -> MomentEstimate:
    """Order-2k limiting moment: sum of word contributions with error bars.

    Every word of a rotation/reflection class has the same limit, so a class
    is one task (``_class_estimate``), integrated once on one member with
    ``samples`` points per member of the class.  That one estimate counts
    once per member: a class of m words adds m times its value to the total
    and m times its bar in quadrature, not sqrt(m) times, as the members are
    not independent estimates.  ``params['per_word']`` gives each word its
    class's value and bar, the ``class`` (the representative's letters) and
    the member ``evaluated``.  The result does not depend on ``threads``.
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    _plan(k, method, samples, members=_largest_class(k))
    words, classes = enumerate_pair_matched_words(k), _classes(k)
    estimate = functools.partial(_class_estimate, words, classes, kind, method, samples, seed)
    estimates = parallel_map(estimate, range(len(classes)), workers=threads)
    value = sum(len(members) * e.value for (_, members), e in zip(classes, estimates))
    se = math.sqrt(sum((len(members) * e.std_error) ** 2 for (_, members), e in zip(classes, estimates)))
    per_word: list = [None] * len(words)
    for (rep, members), e in zip(classes, estimates):
        for i in members:
            per_word[i] = {"word": words[i].letters, "symmetric": is_symmetric(words[i]), "value": e.value,
                           "std_error": e.std_error, "method": e.method.value, "class": rep,
                           "evaluated": e.word.letters}
    params = {"k": k, "kind": kind.link.value, "words": len(words), "per_word": per_word, "samples": samples,
              "seed": seed}
    return MomentEstimate(value=value, std_error=se, method=Method(method), params=params, word=None)


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
    _plan(k_max, method, samples, members=_largest_class(k_max))  # the largest class grows with k
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
