"""Limiting moments at eps = 0 from routes other than the Monte Carlo under
test, each as (value, spread): the spread covers the routes' disagreement and
the rounding of the value, so a test compares against it in quadrature with
the estimate's own error bar.

Provenance:

* k = 1: the word ``aa`` integrates 1 / (1 - |x - y|) over the unit square,
  which is exactly 2 (the eps -> 0 limit of the trimmed closed form
  2 (1 - eps + eps ln eps)); the Hankel integral maps onto it by y -> 1 - y.
* k = 2, the non-crossing words ``aabb`` and ``abba``: exactly
  int_0^1 (ln x + ln(1 - x))^2 dx = 8 - pi^2 / 3 = 4.7101318663 under both
  patterns.  Each walks a plane tree whose leaves integrate 1 / (1 - |x - y|)
  over their own coordinate to Z(x) = -ln x - ln(1 - x), so the word is the
  integral of Z^2 (for ``abba`` after the inner integral over the root, by
  the kernel's symmetry); Hankel's kernel maps onto Toeplitz's by reflecting
  every odd-depth vertex.  Their spread is rounding only.
* k = 2, Toeplitz ``abab``: exactly 8 - 2 pi^2 / 3 = 1.4202637326, so the
  Toeplitz total is 2 (8 - pi^2 / 3) + 8 - 2 pi^2 / 3 = 24 - 4 pi^2 / 3 =
  10.8405274652.  A Toeplitz factor 1 / (1 - |x_j - L_{j-1}|) reads only the
  difference d_j = x_j - L_{j-1}, and every vertex of the walk is x_0 plus
  an affine function of d, so x_0 integrates out to the length of the
  interval on which every vertex lies in [0, 1].  For ``abab`` that length
  is (1 - |d_1| - |d_2|)_+, and the word is the integral of
  (1 - |d_1| - |d_2|)_+ / ((1 - |d_1|)(1 - |d_2|)) over (-1, 1)^2.  By the
  symmetry of the four quadrants it is 4 times the integral over s, t >= 0
  with s + t <= 1.  The inner integral over t is (1 - s + s ln s) / (1 - s)
  = 1 + s ln s / (1 - s), and int_0^1 s ln s / (1 - s) ds =
  sum_n int_0^1 s^n ln s ds = -sum_n 1 / (n + 1)^2 = 1 - pi^2 / 6, so the
  word is 4 (2 - pi^2 / 6).  A test recomputes it from the 2-D integrand
  (``test_abab_is_its_difference_integral``).  The finite-n oracle
  extrapolated in n (fits in {1, 1/n, ln n / n} at n = 25 .. 400) read
  1.42020 .. 1.42026, and the rank-1 lattice rule before x_0 was smoothed
  1.420368 +- 4.2e-5, 2.5 bars high.  Its spread is rounding only.
* k = 2, Hankel: ``abab`` vanishes and ``aabb`` and ``abba`` are the
  Toeplitz ``aabb`` integral, so the total is exactly 16 - 2 pi^2 / 3 =
  9.4202637326 (the lattice rule gave 9.42043 +- 2.6e-4).
* k = 3, the non-crossing words ``aabbcc`` and ``abbcca``: exactly
  int_0^1 Z^3 dx = 48 - 2 pi^2 - 12 zeta(3) = 13.836108359906152 under both
  patterns (``aabbcc`` is a root with three leaves; ``abbcca`` a root with
  one child carrying two, and the root integrates K against 1 to Z).  With
  int ln^3 x dx = -6 and, expanding ln(1 - x) = -sum_n x^n / n,
  int ln^2 x ln(1 - x) dx = -2 sum_n 1 / (n (n + 1)^3) = -6 + 2 zeta(2) +
  2 zeta(3), so that int Z^3 = -2 int ln^3 x - 6 int ln^2 x ln(1 - x) by the
  symmetry x -> 1 - x.  Their spread is rounding only.
* k = 3, the other classes, Toeplitz: from difference coordinates.  With
  d_j = x_j - L_{i-1} the difference between a generating coordinate and the
  form its factor reads, every vertex of the walk is x_0 plus an integer
  combination of d, so x_0 integrates out to the length ell(d) of the
  interval on which every vertex lies in [0, 1], one minus the range of the
  vertices' offsets when that is positive, and a word is the integral of
  ell(d) / prod_j (1 - |d_j|) over (-1, 1)^3.  ell is piecewise linear in
  d_3, so d_3 integrates in closed form (logarithms) over the pieces between
  its breakpoints.  d_1 and d_2 were integrated by nested one-dimensional
  adaptive Gauss-Kronrod (``scipy.integrate.cubature``, 21 points) under
  |d| = 1 - exp(-u), which cancels the factor 1 / (1 - |d|), each level
  split at every line across which the integrand can kink (where two
  breakpoints of d_3 meet, or one meets 0 or +-1, or two vertex offsets
  cross), the inner level at a tolerance 100 times below the outer one.  At
  outer tolerances 1e-7 and 1e-8 the classes agree to 2.3e-8 (``aabccb``),
  4e-9 (``aabcbc``) and 3e-9 (``abacbc``), and ``aabbcc`` reads its closed
  form to 2e-9; ``abcabc``, the slow class (36 kink lines), read
  2.6878939505 and 2.6878939521 at outer tolerances 1e-5 and 1e-6, and
  2.6878939536 on the Hankel forms.
  ``aabccb`` reads 11.89154554, where an inner product <Z, T Z> of an
  earlier route gave 11.891545547 and an earlier 2-D cubature without the
  splits 11.8915459.  A 2-D cubature over
  the quadrants missed ``aabbcc``'s closed form by 2.7e-4 with an error
  estimate of 1.4e-6: the kink lines defeat its error estimate.
* k = 3, Hankel: a parity-symmetric word has the same limit under both
  patterns (flipping the signs of some of the differences maps Hankel's ell
  onto Toeplitz's and preserves the measure; checked pointwise at random d
  for every symmetric word at k = 2..5), so the Hankel total sums the
  Toeplitz values of its symmetric classes ``aabbcc`` [2 words],
  ``aabccb`` [3] and ``abcabc`` [1].  The same route on the Hankel forms,
  at tolerance 1e-7, read ``aabccb`` as the same float as on the Toeplitz
  forms and ``aabbcc`` within 2.6e-8 of its closed form.
* k = 3 totals: the class values weighted by their sizes, ``aabbcc`` [2],
  ``aabcbc`` [6], ``aabccb`` [3], ``abacbc`` [3] and ``abcabc`` [1] for
  Toeplitz, computed below from ``TOEPLITZ_K3_CLASSES``, their spreads
  weighted and added alike: 88.26813354 +- 1.3e-6 (Toeplitz) and
  66.03474729 +- 4e-7 (Hankel).  They replace lattice-only totals,
  88.267 +- 0.013 and 66.046 +- 0.007, which the lattice made before it
  smoothed x_0 (the Hankel one was 1.6 spreads high), and then the rounded
  sums 88.2681336 and 66.0347473 with a spread of 1e-5, which covered the
  earlier 2-D cubature's totals, 88.268136 and 66.034749, and was wider than
  the Monte Carlo's and the lattice's bars at 2,000,000 points.
"""

import math

ZETA3 = 1.2020569031595942  # Apery's constant zeta(3)
AABB = 8.0 - math.pi**2 / 3.0  # aabb = abba at k = 2, either pattern
ABAB = 8.0 - 2.0 * math.pi**2 / 3.0  # abab at k = 2, Toeplitz
AABBCC = 48.0 - 2.0 * math.pi**2 - 12.0 * ZETA3  # aabbcc = abbcca at k = 3, either pattern
ROUNDING = 1e-15  # the spread of a closed form evaluated in float64

# word -> (value, spread) of its Toeplitz contribution at k = 2
TOEPLITZ_K2_WORDS = {
    "aabb": (AABB, ROUNDING),
    "abab": (ABAB, ROUNDING),
    "abba": (AABB, ROUNDING),
}

# word -> (value, spread) of its contribution at k = 3, either pattern
K3_NONCROSSING_WORDS = {
    "aabbcc": (AABBCC, ROUNDING),
    "abbcca": (AABBCC, ROUNDING),
}

# class (its representative's letters) -> (value, spread) of the Toeplitz
# contribution of each of its words at k = 3
TOEPLITZ_K3_CLASSES = {
    "aabbcc": (AABBCC, ROUNDING),
    "aabcbc": (2.90769547, 1e-7),
    "aabccb": (11.89154554, 1e-7),
    "abacbc": (1.59573781, 1e-7),
    "abcabc": (2.68789395, 1e-7),
}

# words of each Toeplitz class at k = 3; under Hankel only the parity-symmetric
# classes aabbcc, aabccb and abcabc count
K3_CLASS_SIZES = {"aabbcc": 2, "aabcbc": 6, "aabccb": 3, "abacbc": 3, "abcabc": 1}


def _class_sum(classes) -> tuple[float, float]:
    """The k = 3 total over ``classes``: their values weighted by their sizes,
    and their spreads weighted the same way and added, not in quadrature, as
    each spread bounds a cubature's tolerance rather than a random error."""
    return tuple(math.fsum(K3_CLASS_SIZES[rep] * TOEPLITZ_K3_CLASSES[rep][i] for rep in classes) for i in (0, 1))


# (k, pattern) -> (value, spread) of the order-2k limiting moment
TOTALS = {
    (1, "t"): (2.0, 0.0),
    (1, "h"): (2.0, 0.0),
    (2, "t"): (2.0 * AABB + ABAB, ROUNDING),
    (2, "h"): (2.0 * AABB, ROUNDING),
    (3, "t"): _class_sum(K3_CLASS_SIZES),
    (3, "h"): _class_sum(("aabbcc", "aabccb", "abcabc")),
}
