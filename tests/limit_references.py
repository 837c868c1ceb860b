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
* k = 3 totals: lattice only, not yet confirmed by a second route.  Toeplitz
  88.2674 +- 7.0e-3 over the 15 words (three lattice sizes agreed within
  3e-3; 88.2713 +- 0.013 over the 5 rotation/reflection classes weighted by
  size); Hankel 66.0464 +- 6.9e-3.  These came from the lattice before it
  smoothed x_0.  The smoothed lattice reads the Hankel total as 66.0356 (seed
  sd 7.9e-4 over 6 seeds at 2M points per word), 1.5 spreads below 66.046 +-
  0.007; the value and spread are kept, since the same method would be
  grading itself.
"""

import math

ZETA3 = 1.2020569031595942  # Apery's constant zeta(3)
AABB = 8.0 - math.pi**2 / 3.0  # aabb = abba at k = 2, either pattern
ABAB = 8.0 - 2.0 * math.pi**2 / 3.0  # abab at k = 2, Toeplitz
AABBCC = 48.0 - 2.0 * math.pi**2 - 12.0 * ZETA3  # aabbcc = abbcca at k = 3, either pattern
ROUNDING = 1e-15  # the spread of a closed form evaluated in float64

# (k, pattern) -> (value, spread) of the order-2k limiting moment
TOTALS = {
    (1, "t"): (2.0, 0.0),
    (1, "h"): (2.0, 0.0),
    (2, "t"): (2.0 * AABB + ABAB, ROUNDING),
    (2, "h"): (2.0 * AABB, ROUNDING),
    (3, "t"): (88.267, 0.013),  # lattice only
    (3, "h"): (66.046, 0.007),  # lattice only
}

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
