import math

import numpy as np
import pytest

from balanced_spectra.errors import InvalidArgumentError, ResourceLimitError
from balanced_spectra.inputs import Distribution, InputSequence, generate_sequence
from balanced_spectra.matgen import (
    MATRIX_BUDGET,
    MatrixKind,
    build_matrix,
    check_matrix_budget,
    needed_length,
    occurrence_count,
    occurrence_counts,
    occurrence_draw,
    occurrence_fraction,
    occurrence_integral,
    principal_submatrix,
    trimmed_interval,
)
from balanced_spectra.spectra import trace_power


def _seq(values):
    return InputSequence(values=np.asarray(values, dtype=float), dist=Distribution.STANDARD_NORMAL, seed=0)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_occurrence_draw_inverts_the_factor_cdf(kind, eps):
    # the midpoint rule on occurrence_fraction itself, over 10^6 cells of the
    # kept axis: Z is the integral of 1 / occ(y, .), and the draw at u is where
    # that integral reaches u Z
    lo, hi = trimmed_interval(kind, eps)
    edges = np.linspace(lo, hi, 1_000_001)
    u = np.linspace(0.0, 1.0, 41, endpoint=False)
    for y in (lo + 1e-3, 0.2, 0.5, 0.7, hi - 1e-3):
        cells = np.diff(edges) / occurrence_fraction(kind, y, (edges[:-1] + edges[1:]) / 2)
        mass = np.concatenate([[0.0], np.cumsum(cells)])
        x, z = occurrence_draw(kind, np.full_like(u, y), u, lo, hi)
        assert z == pytest.approx(np.full_like(u, mass[-1]), rel=1e-6), y
        assert x == pytest.approx(np.interp(u * mass[-1], mass, edges), abs=1e-6), y
        assert np.all((x >= lo) & (x <= hi))


@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_occurrence_draw_normalizer_and_its_zeros(kind):
    # at eps = 0 both patterns have Z(y) = -ln y - ln(1 - y); where y is off the
    # axis, or occ vanishes at an end of it (y = 0 or 1 at eps = 0), Z is 0 and
    # the draw still lands on the axis
    y = np.array([1e-300, 1e-9, 0.3, 0.5, 1.0 - 2.0**-53])
    _, z = occurrence_draw(kind, y, np.full_like(y, 0.5), 0.0, 1.0)
    assert z == pytest.approx(-np.log(y) - np.log1p(-y), rel=1e-12)
    for eps in (0.0, 0.2):
        lo, hi = trimmed_interval(kind, eps)
        y = np.array([lo - 0.01, lo, hi, hi + 0.01, -np.inf])
        with np.errstate(all="raise"):
            x, z = occurrence_draw(kind, y, np.array([0.0, 0.3, 0.6, 1.0 - 2.0**-53, 0.5]), lo, hi)
        assert np.all((x >= lo) & (x <= hi))
        assert np.all(z[[0, 3, 4]] == 0.0) and np.all(np.isfinite(z))
        assert np.all((z[1:3] > 0.0) == (eps > 0.0))


def _gauss_legendre(kind, y, a, b, nodes=30):
    """The integral of 1 / occurrence_fraction(kind, y, x) over [a, b] by
    Gauss-Legendre rules, split at the kink and on each side on panels graded
    geometrically (ratio 1/4) toward both ends, where occ may be small."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    kink = y if kind.link is MatrixKind.T else 1.0 - y
    cuts = np.array(sorted({0.0, 1.0, *(0.5 * 0.25**j for j in range(30)), *(1.0 - 0.5 * 0.25**j for j in range(30))}))
    total = 0.0
    for p, q in ((a, min(b, kink)), (max(a, kink), b)):
        for s0, s1 in zip(p + (q - p) * cuts[:-1], p + (q - p) * cuts[1:]) if q > p else ():
            x = (s0 + s1) / 2.0 + (s1 - s0) / 2.0 * t
            total += (s1 - s0) / 2.0 * float(np.sum(w / occurrence_fraction(kind, y, x)))
    return total


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_occurrence_integral_matches_gauss_legendre(kind, eps):
    # the closed form F(b) - F(a) of the Monte Carlo's conditional step against
    # quadrature of the occurrence fraction itself, on intervals on either
    # side of the kink and across it, the whole axis (where it is Z) included
    lo, hi = trimmed_interval(kind, eps)
    cases = []
    for y in (lo + 0.01, 0.3, 0.5, 0.77, hi - 0.02):
        kink = y if kind.link is MatrixKind.T else 1.0 - y
        for a, b in ((lo, hi), (kink - 0.2, kink + 0.1), (kink - 0.03, kink + 0.3), (lo + 0.1, kink - 0.05),
                     (kink + 0.01, hi), (kink - 1e-3, kink + 2e-3)):
            a, b = max(a, lo), min(b, hi)
            if b > a:
                cases.append((y, a, b, a < kink < b))
    y, a, b, straddles = map(np.array, zip(*cases))
    assert np.count_nonzero(straddles) >= 10 and np.count_nonzero(~straddles) >= 8
    with np.errstate(all="raise"):
        got = occurrence_integral(kind, y, np.array([a, b]), lo, hi)
    want = [_gauss_legendre(kind, *case[:3]) for case in cases]
    assert got == pytest.approx(want, rel=1e-12)
    whole = (a == lo) & (b == hi)
    assert got[whole] == pytest.approx(occurrence_draw(kind, y[whole], np.full(np.count_nonzero(whole), 0.5), lo, hi)[1],
                                       rel=1e-13)


@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_occurrence_integral_zeros_and_extremes(kind):
    # 0 where the interval is empty (b <= a, a past hi or b short of lo) or y
    # is off the axis, and where occ vanishes at an end (at eps = 0, y = 0 or 1
    # on the whole axis), with no warning; elsewhere finite and positive, the
    # fresh-array call giving the same floats as the one into scratch (an
    # interval of 2^-60 may round to 0: F(b) - F(a) cancels)
    for eps in (0.0, 0.1):
        lo, hi = trimmed_interval(kind, eps)
        ys = (lo - 0.01, hi + 0.01, -np.inf, np.inf, 0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0)
        ends = ((lo, hi), (lo, lo), (0.6, 0.4), (hi + 0.3, hi), (lo, lo - 0.2), (lo, 2.0**-60), (hi - 2.0**-53, hi))
        y, a, b = map(np.array, zip(*((y, a, b) for y in ys for a, b in ends)))
        rows = y.size
        z, work, flags = np.full(rows, np.nan), np.full(rows, np.nan), np.zeros((2, rows), dtype=bool)
        scratch = np.array([a, b])
        with np.errstate(all="raise"):
            got = occurrence_integral(kind, y, scratch, lo, hi, out=(z, work, flags))
            fresh = occurrence_integral(kind, y.copy(), np.array([a, b]), lo, hi)
        assert got is z and np.array_equal(got, fresh)
        assert np.all(np.isfinite(got) & (got >= 0.0))
        off = (y < lo) | (y > hi) | (b <= a)
        assert np.all(got[off] == 0.0)
        c, one_minus_c = (y, 1.0 - y) if kind.link is MatrixKind.H else (1.0 - y, y)
        vanishing = ((a == lo) & (c + lo == 0.0)) | ((b == hi) & (one_minus_c + (1.0 - hi) == 0.0))
        assert np.all(got[vanishing] == 0.0) and np.count_nonzero(vanishing & ~off) == (4 if eps == 0.0 else 0)
        assert np.all(got[~off & ~vanishing & (b - a > 1e-9)] > 0.0)


def test_occurrence_corner_entries():
    assert occurrence_count(MatrixKind.T, 5, 1, 5) == 1
    for n in (3, 10, 113):
        assert occurrence_count(MatrixKind.H, n, n, n) == 1
        assert occurrence_count(MatrixKind.H, n, 1, 1) == 1
        assert occurrence_count(MatrixKind.T, n, 1, 1) == n


@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_occurrence_reciprocal_sum_counts_variables(kind, n):
    # each variable's occurrences sum its reciprocal to 1; 2n-1 variables total
    total = sum(
        1.0 / occurrence_count(kind, n, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    i, j = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    array_total = float(np.sum(1.0 / occurrence_counts(kind, n, i, j)))
    for value in (total, array_total):
        assert abs(value - (2 * n - 1)) < 1e-9


def test_occurrence_symmetry_and_range():
    n = 23
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ct = occurrence_count(MatrixKind.T, n, i, j)
            ch = occurrence_count(MatrixKind.H, n, i, j)
            assert 1 <= ct <= n and 1 <= ch <= n
            assert ch == occurrence_count(MatrixKind.H, n, j, i)
            assert ct == occurrence_count(MatrixKind.T, n, 1, 1 + abs(i - j))


def test_occurrence_index_validation():
    with pytest.raises(InvalidArgumentError):
        occurrence_count(MatrixKind.T, 5, 0, 3)
    with pytest.raises(InvalidArgumentError):
        occurrence_count(MatrixKind.H, 5, 2, 6)


def test_balanced_toeplitz_2x2_layout():
    x0, x1 = 0.7, -1.3
    mat = build_matrix(MatrixKind.BT, _seq([x0, x1]), 2)
    expected = np.array([[x0 / math.sqrt(2), x1], [x1, x0 / math.sqrt(2)]])
    assert np.array_equal(mat.entries, expected)


def test_balanced_hankel_2x2_layout():
    x1, x2, x3 = 0.5, 2.0, -0.25
    mat = build_matrix(MatrixKind.BH, _seq([x1, x2, x3]), 2)
    expected = np.array([[x1, x2 / math.sqrt(2)], [x2 / math.sqrt(2), x3]])
    assert np.array_equal(mat.entries, expected)


@pytest.mark.parametrize("kind", list(MatrixKind))
def test_every_entry_matches_its_definition(kind):
    n = 7
    seq = generate_sequence(Distribution.STANDARD_NORMAL, needed_length(kind, n), 17)
    mat = build_matrix(kind, seq, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            var = abs(i - j) if kind.link is MatrixKind.T else i + j - 2  # 0-based sequence position
            count = occurrence_count(kind, n, i, j) if kind.balanced else n
            assert mat.entries[i - 1, j - 1] == seq.values[var] / math.sqrt(count)


def test_unbalanced_toeplitz_uniform_scaling():
    mat = build_matrix(MatrixKind.T, _seq([1.0, 1.0, 1.0]), 3)
    assert np.allclose(mat.entries, 1 / math.sqrt(3))


def test_exact_symmetry_all_kinds():
    for kind in MatrixKind:
        n = 31
        seq = generate_sequence(Distribution.STANDARD_NORMAL, needed_length(kind, n), 3)
        mat = build_matrix(kind, seq, n)
        assert np.array_equal(mat.entries, mat.entries.T)
        assert mat.parent_n == n


def test_sequence_too_short():
    with pytest.raises(InvalidArgumentError):
        build_matrix(MatrixKind.BT, _seq([1.0, 2.0]), 3)
    with pytest.raises(InvalidArgumentError):
        build_matrix(MatrixKind.BH, _seq([1.0, 2.0, 3.0, 4.0]), 3)


@pytest.mark.parametrize("kind", [MatrixKind.BT, MatrixKind.BH])
@pytest.mark.parametrize("n", [50, 400])
def test_rademacher_second_trace_moment_exact(kind, n):
    # with +/-1 inputs every squared entry is 1/count, so the sum telescopes
    seq = generate_sequence(Distribution.RADEMACHER, needed_length(kind, n), 11)
    mat = build_matrix(kind, seq, n)
    assert trace_power(mat, 2) / n == pytest.approx((2 * n - 1) / n, abs=1e-12)


def test_submatrix_eps_zero_is_identity():
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 79, 5)
    mat = build_matrix(MatrixKind.BT, seq, 79)
    sub = principal_submatrix(mat, 0.0)
    assert sub.n == 79
    assert np.array_equal(sub.entries, mat.entries)


def test_bt_submatrix_dimension_and_scaling_bound():
    n, eps = 400, 0.1
    seq = generate_sequence(Distribution.RADEMACHER, n, 5)
    mat = build_matrix(MatrixKind.BT, seq, n)
    sub = principal_submatrix(mat, eps)
    assert sub.n == 360
    assert sub.parent_n == n
    # retained lags keep counts >= n*eps, so |entries| <= 1/sqrt(n*eps - 1)
    assert np.max(np.abs(sub.entries)) <= 1.0 / math.sqrt(n * eps - 1)


def test_bh_submatrix_trims_both_ends():
    n, eps = 400, 0.1
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 2 * n - 1, 5)
    mat = build_matrix(MatrixKind.BH, seq, n)
    sub = principal_submatrix(mat, eps)
    assert sub.n == 360
    # rows 21..380 of the parent (1-based)
    assert np.array_equal(sub.entries, mat.entries[20:380, 20:380])


def test_submatrix_entries_copied_not_rescaled():
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 100, 5)
    mat = build_matrix(MatrixKind.BT, seq, 100)
    sub = principal_submatrix(mat, 0.25)
    assert np.array_equal(sub.entries, mat.entries[: sub.n, : sub.n])


def test_submatrix_odd_trim_dimension_recorded():
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 2 * 11 - 1, 5)
    mat = build_matrix(MatrixKind.BH, seq, 11)
    sub = principal_submatrix(mat, 0.3)  # 11*0.3/2 = 1.65 -> trim 1 per side
    assert sub.n == 9


def test_submatrix_invalid_inputs():
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 10, 5)
    unbalanced = build_matrix(MatrixKind.T, seq, 10)
    with pytest.raises(InvalidArgumentError):
        principal_submatrix(unbalanced, 0.1)
    balanced = build_matrix(MatrixKind.BT, seq, 10)
    with pytest.raises(InvalidArgumentError):
        principal_submatrix(balanced, 1.0)
    with pytest.raises(InvalidArgumentError):
        principal_submatrix(balanced, -0.1)


def test_matrix_budget_checked_before_allocation():
    largest = math.isqrt(MATRIX_BUDGET // 8)
    check_matrix_budget(largest)
    with pytest.raises(ResourceLimitError):
        check_matrix_budget(largest + 1)
    # refused before the (too short) sequence is even looked at
    with pytest.raises(ResourceLimitError, match="n=100000"):
        build_matrix(MatrixKind.BT, _seq([1.0]), 100_000)


def test_entries_read_only():
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 10, 5)
    mat = build_matrix(MatrixKind.BT, seq, 10)
    with pytest.raises(ValueError):
        mat.entries[0, 0] = 9.9
