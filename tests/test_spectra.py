import math

import numpy as np
import pytest

from balanced_spectra.errors import InvalidArgumentError, ResourceLimitError
from balanced_spectra.inputs import Distribution, derive_seed, generate_sequence
from balanced_spectra.matgen import MatrixKind, build_matrix, needed_length, principal_submatrix
from balanced_spectra.spectra import (
    MAX_BINS,
    EmpiricalDistribution,
    eigenvalues_symmetric,
    hoffman_wielandt_gap,
    levy_distance,
    moment,
    pooled_histogram,
    trace_power,
)


def _bt(n, seed, dist=Distribution.STANDARD_NORMAL):
    seq = generate_sequence(dist, n, seed)
    return build_matrix(MatrixKind.BT, seq, n)


def test_spectrum_metadata_and_order():
    mat = _bt(40, 3)
    spec = eigenvalues_symmetric(mat)
    assert spec.n == 40
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    assert spec.source["kind"] == "bt"
    assert spec.source["seed"] == mat.source_seed
    assert spec.source["route"] == "halves"  # a Toeplitz matrix is centrosymmetric
    assert eigenvalues_symmetric(np.diag([1.0, 2.0])).source == {"route": "full"}


def test_spectrum_trace_invariant():
    mat = _bt(100, 9)
    spec = eigenvalues_symmetric(mat)
    tol = 1e-8 * spec.n * max(1.0, float(np.abs(mat.entries).max()))
    assert abs(spec.eigenvalues.sum() - np.trace(mat.entries)) < tol


def test_moment_second_rademacher_exact():
    n = 400
    seq = generate_sequence(Distribution.RADEMACHER, n, 17)
    spec = eigenvalues_symmetric(build_matrix(MatrixKind.BT, seq, n))
    assert moment(spec, 2) == pytest.approx((2 * n - 1) / n, abs=1e-9)


def test_moment_first_is_scaled_trace():
    mat = _bt(60, 21)
    spec = eigenvalues_symmetric(mat)
    assert moment(spec, 1) == pytest.approx(np.trace(mat.entries) / 60, abs=1e-12)


def test_moment_matches_trace_power_oracle():
    mat = _bt(50, 33)
    spec = eigenvalues_symmetric(mat)
    assert moment(spec, 2) == pytest.approx(trace_power(mat, 2) / 50, abs=1e-10)
    assert moment(spec, 4) == pytest.approx(trace_power(mat, 4) / 50, abs=1e-9)


def test_moment_rejects_bad_order():
    mat = _bt(10, 1)
    spec = eigenvalues_symmetric(mat)
    # a fractional order used to give NaN with a RuntimeWarning, a float one numpy's TypeError
    for h in (0, 2.5, 2.0, True):
        with pytest.raises(InvalidArgumentError):
            moment(spec, h)
        with pytest.raises(InvalidArgumentError):
            trace_power(mat, h)
    assert moment(spec, np.int64(2)) == moment(spec, 2)


def test_asymmetric_matrix_rejected():
    a = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
    with pytest.raises(InvalidArgumentError):
        eigenvalues_symmetric(a)


# --- Levy distance -------------------------------------------------------


def test_empirical_distribution_rejects_non_finite_points():
    # [nan] used to be accepted, and its Levy distance to [0.0] read 1.0
    for bad in ([math.nan], [0.0, math.inf], [-math.inf]):
        with pytest.raises(InvalidArgumentError):
            EmpiricalDistribution.from_values(bad)


def test_levy_identity():
    f = EmpiricalDistribution.from_values([0.1, 0.5, 2.0])
    assert levy_distance(f, f) == 0.0


@pytest.mark.parametrize("c,expected", [(0.3, 0.3), (0.7, 0.7), (2.0, 1.0), (5.0, 1.0)])
def test_levy_point_masses(c, expected):
    f = EmpiricalDistribution.from_values([0.0])
    g = EmpiricalDistribution.from_values([c])
    assert levy_distance(f, g) == pytest.approx(expected, abs=1e-9)


def test_levy_symmetry_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(25):
        f = EmpiricalDistribution.from_values(rng.standard_normal(rng.integers(1, 40)))
        g = EmpiricalDistribution.from_values(rng.standard_normal(rng.integers(1, 40)))
        assert levy_distance(f, g) == pytest.approx(levy_distance(g, f), abs=1e-9)


def test_levy_triangle_inequality_sampled():
    rng = np.random.default_rng(13)
    for _ in range(20):
        f, g, h = (
            EmpiricalDistribution.from_values(rng.standard_normal(rng.integers(2, 30)))
            for _ in range(3)
        )
        assert levy_distance(f, h) <= levy_distance(f, g) + levy_distance(g, h) + 1e-8


def test_levy_against_grid_sweep_oracle():
    """Independent route: check the corridor condition on a dense x-grid."""

    def oracle(f, g, grid=4001):
        pts = np.concatenate([f.points, g.points])
        xs = np.linspace(pts.min() - 1.5, pts.max() + 1.5, grid)
        lo, hi = 0.0, 1.0
        for _ in range(42):
            eps = 0.5 * (lo + hi)
            ok = np.all(g.cdf(xs + eps) + eps >= f.cdf(xs)) and np.all(
                f.cdf(xs + eps) + eps >= g.cdf(xs)
            )
            if ok:
                hi = eps
            else:
                lo = eps
        return hi

    rng = np.random.default_rng(14)
    for _ in range(10):
        f = EmpiricalDistribution.from_values(rng.standard_normal(rng.integers(1, 25)))
        g = EmpiricalDistribution.from_values(0.5 * rng.standard_normal(rng.integers(1, 25)) + 0.2)
        assert levy_distance(f, g) == pytest.approx(oracle(f, g), abs=2e-3)


def test_levy_bounded_by_one():
    f = EmpiricalDistribution.from_values([-100.0])
    g = EmpiricalDistribution.from_values([100.0])
    assert levy_distance(f, g) <= 1.0 + 1e-12


# --- Hoffman-Wielandt ----------------------------------------------------


def test_hoffman_wielandt_commuting_equality():
    lhs, rhs = hoffman_wielandt_gap(np.diag([0.0, 0.0]), np.diag([1.0, -1.0]))
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)


def test_hoffman_wielandt_hand_example():
    a = np.diag([1.0, 0.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    lhs, rhs = hoffman_wielandt_gap(a, b)
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert rhs == pytest.approx(1.5, abs=1e-12)


def test_hoffman_wielandt_identical():
    mat = _bt(20, 2)
    lhs, rhs = hoffman_wielandt_gap(mat, mat)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == 0.0


def test_hoffman_wielandt_inequality_random_ensembles():
    kinds = list(MatrixKind)
    for trial in range(40):
        k1, k2 = kinds[trial % 4], kinds[(trial + 1) % 4]
        s1 = generate_sequence(Distribution.STANDARD_NORMAL, needed_length(k1, 50), derive_seed(7, trial))
        s2 = generate_sequence(Distribution.RADEMACHER, needed_length(k2, 50), derive_seed(8, trial))
        lhs, rhs = hoffman_wielandt_gap(build_matrix(k1, s1, 50), build_matrix(k2, s2, 50))
        assert lhs <= rhs + 1e-8


def test_hoffman_wielandt_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        hoffman_wielandt_gap(np.eye(3), np.eye(4))
    # an asymmetric matrix must fail, not be solved from its lower triangle
    with pytest.raises(InvalidArgumentError, match="symmetric"):
        hoffman_wielandt_gap(np.array([[0.0, 5.0], [0.0, 0.0]]), np.zeros((2, 2)))


# --- submatrix Levy bounds ------------------------------------------------


def test_submatrix_levy_bound_random_draws():
    from balanced_spectra.eigh import symmetric_eigenvalues

    rng = np.random.default_rng(15)
    kinds = list(MatrixKind)
    for trial in range(12):
        n = int(rng.integers(30, 80))
        kind = kinds[trial % 4]
        seq = generate_sequence(Distribution.STANDARD_NORMAL, needed_length(kind, n), derive_seed(9, trial))
        mat = build_matrix(kind, seq, n)
        m = int(rng.integers(max(2, n // 4), n + 1))
        keep = np.sort(rng.choice(n, size=m, replace=False))
        sub = mat.entries[np.ix_(keep, keep)]
        fa = EmpiricalDistribution.from_values(symmetric_eigenvalues(mat.entries))
        fb = EmpiricalDistribution.from_values(symmetric_eigenvalues(sub))
        assert levy_distance(fa, fb) <= min(n / m - 1.0, 1.0) + 1e-9


def test_trim_levy_bound_at_400():
    mat = _bt(400, derive_seed(10, 0))
    full = EmpiricalDistribution.from_spectrum(eigenvalues_symmetric(mat))
    for eps in (0.05, 0.1, 0.2):
        sub = principal_submatrix(mat, eps)
        fsub = EmpiricalDistribution.from_spectrum(eigenvalues_symmetric(sub))
        assert levy_distance(full, fsub) <= eps + 1e-9


# --- histograms -----------------------------------------------------------


def test_histogram_two_bins():
    spec = eigenvalues_symmetric(np.diag([-1.0, 1.0]))
    hist = pooled_histogram([spec], bins=2, hist_range=(-1.0, 1.0))
    assert np.allclose(hist.densities, [0.5, 0.5])
    assert hist.overflow == 0


def test_histogram_pooling_invariance():
    spec = eigenvalues_symmetric(_bt(30, 4))
    one = pooled_histogram([spec], bins=15, hist_range=(-4, 4))
    many = pooled_histogram([spec] * 7, bins=15, hist_range=(-4, 4))
    assert np.array_equal(one.densities, many.densities)
    assert many.realizations == 7


def test_histogram_normalization_with_and_without_overflow():
    spec = eigenvalues_symmetric(_bt(100, 5))
    auto = pooled_histogram([spec], bins=31)
    assert float(np.sum(auto.densities * auto.widths)) == pytest.approx(1.0, abs=1e-9)
    assert auto.overflow == 0
    narrow = pooled_histogram([spec], bins=31, hist_range=(-0.5, 0.5))
    expected = 1.0 - narrow.overflow_fraction
    assert float(np.sum(narrow.densities * narrow.widths)) == pytest.approx(expected, abs=1e-9)
    assert narrow.overflow > 0


def test_histogram_input_validation():
    with pytest.raises(InvalidArgumentError):
        pooled_histogram([], bins=10)
    spec = eigenvalues_symmetric(np.eye(2))
    with pytest.raises(InvalidArgumentError):
        pooled_histogram([spec], bins=0)
    with pytest.raises(InvalidArgumentError):
        pooled_histogram([spec], bins=5, hist_range=(1.0, -1.0))
    # refused before np.histogram allocates its edges and counts
    with pytest.raises(ResourceLimitError, match="bins"):
        pooled_histogram([spec], bins=MAX_BINS + 1)


def test_histogram_degenerate_support():
    spec = eigenvalues_symmetric(np.zeros((3, 3)))
    hist = pooled_histogram([spec], bins=5)
    assert float(np.sum(hist.densities * hist.widths)) == pytest.approx(1.0, abs=1e-12)
