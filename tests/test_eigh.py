import numpy as np
import pytest

from balanced_spectra.eigh import symmetric_eigenvalues
from balanced_spectra.errors import InvalidArgumentError, SolverFailureError
from balanced_spectra.experiments import realization_matrix
from balanced_spectra.inputs import Distribution
from balanced_spectra.matgen import MatrixKind
from balanced_spectra.spectra import eigenvalues_symmetric, trace_power


def _entries(kind, n, seed, dist=Distribution.STANDARD_NORMAL, eps=0.0):
    return realization_matrix(kind, dist, n, seed, eps).entries


def _random_symmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a + a.T


def _one_ulp_off_centrosymmetric():
    # a symmetric pair moved by one ulp: still symmetric, no longer its own rotation
    a = _entries(MatrixKind.BT, 40, 5).copy()
    assert np.array_equal(a, a[::-1, ::-1])
    a[3, 10] = a[10, 3] = np.nextafter(a[3, 10], np.inf)
    return a


def test_diagonal_matrix():
    values = symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [1.0, 2.0, 3.0], atol=1e-14)


def test_rank_one_all_ones():
    values = symmetric_eigenvalues(np.ones((4, 4)))
    assert np.allclose(values, [0.0, 0.0, 0.0, 4.0], atol=1e-12)


def test_exchange_matrix():
    values = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [-1.0, 1.0], atol=1e-14)


def test_single_entry():
    assert symmetric_eigenvalues(np.array([[5.5]])) == pytest.approx([5.5])


@pytest.mark.parametrize("n", [2, 3, 10, 30, 50])
def test_against_reference_solver(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = rng.standard_normal((n, n))
        a = a + a.T
        values = symmetric_eigenvalues(a)
        # power sums against matrix powers: a route with no eigensolve in it
        for h in (3, 4):
            scale = float(np.sum(np.abs(values) ** h))
            assert abs(float(np.sum(values**h)) - trace_power(a, h)) < 1e-10 * scale


def test_shift_covariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((30, 30))
        a = a + a.T
        base = symmetric_eigenvalues(a)
        shifted = symmetric_eigenvalues(a + 3.25 * np.eye(30))
        assert np.max(np.abs(shifted - (base + 3.25))) < 1e-9


def test_scale_covariance():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((30, 30))
        a = a + a.T
        base = symmetric_eigenvalues(a)
        scaled = symmetric_eigenvalues(-2.5 * a)
        assert np.max(np.abs(scaled - np.sort(-2.5 * base))) < 1e-9


def test_trace_identities_every_solve():
    rng = np.random.default_rng(3)
    for n in (5, 20, 60):
        a = rng.standard_normal((n, n))
        a = a + a.T
        values = symmetric_eigenvalues(a)
        assert values.sum() == pytest.approx(np.trace(a), abs=1e-10 * n)
        assert (values**2).sum() == pytest.approx((a**2).sum(), rel=1e-12, abs=1e-9)


def test_invalid_inputs():
    with pytest.raises(InvalidArgumentError):
        symmetric_eigenvalues(np.zeros((2, 3)))
    # LAPACK reads one triangle only: an asymmetric matrix must not be solved
    with pytest.raises(InvalidArgumentError, match="symmetric"):
        symmetric_eigenvalues(np.array([[0.0, 5.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solve", [symmetric_eigenvalues, eigenvalues_symmetric])
def test_non_finite_input_rejected(solve, bad):
    a = np.eye(3)
    a[0, 2] = a[2, 0] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        solve(a)


def test_lapack_failure_becomes_solver_failure(monkeypatch):
    halves, full = np.eye(3), np.diag([1.0, 2.0, 3.0])
    assert symmetric_eigenvalues(halves, return_route=True)[1] == "halves"
    assert symmetric_eigenvalues(full, return_route=True)[1] == "full"

    def diverge(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
    for a in (halves, full):
        with pytest.raises(SolverFailureError, match="did not converge"):
            symmetric_eigenvalues(a)
        with pytest.raises(SolverFailureError):
            eigenvalues_symmetric(a)


def test_degenerate_spectra():
    assert np.allclose(symmetric_eigenvalues(np.zeros((6, 6))), np.zeros(6))
    values = symmetric_eigenvalues(7.0 * np.eye(5))
    assert np.allclose(values, 7.0)


def _assert_halves_match_full(a):
    values, route = symmetric_eigenvalues(a, return_route=True)
    assert route == "halves"
    assert np.all(np.diff(values) >= 0)
    gap = float(np.max(np.abs(values - np.linalg.eigvalsh(a))))
    assert gap <= 1e-13 * max(1.0, float(np.max(np.abs(a))))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 36, 37, 400, 401])
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.BT])
def test_toeplitz_halves_match_the_full_solve(kind, n):
    a = _entries(kind, n, n)
    assert np.array_equal(a, a[::-1, ::-1])
    _assert_halves_match_full(a)


def test_trimmed_and_rademacher_toeplitz_take_the_halves():
    trimmed = _entries(MatrixKind.BT, 400, 8, eps=0.1)
    assert trimmed.shape == (360, 360)
    _assert_halves_match_full(trimmed)
    _assert_halves_match_full(_entries(MatrixKind.BT, 101, 9, Distribution.RADEMACHER))


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.array([[-2.5]]),
        lambda: _entries(MatrixKind.BH, 60, 4),
        lambda: _random_symmetric(50, 6),
        _one_ulp_off_centrosymmetric,
    ],
    ids=["n1", "bh", "random", "one-ulp-off"],
)
def test_other_input_keeps_the_full_solve_bytes(make):
    a = make()
    values, route = symmetric_eigenvalues(a, return_route=True)
    assert route == "full"
    assert np.array_equal(values, np.linalg.eigvalsh(a))
    assert np.array_equal(symmetric_eigenvalues(a), values)
