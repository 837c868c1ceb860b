import math

import numpy as np
import pytest

from balanced_spectra.errors import DegenerateTruncationError, InvalidArgumentError
from balanced_spectra.inputs import (
    Distribution,
    derive_seed,
    generate_sequence,
    truncate_standardize,
    truncation_moments,
)


def test_rademacher_support():
    seq = generate_sequence(Distribution.RADEMACHER, 4, 123)
    assert set(np.unique(seq.values)) <= {-1.0, 1.0}
    assert seq.length == 4


@pytest.mark.parametrize("dist", list(Distribution))
def test_seeded_determinism(dist):
    a = generate_sequence(dist, 1000, 77)
    b = generate_sequence(dist, 1000, 77)
    assert np.array_equal(a.values, b.values)
    c = generate_sequence(dist, 1000, 78)
    assert not np.array_equal(a.values, c.values)


def test_zero_length_rejected():
    with pytest.raises(InvalidArgumentError):
        generate_sequence(Distribution.STANDARD_NORMAL, 0, 1)


@pytest.mark.parametrize("dist", list(Distribution))
def test_standardized_sample_moments(dist):
    n = 1_000_000
    seq = generate_sequence(dist, n, 2023)
    assert abs(seq.values.mean()) < 3 / math.sqrt(n) * 3
    assert abs(seq.values.var() - 1.0) < 0.02


def test_derive_seed_stable_and_spread():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 1) != derive_seed(43, 1)
    with pytest.raises(InvalidArgumentError):
        derive_seed(42, -1)


def test_rademacher_truncation_identity():
    seq = generate_sequence(Distribution.RADEMACHER, 100, 5)
    out = truncate_standardize(seq, 1.0)
    assert np.array_equal(out.values, seq.values)


def test_rademacher_truncation_below_support_degenerates():
    seq = generate_sequence(Distribution.RADEMACHER, 10, 5)
    with pytest.raises(DegenerateTruncationError):
        truncate_standardize(seq, 0.99)


def test_normal_truncation_boundedness():
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 100_000, 9)
    t = 2.0
    mu, sigma = truncation_moments(Distribution.STANDARD_NORMAL, t)
    out = truncate_standardize(seq, t)
    assert np.max(np.abs(out.values)) <= (t + abs(mu)) / sigma + 1e-12


def test_normal_truncation_restandardizes():
    n = 1_000_000
    seq = generate_sequence(Distribution.STANDARD_NORMAL, n, 31)
    out = truncate_standardize(seq, 3.0)
    assert abs(out.values.mean()) < 5 / math.sqrt(n)
    assert abs(out.values.var() - 1.0) < 10 / math.sqrt(n)


def test_truncation_moments_against_numeric_integral():
    # independent oracle: dense Simpson integration of the normal density
    for t in (0.8, 1.5, 2.0, 3.0):
        x = np.linspace(-t, t, 20001)
        density = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        var = float(np.trapezoid(x * x * density, x))
        _, sigma = truncation_moments(Distribution.STANDARD_NORMAL, t)
        assert abs(sigma**2 - var) < 1e-8


def test_uniform_truncation_closed_form():
    # variance of U[-sqrt(3), sqrt(3)] clipped at t is t^3/(3 sqrt 3)
    t = 1.0
    _, sigma = truncation_moments(Distribution.BOUNDED_UNIFORM, t)
    assert abs(sigma**2 - t**3 / (3 * math.sqrt(3))) < 1e-15
    _, sigma_full = truncation_moments(Distribution.BOUNDED_UNIFORM, 2.0)
    assert sigma_full == 1.0


def test_invalid_truncation_level():
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 10, 1)
    for t in (0.0, math.nan):  # NaN used to pass the t <= 0 check and give an all-NaN sequence
        with pytest.raises(InvalidArgumentError):
            truncate_standardize(seq, t)
    # at t = inf nothing is clipped: every law keeps sd 1 (the normal's used to read inf * 0 = NaN)
    for dist in Distribution:
        assert truncation_moments(dist, math.inf) == (0.0, 1.0)
    assert np.array_equal(truncate_standardize(seq, math.inf).values, seq.values)


def test_values_are_read_only():
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 10, 1)
    with pytest.raises(ValueError):
        seq.values[0] = 7.0
