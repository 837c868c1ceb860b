"""Acceptance battery: one test per release criterion, at stated tolerances.

Each test prints a single ``[PASS]/[FAIL] criterion N`` line (visible with
``pytest -s`` or on failure).  Stochastic criteria run with fixed master
seeds, recorded next to each test; every expected value asserted here was
computed from an independent route (closed forms, exhaustive enumeration,
or the exact finite-size oracle), never from the code path under test.
"""

import math
import time

import numpy as np
import pytest

from balanced_spectra.eigh import symmetric_eigenvalues
from balanced_spectra.experiments import simulate_spectra, trace_moment_samples
from balanced_spectra.inputs import Distribution, derive_seed, generate_sequence
from balanced_spectra.limits import (
    finite_n_word_moment,
    limit_moment,
    limit_word_moment,
    truncated_word_moment,
)
from balanced_spectra.matgen import (
    MatrixKind,
    build_matrix,
    needed_length,
    principal_submatrix,
)
from balanced_spectra.spectra import (
    EmpiricalDistribution,
    eigenvalues_symmetric,
    hoffman_wielandt_gap,
    levy_distance,
    moment,
    pooled_histogram,
    trace_power,
)
from balanced_spectra.words import Word, enumerate_pair_matched_words, is_symmetric, linear_forms


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{mark}] criterion {criterion}: {description}{suffix}")
    assert ok, f"criterion {criterion}: {description}{suffix}"


@pytest.fixture(scope="module")
def m4_toeplitz_quadrature():
    """Order-4 balanced-Toeplitz limit by the shifted lattice rule (shared)."""
    return limit_moment(2, MatrixKind.T, "quadrature")


def test_criterion_01_exact_second_moment():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in (MatrixKind.BT, MatrixKind.BH):
        for n in (50, 400):
            seq = generate_sequence(Distribution.RADEMACHER, needed_length(kind, n), derive_seed(11, n))
            mat = build_matrix(kind, seq, n)
            value = trace_power(mat, 2) / n
            worst = max(worst, abs(value - (2 * n - 1) / n))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "rademacher (1/n)Tr(M^2) equals (2n-1)/n at n in {50, 400}",
        worst < 1e-12 and elapsed < 1.0,
        f"worst dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_limiting_second_moment():
    t0 = time.perf_counter()
    devs = {}
    for kind in (MatrixKind.T, MatrixKind.H):
        quad = limit_moment(1, kind, "quadrature")
        ladder = limit_moment(1, kind, "mc-ladder", seed=derive_seed(2, ord(kind.value[0])))
        devs[f"quad-{kind.value}"] = abs(quad.value - 2.0)
        devs[f"ladder-{kind.value}"] = abs(ladder.value - 2.0)
    elapsed = time.perf_counter() - t0
    ok = (
        devs["quad-t"] <= 1e-3
        and devs["quad-h"] <= 1e-3
        and devs["ladder-t"] <= 0.02
        and devs["ladder-h"] <= 0.02
        and elapsed < 30.0
    )
    detail = ", ".join(f"{k} {v:.2e}" for k, v in devs.items()) + f", {elapsed:.1f}s"
    report(2, "order-2 limit equals 2.00 (quadrature 1e-3, ladder 0.02)", ok, detail)


def test_criterion_03_truncated_closed_form():
    eps = 0.1
    closed = 2.0 * (1.0 - eps + eps * math.log(eps))  # 1.33948...
    trunc = truncated_word_moment(Word("aa"), MatrixKind.T, eps, "mc", seed=31)
    ladder = limit_word_moment(Word("aa"), MatrixKind.T, "mc-ladder", seed=31)
    ok = abs(trunc.value - closed) <= 0.01 and abs(ladder.value - 2.0) <= 0.01 * 2.0
    report(
        3,
        "eps=0.1 trim matches 1.3395 within 0.01; ladder recovers 2.0 within 1%",
        ok,
        f"trunc {trunc.value:.5f} vs {closed:.5f}; ladder {ladder.value:.5f}",
    )


def test_criterion_04_word_combinatorics():
    t0 = time.perf_counter()
    counts_ok = True
    for k, expected_total, expected_sym in ((2, 3, 2), (3, 15, 6), (4, 105, 24)):
        ws = enumerate_pair_matched_words(k)
        counts_ok &= len(ws) == expected_total
        counts_ok &= sum(1 for w in ws if is_symmetric(w)) == expected_sym
    closure_ok = True
    for k in range(1, 7):
        for w in enumerate_pair_matched_words(k):
            closure_ok &= linear_forms(w, MatrixKind.T)[1]
            closure_ok &= linear_forms(w, MatrixKind.H)[1] == is_symmetric(w)
    elapsed = time.perf_counter() - t0
    report(
        4,
        "counts (2k-1)!!, symmetric counts k!, closure laws exhaustive k<=6",
        counts_ok and closure_ok and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_05_fourth_moment_consistency(m4_toeplitz_quadrature):
    t0 = time.perf_counter()
    quad = m4_toeplitz_quadrature
    ladder = limit_moment(2, MatrixKind.T, "mc-ladder", seed=55)
    method_gap = abs(quad.value - ladder.value) / quad.value
    oracle_gaps = []
    for n in (40, 80, 160):
        total = sum(
            finite_n_word_moment(w, MatrixKind.T, n).value
            for w in enumerate_pair_matched_words(2)
        )
        oracle_gaps.append(abs(total - quad.value) / quad.value)
    elapsed = time.perf_counter() - t0
    trending = oracle_gaps[0] > oracle_gaps[1] > oracle_gaps[2]
    ok = method_gap <= 0.05 and trending and oracle_gaps[-1] <= 0.10 and elapsed < 300.0
    report(
        5,
        "order-4 limit: quadrature vs ladder within 5%, oracle trend within 10%",
        ok,
        f"quad {quad.value:.4f}, ladder {ladder.value:.4f} (gap {method_gap:.2%}), "
        f"oracle gaps {['%.2f%%' % (g * 100) for g in oracle_gaps]}, {elapsed:.0f}s",
    )


def test_criterion_06_empirical_vs_limit(m4_toeplitz_quadrature):
    # fixed evaluation seed 1004: a 15-rep batch has sd(beta_3) ~ 0.11, so the
    # |beta_3| <= 0.1 gate is only meaningful under the criterion's fixed seed
    master_seed = 1004
    t0 = time.perf_counter()
    spectra = simulate_spectra(
        MatrixKind.BT, Distribution.STANDARD_NORMAL, 400, 15, master_seed, threads=1
    )
    solve_time = time.perf_counter() - t0
    b2 = float(np.mean([moment(s, 2) for s in spectra]))
    b3 = float(np.mean([moment(s, 3) for s in spectra]))
    b4 = float(np.mean([moment(s, 4) for s in spectra]))
    m4 = m4_toeplitz_quadrature.value
    ok = (
        abs(b2 - 2.0) <= 0.02 * 2.0
        and abs(b3) <= 0.1
        and abs(b4 - m4) <= 0.15 * m4
        and solve_time < 60.0
    )
    report(
        6,
        "n=400 normal x15: beta2 ~ 2.0 (2%), |beta3| <= 0.1, beta4 ~ m4 (15%), solves < 60s",
        ok,
        f"beta2 {b2:.4f}, beta3 {b3:+.4f}, beta4 {b4:.3f} vs {m4:.3f}, {solve_time:.1f}s",
    )


def test_criterion_07_inequality_suites():
    slack = 1e-9
    kinds = list(MatrixKind)

    hw_violation = -math.inf
    for trial in range(100):
        k1, k2 = kinds[trial % 4], kinds[(trial // 4) % 4]
        s1 = generate_sequence(Distribution.STANDARD_NORMAL, needed_length(k1, 50), derive_seed(71, trial))
        s2 = generate_sequence(Distribution.STANDARD_NORMAL, needed_length(k2, 50), derive_seed(72, trial))
        lhs, rhs = hoffman_wielandt_gap(build_matrix(k1, s1, 50), build_matrix(k2, s2, 50))
        hw_violation = max(hw_violation, lhs - rhs)

    rng = np.random.default_rng(73)
    prop_violation = -math.inf
    for trial in range(50):
        n = int(rng.integers(40, 120))
        kind = kinds[trial % 4]
        seq = generate_sequence(Distribution.STANDARD_NORMAL, needed_length(kind, n), derive_seed(74, trial))
        mat = build_matrix(kind, seq, n)
        m = int(rng.integers(max(2, n // 4), n + 1))
        keep = np.sort(rng.choice(n, size=m, replace=False))
        fa = EmpiricalDistribution.from_values(symmetric_eigenvalues(mat.entries))
        fb = EmpiricalDistribution.from_values(symmetric_eigenvalues(mat.entries[np.ix_(keep, keep)]))
        bound = min(n / m - 1.0, 1.0)
        prop_violation = max(prop_violation, levy_distance(fa, fb) - bound)

    seq = generate_sequence(Distribution.STANDARD_NORMAL, 400, derive_seed(75, 0))
    mat = build_matrix(MatrixKind.BT, seq, 400)
    full = EmpiricalDistribution.from_spectrum(eigenvalues_symmetric(mat))
    trim_violation = -math.inf
    for eps in (0.05, 0.1, 0.2):
        sub = principal_submatrix(mat, eps)
        fsub = EmpiricalDistribution.from_spectrum(eigenvalues_symmetric(sub))
        trim_violation = max(trim_violation, levy_distance(full, fsub) - eps)

    ok = hw_violation <= slack and prop_violation <= slack and trim_violation <= slack
    report(
        7,
        "Hoffman-Wielandt x100, submatrix Levy bound x50, trim bound at n=400",
        ok,
        f"worst violations: hw {hw_violation:.2e}, prop {prop_violation:.2e}, trim {trim_violation:.2e}",
    )


def test_criterion_08_hankel_nonsymmetric_vanishing():
    non_symmetric = [w for w in enumerate_pair_matched_words(2) if not is_symmetric(w)]
    symmetric = [w for w in enumerate_pair_matched_words(2) if is_symmetric(w)]
    ok = True
    details = []
    for w in non_symmetric:
        v30 = finite_n_word_moment(w, MatrixKind.H, 30).value
        v60 = finite_n_word_moment(w, MatrixKind.H, 60).value
        for n, v in ((30, v30), (60, v60)):
            floor = min(finite_n_word_moment(s, MatrixKind.H, n).value for s in symmetric)
            ok &= v < 0.25 * floor
        ok &= v60 < v30
        details.append(f"{w.letters}: {v30:.4f} -> {v60:.4f}")
    report(8, "non-symmetric hankel words decay and stay below 25% of symmetric floor", ok, "; ".join(details))


def test_criterion_09_variance_decay():
    # stochastic acceptance with fixed master seed 42, bounded (rademacher) input
    master_seed = 42
    v200 = trace_moment_samples(MatrixKind.BT, Distribution.RADEMACHER, 200, 50, master_seed, 4, eps=0.1)
    v400 = trace_moment_samples(MatrixKind.BT, Distribution.RADEMACHER, 400, 50, master_seed, 4, eps=0.1)
    ratio = float(v200.var(ddof=1) / v400.var(ddof=1))
    report(
        9,
        "sample variance of (1/n)Tr((BT^0.1)^4) drops by a factor in [2, 8] from n=200 to 400",
        2.0 <= ratio <= 8.0,
        f"ratio {ratio:.2f}",
    )


def test_criterion_10_figure_reproduction():
    master_seed = 42
    pooled = {}
    audit_worst = 0.0
    for dist in (Distribution.STANDARD_NORMAL, Distribution.RADEMACHER):
        for kind in (MatrixKind.T, MatrixKind.BT, MatrixKind.H, MatrixKind.BH):
            spectra = simulate_spectra(kind, dist, 400, 15, master_seed)
            hist = pooled_histogram(spectra, bins=61, hist_range=None)
            audit_worst = max(audit_worst, abs(float(np.sum(hist.densities * hist.widths)) - 1.0))
            pooled[(dist, kind)] = np.concatenate([s.eigenvalues for s in spectra])
    structure_ok = True
    details = []
    for dist in (Distribution.STANDARD_NORMAL, Distribution.RADEMACHER):
        for balanced, unbalanced in ((MatrixKind.BT, MatrixKind.T), (MatrixKind.BH, MatrixKind.H)):
            b, u = pooled[(dist, balanced)], pooled[(dist, unbalanced)]
            tail_b = float(np.mean(np.abs(b) > 2.5))
            tail_u = float(np.mean(np.abs(u) > 2.5))
            center_b = float(np.mean(np.abs(b) <= 0.2 * b.std()))
            center_u = float(np.mean(np.abs(u) <= 0.2 * u.std()))
            structure_ok &= tail_b > 2.0 * tail_u and center_b > center_u
            details.append(
                f"{dist.value[:4]}/{balanced.value}: tail {tail_b:.4f}>{tail_u:.4f}, "
                f"center {center_b:.3f}>{center_u:.3f}"
            )
    ok = audit_worst <= 1e-9 and structure_ok
    report(
        10,
        "8 pooled histograms normalize to 1 (1e-9); balanced visibly heavier-tailed and more peaked",
        ok,
        f"audit {audit_worst:.1e}; " + "; ".join(details),
    )
