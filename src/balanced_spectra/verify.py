"""Self-check suites behind the ``verify`` CLI subcommand.

Each suite runs a battery of fast invariant checks and reports one line per
check; the full acceptance battery lives in the test suite, these are the
desk-size versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigh, limits, spectra
from .inputs import Distribution, derive_seed, generate_sequence, truncate_standardize
from .errors import DegenerateTruncationError, InvalidArgumentError
from .matgen import MatrixKind, build_matrix, needed_length, occurrence_count, principal_submatrix
from .words import Word, enumerate_pair_matched_words, is_symmetric, linear_forms


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _check(results, suite, name, passed, detail=""):
    results.append(CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail))


def suite_inputs() -> list[CheckResult]:
    out: list[CheckResult] = []
    seq = generate_sequence(Distribution.RADEMACHER, 1000, 7)
    _check(out, "inputs", "rademacher support", set(np.unique(seq.values)) <= {-1.0, 1.0})
    again = generate_sequence(Distribution.RADEMACHER, 1000, 7)
    _check(out, "inputs", "seeded determinism", np.array_equal(seq.values, again.values))
    normal = generate_sequence(Distribution.STANDARD_NORMAL, 100_000, 11)
    m, v = normal.values.mean(), normal.values.var()
    _check(out, "inputs", "normal standardization", abs(m) < 5 / math.sqrt(1e5) and abs(v - 1) < 10 / math.sqrt(1e5), f"mean={m:.4f} var={v:.4f}")
    fixed = truncate_standardize(seq, 1.0)
    _check(out, "inputs", "rademacher truncation fixed point", np.array_equal(fixed.values, seq.values))
    trunc = truncate_standardize(normal, 3.0)
    _check(out, "inputs", "normal truncation re-standardizes", abs(trunc.values.var() - 1) < 0.02, f"var={trunc.values.var():.4f}")
    try:
        truncate_standardize(seq, 0.5)
        _check(out, "inputs", "degenerate truncation raises", False)
    except DegenerateTruncationError:
        _check(out, "inputs", "degenerate truncation raises", True)
    return out


def suite_matgen() -> list[CheckResult]:
    out: list[CheckResult] = []
    n = 37
    for kind in (MatrixKind.T, MatrixKind.H):
        total = sum(
            1.0 / occurrence_count(kind, n, i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
        _check(out, "matgen", f"occurrence reciprocal sum ({kind.value})", abs(total - (2 * n - 1)) < 1e-9, f"sum={total:.9f}")
    for kind in (MatrixKind.BT, MatrixKind.BH):
        seq = generate_sequence(Distribution.RADEMACHER, needed_length(kind, 50), 3)
        mat = build_matrix(kind, seq, 50)
        _check(out, "matgen", f"symmetry ({kind.value})", np.array_equal(mat.entries, mat.entries.T))
        tr2 = spectra.trace_power(mat, 2) / 50
        _check(out, "matgen", f"rademacher second trace moment ({kind.value})", abs(tr2 - 99 / 50) < 1e-12, f"value={tr2:.12f}")
    seq = generate_sequence(Distribution.STANDARD_NORMAL, needed_length(MatrixKind.BH, 400), 5)
    sub = principal_submatrix(build_matrix(MatrixKind.BH, seq, 400), 0.1)
    _check(out, "matgen", "bh trim keeps rows 21..380", sub.n == 360 and sub.parent_n == 400)
    seq = generate_sequence(Distribution.STANDARD_NORMAL, 400, 5)
    sub = principal_submatrix(build_matrix(MatrixKind.BT, seq, 400), 0.1)
    _check(out, "matgen", "bt trim keeps 360 rows", sub.n == 360)
    return out


def suite_words() -> list[CheckResult]:
    out: list[CheckResult] = []
    double_fact = lambda k: math.prod(range(1, 2 * k, 2))
    for k in range(1, 6):
        ws = enumerate_pair_matched_words(k)
        _check(out, "words", f"count k={k}", len(ws) == double_fact(k), f"{len(ws)}")
        sym = sum(1 for w in ws if is_symmetric(w))
        _check(out, "words", f"symmetric count k={k}", sym == math.factorial(k), f"{sym}")
        # each word's forms once per pattern, one word at a time
        t_closed = h_match = sums_ok = True
        for w in ws:
            (forms_t, closed_t), (forms_h, closed_h) = linear_forms(w, MatrixKind.T), linear_forms(w, MatrixKind.H)
            t_closed &= closed_t
            h_match &= closed_h == is_symmetric(w)
            sums_ok &= all(sum(f.coeffs) == 1 for f in forms_t + forms_h)
        _check(out, "words", f"toeplitz closure k={k}", t_closed)
        _check(out, "words", f"hankel closure iff symmetric k={k}", h_match)
        _check(out, "words", f"affine coefficient sums k={k}", sums_ok)
    return out


def suite_spectra() -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(17)
    for trial in range(3):
        a = rng.standard_normal((40, 40))
        a = a + a.T
        values = eigh.symmetric_eigenvalues(a)
        gap = max(
            abs(float(np.sum(values**h)) - spectra.trace_power(a, h)) / float(np.sum(np.abs(values) ** h))
            for h in (3, 4)
        )
        _check(out, "spectra", f"eigenvalue power sums vs Tr(A^3), Tr(A^4) #{trial}", gap < 1e-10, f"relative gap {gap:.1e}")
    a = rng.standard_normal((30, 30))
    a = a + a.T
    base = eigh.symmetric_eigenvalues(a)
    shifted = eigh.symmetric_eigenvalues(a + 2.5 * np.eye(30))
    scaled = eigh.symmetric_eigenvalues(1.75 * a)
    _check(out, "spectra", "shift covariance", np.max(np.abs(shifted - (base + 2.5))) < 1e-9)
    _check(out, "spectra", "scale covariance", np.max(np.abs(scaled - 1.75 * base)) < 1e-9)

    seq = generate_sequence(Distribution.STANDARD_NORMAL, 100, 23)
    mat = build_matrix(MatrixKind.BT, seq, 100)
    spec = spectra.eigenvalues_symmetric(mat)
    _check(out, "spectra", "trace identity", abs(spec.eigenvalues.sum() - np.trace(mat.entries)) < 1e-8 * 100 * max(1, np.abs(mat.entries).max()))
    hw_ok = True
    for trial in range(20):
        s1 = generate_sequence(Distribution.STANDARD_NORMAL, 59, derive_seed(100, trial))
        s2 = generate_sequence(Distribution.STANDARD_NORMAL, 59, derive_seed(200, trial))
        a1 = build_matrix(MatrixKind.BT, s1, 30)
        a2 = build_matrix(MatrixKind.BH, s2, 30)
        lhs, rhs = spectra.hoffman_wielandt_gap(a1, a2)
        hw_ok &= lhs <= rhs + 1e-8
    _check(out, "spectra", "hoffman-wielandt on 20 pairs", hw_ok)

    d0 = spectra.EmpiricalDistribution.from_values([0.0])
    d3 = spectra.EmpiricalDistribution.from_values([0.3])
    d_far = spectra.EmpiricalDistribution.from_values([2.0])
    _check(out, "spectra", "levy point masses", abs(spectra.levy_distance(d0, d3) - 0.3) < 1e-9 and abs(spectra.levy_distance(d0, d_far) - 1.0) < 1e-9)
    _check(out, "spectra", "levy identity", spectra.levy_distance(d0, d0) == 0.0)

    prop_ok = True
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(30, 60))
        seq = generate_sequence(Distribution.STANDARD_NORMAL, 2 * n - 1, derive_seed(300, trial))
        mat = build_matrix(MatrixKind.BH, seq, n)
        m = int(rng.integers(max(2, n // 3), n))
        keep = np.sort(rng.choice(n, size=m, replace=False))
        sub = mat.entries[np.ix_(keep, keep)]
        fa = spectra.EmpiricalDistribution.from_values(eigh.symmetric_eigenvalues(mat.entries))
        fb = spectra.EmpiricalDistribution.from_values(eigh.symmetric_eigenvalues(sub))
        bound = min(n / m - 1.0, 1.0)
        prop_ok &= spectra.levy_distance(fa, fb) <= bound + 1e-9
    _check(out, "spectra", "submatrix levy bound on 10 draws", prop_ok)

    seq = generate_sequence(Distribution.STANDARD_NORMAL, 200, derive_seed(400, 0))
    mat = build_matrix(MatrixKind.BT, seq, 200)
    full = spectra.EmpiricalDistribution.from_spectrum(spectra.eigenvalues_symmetric(mat))
    trim_ok = True
    for eps in (0.1, 0.2):
        sub = principal_submatrix(mat, eps)
        fsub = spectra.EmpiricalDistribution.from_spectrum(spectra.eigenvalues_symmetric(sub))
        trim_ok &= spectra.levy_distance(full, fsub) <= eps + 1e-9
    _check(out, "spectra", "trim levy bound (eps 0.1, 0.2)", trim_ok)

    # symmetric Toeplitz input is centrosymmetric: two half-size solves against one full one
    halves_ok, worst = True, 0.0
    for kind, n in ((MatrixKind.T, 50), (MatrixKind.BT, 51)):
        seq = generate_sequence(Distribution.STANDARD_NORMAL, needed_length(kind, n), derive_seed(500, n))
        a = build_matrix(kind, seq, n).entries
        values, route = eigh.symmetric_eigenvalues(a, return_route=True)
        gap = float(np.max(np.abs(values - np.linalg.eigvalsh(a)))) / max(1.0, float(np.max(np.abs(a))))
        halves_ok &= route == "halves" and gap <= 1e-13
        worst = max(worst, gap)
    _check(out, "spectra", "centrosymmetric halves vs full eigvalsh (t n=50, bt n=51)", halves_ok, f"relative gap {worst:.1e}")
    return out


def suite_limits() -> list[CheckResult]:
    out: list[CheckResult] = []
    aa = Word("aa")
    for kind in (MatrixKind.T, MatrixKind.H):
        v = limits.finite_n_word_moment(aa, kind, 57).value
        _check(out, "limits", f"finite-n aa exact ({kind.value})", abs(v - 113 / 57) < 1e-12, f"{v:.12f}")
    eps = 0.1
    closed = 2 * (1 - eps + eps * math.log(eps))
    q = limits.truncated_word_moment(aa, MatrixKind.T, eps, "quadrature", samples=4096)
    _check(out, "limits", "truncated closed form (quadrature)", abs(q.value - closed) < 1e-4, f"{q.value:.7f} vs {closed:.7f}")
    mc = limits.limit_word_moment(aa, MatrixKind.T, "mc-ladder", samples=200_000, seed=1)
    _check(out, "limits", "Monte Carlo limit within 4 bars of 2", abs(mc.value - 2.0) <= 4 * mc.std_error,
           f"{mc.value:.12g} +- {mc.std_error:.2g}, z = {(mc.value - 2.0) / mc.std_error:+.2f}")
    v20 = limits.finite_n_word_moment(Word("abab"), MatrixKind.H, 20).value
    v40 = limits.finite_n_word_moment(Word("abab"), MatrixKind.H, 40).value
    _check(out, "limits", "hankel non-symmetric decay", v40 < v20, f"{v20:.4f} -> {v40:.4f}")
    bound_ok = True
    for k in (1, 2):
        for e in (0.1, 0.2):
            s = sum(
                limits.truncated_word_moment(w, MatrixKind.T, e, "quadrature", samples=4096).value
                for w in enumerate_pair_matched_words(k)
            )
            bound_ok &= s <= limits.truncated_moment_bound(k, e)
    _check(out, "limits", "truncated moment bound (k<=2)", bound_ok)
    odd = limits.limit_moment_of_order(3, MatrixKind.T)
    _check(out, "limits", "odd moments vanish", odd.value == 0.0 and odd.method is limits.Method.ANALYTIC)
    return out


SUITES = {
    "inputs": suite_inputs,
    "matgen": suite_matgen,
    "words": suite_words,
    "spectra": suite_spectra,
    "limits": suite_limits,
}


def run_suites(names: list[str] | None = None) -> list[CheckResult]:
    chosen = list(SUITES) if not names or names == ["all"] else names
    unknown = [name for name in chosen if name not in SUITES]
    if unknown:
        raise InvalidArgumentError(f"unknown suite {unknown[0]!r}")
    return [result for name in chosen for result in SUITES[name]()]
