import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from balanced_spectra import limits as limits_module
from balanced_spectra.errors import InvalidArgumentError, ResourceLimitError
from balanced_spectra.inputs import derive_seed
from balanced_spectra.matgen import MatrixKind, occurrence_draw, submatrix_window, trimmed_interval
from balanced_spectra.limits import (
    LIMIT_METHODS,
    Method,
    _WordContext,
    _finite_n_sum,
    _lattice,
    _lattice_size,
    _mc_truncated,
    _weight_on,
    compare_empirical_limit,
    finite_n_word_moment,
    limit_moment,
    limit_moment_of_order,
    limit_word_moment,
    truncated_moment_bound,
    truncated_word_moment,
)
from balanced_spectra.words import MAX_K, Word, dihedral_representative, enumerate_pair_matched_words, is_symmetric
from limit_references import AABB, AABBCC, K3_NONCROSSING_WORDS, TOEPLITZ_K2_WORDS, TOEPLITZ_K3_CLASSES, TOTALS

AA = Word("aa")


def closed_form_truncated_pair(eps):
    """Exact integral of 1/(1-|x-y|) over the square [0, 1-eps]^2."""
    return 2.0 * (1.0 - eps + eps * math.log(eps))


# --- finite-n oracle -------------------------------------------------------


@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
@pytest.mark.parametrize("n", [1, 2, 10, 57])
def test_finite_n_pair_word_exact(kind, n):
    est = finite_n_word_moment(AA, kind, n)
    assert est.value == pytest.approx((2 * n - 1) / n, abs=1e-13)
    assert est.std_error == 0.0
    assert est.method is Method.FINITE_N


def brute_force_circuit_sum(word, kind, n, window=None):
    """Direct circuit enumeration using only the pairing constraints.

    Walks every map of positions into the index window (default {1..n}) with
    a closed end, keeps those whose matched steps satisfy the pattern's pair
    constraint, and sums the reciprocal occurrence products straight from the
    trace expansion.  Returns the sum and the number of circuits kept.
    """
    link = kind.link
    lo, hi = window or (1, n)
    pairs = [(i, j) for i, j in word.pairing.items() if i < j]
    length = word.length
    total, accepted = 0.0, 0
    for pi in itertools.product(range(lo, hi + 1), repeat=length):
        walk = list(pi) + [pi[0]]
        ok = True
        for i, j in pairs:
            if link is MatrixKind.T:
                if walk[i - 1] - walk[i] + walk[j - 1] - walk[j] != 0:
                    ok = False
                    break
            else:
                if walk[i - 1] + walk[i] != walk[j - 1] + walk[j]:
                    ok = False
                    break
        if not ok:
            continue
        prod = 1.0
        for i, j in pairs:
            a, b = walk[i - 1], walk[i]
            if link is MatrixKind.T:
                occ = n - abs(a - b)
            else:
                occ = min(a + b - 1, 2 * n - a - b + 1)
            prod *= occ / n
        total += 1.0 / prod
        accepted += 1
    return total / n ** (word.k + 1), accepted


@pytest.mark.parametrize("letters", ["aa", "aabb", "abab", "abba", "abcabc", "abacbc", "aabcbc", "abacbdcd"])
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H, MatrixKind.BT, MatrixKind.BH])
def test_finite_n_matches_brute_force_circuits(letters, kind):
    # abab, abacbc, aabcbc and abacbdcd do not close under Hankel, so the oracle
    # solves one coordinate x_p from the closure; for abacbdcd it reads
    # x_0 = x_2 - x_3 + x_4, which can leave the window.  eps=0.5 trims the
    # window at every n here under Toeplitz and at n >= 4 under Hankel.  Each
    # kept circuit has exactly one generating assignment, so the oracle's kept
    # rows count the circuits
    word = Word(letters)
    for n in (2, 3, 5, 6) if word.k < 3 else (2, 3, 4):
        for eps in (0.0, 0.5):
            window = submatrix_window(kind, n, eps)
            est = finite_n_word_moment(word, kind, n, eps)
            assert est.params["window"] == list(window)
            expected, circuits = brute_force_circuit_sum(word, kind, n, window)
            assert est.value == pytest.approx(expected, abs=1e-12)
            assert est.params["kept"] == circuits, (n, eps)


@pytest.mark.parametrize("eps", [0.0, 0.25])
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H, MatrixKind.BT, MatrixKind.BH])
def test_oracle_does_not_depend_on_block_size(monkeypatch, kind, eps):
    # with 7-row blocks the head loop holds the leading axes, where the default
    # block spans every axis; the untrimmed window of 9 indices is cut into a
    # slice of 7 values and a partial one of 2, and the trimmed window of 7
    # spans the last axis whole and cuts the next one value at a time
    enumerate_sum = _finite_n_sum.__wrapped__
    n = 9
    words = [w.letters for k in (1, 2, 3) for w in enumerate_pair_matched_words(k)]
    whole = {w: enumerate_sum(w, kind, n, eps) for w in words}
    monkeypatch.setattr(limits_module, "_BLOCK", 7)
    for w in words:
        value, kept = enumerate_sum(w, kind, n, eps)
        assert value == pytest.approx(whole[w][0], rel=1e-13, abs=0.0), w
        assert kept == whole[w][1], w


@pytest.mark.parametrize("eps", [0.0, 0.25])
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H, MatrixKind.BT, MatrixKind.BH])
def test_uncached_oracle_is_constant_on_dihedral_classes(kind, eps):
    # a circuit read from another start or backwards is a circuit of the rotated
    # or reversed word, so each member's own enumeration (the private function
    # itself, not its cache) matches its class representative's; at n = 8 eps
    # 0.25 trims the window under both patterns
    enumerate_sum = _finite_n_sum.__wrapped__
    n = 8
    assert submatrix_window(kind, n, eps) != (1, n) or eps == 0.0
    for k in (1, 2, 3, 4):
        reps = {}
        for word in enumerate_pair_matched_words(k):
            rep = dihedral_representative(word).letters
            if rep not in reps:
                reps[rep] = enumerate_sum(rep, kind, n, eps)
            value, kept = enumerate_sum(word.letters, kind, n, eps)
            assert value == pytest.approx(reps[rep][0], rel=1e-13, abs=0.0), (word, rep)
            assert kept == reps[rep][1], (word, rep)


def test_oracle_class_members_get_their_own_estimates():
    a = finite_n_word_moment(Word("aabcbc"), MatrixKind.BT, 9, 0.25)
    b = finite_n_word_moment(Word("abcbca"), MatrixKind.BT, 9, 0.25)  # rotated by one: a cache hit
    assert (a.word, b.word) == (Word("aabcbc"), Word("abcbca"))
    assert a.value == b.value
    assert a.params == b.params and a.params is not b.params
    lo, hi = a.params["window"]
    assert (lo, hi) == (1, 7)
    assert a.params["rows"] == (hi - lo + 1) ** 4 and 0 < a.params["kept"] < a.params["rows"]
    assert a.params["class"] == "aabcbc"
    a.params["kept"] = -1
    again = finite_n_word_moment(Word("abcbca"), MatrixKind.BT, 9, 0.25)
    assert b.params["kept"] == again.params["kept"] > 0
    # a non-closing Hankel word enumerates win^k rows, with its closure solved for one coordinate
    abacbc = finite_n_word_moment(Word("abacbc"), MatrixKind.H, 9)
    assert abacbc.params["rows"] == 9**3 and 0 < abacbc.params["kept"] < abacbc.params["rows"]
    assert abacbc.params["class"] == "abacbc"


def test_oracle_refusals_hold_after_the_class_is_cached(monkeypatch):
    cached = finite_n_word_moment(Word("aabb"), MatrixKind.T, 10)
    with pytest.raises(ResourceLimitError, match=r"2000\^3"):
        finite_n_word_moment(Word("abba"), MatrixKind.T, 2000)
    with pytest.raises(InvalidArgumentError):
        finite_n_word_moment(Word("abba"), MatrixKind.T, 0)
    with pytest.raises(InvalidArgumentError):
        finite_n_word_moment(Word("abba"), MatrixKind.T, 10, eps=-0.5)
    # the very request whose sum is cached is refused once the budget falls below it
    monkeypatch.setattr(limits_module, "ENUMERATION_BUDGET", cached.params["rows"] - 1)
    for letters in ("aabb", "abba"):
        with pytest.raises(ResourceLimitError, match=r"10\^3"):
            finite_n_word_moment(Word(letters), MatrixKind.T, 10)


def test_finite_n_nonsymmetric_hankel_decays():
    values = [finite_n_word_moment(Word("abab"), MatrixKind.H, n).value for n in (10, 20, 40)]
    assert values[0] > values[1] > values[2] > 0.0


def test_finite_n_nonsymmetric_hankel_decays_all_words_k3():
    # every non-symmetric word of length 6 loses mass from n=30 to n=60
    for w in enumerate_pair_matched_words(3):
        if is_symmetric(w):
            continue
        v30 = finite_n_word_moment(w, MatrixKind.H, 30).value
        v60 = finite_n_word_moment(w, MatrixKind.H, 60).value
        assert v60 < v30, w.letters


def test_finite_n_budget_guard():
    # the guard counts enumerated rows: win^(k+1) for a closing word ...
    with pytest.raises(ResourceLimitError, match=r"2000\^3"):
        finite_n_word_moment(Word("aabb"), MatrixKind.T, 2000)
    # ... and win^k when the closure is solved for one coordinate (1001^2 rows)
    assert 0.0 < finite_n_word_moment(Word("abab"), MatrixKind.H, 1001).value < 1.0
    with pytest.raises(InvalidArgumentError):
        finite_n_word_moment(AA, MatrixKind.T, 0)
    with pytest.raises(InvalidArgumentError):  # the window would run past n
        finite_n_word_moment(AA, MatrixKind.T, 10, eps=-0.5)


def test_quadrature_budget_guard(monkeypatch):
    # 10^15 points would make a lattice of 6.25e13 points per shift: refused
    # before its prime is sought, its vector built or any point made
    def no_points(*args, **kwargs):
        raise AssertionError("an over-budget lattice must be refused before any point is made")

    for name in ("_lattice_size", "_lattice", "_mc_truncated", "simulate_spectra"):
        monkeypatch.setattr(limits_module, name, no_points)
    huge = 10**15
    with pytest.raises(ResourceLimitError, match="quadrature at k=2 .* GiB per batch"):
        limit_word_moment(Word("aabb"), MatrixKind.T, "quadrature", samples=huge)
    with pytest.raises(ResourceLimitError, match="GiB per batch"):
        limit_moment(1, MatrixKind.T, "quadrature", samples=huge, threads=1)
    with pytest.raises(ResourceLimitError, match="GiB per batch"):
        truncated_word_moment(AA, MatrixKind.H, 0.2, "quadrature", samples=huge)
    with pytest.raises(ResourceLimitError, match="GiB per batch"):
        compare_empirical_limit(MatrixKind.BT, 10, 2, 1, 0, method="quadrature", samples=huge)


def _largest_prime_up_to(n):
    return next(p for p in range(n, 2, -1) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def test_quadrature_budget_edge_and_int64_products(monkeypatch):
    # the edge at k = 1: LATTICE_POINT_FLOATS float64 per point of a shift and
    # 3k + 12 = 15 per row of one block, 2^30 bytes in all; a prime lattice
    # size n is what ceil(samples / BATCHES) = n asks for
    floats = limits_module.LATTICE_POINT_FLOATS
    fits = _largest_prime_up_to((limits_module.INTEGRAND_BUDGET // 8 - 15 * limits_module._MC_BLOCK) // floats)
    assert _lattice_size(limits_module.BATCHES * fits, limits_module.BATCHES) == fits
    limits_module._plan(1, "quadrature", limits_module.BATCHES * fits)
    with pytest.raises(ResourceLimitError, match="GiB per batch"):
        limits_module._plan(1, "quadrature", limits_module.BATCHES * (fits + 1))
    # the points are built from products of two residues mod n in int64: with
    # the budget lifted, n^2 must still stay below 2^63
    monkeypatch.setattr(limits_module, "INTEGRAND_BUDGET", 2**80)
    below = _largest_prime_up_to(math.isqrt(2**63 - 1))
    limits_module._plan(1, "quadrature", limits_module.BATCHES * below)
    with pytest.raises(ResourceLimitError, match="int64"):
        limits_module._plan(1, "quadrature", limits_module.BATCHES * (below + 1))
    # the default point count passes at every k the words enumerate
    monkeypatch.undo()
    for k in range(1, MAX_K + 1):
        limits_module._plan(k, "quadrature", limits_module.DEFAULT_SAMPLES)


def _reference_lattice(ctx, eps, samples, batches, seed):
    """The lattice estimate on explicit point rows: frac(i z / n + shift) for
    every i < n at once, with one ``_weight_on`` call per shift."""
    lo, hi = trimmed_interval(ctx.link, eps)
    n = _lattice_size(samples, batches)
    z = _lattice(n, ctx.k + 1)
    shifts = np.random.Generator(np.random.PCG64(seed)).random((batches, ctx.k + 1))
    means = np.empty(batches)
    for b, shift in enumerate(shifts):
        u = (np.multiply.outer(z, np.arange(n)) % n / n + shift[:, None]) % 1.0
        means[b] = _weight_on(ctx, u, np.empty_like(u), lo, hi, np.empty((6, n)), np.empty((2, n), bool)).mean()
    return float(means.mean()) * (hi - lo), float(np.std(means, ddof=1) / math.sqrt(batches)) * (hi - lo)


@pytest.mark.parametrize("eps", [0.0, 0.2])
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_lattice_blocks_match_point_rows(monkeypatch, kind, eps):
    # the kernel builds each block's points from one base row and the block's
    # offset; with 7-row blocks a lattice of 37 points is five whole blocks
    # and a ragged one of 2, and a lattice of 5 points one short block
    monkeypatch.setattr(limits_module, "_MC_BLOCK", 7)
    for k in (1, 2, 3):
        for word in enumerate_pair_matched_words(k):
            ctx = _WordContext(word, kind)
            for samples in (10, 74):
                value, se = _mc_truncated(ctx, eps, samples, 2, 3 * k, lattice=True)
                want = _reference_lattice(ctx, eps, samples, 2, 3 * k)
                assert value == pytest.approx(want[0], rel=1e-12, abs=0.0), (word, samples)
                assert se == pytest.approx(want[1], rel=1e-9, abs=1e-15), (word, samples)


def test_quadrature_guard_bounds_the_peak():
    # one uncached call's tracemalloc peak against LATTICE_POINT_FLOATS
    # float64 per point of a shift and 3k + 12 per row of one block, no longer
    # than the shift: the construction of the lattice vector peaks before the
    # kernel allocates its weights and scratch.  The scratch differs by word,
    # the construction by size only, so every other word up to k = 3 and a
    # fifth of those at k = 4 at 10,007 points, and one word per k at 200,003
    _mc_truncated(_WordContext(AA, MatrixKind.T), 0.0, 200, 2, 0, lattice=True)  # numpy's one-time allocations
    for kind, k, samples in itertools.product((MatrixKind.T, MatrixKind.H), (1, 2, 3, 4), (20_000, 400_000)):
        n = _lattice_size(samples, 2)
        block = min(n, limits_module._MC_BLOCK)
        words = enumerate_pair_matched_words(k)
        for word in words[:: 5 if k == 4 else 2] if n < 100_000 else words[:1]:
            _lattice.cache_clear()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _mc_truncated(_WordContext(word, kind), 0.0, samples, 2, 0, lattice=True)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            bound = 8 * (limits_module.LATTICE_POINT_FLOATS * n + (3 * k + 12) * block)
            assert peak <= bound, (kind, n, word, peak / 8)


def test_finite_n_trimmed_window_matches_truncated_integral():
    # n = 200 at eps = 0.2: discrete trimmed sum within 2% of the integral
    for letters in ("aa", "aabb", "abab", "abba"):
        word = Word(letters)
        discrete = finite_n_word_moment(word, MatrixKind.T, 200, eps=0.2).value
        integral = truncated_word_moment(word, MatrixKind.T, 0.2, "quadrature").value
        assert discrete == pytest.approx(integral, rel=0.02)


def test_finite_n_trimmed_pair_word_closed_form():
    n, eps = 200, 0.2
    est = finite_n_word_moment(AA, MatrixKind.T, n, eps=eps)
    m = math.ceil(n * (1 - eps) - 1e-9)
    expected = sum((m - abs(d)) / (n - abs(d)) for d in range(-(m - 1), m)) / n
    assert est.value == pytest.approx(expected, abs=1e-12)


# --- truncated moments -----------------------------------------------------


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.3])
def test_truncated_pair_word_closed_form_mc(eps):
    est = truncated_word_moment(AA, MatrixKind.T, eps, "mc", samples=400_000, seed=3)
    assert est.value == pytest.approx(closed_form_truncated_pair(eps), abs=6 * max(est.std_error, 1e-4))
    assert est.std_error > 0.0


@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_truncated_pair_word_closed_form_quadrature(eps):
    est = truncated_word_moment(AA, MatrixKind.T, eps, "quadrature")
    assert est.value == pytest.approx(closed_form_truncated_pair(eps), abs=1e-3)


def test_truncated_monotone_in_eps():
    values = [
        truncated_word_moment(AA, MatrixKind.T, eps, "quadrature").value
        for eps in (0.4, 0.2, 0.1, 0.05, 0.025)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_truncated_hankel_nonsymmetric_is_analytic_zero():
    est = truncated_word_moment(Word("abab"), MatrixKind.H, 0.1)
    assert est.value == 0.0
    assert est.method is Method.ANALYTIC


def test_truncated_sum_obeys_pairing_bound():
    for k in (1, 2, 3):
        for eps in (0.1, 0.2):
            total = sum(
                truncated_word_moment(w, MatrixKind.T, eps, "quadrature", samples=4096).value
                for w in enumerate_pair_matched_words(k)
            )
            assert total <= truncated_moment_bound(k, eps)


def test_truncated_validation():
    with pytest.raises(InvalidArgumentError):
        truncated_word_moment(AA, MatrixKind.T, 0.0)
    with pytest.raises(InvalidArgumentError):
        truncated_word_moment(AA, MatrixKind.T, 0.1, "bogus")
    with pytest.raises(ResourceLimitError):
        truncated_word_moment(Word("aabbccdd"), MatrixKind.T, 0.1, "quadrature", samples=10**15)


@pytest.mark.parametrize("budget", [{"samples": 0}, {"samples": -1}, {"samples": -5}])
def test_monte_carlo_budget_must_be_positive(budget):
    with pytest.raises(InvalidArgumentError):
        truncated_word_moment(AA, MatrixKind.T, 0.1, **budget)
    with pytest.raises(InvalidArgumentError):
        limit_moment(1, MatrixKind.T, "mc-ladder", **budget)


def test_monte_carlo_needs_two_batches_for_an_error_bar():
    # one batch has no spread to measure: it must not report std_error 0
    with pytest.raises(InvalidArgumentError):
        _mc_truncated(_WordContext(AA, MatrixKind.T), 0.1, 1000, 1, 0)


def _reference_draw(kind, y, u, lo, hi):
    """``matgen.occurrence_draw`` as a fresh-array expression: the inverse CDF
    that the in-place kernel must reproduce float for float, kept here so the
    kernel is not checked against itself."""
    c, one_minus_c = (y, 1.0 - y) if kind.link is MatrixKind.H else (1.0 - y, y)
    left, right = c + lo, one_minus_c + (1.0 - hi)
    bad = (y < lo) | (y > hi) | (left <= 0.0) | (right <= 0.0)
    left[bad] = right[bad] = 1.0
    a = -np.log(left)
    z = a - np.log(right)
    d = u * z - a
    e = np.exp(-np.abs(d))
    x = np.where(d <= 0.0, e - c, one_minus_c + (1.0 - e))
    return np.clip(x, lo, hi, out=x), z


def _reference_integral(kind, y, a, b, lo, hi):
    """``matgen.occurrence_integral`` as a fresh-array expression: F(b) - F(a)
    with F = ln occ below the kink and -ln occ above it, 0 on the rows where
    the interval is empty, y is off the axis or occ vanishes at an end."""
    c, one_minus_c = (y, 1.0 - y) if kind.link is MatrixKind.H else (1.0 - y, y)
    below = [c + a, c + b]
    above = [one_minus_c + (1.0 - a), one_minus_c + (1.0 - b)]
    bad = (b <= a) | (y < lo) | (y > hi)
    for left, right in zip(below, above):
        bad |= (left <= 0.0) | (right <= 0.0)
    ends = []
    for left, right in zip(below, above):
        occ = np.minimum(left, right)
        occ[bad] = 1.0
        ends.append(np.where(left > right, -np.log(occ), np.log(occ)))
    return np.where(bad, 0.0, ends[1] - ends[0])


def _reference_mc(ctx, eps, samples, batches, seed):
    """The importance-sampled estimate on whole batches.  The integer shifts
    c_j of every batch come first, then each batch's ``rng.random`` draws.  A
    word that draws d >= 1 coordinates draws one row of 1 + d uniforms a
    point, U_0 and then one U_j per drawn coordinate: row i of a batch of n
    rows takes u_0 = (i + U_0) / n, and u_j = ((i z_j + c_j) mod n + U_j) / n
    in integer arithmetic, z the batch lattice's multipliers and c_j the
    batch's shift, for each drawn coordinate j, smoothed by phi(v) = v^2 (3 -
    2v), its phi'(v) = 6 v (1 - v) taken into the weight as it is drawn.  A
    word that draws nothing draws one U a pair of rows, rows 2r and 2r + 1
    taking v = (2r + U) / n and (2r + 2 - U) / n, folds v to w = min(v, 1 - v)
    and takes u_0 = phi(w), its phi'(w) into the weight last.  u_0 is smoothed
    by phi, with weight phi'(u_0).  Each form is summed over all its columns;
    a drawn coordinate comes from ``_reference_draw``, a coordinate
    integrated out from ``_reference_integral`` over the interval where every
    dependent form that reads it lies in [lo, hi], and the other dependent
    forms of more than one term are checked; the result is the mean of the
    batch means."""
    lo, hi = trimmed_interval(ctx.link, eps)
    per_batch = max(1, math.ceil(samples / batches))
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn = [col for _, col, mode, _ in ctx.steps if mode == "draw"]
    integrated = [col for _, col, mode, _ in ctx.steps if mode == "cond"]
    z = limits_module._batch_lattice(per_batch, len(drawn))
    shifts = rng.integers(per_batch, size=(batches, len(drawn)))
    i = np.arange(per_batch)
    means = np.empty(batches)

    def form(coeffs, x):
        return sum(c * x[j] for j, c in enumerate(coeffs))

    for batch in range(batches):
        u = np.full((ctx.k + 1, per_batch), np.nan)
        if drawn:
            draws = rng.random((per_batch, 1 + len(drawn))).T
            for j, col in enumerate(drawn):
                u[col] = ((i * z[j] + shifts[batch, j]) % per_batch + draws[1 + j]) / per_batch
            v, jacobian = (i + draws[0]) / per_batch, 1.0
        else:
            pairs = rng.random(-(-per_batch // 2))
            jitter = np.repeat(pairs, 2)[:per_batch]
            jitter[1::2] = 1.0 - jitter[1::2]
            w = np.minimum((i + jitter) / per_batch, 1.0 - (i + jitter) / per_batch)
            v, jacobian = w * w * (3.0 - 2.0 * w), 6.0 * w * (1.0 - w)
        x = np.zeros((ctx.k + 1, per_batch))
        x[0] = lo + (hi - lo) * (v * v * (3.0 - 2.0 * v))
        weight = 6.0 * v * (1.0 - v)
        for row, col in ctx.gen_pairs:
            y = form(ctx.coeffs[row], x)
            if col in integrated:
                a, b = np.full(per_batch, lo), np.full(per_batch, hi)
                for f in ctx.dependent:
                    if coeff := ctx.coeffs[f, col]:  # lo <= coeff x_col + s <= hi
                        s = form(np.where(np.arange(ctx.k + 1) == col, 0, ctx.coeffs[f]), x)
                        lower, upper = ((lo - s) / coeff, (hi - s) / coeff)[:: 1 if coeff > 0 else -1]
                        a, b = np.maximum(a, lower), np.minimum(b, upper)
                weight *= _reference_integral(ctx.link, y, a, b, lo, hi)
            elif col in drawn:
                weight *= 6.0 * u[col] * (1.0 - u[col])
                x[col], normalizer = _reference_draw(ctx.link, y, u[col] * u[col] * (3.0 - 2.0 * u[col]), lo, hi)
                weight *= normalizer
            else:  # no form reads x_col: its normalizer alone, at any uniforms
                weight *= _reference_draw(ctx.link, y, v, lo, hi)[1]
        for f in ctx.dependent:  # a form that is one coordinate lies in [lo, hi]
            if np.count_nonzero(ctx.coeffs[f]) > 1 and not any(ctx.coeffs[f, col] for col in integrated):
                value = form(ctx.coeffs[f], x)
                weight[(value < lo) | (value > hi)] = 0.0
        means[batch] = (weight * jacobian).mean()
    return float(means.mean()) * (hi - lo), float(np.std(means, ddof=1) / math.sqrt(batches)) * (hi - lo)


@pytest.mark.parametrize("kind", list(MatrixKind))
def test_monte_carlo_blocks_reproduce_the_whole_batch_rung(kind):
    # the blocked kernel draws and weighs each batch in blocks of _MC_BLOCK
    # rows, in place in one scratch set, sums each form left to right over its
    # nonzero terms and takes one mean per batch: the same floats as whole
    # batches, not close ones.  Batches of 1 and 2 rows, one block, one
    # block + 1 and a ragged tail; the block after the first starts on an odd
    # row, whose antithetic partner, for the word that draws nothing, is the
    # last row of the block before
    block = limits_module._MC_BLOCK
    for k in (1, 2, 3):
        for word in enumerate_pair_matched_words(k):
            ctx = _WordContext(word, kind)
            for eps, rows in itertools.product((0.0, 0.1), (1, 2, block, block + 1, 2 * block + 3)):
                seed = 7 * rows + k
                assert _mc_truncated(ctx, eps, 2 * rows - 1, 2, seed) == _reference_mc(ctx, eps, 2 * rows - 1, 2, seed)


@pytest.mark.parametrize("kind", list(MatrixKind))
def test_monte_carlo_keeps_the_stream_of_words_that_draw_nothing(kind):
    # aa and aabb weigh x_0 alone and draw no shifts, so they draw one
    # uniform a pair of rows, and x_0's strata are paired antithetically,
    # folded and smoothed twice: this pins the floats of that stream, the
    # same under every pattern
    recorded = {"aa": (2.0000000000971134, 1.9278360634003038e-10), "aabb": (4.71013186705405, 9.812732810645115e-10)}
    for letters, (value, se) in recorded.items():
        est = limit_word_moment(Word(letters), kind, "mc-ladder", samples=200_000, seed=3)
        assert (est.value, est.std_error) == (value, se), letters


@pytest.mark.parametrize("n", [1, 2, 3, 16_384, 16_385])
def test_antithetic_pairs_keep_each_row_in_its_stratum(n):
    # the word that draws nothing draws one U a pair of rows: rows 2r and
    # 2r + 1 sit at u_0 = (2r + U) / n and (2r + 2 - U) / n, each in its own
    # stratum, and an odd batch's last row at (i + U) / n; the block source
    # leaves the fold and the second smoothing to _weight_on.  The block at
    # 8191 starts on an odd row, whose U the block before drew
    block = min(n, limits_module._MC_BLOCK)
    uniforms = limits_module._batch_blocks(np.random.default_rng(n), n, 1, [], 2, np.empty(block),
                                           np.empty(block, dtype=bool))
    replay = np.random.default_rng(n)
    replay.integers(n, size=(2, 0))  # the shifts of no drawn coordinate, as _batch_blocks draws them
    i = np.arange(n, dtype=float)
    for b in range(2):
        u0 = np.concatenate([uniforms(b, start, min(block, n - start))[0].copy() for start in range(0, n, block)])
        jitter = np.repeat(replay.random(-(-n // 2)), 2)[:n]
        jitter[1::2] = 1.0 - jitter[1::2]
        assert np.array_equal(u0, (jitter + i) / n), (n, b)
        assert np.all((i / n <= u0) & (u0 <= (i + 1.0) / n)), (n, b)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_the_kernel_folds_and_smooths_twice_the_root_of_the_words_that_draw_nothing(kind, eps):
    # for aa, aabb and aabbcc, _weight_on folds u_0 to w = min(u_0, 1 - u_0),
    # smooths w to phi(w), smooths that as every root is smoothed, and takes
    # phi'(w) into the weight last, after the normalizers: the same floats
    # as the fresh-array expression, on the ends, the middle and random
    # uniforms, and x_0 below hi wherever u_0 is above 0
    lo, hi = trimmed_interval(kind, eps)
    for k in (1, 2, 3):
        u0 = np.concatenate([[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0], np.random.default_rng(k).random(95)])
        u = np.vstack([u0, np.full((k, u0.size), np.nan)])  # rows the word does not read
        ctx = _WordContext(Word("".join(c + c for c in "abc"[:k])), kind)
        assert not ctx.drawn
        x = np.full_like(u, np.nan)
        weight = _weight_on(ctx, u, x, lo, hi, np.empty((6, u0.size)), np.empty((2, u0.size), bool))
        w = np.minimum(u0, 1.0 - u0)
        root = w * w * (3.0 - 2.0 * w)
        x0 = lo + (hi - lo) * (root * root * (3.0 - 2.0 * root))
        want = 6.0 * root * (1.0 - root)
        for _ in range(k):
            want *= _reference_draw(ctx.link, x0, root, lo, hi)[1]
        assert np.array_equal(x[0], x0) and np.array_equal(weight, want * (6.0 * w * (1.0 - w))), (k, eps)
        assert np.all(x[0][u0 > 0.0] < hi) and np.array_equal(u[0], u0), (k, eps)


@pytest.mark.parametrize("kind", [MatrixKind.BT, MatrixKind.BH])
def test_monte_carlo_floats_do_not_depend_on_the_block_length(monkeypatch, kind):
    # blocks of 7 rows start on odd rows every other block, where the word
    # that draws nothing takes its first row's antithetic partner from the
    # block before: the same floats as blocks of 8191, which hold a batch of
    # 1001 rows whole
    for k in (1, 2, 3):
        for word in enumerate_pair_matched_words(k)[:: 1 if k < 3 else 3]:
            ctx = _WordContext(word, kind)
            whole = _mc_truncated(ctx, 0.0, 2002, 2, 17)
            with monkeypatch.context() as patch:
                patch.setattr(limits_module, "_MC_BLOCK", 7)
                assert _mc_truncated(ctx, 0.0, 2002, 2, 17) == whole, word


@pytest.mark.parametrize("chunk", [128, 8192])
def test_tree_sum_is_numpys_pairwise_sum(chunk):
    # a batch mean sums its weights along numpy's own pairwise tree, one
    # chunk at a time, from blocks that do not line up with the chunks: float
    # for float np.add.reduce of the whole array, so a numpy release that
    # changes its tree fails here, not by moving the Monte Carlo's floats.
    # Signed values over 40 binary orders cancel, so a sum in another order
    # rounds otherwise: the blocks' own sums, added in order, miss it, and
    # so does a tree split at n // 2
    rng, missed = np.random.default_rng(11), []
    for n in (1, 7, 8, 127, 128, 129, 8191, 8192, 8193, 16385, 250_000):
        values = rng.standard_normal(n) * 2.0 ** rng.integers(0, 40, n)
        whole = np.add.reduce(values)
        for block in (7, 8191):
            blocks = (values[start : start + block] for start in range(0, n, block))
            assert limits_module._tree_sum(n, blocks, np.empty(chunk)) == whole, (n, block)
        missed.append(sum(np.add.reduce(values[start : start + 8191]) for start in range(0, n, 8191)) != whole)
    assert any(missed)


@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_the_fold_keeps_the_weight_of_the_words_that_draw_nothing(kind):
    # _weight_on folds u_0 onto [0, 1/2] for a word that draws nothing.
    # That leaves its weight as it is: up to k = 4 such a word is aabb.. of
    # its k, whose steps take the normalizer of the form x_0 alone and check
    # no form, and that normalizer is symmetric about the middle of [lo, hi]
    # on every trimmed box
    for k in range(1, 5):
        nothing = [w.letters for w in enumerate_pair_matched_words(k)
                   if all(mode != "draw" for _, _, mode, _ in _WordContext(w, kind).steps)]
        assert nothing == ["".join(c + c for c in "abcdefg"[:k])], (k, nothing)
        ctx = _WordContext(Word(nothing[0]), kind)
        assert not ctx.checks and {mode for _, _, mode, _ in ctx.steps} <= {"z", "same"}
        assert all(list(ctx.coeffs[row]) == [1] + [0] * k for row, _, mode, _ in ctx.steps if mode == "z")
    for eps in (0.0, 0.1, 0.5):
        lo, hi = trimmed_interval(kind, eps)
        x = lo + (hi - lo) * np.linspace(0.01, 0.99, 99)
        mirrored = lo + (hi - lo) * np.linspace(0.99, 0.01, 99)
        assert np.allclose(occurrence_draw(kind, x, None, lo, hi)[1], occurrence_draw(kind, mirrored, None, lo, hi)[1],
                           rtol=1e-13, atol=0.0), eps


def test_antithetic_pairs_narrow_the_bar_of_a_word_that_draws_nothing():
    # BH aabb weighs x_0 alone.  At 200,000 points over seeds 0-39 its bar
    # ran from 2.3e-6 to 5.2e-6 with one independent jitter per stratum, and
    # from 7.1e-10 to 1.4e-9 with the folded, twice-smoothed pairs, where it
    # still covers 8 - pi^2 / 3
    exact = 8.0 - math.pi**2 / 3.0
    for seed in range(6):
        est = limit_word_moment(Word("aabb"), MatrixKind.BH, "mc-ladder", samples=200_000, seed=seed)
        assert 0.0 < est.std_error < 1e-8, seed
        assert abs(est.value - exact) <= 4.0 * est.std_error, seed


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_in_place_draw_leaves_no_stale_scratch(kind, eps):
    # the Monte Carlo kernel reuses one scratch set for every block.  A block
    # with rows off the axis or at a vanishing end (Z = 0), then a clean block
    # shorter than the scratch (a ragged tail), each drawn with y a row of the
    # coordinate block, must give what the fresh-array calls and the reference
    # give, and leave y and u as they were
    lo, hi = trimmed_interval(kind, eps)
    rng = np.random.default_rng(11)
    rows = 60
    coords, z = np.full((2, rows), np.nan), np.full(rows, np.nan)
    work, flags = np.full((2, rows), np.nan), np.zeros((2, rows), dtype=bool)
    off = np.resize([lo - 0.01, hi + 0.01, lo, hi, -np.inf], rows)  # lo and hi vanish at eps = 0
    first = np.where(np.arange(rows) % 3 == 0, off, lo + (hi - lo) * rng.random(rows))
    zeros = []
    for values in (first, lo + (hi - lo) * rng.random(rows - 17)):
        m = values.size
        coords[0, :m] = values
        y, u = coords[0, :m], rng.random(m)
        y_before, u_before = y.copy(), u.copy()
        with np.errstate(all="raise"):
            x, zs = occurrence_draw(kind, y, u, lo, hi, out=(coords[1, :m], z[:m], work[:, :m], flags[:, :m]))
        assert np.array_equal(y, y_before) and np.array_equal(u, u_before)
        fresh, reference = occurrence_draw(kind, y.copy(), u.copy(), lo, hi), _reference_draw(kind, y.copy(), u, lo, hi)
        for want in (fresh, reference):
            assert np.array_equal(x, want[0]) and np.array_equal(zs, want[1])
        assert np.shares_memory(x, coords) and np.shares_memory(zs, z)
        zeros.append(np.count_nonzero(zs == 0.0))
    assert zeros[0] >= rows // 5 and zeros[1] == 0


@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_weights_stay_finite_at_the_extreme_uniforms(kind):
    # rng.random returns values in [0, 1 - 2^-53], 0 included, and a jittered
    # lattice coordinate (n - 1 + U) / n rounds to 1 at the top.  The
    # smoothing map sends u = 0 and u = 1 to themselves (and 1 - 2^-53 to 1),
    # with phi' = 0 there, so they reach the inverse CDF as they are: at eps =
    # 0 a coordinate at 0 or 1 makes the next factor's occurrence vanish at an
    # end of the axis, which must give weight 0 before any log(0), and the
    # inverse CDF must keep every coordinate it draws inside the axis (x_0 and
    # the steps marked "draw"; the others' rows are left as they were), and
    # the closed-form integral of a "cond" step must take no logarithm of 0
    # either
    lo, hi = trimmed_interval(kind, 0.0)
    for k in (1, 2, 3):
        u = np.array(list(itertools.product((0.0, 0.5, 1.0 - 2.0**-53, 1.0), repeat=k + 1))).T
        rows = u.shape[1]
        for word in enumerate_pair_matched_words(k):
            ctx = _WordContext(word, kind)
            drawn = [0] + [col for _, col, mode, _ in ctx.steps if mode == "draw"]
            x = np.full_like(u, np.nan)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                weight = _weight_on(ctx, u, x, lo, hi, np.empty((6, rows)), np.empty((2, rows), bool))
            assert np.all((x[drawn] >= lo) & (x[drawn] <= hi)), word
            assert np.all(np.isfinite(weight) & (weight >= 0.0)), word
            assert np.any(weight > 0.0), word


def test_monte_carlo_budget_guard(monkeypatch):
    # 10^15 samples make a batch of 6.25e13 rows, whose residue table's
    # products r z_j would pass 2^53: refused before any realization or draw
    def no_work(*args, **kwargs):
        raise AssertionError("an over-budget sample count must be refused before any work")

    monkeypatch.setattr(limits_module, "_mc_truncated", no_work)
    monkeypatch.setattr(limits_module, "simulate_spectra", no_work)
    huge, message = 10**15, r"needs 62500000000000 rows per batch, over the \d+ at which .* exact in float64"
    with pytest.raises(ResourceLimitError, match=message):
        truncated_word_moment(AA, MatrixKind.T, 0.1, samples=huge)
    with pytest.raises(ResourceLimitError, match=message):
        limit_word_moment(AA, MatrixKind.BT, samples=huge)
    with pytest.raises(ResourceLimitError, match="rows per batch"):
        limit_moment(2, MatrixKind.BT, samples=huge, threads=1)
    with pytest.raises(ResourceLimitError, match="rows per batch"):
        compare_empirical_limit(MatrixKind.BT, 10, 2, 1, 0, samples=huge)
    # the edge, the same at every k: n rows a batch with n min(n, _MC_BLOCK)
    # <= 2^53, so the products r z_j < n _MC_BLOCK are exact
    per_batch = 2**53 // limits_module._MC_BLOCK
    for k in (1, 3):
        limits_module._plan(k, "mc-ladder", limits_module.BATCHES * per_batch)
        with pytest.raises(ResourceLimitError, match=f"{per_batch + 1} rows per batch, over the {per_batch} "):
            limits_module._plan(k, "mc-ladder", limits_module.BATCHES * per_batch + 1)
    # the default sample count passes at every k the words enumerate
    for k in range(1, MAX_K + 1):
        limits_module._plan(k, "mc-ladder", limits_module.DEFAULT_SAMPLES)


def test_monte_carlo_guard_bounds_the_peak():
    # one call's tracemalloc peak is flat in samples: 4k + 10 float64 per row
    # of one block, no longer than the batch (the residue table takes one row
    # for each drawn coordinate, at most k - 1, and the stream 1 + d uniforms
    # a row, at most k), the chunk of the batch's pairwise sum, one int64 per
    # batch and drawn coordinate for the lattice shifts, and no term per row
    # of the batch, at a batch below one block, at one of several and at one
    # of 24; the words differ in how many forms and draws they make, so
    # every word up to k = 3 and a fifth of those at k = 4, and at 200,000
    # rows, where only the batch is longer, the first and last word of each k
    _mc_truncated(_WordContext(AA, MatrixKind.T), 0.0, 200, 2, 0)  # numpy's one-time allocations
    for kind, rows, k in itertools.product((MatrixKind.T, MatrixKind.H), (1000, 20_000, 200_000), (1, 2, 3, 4)):
        block, chunk = min(rows, limits_module._MC_BLOCK), min(rows, limits_module._SUM_CHUNK)
        words = enumerate_pair_matched_words(k)
        for word in words[:: 5 if k == 4 else 1] if rows < 100_000 else words[:: max(1, len(words) - 1)]:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _mc_truncated(_WordContext(word, kind), 0.0, 2 * rows, 2, 0)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            shifts = 2 * (k - 1)  # the lattice shifts of both batches
            assert peak <= 8 * ((4 * k + 10) * block + chunk + shifts), (kind, rows, word, peak / 8)


# --- limiting moments ------------------------------------------------------


@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_limit_pair_word_quadrature(kind):
    est = limit_word_moment(AA, kind, "quadrature")
    assert est.value == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_limit_pair_word_ladder(kind):
    # the mc-ladder method is one importance-sampled estimate at eps = 0, with
    # no rung table or fit behind it
    est = limit_word_moment(AA, kind, "mc-ladder", samples=400_000, seed=5)
    assert abs(est.value - 2.0) <= 4 * est.std_error
    assert 0.0 < est.std_error < 0.005
    assert est.params == {"kind": kind.value, "samples": 400_000, "batches": 16, "seed": 5}


def test_ladder_rungs_increase_toward_limit():
    # the one kernel at eps = 0.2 .. 0.025 and at eps = 0 itself: the trimmed
    # values rise toward the limit
    values = [
        truncated_word_moment(AA, MatrixKind.T, eps, "mc", samples=300_000, seed=6).value
        for eps in (0.2, 0.1, 0.05, 0.025)
    ]
    values.append(limit_word_moment(AA, MatrixKind.T, "mc-ladder", samples=300_000, seed=6).value)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_limit_hankel_nonsymmetric_zero():
    est = limit_word_moment(Word("abab"), MatrixKind.H)
    assert est.value == 0.0
    assert est.method is Method.ANALYTIC


def test_limit_moment_k1_both_kinds():
    for kind in (MatrixKind.T, MatrixKind.H):
        est = limit_moment(1, kind, "quadrature")
        assert est.value == pytest.approx(2.0, abs=1e-3)
        assert len(est.params["per_word"]) == 1


def test_limit_moment_k2_breakdown_sums():
    est = limit_moment(2, MatrixKind.H, "quadrature")
    per_word = est.params["per_word"]
    assert [e["word"] for e in per_word] == ["aabb", "abab", "abba"]
    assert est.value == pytest.approx(sum(e["value"] for e in per_word), abs=1e-12)
    # non-symmetric word contributes an exact zero to the hankel sum
    assert per_word[1]["value"] == 0.0
    assert per_word[0]["value"] > 0 and per_word[2]["value"] > 0


def test_odd_moments_vanish_exactly():
    for order in (1, 3, 5, 7):
        est = limit_moment_of_order(order, MatrixKind.T)
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.method is Method.ANALYTIC


def test_even_order_dispatch():
    est = limit_moment_of_order(2, MatrixKind.H, "quadrature")
    assert est.value == pytest.approx(2.0, abs=1e-3)
    assert est.params["order"] == 2


def test_quadrature_k_cap():
    # quadrature used to refuse k > 3; its one cap on k is now the words'
    # enumeration cap, and at k = 4 it agrees with the Monte Carlo
    word = Word("abacbdcd")
    lattice = limit_word_moment(word, MatrixKind.T, "quadrature", samples=200_000, seed=4)
    mc = limit_word_moment(word, MatrixKind.T, "mc-ladder", samples=200_000, seed=4)
    assert lattice.value > 0.0 and 0.0 < lattice.std_error < 0.01 * lattice.value
    assert abs(lattice.value - mc.value) <= 4.0 * math.hypot(lattice.std_error, mc.std_error)
    with pytest.raises(ResourceLimitError, match="enumeration cap"):
        limit_moment(MAX_K + 1, MatrixKind.T, "quadrature", samples=1000, threads=1)


@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_quadrature_bar_covers_the_exact_pair_integral(kind):
    # the word aa integrates to exactly 2 under both patterns; the bar is the
    # spread of the 16 shift means, so it is positive with no coarser rule
    # behind it
    est = limit_word_moment(AA, kind, "quadrature")
    assert 0.0 < est.std_error < 1e-4
    assert abs(est.value - 2.0) <= 4.0 * est.std_error
    assert est.method is Method.QUADRATURE
    assert est.params == {"kind": kind.value, "samples": limits_module.DEFAULT_SAMPLES, "batches": 16, "seed": 0}


def test_quadrature_values_are_pinned():
    # the lattice path is the Monte Carlo's weight kernel, smoothed root and
    # conditional step included, on other uniforms, so a change to the kernel
    # that is meant to keep its floats (a plan that skips dead work, a new
    # scratch layout) must keep these, recorded when the kernel began to fold
    # the root of the word that draws nothing on both point sets: aabb and
    # abba are one estimate on aabb at twice the points, whose bar is the
    # rounding floor, and abab is the Toeplitz entry's only drawing word (no
    # Hankel word draws at k = 2)
    recorded = {
        MatrixKind.BT: (10.840525440421231, 1.193212277294554e-06,
                        [4.7101318663035485, 1.4202617078141335, 4.7101318663035485]),
        MatrixKind.BH: (9.420263732607097, 6.275156216389031e-15, [4.7101318663035485, 0.0, 4.7101318663035485]),
    }
    for kind, (value, se, words) in recorded.items():
        est = limit_moment(2, kind, "quadrature", samples=200_000, seed=7, threads=1)
        assert (est.value, est.std_error) == (value, se), kind
        assert [e["value"] for e in est.params["per_word"]] == words, kind


@pytest.mark.parametrize("method", LIMIT_METHODS)
@pytest.mark.parametrize("kind", [MatrixKind.T, MatrixKind.H])
def test_bar_of_the_pair_word_is_tiny(kind, method):
    # the weight of aa, aabb and aabbcc reads x_0 alone, so the folded,
    # twice-smoothed root, in antithetic pairs of strata (Monte Carlo) or a
    # shifted grid (lattice), integrates it as a one-dimensional rule: at
    # 200,000 points and seed 3 the bars are 1.9e-10, 9.8e-10 and 7.2e-9
    # (Monte Carlo) and 1.3e-15, 1.3e-14 and 6.0e-13 (lattice, aa's the
    # rounding floor), where iid draws of x_0 gave aa 1.9e-3 and the lattice
    # with the root smoothed once 1.3e-8, and they still cover the exact
    # values
    bar = {"mc-ladder": 1e-7, "quadrature": 1e-12}[method]
    for letters, exact in (("aa", 2.0), ("aabb", AABB), ("aabbcc", AABBCC)):
        est = limit_word_moment(Word(letters), kind, method, samples=200_000, seed=3)
        assert 0.0 < est.std_error <= bar, letters
        assert abs(est.value - exact) <= 4.0 * est.std_error, letters


def test_a_lattice_bar_is_positive_where_the_shift_means_agree():
    # at 2,000,000 points per word the lattice integrates the aabb class of
    # bh k = 2 (on aabb, at 4,000,000 points) to float64 rounding, and at
    # seed 10 its 16 shift means are the same float: the bar is then the
    # rounding floor, ROUNDING_BAR eps |value|, not 0, and it covers
    # 16 - 2 pi^2 / 3
    ctx = _WordContext(Word("aabb"), MatrixKind.H)
    assert _mc_truncated(ctx, 0.0, 4_000_000, limits_module.BATCHES, derive_seed(10, 0), lattice=True)[1] == 0.0
    est = limit_moment(2, MatrixKind.BH, "quadrature", samples=2_000_000, seed=10, threads=1)
    floor = limits_module.ROUNDING_BAR * math.ulp(1.0) * est.params["per_word"][0]["value"]
    assert est.params["per_word"][0]["std_error"] == floor > 0.0
    assert abs(est.value - TOTALS[(2, "h")][0]) <= 4.0 * est.std_error


@pytest.mark.parametrize("method, bar", [("mc-ladder", 2e-6), ("quadrature", 5e-6)])
def test_bar_of_the_crossing_word_is_small(method, bar):
    # Toeplitz abab draws x_1, whose uniform goes through the smoothing map as
    # x_0's does, so the weight loses its kinks and log-singular slopes at the
    # ends of that axis too, and the Monte Carlo lays it on one jittered
    # lattice over the batch: at 200,000 points the bar at seed 3 is 8.9e-7
    # (Monte Carlo) and 1.2e-6 (lattice), at most 1.2e-6 and 1.6e-6 over
    # seeds 0-39, where the raw uniform gave 6.4e-5 and 7.5e-5 and the
    # Monte Carlo's 8191-row block lattices 2.6e-5 at seed 3, and it still
    # covers the exact 8 - 2 pi^2 / 3
    est = limit_word_moment(Word("abab"), MatrixKind.BT, method, samples=200_000, seed=3)
    assert 0.0 < est.std_error < bar
    assert abs(est.value - (8.0 - 2.0 * math.pi**2 / 3.0)) <= 4.0 * est.std_error


def test_unknown_method_rejected():
    with pytest.raises(InvalidArgumentError):
        limit_word_moment(AA, MatrixKind.T, "midpoint")
    with pytest.raises(InvalidArgumentError):
        limit_moment(0, MatrixKind.T)


@pytest.mark.parametrize("method, samples", [("midpoint", 1000), ("mc-ladder", 0), ("mc-ladder", -5)])
def test_limit_moment_refuses_before_fan_out(monkeypatch, method, samples):
    # both used to reach parallel_map with 3 tasks and 2 workers before raising;
    # the refusal also comes before the words are grouped into classes, and
    # names the samples asked for
    def no_fan_out(*args, **kwargs):
        raise AssertionError("a bad request must be refused before the words are grouped or any task is mapped")

    for name in ("parallel_map", "_classes", "enumerate_pair_matched_words"):
        monkeypatch.setattr(limits_module, name, no_fan_out)
    message = "unknown method 'midpoint'" if method == "midpoint" else f"samples must be >= 1, got {samples}$"
    with pytest.raises(InvalidArgumentError, match=message):
        limit_moment(2, MatrixKind.T, method, samples=samples, threads=2)


@pytest.mark.parametrize("method, samples", [("mc-ladder", 10**13), ("quadrature", 10**8)])
def test_limit_moment_refuses_a_class_over_budget_before_fan_out(monkeypatch, method, samples):
    # a class task integrates samples x its size points on one member, so at
    # k = 3, whose largest class has 6 words, a request whose batch fits per
    # word but not per class is refused before any task is mapped
    def no_fan_out(*args, **kwargs):
        raise AssertionError("a request over budget for its largest class must be refused before any task is mapped")

    assert limits_module._largest_class(3) == 6
    limits_module._plan(3, method, samples)  # fits per word
    for name in ("parallel_map", "_mc_truncated", "simulate_spectra", "_classes", "enumerate_pair_matched_words"):
        monkeypatch.setattr(limits_module, name, no_fan_out)
    # the message names the samples asked for and the class's points apart
    needs = "rows" if method == "mc-ladder" else "GiB"  # a Monte Carlo batch's rows, a lattice's memory
    message = rf"at k=3 with {samples} samples per word \({6 * samples} for a class of 6 words\) needs .* {needs} per"
    with pytest.raises(ResourceLimitError, match=message):
        limit_moment(3, MatrixKind.BT, method, samples=samples, threads=2)
    with pytest.raises(ResourceLimitError, match=message):
        compare_empirical_limit(MatrixKind.BT, 10, 2, 3, 0, method=method, samples=samples, threads=1)


def test_largest_class_is_its_closed_form():
    # the memory guard sizes a request by the largest class before grouping
    # the words; the grouping takes 10 s at k = 7, where the closed form,
    # 4k, was checked once, so it is held here up to k = 5
    for k in range(1, 6):
        assert limits_module._largest_class(k) == max(len(members) for _, members in limits_module._classes(k)), k


def test_oracle_converges_to_limit():
    for kind in (MatrixKind.T, MatrixKind.H):
        for word in enumerate_pair_matched_words(2):
            limit = limit_word_moment(word, kind, "quadrature").value
            gaps = [
                abs(finite_n_word_moment(word, kind, n).value - limit)
                for n in (20, 40, 80)
            ]
            assert gaps[0] > gaps[1] > gaps[2]


def test_ladder_deterministic_in_seed():
    a = limit_word_moment(AA, MatrixKind.T, "mc-ladder", samples=100_000, seed=11)
    b = limit_word_moment(AA, MatrixKind.T, "mc-ladder", samples=100_000, seed=11)
    assert a.value == b.value and a.std_error == b.std_error


def test_limit_moment_independent_of_worker_count():
    # at k = 3 the class tasks differ up to 6x in points, and in lattice primes
    for k, method in ((2, "mc-ladder"), (3, "mc-ladder"), (3, "quadrature")):
        serial = limit_moment(k, MatrixKind.T, method, samples=20_000, seed=13, threads=1)
        pooled = limit_moment(k, MatrixKind.T, method, samples=20_000, seed=13, threads=2)
        assert serial.value == pooled.value
        assert serial.params["per_word"] == pooled.params["per_word"]


@pytest.mark.parametrize("method", LIMIT_METHODS)
@pytest.mark.parametrize("kind", [MatrixKind.BT, MatrixKind.BH])
def test_limit_moment_integrates_each_class_once(kind, method):
    # every word of a rotation/reflection class has the same limit, so a
    # class is one estimate on its member with the fewest draw steps, then
    # checked forms, at samples x size points, which counts once per member
    samples, seed = 20_000, 5
    est = limit_moment(3, kind, method, samples=samples, seed=seed, threads=1)
    words = enumerate_pair_matched_words(3)
    classes = {}
    for i, (word, entry) in enumerate(zip(words, est.params["per_word"])):
        assert entry["word"] == word.letters and entry["class"] == dihedral_representative(word).letters
        assert entry["symmetric"] == is_symmetric(word)
        classes.setdefault(entry["class"], []).append((i, entry))
    assert len(classes) == 5
    variance = 0.0
    for rep, members in classes.items():
        first, entry = members[0]
        shared = {key: entry[key] for key in ("value", "std_error", "method", "class", "evaluated")}
        assert all({key: e[key] for key in shared} == shared for _, e in members), rep
        assert dihedral_representative(Word(entry["evaluated"])).letters == rep
        again = limit_word_moment(Word(entry["evaluated"]), kind, method, samples=samples * len(members),
                                  seed=derive_seed(seed, first))
        assert (again.value, again.std_error) == (entry["value"], entry["std_error"]), rep
        variance += (len(members) * entry["std_error"]) ** 2
        if entry["method"] != "analytic":  # a symmetric word's limit is the same under both patterns
            assert abs(z_scores([(entry["value"], entry["std_error"])], TOEPLITZ_K3_CLASSES[rep])[0]) <= 5.0, rep
    assert est.std_error == math.sqrt(variance)
    assert est.value == pytest.approx(sum(e["value"] for e in est.params["per_word"]), abs=1e-12)
    evaluated = {"bt": "abcbac", "bh": "abcacb"}[kind.value]
    assert classes["abacbc"][0][1]["evaluated"] == evaluated
    if kind is MatrixKind.BH:  # parity symmetry is constant on a class: the non-symmetric ones are exact zeros
        assert all(e["method"] == "analytic" for rep in ("aabcbc", "abacbc") for _, e in classes[rep])


# --- Monte Carlo against independent references ----------------------------


def z_scores(estimates, reference):
    """z of each (value, std_error) against a reference (value, spread)."""
    ref, spread = reference
    return np.array([(value - ref) / math.hypot(se, spread) for value, se in estimates])


def assert_honest(z, what, bars=4.0):
    # every estimate within `bars` of its combined bars, and no common drift:
    # the mean of n independent z scores has sd 1 / sqrt(n)
    assert np.all(np.abs(z) <= bars), (what, z)
    assert abs(z.mean()) <= 3.0 / math.sqrt(z.size), (what, z.mean())


@pytest.mark.parametrize(
    "k, kind, seeds, samples",
    [(1, MatrixKind.T, 16, 200_000), (1, MatrixKind.H, 16, 200_000), (2, MatrixKind.BH, 16, 200_000),
     (3, MatrixKind.BT, 4, 200_000), (3, MatrixKind.BH, 4, 200_000)],
    ids=["k1-t", "k1-h", "k2-bh", "k3-bt", "k3-bh"],
)
def test_monte_carlo_limit_matches_the_references_over_seeds(k, kind, seeds, samples):
    # limit_moment seeds each rotation/reflection class from the master seed
    # by derive_seed, so different classes are drawn from separate streams,
    # and a class's one estimate counts once for each of its words
    estimates = [limit_moment(k, kind, "mc-ladder", samples=samples, seed=s, threads=1) for s in range(seeds)]
    assert_honest(z_scores([(e.value, e.std_error) for e in estimates], TOTALS[(k, kind.link.value)]), (k, kind))


def test_monte_carlo_toeplitz_k2_and_its_words_match_the_references_over_seeds():
    # a word's bar is the spread of 16 batch means, so its z follows Student's
    # t with 15 dof more than a normal law (sd 1.07), and a batch set that
    # reads low with a small spread makes a long tail: against the exact
    # values, over master seeds 0-999 at 200,000 samples aabb's z had sd 1.12
    # and reached -5.29 (seed 282), abba's sd 1.08 and -4.24, and abab's sd
    # 1.09 and -4.17 (over seeds 1000-3999 its sd was 1.09 and it reached
    # -4.54; before its draw lay on one lattice over the batch it reached
    # +7.17 at seed 320, all 16 batch means above the exact value).  So a
    # total is held to 4 bars and one word's estimate to 5.  limit_moment integrates
    # abba's class on aabb, so each word's own estimate is made here, seeded
    # by derive_seed from its index as limit_moment once seeded it
    estimates = [limit_moment(2, MatrixKind.BT, "mc-ladder", samples=200_000, seed=s, threads=1) for s in range(16)]
    assert_honest(z_scores([(e.value, e.std_error) for e in estimates], TOTALS[(2, "t")]), "total")
    letters = [word.letters for word in enumerate_pair_matched_words(2)]
    for word, reference in TOEPLITZ_K2_WORDS.items():
        own = [limit_word_moment(Word(word), MatrixKind.BT, "mc-ladder", samples=200_000,
                                 seed=derive_seed(s, letters.index(word))) for s in range(16)]
        assert_honest(z_scores([(e.value, e.std_error) for e in own], reference), word, bars=5.0)


@pytest.mark.parametrize("method", LIMIT_METHODS)
@pytest.mark.parametrize("kind", [MatrixKind.BT, MatrixKind.BH])
def test_every_k3_word_matches_its_class_value_over_seeds(kind, method):
    # limit_moment integrates one member of each class, so every word's own
    # plan (its draws, conditional steps and checks) is held here to its
    # class's value, seeded by derive_seed from its index.  A parity-symmetric
    # word has the same limit under both patterns; a non-symmetric Hankel
    # word is an exact zero.  Over seeds 0-199 at 200,000 points the z scores
    # had sd 1.09 (Toeplitz) and 1.06 (Hankel) for the Monte Carlo and 1.06
    # and 1.08 for the lattice; the Monte Carlo reached 8.84 (Toeplitz abcbca,
    # seed 119, whose 16 batch means all read high: with two drawn
    # coordinates on one lattice a batch mean is nearly a fixed function of
    # the batch's shifts, skewed) and 4.77 (Hankel abccba, seed 119), the
    # lattice 6.14 (Toeplitz abccba, seed 163) and 5.04 (aabbcc, seed 99,
    # under both patterns)
    z = []
    for i, word in enumerate(enumerate_pair_matched_words(3)):
        estimates = [limit_word_moment(word, kind, method, samples=200_000, seed=derive_seed(s, i)) for s in range(4)]
        if kind is MatrixKind.BH and not is_symmetric(word):
            assert all((e.value, e.std_error, e.method.value) == (0.0, 0.0, "analytic") for e in estimates), word
            continue
        reference = TOEPLITZ_K3_CLASSES[dihedral_representative(word).letters]
        word_z = z_scores([(e.value, e.std_error) for e in estimates], reference)
        assert np.all(np.abs(word_z) <= 5.0), (word.letters, word_z)
        z.extend(word_z)
    assert len(z) == 4 * (15 if kind is MatrixKind.BT else 6)
    assert_honest(np.array(z), (kind, method), bars=5.0)


def test_k3_totals_are_the_class_sums():
    # each class counts once per word; under Hankel only the parity-symmetric
    # classes count, with their Toeplitz values
    sizes = {}
    for word in enumerate_pair_matched_words(3):
        rep = dihedral_representative(word).letters
        sizes[rep] = sizes.get(rep, 0) + 1
        assert is_symmetric(word) == is_symmetric(Word(rep))
    assert sorted(sizes) == sorted(TOEPLITZ_K3_CLASSES)
    for pattern, counted in (("t", sizes), ("h", [rep for rep in sizes if is_symmetric(Word(rep))])):
        total = sum(sizes[rep] * TOEPLITZ_K3_CLASSES[rep][0] for rep in counted)
        value, spread = TOTALS[(3, pattern)]
        assert abs(total - value) <= spread / 10, (pattern, total)


def test_abab_is_its_difference_integral():
    # in the differences d_j = x_j - L_{j-1}, x_0 integrates out of Toeplitz
    # abab to (1 - |d_1| - |d_2|)_+ over the factors' product (see
    # tests/limit_references.py).  The integrand has kinks on the axes and on
    # |d_1| + |d_2| = 1, and takes every value in [0, 1] near (+-1, 0) and
    # (0, +-1): 80 x 80-point tensor Gauss-Legendre is off by 2.4e-3 on the
    # square and by 5.1e-4 quadrant by quadrant.
    # So each quadrant's triangle is split at the midpoint of its hypotenuse
    # into two triangles, each collapsed onto its corner at (1, 0) or (0, 1)
    # (Duffy, SIAM J. Numer. Anal. 19, 1982): there the integrand is smooth,
    # and 16 x 16 points per triangle reach float64 rounding
    def integrand(d1, d2):
        a1, a2 = np.abs(d1), np.abs(d2)
        return np.maximum(1.0 - a1 - a2, 0.0) / ((1.0 - a1) * (1.0 - a2))

    nodes, weights = np.polynomial.legendre.leggauss(16)
    u, v = np.meshgrid((nodes + 1.0) / 2.0, (nodes + 1.0) / 2.0, indexing="ij")
    w = np.outer(weights, weights) / 4.0
    mid = np.array([0.5, 0.5])
    total = 0.0
    for corner in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        # corner + u ((0 - corner) + v (mid - 0)), Jacobian u |det(-corner, mid)| = u / 2
        x = corner[:, None, None] * (1.0 - u) + (u * v) * mid[:, None, None]
        for sign1, sign2 in itertools.product((1.0, -1.0), repeat=2):
            total += float(np.sum(w * u / 2.0 * integrand(sign1 * x[0], sign2 * x[1])))
    value, spread = TOEPLITZ_K2_WORDS["abab"]
    assert abs(total - value) <= 1e-10 + spread, total - value


@pytest.mark.parametrize("method", LIMIT_METHODS)
@pytest.mark.parametrize("kind", [MatrixKind.BT, MatrixKind.BH])
def test_k3_non_crossing_words_match_the_exact_value_over_seeds(kind, method):
    # aabbcc = abbcca = int Z^3 = 48 - 2 pi^2 - 12 zeta(3) exactly, under
    # both patterns.  At 200,000 points over seeds 0-29 the z scores of both
    # words had sd 0.79-1.36 and reached 4.22 (Hankel abbcca on the lattice,
    # whose one draw goes through the smoothing map; aabbcc draws nothing)
    for letters, reference in K3_NONCROSSING_WORDS.items():
        estimates = [limit_word_moment(Word(letters), kind, method, samples=200_000, seed=s) for s in range(12)]
        assert_honest(z_scores([(e.value, e.std_error) for e in estimates], reference), (letters, method))


# --- randomly shifted lattice rule -----------------------------------------


def test_lattice_size_is_the_smallest_odd_prime_at_the_batch_size():
    def is_odd_prime(n):
        return n > 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for samples, batches in itertools.product((1, 16, 48, 49, 4096, 200_000, 2_000_000), (2, 16)):
        n = _lattice_size(samples, batches)
        least = max(3, -(-samples // batches))
        assert is_odd_prime(n) and n >= least, (samples, batches, n)
        assert not any(is_odd_prime(m) for m in range(least, n)), (samples, batches, n)


def test_lattice_vector_is_deterministic_and_made_of_units():
    for n, dim in ((3, 4), (5, 3), (257, 3), (12503, 8)):
        z = _lattice(n, dim)
        assert z.dtype == np.int64 and z.shape == (dim,) and not z.flags.writeable
        assert np.array_equal(z, _lattice.__wrapped__(n, dim))  # rebuilt, not read from the cache
        assert z[0] == 1 and all(0 < c < n and math.gcd(int(c), n) == 1 for c in z), (n, z)
    # component by component: a longer vector extends the shorter one
    assert np.array_equal(_lattice(12503, 8)[:3], _lattice(12503, 3))


def test_batch_lattice_multipliers_are_units_with_small_quotients():
    # z_j is a unit mod n, so i -> (i z_j + c_j) mod n permutes the batch's
    # rows and each drawn coordinate takes every stratum once; it is the one
    # of smallest largest partial quotient near n frac(g^-j), so the rows
    # (i, i z_j mod n) lie evenly.  Over these sizes and 600 others up to
    # 2^27, the largest quotient measured 6 at d = 1 (the golden ratio's
    # 0.618...) and 12 at d = 2, the words up to k = 3; at d = 3 to 6 it
    # reached 25, 42, 34 and 178, where the target's own expansion has a
    # large quotient early (frac(g^-4) = [0; 1, 1, 1, 7, 207, ...] at d = 6)
    # that no unit within 200 of it escapes at large n
    _batch_lattice, largest_quotient = limits_module._batch_lattice, limits_module._largest_quotient
    ceiling = 134_103_054  # near 2^27, the top of the sizes measured above
    bounds = {1: 6, 2: 12}
    for n, d in itertools.product((1, 2, 3, 8191, 125_000, 125_003, ceiling), range(1, MAX_K)):
        z = _batch_lattice(n, d)
        assert z == _batch_lattice.__wrapped__(n, d) and len(z) == d, (n, d)  # rebuilt, not read from the cache
        assert all(0 <= c < n and math.gcd(c, n) == 1 for c in z), (n, z)
        assert max(largest_quotient(c, n) for c in z) <= bounds.get(d, 200), (n, d, z)
    assert _batch_lattice(125_000, 1) == (77_283,)  # 0.6182 n; 125,000 / 77,283 = [1; 1, 1, 1, 1, 1, 1, 2, 3, ...]
    for n in (8191, 125_003):
        z, c = _batch_lattice(n, 2), 12_345
        for z_j in z:
            assert np.array_equal(np.sort((np.arange(n) * z_j + c) % n), np.arange(n)), (n, z_j)


def test_batch_lattice_residues_are_exact_at_the_budget_ceiling():
    # the residues come from a table of r z mod n plus a per-block offset in
    # Python ints, so they are exact where i z passes 2^53, which float64
    # products of i and z would round: the last block of a batch at _plan's
    # largest size, where r z comes within a block row of 2^53, drawn from a
    # generator the test replays, one row of 1 + d = 2 uniforms a point
    n = 2**53 // limits_module._MC_BLOCK
    block = limits_module._MC_BLOCK
    start = (n - 1) // block * block
    m = n - start
    (z,) = limits_module._batch_lattice(n, 1)
    assert start * z > 2**53
    uniforms = limits_module._batch_blocks(np.random.default_rng(5), n, 1, [1], 2, np.empty(block),
                                           np.empty(block, dtype=bool))
    replay = np.random.default_rng(5)
    shifts = replay.integers(n, size=(2, 1))
    draws = replay.random((m, 2))
    u = uniforms(1, start, m)
    i = range(start, n)
    residues = np.array([(row * z + int(shifts[1, 0])) % n for row in i], dtype=float)
    assert np.array_equal(u[0], (np.arange(start, n, dtype=float) + draws[:, 0]) / n)
    assert np.array_equal(u[1], (residues + draws[:, 1]) / n)
    assert residues.min() >= 0 and residues.max() < n


def test_lattice_rule_integrates_a_smooth_periodic_product():
    # prod_j exp(sin(2 pi x_j)) integrates to I0(1)^d (I0 the modified Bessel
    # function, summed as its series); its Fourier coefficients fall off like
    # 2^-|h| / |h|!, so a good 4001-point lattice is accurate to 1e-6 in up
    # to 4 dimensions, the k + 1 coordinates of the words up to k = 3.  The
    # points are the kernel's, from one block of its uniforms
    i0 = sum(0.25**m / math.factorial(m) ** 2 for m in range(20))
    n = _lattice_size(4000, 1)
    assert n == 4001
    for dim in (1, 2, 3, 4):
        shifts = np.random.default_rng(dim).random((2, dim))
        uniforms = limits_module._lattice_blocks(n, shifts)
        for b in (0, 1):
            u = uniforms(b, 0, n)
            value = float(np.prod(np.exp(np.sin(2.0 * np.pi * u)), axis=0).mean())
            assert abs(value / i0**dim - 1.0) <= 1e-6, (dim, b, value / i0**dim - 1.0)
    # the points of the rank-1 rule on the diagonal, z = (1, 1), are off by 42 %
    u = (np.arange(n) / n + 0.3) % 1.0
    assert abs(float(np.mean(np.exp(2.0 * np.sin(2.0 * np.pi * u)))) / i0**2 - 1.0) > 0.1


@pytest.mark.parametrize("kind", [MatrixKind.BT, MatrixKind.BH])
def test_quadrature_k2_matches_the_references_over_seeds(kind):
    # each shift mean is unbiased, so over seeds the z scores against the
    # references of tests/limit_references.py are held as the Monte Carlo's
    estimates = [limit_moment(2, kind, "quadrature", samples=200_000, seed=s, threads=1) for s in range(8)]
    assert_honest(z_scores([(e.value, e.std_error) for e in estimates], TOTALS[(2, kind.link.value)]), kind)


def test_quadrature_k3_agrees_across_lattice_sizes():
    # two lattice sizes four times apart must agree within their combined
    # bars, and the larger must land within 4 bars of the Hankel k = 3 total
    # from difference coordinates, the class sum whose spread of 4e-7 the z
    # takes in quadrature (at seed 9 the larger reads z = +1.63 on a bar of
    # 1.6e-5, and the two sizes differ by 1.48 combined bars)
    small, large = (
        limit_moment(3, MatrixKind.BH, "quadrature", samples=samples, seed=9, threads=1) for samples in (100_000, 400_000)
    )
    assert abs(small.value - large.value) <= 4.0 * math.hypot(small.std_error, large.std_error)
    assert large.std_error < small.std_error
    assert_honest(z_scores([(large.value, large.std_error)], TOTALS[(3, "h")]), "k3-bh")


# --- empirical comparison --------------------------------------------------


def test_compare_empirical_limit_small():
    from balanced_spectra.inputs import Distribution

    report = compare_empirical_limit(
        MatrixKind.BT, 120, 8, 1, 77, Distribution.STANDARD_NORMAL,
        method="quadrature", threads=1,
    )
    orders = [row.order for row in report.rows]
    assert orders == [1, 2]
    assert report.rows[1].limit == pytest.approx(2.0, abs=1e-3)
    assert report.all_passed
    payload = report.to_dict()
    assert payload["kind"] == "bt" and len(payload["rows"]) == 2


def test_compare_rejects_unbalanced_kind():
    with pytest.raises(InvalidArgumentError):
        compare_empirical_limit(MatrixKind.T, 50, 4, 1, 1)
