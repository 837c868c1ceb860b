import math

import numpy as np
import pytest

from balanced_spectra.errors import InvalidArgumentError, ResourceLimitError
from balanced_spectra.matgen import MatrixKind
from balanced_spectra.words import (
    Word,
    dihedral_representative,
    enumerate_pair_matched_words,
    form_matrix,
    generating_vertices,
    is_symmetric,
    linear_forms,
)


def double_factorial(k):
    return math.prod(range(1, 2 * k, 2))


def brute_force_pairings(k):
    """Independent enumeration: all pairings of {1..2k}, canonicalized."""
    positions = list(range(1, 2 * k + 1))

    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for i, second in enumerate(rest):
            for tail in pairings(rest[:i] + rest[i + 1 :]):
                yield [(first, second)] + tail

    words = set()
    for pairing in pairings(positions):
        letters = [""] * (2 * k)
        for letter_index, (a, b) in enumerate(sorted(pairing)):
            ch = chr(ord("a") + letter_index)
            letters[a - 1] = ch
            letters[b - 1] = ch
        words.add("".join(letters))
    return words


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_enumeration_matches_brute_force(k):
    ws = enumerate_pair_matched_words(k)
    letters = [w.letters for w in ws]
    assert len(letters) == double_factorial(k)
    assert letters == sorted(letters)  # deterministic lexicographic order
    assert set(letters) == brute_force_pairings(k)


def test_enumeration_small_cases():
    assert [w.letters for w in enumerate_pair_matched_words(1)] == ["aa"]
    assert [w.letters for w in enumerate_pair_matched_words(2)] == ["aabb", "abab", "abba"]


@pytest.mark.parametrize("k, classes", [(1, 1), (2, 2), (3, 5), (4, 17), (5, 79)])
def test_dihedral_class_counts(k, classes):
    reps = {dihedral_representative(w) for w in enumerate_pair_matched_words(k)}
    assert len(reps) == classes


def relabel(letters):
    """Independent canonical relabelling: the i-th distinct letter becomes the i-th of the alphabet."""
    order = list(dict.fromkeys(letters))
    return "".join(chr(ord("a") + order.index(ch)) for ch in letters)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dihedral_representative_is_the_least_of_its_class(k):
    for word in enumerate_pair_matched_words(k):
        rep = dihedral_representative(word)
        s = word.letters
        images = {relabel(t[i:] + t[:i]) for t in (s, s[::-1]) for i in range(len(s))}
        assert rep.letters == min(images)  # canonical: Word() accepted it, and it is the least image
        assert dihedral_representative(rep) == rep
        for image in images:  # every rotation or reversal of a member maps to it
            assert dihedral_representative(Word(image)) == rep
        assert is_symmetric(rep) == is_symmetric(word)


def test_dihedral_representative_examples():
    assert dihedral_representative(Word("abba")) == Word("aabb")
    assert dihedral_representative(Word("abab")) == Word("abab")
    assert dihedral_representative(Word("abcbca")) == Word("aabcbc")  # rotated by one


def test_enumeration_guards():
    with pytest.raises(InvalidArgumentError):
        enumerate_pair_matched_words(0)
    with pytest.raises(ResourceLimitError):
        enumerate_pair_matched_words(8)


def test_word_validation():
    with pytest.raises(InvalidArgumentError):
        Word("aab")
    with pytest.raises(InvalidArgumentError):
        Word("bbaa")  # first occurrences must appear alphabetically
    w = Word("abab")
    assert w.pairing == {1: 3, 3: 1, 2: 4, 4: 2}


@pytest.mark.parametrize(
    "letters,expected",
    [("aa", True), ("aabb", True), ("abba", True), ("abab", False)],
)
def test_symmetry_examples(letters, expected):
    assert is_symmetric(Word(letters)) is expected


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_symmetric_count_is_factorial(k):
    # independent check: parity test straight from the positions
    ws = enumerate_pair_matched_words(k)
    count = 0
    for w in ws:
        ok = True
        for i, j in w.pairing.items():
            if i < j and (i % 2) == (j % 2):
                ok = False
                break
        if ok:
            count += 1
        assert ok == is_symmetric(w)
    assert count == math.factorial(k)


def test_generating_vertices_examples():
    assert generating_vertices(Word("aa")) == (0, 1)
    assert generating_vertices(Word("abab")) == (0, 1, 2)
    assert generating_vertices(Word("aabb")) == (0, 1, 3)
    for k in (2, 3, 4):
        for w in enumerate_pair_matched_words(k):
            assert len(generating_vertices(w)) == k + 1
            assert generating_vertices(w)[0] == 0


def test_linear_forms_hand_values():
    forms, closure = linear_forms(Word("aa"), MatrixKind.T)
    assert [f.coeffs for f in forms] == [(1, 0), (0, 1), (1, 0)]
    assert all(type(c) is int for f in forms for c in f.coeffs)
    assert closure

    forms, closure = linear_forms(Word("abab"), MatrixKind.T)
    # L_3 = x_2 + x_0 - x_1, L_4 = x_0
    assert forms[3].coeffs == (1, -1, 1)
    assert forms[4].coeffs == (1, 0, 0)
    assert closure

    forms, closure = linear_forms(Word("abab"), MatrixKind.H)
    # L_3 = x_0 + x_1 - x_2, L_4 = 2 x_2 - x_0
    assert forms[3].coeffs == (1, 1, -1)
    assert forms[4].coeffs == (-1, 0, 2)
    assert not closure


def test_balanced_kinds_reduce_to_pattern():
    w = Word("abab")
    assert linear_forms(w, MatrixKind.BT) == linear_forms(w, MatrixKind.T)
    assert linear_forms(w, MatrixKind.BH) == linear_forms(w, MatrixKind.H)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_toeplitz_closure_universal(k):
    for w in enumerate_pair_matched_words(k):
        assert linear_forms(w, MatrixKind.T)[1]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_hankel_closure_iff_symmetric(k):
    for w in enumerate_pair_matched_words(k):
        assert linear_forms(w, MatrixKind.H)[1] == is_symmetric(w)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_affine_sum_invariant(k):
    for w in enumerate_pair_matched_words(k):
        for kind in (MatrixKind.T, MatrixKind.H):
            for f in linear_forms(w, kind)[0]:
                assert sum(f.coeffs) == 1


def test_numeric_constraint_consistency():
    """Evaluating forms at random reals satisfies the defining pair equations."""
    rng = np.random.default_rng(8)
    for k in (2, 3):
        for w in enumerate_pair_matched_words(k):
            ft = form_matrix(linear_forms(w, MatrixKind.T)[0])
            fh = form_matrix(linear_forms(w, MatrixKind.H)[0])
            x = rng.standard_normal((1000, k + 1))
            lt = x @ ft.T
            lh = x @ fh.T
            for i, j in w.pairing.items():
                if i >= j:
                    continue
                # toeplitz: opposite slopes, equal |increments|
                slopes_i = lt[:, i - 1] - lt[:, i]
                slopes_j = lt[:, j - 1] - lt[:, j]
                assert np.max(np.abs(slopes_i + slopes_j)) < 1e-12
                # hankel: equal anti-diagonal levels
                levels_i = lh[:, i - 1] + lh[:, i]
                levels_j = lh[:, j - 1] + lh[:, j]
                assert np.max(np.abs(levels_i - levels_j)) < 1e-12


def test_form_evaluate():
    forms, _ = linear_forms(Word("abab"), MatrixKind.T)
    # L_3 = x_2 + x_0 - x_1 at (x_0, x_1, x_2) = (0.5, 0.25, 0.125)
    assert forms[3].evaluate([0.5, 0.25, 0.125]) == pytest.approx(0.375)
