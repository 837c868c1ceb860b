"""Pair-matched word combinatorics and the per-word integer linear forms.

A word of length 2k is the canonical encoding of a partition of positions
1..2k into pairs: letters name the pairs, first occurrences appear in
alphabetical order.  Position 0 plus each letter's first occurrence are the
*generating* positions; every position's circuit vertex is an integer linear
combination of the generating vertices, derived by walking the word once:

* Toeplitz pattern: matched steps have opposite slopes, so a second
  occurrence at i matched to an earlier j satisfies
  ``L_i = L_{i-1} + L_{j-1} - L_j``.
* Hankel pattern: matched steps share the anti-diagonal index i+j-1, so
  ``L_i = L_{j-1} + L_j - L_{i-1}``.

The walk closes (``L_{2k}`` reduces to the position-0 vertex) for every word
under the Toeplitz rule, and exactly for the parity-symmetric words under the
Hankel rule.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .matgen import MatrixKind

MAX_K = 7  # 13!! = 135135 words; enumeration above this is refused


class Word:
    """Canonical pair-matched word with an explicit position-pairing map."""

    __slots__ = ("letters", "pairing")

    def __init__(self, letters: str):
        counts: dict[str, list[int]] = {}
        for pos, ch in enumerate(letters, start=1):
            counts.setdefault(ch, []).append(pos)
        order = []
        for ch, positions in counts.items():
            if len(positions) != 2:
                raise InvalidArgumentError(
                    f"word {letters!r} is not pair-matched (letter {ch!r})"
                )
            order.append(ch)
        if order != sorted(order) or order != list(
            string.ascii_lowercase[: len(order)]
        ):
            raise InvalidArgumentError(
                f"word {letters!r} is not canonical (first occurrences must be a, b, c, ...)"
            )
        pairing: dict[int, int] = {}
        for first, second in counts.values():
            pairing[first] = second
            pairing[second] = first
        self.letters = letters
        self.pairing = pairing

    @property
    def k(self) -> int:
        return len(self.letters) // 2

    @property
    def length(self) -> int:
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({self.letters!r})"


def enumerate_pair_matched_words(k: int) -> list[Word]:
    """All canonical pair-matched words of length 2k, in lexicographic order.

    The count is the double factorial (2k-1)!!.
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if k > MAX_K:
        raise ResourceLimitError(f"k={k} exceeds the enumeration cap {MAX_K}")
    out: list[Word] = []
    slots = [""] * (2 * k)

    def extend(pos: int, open_letters: tuple[str, ...], used: int):
        if pos == 2 * k:
            out.append(Word("".join(slots)))
            return
        remaining = 2 * k - pos
        # close an open letter (alphabetical order keeps output lexicographic)
        for ch in open_letters:
            slots[pos] = ch
            rest = tuple(c for c in open_letters if c != ch)
            extend(pos + 1, rest, used)
        # or open a new letter, provided partner slots remain for every open one
        if used < k and remaining > len(open_letters) + 1:
            ch = string.ascii_lowercase[used]
            slots[pos] = ch
            extend(pos + 1, open_letters + (ch,), used + 1)

    extend(0, (), 0)
    return out


def _relabel(letters: str) -> str:
    """Rename the letters of a pair-matched string in order of first occurrence."""
    names: dict[str, str] = {}
    return "".join(names.setdefault(ch, string.ascii_lowercase[len(names)]) for ch in letters)


def dihedral_representative(word: Word) -> Word:
    """The least canonical word among the 2 * 2k rotations of ``word`` and of its reversal.

    A circuit read from another start, or backwards, is a circuit of the
    rotated or reversed word with the same edge weights, so a word's circuit
    sum is constant on this class.  Class counts are 1, 2, 5, 17, 79 and 554
    at k = 1..6, against (2k-1)!! words.
    """
    letters = word.letters
    return Word(min(
        _relabel(seq[i:] + seq[:i]) for seq in (letters, letters[::-1]) for i in range(len(letters))
    ))


def is_symmetric(word: Word) -> bool:
    """True when each letter occupies one odd and one even position."""
    return all((i + j) % 2 == 1 for i, j in word.pairing.items() if i < j)


def generating_vertices(word: Word) -> tuple[int, ...]:
    """Position 0 plus each letter's first occurrence, ascending."""
    firsts = sorted(i for i, j in word.pairing.items() if i < j)
    return (0, *firsts)


@dataclass(frozen=True)
class LinearForm:
    """Integer affine combination of generating vertices (coefficients sum to 1)."""

    vertices: tuple[int, ...]
    coeffs: tuple[int, ...]

    def evaluate(self, assignment) -> float:
        """Evaluate at values aligned with ``vertices``."""
        return float(np.dot(self.coeffs, np.asarray(assignment, dtype=np.float64)))


def linear_forms(word: Word, kind: MatrixKind) -> tuple[list[LinearForm], bool]:
    """Forms L_0..L_{2k} for the word under the given pattern, plus closure.

    ``closure`` reports whether L_{2k} is symbolically the position-0 vertex,
    i.e. whether the constrained walk always returns to its start.
    """
    vertices = generating_vertices(word)
    unit = {v: tuple(int(v == u) for u in vertices) for v in vertices}
    rows = [unit[0]]
    for pos in range(1, word.length + 1):
        if pos in unit:
            rows.append(unit[pos])
            continue
        mate = word.pairing[pos]
        # rows[a] + rows[b] - rows[c], the two pattern rules of the module docstring
        a, b, c = (pos - 1, mate - 1, mate) if kind.link is MatrixKind.T else (mate - 1, mate, pos - 1)
        rows.append(tuple(x + y - z for x, y, z in zip(rows[a], rows[b], rows[c])))
    forms = [LinearForm(vertices=vertices, coeffs=row) for row in rows]
    return forms, rows[-1] == rows[0]


def form_matrix(forms: list[LinearForm]) -> np.ndarray:
    """Stack form coefficient vectors into a (2k+1, k+1) integer matrix."""
    return np.array([f.coeffs for f in forms], dtype=np.int64)
