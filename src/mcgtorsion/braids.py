"""Braid words on labeled strands.

Words in the strand-switching generators are kept literally, as
(index, sign) letters.  The module computes the two quotients the rest
of the package needs, the permutation image and the signed letter
count, builds the positive half-twist word on six strands, and lifts
six-strand words letterwise to twist words on the genus-2 chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import Permutation
from .errors import ParseError
from .surfaces import chain_system
from .words import Word, letter, parse_signed_letters

BraidLetter = tuple[int, int]


@dataclass(frozen=True)
class BraidWord:
    """Word in the switching generators of the braid group on `strands` strands.

    letters holds (index, sign) pairs: index i names the generator
    swapping strands i and i+1, sign is +1 or -1.
    """

    strands: int
    letters: tuple[BraidLetter, ...]

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise ValueError(f"braid words need at least 2 strands, got {self.strands}")
        for pos, (index, sign) in enumerate(self.letters, start=1):
            if not 1 <= index <= self.strands - 1:
                raise ValueError(
                    f"letter {pos}: strand index {index} out of range "
                    f"1..{self.strands - 1}"
                )
            if sign not in (1, -1):
                raise ValueError(f"letter {pos}: sign must be +1 or -1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def __str__(self) -> str:
        return " ".join(
            f"s{index}" if sign == 1 else f"s{index}^-1"
            for index, sign in self.letters
        )


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parses braid text like "s1 s2^-1 s5" on the given strand count.

    Errors carry the 1-based position of the offending token.
    """
    letters: list[BraidLetter] = []
    for idx, name, sign in parse_signed_letters(text):
        if name[0] != "s" or not name[1:].isdigit():
            raise ParseError(f"letter {idx}: expected s<k>, got {name!r}")
        index = int(name[1:])
        if not 1 <= index <= strands - 1:
            raise ParseError(
                f"letter {idx}: strand index {index} out of range 1..{strands - 1}"
            )
        letters.append((index, sign))
    return BraidWord(strands, tuple(letters))


def braid_permutation(w: BraidWord) -> Permutation:
    """Image of a braid word in the symmetric group on its strands.

    Each letter contributes the swap of its two strands, signs
    forgotten; the rightmost letter acts first, matching the word
    evaluation convention on homology.
    """
    result = Permutation.identity(w.strands)
    for index, _ in w.letters:
        result = result.compose(Permutation.transposition(w.strands, index, index + 1))
    return result


def exponent_sum(w: BraidWord) -> int:
    """Signed letter count of a braid word."""
    return sum(sign for _, sign in w.letters)


def delta_star_word() -> BraidWord:
    """The positive half-twist word on six strands.

    Fifteen positive letters in staircase order: passes 5 | 45 | 345 |
    2345 | 12345, each starting one strand lower and climbing to the
    top.  The word reverses the strand order, swapping 1 with 6, 2
    with 5, and 3 with 4, so its permutation image is an involution.
    """
    indices = (5, 4, 5, 3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5)
    return BraidWord(6, tuple((index, 1) for index in indices))


def braid_to_genus2_word(w: BraidWord) -> Word:
    """Letterwise lift of a six-strand braid word to the genus-2 chain.

    The i-th switching letter becomes the twist on chain curve Ci,
    signs and letter order preserved.
    """
    if w.strands != 6:
        raise ValueError(f"the lift needs a six-strand word, got {w.strands} strands")
    system = chain_system(2)
    letters = tuple(letter(system, f"C{index}", sign) for index, sign in w.letters)
    return Word(letters, system)
