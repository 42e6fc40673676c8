"""Words in twist and half-twist generators over a curve system.

The grammar is whitespace-separated letters, each a curve name with an
optional integer exponent: "C1 C2^3 A1^-1".  Parsing resolves each name
to its index in the system's curves, so a word holds (curve index, sign)
letters; a letter on a closed curve is a Dehn twist, a letter on an arc
a half-twist.  Words concatenate and map to the signed-count
abelianization: twists on nonseparating curves survive modulo 12, 10,
or 1 according to genus, half-twists survive modulo 2 when the surface
has at least two boundary circles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .surfaces import ARC, NONSEPARATING, CurveSystem

_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?$")


@dataclass(frozen=True)
class Word:
    """A finite sequence of letters over one curve system.

    letters holds (index, sign) pairs: index points into system.curves,
    sign is +1 or -1.  The curve's kind fixes the letter's kind: a
    half-twist on an arc, a twist on a closed curve.
    """

    letters: tuple[tuple[int, int], ...]
    system: CurveSystem

    def __post_init__(self) -> None:
        count = len(self.system.curves)
        for pos, (index, sign) in enumerate(self.letters, start=1):
            if not 0 <= index < count:
                raise ValueError(
                    f"letter {pos}: curve index {index} out of range 0..{count - 1}"
                )
            if sign not in (1, -1):
                raise ValueError(f"letter {pos}: sign must be +1 or -1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.system != other.system:
            raise ValueError("cannot concatenate words over different systems")
        return Word(self.letters + other.letters, self.system)

    def __str__(self) -> str:
        names = self.system.names
        return " ".join(
            names[index] if sign == 1 else f"{names[index]}^-1"
            for index, sign in self.letters
        )


def letter(system: CurveSystem, name: str, sign: int = 1) -> tuple[int, int]:
    """The (curve index, sign) letter for a named curve of the system.

    Names resolve through CurveSystem.index, so a unique
    case-insensitive spelling is accepted.
    """
    return (system.index(name), sign)


def parse_signed_letters(text: str) -> list[tuple[int, str, int]]:
    """Tokenizes word text into (position, name, sign) with exponents expanded.

    Position is the 1-based index of the source token, kept so callers
    can report errors against the original text.
    """
    out: list[tuple[int, str, int]] = []
    for idx, token in enumerate(text.split(), start=1):
        match = _TOKEN.match(token)
        if match is None:
            raise ParseError(
                f"letter {idx}: malformed token {token!r}; expected NAME or NAME^k"
            )
        name, exponent = match.group(1), match.group(2)
        k = 1 if exponent is None else int(exponent)
        sign = 1 if k >= 0 else -1
        out.extend((idx, name, sign) for _ in range(abs(k)))
    return out


def parse_word(text: str, system: CurveSystem) -> Word:
    """Parses word text over a curve system.

    Raises ParseError naming the offending token and its position for
    unknown curves and malformed letters.
    """
    letters = []
    for idx, name, sign in parse_signed_letters(text):
        try:
            letters.append(letter(system, name, sign))
        except ValueError as exc:
            raise ParseError(f"letter {idx}: {exc}") from None
    return Word(tuple(letters), system)


@dataclass(frozen=True)
class AbelianImage:
    """Image of a word in the abelianized mapping class group.

    twist_component counts signed twists on nonseparating curves modulo
    twist_modulus; halftwist_component counts signed half-twists modulo
    halftwist_modulus.  A modulus of 1 marks a trivial component.
    """

    twist_component: int
    twist_modulus: int
    halftwist_component: int
    halftwist_modulus: int

    def __post_init__(self) -> None:
        for value, modulus, label in (
            (self.twist_component, self.twist_modulus, "twist"),
            (self.halftwist_component, self.halftwist_modulus, "halftwist"),
        ):
            if modulus < 1:
                raise ValueError(f"{label} modulus must be >= 1")
            if not 0 <= value < modulus:
                raise ValueError(f"{label} component {value} is not reduced mod {modulus}")

    @property
    def components(self) -> tuple[int, int]:
        return (self.twist_component, self.halftwist_component)

    @property
    def is_zero(self) -> bool:
        return self.components == (0, 0)

    def __add__(self, other: "AbelianImage") -> "AbelianImage":
        if not isinstance(other, AbelianImage):
            return NotImplemented
        if (self.twist_modulus, self.halftwist_modulus) != (
            other.twist_modulus,
            other.halftwist_modulus,
        ):
            raise ValueError("cannot add abelian images with different moduli")
        return AbelianImage(
            (self.twist_component + other.twist_component) % self.twist_modulus,
            self.twist_modulus,
            (self.halftwist_component + other.halftwist_component) % self.halftwist_modulus,
            self.halftwist_modulus,
        )

    def scaled(self, k: int) -> "AbelianImage":
        return AbelianImage(
            (k * self.twist_component) % self.twist_modulus,
            self.twist_modulus,
            (k * self.halftwist_component) % self.halftwist_modulus,
            self.halftwist_modulus,
        )

    def __str__(self) -> str:
        return f"({self.twist_component}, {self.halftwist_component})"


def twist_modulus(g: int) -> int:
    """Order of the image of one nonseparating twist: 12, 10, then 1 from genus 3 on."""
    if g < 1:
        raise ValueError("twist modulus needs genus >= 1")
    return 12 if g == 1 else 10 if g == 2 else 1


def halftwist_modulus(r: int) -> int:
    """Order of the image of one boundary-swapping half-twist: 2 once r >= 2, else 1."""
    if r < 0:
        raise ValueError(f"boundary count must be nonnegative, got {r}")
    return 2 if r >= 2 else 1


def abelian_image(w: Word, g: int, r: int) -> AbelianImage:
    """Signed letter counts of w in the abelianization for genus g >= 1, boundary r.

    Twists on separating curves count zero.
    """
    tmod = twist_modulus(g)
    hmod = halftwist_modulus(r)
    twist_sum = 0
    half_sum = 0
    curves = w.system.curves
    for index, sign in w.letters:
        kind = curves[index].kind
        if kind == NONSEPARATING:
            twist_sum += sign
        elif kind == ARC:
            half_sum += sign
    return AbelianImage(twist_sum % tmod, tmod, half_sum % hmod, hmod)
