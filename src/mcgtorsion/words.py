"""Words in twist and half-twist generators over a curve system.

The grammar is whitespace-separated letters, each a curve name with an
optional integer exponent: "C1 C2^3 A1^-1".  A letter on a closed curve
is a Dehn twist; a letter on an arc is a half-twist.  Words support the
free-group calculus (reduction, inverse, conjugate, commutator) and the
signed-count abelianization: twists on nonseparating curves survive
modulo 12, 10, or 1 according to genus, half-twists survive modulo 2
when the surface has at least two boundary circles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .surfaces import ARC, NONSEPARATING, CurveSystem

TWIST = "twist"
HALFTWIST = "halftwist"

_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?$")


@dataclass(frozen=True)
class Generator:
    """A single signed letter: a twist or half-twist along a named curve."""

    curve_name: str
    kind: str
    sign: int

    def __post_init__(self) -> None:
        if self.kind not in (TWIST, HALFTWIST):
            raise ValueError(f"generator kind must be twist or halftwist, got {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"generator sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> "Generator":
        return Generator(self.curve_name, self.kind, -self.sign)

    def __str__(self) -> str:
        return self.curve_name if self.sign == 1 else f"{self.curve_name}^-1"


@dataclass(frozen=True)
class Word:
    """A finite sequence of generators over one curve system.

    Construction checks that every letter names a curve of the system
    and that the letter kind matches the curve: half-twists live on
    arcs, twists on closed curves.
    """

    letters: tuple[Generator, ...]
    system: CurveSystem

    def __post_init__(self) -> None:
        for g in self.letters:
            curve = self.system.curve(g.curve_name)
            if curve.kind == ARC and g.kind != HALFTWIST:
                raise ValueError(f"{g.curve_name} is an arc and only supports half-twists")
            if curve.kind != ARC and g.kind != TWIST:
                raise ValueError(f"{g.curve_name} is a closed curve and only supports twists")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.system != other.system:
            raise ValueError("cannot concatenate words over different systems")
        return Word(self.letters + other.letters, self.system)

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.letters)


def letter(system: CurveSystem, name: str, sign: int = 1) -> Generator:
    """Builds the generator for a named curve, inferring twist vs half-twist.

    The stored letter uses the curve's canonical name even when looked
    up through the case-insensitive fallback.
    """
    curve = system.curve(name)
    kind = HALFTWIST if curve.kind == ARC else TWIST
    return Generator(curve.name, kind, sign)


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


def empty_word(system: CurveSystem) -> Word:
    return Word((), system)


def free_reduce(w: Word) -> Word:
    """Cancels adjacent inverse pairs until none remain."""
    stack: list[Generator] = []
    for g in w.letters:
        if stack and stack[-1] == g.inverse():
            stack.pop()
        else:
            stack.append(g)
    return Word(tuple(stack), w.system)


def inverse(w: Word) -> Word:
    return Word(tuple(g.inverse() for g in reversed(w.letters)), w.system)


def conjugate(w: Word, u: Word) -> Word:
    """u * w * u^-1."""
    return u * w * inverse(u)


def commutator(u: Word, w: Word) -> Word:
    """u * w * u^-1 * w^-1."""
    return u * w * inverse(u) * inverse(w)


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
    for gen in w.letters:
        if gen.kind == TWIST:
            if w.system.curve(gen.curve_name).kind == NONSEPARATING:
                twist_sum += gen.sign
        else:
            half_sum += gen.sign
    return AbelianImage(twist_sum % tmod, tmod, half_sum % hmod, hmod)
