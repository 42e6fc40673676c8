"""Finitely presented groups and their abelian quotients.

A Presentation stores generators and relators as free-group words; the
abelianization is read off the Smith normal form of the relator
exponent matrix, together with the image of each generator in
invariant-factor coordinates.  The module also builds the half-twist
presentation of the mapping class group of a sphere with r marked
points, turns power relations on twist words into cyclic-group
constraints, and packages the parity consequence for a half-twist
swapping two boundary circles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError
from .intlinalg import AbelianGroup, IntMatrix, cokernel, smith_normal_form
from .surfaces import (
    ARC,
    NONSEPARATING,
    SEPARATING,
    Curve,
    CurveSystem,
    Surface,
)
from .words import AbelianImage, abelian_image, parse_signed_letters, parse_word

# A relator is a free-group word over the generators, stored as
# (generator name, +1 or -1) letters.
Letter = tuple[str, int]
Relator = tuple[Letter, ...]


@dataclass(frozen=True)
class Presentation:
    """Group presentation with relators kept as words.

    The exponent matrix is derived on demand so that word-level
    rewrites of the relator list stay cheap.
    """

    generators: tuple[str, ...]
    relators: tuple[Relator, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("presentations need at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")
        known = set(self.generators)
        for k, rel in enumerate(self.relators):
            for name, sign in rel:
                if name not in known:
                    raise ValueError(
                        f"relator {k + 1} uses unknown generator {name!r}"
                    )
                if sign not in (1, -1):
                    raise ValueError(
                        f"relator {k + 1} has sign {sign!r} for {name!r}, expected +1 or -1"
                    )

    def exponent_matrix(self) -> IntMatrix:
        """Signed letter counts: one row per relator, one column per generator."""
        index = {name: j for j, name in enumerate(self.generators)}
        width = len(self.generators)
        entries: list[int] = []
        for rel in self.relators:
            row = [0] * width
            for name, sign in rel:
                row[index[name]] += sign
            entries.extend(row)
        return IntMatrix(len(self.relators), width, tuple(entries))


def parse_relator(text: str, generators: Sequence[str]) -> Relator:
    """Parses one relator word; letters must name the given generators."""
    known = set(generators)
    letters: list[Letter] = []
    for idx, name, sign in parse_signed_letters(text):
        if name not in known:
            raise ParseError(
                f"letter {idx}: unknown generator {name!r}; "
                f"known: {', '.join(generators)}"
            )
        letters.append((name, sign))
    return tuple(letters)


def parse_presentation(text: str) -> Presentation:
    """Parses the presentation file format.

    One line "gens: X Y ..." names the generators; each line
    "rel: <word>" adds a relator in the usual word grammar.  Blank
    lines and lines starting with "#" are skipped.  Errors carry the
    1-based line number.
    """
    generators: tuple[str, ...] | None = None
    relators: list[Relator] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        key = head.strip()
        if not sep or key not in ("gens", "rel"):
            raise ParseError(
                f"line {lineno}: expected 'gens: ...' or 'rel: ...', got {line!r}"
            )
        if key == "gens":
            if generators is not None:
                raise ParseError(f"line {lineno}: second gens line")
            generators = tuple(rest.split())
            if not generators:
                raise ParseError(f"line {lineno}: gens line names no generators")
        else:
            if generators is None:
                raise ParseError(f"line {lineno}: rel line before the gens line")
            try:
                relators.append(parse_relator(rest, generators))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
    if generators is None:
        raise ParseError("missing gens line")
    return Presentation(generators, tuple(relators))


def abelianize(p: Presentation) -> tuple[AbelianGroup, tuple[tuple[int, ...], ...]]:
    """Abelian quotient of a presentation plus generator images.

    Returns the cokernel of the relator exponent matrix and, for each
    generator, its coordinates in the invariant-factor decomposition:
    one coordinate per reported factor, reduced mod the factor when it
    is finite.
    """
    m = p.exponent_matrix()
    d, _, v = smith_normal_form(m)
    k = min(m.rows, m.cols)
    diag = [d[i, i] for i in range(k)] + [0] * (m.cols - k)
    keep = [i for i, x in enumerate(diag) if x != 1]
    group = AbelianGroup(tuple(diag[i] for i in keep))
    images = tuple(
        tuple(v[j, i] % diag[i] if diag[i] > 0 else v[j, i] for i in keep)
        for j in range(len(p.generators))
    )
    return group, images


def gamma_0r_presentation(r: int) -> Presentation:
    """Half-twist presentation of the marked-sphere mapping class group.

    Generators A1..A_{r-1} are half-twists swapping consecutive marked
    points among r on a sphere.  Relators: far generators commute,
    consecutive generators braid, the word A1..A_{r-2} A_{r-1}^2
    A_{r-2}..A1 is trivial, and the full rotation A1..A_{r-1} has
    order r.
    """
    if r < 3:
        raise ValueError(f"need at least 3 marked points, got {r}")
    name = [f"A{i}" for i in range(r)]
    relators: list[Relator] = []
    for i in range(1, r - 1):
        for j in range(i + 2, r):
            relators.append(
                ((name[i], 1), (name[j], 1), (name[i], -1), (name[j], -1))
            )
    for i in range(1, r - 1):
        relators.append(
            (
                (name[i], 1),
                (name[i + 1], 1),
                (name[i], 1),
                (name[i + 1], -1),
                (name[i], -1),
                (name[i + 1], -1),
            )
        )
    staircase: list[Letter] = [(name[i], 1) for i in range(1, r - 1)]
    staircase += [(name[r - 1], 1), (name[r - 1], 1)]
    staircase += [(name[i], 1) for i in range(r - 2, 0, -1)]
    relators.append(tuple(staircase))
    rotation = [(name[i], 1) for i in range(1, r)]
    relators.append(tuple(rotation * r))
    return Presentation(tuple(name[1:]), tuple(relators))


@dataclass(frozen=True)
class TorsionRelation:
    """A power relation w^order = 1 for a word of known signed twist count.

    exponent_sum is the signed number of twists on nonseparating curves
    in w; order is the asserted order of w, at least 1.
    """

    exponent_sum: int
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"torsion order must be >= 1, got {self.order}")


def torsion_order_constraints(cs: Iterable[TorsionRelation]) -> AbelianGroup:
    """Cyclic group cut out by power relations on a single twist class.

    All nonseparating twists are conjugate, so each relation w^m = 1
    with signed twist count s forces m*s times the class to vanish.
    The result is the cokernel of the column of those products.
    """
    products = [c.order * c.exponent_sum for c in cs]
    if not products:
        raise ValueError("need at least one torsion relation")
    return cokernel(IntMatrix(len(products), 1, tuple(products)))


@dataclass(frozen=True)
class HalftwistParityCheck:
    """Abelianization bookkeeping for a boundary-swapping half-twist.

    The half-twist squares to the twist on the separating curve that
    encloses both swapped boundary circles, and separating twists die
    in the abelianization; the record holds the three computed images
    so the conclusion can be checked rather than asserted.
    """

    system: CurveSystem
    separating_twist_image: AbelianImage
    halftwist_image: AbelianImage
    halftwist_square_image: AbelianImage

    @property
    def separating_twist_vanishes(self) -> bool:
        return self.separating_twist_image.is_zero

    @property
    def square_vanishes(self) -> bool:
        return self.halftwist_square_image.is_zero

    @property
    def halftwist_order_divides_two(self) -> bool:
        return self.halftwist_image.scaled(2).is_zero

    @property
    def holds(self) -> bool:
        return (
            self.separating_twist_vanishes
            and self.square_vanishes
            and self.halftwist_order_divides_two
        )


def _two_hole_torus_system() -> CurveSystem:
    """Genus-1 surface with two boundary circles and a swapping arc.

    S separates off the three-holed sphere containing both boundary
    circles; T is the arc joining them inside it; A, B form the
    homology basis of the capped-off torus.
    """
    curves = (
        Curve("A", NONSEPARATING, (1, 0)),
        Curve("B", NONSEPARATING, (0, 1)),
        Curve("S", SEPARATING, (0, 0)),
        Curve("T", ARC),
    )
    pairing = (
        (0, 1, 0, 0),
        (-1, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
    )
    return CurveSystem(Surface(1, 2), curves, pairing)


def lantern_3hole_consequence() -> HalftwistParityCheck:
    """Computes why a boundary-swapping half-twist has order dividing 2
    in the abelianization.

    Works over a genus-1 surface with two boundary circles: the twist
    on the curve S separating off both circles maps to zero, the
    half-twist T on the joining arc squares to that twist, so the
    image of T kills 2.
    """
    system = _two_hole_torus_system()
    g, r = system.surface.genus, system.surface.boundary
    sep = parse_word("S", system)
    half = parse_word("T", system)
    return HalftwistParityCheck(
        system=system,
        separating_twist_image=abelian_image(sep, g, r),
        halftwist_image=abelian_image(half, g, r),
        halftwist_square_image=abelian_image(half * half, g, r),
    )
