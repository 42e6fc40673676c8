"""Finitely presented groups and their abelian quotients.

A Presentation stores generators and relators as free-group words; the
abelianization is read off the Smith normal form of the relator
exponent matrix, together with the image of each generator in
invariant-factor coordinates.  The module also builds the half-twist
presentation of the mapping class group of a sphere with r marked
points and turns power relations on twist words into cyclic-group
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    _diagonal_cokernel,
    _diagonalize,
    cokernel,
)
from .words import parse_signed_letters

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
    rows = m.to_rows() + IntMatrix.identity(m.cols).to_rows()
    group, keep = _diagonal_cokernel(_diagonalize(rows, m.rows, m.cols), m.cols)
    factors = group.invariant_factors
    images = tuple(
        tuple(v[i] % d if d > 0 else v[i] for i, d in zip(keep, factors))
        for v in rows[m.rows :]
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
