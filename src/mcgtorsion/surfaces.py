"""Surfaces and the curve systems twist words are written over.

A curve system records named curves or arcs on a compact orientable
surface together with their first-homology classes (rows over a fixed
basis) and the intersection form J on that basis, so that two classes
x, y pair to x J y^T.  Three built-in systems cover the needs of the
rest of the package: the square torus pair, the twist chain on a closed
genus-g surface, and the arc row on a planar surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import resolve_address
from .intlinalg import IntMatrix

NONSEPARATING = "nonseparating"
SEPARATING = "separating"
ARC = "arc"

CURVE_KINDS = (NONSEPARATING, SEPARATING, ARC)


@dataclass(frozen=True)
class Surface:
    """Compact orientable surface of the given genus and boundary count."""

    genus: int
    boundary: int

    def __post_init__(self) -> None:
        if self.genus < 0 or self.boundary < 0:
            raise ValueError("genus and boundary count must be nonnegative")


@dataclass(frozen=True)
class Curve:
    """A named curve or arc with its kind and optional homology class row."""

    name: str
    kind: str
    homology_class: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("curve names must be nonempty")
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}, expected one of {CURVE_KINDS}")


@dataclass(frozen=True)
class CurveSystem:
    """Named curves over one surface, with the intersection form.

    form is the 2g x 2g intersection form J on the coordinates the
    homology classes are written in, so two classes pair to x J y^T.
    Construction checks every invariant and raises ValueError on the
    first failure, in this order: the form is 2g x 2g, antisymmetric,
    then unimodular; the curve names are distinct; then, curve by
    curve, arcs carry no class, classes have length 2g, separating
    classes are zero, and nonseparating curves have a nonzero class.
    """

    surface: Surface
    curves: tuple[Curve, ...]
    form: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = 2 * self.surface.genus
        form = self.form
        if len(form) != n or any(len(row) != n for row in form):
            raise ValueError(f"intersection form must be {n}x{n} for genus {self.surface.genus}")
        if any(form[i][j] != -form[j][i] for i in range(n) for j in range(i, n)):
            raise ValueError("intersection form on the basis is not antisymmetric")
        if n and not IntMatrix.from_rows(form).is_unimodular():
            raise ValueError("intersection form on the basis is not unimodular")
        names = self.names
        if len(set(names)) != len(names):
            dup = next(name for i, name in enumerate(names) if name in names[:i])
            raise ValueError(f"duplicate curve name {dup!r}")
        for c in self.curves:
            if c.homology_class is None:
                if c.kind == NONSEPARATING:
                    raise ValueError(f"{c.name}: nonseparating curves need a homology class")
            elif c.kind == ARC:
                raise ValueError(f"{c.name}: arc curves carry no homology class")
            elif len(c.homology_class) != n:
                raise ValueError(f"{c.name}: homology class must have length {n}")
            elif c.kind == SEPARATING and any(c.homology_class):
                raise ValueError(f"{c.name}: separating curves must have zero homology class")
            elif c.kind == NONSEPARATING and not any(c.homology_class):
                raise ValueError(f"{c.name}: nonseparating curves have nonzero homology class")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.curves)

    def index(self, name: str) -> int:
        for i, c in enumerate(self.curves):
            if c.name == name:
                return i
        # Fall back to a unique case-insensitive match, so prose
        # spellings like "a b a" address the curves named A, B.
        folded = [i for i, c in enumerate(self.curves) if c.name.lower() == name.lower()]
        if len(folded) == 1:
            return folded[0]
        raise ValueError(f"unknown curve {name!r}; system has {', '.join(self.names)}")


def torus_system() -> CurveSystem:
    """The meridian/longitude pair a, b on the closed torus."""
    return CurveSystem(
        surface=Surface(1, 0),
        curves=(
            Curve("A", NONSEPARATING, (1, 0)),
            Curve("B", NONSEPARATING, (0, 1)),
        ),
        form=((0, 1), (-1, 0)),
    )


def _chain_form(g: int) -> tuple[tuple[int, ...], ...]:
    """The intersection form of the chain basis: +1 on the superdiagonal."""
    n = 2 * g
    return tuple(tuple((j == i + 1) - (i == j + 1) for j in range(n)) for i in range(n))


def chain_system(g: int) -> CurveSystem:
    """The chain c_1, ..., c_{2g+1} on a closed genus-g surface.

    Consecutive curves meet once; all others are disjoint.  The first
    2g curves are the homology basis, on which the form is the chain
    form.  The class of the last curve is the unique integer row
    orthogonal under the form to c_1..c_{2g-1} with <c_{2g}, c_{2g+1}>
    = +1, which works out to -(c_1 + c_3 + ... + c_{2g-1}).
    """
    if g < 1:
        raise ValueError("chain systems need genus >= 1")
    classes = [tuple(int(j == i) for j in range(2 * g)) for i in range(2 * g)]
    classes.append(tuple(-1 if j % 2 == 0 else 0 for j in range(2 * g)))
    curves = tuple(Curve(f"C{i + 1}", NONSEPARATING, c) for i, c in enumerate(classes))
    return CurveSystem(Surface(g, 0), curves, _chain_form(g))


def planar_arc_system(r: int) -> CurveSystem:
    """The arc row a_1, ..., a_{r-1} on a planar surface with r boundary circles.

    Arc A_i joins the i-th and (i+1)-st boundary circles, so consecutive
    arcs share an endpoint circle.  Arcs carry no homology class, and
    the genus-0 form is empty.
    """
    if r < 3:
        raise ValueError("planar arc systems need at least 3 boundary circles")
    curves = tuple(Curve(f"A{i + 1}", ARC) for i in range(r - 1))
    return CurveSystem(Surface(0, r), curves, ())


def builtin_system(name: str) -> CurveSystem:
    """Resolves the CLI system addresses: torus, chain:g=G, planar:r=R."""
    return resolve_address("system", name, _SYSTEMS)


_SYSTEMS = {"torus": torus_system, "chain:g": chain_system, "planar:r": planar_arc_system}
