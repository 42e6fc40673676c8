"""Surfaces and the curve systems twist words are written over.

A curve system records named curves or arcs on a compact orientable
surface together with their first-homology classes (rows over a fixed
symplectic basis) and the algebraic intersection pairing.  Three
built-in systems cover the needs of the rest of the package: the square
torus pair, the twist chain on a closed genus-g surface, and the arc
row on a planar surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import resolve_address

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
    """Named curves with intersection data over one surface.

    pairing is a full square matrix indexed by curve position; rows
    involving a classless curve are zero by convention.  Construction
    checks shapes only; semantic invariants are the job of validate(),
    so that deliberately broken systems can be built and reported on.
    """

    surface: Surface
    curves: tuple[Curve, ...]
    pairing: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.curves)
        if len(self.pairing) != n or any(len(row) != n for row in self.pairing):
            raise ValueError(f"pairing must be {n}x{n} to match the curve list")

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

    def curve(self, name: str) -> Curve:
        return self.curves[self.index(name)]


def torus_system() -> CurveSystem:
    """The meridian/longitude pair a, b on the closed torus."""
    return CurveSystem(
        surface=Surface(1, 0),
        curves=(
            Curve("A", NONSEPARATING, (1, 0)),
            Curve("B", NONSEPARATING, (0, 1)),
        ),
        pairing=((0, 1), (-1, 0)),
    )


def _chain_form(g: int) -> list[list[int]]:
    """The intersection form of the chain basis: +1 on the superdiagonal."""
    n = 2 * g
    form = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        form[i][i + 1] = 1
        form[i + 1][i] = -1
    return form


def class_pairings(classes: list[tuple[int, ...]], form: list[list[int]]) -> list[list[int]]:
    """The table of pairings <x, y> = x J y^T over a list of class rows.

    form is J as a list of rows.  Only the nonzero entries of each class
    are visited: <x, y> is the sum over supp(x) of x[a] * (J y^T)[a], and
    J y^T is one pass over the rows of J per nonzero entry of y.  For k
    classes with s nonzero entries in all over a form of size n the
    table costs O((n + k) * s) products.
    """
    supports = [[(a, v) for a, v in enumerate(c) if v] for c in classes]
    images = [[sum(row[b] * v for b, v in supp) for row in form] for supp in supports]
    return [[sum(v * image[a] for a, v in supp) for image in images] for supp in supports]


def chain_system(g: int) -> CurveSystem:
    """The chain c_1, ..., c_{2g+1} on a closed genus-g surface.

    Consecutive curves meet once; all others are disjoint.  The first
    2g curves are the homology basis.  The class of the last curve is
    the unique integer row orthogonal in the pairing to c_1..c_{2g-1}
    with <c_{2g}, c_{2g+1}> = +1, which works out to
    -(c_1 + c_3 + ... + c_{2g-1}).  The pairing table is derived from
    the classes by class_pairings; each class has 1 or g nonzero
    entries, so building the system costs O(g^2).
    """
    if g < 1:
        raise ValueError("chain systems need genus >= 1")
    n = 2 * g + 1
    classes: list[tuple[int, ...]] = [
        tuple(1 if j == i else 0 for j in range(2 * g)) for i in range(2 * g)
    ]
    classes.append(tuple(-1 if j % 2 == 0 else 0 for j in range(2 * g)))
    curves = tuple(Curve(f"C{i + 1}", NONSEPARATING, classes[i]) for i in range(n))
    pairing = tuple(tuple(row) for row in class_pairings(classes, _chain_form(g)))
    return CurveSystem(Surface(g, 0), curves, pairing)


def planar_arc_system(r: int) -> CurveSystem:
    """The arc row a_1, ..., a_{r-1} on a planar surface with r boundary circles.

    Arc A_i joins the i-th and (i+1)-st boundary circles, so consecutive
    arcs share an endpoint circle.  Arcs carry no homology class, so the
    pairing is identically zero.
    """
    if r < 3:
        raise ValueError("planar arc systems need at least 3 boundary circles")
    n = r - 1
    curves = tuple(Curve(f"A{i + 1}", ARC) for i in range(n))
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return CurveSystem(Surface(0, r), curves, zero)


def validate(system: CurveSystem) -> str | None:
    """Checks all curve-system invariants.

    Returns None when everything holds, otherwise a message describing
    the first violation by curve name.
    """
    names = system.names
    if len(set(names)) != len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        return f"duplicate curve name {dup!r}"
    width = 2 * system.surface.genus
    for c in system.curves:
        if c.kind == ARC:
            if c.homology_class is not None:
                return f"{c.name}: {c.kind} curves carry no homology class"
        elif c.kind == SEPARATING:
            if c.homology_class is not None and any(c.homology_class):
                return f"{c.name}: separating curves must have zero homology class"
            if c.homology_class is not None and len(c.homology_class) != width:
                return f"{c.name}: homology class must have length {width}"
        else:
            if c.homology_class is None:
                return f"{c.name}: nonseparating curves need a homology class"
            if len(c.homology_class) != width:
                return f"{c.name}: homology class must have length {width}"
            if not any(c.homology_class):
                return f"{c.name}: nonseparating curves have nonzero homology class"
    classed = [c.homology_class is not None for c in system.curves]
    n = len(system.curves)
    for i in range(n):
        for j in range(n):
            p, q = system.pairing[i][j], system.pairing[j][i]
            if p != -q:
                return (
                    f"pairing is not antisymmetric at ({names[i]}, {names[j]}): "
                    f"{p} vs {q}"
                )
            if not (classed[i] and classed[j]) and p != 0:
                return (
                    f"pairing must vanish at ({names[i]}, {names[j]}): "
                    "no algebraic intersection without homology classes"
                )
    return None


def builtin_system(name: str) -> CurveSystem:
    """Resolves the CLI system addresses: torus, chain:g=G, planar:r=R."""
    return resolve_address("system", name, _SYSTEMS)


_SYSTEMS = {"torus": torus_system, "chain:g": chain_system, "planar:r": planar_arc_system}
