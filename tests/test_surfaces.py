"""Tests for surfaces and curve systems.

The chain-closure class is frozen from an independent oracle in this
file: an exact rational solve of the defining pairing constraints,
confirming both the value and its uniqueness.  Construction is checked
against a second oracle here, first_violation, which restates every
curve-system invariant with a rational determinant.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgtorsion.errors import ParseError
from mcgtorsion.intlinalg import IntMatrix
from mcgtorsion.surfaces import (
    ARC,
    CURVE_KINDS,
    NONSEPARATING,
    SEPARATING,
    Curve,
    CurveSystem,
    Surface,
    builtin_system,
    chain_system,
    planar_arc_system,
    torus_system,
)


def solve_chain_closure(g: int) -> tuple[int, ...]:
    """Oracle: solve <c_i, x> = 0 for i < 2g and <c_2g, x> = 1 exactly.

    The constraints say J x^T = (0, ..., 0, 1)^T for the chain form J,
    which is unimodular, so the rational solution is unique and must be
    integral.
    """
    n = 2 * g
    aug = [[Fraction(0)] * n + [Fraction(0)] for _ in range(n)]
    for i in range(n - 1):
        aug[i][i + 1] = Fraction(1)
        aug[i + 1][i] = Fraction(-1)
    aug[n - 1][n] = Fraction(1)
    # Gaussian elimination with partial pivoting over Q.
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[col])]
    solution = [aug[i][n] for i in range(n)]
    assert all(v.denominator == 1 for v in solution)
    return tuple(int(v) for v in solution)


def rational_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            factor = m[i][col] / m[col][col]
            m[i] = [v - factor * w for v, w in zip(m[i], m[col])]
    return det


def first_violation(surface, curves, form) -> str | None:
    """Oracle: the message of the first broken curve-system invariant.

    The order is the one CurveSystem documents: the form's shape,
    antisymmetry and unimodularity, then distinct names, then per curve
    the class rules.
    """
    n = 2 * surface.genus
    if [len(row) for row in form] != [n] * n:
        return f"intersection form must be {n}x{n} for genus {surface.genus}"
    if any(form[i][j] + form[j][i] for i in range(n) for j in range(n)):
        return "intersection form on the basis is not antisymmetric"
    if abs(rational_det(form)) != 1:
        return "intersection form on the basis is not unimodular"
    seen = set()
    for c in curves:
        if c.name in seen:
            return f"duplicate curve name {c.name!r}"
        seen.add(c.name)
    for c in curves:
        x = c.homology_class
        if c.kind == ARC and x is not None:
            return f"{c.name}: arc curves carry no homology class"
        if c.kind == NONSEPARATING and x is None:
            return f"{c.name}: nonseparating curves need a homology class"
        if x is not None and len(x) != n:
            return f"{c.name}: homology class must have length {n}"
        if c.kind == SEPARATING and x is not None and x != (0,) * n:
            return f"{c.name}: separating curves must have zero homology class"
        if c.kind == NONSEPARATING and x == (0,) * n:
            return f"{c.name}: nonseparating curves have nonzero homology class"
    return None


def pairing(cs: CurveSystem, x, y) -> int:
    """<x, y> = x J y^T under the system's form J."""
    n = len(cs.form)
    return sum(x[a] * cs.form[a][b] * y[b] for a in range(n) for b in range(n))


class TestSurface:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Surface(-1, 0)


class TestTorusSystem:
    def test_shape(self):
        t = torus_system()
        assert t.names == ("A", "B")
        assert t.form == ((0, 1), (-1, 0))
        assert t.curves[t.index("A")].homology_class == (1, 0)
        assert first_violation(t.surface, t.curves, t.form) is None

    def test_case_insensitive_lookup(self):
        t = torus_system()
        assert t.index("a") == t.index("A") == 0
        with pytest.raises(ValueError, match="unknown curve"):
            t.index("c")


class TestChainSystem:
    def test_genus_two_closure_class(self):
        cs = chain_system(2)
        assert cs.names == ("C1", "C2", "C3", "C4", "C5")
        c5 = cs.curves[cs.index("C5")]
        assert c5.homology_class == (-1, 0, -1, 0)
        assert c5.homology_class == solve_chain_closure(2)

    def test_genus_one_pattern(self):
        # Three curves: C1 and C3 disjoint, both meeting C2 once.
        cs = chain_system(1)
        assert cs.names == ("C1", "C2", "C3")
        c1, c2, c3 = (c.homology_class for c in cs.curves)
        assert pairing(cs, c1, c3) == 0
        assert abs(pairing(cs, c1, c2)) == 1
        assert c3 == solve_chain_closure(1)

    def test_consecutive_pairing_sign(self):
        cs = chain_system(3)
        classes = [c.homology_class for c in cs.curves]
        for i in range(6):
            assert pairing(cs, classes[i], classes[i + 1]) == 1

    def test_closure_matches_oracle(self):
        for g in range(1, 7):
            assert chain_system(g).curves[-1].homology_class == solve_chain_closure(g)

    def test_basis_form_unimodular(self):
        for g in range(1, 8):
            form = IntMatrix.from_rows(chain_system(g).form)
            assert form.transpose() == -form
            assert form.det() == 1

    def test_pairing_matches_dense_form(self):
        # J has +1 on the superdiagonal; under it consecutive chain
        # curves pair +1 and all other pairs of curves are disjoint.
        for g in range(1, 13):
            cs = chain_system(g)
            n = 2 * g
            assert cs.form == tuple(
                tuple(int(j == i + 1) - int(i == j + 1) for j in range(n)) for i in range(n)
            )
            classes = [c.homology_class for c in cs.curves]
            for i, x in enumerate(classes):
                for j, y in enumerate(classes):
                    assert pairing(cs, x, y) == int(j == i + 1) - int(i == j + 1)

    def test_validates(self):
        for g in range(1, 11):
            cs = chain_system(g)
            assert first_violation(cs.surface, cs.curves, cs.form) is None

    def test_genus_zero_rejected(self):
        with pytest.raises(ValueError):
            chain_system(0)


class TestPlanarArcSystem:
    def test_shape(self):
        p = planar_arc_system(5)
        assert p.surface == Surface(0, 5)
        assert p.names == ("A1", "A2", "A3", "A4")
        assert all(c.kind == ARC and c.homology_class is None for c in p.curves)
        assert p.form == ()

    def test_minimum_boundary(self):
        assert planar_arc_system(3).names == ("A1", "A2")
        with pytest.raises(ValueError):
            planar_arc_system(2)

    def test_validates_through_twelve(self):
        for r in range(3, 13):
            p = planar_arc_system(r)
            assert first_violation(p.surface, p.curves, p.form) is None


TORUS_CURVES = torus_system().curves
TORUS_FORM = ((0, 1), (-1, 0))


class TestConstruction:
    @pytest.mark.parametrize(
        "curves, form, message",
        [
            (TORUS_CURVES, ((0,),), "intersection form must be 2x2 for genus 1"),
            (TORUS_CURVES, ((0, 1), (1, 0)), "intersection form on the basis is not antisymmetric"),
            (TORUS_CURVES, ((0, 2), (-2, 0)), "intersection form on the basis is not unimodular"),
            (
                TORUS_CURVES + (Curve("A", NONSEPARATING, (1, 1)),),
                TORUS_FORM,
                "duplicate curve name 'A'",
            ),
            (
                TORUS_CURVES + (Curve("X", ARC, (1, 0)),),
                TORUS_FORM,
                "X: arc curves carry no homology class",
            ),
            (
                TORUS_CURVES + (Curve("X", NONSEPARATING, (1, 0, 0)),),
                TORUS_FORM,
                "X: homology class must have length 2",
            ),
            (
                TORUS_CURVES + (Curve("S", SEPARATING, (1, 0)),),
                TORUS_FORM,
                "S: separating curves must have zero homology class",
            ),
            (
                TORUS_CURVES + (Curve("X", NONSEPARATING, None),),
                TORUS_FORM,
                "X: nonseparating curves need a homology class",
            ),
            (
                TORUS_CURVES + (Curve("X", NONSEPARATING, (0, 0)),),
                TORUS_FORM,
                "X: nonseparating curves have nonzero homology class",
            ),
        ],
        ids=[
            "form-shape",
            "antisymmetry",
            "unimodular",
            "duplicate-name",
            "arc-class",
            "class-length",
            "separating-class",
            "missing-class",
            "zero-nonseparating",
        ],
    )
    def test_rejected(self, curves, form, message):
        assert first_violation(Surface(1, 0), curves, form) == message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CurveSystem(Surface(1, 0), curves, form)


FAULTS = (
    None,
    "form-shape",
    "antisymmetry",
    "unimodular",
    "duplicate-name",
    "arc-class",
    "class-length",
    "separating-class",
    "missing-class",
    "zero-nonseparating",
)
# Faults that need a nonempty form, so genus >= 1.
POSITIVE_GENUS_FAULTS = {"antisymmetry", "unimodular", "separating-class"}


@st.composite
def curve_system_parts(draw):
    """(surface, curves, form) with at most one broken invariant.

    The form is a chain form moved by random congruences J -> P J P^T
    with elementary P, so it stays antisymmetric and unimodular until a
    fault breaks it.  Faulty curves are appended, then all curves are
    shuffled, so a fault can sit anywhere in the list.
    """
    fault = draw(st.sampled_from(FAULTS))
    g = draw(st.integers(1 if fault in POSITIVE_GENUS_FAULTS else 0, 4))
    n = 2 * g
    form = [[int(j == i + 1) - int(i == j + 1) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.integers(-2, 2))
        if i != j:
            # Add k times row/column j to row/column i.
            form[i] = [a + k * b for a, b in zip(form[i], form[j])]
            for row in form:
                row[i] += k * row[j]
    entry = st.integers(-2, 2)

    def nonzero_class(length):
        return tuple(draw(st.lists(entry, min_size=length, max_size=length).filter(any)))

    curves = []
    for k in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(CURVE_KINDS))
        if kind == NONSEPARATING and n:
            cls = nonzero_class(n)
        elif kind == SEPARATING:
            cls = draw(st.sampled_from(((0,) * n, None)))
        else:
            kind, cls = ARC, None
        curves.append(Curve(f"X{k}", kind, cls))
    if fault == "form-shape":
        form = form[:-1] if n and draw(st.booleans()) else form + [[0] * n]
    elif fault == "antisymmetry":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        form[i][j] += draw(st.sampled_from((-2, -1, 1, 2)))
    elif fault == "unimodular":
        scale = draw(st.sampled_from((0, 2, -2, 3)))
        form = [[scale * v for v in row] for row in form]
    elif fault == "duplicate-name":
        curves += [Curve("D", ARC), Curve("D", ARC)]
    elif fault == "arc-class":
        curves.append(Curve("F", ARC, (0,) * n))
    elif fault == "class-length":
        length = draw(st.sampled_from([m for m in (n - 1, n + 1) if m > 0]))
        kind = draw(st.sampled_from((NONSEPARATING, SEPARATING)))
        curves.append(Curve("F", kind, nonzero_class(length)))
    elif fault == "separating-class":
        curves.append(Curve("F", SEPARATING, nonzero_class(n)))
    elif fault == "missing-class":
        curves.append(Curve("F", NONSEPARATING))
    elif fault == "zero-nonseparating":
        curves.append(Curve("F", NONSEPARATING, (0,) * n))
    curves = draw(st.permutations(curves))
    return Surface(g, 0), tuple(curves), tuple(map(tuple, form))


@settings(max_examples=300, deadline=None)
@given(curve_system_parts())
def test_construction_agrees_with_oracle(parts):
    expected = first_violation(*parts)
    if expected is None:
        assert CurveSystem(*parts).form == parts[2]
    else:
        with pytest.raises(ValueError) as info:
            CurveSystem(*parts)
        assert str(info.value) == expected


class TestBuiltinSystem:
    def test_addresses(self):
        assert builtin_system("torus") == torus_system()
        assert builtin_system("chain:g=2") == chain_system(2)
        assert builtin_system("planar:r=6") == planar_arc_system(6)

    def test_errors(self):
        with pytest.raises(ParseError, match="unknown system"):
            builtin_system("sphere")
        with pytest.raises(ParseError, match="chain:g=G"):
            builtin_system("chain")
        with pytest.raises(ParseError, match="integer"):
            builtin_system("chain:g=two")
        with pytest.raises(ValueError):
            builtin_system("chain:g=0")
