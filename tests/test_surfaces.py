"""Tests for surfaces and curve systems.

The chain-closure class is frozen from an independent oracle in this
file: an exact rational solve of the defining pairing constraints,
confirming both the value and its uniqueness.
"""

from fractions import Fraction

import pytest

from mcgtorsion.errors import ParseError
from mcgtorsion.intlinalg import IntMatrix
from mcgtorsion.surfaces import (
    ARC,
    NONSEPARATING,
    SEPARATING,
    Curve,
    CurveSystem,
    Surface,
    builtin_system,
    chain_system,
    planar_arc_system,
    torus_system,
    validate,
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


class TestSurface:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Surface(-1, 0)


class TestTorusSystem:
    def test_shape(self):
        t = torus_system()
        assert t.names == ("A", "B")
        assert t.pairing == ((0, 1), (-1, 0))
        assert t.curve("A").homology_class == (1, 0)
        assert validate(t) is None

    def test_case_insensitive_lookup(self):
        t = torus_system()
        assert t.curve("a") == t.curve("A")
        with pytest.raises(ValueError, match="unknown curve"):
            t.curve("c")


class TestChainSystem:
    def test_genus_two_closure_class(self):
        cs = chain_system(2)
        assert cs.names == ("C1", "C2", "C3", "C4", "C5")
        assert cs.curve("C5").homology_class == (-1, 0, -1, 0)
        assert cs.curve("C5").homology_class == solve_chain_closure(2)

    def test_genus_one_pattern(self):
        # Three curves: C1 and C3 disjoint, both meeting C2 once.
        cs = chain_system(1)
        assert cs.names == ("C1", "C2", "C3")
        assert cs.pairing[0][2] == 0
        assert abs(cs.pairing[0][1]) == 1
        assert cs.curve("C3").homology_class == solve_chain_closure(1)

    def test_consecutive_pairing_sign(self):
        cs = chain_system(3)
        for i in range(6):
            assert cs.pairing[i][i + 1] == 1

    def test_closure_matches_oracle(self):
        for g in range(1, 7):
            assert chain_system(g).curves[-1].homology_class == solve_chain_closure(g)

    def test_basis_form_unimodular(self):
        for g in range(1, 8):
            cs = chain_system(g)
            n = 2 * g
            form = IntMatrix.from_rows([row[:n] for row in cs.pairing[:n]])
            assert form.transpose() == -form
            assert form.det() == 1

    def test_pairing_matches_dense_form(self):
        # x J y^T over all index pairs, J with +1 on the superdiagonal.
        for g in range(1, 13):
            cs = chain_system(g)
            n = 2 * g
            form = [[(j == i + 1) - (i == j + 1) for j in range(n)] for i in range(n)]
            classes = [c.homology_class for c in cs.curves]
            dense = tuple(
                tuple(
                    sum(x[a] * form[a][b] * y[b] for a in range(n) for b in range(n))
                    for y in classes
                )
                for x in classes
            )
            assert cs.pairing == dense

    def test_validates(self):
        for g in range(1, 11):
            assert validate(chain_system(g)) is None

    def test_genus_zero_rejected(self):
        with pytest.raises(ValueError):
            chain_system(0)


class TestPlanarArcSystem:
    def test_shape(self):
        p = planar_arc_system(5)
        assert p.surface == Surface(0, 5)
        assert p.names == ("A1", "A2", "A3", "A4")
        assert all(c.kind == ARC and c.homology_class is None for c in p.curves)
        assert validate(p) is None

    def test_minimum_boundary(self):
        assert planar_arc_system(3).names == ("A1", "A2")
        with pytest.raises(ValueError):
            planar_arc_system(2)

    def test_validates_through_twelve(self):
        for r in range(3, 13):
            assert validate(planar_arc_system(r)) is None


class TestValidate:
    def test_reports_asymmetric_pairing(self):
        t = torus_system()
        broken = CurveSystem(t.surface, t.curves, ((0, 1), (1, 0)))
        assert "antisymmetric" in validate(broken)

    def test_reports_classless_pairing(self):
        p = planar_arc_system(3)
        broken = CurveSystem(p.surface, p.curves, ((0, 1), (-1, 0)))
        assert "without homology classes" in validate(broken)

    def test_reports_missing_class(self):
        broken = CurveSystem(
            Surface(1, 0),
            (Curve("x", NONSEPARATING, None),),
            ((0,),),
        )
        assert "homology class" in validate(broken)

    def test_reports_nonzero_separating_class(self):
        broken = CurveSystem(
            Surface(1, 0),
            (Curve("s", SEPARATING, (1, 0)),),
            ((0,),),
        )
        assert "separating" in validate(broken)

    def test_shape_mismatch_rejected_at_construction(self):
        t = torus_system()
        with pytest.raises(ValueError):
            CurveSystem(t.surface, t.curves, ((0,),))


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
