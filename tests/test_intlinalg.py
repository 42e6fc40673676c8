"""Tests for exact integer linear algebra.

Expected values for the worked examples were frozen from independent
oracles kept in this file: a Laplace-expansion determinant, a
by-hand row reduction for the small Smith forms, and direct power
iteration for matrix orders.
"""

import math
import random

import pytest

from mcgtorsion.errors import ParseError
from mcgtorsion.intlinalg import (
    AbelianGroup,
    IntMatrix,
    IntPolynomial,
    char_poly,
    cokernel,
    cyclotomic,
    default_order_cap,
    matrix_order,
    parse_matrix_text,
    smith_normal_form,
)

# Companion matrix of t^4 - t^3 + t^2 - t + 1 in the row convention:
# it also arises as the genus-2 chain word matrix, see test_homrep.
PHI10_COMPANION = IntMatrix.from_rows(
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 1, -1, 1]]
)


def laplace_det(m: IntMatrix) -> int:
    """Independent determinant oracle: cofactor expansion along row 0."""
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = IntMatrix.from_rows(
            [[m[i, k] for k in range(n) if k != j] for i in range(1, n)]
        )
        total += (-1) ** j * m[0, j] * laplace_det(minor)
    return total


def assert_snf_postconditions(m: IntMatrix) -> IntMatrix:
    d, u, v = smith_normal_form(m)
    assert (d.rows, d.cols) == (m.rows, m.cols)
    assert u * m * v == d
    assert u.is_unimodular()
    assert v.is_unimodular()
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return d


def random_matrix(rng: random.Random, max_dim: int = 5, bound: int = 9) -> IntMatrix:
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix(
        rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols))
    )


class TestIntMatrix:
    def test_from_rows_and_indexing(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m[1, 0] == 3
        assert m.row(0) == (1, 2)
        assert m.to_rows() == [[1, 2], [3, 4]]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_product(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert a * b == IntMatrix.from_rows([[2, 1], [4, 3]])
        with pytest.raises(ValueError):
            b * IntMatrix.from_rows([[1, 2, 3]])

    def test_power(self):
        m = IntMatrix.from_rows([[0, 1], [-1, 0]])
        assert m**0 == IntMatrix.identity(2)
        assert m**4 == IntMatrix.identity(2)
        assert m**2 == -IntMatrix.identity(2)

    def test_transpose(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose() == IntMatrix.from_rows([[1, 4], [2, 5], [3, 6]])

    def test_det_matches_laplace_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(0, 4)
            m = IntMatrix(n, n, tuple(rng.randint(-9, 9) for _ in range(n * n)))
            assert m.det() == laplace_det(m)

    def test_str_rows_space_separated(self):
        m = IntMatrix.from_rows([[0, 1], [-1, 0]])
        assert str(m) == "0 1\n-1 0"


class TestAbelianGroup:
    def test_validation(self):
        AbelianGroup((2, 10))
        AbelianGroup((2, 2, 0))
        AbelianGroup(())
        with pytest.raises(ValueError):
            AbelianGroup((1,))
        with pytest.raises(ValueError):
            AbelianGroup((4, 2))
        with pytest.raises(ValueError):
            AbelianGroup((0, 2))

    def test_order(self):
        assert AbelianGroup((2, 10)).order() == 20
        assert AbelianGroup(()).order() == 1
        assert not AbelianGroup((0,)).is_finite
        with pytest.raises(ValueError):
            AbelianGroup((0,)).order()

    def test_from_orders_canonicalizes(self):
        # Z10 + Z2 = Z5 + Z2 + Z2 has invariant factors (2, 10).
        assert AbelianGroup.from_orders((10, 2)) == AbelianGroup((2, 10))
        assert AbelianGroup.from_orders((2, 3)) == AbelianGroup((6,))
        assert AbelianGroup.from_orders((1, 1)) == AbelianGroup(())
        assert AbelianGroup.from_orders((0, 4, 6)) == AbelianGroup((2, 12, 0))

    def test_str(self):
        assert str(AbelianGroup((2, 10))) == "Z2 x Z10"
        assert str(AbelianGroup((2, 0))) == "Z2 x Z"
        assert str(AbelianGroup(())) == "0"


class TestSmithNormalForm:
    def test_two_by_two_example(self):
        # Row-reduce by hand: gcd of all entries is 2, and
        # det = 2*8 - 4*6 = -8, so the invariant factors are 2 and 4.
        d = assert_snf_postconditions(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert [d[0, 0], d[1, 1]] == [2, 4]

    def test_identity_fixed(self):
        d = assert_snf_postconditions(IntMatrix.identity(3))
        assert d == IntMatrix.identity(3)

    def test_zero_matrix(self):
        zero = IntMatrix(2, 3, (0,) * 6)
        assert assert_snf_postconditions(zero) == zero

    def test_empty_shapes(self):
        assert_snf_postconditions(IntMatrix(0, 3, ()))
        assert_snf_postconditions(IntMatrix(3, 0, ()))
        assert_snf_postconditions(IntMatrix(0, 0, ()))

    def test_random_postconditions(self):
        rng = random.Random(101)
        for _ in range(300):
            assert_snf_postconditions(random_matrix(rng))

    def test_divisor_product_preserved(self):
        # |det| is preserved by unimodular transforms, so for square
        # nonsingular input the diagonal product equals |det|.
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = IntMatrix(n, n, tuple(rng.randint(-9, 9) for _ in range(n * n)))
            if m.det() == 0:
                continue
            d, _, _ = smith_normal_form(m)
            assert math.prod(d[i, i] for i in range(n)) == abs(m.det())


class TestCokernel:
    def test_single_column(self):
        # Z^1 / <20, 70> = Z/gcd(20, 70) = Z/10.
        assert cokernel(IntMatrix.from_rows([[20], [70]])) == AbelianGroup((10,))

    def test_no_relations(self):
        assert cokernel(IntMatrix(0, 3, ())) == AbelianGroup((0, 0, 0))
        assert cokernel(IntMatrix(3, 0, ())) == AbelianGroup(())

    def test_trivial(self):
        assert cokernel(IntMatrix.from_rows([[1]])) == AbelianGroup(())

    def test_mixed(self):
        m = IntMatrix.from_rows([[2, 0, 0], [0, 6, 0]])
        assert cokernel(m) == AbelianGroup((2, 6, 0))

    def test_redundant_row_invariance(self):
        # Appending an integer combination of existing rows never
        # changes the quotient.
        rng = random.Random(23)
        for _ in range(100):
            m = random_matrix(rng, max_dim=4, bound=6)
            if m.rows == 0:
                continue
            coeffs = [rng.randint(-2, 2) for _ in range(m.rows)]
            combo = [
                sum(coeffs[i] * m[i, j] for i in range(m.rows))
                for j in range(m.cols)
            ]
            extended = IntMatrix.from_rows(m.to_rows() + [combo])
            assert cokernel(extended) == cokernel(m)


class TestMatrixOrder:
    def test_rotation_order_four(self):
        assert matrix_order(IntMatrix.from_rows([[0, 1], [-1, 0]])) == 4

    def test_shear_infinite(self):
        assert matrix_order(IntMatrix.from_rows([[1, 1], [0, 1]])) is None

    def test_companion_order_ten(self):
        assert matrix_order(PHI10_COMPANION) == 10

    def test_identity_and_negation(self):
        assert matrix_order(IntMatrix.identity(3)) == 1
        assert matrix_order(-IntMatrix.identity(3)) == 2

    def test_default_caps(self):
        # phi(m) <= 2 for m in {1,2,3,4,6}; phi(m) <= 4 adds {5,8,10,12}.
        assert default_order_cap(2) == 12
        assert default_order_cap(4) == 120
        assert default_order_cap(1) == 2
        assert default_order_cap(0) == 1

    def test_explicit_cap_cuts_off(self):
        assert matrix_order(PHI10_COMPANION, cap=9) is None

    def test_conjugation_invariance(self):
        # Orders are invariant under unimodular conjugation.  The
        # conjugator comes from random elementary row operations; its
        # inverse falls out of the Smith form, since U p V = I gives
        # p^-1 = V U.
        rng = random.Random(11)
        base = PHI10_COMPANION
        for _ in range(25):
            p = IntMatrix.identity(4).to_rows()
            for _ in range(6):
                i, j = rng.sample(range(4), 2)
                q = rng.randint(-2, 2)
                p[i] = [x + q * y for x, y in zip(p[i], p[j])]
            pm = IntMatrix.from_rows(p)
            assert pm.is_unimodular()
            d, u, v = smith_normal_form(pm)
            assert d == IntMatrix.identity(4)
            inverse = v * u
            assert pm * inverse == IntMatrix.identity(4)
            assert matrix_order(pm * base * inverse) == 10

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matrix_order(IntMatrix.from_rows([[1, 2, 3]]))


class TestCharPoly:
    def test_companion(self):
        # t^4 - t^3 + t^2 - t + 1, the 10th cyclotomic polynomial.
        p = char_poly(PHI10_COMPANION)
        assert p.coefficients == (1, -1, 1, -1, 1)
        assert p == cyclotomic(10)

    def test_identity(self):
        assert char_poly(IntMatrix.identity(2)).coefficients == (1, -2, 1)

    def test_zero(self):
        assert char_poly(IntMatrix(3, 3, (0,) * 9)).coefficients == (0, 0, 0, 1)

    def test_matches_determinant_and_trace(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = IntMatrix(n, n, tuple(rng.randint(-9, 9) for _ in range(n * n)))
            p = char_poly(m)
            assert p.degree == n
            assert p.coefficients[n] == 1
            # Constant term is (-1)^n det, next coefficient is -trace.
            assert p.coefficients[0] == (-1) ** n * m.det()
            assert p.coefficients[n - 1] == -m.trace()
            # Cayley-Hamilton, evaluated exactly.
            zero = IntMatrix(n, n, (0,) * (n * n))
            acc = zero
            for k in range(n, -1, -1):
                acc = acc * m + IntMatrix.identity(n).scaled(p.coefficients[k])
            assert acc == zero

    def test_finite_order_implies_cyclotomic_factorization(self):
        # If matrix_order(m) = n, char_poly(m) splits into cyclotomics
        # of orders dividing n.
        for m in (
            PHI10_COMPANION,
            IntMatrix.from_rows([[0, 1], [-1, 0]]),
            IntMatrix.from_rows([[0, 1], [-1, 1]]),
            -IntMatrix.identity(3),
            IntMatrix.identity(2),
        ):
            n = matrix_order(m)
            assert n is not None
            p = char_poly(m)
            for d in range(1, n + 1):
                if n % d != 0:
                    continue
                while True:
                    q, r = divmod(p, cyclotomic(d))
                    if r.is_zero and not q.is_zero:
                        p = q
                    else:
                        break
            assert p == IntPolynomial((1,))


class TestIntPolynomial:
    def test_normalization(self):
        assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert IntPolynomial((0, 0)).coefficients == (0,)
        assert IntPolynomial((0,)).is_zero

    def test_divmod(self):
        num = IntPolynomial((-1, 0, 0, 0, 1))  # t^4 - 1
        den = IntPolynomial((-1, 1))  # t - 1
        q, r = divmod(num, den)
        assert r.is_zero
        assert q == IntPolynomial((1, 1, 1, 1))
        with pytest.raises(ValueError):
            divmod(num, IntPolynomial((0, 2)))

    def test_cyclotomic_small(self):
        assert cyclotomic(1) == IntPolynomial((-1, 1))
        assert cyclotomic(2) == IntPolynomial((1, 1))
        assert cyclotomic(4) == IntPolynomial((1, 0, 1))
        assert cyclotomic(6) == IntPolynomial((1, -1, 1))
        assert cyclotomic(10) == IntPolynomial((1, -1, 1, -1, 1))


class TestParseMatrixText:
    def test_round_trip(self):
        text = "2 2\n0 1\n-1 0\n"
        assert parse_matrix_text(text) == IntMatrix.from_rows([[0, 1], [-1, 0]])

    def test_zero_rows(self):
        assert parse_matrix_text("0 3\n") == IntMatrix(0, 3, ())

    def test_errors_name_position(self):
        with pytest.raises(ParseError, match="header"):
            parse_matrix_text("2\n1 2\n3 4\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix_text("2 2\n1\n3 4\n")
        with pytest.raises(ParseError, match="'x'"):
            parse_matrix_text("1 2\n1 x\n")
        with pytest.raises(ParseError, match="rows"):
            parse_matrix_text("3 2\n1 2\n")
