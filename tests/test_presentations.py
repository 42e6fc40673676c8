"""Tests for presentations and their abelian quotients."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from mcgtorsion.errors import ParseError
from mcgtorsion.intlinalg import AbelianGroup, IntMatrix, cokernel
from mcgtorsion.presentations import (
    Presentation,
    TorsionRelation,
    abelianize,
    gamma_0r_presentation,
    parse_presentation,
    parse_relator,
    torsion_order_constraints,
)


def minor_gcd_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors, 1s dropped.

    Independent of the Smith normal form code: d_1...d_k equals the
    gcd of all k x k minors, so d_k is the ratio of consecutive gcds.
    Only practical for small matrices.
    """

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> Fraction:
        k = len(rows)
        sub = [[Fraction(m[r, c]) for c in cols] for r in rows]
        det = Fraction(1)
        mat = [row[:] for row in sub]
        for i in range(k):
            pivot = next((p for p in range(i, k) if mat[p][i] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != i:
                mat[i], mat[pivot] = mat[pivot], mat[i]
                det = -det
            det *= mat[i][i]
            for p in range(i + 1, k):
                factor = mat[p][i] / mat[i][i]
                for q in range(i, k):
                    mat[p][q] -= factor * mat[i][q]
        return det

    factors = []
    previous = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                value = minor(rows, cols)
                assert value.denominator == 1
                g = gcd(g, int(value))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    rank = len(factors)
    full = factors + [0] * (m.cols - rank)
    return tuple(x for x in full if x != 1)


def assert_images_kill_relators(p: Presentation) -> None:
    """Generator images must send every relator to zero in the quotient."""
    group, images = abelianize(p)
    m = p.exponent_matrix()
    for i in range(m.rows):
        for pos, factor in enumerate(group.invariant_factors):
            total = sum(m[i, j] * images[j][pos] for j in range(m.cols))
            if factor == 0:
                assert total == 0
            else:
                assert total % factor == 0


def assert_images_generate(p: Presentation) -> None:
    """Quotienting the group by the generator images must kill everything."""
    group, images = abelianize(p)
    width = len(group.invariant_factors)
    if width == 0:
        return
    rows = [list(img) for img in images]
    for pos, factor in enumerate(group.invariant_factors):
        if factor != 0:
            rows.append([factor if q == pos else 0 for q in range(width)])
    entries = tuple(x for row in rows for x in row)
    quotient = minor_gcd_invariant_factors(IntMatrix(len(rows), width, entries))
    assert quotient == ()


class TestPresentation:
    def test_relator_letters_checked(self):
        with pytest.raises(ValueError, match="unknown generator 'z'"):
            Presentation(("x", "y"), ((("z", 1),),))

    def test_signs_checked(self):
        with pytest.raises(ValueError, match="expected \\+1 or -1"):
            Presentation(("x",), ((("x", 2),),))

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Presentation(("x", "x"), ())

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError, match="at least one generator"):
            Presentation((), ())

    def test_exponent_matrix_counts_signed_letters(self):
        p = Presentation(
            ("x", "y"),
            (
                (("x", 1), ("y", 1), ("x", 1), ("y", -1), ("x", -1), ("y", -1)),
                (("y", 1), ("y", 1), ("y", 1)),
            ),
        )
        assert p.exponent_matrix().to_rows() == [[1, -1], [0, 3]]

    def test_exponent_matrix_shape_without_relators(self):
        m = Presentation(("x", "y", "z"), ()).exponent_matrix()
        assert (m.rows, m.cols) == (0, 3)


class TestParsing:
    def test_round_trip(self):
        text = "gens: X Y\nrel: X Y X^-1 Y^-1\nrel: X^3\n"
        p = parse_presentation(text)
        assert p.generators == ("X", "Y")
        assert p.relators == (
            (("X", 1), ("Y", 1), ("X", -1), ("Y", -1)),
            (("X", 1), ("X", 1), ("X", 1)),
        )

    def test_comments_and_blank_lines_skipped(self):
        text = "# two-generator example\n\ngens: X Y\n  \nrel: X Y\n"
        assert parse_presentation(text).relators == ((("X", 1), ("Y", 1)),)

    def test_rel_before_gens(self):
        with pytest.raises(ParseError, match="line 1: rel line before"):
            parse_presentation("rel: X\ngens: X\n")

    def test_second_gens_line(self):
        with pytest.raises(ParseError, match="line 2: second gens line"):
            parse_presentation("gens: X\ngens: Y\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 2: expected"):
            parse_presentation("gens: X\ngenerators: Y\n")

    def test_missing_gens(self):
        with pytest.raises(ParseError, match="missing gens line"):
            parse_presentation("# nothing here\n")

    def test_empty_gens_line(self):
        with pytest.raises(ParseError, match="names no generators"):
            parse_presentation("gens:\n")

    def test_unknown_generator_carries_line_and_letter(self):
        with pytest.raises(ParseError, match="line 3: letter 2: unknown generator 'Q'"):
            parse_presentation("gens: X Y\nrel: X\nrel: X Q\n")

    def test_parse_relator_malformed_token(self):
        with pytest.raises(ParseError, match="letter 2: malformed token"):
            parse_relator("X ^^", ("X",))


class TestAbelianize:
    def test_single_generator_order_two(self):
        group, images = abelianize(Presentation(("x",), ((("x", 1), ("x", 1)),)))
        assert group == AbelianGroup((2,))
        assert images == ((1,),)

    def test_free_of_rank_two(self):
        group, images = abelianize(Presentation(("x", "y"), ()))
        assert group == AbelianGroup((0, 0))
        assert images == ((1, 0), (0, 1))
        group, images = abelianize(Presentation(("x",), ()))
        assert group == AbelianGroup((0,))
        assert images == ((1,),)

    def test_trivial_quotient_has_empty_images(self):
        group, images = abelianize(Presentation(("x",), ((("x", 1),),)))
        assert group.is_trivial
        assert images == ((),)

    def test_memory_stays_linear_in_relators(self):
        # gamma0r r=40 has 743 relators on 39 generators.  Neither call
        # needs the 743 x 743 row transform U, which alone takes about
        # 8 MB; the column transform and the diagonal fit well under 2 MB.
        p = gamma_0r_presentation(40)
        m = p.exponent_matrix()
        for compute in (lambda: abelianize(p), lambda: cokernel(m)):
            tracemalloc.start()
            try:
                compute()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 1024 * 1024

    def test_images_satisfy_relators_on_random_presentations(self):
        rng = random.Random(20260822)
        names = ("w", "x", "y", "z")
        for _ in range(150):
            n = rng.randint(1, 4)
            gens = names[:n]
            relators = []
            for _ in range(rng.randint(0, 5)):
                rel = tuple(
                    (rng.choice(gens), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 6))
                )
                relators.append(rel)
            p = Presentation(gens, tuple(relators))
            group, _ = abelianize(p)
            assert group.invariant_factors == minor_gcd_invariant_factors(
                p.exponent_matrix()
            )
            assert_images_kill_relators(p)
            assert_images_generate(p)


class TestMarkedSpherePresentation:
    def test_three_points(self):
        p = gamma_0r_presentation(3)
        assert p.generators == ("A1", "A2")
        assert p.relators == (
            (("A1", 1), ("A2", 1), ("A1", 1), ("A2", -1), ("A1", -1), ("A2", -1)),
            (("A1", 1), ("A2", 1), ("A2", 1), ("A1", 1)),
            (("A1", 1), ("A2", 1)) * 3,
        )

    def test_small_r_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            gamma_0r_presentation(2)

    def test_relator_counts(self):
        for r in range(3, 10):
            p = gamma_0r_presentation(r)
            far = (r - 2) * (r - 3) // 2
            assert len(p.relators) == far + (r - 2) + 2

    def test_six_points_gives_order_ten(self):
        group, images = abelianize(gamma_0r_presentation(6))
        assert group == AbelianGroup((10,))
        assert len(set(images)) == 1

    def test_five_points_gives_order_four(self):
        group, _ = abelianize(gamma_0r_presentation(5))
        assert group == AbelianGroup((4,))

    def test_four_points_gives_order_six(self):
        group, _ = abelianize(gamma_0r_presentation(4))
        assert group == AbelianGroup((6,))

    def test_order_law(self):
        for r in range(3, 13):
            p = gamma_0r_presentation(r)
            group, images = abelianize(p)
            assert group == AbelianGroup(((r - 1) * gcd(2, r),))
            assert len(set(images)) == 1
            common = images[0][0]
            assert gcd(common, group.invariant_factors[0]) == 1
            assert_images_kill_relators(p)


class TestTietzeInvariance:
    def test_redundant_relators_change_nothing(self):
        rng = random.Random(995)
        for r in (4, 5, 6, 7):
            base = gamma_0r_presentation(r)
            expected, _ = abelianize(base)
            relators = list(base.relators)
            for _ in range(5):
                product = []
                for _ in range(rng.randint(1, 3)):
                    rel = list(rng.choice(base.relators))
                    if rng.random() < 0.5:
                        rel = [(name, -sign) for name, sign in reversed(rel)]
                    conjugator = [
                        (rng.choice(base.generators), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 3))
                    ]
                    inverse = [(name, -sign) for name, sign in reversed(conjugator)]
                    product.extend(conjugator + rel + inverse)
                relators.append(tuple(product))
            enlarged = Presentation(base.generators, tuple(relators))
            group, images = abelianize(enlarged)
            assert group == expected
            assert len(set(images)) == 1
            assert_images_kill_relators(enlarged)

    def test_permuting_generators_changes_nothing(self):
        rng = random.Random(996)
        for r in (4, 5, 6):
            base = gamma_0r_presentation(r)
            expected, _ = abelianize(base)
            order = list(base.generators)
            rng.shuffle(order)
            rename = dict(zip(base.generators, order))
            permuted = Presentation(
                tuple(order),
                tuple(
                    tuple((rename[name], sign) for name, sign in rel)
                    for rel in base.relators
                ),
            )
            group, images = abelianize(permuted)
            assert group == expected
            assert len(set(images)) == 1


class TestTorsionOrderConstraints:
    def test_genus_two_pair(self):
        group = torsion_order_constraints(
            [TorsionRelation(10, 2), TorsionRelation(14, 5)]
        )
        assert group == AbelianGroup((10,))

    def test_genus_one_pair(self):
        group = torsion_order_constraints(
            [TorsionRelation(3, 4), TorsionRelation(2, 6)]
        )
        assert group == AbelianGroup((12,))

    def test_balanced_twist_counts_force_trivial(self):
        assert torsion_order_constraints([TorsionRelation(1, 1)]).is_trivial

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            torsion_order_constraints([])

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            TorsionRelation(3, 0)

    def test_zero_exponent_sum_constrains_nothing(self):
        group = torsion_order_constraints([TorsionRelation(0, 7)])
        assert group == AbelianGroup((0,))

    def test_output_order_divides_every_product(self):
        rng = random.Random(997)
        for _ in range(100):
            relations = [
                TorsionRelation(rng.randint(1, 40), rng.randint(1, 12))
                for _ in range(rng.randint(1, 5))
            ]
            group = torsion_order_constraints(relations)
            for c in relations:
                assert (c.order * c.exponent_sum) % group.order() == 0
