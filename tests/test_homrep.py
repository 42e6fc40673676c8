"""Tests for the homology representation.

The 4x4 chain word matrix and the torus twist matrices were frozen
after hand-applying the transvection formula row by row; the matrix
product convention is pinned by those frozen values.
"""

import random

import pytest

from mcgtorsion.intlinalg import IntMatrix, char_poly, cyclotomic
from mcgtorsion.surfaces import (
    NONSEPARATING,
    SEPARATING,
    Curve,
    CurveSystem,
    Surface,
    chain_system,
    planar_arc_system,
    torus_system,
)
from mcgtorsion.words import Word, letter, parse_word
from mcgtorsion.homrep import (
    certify_periodic_order,
    check_relation_homology,
    homology_rep,
    word_matrix,
)

CHAIN2 = chain_system(2)
REP2 = homology_rep(CHAIN2)
TORUS = torus_system()
TREP = homology_rep(TORUS)
EMPTY2 = Word((), CHAIN2)

CHAIN_WORD = "C1 C2 C3 C4"
CHAIN_WORD_MATRIX = IntMatrix.from_rows(
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 1, -1, 1]]
)
HYPERELLIPTIC2 = "C1 C2 C3 C4 C5^2 C4 C3 C2 C1"
# Two positive 15-letter involution words on the chain; the second is
# the lift of the six-strand half-twist braid.
INVOLUTION_WORD_A = "C5 C4 C5 C3 C4 C5 C2 C3 C4 C1 C2 C3 C1 C2 C1"
INVOLUTION_WORD_B = "C5 C4 C5 C3 C4 C5 C2 C3 C4 C5 C1 C2 C3 C4 C5"


def random_word(rng: random.Random, system, max_len: int = 10) -> Word:
    names = [c.name for c in system.curves]
    letters = tuple(
        letter(system, rng.choice(names), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    )
    return Word(letters, system)


class TestHomologyRep:
    def test_torus_form(self):
        assert TREP.dimension == 2
        assert TREP.pairing == IntMatrix.from_rows([[0, 1], [-1, 0]])

    def test_chain_form(self):
        assert REP2.dimension == 4
        assert REP2.pairing == IntMatrix.from_rows(
            [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
        )

    def test_planar_rep_is_zero_dimensional(self):
        rep = homology_rep(planar_arc_system(4))
        assert rep.dimension == 0

    # A system homology_rep could not use is refused when it is built.
    def test_non_antisymmetric_form_rejected(self):
        with pytest.raises(ValueError, match="not antisymmetric"):
            CurveSystem(TORUS.surface, TORUS.curves, ((0, 1), (1, 0)))

    def test_non_unimodular_form_rejected(self):
        with pytest.raises(ValueError, match="not unimodular"):
            CurveSystem(TORUS.surface, TORUS.curves, ((0, 2), (-2, 0)))

    def test_class_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="X: homology class must have length 2"):
            CurveSystem(
                TORUS.surface,
                TORUS.curves + (Curve("X", NONSEPARATING, (1, 0, 0)),),
                TORUS.form,
            )


class TestTwistMatrix:
    def test_torus_twists(self):
        a, b = (word_matrix(parse_word(name, TORUS), TREP) for name in "AB")
        assert a == IntMatrix.from_rows([[1, 0], [-1, 1]])
        assert b == IntMatrix.from_rows([[1, 1], [0, 1]])

    def test_separating_twist_is_identity(self):
        system = CurveSystem(
            Surface(1, 0),
            (
                Curve("A", NONSEPARATING, (1, 0)),
                Curve("B", NONSEPARATING, (0, 1)),
                Curve("S", SEPARATING, (0, 0)),
            ),
            ((0, 1), (-1, 0)),
        )
        rep = homology_rep(system)
        assert word_matrix(parse_word("S", system), rep) == IntMatrix.identity(2)

    def test_transvection_sign_blind(self):
        # The transvection along c and along -c agree, so the sign
        # choice in the chain closure class is unobservable.
        from mcgtorsion.homrep import _transvection

        cls = CHAIN2.curves[CHAIN2.index("C5")].homology_class
        neg = tuple(-x for x in cls)
        assert _transvection(REP2, cls, 1) == _transvection(REP2, neg, 1)

    def test_determinant_one(self):
        for name in CHAIN2.names:
            assert word_matrix(parse_word(name, CHAIN2), REP2).det() == 1


class TestWordMatrix:
    def test_chain_word_matrix(self):
        assert word_matrix(parse_word(CHAIN_WORD, CHAIN2), REP2) == CHAIN_WORD_MATRIX

    def test_chain_word_char_poly(self):
        p = char_poly(CHAIN_WORD_MATRIX)
        assert p.coefficients == (1, -1, 1, -1, 1)
        assert p == cyclotomic(10)

    def test_chain_word_fifth_power(self):
        assert CHAIN_WORD_MATRIX**5 == -IntMatrix.identity(4)

    def test_empty_word(self):
        assert word_matrix(EMPTY2, REP2) == IntMatrix.identity(4)

    def test_hyperelliptic_words(self):
        assert word_matrix(parse_word(HYPERELLIPTIC2, CHAIN2), REP2) == -IntMatrix.identity(4)
        assert word_matrix(parse_word("A B A B A B", TORUS), TREP) == -IntMatrix.identity(2)

    def test_inverse_letters(self):
        w = parse_word("C1 C1^-1", CHAIN2)
        assert word_matrix(w, REP2) == IntMatrix.identity(4)

    def test_anti_homomorphism(self):
        rng = random.Random(41)
        for _ in range(100):
            u = random_word(rng, CHAIN2)
            v = random_word(rng, CHAIN2)
            assert word_matrix(u * v, REP2) == word_matrix(v, REP2) * word_matrix(u, REP2)

    def test_preserves_intersection_form(self):
        rng = random.Random(43)
        for system in (CHAIN2, chain_system(3)):
            rep = homology_rep(system)
            j = rep.pairing
            for _ in range(100):
                m = word_matrix(random_word(rng, system), rep)
                assert m * j * m.transpose() == j
                assert m.det() == 1

    def test_mixed_system_rejected(self):
        with pytest.raises(ValueError, match="different systems"):
            word_matrix(parse_word("A", TORUS), REP2)


class TestOrders:
    def test_torus_orders(self):
        assert certify_periodic_order(parse_word("A B A", TORUS), TREP) == 4
        assert certify_periodic_order(parse_word("A B", TORUS), TREP) == 6
        assert certify_periodic_order(parse_word("A B A B", TORUS), TREP) == 3
        assert certify_periodic_order(parse_word("A B A B A B", TORUS), TREP) == 2

    def test_chain_orders(self):
        assert certify_periodic_order(parse_word(CHAIN_WORD, CHAIN2), REP2) == 10
        assert certify_periodic_order(parse_word(HYPERELLIPTIC2, CHAIN2), REP2) == 2
        tau5 = parse_word(HYPERELLIPTIC2 + " " + CHAIN_WORD, CHAIN2)
        assert certify_periodic_order(tau5, REP2) == 5

    def test_single_twist_infinite(self):
        assert certify_periodic_order(parse_word("C1", CHAIN2), REP2) is None
        assert certify_periodic_order(parse_word("A", TORUS), TREP) is None

    def test_central_negation(self):
        # -I commutes with the whole image, so the hyperelliptic word
        # conjugates trivially on homology.
        rng = random.Random(47)
        neg = -IntMatrix.identity(4)
        for _ in range(50):
            m = word_matrix(random_word(rng, CHAIN2), REP2)
            assert m * neg == neg * m


class TestRelationCheck:
    def test_braid_relation_on_torus(self):
        u = parse_word("A B A", TORUS)
        v = parse_word("B A B", TORUS)
        assert check_relation_homology(u, v, TREP)

    def test_distinct_on_torus(self):
        assert not check_relation_homology(
            parse_word("A", TORUS), parse_word("B", TORUS), TREP
        )

    def test_involution_words_square_to_identity(self):
        for text in (INVOLUTION_WORD_A, INVOLUTION_WORD_B):
            w = parse_word(text, CHAIN2)
            assert check_relation_homology(w * w, EMPTY2, REP2)
            assert certify_periodic_order(w, REP2) == 2

    def test_inverse_word_inverts_matrix(self):
        rng = random.Random(53)
        for _ in range(50):
            w = random_word(rng, CHAIN2)
            inverse = Word(tuple((i, -s) for i, s in reversed(w.letters)), CHAIN2)
            assert check_relation_homology(w * inverse, EMPTY2, REP2)
