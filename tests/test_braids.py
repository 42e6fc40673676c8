"""Tests for braid words, their quotients, and the genus-2 lift."""

import random

import pytest

from mcgtorsion.actions import Permutation
from mcgtorsion.braids import (
    BraidWord,
    braid_permutation,
    braid_to_genus2_word,
    delta_star_word,
    exponent_sum,
    parse_braid,
)
from mcgtorsion.errors import ParseError
from mcgtorsion.homrep import homology_rep, word_matrix
from mcgtorsion.intlinalg import IntMatrix
from mcgtorsion.surfaces import chain_system
from mcgtorsion.words import abelian_image

# Homology matrix of the four-letter staircase C1 C2 C3 C4, frozen from
# the transvection product worked out by hand.
CHAIN_WORD_MATRIX = IntMatrix.from_rows(
    [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 1, -1, 1],
    ]
)


def random_braid(rng: random.Random, strands: int, length: int) -> BraidWord:
    return BraidWord(
        strands,
        tuple(
            (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
        ),
    )


class TestBraidWord:
    def test_strand_count_checked(self):
        with pytest.raises(ValueError, match="at least 2 strands"):
            BraidWord(1, ())

    def test_index_range_checked(self):
        with pytest.raises(ValueError, match="letter 2: strand index 5"):
            BraidWord(5, ((1, 1), (5, 1)))

    def test_sign_checked(self):
        with pytest.raises(ValueError, match="sign must be"):
            BraidWord(3, ((1, 2),))

    def test_concatenation_and_inverse(self):
        u = BraidWord(4, ((1, 1), (2, -1)))
        inverse = BraidWord(4, ((2, 1), (1, -1)))
        assert (u * inverse).letters == ((1, 1), (2, -1), (2, 1), (1, -1))
        with pytest.raises(ValueError, match="different strand counts"):
            u * BraidWord(5, ())

    def test_str(self):
        assert str(BraidWord(4, ((3, 1), (1, -1)))) == "s3 s1^-1"
        assert str(BraidWord(4, ())) == ""


class TestParseBraid:
    def test_round_trip(self):
        w = parse_braid("s1 s2^-1 s5", 6)
        assert w.letters == ((1, 1), (2, -1), (5, 1))

    def test_exponents_expand(self):
        assert parse_braid("s2^3 s1^-2", 4).letters == (
            (2, 1),
            (2, 1),
            (2, 1),
            (1, -1),
            (1, -1),
        )

    def test_unknown_token(self):
        with pytest.raises(ParseError, match="letter 2: expected s<k>"):
            parse_braid("s1 t2", 4)

    def test_out_of_range_index(self):
        with pytest.raises(ParseError, match="letter 1: strand index 4"):
            parse_braid("s4", 4)

    def test_malformed_token(self):
        with pytest.raises(ParseError, match="letter 1: malformed token"):
            parse_braid("^2", 4)


class TestBraidPermutation:
    def test_single_switch(self):
        w = BraidWord(2, ((1, 1),))
        assert braid_permutation(w) == Permutation.transposition(2, 1, 2)

    def test_switch_squared_is_trivial(self):
        w = BraidWord(2, ((1, 1), (1, 1)))
        assert braid_permutation(w).is_identity

    def test_ascending_run_is_a_cycle(self):
        for strands in range(2, 9):
            w = BraidWord(strands, tuple((i, 1) for i in range(1, strands)))
            perm = braid_permutation(w)
            expected = tuple(range(2, strands + 1)) + (1,)
            assert perm.images == expected

    def test_signs_do_not_matter(self):
        rng = random.Random(71)
        for _ in range(50):
            w = random_braid(rng, rng.randint(2, 7), rng.randint(0, 12))
            positive = BraidWord(w.strands, tuple((i, 1) for i, _ in w.letters))
            assert braid_permutation(w) == braid_permutation(positive)

    def test_rightmost_first_concatenation_law(self):
        rng = random.Random(72)
        for _ in range(100):
            strands = rng.randint(2, 7)
            u = random_braid(rng, strands, rng.randint(0, 8))
            v = random_braid(rng, strands, rng.randint(0, 8))
            assert braid_permutation(u * v) == braid_permutation(u).compose(
                braid_permutation(v)
            )


class TestExponentSum:
    def test_empty(self):
        assert exponent_sum(BraidWord(3, ())) == 0

    def test_cancelling_pair(self):
        assert exponent_sum(BraidWord(3, ((1, 1), (1, -1)))) == 0

    def test_additive_and_negating(self):
        rng = random.Random(73)
        for _ in range(100):
            strands = rng.randint(2, 6)
            u = random_braid(rng, strands, rng.randint(0, 10))
            v = random_braid(rng, strands, rng.randint(0, 10))
            assert exponent_sum(u * v) == exponent_sum(u) + exponent_sum(v)
            inverse = BraidWord(strands, tuple((i, -s) for i, s in reversed(u.letters)))
            assert exponent_sum(inverse) == -exponent_sum(u)


class TestDeltaStarWord:
    def test_shape(self):
        w = delta_star_word()
        assert w.strands == 6
        assert len(w) == 15
        assert all(sign == 1 for _, sign in w.letters)
        assert tuple(i for i, _ in w.letters) == (
            5, 4, 5, 3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5,
        )

    def test_reverses_the_strand_order(self):
        perm = braid_permutation(delta_star_word())
        assert perm.images == (6, 5, 4, 3, 2, 1)
        assert str(perm) == "(1 6)(2 5)(3 4)"
        assert perm.compose(perm).is_identity

    def test_exponent_sum(self):
        assert exponent_sum(delta_star_word()) == 15


class TestGenus2Lift:
    def test_delta_lift_text(self):
        lifted = braid_to_genus2_word(delta_star_word())
        assert str(lifted) == "C5 C4 C5 C3 C4 C5 C2 C3 C4 C5 C1 C2 C3 C4 C5"

    def test_empty_braid_lifts_to_empty_word(self):
        assert len(braid_to_genus2_word(BraidWord(6, ()))) == 0

    def test_ascending_run_gives_the_chain_staircase_matrix(self):
        w = BraidWord(6, ((1, 1), (2, 1), (3, 1), (4, 1)))
        rep = homology_rep(chain_system(2))
        assert word_matrix(braid_to_genus2_word(w), rep) == CHAIN_WORD_MATRIX

    def test_signs_preserved(self):
        w = BraidWord(6, ((2, -1), (5, 1)))
        assert str(braid_to_genus2_word(w)) == "C2^-1 C5"

    def test_wrong_strand_count_rejected(self):
        with pytest.raises(ValueError, match="six-strand"):
            braid_to_genus2_word(BraidWord(5, ((1, 1),)))

    def test_delta_lift_squares_to_identity_on_homology(self):
        rep = homology_rep(chain_system(2))
        m = word_matrix(braid_to_genus2_word(delta_star_word()), rep)
        assert m * m == IntMatrix.identity(4)
        assert m != IntMatrix.identity(4)

    def test_delta_lift_abelian_image(self):
        lifted = braid_to_genus2_word(delta_star_word())
        image = abelian_image(lifted, 2, 6)
        assert image.components == (5, 0)
        assert (image.twist_modulus, image.halftwist_modulus) == (10, 2)

    def test_twist_count_matches_braid_exponent_sum(self):
        rng = random.Random(74)
        for _ in range(100):
            w = random_braid(rng, 6, rng.randint(0, 12))
            lifted = braid_to_genus2_word(w)
            assert sum(sign for _, sign in lifted.letters) == exponent_sum(w)
