"""Tests for word parsing, word construction and the abelianization map."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgtorsion.errors import ParseError
from mcgtorsion.homrep import homology_rep, word_matrix
from mcgtorsion.intlinalg import IntMatrix
from mcgtorsion.surfaces import (
    ARC,
    NONSEPARATING,
    builtin_system,
    chain_system,
    planar_arc_system,
    torus_system,
)
from mcgtorsion.words import (
    AbelianImage,
    Word,
    abelian_image,
    letter,
    parse_word,
    twist_modulus,
)

CHAIN2 = chain_system(2)
TORUS = torus_system()

# Ten positive chain twists whose homology matrix is -identity; its
# product with C1 C2 C3 C4 has order five.  Used across the test suite.
HYPERELLIPTIC2 = "C1 C2 C3 C4 C5^2 C4 C3 C2 C1"
ORDER5_WORD = HYPERELLIPTIC2 + " C1 C2 C3 C4"


def random_word(rng: random.Random, system, max_len: int = 12) -> Word:
    names = [c.name for c in system.curves]
    letters = tuple(
        letter(system, rng.choice(names), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    )
    return Word(letters, system)


def random_text(rng: random.Random, system, max_len: int = 12) -> list[tuple[str, int]]:
    """Random (name, sign) tokens over the system's curve names."""
    return [
        (rng.choice(system.names), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    ]


def spell(tokens: list[tuple[str, int]]) -> str:
    return " ".join(name if sign == 1 else f"{name}^-1" for name, sign in tokens)


def spell_inverse(tokens: list[tuple[str, int]]) -> str:
    return spell([(name, -sign) for name, sign in reversed(tokens)])


class TestParsing:
    def test_exponents_expand(self):
        w = parse_word("C1 C2^3 C5^-2", CHAIN2)
        assert w.letters == ((0, 1), (1, 1), (1, 1), (1, 1), (4, -1), (4, -1))
        assert str(w) == "C1 C2 C2 C2 C5^-1 C5^-1"

    def test_zero_exponent_vanishes(self):
        assert len(parse_word("C1^0", CHAIN2)) == 0

    def test_empty_text(self):
        assert parse_word("", CHAIN2) == Word((), CHAIN2)

    def test_halftwists_on_arcs(self):
        system = planar_arc_system(6)
        w = parse_word("A1 A5^-1", system)
        assert w.letters == ((0, 1), (4, -1))
        assert [system.curves[index].kind for index, _ in w.letters] == [ARC, ARC]

    def test_unknown_curve_names_position(self):
        with pytest.raises(ParseError, match="letter 2"):
            parse_word("C1 X2", CHAIN2)

    def test_malformed_exponent_names_token(self):
        with pytest.raises(ParseError, match=r"C1\^"):
            parse_word("C1^ C2", CHAIN2)
        with pytest.raises(ParseError, match="letter 3"):
            parse_word("C1 C2 C3^1.5", CHAIN2)

    def test_case_insensitive_curve_spelling(self):
        assert parse_word("a b a", TORUS) == parse_word("A B A", TORUS)

    def test_round_trip_str(self):
        w = parse_word("C1 C2^-1 C3", CHAIN2)
        assert str(w) == "C1 C2^-1 C3"
        assert parse_word(str(w), CHAIN2) == w


SYSTEMS = ["torus"] + [f"chain:g={g}" for g in range(1, 5)] + [
    f"planar:r={r}" for r in range(3, 8)
]


def transvect(x: list[int], cls, sign: int, form) -> list[int]:
    """x + sign * <x, c> c, with <x, c> = x J c^T."""
    n = len(x)
    pairing = sum(x[i] * form[i][j] * cls[j] for i in range(n) for j in range(n))
    return [x[i] + sign * pairing * cls[i] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(
    address=st.sampled_from(SYSTEMS),
    g=st.integers(1, 4),
    r=st.integers(0, 7),
    data=st.data(),
)
def test_words_against_oracle(address, g, r, data):
    # Tokens name curves by position, spelled in the case a bit mask
    # picks per character, with exponents in -3..3 written out or left
    # implicit.
    system = builtin_system(address)
    curves = system.curves
    tokens = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(curves) - 1),
                st.one_of(st.none(), st.integers(-3, 3)),
                st.integers(0, 7),
            ),
            max_size=12,
        )
    )
    spelled, canonical, letters = [], [], []
    for index, exponent, mask in tokens:
        name = curves[index].name
        cased = "".join(
            ch.upper() if mask >> bit & 1 else ch.lower() for bit, ch in enumerate(name)
        )
        spelled.append(cased if exponent is None else f"{cased}^{exponent}")
        k = 1 if exponent is None else exponent
        sign = 1 if k > 0 else -1
        letters.extend([(index, sign)] * abs(k))
        canonical.extend([name if sign == 1 else f"{name}^-1"] * abs(k))
    w = parse_word(" ".join(spelled), system)

    assert str(w) == " ".join(canonical)
    assert parse_word(str(w), system) == w

    # Words act rightmost letter first on row vectors, so row i of the
    # matrix is e_i pushed through the letters from the right.
    n = 2 * system.surface.genus
    rows = []
    for i in range(n):
        x = [int(i == j) for j in range(n)]
        for index, sign in reversed(letters):
            cls = curves[index].homology_class
            if cls is not None:
                x = transvect(x, cls, sign, system.form)
        rows.append(x)
    expected = IntMatrix(n, n, tuple(e for row in rows for e in row))
    assert word_matrix(w, homology_rep(system)) == expected

    tmod = {1: 12, 2: 10}.get(g, 1)
    hmod = 2 if r >= 2 else 1
    twists = sum(s for i, s in letters if curves[i].kind == NONSEPARATING)
    halves = sum(s for i, s in letters if curves[i].kind == ARC)
    assert abelian_image(w, g, r) == AbelianImage(twists % tmod, tmod, halves % hmod, hmod)


class TestWordConstruction:
    def test_mixed_system_concat_rejected(self):
        u = parse_word("C1", CHAIN2)
        v = parse_word("A", TORUS)
        with pytest.raises(ValueError, match="different systems"):
            u * v

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign must be"):
            Word(((0, 2),), CHAIN2)
        for index in (5, -1):
            with pytest.raises(ValueError, match="out of range"):
                Word(((index, 1),), CHAIN2)


class TestAbelianImage:
    def test_twist_moduli(self):
        assert twist_modulus(1) == 12
        assert twist_modulus(2) == 10
        assert twist_modulus(3) == 1
        assert twist_modulus(7) == 1
        with pytest.raises(ValueError):
            twist_modulus(0)

    def test_order_five_word(self):
        w = parse_word(ORDER5_WORD, CHAIN2)
        image = abelian_image(w, 2, 0)
        assert image.components == (4, 0)
        assert image.twist_modulus == 10

    def test_hyperelliptic_word_vanishes(self):
        w = parse_word(HYPERELLIPTIC2, CHAIN2)
        assert abelian_image(w, 2, 0).components == (0, 0)

    def test_empty_word(self):
        assert abelian_image(Word((), CHAIN2), 2, 0).is_zero

    def test_genus_three_kills_twists(self):
        cs = chain_system(3)
        w = parse_word("C1 C2 C3", cs)
        image = abelian_image(w, 3, 0)
        assert image.twist_modulus == 1
        assert image.components == (0, 0)

    def test_halftwist_component(self):
        system = planar_arc_system(6)
        w = parse_word("A1 A2 A3", system)
        image = abelian_image(w, 1, 6)
        assert image.halftwist_component == 1
        assert image.halftwist_modulus == 2
        assert abelian_image(parse_word("A1^2", system), 1, 6).is_zero

    def test_few_boundaries_trivialize_halftwists(self):
        w = parse_word("A B", TORUS)
        image = abelian_image(w, 1, 1)
        assert image.halftwist_modulus == 1
        assert image.components == (2, 0)

    def test_genus_zero_rejected(self):
        with pytest.raises(ValueError):
            abelian_image(Word((), CHAIN2), 0, 5)

    def test_additive_on_concatenation(self):
        rng = random.Random(17)
        for _ in range(100):
            u = random_word(rng, CHAIN2)
            v = random_word(rng, CHAIN2)
            left = abelian_image(u * v, 2, 3)
            assert left == abelian_image(u, 2, 3) + abelian_image(v, 2, 3)

    def test_invariant_under_reduction_and_conjugation(self):
        rng = random.Random(19)
        for _ in range(100):
            w = random_text(rng, CHAIN2)
            u = random_text(rng, CHAIN2)
            cut = rng.randint(0, len(w))
            img = abelian_image(parse_word(spell(w), CHAIN2), 2, 3)
            unreduced = spell(w[:cut] + u) + " " + spell_inverse(u) + " " + spell(w[cut:])
            conjugate = f"{spell(u)} {spell(w)} {spell_inverse(u)}"
            commutator = f"{spell(u)} {spell(w)} {spell_inverse(u)} {spell_inverse(w)}"
            assert abelian_image(parse_word(unreduced, CHAIN2), 2, 3) == img
            assert abelian_image(parse_word(conjugate, CHAIN2), 2, 3) == img
            assert abelian_image(parse_word(commutator, CHAIN2), 2, 3).is_zero

    def test_torsion_orders_kill_images(self):
        # Each certified torsion word, scaled by its order, lands on zero.
        cases = [
            (parse_word(HYPERELLIPTIC2, CHAIN2), 2, 2),
            (parse_word(ORDER5_WORD, CHAIN2), 2, 5),
            (parse_word("A B A", TORUS), 1, 4),
            (parse_word("A B", TORUS), 1, 6),
            (parse_word("A B A B", TORUS), 1, 3),
            (parse_word("A B A B A B", TORUS), 1, 2),
        ]
        for word, g, order in cases:
            assert abelian_image(word, g, 0).scaled(order).is_zero

    def test_moduli_mismatch_rejected(self):
        a = AbelianImage(1, 12, 0, 1)
        b = AbelianImage(1, 10, 0, 1)
        with pytest.raises(ValueError):
            a + b

    def test_component_reduction_enforced(self):
        with pytest.raises(ValueError):
            AbelianImage(12, 12, 0, 2)
        with pytest.raises(ValueError):
            AbelianImage(0, 12, -1, 2)
