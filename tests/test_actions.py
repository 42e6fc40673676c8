"""Tests for cyclic symmetry counting and permutation decompositions."""

import random
from itertools import combinations

import pytest

from mcgtorsion.actions import (
    CyclicSymmetrySpec,
    Permutation,
    builtin_spec,
    free_quotient_genus,
    realizable_boundary_count,
    transposition_as_two_involutions,
    z3_fixed_point_profiles,
)
from mcgtorsion.errors import ParseError


def realizable_by_enumeration(spec: CyclicSymmetrySpec, r: int) -> bool:
    """Oracle: try every subset of special orbits and every full-orbit count."""
    orbits = spec.special_orbits
    for take in range(len(orbits) + 1):
        for chosen in combinations(range(len(orbits)), take):
            s = sum(orbits[c] for c in chosen)
            if s <= r and (r - s) % spec.order == 0:
                return True
    return False


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="rearrangement"):
            Permutation((1, 1, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="rearrangement"):
            Permutation((0, 1, 2))

    def test_identity_and_transposition(self):
        assert Permutation.identity(3).images == (1, 2, 3)
        assert Permutation.transposition(4, 1, 3).images == (3, 2, 1, 4)

    def test_transposition_rejects_equal_points(self):
        with pytest.raises(ValueError, match="distinct"):
            Permutation.transposition(4, 2, 2)

    def test_compose_applies_right_factor_first(self):
        s = Permutation.transposition(3, 1, 2)
        t = Permutation.transposition(3, 2, 3)
        assert s.compose(t).images == (2, 3, 1)
        assert t.compose(s).images == (3, 1, 2)

    def test_cycles_and_str(self):
        flip = Permutation((6, 5, 4, 3, 2, 1))
        assert flip.cycles() == ((1, 6), (2, 5), (3, 4))
        assert str(flip) == "(1 6)(2 5)(3 4)"
        assert str(Permutation.identity(4)) == "id"
        assert str(Permutation((2, 3, 1, 4))) == "(1 2 3)"

    def test_fixed_points(self):
        assert Permutation((1, 3, 2, 4)).fixed_points() == (1, 4)

    def test_apply_range_checked(self):
        with pytest.raises(ValueError, match="lie in 1..3"):
            Permutation.identity(3).apply(4)


class TestCyclicSymmetrySpec:
    def test_orbit_sizes_must_properly_divide(self):
        with pytest.raises(ValueError, match="proper divisor"):
            CyclicSymmetrySpec(6, 1, (4,))
        with pytest.raises(ValueError, match="proper divisor"):
            CyclicSymmetrySpec(6, 1, (6,))

    def test_order_at_least_two(self):
        with pytest.raises(ValueError, match="order must be >= 2"):
            CyclicSymmetrySpec(1, 1, ())

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="genus"):
            CyclicSymmetrySpec(2, -1, ())


class TestBuiltinSpec:
    def test_fixed_models(self):
        assert builtin_spec("tau4") == CyclicSymmetrySpec(4, 1, (1, 1, 2))
        assert builtin_spec("tau6") == CyclicSymmetrySpec(6, 1, (1, 2, 3))
        assert builtin_spec("tau5") == CyclicSymmetrySpec(5, 2, (1, 1, 1))

    def test_parameterized_families(self):
        assert builtin_spec("tau2:g=2") == CyclicSymmetrySpec(2, 2, (1,) * 6)
        assert builtin_spec("tau3:g=2") == CyclicSymmetrySpec(3, 2, (1,) * 4)
        assert builtin_spec("tau2:g=1") == CyclicSymmetrySpec(2, 1, (1,) * 4)

    def test_unknown_name(self):
        with pytest.raises(ParseError, match="unknown symmetry"):
            builtin_spec("tau7")

    def test_missing_genus_parameter(self):
        with pytest.raises(ParseError, match="expected tau2:g=G"):
            builtin_spec("tau2")

    def test_bad_genus_parameter(self):
        with pytest.raises(ParseError, match="not an integer"):
            builtin_spec("tau3:g=x")
        with pytest.raises(ValueError, match="genus >= 1"):
            builtin_spec("tau2:g=0")


class TestRealizableBoundaryCount:
    def test_order_five_census(self):
        spec = builtin_spec("tau5")
        for r in range(31):
            assert realizable_boundary_count(spec, r) == (r % 5 != 4)

    def test_genus_one_models_always_realizable(self):
        for name in ("tau4", "tau6"):
            spec = builtin_spec(name)
            for r in range(31):
                assert realizable_boundary_count(spec, r)

    def test_zero_boundary_always_realizable(self):
        for name in ("tau4", "tau5", "tau6", "tau2:g=3", "tau3:g=2"):
            assert realizable_boundary_count(builtin_spec(name), 0)

    def test_periodic_in_boundary_count(self):
        for name in ("tau4", "tau5", "tau6", "tau2:g=2", "tau3:g=4"):
            spec = builtin_spec(name)
            for r in range(21):
                assert realizable_boundary_count(spec, r) == realizable_boundary_count(
                    spec, r + spec.order
                )

    def test_matches_enumeration_oracle(self):
        rng = random.Random(62)
        specs = [builtin_spec(n) for n in ("tau4", "tau5", "tau6", "tau2:g=2")]
        for _ in range(60):
            spec = rng.choice(specs)
            r = rng.randint(0, 25)
            assert realizable_boundary_count(spec, r) == realizable_by_enumeration(
                spec, r
            )

    def test_negative_boundary_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            realizable_boundary_count(builtin_spec("tau5"), -1)


class TestFreeQuotientGenus:
    def test_three_boundary_circles_work(self):
        assert free_quotient_genus(2, 5, 3) == 0

    def test_larger_boundary_counts_never_work(self):
        for b in range(4, 51):
            assert free_quotient_genus(2, 5, b) is None

    def test_euler_identity_when_solved(self):
        rng = random.Random(63)
        for _ in range(300):
            g, n, b = rng.randint(0, 8), rng.randint(2, 7), rng.randint(0, 12)
            quotient = free_quotient_genus(g, n, b)
            if quotient is not None:
                assert quotient >= 0
                assert 2 - 2 * g - b == n * (2 - 2 * quotient - b)

    def test_none_means_no_solution(self):
        rng = random.Random(64)
        for _ in range(300):
            g, n, b = rng.randint(0, 8), rng.randint(2, 7), rng.randint(0, 12)
            if free_quotient_genus(g, n, b) is None:
                for candidate in range(0, 40):
                    assert 2 - 2 * g - b != n * (2 - 2 * candidate - b)

    def test_degenerate_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 2"):
            free_quotient_genus(2, 1, 0)


class TestZ3FixedPointProfiles:
    def test_sphere(self):
        assert z3_fixed_point_profiles(0) == ((0, 2),)

    def test_torus(self):
        assert z3_fixed_point_profiles(1) == ((0, 3), (1, 0))

    def test_genus_two(self):
        assert z3_fixed_point_profiles(2) == ((0, 4), (1, 1))

    def test_branched_euler_count_holds(self):
        for g in range(21):
            for quotient, t in z3_fixed_point_profiles(g):
                assert quotient >= 0 and t >= 0
                assert 2 - 2 * g == 3 * (2 - 2 * quotient) - 2 * t

    def test_profiles_are_complete(self):
        for g in range(21):
            got = set(z3_fixed_point_profiles(g))
            for quotient in range(g + 2):
                t = 2 + g - 3 * quotient
                if t >= 0:
                    assert (quotient, t) in got

    def test_max_fixed_points(self):
        for g in range(21):
            assert max(t for _, t in z3_fixed_point_profiles(g)) == g + 2

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            z3_fixed_point_profiles(-1)


class TestTranspositionDecomposition:
    def test_four_points(self):
        alpha, beta = transposition_as_two_involutions(4, 1, 2)
        assert alpha.images == (2, 1, 4, 3)
        assert beta.images == (1, 2, 4, 3)
        assert beta.fixed_points() == (1, 2)

    def test_five_points_leaves_three_fixed(self):
        _, beta = transposition_as_two_involutions(5, 1, 2)
        assert beta.fixed_points() == (1, 2, 5)

    def test_all_pairs_up_to_twelve(self):
        for n in range(2, 13):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    alpha, beta = transposition_as_two_involutions(n, i, j)
                    assert alpha.compose(alpha).is_identity
                    assert beta.compose(beta).is_identity
                    assert alpha.compose(beta) == Permutation.transposition(n, i, j)
                    assert len(alpha.fixed_points()) <= 3
                    assert len(beta.fixed_points()) <= 3

    def test_errors(self):
        with pytest.raises(ValueError, match="distinct"):
            transposition_as_two_involutions(4, 2, 2)
        with pytest.raises(ValueError, match="lie in 1..4"):
            transposition_as_two_involutions(4, 1, 5)
        with pytest.raises(ValueError, match="at least 2"):
            transposition_as_two_involutions(1, 1, 1)
