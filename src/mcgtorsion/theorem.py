"""Torsion-generation verdicts and their homology cross-checks.

For a surface of genus g with r boundary circles the verdict says
whether the mapping class group is generated by its torsion elements,
with which orders, and with what index the torsion-generated subgroup
sits inside otherwise.  The cross-check recomputes the index through
the abelianization: it builds the first homology of the group, asks
the symmetry census which torsion orders exist, intersects their
killed subgroups, and compares.  Witness twist words tie the numbers
to actual computations in the other modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .actions import builtin_spec, realizable_boundary_count
from .braids import braid_to_genus2_word, delta_star_word
from .intlinalg import AbelianGroup
from .surfaces import chain_system, torus_system
from .words import abelian_image, halftwist_modulus, parse_word, twist_modulus

# Torsion witness words: the palindromic involution word on the
# genus-2 chain, its order-5 continuation, and the torus words of
# orders 3 and 4.
GENUS2_INVOLUTION_TEXT = "C1 C2 C3 C4 C5^2 C4 C3 C2 C1"
GENUS2_ORDER5_TEXT = GENUS2_INVOLUTION_TEXT + " C1 C2 C3 C4"
TORUS_ORDER3_TEXT = "A B A B"
TORUS_ORDER4_TEXT = "A B A"


class CrossCheckError(RuntimeError):
    """Raised when the verdict and the homology computation disagree."""


@dataclass(frozen=True)
class Verdict:
    """Answer to: is the mapping class group generated by torsion?

    generator_orders lists the torsion orders that suffice when it is;
    torsion_subgroup_index is the index of the subgroup generated by
    all torsion elements, 1 exactly in the generated case.
    """

    generated_by_torsion: bool
    generator_orders: frozenset[int]
    torsion_subgroup_index: int

    def __post_init__(self) -> None:
        if self.torsion_subgroup_index < 1:
            raise ValueError("subgroup index must be >= 1")
        if self.generated_by_torsion != (self.torsion_subgroup_index == 1):
            raise ValueError(
                "generated_by_torsion must hold exactly when the index is 1"
            )


def torsion_generation_verdict(g: int, r: int) -> Verdict:
    """Whether torsion elements generate, with witness orders.

    The single exception is genus 2 with boundary count 4 mod 5, where
    the torsion-generated subgroup has index 5.  Genus 0 needs at
    least 3 boundary circles for the question to be non-degenerate.
    """
    if g < 0 or r < 0:
        raise ValueError("genus and boundary count must be nonnegative")
    if g == 0 and r < 3:
        raise ValueError(f"genus 0 needs at least 3 boundary circles, got {r}")
    if g == 2 and r % 5 == 4:
        return Verdict(False, frozenset(), 5)
    if g == 0:
        orders = {r - 1, r}
    elif g == 1:
        orders = {2, 3, 4}
    elif g == 2:
        orders = {2, 5}
    else:
        orders = {2}
    return Verdict(True, frozenset(orders), 1)


def h1_of_mcg(g: int, r: int) -> AbelianGroup:
    """First homology of the mapping class group, positive genus only.

    One cyclic factor is the image of a nonseparating twist (order
    words.twist_modulus), the other the image of a boundary-swapping
    half-twist (order words.halftwist_modulus).  Genus 0 is served by
    the presentations module instead.
    """
    if g < 1:
        raise ValueError("needs genus >= 1; abelianize a presentation for genus 0")
    return AbelianGroup.from_orders([twist_modulus(g), halftwist_modulus(r)])


def torsion_image_subgroup(
    group: AbelianGroup, allowed_orders: frozenset[int] | set[int]
) -> tuple[AbelianGroup, int]:
    """Subgroup generated by all elements killed by an allowed order.

    Works factor by factor: in a cyclic factor of order d the elements
    killed by m form the subgroup of order gcd(d, m), and the union
    over allowed orders generates the subgroup of order lcm of those
    gcds.  Returns the subgroup and its index, which needs the group
    finite.
    """
    if not allowed_orders:
        raise ValueError("need at least one allowed torsion order")
    if any(m < 2 for m in allowed_orders):
        raise ValueError("torsion orders must be >= 2")
    if not group.is_finite:
        raise ValueError("subgroup index needs a finite group")
    sub_orders = [
        lcm(*(gcd(d, m) for m in allowed_orders)) for d in group.invariant_factors
    ]
    subgroup = AbelianGroup(tuple(k for k in sub_orders if k != 1))
    index = group.order() // subgroup.order()
    return subgroup, index


@dataclass(frozen=True)
class CrossCheckReport:
    """Everything the homology cross-check computed, for one (g, r)."""

    genus: int
    boundary: int
    homology: AbelianGroup
    allowed_orders: frozenset[int]
    torsion_subgroup: AbelianGroup
    index: int
    verdict: Verdict


def cross_check(g: int, r: int) -> CrossCheckReport:
    """Recomputes the verdict index through homology and witness words.

    Assembles the torsion orders realizable on (g, r) from the
    symmetry census, takes the subgroup of the group homology they
    generate, and insists its index matches the verdict.  Witness
    words pin the generators: on genus 2 the twist images 4 and 5 of
    the order-5 word and the lifted half-twist staircase must generate
    the order-10 factor; on genus 1 the images 4 and 3 of the torus
    words must generate the order-12 factor and differ by the image of
    a single twist.
    """
    if g not in (1, 2):
        raise ValueError(f"cross-check covers genus 1 and 2 only, got {g}")
    homology = h1_of_mcg(g, r)
    if g == 1:
        candidates = {2: "tau2:g=1", 3: "tau3:g=1", 4: "tau4"}
    else:
        candidates = {2: "tau2:g=2", 3: "tau3:g=2", 5: "tau5"}
    allowed = frozenset(
        order
        for order, name in candidates.items()
        if realizable_boundary_count(builtin_spec(name), r)
    )
    if not allowed:
        raise CrossCheckError(f"no torsion orders realizable on genus {g} with r={r}")
    subgroup, index = torsion_image_subgroup(homology, allowed)
    verdict = torsion_generation_verdict(g, r)
    if index != verdict.torsion_subgroup_index:
        raise CrossCheckError(
            f"homology gives index {index} but the verdict says "
            f"{verdict.torsion_subgroup_index} at genus {g}, r={r}"
        )
    _check_witness_words(g, r)
    return CrossCheckReport(
        genus=g,
        boundary=r,
        homology=homology,
        allowed_orders=allowed,
        torsion_subgroup=subgroup,
        index=index,
        verdict=verdict,
    )


def _check_witness_words(g: int, r: int) -> None:
    if g == 2:
        chain = chain_system(2)
        order5 = abelian_image(parse_word(GENUS2_ORDER5_TEXT, chain), g, r)
        lifted = abelian_image(braid_to_genus2_word(delta_star_word()), g, r)
        if order5.twist_component != 4:
            raise CrossCheckError(
                f"order-5 word image is {order5.twist_component}, expected 4"
            )
        if lifted.twist_component != 5:
            raise CrossCheckError(
                f"lifted staircase image is {lifted.twist_component}, expected 5"
            )
        if gcd(order5.twist_component, lifted.twist_component, 10) != 1:
            raise CrossCheckError("witness images fail to generate the order-10 factor")
        return
    torus = torus_system()
    order3 = abelian_image(parse_word(TORUS_ORDER3_TEXT, torus), g, r)
    order4 = abelian_image(parse_word(TORUS_ORDER4_TEXT, torus), g, r)
    single = abelian_image(parse_word("A", torus), g, r)
    if (order3.twist_component, order4.twist_component) != (4, 3):
        raise CrossCheckError(
            f"torus witness images are {order3.twist_component}, "
            f"{order4.twist_component}, expected 4, 3"
        )
    if gcd(order3.twist_component, order4.twist_component, 12) != 1:
        raise CrossCheckError("witness images fail to generate the order-12 factor")
    difference = order3 + order4.scaled(-1)
    if difference != single:
        raise CrossCheckError("witness image difference is not a single twist image")
