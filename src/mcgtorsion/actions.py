"""Counting arithmetic for finite cyclic symmetries of surfaces.

A CyclicSymmetrySpec records what a model rotation of a surface does
to points: its order, the genus it acts on, and the sizes of its
exceptional orbits.  From that the module answers which boundary
counts the symmetry survives on, solves the Euler-characteristic
equation for free quotients and enumerates order-3 fixed-point
profiles.  Permutations of boundary labels are handled by a small exact
Permutation type, including the expression of a transposition as a
product of two involutions with few fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import resolve_address


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n} in one-line notation: images[k-1] is the image of k."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(
                f"one-line images must be a rearrangement of 1..{n}, got {self.images}"
            )

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"points {i}, {j} must lie in 1..{n}")
        if i == j:
            raise ValueError("a transposition needs two distinct points")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def apply(self, k: int) -> int:
        if not 1 <= k <= self.size:
            raise ValueError(f"point {k} must lie in 1..{self.size}")
        return self.images[k - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: the result sends k to self(other(k))."""
        if self.size != other.size:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[v - 1] for v in other.images))

    @property
    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(k for k, v in enumerate(self.images, start=1) if v == k)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each led by its smallest point, in that order."""
        seen = [False] * self.size
        out = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            k = self.apply(start)
            while k != start:
                cycle.append(k)
                seen[k - 1] = True
                k = self.apply(k)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return tuple(out)

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "id"
        return "".join("(" + " ".join(str(k) for k in c) + ")" for c in cycles)


@dataclass(frozen=True)
class CyclicSymmetrySpec:
    """Orbit data of a model rotation: order, genus acted on, exceptional orbits.

    special_orbits lists the sizes of the orbits shorter than the
    order, one entry per orbit; every other orbit has full size.
    """

    order: int
    genus: int
    special_orbits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"symmetry order must be >= 2, got {self.order}")
        if self.genus < 0:
            raise ValueError(f"genus must be nonnegative, got {self.genus}")
        for size in self.special_orbits:
            if size < 1 or size >= self.order or self.order % size != 0:
                raise ValueError(
                    f"special orbit size {size} must be a proper divisor of {self.order}"
                )


def builtin_spec(name: str) -> CyclicSymmetrySpec:
    """Resolves the CLI symmetry addresses.

    Fixed models: tau4 (order 4 on genus 1), tau6 (order 6 on genus 1),
    tau5 (order 5 on genus 2).  Parameterized families: tau2:g=G (the
    order-2 symmetry with 2g+2 fixed points) and tau3:g=G (order 3
    with g+2 fixed points), both for g >= 1.
    """
    return resolve_address("symmetry", name, _SPECS)


def _sphere_quotient_spec(order: int, fixed_points: int, g: int) -> CyclicSymmetrySpec:
    """A rotation of genus g whose only exceptional orbits are fixed points."""
    if g < 1:
        raise ValueError(f"symmetry 'tau{order}:g={g}': needs genus >= 1")
    return CyclicSymmetrySpec(order, g, (1,) * fixed_points)


_SPECS = {
    "tau4": lambda: CyclicSymmetrySpec(4, 1, (1, 1, 2)),
    "tau5": lambda: CyclicSymmetrySpec(5, 2, (1, 1, 1)),
    "tau6": lambda: CyclicSymmetrySpec(6, 1, (1, 2, 3)),
    "tau2:g": lambda g: _sphere_quotient_spec(2, 2 * g + 2, g),
    "tau3:g": lambda g: _sphere_quotient_spec(3, g + 2, g),
}


def realizable_boundary_count(spec: CyclicSymmetrySpec, r: int) -> bool:
    """Whether r points can be a union of orbits of the symmetry.

    Each special orbit may be used at most once; full orbits of size
    equal to the order may be used any number of times.  So r works
    iff some subset sum s of the special orbits has r - s a
    nonnegative multiple of the order.
    """
    if r < 0:
        raise ValueError(f"boundary count must be nonnegative, got {r}")
    sums = {0}
    for size in spec.special_orbits:
        sums |= {s + size for s in sums}
    return any(s <= r and (r - s) % spec.order == 0 for s in sums)


def free_quotient_genus(g: int, n: int, b: int) -> int | None:
    """Quotient genus of a hypothetical free order-n symmetry, if any.

    Solves 2 - 2g - b = n * (2 - 2g' - b) for an integer g' >= 0; the
    Euler characteristic multiplies under a free quotient with all b
    boundary circles invariant.  Returns None when no such g' exists.
    """
    if n < 2:
        raise ValueError(f"symmetry order must be >= 2, got {n}")
    if g < 0 or b < 0:
        raise ValueError("genus and boundary count must be nonnegative")
    chi = 2 - 2 * g - b
    if chi % n != 0:
        return None
    doubled = 2 - b - chi // n
    if doubled < 0 or doubled % 2 != 0:
        return None
    return doubled // 2


def z3_fixed_point_profiles(g: int) -> tuple[tuple[int, int], ...]:
    """All (quotient genus, fixed point count) pairs for an order-3 symmetry.

    A fixed point is a branch point of full order, so the Euler count
    reads 2 - 2g = 3*(2 - 2g') - 2t.  Solving for t gives
    t = 2 + g - 3g'; profiles are listed for every g' >= 0 keeping
    t >= 0, so the largest fixed point count is g + 2, at g' = 0.
    """
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    out = []
    quotient = 0
    while True:
        t = 2 + g - 3 * quotient
        if t < 0:
            break
        out.append((quotient, t))
        quotient += 1
    return tuple(out)


def transposition_as_two_involutions(
    n: int, i: int, j: int
) -> tuple[Permutation, Permutation]:
    """Writes the transposition (i j) in S_n as alpha composed with beta,
    both involutions with at most three fixed points.

    alpha swaps i with j and pairs up the remaining points in
    increasing order; beta makes the same pairs but fixes i and j.
    Then alpha after beta is exactly (i j): the pairs cancel, an odd
    leftover point is fixed by both, and only the i-j swap survives.
    Fixed points: alpha has at most 1 (the odd leftover), beta at most
    3 (i, j, and the leftover).
    """
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"points {i}, {j} must lie in 1..{n}")
    if i == j:
        raise ValueError("a transposition needs two distinct points")
    alpha = list(range(1, n + 1))
    beta = list(range(1, n + 1))
    alpha[i - 1], alpha[j - 1] = j, i
    rest = [v for v in range(1, n + 1) if v not in (i, j)]
    for p, q in zip(rest[0::2], rest[1::2]):
        alpha[p - 1], alpha[q - 1] = q, p
        beta[p - 1], beta[q - 1] = q, p
    return Permutation(tuple(alpha)), Permutation(tuple(beta))
