"""The action of twist words on first homology.

A Dehn twist along a curve with homology class c acts on row vectors by
the transvection x -> x + <x, c> c; half-twists and twists along
nullhomologous curves act as the identity.  Matrices follow the row
convention (row i is the image of basis element i, row vectors multiply
on the left), and words act rightmost letter first, so the matrix of
g_1 ... g_k is M(g_k) * ... * M(g_1).

On genus >= 1, finite matrix order certifies the order of a mapping
class asserted to be periodic; without that assertion it is only the
order of the homology image, a divisor of the true order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import IntMatrix, matrix_order
from .surfaces import CurveSystem, class_pairings
from .words import HALFTWIST, Word


@dataclass(frozen=True)
class HomologyRep:
    """First homology of the capped surface with its intersection form.

    pairing is the form on the basis rows; dimension is 2 * genus.
    """

    system: CurveSystem
    pairing: IntMatrix
    dimension: int

    @classmethod
    def from_system(cls, system: CurveSystem) -> "HomologyRep":
        """Extracts the basis (curves whose classes are unit rows) and its form.

        Checks, in this order: exactly one curve per unit row; the form
        the declared pairing puts on the basis is antisymmetric, then
        unimodular; every classed curve has a class of length 2 * genus;
        and every declared pairing between classed curves equals the one
        the classes and the form give, the first mismatch in row-major
        order over curve pairs being reported.  Raises ValueError on the
        first failure.  The classes are looked up in a dict and paired
        through class_pairings, so for the chain system the checks cost
        O(g^2) products besides one 2g x 2g determinant.
        """
        n = 2 * system.surface.genus
        classed = [k for k, c in enumerate(system.curves) if c.homology_class is not None]
        holders: dict[tuple[int, ...], list[int]] = {}
        for k in classed:
            holders.setdefault(system.curves[k].homology_class, []).append(k)
        basis: list[int] = []
        for i in range(n):
            hits = holders.get(tuple(1 if j == i else 0 for j in range(n)), [])
            if len(hits) != 1:
                raise ValueError(
                    f"system needs exactly one curve with class = unit row {i + 1}, "
                    f"found {len(hits)}"
                )
            basis.append(hits[0])
        rows = [[system.pairing[bi][bj] for bj in basis] for bi in basis]
        form = IntMatrix.from_rows(rows) if n else IntMatrix(0, 0, ())
        if form.transpose() != -form:
            raise ValueError("intersection form on the basis is not antisymmetric")
        if n and not form.is_unimodular():
            raise ValueError("intersection form on the basis is not unimodular")
        classes = [system.curves[k].homology_class for k in classed]
        for k, c in zip(classed, classes):
            if len(c) != n:
                raise ValueError(f"{system.curves[k].name}: homology class must have length {n}")
        derived = class_pairings(classes, rows)
        for i, row in zip(classed, derived):
            for j, value in zip(classed, row):
                if value != system.pairing[i][j]:
                    raise ValueError(
                        f"declared pairing at ({system.curves[i].name}, "
                        f"{system.curves[j].name}) is {system.pairing[i][j]} "
                        f"but the classes give {value}"
                    )
        return cls(system, form, n)


def homology_rep(system: CurveSystem) -> HomologyRep:
    return HomologyRep.from_system(system)


def _transvection(rep: HomologyRep, cls: tuple[int, ...], sign: int) -> IntMatrix:
    n = rep.dimension
    # <e_i, c> is the i-th entry of J c^T.
    jc = [sum(rep.pairing[i, k] * cls[k] for k in range(n)) for i in range(n)]
    return IntMatrix(
        n,
        n,
        tuple(
            (1 if i == j else 0) + sign * jc[i] * cls[j]
            for i in range(n)
            for j in range(n)
        ),
    )


def word_matrix(w: Word, rep: HomologyRep) -> IntMatrix:
    """Matrix of a word, rightmost letter first: M(g_k) * ... * M(g_1)."""
    if w.system != rep.system:
        raise ValueError("word and representation use different systems")
    result = IntMatrix.identity(rep.dimension)
    for g in w.letters:
        if g.kind == HALFTWIST:
            continue
        curve = rep.system.curve(g.curve_name)
        if curve.homology_class is None or not any(curve.homology_class):
            continue
        result = _transvection(rep, curve.homology_class, g.sign) * result
    return result


def certify_periodic_order(w: Word, rep: HomologyRep, cap: int | None = None) -> int | None:
    """Order of the homology matrix of w; None when infinite.

    On genus >= 1, the exact order of the mapping class when the class
    is periodic; always a divisor of the order otherwise.  On genus 0
    the homology is trivial and the answer is always 1, which certifies
    nothing.
    """
    return matrix_order(word_matrix(w, rep), cap)


def check_relation_homology(u: Word, v: Word, rep: HomologyRep) -> bool:
    """Whether u and v act identically on homology.

    False proves the mapping classes differ.  True is conclusive only
    over the torus, where the representation is faithful; from genus 2
    on it is merely a necessary condition.
    """
    return word_matrix(u, rep) == word_matrix(v, rep)
