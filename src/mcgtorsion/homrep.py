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
from .surfaces import CurveSystem
from .words import Word


@dataclass(frozen=True)
class HomologyRep:
    """First homology of the capped surface with its intersection form.

    pairing is the form on the basis rows; dimension is 2 * genus.
    """

    system: CurveSystem
    pairing: IntMatrix
    dimension: int


def homology_rep(system: CurveSystem) -> HomologyRep:
    return HomologyRep(system, IntMatrix.from_rows(system.form), 2 * system.surface.genus)


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
    curves = rep.system.curves
    for index, sign in w.letters:
        cls = curves[index].homology_class
        if cls is None or not any(cls):
            continue
        result = _transvection(rep, cls, sign) * result
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
