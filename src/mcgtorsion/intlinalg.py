"""Exact linear algebra over the integers.

Small dense matrices with arbitrary-precision entries: Smith normal form
with its unimodular transforms, cokernels presented as abelian groups in
invariant-factor form, finite-order detection by power iteration against
a cyclotomic degree bound, and exact characteristic polynomials via the
Faddeev-LeVerrier recurrence.  No floating point is used anywhere; every
division performed is provably exact and is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParseError, parse_int


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major.

    Attributes:
        rows: number of rows (>= 0).
        cols: number of columns (>= 0).
        entries: flat tuple of length rows * cols, row-major.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, data: "list | tuple") -> "IntMatrix":
        """Builds a matrix from an iterable of equal-length rows."""
        rows = [tuple(row) for row in data]
        if not rows:
            return cls(0, 0, ())
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("rows have unequal lengths")
        return cls(len(rows), width, tuple(e for row in rows for e in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, values: "list | tuple") -> "IntMatrix":
        vals = tuple(values)
        n = len(vals)
        return cls(n, n, tuple(vals[i] if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {(i, j)} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        left, right = self.to_rows(), other.to_rows()
        product = []
        for i in range(self.rows):
            lrow = left[i]
            for j in range(other.cols):
                product.append(sum(lrow[k] * right[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(product))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return IntMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "IntMatrix":
        return self.scaled(-1)

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(k * e for e in self.entries))

    def __pow__(self, exponent: int) -> "IntMatrix":
        if not self.is_square:
            raise ValueError("only square matrices have powers")
        if exponent < 0:
            raise ValueError("negative matrix powers are not supported")
        result = IntMatrix.identity(self.rows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace requires a square matrix")
        return sum(self[i, i] for i in range(self.rows))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.is_square and self.det() in (1, -1)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    invariant_factors is a tuple (d_1, ..., d_k) with each d_i either 0
    (an infinite cyclic summand) or >= 2, nonzero factors satisfying
    d_1 | d_2 | ... and all zeros trailing.  The empty tuple is the
    trivial group.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        factors = self.invariant_factors
        if any(d == 1 or d < 0 for d in factors):
            raise ValueError(f"invariant factors must be 0 or >= 2, got {factors}")
        nonzero = [d for d in factors if d != 0]
        if factors[: len(nonzero)] != tuple(nonzero):
            raise ValueError("zero factors must trail the nonzero ones")
        for a, b in zip(nonzero, nonzero[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain: {factors}")

    @classmethod
    def from_orders(cls, orders: "list | tuple") -> "AbelianGroup":
        """Canonicalizes arbitrary cyclic orders (0 meaning infinite) into invariant factors."""
        if any(d < 0 for d in orders):
            raise ValueError("cyclic orders must be nonnegative")
        return cokernel(IntMatrix.diagonal(tuple(orders)))

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("group is infinite")
        return math.prod(self.invariant_factors)

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        return " x ".join("Z" if d == 0 else f"Z{d}" for d in self.invariant_factors)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients lowest-degree first.

    Normalized so the leading coefficient is nonzero; the zero
    polynomial is stored as (0,).
    """

    coefficients: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        if not coeffs or not all(isinstance(c, int) for c in coeffs):
            raise ValueError("coefficients must be a nonempty tuple of integers")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0,)

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.coefficients) - 1

    def __divmod__(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Polynomial division; the divisor's leading coefficient must be +-1."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.coefficients[-1]
        if lead not in (1, -1):
            raise ValueError("division requires a divisor with leading coefficient +-1")
        rem = list(self.coefficients)
        ddeg = divisor.degree
        quot = [0] * max(len(rem) - ddeg, 1)
        for top in range(len(rem) - 1, ddeg - 1, -1):
            q = rem[top] * lead
            if q:
                quot[top - ddeg] = q
                for k, c in enumerate(divisor.coefficients):
                    rem[top - ddeg + k] -= q * c
        return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))


def _diagonalize(rows: list[list[int]], nr: int, nc: int) -> list[int]:
    """Reduces the top-left nr x nc block of rows to Smith form, in place.

    Row operations act on the whole of rows 0..nr-1 and column
    operations on columns 0..nc-1 of every row, so a caller records U
    by appending I_nr to the right of the block and V by appending
    I_nc below it.  Returns the min(nr, nc) diagonal entries:
    nonnegative, a divisibility chain, zeros trailing.
    """
    a = rows

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]

    def add_row(i: int, j: int, q: int) -> None:
        # row i += q * row j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_col(i: int, j: int, q: int) -> None:
        # col i += q * col j
        for row in a:
            row[i] += q * row[j]

    for t in range(min(nr, nc)):
        pivot = min(
            (
                (abs(a[i][j]), i, j)
                for i in range(t, nr)
                for j in range(t, nc)
                if a[i][j] != 0
            ),
            default=None,
        )
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    swap_rows(i, t)
                    dirty = True
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(j, t)
                    dirty = True
            if dirty:
                continue
            stray = next(
                (
                    (i, j)
                    for i in range(t + 1, nr)
                    for j in range(t + 1, nc)
                    if a[i][j] % a[t][t] != 0
                ),
                None,
            )
            if stray is None:
                break
            add_row(t, stray[0], 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return [a[i][i] for i in range(min(nr, nc))]


def _diagonal_cokernel(diag: list[int], cols: int) -> tuple[AbelianGroup, list[int]]:
    """The cokernel of a Smith diagonal of a matrix with cols columns.

    Also returns the columns the invariant factors come from, in order:
    those whose diagonal entry is not 1, where missing entries are 0.
    """
    padded = diag + [0] * (cols - len(diag))
    keep = [j for j, x in enumerate(padded) if x != 1]
    return AbelianGroup(tuple(padded[j] for j in keep)), keep


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalizes m over the integers.

    Returns:
        (d, u, v) with u * m * v == d, u and v unimodular, d diagonal
        with nonnegative entries forming a divisibility chain
        d_1 | d_2 | ...
    """
    nr, nc = m.rows, m.cols
    rows = [a + u for a, u in zip(m.to_rows(), IntMatrix.identity(nr).to_rows())]
    rows += IntMatrix.identity(nc).to_rows()
    _diagonalize(rows, nr, nc)
    d = IntMatrix(nr, nc, tuple(x for row in rows[:nr] for x in row[:nc]))
    u = IntMatrix.from_rows([row[nc:] for row in rows[:nr]])
    return d, u, IntMatrix.from_rows(rows[nr:])


def cokernel(m: IntMatrix) -> AbelianGroup:
    """The quotient of Z^cols by the row span of m, in invariant-factor form."""
    return _diagonal_cokernel(_diagonalize(m.to_rows(), m.rows, m.cols), m.cols)[0]


def _euler_phi(n: int) -> int:
    phi = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            phi -= phi // p
        p += 1
    if n > 1:
        phi -= phi // n
    return phi


@lru_cache(maxsize=None)
def default_order_cap(size: int) -> int:
    """lcm of all m with euler_phi(m) <= size.

    Any finite-order size x size integer matrix has order dividing this
    bound (its minimal polynomial is a product of distinct cyclotomics
    whose orders each have totient <= size), so power iteration up to
    the cap is a complete finiteness test.
    """
    if size <= 0:
        return 1
    cap = 1
    # phi(m) >= sqrt(m/2) for all m, so phi(m) <= size forces m <= 2*size^2 + 1.
    for m in range(1, 2 * size * size + 2):
        if _euler_phi(m) <= size:
            cap = math.lcm(cap, m)
    return cap


def matrix_order(m: IntMatrix, cap: int | None = None) -> int | None:
    """Multiplicative order of m, or None when the order is infinite.

    With the default cap the answer is exact: exceeding
    default_order_cap(size) proves the order infinite.
    """
    if not m.is_square:
        raise ValueError("order requires a square matrix")
    if cap is None:
        cap = default_order_cap(m.rows)
    ident = IntMatrix.identity(m.rows)
    power = m
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = power * m
    return None


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(t*I - m), monic, by Faddeev-LeVerrier.

    Every division in the recurrence is exact over the integers and is
    checked.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    b = IntMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m * b
        q, r = divmod(-mk.trace(), k)
        if r != 0:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs[n - k] = q
        b = mk + IntMatrix.identity(n).scaled(q)
    return IntPolynomial(tuple(coeffs))


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, computed by exact division of t^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    poly = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            poly, rem = divmod(poly, cyclotomic(d))
            if not rem.is_zero:
                raise ArithmeticError("cyclotomic division was not exact")
    return poly


def parse_matrix_text(text: str) -> IntMatrix:
    """Parses the matrix text format: a 'rows cols' header line, then rows.

    Blank lines are ignored.  Raises ParseError naming the offending
    token and line.
    """
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(num, line) for num, line in lines if line]
    if not lines:
        raise ParseError("empty matrix text: expected a 'rows cols' header line")
    head_num, head = lines[0]
    head_tokens = head.split()
    if len(head_tokens) != 2:
        raise ParseError(f"line {head_num}: header must be 'rows cols', got {head!r}")
    try:
        rows, cols = (parse_int(tok) for tok in head_tokens)
    except ParseError:
        raise ParseError(f"line {head_num}: header must be two integers, got {head!r}") from None
    if rows < 0 or cols < 0:
        raise ParseError(f"line {head_num}: dimensions must be nonnegative")
    body = lines[1:]
    if len(body) != rows:
        raise ParseError(f"expected {rows} matrix rows, got {len(body)}")
    data = []
    for num, line in body:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(f"line {num}: expected {cols} entries, got {len(tokens)}")
        row = []
        for tok in tokens:
            try:
                row.append(parse_int(tok))
            except ParseError:
                raise ParseError(f"line {num}: bad integer {tok!r}") from None
        data.append(row)
    matrix = IntMatrix.from_rows(data)
    if matrix.rows == 0:
        return IntMatrix(rows, cols, ())
    return matrix
