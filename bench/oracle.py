"""Independent correctness oracles.

Nothing here imports mcgtorsion.  Matrices are lists of integer rows.
Each check returns None when the answer is right and a short message
when it is wrong.
"""

from __future__ import annotations

import math
import random

# ----------------------------------------------------------------------
# Integer matrices


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_pow(m, e: int):
    result = identity(len(m))
    while e:
        if e & 1:
            result = matmul(result, m)
        m = matmul(m, m)
        e >>= 1
    return result


def trace(m) -> int:
    return sum(m[i][i] for i in range(len(m)))


def det(rows) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def rank(rows) -> int:
    """Rank over the rationals, as the larger rank modulo two big primes."""
    best = 0
    for p in (2**61 - 1, 2**31 - 1):
        a = [[x % p for x in r] for r in rows]
        r = 0
        cols = len(a[0]) if a else 0
        for c in range(cols):
            piv = next((i for i in range(r, len(a)) if a[i][c]), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = pow(a[r][c], -1, p)
            for i in range(len(a)):
                if i != r and a[i][c]:
                    f = a[i][c] * inv % p
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
            r += 1
        best = max(best, r)
    return best


def prime_factors(k: int) -> list[int]:
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return out


# ----------------------------------------------------------------------
# Homology of the torus and of the closed chain surfaces


def form(system: str):
    """Intersection form on the basis: +1 on the superdiagonal."""
    g = 1 if system == "torus" else int(system.split("=")[1])
    n = 2 * g
    return [[1 if j == i + 1 else -1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]


def curve_class(system: str, name: str) -> list[int]:
    if system == "torus":
        return [1, 0] if name == "A" else [0, 1]
    g = int(system.split("=")[1])
    i = int(name[1:])
    if i <= 2 * g:
        return [int(j == i - 1) for j in range(2 * g)]
    return [-1 if j % 2 == 0 else 0 for j in range(2 * g)]


def word_matrix(system: str, tokens):
    """Row-convention homology matrix of a word, rightmost letter first.

    A twist power T_c^k acts as M -> M + k (J c)(c M): a rank-one update
    per token instead of a matrix product per letter.
    """
    j = form(system)
    n = len(j)
    m = identity(n)
    for name, k in tokens:
        c = curve_class(system, name)
        u = [sum(j[i][t] * c[t] for t in range(n)) for i in range(n)]
        row = [sum(c[t] * m[t][col] for t in range(n)) for col in range(n)]
        for i in range(n):
            if u[i]:
                f = k * u[i]
                m[i] = [x + f * y for x, y in zip(m[i], row)]
    return m


def is_symplectic(system: str, m) -> bool:
    j = form(system)
    return matmul(matmul(m, j), transpose(m)) == j


def is_unipotent_nonidentity(m) -> bool:
    n = len(m)
    nil = [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    if not any(any(r) for r in nil):
        return False
    p = nil
    for _ in range(max(1, (n - 1).bit_length())):
        p = matmul(p, p)
    return not any(any(r) for r in p)


def check_word_matrix(system: str, tokens, rows) -> str | None:
    if rows != word_matrix(system, tokens):
        return "matrix differs from the rank-one evaluation"
    if not is_symplectic(system, rows):
        return "matrix does not preserve the intersection form"
    return None


def check_order(system: str, tokens, answer, expected, witness=None) -> str | None:
    """Checks a certified order against the construction and the matrix."""
    if answer != expected:
        return f"order {answer}, construction gives {expected}"
    m = word_matrix(system, tokens)
    n = len(m)
    if expected is None:
        if witness == "unipotent" and is_unipotent_nonidentity(m):
            return None
        if witness == "trace" and abs(trace(m)) > n:
            return None
        return f"no {witness} witness for infinite order"
    one = identity(n)
    if mat_pow(m, expected) != one:
        return f"M^{expected} is not the identity"
    for p in prime_factors(expected):
        if mat_pow(m, expected // p) == one:
            return f"M^{expected // p} is already the identity"
    return None


# ----------------------------------------------------------------------
# Smith normal form, cokernels and abelianizations


def chain_error(diag) -> str | None:
    if any(d < 0 for d in diag):
        return "negative diagonal entry"
    for a, b in zip(diag, diag[1:]):
        if (b % a if a else b) != 0:
            return f"{a} does not divide {b}"
    return None


def check_snf(m, d, u, v) -> str | None:
    """U*M*V == D, D diagonal with a divisibility chain, U and V unimodular."""
    rows, cols = len(m), len(m[0]) if m else 0
    if matmul(matmul(u, m), v) != d:
        return "U*M*V != D"
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        return "D is not diagonal"
    err = chain_error([d[i][i] for i in range(min(rows, cols))])
    if err:
        return err
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return "transform is not unimodular"
    return None


def cokernel_factors(d, cols: int) -> tuple[int, ...]:
    """Invariant factors read off a checked Smith form."""
    k = min(len(d), cols)
    diag = [d[i][i] for i in range(k)]
    torsion = tuple(x for x in diag if x not in (0, 1))
    return torsion + (0,) * (cols - k + diag.count(0))


def exponent_rows(gens, rels):
    index = {g: j for j, g in enumerate(gens)}
    out = []
    for rel in rels:
        row = [0] * len(gens)
        for name, k in rel:
            row[index[name]] += k
        out.append(row)
    return out


def _reduce(x: int, d: int) -> int:
    return x % d if d else x


def _minor_multiple(a, rng: random.Random) -> int:
    """A nonzero multiple of the gcd of the maximal minors of a (full column rank).

    det(P*A) for any P is such a multiple by Cauchy-Binet; a random P
    makes it nonzero.
    """
    for _ in range(64):
        p = [[rng.randint(-9, 9) for _ in range(len(a))] for _ in range(len(a[0]))]
        d = abs(det(matmul(p, a)))
        if d:
            return d
    raise ArithmeticError("no nonzero maximal minor found")


def lattice_index(a, rng: random.Random) -> int:
    """Index in Z^cols of the row lattice of a, which must have full column rank.

    Hermite elimination modulo a multiple D of the index: D*Z^cols lies
    in the lattice, so reducing entries mod D keeps it, and the index is
    the product of the pivots.
    """
    cols = len(a[0])
    mod = _minor_multiple(a, rng)
    rows = [[x % mod for x in r] for r in a]
    index = 1
    for c in range(cols):
        pivot = [mod if j == c else 0 for j in range(cols)]
        for r in rows:
            if r[c] == 0:
                continue
            g, x, y = _egcd(pivot[c], r[c])
            p, q = pivot[c] // g, r[c] // g
            pivot, r[:] = (
                [(x * s + y * t) % mod for s, t in zip(pivot, r)],
                [(p * t - q * s) % mod for s, t in zip(pivot, r)],
            )
            pivot[c] = g
        index *= pivot[c]
    return index


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _minor_gcd(a, k: int, rng: random.Random) -> int:
    """gcd of the k x k minors of a, for rank-deficient a: gcd of det(P*A*Q)
    over random P and Q, which converges to it with high probability."""
    g = 0
    for _ in range(64):
        p = [[rng.randint(-9, 9) for _ in range(len(a))] for _ in range(k)]
        q = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(len(a[0]))]
        g = math.gcd(g, det(matmul(matmul(p, a), q)))
    return g


def check_abelianization(gens, rels, factors, images, closed_form=None) -> str | None:
    """Checks that generator images give an isomorphism onto the group.

    Relators must die in the reported group, the images must generate
    it, and its free rank and torsion order must match the relation
    matrix (rank over Q and the gcd of its rank-sized minors).  A
    surjection between groups of equal rank and torsion order is an
    isomorphism.  With `closed_form` the group is also compared with it.
    """
    factors = tuple(factors)
    if closed_form is not None and factors != closed_form:
        return f"group {factors}, closed form {closed_form}"
    if any(f == 1 for f in factors):
        return "invariant factor 1"
    nonzero = [f for f in factors if f]
    if factors[: len(nonzero)] != tuple(nonzero):
        return "free factors do not trail"
    err = chain_error(nonzero)
    if err:
        return err
    k = len(factors)
    if len(images) != len(gens) or any(len(im) != k for im in images):
        return "image shape does not match the group"
    rows = exponent_rows(gens, rels)
    for row in rows:
        for i, d in enumerate(factors):
            if _reduce(sum(r * im[i] for r, im in zip(row, images)), d):
                return "a relator does not die in the reported group"
    rng = random.Random(len(gens) * 1000 + len(rels))
    if k:
        stacked = [list(im) for im in images] + [
            [d if i == j else 0 for j in range(k)] for i, d in enumerate(factors)]
        if rank(stacked) != k or lattice_index(stacked, rng) != 1:
            return "images do not generate the reported group"
    if closed_form is not None:
        return None
    rho = rank(rows) if rows else 0
    free = len(gens) - rho
    if factors.count(0) != free:
        return f"free rank {factors.count(0)}, relation matrix gives {free}"
    torsion = math.prod(nonzero)
    if rho == len(gens):
        minors = lattice_index(rows, rng)
    else:
        minors = _minor_gcd(rows, rho, rng) if rho else 1
    if torsion != minors:
        return f"torsion order {torsion}, relation matrix gives {minors}"
    return None


def gamma0r_group(r: int) -> tuple[int, ...]:
    """Z_{r-1} for odd r and Z_{2(r-1)} for even r."""
    return (r - 1,) if r % 2 else (2 * (r - 1),)


# ----------------------------------------------------------------------
# Expected command-line output


def symmetry(spec: str) -> tuple[int, list[int]]:
    """Order and special orbit sizes of the built-in symmetry models."""
    fixed = {"tau4": (4, [1, 1, 2]), "tau6": (6, [1, 2, 3]), "tau5": (5, [1, 1, 1])}
    if spec in fixed:
        return fixed[spec]
    head, g = spec.split(":g=")
    return (2, [1] * (2 * int(g) + 2)) if head == "tau2" else (3, [1] * (int(g) + 2))


def admissible(spec: str, r: int) -> bool:
    order, orbits = symmetry(spec)
    sums = {0}
    for size in orbits:
        sums |= {s + size for s in sums}
    return any(s <= r and (r - s) % order == 0 for s in sums)


def census_text(spec: str, lo: int, hi: int) -> str:
    return "".join(f"{r} {'yes' if admissible(spec, r) else 'no'}\n" for r in range(lo, hi + 1))


def free_quotient_text(g: int, n: int, b: int) -> str:
    chi = 2 - 2 * g - b
    hits = [q for q in range(g + 3) if n * (2 - 2 * q - b) == chi]
    return f"{hits[0]}\n" if hits else "none\n"


def z3_profiles_text(g: int) -> str:
    rows = [(q, t) for q in range(g + 3) for t in range(g + 3)
            if 2 - 2 * g == 3 * (2 - 2 * q) - 2 * t]
    return "".join(f"{q} {t}\n" for q, t in rows)


def cycles_text(images: list[int]) -> str:
    """Cycle notation of a permutation of 1..n given as images[k-1]."""
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle, k = [], start
        while k not in seen:
            seen.add(k)
            cycle.append(k)
            k = images[k - 1]
        if len(cycle) > 1:
            out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "id"


def braid_perm_text(strands: int, letters) -> str:
    """Rightmost letter acts first; each letter swaps strands i and i+1."""
    images = []
    for k in range(1, strands + 1):
        for i, _ in reversed(letters):
            k = i + 1 if k == i else i if k == i + 1 else k
        images.append(k)
    return cycles_text(images) + "\n"


def braid_lift_text(letters) -> str:
    return " ".join(f"C{i}" if s == 1 else f"C{i}^-1" for i, s in letters) + "\n"


def theorem_text(g: int, r: int) -> str:
    """The paper's verdict: genus 2 with r = 4 mod 5 is the one exception."""
    if g == 2 and r % 5 == 4:
        return "not generated by torsion; index 5\n"
    orders = {0: [r - 1, r], 1: [2, 3, 4], 2: [2, 5]}.get(g, [2])
    return f"generated by torsion; orders {{{', '.join(map(str, sorted(orders)))}}}\n"


def theorem_grid_text(gmax: int, rmax: int) -> str:
    return "".join(
        f"g={g} r={r} index={5 if g == 2 and r % 5 == 4 else 1} ok\n"
        for g in (1, 2) if g <= gmax for r in range(rmax + 1))


def matrix_text(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _parse_cycles(text: str, n: int) -> list[int]:
    images = list(range(1, n + 1))
    if text.strip() == "id":
        return images
    for part in text.strip()[1:-1].split(")("):
        pts = [int(x) for x in part.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return images


def check_transposition(n: int, i: int, j: int, stdout: str) -> str | None:
    """alpha and beta are involutions, with at most 1 and 3 fixed points,
    and alpha after beta is the transposition (i j)."""
    lines = stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith("alpha: ") or not lines[1].startswith("beta: "):
        return "malformed output"
    alpha = _parse_cycles(lines[0][7:], n)
    beta = _parse_cycles(lines[1][6:], n)
    for p, most in ((alpha, 1), (beta, 3)):
        if any(p[p[k] - 1] != k + 1 for k in range(n)):
            return "not an involution"
        if sum(p[k] == k + 1 for k in range(n)) > most:
            return "too many fixed points"
    swap = list(range(1, n + 1))
    swap[i - 1], swap[j - 1] = j, i
    if [alpha[beta[k] - 1] for k in range(n)] != swap:
        return "alpha after beta is not the transposition"
    return None


def check_snf_text(rows, stdout: str) -> str | None:
    blocks, label = {}, None
    for line in stdout.splitlines():
        if line in ("D:", "U:", "V:"):
            label = line[0]
            blocks[label] = []
        elif label:
            blocks[label].append([int(x) for x in line.split()])
    if set(blocks) != {"D", "U", "V"}:
        return "missing D, U or V block"
    return check_snf(rows, blocks["D"], blocks["U"], blocks["V"])


def check_gamma0r_text(r: int, gens, rels, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("group: "):
        return "missing group line"
    group = lines[0][7:]
    factors = () if group == "0" else tuple(
        0 if f == "Z" else int(f[1:]) for f in group.split(" x "))
    images = []
    for name, line in zip(gens, lines[1:]):
        head, _, body = line.partition(": ")
        if head != name:
            return f"image line for {head}, expected {name}"
        images.append(tuple(int(x) for x in body.strip("()").split(", ") if x))
    if len(lines) != len(gens) + 1:
        return "wrong number of image lines"
    return check_abelianization(gens, rels, factors, images, gamma0r_group(r))
