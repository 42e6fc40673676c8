"""Seeded input generation for the benchmark workloads.

Everything here is plain Python with no import of mcgtorsion: the
program under test only ever sees the texts and matrices built here.
The same (workload, seed) pair always yields byte-identical inputs,
because every random choice comes from one random.Random seeded with a
string (string seeds are hashed with SHA-512, independent of
PYTHONHASHSEED).

Each workload is a sequence of blocks.  Every block has the same shape
(which systems, sizes and constructions appear in it); the seed decides
only the contents.  Runs on different seeds, and runs that complete
different numbers of blocks, therefore do the same mix of work, which
keeps run-to-run spread low, while no two seeds share an input.

Every generated operation carries the answer its construction implies,
so the oracles can check the program without reusing its code.
"""

from __future__ import annotations

import functools
import random

import oracle

# Word lengths in letters (exponents expanded) for word_eval.
WORD_LADDER = (20, 40, 80, 160, 320, 640, 1000)
WORD_GENERA = tuple(range(1, 9))
ORDER_GENERA = tuple(range(1, 11))
GAMMA_LADDER = tuple(range(4, 41, 3))
CONJUGATOR_LETTERS = 3
PRES_GENS = tuple(range(6, 17))
DENSE_SIZES = tuple(range(3, 9))
HIGH_EXPONENT = 8
# Random presentations and dense matrices per abelianize sub-block, so
# that Smith forms take a share of the busy time near that of word
# evaluation and of order certification.
ABELIANIZE_REPEATS = 3


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"mcgtorsion-bench:{workload}:{seed}")


# ----------------------------------------------------------------------
# Words as token lists: [(curve name, exponent), ...]


def curve_names(system: str) -> list[str]:
    if system == "torus":
        return ["A", "B"]
    g = int(system.split("=")[1])
    return [f"C{i}" for i in range(1, 2 * g + 2)]


def genus_of(system: str) -> int:
    return 1 if system == "torus" else int(system.split("=")[1])


def word_text(tokens) -> str:
    return " ".join(name if k == 1 else f"{name}^{k}" for name, k in tokens)


def inverse_tokens(tokens):
    return [(name, -k) for name, k in reversed(tokens)]


def letters(tokens) -> int:
    return sum(abs(k) for _, k in tokens)


def random_tokens(rng: random.Random, names: list[str], count: int, high: bool = True):
    """Tokens with exactly `count` letters.

    The exponent sizes follow a fixed cycle: with `high`, every fourth
    token has a size of HIGH_EXPONENT to 16 and the others 1 to 3;
    without, all have 1 to 3.  So the number of tokens and the share of
    high exponents depend on `count` alone, and with them most of the
    cost of evaluating the word; the seed picks the order of the sizes,
    the signs and the curves.  Consecutive tokens use different curves.
    """
    sizes: list[int] = []
    while sum(sizes) < count:
        i = len(sizes)
        if high and i % 4 == 3:
            sizes.append(HIGH_EXPONENT + i // 4 % (17 - HIGH_EXPONENT))
        else:
            sizes.append(1 + i % 3)
    sizes[-1] -= sum(sizes) - count
    rng.shuffle(sizes)
    out = []
    prev = None
    for size in sizes:
        name = rng.choice([n for n in names if n != prev])
        out.append((name, size if rng.random() < 0.5 else -size))
        prev = name
    return out


# ----------------------------------------------------------------------
# word_eval


def _relation_pair(rng, names, length, kind):
    """(u, v, equal) token lists built so the verdict is known."""
    adjacent = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    if kind == "braid":
        a, b = rng.choice(adjacent)
        x = random_tokens(rng, names, (length - 3) // 2)
        y = random_tokens(rng, names, length - 3 - letters(x))
        return x + [(a, 1), (b, 1), (a, 1)] + y, x + [(b, 1), (a, 1), (b, 1)] + y, True
    if kind == "commute":
        i = rng.randrange(len(names) - 2)
        j = rng.randrange(i + 2, len(names))
        p, q = rng.choice([1, -1]) * rng.randint(1, 3), rng.choice([1, -1]) * rng.randint(1, 3)
        mid = (length - abs(p) - abs(q)) // 2
        x = random_tokens(rng, names, mid)
        y = random_tokens(rng, names, max(length - abs(p) - abs(q) - mid, 1))
        return (x + [(names[i], p), (names[j], q)] + y,
                x + [(names[j], q), (names[i], p)] + y, True)
    if kind == "inverse":
        w = random_tokens(rng, names, length // 2)
        return w + inverse_tokens(w), [], True
    if kind == "conjugate":
        k = rng.choice([2, 3])
        x = random_tokens(rng, names, max(length // (4 * k), 1))
        w = random_tokens(rng, names, max(length // (2 * k), 1))
        return x + w * k + inverse_tokens(x), (x + w + inverse_tokens(x)) * k, True
    if kind == "exponent":
        name = rng.choice(names)
        a = rng.choice([1, -1]) * rng.randint(1, 3)
        delta = rng.choice([d for d in (-2, -1, 1, 2) if a + d != 0])
        x = random_tokens(rng, names, (length - 3) // 2)
        y = random_tokens(rng, names, length - 3 - letters(x))
        return x + [(name, a)] + y, x + [(name, a + delta)] + y, False
    if kind == "swap":
        a, b = rng.choice(adjacent)
        x = random_tokens(rng, names, (length - 2) // 2)
        y = random_tokens(rng, names, length - 2 - letters(x))
        return x + [(a, 1), (b, 1)] + y, x + [(b, 1), (a, 1)] + y, False
    raise ValueError(kind)


HOLD_KINDS = ("braid", "commute", "inverse", "conjugate")
DIFFER_KINDS = ("exponent", "swap")


def word_eval_block(rng: random.Random) -> list[dict]:
    """Per system: one evaluation, one pair that holds, one that differs.
    Lengths cycle through the ladder across systems and kinds."""
    ops = []
    systems = ["torus"] + [f"chain:g={g}" for g in WORD_GENERA]
    for si, system in enumerate(systems):
        names = curve_names(system)
        for ki, kind in enumerate(("eval", "hold", "differ")):
            length = WORD_LADDER[(si + 3 * ki) % len(WORD_LADDER)]
            op = {"kind": kind, "system": system}
            if kind == "eval":
                tokens = random_tokens(rng, names, length)
                op.update(word=word_text(tokens), tokens=tokens)
            else:
                kinds = HOLD_KINDS if kind == "hold" else DIFFER_KINDS
                rel = kinds[si % len(kinds)]
                u, v, equal = _relation_pair(rng, names, length, rel)
                op.update(u=word_text(u), v=word_text(v), words=[u, v], relation=rel, equal=equal)
            ops.append(op)
    return ops


# ----------------------------------------------------------------------
# order_certify


def periodic_core(system: str, variant: int):
    """(tokens, order) of a periodic word whose order is known in theory."""
    if system == "torus":
        return [([("A", 1), ("B", 1)], 6), ([("A", 1), ("B", 1), ("A", 1)], 4),
                ([("B", 1), ("A", 1)], 6)][variant]
    g = genus_of(system)
    chain = [(f"C{i}", 1) for i in range(1, 2 * g + 1)]
    full = chain + [(f"C{2 * g + 1}", 1)]
    if variant == 0:
        return chain, 4 * g + 2
    if variant == 1:
        return full, 2 * g + 2
    # The hyperelliptic involution C1 ... C_{2g+1} C_{2g+1} ... C1.
    return full + list(reversed(full)), 2


def _infinite_word(rng, system, variant):
    """Tokens of an infinite-order word and the witness that proves it."""
    names = curve_names(system)
    n = 2 * genus_of(system)
    while True:
        if variant == 0 or system == "torus" and variant == 1:
            tokens = [(rng.choice(names), rng.choice([1, -1]) * rng.randint(1, 5))]
            witness = "unipotent"
        elif variant == 1:
            # Odd-numbered chain curves are pairwise disjoint.
            odd = names[0::2]
            picked = rng.sample(odd, rng.randint(2, min(len(odd), 4)))
            tokens = [(c, rng.choice([1, -1]) * rng.randint(1, 3)) for c in picked]
            witness = "unipotent"
        else:
            tokens = random_tokens(rng, names, rng.randint(4, 9), high=False)
            witness = "trace"
        m = oracle.word_matrix(system, tokens)
        if witness == "unipotent" and oracle.is_unipotent_nonidentity(m):
            return tokens, witness
        if witness == "trace" and abs(oracle.trace(m)) > n:
            return tokens, witness


def order_certify_block(rng: random.Random) -> list[dict]:
    """Per system: the three periodic constructions, each conjugated by a
    random word of CONJUGATOR_LETTERS letters, and the three
    infinite-order constructions."""
    ops = []
    systems = ["torus"] + [f"chain:g={g}" for g in ORDER_GENERA]
    for system in systems:
        names = curve_names(system)
        for variant in range(3):
            core, order = periodic_core(system, variant)
            u = random_tokens(rng, names, CONJUGATOR_LETTERS, high=False)
            tokens = u + core + inverse_tokens(u)
            ops.append({"kind": "periodic", "system": system, "word": word_text(tokens),
                        "tokens": tokens, "order": order})
            tokens, witness = _infinite_word(rng, system, variant)
            ops.append({"kind": "infinite", "system": system, "word": word_text(tokens),
                        "tokens": tokens, "order": None, "witness": witness})
    return ops


# ----------------------------------------------------------------------
# abelianize


def gamma0r_relators(r: int):
    """Relators of the marked-sphere presentation on A1..A_{r-1}, as tokens."""
    a = [f"A{i}" for i in range(r)]
    rels = []
    for i in range(1, r - 1):
        for j in range(i + 2, r):
            rels.append([(a[i], 1), (a[j], 1), (a[i], -1), (a[j], -1)])
    for i in range(1, r - 1):
        rels.append([(a[i], 1), (a[i + 1], 1), (a[i], 1),
                     (a[i + 1], -1), (a[i], -1), (a[i + 1], -1)])
    rels.append([(a[i], 1) for i in range(1, r - 1)] + [(a[r - 1], 2)]
                + [(a[i], 1) for i in range(r - 2, 0, -1)])
    rels.append([(a[i], 1) for i in range(1, r)] * r)
    return a[1:], rels


def presentation_text(gens, rels) -> str:
    lines = ["gens: " + " ".join(gens)]
    lines += ["rel: " + word_text(rel) for rel in rels]
    return "\n".join(lines) + "\n"


def relator_length(n_gens: int) -> int:
    # Lengths rise with the generator count; from 14 generators on the
    # relators have 12 letters, the size at which the seed SNF blows up.
    return 12 if n_gens >= 14 else 4 + (n_gens - 6) // 2


def gamma0r_op(r: int) -> dict:
    gens, rels = gamma0r_relators(r)
    return {"kind": "gamma0r", "r": r, "text": presentation_text(gens, rels),
            "gens": gens, "rels": rels}


def abelianize_block(rng: random.Random) -> list[dict]:
    """The gamma0r ladder (r = 4, 7, ..., 40, the same in every block, so
    that every run reaches the same peak memory), then ABELIANIZE_REPEATS
    times one random presentation per generator count and one dense
    matrix per size."""
    ops = [gamma0r_op(r) for r in GAMMA_LADDER]
    for _ in range(ABELIANIZE_REPEATS):
        ops += _random_abelianize_ops(rng)
    return ops


def _random_abelianize_ops(rng: random.Random) -> list[dict]:
    ops = []
    for n in PRES_GENS:
        gens = [f"X{i}" for i in range(1, n + 1)]
        length = relator_length(n)
        rels = [[(rng.choice(gens), rng.choice([1, -1])) for _ in range(length)]
                for _ in range(n + n // 2)]
        ops.append({"kind": "presentation", "n": n, "length": length,
                    "text": presentation_text(gens, rels), "gens": gens, "rels": rels})
    for n in DENSE_SIZES:
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        ops.append({"kind": "dense", "n": n, "rows": rows})
    return ops


def compute_block(rng: random.Random) -> list[dict]:
    """The word_eval, order_certify and abelianize sub-blocks, in that order."""
    return word_eval_block(rng) + order_certify_block(rng) + abelianize_block(rng)


BLOCKS = {"compute": compute_block}


def blocks(workload: str, seed: int):
    """The workload's blocks for a seed, generated lazily and endlessly."""
    rng = rng_for(workload, seed)
    while True:
        yield BLOCKS[workload](rng)


# ----------------------------------------------------------------------
# cli_mix: argv lists for mcgtorsion.cli.main with their checks

# The README examples, with the output the README prints for them.
README_EXAMPLES = [
    (["eval", "--system", "chain:g=2", "--word", "C1 C2 C3 C4"],
     "0 1 0 0\n0 0 1 0\n0 0 0 1\n-1 1 -1 1\n"),
    (["order", "--system", "torus", "--word", "A B", "--assert-periodic"], "6 (certified)\n"),
    (["relcheck", "--system", "torus", "--u", "A B A", "--v", "B A B"], "equal\n"),
    (["admissible", "--spec", "tau5", "--r", "9"], "not admissible\n"),
    (["census", "--spec", "tau5", "--r", "0..6"], "0 yes\n1 yes\n2 yes\n3 yes\n4 no\n5 yes\n6 yes\n"),
    (["free-quotient", "--g", "2", "--n", "5", "--b", "4"], "none\n"),
    (["z3-profiles", "--g", "5"], "0 7\n1 4\n2 1\n"),
    (["decompose-transposition", "--n", "5", "--i", "1", "--j", "2"],
     "alpha: (1 2)(3 4)\nbeta: (3 4)\n"),
    (["braid-perm", "--strands", "6", "--word",
      "s5 s4 s5 s3 s4 s5 s2 s3 s4 s5 s1 s2 s3 s4 s5"], "(1 6)(2 5)(3 4)\n"),
    (["braid-lift", "--word", "s1 s2 s3 s4"], "C1 C2 C3 C4\n"),
    (["theorem", "--g", "2", "--r", "9"], "not generated by torsion; index 5\n"),
    (["theorem", "--g", "2", "--r", "8"], "generated by torsion; orders {2, 5}\n"),
    (["theorem", "--grid", "2,9", "--check"], oracle.theorem_grid_text(2, 9)),
]

SPECS = ("tau4", "tau5", "tau6", "tau2", "tau3")
# The largest commands, and so the slowest expected texts, are the same
# in every block.
_grid_text = functools.lru_cache(maxsize=None)(oracle.theorem_grid_text)
_census_text = functools.lru_cache(maxsize=None)(oracle.census_text)


def _spec(rng) -> str:
    head = rng.choice(SPECS)
    return f"{head}:g={rng.randint(1, 40)}" if head in ("tau2", "tau3") else head


def _braid_letters(rng, strands, count):
    return [(rng.randint(1, strands - 1), rng.choice([1, -1])) for _ in range(count)]


def _braid_text(letters) -> str:
    return " ".join(f"s{i}" if s == 1 else f"s{i}^-1" for i, s in letters)


def cli_mix_block(rng: random.Random) -> list[dict]:
    """One command per entry.  An entry has the argv of mcgtorsion.cli.main,
    the expected stdout or a ("check", ...) tuple, and files to write first."""
    ops = [{"argv": argv, "expect": out} for argv, out in README_EXAMPLES]
    gens, rels = gamma0r_relators(6)
    ops.append({"argv": ["abelianize", "--builtin", "gamma0r:r=6"],
                "check": ("gamma0r", 6, gens, rels)})

    # The largest inputs of the mix and their neighbours, in every block:
    # 8 of the 36 commands, so the p90 tail falls in the middle of this
    # group rather than on its edge.
    for top in (40, 39):
        ops.append({"argv": ["theorem", "--grid", f"2,{360 + top}", "--check"],
                    "expect": _grid_text(2, 360 + top)})
        for spec in (f"tau2:g={top}", f"tau3:g={top}"):
            ops.append({"argv": ["census", "--spec", spec, "--r", "0..2000"],
                        "expect": _census_text(spec, 0, 2000)})
        gens, rels = gamma0r_relators(top)
        ops.append({"argv": ["abelianize", "--builtin", f"gamma0r:r={top}"],
                    "check": ("gamma0r", top, gens, rels)})
    gmax, rmax = rng.randint(1, 2), rng.randint(10, 60)
    ops.append({"argv": ["theorem", "--grid", f"{gmax},{rmax}", "--check"],
                "expect": _grid_text(gmax, rmax)})
    g, r = rng.randint(1, 6), rng.randint(0, 60)
    ops.append({"argv": ["theorem", "--g", str(g), "--r", str(r)],
                "expect": oracle.theorem_text(g, r)})

    spec, start = _spec(rng), rng.randint(0, 100)
    ops.append({"argv": ["census", "--spec", spec, "--r", f"{start}..{start + 30}"],
                "expect": _census_text(spec, start, start + 30)})
    spec, r = _spec(rng), rng.randint(0, 200)
    ops.append({"argv": ["admissible", "--spec", spec, "--r", str(r)],
                "expect": "admissible\n" if oracle.admissible(spec, r) else "not admissible\n"})

    g, n, bnd = rng.randint(0, 20), rng.randint(2, 12), rng.randint(0, 20)
    ops.append({"argv": ["free-quotient", "--g", str(g), "--n", str(n), "--b", str(bnd)],
                "expect": oracle.free_quotient_text(g, n, bnd)})
    g = rng.randint(0, 60)
    ops.append({"argv": ["z3-profiles", "--g", str(g)], "expect": oracle.z3_profiles_text(g)})
    n = rng.randint(2, 30)
    i, j = rng.sample(range(1, n + 1), 2)
    ops.append({"argv": ["decompose-transposition", "--n", str(n), "--i", str(i), "--j", str(j)],
                "check": ("transposition", n, i, j)})

    strands = rng.randint(2, 12)
    letters_ = _braid_letters(rng, strands, rng.randint(5, 40))
    ops.append({"argv": ["braid-perm", "--strands", str(strands), "--word", _braid_text(letters_)],
                "expect": oracle.braid_perm_text(strands, letters_)})
    letters_ = _braid_letters(rng, 6, rng.randint(3, 20))
    ops.append({"argv": ["braid-lift", "--word", _braid_text(letters_)],
                "expect": oracle.braid_lift_text(letters_)})

    system = f"chain:g={rng.randint(1, 4)}"
    core, order = periodic_core(system, rng.randrange(3))
    u = random_tokens(rng, curve_names(system), 2, high=False)
    tokens = u + core + inverse_tokens(u)
    ops.append({"argv": ["eval", "--system", system, "--word", word_text(tokens)],
                "expect": oracle.matrix_text(oracle.word_matrix(system, tokens))})
    ops.append({"argv": ["order", "--system", system, "--word", word_text(tokens),
                         "--assert-periodic"], "expect": f"{order} (certified)\n"})
    system = f"chain:g={rng.randint(1, 3)}"
    u, v, equal = _relation_pair(rng, curve_names(system), rng.randint(10, 40),
                                 rng.choice(("braid", "swap")))
    ops.append({"argv": ["relcheck", "--system", system, "--u", word_text(u), "--v", word_text(v)],
                "expect": "equal\n" if equal else "distinct\n"})

    r = rng.randint(4, 30)
    gens, rels = gamma0r_relators(r)
    ops.append({"argv": ["abelianize", "--builtin", f"gamma0r:r={r}"],
                "check": ("gamma0r", r, gens, rels)})
    rows_, cols_ = rng.randint(2, 5), rng.randint(2, 5)
    matrix = [[rng.randint(-9, 9) for _ in range(cols_)] for _ in range(rows_)]
    name = f"m{rng.randrange(10**9)}.txt"
    ops.append({"argv": ["snf", name], "check": ("snf", matrix),
                "files": {name: f"{rows_} {cols_}\n" + oracle.matrix_text(matrix)}})
    return ops


BLOCKS["cli_mix"] = cli_mix_block
