"""The in-process workload, compute: word evaluation, order certification
and abelianization through the package's public functions.

Each operation calls the package's public functions through `call`,
which is either harness.direct (the measured run) or a harness.Tracer
(the traced run).  mcgtorsion is imported inside functions only, so
that importing this module costs nothing that setup_s should count.
The functions have the same names and arguments as those of climix.
"""

from __future__ import annotations

from pathlib import Path

import gen
import harness
import oracle

SYSTEMS = ["torus"] + [f"chain:g={g}" for g in sorted(set(gen.WORD_GENERA + gen.ORDER_GENERA))]

# The setup a fresh interpreter performs before its first operation,
# timed inside it.  Given a presentation text on stdin, it then
# abelianizes it and prints its peak memory.  {src} and {systems} are
# filled in.
SETUP_PROBE = harness.PEAK_KB_SOURCE + """
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import mcgtorsion
from mcgtorsion.homrep import homology_rep
from mcgtorsion.surfaces import builtin_system
for name in {systems!r}:
    homology_rep(builtin_system(name))
print(time.perf_counter() - start)
text = sys.stdin.read()
if text:
    from mcgtorsion.presentations import abelianize, parse_presentation
    abelianize(parse_presentation(text))
    print_peak_kb()
"""


def context(workload: str, src: Path, workdir: Path) -> dict:
    # The largest presentation sets the workload's peak memory.
    largest = gen.gamma0r_op(max(gen.GAMMA_LADDER))["text"]
    return {"probe": SETUP_PROBE.format(src=str(src), systems=SYSTEMS), "systems": {},
            "largest": largest, "probes": 0, "peaks_kb": []}


def close(ctx: dict) -> None:
    """Nothing runs beside this process."""


def sample_setup(ctx: dict) -> dict:
    return {"setup_s": harness.run_probe(ctx)}


def setup(ctx: dict, call) -> None:
    """Builds the curve systems and their homology representations in this process."""
    from mcgtorsion.homrep import homology_rep
    from mcgtorsion.surfaces import builtin_system

    for name in SYSTEMS:
        system = call("surfaces.builtin_system", builtin_system, name)
        ctx["systems"][name] = (system, call("homrep.build", homology_rep, system))


def prepare(ctx: dict, op: dict) -> None:
    """Turns generated rows into the matrix object the program takes (untimed)."""
    if op["kind"] == "dense":
        from mcgtorsion.intlinalg import IntMatrix

        op["matrix"] = IntMatrix.from_rows(op["rows"])


def attempt(ctx: dict, op: dict, call, scratch: dict, deadline: float):
    """(answer, seconds, missed) for one operation under its deadline."""
    return harness.run_with_deadline(lambda: execute(ctx, op, call, scratch), deadline)


def execute(ctx: dict, op: dict, call, scratch: dict):
    from mcgtorsion import homrep, intlinalg, presentations
    from mcgtorsion.words import parse_word

    kind = op["kind"]
    systems = ctx["systems"]
    if kind == "eval":
        system, rep = systems[op["system"]]
        w = scratch["w"] = call("words.parse_word", parse_word, op["word"], system)
        return call("homrep.word_matrix", homrep.word_matrix, w, rep)
    if kind in ("hold", "differ"):
        system, rep = systems[op["system"]]
        u = scratch["u"] = call("words.parse_word", parse_word, op["u"], system)
        v = scratch["v"] = call("words.parse_word", parse_word, op["v"], system)
        return call("homrep.relcheck", homrep.check_relation_homology, u, v, rep)
    if kind in ("periodic", "infinite"):
        system, rep = systems[op["system"]]
        w = scratch["w"] = call("words.parse_word", parse_word, op["word"], system)
        return call("homrep.certify", homrep.certify_periodic_order, w, rep)
    if kind in ("gamma0r", "presentation"):
        p = scratch["p"] = call("presentations.parse", presentations.parse_presentation, op["text"])
        return call("presentations.abelianize", presentations.abelianize, p)
    if kind == "dense":
        m = op["matrix"]
        snf = scratch["snf"] = call("intlinalg.snf", intlinalg.smith_normal_form, m)
        return snf, call("intlinalg.cokernel", intlinalg.cokernel, m)
    raise ValueError(kind)


def _bits(snf) -> int:
    _, u, v = snf
    return max((abs(x).bit_length() for x in u.entries + v.entries), default=0)


def apportion(ctx: dict, op: dict, scratch: dict, tracer: harness.Tracer) -> None:
    """Times the inner public call that an outer one wraps, on the same input."""
    from mcgtorsion import homrep, intlinalg

    kind = op["kind"]
    tracer.counters["words.letters"] += sum(len(scratch[k]) for k in ("w", "u", "v") if k in scratch)
    if kind in ("hold", "differ"):
        rep = ctx["systems"][op["system"]][1]
        for w in (scratch[k] for k in ("u", "v") if k in scratch):
            tracer.inner("homrep.relcheck", "homrep.word_matrix", homrep.word_matrix, w, rep)
    elif kind in ("periodic", "infinite") and "w" in scratch:
        w, rep = scratch["w"], ctx["systems"][op["system"]][1]
        m = tracer.inner("homrep.certify", "homrep.word_matrix", homrep.word_matrix, w, rep)
        if m is not None:
            tracer.inner("homrep.certify", "intlinalg.matrix_order", intlinalg.matrix_order, m)
    elif kind in ("gamma0r", "presentation") and "p" in scratch:
        m = scratch["p"].exponent_matrix()
        snf = tracer.inner("presentations.abelianize", "intlinalg.snf", intlinalg.smith_normal_form, m)
        if snf is not None:
            tracer.maxima["intlinalg.snf.out_bits_max"] = max(
                tracer.maxima["intlinalg.snf.out_bits_max"], _bits(snf))
    elif kind == "dense":
        if "snf" not in scratch and tracer.op_missed:
            # The direct smith_normal_form call itself overran.
            tracer.counters["intlinalg.snf.deadline_missed"] += 1
        if "snf" in scratch:
            tracer.maxima["intlinalg.snf.out_bits_max"] = max(
                tracer.maxima["intlinalg.snf.out_bits_max"], _bits(scratch["snf"]))
            tracer.inner("intlinalg.cokernel", "intlinalg.snf", intlinalg.smith_normal_form, op["matrix"])


def check(op: dict, answer) -> str | None:
    kind = op["kind"]
    if kind == "eval":
        return oracle.check_word_matrix(op["system"], op["tokens"], answer.to_rows())
    if kind in ("hold", "differ"):
        if answer is not op["equal"]:
            return f"relcheck said {answer} for a {op['relation']} pair"
        return None
    if kind in ("periodic", "infinite"):
        return oracle.check_order(op["system"], op["tokens"], answer, op["order"], op.get("witness"))
    if kind in ("gamma0r", "presentation"):
        group, images = answer
        closed = oracle.gamma0r_group(op["r"]) if kind == "gamma0r" else None
        return oracle.check_abelianization(
            op["gens"], op["rels"], group.invariant_factors, images, closed)
    if kind == "dense":
        (d, u, v), group = answer
        rows = d.to_rows()
        err = oracle.check_snf(op["rows"], rows, u.to_rows(), v.to_rows())
        if err:
            return "snf: " + err
        expected = oracle.cokernel_factors(rows, op["n"])
        if group.invariant_factors != expected:
            return f"cokernel {group.invariant_factors}, Smith form gives {expected}"
        return None
    raise ValueError(kind)


def profile(op: dict) -> dict:
    """The input properties of one operation that optimisations depend on."""
    p = {"kind": op["kind"]}
    if "system" in op:
        words = op.get("words") or [op["tokens"]]
        tokens = [k for w in words for _, k in w]
        p.update(genus=gen.genus_of(op["system"]), letters=[gen.letters(w) for w in words],
                 tokens=len(tokens), high=sum(abs(k) >= gen.HIGH_EXPONENT for k in tokens))
        if "equal" in op:
            p["equal"] = op["equal"]
    for key in ("r", "n", "length"):
        if key in op:
            p[key] = op[key]
    if op["kind"] == "dense":
        p["nonzero"] = sum(x != 0 for row in op["rows"] for x in row)
    return p


def input_properties(profiles: list[dict]) -> dict:
    """Summary of the profiles of every operation run."""
    out: dict = {"ops": len(profiles)}
    words = [p for p in profiles if "letters" in p]
    if words:
        lengths = [n for p in words for n in p["letters"]]
        rel = [p["equal"] for p in words if "equal" in p]
        # Exponent shares over the word_eval operations, periodic share
        # over the order_certify ones.
        evals = [p for p in words if p["kind"] in ("eval", "hold", "differ")]
        orders = [p for p in words if p["kind"] in ("periodic", "infinite")]
        out.update(
            words=len(lengths),
            letters_mean=sum(lengths) / len(lengths),
            letters_max=max(lengths),
            tokens=sum(p["tokens"] for p in words),
            high_exponent_token_share=sum(p["high"] for p in evals)
            / max(sum(p["tokens"] for p in evals), 1),
            genus_counts=_count(p["genus"] for p in words),
            periodic_share=sum(p["kind"] == "periodic" for p in orders) / max(len(orders), 1),
        )
        if rel:
            out["relcheck_equal_share"] = sum(rel) / len(rel)
    dense = [p for p in profiles if p["kind"] == "dense"]
    pres = [p for p in profiles if p["kind"] == "presentation"]
    if dense or pres:
        out.update(
            gamma0r_r=_count(p["r"] for p in profiles if p["kind"] == "gamma0r"),
            presentation_generators=_count(p["n"] for p in pres),
            presentation_relator_length=_count(p["length"] for p in pres),
            dense_sizes=_count(p["n"] for p in dense),
            dense_nonzero_share=sum(p["nonzero"] for p in dense)
            / max(sum(p["n"] ** 2 for p in dense), 1),
        )
    return out


def _count(values) -> dict:
    out: dict = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return dict(sorted(out.items(), key=lambda kv: int(kv[0])))
