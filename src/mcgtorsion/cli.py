"""Command-line front end.

One subcommand per computation family: word evaluation and order
certification on homology, relation checking, abelianization, Smith
normal form, cyclic-symmetry admissibility and census, free-quotient
and fixed-point arithmetic, transposition decomposition, braid
utilities, and the torsion-generation verdict with its cross-check
grid.  All output is plain text and byte-identical across runs; exit
codes are 0 for success, 1 for domain errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .actions import (
    builtin_spec,
    free_quotient_genus,
    realizable_boundary_count,
    transposition_as_two_involutions,
    z3_fixed_point_profiles,
)
from .braids import braid_permutation, braid_to_genus2_word, parse_braid
from .errors import ParseError, parse_int, resolve_address
from .homrep import (
    certify_periodic_order,
    check_relation_homology,
    homology_rep,
    word_matrix,
)
from .intlinalg import parse_matrix_text, smith_normal_form
from .presentations import (
    abelianize,
    gamma_0r_presentation,
    parse_presentation,
)
from .surfaces import builtin_system
from .theorem import CrossCheckError, cross_check, torsion_generation_verdict
from .words import parse_word


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _word_texts(args: argparse.Namespace) -> list[str]:
    if args.word is not None:
        return [args.word]
    lines = _read_text(args.word_file).splitlines()
    return [line for line in (raw.strip() for raw in lines) if line]


def _cmd_eval(args: argparse.Namespace) -> int:
    system = builtin_system(args.system)
    rep = homology_rep(system)
    for position, text in enumerate(_word_texts(args)):
        if position:
            print()
        m = word_matrix(parse_word(text, system), rep)
        if m.rows:
            print(m)
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    system = builtin_system(args.system)
    if args.assert_periodic and system.surface.genus == 0:
        raise ValueError(
            f"system {args.system!r} has genus 0: its homology is trivial, "
            "so no order can be certified"
        )
    rep = homology_rep(system)
    for text in _word_texts(args):
        value = certify_periodic_order(parse_word(text, system), rep)
        if value is None:
            print("infinite (not a periodic class)")
        elif args.assert_periodic:
            print(f"{value} (certified)")
        else:
            print(f"{value} (divisor bound)")
    return 0


def _cmd_relcheck(args: argparse.Namespace) -> int:
    system = builtin_system(args.system)
    rep = homology_rep(system)
    u = parse_word(args.u, system)
    v = parse_word(args.v, system)
    print("equal" if check_relation_homology(u, v, rep) else "distinct")
    return 0


def _cmd_abelianize(args: argparse.Namespace) -> int:
    if (args.file is None) == (args.builtin is None):
        args.parser.error("give either a presentation file or --builtin")
    if args.builtin is not None:
        presentation = resolve_address(
            "presentation", args.builtin, {"gamma0r:r": gamma_0r_presentation}
        )
    else:
        presentation = parse_presentation(_read_text(args.file))
    group, images = abelianize(presentation)
    print(f"group: {group}")
    for name, image in zip(presentation.generators, images):
        print(f"{name}: ({', '.join(str(c) for c in image)})")
    return 0


def _cmd_snf(args: argparse.Namespace) -> int:
    m = parse_matrix_text(_read_text(args.file))
    d, u, v = smith_normal_form(m)
    for label, matrix in (("D", d), ("U", u), ("V", v)):
        print(f"{label}:")
        if matrix.rows:
            print(matrix)
    return 0


def _cmd_admissible(args: argparse.Namespace) -> int:
    spec = builtin_spec(args.spec)
    ok = realizable_boundary_count(spec, args.r)
    print("admissible" if ok else "not admissible")
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    head, sep, tail = text.partition("..")
    if not sep:
        raise ParseError(f"range {text!r}: expected A..B")
    try:
        lo, hi = parse_int(head), parse_int(tail)
    except ParseError:
        raise ParseError(f"range {text!r}: bounds must be integers") from None
    if lo > hi:
        raise ParseError(f"range {text!r}: lower bound exceeds upper bound")
    return lo, hi


def _cmd_census(args: argparse.Namespace) -> int:
    spec = builtin_spec(args.spec)
    lo, hi = _parse_range(args.r)
    for r in range(lo, hi + 1):
        ok = realizable_boundary_count(spec, r)
        print(f"{r} {'yes' if ok else 'no'}")
    return 0


def _cmd_free_quotient(args: argparse.Namespace) -> int:
    quotient = free_quotient_genus(args.g, args.n, args.b)
    print("none" if quotient is None else str(quotient))
    return 0


def _cmd_z3_profiles(args: argparse.Namespace) -> int:
    for quotient, fixed in z3_fixed_point_profiles(args.g):
        print(f"{quotient} {fixed}")
    return 0


def _cmd_decompose_transposition(args: argparse.Namespace) -> int:
    alpha, beta = transposition_as_two_involutions(args.n, args.i, args.j)
    print(f"alpha: {alpha}")
    print(f"beta: {beta}")
    return 0


def _cmd_braid_perm(args: argparse.Namespace) -> int:
    print(braid_permutation(parse_braid(args.word, args.strands)))
    return 0


def _cmd_braid_lift(args: argparse.Namespace) -> int:
    print(braid_to_genus2_word(parse_braid(args.word, 6)))
    return 0


def _cmd_theorem(args: argparse.Namespace) -> int:
    if args.grid is not None:
        if args.g is not None or args.r is not None:
            args.parser.error("--grid excludes --g and --r")
        if not args.check:
            args.parser.error("--grid requires --check")
        gmax, rmax = args.grid
        failed = False
        for g in range(1, gmax + 1):
            for r in range(rmax + 1):
                try:
                    report = cross_check(g, r)
                    print(f"g={g} r={r} index={report.index} ok")
                except CrossCheckError as exc:
                    print(f"g={g} r={r} FAIL: {exc}")
                    failed = True
                except ValueError as exc:
                    print(f"g={g} r={r} SKIP: {exc}")
                    failed = True
        return 1 if failed else 0
    if args.check:
        args.parser.error("--check requires --grid")
    if args.g is None or args.r is None:
        args.parser.error("--g and --r are required without --grid")
    verdict = torsion_generation_verdict(args.g, args.r)
    if verdict.generated_by_torsion:
        orders = ", ".join(str(o) for o in sorted(verdict.generator_orders))
        print(f"generated by torsion; orders {{{orders}}}")
    else:
        print(f"not generated by torsion; index {verdict.torsion_subgroup_index}")
    return 0


def _grid_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected gmax,rmax, got {text!r}")
    try:
        gmax, rmax = parse_int(parts[0]), parse_int(parts[1])
    except ParseError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None
    if gmax < 1 or rmax < 0:
        raise argparse.ArgumentTypeError(f"expected gmax >= 1 and rmax >= 0, got {text!r}")
    return gmax, rmax


def _int_option(text: str) -> int:
    try:
        return parse_int(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_word_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--word", help='twist word, e.g. "C1 C2 C3 C4"')
    source.add_argument("--word-file", help="file with one word per line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgtorsion",
        description="Exact torsion arithmetic for mapping class groups.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("eval", help="evaluate a twist word on first homology")
    p.add_argument("--system", required=True, help="torus, chain:g=G, or planar:r=R")
    _add_word_source(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("order", help="order of a word's homology matrix")
    p.add_argument("--system", required=True, help="torus, chain:g=G, or planar:r=R")
    _add_word_source(p)
    p.add_argument(
        "--assert-periodic",
        action="store_true",
        help="caller asserts the word is a periodic class, making the order exact",
    )
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("relcheck", help="compare two words on homology")
    p.add_argument("--system", required=True, help="torus, chain:g=G, or planar:r=R")
    p.add_argument("--u", required=True, help="first word")
    p.add_argument("--v", required=True, help="second word")
    p.set_defaults(handler=_cmd_relcheck)

    p = sub.add_parser("abelianize", help="abelianize a group presentation")
    p.add_argument("file", nargs="?", help="presentation file (gens:/rel: lines)")
    p.add_argument("--builtin", help="built-in presentation, e.g. gamma0r:r=6")
    p.set_defaults(handler=_cmd_abelianize)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("file", help='matrix file: first line "rows cols", then rows')
    p.set_defaults(handler=_cmd_snf)

    p = sub.add_parser("admissible", help="can a symmetry live with r boundary circles")
    p.add_argument("--spec", required=True, help="tau4, tau5, tau6, tau2:g=G, tau3:g=G")
    p.add_argument("--r", required=True, type=_int_option, help="boundary count")
    p.set_defaults(handler=_cmd_admissible)

    p = sub.add_parser("census", help="admissibility table over a range of r")
    p.add_argument("--spec", required=True, help="tau4, tau5, tau6, tau2:g=G, tau3:g=G")
    p.add_argument("--r", required=True, help="range, e.g. 0..30")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("free-quotient", help="quotient genus of a free symmetry")
    p.add_argument("--g", required=True, type=_int_option, help="genus")
    p.add_argument("--n", required=True, type=_int_option, help="symmetry order")
    p.add_argument("--b", required=True, type=_int_option, help="boundary count")
    p.set_defaults(handler=_cmd_free_quotient)

    p = sub.add_parser("z3-profiles", help="order-3 fixed point profiles")
    p.add_argument("--g", required=True, type=_int_option, help="genus")
    p.set_defaults(handler=_cmd_z3_profiles)

    p = sub.add_parser(
        "decompose-transposition",
        help="write a transposition as two involutions",
    )
    p.add_argument("--n", required=True, type=_int_option, help="number of points")
    p.add_argument("--i", required=True, type=_int_option, help="first swapped point")
    p.add_argument("--j", required=True, type=_int_option, help="second swapped point")
    p.set_defaults(handler=_cmd_decompose_transposition)

    p = sub.add_parser("braid-perm", help="permutation image of a braid word")
    p.add_argument("--strands", required=True, type=_int_option, help="strand count")
    p.add_argument("--word", required=True, help='braid word, e.g. "s1 s2^-1"')
    p.set_defaults(handler=_cmd_braid_perm)

    p = sub.add_parser("braid-lift", help="lift a six-strand braid word to genus 2")
    p.add_argument("--word", required=True, help='braid word, e.g. "s1 s2^-1"')
    p.set_defaults(handler=_cmd_braid_lift)

    p = sub.add_parser("theorem", help="torsion-generation verdict and cross-check")
    p.add_argument("--g", type=_int_option, help="genus")
    p.add_argument("--r", type=_int_option, help="boundary count")
    p.add_argument(
        "--grid",
        type=_grid_pair,
        metavar="GMAX,RMAX",
        help="run over genus 1..GMAX, boundary 0..RMAX",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-check the verdict through homology (with --grid)",
    )
    p.set_defaults(handler=_cmd_theorem)

    for subparser in sub.choices.values():
        subparser.set_defaults(parser=subparser)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
