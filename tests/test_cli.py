"""Tests for the command-line front end: golden outputs and exit codes."""

import subprocess
import sys

import pytest

from mcgtorsion.cli import main
from mcgtorsion.intlinalg import IntMatrix, parse_matrix_text

CHAIN_MATRIX_TEXT = "0 1 0 0\n0 0 1 0\n0 0 0 1\n-1 1 -1 1\n"
STAIRCASE_BRAID = "s5 s4 s5 s3 s4 s5 s2 s3 s4 s5 s1 s2 s3 s4 s5"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    capsys.readouterr()
    return info.value.code


class TestEval:
    def test_chain_staircase_matrix(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--system", "chain:g=2", "--word", "C1 C2 C3 C4"
        )
        assert code == 0
        assert out == CHAIN_MATRIX_TEXT
        assert err == ""

    def test_empty_word_gives_identity(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--system", "torus", "--word", "")
        assert code == 0
        assert out == "1 0\n0 1\n"

    def test_word_file_batches(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("A\n\nB\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "eval", "--system", "torus", "--word-file", str(path)
        )
        assert code == 0
        assert out == "1 0\n-1 1\n\n1 1\n0 1\n"

    def test_unknown_curve_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--system", "chain:g=2", "--word", "C9"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: letter 1: unknown curve 'C9'")

    def test_word_and_file_conflict_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("A\n", encoding="utf-8")
        code = run_cli_usage_error(
            capsys,
            "eval",
            "--system",
            "torus",
            "--word",
            "A",
            "--word-file",
            str(path),
        )
        assert code == 2

    def test_genus_forty_matches_dense_transvections(self, capsys):
        # T_c acts on row vectors by x -> x + s <x, c> c with <x, c> = x J c^T;
        # the word C1 C81^-1 is M(C81^-1) * M(C1).  C81 is the chain
        # closure -(e_1 + e_3 + ... + e_79).
        n = 80
        form = [[(j == i + 1) - (i == j + 1) for j in range(n)] for i in range(n)]

        def transvection(cls, sign):
            jc = [sum(form[i][k] * cls[k] for k in range(n)) for i in range(n)]
            return [[(i == j) + sign * jc[i] * cls[j] for j in range(n)] for i in range(n)]

        def product(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

        c1 = [int(j == 0) for j in range(n)]
        c81 = [-(j % 2 == 0) for j in range(n)]
        expected = product(transvection(c81, -1), transvection(c1, 1))
        code, out, err = run_cli(
            capsys, "eval", "--system", "chain:g=40", "--word", "C1 C81^-1"
        )
        assert (code, err) == (0, "")
        assert out == "".join(" ".join(map(str, row)) + "\n" for row in expected)


class TestOrder:
    def test_certified(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "order",
            "--system",
            "torus",
            "--word",
            "A B",
            "--assert-periodic",
        )
        assert code == 0
        assert out == "6 (certified)\n"

    def test_divisor_bound_without_assertion(self, capsys):
        code, out, _ = run_cli(
            capsys, "order", "--system", "chain:g=2", "--word", "C1 C2 C3 C4"
        )
        assert code == 0
        assert out == "10 (divisor bound)\n"

    def test_infinite(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--system", "torus", "--word", "A")
        assert code == 0
        assert out == "infinite (not a periodic class)\n"

    def test_genus_zero_certificate_refused(self, capsys):
        # The word cycles the five boundary circles, so its order is 5,
        # but the capped sphere has trivial homology.
        argv = ("order", "--system", "planar:r=5", "--word", "A1 A2 A3 A4")
        code, out, err = run_cli(capsys, *argv, "--assert-periodic")
        assert (code, out) == (1, "")
        assert err.startswith("error: system 'planar:r=5' has genus 0")
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, "1 (divisor bound)\n")


class TestRelcheck:
    def test_braid_relation_on_torus(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "relcheck",
            "--system",
            "torus",
            "--u",
            "A B A",
            "--v",
            "B A B",
        )
        assert code == 0
        assert out == "equal\n"

    def test_distinct(self, capsys):
        code, out, _ = run_cli(
            capsys, "relcheck", "--system", "torus", "--u", "A", "--v", "B"
        )
        assert code == 0
        assert out == "distinct\n"

    def test_involution_square_against_empty_word(self, capsys):
        word = "C5 C4 C5 C3 C4 C5 C2 C3 C4 C1 C2 C3 C1 C2 C1"
        code, out, _ = run_cli(
            capsys,
            "relcheck",
            "--system",
            "chain:g=2",
            "--u",
            f"{word} {word}",
            "--v",
            "",
        )
        assert code == 0
        assert out == "equal\n"


class TestAbelianize:
    def test_builtin_six_points(self, capsys):
        code, out, _ = run_cli(capsys, "abelianize", "--builtin", "gamma0r:r=6")
        assert code == 0
        assert out == (
            "group: Z10\nA1: (1)\nA2: (1)\nA3: (1)\nA4: (1)\nA5: (1)\n"
        )

    def test_presentation_file(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("gens: x y\nrel: x^2\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "abelianize", str(path))
        assert code == 0
        assert out == "group: Z2 x Z\nx: (1, 0)\ny: (0, 1)\n"

    def test_unknown_builtin_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "abelianize", "--builtin", "gamma1r:r=6")
        assert code == 1
        assert "unknown presentation" in err

    def test_no_source_is_usage_error(self, capsys):
        assert run_cli_usage_error(capsys, "abelianize") == 2

    def test_two_sources_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("gens: x\n", encoding="utf-8")
        code = run_cli_usage_error(
            capsys, "abelianize", str(path), "--builtin", "gamma0r:r=4"
        )
        assert code == 2


class TestSnf:
    def test_output_satisfies_postconditions(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 3\n1 2 3\n4 5 6\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "snf", str(path))
        assert code == 0
        sections = {}
        current = None
        for line in out.splitlines():
            if line.endswith(":"):
                current = line[:-1]
                sections[current] = []
            else:
                sections[current].append(line)
        assert list(sections) == ["D", "U", "V"]

        def matrix_of(label, rows, cols):
            text = f"{rows} {cols}\n" + "\n".join(sections[label])
            return parse_matrix_text(text)

        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        d = matrix_of("D", 2, 3)
        u = matrix_of("U", 2, 2)
        v = matrix_of("V", 3, 3)
        assert u * m * v == d
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        assert d[0, 0] == 1 and d[1, 1] == 3

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "2 3\n1 2 3\n4 5 6\n",
                "D:\n1 0 0\n0 3 0\n"
                "U:\n1 0\n4 -1\n"
                "V:\n1 -2 1\n0 1 -2\n0 0 1\n",
            ),
            (
                "4 3\n2 4 4\n0 0 0\n-6 6 12\n10 -4 -16\n",
                "D:\n2 0 0\n0 6 0\n0 0 12\n0 0 0\n"
                "U:\n1 0 0 0\n2 0 -1 -1\n3 0 -4 -3\n0 1 0 0\n"
                "V:\n1 -2 2\n0 1 -2\n0 0 1\n",
            ),
            ("0 3\n", "D:\nU:\nV:\n1 0 0\n0 1 0\n0 0 1\n"),
        ],
        ids=["2x3", "4x3-zero-row", "0x3"],
    )
    def test_exact_transforms(self, capsys, tmp_path, text, expected):
        # U and V are not unique; these are the ones the elimination's
        # pivot and operation order produce, pinned byte for byte.
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "snf", str(path)) == (0, expected, "")

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "snf", str(tmp_path / "absent.txt"))
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_matrix_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2\n3\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "snf", str(path))
        assert code == 1
        assert err.startswith("error:")


class TestSymmetryCommands:
    def test_admissible(self, capsys):
        code, out, _ = run_cli(capsys, "admissible", "--spec", "tau5", "--r", "8")
        assert (code, out) == (0, "admissible\n")
        code, out, _ = run_cli(capsys, "admissible", "--spec", "tau5", "--r", "9")
        assert (code, out) == (0, "not admissible\n")

    def test_census_table(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--spec", "tau5", "--r", "0..6")
        assert code == 0
        assert out == "0 yes\n1 yes\n2 yes\n3 yes\n4 no\n5 yes\n6 yes\n"

    def test_census_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "census", "--spec", "tau5", "--r", "5")
        assert code == 1
        assert "expected A..B" in err

    def test_free_quotient(self, capsys):
        code, out, _ = run_cli(
            capsys, "free-quotient", "--g", "2", "--n", "5", "--b", "3"
        )
        assert (code, out) == (0, "0\n")
        code, out, _ = run_cli(
            capsys, "free-quotient", "--g", "2", "--n", "5", "--b", "4"
        )
        assert (code, out) == (0, "none\n")

    def test_z3_profiles(self, capsys):
        code, out, _ = run_cli(capsys, "z3-profiles", "--g", "5")
        assert (code, out) == (0, "0 7\n1 4\n2 1\n")

    def test_decompose_transposition(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose-transposition", "--n", "5", "--i", "1", "--j", "2"
        )
        assert code == 0
        assert out == "alpha: (1 2)(3 4)\nbeta: (3 4)\n"

    def test_decompose_equal_points_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "decompose-transposition", "--n", "5", "--i", "2", "--j", "2"
        )
        assert code == 1
        assert "distinct" in err


class TestBraidCommands:
    def test_braid_perm_staircase(self, capsys):
        code, out, _ = run_cli(
            capsys, "braid-perm", "--strands", "6", "--word", STAIRCASE_BRAID
        )
        assert (code, out) == (0, "(1 6)(2 5)(3 4)\n")

    def test_braid_perm_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "braid-perm", "--strands", "3", "--word", "s1 s1"
        )
        assert (code, out) == (0, "id\n")

    def test_braid_lift(self, capsys):
        code, out, _ = run_cli(capsys, "braid-lift", "--word", "s1 s2 s3 s4")
        assert (code, out) == (0, "C1 C2 C3 C4\n")

    def test_braid_lift_staircase(self, capsys):
        code, out, _ = run_cli(capsys, "braid-lift", "--word", STAIRCASE_BRAID)
        assert (code, out) == (0, "C5 C4 C5 C3 C4 C5 C2 C3 C4 C5 C1 C2 C3 C4 C5\n")

    def test_braid_perm_out_of_range_index(self, capsys):
        code, _, err = run_cli(
            capsys, "braid-perm", "--strands", "3", "--word", "s3"
        )
        assert code == 1
        assert "strand index 3" in err


class TestTheorem:
    def test_exceptional_family(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--g", "2", "--r", "9")
        assert (code, out) == (0, "not generated by torsion; index 5\n")

    def test_generated_genus_two(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--g", "2", "--r", "8")
        assert (code, out) == (0, "generated by torsion; orders {2, 5}\n")

    def test_generated_genus_zero(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--g", "0", "--r", "5")
        assert (code, out) == (0, "generated by torsion; orders {4, 5}\n")

    def test_degenerate_genus_zero_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "theorem", "--g", "0", "--r", "2")
        assert code == 1
        assert "at least 3 boundary" in err

    def test_grid_check(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--grid", "2,9", "--check")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 20
        assert lines[0] == "g=1 r=0 index=1 ok"
        assert lines[-1] == "g=2 r=9 index=5 ok"
        assert all(line.endswith("ok") for line in lines)

    def test_grid_skips_uncovered_genera(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--grid", "4,2", "--check")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 12
        assert [line.endswith(" ok") for line in lines] == [True] * 6 + [False] * 6
        assert lines[6] == "g=3 r=0 SKIP: cross-check covers genus 1 and 2 only, got 3"
        assert lines[-1] == "g=4 r=2 SKIP: cross-check covers genus 1 and 2 only, got 4"

    @pytest.mark.parametrize("grid", ["2,-1", "0,3"])
    def test_grid_bounds_are_usage_errors(self, capsys, grid):
        assert run_cli_usage_error(capsys, "theorem", "--grid", grid, "--check") == 2

    def test_grid_requires_check(self, capsys):
        assert run_cli_usage_error(capsys, "theorem", "--grid", "2,3") == 2

    @pytest.mark.parametrize("g, r", [("2", "9"), ("7", "3")])
    def test_check_requires_grid(self, capsys, g, r):
        with pytest.raises(SystemExit) as info:
            main(["theorem", "--g", g, "--r", r, "--check"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--check requires --grid" in err

    @pytest.mark.parametrize(
        "flags",
        [("--g", "5", "--r", "3"), ("--g", "1"), ("--r", "0")],
    )
    def test_grid_excludes_cell_flags(self, capsys, flags):
        with pytest.raises(SystemExit) as info:
            main(["theorem", *flags, "--grid", "1,1", "--check"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--grid excludes --g and --r" in err

    def test_missing_flags_is_usage_error(self, capsys):
        assert run_cli_usage_error(capsys, "theorem") == 2


ADDRESS_ERRORS = [
    (("eval", "--word", "A", "--system"), "sphere", "unknown system"),
    (("eval", "--word", "A", "--system"), "chain", "expected chain:g=G"),
    (("eval", "--word", "A", "--system"), "chain:r=2", "expected chain:g=G"),
    (("eval", "--word", "A", "--system"), "chain:g=two", "is not an integer"),
    (("eval", "--word", "A", "--system"), "chain:g=1_0", "is not an integer"),
    (("eval", "--word", "A", "--system"), "chain:g= 2", "is not an integer"),
    (("eval", "--word", "A", "--system"), "planar:r=\u0665", "is not an integer"),
    (("admissible", "--r", "3", "--spec"), "tau7", "unknown symmetry"),
    (("admissible", "--r", "3", "--spec"), "tau2", "expected tau2:g=G"),
    (("admissible", "--r", "3", "--spec"), "tau3:g=+2", "is not an integer"),
    (("census", "--r", "0..3", "--spec"), "tau2:g=1_0", "is not an integer"),
    (("abelianize", "--builtin"), "gamma1r:r=6", "unknown presentation"),
    (("abelianize", "--builtin"), "gamma0r", "expected gamma0r:r=R"),
    (("abelianize", "--builtin"), "gamma0r:r=6.0", "is not an integer"),
]


@pytest.mark.parametrize("prefix, address, message", ADDRESS_ERRORS)
def test_address_errors_are_domain_errors(capsys, prefix, address, message):
    code, out, err = run_cli(capsys, *prefix, address)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


INTEGER_GRAMMAR = [
    (("eval", "--system", "torus", "--word", "A^\u0663"), None, 1, "malformed token"),
    (("census", "--spec", "tau5", "--r", "1_0..1_2"), None, 1, "bounds must be integers"),
    (("census", "--spec", "tau5", "--r", " 1..2"), None, 1, "bounds must be integers"),
    (("census", "--spec", "tau5", "--r", "+1..2"), None, 1, "bounds must be integers"),
    (("snf",), "2 2\n1 0\n0 1_0\n", 1, "bad integer '1_0'"),
    (("snf",), "2 \u0662\n1 0\n0 1\n", 1, "header must be two integers"),
    (("theorem", "--grid", "1,1_0", "--check"), None, 2, "expected integers"),
    (("theorem", "--grid", "1, 2", "--check"), None, 2, "expected integers"),
    (("admissible", "--spec", "tau5", "--r", "\u0663"), None, 2, "invalid int value"),
    (("admissible", "--spec", "tau5", "--r", "+3"), None, 2, "invalid int value"),
    (("z3-profiles", "--g", " 5"), None, 2, "invalid int value"),
    (("free-quotient", "--g", "2", "--n", "5", "--b", "1_0"), None, 2, "invalid int value"),
]


@pytest.mark.parametrize("argv, matrix_text, code, message", INTEGER_GRAMMAR)
def test_integers_are_ascii_digits(capsys, tmp_path, argv, matrix_text, code, message):
    # Integers are ASCII digits with an optional leading minus sign.
    # Words, ranges and files fail with error: and exit 1; integer
    # options, which argparse reads, are usage errors (exit 2).
    if matrix_text is not None:
        path = tmp_path / "m.txt"
        path.write_text(matrix_text, encoding="utf-8")
        argv += (str(path),)
    if code == 1:
        got, out, err = run_cli(capsys, *argv)
        assert (got, out) == (1, "")
        assert err.startswith("error: ")
    else:
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        err = capsys.readouterr().err
    assert message in err


class TestHarness:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 2
        assert out == ""
        assert "usage" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli_usage_error(capsys, "z3-profiles", "--g", "1", "--x") == 2

    def test_output_is_deterministic(self, capsys):
        first = run_cli(capsys, "theorem", "--grid", "2,6", "--check")
        second = run_cli(capsys, "theorem", "--grid", "2,6", "--check")
        assert first == second
        third = run_cli(capsys, "census", "--spec", "tau3:g=2", "--r", "0..12")
        fourth = run_cli(capsys, "census", "--spec", "tau3:g=2", "--r", "0..12")
        assert third == fourth

    def test_console_script_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "mcgtorsion.cli", "theorem", "--g", "3", "--r", "17"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "generated by torsion; orders {2}\n"
