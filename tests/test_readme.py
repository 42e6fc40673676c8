"""README's command-line examples, run through cli.main.

Each `$ mcgtorsion ...` line in README.md that is followed by output is
run in process, and its stdout must equal the shown output byte for
byte, except that a `...` line stands for any run of lines.  Examples
that show no output (the `snf m.txt` call) are not run.
"""

import re
import shlex
from pathlib import Path

import pytest

from mcgtorsion.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ mcgtorsion "


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command, output lines) for every README example that shows output."""
    examples: list[tuple[str, list[str]]] = []
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith(PROMPT):
            current = (line[len(PROMPT):], [])
            examples.append(current)
        elif line.startswith("```"):
            current = None
        elif current is not None:
            current[1].append(line)
    return [(command, lines) for command, lines in examples if lines]


def output_pattern(lines: list[str]) -> re.Pattern:
    parts = ("(?:.*\n)*" if line == "..." else re.escape(line + "\n") for line in lines)
    return re.compile("".join(parts))


EXAMPLES = readme_examples()


def test_every_example_with_output_is_collected():
    assert len(EXAMPLES) == 14


@pytest.mark.parametrize("command, lines", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_example_output(capsys, command, lines):
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert output_pattern(lines).fullmatch(captured.out), captured.out
