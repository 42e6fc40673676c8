"""The cli_mix workload: every subcommand through mcgtorsion.cli.main.

The commands run one at a time in this process, each with its stdout
and stderr captured and compared with the expected text, under the
workload's deadline.  What a separate process would pay on top is
measured apart, in fresh interpreters: `import mcgtorsion.cli` is
setup_s, and a bare interpreter start is cli.interpreter_s.  The
functions have the same names and arguments as those of inproc, so
run.py drives either module the same way.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import harness
import oracle

# Times `import mcgtorsion.cli` in a fresh interpreter.  Given an argv
# on stdin, it then runs that command and prints its peak memory.
# {src} is filled in.
SETUP_PROBE = harness.PEAK_KB_SOURCE + """
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import mcgtorsion.cli
print(time.perf_counter() - start)
argv = sys.stdin.read().split()
if argv:
    import contextlib, io
    with contextlib.redirect_stdout(io.StringIO()):
        mcgtorsion.cli.main(argv)
    print_peak_kb()
"""
# The largest command of every block.
LARGEST = "abelianize --builtin gamma0r:r=40"


def context(workload: str, src: Path, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    return {"workdir": workdir, "probe": SETUP_PROBE.format(src=str(src)), "largest": LARGEST,
            "probes": 0, "peaks_kb": []}


def close(ctx: dict) -> None:
    """Nothing runs beside this process."""


def sample_setup(ctx: dict) -> dict:
    """One bare interpreter start, timed from here, then one `import
    mcgtorsion.cli` in a fresh interpreter, timed inside it: what a
    process pays beyond a bare start."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    bare = time.perf_counter() - start
    imported = harness.run_probe(ctx)
    return {"setup_s": imported, "cli.interpreter_s": bare, "cli.import_s": imported}


def setup(ctx: dict, call) -> None:
    """Imports the CLI, as the first command of a process would."""
    import mcgtorsion.cli  # noqa: F401


def prepare(ctx: dict, op: dict) -> None:
    for name, text in op.get("files", {}).items():
        (ctx["workdir"] / name).write_text(text, encoding="utf-8")


def attempt(ctx: dict, op: dict, call, scratch: dict, deadline: float):
    """(reply, seconds, missed) for one command run by mcgtorsion.cli.main
    under its deadline, with stdout and stderr captured."""
    from mcgtorsion import cli

    files = op.get("files", {})
    argv = [str(ctx["workdir"] / a) if a in files else a for a in op["argv"]]

    def command():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call("cli.main." + op["argv"][0], cli.main, argv)
        return {"returncode": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    return harness.run_with_deadline(command, deadline)


def check(op: dict, reply: dict) -> str | None:
    if reply["returncode"] != 0:
        return f"exit {reply['returncode']}: {reply['stderr'].strip()[-200:]}"
    stdout = reply["stdout"]
    if "expect" in op:
        return None if stdout == op["expect"] else "stdout differs from the expected text"
    kind, *args = op["check"]
    if kind == "gamma0r":
        return oracle.check_gamma0r_text(*args, stdout)
    if kind == "transposition":
        return oracle.check_transposition(*args, stdout)
    if kind == "snf":
        return oracle.check_snf_text(args[0], stdout)
    raise ValueError(kind)


def apportion(ctx: dict, op: dict, scratch: dict, tracer: harness.Tracer) -> None:
    """Calls the layers behind theorem, census/admissible and braid commands
    in process, on the arguments the command was given."""
    from mcgtorsion import actions, braids, theorem

    argv = op["argv"]
    opt = dict(zip(argv[1::2], argv[2::2]))
    command = argv[0]
    if command == "theorem" and "--grid" in opt:
        gmax, rmax = (int(x) for x in opt["--grid"].split(","))
        for g in (1, 2):
            for r in range(rmax + 1) if g <= gmax else ():
                tracer("theorem.cross_check", theorem.cross_check, g, r)
    elif command in ("census", "admissible"):
        spec = tracer("actions.realizable", actions.builtin_spec, opt["--spec"])
        if command == "census":
            lo, hi = (int(x) for x in opt["--r"].split(".."))
        else:
            lo = hi = int(opt["--r"])
        for r in range(lo, hi + 1):
            tracer("actions.realizable", actions.realizable_boundary_count, spec, r)
    elif command == "braid-perm":
        word = tracer("braids", braids.parse_braid, opt["--word"], int(opt["--strands"]))
        tracer("braids", braids.braid_permutation, word)
    elif command == "braid-lift":
        word = tracer("braids", braids.parse_braid, opt["--word"], 6)
        tracer("braids", braids.braid_to_genus2_word, word)


def profile(op: dict) -> dict:
    return {"command": op["argv"][0]}


def input_properties(profiles: list[dict]) -> dict:
    return {"ops": len(profiles), "commands": dict(Counter(p["command"] for p in profiles))}
