"""Self-tests of the benchmark: deterministic inputs, caught wrong answers,
counted overruns.  Run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import climix  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import inproc  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

WORKLOADS = sorted(gen.BLOCKS)


def _inputs(workload: str, seed: int, count: int = 2) -> str:
    return json.dumps(list(islice(gen.blocks(workload, seed), count)), sort_keys=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    """One operation of each kind of the compute workload, with the program's answers."""
    harness.install_alarm()
    out = {}
    ctx = inproc.context("compute", SRC, tmp_path_factory.mktemp("compute"))
    inproc.setup(ctx, harness.direct)
    for op in next(gen.blocks("compute", 3)):
        if op["kind"] in out or op.get("n", 0) > 12 or op.get("system", "").endswith("=8"):
            continue
        inproc.prepare(ctx, op)
        answer, _, missed = inproc.attempt(
            ctx, op, harness.direct, {}, run.deadline_for("compute", op))
        if not missed:
            out[op["kind"]] = (op, answer)
    return out


def test_right_answers_pass(ops):
    for kind, (op, answer) in ops.items():
        assert inproc.check(op, answer) is None, kind


def _wrong(kind, op, answer):
    from mcgtorsion.intlinalg import AbelianGroup, IntMatrix

    if kind == "eval":
        return IntMatrix(answer.rows, answer.cols, (answer.entries[0] + 1,) + answer.entries[1:])
    if kind in ("hold", "differ"):
        return not answer
    if kind == "periodic":
        return 2 * answer
    if kind == "infinite":
        return 4
    if kind in ("gamma0r", "presentation"):
        group, images = answer
        if group.invariant_factors and group.invariant_factors[-1]:
            factors = group.invariant_factors[:-1] + (2 * group.invariant_factors[-1],)
            return AbelianGroup(factors), images
        return AbelianGroup(group.invariant_factors + (2,)), tuple(im + (0,) for im in images)
    if kind == "dense":
        (d, u, v), group = answer
        return (d, u.scaled(2), v), group
    raise ValueError(kind)


def test_injected_wrong_answer_is_caught(ops):
    assert {"eval", "hold", "differ", "periodic", "infinite", "gamma0r", "presentation",
            "dense"} <= set(ops)
    for kind, (op, answer) in ops.items():
        assert inproc.check(op, _wrong(kind, op, answer)) is not None, kind


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    real = inproc.execute

    def lying(ctx, op, call, scratch):
        answer = real(ctx, op, call, scratch)
        return (not answer) if op["kind"] in ("hold", "differ") else answer

    monkeypatch.setattr(inproc, "execute", lying)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(gen.BLOCKS, "compute", gen.word_eval_block)
    code = run.main(["--workload", "compute", "--seed", "1", "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_cli_wrong_stdout_is_caught():
    argv, expected = gen.README_EXAMPLES[0]
    reply = {"returncode": 0, "stdout": expected.replace("1", "2", 1), "stderr": ""}
    assert climix.check({"argv": argv, "expect": expected}, reply) is not None
    reply["stdout"] = expected
    assert climix.check({"argv": argv, "expect": expected}, reply) is None


def _spin(*args):
    while True:
        pass


def test_injected_overrun_counts_as_failure(monkeypatch, tmp_path):
    harness.install_alarm()
    monkeypatch.setattr(inproc, "execute", _spin)
    ctx = inproc.context("compute", SRC, tmp_path)
    status, seconds, _ = run.run_op(inproc, ctx, {"kind": "dense"}, harness.direct, 0.05)
    assert status == harness.MISSED
    assert 0.05 <= seconds < 0.5
    summary = harness.summarize([(status, seconds), (harness.OK, 0.01)], 50)
    assert summary["ok_ratio"] == 0.5 and summary["missed"] == 1


def test_dense_snf_overrun_is_counted_in_its_layer(monkeypatch, tmp_path):
    from mcgtorsion import intlinalg

    harness.install_alarm()
    ctx = inproc.context("compute", SRC, tmp_path)
    op = {"kind": "dense", "n": 3, "rows": [[2, 1, 0], [1, 3, 1], [0, 1, 4]]}
    inproc.prepare(ctx, op)
    monkeypatch.setattr(intlinalg, "smith_normal_form", _spin)
    tracer = harness.Tracer(0.05)
    tracer.start_op(0)
    status, _, _ = run.run_op(inproc, ctx, op, tracer, 0.05, tracer)
    assert status == harness.MISSED
    assert tracer.counters["intlinalg.snf.deadline_missed"] == 1


def test_cli_overrun_counts_as_failure(monkeypatch, tmp_path):
    from mcgtorsion import cli

    harness.install_alarm()
    monkeypatch.setattr(cli, "main", _spin)
    ctx = climix.context("cli_mix", SRC, tmp_path)
    status, seconds, _ = run.run_op(
        climix, ctx, {"argv": ["z3-profiles", "--g", "1"]}, harness.direct, 0.05)
    assert status == harness.MISSED
    assert 0.05 <= seconds < 0.5


def test_cli_answers_are_checked(tmp_path):
    ctx = climix.context("cli_mix", SRC, tmp_path)
    climix.setup(ctx, harness.direct)
    for op in next(gen.blocks("cli_mix", 3))[:16]:
        climix.prepare(ctx, op)
        status, _, msg = run.run_op(climix, ctx, op, harness.direct, 10.0)
        assert status == harness.OK, (op["argv"], msg)


def test_peak_memory_is_the_probes_own(tmp_path):
    """A child's ru_maxrss would count this process's resident pages; the
    figure the benchmark reports must not."""
    ballast = b"x" * 80_000_000
    for mod, workload in ((climix, "cli_mix"), (inproc, "compute")):
        ctx = mod.context(workload, SRC, tmp_path)
        mod.sample_setup(ctx)
        assert 10_000 < harness.peak_kb(ctx) < 60_000, workload
    assert len(ballast) == 80_000_000


def test_readme_outputs_agree_with_the_oracle():
    text = dict((tuple(a), out) for a, out in gen.README_EXAMPLES)
    assert text[("census", "--spec", "tau5", "--r", "0..6")] == oracle.census_text("tau5", 0, 6)
    assert text[("z3-profiles", "--g", "5")] == oracle.z3_profiles_text(5)
    assert text[("free-quotient", "--g", "2", "--n", "5", "--b", "4")] == oracle.free_quotient_text(2, 5, 4)
    assert text[("theorem", "--g", "2", "--r", "8")] == oracle.theorem_text(2, 8)
    assert oracle.check_transposition(5, 1, 2, "alpha: (1 2)(3 4)\nbeta: (3 4)\n") is None
