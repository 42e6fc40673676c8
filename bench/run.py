"""Benchmark for mcgtorsion: two seeded workloads, checked answers, deadlines.

Usage, from the repository root:

    python3 bench/run.py --workload compute --seed 1 --seconds 50 --trace 0

Workloads: compute (word evaluation, order certification and
abelianization in process, through the package's public functions) and
cli_mix (every subcommand through mcgtorsion.cli.main, one at a time).
Each is a closed loop with one client: the next operation starts when
the previous one has finished.

With --trace 0 the run measures the end-to-end metrics.  With --trace 1
it first runs untraced for half the time, then replays the same
operations with a span around every call into a layer, and reports the
per-layer metrics and the tracing overhead (traced minus untraced time).

Every answer is checked by an oracle that shares no code with the
package.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a human-readable report
goes to stderr, and the full record (spans included) to
.bench_out/<workload>-<seed>-trace<0|1>.json.  The exit code is 1 when
any answer is wrong, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import climix  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import inproc  # noqa: E402

# Per workload: the deadline of one operation in seconds, overridden for
# some operation kinds, and the latency percentile reported as
# latency_tail_ms, the highest with at least ten samples beyond it in a
# run at the seed.  The seed's times: word_eval pairs take up to about
# 1.5 s; periodic words up to about 0.11 s (conjugated, genus 10);
# infinite-order words 3 ms at genus 2, 0.13 s at genus 3, 0.4 s at
# genus 4 and 12.6 s at genus 5; gamma0r presentations up to about 0.2 s;
# nearly every other abelianize operation under 0.05 s, while blown-up
# Smith forms take seconds.  The 0.1 s deadline for infinite-order words
# therefore counts genus 3 and 4 as failures too: a deadline between
# 0.4 s and 12.6 s would make the 18 genus 5..10 infinite-order words of
# a block cost that many deadlines.
WORKLOADS = {
    # p97 lands inside the 150-200 ms group of shapes; p98 would sit on the
    # edge of the fourth-slowest shape of every block (3.12 ops a block).
    "compute": {"deadline": 0.1, "percentile": 97,
                "by_kind": {"eval": 5.0, "hold": 5.0, "differ": 5.0, "periodic": 1.0,
                            "gamma0r": 1.0}},
    # 36 commands a block; p90 falls among the eight largest of each.
    "cli_mix": {"deadline": 10.0, "percentile": 90},
}
# Fresh-interpreter set-ups per run, spread over the run; setup_s is their median.
SETUP_REPEATS = 21
SUBCOMMANDS = (
    "eval", "order", "relcheck", "abelianize", "snf", "admissible", "census",
    "free-quotient", "z3-profiles", "decompose-transposition", "braid-perm",
    "braid-lift", "theorem",
)
SELF_TIMES = (
    "words.parse_word", "homrep.word_matrix", "homrep.relcheck", "homrep.certify",
    "intlinalg.matrix_order", "presentations.parse", "presentations.abelianize",
    "intlinalg.snf", "intlinalg.cokernel", "theorem.cross_check",
    "actions.realizable", "braids",
)
SETUP_SPANS = ("surfaces.builtin_system", "homrep.build")
COUNTS = ("words.letters", "homrep.word_matrix.calls", "intlinalg.matrix_order.calls",
          "intlinalg.matrix_order.deadline_missed", "intlinalg.snf.deadline_missed")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def backend(workload: str):
    """The module that runs a workload's operations: climix or inproc."""
    return climix if workload == "cli_mix" else inproc


def deadline_for(workload: str, op) -> float:
    spec = WORKLOADS[workload]
    return spec.get("by_kind", {}).get(op.get("kind"), spec["deadline"])


def run_op(mod, ctx, op, call, deadline: float, tracer=None):
    """Runs, checks and classifies one operation: (status, seconds, message)."""
    scratch: dict = {}
    start = time.perf_counter()
    try:
        answer, seconds, missed = mod.attempt(ctx, op, call, scratch, deadline)
    except Exception as exc:  # the loop must go on; the error is reported
        return harness.ERROR, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.op_missed = missed
        tracer.deadline = deadline
        mod.apportion(ctx, op, scratch, tracer)
    if missed:
        return harness.MISSED, seconds, None
    err = mod.check(op, answer)
    return (harness.WRONG if err else harness.OK), seconds, err


def measure(workload: str, ctx, blocks, seconds: float, keep: bool):
    """Whole blocks, untraced, while the busy time stays within `seconds`.

    A block starts only if, at the mean block time so far, it would end
    within `seconds`, so a run never overshoots by most of a block; the
    first block always runs.

    Before each block the fresh-interpreter set-ups due by then are
    sampled, SETUP_REPEATS in all, so that setup_s sees the machine over
    the whole run rather than at one moment; they are not busy time.
    Operations are kept, for the traced replay, only when `keep` is set.
    """
    mod = backend(workload)
    results, ops, problems, profiles, setups = [], [], [], [], []
    groups: dict = {}
    busy, count = 0.0, 0
    while count == 0 or busy + busy / count <= seconds:
        while len(setups) <= min(SETUP_REPEATS - 1, SETUP_REPEATS * busy / seconds):
            setups.append(mod.sample_setup(ctx))
        count += 1
        block = next(blocks)
        for op in block:
            mod.prepare(ctx, op)
        for op in block:
            status, sec, msg = run_op(mod, ctx, op, harness.direct, deadline_for(workload, op))
            results.append((status, sec))
            tally = groups.setdefault(_group(op), {"seconds": []})
            tally[status] = tally.get(status, 0) + 1
            tally["seconds"].append(sec)
            busy += sec
            if msg:
                problems.append(_problem(op, msg))
        profiles += [mod.profile(op) for op in block]
        if keep:
            ops += block
    while len(setups) < SETUP_REPEATS:
        setups.append(mod.sample_setup(ctx))
    setup = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
    return results, ops, problems, count, profiles, groups, setup


def _group(op) -> str:
    """Label for outcome counts: operation kind and the size that drives its cost."""
    if "argv" in op:
        return op["argv"][0]
    return ":".join(str(op[k]) for k in ("kind", "system", "n") if k in op)


def replay_traced(workload: str, ctx, ops) -> tuple[harness.Tracer, list, list]:
    mod = backend(workload)
    tracer = harness.Tracer(WORKLOADS[workload]["deadline"])
    mod.setup(ctx, tracer)
    results, problems = [], []
    for op_id, op in enumerate(ops):
        tracer.start_op(op_id)
        status, sec, msg = run_op(mod, ctx, op, tracer, deadline_for(workload, op), tracer)
        results.append((status, sec))
        if msg:
            problems.append(_problem(op, msg))
    return tracer, results, problems


def _problem(op, msg) -> dict:
    keep = {k: v for k, v in op.items() if k in ("kind", "system", "argv", "word", "r", "n")}
    return {"op": keep, "error": msg}


def layer_metrics(tracer: harness.Tracer, setup: dict, blocks: int, overhead: float) -> dict:
    """Per-layer figures, per block of the workload where they add up."""
    table = tracer.self_times()
    per = 1 / blocks
    m = {}
    for name in SETUP_SPANS:
        m[f"{name}.self_s"] = (table.get(name, {}).get("self_s", 0.0), "s")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (table.get(name, {}).get("self_s", 0.0) * per, "s/block")
    counts = dict(tracer.counters)
    for name in ("homrep.word_matrix", "intlinalg.matrix_order"):
        counts[f"{name}.calls"] = table.get(name, {}).get("calls", 0)
    for name in COUNTS:
        m[name] = (counts.get(name, 0) * per, "1/block")
    m["intlinalg.snf.out_bits_max"] = (tracer.maxima["intlinalg.snf.out_bits_max"], "bits")
    for name in ("cli.interpreter_s", "cli.import_s"):
        m[name] = (setup.get(name, 0.0), "s")
    walls: dict = {}
    for name, _, _, start, end in tracer.spans:
        if name.startswith("cli.main."):
            walls.setdefault(name[len("cli.main."):], []).append(end - start)
    for sub in SUBCOMMANDS:
        m[f"cli.main_s.{sub}"] = (statistics.median(walls[sub]) if sub in walls else 0.0, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mcgtorsion" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mcgtorsion

    if Path(mcgtorsion.__file__).resolve().parent != SRC / "mcgtorsion":
        print(f"error: imported {mcgtorsion.__file__}, not the checkout", file=sys.stderr)
        return 2
    harness.install_alarm()
    OUT.mkdir(exist_ok=True)
    mod = backend(args.workload)
    ctx = mod.context(args.workload, SRC, OUT / "cli")
    try:
        return measure_and_report(args, mod, ctx)
    finally:
        mod.close(ctx)


def measure_and_report(args, mod, ctx) -> int:
    mod.setup(ctx, harness.direct)
    blocks = gen.blocks(args.workload, args.seed)
    spec = WORKLOADS[args.workload]
    budget = args.seconds / 2 if args.trace else args.seconds
    results, ops, problems, n_blocks, profiles, groups, setup = measure(
        args.workload, ctx, blocks, budget, bool(args.trace))
    summary = harness.summarize(results, spec["percentile"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "deadline_s": spec["deadline"], "deadline_by_kind": spec.get("by_kind", {}),
              "percentile": spec["percentile"], "blocks": n_blocks,
              "setup": setup, "summary": summary, "outcomes": groups,
              "inputs": mod.input_properties(profiles)}
    if args.trace:
        tracer, traced, more = replay_traced(args.workload, ctx, ops)
        problems += more
        untraced_s = summary["busy_s"]
        traced_s = sum(sec for _, sec in traced)
        metrics = layer_metrics(tracer, setup, n_blocks, traced_s / untraced_s - 1)
        record.update(self_times=tracer.self_times(), spans=tracer.dump(),
                      traced_busy_s=traced_s)
        results = results + traced
    else:
        metrics = {
            "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": summary["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": summary["latency_tail_ms"], "unit": "ms"},
            "ok_ratio": {"value": summary["ok_ratio"], "unit": "ratio"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": harness.peak_kb(ctx) / 1024, "unit": "MB"},
        }
    failed = sum(1 for status, _ in results if status in (harness.WRONG, harness.ERROR))
    record.update(metrics=metrics, problems=problems)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    report(record, args.trace)
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def report(record: dict, trace: int) -> None:
    s = record["summary"]
    out = sys.stderr
    print(f"{record['workload']} seed={record['seed']}: {s['attempted']} ops in "
          f"{record['blocks']} blocks, {s['busy_s']:.2f} s busy; ok {s['ok']}, "
          f"deadline missed {s['missed']} (deadline {record['deadline_s']} s, "
          f"by kind {record['deadline_by_kind']}), "
          f"wrong {s['wrong']}, error {s['error']}; "
          f"failed_ratio {1 - s['ok_ratio']:.4f}", file=out)
    print(f"latency_tail_ms is p{record['percentile']} with {s['tail_beyond']} samples "
          f"beyond it", file=out)
    for name, m in record["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}", file=out)
    if trace:
        print(f"  {'span':28s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}", file=out)
        for name, row in sorted(record["self_times"].items()):
            print(f"  {name:28s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}",
                  file=out)
    missed = {g: t[harness.MISSED] for g, t in record["outcomes"].items() if harness.MISSED in t}
    if missed:
        print("deadline missed by group: " + json.dumps(missed), file=out)
    print("inputs: " + json.dumps(record["inputs"]), file=out)
    for p in record["problems"][:10]:
        print("PROBLEM: " + json.dumps(p), file=out)


if __name__ == "__main__":
    sys.exit(main())
