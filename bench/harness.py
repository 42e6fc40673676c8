"""Deadlines, spans and summary statistics shared by every workload."""

from __future__ import annotations

import math
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

OK, MISSED, WRONG, ERROR = "ok", "deadline", "wrong", "error"

# Every MEMORY_EVERY-th set-up probe also runs the workload's largest
# operation and reports its peak memory.
MEMORY_EVERY = 7

# Defines print_peak_kb() for a probe interpreter: it prints the peak
# anonymous resident memory in kB, VmHWM less the file-backed and shared
# pages resident at the end.  File pages are mostly the interpreter's own
# code, and how many of them count moves with the machine's page cache
# (executable text collapsed into huge pages adds about 3 MB to a process
# at times), not with the program.  ru_maxrss would moreover count the
# resident pages of the process that started the probe.
PEAK_KB_SOURCE = """
def print_peak_kb():
    keys = ("VmHWM", "RssFile", "RssShmem")
    with open("/proc/self/status") as status:
        kb = dict((k, int(v.split()[0])) for k, v in (line.split(":", 1) for line in status)
                  if k in keys)
    print(kb["VmHWM"] - kb["RssFile"] - kb["RssShmem"])
"""


def run_probe(ctx: dict) -> float:
    """Runs ctx["probe"] in a fresh interpreter; returns the set-up time it prints.

    Every MEMORY_EVERY-th probe gets ctx["largest"] on stdin, runs that
    operation too, and its peak memory joins ctx["peaks_kb"].
    """
    memory = ctx["probes"] % MEMORY_EVERY == 0
    ctx["probes"] += 1
    out = subprocess.run([sys.executable, "-c", ctx["probe"]], capture_output=True, text=True,
                         check=True, timeout=60, input=ctx["largest"] if memory else "")
    lines = out.stdout.split()
    if memory:
        ctx["peaks_kb"].append(int(lines[-1]))
    return float(lines[0])


def peak_kb(ctx: dict) -> float:
    """The median peak memory of the probes that ran the largest operation.

    The peak of the benchmark process is not used: it holds the
    benchmark's own state, and it moves by several percent between runs
    of one seed with what the heap holds when operations are abandoned at
    their deadline.
    """
    return statistics.median(ctx["peaks_kb"])


class DeadlineMissed(BaseException):
    """Raised by the interval timer; BaseException so no library handler catches it."""


def _on_alarm(signum, frame):
    raise DeadlineMissed


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def run_with_deadline(fn, deadline: float):
    """Runs fn() under an interval timer.

    Returns (result, seconds, missed).  The pure-Python loops of the
    package check for signals between bytecodes, so an overrun is
    abandoned within microseconds of the deadline; its latency is the
    measured time until it was abandoned.
    """
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineMissed:
        return None, time.perf_counter() - start, True
    return result, time.perf_counter() - start, False


def direct(name, fn, *args):
    """The untraced calling convention: call the layer function and nothing else."""
    return fn(*args)


class Tracer:
    """Records a span around each call into a layer, in memory.

    A span is [name, op id, parent span index, start, end].  Calls made
    through the tracer nest by the call stack; `inner` adds a child span
    after the fact, timing a layer function that an outer public call
    wraps on the same input, so the outer call's self time can be
    apportioned.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.op = None
        self.op_missed = False
        self.last: dict[str, int] = {}

    def __call__(self, name, fn, *args):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, self.op, parent, time.perf_counter(), None]
        self.spans.append(record)
        self.stack.append(index)
        self.last[name] = index
        try:
            return fn(*args)
        finally:
            record[4] = time.perf_counter()
            self.stack.pop()

    def inner(self, parent_name, name, fn, *args):
        """Times fn(*args) as a child of the op's latest `parent_name` span.

        When the operation met its deadline the call gets the full
        deadline; when it was abandoned, only the part of the parent span
        its other children have not used, so children never outlast the
        parent.  A miss is counted as `<name>.deadline_missed` and
        returns None.
        """
        parent = self.last.get(parent_name)
        budget = self.deadline
        if self.op_missed and parent is not None:
            _, _, _, start, end = self.spans[parent]
            used = sum(e - s for _, _, p, s, e in self.spans[parent + 1:] if p == parent)
            budget = max(end - start - used, 1e-4)
        record = [name, self.op, parent, time.perf_counter(), None]
        self.spans.append(record)
        result, _, missed = run_with_deadline(lambda: fn(*args), budget)
        record[4] = time.perf_counter()
        if missed:
            self.counters[f"{name}.deadline_missed"] += 1
        return result

    def start_op(self, op_id) -> None:
        self.op = op_id
        self.op_missed = False
        self.last = {}
        self.stack = []

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return table

    def dump(self) -> list[dict]:
        return [
            {"name": n, "op": op, "parent": p, "start": s, "end": e}
            for n, op, p, s, e in self.spans
        ]


def tail_percentile(latencies, percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def hd_quantile(values, q: float, steps: int = 8) -> float:
    """Harrell-Davis estimate of the q-quantile.

    The mean of the order statistics, weighted by the mass that the
    Beta((n+1)q, (n+1)(1-q)) density puts on each of the n equal slices
    of [0, 1] (integrated by the midpoint rule on `steps` points a slice).
    Where latencies fall in separate groups, the single middle sample
    jumps between groups from run to run; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    weights = []
    for i in range(n):
        total = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            total += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(total)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def summarize(results, percentile: float) -> dict:
    """End-to-end figures from per-operation (status, seconds) results."""
    latencies = [sec for _, sec in results]
    counts = Counter(status for status, _ in results)
    busy = sum(latencies)
    tail, beyond = tail_percentile(latencies, percentile)
    return {
        "attempted": len(results),
        "ok": counts[OK],
        "missed": counts[MISSED],
        "wrong": counts[WRONG],
        "error": counts[ERROR],
        "busy_s": busy,
        "ops_per_s": counts[OK] / busy,
        "latency_p50_ms": hd_quantile(latencies, 0.5) * 1e3,
        "latency_tail_ms": hd_quantile(latencies, percentile / 100) * 1e3,
        "latency_p50_ms_sample": statistics.median(latencies) * 1e3,
        "latency_tail_ms_sample": tail * 1e3,
        "tail_beyond": beyond,
        "ok_ratio": counts[OK] / len(results),
    }
