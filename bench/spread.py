"""Runs one workload on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 bench/spread.py --workload compute --seeds 1-10 --seconds 50

Each seed is one run of bench/run.py, one after the other.  For every
metric the report gives the median of the runs, their quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the
distance between the quartiles as a share of the median.  The summary
is printed as JSON and written to .bench_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seeds, help="a seed or a range such as 1-10")
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": out.returncode, **result})
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          **{k: v["value"] for k, v in result["metrics"].items()}}),
              file=sys.stderr)
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        metrics[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "unit": first["unit"], "values": values}
    summary = {"workload": args.workload, "seconds": float(args.seconds), "seeds": args.seeds,
               "all_correct": all(r["correct"] and r["exit"] == 0 for r in runs),
               "attempted": [r["attempted"] for r in runs], "metrics": metrics}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    name = f"spread-{args.workload}.json"
    (ROOT / ".bench_out" / name).write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
