#!/usr/bin/env python3
"""Compare two sets of run records, per workload and per metric.

    python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are run records written by bench/run.py (bench/runs/*.json)
or directories holding them.  For every workload, trace mode and metric the
median over each side's records is printed with the change in percent, and
whether that change is better or worse by the direction in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, trace): {metric: (unit, [values])}} from a record or a directory."""
    path = Path(path)
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    out = defaultdict(dict)
    for f in files:
        record = json.loads(f.read_text())
        key = (record["workload"], "traced" if record["trace"] else "untraced")
        for name, metric in record["metrics"].items():
            out[key].setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    return out


def directions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    better = directions()
    for key in sorted(set(before) & set(after)):
        print(f"{key[0]} ({key[1]})")
        for name, (unit, old) in before[key].items():
            if name not in after[key]:
                continue
            new = after[key][name][1]
            a, b = statistics.median(old), statistics.median(new)
            delta = 100 * (b - a) / a if a else float("nan")
            verdict = ""
            if a != b and name in better:
                verdict = "better" if (b < a) == (better[name] == "lower") else "worse"
            print(f"  {name:<48} {a:>12.6g} -> {b:<12.6g} {unit:<9} {delta:+8.2f} % "
                  f"{verdict}  (runs {len(old)}/{len(new)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
