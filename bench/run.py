#!/usr/bin/env python3
"""Seeded benchmark for lieaff: one closed-loop client, one process, one thread.

Run from the root of a checkout:

    python3 bench/run.py --workload lift-solve --seed 1 --seconds 40 --trace 0

Set-up (input generation, canonical products, one warm-up op) is repeated
SETUP_REPS times and its median reported as setup_s.  Then ops run back to
back until their summed wall time reaches --seconds.  After each op, outside
its timing, the output is checked against its known answers, against its
own earlier executions, and, for the reference seed, against the digests in
bench/reference.json.

With --trace 0 the last line of stdout holds the end-to-end metrics, every
time in them scaled to a fixed machine speed by the reference clock of
bench/refclock.py; the wall-clock figures are printed and recorded beside
them.  With
--trace 1 every op runs twice, untraced and then under the outside-in
tracer; the last line holds the per-layer metrics, each per traced op, and
the tracing overhead (traced against untraced time of the same ops).

A run record with samples, inputs (in the lieaff file formats, so any op
can be replayed with bench/replay.py) and problems is written to
bench/runs/.  The process exits 2 without a result if the lieaff sources
are not in src/ next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import refclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
REFERENCE = BENCH / "reference.json"

SETUP_REPS = 3
TAIL_PERCENTILE = 80      # every 40 s run of a listed workload has ten or more ops beyond it


def import_lieaff():
    """Import lieaff from this checkout's src/, or return None."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lieaff
    except ImportError:
        return None
    if Path(lieaff.__file__).resolve().parent.parent != ROOT / "src":
        return None
    return lieaff


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def last_line(text):
    return text.strip().splitlines()[-1]


class Gate:
    """Per-op correctness: known answers, determinism and reference digests."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.seen = {}
        self.problems = []
        self.failed = 0

    def judge(self, index, op, out, error):
        found = [f"raised {error}"] if error is not None else self.examine(index, op, out)
        if found:
            self.failed += 1
            self.problems.extend(f"op {index} ({op.kind}, {op.base}): {p}" for p in found)

    def examine(self, index, op, out):
        from workloads import digest

        try:
            found = list(self.workload.check(op, out))
            d = digest(self.workload.output(op, out))
        except Exception:  # malformed output is a failed op, not a crashed run
            return [f"check raised {last_line(traceback.format_exc())}"]
        if self.seen.setdefault(index, d) != d:
            found.append("output differs from an earlier execution of the same op")
        if self.reference is not None and self.reference[index] != d:
            found.append("output differs from the reference digest")
        return found


def run_ops(workload, indices, gate):
    """Run the ops at the given stream positions; return their wall times."""
    times = []
    for index in indices:
        op = workload.ops[index]
        error = None
        start = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception:  # an op that raises is a failed op; keep measuring
            out, error = None, last_line(traceback.format_exc())
        times.append(time.perf_counter() - start)
        gate.judge(index, op, out, error)
    return times


def run_for(workload, seconds, gate):
    """Run the stream, cycling, until the ops' summed wall time reaches seconds.

    A reference run precedes each op, outside its timing; its times are
    returned too.
    """
    indices, times, refs = [], [], []
    while not times or sum(times) < seconds:
        index = len(indices) % len(workload.ops)
        indices.append(index)
        refs.append(refclock.reference())
        times.extend(run_ops(workload, [index], gate))
    return indices, times, refs


def run_paired(workload, seconds, gate):
    """Run each op untraced and then traced, until the pairs' time reaches seconds.

    Pairing the two executions of an op keeps drifts in machine speed out of
    the tracing overhead.
    """
    from tracer import Tracer

    tracer = Tracer()
    indices, plain, traced = [], [], []
    while not plain or sum(plain) + sum(traced) < seconds:
        index = len(indices) % len(workload.ops)
        indices.append(index)
        plain.extend(run_ops(workload, [index], gate))
        with tracer:
            traced.extend(run_ops(workload, [index], gate))
    return indices, plain, traced, tracer


def build(cls, seed, workdir):
    workload = cls(seed, workdir)
    workload.run(workload.ops[0])
    return workload


def set_up(cls, seed, workdir, reps):
    """Build the workload reps times.

    Returns the first build, every build's wall time and every build's time
    scaled by the reference clock.
    """
    kept, walls, scaled = None, [], []
    for _ in range(reps):
        gc.collect()
        workload, wall, wall_scaled = refclock.timed_scaled(lambda: build(cls, seed, workdir))
        walls.append(wall)
        scaled.append(wall_scaled)
        kept = kept or workload
    return kept, walls, scaled


def end_to_end(times, setup_times):
    """The end-to-end metrics from op times and set-up times, in seconds."""
    return {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        f"op_p{TAIL_PERCENTILE}_ms": {"value": 1e3 * percentile(times, TAIL_PERCENTILE),
                                      "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def write_reference(cls, seed, workdir):
    workload = build(cls, seed, workdir)
    from workloads import digest

    digests = [digest(workload.output(op, workload.run(op))) for op in workload.ops]
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[cls.name] = {"seed": seed, "digests": digests}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {cls.name} seed {seed} to {REFERENCE}")


def load_reference(name, seed):
    if not REFERENCE.exists():
        return None
    entry = json.loads(REFERENCE.read_text()).get(name)
    return entry["digests"] if entry and entry["seed"] == seed else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run every op of the stream once and store its digests")
    args = parser.parse_args(argv)

    if import_lieaff() is None:
        print(f"error: no lieaff package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracer import layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]

    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.write_reference:
            write_reference(cls, args.seed, str(workdir))
            return 0
        workload, setup_times, setup_scaled = set_up(cls, args.seed, str(workdir),
                                                     1 if args.trace else SETUP_REPS)
        reference = load_reference(cls.name, args.seed)
        gate = Gate(workload, reference)
        record = {"trace": None, "wall_metrics": None}
        refs = None
        if args.trace:
            indices, plain, traced, tracer = run_paired(workload, args.seconds, gate)
            overhead = 100 * (sum(traced) / sum(plain) - 1)
            metrics = layer_metrics(tracer, len(traced), sum(traced))
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            times = traced
            record["trace"] = {"ops": len(traced), "untraced_s": sum(plain),
                               "traced_s": sum(traced), "overhead_pct": overhead}
            tracer.dump(RUNS / f"{cls.name}-seed{args.seed}.spans.json")
            print_layer_shares(metrics, sum(traced) / len(traced))
        else:
            indices, times, refs = run_for(workload, args.seconds, gate)
            metrics = end_to_end(refclock.scale(times, refs), setup_scaled)
            record["wall_metrics"] = end_to_end(times, setup_times)
        run_problems = [f"gate: {p}" for p in workload.gate()]
        probes = [workload.probe()] if hasattr(workload, "probe") else []
        known_defects = [defect for defect in probes if defect is not None]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = gate.problems + run_problems
    attempted = len(times)
    record.update({
        "workload": cls.name, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "cpu": cpu_model(), "nproc": os.cpu_count(),
        "metrics": metrics, "setup_times_s": setup_times,
        "setup_scaled_s": setup_scaled, "ref_s": refclock.REF_S,
        "tail_percentile": TAIL_PERCENTILE,
        "attempted": attempted, "failed": gate.failed,
        "fail_ratio": (gate.failed + len(known_defects)) / (attempted + len(probes)),
        "reference_checked": reference is not None,
        "known_defects": known_defects, "problems": problems[:100],
        "samples": [{"op": i, "kind": workload.ops[i].kind, "dim": workload.ops[i].dim,
                     "base": workload.ops[i].base, "ms": 1e3 * t,
                     **({"ref_ms": 1e3 * refs[n]} if refs else {})}
                    for n, (i, t) in enumerate(zip(indices, times))],
        "inputs": inputs_record(workload, indices),
    })
    path = RUNS / f"{cls.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems[:20]:
        print(f"problem: {problem}")
    for defect in known_defects:
        print(f"known defect {defect['name']} (ROADMAP item {defect['roadmap_item']}): "
              f"{defect['got']}")
    for name, metric in metrics.items():
        wall = record["wall_metrics"] and record["wall_metrics"][name]["value"]
        print(f"{name} = {metric['value']:.6g} {metric['unit']}"
              + (f" (wall clock {wall:.6g})" if wall not in (None, metric["value"]) else ""))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def inputs_record(workload, indices):
    bases = getattr(workload, "bases", {})
    return {"bases": {name: base.to_dict() for name, base in bases.items()},
            "ops": {str(i): {"kind": workload.ops[i].kind, "base": workload.ops[i].base,
                             **workload.replay(workload.ops[i])}
                    for i in sorted(set(indices))}}


def print_layer_shares(metrics, op_s):
    from tracer import TIMED

    print(f"traced op time {1e3 * op_s:.3f} ms; share by module self time:")
    for module in [*TIMED, "bench"]:
        share = metrics[f"{module}.self_s"]["value"] / op_s
        print(f"  {module:<11} {100 * share:6.2f} %")


if __name__ == "__main__":
    sys.exit(main())
