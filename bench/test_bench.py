"""Tests of the benchmark itself (not of lieaff).

    python3 bench/test_bench.py        (or: python3 -m pytest bench/test_bench.py)

The minimal workload runs take about a minute in all, most of it set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

if bench.import_lieaff() is None:
    raise ImportError("lieaff sources not found in src/ next to bench/")

import lieaff  # noqa: E402
import inputs  # noqa: E402
import refclock  # noqa: E402
from tracer import COUNTED, TIMED, Tracer, binding_sites  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(list(args))
    return code, out.getvalue().strip().splitlines()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        def draw(seed):
            out = []
            for dim in (4, 6):
                base = inputs.symplectic_base(seed, dim, 0)
                lift = inputs.random_lift(inputs.rng_for(seed, "lift"), base, "rep", True)
                out.append((base.to_dict(), lieaff.fileio.liftdata_to_dict(lift)))
            return json.dumps(out, sort_keys=True)

        self.assertEqual(draw(11), draw(11))
        self.assertNotEqual(draw(11), draw(12))

    def test_same_seed_gives_same_op_stream(self):
        bench.RUNS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.RUNS) as tmp:
            first, second = (WORKLOADS["lift-solve"](5, tmp) for _ in range(2))
        self.assertEqual([first.replay(op) for op in first.ops],
                         [second.replay(op) for op in second.ops])

    def test_generated_bases_are_symplectic_and_nilpotent(self):
        for dim in (4, 6, 8):
            base = inputs.symplectic_base(3, dim, 1)
            self.assertTrue(base.algebra.constants)
            self.assertTrue(base.algebra.is_nilpotent())
            self.assertTrue(lieaff.symplectic_check(base.algebra, base.theta).is_symplectic)
            self.assertEqual(base.ext.extended.dim, dim + 1)


def bindings():
    """Identity of every attribute of every lieaff module and patched class."""
    owners = binding_sites() + [lieaff.LieAlgebra, lieaff.BilinearProduct]
    return {(id(owner), attr): id(value)
            for owner in owners for attr, value in list(vars(owner).items())}


class TracerTest(unittest.TestCase):
    def test_every_wrapped_function_is_restored(self):
        before = bindings()
        with Tracer() as tracer:
            during = bindings()
            entry = lieaff.catalog.get("n4")
            lieaff.affine_from_symplectic(entry.algebra, entry.symplectic_form)
        self.assertEqual(before, bindings())
        changed = {key for key in before if during[key] != before[key]}
        wrapped = sum(len(funcs) for funcs in TIMED.values()) + len(COUNTED)
        self.assertGreater(len(changed), wrapped)   # re-exports and imports too
        names = {span[0] for span in tracer.spans}
        self.assertIn("structures.verify_affine", names)
        self.assertIn("liecore.cocycle_defects", names)
        self.assertGreater(tracer.counters["structures.curvature.calls"], 0)

    def test_restored_after_an_exception(self):
        before = bindings()
        with self.assertRaises(ValueError):
            with Tracer():
                lieaff.central_extend(lieaff.LieAlgebra(dim=2), lieaff.KForm.dual(2, 0))
        self.assertEqual(before, bindings())

    def test_self_times_add_up_to_root_spans(self):
        with Tracer() as tracer:
            entry = lieaff.catalog.get("n4")
            lieaff.central_extend(entry.algebra, entry.symplectic_form)
        summary = tracer.summary()
        self.assertAlmostEqual(sum(summary["module_self"].values()), summary["roots"])


class RefClockTest(unittest.TestCase):
    def test_scale_follows_the_local_reference_speed(self):
        # The host halves its speed after op 20: ops and reference runs alike.
        refs = [refclock.REF_S] * 20 + [2 * refclock.REF_S] * 20
        times = [0.1] * 20 + [0.2] * 20
        for scaled in refclock.scale(times, refs):
            self.assertAlmostEqual(scaled, 0.1)


class WorkloadRunTest(unittest.TestCase):
    """A minimal run of each workload: correct, and only the h11 probe fails."""

    def check_run(self, workload, trace):
        code, lines = run_bench("--workload", workload, "--seed", "2", "--seconds", "0.5",
                                "--trace", str(trace))
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        record = json.loads((bench.RUNS / f"{workload}-seed2-trace{trace}.json").read_text())
        probes = 1 if workload == "contact-pipeline" else 0
        self.assertEqual(record["fail_ratio"], probes / (result["attempted"] + probes))
        return record

    def test_verdict_scan(self):
        self.check_run("verdict-scan", 0)

    def test_lift_solve(self):
        self.check_run("lift-solve", 0)

    def test_contact_pipeline(self):
        record = self.check_run("contact-pipeline", 0)
        self.assertEqual([d["name"] for d in record["known_defects"]], ["h11-contact-form"])

    def test_traced_run_reports_every_layer_metric(self):
        record = self.check_run("contact-pipeline", 1)
        self.assertGreater(record["metrics"]["cli.check.busy_s"]["value"], 0)
        self.assertGreater(record["metrics"]["fileio.bytes"]["value"], 0)

    def test_no_result_without_sources(self):
        bench.RUNS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.RUNS) as tmp:
            bare = Path(tmp)
            (bare / "bench").mkdir()
            for f in BENCH.glob("*.py"):
                (bare / "bench" / f.name).write_text(f.read_text())
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                                   "verdict-scan", "--seed", "1", "--seconds", "1"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
