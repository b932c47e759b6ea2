"""The three benchmark workloads: their op streams, the op itself, and its checks.

An op is one timed call into lieaff.  Each workload builds its inputs in its
constructor (that is the set-up the benchmark times), orders its ops so that
every prefix of the stream keeps the same mix of dimensions and kinds, and
knows how to reduce an op's output to canonical JSON (for the digest), which
known answers the output must satisfy, and how to replay the op with the
``lieaff`` command line.

The mixes are chosen so that the median and the 80th percentile of op time
fall inside a cluster of similar ops, not on the gap between two clusters,
where they would jump from one seed to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction

import lieaff
from lieaff import catalog, cli, fileio

from inputs import (
    A_MODES,
    heisenberg,
    heisenberg_base,
    one_dim_rep,
    random_lift,
    rng_for,
    symplectic_base,
)


class Op:
    __slots__ = ("kind", "dim", "base", "data")

    def __init__(self, kind, dim, base, data=None):
        self.kind = kind    # what is called, e.g. "verdict/rep/perturbed"
        self.dim = dim      # dimension of the algebra the op is about
        self.base = base    # name of that algebra
        self.data = data    # lift data, central form, or source tag


def canonical(obj):
    """JSON-ready copy with exact rationals as strings and tuples as lists."""
    if isinstance(obj, Fraction):
        return lieaff.format_rational(obj)
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    return obj


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rounds(pattern, make, count) -> list:
    """count repetitions of pattern; slot s takes make(s, j) for its j-th use.

    Every prefix of the stream keeps the slots' proportions, so a run cut
    off by time measures the same mix as a whole pass.
    """
    used = dict.fromkeys(pattern, 0)
    out = []
    for _ in range(count):
        for slot in pattern:
            out.append(make(slot, used[slot]))
            used[slot] += 1
    return out


# ---------------------------------------------------------------------------

class VerdictScan:
    """theorem_verdict on seeded lifts over generated and Heisenberg bases.

    Dimension 8 fills three slots of five, so that the median and the 80th
    percentile both fall inside its cluster, whose cost varies least from one
    seed to the next.  Base j % 5 and lift mix j % 6 rotate independently.
    """

    name = "verdict-scan"
    PATTERN = (4, 8, 6, 8, 8)
    ROUNDS = 30
    GENERATED = 4       # generated bases per dimension, plus the Heisenberg quotient

    def __init__(self, seed, workdir):
        bases = {dim: [symplectic_base(seed, dim, i) for i in range(self.GENERATED)]
                 + [heisenberg_base(dim)] for dim in sorted(set(self.PATTERN))}
        self.bases = {b.name: b for group in bases.values() for b in group}
        self.extensions = {name: b.ext for name, b in self.bases.items()}
        mixes = [(a_mode, perturbed) for perturbed in (False, True) for a_mode in A_MODES]

        def make(dim, j):
            base = bases[dim][j % len(bases[dim])]
            a_mode, perturbed = mixes[j % len(mixes)]
            lift = random_lift(rng_for(seed, "lift", dim, j), base, a_mode, perturbed)
            kind = f"verdict/{a_mode}/{'perturbed' if perturbed else 'admissible'}"
            return Op(kind, dim, base.name, lift)

        self.ops = rounds(self.PATTERN, make, self.ROUNDS)

    def run(self, op):
        return lieaff.theorem_verdict(self.extensions[op.base], self.bases[op.base].nabla,
                                      op.data)

    def output(self, op, verdict):
        return {
            "is_affine": verdict.is_affine,
            "case": verdict.case,
            "conditions": [[c.name, c.passed, c.witnesses] for c in verdict.conditions],
            "aux": [verdict.aux_product_rule_holds, verdict.aux_witnesses],
            "findings": verdict.findings,
            "torsion": verdict.torsion_defects,
            "curvature": verdict.curvature_defects,
        }

    def check(self, op, verdict):
        problems = []
        _, a_mode, variant = op.kind.split("/")
        if variant == "perturbed" and (verdict.is_affine or not verdict.torsion_defects):
            problems.append("perturbed lift not refuted by a torsion defect")
        expected = {"zero": "trivial-alpha", "rep": "nontrivial-alpha"}.get(a_mode)
        if expected and verdict.case != expected:
            problems.append(f"case {verdict.case}, expected {expected}")
        return problems

    def gate(self):
        return [f"canonical product of {b.name} fails verify_affine"
                for b in self.bases.values()
                if not lieaff.verify_affine(b.algebra, b.nabla).is_affine]

    def replay(self, op):
        return {"lift": fileio.liftdata_to_dict(op.data),
                "command": ["lieaff", "lift", f"{op.base}.algebra.json", "--symplectic",
                            f"{op.base}.theta.json", "--lift", "lift.json", "--json"]}


# ---------------------------------------------------------------------------

class LiftSolve:
    """solve_lift_trivial / solve_lift_with_alpha on generated non-abelian bases.

    The cost of a dimension-8 solve depends on its base by a factor of two to
    seven (coefficient growth in the elimination; now and then a feasible
    system whose points all get checked), far more than on alpha.  With the
    few bases a run can afford to set up, seeding the bases made the run
    mean swing with the seed, so the bases come from the generator under the
    fixed POOL_SEED and --seed draws the alphas.
    """

    name = "lift-solve"
    PATTERN = (("alpha", 6), ("trivial", 8), ("alpha", 8))
    ROUNDS = 40
    GENERATED = 6
    POOL_SEED = 0

    def __init__(self, seed, workdir):
        bases = {dim: [symplectic_base(self.POOL_SEED, dim, i) for i in range(self.GENERATED)]
                 for dim in (6, 8)}
        self.bases = {b.name: b for group in bases.values() for b in group}

        def make(slot, j):
            kind, dim = slot
            base = bases[dim][j % self.GENERATED]
            alpha = None
            if kind == "alpha":
                alpha = one_dim_rep(rng_for(seed, "alpha", dim, j), base.algebra)
            return Op(kind, dim, base.name, alpha)

        self.ops = rounds(self.PATTERN, make, self.ROUNDS)

    def run(self, op):
        base = self.bases[op.base]
        if op.kind == "trivial":
            return lieaff.solve_lift_trivial(base.algebra, base.theta, base.nabla)
        return lieaff.solve_lift_with_alpha(base.algebra, base.theta, base.nabla, op.data)

    def output(self, op, result):
        return {
            "feasible": result.feasible,
            "dimension": result.dimension,
            "particular": result.particular_sym,
            "basis": result.basis_sym,
            "points": [[pt.phi, pt.flat, pt.verdict.findings] for pt in result.points],
            "gaps": len(result.gap_candidates),
        }

    def check(self, op, result):
        if op.kind == "trivial" and not all(pt.flat for pt in result.points):
            return ["trivial-case solver point is not flat"]
        return []

    def gate(self):
        problems = []
        r2 = catalog.get("r2")
        nabla = lieaff.affine_from_symplectic(r2.algebra, r2.symplectic_form)
        res = lieaff.solve_lift_with_alpha(r2.algebra, r2.symplectic_form, nabla, [1, 0])
        if len(res.gap_candidates) != 2:
            problems.append(f"r2 with alpha (1, 0): {len(res.gap_candidates)} gap "
                            "candidates, expected 2")
        r4 = heisenberg_base(4)
        res = lieaff.solve_lift_trivial(r4.algebra, r4.theta, r4.nabla)
        if not res.points or not all(pt.flat for pt in res.points):
            problems.append("trivial-case solver on r4 gave no points or a non-flat point")
        return problems

    def replay(self, op):
        command = ["lieaff", "solve-lift", f"{op.base}.algebra.json", "--symplectic",
                   f"{op.base}.theta.json", "--json"]
        if op.data is not None:
            command[-1:-1] = ["--alpha", ",".join(lieaff.format_rational(x) for x in op.data)]
        return {"command": command}


# ---------------------------------------------------------------------------

@contextlib.contextmanager
def working_directory(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_cli(argv):
    """lieaff.cli.main in-process; returns (argv, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return argv, code, out.getvalue()


class ContactPipeline:
    """The whole CLI path for one contact algebra of dimension 3 to 9.

    Runs with the working directory set to workdir, so that the file names
    printed by the CLI, and with them the digests, do not depend on where
    the benchmark runs.
    """

    name = "contact-pipeline"
    # Dimension of each slot in one round; the 80th percentile of op time falls
    # inside the dimension-7 cluster and the median inside the dimension-5 one.
    PATTERN = (3, 5, 7, 5, 3, 5, 7, 9)
    ROUNDS = 16
    # Generated algebras per base dimension.  The median falls in the dimension-5
    # cluster, whose cost varies by 2x from one algebra to the next; with ten
    # algebras there it moved with the seed by 0.11 (quartile spread over ten
    # seeds), with 24 by 0.086, so it gets 46 + 2 catalog ones: one per
    # dimension-5 slot of the stream.
    GENERATED = {4: 46, 6: 8, 8: 3}
    CATALOG = {3: ["h3"], 5: ["h5", "n4ext"], 7: ["h7"], 9: []}

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.algebras = {}
        sources = {dim: [(name, "catalog") for name in names]
                   for dim, names in self.CATALOG.items()}
        generated = [heisenberg(9)] + [symplectic_base(seed, dim, i).ext.extended
                                       for dim, count in self.GENERATED.items()
                                       for i in range(count)]
        for algebra in generated:
            self.algebras[algebra.name] = algebra
            fileio.save_algebra(os.path.join(workdir, f"{algebra.name}.json"), algebra)
            sources[algebra.dim].append((algebra.name, "file"))

        def make(dim, j):
            name, source = sources[dim][j % len(sources[dim])]
            return Op("pipeline", dim, name, source)

        self.ops = rounds(self.PATTERN, make, self.ROUNDS)
        h11 = heisenberg(11)
        fileio.save_algebra(os.path.join(workdir, "h11.json"), h11)
        fileio.save_form(os.path.join(workdir, "e11.json"), lieaff.KForm.dual(11, 10))

    def commands(self, op):
        """The lieaff command lines of one op; form.json is written from the contact step."""
        path = f"{op.base}.json"
        sym = ["q.algebra.json", "--symplectic", "q.theta.json"]
        emit = [["catalog", "--emit", op.base, path]] if op.data == "catalog" else []
        steps = emit + [
            ["check", path],
            ["contact", path, "--search"],
            ["quotient", path, "--form", "form.json", "--out", "q"],
            ["affine", *sym],
            ["extend", *sym, "--out", "x"],
            ["lift", *sym, "--half"],
        ]
        return [argv + ["--json"] for argv in steps]

    def run(self, op):
        steps = []
        with working_directory(self.workdir):
            for argv in self.commands(op):
                steps.append(run_cli(argv))
                if argv[0] == "contact":
                    found = json.loads(steps[-1][2])["found"]
                    if found is None:
                        break
                    with open("form.json", "w", encoding="utf-8") as fh:
                        json.dump(found["form"], fh)
        return steps

    def output(self, op, steps):
        return steps

    def check(self, op, steps):
        results = {argv[0]: (code, json.loads(out)) for argv, code, out in steps}
        if len(results) < 6:
            return [f"pipeline stopped after {steps[-1][0][0]}"]
        problems = []
        for command, (code, _) in results.items():
            if code not in ((0, 1) if command == "lift" else (0,)):
                problems.append(f"{command} exited {code}")
        check = results["check"][1]
        if not (check["jacobi"] and check["nilpotent"] and check["center_dim"] == 1):
            problems.append("check: not a nilpotent Lie algebra with one-dimensional center")
        sym = results["quotient"][1]["symplectic"]
        if not (sym["nondegenerate"] and sym["closed"]):
            problems.append("quotient: induced 2-form is not symplectic")
        affine = results["affine"][1]
        if affine["torsion_defects"] or affine["curvature_defects"]:
            problems.append("affine: canonical product has defects")
        extend = results["extend"][1]
        if not extend["contact"]["contact"] or extend["extension"]["dim"] != op.dim:
            problems.append("extend: does not give back a contact algebra of the same dimension")
        return problems

    def gate(self):
        return []

    def probe(self):
        """The h11 contact probe: None when it gives its known answer, else the defect."""
        argv = ["contact", "h11.json", "--form", "e11.json", "--json"]
        with working_directory(self.workdir):
            try:
                _, code, out = run_cli(argv)
                if code == 0 and json.loads(out)["contact"]:
                    return None
                got = f"exit {code}: {out.strip()}"
            except Exception as exc:  # the known defect raises out of cli.main
                got = f"{type(exc).__name__}: {exc}"
        return {"name": "h11-contact-form", "command": " ".join(["lieaff", *argv]),
                "expected": "exit 0, contact", "got": got, "roadmap_item": 3}

    def replay(self, op):
        entry = {"commands": [["lieaff", *argv] for argv in self.commands(op)],
                 "note": "form.json is found.form from the output of the contact step"}
        if op.data == "file":
            entry["algebra"] = fileio.algebra_to_dict(self.algebras[op.base])
        return entry


WORKLOADS = {w.name: w for w in (VerdictScan, LiftSolve, ContactPipeline)}
