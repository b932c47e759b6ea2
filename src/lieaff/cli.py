"""Command-line front end.

Exit codes mean exactly one thing each: 0 = the property the command
evaluates is confirmed, 1 = refuted with exact witnesses printed, 2 = the
inputs violate the command's contract (unreadable files, malformed data,
wrong-shaped forms, preconditions), 3 = internal error: an exception
escaped a command, which is a bug and never a verdict.  All numeric output
is exact rational text; no floating point appears anywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import catalog as cat
from . import fileio
from .extension import (
    LiftData,
    central_extend,
    half_case_residuals,
    is_one_dim_rep,
    solve_lift_trivial,
    solve_lift_with_alpha,
    theorem_verdict,
)
from .fileio import ParseError
from .liecore import KForm, LieAlgebra
from .ratlin import format_rational, parse_rational
from .structures import (
    DEFAULT_SEED,
    affine_from_symplectic,
    contact_test,
    search_contact_form,
    symplectic_check,
    verify_affine,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

MAX_WITNESS_LINES = 12


class CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# formatting helpers (1-based indices at this boundary)

def one_based(tup):
    return tuple(x + 1 for x in tup)


def fmt_vec(vec) -> str:
    return "[" + ", ".join(format_rational(Fraction(x)) for x in vec) + "]"


def _signed_sum(terms) -> str:
    """c1*label1 + c2*label2 - ... over the nonzero (c, label) pairs; "0" if none."""
    text = ""
    for c, label in terms:
        if c == 0:
            continue
        body = label if abs(c) == 1 else f"{format_rational(abs(c))}*{label}"
        sign = "-" if c < 0 else "+"
        text = f"{text} {sign} {body}" if text else ("-" + body if c < 0 else body)
    return text or "0"


def fmt_named(names, vec) -> str:
    return _signed_sum((Fraction(c), names[i]) for i, c in enumerate(vec))


def fmt_form(form: KForm, names) -> str:
    return _signed_sum((c, "^".join(f"{names[i]}*" for i in idx))
                       for idx, c in sorted(form.coeffs.items()))


def print_witnesses(items, render):
    for idx, item in enumerate(items):
        if idx == MAX_WITNESS_LINES:
            print(f"  ... and {len(items) - MAX_WITNESS_LINES} more")
            return
        print("  " + render(item))


def witness_payload(items, value_render):
    return [
        {"at": list(one_based(t)), "value": value_render(v)}
        for t, v in items
    ]


def defect_value_render(v):
    if isinstance(v, list):
        return [format_rational(x) for x in v]
    return format_rational(v)


# ---------------------------------------------------------------------------
# loading helpers

def _load_algebra(path: str) -> LieAlgebra:
    try:
        return fileio.load_algebra(path)
    except (ParseError, OSError) as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from None


def _load_form(path: str, algebra: LieAlgebra, degree: int) -> KForm:
    try:
        form = fileio.load_form(path)
    except (ParseError, OSError) as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from None
    if form.dim != algebra.dim:
        raise CommandError(EXIT_USAGE,
                           f"{path}: form dimension {form.dim} does not match algebra "
                           f"dimension {algebra.dim}")
    if form.degree != degree:
        raise CommandError(EXIT_USAGE, f"{path}: expected a {degree}-form, got degree {form.degree}")
    return form


def _require_lie(algebra: LieAlgebra, path: str) -> None:
    defects = algebra.jacobi_defects()
    if defects:
        (i, j, k), vec = defects[0]
        raise CommandError(
            EXIT_USAGE,
            f"{path}: structure constants violate Jacobi at triple "
            f"{one_based((i, j, k))} with defect {fmt_vec(vec)}",
        )


def _parse_alpha(text: str, dim: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise CommandError(EXIT_USAGE,
                           f"--alpha needs {dim} comma-separated rationals, got {len(parts)}")
    try:
        return [parse_rational(p) for p in parts]
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, f"--alpha: {exc}") from None


# ---------------------------------------------------------------------------
# commands

def cmd_check(args) -> int:
    algebra = _load_algebra(args.algebra)
    defects = algebra.jacobi_defects()
    payload = {"command": "check", "name": algebra.name, "dim": algebra.dim,
               "jacobi": not defects}
    if defects:
        payload["defects"] = witness_payload(defects, defect_value_render)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"jacobi: FAIL ({len(defects)} defect triples)")
            print_witnesses(defects, lambda d: f"{one_based(d[0])}: {fmt_vec(d[1])}")
        return EXIT_REFUTED
    series = algebra.lower_central_series()
    dims = [s.dim for s in series]
    nilpotent = dims[-1] == 0
    center = algebra.center()
    gens = [fmt_named(algebra.basis_names, b) for b in center.basis]
    payload.update({
        "lcs": dims,
        "nilpotent": nilpotent,
        "center_dim": center.dim,
        "center_generators": gens,
    })
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("jacobi: ok")
        print(f"lcs: {dims}")
        print(f"nilpotent: {'yes' if nilpotent else 'no'}")
        print(f"center: dim {center.dim} ({', '.join(gens) if gens else '-'})")
    return EXIT_OK


def cmd_contact(args) -> int:
    algebra = _load_algebra(args.algebra)
    _require_lie(algebra, args.algebra)
    if algebra.dim % 2 == 0:
        raise CommandError(EXIT_USAGE,
                           f"contact test needs odd dimension, algebra has dim {algebra.dim}")
    if args.form:
        form = _load_form(args.form, algebra, 1)
        report = contact_test(algebra, form)
        payload = {"command": "contact", "mode": "form",
                   **fileio.contact_report_to_dict(report)}
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"scalar = {format_rational(report.scalar)}")
            print(f"contact: {'yes' if report.is_contact else 'no'}")
        return EXIT_OK if report.is_contact else EXIT_REFUTED

    try:
        outcome = search_contact_form(algebra, attempts=args.attempts, seed=args.seed)
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from None
    payload = {"command": "contact", "mode": "search", "seed": outcome.seed,
               "random_attempts": outcome.attempts,
               "found": None if outcome.found is None
               else fileio.contact_report_to_dict(outcome.found)}
    if args.json:
        print(json.dumps(payload, indent=2))
        return EXIT_OK if outcome.found else EXIT_REFUTED
    print(f"seed: {outcome.seed}")
    print(f"random attempts used: {outcome.attempts}")
    if outcome.found:
        print(f"contact form: {fmt_form(outcome.found.form, algebra.basis_names)}")
        print(f"scalar = {format_rational(outcome.found.scalar)}")
        return EXIT_OK
    print("no contact form found (probabilistic)")
    return EXIT_REFUTED


def cmd_quotient(args) -> int:
    algebra = _load_algebra(args.algebra)
    _require_lie(algebra, args.algebra)
    if algebra.dim % 2 == 0:
        raise CommandError(EXIT_USAGE, "quotient needs an odd-dimensional contact algebra")
    form = _load_form(args.form, algebra, 1)
    report = contact_test(algebra, form)
    if not report.is_contact:
        raise CommandError(EXIT_USAGE,
                           "form is not a contact form on this algebra (scalar = 0)")
    from .liecore import quotient_by_center
    try:
        quot = quotient_by_center(algebra, form)
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from None
    sym = symplectic_check(quot.algebra, quot.theta)
    payload = {
        "command": "quotient",
        "quotient": fileio.algebra_to_dict(quot.algebra),
        "theta": fileio.form_to_dict(quot.theta),
        "kept_basis": [i + 1 for i in quot.complement],
        "center_generator": [format_rational(x) for x in quot.center_generator],
        "symplectic": {"nondegenerate": sym.nondegenerate, "closed": sym.closed,
                       "rank": sym.rank},
    }
    if args.out:
        fileio.save_algebra(f"{args.out}.algebra.json", quot.algebra)
        fileio.save_form(f"{args.out}.theta.json", quot.theta)
        payload["files"] = [f"{args.out}.algebra.json", f"{args.out}.theta.json"]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"quotient dim: {quot.algebra.dim}")
        print(f"kept basis vectors: {[i + 1 for i in quot.complement]}")
        print(f"center generator: {fmt_named(algebra.basis_names, quot.center_generator)}")
        print(f"theta: {fmt_form(quot.theta, quot.algebra.basis_names)}")
        print(f"symplectic: nondegenerate={'yes' if sym.nondegenerate else 'no'} "
              f"closed={'yes' if sym.closed else 'no'}")
        if args.out:
            print(f"wrote {args.out}.algebra.json and {args.out}.theta.json")
    return EXIT_OK if sym.is_symplectic else EXIT_REFUTED


def _build_nabla(algebra: LieAlgebra, theta: KForm):
    if algebra.dim % 2 != 0:
        raise CommandError(EXIT_USAGE,
                           f"a symplectic form needs even dimension, algebra has dim {algebra.dim}")
    sym = symplectic_check(algebra, theta)
    if not sym.is_symplectic:
        missing = []
        if not sym.nondegenerate:
            missing.append(f"degenerate (rank {sym.rank} < {algebra.dim})")
        if not sym.closed:
            missing.append(f"not closed (first defect at {one_based(sym.defects[0][0])})")
        raise CommandError(EXIT_USAGE, "form is not symplectic: " + "; ".join(missing))
    return affine_from_symplectic(algebra, theta)


def cmd_affine(args) -> int:
    algebra = _load_algebra(args.algebra)
    _require_lie(algebra, args.algebra)
    if algebra.dim % 2 != 0:
        raise CommandError(EXIT_USAGE, "affine structure from a symplectic form needs even dimension")
    theta = _load_form(args.symplectic, algebra, 2)
    nabla = _build_nabla(algebra, theta)
    report = verify_affine(algebra, nabla)
    payload = {
        "command": "affine",
        "product": fileio.product_to_dict(nabla),
        "torsion_defects": len(report.torsion_defects),
        "curvature_defects": len(report.curvature_defects),
    }
    if args.out:
        fileio.save_product(args.out, nabla)
        payload["file"] = args.out
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        names = algebra.basis_names
        if nabla.table:
            for (i, j), col in sorted(nabla.table.items()):
                print(f"nabla({names[i]}, {names[j]}) = {fmt_named(names, col)}")
        else:
            print("nabla = 0")
        print(f"torsion defects: {len(report.torsion_defects)}; "
              f"curvature defects: {len(report.curvature_defects)}")
        if args.out:
            print(f"wrote {args.out}")
    return EXIT_OK if report.is_affine else EXIT_REFUTED


def cmd_extend(args) -> int:
    algebra = _load_algebra(args.algebra)
    _require_lie(algebra, args.algebra)
    if algebra.dim % 2 != 0:
        raise CommandError(EXIT_USAGE,
                           "extension with contact readback needs an even-dimensional base")
    theta = _load_form(args.symplectic, algebra, 2)
    try:
        ext = central_extend(algebra, theta)
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from None
    extended = ext.extended
    report = contact_test(extended, KForm.dual(extended.dim, extended.dim - 1))
    payload = {
        "command": "extend",
        "extension": fileio.algebra_to_dict(extended),
        "contact": fileio.contact_report_to_dict(report),
    }
    if args.out:
        fileio.save_algebra(f"{args.out}.algebra.json", extended)
        payload["files"] = [f"{args.out}.algebra.json"]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        names = extended.basis_names
        print(f"extension dim: {extended.dim} (central vector {names[-1]})")
        for (i, j) in sorted(extended.constants):
            print(f"[{names[i]}, {names[j]}] = "
                  f"{fmt_named(names, extended.bracket_basis(i, j))}")
        print(f"contact scalar for {names[-1]}*: {format_rational(report.scalar)}")
        print(f"contact: {'yes' if report.is_contact else 'no'}")
        if args.out:
            print(f"wrote {args.out}.algebra.json")
    return EXIT_OK if report.is_contact else EXIT_REFUTED


def _condition_witness(w):
    """(at, value), 1-based: an index tuple with its rendered residual, or a
    component tag ("V", i), ("W0",), ("rho",) with None."""
    if isinstance(w[0], tuple):
        return list(one_based(w[0])), defect_value_render(w[1])
    if w[0] == "V":
        return ["V", w[1] + 1], None
    return [w[0]], None


def _condition_payload(verdict):
    return [
        {"name": c.name, "passed": c.passed,
         "witnesses": [{"at": at, "value": value}
                       for at, value in map(_condition_witness, c.witnesses)]}
        for c in verdict.conditions
    ]


def _print_verdict(verdict):
    print(f"case: {verdict.case}")
    for c in verdict.conditions:
        print(f"condition {c.name}: {'pass' if c.passed else 'FAIL'}")
        if not c.passed:
            print_witnesses(c.witnesses, _render_condition_witness)
    print(f"auxiliary product rule a(nabla(x,y)) = a(x)a(y): "
          f"{'holds' if verdict.aux_product_rule_holds else 'FAILS'}")
    if not verdict.aux_product_rule_holds:
        print_witnesses(verdict.aux_witnesses,
                        lambda w: f"{one_based(w[0])}: {format_rational(w[1])}")
    agree = verdict.conditions_hold == verdict.is_affine
    print(f"oracle flat: {'yes' if verdict.is_affine else 'no'}")
    print(f"conditions hold: {'yes' if verdict.conditions_hold else 'no'}")
    print(f"oracle/conditions agreement: {'yes' if agree else 'NO'}")
    for f in verdict.findings:
        print(f"finding: {f}")
    for note in verdict.notes:
        print(f"note: {note}")


def _render_condition_witness(w):
    at, value = _condition_witness(w)
    if value is None:
        return "_".join(str(x) for x in at) + " != 0"
    return f"{tuple(at)}: {value}"


def cmd_lift(args) -> int:
    algebra = _load_algebra(args.algebra)
    _require_lie(algebra, args.algebra)
    theta = _load_form(args.symplectic, algebra, 2)
    nabla = _build_nabla(algebra, theta)
    n = algebra.dim

    if args.half:
        alpha = _parse_alpha(args.alpha, n) if args.alpha else [Fraction(0)] * n
        rep_ok, wit = is_one_dim_rep(algebra, alpha)
        if not rep_ok:
            raise CommandError(
                EXIT_USAGE,
                f"--alpha is not a one-dimensional representation; witness at pair "
                f"{one_based(wit[0][0])} with value {format_rational(wit[0][1])}")
        lift = LiftData.half_cocycle(theta, alpha)
    else:
        if args.alpha:
            raise CommandError(EXIT_USAGE, "--alpha is only valid together with --half")
        try:
            lift = fileio.load_liftdata(args.lift, n)
        except (ParseError, OSError) as exc:
            raise CommandError(EXIT_USAGE, str(exc)) from None

    ext = central_extend(algebra, theta)
    verdict = theorem_verdict(ext, nabla, lift)

    payload = {
        "command": "lift",
        "case": verdict.case,
        "oracle_flat": verdict.is_affine,
        "torsion_defects": witness_payload(verdict.torsion_defects, defect_value_render),
        "curvature_defects": witness_payload(verdict.curvature_defects, defect_value_render),
        "conditions": _condition_payload(verdict),
        "aux_product_rule_holds": verdict.aux_product_rule_holds,
        "aux_witnesses": witness_payload(verdict.aux_witnesses, defect_value_render),
        "conditions_hold": verdict.conditions_hold,
        "agreement": verdict.conditions_hold == verdict.is_affine,
        "findings": verdict.findings,
        "notes": verdict.notes,
    }
    if args.half:
        first, second = half_case_residuals(algebra, theta, lift.V, lift.a)
        payload["half_residuals"] = {
            "vector_relation": witness_payload(first, defect_value_render),
            "scalar_relation": witness_payload(second, defect_value_render),
        }
    if args.json:
        print(json.dumps(payload, indent=2))
        return EXIT_OK if verdict.is_affine else EXIT_REFUTED

    print(f"torsion defects: {len(verdict.torsion_defects)}")
    print_witnesses(verdict.torsion_defects,
                    lambda d: f"{one_based(d[0])}: {fmt_vec(d[1])}")
    print(f"curvature defects: {len(verdict.curvature_defects)}")
    print_witnesses(verdict.curvature_defects,
                    lambda d: f"{one_based(d[0])}: {fmt_vec(d[1])}")
    if args.half:
        print(f"half-case vector relation violations: {len(first)}")
        print_witnesses(first, lambda d: f"{one_based(d[0])}: {fmt_vec(d[1])}")
        print(f"half-case scalar relation violations: {len(second)}")
        print_witnesses(second, lambda d: f"{one_based(d[0])}: {format_rational(d[1])}")
    _print_verdict(verdict)
    return EXIT_OK if verdict.is_affine else EXIT_REFUTED


def cmd_solve_lift(args) -> int:
    algebra = _load_algebra(args.algebra)
    _require_lie(algebra, args.algebra)
    theta = _load_form(args.symplectic, algebra, 2)
    nabla = _build_nabla(algebra, theta)
    n = algebra.dim
    try:
        if args.alpha:
            alpha = _parse_alpha(args.alpha, n)
            result = solve_lift_with_alpha(algebra, theta, nabla, alpha)
        else:
            result = solve_lift_trivial(algebra, theta, nabla)
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from None

    payload = {
        "command": "solve-lift",
        "feasible": result.feasible,
        "dimension": result.dimension if result.feasible else None,
        "particular_symmetric": None if result.particular_sym is None
        else [[format_rational(x) for x in row] for row in result.particular_sym],
        "basis_symmetric": [[[format_rational(x) for x in row] for row in b]
                            for b in result.basis_sym],
        "points": [
            {"flat": pt.flat, "findings": pt.verdict.findings,
             "phi": [[format_rational(x) for x in row] for row in pt.phi]}
            for pt in result.points
        ],
        "gap_candidates": len(result.gap_candidates),
    }
    all_ok = all(pt.flat for pt in result.points)
    if args.json:
        print(json.dumps(payload, indent=2))
        return EXIT_OK if all_ok else EXIT_REFUTED
    if not result.feasible:
        print("no admissible lift: the linear system is infeasible")
        print("solution dimension: empty")
        return EXIT_OK
    print(f"solution dimension: {result.dimension}")
    print("particular symmetric part:")
    for row in result.particular_sym:
        print("  " + fmt_vec(row))
    for bi, b in enumerate(result.basis_sym):
        print(f"basis direction {bi + 1}:")
        for row in b:
            print("  " + fmt_vec(row))
    for pi, pt in enumerate(result.points):
        tag = "flat" if pt.flat else "NOT flat"
        extra = f" findings: {', '.join(pt.verdict.findings)}" if pt.verdict.findings else ""
        print(f"checked point {pi + 1}: oracle {tag}{extra}")
    print(f"theorem-gap candidates: {len(result.gap_candidates)}")
    return EXIT_OK if all_ok else EXIT_REFUTED


def cmd_catalog(args) -> int:
    if args.emit:
        name, path = args.emit
        try:
            entry = cat.get(name)
        except KeyError as exc:
            raise CommandError(EXIT_USAGE, str(exc.args[0])) from None
        fileio.save_algebra(path, entry.algebra)
        if args.json:
            print(json.dumps({"command": "catalog", "emitted": name, "file": path}, indent=2))
        else:
            print(f"wrote {entry.name} (dim {entry.algebra.dim}) to {path}")
        return EXIT_OK
    entries = cat.entries()
    payload = {
        "command": "catalog",
        "entries": [
            {"name": e.name, "dim": e.algebra.dim, "valid": e.valid,
             "contact_form": e.contact_form is not None and fileio.form_to_dict(e.contact_form) or None,
             "symplectic_form": e.symplectic_form is not None and fileio.form_to_dict(e.symplectic_form) or None,
             "note": e.note}
            for e in entries
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    for e in entries:
        flags = []
        if e.contact_form is not None:
            flags.append("contact form")
        if e.symplectic_form is not None:
            flags.append("symplectic form")
        if not e.valid:
            flags.append("INVALID by design")
        flag_text = f" [{'; '.join(flags)}]" if flags else ""
        print(f"{e.name}: dim {e.algebra.dim}{flag_text} - {e.note}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lieaff parser, built on the first call and shared by every later main call."""
    parser = argparse.ArgumentParser(
        prog="lieaff",
        description="Exact verification of affine structures on nilpotent contact Lie algebras",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable JSON output")
        # By name, looked up in this module when main runs: the parser is built
        # once per process, and a command rebound later (a tracer, a test's
        # monkeypatch) is the one that runs.
        p.set_defaults(func=func)
        return p

    p = add("check", "cmd_check", "validate an algebra file: Jacobi, nilpotency, center")
    p.add_argument("algebra")

    p = add("contact", "cmd_contact", "test or search for a contact form")
    p.add_argument("algebra")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--form", help="1-form file to test")
    g.add_argument("--search", action="store_true", help="seeded search for a contact form")
    p.add_argument("--attempts", type=int, default=200, help="random attempts for --search")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for --search")

    p = add("quotient", "cmd_quotient", "quotient a contact algebra by its center")
    p.add_argument("algebra")
    p.add_argument("--form", required=True, help="contact 1-form file")
    p.add_argument("--out", help="output prefix for .algebra.json / .theta.json")

    p = add("affine", "cmd_affine", "derive the affine structure from a symplectic form")
    p.add_argument("algebra")
    p.add_argument("--symplectic", required=True, help="symplectic 2-form file")
    p.add_argument("--out", help="write the product table to this file")

    p = add("extend", "cmd_extend", "central extension by a closed 2-form")
    p.add_argument("algebra")
    p.add_argument("--symplectic", required=True, help="closed 2-form file")
    p.add_argument("--out", help="output prefix for .algebra.json")

    p = add("lift", "cmd_lift", "test a lifted product on the central extension")
    p.add_argument("algebra")
    p.add_argument("--symplectic", required=True, help="symplectic 2-form file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--half", action="store_true",
                   help="use phi = theta/2, V = W0 = 0, rho = 0")
    g.add_argument("--lift", help="lift-data JSON file")
    p.add_argument("--alpha", help="comma-separated central form values (with --half)")

    p = add("solve-lift", "cmd_solve_lift", "solve for all admissible lifted products")
    p.add_argument("algebra")
    p.add_argument("--symplectic", required=True, help="symplectic 2-form file")
    p.add_argument("--alpha", help="comma-separated central form values")

    p = add("catalog", "cmd_catalog", "list built-in algebras or emit one to a file")
    p.add_argument("--emit", nargs=2, metavar=("NAME", "FILE"),
                   help="write the named entry to FILE")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our convention
        return int(exc.code) if exc.code else 0
    try:
        return globals()[args.func](args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A bug, not a verdict: exit 1 would read as "refuted".
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())
