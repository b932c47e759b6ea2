"""Command-line front end.

Each command computes one payload, a JSON-ready dict, and that payload is its
output: --json prints it as JSON, and otherwise the command's TEXT renderer
prints the same facts as lines.  A renderer reads nothing but the payload
and the basis names of the input algebra, which the payload leaves to the
indices.

Exit codes mean exactly one thing each: 0 = the property the command
evaluates is confirmed, 1 = refuted with exact witnesses printed, 2 = the
inputs violate the command's contract (unreadable or unwritable files,
malformed data, wrong-shaped forms, preconditions), 3 = internal error: an
exception escaped a command, which is a bug and never a verdict.  All
numeric output is exact rational text; no floating point appears anywhere.
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
from .liecore import KForm, LieAlgebra, cocycle_defects, quotient_by_center
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
# payload pieces (1-based indices, exact rational text)

def one_based(tup):
    return tuple(x + 1 for x in tup)


def rationals(values) -> list:
    return [format_rational(x) for x in values]


def _witness(w) -> dict:
    """{"at", "value"}: an index tuple with its exact value (a rational or a
    vector of them), or a component tag ("V", i), ("W0",), ("rho",) with None."""
    if isinstance(w[0], tuple):
        value = w[1]
        return {"at": list(one_based(w[0])),
                "value": rationals(value) if isinstance(value, list) else format_rational(value)}
    return {"at": ["V", w[1] + 1] if w[0] == "V" else [w[0]], "value": None}


def witnesses(items) -> list:
    return [_witness(w) for w in items]


# ---------------------------------------------------------------------------
# text rendering of payload pieces

def _yes(flag) -> str:
    return "yes" if flag else "no"


def _vec_text(values) -> str:
    return "[" + ", ".join(values) + "]"


def _witness_lines(items):
    """One line per payload witness, the first MAX_WITNESS_LINES of them."""
    for w in items[:MAX_WITNESS_LINES]:
        at, value = w["at"], w["value"]
        if value is None:
            yield "  " + "_".join(str(x) for x in at) + " != 0"
        else:
            yield f"  {tuple(at)}: {_vec_text(value) if isinstance(value, list) else value}"
    if len(items) > MAX_WITNESS_LINES:
        yield f"  ... and {len(items) - MAX_WITNESS_LINES} more"


def _signed_sum(terms) -> str:
    """c1*label1 + c2*label2 - ... over (rational text, label) pairs; "0" if all vanish."""
    text = ""
    for c, label in terms:
        if c == "0":
            continue
        negative = c.startswith("-")
        magnitude = c[1:] if negative else c
        body = label if magnitude == "1" else f"{magnitude}*{label}"
        if text:
            text = f"{text} {'-' if negative else '+'} {body}"
        else:
            text = "-" + body if negative else body
    return text or "0"


def fmt_named(names, values) -> str:
    return _signed_sum(zip(values, names))


def fmt_form(form: dict, names) -> str:
    """A form_to_dict payload as a signed sum of wedges of dual basis vectors."""
    return _signed_sum((t["c"], "^".join(f"{names[i - 1]}*" for i in t["idx"]))
                       for t in form["coeffs"])


def _emit(args, code: int, payload: dict, names=()) -> int:
    """Print the payload, as JSON with --json and as its TEXT lines otherwise."""
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in TEXT[payload["command"]](payload, names):
            print(line)
    return code


# ---------------------------------------------------------------------------
# inputs and outputs

def _usage(call, *args, **kwargs):
    """call(*args, **kwargs), where a ValueError or OSError means the inputs break
    the command's contract: a file that cannot be read, parsed or written, or
    a precondition the call checks."""
    try:
        return call(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise CommandError(EXIT_USAGE, str(exc)) from None


def _load_lie(path: str) -> LieAlgebra:
    algebra = _usage(fileio.load_algebra, path)
    defects = algebra.jacobi_defects()
    if defects:
        w = _witness(defects[0])
        raise CommandError(
            EXIT_USAGE,
            f"{path}: structure constants violate Jacobi at triple "
            f"{tuple(w['at'])} with defect {_vec_text(w['value'])}",
        )
    return algebra


def _load_form(path: str, algebra: LieAlgebra, degree: int) -> KForm:
    form = _usage(fileio.load_form, path)
    if form.dim != algebra.dim:
        raise CommandError(EXIT_USAGE,
                           f"{path}: form dimension {form.dim} does not match algebra "
                           f"dimension {algebra.dim}")
    if form.degree != degree:
        raise CommandError(EXIT_USAGE, f"{path}: expected a {degree}-form, got degree {form.degree}")
    return form


def _parse_alpha(text: str, algebra: LieAlgebra):
    """The --alpha values: one rational per basis vector, vanishing on every bracket."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != algebra.dim:
        raise CommandError(EXIT_USAGE, f"--alpha needs {algebra.dim} comma-separated "
                                       f"rationals, got {len(parts)}")
    try:
        alpha = [parse_rational(p) for p in parts]
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, f"--alpha: {exc}") from None
    rep_ok, wit = is_one_dim_rep(algebra, alpha)
    if not rep_ok:
        raise CommandError(
            EXIT_USAGE,
            f"--alpha is not a one-dimensional representation; witness at pair "
            f"{one_based(wit[0][0])} with value {format_rational(wit[0][1])}")
    return alpha


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


# ---------------------------------------------------------------------------
# commands: each computes its payload and ends in _emit

def cmd_check(args) -> int:
    algebra = _usage(fileio.load_algebra, args.algebra)
    defects = algebra.jacobi_defects()
    payload = {"command": "check", "name": algebra.name, "dim": algebra.dim,
               "jacobi": not defects}
    if defects:
        payload["defects"] = witnesses(defects)
        return _emit(args, EXIT_REFUTED, payload)
    dims = [s.dim for s in algebra.lower_central_series()]
    center = algebra.center()
    payload.update({
        "lcs": dims,
        "nilpotent": dims[-1] == 0,
        "center_dim": center.dim,
        "center_generators": [fmt_named(algebra.basis_names, rationals(b)) for b in center.basis],
    })
    return _emit(args, EXIT_OK, payload)


def cmd_contact(args) -> int:
    algebra = _load_lie(args.algebra)
    if algebra.dim % 2 == 0:
        raise CommandError(EXIT_USAGE,
                           f"contact test needs odd dimension, algebra has dim {algebra.dim}")
    if args.form:
        report = contact_test(algebra, _load_form(args.form, algebra, 1))
        payload = {"command": "contact", "mode": "form",
                   **fileio.contact_report_to_dict(report)}
        return _emit(args, EXIT_OK if report.is_contact else EXIT_REFUTED, payload)
    outcome = _usage(search_contact_form, algebra, attempts=args.attempts, seed=args.seed)
    payload = {"command": "contact", "mode": "search", "seed": outcome.seed,
               "random_attempts": outcome.attempts,
               "found": None if outcome.found is None
               else fileio.contact_report_to_dict(outcome.found)}
    return _emit(args, EXIT_OK if outcome.found else EXIT_REFUTED, payload,
                 algebra.basis_names)


def cmd_quotient(args) -> int:
    algebra = _load_lie(args.algebra)
    if algebra.dim % 2 == 0:
        raise CommandError(EXIT_USAGE, "quotient needs an odd-dimensional contact algebra")
    form = _load_form(args.form, algebra, 1)
    if not contact_test(algebra, form).is_contact:
        raise CommandError(EXIT_USAGE,
                           "form is not a contact form on this algebra (scalar = 0)")
    quot = _usage(quotient_by_center, algebra, form)
    sym = symplectic_check(quot.algebra, quot.theta)
    payload = {
        "command": "quotient",
        "quotient": fileio.algebra_to_dict(quot.algebra),
        "theta": fileio.form_to_dict(quot.theta),
        "kept_basis": [i + 1 for i in quot.complement],
        "center_generator": rationals(quot.center_generator),
        "symplectic": {"nondegenerate": sym.nondegenerate, "closed": sym.closed,
                       "rank": sym.rank},
    }
    if args.out:
        payload["files"] = [f"{args.out}.algebra.json", f"{args.out}.theta.json"]
        _usage(fileio.save_algebra, payload["files"][0], quot.algebra)
        _usage(fileio.save_form, payload["files"][1], quot.theta)
    return _emit(args, EXIT_OK if sym.is_symplectic else EXIT_REFUTED, payload,
                 algebra.basis_names)


def cmd_affine(args) -> int:
    algebra = _load_lie(args.algebra)
    if algebra.dim % 2 != 0:
        raise CommandError(EXIT_USAGE, "affine structure from a symplectic form needs even dimension")
    nabla = _build_nabla(algebra, _load_form(args.symplectic, algebra, 2))
    report = verify_affine(algebra, nabla)
    payload = {
        "command": "affine",
        "product": fileio.product_to_dict(nabla),
        "torsion_defects": len(report.torsion_defects),
        "curvature_defects": len(report.curvature_defects),
    }
    if args.out:
        payload["file"] = args.out
        _usage(fileio.save_product, args.out, nabla)
    return _emit(args, EXIT_OK if report.is_affine else EXIT_REFUTED, payload,
                 algebra.basis_names)


def cmd_extend(args) -> int:
    algebra = _load_lie(args.algebra)
    if algebra.dim % 2 != 0:
        raise CommandError(EXIT_USAGE,
                           "extension with contact readback needs an even-dimensional base")
    theta = _load_form(args.symplectic, algebra, 2)
    defects = cocycle_defects(algebra, theta)
    if defects:
        raise CommandError(EXIT_USAGE,
                           f"2-form is not closed (first defect at triple "
                           f"{one_based(defects[0][0])}); the extension would violate Jacobi")
    ext = _usage(central_extend, algebra, theta, assume_closed=True)
    payload = {
        "command": "extend",
        "extension": fileio.algebra_to_dict(ext.extended),
        "contact": fileio.contact_report_to_dict(ext.contact),
    }
    if args.out:
        payload["files"] = [f"{args.out}.algebra.json"]
        _usage(fileio.save_algebra, payload["files"][0], ext.extended)
    return _emit(args, EXIT_OK if ext.contact.is_contact else EXIT_REFUTED, payload)


def cmd_lift(args) -> int:
    algebra = _load_lie(args.algebra)
    theta = _load_form(args.symplectic, algebra, 2)
    nabla = _build_nabla(algebra, theta)
    n = algebra.dim
    if args.half:
        alpha = _parse_alpha(args.alpha, algebra) if args.alpha else [Fraction(0)] * n
        lift = LiftData.half_cocycle(theta, alpha)
    else:
        if args.alpha:
            raise CommandError(EXIT_USAGE, "--alpha is only valid together with --half")
        lift = _usage(fileio.load_liftdata, args.lift, n)

    verdict = theorem_verdict(central_extend(algebra, theta), nabla, lift)
    payload = {
        "command": "lift",
        "case": verdict.case,
        "oracle_flat": verdict.is_affine,
        "torsion_defects": witnesses(verdict.torsion_defects),
        "curvature_defects": witnesses(verdict.curvature_defects),
        "conditions": [{"name": c.name, "passed": c.passed, "witnesses": witnesses(c.witnesses)}
                       for c in verdict.conditions],
        "aux_product_rule_holds": verdict.aux_product_rule_holds,
        "aux_witnesses": witnesses(verdict.aux_witnesses),
        "conditions_hold": verdict.conditions_hold,
        "agreement": verdict.conditions_hold == verdict.is_affine,
        "findings": verdict.findings,
        "notes": verdict.notes,
    }
    if args.half:
        first, second = half_case_residuals(algebra, theta, lift.V, lift.a)
        payload["half_residuals"] = {"vector_relation": witnesses(first),
                                     "scalar_relation": witnesses(second)}
    return _emit(args, EXIT_OK if verdict.is_affine else EXIT_REFUTED, payload)


def cmd_solve_lift(args) -> int:
    algebra = _load_lie(args.algebra)
    theta = _load_form(args.symplectic, algebra, 2)
    nabla = _build_nabla(algebra, theta)
    if args.alpha:
        alpha = _parse_alpha(args.alpha, algebra)
        result = _usage(solve_lift_with_alpha, algebra, theta, nabla, alpha)
    else:
        result = _usage(solve_lift_trivial, algebra, theta, nabla)
    payload = {
        "command": "solve-lift",
        "feasible": result.feasible,
        "dimension": result.dimension if result.feasible else None,
        "particular_symmetric": None if result.particular_sym is None
        else [rationals(row) for row in result.particular_sym],
        "basis_symmetric": [[rationals(row) for row in b] for b in result.basis_sym],
        "points": [{"flat": pt.flat, "findings": pt.verdict.findings,
                    "phi": [rationals(row) for row in pt.phi]}
                   for pt in result.points],
        "gap_candidates": len(result.gap_candidates),
    }
    flat = all(pt.flat for pt in result.points)
    return _emit(args, EXIT_OK if flat else EXIT_REFUTED, payload)


def cmd_catalog(args) -> int:
    if args.emit:
        name, path = args.emit
        try:
            entry = cat.get(name)
        except KeyError as exc:
            raise CommandError(EXIT_USAGE, str(exc.args[0])) from None
        _usage(fileio.save_algebra, path, entry.algebra)
        # The text names the dimension, that is the number of basis names.
        return _emit(args, EXIT_OK, {"command": "catalog", "emitted": name, "file": path},
                     entry.algebra.basis_names)
    payload = {
        "command": "catalog",
        "entries": [
            {"name": e.name, "dim": e.algebra.dim, "valid": e.valid,
             "contact_form": None if e.contact_form is None
             else fileio.form_to_dict(e.contact_form),
             "symplectic_form": None if e.symplectic_form is None
             else fileio.form_to_dict(e.symplectic_form),
             "note": e.note}
            for e in cat.entries()
        ],
    }
    return _emit(args, EXIT_OK, payload)


# ---------------------------------------------------------------------------
# text renderers: payload (and input basis names) -> lines

def _check_text(p, names):
    if not p["jacobi"]:
        yield f"jacobi: FAIL ({len(p['defects'])} defect triples)"
        yield from _witness_lines(p["defects"])
        return
    gens = p["center_generators"]
    yield "jacobi: ok"
    yield f"lcs: {p['lcs']}"
    yield f"nilpotent: {_yes(p['nilpotent'])}"
    yield f"center: dim {p['center_dim']} ({', '.join(gens) if gens else '-'})"


def _contact_text(p, names):
    if p["mode"] == "form":
        yield f"scalar = {p['scalar']}"
        yield f"contact: {_yes(p['contact'])}"
        return
    found = p["found"]
    yield f"seed: {p['seed']}"
    yield f"random attempts used: {p['random_attempts']}"
    if found is None:
        yield "no contact form found (probabilistic)"
    else:
        yield f"contact form: {fmt_form(found['form'], names)}"
        yield f"scalar = {found['scalar']}"


def _quotient_text(p, names):
    quot, sym = p["quotient"], p["symplectic"]
    yield f"quotient dim: {quot['dim']}"
    yield f"kept basis vectors: {p['kept_basis']}"
    yield f"center generator: {fmt_named(names, p['center_generator'])}"
    yield f"theta: {fmt_form(p['theta'], quot['basis'])}"
    yield f"symplectic: nondegenerate={_yes(sym['nondegenerate'])} closed={_yes(sym['closed'])}"
    if "files" in p:
        yield f"wrote {' and '.join(p['files'])}"


def _affine_text(p, names):
    table = p["product"]["table"]
    for row in table:
        yield (f"nabla({names[row['i'] - 1]}, {names[row['j'] - 1]}) = "
               f"{fmt_named(names, row['value'])}")
    if not table:
        yield "nabla = 0"
    yield f"torsion defects: {p['torsion_defects']}; curvature defects: {p['curvature_defects']}"
    if "file" in p:
        yield f"wrote {p['file']}"


def _extend_text(p, names):
    ext, contact = p["extension"], p["contact"]
    names = ext["basis"]
    yield f"extension dim: {ext['dim']} (central vector {names[-1]})"
    for b in ext["brackets"]:
        value = _signed_sum((t["c"], names[t["k"] - 1]) for t in b["terms"])
        yield f"[{names[b['i'] - 1]}, {names[b['j'] - 1]}] = {value}"
    yield f"contact scalar for {names[-1]}*: {contact['scalar']}"
    yield f"contact: {_yes(contact['contact'])}"
    if "files" in p:
        yield f"wrote {p['files'][0]}"


def _lift_text(p, names):
    yield f"torsion defects: {len(p['torsion_defects'])}"
    yield from _witness_lines(p["torsion_defects"])
    yield f"curvature defects: {len(p['curvature_defects'])}"
    yield from _witness_lines(p["curvature_defects"])
    if "half_residuals" in p:
        for key, label in (("vector_relation", "vector"), ("scalar_relation", "scalar")):
            items = p["half_residuals"][key]
            yield f"half-case {label} relation violations: {len(items)}"
            yield from _witness_lines(items)
    yield f"case: {p['case']}"
    for c in p["conditions"]:
        yield f"condition {c['name']}: {'pass' if c['passed'] else 'FAIL'}"
        if not c["passed"]:
            yield from _witness_lines(c["witnesses"])
    holds = p["aux_product_rule_holds"]
    yield f"auxiliary product rule a(nabla(x,y)) = a(x)a(y): {'holds' if holds else 'FAILS'}"
    if not holds:
        yield from _witness_lines(p["aux_witnesses"])
    yield f"oracle flat: {_yes(p['oracle_flat'])}"
    yield f"conditions hold: {_yes(p['conditions_hold'])}"
    yield f"oracle/conditions agreement: {'yes' if p['agreement'] else 'NO'}"
    yield from (f"finding: {f}" for f in p["findings"])
    yield from (f"note: {note}" for note in p["notes"])


def _solve_lift_text(p, names):
    if not p["feasible"]:
        yield "no admissible lift: the linear system is infeasible"
        yield "solution dimension: empty"
        return
    yield f"solution dimension: {p['dimension']}"
    yield "particular symmetric part:"
    yield from ("  " + _vec_text(row) for row in p["particular_symmetric"])
    for number, b in enumerate(p["basis_symmetric"], 1):
        yield f"basis direction {number}:"
        yield from ("  " + _vec_text(row) for row in b)
    for number, pt in enumerate(p["points"], 1):
        extra = f" findings: {', '.join(pt['findings'])}" if pt["findings"] else ""
        yield f"checked point {number}: oracle {'flat' if pt['flat'] else 'NOT flat'}{extra}"
    yield f"theorem-gap candidates: {p['gap_candidates']}"


def _catalog_text(p, names):
    if "emitted" in p:
        yield f"wrote {p['emitted']} (dim {len(names)}) to {p['file']}"
        return
    for e in p["entries"]:
        flags = [label for key, label in (("contact_form", "contact form"),
                                          ("symplectic_form", "symplectic form"))
                 if e[key] is not None]
        if not e["valid"]:
            flags.append("INVALID by design")
        flag_text = f" [{'; '.join(flags)}]" if flags else ""
        yield f"{e['name']}: dim {e['dim']}{flag_text} - {e['note']}"


TEXT = {"check": _check_text, "contact": _contact_text, "quotient": _quotient_text,
        "affine": _affine_text, "extend": _extend_text, "lift": _lift_text,
        "solve-lift": _solve_lift_text, "catalog": _catalog_text}


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
    except Exception as exc:
        # A bug, not a verdict: exit 1 would read as "refuted".
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())
