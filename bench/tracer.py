"""Outside-in tracer for lieaff: wraps public functions from the benchmark's side.

Nothing inside the package is instrumented.  Each traced function is
replaced by a wrapper at every place it is bound: its defining module, every
other ``lieaff`` module that imported it with ``from .x import y`` (under any
alias), and the package namespace.  Methods are replaced on their class.
Leaving the ``with`` block puts every original back.

Timed functions record spans ``[name, start, end, parent]`` in memory.  Hot
functions are only counted, so that tracing them stays cheap; their time is
part of the self time of the span that called them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# Timed functions per module.  A dotted name is a method, patched on its class.
# Public functions that no workload calls (solve-lift from the command line,
# catalog listing, product and lift-data files) are left out.
TIMED = {
    "ratlin": ["solve_linear", "kernel_basis", "rank", "invert", "echelon_basis"],
    "liecore": ["LieAlgebra.jacobi_defects", "LieAlgebra.center",
                "LieAlgebra.lower_central_series", "cocycle_defects", "differential",
                "quotient_by_center"],
    "structures": ["contact_test", "wedge_eval_top", "search_contact_form", "symplectic_check",
                   "affine_from_symplectic", "verify_affine", "defining_relation_defects"],
    "extension": ["central_extend", "build_lift", "lift_report", "theorem_verdict",
                  "is_one_dim_rep", "half_case_residuals", "solve_lift_trivial",
                  "solve_lift_with_alpha"],
    "fileio": ["load_algebra", "load_form", "save_algebra", "save_form"],
    "cli": ["main", "cmd_check", "cmd_contact", "cmd_quotient", "cmd_affine", "cmd_extend",
            "cmd_lift", "cmd_catalog"],
    "catalog": ["get"],
}

# Hot functions: counted, never timed.  Value is the counter name.
COUNTED = {
    ("liecore", "LieAlgebra.bracket"): "liecore.bracket.calls",
    ("structures", "curvature"): "structures.curvature.calls",
    ("structures", "BilinearProduct.apply"): "structures.apply.calls",
}

# CLI subcommands are reported by their command-line names.
CLI_COMMANDS = {
    "cmd_check": "check", "cmd_contact": "contact", "cmd_quotient": "quotient",
    "cmd_affine": "affine", "cmd_extend": "extend", "cmd_lift": "lift",
    "cmd_catalog": "catalog",
}

def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _max_bits(vectors) -> int:
    return max((_bits(x) for v in vectors for x in v), default=0)


def _ratlin_shape(name, args):
    if name == "echelon_basis":
        return len(args[0]) * args[1]
    return args[0].rows * args[0].cols


def _ratlin_result_bits(name, result):
    if name == "solve_linear":
        vecs = list(result.kernel)
        if result.particular is not None:
            vecs.append(result.particular)
        return _max_bits(vecs)
    if name == "invert":
        return _max_bits([result.entries])
    if name in ("kernel_basis", "echelon_basis"):
        return _max_bits(result)
    return 0


class Tracer:
    """Context manager that patches lieaff, records spans and counters, then restores."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.max_bits = 0
        self._stack = []
        self._patches = []

    # -- hooks that derive counters from arguments and results ------------------

    def _after(self, module, func, args, result):
        c = self.counters
        if module == "ratlin":
            c["ratlin.cells"] += _ratlin_shape(func, args)
            self.max_bits = max(self.max_bits, _ratlin_result_bits(func, result))
        elif module == "fileio":
            path = args[0]
            if os.path.exists(path):
                c["fileio.bytes"] += os.path.getsize(path)
        elif func in ("solve_lift_trivial", "solve_lift_with_alpha"):
            c["extension.points_checked"] += len(result.points)
            c["extension.infeasible"] += not result.feasible
        elif func == "theorem_verdict":
            c["extension.gap_findings"] += result.findings.count("theorem-gap")

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, module, func, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label = f"{module}.{func}"
        after = self._after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label, clock(), 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            after(module, func, args, result)
            return result

        return wrapper

    def _counted(self, counter, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, module, func, make):
        mod = sys.modules[f"lieaff.{module}"]
        if "." in func:
            cls_name, meth = func.split(".")
            cls = getattr(mod, cls_name)
            self._set(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(mod, func)
        wrapper = make(original)
        for other in binding_sites():
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._set(other, attr, wrapper)

    def __enter__(self):
        import lieaff.cli  # noqa: F401  (load every module before scanning bindings)

        for module, funcs in TIMED.items():
            for func in funcs:
                self._patch(module, func,
                            lambda fn, m=module, f=func: self._timed(m, f, fn))
        for (module, func), counter in COUNTED.items():
            self._patch(module, func, lambda fn, c=counter: self._counted(c, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results ----------------------------------------------------------------

    def summary(self):
        """Busy, self and call totals per span name, and self time per module.

        Busy time counts only the outermost span of a name, so recursion is
        not counted twice.  Self time is a span's duration minus its children's.
        """
        spans = self.spans
        busy, calls = Counter(), Counter()
        self_time = [e - s for _, s, e, _ in spans]
        for idx, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            if parent is not None:
                self_time[parent] -= end - start
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                busy[name] += end - start
        module_self = Counter()
        for (name, _, _, _), t in zip(spans, self_time):
            module_self[name.split(".", 1)[0]] += t
        roots = sum(e - s for _, s, e, parent in spans if parent is None)
        return {"busy": busy, "calls": calls, "module_self": module_self, "roots": roots}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counters": dict(self.counters), "ratlin.max_bits": self.max_bits},
                      fh, separators=(",", ":"))


def binding_sites():
    """The lieaff package and all of its loaded submodules."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lieaff" or name.startswith("lieaff."))]


def layer_metrics(tracer, ops, op_seconds):
    """Per-layer metrics, every one normalised per traced op.

    ops is the number of traced ops and op_seconds their summed wall time;
    whatever the module self times do not cover is the benchmark's own share.
    """
    s = tracer.summary()
    per = 1.0 / ops
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for module, funcs in TIMED.items():
        for func in funcs:
            label = f"{module}.{func}"
            if module == "cli":
                if func in CLI_COMMANDS:
                    put(f"cli.{CLI_COMMANDS[func]}.busy_s", s["busy"][label] * per, "s/op")
                continue
            put(f"{label}.calls", s["calls"][label] * per, "count/op")
            put(f"{label}.busy_s", s["busy"][label] * per, "s/op")
        put(f"{module}.self_s", s["module_self"][module] * per, "s/op")
    for counter in COUNTED.values():
        put(counter, tracer.counters[counter] * per, "count/op")
    put("ratlin.cells", tracer.counters["ratlin.cells"] * per, "count/op")
    put("ratlin.max_bits", tracer.max_bits, "bits")
    for name in ("extension.points_checked", "extension.infeasible",
                 "extension.gap_findings"):
        put(name, tracer.counters[name] * per, "count/op")
    put("fileio.bytes", tracer.counters["fileio.bytes"] * per, "B/op")
    put("bench.self_s", (op_seconds - s["roots"]) * per, "s/op")
    return out
