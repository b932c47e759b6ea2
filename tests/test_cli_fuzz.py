"""The CLI exit-code contract under fuzzed input files and arguments.

Each example runs one lieaff command line, in text and in --json mode, on
files drawn from valid ones (catalog entries, random lift data, random
sparse algebras, all of dimension at most 9) and then possibly mutated: a
value replaced by a stray one (wrong degrees, shapes and indices), a key or
an element dropped, the text truncated, or bytes that are not UTF-8 put in.
Whatever the input, main returns 0, 1 or 2, never 3 and never by raising;
exit 2 prints nothing on stdout; exit 1 carries its witnesses in the payload.
"""

import contextlib
import io
import json
import os
import random
import tempfile

from hypothesis import example, given, settings, strategies as st

from lieaff import cli, fileio
from lieaff.catalog import entries, get
from lieaff.extension import LiftData, random_lift_data
from lieaff.liecore import KForm, LieAlgebra

MAX_DIM = 9


rational_text = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2", "1/0", "0.5", "x", "", "1e3"])
leaves = st.one_of(st.none(), st.booleans(), st.integers(-1, MAX_DIM), rational_text)
stray = st.one_of(leaves, st.lists(leaves, max_size=3),
                  st.dictionaries(st.sampled_from(["i", "j", "k", "c", "idx", "dim"]), leaves,
                                  max_size=2))


@st.composite
def sparse_algebras(draw):
    """A random sparse table: usually not Jacobi, sometimes nilpotent."""
    n = draw(st.integers(1, MAX_DIM))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    constants = {p: draw(st.dictionaries(st.integers(0, n - 1), st.integers(-2, 2), max_size=2))
                 for p in chosen}
    return LieAlgebra(dim=n, constants=constants)


def _group(algebra: LieAlgebra, theta=None) -> dict:
    """Documents for an algebra with a 1-form, a 2-form and lift data of its dimension."""
    n = algebra.dim
    if theta is None and n > 1:
        theta = KForm(2, n, {(2 * m, 2 * m + 1): 1 for m in range(n // 2)})
    lift = None
    if theta is not None:
        lift = random_lift_data(random.Random(n), theta, "perturbed")
    return {"algebra": fileio.algebra_to_dict(algebra),
            "omega": fileio.form_to_dict(KForm.dual(n, n - 1)),
            "theta": None if theta is None else fileio.form_to_dict(theta),
            "lift": None if lift is None else fileio.liftdata_to_dict(lift)}


def _documents():
    """name -> {"algebra", "omega", "theta", "lift"} JSON documents, theta and lift
    None only in dimension 1."""
    docs = {e.name: _group(e.algebra, e.symplectic_form) for e in entries()}
    for name in ("h3", "h5", "h7", "n4ext"):
        docs[name]["omega"] = fileio.form_to_dict(get(name).contact_form)
    h9 = LieAlgebra(dim=9, constants={(2 * m, 2 * m + 1): {8: 1} for m in range(4)}, name="h9")
    docs["h9"] = _group(h9)
    docs["r1"] = _group(LieAlgebra(dim=1, name="r1"))
    half = LiftData.half_cocycle(get("n4").symplectic_form, [0, 1, 0, 0])
    docs["n4-half"] = {**docs["n4"], "lift": fileio.liftdata_to_dict(half)}
    return docs


DOCS = _documents()

def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """The document as file bytes, after up to two structural edits and maybe a byte edit."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(stray)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(stray)
        else:
            del parent[path[-1]]
    data = json.dumps(doc).encode("utf-8")
    edit = draw(st.sampled_from(["none", "none", "truncate", "latin1", "utf16"]))
    if edit == "truncate":
        data = data[:draw(st.integers(0, max(len(data) - 1, 0)))]
    elif edit == "latin1":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    elif edit == "utf16":
        data = data.decode("utf-8").encode("utf-16")
    return data


@st.composite
def alphas(draw):
    text = st.one_of(st.just(""), st.text("0123456789/-, x", max_size=12),
                     st.lists(rational_text, min_size=1, max_size=MAX_DIM).map(",".join))
    return draw(st.one_of(st.none(), text))


@st.composite
def invocations(draw):
    """(argv without --json, {file name: bytes}) for one command line."""
    name = draw(st.sampled_from(sorted(DOCS)))
    group = DOCS[name]
    if draw(st.integers(0, 3)) == 0:
        group = _group(draw(sparse_algebras()))
    spare = DOCS["r2"]
    mutate = draw(st.sampled_from([None, "algebra", "omega", "theta", "lift"]))
    files = {}
    for kind, doc in group.items():
        doc = spare[kind] if doc is None else doc
        files[f"{kind}.json"] = (draw(mutated(doc)) if kind == mutate
                                 else json.dumps(doc, indent=2).encode("utf-8"))

    out = draw(st.sampled_from(["out", "/nonexistent/dir/out"]))
    alpha = draw(alphas())
    alpha_args = [] if alpha is None else [f"--alpha={alpha}"]
    sym = ["algebra.json", "--symplectic", "theta.json"]
    argv = draw(st.sampled_from([
        ["check", "algebra.json"],
        ["contact", "algebra.json", "--search", "--attempts", "5"],
        ["contact", "algebra.json", "--form", "omega.json"],
        ["quotient", "algebra.json", "--form", "omega.json", "--out", out],
        ["affine", *sym, "--out", out + ".json"],
        ["extend", *sym, "--out", out],
        ["lift", *sym, "--half", *alpha_args],
        ["lift", *sym, "--lift", "lift.json"],
        ["solve-lift", *sym, *alpha_args],
        ["catalog", "--emit", name, out + ".json"],
    ]))
    return argv, files


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def witnessed(payload) -> bool:
    """Whether a refuting payload carries what refutes it."""
    command = payload["command"]
    if command == "check":
        return bool(payload["defects"])
    if command == "contact":
        if payload["mode"] == "search":
            return payload["found"] is None
        return payload["contact"] is False
    if command == "quotient":
        return not (payload["symplectic"]["nondegenerate"] and payload["symplectic"]["closed"])
    if command == "affine":
        return payload["torsion_defects"] + payload["curvature_defects"] > 0
    if command == "extend":
        return payload["contact"]["contact"] is False
    if command == "lift":
        return payload["oracle_flat"] is False and bool(
            payload["torsion_defects"] or payload["curvature_defects"])
    if command == "solve-lift":
        return any(not point["flat"] for point in payload["points"])
    return False


def check_contract(argv, files):
    with tempfile.TemporaryDirectory() as directory:
        for name, data in files.items():
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(data)
        previous = os.getcwd()
        os.chdir(directory)
        try:
            text = run(argv)
            as_json = run(argv + ["--json"])
        finally:
            os.chdir(previous)
    for code, out, err in (text, as_json):
        assert code in (0, 1, 2), (argv, code, err)
        if code == 2:
            assert out == "" and err.startswith("error: "), (argv, out, err)
        else:
            assert out and err == "", (argv, err)
    assert text[0] == as_json[0], argv
    if as_json[0] == 1:
        assert witnessed(json.loads(as_json[1])), argv


ONE_DIM = {"algebra.json": b'{"dim": 1}',
           "omega.json": b'{"degree": 1, "dim": 1, "coeffs": [{"idx": [1], "c": "1"}]}'}


@given(invocations())
@settings(max_examples=200, deadline=None)
# Inputs that once exited 3: an integer literal past Python's digit limit and
# nesting past the recursion limit (both escaped the JSON loader), and the
# contact test in dimension 1 (it built a 2-form there).
@example((["check", "algebra.json"], {"algebra.json": b'{"dim": 2, "c": ' + b"9" * 5000 + b"}"}))
@example((["check", "algebra.json"], {"algebra.json": b"[" * 100000}))
@example((["contact", "algebra.json", "--form", "omega.json"], ONE_DIM))
@example((["contact", "algebra.json", "--search"], ONE_DIM))
@example((["quotient", "algebra.json", "--form", "omega.json"], ONE_DIM))
def test_cli_contract_holds_on_fuzzed_inputs(invocation):
    check_contract(*invocation)
