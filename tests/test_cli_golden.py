"""The lieaff CLI against a recorded transcript of catalog pipelines.

tests/data/cli_golden.json holds the input files and, for each command line
in text and --json mode, the exit code, stdout and stderr.  The commands run
in order in an empty working directory, so files one step writes (--emit,
--out) feed the next and every printed file name is relative.  Rewrite the
transcript with `PYTHONPATH=src python3 tests/test_cli_golden.py` only for an
intended change of output.
"""

import contextlib
import io
import json
from pathlib import Path

from lieaff import cli

DATA = Path(__file__).with_name("data") / "cli_golden.json"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_inputs(directory: Path, files: dict) -> None:
    """Each file's text holds one character per byte (latin-1), so any bytes round-trip."""
    for name, text in files.items():
        (directory / name).write_bytes(text.encode("latin-1"))


def test_cli_matches_the_recorded_transcript(tmp_path, monkeypatch):
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    write_inputs(tmp_path, golden["files"])
    monkeypatch.chdir(tmp_path)
    for want in golden["runs"]:
        assert run(want["argv"]) == want, " ".join(want["argv"])
    codes = {want["code"] for want in golden["runs"]}
    assert codes == {0, 1, 2}


# ---------------------------------------------------------------------------
# recording

COMMANDS = [
    ["catalog"],
    *[["catalog", "--emit", name, f"{name}.json"] for name in (
        "r2", "r3", "r4", "h3", "h5", "h7", "n4", "n4ext", "h3xr2", "nonjacobi3")],
    *[["check", f"{name}.json"] for name in ("h5", "n4", "h3xr2", "nonjacobi3")],
    ["contact", "h5.json", "--search"],
    ["contact", "n4ext.json", "--search"],
    ["contact", "h3xr2.json", "--search", "--attempts", "20", "--seed", "7"],
    ["contact", "h3.json", "--form", "h3.omega.json"],
    ["contact", "h3.json", "--form", "e1.json"],
    ["quotient", "h5.json", "--form", "h5.omega.json", "--out", "q5"],
    ["quotient", "n4ext.json", "--form", "n4ext.omega.json", "--out", "qn"],
    ["quotient", "h3.json", "--form", "h3.omega.json"],
    ["affine", "q5.algebra.json", "--symplectic", "q5.theta.json", "--out", "nabla5.json"],
    ["affine", "qn.algebra.json", "--symplectic", "qn.theta.json"],
    ["affine", "n4.json", "--symplectic", "n4.theta.json"],
    ["extend", "q5.algebra.json", "--symplectic", "q5.theta.json", "--out", "x5"],
    ["extend", "qn.algebra.json", "--symplectic", "qn.theta.json"],
    ["extend", "r4.json", "--symplectic", "r4.degenerate.json"],
    ["extend", "xt.json", "--symplectic", "xt.theta.json"],
    ["lift", "q5.algebra.json", "--symplectic", "q5.theta.json", "--half", "--alpha", "0,0,0,0"],
    ["lift", "qn.algebra.json", "--symplectic", "qn.theta.json", "--half"],
    ["lift", "n4.json", "--symplectic", "n4.theta.json", "--half"],
    ["lift", "r2.json", "--symplectic", "r2.theta.json", "--half", "--alpha", "1,0"],
    ["lift", "r2.json", "--symplectic", "r2.theta.json", "--lift", "r2.rho.json"],
    ["lift", "r2.json", "--symplectic", "r2.theta.json", "--lift", "r2.tags.json"],
    ["lift", "r4.json", "--symplectic", "r4.theta.json", "--lift", "r4.perturbed.json"],
    ["solve-lift", "r2.json", "--symplectic", "r2.theta.json"],
    ["solve-lift", "r2.json", "--symplectic", "r2.theta.json", "--alpha", "1,0"],
    ["solve-lift", "r4.json", "--symplectic", "r4.theta.json", "--alpha", "1,0,0,0"],
    ["solve-lift", "n4.json", "--symplectic", "n4.theta.json"],
    ["solve-lift", "qn.algebra.json", "--symplectic", "qn.theta.json"],
    # exit 2: unreadable or malformed input, broken preconditions
    ["check", "missing.json"],
    ["check", "latin1.json"],
    ["check", "truncated.json"],
    ["contact", "r4.json", "--search"],
    ["contact", "nonjacobi3.json", "--search"],
    ["contact", "h3.json", "--search", "--attempts", "-5"],
    ["quotient", "h3.json", "--form", "e1.json"],
    ["affine", "n4.json", "--symplectic", "n4.rank2.json"],
    ["extend", "n4.json", "--symplectic", "n4.open.json"],
    ["extend", "h3.json", "--symplectic", "h3.odd.json"],
    ["lift", "n4.json", "--symplectic", "n4.theta.json", "--half", "--alpha", "0,0,1,0"],
    ["solve-lift", "n4.json", "--symplectic", "n4.theta.json", "--alpha", "0,0,1,0"],
    ["lift", "r2.json", "--symplectic", "r2.theta.json", "--lift", "r2.rho.json",
     "--alpha", "0,0"],
    ["lift", "r2.json", "--symplectic", "r2.theta.json", "--half", "--alpha", "1/0,0"],
    ["lift", "r2.json", "--symplectic", "r2.theta.json", "--lift", "r2.theta.json"],
    ["solve-lift", "r2.json", "--symplectic", "r2.theta.json", "--alpha", "1"],
    ["catalog", "--emit", "nosuch", "x.json"],
]


def input_files() -> dict:
    import random

    from lieaff import fileio
    from lieaff.catalog import get
    from lieaff.extension import LiftData, random_lift_data
    from lieaff.liecore import KForm, LieAlgebra

    files = {}

    def put(name, payload):
        files[name] = json.dumps(payload, indent=2) + "\n"

    for name in ("h3", "h5", "n4ext"):
        put(f"{name}.omega.json", fileio.form_to_dict(get(name).contact_form))
    for name in ("r2", "r4", "n4"):
        put(f"{name}.theta.json", fileio.form_to_dict(get(name).symplectic_form))
    put("e1.json", fileio.form_to_dict(KForm.dual(3, 0)))
    put("r4.degenerate.json", fileio.form_to_dict(KForm(2, 4, {(0, 3): 1})))
    put("n4.rank2.json", fileio.form_to_dict(KForm(2, 4, {(0, 3): 1})))
    put("n4.open.json", fileio.form_to_dict(KForm(2, 4, {(0, 1): 1, (2, 3): 1})))
    put("h3.odd.json", fileio.form_to_dict(KForm(2, 3, {(0, 1): 1})))
    put("xt.json", fileio.algebra_to_dict(LieAlgebra(2, ("x", "t"), {})))
    put("xt.theta.json", fileio.form_to_dict(KForm(2, 2, {(0, 1): 1})))
    half = LiftData.half_cocycle(get("r2").symplectic_form)
    put("r2.rho.json", fileio.liftdata_to_dict(half.with_changes(rho=1)))
    put("r2.tags.json", fileio.liftdata_to_dict(
        half.with_changes(V=((0, 0), (1, 0)), W0=(0, 2), rho=1)))
    perturbed = random_lift_data(random.Random(3), get("r4").symplectic_form, "perturbed")
    put("r4.perturbed.json", fileio.liftdata_to_dict(perturbed))
    files["latin1.json"] = "\xff\xfe{}"
    files["truncated.json"] = '{"dim": 3, "brackets": ['
    return files


def record() -> dict:
    import os
    import tempfile

    files = input_files()
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory), files)
        os.chdir(directory)
        try:
            runs = [run(argv + mode) for argv in COMMANDS for mode in ([], ["--json"])]
        finally:
            os.chdir(previous)
    return {"files": files, "runs": runs}


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DATA}")
