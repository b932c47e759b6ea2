"""CLI commands: exit codes, exact output, JSON mode, round trips."""

import json
import re
import subprocess
import sys

import pytest

from lieaff import cli, extension, fileio
from lieaff.catalog import entries, get
from lieaff.cli import main
from lieaff.extension import LiftData
from lieaff.liecore import KForm, LieAlgebra

from test_extension import count_closedness_scans

FLOAT_RE = re.compile(r"\d\.\d")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert FLOAT_RE.search(captured.out) is None, f"float leaked into output: {captured.out}"
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    """Algebra and form files for the common pipelines."""
    paths = {}
    for name in ("r2", "r4", "n4", "h3", "h3xr2", "nonjacobi3"):
        e = get(name)
        p = tmp_path / f"{name}.json"
        fileio.save_algebra(p, e.algebra)
        paths[name] = str(p)
        if e.symplectic_form is not None:
            q = tmp_path / f"{name}.theta.json"
            fileio.save_form(q, e.symplectic_form)
            paths[f"{name}.theta"] = str(q)
        if e.contact_form is not None:
            q = tmp_path / f"{name}.omega.json"
            fileio.save_form(q, e.contact_form)
            paths[f"{name}.omega"] = str(q)
    paths["tmp"] = str(tmp_path)
    return paths


def test_check_h3(capsys, files):
    code, out, _ = run(capsys, "check", files["h3"])
    assert code == 0
    assert "jacobi: ok" in out
    assert "lcs: [3, 1, 0]" in out
    assert "center: dim 1 (e3)" in out


def test_check_refutes_non_jacobi(capsys, files):
    code, out, _ = run(capsys, "check", files["nonjacobi3"])
    assert code == 1
    assert "jacobi: FAIL" in out
    assert "(1, 2, 3)" in out


def test_check_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "dim": 2, "basis": ["a", "b"], '
                   '"brackets": [{"i": 2, "j": 1, "terms": []}]}')
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "i < j" in err


def test_check_non_utf8_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "not UTF-8" in err


def test_check_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/algebra.json")
    assert code == 2


def test_escaped_exception_exits_3_not_refuted(capsys, tmp_path):
    # The contact test of a dimension-11 algebra still raises inside the
    # command (the wedge evaluation stops at dimension 9).
    h11 = LieAlgebra(dim=11, constants={(2 * m, 2 * m + 1): {10: 1} for m in range(5)})
    algebra, form = tmp_path / "h11.json", tmp_path / "e11.json"
    fileio.save_algebra(algebra, h11)
    fileio.save_form(form, KForm.dual(11, 10))
    code, out, err = run(capsys, "contact", str(algebra), "--form", str(form))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ValueError: ")
    assert len(err.splitlines()) == 1


def test_contact_form_yes(capsys, files):
    code, out, _ = run(capsys, "contact", files["h3"], "--form", files["h3.omega"])
    assert code == 0
    assert "scalar = -1" in out
    assert "contact: yes" in out


def test_contact_form_no(capsys, files, tmp_path):
    form = tmp_path / "e1.json"
    fileio.save_form(form, KForm.dual(3, 0))
    code, out, _ = run(capsys, "contact", files["h3"], "--form", str(form))
    assert code == 1
    assert "scalar = 0" in out
    assert "contact: no" in out


def test_contact_even_dimension_exit_2(capsys, files):
    code, _, err = run(capsys, "contact", files["r4"], "--search")
    assert code == 2
    assert "odd" in err


def test_contact_search_h3(capsys, files):
    code, out, _ = run(capsys, "contact", files["h3"], "--search")
    assert code == 0
    assert "seed: 20177" in out
    assert "e3*" in out


def test_contact_search_not_found_probabilistic(capsys, files):
    code, out, _ = run(capsys, "contact", files["h3xr2"], "--search", "--attempts", "20",
                       "--seed", "7")
    assert code == 1
    assert "no contact form found (probabilistic)" in out
    assert "seed: 7" in out


@pytest.mark.parametrize("name", ["h3", "h3xr2"])
def test_contact_search_negative_attempts_exit_2(capsys, files, name):
    code, out, err = run(capsys, "contact", files[name], "--search", "--attempts", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: attempts must be nonnegative, got -5\n"


def test_contact_search_zero_attempts_scans_the_dual_basis_only(capsys, files):
    code, out, _ = run(capsys, "contact", files["h3"], "--search", "--attempts", "0")
    assert code == 0
    assert "e3*" in out
    code, out, _ = run(capsys, "contact", files["h3xr2"], "--search", "--attempts", "0")
    assert code == 1
    assert "random attempts used: 0" in out


def test_repeated_main_calls_match_fresh_processes(capsys, files):
    # The parser is built once per process: options given to one call must
    # not leak into the next.
    calls = [["contact", files["h3xr2"], "--search", "--seed", "5", "--attempts", "3"],
             ["contact", files["h3xr2"], "--search"]]
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "lieaff", *argv],
                              capture_output=True, text=True, timeout=120)
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert "seed: 20177" in fresh[1][1] and "random attempts used: 200" in fresh[1][1]
    assert cli.build_parser() is cli.build_parser()


def test_dispatch_runs_the_command_bound_on_the_module(capsys, files, monkeypatch):
    run(capsys, "check", files["h3"])  # the parser exists before the rebinding
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.algebra) or 7)
    assert main(["check", files["h3"]]) == 7
    assert seen == [files["h3"]]


def test_quotient_h3(capsys, files, tmp_path):
    prefix = str(tmp_path / "quot")
    code, out, _ = run(capsys, "quotient", files["h3"], "--form", files["h3.omega"],
                       "--out", prefix)
    assert code == 0
    assert "quotient dim: 2" in out
    assert "nondegenerate=yes closed=yes" in out
    back = fileio.load_algebra(prefix + ".algebra.json")
    assert back.dim == 2 and back.constants == {}
    theta = fileio.load_form(prefix + ".theta.json")
    assert theta.coeffs == {(0, 1): 1}


def test_quotient_rejects_non_contact_form(capsys, files, tmp_path):
    form = tmp_path / "e1.json"
    fileio.save_form(form, KForm.dual(3, 0))
    code, _, err = run(capsys, "quotient", files["h3"], "--form", str(form))
    assert code == 2
    assert "not a contact form" in err


def test_affine_n4(capsys, files, tmp_path):
    out_file = str(tmp_path / "nabla.json")
    code, out, _ = run(capsys, "affine", files["n4"], "--symplectic", files["n4.theta"],
                       "--out", out_file)
    assert code == 0
    assert "nabla(e1, e2) = e3" in out
    assert "nabla(e3, e1) = -e4" in out
    assert "torsion defects: 0; curvature defects: 0" in out
    back = fileio.load_product(out_file)
    assert back.value(0, 1) == [0, 0, 1, 0]


def test_affine_rank2_form_exit_2(capsys, files, tmp_path):
    form = tmp_path / "rank2.json"
    fileio.save_form(form, KForm(2, 4, {(0, 3): 1}))
    code, _, err = run(capsys, "affine", files["n4"], "--symplectic", str(form))
    assert code == 2
    assert "degenerate" in err


def test_extend_r2_gives_h3(capsys, files, tmp_path):
    prefix = str(tmp_path / "ext")
    code, out, _ = run(capsys, "extend", files["r2"], "--symplectic", files["r2.theta"],
                       "--out", prefix)
    assert code == 0
    assert "contact: yes" in out
    back = fileio.load_algebra(prefix + ".algebra.json")
    assert back.constants == get("h3").algebra.constants


def test_extend_nonclosed_exit_2(capsys, files, tmp_path):
    form = tmp_path / "bad.json"
    fileio.save_form(form, KForm(2, 4, {(0, 1): 1, (2, 3): 1}))
    code, _, err = run(capsys, "extend", files["n4"], "--symplectic", str(form))
    assert code == 2
    assert "not closed" in err


def test_lift_half_h3_pipeline(capsys, files):
    code, out, _ = run(capsys, "lift", files["r2"], "--symplectic", files["r2.theta"],
                       "--half")
    assert code == 0
    assert "torsion defects: 0" in out
    assert "curvature defects: 0" in out
    assert "case: trivial-alpha" in out
    assert "oracle flat: yes" in out
    assert "oracle/conditions agreement: yes" in out


def test_lift_half_with_zero_alpha(capsys, files):
    code, out, _ = run(capsys, "lift", files["r2"], "--symplectic", files["r2.theta"],
                       "--half", "--alpha", "0,0")
    assert code == 0
    assert "oracle flat: yes" in out


def test_lift_edited_rho_refuted(capsys, files, tmp_path):
    lift = LiftData.half_cocycle(get("r2").symplectic_form).with_changes(rho=1)
    lift_file = tmp_path / "lift.json"
    fileio.save_liftdata(lift_file, lift)
    code, out, _ = run(capsys, "lift", files["r2"], "--symplectic", files["r2.theta"],
                       "--lift", str(lift_file))
    assert code == 1
    assert "curvature defects: " in out and "curvature defects: 0" not in out
    assert "oracle flat: no" in out
    assert "central-products-vanish: FAIL" in out


def test_lift_component_witnesses_text_and_json(capsys, files, tmp_path):
    lift = LiftData.half_cocycle(get("r2").symplectic_form).with_changes(
        V=((0, 0), (1, 0)), W0=(0, 2), rho=1)
    lift_file = tmp_path / "lift.json"
    fileio.save_liftdata(lift_file, lift)
    argv = ("lift", files["r2"], "--symplectic", files["r2.theta"], "--lift", str(lift_file))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert ("condition central-products-vanish: FAIL\n"
            "  V_2 != 0\n  W0 != 0\n  rho != 0\n") in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    central = json.loads(out)["conditions"][0]
    assert central["name"] == "central-products-vanish"
    assert central["witnesses"] == [{"at": ["V", 2], "value": None},
                                    {"at": ["W0"], "value": None},
                                    {"at": ["rho"], "value": None}]


def test_extend_names_new_vector_apart_from_the_basis(capsys, tmp_path):
    algebra_file, form_file = tmp_path / "xt.json", tmp_path / "xt.theta.json"
    fileio.save_algebra(algebra_file, LieAlgebra(2, ("x", "t"), {}))
    fileio.save_form(form_file, KForm(2, 2, {(0, 1): 1}))
    code, out, _ = run(capsys, "extend", str(algebra_file), "--symplectic", str(form_file))
    assert code == 0
    assert "extension dim: 3 (central vector t1)" in out
    assert "[x, t] = t1" in out


def test_lift_half_n4_prints_residuals(capsys, files):
    code, out, _ = run(capsys, "lift", files["n4"], "--symplectic", files["n4.theta"],
                       "--half")
    assert code == 1
    assert "half-case scalar relation violations: 2" in out
    assert "(1, 2, 2): -1" in out
    assert "(1, 3, 1): -1" in out


def test_lift_alpha_not_representation_exit_2(capsys, files):
    code, _, err = run(capsys, "lift", files["n4"], "--symplectic", files["n4.theta"],
                       "--half", "--alpha", "0,0,1,0")
    assert code == 2
    assert "not a one-dimensional representation" in err


def test_lift_alpha_requires_half(capsys, files, tmp_path):
    lift_file = tmp_path / "lift.json"
    fileio.save_liftdata(lift_file, LiftData.half_cocycle(get("r2").symplectic_form))
    code, _, err = run(capsys, "lift", files["r2"], "--symplectic", files["r2.theta"],
                       "--lift", str(lift_file), "--alpha", "0,0")
    assert code == 2


def test_lift_odd_dimension_exit_2(capsys, files, tmp_path):
    form = tmp_path / "odd.json"
    fileio.save_form(form, KForm(2, 3, {(0, 1): 1}))
    code, _, err = run(capsys, "lift", files["h3"], "--symplectic", str(form), "--half")
    assert code == 2
    assert "even dimension" in err


def test_extend_odd_base_exit_2(capsys, files, tmp_path):
    form = tmp_path / "odd.json"
    fileio.save_form(form, KForm(2, 3, {(0, 1): 1}))
    code, _, err = run(capsys, "extend", files["h3"], "--symplectic", str(form))
    assert code == 2


def test_lift_gap_family_reports_finding(capsys, files):
    code, out, _ = run(capsys, "lift", files["r2"], "--symplectic", files["r2.theta"],
                       "--half", "--alpha", "1,0")
    # phi = theta/2 with a = (1,0) does not satisfy the displayed condition,
    # so this is refuted without being a gap; sanity-check the output shape
    assert code == 1
    assert "case: nontrivial-alpha" in out


def test_solve_lift_trivial_r2(capsys, files):
    code, out, _ = run(capsys, "solve-lift", files["r2"], "--symplectic", files["r2.theta"])
    assert code == 0
    assert "solution dimension: 3" in out
    assert "theorem-gap candidates: 0" in out


def test_solve_lift_trivial_r4_json(capsys, files):
    code, out, _ = run(capsys, "solve-lift", files["r4"], "--symplectic", files["r4.theta"],
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 10
    assert data["gap_candidates"] == 0
    assert all(pt["flat"] for pt in data["points"])


def test_solve_lift_gap_family_exit_1(capsys, files):
    code, out, _ = run(capsys, "solve-lift", files["r2"], "--symplectic", files["r2.theta"],
                       "--alpha", "1,0")
    assert code == 1
    assert "theorem-gap candidates: 2" in out


def test_solve_lift_infeasible_alpha(capsys, files):
    code, out, _ = run(capsys, "solve-lift", files["r4"], "--symplectic", files["r4.theta"],
                       "--alpha", "1,0,0,0")
    assert code == 0
    assert "infeasible" in out


def test_catalog_lists_all_entries(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for e in entries():
        assert e.name + ":" in out
    assert len(entries()) >= 9


def test_catalog_emit_round_trips(capsys, tmp_path):
    for e in entries():
        path = str(tmp_path / f"{e.name}.json")
        code, _, _ = run(capsys, "catalog", "--emit", e.name, path)
        assert code == 0
        code, out, _ = run(capsys, "check", path)
        if e.valid:
            assert code == 0
        else:
            assert code == 1  # the deliberate Jacobi violation is reported


def test_catalog_emit_unknown_name(capsys, tmp_path):
    code, _, err = run(capsys, "catalog", "--emit", "nosuch", str(tmp_path / "x.json"))
    assert code == 2


def test_catalog_is_built_once():
    assert get("h3") is get("h3")
    first, second = entries(), entries()
    assert first == second and first is not second
    first.clear()
    assert entries() == second


@pytest.mark.parametrize("command", ["catalog", "quotient", "affine", "extend"])
def test_unwritable_output_exit_2(capsys, files, command):
    # A missing directory in an output path is a usage error, reported before
    # anything is printed.
    out = "/nonexistent/dir/out"
    argv = {
        "catalog": ["catalog", "--emit", "h3", out + ".json"],
        "quotient": ["quotient", files["h3"], "--form", files["h3.omega"], "--out", out],
        "affine": ["affine", files["n4"], "--symplectic", files["n4.theta"], "--out", out],
        "extend": ["extend", files["r2"], "--symplectic", files["r2.theta"], "--out", out],
    }[command]
    for mode in ([], ["--json"]):
        code, stdout, err = run(capsys, *argv, *mode)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and "/nonexistent/dir/out" in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("coeffs, code", [({(0, 1): 1}, 0), ({}, 1)])
def test_extend_runs_one_contact_test(capsys, files, tmp_path, monkeypatch, coeffs, code):
    # The readback of a symplectic form and the command share one contact test;
    # a degenerate closed form skips the readback, and the command runs it.
    form = tmp_path / "theta.json"
    fileio.save_form(form, KForm(2, 2, coeffs))
    calls = []
    original = extension.contact_test

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(extension, "contact_test", counted)
    monkeypatch.setattr(cli, "contact_test", counted)
    assert run(capsys, "extend", files["r2"], "--symplectic", str(form))[0] == code
    assert len(calls) == 1


def test_extend_scans_closedness_once(capsys, files, monkeypatch):
    # the command's own check, with its 1-based triple, is the only scan;
    # central_extend is told the form is closed
    calls = count_closedness_scans(monkeypatch)
    assert run(capsys, "extend", files["r4"], "--symplectic", files["r4.theta"])[0] == 0
    assert len(calls) == 1


def test_json_modes_are_valid_json(capsys, files):
    for argv in (
        ["check", files["h3"], "--json"],
        ["contact", files["h3"], "--form", files["h3.omega"], "--json"],
        ["quotient", files["h3"], "--form", files["h3.omega"], "--json"],
        ["affine", files["n4"], "--symplectic", files["n4.theta"], "--json"],
        ["extend", files["r2"], "--symplectic", files["r2.theta"], "--json"],
        ["lift", files["r2"], "--symplectic", files["r2.theta"], "--half", "--json"],
        ["catalog", "--json"],
    ):
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert isinstance(payload, dict)


def test_commands_are_deterministic(capsys, files):
    first = run(capsys, "solve-lift", files["n4"], "--symplectic", files["n4.theta"])
    second = run(capsys, "solve-lift", files["n4"], "--symplectic", files["n4.theta"])
    assert first == second


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lieaff", "catalog"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "h3" in proc.stdout
