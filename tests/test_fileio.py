"""File format round trips and parse diagnostics."""

import json
from fractions import Fraction

import pytest

from lieaff import fileio
from lieaff.catalog import entries, get
from lieaff.extension import LiftData
from lieaff.fileio import ParseError
from lieaff.liecore import KForm
from lieaff.structures import affine_from_symplectic


def test_algebra_round_trip(tmp_path):
    for e in entries():
        path = tmp_path / f"{e.name}.json"
        fileio.save_algebra(path, e.algebra)
        back = fileio.load_algebra(path)
        assert back.dim == e.algebra.dim
        assert back.constants == e.algebra.constants
        assert back.basis_names == e.algebra.basis_names
        assert back.name == e.algebra.name


def test_algebra_file_uses_one_based_indices(tmp_path):
    path = tmp_path / "h3.json"
    fileio.save_algebra(path, get("h3").algebra)
    data = json.loads(path.read_text())
    assert data["brackets"] == [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]


def test_form_round_trip(tmp_path):
    form = KForm(2, 4, {(0, 3): Fraction(-3, 2), (1, 2): Fraction(1)})
    path = tmp_path / "f.json"
    fileio.save_form(path, form)
    back = fileio.load_form(path)
    assert back.degree == 2 and back.dim == 4
    assert back.coeffs == form.coeffs


def test_liftdata_round_trip(tmp_path):
    theta = get("r4").symplectic_form
    lift = LiftData.half_cocycle(theta, a=[1, 0, Fraction(-1, 3), 0])
    path = tmp_path / "lift.json"
    fileio.save_liftdata(path, lift)
    back = fileio.load_liftdata(path, 4)
    assert back == lift


def test_product_round_trip(tmp_path):
    e = get("n4")
    nabla = affine_from_symplectic(e.algebra, e.symplectic_form)
    path = tmp_path / "nabla.json"
    fileio.save_product(path, nabla)
    back = fileio.load_product(path)
    assert back.table == nabla.table


def _write(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return path


def test_rejects_i_not_less_than_j(tmp_path):
    path = _write(tmp_path, {
        "name": "bad", "dim": 3, "basis": ["e1", "e2", "e3"],
        "brackets": [{"i": 2, "j": 2, "terms": [{"k": 1, "c": "1"}]}],
    })
    with pytest.raises(ParseError, match="i < j"):
        fileio.load_algebra(path)


def test_rejects_float_rational(tmp_path):
    path = _write(tmp_path, {
        "name": "bad", "dim": 2, "basis": ["e1", "e2"],
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "c": "1.5"}]}],
    })
    with pytest.raises(ParseError, match="rational"):
        fileio.load_algebra(path)


def test_rejects_out_of_range_target(tmp_path):
    path = _write(tmp_path, {
        "name": "bad", "dim": 2, "basis": ["e1", "e2"],
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}],
    })
    with pytest.raises(ParseError, match="1..2"):
        fileio.load_algebra(path)


def test_rejects_duplicate_pair(tmp_path):
    path = _write(tmp_path, {
        "name": "bad", "dim": 3, "basis": ["e1", "e2", "e3"],
        "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": "2"}]},
        ],
    })
    with pytest.raises(ParseError, match="duplicate"):
        fileio.load_algebra(path)


def test_rejects_nonincreasing_form_indices(tmp_path):
    path = _write(tmp_path, {
        "degree": 2, "dim": 3,
        "coeffs": [{"idx": [2, 1], "c": "1"}],
    })
    with pytest.raises(ParseError, match="strictly increasing"):
        fileio.load_form(path)


def test_rejects_wrong_basis_count(tmp_path):
    path = _write(tmp_path, {"name": "bad", "dim": 3, "basis": ["e1"], "brackets": []})
    with pytest.raises(ParseError, match="3 names"):
        fileio.load_algebra(path)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError, match="line 1"):
        fileio.load_algebra(path)


def test_rejects_non_object_product_row(tmp_path):
    path = _write(tmp_path, {"dim": 2, "table": [["1", "2"]]})
    with pytest.raises(ParseError, match=r"table\[0\]: expected an object"):
        fileio.load_product(path)
