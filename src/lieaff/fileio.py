"""JSON file formats: algebras, forms, products, lift data.

All files use 1-based basis indices and exact rational strings; indices are
converted to the package's internal 0-based convention on load.  Semantic
errors carry the offending field path so CLI diagnostics stay useful.
"""

from __future__ import annotations

import json

from .extension import LiftData
from .liecore import KForm, LieAlgebra
from .ratlin import format_rational, parse_rational
from .structures import BilinearProduct


class ParseError(ValueError):
    """Malformed input file; message carries the field path."""


def _require(cond, where, msg):
    if not cond:
        raise ParseError(f"{where}: {msg}")


def _as_int(value, where):
    _require(isinstance(value, int) and not isinstance(value, bool), where, "expected an integer")
    return value


def _as_rational(value, where):
    _require(isinstance(value, str), where, "rationals must be strings like \"-3/2\"")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except (ValueError, RecursionError) as exc:
        # an integer literal past the digit limit, or nesting past the recursion limit
        raise ParseError(f"{path}: unreadable JSON ({exc})") from None


def dump_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# algebra files

def algebra_to_dict(algebra: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(algebra.constants):
        terms = [
            {"k": k + 1, "c": format_rational(c)}
            for k, c in sorted(algebra.constants[(i, j)].items())
        ]
        brackets.append({"i": i + 1, "j": j + 1, "terms": terms})
    return {
        "name": algebra.name or "unnamed",
        "dim": algebra.dim,
        "basis": list(algebra.basis_names),
        "brackets": brackets,
    }


def algebra_from_dict(data: dict, where: str = "algebra") -> LieAlgebra:
    _require(isinstance(data, dict), where, "expected a JSON object")
    dim = _as_int(data.get("dim"), f"{where}.dim")
    _require(dim >= 1, f"{where}.dim", "must be at least 1")
    name = data.get("name", "")
    _require(isinstance(name, str), f"{where}.name", "expected a string")
    basis = data.get("basis", [f"e{i + 1}" for i in range(dim)])
    _require(isinstance(basis, list) and all(isinstance(s, str) for s in basis),
             f"{where}.basis", "expected a list of strings")
    _require(len(basis) == dim, f"{where}.basis", f"expected {dim} names, got {len(basis)}")
    raw = data.get("brackets", [])
    _require(isinstance(raw, list), f"{where}.brackets", "expected a list")
    constants = {}
    for idx, item in enumerate(raw):
        loc = f"{where}.brackets[{idx}]"
        _require(isinstance(item, dict), loc, "expected an object")
        i = _as_int(item.get("i"), f"{loc}.i")
        j = _as_int(item.get("j"), f"{loc}.j")
        _require(1 <= i <= dim and 1 <= j <= dim, loc, f"indices must lie in 1..{dim}")
        _require(i < j, loc, f"need i < j, got i={i} j={j}")
        _require((i - 1, j - 1) not in constants, loc, f"duplicate bracket pair ({i}, {j})")
        terms_raw = item.get("terms", [])
        _require(isinstance(terms_raw, list), f"{loc}.terms", "expected a list")
        terms = {}
        for tdx, term in enumerate(terms_raw):
            tloc = f"{loc}.terms[{tdx}]"
            _require(isinstance(term, dict), tloc, "expected an object")
            k = _as_int(term.get("k"), f"{tloc}.k")
            _require(1 <= k <= dim, f"{tloc}.k", f"must lie in 1..{dim}")
            _require(k - 1 not in terms, tloc, f"duplicate target index {k}")
            terms[k - 1] = _as_rational(term.get("c"), f"{tloc}.c")
        constants[(i - 1, j - 1)] = terms
    return LieAlgebra(dim=dim, basis_names=tuple(basis), constants=constants, name=name)


def load_algebra(path: str) -> LieAlgebra:
    return algebra_from_dict(load_json(path), where=path)


def save_algebra(path: str, algebra: LieAlgebra) -> None:
    dump_json(path, algebra_to_dict(algebra))


# ---------------------------------------------------------------------------
# form files

def form_to_dict(form: KForm) -> dict:
    coeffs = [
        {"idx": [i + 1 for i in idx], "c": format_rational(c)}
        for idx, c in sorted(form.coeffs.items())
    ]
    return {"degree": form.degree, "dim": form.dim, "coeffs": coeffs}


def form_from_dict(data: dict, where: str = "form") -> KForm:
    _require(isinstance(data, dict), where, "expected a JSON object")
    degree = _as_int(data.get("degree"), f"{where}.degree")
    dim = _as_int(data.get("dim"), f"{where}.dim")
    _require(dim >= 1, f"{where}.dim", "must be at least 1")
    _require(0 <= degree <= dim, f"{where}.degree", f"must lie in 0..{dim}")
    raw = data.get("coeffs", [])
    _require(isinstance(raw, list), f"{where}.coeffs", "expected a list")
    coeffs = {}
    for idx, item in enumerate(raw):
        loc = f"{where}.coeffs[{idx}]"
        _require(isinstance(item, dict), loc, "expected an object")
        tup_raw = item.get("idx")
        _require(isinstance(tup_raw, list) and len(tup_raw) == degree,
                 f"{loc}.idx", f"expected {degree} indices")
        tup = tuple(_as_int(x, f"{loc}.idx") for x in tup_raw)
        _require(all(1 <= x <= dim for x in tup), f"{loc}.idx", f"indices must lie in 1..{dim}")
        _require(all(tup[t] < tup[t + 1] for t in range(len(tup) - 1)),
                 f"{loc}.idx", "indices must be strictly increasing")
        key = tuple(x - 1 for x in tup)
        _require(key not in coeffs, loc, "duplicate index tuple")
        coeffs[key] = _as_rational(item.get("c"), f"{loc}.c")
    return KForm(degree, dim, coeffs)


def load_form(path: str) -> KForm:
    return form_from_dict(load_json(path), where=path)


def save_form(path: str, form: KForm) -> None:
    dump_json(path, form_to_dict(form))


# ---------------------------------------------------------------------------
# bilinear product files (the derived affine structure tables)

def product_to_dict(product: BilinearProduct) -> dict:
    table = [
        {"i": i + 1, "j": j + 1, "value": [format_rational(c) for c in col]}
        for (i, j), col in sorted(product.table.items())
    ]
    return {"dim": product.dim, "table": table}


def product_from_dict(data: dict, where: str = "product") -> BilinearProduct:
    _require(isinstance(data, dict), where, "expected a JSON object")
    dim = _as_int(data.get("dim"), f"{where}.dim")
    raw = data.get("table", [])
    _require(isinstance(raw, list), f"{where}.table", "expected a list")
    table = {}
    for idx, item in enumerate(raw):
        loc = f"{where}.table[{idx}]"
        _require(isinstance(item, dict), loc, "expected an object")
        i = _as_int(item.get("i"), f"{loc}.i")
        j = _as_int(item.get("j"), f"{loc}.j")
        _require(1 <= i <= dim and 1 <= j <= dim, loc, f"indices must lie in 1..{dim}")
        value = item.get("value")
        _require(isinstance(value, list) and len(value) == dim,
                 f"{loc}.value", f"expected {dim} entries")
        table[(i - 1, j - 1)] = [_as_rational(x, f"{loc}.value") for x in value]
    return BilinearProduct(dim, table)


def save_product(path: str, product: BilinearProduct) -> None:
    dump_json(path, product_to_dict(product))


def load_product(path: str) -> BilinearProduct:
    return product_from_dict(load_json(path), where=path)


# ---------------------------------------------------------------------------
# lift data files

def liftdata_to_dict(lift: LiftData) -> dict:
    return {
        "phi": [[format_rational(x) for x in row] for row in lift.phi],
        "V": [[format_rational(x) for x in col] for col in lift.V],
        "a": [format_rational(x) for x in lift.a],
        "W0": [format_rational(x) for x in lift.W0],
        "rho": format_rational(lift.rho),
    }


def liftdata_from_dict(data: dict, dim: int, where: str = "lift") -> LiftData:
    _require(isinstance(data, dict), where, "expected a JSON object")

    def matrix(key):
        raw = data.get(key)
        _require(isinstance(raw, list) and len(raw) == dim,
                 f"{where}.{key}", f"expected {dim} rows")
        out = []
        for r, row in enumerate(raw):
            _require(isinstance(row, list) and len(row) == dim,
                     f"{where}.{key}[{r}]", f"expected {dim} entries")
            out.append(tuple(_as_rational(x, f"{where}.{key}[{r}]") for x in row))
        return tuple(out)

    def vector(key):
        raw = data.get(key)
        _require(isinstance(raw, list) and len(raw) == dim,
                 f"{where}.{key}", f"expected {dim} entries")
        return tuple(_as_rational(x, f"{where}.{key}") for x in raw)

    return LiftData(
        phi=matrix("phi"),
        V=matrix("V"),
        a=vector("a"),
        W0=vector("W0"),
        rho=_as_rational(data.get("rho"), f"{where}.rho"),
    )


def load_liftdata(path: str, dim: int) -> LiftData:
    return liftdata_from_dict(load_json(path), dim, where=path)


def save_liftdata(path: str, lift: LiftData) -> None:
    dump_json(path, liftdata_to_dict(lift))


# ---------------------------------------------------------------------------
# report payloads (ContactReport JSON schema)

def contact_report_to_dict(report) -> dict:
    return {
        "form": form_to_dict(report.form),
        "scalar": format_rational(report.scalar),
        "contact": report.is_contact,
    }
