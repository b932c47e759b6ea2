"""Built-in algebra catalog: the worked examples and negative controls.

Every valid entry is a nilpotent Lie algebra; the single invalid entry is a
deliberate Jacobi violation kept for exercising the validator.  Distinguished
contact / symplectic forms are attached where the entry has a canonical one.
The entries are built once per process and shared by every lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Optional

from .liecore import KForm, LieAlgebra

ONE = Fraction(1)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    contact_form: Optional[KForm]
    symplectic_form: Optional[KForm]
    note: str
    valid: bool = True


def _abelian(name: str, dim: int) -> LieAlgebra:
    return LieAlgebra(dim=dim, constants={}, name=name)


@cache
def _entries() -> tuple:
    out = []
    out.append(CatalogEntry(
        "r2", _abelian("r2", 2), None, KForm(2, 2, {(0, 1): ONE}),
        "abelian plane with its area form",
    ))
    out.append(CatalogEntry(
        "r3", _abelian("r3", 3), None, None,
        "abelian 3-space; no contact form exists (every differential vanishes)",
    ))
    out.append(CatalogEntry(
        "r4", _abelian("r4", 4), None, KForm(2, 4, {(0, 1): ONE, (2, 3): ONE}),
        "abelian 4-space with the standard symplectic form",
    ))
    out.append(CatalogEntry(
        "h3",
        LieAlgebra(dim=3, constants={(0, 1): {2: ONE}}, name="h3"),
        KForm.dual(3, 2), None,
        "Heisenberg algebra of dimension 3",
    ))
    out.append(CatalogEntry(
        "h5",
        LieAlgebra(dim=5, constants={(0, 1): {4: ONE}, (2, 3): {4: ONE}}, name="h5"),
        KForm.dual(5, 4), None,
        "Heisenberg algebra of dimension 5",
    ))
    out.append(CatalogEntry(
        "h7",
        LieAlgebra(
            dim=7,
            constants={(0, 1): {6: ONE}, (2, 3): {6: ONE}, (4, 5): {6: ONE}},
            name="h7",
        ),
        KForm.dual(7, 6), None,
        "Heisenberg algebra of dimension 7",
    ))
    out.append(CatalogEntry(
        "n4",
        LieAlgebra(dim=4, constants={(0, 1): {2: ONE}, (0, 2): {3: ONE}}, name="n4"),
        None, KForm(2, 4, {(0, 3): ONE, (1, 2): ONE}),
        "filiform algebra of dimension 4 with its symplectic cocycle",
    ))
    out.append(CatalogEntry(
        "n4ext",
        LieAlgebra(
            dim=5,
            constants={
                (0, 1): {2: ONE},
                (0, 2): {3: ONE},
                (0, 3): {4: ONE},
                (1, 2): {4: ONE},
            },
            name="n4ext",
        ),
        KForm.dual(5, 4), None,
        "central extension of n4 by its symplectic cocycle",
    ))
    out.append(CatalogEntry(
        "h3xr2",
        LieAlgebra(dim=5, constants={(0, 1): {2: ONE}}, name="h3xr2"),
        None, None,
        "h3 times an abelian plane; center too large for any contact form",
    ))
    out.append(CatalogEntry(
        "nonjacobi3",
        LieAlgebra(
            dim=3,
            constants={(0, 1): {0: ONE}, (0, 2): {2: ONE}, (1, 2): {1: ONE}},
            name="nonjacobi3",
        ),
        None, None,
        "structure constants violating Jacobi; negative control for the validator",
        valid=False,
    ))
    return tuple(out)


def entries() -> list:
    return list(_entries())


def get(name: str) -> CatalogEntry:
    for e in _entries():
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}")


def contact_entries() -> list:
    return [e for e in _entries() if e.contact_form is not None]


def symplectic_entries() -> list:
    return [e for e in _entries() if e.symplectic_form is not None]
