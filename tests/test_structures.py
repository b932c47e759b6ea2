"""Wedge evaluation, contact tests, symplectic checks, derived affine structure."""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from lieaff.catalog import get
from lieaff.liecore import KForm, differential
from lieaff.structures import (
    BilinearProduct,
    affine_from_symplectic,
    contact_test,
    defining_relation_defects,
    exact_cocycle_obstruction,
    search_contact_form,
    symplectic_check,
    verify_affine,
    wedge_eval_top,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _perm_sign(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def wedge_full_permutation_sum(forms, dim):
    """Independent oracle: full permutation sum divided by block factorials."""
    denom = 1
    for f in forms:
        denom *= factorial(f.degree)
    basis = [[Fraction(1) if t == i else Fraction(0) for t in range(dim)] for i in range(dim)]
    total = Fraction(0)
    for perm in permutations(range(dim)):
        prod = Fraction(_perm_sign(perm))
        pos = 0
        for f in forms:
            block = perm[pos:pos + f.degree]
            prod *= f.evaluate([basis[b] for b in block])
            pos += f.degree
            if prod == 0:
                break
        total += prod
    return total / denom


def test_wedge_single_shuffle_example():
    omega = KForm.dual(3, 2)
    two = KForm(2, 3, {(0, 1): Fraction(-1)})
    assert wedge_eval_top([omega, two], 3) == Fraction(-1)


def test_wedge_zero_form_gives_zero():
    omega = KForm(1, 3, {})
    two = KForm(2, 3, {(0, 1): 1})
    assert wedge_eval_top([omega, two], 3) == 0


def test_wedge_antisymmetry_of_one_forms():
    e1, e2 = KForm.dual(2, 0), KForm.dual(2, 1)
    assert wedge_eval_top([e1, e2], 2) == 1
    assert wedge_eval_top([e2, e1], 2) == -1


def test_wedge_degree_sum_mismatch():
    with pytest.raises(ValueError):
        wedge_eval_top([KForm.dual(3, 0)], 3)


def test_wedge_dimension_limit():
    forms = [KForm.dual(10, i) for i in range(10)]
    with pytest.raises(ValueError):
        wedge_eval_top(forms, 10)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_wedge_matches_full_permutation_sum(data):
    dim = data.draw(st.integers(3, 5))

    def random_two_form():
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=4))
        return KForm(2, dim, {p: data.draw(rationals) for p in chosen})

    one = KForm(1, dim, {(i,): data.draw(rationals) for i in range(dim)})
    forms = [one, random_two_form()]
    if dim == 4:
        forms.append(KForm(1, dim, {(i,): data.draw(rationals) for i in range(dim)}))
    elif dim == 5:
        forms.append(random_two_form())
    assert wedge_eval_top(forms, dim) == wedge_full_permutation_sum(forms, dim)


def test_contact_scalars_frozen():
    # Values cross-checked against the full-permutation oracle below.
    cases = {"h3": Fraction(-1), "h5": Fraction(2), "h7": Fraction(-6), "n4ext": Fraction(2)}
    for name, expected in cases.items():
        e = get(name)
        rep = contact_test(e.algebra, e.contact_form)
        assert rep.scalar == expected, name
        assert rep.is_contact
        p = (e.algebra.dim - 1) // 2
        dw = differential(e.algebra, e.contact_form)
        assert wedge_full_permutation_sum([e.contact_form] + [dw] * p, e.algebra.dim) == expected


def test_contact_negative_example():
    h3 = get("h3").algebra
    rep = contact_test(h3, KForm.dual(3, 0))
    assert rep.scalar == 0 and not rep.is_contact


def test_contact_needs_odd_dimension():
    with pytest.raises(ValueError):
        contact_test(get("r4").algebra, KForm.dual(4, 0))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_contact_scalar_scaling(data):
    e = get(data.draw(st.sampled_from(["h3", "h5", "n4ext"])))
    lam = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    p = (e.algebra.dim - 1) // 2
    base = contact_test(e.algebra, e.contact_form).scalar
    scaled = contact_test(e.algebra, e.contact_form.scaled(lam)).scalar
    assert scaled == lam ** (p + 1) * base


def test_search_finds_dual_basis_form_on_h3():
    out = search_contact_form(get("h3").algebra, attempts=10, seed=1)
    assert out.found is not None
    assert out.found.form.coeffs == {(2,): Fraction(1)}
    # e1* and e2* were tried first and scored zero
    assert out.scalars[:3] == [0, 0, Fraction(-1)]


def test_search_abelian_not_found():
    out = search_contact_form(get("r3").algebra, attempts=25, seed=2)
    assert out.found is None
    assert all(s == 0 for s in out.scalars)


def test_search_center_obstruction():
    out = search_contact_form(get("h3xr2").algebra, attempts=40, seed=3)
    assert out.found is None
    assert all(s == 0 for s in out.scalars)


def test_search_requires_nilpotent():
    from lieaff.liecore import LieAlgebra
    solvable = LieAlgebra(dim=3, constants={(0, 1): {1: Fraction(1)}})
    assert solvable.jacobi_defects() == []
    assert not solvable.is_nilpotent()
    with pytest.raises(ValueError, match="nilpotent"):
        search_contact_form(solvable, attempts=5, seed=1)


def test_quotient_of_n4_extension_reproduces_n4():
    e = get("n4ext")
    from lieaff.liecore import quotient_by_center
    q = quotient_by_center(e.algebra, e.contact_form)
    n4 = get("n4")
    assert q.algebra.constants == n4.algebra.constants
    assert q.theta.coeffs == n4.symplectic_form.coeffs


def test_symplectic_check_examples():
    r2 = get("r2")
    rep = symplectic_check(r2.algebra, r2.symplectic_form)
    assert rep.nondegenerate and rep.closed
    n4 = get("n4")
    rep = symplectic_check(n4.algebra, n4.symplectic_form)
    assert rep.nondegenerate and rep.closed and rep.rank == 4
    rep = symplectic_check(n4.algebra, KForm(2, 4, {(0, 3): 1}))
    assert not rep.nondegenerate and rep.rank == 2
    rep = symplectic_check(n4.algebra, KForm(2, 4, {(0, 1): 1, (2, 3): 1}))
    assert not rep.closed


def test_symplectic_check_needs_even_dimension():
    with pytest.raises(ValueError):
        symplectic_check(get("h3").algebra, KForm(2, 3, {(0, 1): 1}))


def test_affine_from_symplectic_abelian_is_zero():
    for name in ("r2", "r4"):
        e = get(name)
        nabla = affine_from_symplectic(e.algebra, e.symplectic_form)
        assert nabla.table == {}


def test_affine_from_symplectic_n4_table():
    e = get("n4")
    nabla = affine_from_symplectic(e.algebra, e.symplectic_form)
    expect = {
        (0, 0): (0, Fraction(-1), 0, 0),
        (0, 1): (0, 0, Fraction(1), 0),
        (1, 1): (0, 0, 0, Fraction(-1)),
        (2, 0): (0, 0, 0, Fraction(-1)),
    }
    assert nabla.table == expect
    # torsion readback: nabla(e1,e3) - nabla(e3,e1) = e4 = [e1,e3]
    diff = [a - b for a, b in zip(nabla.value(0, 2), nabla.value(2, 0))]
    assert diff == e.algebra.bracket_basis(0, 2) == [0, 0, 0, Fraction(1)]
    report = verify_affine(e.algebra, nabla)
    assert report.is_affine
    assert defining_relation_defects(e.algebra, e.symplectic_form, nabla) == []


def _readback_reference(algebra, theta, product):
    """The defining relation evaluated in Fractions: the reference for the integer readback."""
    n = algebra.dim
    out = []
    for i in range(n):
        for j in range(n):
            pv = product.value(i, j)
            for k in range(n):
                br = algebra.bracket_basis(i, k)
                val = sum((pv[q] * theta.pair(q, k) for q in range(n)), Fraction(0))
                val += sum((br[q] * theta.pair(j, q) for q in range(n)), Fraction(0))
                if val:
                    out.append(((i, j, k), val))
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_readback_matches_fraction_reference(data):
    # symplectic bases start from their canonical product (no defects);
    # the others get a random 2-form and start from the zero product
    e = get(data.draw(st.sampled_from(["r2", "r4", "n4", "h3", "h5", "n4ext"])))
    n = e.algebra.dim
    scale = data.draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(-5, 7)]))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    if e.symplectic_form is not None:
        theta = e.symplectic_form.scaled(scale)
        table = dict(affine_from_symplectic(e.algebra, theta).table)
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        theta = KForm(2, n, {pq: data.draw(small) for pq in pairs}).scaled(scale)
        table = {}
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        col = list(table.get((i, j), [Fraction(0)] * n))
        col[data.draw(st.integers(0, n - 1))] += data.draw(small)
        table[(i, j)] = col
    product = BilinearProduct(n, table)
    got = defining_relation_defects(e.algebra, theta, product)
    assert got == _readback_reference(e.algebra, theta, product)
    assert all(type(val) is Fraction for _, val in got)


def test_affine_from_symplectic_rejects_bad_forms():
    n4 = get("n4").algebra
    with pytest.raises(ValueError):
        affine_from_symplectic(n4, KForm(2, 4, {(0, 3): 1}))
    with pytest.raises(ValueError):
        affine_from_symplectic(n4, KForm(2, 4, {(0, 1): 1, (2, 3): 1}))


def test_verify_affine_reports_defects():
    r3 = get("r3").algebra
    assert verify_affine(r3, BilinearProduct.zero(3)).is_affine
    h3 = get("h3").algebra
    report = verify_affine(h3, BilinearProduct.zero(3))
    assert [t for t, _ in report.torsion_defects] == [(0, 1)]
    assert report.torsion_defects[0][1] == [0, 0, Fraction(-1)]


def test_defect_lists_are_sorted():
    h5 = get("h5").algebra
    report = verify_affine(h5, BilinearProduct.zero(5))
    pairs = [t for t, _ in report.torsion_defects]
    assert pairs == sorted(pairs)


def test_exactness_obstruction_infeasible_on_catalog():
    for name in ("r2", "r4", "n4"):
        e = get(name)
        assert exact_cocycle_obstruction(e.algebra, e.symplectic_form).infeasible, name
