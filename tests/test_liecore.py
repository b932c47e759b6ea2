"""Brackets, Jacobi, series, center, differentials, quotients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieaff.catalog import entries, get
from lieaff.liecore import (
    KForm,
    cocycle_defects,
    differential,
    form_add,
    quotient_by_center,
)
from lieaff.ratlin import vscale

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)

VALID = [e for e in entries() if e.valid]


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim)


def test_bracket_h3():
    h3 = get("h3").algebra
    assert h3.bracket_basis(0, 1) == [0, 0, Fraction(1)]
    assert h3.bracket_basis(1, 0) == [0, 0, Fraction(-1)]
    assert h3.bracket_basis(1, 1) == [0, 0, 0]


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        get("h3").algebra.bracket([1, 0], [0, 1])


@given(st.data())
@settings(max_examples=40)
def test_bracket_antisymmetric(data):
    algebra = data.draw(st.sampled_from([e.algebra for e in VALID]))
    x = data.draw(vectors(algebra.dim))
    y = data.draw(vectors(algebra.dim))
    assert algebra.bracket(x, y) == vscale(-1, algebra.bracket(y, x))
    assert algebra.bracket(x, x) == [0] * algebra.dim


def test_jacobi_defects():
    assert get("h3").algebra.jacobi_defects() == []
    assert get("r3").algebra.jacobi_defects() == []
    bad = get("nonjacobi3").algebra
    defects = bad.jacobi_defects()
    assert defects and defects[0][0] == (0, 1, 2)


def test_lower_central_series_dims():
    assert [s.dim for s in get("r4").algebra.lower_central_series()] == [4, 0]
    assert [s.dim for s in get("h3").algebra.lower_central_series()] == [3, 1, 0]
    assert [s.dim for s in get("n4").algebra.lower_central_series()] == [4, 2, 1, 0]
    assert [s.dim for s in get("h7").algebra.lower_central_series()] == [7, 1, 0]


def test_catalog_nilpotent_with_nonzero_center():
    for e in VALID:
        assert e.algebra.is_nilpotent(), e.name
        assert e.algebra.center().dim >= 1, e.name


def test_center_examples():
    assert get("r3").algebra.center().dim == 3
    h3c = get("h3").algebra.center()
    assert h3c.basis == [[0, 0, Fraction(1)]]
    h5c = get("h5").algebra.center()
    assert h5c.basis == [[0, 0, 0, 0, Fraction(1)]]
    assert get("h3xr2").algebra.center().dim == 3


def test_differential_h3():
    h3 = get("h3").algebra
    dw = differential(h3, KForm.dual(3, 2))
    assert dw.coeffs == {(0, 1): Fraction(-1)}
    assert differential(h3, KForm(1, 3, {})).coeffs == {}
    assert differential(get("r3").algebra, KForm.dual(3, 0)).coeffs == {}


def test_differential_rejects_higher_degree():
    with pytest.raises(ValueError):
        differential(get("h3").algebra, KForm(2, 3, {(0, 1): 1}))


@given(st.data())
@settings(max_examples=30)
def test_differential_is_linear(data):
    algebra = data.draw(st.sampled_from([e.algebra for e in VALID]))
    n = algebra.dim
    c1 = data.draw(rationals)
    c2 = data.draw(rationals)
    w1 = KForm(1, n, {(i,): data.draw(rationals) for i in range(n)})
    w2 = KForm(1, n, {(i,): data.draw(rationals) for i in range(n)})
    combo = form_add(w1.scaled(c1), w2.scaled(c2))
    lhs = differential(algebra, combo)
    rhs = form_add(differential(algebra, w1).scaled(c1), differential(algebra, w2).scaled(c2))
    assert lhs.coeffs == rhs.coeffs


@given(st.data())
@settings(max_examples=30)
def test_differential_of_one_form_is_cocycle(data):
    # d(dw) = 0 in this degree is a consequence of Jacobi; brute-force testable.
    algebra = data.draw(st.sampled_from([e.algebra for e in VALID]))
    n = algebra.dim
    w = KForm(1, n, {(i,): data.draw(rationals) for i in range(n)})
    assert cocycle_defects(algebra, differential(algebra, w)) == []


def test_cocycle_defects_examples():
    r3 = get("r3").algebra
    assert cocycle_defects(r3, KForm(2, 3, {(0, 1): 1})) == []
    n4 = get("n4").algebra
    good = get("n4").symplectic_form
    assert cocycle_defects(n4, good) == []
    bad = KForm(2, 4, {(0, 1): 1, (2, 3): 1})
    defects = cocycle_defects(n4, bad)
    assert [(t, v) for t, v in defects] == [((0, 1, 3), Fraction(1))]


def test_kform_validation():
    with pytest.raises(ValueError):
        KForm(2, 3, {(1, 1): 1})
    with pytest.raises(ValueError):
        KForm(2, 3, {(2, 1): 1})
    with pytest.raises(ValueError):
        KForm(1, 3, {(3,): 1})


def test_kform_evaluate_alternating():
    theta = KForm(2, 3, {(0, 1): Fraction(2)})
    x = [Fraction(1), Fraction(0), Fraction(5)]
    y = [Fraction(0), Fraction(1), Fraction(-1)]
    assert theta.evaluate([x, y]) == Fraction(2)
    assert theta.evaluate([y, x]) == Fraction(-2)
    assert theta.evaluate([x, x]) == 0


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_kform_evaluate_matches_coordinate_sums(data):
    n = data.draw(st.integers(2, 5))
    x, y = (data.draw(st.lists(small, min_size=n, max_size=n)) for _ in range(2))
    omega = KForm(1, n, {(i,): data.draw(small) for i in range(n)})
    assert omega.evaluate([x]) == sum(omega.coeff((i,)) * x[i] for i in range(n))
    theta = KForm(2, n, {(i, j): data.draw(small) for i in range(n) for j in range(i + 1, n)})
    expect = sum(theta.pair(i, j) * x[i] * y[j] for i in range(n) for j in range(n))
    assert theta.evaluate([x, y]) == expect
    assert type(theta.evaluate([x, y])) is Fraction


def test_kform_evaluate_rejects_other_degrees():
    for degree in (0, 3):
        form = KForm(degree, 3, {tuple(range(degree)): 1})
        with pytest.raises(ValueError, match="degree 1 or 2"):
            form.evaluate([[Fraction(1)] * 3] * degree)


def test_quotient_h3():
    e = get("h3")
    q = quotient_by_center(e.algebra, e.contact_form)
    assert q.algebra.dim == 2
    assert q.algebra.constants == {}
    assert q.theta.coeffs == {(0, 1): Fraction(1)}
    assert q.complement == (0, 1)
    assert q.center_generator == [0, 0, Fraction(1)]


def test_quotient_h5_gives_standard_symplectic():
    e = get("h5")
    q = quotient_by_center(e.algebra, e.contact_form)
    assert q.algebra.dim == 4
    assert q.algebra.constants == {}
    assert q.theta.coeffs == {(0, 1): Fraction(1), (2, 3): Fraction(1)}


def test_quotient_with_skew_form_uses_kernel_section():
    # omega = e1* + e3* on h3: the section must land in ker(omega) for the
    # reconstruction identity to hold (asserted inside quotient_by_center).
    h3 = get("h3").algebra
    omega = KForm(1, 3, {(0,): Fraction(1), (2,): Fraction(1)})
    q = quotient_by_center(h3, omega)
    assert q.theta.coeffs == {(0, 1): Fraction(1)}
    # section of e1-bar is e1 - e3
    col0 = [q.section.at(r, 0) for r in range(3)]
    assert col0 == [Fraction(1), 0, Fraction(-1)]


def test_quotient_rejects_form_vanishing_on_center():
    with pytest.raises(ValueError, match="vanishes on the center"):
        quotient_by_center(get("h3").algebra, KForm.dual(3, 0))


def test_quotient_rejects_big_center():
    with pytest.raises(ValueError, match="one-dimensional"):
        quotient_by_center(get("h3xr2").algebra, KForm.dual(5, 2))
