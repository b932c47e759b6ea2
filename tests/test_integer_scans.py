"""The integer scans against their Fraction references (tests/fraction_scans.py).

Curvature, Jacobi, center, lower central series, 2-cocycle defects and the
canonical product run on integer columns over one common denominator; each
must give the same triples, in the same order, with equal Fraction values.
The tables are drawn with mixed denominators, need not satisfy Jacobi, and
include the empty ones.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_scans as ref
from lieaff.catalog import entries, symplectic_entries
from lieaff.liecore import KForm, LieAlgebra, cocycle_defects
from lieaff.ratlin import Matrix, invert
from lieaff.structures import BilinearProduct, affine_from_symplectic, curvature, verify_affine

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def algebras(draw, min_dim=1, max_dim=7):
    n = draw(st.integers(min_dim, max_dim))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    constants = {p: draw(st.dictionaries(st.integers(0, n - 1), rationals, max_size=3))
                 for p in chosen}
    return LieAlgebra(dim=n, constants=constants)


@st.composite
def products(draw, n):
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    keys = draw(st.lists(cells, unique=True, max_size=12))
    return BilinearProduct(n, {k: draw(st.lists(rationals, min_size=n, max_size=n))
                               for k in keys})


@st.composite
def two_forms(draw, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return KForm(2, n, {p: draw(rationals) for p in pairs if draw(st.booleans())})


def assert_same_defects(got, want):
    assert got == want
    assert [t for t, _ in got] == [t for t, _ in want]
    for _, value in got:
        values = value if isinstance(value, list) else [value]
        assert all(type(x) is Fraction for x in values)


def assert_same_subspace(got, want):
    assert got.ambient_dim == want.ambient_dim
    assert got.basis == want.basis
    assert all(type(x) is Fraction for v in got.basis for x in v)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_curvature_matches_fraction_scan(data):
    algebra = data.draw(algebras())
    product = data.draw(products(algebra.dim))
    want = ref.curvature_scan(algebra, product)
    assert_same_defects(curvature(algebra, product), want)
    assert_same_defects(verify_affine(algebra, product).curvature_defects, want)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_jacobi_center_and_series_match_fraction_references(data):
    algebra = data.draw(algebras())
    assert_same_defects(algebra.jacobi_defects(), ref.jacobi_defects(algebra))
    assert_same_subspace(algebra.center(), ref.center(algebra))
    got, want = algebra.lower_central_series(), ref.lower_central_series(algebra)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_subspace(g, w)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_cocycle_defects_match_fraction_reference(data):
    algebra = data.draw(algebras(min_dim=2))  # a 2-form needs dimension 2
    theta = data.draw(two_forms(algebra.dim))
    assert_same_defects(cocycle_defects(algebra, theta), ref.cocycle_defects(algebra, theta))


def test_empty_tables():
    for n in range(1, 8):
        algebra = LieAlgebra(dim=n)
        assert algebra.jacobi_defects() == ref.jacobi_defects(algebra) == []
        assert_same_subspace(algebra.center(), ref.center(algebra))
        assert [s.basis for s in algebra.lower_central_series()] == \
            [s.basis for s in ref.lower_central_series(algebra)]
        if n >= 2:
            assert cocycle_defects(algebra, KForm(2, n, {})) == []
        assert curvature(algebra, BilinearProduct.zero(n)) == []


def changed_basis(algebra, columns):
    """The same algebra in the basis f_i = sum_k columns[i][k] e_k."""
    n = algebra.dim
    back = invert(Matrix.from_columns(columns))
    constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            coords = back.mul_vec(algebra.bracket(columns[i], columns[j]))
            constants[(i, j)] = dict(enumerate(coords))
    return LieAlgebra(dim=n, constants=constants)


@pytest.mark.parametrize("name", [e.name for e in entries() if e.algebra.dim <= 7])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_scans_in_a_skew_basis_match_fraction_references(name, data):
    # A change of basis L U, unit lower times unit upper triangular with
    # rational entries, moves the center and the lower central series off
    # the coordinate axes.
    algebra = next(e for e in entries() if e.name == name).algebra
    n = algebra.dim

    def unit_triangular(lower):
        return [[Fraction(int(i == k)) if (k < i) != lower or i == k else data.draw(rationals)
                 for k in range(n)] for i in range(n)]

    low, up = unit_triangular(True), unit_triangular(False)
    columns = [[sum(low[r][k] * up[i][r] for r in range(n)) for k in range(n)]
               for i in range(n)]
    algebra = changed_basis(algebra, columns)
    assert_same_defects(algebra.jacobi_defects(), ref.jacobi_defects(algebra))
    assert_same_subspace(algebra.center(), ref.center(algebra))
    got, want = algebra.lower_central_series(), ref.lower_central_series(algebra)
    assert [s.basis for s in got] == [s.basis for s in want]


def rescaled(algebra, theta, scales):
    """The same algebra and form in the basis f_i = scales[i] e_i (mixed denominators)."""
    constants = {(i, j): {k: c * scales[i] * scales[j] / scales[k] for k, c in terms.items()}
                 for (i, j), terms in algebra.constants.items()}
    coeffs = {(i, j): c * scales[i] * scales[j] for (i, j), c in theta.coeffs.items()}
    return LieAlgebra(dim=algebra.dim, constants=constants), KForm(2, algebra.dim, coeffs)


nonzero = st.fractions(min_value=-7, max_value=7, max_denominator=7).filter(bool)


@pytest.mark.parametrize("name", [e.name for e in symplectic_entries()])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_canonical_product_matches_fraction_solve(name, data):
    entry = next(e for e in symplectic_entries() if e.name == name)
    n = entry.algebra.dim
    scales = data.draw(st.lists(nonzero, min_size=n, max_size=n))
    algebra, theta = rescaled(entry.algebra, entry.symplectic_form, scales)
    theta = theta.scaled(data.draw(nonzero))
    product = affine_from_symplectic(algebra, theta)
    assert product.table == ref.canonical_product_table(algebra, theta)
    assert all(type(x) is Fraction for col in product.table.values() for x in col)
    # a perturbed, non-flat product: both scans agree on its defects
    (i, j), col = sorted(product.table.items())[0] if product.table else ((0, 0), [0] * n)
    bent = dict(product.table)
    bent[(i, j)] = [x + Fraction(1, 3) for x in col]
    bent = BilinearProduct(n, bent)
    assert_same_defects(curvature(algebra, bent), ref.curvature_scan(algebra, bent))
