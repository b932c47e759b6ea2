"""The integer scans against their Fraction references (tests/fraction_scans.py).

Torsion, curvature, Jacobi, center, lower central series, 2-cocycle defects, the
canonical product, the quotient by the center and the half-case residuals run
on integer columns over one common denominator; each must give the same
triples, in the same order, with equal Fraction values.  The tables are drawn
with mixed denominators, need not satisfy Jacobi, and include the empty ones.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_scans as ref
from lieaff import liecore
from lieaff.catalog import contact_entries, entries, get, symplectic_entries
from lieaff.extension import (
    LiftData,
    _lift_tables,
    _phi_condition_values,
    central_extend,
    half_case_residuals,
    theorem_verdict,
)
from lieaff.liecore import KForm, LieAlgebra, cocycle_defects, quotient_by_center
from lieaff.ratlin import Matrix, invert
from lieaff.structures import (
    BilinearProduct,
    affine_from_symplectic,
    curvature,
    torsion_defects,
    verify_affine,
)

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
@settings(max_examples=60, deadline=None)
def test_torsion_matches_fraction_scan(data):
    algebra = data.draw(algebras(min_dim=2))
    product = data.draw(products(algebra.dim))
    want = ref.torsion_defects(algebra, product)
    assert_same_defects(torsion_defects(algebra, product), want)
    assert_same_defects(verify_affine(algebra, product).torsion_defects, want)


def test_torsion_with_mixed_denominators():
    # [e1, e2] = 1/2 e3 against a product over the denominators 3, 4 and 5:
    # two pairs fail, one with a value over their lcm.
    algebra = LieAlgebra(dim=3, constants={(0, 1): {2: Fraction(1, 2)}})
    product = BilinearProduct(3, {(0, 1): [Fraction(1, 3), 0, Fraction(1, 4)],
                                  (1, 0): [0, Fraction(2, 5), 0],
                                  (1, 2): [0, 0, Fraction(-3, 4)]})
    want = ref.torsion_defects(algebra, product)
    assert [t for t, _ in want] == [(0, 1), (1, 2)]
    assert want[0][1] == [Fraction(1, 3), Fraction(-2, 5), Fraction(-1, 4)]
    assert_same_defects(torsion_defects(algebra, product), want)


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


def skew_basis(data, n, full=True):
    """Columns of a product of two unit triangular matrices with drawn rational
    entries, upper times lower; with full unset, of the upper factor alone."""
    def unit_triangular(lower):
        return [[Fraction(int(i == k)) if (k < i) != lower or i == k else data.draw(rationals)
                 for k in range(n)] for i in range(n)]

    low = unit_triangular(True)
    up = unit_triangular(False) if full else [[Fraction(int(i == k)) for k in range(n)]
                                              for i in range(n)]
    return [[sum(low[r][k] * up[i][r] for r in range(n)) for k in range(n)]
            for i in range(n)]


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
    algebra = changed_basis(algebra, skew_basis(data, algebra.dim))
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


# ---------------------------------------------------------------------------
# the quotient by the center and the half-case residuals


def heisenberg(dim):
    return LieAlgebra(dim=dim, constants={(2 * i, 2 * i + 1): {dim - 1: 1}
                                          for i in range(dim // 2)}, name=f"h{dim}")


CONTACT_CASES = [e.name for e in contact_entries()] + \
    [f"{e.name}-ext" for e in symplectic_entries()] + ["h9"]


def contact_case(name, data):
    """A contact algebra with a contact form, in a random basis P S.

    "<base>-ext" is the central extension of a symplectic catalog entry,
    rescaled with mixed denominators and with its 2-form scaled; the contact
    form is the dual of the new central vector.  P permutes the coordinates
    and S is skew_basis, full or upper triangular: under the full one the
    center generator is dense; under the upper one its last nonzero index is
    wherever P sends the old center.  The form is scaled by a drawn nonzero
    rational.
    """
    if name == "h9":
        algebra, omega = heisenberg(9), KForm.dual(9, 8)
    elif name.endswith("-ext"):
        entry = get(name[:-4])
        n = entry.algebra.dim
        base, theta = rescaled(entry.algebra, entry.symplectic_form,
                               data.draw(st.lists(nonzero, min_size=n, max_size=n)))
        algebra = central_extend(base, theta.scaled(data.draw(nonzero))).extended
        omega = KForm.dual(n + 1, n)
    else:
        entry = get(name)
        algebra, omega = entry.algebra, entry.contact_form
    n = algebra.dim
    order = data.draw(st.permutations(range(n)))
    columns = [[col[order[k]] for k in range(n)]
               for col in skew_basis(data, n, full=data.draw(st.booleans()))]
    omega = KForm(1, n, {(i,): sum(c * omega.coeff((k,)) for k, c in enumerate(col))
                         for i, col in enumerate(columns)})
    return changed_basis(algebra, columns), omega.scaled(data.draw(nonzero))


def assert_same_quotient(got, want):
    assert list(got.algebra.constants.items()) == list(want.algebra.constants.items())
    assert all(type(c) is Fraction for terms in got.algebra.constants.values()
               for c in terms.values())
    assert (got.algebra.dim, got.algebra.basis_names, got.algebra.name) == \
        (want.algebra.dim, want.algebra.basis_names, want.algebra.name)
    assert list(got.theta.coeffs.items()) == list(want.theta.coeffs.items())
    assert all(type(c) is Fraction for c in got.theta.coeffs.values())
    assert got.center_generator == want.center_generator
    assert all(type(x) is Fraction for x in got.center_generator)
    assert got.section == want.section
    assert all(type(x) is Fraction for x in got.section.entries)
    assert got.complement == want.complement


@pytest.mark.parametrize("name", CONTACT_CASES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_quotient_matches_fraction_reference(name, data):
    algebra, omega = contact_case(name, data)
    assert_same_quotient(quotient_by_center(algebra, omega),
                         ref.quotient_by_center(algebra, omega))


@pytest.mark.parametrize("name", CONTACT_CASES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_kept_basis_is_the_greedy_scan(name, data):
    # every index but the last one where the center generator is nonzero
    algebra, omega = contact_case(name, data)
    quot = quotient_by_center(algebra, omega)
    t = quot.center_generator
    p = max(i for i, x in enumerate(t) if x)
    assert quot.complement == tuple(i for i in range(algebra.dim) if i != p)
    assert quot.complement == tuple(ref.greedy_kept(t))


def _doubled_theta(degree, dim, coeffs):
    return KForm(degree, dim, {idx: 2 * c for idx, c in coeffs.items()})


def _extra_bracket(dim, basis_names, constants, name):
    # [f1, f2] gains f1: still Lie, and theta stays closed on h5/center
    constants = dict(constants)
    constants[(0, 1)] = {**constants.get((0, 1), {}), 0: Fraction(1)}
    return LieAlgebra(dim=dim, basis_names=basis_names, constants=constants, name=name)


@pytest.mark.parametrize("attr, fake", [("KForm", _doubled_theta),
                                        ("LieAlgebra", _extra_bracket)])
def test_reconstruction_check_catches_a_wrong_quotient(monkeypatch, attr, fake):
    # A quotient that passes Jacobi and the cocycle test but does not rebuild
    # the algebra: only the reconstruction check can refuse it.
    monkeypatch.setattr(liecore, attr, fake)
    with pytest.raises(AssertionError, match="reconstruction identity failed"):
        quotient_by_center(get("h5").algebra, get("h5").contact_form)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n)


def assert_same_residuals(got, want):
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert_same_defects(g, w)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_half_case_residuals_match_fraction_reference(data):
    algebra = data.draw(algebras(min_dim=2))
    n = algebra.dim
    theta = data.draw(two_forms(n))
    V = data.draw(st.lists(vectors(n), min_size=n, max_size=n))
    a = data.draw(vectors(n))
    assert_same_residuals(half_case_residuals(algebra, theta, V, a),
                          ref.half_case_residuals(algebra, theta, V, a))


@pytest.mark.parametrize("name", CONTACT_CASES)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_half_case_on_symplectic_quotients(name, data):
    # the quotient of a contact algebra by its center is a symplectic base:
    # both lists match the reference, and the second is 2 C_a at phi = theta/2
    # for the canonical nabla
    algebra, omega = contact_case(name, data)
    quot = quotient_by_center(algebra, omega)
    base, theta = quot.algebra, quot.theta
    n = base.dim
    zero = [[0] * n] * n
    V = data.draw(st.one_of(st.just(zero), st.lists(vectors(n), min_size=n, max_size=n)))
    a = data.draw(st.one_of(st.just([0] * n), vectors(n)))
    got = half_case_residuals(base, theta, V, a)
    assert_same_residuals(got, ref.half_case_residuals(base, theta, V, a))
    nabla = affine_from_symplectic(base, theta)
    values, den = _phi_condition_values(_lift_tables(base, theta, nabla, a)[2],
                                        LiftData.half_cocycle(theta, a))
    assert got[1] == [(t, 2 * Fraction(v, den)) for t, v in values.items() if v]


# ---------------------------------------------------------------------------
# the auxiliary product rule of the verdict


@pytest.mark.parametrize("name", CONTACT_CASES)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_aux_product_rule_matches_fraction_reference(name, data):
    # the canonical product of a symplectic quotient in a random basis, with a
    # raw central form a of mixed denominators: mostly not a representation
    algebra, omega = contact_case(name, data)
    quot = quotient_by_center(algebra, omega)
    base, theta = quot.algebra, quot.theta
    nabla = affine_from_symplectic(base, theta)
    lift = LiftData.half_cocycle(theta, data.draw(vectors(base.dim)))
    got = theorem_verdict(central_extend(base, theta), nabla, lift).aux_witnesses
    assert_same_defects(got, ref.aux_product_rule(nabla, lift))


def test_aux_product_rule_with_mixed_denominators():
    # a = (1/2, 2/3, -3/4, 5/6) is not a representation on n4: every pair fails,
    # with values over nine denominators from 2 to 36
    e = get("n4")
    nabla = affine_from_symplectic(e.algebra, e.symplectic_form)
    lift = LiftData.half_cocycle(e.symplectic_form,
                                 [Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(5, 6)])
    got = theorem_verdict(central_extend(e.algebra, e.symplectic_form), nabla, lift)
    want = ref.aux_product_rule(nabla, lift)
    assert len(want) == 16 and len({v.denominator for _, v in want}) > 3
    assert_same_defects(got.aux_witnesses, want)
