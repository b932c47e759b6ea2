"""Exact rational parsing and the deterministic linear solver."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lieaff.ratlin import (
    Matrix,
    _rref,
    echelon_basis,
    format_rational,
    invert,
    kernel_basis,
    parse_rational,
    rank,
    scale_to_integers,
    solve_linear,
    vadd,
    vscale,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def test_parse_format_round_trip():
    for text, val in [("7", Fraction(7)), ("0", Fraction(0)), ("-3/2", Fraction(-3, 2)),
                      ("6/4", Fraction(3, 2)), ("+2", Fraction(2))]:
        q = parse_rational(text)
        assert q == val
        assert parse_rational(format_rational(q)) == q


def test_parse_accepts_unicode_minus():
    assert parse_rational("−3/2") == Fraction(-3, 2)


@pytest.mark.parametrize("bad", ["1.5", "", "1/0", "3/", "/2", "1e3", "0x2", "nan", "1/-2"])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_is_normalized():
    assert format_rational(Fraction(-6, 4)) == "-3/2"
    assert format_rational(Fraction(8, 2)) == "4"


def test_solve_1x1():
    sol = solve_linear(Matrix.from_rows([[1]]), [3])
    assert sol.particular == [Fraction(3)]
    assert sol.kernel == []


def test_solve_inconsistent():
    sol = solve_linear(Matrix.from_rows([[0]]), [1])
    assert sol.infeasible


def test_solve_underdetermined():
    a = Matrix.from_rows([[1, 1], [2, 2]])
    sol = solve_linear(a, [1, 2])
    assert sol.particular == [Fraction(1), Fraction(0)]
    assert sol.kernel == [[Fraction(-1), Fraction(1)]]
    assert a.mul_vec(sol.particular) == [Fraction(1), Fraction(2)]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(Matrix.from_rows([[1, 2]]), [1, 2])


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, (Fraction(1),))
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(3)) == []
    zk = kernel_basis(Matrix.zeros(2, 3))
    assert len(zk) == 3
    a = Matrix.from_rows([[1, 2, 3]])
    k = kernel_basis(a)
    assert len(k) == 2
    for v in k:
        assert a.mul_vec(v) == [0]
    assert len(echelon_basis(k, 3)) == 2


def test_rank_examples():
    assert rank(Matrix.zeros(3, 4)) == 0
    assert rank(Matrix.identity(5)) == 5
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_invert():
    a = Matrix.from_rows([[1, 2], [3, 5]])
    ainv = invert(a)
    eye = Matrix.identity(2)
    for j in range(2):
        col = [a.at(i, j) for i in range(2)]
        assert ainv.mul_vec(col) == [eye.at(i, j) for i in range(2)]
    with pytest.raises(ValueError):
        invert(Matrix.from_rows([[1, 2], [2, 4]]))


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = [[draw(rationals) for _ in range(c)] for _ in range(r)]
    return Matrix.from_rows(rows)


@given(matrices())
def test_rank_plus_nullity_is_cols(a):
    assert rank(a) + len(kernel_basis(a)) == a.cols


@given(matrices())
@settings(deadline=None, max_examples=30)
def test_rank_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    m = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in a.row(i)] for i in range(a.rows)]
    )
    assert rank(a) == m.rank()


@given(matrices(), st.data())
def test_solvable_systems_solve_exactly(a, data):
    x0 = [data.draw(rationals) for _ in range(a.cols)]
    b = a.mul_vec(x0)
    sol = solve_linear(a, b)
    assert not sol.infeasible
    assert a.mul_vec(sol.particular) == b
    combo = sol.particular
    for v in sol.kernel:
        combo = vadd(combo, vscale(data.draw(rationals), v))
    assert a.mul_vec(combo) == b
    assert sol.rank + len(sol.kernel) == a.cols


# ---------------------------------------------------------------------------
# the integer elimination against sympy's rref

mixed_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)


@st.composite
def shaped_matrices(draw, max_dim=7):
    """Tall, wide and square matrices with zero rows and dependent rows mixed in."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = [[draw(mixed_rationals) for _ in range(c)] for _ in range(r)]
    for i in range(1, r):
        kind = draw(st.sampled_from(["keep", "zero", "combo"]))
        if kind == "zero":
            rows[i] = [Fraction(0)] * c
        elif kind == "combo":
            s, t = draw(mixed_rationals), draw(mixed_rationals)
            j = draw(st.integers(0, i - 1))
            rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[i - 1])]
    return Matrix.from_rows(rows)


def _sympy(a, extra=None):
    sympy = pytest.importorskip("sympy")
    rows = a.to_rows()
    if extra is not None:
        rows = [row + [b] for row, b in zip(rows, extra)]
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def _fractions(rows):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in rows]


@given(shaped_matrices())
@settings(deadline=None, max_examples=60)
def test_rref_matches_sympy(a):
    reduced, sym_pivots = _sympy(a).rref()
    work = a.to_rows()
    pivots = _rref(work, a.cols)
    assert tuple(pivots) == tuple(sym_pivots)
    assert work[:len(pivots)] == _fractions(reduced.tolist()[:len(pivots)])
    assert all(x == 0 for row in work[len(pivots):] for x in row)


@given(shaped_matrices(), st.data())
@settings(deadline=None, max_examples=60)
def test_infeasible_exactly_when_augmented_rank_grows(a, data):
    b = [data.draw(mixed_rationals) for _ in range(a.rows)]
    sol = solve_linear(a, b)
    rank_a = _sympy(a).rank()
    assert sol.rank == rank_a
    assert sol.infeasible == (_sympy(a, b).rank() > rank_a)
    if not sol.infeasible:
        assert a.mul_vec(sol.particular) == [Fraction(x) for x in b]


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(mixed_rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(deadline=None, max_examples=60)
def test_invert_matches_sympy(rows):
    a = Matrix.from_rows(rows)
    m = _sympy(a)
    if m.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            invert(a)
    else:
        assert invert(a).to_rows() == _fractions(m.inv().tolist())


@given(shaped_matrices())
@settings(deadline=None, max_examples=60)
def test_echelon_basis_is_sympy_rref_rows(a):
    reduced, pivots = _sympy(a).rref()
    assert echelon_basis(a.to_rows(), a.cols) == _fractions(reduced.tolist()[:len(pivots)])


@given(st.integers(-20, 20), st.integers(1, 20), st.integers(-20, 20), st.integers(1, 20))
def test_two_way_addition_identical(a, b, c, d):
    common = Fraction(a * d + c * b, b * d)
    cross = Fraction(a, b) + Fraction(c, d)
    assert common == cross
    assert common.denominator > 0
    assert gcd(abs(common.numerator), common.denominator) == 1


@given(shaped_matrices(), st.data())
@settings(deadline=None, max_examples=60)
def test_integer_rows_solve_like_fraction_rows(a, data):
    # each augmented row scaled to ints and by a further nonzero factor, as the
    # lift solver's assembly does: same solution, rank and verdict, as Fractions
    b = [data.draw(mixed_rationals) for _ in range(a.rows)]
    entries, rhs = [], []
    for row, bi in zip(a.to_rows(), b):
        ints, _ = scale_to_integers(row + [bi])
        factor = data.draw(st.integers(1, 12)) * data.draw(st.sampled_from([1, -1]))
        entries += [factor * x for x in ints[:-1]]
        rhs.append(factor * ints[-1])
    got = solve_linear(Matrix(a.rows, a.cols, tuple(entries)), rhs)
    want = solve_linear(a, b)
    assert (got.particular, got.kernel, got.rank) == (want.particular, want.kernel, want.rank)
    outputs = (got.particular or []) + [x for v in got.kernel for x in v]
    assert all(type(x) is Fraction for x in outputs)
