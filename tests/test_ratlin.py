"""Exact rational parsing and the deterministic linear solver."""

import importlib.util
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fraction_scans as ref
import lieaff
from lieaff import extension, ratlin
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


# ---------------------------------------------------------------------------
# the sparse elimination against the dense one it replaced and sympy: tall
# sparse systems like the lift solvers' phi systems (zero rows, duplicate and
# scaled duplicate rows, mixed denominators, an augmented column)

def dense(fn, *args):
    """fn(*args) with the dense elimination as ratlin._rref."""
    with mock.patch.object(ratlin, "_rref", ref.dense_rref):
        return fn(*args)


def random_entry(rng):
    if rng.random() < 0.5:
        return Fraction(rng.choice([x for x in range(-30, 31) if x]))
    return Fraction(rng.choice([x for x in range(-40, 41) if x]), rng.randint(2, 12))


@st.composite
def sparse_rows(draw, max_rows=40, max_cols=12):
    """Tall sparse rows at 10-30 % density, with zero, duplicate and scaled rows mixed in."""
    rng = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.1, 0.2, 0.3]))
    rows = []
    for _ in range(m):
        kind = rng.choice(["fresh"] * 4 + ["zero", "duplicate", "scaled", "combo"]) if rows \
            else "fresh"
        if kind == "zero":
            row = [Fraction(0)] * n
        elif kind == "duplicate":
            row = list(rng.choice(rows))
        elif kind == "scaled":
            s = random_entry(rng)
            row = [s * x for x in rng.choice(rows)]
        elif kind == "combo":
            s, t = random_entry(rng), random_entry(rng)
            row = [s * x + t * y for x, y in zip(rng.choice(rows), rng.choice(rows))]
        else:
            row = [random_entry(rng) if rng.random() < density else Fraction(0)
                   for _ in range(n)]
        rows.append(row)
    return rows


@st.composite
def sparse_systems(draw):
    """(A, b): b = A x0 for a feasible system, else a sparse b, mostly infeasible."""
    a = Matrix.from_rows(draw(sparse_rows()))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        x0 = [random_entry(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(a.cols)]
        b = a.mul_vec(x0)
    else:
        b = [random_entry(rng) if rng.random() < 0.3 else Fraction(0) for _ in range(a.rows)]
    return a, b


def sympy_solution(a, b):
    """(particular, kernel, rank) read off sympy's rref of [A | b] and nullspace of A."""
    reduced, pivots = _sympy(a, b).rref()
    kernel = _fractions(_sympy(a).nullspace())
    if a.cols in pivots:
        return None, kernel, len(pivots) - 1
    x = [Fraction(0)] * a.cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(int(reduced[r, a.cols].p), int(reduced[r, a.cols].q))
    return x, kernel, len(pivots)


def as_tuple(sol):
    return sol.particular, sol.kernel, sol.rank


def test_pivot_row_rule_and_write_back():
    # column 0: rows 2 and 3 have the fewest nonzeros, row 2 the lower index;
    # rows 0 and 3 are updated and divided by the gcd, the zero row 1 is dropped
    work = [[2, 2, 2], [0, 0, 0], [4, 0, 6], [2, 0, 2], [0, 0, 4]]
    assert _rref(work, 2) == [0, 1]
    reduced = [[Fraction(1), Fraction(0), Fraction(3, 2)],
               [Fraction(0), Fraction(1), Fraction(-1, 2)]]
    assert work == reduced + [[0, 0, -1], [0, 0, 4], [0, 0, 0]]
    assert all(type(x) is Fraction for row in work[:2] for x in row)
    assert all(type(x) is int for row in work[2:] for x in row)


@given(sparse_systems())
@settings(deadline=None, max_examples=80)
def test_rref_of_augmented_system_matches_dense_and_sympy(system):
    a, b = system
    rows = [row + [x] for row, x in zip(a.to_rows(), b)]
    sparse_work, dense_work = [list(r) for r in rows], [list(r) for r in rows]
    pivots = _rref(sparse_work, a.cols)
    assert pivots == ref.dense_rref(dense_work, a.cols)
    rk = len(pivots)
    feasible = not any(row[a.cols] for row in dense_work[rk:])
    # the augmented column of the reduced rows is the particular solution when
    # the system is feasible; otherwise it depends on the rows eliminated
    width = a.cols + 1 if feasible else a.cols
    assert [row[:width] for row in sparse_work[:rk]] == [row[:width] for row in dense_work[:rk]]
    assert len(sparse_work) == len(rows)
    reduced, sym_pivots = _sympy(a).rref()
    assert tuple(pivots) == tuple(sym_pivots)
    assert [row[:a.cols] for row in sparse_work[:rk]] == _fractions(reduced.tolist()[:rk])
    assert all(type(x) is Fraction for row in sparse_work[:rk] for x in row)
    # rows from rank on: zero left of the augmented column, nonzero in it
    # exactly when the system is infeasible
    assert all(x == 0 for row in sparse_work[rk:] for x in row[:a.cols])
    assert any(row[a.cols] for row in sparse_work[rk:]) == (not feasible)


@given(sparse_systems())
@settings(deadline=None, max_examples=80)
def test_linear_solution_matches_dense_and_sympy(system):
    a, b = system
    got = solve_linear(a, b)
    assert as_tuple(got) == as_tuple(dense(solve_linear, a, b))
    assert as_tuple(got) == sympy_solution(a, b)
    outputs = (got.particular or []) + [x for v in got.kernel for x in v]
    assert all(type(x) is Fraction for x in outputs)


@given(sparse_rows())
@settings(deadline=None, max_examples=60)
def test_kernel_and_echelon_basis_match_dense(rows):
    a = Matrix.from_rows(rows)
    assert kernel_basis(a) == dense(kernel_basis, a)
    assert echelon_basis(rows, a.cols) == dense(echelon_basis, rows, a.cols)


@given(st.integers(1, 10), st.randoms(use_true_random=False),
       st.sampled_from([0.1, 0.2, 0.3]))
@settings(deadline=None, max_examples=60)
def test_invert_matches_dense_and_sympy(n, rng, density):
    # a sparse matrix with most of its diagonal set, so that many are invertible
    rows = [[random_entry(rng) if (i == j and rng.random() < 0.9) or rng.random() < density
             else Fraction(0) for j in range(n)] for i in range(n)]
    a = Matrix.from_rows(rows)
    m = _sympy(a)
    if m.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            invert(a)
        with pytest.raises(ValueError, match="singular"):
            dense(invert, a)
    else:
        got = invert(a)
        assert got == dense(invert, a)
        assert got.to_rows() == _fractions(m.inv().tolist())


def bench_inputs():
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it runs
    with mock.patch.dict(sys.modules, {"bench_inputs": module}):
        spec.loader.exec_module(module)
    return module


def test_bench_pool_phi_systems_solve_alike():
    # the lift-solve pool: trivial case plus three seeded one-dimensional
    # representations per base; each phi system is solved with both eliminations
    inputs = bench_inputs()
    solved = []

    def both(a, b):
        got = solve_linear(a, b)
        assert as_tuple(got) == as_tuple(dense(solve_linear, a, b))
        solved.append(got.infeasible)
        return got

    with mock.patch.object(extension, "solve_linear", both):
        for dim in (6, 8):
            for index in range(6):
                base = inputs.symplectic_base(0, dim, index)
                lieaff.solve_lift_trivial(base.algebra, base.theta, base.nabla)
                for seed in (1, 2, 3):
                    alpha = inputs.one_dim_rep(inputs.rng_for(seed, "alpha", dim, index),
                                               base.algebra)
                    lieaff.solve_lift_with_alpha(base.algebra, base.theta, base.nabla, alpha)
    assert len(solved) == 48
    assert any(solved) and not all(solved)
