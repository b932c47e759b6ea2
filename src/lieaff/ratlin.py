"""Exact rational scalars and dense linear algebra over Q.

Everything downstream computes with fractions.Fraction: arbitrary precision,
always stored normalized with a positive denominator, which is exactly the
invariant the rest of the package relies on.  No floating point anywhere.

Matrices are dense and small: the largest are the lift solvers' systems, a
few hundred rows by a few dozen unknowns.  Their entries are Fractions or
Python ints, freely mixed: the solvers (solve_linear, kernel_basis, rank,
invert, echelon_basis) accept both, in the matrix and in a right-hand side,
and always return Fractions.  A caller that has already scaled its rows to
integers builds the Matrix from them directly and skips the conversion.
Elimination runs in Python ints, fraction-free: each row is scaled to
integers by the lcm of its denominators (scale_to_integers), columns are
cleared by cross-multiplication with each new row divided by the gcd of its
entries, and only the pivot rows are turned back into Fractions, once, at
the end.  The pivot rule is deterministic: the first nonzero entry in scan
order.  Every integer row is a nonzero multiple of the row Gauss-Jordan
elimination over Q would hold at the same step, so the pivots are the same,
and since the reduced row echelon form is unique the pivot rows, hence
kernels, particular solutions, ranks, inverses and echelon bases, are
exactly those of elimination over Q.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the exact rational text syntax: "7", "-3/2", "0".

    A unicode minus sign is tolerated on input; decimal points and exponents
    are rejected (no floats anywhere in this package).
    """
    s = str(text).strip().replace("−", "-")
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# vectors: plain lists of Fraction

def as_vector(xs) -> list:
    return [Fraction(x) for x in xs]


def vzero(n: int) -> list:
    return [ZERO] * n


def vadd(u, v) -> list:
    return [a + b for a, b in zip(u, v)]


def vsub(u, v) -> list:
    return [a - b for a, b in zip(u, v)]


def vscale(c, u) -> list:
    c = Fraction(c)
    return [c * a for a in u]


def is_zero_vector(u) -> bool:
    return all(a == 0 for a in u)


# ---------------------------------------------------------------------------
# matrices

def scale_to_integers(values, den: Optional[int] = None) -> tuple:
    """(ints, den): the rationals in values times den, as Python ints.

    den defaults to the lcm of their denominators; a given den must be a
    multiple of each of them.  Accepts Fractions and ints; a list of ints
    with no den given comes back as a copy, without a pass of arithmetic.
    """
    if den is None:
        if all(type(x) is int for x in values):
            return list(values), 1
        den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def fractions_over(values, den: int) -> list:
    """The ints in values over den, as Fractions; the zero entries are ZERO."""
    return [Fraction(v, den) if v else ZERO for v in values]


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of exact rationals.

    The constructors from_rows, from_columns, zeros and identity store
    Fractions.  Matrix(rows, cols, entries) stores the entries as given, which
    may be Fractions or Python ints; the solvers accept either and return
    Fractions.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative shape")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        ents = tuple(Fraction(x) for r in rows for x in r)
        return Matrix(len(rows), cols, ents)

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "Matrix":
        cols = [list(c) for c in columns]
        if not cols:
            return Matrix(0, 0, ())
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("ragged columns")
        return Matrix.from_rows([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple([ZERO] * (rows * cols)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        ents = [ZERO] * (n * n)
        for i in range(n):
            ents[i * n + i] = ONE
        return Matrix(n, n, tuple(ents))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def mul_vec(self, x) -> list:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum((self.entries[base + j] * x[j] for j in range(self.cols)), ZERO))
        return out


def _clear_column(work: list, k: int, c: int, targets) -> None:
    """Clear column c of the integer rows work[i], i in targets, with pivot row k.

    Each row becomes p' * row - f' * lead, where p'/f' is the reduced ratio of
    the pivot to the row's entry in column c, and is then divided by the gcd of
    its entries.  The pivot row is zero left of c, so only its nonzero entries
    right of c are visited.
    """
    lead = work[k]
    p = lead[c]
    nonzero = [j for j in range(c + 1, len(lead)) if lead[j]]
    for i in targets:
        row = work[i]
        f = row[c]
        if not f:
            continue
        g = gcd(p, f)
        scale, f = p // g, f // g
        if scale != 1:
            row = [scale * x for x in row]
        row[c] = 0
        for j in nonzero:
            row[j] -= f * lead[j]
        g = gcd(*row)
        work[i] = [x // g for x in row] if g > 1 else row


def _rref(work: list, limit: int) -> list:
    """Reduced row echelon form over columns [0, limit), by integer elimination.

    Each row, of Fractions or ints, is scaled to integers by the lcm of its
    denominators.  Forward elimination picks as pivot the first nonzero entry
    scanning rows top-down within the leftmost eligible column, so the result
    is deterministic, and clears the column below it in integers;
    back-substitution clears it above in the pivot rows only.  On return the
    first rank rows are the reduced rows as Fractions, pivots normalized to 1,
    over every column of work (columns from limit on are carried along, as for
    an augmented system).  Rows from rank on are nonzero integer multiples of
    what Gauss-Jordan elimination over Q would leave there; only whether an
    entry is zero is meaningful.  Returns the list of pivot columns.
    """
    m = len(work)
    for i, row in enumerate(work):
        work[i] = scale_to_integers(row)[0]
    pivots = []
    r = 0
    for c in range(limit):
        prow = None
        for i in range(r, m):
            if work[i][c]:
                prow = i
                break
        if prow is None:
            continue
        work[r], work[prow] = work[prow], work[r]
        _clear_column(work, r, c, range(r + 1, m))
        pivots.append(c)
        r += 1
        if r == m:
            break
    for k in range(r - 1, 0, -1):
        _clear_column(work, k, pivots[k], range(k))
    for k, c in enumerate(pivots):
        p = work[k][c]
        work[k] = [Fraction(x, p) for x in work[k]]
    return pivots


def _kernel_from_rref(work: list, pivots: list, cols: int) -> list:
    pivset = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivset:
            continue
        v = vzero(cols)
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


@dataclass
class LinearSolution:
    """Outcome of an exact linear solve: particular solution plus kernel basis.

    particular is None exactly when the system is infeasible
    (rank [A|b] > rank A).
    """

    particular: Optional[list]
    kernel: list
    rank: int

    @property
    def infeasible(self) -> bool:
        return self.particular is None


def solve_linear(a: Matrix, b: Sequence) -> LinearSolution:
    """Solve a x = b exactly; entries of a and b are Fractions or ints."""
    if a.rows != len(b):
        raise ValueError(f"dimension mismatch: {a.rows} rows vs {len(b)} right-hand entries")
    work = [a.row(i) + [b[i]] for i in range(a.rows)]
    pivots = _rref(work, a.cols)
    rk = len(pivots)
    kernel = _kernel_from_rref(work, pivots, a.cols)
    for r in range(rk, a.rows):
        if work[r][a.cols] != 0:
            return LinearSolution(None, kernel, rk)
    x = vzero(a.cols)
    for r, pc in enumerate(pivots):
        x[pc] = work[r][a.cols]
    return LinearSolution(x, kernel, rk)


def kernel_basis(a: Matrix) -> list:
    work = a.to_rows()
    pivots = _rref(work, a.cols)
    return _kernel_from_rref(work, pivots, a.cols)


def rank(a: Matrix) -> int:
    work = a.to_rows()
    return len(_rref(work, a.cols))


def invert(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    eye = Matrix.identity(n)
    work = [a.row(i) + eye.row(i) for i in range(n)]
    pivots = _rref(work, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return Matrix.from_rows([work[i][n:] for i in range(n)])


def echelon_basis(vectors: Sequence[Sequence], dim: int) -> list:
    """Reduce a generating set to an echelonized independent basis."""
    rows = [as_vector(v) for v in vectors if not is_zero_vector(v)]
    for v in rows:
        if len(v) != dim:
            raise ValueError("vector length does not match ambient dimension")
    if not rows:
        return []
    pivots = _rref(rows, dim)
    return rows[:len(pivots)]
