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

Elimination (_rref) is sparse and fraction-free.  Each row is scaled to
integers by the lcm of its denominators and kept as a {column: int} dict of
its nonzero entries; zero rows are dropped.  The lift systems are sparse
(4 to 10 nonzeros in a row of 37, many zero and duplicate rows), so only the
rows with an entry in the pivot column are updated, by cross-multiplication
over the pivot row's nonzero entries, each new row divided by the gcd of its
entries; only the pivot rows are turned back into Fractions, once, at the
end.  The pivot column is the leftmost column where a remaining row is
nonzero; the pivot row is the remaining row with the fewest nonzero entries
there (the lowest index on a tie): a deterministic, Markowitz-style choice
that keeps fill-in down.  Which row is picked changes no result: the pivot
columns are the columns where the rank of the leading column block grows,
which no row operation changes, and the reduced row echelon form of a matrix
is unique.  So pivots and reduced rows, hence kernels, particular solutions,
ranks, infeasibility verdicts, inverses and echelon bases, are exactly those
of Gauss-Jordan elimination over Q.
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


def _eliminate(row: dict, lead: dict, c: int, p: int) -> dict:
    """Clear column c of the sparse integer row with the pivot row lead, in place.

    The row becomes p' * row - f' * lead, where p'/f' is the reduced ratio of
    p = lead[c] to row[c], and is then divided by the gcd of its entries.
    Only the lead row's nonzero entries are visited and entries that cancel
    are removed, column c among them: the row comes back empty exactly when
    it became zero.
    """
    f = row[c]
    g = gcd(p, f)
    s, f = p // g, f // g
    if s != 1:
        for j in row:
            row[j] *= s
    get = row.get
    for j, y in lead.items():
        x = get(j, 0) - f * y
        if x:
            row[j] = x
        else:
            del row[j]
    if row:
        g = gcd(*row.values())
        if g > 1:
            for j in row:
                row[j] //= g
    return row


def _rref(work: list, limit: int) -> list:
    """Reduced row echelon form over columns [0, limit), by sparse integer elimination.

    Each row, of Fractions or ints, is scaled to integers by the lcm of its
    denominators and kept as a {column: int} dict of its nonzero entries;
    zero rows are dropped.  The pivot column is the leftmost column in
    [0, limit) where a remaining row is nonzero.  The pivot row is, among the
    remaining rows nonzero there, the one with the fewest nonzero entries,
    the lowest original index on a tie; it leaves the remaining rows, and
    only the rows nonzero in the pivot column are updated (_eliminate), a row
    that becomes zero being dropped.  Back-substitution clears each pivot
    column above its pivot in the pivot rows only.

    The pivot columns are where the rank of the leading column block grows,
    which no row operation changes, and the reduced row echelon form is
    unique, so pivots and reduced rows are those of Gauss-Jordan elimination
    over Q with any pivot rule.  On return the first rank rows of work are
    the reduced rows as Fractions, pivots normalized to 1, in pivot-column
    order, over every column of work (columns from limit on are carried
    along, as for an augmented system).  Rows from rank on are dense integer
    rows, zero in [0, limit): the remaining nonzero rows, then zero rows; only
    whether an entry is zero is meaningful.  Returns the list of pivot
    columns.
    """
    m = len(work)
    if not m:
        return []
    width = len(work[0])
    rows = []
    for row in work:
        sparse = {j: x for j, x in enumerate(row) if x}
        if not sparse:
            continue
        if any(type(x) is not int for x in sparse.values()):
            den = lcm(*[x.denominator for x in sparse.values()])
            sparse = {j: x.numerator * (den // x.denominator) for j, x in sparse.items()}
        rows.append(sparse)
    pivots, leads = [], []
    for c in range(limit):
        hits = [row for row in rows if c in row]
        if not hits:
            continue
        lead = min(hits, key=len)
        p = lead[c]
        rest = []
        for row in rows:
            if c in row:
                if row is lead:
                    continue
                row = _eliminate(row, lead, c, p)
                if not row:
                    continue
            rest.append(row)
        rows = rest
        pivots.append(c)
        leads.append(lead)
        if not rows:
            break
    for k in range(len(leads) - 1, 0, -1):
        c, lead = pivots[k], leads[k]
        p = lead[c]
        for i in range(k):
            if c in leads[i]:
                leads[i] = _eliminate(leads[i], lead, c, p)
    for k, (c, lead) in enumerate(zip(pivots, leads)):
        p = lead[c]
        row = [ZERO] * width
        for j, x in lead.items():
            row[j] = Fraction(x, p)
        work[k] = row
    for i in range(len(pivots), m):
        work[i] = [0] * width
    for i, sparse in enumerate(rows, len(pivots)):
        for j, x in sparse.items():
            work[i][j] = x
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
