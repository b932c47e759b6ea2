"""Contact forms, symplectic 2-cocycles, and the affine structure they induce.

The top-degree wedge evaluation enumerates complementary shuffles with their
signs, so (dw)^p means the honest p-fold exterior power with no ad-hoc
factorials: the shuffle sum *is* the definition.  The affine structure
attached to a symplectic 2-cocycle theta is the unique product with
theta(prod(x, y), z) = -theta(y, [x, z]); it is verified to be flat and
torsion-free before it is returned.

Products and brackets are scanned as sparse integer columns over one common
denominator D (integer_columns).  curvature is the one flatness scan: it runs
liecore.integer_curvature, the kernel Jacobi testing shares, on the product's
left-multiplication columns and turns only the nonzero values into
Fractions.  The canonical product and the defining-relation readback are
evaluated in ints the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional

from .liecore import (
    KForm,
    LieAlgebra,
    cocycle_defects,
    differential,
    integer_brackets,
    integer_curvature,
    integer_gram,
)
from .ratlin import (
    Matrix,
    ONE,
    ZERO,
    fractions_over,
    invert,
    is_zero_vector,
    rank as matrix_rank,
    scale_to_integers,
    vzero,
)

DEFAULT_SEED = 20177

WEDGE_DIM_LIMIT = 9


@dataclass
class BilinearProduct:
    """Bilinear product on Q^n stored as a sparse table (zero columns implicit)."""

    dim: int
    table: dict

    def __post_init__(self):
        clean = {}
        for (i, j), col in self.table.items():
            i, j = int(i), int(j)
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"product index ({i}, {j}) out of range")
            col = [Fraction(x) for x in col]
            if len(col) != self.dim:
                raise ValueError("product value has wrong length")
            if not is_zero_vector(col):
                clean[(i, j)] = tuple(col)
        self.table = clean

    @staticmethod
    def zero(dim: int) -> "BilinearProduct":
        return BilinearProduct(dim, {})

    def value(self, i: int, j: int) -> list:
        col = self.table.get((i, j))
        return list(col) if col is not None else vzero(self.dim)

    def apply(self, x, y) -> list:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch in product")
        out = vzero(self.dim)
        for (i, j), col in self.table.items():
            coef = x[i] * y[j]
            if coef:
                for k, c in enumerate(col):
                    if c:
                        out[k] += coef * c
        return out


def wedge_eval_top(forms, dim: int) -> Fraction:
    """Value of the wedge product of the given forms on (e_1, ..., e_dim).

    The degrees must sum to dim.  Enumerates ordered partitions of the index
    set into blocks of the given degrees (complementary shuffles) and sums
    coefficient products with shuffle signs, pruning branches whose block
    coefficient is zero.
    """
    if dim > WEDGE_DIM_LIMIT:
        raise ValueError(f"wedge evaluation supports dimension <= {WEDGE_DIM_LIMIT}, got {dim}")
    degrees = [f.degree for f in forms]
    if sum(degrees) != dim:
        raise ValueError(f"degrees {degrees} do not sum to the dimension {dim}")
    for f in forms:
        if f.dim != dim:
            raise ValueError("form dimension mismatch")

    forms = list(forms)

    def rec(avail, fi):
        if fi == len(forms):
            return ONE
        f = forms[fi]
        k = f.degree
        total = ZERO
        for pos in combinations(range(len(avail)), k):
            block = tuple(avail[p] for p in pos)
            c = f.coeffs.get(block, ZERO)
            if c == 0:
                continue
            posset = set(pos)
            rest = [avail[p] for p in range(len(avail)) if p not in posset]
            swaps = sum(pos[t] - t for t in range(k))
            sub = rec(rest, fi + 1)
            if sub:
                term = c * sub
                total += -term if swaps % 2 else term
        return total

    return rec(list(range(dim)), 0)


@dataclass
class ContactReport:
    """Exact value of w ^ (dw)^p on the full basis, and the verdict."""

    form: KForm
    scalar: Fraction
    is_contact: bool


def contact_test(algebra: LieAlgebra, omega: KForm) -> ContactReport:
    n = algebra.dim
    if n % 2 == 0:
        raise ValueError("contact test needs odd dimension")
    if omega.degree != 1 or omega.dim != n:
        raise ValueError("need a 1-form on the algebra")
    p = (n - 1) // 2
    # in dimension 1 there are no 2-forms, and the scalar is w(e_1) itself
    scalar = wedge_eval_top([omega] + [differential(algebra, omega)] * p if p else [omega], n)
    return ContactReport(omega, scalar, scalar != 0)


@dataclass
class SearchOutcome:
    """Result of the contact-form search; a miss is probabilistic, not a proof."""

    found: Optional[ContactReport]
    scalars: list
    seed: int
    attempts: int


def random_one_form(rng: random.Random, dim: int) -> KForm:
    coeffs = {}
    for i in range(dim):
        c = rng.randint(-3, 3)
        if c:
            coeffs[(i,)] = Fraction(c)
    return KForm(1, dim, coeffs)


def search_contact_form(algebra: LieAlgebra, attempts: int = 200,
                        seed: int = DEFAULT_SEED) -> SearchOutcome:
    """Dual basis vectors first, then seeded random 1-forms nonzero on the center.

    Forms vanishing on the whole center cannot be contact, so such draws are
    discarded without spending the attempt budget.  attempts = 0 runs the
    dual-basis scan only; a negative budget raises ValueError.
    """
    if attempts < 0:
        raise ValueError(f"attempts must be nonnegative, got {attempts}")
    n = algebra.dim
    if n % 2 == 0:
        raise ValueError("contact search needs odd dimension")
    if not algebra.is_nilpotent():
        raise ValueError("contact search is implemented for nilpotent algebras")
    center = algebra.center()
    scalars = []
    for i in range(n):
        rep = contact_test(algebra, KForm.dual(n, i))
        scalars.append(rep.scalar)
        if rep.is_contact:
            return SearchOutcome(rep, scalars, seed, 0)
    rng = random.Random(seed)
    used = 0
    draws = 0
    cap = 50 * max(attempts, 1)
    while used < attempts and draws < cap:
        draws += 1
        omega = random_one_form(rng, n)
        if omega.is_zero():
            continue
        if all(omega.evaluate([b]) == 0 for b in center.basis):
            continue
        rep = contact_test(algebra, omega)
        scalars.append(rep.scalar)
        used += 1
        if rep.is_contact:
            return SearchOutcome(rep, scalars, seed, used)
    return SearchOutcome(None, scalars, seed, used)


@dataclass
class SymplecticReport:
    nondegenerate: bool
    closed: bool
    rank: int
    defects: list

    @property
    def is_symplectic(self) -> bool:
        return self.nondegenerate and self.closed


def gram_rank(theta: KForm) -> int:
    """Rank of the Gram matrix of the 2-form theta; theta is nondegenerate when it is theta.dim."""
    n = theta.dim
    gram, _ = integer_gram(theta)
    return matrix_rank(Matrix(n, n, tuple(g for row in gram for g in row)))


def symplectic_check(algebra: LieAlgebra, theta: KForm) -> SymplecticReport:
    n = algebra.dim
    if n % 2 != 0:
        raise ValueError("symplectic check needs even dimension")
    if theta.degree != 2 or theta.dim != n:
        raise ValueError("need a 2-form on the algebra")
    rk = gram_rank(theta)
    defects = cocycle_defects(algebra, theta)
    return SymplecticReport(rk == n, not defects, rk, defects)


def affine_from_symplectic(algebra: LieAlgebra, theta: KForm) -> BilinearProduct:
    """The product defined by theta(prod(e_i, e_j), e_k) = -theta(e_j, [e_i, e_k]).

    Uniqueness comes from nondegeneracy, which is asserted here by inverting
    the Gram matrix rather than trusted.  With theta over E (integer_gram),
    the bracket over D (integer_brackets) and the inverse of the transposed
    integer Gram matrix over F, prod(e_i, e_j) = inverse . r / (D * F), where
    r_k = -sum_q D [e_i, e_k]_q * E theta(e_j, e_q) is an integer.  The result
    is checked to be a flat torsion-free product before returning.
    """
    n = algebra.dim
    defects = cocycle_defects(algebra, theta)
    if defects:
        raise ValueError(f"2-form is not a cocycle; first defect at {defects[0][0]}")
    gram, _ = integer_gram(theta)
    try:
        # theta(v, e_k) = sum_q v_q theta(e_q, e_k): coefficient matrix is
        # gram transposed, i.e. m[k][q] = theta(e_q, e_k).
        minv = invert(Matrix(n, n, tuple(gram[q][k] for k in range(n) for q in range(n))))
    except ValueError:
        raise ValueError("2-form is degenerate; the defining relation has no unique solution")
    minv, f = scale_to_integers(minv.entries)
    minv = [minv[r * n:(r + 1) * n] for r in range(n)]
    brackets, d = integer_brackets(algebra)

    table = {}
    for i in range(n):
        for j in range(n):
            gram_j = gram[j]
            rhs = [(k, -sum(v * gram_j[q] for q, v in brackets[i][k])) for k in range(n)]
            rhs = [(k, r) for k, r in rhs if r]
            if rhs:
                v = [sum(row[k] * r for k, r in rhs) for row in minv]
                table[(i, j)] = fractions_over(v, d * f)
    product = BilinearProduct(n, table)

    report = verify_affine(algebra, product)
    if not report.is_affine:
        raise AssertionError("derived product failed the affine verification")
    return product


def curvature(algebra: LieAlgebra, product: BilinearProduct, columns=None) -> list:
    """The flatness scan: every nonzero R(e_i, e_j) e_k, i < j, all k, in scan order.

    R(u, v) w = prod(u, prod(v, w)) - prod(v, prod(u, w)) - prod([u, v], w),
    computed by integer_curvature from the columns over D and returned as
    ((i, j, k), [Fraction, ...]) with the values over D^2.  A caller that has
    the columns (integer_columns) passes them.
    """
    brackets, products, _, d = columns or integer_columns(algebra, product)
    return [(t, fractions_over(acc, d * d)) for t, acc in integer_curvature(products, brackets)]


@dataclass
class AffineReport:
    """All torsion and curvature defects of a candidate product, in scan (sorted) order."""

    torsion_defects: list
    curvature_defects: list

    @property
    def is_affine(self) -> bool:
        return not self.torsion_defects and not self.curvature_defects


def torsion_defects(algebra: LieAlgebra, product: BilinearProduct, columns=None) -> list:
    """Pairs i < j where prod(e_i, e_j) - prod(e_j, e_i) differs from [e_i, e_j].

    With the columns over D (integer_columns, passed by a caller that has
    them), D T(i, j) = P_i[j] - P_j[i] - B_ij is an integer vector; only the
    nonzero ones become Fractions.
    """
    brackets, products, _, d = columns or integer_columns(algebra, product)
    n = algebra.dim
    torsion = []
    for i in range(n):
        for j in range(i + 1, n):
            acc = [0] * n
            for sign, column in ((1, products[i][j]), (-1, products[j][i]), (-1, brackets[i][j])):
                for k, v in column:
                    acc[k] += sign * v
            if any(acc):
                torsion.append(((i, j), fractions_over(acc, d)))
    return torsion


def verify_affine(algebra: LieAlgebra, product: BilinearProduct) -> AffineReport:
    columns = integer_columns(algebra, product)
    return AffineReport(torsion_defects(algebra, product, columns),
                        curvature(algebra, product, columns))


def integer_columns(algebra: LieAlgebra, product: BilinearProduct, extra=()) -> tuple:
    """Bracket and product columns as sparse ints over one common denominator.

    Returns (brackets, products, extra_ints, D), where D is the lcm of the
    denominators of the structure constants, the product entries and the
    rationals in extra.  brackets[i][j] and products[i][j] list the pairs
    (k, D * c) over the nonzero entries c of [e_i, e_j] and prod(e_i, e_j),
    for every ordered pair (i, j); extra_ints is extra times D.
    """
    n = algebra.dim
    if product.dim != n:
        raise ValueError("product dimension does not match algebra")
    table = sorted(product.table.items())
    extra = list(extra)
    den = lcm(*(x.denominator for _, col in table for x in col),
              *(x.denominator for x in extra))
    brackets, den = integer_brackets(algebra, den)
    products = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j), col in table:
        products[i][j] = [(k, v) for k, v in enumerate(scale_to_integers(col, den)[0]) if v]
    return brackets, products, scale_to_integers(extra, den)[0], den


def defining_relation_defects(algebra: LieAlgebra, theta: KForm, product: BilinearProduct,
                              columns=None, gram=None) -> list:
    """Readback of theta(prod(e_i, e_j), e_k) + theta(e_j, [e_i, e_k]) over all triples.

    Evaluated in ints: with the product and the bracket over their common
    denominator D (integer_columns) and theta over its denominator E
    (integer_gram), each value times D * E is an integer.  Only the nonzero
    ones become Fractions, so witnesses and values are exact.  A caller that
    needs the tables too passes them as columns and gram.
    """
    n = algebra.dim
    if theta.degree != 2 or theta.dim != n:
        raise ValueError("need a 2-form on the algebra")
    if columns is None:
        columns = integer_columns(algebra, product)
    brackets, products, _, d = columns
    gram, e = integer_gram(theta) if gram is None else gram
    out = []
    for i in range(n):
        bracket_i = brackets[i]
        for j in range(n):
            gram_j = gram[j]
            left = [0] * n
            for q, v in products[i][j]:
                for k, g in enumerate(gram[q]):
                    left[k] += v * g
            for k in range(n):
                val = left[k] + sum(v * gram_j[q] for q, v in bracket_i[k])
                if val:
                    out.append(((i, j, k), Fraction(val, d * e)))
    return out


def exact_cocycle_obstruction(algebra: LieAlgebra, theta: KForm):
    """Solve theta(e_i, e_j) = -alpha([e_i, e_j]) for a 1-form alpha.

    Returns the LinearSolution; for the symplectic cocycles arising here the
    system is infeasible (no symplectic cocycle on a nilpotent algebra is the
    differential of a linear form).
    """
    from .ratlin import solve_linear

    n = algebra.dim
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1, n):
            br = algebra.bracket_basis(i, j)
            rows.append([-br[k] for k in range(n)])
            rhs.append(theta.pair(i, j))
    return solve_linear(Matrix.from_rows(rows, cols=n), rhs)
