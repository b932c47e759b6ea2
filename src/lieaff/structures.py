"""Contact forms, symplectic 2-cocycles, and the affine structure they induce.

The top-degree wedge evaluation enumerates complementary shuffles with their
signs, so (dw)^p means the honest p-fold exterior power with no ad-hoc
factorials: the shuffle sum *is* the definition.  The affine structure
attached to a symplectic 2-cocycle theta is the unique product with
theta(prod(x, y), z) = -theta(y, [x, z]); it is verified to be flat and
torsion-free before it is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .liecore import KForm, LieAlgebra, cocycle_defects, differential
from .ratlin import (
    Matrix,
    ONE,
    ZERO,
    invert,
    is_zero_vector,
    rank as matrix_rank,
    scale_to_integers,
    vsub,
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
    dw = differential(algebra, omega)
    scalar = wedge_eval_top([omega] + [dw] * p, n)
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
    discarded without spending the attempt budget.
    """
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


def gram_matrix(theta: KForm) -> Matrix:
    n = theta.dim
    return Matrix.from_rows([[theta.pair(i, j) for j in range(n)] for i in range(n)])


def symplectic_check(algebra: LieAlgebra, theta: KForm) -> SymplecticReport:
    n = algebra.dim
    if n % 2 != 0:
        raise ValueError("symplectic check needs even dimension")
    if theta.degree != 2 or theta.dim != n:
        raise ValueError("need a 2-form on the algebra")
    rk = matrix_rank(gram_matrix(theta))
    defects = cocycle_defects(algebra, theta)
    return SymplecticReport(rk == n, not defects, rk, defects)


def affine_from_symplectic(algebra: LieAlgebra, theta: KForm) -> BilinearProduct:
    """The product defined by theta(prod(e_i, e_j), e_k) = -theta(e_j, [e_i, e_k]).

    Uniqueness comes from nondegeneracy, which is asserted here by inverting
    the Gram matrix rather than trusted.  The result is checked to be a flat
    torsion-free product before returning.
    """
    n = algebra.dim
    defects = cocycle_defects(algebra, theta)
    if defects:
        raise ValueError(f"2-form is not a cocycle; first defect at {defects[0][0]}")
    gram = gram_matrix(theta)  # gram[k][q] = theta(e_k, e_q)
    try:
        # theta(v, e_k) = sum_q v_q theta(e_q, e_k): coefficient matrix is
        # gram transposed, i.e. m[k][q] = theta(e_q, e_k).
        minv = invert(Matrix.from_rows([[gram.at(q, k) for q in range(n)] for k in range(n)]))
    except ValueError:
        raise ValueError("2-form is degenerate; the defining relation has no unique solution")

    table = {}
    for i in range(n):
        for j in range(n):
            rhs = []
            for k in range(n):
                br = algebra.bracket_basis(i, k)
                rhs.append(-sum((br[q] * theta.pair(j, q) for q in range(n) if br[q]), ZERO))
            v = minv.mul_vec(rhs)
            if not is_zero_vector(v):
                table[(i, j)] = v
    product = BilinearProduct(n, table)

    report = verify_affine(algebra, product)
    if not report.is_affine:
        raise AssertionError("derived product failed the affine verification")
    return product


def curvature(algebra: LieAlgebra, product: BilinearProduct, u, v, w) -> list:
    """prod(u, prod(v, w)) - prod(v, prod(u, w)) - prod([u, v], w)."""
    return vsub(
        vsub(product.apply(u, product.apply(v, w)), product.apply(v, product.apply(u, w))),
        product.apply(algebra.bracket(u, v), w),
    )


@dataclass
class AffineReport:
    """All torsion and curvature defects of a candidate product, in scan (sorted) order."""

    torsion_defects: list
    curvature_defects: list

    @property
    def is_affine(self) -> bool:
        return not self.torsion_defects and not self.curvature_defects


def torsion_defects(algebra: LieAlgebra, product: BilinearProduct) -> list:
    """Pairs i < j where prod(e_i, e_j) - prod(e_j, e_i) differs from [e_i, e_j]."""
    n = algebra.dim
    if product.dim != n:
        raise ValueError("product dimension does not match algebra")
    torsion = []
    for i in range(n):
        for j in range(i + 1, n):
            d = vsub(vsub(product.value(i, j), product.value(j, i)), algebra.bracket_basis(i, j))
            if not is_zero_vector(d):
                torsion.append(((i, j), d))
    return torsion


def verify_affine(algebra: LieAlgebra, product: BilinearProduct) -> AffineReport:
    n = algebra.dim
    torsion = torsion_defects(algebra, product)
    curv = []
    for i in range(n):
        ei = algebra.basis_vector(i)
        for j in range(i + 1, n):
            ej = algebra.basis_vector(j)
            for k in range(n):
                c = curvature(algebra, product, ei, ej, algebra.basis_vector(k))
                if not is_zero_vector(c):
                    curv.append(((i, j, k), c))
    return AffineReport(torsion, curv)


def integer_gram(theta: KForm) -> tuple:
    """(G, E): E is the lcm of theta's denominators, G[i][j] = E * theta(e_i, e_j) in ints."""
    n = theta.dim
    pairs = sorted(theta.coeffs)
    ints, den = scale_to_integers([theta.coeffs[p] for p in pairs])
    gram = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pairs, ints):
        gram[i][j], gram[j][i] = v, -v
    return gram, den


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
    constants = sorted(algebra.constants.items())
    table = sorted(product.table.items())
    extra = list(extra)
    _, den = scale_to_integers(
        [c for _, terms in constants for c in terms.values()]
        + [x for _, col in table for x in col] + extra
    )

    def sparse(keys, values):
        return [(k, v) for k, v in zip(keys, scale_to_integers(values, den)[0]) if v]

    brackets = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j), terms in constants:
        keys = sorted(terms)
        brackets[i][j] = sparse(keys, [terms[k] for k in keys])
        brackets[j][i] = [(k, -v) for k, v in brackets[i][j]]
    products = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j), col in table:
        products[i][j] = sparse(range(n), col)
    return brackets, products, scale_to_integers(extra, den)[0], den


def defining_relation_defects(algebra: LieAlgebra, theta: KForm,
                              product: BilinearProduct) -> list:
    """Readback of theta(prod(e_i, e_j), e_k) + theta(e_j, [e_i, e_k]) over all triples.

    Evaluated in ints: with the product and the bracket over their common
    denominator D (integer_columns) and theta over its denominator E
    (integer_gram), each value times D * E is an integer.  Only the nonzero
    ones become Fractions, so witnesses and values are exact.
    """
    n = algebra.dim
    if theta.degree != 2 or theta.dim != n:
        raise ValueError("need a 2-form on the algebra")
    brackets, products, _, d = integer_columns(algebra, product)
    gram, e = integer_gram(theta)
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
