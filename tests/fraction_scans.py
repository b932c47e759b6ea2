"""The structure-constant scans in Fraction arithmetic: references for the integer ones.

Each routine evaluates its definition term by term through LieAlgebra.bracket
and BilinearProduct.apply on basis vectors, with no shared kernel and no
common denominator.
"""

from fractions import Fraction

from lieaff.liecore import Subspace
from lieaff.ratlin import Matrix, ZERO, invert, is_zero_vector, kernel_basis, vadd, vsub


def curvature_at(algebra, product, u, v, w):
    """prod(u, prod(v, w)) - prod(v, prod(u, w)) - prod([u, v], w) on arbitrary vectors."""
    return vsub(
        vsub(product.apply(u, product.apply(v, w)), product.apply(v, product.apply(u, w))),
        product.apply(algebra.bracket(u, v), w),
    )


def curvature_scan(algebra, product):
    """Nonzero curvature values on basis triples i < j, every k, in scan order."""
    n = algebra.dim
    e = algebra.basis_vector
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                c = curvature_at(algebra, product, e(i), e(j), e(k))
                if not is_zero_vector(c):
                    out.append(((i, j, k), c))
    return out


def jacobi_defects(algebra):
    """Basis triples i < j < k with a nonzero cyclic Jacobi sum."""
    n = algebra.dim
    br, e = algebra.bracket, algebra.basis_vector
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = vadd(
                    vadd(br(algebra.bracket_basis(i, j), e(k)),
                         br(algebra.bracket_basis(j, k), e(i))),
                    br(algebra.bracket_basis(k, i), e(j)),
                )
                if not is_zero_vector(s):
                    out.append(((i, j, k), s))
    return out


def center(algebra):
    """Kernel of x -> ad_x from the stacked Fraction structure-constant matrix."""
    n = algebra.dim
    e = algebra.basis_vector
    rows = []
    for j in range(n):
        cols = [algebra.bracket(e(i), e(j)) for i in range(n)]
        for k in range(n):
            rows.append([cols[i][k] for i in range(n)])
    return Subspace(n, kernel_basis(Matrix.from_rows(rows, cols=n)))


def lower_central_series(algebra):
    """The strictly decreasing part of g >= [g, g] >= ..., with Fraction generators."""
    n = algebra.dim
    e = algebra.basis_vector
    terms = [Subspace.spanned_by(n, [e(i) for i in range(n)])]
    while True:
        prev = terms[-1]
        gens = [algebra.bracket(e(i), b) for i in range(n) for b in prev.basis]
        nxt = Subspace.spanned_by(n, gens)
        if nxt.dim == prev.dim:
            return terms
        terms.append(nxt)


def cocycle_defects(algebra, theta):
    """Basis triples i < j < k with a nonzero cyclic sum theta([e_i, e_j], e_k) + ..."""
    n = algebra.dim

    def theta_vec_basis(v, k):
        return sum((v[q] * theta.pair(q, k) for q in range(n) if v[q]), ZERO)

    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                val = (theta_vec_basis(algebra.bracket_basis(i, j), k)
                       + theta_vec_basis(algebra.bracket_basis(j, k), i)
                       + theta_vec_basis(algebra.bracket_basis(k, i), j))
                if val:
                    out.append(((i, j, k), val))
    return out


def canonical_product_table(algebra, theta):
    """The table of affine_from_symplectic, solved in Fractions through the Gram inverse."""
    n = algebra.dim
    m = Matrix.from_rows([[theta.pair(q, k) for q in range(n)] for k in range(n)])
    minv = invert(m)
    table = {}
    for i in range(n):
        for j in range(n):
            rhs = []
            for k in range(n):
                br = algebra.bracket_basis(i, k)
                rhs.append(-sum((br[q] * theta.pair(j, q) for q in range(n) if br[q]), ZERO))
            v = minv.mul_vec(rhs)
            if not is_zero_vector(v):
                table[(i, j)] = tuple(Fraction(x) for x in v)
    return table
