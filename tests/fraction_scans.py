"""The structure-constant scans in Fraction arithmetic: references for the integer ones.

Each routine evaluates its definition term by term through LieAlgebra.bracket,
BilinearProduct.apply and BilinearProduct.value on basis vectors, with no shared kernel and no
common denominator.

dense_rref is the dense integer elimination ratlin._rref replaced: the first nonzero
entry top-down in the leftmost eligible column as pivot, every row below cleared over all
its entries.  It keeps _rref's signature and contract, so the solvers run on it when it is
patched in as ratlin._rref.
"""

from fractions import Fraction
from math import gcd

from lieaff.liecore import CentralQuotient, KForm, LieAlgebra, Subspace
from lieaff.ratlin import (
    Matrix,
    ONE,
    ZERO,
    echelon_basis,
    invert,
    is_zero_vector,
    kernel_basis,
    scale_to_integers,
    vadd,
    vscale,
    vsub,
)


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


def torsion_defects(algebra, product):
    """Pairs i < j where prod(e_i, e_j) - prod(e_j, e_i) differs from [e_i, e_j]."""
    n = algebra.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            d = vsub(vsub(product.value(i, j), product.value(j, i)), algebra.bracket_basis(i, j))
            if not is_zero_vector(d):
                out.append(((i, j), d))
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


def greedy_kept(t):
    """Indices i whose e_i a greedy scan from t keeps: each one independent of t
    and of the ones kept before it, until n - 1 are kept."""
    n = len(t)
    kept, current = [], [t]
    for i in range(n):
        cand = current + [[ONE if k == i else ZERO for k in range(n)]]
        if len(echelon_basis(cand, n)) == len(current) + 1:
            kept.append(i)
            current = cand
        if len(kept) == n - 1:
            break
    return kept


def quotient_by_center(algebra, omega):
    """The quotient by the center in Fractions: greedy kept basis, the inverted
    change of basis as projection, brackets and the reconstruction check
    through LieAlgebra.bracket and Matrix.mul_vec."""
    n = algebra.dim
    z = center(algebra)
    if z.dim != 1:
        raise ValueError(f"center must be one-dimensional, found dimension {z.dim}")
    t0 = z.basis[0]
    val = omega.evaluate([t0])
    if val == 0:
        raise ValueError("form vanishes on the center: not a candidate contact form")
    t = vscale(ONE / val, t0)
    kept = greedy_kept(t)

    basis_cols = [algebra.basis_vector(i) for i in kept] + [t]
    binv = invert(Matrix.from_columns(basis_cols))
    projection = Matrix.from_rows([binv.row(r) for r in range(n - 1)])

    omega_of = [omega.evaluate([algebra.basis_vector(i)]) for i in range(n)]
    section_cols = [
        vsub(algebra.basis_vector(i), vscale(omega_of[i], t)) for i in kept
    ]
    section = Matrix.from_columns(section_cols)

    constants = {}
    theta_coeffs = {}
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            w = algebra.bracket(algebra.basis_vector(kept[a]), algebra.basis_vector(kept[b]))
            q = projection.mul_vec(w)
            terms = {k: c for k, c in enumerate(q) if c != 0}
            if terms:
                constants[(a, b)] = terms
            tv = omega.evaluate([w])
            if tv:
                theta_coeffs[(a, b)] = tv

    quotient = LieAlgebra(
        dim=n - 1,
        basis_names=tuple(algebra.basis_names[i] for i in kept),
        constants=constants,
        name=f"{algebra.name}/center" if algebra.name else "",
    )
    theta = KForm(2, n - 1, theta_coeffs)

    if jacobi_defects(quotient):
        raise AssertionError("quotient bracket violates Jacobi; input was not a Lie algebra")
    if cocycle_defects(quotient, theta):
        raise AssertionError("induced 2-form is not closed; input was not a Lie algebra")
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            lhs = algebra.bracket(section_cols[a], section_cols[b])
            rhs = vadd(
                section.mul_vec(quotient.bracket_basis(a, b)),
                vscale(theta.pair(a, b), t),
            )
            if lhs != rhs:
                raise AssertionError("reconstruction identity failed")

    return CentralQuotient(quotient, theta, t, section, tuple(kept))


def half_case_residuals(algebra, theta, V, a):
    """The vector and scalar relations of the phi = theta/2 case, triple by triple."""
    n = algebra.dim
    V = [list(map(Fraction, col)) for col in V]
    a = [Fraction(x) for x in a]
    half = Fraction(1, 2)
    first = []
    second = []
    for i in range(n):
        for j in range(i + 1, n):
            tij = theta.pair(i, j)
            br = algebra.bracket_basis(i, j)
            for k in range(n):
                tjk = theta.pair(j, k)
                tik = theta.pair(i, k)
                r = vsub(
                    vsub(vscale(half * tjk, V[i]), vscale(half * tik, V[j])),
                    vscale(tij, V[k]),
                )
                if not is_zero_vector(r):
                    first.append(((i, j, k), r))
                s = sum((br[q] * theta.pair(q, k) for q in range(n) if br[q]), ZERO)
                s += tjk * a[i] - tik * a[j] - 2 * tij * a[k]
                if s:
                    second.append(((i, j, k), s))
    return first, second


def aux_product_rule(nabla, lift):
    """Pairs (i, j), all ordered, where a(nabla(e_i, e_j)) differs from a_i a_j, with the difference."""
    n = lift.dim
    out = []
    for i in range(n):
        for j in range(n):
            val = lift.a_of(nabla.value(i, j)) - lift.a[i] * lift.a[j]
            if val:
                out.append(((i, j), val))
    return out


def clear_column(work, k, c, targets):
    """Clear column c of the dense integer rows work[i], i in targets, with pivot row k."""
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


def dense_rref(work, limit):
    """Reduced row echelon form over columns [0, limit) by dense integer elimination.

    The first rank rows become the reduced rows as Fractions; rows from rank on are
    integer rows, zero in [0, limit).  Returns the pivot columns.
    """
    m = len(work)
    for i, row in enumerate(work):
        work[i] = scale_to_integers(row)[0]
    pivots = []
    r = 0
    for c in range(limit):
        prow = next((i for i in range(r, m) if work[i][c]), None)
        if prow is None:
            continue
        work[r], work[prow] = work[prow], work[r]
        clear_column(work, r, c, range(r + 1, m))
        pivots.append(c)
        r += 1
        if r == m:
            break
    for k in range(r - 1, 0, -1):
        clear_column(work, k, pivots[k], range(k))
    for k, c in enumerate(pivots):
        p = work[k][c]
        work[k] = [Fraction(x, p) for x in work[k]]
    return pivots
