"""Lie algebras by structure constants and the machinery built on them.

Structure constants are stored sparsely for pairs i < j only (antisymmetry is
structural); the bracket is their bilinear antisymmetric extension.  On top of
that: Jacobi testing, lower central series, center, the degree-1 differential
d(w)(x, y) = -w([x, y]), the 2-cocycle defect of a 2-form, and the quotient of
an algebra with one-dimensional center by that center, together with the
induced 2-form and the data needed to rebuild the original algebra.

The scans over structure constants run in Python ints.  integer_brackets
gives the bracket columns [e_i, e_j] as sparse ints over one common
denominator D, integer_gram a 2-form's Gram matrix over its denominator E,
and a value becomes a Fraction only at the end, and only when it is nonzero.
integer_curvature is the one curvature kernel: from the left-multiplication
columns of a product and the bracket columns it gives
R(e_i, e_j) e_k = e_i.(e_j.e_k) - e_j.(e_i.e_k) - [e_i, e_j].e_k times D^2.
structures.curvature runs it on a product; jacobi_defects runs it on the
bracket itself, since ad is a representation exactly when Jacobi holds: the
cyclic Jacobi sum on e_i, e_j, e_k is -R_ad(e_i, e_j) e_k.  center and
lower_central_series hand integer rows built from the same columns to ratlin;
the reduced row echelon form is unique, so the kernels and echelon bases are
exactly those of the same computation over Q.

quotient_by_center keeps every basis vector but e_p, p the last index where
the center generator is nonzero (what a greedy independence scan would keep),
projects in closed form and runs its reconstruction check in ints.

Indices are 0-based throughout this package; file formats and CLI output use
1-based indices at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .ratlin import (
    Matrix,
    ONE,
    ZERO,
    echelon_basis,
    fractions_over,
    kernel_basis,
    scale_to_integers,
    vscale,
    vzero,
)


@dataclass
class KForm:
    """Alternating k-linear form, stored by strictly increasing index tuples."""

    degree: int
    dim: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0 or self.degree > self.dim:
            raise ValueError(f"degree {self.degree} out of range for dimension {self.dim}")
        clean = {}
        for idx, c in self.coeffs.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.degree:
                raise ValueError(f"index tuple {idx} has wrong length for degree {self.degree}")
            if any(i < 0 or i >= self.dim for i in idx):
                raise ValueError(f"index tuple {idx} out of range")
            if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            c = Fraction(c)
            if c != 0:
                clean[idx] = c
        self.coeffs = clean

    @staticmethod
    def dual(dim: int, i: int) -> "KForm":
        return KForm(1, dim, {(i,): ONE})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, idx) -> Fraction:
        return self.coeffs.get(tuple(idx), ZERO)

    def pair(self, i: int, j: int) -> Fraction:
        """Value on (e_i, e_j); degree must be 2."""
        if self.degree != 2:
            raise ValueError("pair() needs a 2-form")
        if i == j:
            return ZERO
        if i < j:
            return self.coeffs.get((i, j), ZERO)
        return -self.coeffs.get((j, i), ZERO)

    def evaluate(self, vectors) -> Fraction:
        """Alternating multilinear extension on arbitrary vectors; degree 1 or 2 only."""
        if self.degree not in (1, 2):
            raise ValueError(f"evaluate supports degree 1 or 2, got {self.degree}")
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} arguments, got {len(vectors)}")
        for v in vectors:
            if len(v) != self.dim:
                raise ValueError("argument length does not match form dimension")
        if self.degree == 1:
            x = vectors[0]
            return sum((c * x[i] for (i,), c in self.coeffs.items()), ZERO)
        x, y = vectors
        return sum((c * (x[i] * y[j] - x[j] * y[i]) for (i, j), c in self.coeffs.items()), ZERO)

    def scaled(self, c) -> "KForm":
        c = Fraction(c)
        return KForm(self.degree, self.dim, {idx: c * v for idx, v in self.coeffs.items()})


def form_add(f: KForm, g: KForm) -> KForm:
    if f.degree != g.degree or f.dim != g.dim:
        raise ValueError("forms of different shape")
    coeffs = dict(f.coeffs)
    for idx, c in g.coeffs.items():
        coeffs[idx] = coeffs.get(idx, ZERO) + c
    return KForm(f.degree, f.dim, coeffs)


def integer_gram(theta: KForm) -> tuple:
    """(G, E): E is the lcm of theta's denominators, G[i][j] = E * theta(e_i, e_j) in ints."""
    n = theta.dim
    pairs = sorted(theta.coeffs)
    ints, den = scale_to_integers([theta.coeffs[p] for p in pairs])
    gram = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pairs, ints):
        gram[i][j], gram[j][i] = v, -v
    return gram, den


@dataclass
class Subspace:
    """Subspace of Q^n given by an echelonized basis."""

    ambient_dim: int
    basis: list

    @classmethod
    def spanned_by(cls, ambient_dim: int, vectors) -> "Subspace":
        return cls(ambient_dim, echelon_basis(vectors, ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class LieAlgebra:
    """Lie algebra over Q given by sparse structure constants.

    constants maps (i, j) with i < j to {k: c} meaning [e_i, e_j] = sum c e_k.
    Pairs not present have zero bracket.  Jacobi is *not* assumed; call
    jacobi_defects() to test it.
    """

    dim: int
    basis_names: tuple = ()
    constants: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not self.basis_names:
            self.basis_names = tuple(f"e{i + 1}" for i in range(self.dim))
        self.basis_names = tuple(str(s) for s in self.basis_names)
        if len(self.basis_names) != self.dim:
            raise ValueError("basis name count does not match dimension")
        clean = {}
        for (i, j), terms in self.constants.items():
            i, j = int(i), int(j)
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            tclean = {}
            for k, c in dict(terms).items():
                k = int(k)
                if not (0 <= k < self.dim):
                    raise ValueError(f"bracket target index {k} out of range")
                c = Fraction(c)
                if c != 0:
                    tclean[k] = c
            if tclean:
                clean[(i, j)] = tclean
        self.constants = clean

    def basis_vector(self, i: int) -> list:
        v = vzero(self.dim)
        v[i] = ONE
        return v

    def bracket_basis(self, i: int, j: int) -> list:
        out = vzero(self.dim)
        if i == j:
            return out
        sign = ONE
        if i > j:
            i, j, sign = j, i, -ONE
        for k, c in self.constants.get((i, j), {}).items():
            out[k] = sign * c
        return out

    def bracket(self, x, y) -> list:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch in bracket")
        out = vzero(self.dim)
        for (i, j), terms in self.constants.items():
            coef = x[i] * y[j] - x[j] * y[i]
            if coef:
                for k, c in terms.items():
                    out[k] += coef * c
        return out

    def jacobi_defects(self) -> list:
        """All basis triples i < j < k where the cyclic Jacobi sum is nonzero.

        The sum is -R_ad(e_i, e_j) e_k, the curvature of ad: integer_curvature
        on the bracket columns, over D^2.
        """
        brackets, d = integer_brackets(self)
        return [(t, fractions_over(acc, -d * d))
                for t, acc in integer_curvature(brackets, brackets, above=True)]

    def lower_central_series(self) -> list:
        """g >= [g, g] >= [g, [g, g]] >= ..., strictly decreasing part only.

        The generators [e_i, b] of each next term come from the integer
        bracket columns, with b scaled to ints: a positive multiple of each
        generator spans the same space.
        """
        n = self.dim
        brackets, _ = integer_brackets(self)
        terms = [Subspace.spanned_by(n, [self.basis_vector(i) for i in range(n)])]
        while True:
            prev = terms[-1]
            scaled = [scale_to_integers(b)[0] for b in prev.basis]
            gens = []
            for i in range(n):
                brackets_i = brackets[i]
                for b in scaled:
                    acc = [0] * n
                    for m, c in enumerate(b):
                        if c:
                            for k, v in brackets_i[m]:
                                acc[k] += c * v
                    gens.append(acc)
            nxt = Subspace.spanned_by(n, gens)
            if nxt.dim == prev.dim:
                break
            terms.append(nxt)
        return terms

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def center(self) -> Subspace:
        """Kernel of x -> ad_x, from the stacked structure-constant matrix in ints.

        Row j * n + k, column i holds D * [e_i, e_j]_k.
        """
        n = self.dim
        brackets, _ = integer_brackets(self)
        entries = [0] * (n * n * n)
        for i in range(n):
            for j in range(n):
                for k, v in brackets[i][j]:
                    entries[(j * n + k) * n + i] = v
        return Subspace(n, kernel_basis(Matrix(n * n, n, tuple(entries))))


def integer_brackets(algebra: LieAlgebra, den: int = 1) -> tuple:
    """(B, D): the bracket columns as sparse ints over one common denominator.

    D is the lcm of den and the denominators of the structure constants;
    B[i][j] lists the pairs (k, D * c) over the nonzero entries c of
    [e_i, e_j], for every ordered pair (i, j).
    """
    n = algebra.dim
    constants = sorted(algebra.constants.items())
    d = lcm(den, *(c.denominator for _, terms in constants for c in terms.values()))
    brackets = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j), terms in constants:
        keys = sorted(terms)
        ints = scale_to_integers([terms[k] for k in keys], d)[0]
        brackets[i][j] = list(zip(keys, ints))
        brackets[j][i] = [(k, -v) for k, v in brackets[i][j]]
    return brackets, d


def integer_curvature(left, brackets, above: bool = False) -> list:
    """The one curvature kernel, in ints: D^2 * R(e_i, e_j) e_k where nonzero.

    left[i][k] and brackets[i][j] list (m, D * c) over the nonzero entries c
    of e_i.e_k and [e_i, e_j], for one common denominator D.  With
    R(x, y) z = x.(y.z) - y.(x.z) - [x, y].z and P_i the columns of e_i.,
        D^2 R(e_i, e_j) e_k = sum_m P_j[k]_m P_i[m] - sum_m P_i[k]_m P_j[m]
                              - sum_m B_ij,m P_m[k].
    Returns ((i, j, k), values) for i < j and every k (k > j when above is
    set), in scan order, values a dense list of ints, only the nonzero ones.
    """
    n = len(left)
    out = []
    for i in range(n):
        left_i = left[i]
        for j in range(i + 1, n):
            left_j = left[j]
            bracket_ij = brackets[i][j]
            for k in range(j + 1 if above else 0, n):
                acc = [0] * n
                for m, v in left_j[k]:
                    for t, w in left_i[m]:
                        acc[t] += v * w
                for m, v in left_i[k]:
                    for t, w in left_j[m]:
                        acc[t] -= v * w
                for m, v in bracket_ij:
                    for t, w in left[m][k]:
                        acc[t] -= v * w
                if any(acc):
                    out.append(((i, j, k), acc))
    return out


def differential(algebra: LieAlgebra, omega: KForm) -> KForm:
    """Degree-1 differential: (dw)(e_i, e_j) = -w([e_i, e_j])."""
    if omega.degree != 1:
        raise ValueError("differential implemented for 1-forms only")
    if omega.dim != algebra.dim:
        raise ValueError("form dimension does not match algebra")
    coeffs = {}
    for (i, j), terms in algebra.constants.items():
        val = ZERO
        for k, c in terms.items():
            val -= c * omega.coeffs.get((k,), ZERO)
        if val:
            coeffs[(i, j)] = val
    return KForm(2, algebra.dim, coeffs)


def cocycle_defects(algebra: LieAlgebra, theta: KForm) -> list:
    """Cyclic 2-cocycle defects theta([ei,ej],ek) + theta([ej,ek],ei) + theta([ek,ei],ej).

    Evaluated in ints, from the bracket columns over D and the Gram matrix
    over E; a nonzero value becomes a Fraction over D * E.
    """
    if theta.degree != 2:
        raise ValueError("cocycle test needs a 2-form")
    if theta.dim != algebra.dim:
        raise ValueError("form dimension does not match algebra")
    n = algebra.dim
    brackets, d = integer_brackets(algebra)
    gram, e = integer_gram(theta)

    def pair(column, k):
        return sum(v * gram[q][k] for q, v in column)

    defects = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                val = (pair(brackets[i][j], k) + pair(brackets[j][k], i)
                       + pair(brackets[k][i], j))
                if val:
                    defects.append(((i, j, k), Fraction(val, d * e)))
    return defects


@dataclass
class CentralQuotient:
    """Quotient of an algebra by its 1-dimensional center, spanned by
    center_generator t with omega(t) = 1.  complement lists the kept basis
    indices; section column a is e_k - omega(e_k) t for the a-th kept k, in
    ker(omega), which makes [x, y] = section([x, y]_quotient) + theta(x, y) t
    exact.
    """

    algebra: LieAlgebra
    theta: KForm
    center_generator: list
    section: Matrix
    complement: tuple


def quotient_by_center(algebra: LieAlgebra, omega: KForm) -> CentralQuotient:
    """g / Q t for the one-dimensional center Q t, with theta(x, y) = omega([x, y]).

    With p the last index where t is nonzero, the kept basis is every index
    but p: what a greedy scan keeps that adds e_0, e_1, ... to t whenever they
    stay independent.  Projecting along t sends e_p to -sum_k (t_k / t_p) e_k,
    so the quotient bracket and theta come from the integer bracket columns
    and omega scaled to ints.  The reconstruction identity is then checked in
    ints on every pair of kept vectors: the section columns are bracketed
    through the bracket columns and compared with the quotient's bracket and
    theta, read back from the returned objects.
    """
    if omega.degree != 1 or omega.dim != algebra.dim:
        raise ValueError("need a 1-form on the algebra")
    n = algebra.dim
    z = algebra.center()
    if z.dim != 1:
        raise ValueError(f"center must be one-dimensional, found dimension {z.dim}")
    val = omega.evaluate([z.basis[0]])
    if val == 0:
        raise ValueError("form vanishes on the center: not a candidate contact form")
    t = vscale(ONE / val, z.basis[0])
    tau, m = scale_to_integers(t)
    p = max(i for i in range(n) if tau[i])
    kept = [i for i in range(n) if i != p]
    omega_int, h = scale_to_integers([omega.coeff((i,)) for i in range(n)])
    brackets, d = integer_brackets(algebra)
    constants, theta_coeffs = {}, {}
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            # for the bracket column W over D: D t_p q_r = t_p W_kr - t_kr W_p
            w = dict(brackets[kept[a]][kept[b]])
            terms = {r: tau[p] * w.get(k, 0) - tau[k] * w.get(p, 0) for r, k in enumerate(kept)}
            terms = {r: Fraction(c, d * tau[p]) for r, c in terms.items() if c}
            if terms:
                constants[(a, b)] = terms
            tv = sum(omega_int[k] * v for k, v in w.items())
            if tv:
                theta_coeffs[(a, b)] = Fraction(tv, d * h)

    quotient = LieAlgebra(
        dim=n - 1,
        basis_names=tuple(algebra.basis_names[i] for i in kept),
        constants=constants,
        name=f"{algebra.name}/center" if algebra.name else "",
    )
    theta = KForm(2, n - 1, theta_coeffs)

    if quotient.jacobi_defects():
        raise AssertionError("quotient bracket violates Jacobi; input was not a Lie algebra")
    if cocycle_defects(quotient, theta):
        raise AssertionError("induced 2-form is not closed; input was not a Lie algebra")
    # S_a = L s_a and L t = H tau over L = H M (omega over H, t = tau / M); with
    # X = L^2 D [s_a, s_b] and Y = L D' E' (section(q) + theta_ab t) from the
    # quotient's columns over D' and Gram matrix over E', check X D' E' = Y L D.
    big = h * m
    section = [[big * (i == k) - omega_int[k] * x for i, x in enumerate(tau)] for k in kept]
    sparse = [[(i, v) for i, v in enumerate(col) if v] for col in section]
    q_brackets, d2 = integer_brackets(quotient)
    gram, e2 = integer_gram(theta)
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            lhs = [0] * n
            for i, u in sparse[a]:
                for j, v in sparse[b]:
                    for k, c in brackets[i][j]:
                        lhs[k] += u * v * c
            rhs = [d2 * gram[a][b] * h * x for x in tau]
            for r, c in q_brackets[a][b]:
                for i, v in sparse[r]:
                    rhs[i] += e2 * c * v
            if any(x * d2 * e2 != y * big * d for x, y in zip(lhs, rhs)):
                raise AssertionError("reconstruction identity failed")

    return CentralQuotient(quotient, theta, t,
                           Matrix.from_columns([fractions_over(c, big) for c in section]),
                           tuple(kept))
