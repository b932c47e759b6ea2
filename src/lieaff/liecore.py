"""Lie algebras by structure constants and the machinery built on them.

Structure constants are stored sparsely for pairs i < j only (antisymmetry is
structural); the bracket is their bilinear antisymmetric extension.  On top of
that: Jacobi testing, lower central series, center, the degree-1 differential
d(w)(x, y) = -w([x, y]), the 2-cocycle defect of a 2-form, and the quotient of
an algebra with one-dimensional center by that center, together with the
induced 2-form and the data needed to rebuild the original algebra.

Indices are 0-based throughout this package; file formats and CLI output use
1-based indices at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ratlin import (
    Matrix,
    ONE,
    ZERO,
    echelon_basis,
    invert,
    is_zero_vector,
    kernel_basis,
    vadd,
    vscale,
    vsub,
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
        """All basis triples i < j < k where the cyclic Jacobi sum is nonzero."""
        defects = []
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = vadd(
                        vadd(
                            self.bracket(self.bracket_basis(i, j), self.basis_vector(k)),
                            self.bracket(self.bracket_basis(j, k), self.basis_vector(i)),
                        ),
                        self.bracket(self.bracket_basis(k, i), self.basis_vector(j)),
                    )
                    if not is_zero_vector(s):
                        defects.append(((i, j, k), s))
        return defects

    def is_lie(self) -> bool:
        return not self.jacobi_defects()

    def lower_central_series(self) -> list:
        """g >= [g, g] >= [g, [g, g]] >= ..., strictly decreasing part only."""
        terms = [Subspace.spanned_by(self.dim, [self.basis_vector(i) for i in range(self.dim)])]
        while True:
            prev = terms[-1]
            gens = []
            for i in range(self.dim):
                ei = self.basis_vector(i)
                for b in prev.basis:
                    gens.append(self.bracket(ei, b))
            nxt = Subspace.spanned_by(self.dim, gens)
            if nxt.dim == prev.dim:
                break
            terms.append(nxt)
        return terms

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def center(self) -> Subspace:
        """Kernel of x -> ad_x, from the stacked structure-constant matrix."""
        n = self.dim
        rows = []
        for j in range(n):
            cols = [self.bracket(self.basis_vector(i), self.basis_vector(j)) for i in range(n)]
            for k in range(n):
                rows.append([cols[i][k] for i in range(n)])
        ker = kernel_basis(Matrix.from_rows(rows, cols=n))
        return Subspace(n, ker)


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
    """Cyclic 2-cocycle defects theta([ei,ej],ek) + theta([ej,ek],ei) + theta([ek,ei],ej)."""
    if theta.degree != 2:
        raise ValueError("cocycle test needs a 2-form")
    if theta.dim != algebra.dim:
        raise ValueError("form dimension does not match algebra")
    n = algebra.dim

    def theta_vec_basis(v, k):
        return sum((v[q] * theta.pair(q, k) for q in range(n) if v[q]), ZERO)

    defects = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                val = (
                    theta_vec_basis(algebra.bracket_basis(i, j), k)
                    + theta_vec_basis(algebra.bracket_basis(j, k), i)
                    + theta_vec_basis(algebra.bracket_basis(k, i), j)
                )
                if val:
                    defects.append(((i, j, k), val))
    return defects


@dataclass
class CentralQuotient:
    """Quotient of an algebra by its 1-dimensional center.

    The section lifts the quotient basis into ker(omega), which is what makes
    the reconstruction identity [x, y] = section([x, y]_quotient) + theta * T
    exact.  complement records which standard basis vectors were kept by the
    deterministic greedy scan.
    """

    algebra: LieAlgebra
    theta: KForm
    projection: Matrix
    center_generator: list
    section: Matrix
    complement: tuple


def quotient_by_center(algebra: LieAlgebra, omega: KForm) -> CentralQuotient:
    if omega.degree != 1 or omega.dim != algebra.dim:
        raise ValueError("need a 1-form on the algebra")
    n = algebra.dim
    z = algebra.center()
    if z.dim != 1:
        raise ValueError(f"center must be one-dimensional, found dimension {z.dim}")
    t0 = z.basis[0]
    val = omega.evaluate([t0])
    if val == 0:
        raise ValueError("form vanishes on the center: not a candidate contact form")
    t = vscale(ONE / val, t0)

    kept = []
    current = [t]
    for i in range(n):
        cand = current + [algebra.basis_vector(i)]
        if len(echelon_basis(cand, n)) == len(current) + 1:
            kept.append(i)
            current = cand
        if len(kept) == n - 1:
            break

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

    if quotient.jacobi_defects():
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

    return CentralQuotient(quotient, theta, projection, t, section, tuple(kept))
