"""One-dimensional central extensions and lifted products on them.

A closed 2-form theta on g turns g + Q.t into a Lie algebra with bracket
[(x, a), (y, b)] = ([x, y], theta(x, y)) and t central.  A candidate product
on the extension is parameterized by LiftData (phi, V, a, W0, rho):

    prod((x, a), (y, b)) = ( nabla(x, y) + b V_x + a V_y + a b W0,
                             phi(x, y)   + b a_x + a a_y + a b rho )

with V_x and a_x linear in x.  Ground truth for "is this an affine structure"
is always the brute-force torsion/curvature scan on the extension; the
two-case characterization conditions are evaluated as a layer on top and any
disagreement is surfaced as a named finding, never reconciled silently.

Both cases rest on one per-triple condition on phi, for a central form a:

    C_a(x, y, z) = phi(x, nabla(y,z)) - phi(y, nabla(x,z)) - phi([x,y], z)
                   + a(x) phi(y,z) - a(y) phi(x,z) - a(z) theta(x,y).

_phi_condition_operator assembles it once, as integer rows over the entries
of phi, and has three uses: the verdict's trivial case reads the nonzero
values at the lift's phi (a = 0, "vinberg-two-cocycle"); its nontrivial case
contracts those values with pairs of kernel vectors of a, where the a(x) and
a(y) terms vanish ("kernel-twisted-two-cocycle"); and the lift solvers fold
the rows onto the symmetric part of phi = theta/2 + s and solve for s.  The
values are also the central part of the curvature on base triples, which
curvature_expansions checks against one curvature scan of the built product.
The lift tables (_lift_tables: the integer base tables, the defining-relation
readback on them and the operator) are built once per verdict or per solve;
a solve shares them with the verdict of every point it checks, and the
verdict reads the auxiliary product rule off the same integer columns.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .liecore import KForm, LieAlgebra, cocycle_defects, integer_brackets, integer_gram
from .ratlin import (
    Matrix,
    ZERO,
    fractions_over,
    is_zero_vector,
    kernel_basis,
    scale_to_integers,
    solve_linear,
    vadd,
    vscale,
    vsub,
    vzero,
)
from .structures import (
    AffineReport,
    BilinearProduct,
    ContactReport,
    contact_test,
    curvature,
    defining_relation_defects,
    gram_rank,
    integer_columns,
    torsion_defects,
    verify_affine,
)


@dataclass
class CentralExtension:
    base: LieAlgebra
    cocycle: KForm
    extended: LieAlgebra

    @cached_property
    def contact(self) -> ContactReport:
        """The contact test of the dual of the new central vector, run on first use."""
        n = self.extended.dim
        return contact_test(self.extended, KForm.dual(n, n - 1))


def _next_name(names) -> str:
    """e{n+1} for a basis of e-names, t otherwise; t1, t2, ... when that name is taken."""
    if all(re.fullmatch(r"e\d+", s) for s in names):
        name = f"e{len(names) + 1}"
    else:
        name = "t"
    suffix = 0
    while name in names:
        suffix += 1
        name = f"t{suffix}"
    return name


def _require_closed(algebra: LieAlgebra, theta: KForm) -> None:
    """Raise ValueError unless theta is a closed 2-form on the algebra."""
    if theta.degree != 2 or theta.dim != algebra.dim:
        raise ValueError("need a 2-form on the algebra")
    defects = cocycle_defects(algebra, theta)
    if defects:
        raise ValueError(
            f"2-form is not closed (first defect at triple {defects[0][0]}); "
            "the extension would violate Jacobi"
        )


def central_extend(algebra: LieAlgebra, theta: KForm, *,
                   assume_closed: bool = False) -> CentralExtension:
    """Extend by the closed 2-form theta; the new last basis vector is central.

    theta is scanned for closedness first, unless the caller has just done so
    (assume_closed=True).  For an even-dimensional base the extension is read
    back: when theta is nondegenerate and the base nilpotent, the center must
    be spanned by the new vector and its dual must be a contact form.
    """
    if not assume_closed:
        _require_closed(algebra, theta)
    n = algebra.dim
    constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = dict(algebra.constants.get((i, j), {}))
            c = theta.coeffs.get((i, j), ZERO)
            if c:
                terms[n] = c
            if terms:
                constants[(i, j)] = terms
    extended = LieAlgebra(
        dim=n + 1,
        basis_names=tuple(algebra.basis_names) + (_next_name(algebra.basis_names),),
        constants=constants,
        name=f"{algebra.name}-ext" if algebra.name else "",
    )
    if extended.jacobi_defects():
        raise AssertionError("extension violates Jacobi despite closed cocycle")

    ext = CentralExtension(algebra, theta, extended)
    if n % 2 == 0:
        if gram_rank(theta) == n and algebra.is_nilpotent():
            zc = extended.center()
            if zc.dim != 1 or zc.basis[0] != extended.basis_vector(n):
                raise AssertionError("extension center is not spanned by the new vector")
            if not ext.contact.is_contact:
                raise AssertionError("dual of the new central vector is not a contact form")
    return ext


@dataclass
class LiftData:
    """Parameters (phi, V, a, W0, rho) of a candidate product on the extension.

    No admissibility is assumed at construction: inadmissible candidates are
    legitimate inputs for the negative tests.
    """

    phi: tuple      # n x n, phi[i][j] = phi(e_i, e_j)
    V: tuple        # n columns, V[i] = value on (e_i, t)
    a: tuple        # n scalars, a[i] = central part on (e_i, t)
    W0: tuple       # column, vector part on (t, t)
    rho: Fraction   # central part on (t, t)

    def __post_init__(self):
        self.phi = tuple(tuple(Fraction(x) for x in row) for row in self.phi)
        n = len(self.phi)
        if any(len(row) != n for row in self.phi):
            raise ValueError("phi must be square")
        self.V = tuple(tuple(Fraction(x) for x in col) for col in self.V)
        if len(self.V) != n or any(len(col) != n for col in self.V):
            raise ValueError("V must hold n columns of length n")
        self.a = tuple(Fraction(x) for x in self.a)
        if len(self.a) != n:
            raise ValueError("a must have length n")
        self.W0 = tuple(Fraction(x) for x in self.W0)
        if len(self.W0) != n:
            raise ValueError("W0 must have length n")
        self.rho = Fraction(self.rho)

    @property
    def dim(self) -> int:
        return len(self.phi)

    @staticmethod
    def zero(n: int) -> "LiftData":
        z = tuple([ZERO] * n)
        return LiftData(tuple(z for _ in range(n)), tuple(z for _ in range(n)), z, z, ZERO)

    @staticmethod
    def half_cocycle(theta: KForm, a=None) -> "LiftData":
        """phi = theta/2, V = W0 = 0, rho = 0, with an optional central form a."""
        n = theta.dim
        half = Fraction(1, 2)
        phi = tuple(tuple(half * theta.pair(i, j) for j in range(n)) for i in range(n))
        z = tuple([ZERO] * n)
        avec = tuple(Fraction(x) for x in a) if a is not None else z
        return LiftData(phi, tuple(z for _ in range(n)), avec, z, ZERO)

    def with_changes(self, **kw) -> "LiftData":
        data = {"phi": self.phi, "V": self.V, "a": self.a, "W0": self.W0, "rho": self.rho}
        data.update(kw)
        return LiftData(**data)

    def v_of(self, x) -> list:
        """Linear extension of i -> V_i to a vector x."""
        out = vzero(self.dim)
        for i, c in enumerate(x):
            if c:
                out = vadd(out, vscale(c, list(self.V[i])))
        return out

    def a_of(self, x) -> Fraction:
        return sum((x[i] * self.a[i] for i in range(self.dim) if x[i]), ZERO)

    def phi_of(self, x, y) -> Fraction:
        total = ZERO
        for i, ci in enumerate(x):
            if ci:
                row = self.phi[i]
                total += ci * sum((y[j] * row[j] for j in range(self.dim) if y[j]), ZERO)
        return total


def build_lift(ext: CentralExtension, nabla: BilinearProduct, lift: LiftData) -> BilinearProduct:
    """Materialize the candidate product on the extended algebra."""
    n = ext.base.dim
    if nabla.dim != n or lift.dim != n:
        raise ValueError("dimension mismatch between base product, lift data and extension")
    table = {}
    for i in range(n):
        for j in range(n):
            col = nabla.value(i, j) + [lift.phi[i][j]]
            table[(i, j)] = col
        col = list(lift.V[i]) + [lift.a[i]]
        table[(i, n)] = col
        table[(n, i)] = col
    table[(n, n)] = list(lift.W0) + [lift.rho]
    return BilinearProduct(n + 1, table)


def lift_report(ext: CentralExtension, nabla: BilinearProduct, lift: LiftData) -> AffineReport:
    return verify_affine(ext.extended, build_lift(ext, nabla, lift))


# ---------------------------------------------------------------------------
# the per-triple condition on phi

def _base_tables(base: LieAlgebra, theta: KForm, nabla: BilinearProduct, a) -> tuple:
    """(columns, gram): integer_columns(base, nabla, a) and integer_gram(theta).

    No readback: the curvature expansion, and with it the operator built on
    these tables, holds for any nabla.
    """
    return integer_columns(base, nabla, [Fraction(x) for x in a]), integer_gram(theta)


def _lift_tables(base: LieAlgebra, theta: KForm, nabla: BilinearProduct, a) -> tuple:
    """(columns, gram, operator) of one lift problem: the base tables and
    _phi_condition_operator on them, after the readback has confirmed the
    symplectic defining relation.  Built once per verdict or solve.
    """
    columns, gram = _base_tables(base, theta, nabla, a)
    readback = defining_relation_defects(base, theta, nabla, columns, gram)
    if readback:
        raise ValueError(
            f"base product violates the symplectic defining relation at {readback[0][0]}"
        )
    return columns, gram, _phi_condition_operator(columns, gram)


def _phi_condition_operator(columns, gram):
    """C_a(e_i, e_j, e_k) for i < j and all k, as integer rows over the entries of phi.

    columns and gram are the base tables (_base_tables) for nabla, a and
    theta.  Returns (terms, den).  terms lists ((i, j, k), row, const) in scan
    order; row holds (x * n + q, r) pairs, a position possibly more than once,
    with
        C_a(e_i, e_j, e_k) = (sum of r * phi[x][q] over the row + const) / den.
    nabla, the bracket constants and a are scaled by their common denominator
    D (integer_columns), theta by its denominator E (integer_gram); den = D * E
    and every coefficient r is a multiple of E.
    """
    brackets, products, a, d = columns
    gram, e = gram
    n = len(gram)
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = [(i * n + q, e * v) for q, v in products[j][k]]
                row += [(j * n + q, -e * v) for q, v in products[i][k]]
                row += [(p * n + k, -e * v) for p, v in brackets[i][j]]
                if a[i]:
                    row.append((j * n + k, e * a[i]))
                if a[j]:
                    row.append((i * n + k, -e * a[j]))
                terms.append(((i, j, k), row, -a[k] * gram[i][j]))
    return terms, d * e


def _phi_condition_values(operator, lift: LiftData) -> tuple:
    """({(i, j, k): v}, den): C_a at the lift's phi is v / den, in scan order.

    operator is _phi_condition_operator on the base tables built with the lift's a.
    """
    terms, den = operator
    phi, f = scale_to_integers([x for row in lift.phi for x in row])
    values = {t: sum(r * phi[x] for x, r in row) + const * f for t, row, const in terms}
    return values, den * f


# ---------------------------------------------------------------------------
# curvature expansions: two independent evaluation routes for the same values

@dataclass
class ExpansionReport:
    """Curvature values computed from base data instead of the built product.

    base_triples[(i, j, k)]  : value on ((e_i,0), (e_j,0), (e_k,0)), i < j
    mixed_central[(i, j)]    : value on ((e_i,0), (0,1), (e_j,0)), all pairs
    double_central[j]        : value on ((0,1), (e_j,0), (0,1))
    Vectors live in the extension (length n+1, last slot central).
    """

    base_triples: dict
    mixed_central: dict
    double_central: dict


def curvature_expansions(ext: CentralExtension, nabla: BilinearProduct,
                         lift: LiftData) -> ExpansionReport:
    """Evaluate the curvature through its expansion in base data and check it
    against the direct evaluation on the built product, entry by entry.

    Also checks, when the mixed-central table vanishes, that the curvature on
    ((x,0), (y,0), (0,1)) vanishes too, and - whenever the lift has admissible
    torsion - the unconditional cancellation
        C((x,0),(y,0),(0,1)) = C((x,0),(0,1),(y,0)) - C((y,0),(0,1),(x,0)).
    """
    base = ext.base
    theta = ext.cocycle
    n = base.dim
    prod = build_lift(ext, nabla, lift)
    extended = ext.extended
    # the direct route: one curvature scan of the built product; R(e_i, t) e_j
    # is at (i, n, j), R(e_i, e_j) t at (i, j, n), and R(t, e_j) t = -R(e_j, t) t
    direct = dict(curvature(extended, prod))
    base_curvature = dict(curvature(base, nabla))
    zero = vzero(n + 1)

    phi_conditions, den = _phi_condition_values(
        _phi_condition_operator(*_base_tables(base, theta, nabla, lift.a)), lift)
    base_triples = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                vec = base_curvature.get((i, j, k), zero[:n])
                vec = vadd(vec, vscale(lift.phi[j][k], list(lift.V[i])))
                vec = vsub(vec, vscale(lift.phi[i][k], list(lift.V[j])))
                vec = vsub(vec, vscale(theta.pair(i, j), list(lift.V[k])))
                # the central part is the per-triple condition C_a(e_i, e_j, e_k)
                value = vec + [Fraction(phi_conditions[(i, j, k)], den)]
                if value != direct.get((i, j, k), zero):
                    raise RuntimeError(
                        f"base-triple curvature expansion mismatch at {(i, j, k)}"
                    )
                base_triples[(i, j, k)] = value

    mixed_central = {}
    for i in range(n):
        ei = base.basis_vector(i)
        for j in range(n):
            ej = base.basis_vector(j)
            nij = nabla.value(i, j)
            vec = vadd(nabla.apply(ei, list(lift.V[j])), vscale(lift.a[j], list(lift.V[i])))
            vec = vsub(vec, lift.v_of(nij))
            vec = vsub(vec, vscale(lift.phi[i][j], list(lift.W0)))
            central_part = (
                lift.phi_of(ei, list(lift.V[j]))
                + lift.a[i] * lift.a[j]
                - lift.a_of(nij)
                - lift.phi[i][j] * lift.rho
            )
            value = vec + [central_part]
            if value != direct.get((i, n, j), zero):
                raise RuntimeError(f"mixed-central curvature expansion mismatch at {(i, j)}")
            mixed_central[(i, j)] = value

    double_central = {}
    for j in range(n):
        ej = base.basis_vector(j)
        vj = list(lift.V[j])
        vec = vadd(lift.v_of(vj), vscale(lift.a[j], list(lift.W0)))
        vec = vsub(vec, nabla.apply(ej, list(lift.W0)))
        vec = vsub(vec, vscale(lift.rho, vj))
        central_part = lift.a_of(vj) - lift.phi_of(ej, list(lift.W0))
        value = vec + [central_part]
        if value != [-x for x in direct.get((j, n, n), zero)]:
            raise RuntimeError(f"double-central curvature expansion mismatch at {j}")
        double_central[j] = value

    central_slot = {(i, j): direct.get((i, j, n), zero)
                    for i in range(n) for j in range(i + 1, n)}

    if all(is_zero_vector(v) for v in mixed_central.values()):
        bad = [t for t, v in central_slot.items() if not is_zero_vector(v)]
        if bad:
            raise RuntimeError(
                f"central-slot curvature nonzero at {bad[0]} although all "
                "mixed-central values vanish"
            )

    if not torsion_defects(extended, prod):
        for (i, j), v in central_slot.items():
            expect = vsub(mixed_central[(i, j)], mixed_central[(j, i)])
            if v != expect:
                raise RuntimeError(
                    f"central-slot cancellation identity failed at {(i, j)}"
                )

    return ExpansionReport(base_triples, mixed_central, double_central)


def half_case_residuals(algebra: LieAlgebra, theta: KForm, V, a):
    """The two relations of the phi = theta/2 case, over all basis triples.

    First list:  (1/2) theta(e_j,e_k) V_i - (1/2) theta(e_i,e_k) V_j
                 - theta(e_i,e_j) V_k  (vector residuals)
    Second list: theta([e_i,e_j],e_k) + theta(e_j,e_k) a_i
                 - theta(e_i,e_k) a_j - 2 theta(e_i,e_j) a_k  (scalars)
    A first-list residual is the vector part of the lift's curvature on that
    base triple (the canonical nabla is flat), so a nonempty first list rules
    out flatness.  One integer pass, with brackets B over D, Gram matrix G
    over E and V, a over F, gives 2EF r = G_jk V_i - G_ik V_j - 2 G_ij V_k and
    DEF s = F sum_q B_ij,q G_qk + D (G_jk a_i - G_ik a_j - 2 G_ij a_k).
    """
    n = algebra.dim
    if theta.degree != 2 or theta.dim != n:
        raise ValueError("need a 2-form on the algebra")
    values, f = scale_to_integers([Fraction(x) for col in V for x in col]
                                  + [Fraction(x) for x in a])
    v_int = [values[i * n:(i + 1) * n] for i in range(n)]
    a_int = values[n * n:]
    brackets, d = integer_brackets(algebra)
    gram, e = integer_gram(theta)
    first = []
    second = []
    for i in range(n):
        g_i, v_i = gram[i], v_int[i]
        for j in range(i + 1, n):
            g_j, v_j = gram[j], v_int[j]
            g_ij = 2 * g_i[j]
            bracket_ij = brackets[i][j]
            for k in range(n):
                g_jk, g_ik = g_j[k], g_i[k]
                r = [g_jk * x - g_ik * y - g_ij * z for x, y, z in zip(v_i, v_j, v_int[k])]
                if any(r):
                    first.append(((i, j, k), fractions_over(r, 2 * e * f)))
                s = (f * sum(c * gram[q][k] for q, c in bracket_ij)
                     + d * (g_jk * a_int[i] - g_ik * a_int[j] - g_ij * a_int[k]))
                if s:
                    second.append(((i, j, k), Fraction(s, d * e * f)))
    return first, second


def is_one_dim_rep(algebra: LieAlgebra, a):
    """True iff the form a vanishes on all brackets (one-dimensional representation)."""
    a = [Fraction(x) for x in a]
    witnesses = []
    for (i, j), terms in sorted(algebra.constants.items()):
        val = sum((c * a[k] for k, c in terms.items()), ZERO)
        if val:
            witnesses.append(((i, j), val))
    return not witnesses, witnesses


# ---------------------------------------------------------------------------
# two-case verdict

CASE_TRIVIAL = "trivial-alpha"
CASE_NONTRIVIAL = "nontrivial-alpha"
CASE_NOT_APPLICABLE = "not-applicable"


@dataclass
class ConditionCheck:
    name: str
    passed: bool
    witnesses: list = field(default_factory=list)


@dataclass
class Verdict:
    """Oracle result plus the two-case characterization conditions.

    is_affine comes only from the brute-force torsion/curvature oracle.  The
    conditions are reported alongside; conditions_hold and is_affine may
    disagree, in which case findings carries a named finding ("theorem-gap"
    when the conditions pass but the oracle refutes flatness).
    """

    is_affine: bool
    case: str
    conditions: list
    aux_product_rule_holds: bool
    aux_witnesses: list
    findings: list
    notes: list
    torsion_defects: list
    curvature_defects: list

    @property
    def violated(self) -> list:
        return [c for c in self.conditions if not c.passed]

    @property
    def conditions_hold(self) -> bool:
        return self.case != CASE_NOT_APPLICABLE and not self.violated


def _nonzero_central_parts(lift: LiftData) -> list:
    """Tags ("V", i), ("W0",), ("rho",) of the central parts of the lift that are nonzero."""
    tags = [("V", i) for i, col in enumerate(lift.V) if not is_zero_vector(col)]
    if not is_zero_vector(lift.W0):
        tags.append(("W0",))
    if lift.rho != 0:
        tags.append(("rho",))
    return tags


def theorem_verdict(ext: CentralExtension, nabla: BilinearProduct, lift: LiftData,
                    tables=None) -> Verdict:
    """Classify the lift and compare the characterization conditions with the oracle.

    Requires nabla to satisfy the symplectic defining relation (checked via
    readback).  A caller that holds the lift tables (_lift_tables, built with
    the lift's a) passes them as tables.  The nontrivial case encodes the
    vanishing of the mixed products as full V = 0; the off-kernel vector parts
    are only implicitly constrained by the statement, and this reading is
    recorded in notes.
    """
    base = ext.base
    n = base.dim
    if tables is None:
        tables = _lift_tables(base, ext.cocycle, nabla, lift.a)
    (_, products, a_int, d), _, operator = tables

    report = lift_report(ext, nabla, lift)
    is_affine = report.is_affine

    conditions = []
    notes = []
    a = lift.a
    central = _nonzero_central_parts(lift)

    if all(x == 0 for x in a):
        case = CASE_TRIVIAL
        conditions.append(ConditionCheck("central-products-vanish", not central, central))
        values, den = _phi_condition_values(operator, lift)
        wit2 = [(t, Fraction(v, den)) for t, v in values.items() if v]
        conditions.append(ConditionCheck("vinberg-two-cocycle", not wit2, wit2))
    else:
        rep_ok, rep_wit = is_one_dim_rep(base, a)
        if not rep_ok:
            case = CASE_NOT_APPLICABLE
            conditions.append(ConditionCheck("alpha-is-representation", False, rep_wit))
        else:
            case = CASE_NONTRIVIAL
            wit = [w for w in central if w[0] != "V"]
            conditions.append(ConditionCheck("central-square-vanishes", not wit, wit))
            witv = [w for w in central if w[0] == "V"]
            conditions.append(ConditionCheck("base-central-products-vanish", not witv, witv))
            notes.append(
                "kernel-only vanishing condition encoded as full V = 0; the central "
                "parts a_x stay free off the kernel"
            )
            # C_a(x, y, e_k) for kernel vectors x, y of a: the contraction of the
            # values with x ^ y, where the a(x) and a(y) terms drop out
            values, den = _phi_condition_values(operator, lift)
            ker = kernel_basis(Matrix.from_rows([list(a)]))
            wit2 = []
            for p in range(len(ker)):
                for q in range(p + 1, len(ker)):
                    x, y = ker[p], ker[q]
                    wedge = [((i, j), x[i] * y[j] - x[j] * y[i])
                             for i in range(n) for j in range(i + 1, n)]
                    wedge = [(ij, w) for ij, w in wedge if w]
                    for k in range(n):
                        val = sum((w * values[ij + (k,)] for ij, w in wedge), ZERO) / den
                        if val:
                            wit2.append(((p, q, k), val))
            conditions.append(ConditionCheck("kernel-twisted-two-cocycle", not wit2, wit2))

    # a(nabla(e_i, e_j)) - a_i a_j, times D^2: sum_k P_ij,k A_k - A_i A_j
    aux_wit = []
    for i in range(n):
        for j in range(n):
            val = sum(v * a_int[k] for k, v in products[i][j]) - a_int[i] * a_int[j]
            if val:
                aux_wit.append(((i, j), Fraction(val, d * d)))
    aux_holds = not aux_wit

    findings = []
    conditions_hold = case != CASE_NOT_APPLICABLE and all(c.passed for c in conditions)
    if conditions_hold and not is_affine:
        findings.append("theorem-gap")
    if is_affine and not conditions_hold:
        findings.append("oracle-flat-but-conditions-violated")

    return Verdict(
        is_affine=is_affine,
        case=case,
        conditions=conditions,
        aux_product_rule_holds=aux_holds,
        aux_witnesses=aux_wit,
        findings=findings,
        notes=notes,
        torsion_defects=report.torsion_defects,
        curvature_defects=report.curvature_defects,
    )


# ---------------------------------------------------------------------------
# linear solvers for admissible phi

@dataclass
class SolvedPoint:
    phi: tuple
    lift: LiftData
    flat: bool
    verdict: Verdict


@dataclass
class LiftSolveResult:
    """Affine solution space of admissible phi, parameterized by symmetric part.

    phi = theta/2 + s with s symmetric; feasible is False when the linear
    system has no solution at all (an acceptable outcome).  points holds the
    oracle-checked representatives: the particular solution and the particular
    plus each basis direction.  gap_candidates lists checked points whose
    characterization conditions hold while the oracle refutes flatness.
    """

    feasible: bool
    dimension: int
    particular_sym: Optional[tuple]
    basis_sym: list
    points: list
    gap_candidates: list


def _sym_index(n: int):
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    return pairs, {pq: t for t, pq in enumerate(pairs)}


def _sym_rows(vec, n, index):
    rows = [[ZERO] * n for _ in range(n)]
    for (p, q), t in index.items():
        rows[p][q] = vec[t]
        rows[q][p] = vec[t]
    return rows


def _solve_phi_system(gram, operator):
    """Solve the per-triple conditions C_a = 0 for the symmetric part s of phi.

    gram is the integer Gram matrix of theta (_base_tables) and operator is
    _phi_condition_operator.  Its rows, times 2, are folded onto the unknowns
    s[x][q] = s[q][x]; substituting phi = s + theta/2 moves each row's theta
    part, sum of r * theta(e_x, e_q) / 2, into the constant.  With den = D * E
    every condition times 2 * den then has integer coefficients and an integer
    right-hand side (each r is a multiple of E).  Scaling a row by a nonzero
    constant changes neither the solution set nor the reduced row echelon
    form, so the particular solution, the kernel, the rank and the
    infeasibility verdict are exactly those of the unscaled system.
    """
    terms, _ = operator
    gram, e = gram
    n = len(gram)
    gram = [g for row in gram for g in row]
    pairs, index = _sym_index(n)
    # column of the unknown s[x][q] = s[q][x], by the position x * n + q
    col = [index[(min(x, q), max(x, q))] for x in range(n) for q in range(n)]

    entries = []
    rhs = []
    for _, row, const in terms:
        coeffs = [0] * len(pairs)
        theta_part = 0
        for x, r in row:
            coeffs[col[x]] += 2 * r
            theta_part += r * gram[x]
        entries.extend(coeffs)
        rhs.append(-(2 * const + theta_part // e))

    system = Matrix(len(rhs), len(pairs), tuple(entries))
    return solve_linear(system, rhs), index


def _solve_lift(base: LieAlgebra, theta: KForm, nabla: BilinearProduct, a) -> LiftSolveResult:
    """Solve C_a = 0 for phi = theta/2 + s and check the particular solution and
    the particular plus each basis direction, in that order.

    The lift tables are built once and handed to each point's theorem_verdict;
    the extension is built once, and only when the system is feasible.  The
    callers have checked that theta is closed.
    """
    n = base.dim
    tables = _lift_tables(base, theta, nabla, a)
    _, gram, operator = tables
    solution, index = _solve_phi_system(gram, operator)
    if solution.infeasible:
        return LiftSolveResult(False, -1, None, [], [], [])
    ext = central_extend(base, theta, assume_closed=True)
    half = LiftData.half_cocycle(theta, a)
    particular, kernel = solution.particular, solution.kernel
    points = []
    for svec in [particular] + [vadd(particular, b) for b in kernel]:
        sym = _sym_rows(svec, n, index)
        lift = half.with_changes(phi=[[s + h for s, h in zip(rs, rh)]
                                      for rs, rh in zip(sym, half.phi)])
        verdict = theorem_verdict(ext, nabla, lift, tables)
        points.append(SolvedPoint(lift.phi, lift, verdict.is_affine, verdict))
    return LiftSolveResult(
        True,
        len(kernel),
        tuple(tuple(r) for r in _sym_rows(particular, n, index)),
        [tuple(tuple(r) for r in _sym_rows(b, n, index)) for b in kernel],
        points,
        [pt for pt in points if "theorem-gap" in pt.verdict.findings],
    )


def solve_lift_trivial(base: LieAlgebra, theta: KForm, nabla: BilinearProduct) -> LiftSolveResult:
    """Admissible phi for the trivial central form: every solution must be flat."""
    _require_closed(base, theta)
    result = _solve_lift(base, theta, nabla, [ZERO] * base.dim)
    for pt in result.points:
        if not pt.flat:
            raise AssertionError("trivial-case solver produced a non-flat candidate")
    return result


def solve_lift_with_alpha(base: LieAlgebra, theta: KForm, nabla: BilinearProduct,
                          a) -> LiftSolveResult:
    """Admissible phi for a fixed central form a (a one-dimensional representation).

    Solutions are oracle-checked; those whose characterization conditions hold
    while the oracle refutes flatness are recorded as gap candidates, never
    dropped.
    """
    if len(a) != base.dim:
        raise ValueError(f"central form has length {len(a)}, the base has dimension {base.dim}")
    _require_closed(base, theta)
    rep_ok, wit = is_one_dim_rep(base, a)
    if not rep_ok:
        raise ValueError(f"central form is not a representation; witness at pair {wit[0][0]}")
    return _solve_lift(base, theta, nabla, a)


# ---------------------------------------------------------------------------
# seeded sampling used by the test suite and the scan script

def random_lift_data(rng: random.Random, theta: KForm, kind: str = "admissible") -> LiftData:
    """Random LiftData with integer entries in [-3, 3].

    kind "admissible": phi = random symmetric part + theta/2 (correct torsion).
    kind "perturbed": additionally a nonzero random antisymmetric part, so the
    torsion constraint phi - phi^T = theta fails.
    """
    n = theta.dim
    half = Fraction(1, 2)

    def rint():
        return Fraction(rng.randint(-3, 3))

    sym = [[ZERO] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            sym[p][q] = sym[q][p] = rint()
    phi = [[sym[i][j] + half * theta.pair(i, j) for j in range(n)] for i in range(n)]
    if kind == "perturbed":
        while True:
            anti = [[ZERO] * n for _ in range(n)]
            nonzero = False
            for p in range(n):
                for q in range(p + 1, n):
                    c = rint()
                    anti[p][q] = c
                    anti[q][p] = -c
                    nonzero = nonzero or c != 0
            if nonzero:
                break
        phi = [[phi[i][j] + anti[i][j] for j in range(n)] for i in range(n)]
    elif kind != "admissible":
        raise ValueError(f"unknown kind {kind!r}")
    v = tuple(tuple(rint() for _ in range(n)) for _ in range(n))
    a = tuple(rint() for _ in range(n))
    w0 = tuple(rint() for _ in range(n))
    rho = rint()
    return LiftData(tuple(tuple(r) for r in phi), v, a, w0, rho)
