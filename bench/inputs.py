"""Seeded benchmark inputs, built through lieaff's public API only.

Symplectic nilpotent bases of dimension 4, 6 and 8 come from iterated
one-dimensional central extensions of an abelian algebra by random closed
2-forms (Skjelbred-Sund style).  A base is kept only when one of FORM_DRAWS
further random closed 2-forms is symplectic on it; extending by that form gives a contact
algebra of dimension 5, 7 or 9.  The Heisenberg ladder adds the abelian
quotients r4, r6, r8 of h5, h7, h9, whose canonical products vanish.

Every random draw comes from a generator seeded by the benchmark seed plus a
label naming what is drawn, so one input does not depend on how many others
were drawn before it, and the same seed gives the same inputs in every
workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations

import lieaff
from lieaff import fileio

ZERO = Fraction(0)


def rng_for(seed, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *labels)))


@dataclass
class Base:
    """A symplectic base with its canonical product and its contact extension."""

    name: str
    algebra: lieaff.LieAlgebra
    theta: lieaff.KForm
    nabla: lieaff.BilinearProduct

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def ext(self) -> lieaff.CentralExtension:
        return lieaff.central_extend(self.algebra, self.theta)

    def to_dict(self) -> dict:
        return {"algebra": fileio.algebra_to_dict(self.algebra),
                "theta": fileio.form_to_dict(self.theta)}


def make_base(name, algebra, theta) -> Base:
    algebra = lieaff.LieAlgebra(dim=algebra.dim, constants=algebra.constants, name=name)
    return Base(name, algebra, theta, lieaff.affine_from_symplectic(algebra, theta))


def closed_two_forms(algebra) -> list:
    """Basis of the closed 2-forms: the kernel of the cyclic cocycle condition."""
    n = algebra.dim
    pairs = list(combinations(range(n), 2))
    col = {pq: t for t, pq in enumerate(pairs)}
    rows = []
    for i, j, k in combinations(range(n), 3):
        row = [ZERO] * len(pairs)
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for q, c in enumerate(algebra.bracket_basis(x, y)):
                if c and q < z:
                    row[col[(q, z)]] += c
                elif c and q > z:
                    row[col[(z, q)]] -= c
        rows.append(row)
    kernel = lieaff.kernel_basis(lieaff.Matrix.from_rows(rows, cols=len(pairs)))
    return [lieaff.KForm(2, n, dict(zip(pairs, primitive(v)))) for v in kernel]


def primitive(vector) -> list:
    """The integer vector with coprime entries on the same ray."""
    scale = math.lcm(*(x.denominator for x in vector))
    ints = [int(x * scale) for x in vector]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def random_combination(rng, forms, dim) -> lieaff.KForm:
    form = lieaff.KForm(2, dim, {})
    for basis_form in forms:
        form = lieaff.form_add(form, basis_form.scaled(rng.randint(-1, 1)))
    return form


FORM_DRAWS = 3    # closed forms tried on one algebra before it is discarded
# Abelian starting dimensions: the ones from which a symplectic base is
# reached most often (about half the time at dimension 8, against under a
# tenth from 3 or 4).
START_DIMS = {4: (2,), 6: (2, 3), 8: (2, 5)}


def symplectic_base(seed, dim, index) -> Base:
    """Non-abelian symplectic nilpotent base number index of dimension dim."""
    rng = rng_for(seed, "base", dim, index)
    while True:
        algebra = lieaff.LieAlgebra(dim=rng.choice(START_DIMS[dim]))
        while algebra.dim < dim:
            theta = random_combination(rng, closed_two_forms(algebra), algebra.dim)
            algebra = lieaff.central_extend(algebra, theta).extended
        if not algebra.constants:
            continue
        forms = closed_two_forms(algebra)
        for _ in range(FORM_DRAWS):
            theta = random_combination(rng, forms, dim)
            if lieaff.symplectic_check(algebra, theta).is_symplectic:
                return make_base(f"g{dim}-{index}", algebra, theta)


def heisenberg(dim) -> lieaff.LieAlgebra:
    """h_dim with [e_(2i-1), e_(2i)] = e_dim."""
    top = dim - 1
    constants = {(2 * i, 2 * i + 1): {top: 1} for i in range(top // 2)}
    return lieaff.LieAlgebra(dim=dim, constants=constants, name=f"h{dim}")


def heisenberg_base(dim) -> Base:
    """The abelian quotient r_dim of h_(dim+1) by its center, with its symplectic form."""
    quot = lieaff.quotient_by_center(heisenberg(dim + 1), lieaff.KForm.dual(dim + 1, dim))
    return make_base(f"r{dim}", quot.algebra, quot.theta)


def one_dim_rep(rng, algebra) -> list:
    """A random nonzero 1-form vanishing on [g, g]."""
    n = algebra.dim
    rows = [[terms.get(k, ZERO) for k in range(n)] for terms in algebra.constants.values()]
    kernel = lieaff.kernel_basis(lieaff.Matrix.from_rows(rows, cols=n))
    while True:
        a = [ZERO] * n
        for v in kernel:
            c = rng.randint(-1, 1)
            a = [x + c * y for x, y in zip(a, v)]
        if any(a):
            return a


A_MODES = ("zero", "rep", "raw")


def random_lift(rng, base, a_mode, perturbed) -> lieaff.LiftData:
    """Seeded lift data whose central form a is zero, a representation, or raw."""
    lift = lieaff.random_lift_data(rng, base.theta, "perturbed" if perturbed else "admissible")
    if a_mode == "zero":
        return lift.with_changes(a=[ZERO] * base.dim)
    if a_mode == "rep":
        return lift.with_changes(a=one_dim_rep(rng, base.algebra))
    return lift
