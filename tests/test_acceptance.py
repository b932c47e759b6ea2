"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see every line (pytest captures
stdout of passing tests by default).  Everything is exact arithmetic with
zero tolerance; seeds are fixed constants recorded below.
"""

import functools
import random
from fractions import Fraction

from lieaff import fileio
from lieaff.catalog import contact_entries, entries, get, symplectic_entries
from lieaff.cli import main
from lieaff.extension import (
    LiftData,
    build_lift,
    central_extend,
    curvature_expansions,
    is_one_dim_rep,
    random_lift_data,
    solve_lift_trivial,
    solve_lift_with_alpha,
    theorem_verdict,
)
from lieaff.liecore import KForm, quotient_by_center
from lieaff.ratlin import Matrix, is_zero_vector
from lieaff.structures import (
    affine_from_symplectic,
    contact_test,
    defining_relation_defects,
    exact_cocycle_obstruction,
    random_one_form,
    symplectic_check,
    torsion_defects,
    verify_affine,
)

from fraction_scans import curvature_at

BASES = ("r2", "r4", "n4")
SEED_RANDOM_FORMS = 202
SEED_CENTER_FORMS = 303
SEED_TORSION = 501
SEED_PERTURBED = 502
SEED_CANDIDATES = 901


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num:2d}: {desc}")
                raise
            print(f"PASS criterion {num:2d}: {desc}")
        return wrapper
    return deco


@functools.lru_cache(maxsize=None)
def base_data(name):
    e = get(name)
    nabla = affine_from_symplectic(e.algebra, e.symplectic_form)
    ext = central_extend(e.algebra, e.symplectic_form)
    return e.algebra, e.symplectic_form, nabla, ext


def lift_batch(name, count, seed, kind="admissible"):
    theta = get(name).symplectic_form
    rng = random.Random(seed + BASES.index(name))
    return [random_lift_data(rng, theta, kind=kind) for _ in range(count)]


@functools.lru_cache(maxsize=None)
def suite_candidates():
    """Every lift candidate the suite produces, with its verdict.

    Half-cocycle lifts, all solver outputs on the catalog, and 200 seeded
    random torsion-admissible candidates per symplectic base.
    """
    out = []
    for name in ("r2", "r4"):
        base, theta, nabla, ext = base_data(name)
        lift = LiftData.half_cocycle(theta)
        out.append((f"half-{name}", name, lift, theorem_verdict(ext, nabla, lift)))
    for name in BASES:
        base, theta, nabla, ext = base_data(name)
        res = solve_lift_trivial(base, theta, nabla)
        for idx, pt in enumerate(res.points):
            out.append((f"solve-trivial-{name}-{idx}", name, pt.lift, pt.verdict))
    alpha_cases = [("r2", (1, 0)), ("r4", (1, 0, 0, 0)), ("n4", (1, 0, 0, 0))]
    for name, alpha in alpha_cases:
        base, theta, nabla, ext = base_data(name)
        res = solve_lift_with_alpha(base, theta, nabla, [Fraction(x) for x in alpha])
        for idx, pt in enumerate(res.points):
            out.append((f"solve-alpha-{name}-{idx}", name, pt.lift, pt.verdict))
    for bi, name in enumerate(BASES):
        base, theta, nabla, ext = base_data(name)
        rng = random.Random(SEED_CANDIDATES + bi)
        for idx in range(200):
            lift = random_lift_data(rng, theta)
            out.append((f"random-{name}-{idx}", name, lift, theorem_verdict(ext, nabla, lift)))
    return tuple(out)


@criterion(1, "catalog soundness: Jacobi, nilpotency, contact scalars, 1-dim centers")
def test_criterion_1_catalog_soundness():
    for e in entries():
        if not e.valid:
            assert e.algebra.jacobi_defects(), "negative control must fail Jacobi"
            continue
        assert e.algebra.jacobi_defects() == [], e.name
        assert e.algebra.is_nilpotent(), e.name
    designated = {"h3", "h5", "h7", "n4ext"}
    assert designated == {e.name for e in contact_entries()}
    for e in contact_entries():
        rep = contact_test(e.algebra, e.contact_form)
        assert rep.scalar != 0, e.name
        center = e.algebra.center()
        assert center.dim == 1, e.name
        assert e.contact_form.evaluate([center.basis[0]]) != 0, e.name


@criterion(2, "contact obstruction: oversized center and forms vanishing on the center")
def test_criterion_2_contact_obstruction():
    h3xr2 = get("h3xr2").algebra
    rng = random.Random(SEED_RANDOM_FORMS)
    tested = 0
    while tested < 200:
        omega = random_one_form(rng, 5)
        if omega.is_zero():
            continue
        assert contact_test(h3xr2, omega).scalar == 0
        tested += 1
    for e in contact_entries():
        algebra = e.algebra
        n = algebra.dim
        z = algebra.center().basis[0]
        pivot = next(i for i in range(n) if z[i] != 0)
        rng = random.Random(SEED_CENTER_FORMS)
        for _ in range(50):
            omega = random_one_form(rng, n)
            val = omega.evaluate([z])
            coeffs = dict(omega.coeffs)
            coeffs[(pivot,)] = coeffs.get((pivot,), Fraction(0)) - val / z[pivot]
            adjusted = KForm(1, n, coeffs)
            assert adjusted.evaluate([z]) == 0
            assert contact_test(algebra, adjusted).scalar == 0, e.name


@criterion(3, "quotient/extension round trip reproduces each contact algebra")
def test_criterion_3_round_trip():
    for e in contact_entries():
        quot = quotient_by_center(e.algebra, e.contact_form)
        assert symplectic_check(quot.algebra, quot.theta).is_symplectic, e.name
        ext = central_extend(quot.algebra, quot.theta)
        n = e.algebra.dim
        cols = [[quot.section.at(r, c) for r in range(n)] for c in range(n - 1)]
        cols.append(quot.center_generator)
        m = Matrix.from_columns(cols)
        for i in range(n):
            for j in range(i + 1, n):
                lhs = e.algebra.bracket(cols[i], cols[j])
                rhs = m.mul_vec(ext.extended.bracket_basis(i, j))
                assert lhs == rhs, (e.name, i, j)


@criterion(4, "canonical affine structure: zero defects and exact defining relation")
def test_criterion_4_canonical_affine():
    for name in BASES:
        base, theta, nabla, _ = base_data(name)
        report = verify_affine(base, nabla)
        assert report.torsion_defects == [], name
        assert report.curvature_defects == [], name
        assert defining_relation_defects(base, theta, nabla) == [], name


@criterion(5, "torsion identity: 100 admissible lifts clean, 100 perturbed lifts defective, per base")
def test_criterion_5_torsion_identity():
    for name in BASES:
        base, theta, nabla, ext = base_data(name)
        for lift in lift_batch(name, 100, SEED_TORSION):
            assert torsion_defects(ext.extended, build_lift(ext, nabla, lift)) == [], name
        for lift in lift_batch(name, 100, SEED_PERTURBED, kind="perturbed"):
            assert torsion_defects(ext.extended, build_lift(ext, nabla, lift)) != [], name


@criterion(6, "curvature identities: expansions match direct values; central-slot vanishing")
def test_criterion_6_curvature_identities():
    # curvature_expansions raises on any mismatch between the expansion route
    # and the direct evaluation, on failure of the conditional central-slot
    # vanishing, and on failure of the cancellation identity for admissible
    # torsion; running it on the same 100 seeded lifts per base is the check.
    for name in BASES:
        base, theta, nabla, ext = base_data(name)
        for lift in lift_batch(name, 100, SEED_TORSION):
            curvature_expansions(ext, nabla, lift)
        # for the canonical half-cocycle lift the central-slot curvature
        # vanishes identically, whether or not the lift is flat overall
        half = LiftData.half_cocycle(theta)
        from lieaff.extension import build_lift
        prod = build_lift(ext, nabla, half)
        extended = ext.extended
        central = extended.basis_vector(extended.dim - 1)
        for i in range(base.dim):
            for j in range(i + 1, base.dim):
                c = curvature_at(extended, prod,
                                 extended.basis_vector(i), extended.basis_vector(j), central)
                assert is_zero_vector(c), (name, i, j)


@criterion(7, "flat-lift consequences: V = W0 = rho = 0 and a is a representation")
def test_criterion_7_flat_lift_consequences():
    flat = [(label, name, lift) for label, name, lift, v in suite_candidates() if v.is_affine]
    assert flat, "the suite must produce at least one flat lift"
    for label, name, lift in flat:
        base = get(name).algebra
        assert all(is_zero_vector(list(col)) for col in lift.V), label
        assert is_zero_vector(list(lift.W0)), label
        assert lift.rho == 0, label
        for i in range(base.dim):
            for j in range(i + 1, base.dim):
                assert lift.a_of(base.bracket_basis(i, j)) == 0, label
        assert is_one_dim_rep(base, lift.a)[0], label


@criterion(8, "end-to-end CLI: half lifts on the Heisenberg pipelines are oracle-flat, exit 0")
def test_criterion_8_end_to_end_cli(tmp_path, capsys):
    for name in ("r2", "r4"):
        e = get(name)
        alg = tmp_path / f"{name}.json"
        theta = tmp_path / f"{name}.theta.json"
        fileio.save_algebra(alg, e.algebra)
        fileio.save_form(theta, e.symplectic_form)
        dim = e.algebra.dim
        alpha = ",".join(["0"] * dim)
        code = main(["lift", str(alg), "--symplectic", str(theta), "--half",
                     "--alpha", alpha])
        out = capsys.readouterr().out
        assert code == 0, name
        assert "oracle flat: yes" in out
        assert "case: trivial-alpha" in out
        assert "FAIL" not in out
        assert "torsion defects: 0" in out
        assert "curvature defects: 0" in out


@criterion(9, "theorem soundness: conditions + auxiliary rule imply oracle-flat; gaps counted")
def test_criterion_9_theorem_soundness():
    gap_count = 0
    gap_labels = []
    for label, name, lift, verdict in suite_candidates():
        if verdict.conditions_hold and verdict.aux_product_rule_holds:
            assert verdict.is_affine, f"{label}: conditions+aux hold but oracle refutes"
        if "theorem-gap" in verdict.findings:
            gap_count += 1
            gap_labels.append(label)
    print(f"    criterion 9 report: theorem-gap count = {gap_count} "
          f"(report-only; a nonzero count fails nothing) {gap_labels}")


@criterion(10, "non-exactness: theta(x,y) = -alpha([x,y]) is infeasible on every symplectic base")
def test_criterion_10_non_exactness():
    for e in symplectic_entries():
        solution = exact_cocycle_obstruction(e.algebra, e.symplectic_form)
        assert solution.infeasible, e.name
