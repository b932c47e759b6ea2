"""Central extensions, lifted products, the two-case verdict, and the solvers."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieaff import cli, extension, liecore, structures
from lieaff.catalog import contact_entries, get, symplectic_entries
from lieaff.extension import (
    LiftData,
    _base_tables,
    _next_name,
    _phi_condition_operator,
    _solve_phi_system,
    build_lift,
    central_extend,
    curvature_expansions,
    half_case_residuals,
    is_one_dim_rep,
    lift_report,
    random_lift_data,
    solve_lift_trivial,
    solve_lift_with_alpha,
    theorem_verdict,
)
from lieaff.liecore import KForm, LieAlgebra, quotient_by_center
from lieaff.ratlin import (
    Matrix,
    ONE,
    ZERO,
    invert,
    is_zero_vector,
    kernel_basis,
    solve_linear,
    vscale,
    vsub,
)
from lieaff.structures import (
    BilinearProduct,
    affine_from_symplectic,
    contact_test,
    defining_relation_defects,
    torsion_defects,
)

from fraction_scans import curvature_at

F = Fraction


def base_data(name):
    e = get(name)
    nabla = affine_from_symplectic(e.algebra, e.symplectic_form)
    ext = central_extend(e.algebra, e.symplectic_form)
    return e.algebra, e.symplectic_form, nabla, ext


def test_central_extend_r2_is_h3():
    _, _, _, ext = base_data("r2")
    assert ext.extended.constants == get("h3").algebra.constants


def test_central_extend_r4_is_h5():
    _, _, _, ext = base_data("r4")
    assert ext.extended.constants == get("h5").algebra.constants


def test_central_extend_n4_matches_catalog_extension():
    _, _, _, ext = base_data("n4")
    assert ext.extended.constants == get("n4ext").algebra.constants
    rep = contact_test(ext.extended, KForm.dual(5, 4))
    assert rep.scalar != 0


def test_central_extend_rejects_nonclosed():
    n4 = get("n4").algebra
    with pytest.raises(ValueError, match="not closed"):
        central_extend(n4, KForm(2, 4, {(0, 1): 1, (2, 3): 1}))


def test_build_lift_half_on_h3_case():
    base, theta, nabla, ext = base_data("r2")
    lift = LiftData.half_cocycle(theta)
    prod = build_lift(ext, nabla, lift)
    assert prod.value(0, 1) == [0, 0, F(1, 2)]
    assert prod.value(1, 0) == [0, 0, F(-1, 2)]
    for pair in [(0, 2), (2, 0), (1, 2), (2, 1), (2, 2)]:
        assert prod.value(*pair) == [0, 0, 0]


def test_build_lift_zero_data_is_block_product():
    base, theta, nabla, ext = base_data("n4")
    prod = build_lift(ext, nabla, LiftData.zero(4))
    for (i, j), col in nabla.table.items():
        assert prod.value(i, j) == list(col) + [ZERO]
    for i in range(5):
        assert prod.value(i, 4) == [0] * 5
        assert prod.value(4, i) == [0] * 5


def test_build_lift_rho_only():
    base, theta, nabla, ext = base_data("r2")
    lift = LiftData.zero(2).with_changes(rho=ONE)
    prod = build_lift(ext, nabla, lift)
    assert prod.value(2, 2) == [0, 0, F(1)]


def seeded_lifts(name, count, seed, kind="admissible"):
    theta = get(name).symplectic_form
    rng = random.Random(seed)
    return [random_lift_data(rng, theta, kind=kind) for _ in range(count)]


@pytest.mark.parametrize("name", [e.name for e in symplectic_entries()])
def test_torsion_identity_random_admissible(name):
    base, theta, nabla, ext = base_data(name)
    for lift in seeded_lifts(name, 25, seed=11):
        assert torsion_defects(ext.extended, build_lift(ext, nabla, lift)) == []


@pytest.mark.parametrize("name", [e.name for e in symplectic_entries()])
def test_torsion_identity_perturbed_fails(name):
    base, theta, nabla, ext = base_data(name)
    for lift in seeded_lifts(name, 25, seed=12, kind="perturbed"):
        assert torsion_defects(ext.extended, build_lift(ext, nabla, lift)) != []


def test_torsion_defect_locations_for_zero_phi():
    base, theta, nabla, ext = base_data("r4")
    lift = LiftData.zero(4)
    defects = torsion_defects(ext.extended, build_lift(ext, nabla, lift))
    # phi = 0 misses theta on exactly the pairs where theta is nonzero
    assert [t for t, _ in defects] == [(0, 1), (2, 3)]


def test_torsion_defect_for_doubled_phi():
    base, theta, nabla, ext = base_data("r2")
    phi = tuple(tuple(theta.pair(i, j) for j in range(2)) for i in range(2))
    lift = LiftData.zero(2).with_changes(phi=phi)
    assert torsion_defects(ext.extended, build_lift(ext, nabla, lift)) != []


def test_curvature_antisymmetric_in_first_slots():
    base, theta, nabla, ext = base_data("r2")
    lift = LiftData.half_cocycle(theta).with_changes(rho=ONE)
    prod = build_lift(ext, nabla, lift)
    lx = ext.extended
    u = [F(1), F(2), F(-1)]
    assert curvature_at(lx, prod, u, u, lx.basis_vector(0)) == [0, 0, 0]


def test_curvature_central_slot_picks_up_rho_term():
    base, theta, nabla, ext = base_data("r2")
    lift = LiftData.half_cocycle(theta).with_changes(rho=ONE)
    prod = build_lift(ext, nabla, lift)
    lx = ext.extended
    c = curvature_at(lx, prod, lx.basis_vector(0), lx.basis_vector(1), lx.basis_vector(2))
    assert c == [0, 0, F(-1)]


def test_half_lift_flat_on_heisenberg_cases():
    for name in ("r2", "r4"):
        base, theta, nabla, ext = base_data(name)
        report = lift_report(ext, nabla, LiftData.half_cocycle(theta))
        assert report.is_affine, name


def test_trivial_direct_sum_extension_is_flat():
    # phi = 0 forces theta = 0: the extension is the direct sum of ideals and
    # the block product (nabla, 0) is an affine structure on it
    r2 = get("r2").algebra
    from lieaff.structures import BilinearProduct
    ext0 = central_extend(r2, KForm(2, 2, {}))
    assert ext0.extended.constants == {}
    report = lift_report(ext0, BilinearProduct.zero(2), LiftData.zero(2))
    assert report.is_affine


def _predicted_defects_from_expansions(report, n):
    """Where the brute-force scan must find defects, given admissible torsion."""
    from lieaff.ratlin import vsub

    predicted = set()
    for (i, j, k), vec in report.base_triples.items():
        if not is_zero_vector(vec):
            predicted.add((i, j, k))
    for (i, j), vec in report.mixed_central.items():
        # C((e_i,0),(0,1),(e_j,0)) shows up in the i<j scan as triple (i, n, j)
        if not is_zero_vector(vec):
            predicted.add((i, n, j))
    for i in range(n):
        for j in range(i + 1, n):
            gap = vsub(report.mixed_central[(i, j)], report.mixed_central[(j, i)])
            if not is_zero_vector(gap):
                predicted.add((i, j, n))
    for j, vec in report.double_central.items():
        # C((e_j,0),(0,1),(0,1)) = -C((0,1),(e_j,0),(0,1))
        if not is_zero_vector(vec):
            predicted.add((j, n, n))
    return predicted


def test_curvature_defects_match_expansion_prediction():
    # perturb a flat lift with a = (1, 0): the brute-force defect set must be
    # exactly the set predicted by the expansion tables
    base, theta, nabla, ext = base_data("r2")
    lift = LiftData.half_cocycle(theta, a=[1, 0])
    report = curvature_expansions(ext, nabla, lift)
    predicted = _predicted_defects_from_expansions(report, base.dim)
    defects = {t for t, _ in lift_report(ext, nabla, lift).curvature_defects}
    assert defects == predicted == {(0, 1, 0), (0, 2, 0)}


@pytest.mark.parametrize("name", [e.name for e in symplectic_entries()])
def test_random_defect_sets_match_expansion_prediction(name):
    base, theta, nabla, ext = base_data(name)
    for lift in seeded_lifts(name, 8, seed=21):
        report = curvature_expansions(ext, nabla, lift)
        predicted = _predicted_defects_from_expansions(report, base.dim)
        defects = {t for t, _ in lift_report(ext, nabla, lift).curvature_defects}
        assert defects == predicted


@pytest.mark.parametrize("name", [e.name for e in symplectic_entries()])
def test_curvature_expansions_on_random_data(name):
    # curvature_expansions raises if any expansion disagrees with the direct
    # evaluation, if the conditional central-slot vanishing fails, or if the
    # cancellation identity fails for admissible torsion.
    base, theta, nabla, ext = base_data(name)
    for lift in seeded_lifts(name, 15, seed=13):
        curvature_expansions(ext, nabla, lift)
    for lift in seeded_lifts(name, 10, seed=14, kind="perturbed"):
        curvature_expansions(ext, nabla, lift)


def test_expansions_zero_for_flat_half_lift():
    base, theta, nabla, ext = base_data("r2")
    report = curvature_expansions(ext, nabla, LiftData.half_cocycle(theta))
    assert all(is_zero_vector(v) for v in report.base_triples.values())
    assert all(is_zero_vector(v) for v in report.mixed_central.values())
    assert all(is_zero_vector(v) for v in report.double_central.values())


def test_double_central_table_zero_without_central_data():
    base, theta, nabla, ext = base_data("n4")
    rng = random.Random(15)
    lift = random_lift_data(rng, theta)
    lift = lift.with_changes(
        V=tuple(tuple([ZERO] * 4) for _ in range(4)),
        a=tuple([ZERO] * 4),
        W0=tuple([ZERO] * 4),
        rho=ZERO,
    )
    report = curvature_expansions(ext, nabla, lift)
    assert all(is_zero_vector(v) for v in report.double_central.values())


def test_necessary_v_residuals():
    # the V relation of a lift with phi = theta/2 is the first list of half_case_residuals
    base, theta, nabla, ext = base_data("r2")
    half = LiftData.half_cocycle(theta)
    assert half_case_residuals(base, theta, half.V, half.a)[0] == []
    lift = LiftData.half_cocycle(theta).with_changes(V=((ONE, ZERO), (ZERO, ZERO)))
    res = half_case_residuals(base, theta, lift.V, lift.a)[0]
    assert res[0] == ((0, 1, 0), [F(-3, 2), F(0)])
    # phi = 0 and theta = 0: every term has a zero coefficient
    r2 = get("r2").algebra
    zero_theta = KForm(2, 2, {})
    lift0 = LiftData.zero(2).with_changes(V=((ONE, ONE), (ONE, ONE)))
    assert half_case_residuals(r2, zero_theta, lift0.V, lift0.a)[0] == []


def test_flatness_implies_necessary_v_vanishes():
    # contrapositive: inject nonzero V into a flat lift and watch curvature appear
    base, theta, nabla, ext = base_data("r4")
    flat = LiftData.half_cocycle(theta)
    assert lift_report(ext, nabla, flat).is_affine
    broken = flat.with_changes(V=((ONE, ZERO, ZERO, ZERO),) + flat.V[1:])
    assert half_case_residuals(base, theta, broken.V, broken.a)[0] != []
    assert lift_report(ext, nabla, broken).curvature_defects != []


def test_half_case_residuals_abelian():
    for name in ("r2", "r4"):
        e = get(name)
        n = e.algebra.dim
        zero_v = [[ZERO] * n for _ in range(n)]
        first, second = half_case_residuals(e.algebra, e.symplectic_form, zero_v, [ZERO] * n)
        assert first == [] and second == []


def test_half_case_residuals_n4():
    e = get("n4")
    zero_v = [[ZERO] * 4 for _ in range(4)]
    first, second = half_case_residuals(e.algebra, e.symplectic_form, zero_v, [ZERO] * 4)
    assert first == []
    assert [(t, v) for t, v in second] == [((0, 1, 1), F(-1)), ((0, 2, 0), F(-1))]


def test_half_case_scalar_relation_with_dual_form():
    # On the abelian plane the bracket term drops; a = e1* fails at (e1, e2, e1).
    e = get("r2")
    zero_v = [[ZERO] * 2 for _ in range(2)]
    first, second = half_case_residuals(e.algebra, e.symplectic_form, zero_v, [ONE, ZERO])
    assert first == []
    assert second == [((0, 1, 0), F(-3))]


def test_is_one_dim_rep():
    r4 = get("r4").algebra
    assert is_one_dim_rep(r4, [0, 0, 0, 0])[0]
    assert is_one_dim_rep(r4, [1, 2, 3, 4])[0]
    n4 = get("n4").algebra
    ok, wit = is_one_dim_rep(n4, [0, 0, 1, 0])
    assert not ok and wit[0] == ((0, 1), F(1))
    assert is_one_dim_rep(n4, [1, 1, 0, 0])[0]


def test_theorem_verdict_flat_half_lift():
    base, theta, nabla, ext = base_data("r2")
    v = theorem_verdict(ext, nabla, LiftData.half_cocycle(theta))
    assert v.is_affine and v.case == "trivial-alpha"
    assert v.violated == [] and v.findings == []
    assert v.aux_product_rule_holds


def test_theorem_verdict_rho_breaks_condition_and_oracle():
    base, theta, nabla, ext = base_data("r2")
    v = theorem_verdict(ext, nabla, LiftData.half_cocycle(theta).with_changes(rho=ONE))
    assert not v.is_affine
    names = [c.name for c in v.violated]
    assert "central-products-vanish" in names
    assert v.findings == []  # conditions and oracle agree: both refute


def test_theorem_verdict_nontrivial_rep_on_h5_base():
    base, theta, nabla, ext = base_data("r4")
    lift = LiftData.half_cocycle(theta, a=[1, 0, 0, 0])
    v = theorem_verdict(ext, nabla, lift)
    assert v.case == "nontrivial-alpha"
    assert not v.is_affine
    assert [c.name for c in v.violated] == ["kernel-twisted-two-cocycle"]
    assert v.conditions_hold == v.is_affine == False  # noqa: E712 (explicit)
    assert v.findings == []


def test_theorem_verdict_not_applicable_for_non_rep():
    base, theta, nabla, ext = base_data("n4")
    lift = LiftData.half_cocycle(theta, a=[0, 0, 1, 0])
    v = theorem_verdict(ext, nabla, lift)
    assert v.case == "not-applicable"
    assert not v.conditions_hold


def test_theorem_verdict_rejects_wrong_base_product():
    base, theta, nabla, ext = base_data("n4")
    from lieaff.structures import BilinearProduct
    with pytest.raises(ValueError, match="defining relation"):
        theorem_verdict(ext, BilinearProduct.zero(4), LiftData.half_cocycle(theta))


def test_solve_lift_trivial_dimensions():
    base, theta, nabla, ext = base_data("r2")
    res = solve_lift_trivial(base, theta, nabla)
    assert res.feasible and res.dimension == 3
    assert all(pt.flat for pt in res.points)
    base, theta, nabla, ext = base_data("r4")
    res = solve_lift_trivial(base, theta, nabla)
    assert res.feasible and res.dimension == 10


def test_solve_lift_trivial_n4_oracle_checked():
    base, theta, nabla, ext = base_data("n4")
    res = solve_lift_trivial(base, theta, nabla)
    # whatever the exact kernel computation yields must be oracle-flat;
    # internal consistency: dimension equals the kernel size
    assert res.feasible
    assert res.dimension == len(res.basis_sym)
    assert all(pt.flat for pt in res.points)
    assert res.gap_candidates == []


def test_solve_lift_alpha_zero_reduces_to_trivial():
    base, theta, nabla, ext = base_data("r2")
    triv = solve_lift_trivial(base, theta, nabla)
    alt = solve_lift_with_alpha(base, theta, nabla, [ZERO, ZERO])
    assert alt.dimension == triv.dimension
    assert alt.particular_sym == triv.particular_sym


def test_solve_lift_alpha_r2_gap_family():
    # the constrained family exists but its members are not flat: the stated
    # conditions hold while the auxiliary product rule fails, so every checked
    # point is a theorem-gap candidate
    base, theta, nabla, ext = base_data("r2")
    res = solve_lift_with_alpha(base, theta, nabla, [ONE, ZERO])
    assert res.feasible and res.dimension == 1
    assert res.particular_sym == ((ZERO, F(3, 2)), (F(3, 2), ZERO))
    assert all(not pt.flat for pt in res.points)
    assert len(res.gap_candidates) == len(res.points) == 2
    for pt in res.points:
        assert pt.verdict.conditions_hold
        assert not pt.verdict.aux_product_rule_holds
        assert "theorem-gap" in pt.verdict.findings


def test_solve_lift_alpha_r4_is_infeasible():
    # a = (1,0,0,0) on the dim-4 abelian base forces phi(e3, .) = phi(e4, .) = 0
    # (from the pairs theta-orthogonal to e1), contradicting the torsion
    # constraint phi(e3,e4) - phi(e4,e3) = theta(e3,e4) = 1: no solution.
    base, theta, nabla, ext = base_data("r4")
    res = solve_lift_with_alpha(base, theta, nabla, [ONE, ZERO, ZERO, ZERO])
    assert not res.feasible
    assert res.points == [] and res.gap_candidates == []


def test_solve_lift_rejects_nonclosed_form_on_infeasible_system():
    # e12 + e34 is nondegenerate but not closed on n4.  The product solved
    # from the defining relation passes the readback, and with a = (1,0,0,0)
    # the phi system is infeasible, so the solver returns before it builds
    # the extension: the closedness check must not depend on that build.
    n4 = get("n4").algebra
    theta = KForm(2, 4, {(0, 1): 1, (2, 3): 1})
    a = [ONE, ZERO, ZERO, ZERO]
    n = n4.dim
    minv = invert(Matrix.from_rows([[theta.pair(q, k) for q in range(n)] for k in range(n)]))
    table = {}
    for i in range(n):
        for j in range(n):
            rhs = [-sum((br_q * theta.pair(j, q) for q, br_q in enumerate(n4.bracket_basis(i, k))),
                        ZERO)
                   for k in range(n)]
            table[(i, j)] = minv.mul_vec(rhs)
    nabla = BilinearProduct(n, table)
    assert defining_relation_defects(n4, theta, nabla) == []
    assert _phi_system(n4, theta, nabla, a).infeasible
    with pytest.raises(ValueError, match="not closed"):
        solve_lift_with_alpha(n4, theta, nabla, a)


def _phi_system(base, theta, nabla, a):
    """_solve_phi_system on the base tables, with no readback: nabla may be any product."""
    columns, gram = _base_tables(base, theta, nabla, a)
    return _solve_phi_system(gram, _phi_condition_operator(columns, gram))[0]


def _solve_phi_system_reference(base, theta, nabla, a):
    """The phi system assembled in Fractions: the reference for the integer assembly."""
    n = base.dim
    a = [Fraction(x) for x in a]
    half = Fraction(1, 2)
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    index = {pq: t for t, pq in enumerate(pairs)}

    def sym(x, q):
        return index[(min(x, q), max(x, q))]

    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1, n):
            br = base.bracket_basis(i, j)
            for k in range(n):
                coeffs = [ZERO] * len(pairs)
                const = -a[k] * theta.pair(i, j)
                for mult, x, vec in ((ONE, i, nabla.value(j, k)), (-ONE, j, nabla.value(i, k))):
                    for q, vq in enumerate(vec):
                        if vq:
                            coeffs[sym(x, q)] += mult * vq
                            const += mult * vq * half * theta.pair(x, q)
                for p, bp in enumerate(br):
                    if bp:
                        coeffs[sym(p, k)] -= bp
                        const -= bp * half * theta.pair(p, k)
                coeffs[sym(j, k)] += a[i]
                const += a[i] * half * theta.pair(j, k)
                coeffs[sym(i, k)] -= a[j]
                const -= a[j] * half * theta.pair(i, k)
                rows.append(coeffs)
                rhs.append(-const)
    return solve_linear(Matrix.from_rows(rows, cols=len(pairs)), rhs)


def _assert_phi_system_matches_reference(base, theta, nabla, a):
    got = _phi_system(base, theta, nabla, a)
    want = _solve_phi_system_reference(base, theta, nabla, a)
    assert got.infeasible == want.infeasible
    assert got.rank == want.rank
    assert got.particular == want.particular
    assert got.kernel == want.kernel
    # the outputs are rendered downstream, where an int prints unlike a Fraction
    entries = (got.particular or []) + [x for v in got.kernel for x in v]
    assert all(type(x) is Fraction for x in entries)
    return got


THETA_SCALES = (F(1), F(2, 3), F(-5, 7))
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@pytest.mark.parametrize("scale", THETA_SCALES)
def test_integer_phi_system_known_cases(scale):
    cases = (
        ("r2", [0, 0], True),
        ("n4", [0, 0, 0, 0], True),
        ("r2", [1, 0], True),           # the gap family
        ("r4", [1, 0, 0, 0], False),
    )
    for name, a, feasible in cases:
        e = get(name)
        theta = e.symplectic_form.scaled(scale)
        nabla = affine_from_symplectic(e.algebra, theta)
        got = _assert_phi_system_matches_reference(e.algebra, theta, nabla, a)
        assert got.infeasible != feasible, (name, a)


@pytest.mark.parametrize("name", [e.name for e in symplectic_entries()])
@pytest.mark.parametrize("scale", THETA_SCALES)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_integer_phi_system_matches_fraction_reference(name, scale, data):
    e = get(name)
    n = e.algebra.dim
    theta = e.symplectic_form.scaled(scale)
    table = dict(affine_from_symplectic(e.algebra, theta).table)
    # perturbed products put denominators into nabla and make most systems infeasible
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        col = list(table.get((i, j), [ZERO] * n))
        col[data.draw(st.integers(0, n - 1))] += data.draw(small_rationals)
        table[(i, j)] = col
    a = data.draw(st.lists(small_rationals, min_size=n, max_size=n))
    _assert_phi_system_matches_reference(e.algebra, theta, BilinearProduct(n, table), a)


def test_solver_points_satisfy_displayed_condition():
    # solver vs independent triple-loop residual check on the feasible family
    base, theta, nabla, ext = base_data("r2")
    res = solve_lift_with_alpha(base, theta, nabla, [ONE, ZERO])
    assert res.feasible
    n = base.dim
    for pt in res.points:
        lift = pt.lift
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    val = (
                        lift.phi_of(base.basis_vector(i), nabla.value(j, k))
                        - lift.phi_of(base.basis_vector(j), nabla.value(i, k))
                        - lift.phi_of(base.bracket_basis(i, j), base.basis_vector(k))
                        + lift.phi[j][k] * lift.a[i]
                        - lift.phi[i][k] * lift.a[j]
                        - theta.pair(i, j) * lift.a[k]
                    )
                    assert val == 0


def test_solve_lift_alpha_rejects_non_representation():
    base, theta, nabla, ext = base_data("n4")
    with pytest.raises(ValueError, match="not a representation"):
        solve_lift_with_alpha(base, theta, nabla, [0, 0, 1, 0])


def test_quotient_extend_round_trip_on_contact_catalog():
    for e in contact_entries():
        q = quotient_by_center(e.algebra, e.contact_form)
        ext = central_extend(q.algebra, q.theta)
        n = e.algebra.dim
        cols = [[q.section.at(r, c) for r in range(n)] for c in range(n - 1)]
        cols.append(q.center_generator)
        m = Matrix.from_columns(cols)
        for i in range(n):
            for j in range(i + 1, n):
                lhs = e.algebra.bracket(cols[i], cols[j])
                rhs = m.mul_vec(ext.extended.bracket_basis(i, j))
                assert lhs == rhs, (e.name, i, j)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_flat_random_lifts_are_never_missed_by_conditions(data):
    # random admissible lifts: whenever conditions + aux hold, the oracle must
    # report flat (soundness direction of the characterization)
    name = data.draw(st.sampled_from([e.name for e in symplectic_entries()]))
    base, theta, nabla, ext = base_data(name)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    lift = random_lift_data(rng, theta)
    v = theorem_verdict(ext, nabla, lift)
    if v.conditions_hold and v.aux_product_rule_holds:
        assert v.is_affine


# ---------------------------------------------------------------------------
# the per-triple phi condition: one integer operator against the Fraction loops
# it replaced in the verdict


def _vinberg_reference(base, nabla, lift):
    """Trivial case: phi(x, nabla(y,z)) - phi(y, nabla(x,z)) - phi([x,y], z) over basis triples."""
    n = base.dim
    out = []
    for i in range(n):
        ei = base.basis_vector(i)
        for j in range(i + 1, n):
            ej = base.basis_vector(j)
            for k in range(n):
                ek = base.basis_vector(k)
                val = (
                    lift.phi_of(ei, nabla.value(j, k))
                    - lift.phi_of(ej, nabla.value(i, k))
                    - lift.phi_of(base.bracket_basis(i, j), ek)
                )
                if val:
                    out.append(((i, j, k), val))
    return out


def _kernel_twisted_reference(ext, nabla, lift):
    """Nontrivial case: the same condition minus a(z) theta(x, y), on kernel vectors x, y of a."""
    base, theta, n, a = ext.base, ext.cocycle, ext.base.dim, lift.a
    ker = kernel_basis(Matrix.from_rows([list(a)]))
    out = []
    for p in range(len(ker)):
        for q in range(p + 1, len(ker)):
            x, y = ker[p], ker[q]
            txy = theta.evaluate([x, y])
            for k in range(n):
                ek = base.basis_vector(k)
                val = (
                    lift.phi_of(x, nabla.apply(y, ek))
                    - lift.phi_of(y, nabla.apply(x, ek))
                    - lift.phi_of(base.bracket(x, y), ek)
                    - a[k] * txy
                )
                if val:
                    out.append(((p, q, k), val))
    return out


def _necessary_v_reference(theta, lift):
    """phi(e_j,e_k) V_i - phi(e_i,e_k) V_j - theta(e_i,e_j) V_k over basis triples."""
    n = theta.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                r = vsub(
                    vsub(vscale(lift.phi[j][k], list(lift.V[i])),
                         vscale(lift.phi[i][k], list(lift.V[j]))),
                    vscale(theta.pair(i, j), list(lift.V[k])),
                )
                if not is_zero_vector(r):
                    out.append(((i, j, k), r))
    return out


def _assert_phi_condition_matches_reference(ext, nabla, lift):
    """The verdict's phi-condition witnesses equal the reference loop's, value for value."""
    v = theorem_verdict(ext, nabla, lift)
    got = {c.name: c.witnesses for c in v.conditions}
    if v.case == "trivial-alpha":
        name, want = "vinberg-two-cocycle", _vinberg_reference(ext.base, nabla, lift)
    else:
        assert v.case == "nontrivial-alpha"
        name, want = "kernel-twisted-two-cocycle", _kernel_twisted_reference(ext, nabla, lift)
    assert got[name] == want
    assert all(type(val) is Fraction for _, val in got[name])
    return got[name]


def _representation_basis(algebra):
    """A basis of the one-dimensional representations: forms vanishing on every bracket."""
    n = algebra.dim
    rows = [algebra.bracket_basis(i, j) for i in range(n) for j in range(i + 1, n)]
    return kernel_basis(Matrix.from_rows(rows, cols=n))


@pytest.mark.parametrize("name", [e.name for e in symplectic_entries()])
def test_phi_condition_matches_reference_trivial_case(name):
    base, theta, nabla, ext = base_data(name)
    zero_a = tuple([ZERO] * base.dim)
    nonempty = 0
    for kind, seed in (("admissible", 31), ("perturbed", 32)):
        for lift in seeded_lifts(name, 6, seed=seed, kind=kind):
            nonempty += bool(_assert_phi_condition_matches_reference(
                ext, nabla, lift.with_changes(a=zero_a)))
    # on an abelian base nabla and the bracket vanish, and with them the condition
    assert (nonempty > 0) == bool(base.constants)


@pytest.mark.parametrize("name", [e.name for e in symplectic_entries()])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_phi_condition_matches_reference_for_representations(name, data):
    base, theta, nabla, ext = base_data(name)
    a = [ZERO] * base.dim
    for b in _representation_basis(base):
        a = [x + data.draw(small_rationals) * y for x, y in zip(a, b)]
    assert is_one_dim_rep(base, a)[0]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    for kind in ("admissible", "perturbed"):
        lift = random_lift_data(rng, theta, kind=kind).with_changes(a=tuple(a))
        _assert_phi_condition_matches_reference(ext, nabla, lift)


def test_phi_condition_matches_reference_r2_gap_alpha():
    base, theta, nabla, ext = base_data("r2")
    a = (ONE, ZERO)
    lifts = [LiftData.half_cocycle(theta, a=a)]
    for kind, seed in (("admissible", 33), ("perturbed", 34)):
        lifts += [lift.with_changes(a=a) for lift in seeded_lifts("r2", 6, seed=seed, kind=kind)]
    # ker a is one-dimensional on the plane, so there is no pair of kernel
    # vectors and both lists are empty, whatever phi is
    for lift in lifts:
        assert _assert_phi_condition_matches_reference(ext, nabla, lift) == []


@pytest.mark.parametrize("name", [e.name for e in symplectic_entries()])
def test_half_case_vector_relation_matches_necessary_v_reference(name):
    base, theta, nabla, ext = base_data(name)
    half = LiftData.half_cocycle(theta)
    nonempty = 0
    for lift in seeded_lifts(name, 10, seed=35):
        lift = lift.with_changes(phi=half.phi)
        first = half_case_residuals(base, theta, lift.V, lift.a)[0]
        assert first == _necessary_v_reference(theta, lift)
        nonempty += bool(first)
    assert nonempty > 0


def test_next_name_never_reuses_a_basis_name():
    assert _next_name(("e1", "e2")) == "e3"
    assert _next_name(("x", "y")) == "t"
    assert _next_name(("e2", "e3")) == "t1"
    assert _next_name(("x", "t")) == "t1"
    assert _next_name(("t", "t1")) == "t2"
    theta = KForm(2, 2, {(0, 1): 1})
    for names, new in ((("e2", "e3"), "t1"), (("x", "t"), "t1")):
        ext = central_extend(LieAlgebra(2, names, {}), theta)
        assert ext.extended.basis_names == names + (new,)
        assert ext.extended.bracket_basis(0, 1) == [0, 0, 1]


def test_solve_lift_alpha_rejects_wrong_length():
    # too short used to raise IndexError; too long was accepted whenever the
    # system was infeasible, as r4 with a = (1, 0, 0, 0) is
    base, theta, nabla, ext = base_data("r4")
    for a in ([ONE, ZERO, ZERO], [ONE, ZERO, ZERO, ZERO, F(7)]):
        with pytest.raises(ValueError, match="length"):
            solve_lift_with_alpha(base, theta, nabla, a)


# ---------------------------------------------------------------------------
# one lift problem per solve: the tables are built once and shared by every point


def _solver_cases():
    """(base, theta, nabla, a): the symplectic catalog with a = 0 (None, the trivial
    solver) and with each basis representation, among them the r2 gap family
    a = (1, 0) and the infeasible r4 with a = (1, 0, 0, 0), and the quotients of
    h5 and h7 by their centers with a = 0."""
    cases = []
    for e in symplectic_entries():
        cases.append((e.algebra, e.symplectic_form, None))
        cases += [(e.algebra, e.symplectic_form, a) for a in _representation_basis(e.algebra)]
    for name in ("h5", "h7"):
        q = quotient_by_center(get(name).algebra, get(name).contact_form)
        cases.append((q.algebra, q.theta, None))
    return [(base, theta, affine_from_symplectic(base, theta), a) for base, theta, a in cases]


def _solve(base, theta, nabla, a):
    if a is None:
        return solve_lift_trivial(base, theta, nabla)
    return solve_lift_with_alpha(base, theta, nabla, a)


def test_solver_verdicts_equal_fresh_verdicts():
    # each point's verdict, computed on the solve's shared tables, is the one a
    # caller gets from theorem_verdict alone
    points = gaps = 0
    for base, theta, nabla, a in _solver_cases():
        res = _solve(base, theta, nabla, a)
        ext = central_extend(base, theta)
        for pt in res.points:
            assert pt.verdict == theorem_verdict(ext, nabla, pt.lift)
            assert pt.phi == pt.lift.phi and pt.flat == pt.verdict.is_affine
        assert res.gap_candidates == [pt for pt in res.points
                                      if "theorem-gap" in pt.verdict.findings]
        points += len(res.points)
        gaps += len(res.gap_candidates)
    assert points > 50 and gaps > 0


def test_one_readback_and_one_operator_per_solve(monkeypatch):
    counts = Counter()

    def counted(name):
        fn = getattr(extension, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(extension, name, wrapper)

    for name in ("defining_relation_defects", "_phi_condition_operator", "central_extend",
                 "theorem_verdict"):
        counted(name)
    feasible = infeasible = 0
    for base, theta, nabla, a in _solver_cases():
        counts.clear()
        res = _solve(base, theta, nabla, a)
        assert counts["defining_relation_defects"] == 1
        assert counts["_phi_condition_operator"] == 1
        assert counts["central_extend"] == res.feasible
        assert counts["theorem_verdict"] == len(res.points)
        feasible += res.feasible
        infeasible += not res.feasible
    assert feasible and infeasible


def count_closedness_scans(monkeypatch):
    """The list of cocycle_defects calls from now on, at every module that calls it."""
    calls = []
    original = liecore.cocycle_defects

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (liecore, structures, extension, cli):
        monkeypatch.setattr(module, "cocycle_defects", counted)
    return calls


def test_one_closedness_scan_per_solve_and_extension(monkeypatch):
    r4, r4_theta, r4_nabla, _ = base_data("r4")
    r2, r2_theta, r2_nabla, _ = base_data("r2")
    calls = count_closedness_scans(monkeypatch)
    assert solve_lift_trivial(r4, r4_theta, r4_nabla).feasible
    assert len(calls) == 1
    calls.clear()
    assert solve_lift_with_alpha(r2, r2_theta, r2_nabla, [1, 0]).feasible
    assert len(calls) == 1
    calls.clear()
    assert central_extend(r4, r4_theta).contact.is_contact
    assert len(calls) == 1
