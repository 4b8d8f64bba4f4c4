import contextlib
import heapq
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from robustcounter import solver as solver_mod
from robustcounter.fixtures import demo_instance, demo_lp

from robustcounter.model import (
    CONE_CUT_TOL,
    FEASIBILITY_TOL,
    INF,
    INTEGRALITY_TOL,
    ConeTerm,
    Model,
    import_text,
    to_standard_form,
)
from robustcounter.solver import (
    SolverError,
    SolverOptions,
    solve,
    solve_cone,
    solve_milp,
)

from robustcounter.robustify import symmetric_robust_counterpart
from robustcounter.sitesel import build_irc, build_nominal, build_rc
from robustcounter.uncertainty import RHS, UncertainSet, Uniform

from _oracles import (
    brute_force_binary,
    generated_instance,
    highs_solve,
    oa_highs_solve,
    random_binary_model,
    random_lp_model,
    reference_branching_var,
    reference_pivot,
    reference_run_dual,
    reference_run_primal,
    reference_solve_cone,
)


def _lp(sense="max"):
    m = Model()
    x = m.add_variable("x")
    y = m.add_variable("y")
    m.set_objective(sense, [(x, 3.0), (y, 2.0)])
    m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 4.0)
    m.add_constraint([(x, 1.0), (y, 3.0)], "<=", 6.0)
    return m.finalize(), x, y


def test_lp_single_bound():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 5.0)
    sol = solve(m.finalize())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0)
    assert sol.values[x] == pytest.approx(5.0)


def test_lp_two_rows_vertex_oracle():
    # vertex enumeration puts the optimum at (4, 0) with objective 12
    m, x, y = _lp()
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(12.0, abs=1e-9)
    assert (sol.values[x], sol.values[y]) == (pytest.approx(4.0), pytest.approx(0.0))


def test_lp_infeasible():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", -1.0)
    assert solve(m.finalize()).status == "infeasible"


def _tiny_row_model(integer, cap):
    """max y s.t. 1e-12 x - 1e-12 y >= 0: at the slack basis the row's
    logical sits at -1.13e-9, just past the pivot tolerance, and no column
    can move it.  With a ``cap`` on x + y a later row breaks its bound too."""
    m = Model()
    x = m.add_variable("x", upper=2000.0)
    y = m.add_variable("y", "integer" if integer else "continuous", upper=1130.0)
    m.set_objective("max", [(y, 1.0)])
    m.add_constraint([(x, 1e-12), (y, -1e-12)], ">=", 0.0)
    if cap is not None:
        m.add_constraint([(x, 1.0), (y, 1.0)], "<=", cap)
    return m.finalize()


@pytest.mark.parametrize("integer, cap, objective", [
    (False, None, 1130.0), (True, None, 1130.0), (False, 1000.0, 1000.0),
], ids=["lp", "milp", "second-row"])
def test_row_no_column_can_move_is_accepted_within_feasibility_tol(integer, cap, objective):
    """The dual simplex passes over such a row instead of ending the LP, and
    the scalar reference kernel takes the same steps."""
    model = _tiny_row_model(integer, cap)
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.objective == objective
    assert model.max_violation(sol.values) <= FEASIBILITY_TOL
    with _scalar_kernel():
        ref = solve(model)
    assert (ref.status, ref.objective, ref.stats.iterations) == (
        sol.status, sol.objective, sol.stats.iterations)


def test_passed_over_row_is_picked_again_after_a_pivot():
    """The first row is passed over at the slack basis; the pivot that lets
    w meet the second row gives it an entering column, v, and it leaves
    then instead of staying out of bounds by 1.1e-8."""
    m = Model()
    x = m.add_variable("x", upper=2000.0)
    y = m.add_variable("y", upper=1130.0)
    w = m.add_variable("w", upper=1.0)
    v = m.add_variable("v", upper=1.0)
    m.set_objective("max", [(y, 1.0), (v, -1.0)])
    m.add_constraint([(x, 1e-12), (y, -1e-12), (w, -1.0)], ">=", 0.0)
    m.add_constraint([(w, 1.0), (v, 1.0)], ">=", 1e-8)
    m.finalize()
    sol = solve(m)
    assert sol.status == "optimal" and sol.stats.iterations == 2
    assert sol.values[w] == 0.0 and sol.values[v] > 1e-8
    assert m.max_violation(sol.values) <= 2e-9
    with _scalar_kernel():
        ref = solve(m)
    assert (ref.status, ref.objective, ref.stats.iterations) == (
        sol.status, sol.objective, sol.stats.iterations)


def test_row_no_column_can_move_beyond_feasibility_tol_is_infeasible():
    m = Model()
    x = m.add_variable("x", upper=2000.0)
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1e-12)], ">=", 1e-6)
    assert solve(m.finalize()).status == "infeasible"


@pytest.mark.parametrize("sense, rhs, status", [
    ("<=", -INF, "infeasible"), (">=", INF, "infeasible"), ("=", INF, "infeasible"),
    ("<=", INF, "optimal")])
def test_a_row_with_an_infinite_rhs_needs_no_pivot(sense, rhs, status):
    """A row no finite point meets is infeasible from its bounds alone, and
    ``x <= inf`` holds everywhere."""
    m = Model()
    x = m.add_variable("x", upper=10.0)
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], sense, rhs)
    sol = solve(m.finalize())
    assert sol.status == status
    if status == "infeasible":
        assert sol.stats.iterations == 0
    else:
        assert sol.objective == 10.0


def test_unproven_verdict_is_retried_only_after_a_step(monkeypatch):
    """A retry from the basis the first try started at would repeat its
    verdict bit for bit, so only a try that took a step is retried."""
    starts = []
    start = solver_mod._start
    monkeypatch.setattr(solver_mod, "_start", lambda *args: starts.append(1) or start(*args))
    monkeypatch.setattr(solver_mod, "_proven", lambda *args: False)
    m = Model()
    x = m.add_variable("x", upper=2000.0)
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1e-12)], ">=", 1e-6)  # infeasible at the slack basis
    sol = solve(m.finalize())
    assert (sol.status, sol.stats.iterations, len(starts)) == ("limit_reached", 0, 1)
    m = Model()
    x, y = m.add_variable("x", upper=10.0), m.add_variable("y", upper=10.0)
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 3.0)
    m.add_constraint([(x, 1.0), (y, 1.0)], ">=", 5.0)
    starts.clear()
    sol = solve(m.finalize())
    assert sol.status == "limit_reached" and sol.stats.iterations > 0
    assert len(starts) == 2


def test_lp_unbounded():
    """An unbounded solve reports the model's infinity, +inf for max and
    -inf for min, for a continuous and for an integer variable alike."""
    for sense, objective in (("max", INF), ("min", -INF)):
        for kind in ("continuous", "integer"):
            m = Model()
            x = m.add_variable("x", kind, -INF, INF)
            m.set_objective(sense, [(x, 1.0)])
            m.finalize()
            sol = solve(m)
            assert (sol.status, sol.objective) == ("unbounded", objective)


@pytest.mark.parametrize("field, value", [
    ("time_limit_seconds", math.nan), ("time_limit_seconds", -1.0),
    ("max_nodes", -1), ("max_cone_rounds", -3)])
def test_solver_options_reject_unusable_limits(field, value):
    with pytest.raises(SolverError, match=field):
        SolverOptions(**{field: value})


def test_lp_matches_scipy_highs():
    """Independent route: the same standard forms through scipy's HiGHS."""
    rng = np.random.default_rng(4242)
    agreements = 0
    for _ in range(100):
        m = random_lp_model(rng)
        sf = to_standard_form(m)
        sol = solve(m)
        upper, lower = np.isfinite(sf.row_hi), np.isfinite(sf.row_lo)
        res = linprog(
            -sf.c,
            A_ub=np.vstack([sf.a[upper], -sf.a[lower]]),
            b_ub=np.concatenate([sf.row_hi[upper], -sf.row_lo[lower]]),
            bounds=np.column_stack([sf.col_lo, sf.col_hi]),
            method="highs",
        )
        if sol.status == "infeasible":
            assert res.status == 2
            continue
        if sol.status == "unbounded":
            assert res.status == 3
            continue
        assert res.status == 0
        cano = sol.objective if sf.sense == "max" else -sol.objective
        assert cano == pytest.approx(-res.fun + sf.c0, abs=1e-6)
        agreements += 1
    assert agreements >= 30


# -- branch and bound -----------------------------------------------------------


def test_milp_knapsack():
    m = Model()
    a = m.add_variable("a", "binary")
    b = m.add_variable("b", "binary")
    m.set_objective("max", [(a, 5.0), (b, 4.0)])
    m.add_constraint([(a, 3.0), (b, 2.0)], "<=", 4.0)
    sol = solve_milp(m.finalize())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0)
    assert sol.values[a] == pytest.approx(1.0)
    assert sol.values[b] == pytest.approx(0.0, abs=1e-9)


def test_milp_integral_relaxation_needs_no_branching():
    m = Model()
    x = m.add_variable("x", "integer", 0, 10)
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 7.0)
    sol = solve_milp(m.finalize())
    assert sol.objective == 7.0  # the root relaxation's optimum
    assert sol.stats.nodes == 1  # the root relaxation was already integral


def test_milp_contradictory_bounds_infeasible():
    m = Model()
    a = m.add_variable("a", "binary")
    m.set_objective("max", [(a, 1.0)])
    m.add_constraint([(a, 1.0)], ">=", 0.6)
    m.add_constraint([(a, 1.0)], "<=", 0.4)
    assert solve_milp(m.finalize()).status == "infeasible"


def test_milp_matches_brute_force():
    rng = np.random.default_rng(777)
    for _ in range(120):
        n_vars = int(rng.integers(2, 11))
        n_cons = int(rng.integers(1, 7))
        m = random_binary_model(rng, n_vars, n_cons, allow_negative_rhs=True)
        sol = solve_milp(m)
        status, best, _ = brute_force_binary(m)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(best, abs=1e-6)
            assert m.max_violation(sol.values) <= 1e-6


def test_milp_determinism_including_node_counts():
    rng = np.random.default_rng(5)
    m = random_binary_model(rng, 9, 5)
    a = solve_milp(m)
    b = solve_milp(m)
    assert a.objective == b.objective
    assert a.values == b.values
    assert a.stats.nodes == b.stats.nodes
    assert a.stats.iterations == b.stats.iterations


def _popped_bounds(monkeypatch) -> list[float]:
    """The bound of every node the tree pops from its queue, in pop order."""
    popped = []
    pop = heapq.heappop

    def spy(heap):
        item = pop(heap)
        popped.append(-item[0])
        return item

    monkeypatch.setattr(heapq, "heappop", spy)
    return popped


def test_milp_popped_bounds_monotone(monkeypatch):
    rng = np.random.default_rng(31)
    popped = _popped_bounds(monkeypatch)
    for _ in range(10):
        m = random_binary_model(rng, 8, 4)
        popped.clear()
        solve_milp(m)
        assert popped
        assert all(a >= b - 1e-9 for a, b in zip(popped, popped[1:]))


def test_milp_node_limit_reports_limit():
    rng = np.random.default_rng(13)
    m = random_binary_model(rng, 10, 4)
    sol = solve_milp(m, SolverOptions(max_nodes=1))
    assert sol.status in ("limit_reached", "optimal")
    if sol.status == "limit_reached":
        assert math.isnan(sol.objective) or isinstance(sol.objective, float)


def test_milp_unbounded_integer_needs_no_cap():
    """Integer variables keep their infinite bounds; a cap at 1e9 once made
    ``x >= 3e9 + 0.5`` read as infeasible."""
    for floor, expected in ((3.5, 4.0), (3e9 + 0.5, 3000000001.0)):
        m = Model()
        x = m.add_variable("x", "integer", 0, INF)
        m.set_objective("min", [(x, 1.0)])
        m.add_constraint([(x, 1.0)], ">=", floor)
        sol = solve_milp(m.finalize())
        assert (sol.status, sol.objective, sol.values[x]) == ("optimal", expected, expected)


@pytest.mark.parametrize("sense, lower, upper, expected", [
    ("min", 2e9, INF, 2e9),
    ("max", -INF, -2e9, -2e9),
])
def test_milp_cap_never_crosses_finite_bound(sense, lower, upper, expected):
    m = Model()
    x = m.add_variable("x", "integer", lower, upper)
    m.set_objective(sense, [(x, 1.0)])
    for sol in (solve_milp(m.finalize()), solve(m)):
        assert sol.status == "optimal"
        assert sol.objective == expected
        assert sol.values[x] == expected


def test_near_integer_lp_point_is_not_an_incumbent():
    """The LP point x = 0.9999995, y = 0.5 is within the integrality
    tolerance and was returned as 'optimal' 100.49995; rounded to x = 1 it
    breaks the row by 0.5, so the node branches on x instead."""
    m = Model()
    x = m.add_variable("x", "binary")
    y = m.add_variable("y", upper=0.5)
    m.set_objective("max", [(x, 100.0), (y, 1.0)])
    m.add_constraint([(y, 1.0), (x, 1e6)], "<=", 1e6)
    sol = solve(m.finalize())
    assert (sol.status, sol.objective, sol.values) == ("optimal", 100.0, {x: 1.0, y: 0.0})


def test_gen12x8_rc_node_lp_matches_highs():
    """Node 3,588 of gen 12x8 rc: the tree's working LP with its cut rows and
    the node's bounds as variable bounds, written as a model.  The two-phase tableau this solver
    once used called its root LP 'unbounded' after 234 pivots."""
    model = import_text((Path(__file__).parent / "data" / "gen12x8_rc_node3588.txt").read_text())
    assert (len(model.variables), len(model.constraints)) == (128, 146)
    status, objective = highs_solve(model)
    assert (status, objective) == ("optimal", pytest.approx(624.909238794281, rel=1e-9))
    sol = solve(model, SolverOptions(time_limit_seconds=60.0))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(objective, rel=1e-6)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 10), st.integers(2, 6), st.integers(0, 1000),
       st.sampled_from(["nominal", "irc", "rc"]))
def test_generated_instances_match_highs(units, sites, seed, mode):
    """Generated site selection up to 10x6: nominal and IRC optima agree with
    HiGHS, RC optima with outer approximation over HiGHS."""
    inst = generated_instance(units, sites, seed)
    if mode == "rc":
        model = build_rc(inst, 0.05, 0.0, 0.14)
        status, objective, _ = oa_highs_solve(model)
    else:
        model = build_nominal(inst) if mode == "nominal" else build_irc(inst, 0.05, 0.0)
        status, objective = highs_solve(model)
    sol = solve(model, SolverOptions(time_limit_seconds=60.0))
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(objective, abs=1e-6 * max(1.0, abs(objective)))
        assert model.max_violation(sol.values) <= CONE_CUT_TOL


def test_milp_min_sense():
    m = Model()
    a = m.add_variable("a", "binary")
    b = m.add_variable("b", "binary")
    m.set_objective("min", [(a, 2.0), (b, 3.0)])
    m.add_constraint([(a, 1.0), (b, 1.0)], ">=", 1.0)
    sol = solve_milp(m.finalize())
    assert sol.objective == pytest.approx(2.0)


# -- cone cuts ---------------------------------------------------------------------


def _cone_model(scale, comp_coeff, const, rhs):
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    comps = [(x, comp_coeff)] if comp_coeff else []
    m.add_constraint([(x, 1.0)], "<=", rhs,
                     cone=ConeTerm.from_components(scale, comps, const))
    return m.finalize(), x


def test_cone_zero_scale_equals_milp():
    m = Model()
    a = m.add_variable("a", "binary")
    m.set_objective("max", [(a, 1.0)])
    m.add_constraint([(a, 1.0)], "<=", 1.0,
                     cone=ConeTerm.from_components(0.0, [(a, 1.0)], 4.0))
    m.finalize()
    sol = solve_cone(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)


def test_cone_sqrt_square_closed_form():
    # x + sqrt(x^2) <= 10 with x >= 0 is 2x <= 10
    m, x = _cone_model(1.0, 1.0, 0.0, 10.0)
    sol = solve_cone(m)
    assert sol.objective == pytest.approx(5.0, abs=1e-6)


def test_cone_constant_radical():
    m, x = _cone_model(1.0, 0.0, 100.0, 19.0)
    sol = solve_cone(m)
    assert sol.objective == pytest.approx(9.0, abs=1e-9)


@pytest.mark.parametrize("inside", [2.5, 0.0])
def test_cone_cuts_never_cut_feasible_points(inside):
    """Sampled points satisfying the exact cone row satisfy every cut.  With
    nothing inside the radical it is zero at the anchor (0, 0), which takes
    the fallback subgradient along the largest component."""
    rng = np.random.default_rng(21)
    m = Model()
    x = m.add_variable("x", lower=-5.0, upper=5.0)
    y = m.add_variable("y", lower=-5.0, upper=5.0)
    m.set_objective("max", [(x, 1.0), (y, 0.5)])
    cone = ConeTerm.from_components(0.8, [(x, 1.0), (y, -2.0)], inside)
    m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 6.0, cone=cone, label="soc")
    m.finalize()
    sol = solve_cone(m)
    assert sol.status == "optimal"

    # the cuts the solver would make at its incumbent and at two other anchors
    from robustcounter.solver import _cone_support_cut

    exact = m.constraint_by_label("soc")
    feasible = []
    while len(feasible) < 1000:
        pts = rng.uniform(-5, 5, size=(4000, 2))
        for px, py in pts:
            vals = {x: px, y: py}
            if exact.lhs.value(vals) + exact.cone.value(vals) <= exact.rhs:
                feasible.append(vals)
            if len(feasible) >= 1000:
                break
    anchors = [sol.values, {x: 0.0, y: 0.0}, {x: 3.0, y: -1.0}]
    if inside == 0.0:
        assert _cone_support_cut(cone, anchors[1]) == ([(y, -1.6)], 0.0)
    for anchor in anchors:
        terms, constant = _cone_support_cut(cone, anchor)
        for vals in feasible:
            cut_val = (exact.lhs.value(vals) + constant
                       + sum(c * vals[v] for v, c in terms))
            assert cut_val <= exact.rhs + 1e-9


def _rc_of_random_model(seed, n_vars, n_cons, entries, rhs_uncertain, kappa):
    """RC of ``random_binary_model`` with the first ``entries`` terms of row 0
    (and its RHS when asked) tagged uniform."""
    model = random_binary_model(np.random.default_rng(seed), n_vars, n_cons)
    uset = UncertainSet()
    for var_id, _ in model.constraints[0].lhs.terms[:entries]:
        uset.add(0, var_id, Uniform())
    if rhs_uncertain:
        uset.add(0, RHS, Uniform())
    return symmetric_robust_counterpart(model, uset, 0.2, 0.0, kappa).model


def test_rc_of_random_model_is_not_unbounded():
    """Its objective reads only binaries, so no relaxation is unbounded;
    enumerating the 2^10 binary points (SLSQP on the cone auxiliaries, the
    benchmark's ``ConeBruteForce``) gives 19.93738282."""
    sol = solve(_rc_of_random_model(11, 10, 3, 8, True, 0.05))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(19.93738282415742, abs=1e-6)


def test_rc_cone_stall_reaches_the_enumerated_optimum():
    """A model whose node LPs once pivoted on 1e-7 and drifted until the same
    cut repeated for 200 rounds; enumerating its 2^10 binary points with the
    benchmark's ``ConeBruteForce`` gives 29.171899355657605."""
    sol = solve(_rc_of_random_model(13, 10, 3, 8, True, 0.05))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(29.171899355657605, abs=1e-6)


def _generated_rc(units, sites, rhs_shift=0.0):
    """RC of a generated site-selection instance (eps 0.05, delta 0, kappa
    0.14) with its cone row's right-hand side moved by ``rhs_shift``."""
    model = build_rc(generated_instance(units, sites, 0), 0.05, 0.0, 0.14)
    work = model.copy()
    for con in model.constraints:
        if con.cone is not None:
            work.constraints[con.id] = replace(con, rhs=con.rhs + rhs_shift)
    return work.finalize()


@pytest.mark.parametrize("rhs_shift", [0.0, -1e-3], ids=["as-built", "tightened"])
def test_generated_rc_matches_outer_approximation(rhs_shift):
    """gen 8x5 rc once gave a false optimum 324.036 and, with its cone row
    tightened by 1e-3, a false ``unbounded``; outer approximation with HiGHS
    as the master gives 351.0611 for both."""
    model = _generated_rc(8, 5, rhs_shift)
    status, objective, _ = oa_highs_solve(model)
    assert status == "optimal"
    assert objective == pytest.approx(351.0611078739722, abs=1e-3)
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(objective, abs=1e-6)
    assert model.max_violation(sol.values) <= CONE_CUT_TOL


def test_generated_irc_reaches_the_highs_optimum():
    """gen 12x8 irc once ran away in phase 1 of its third node LP until the
    pivot cap (about 250 s, no incumbent)."""
    model = build_irc(generated_instance(12, 8, 0), 0.05, 0.0)
    status, objective = highs_solve(model)
    assert (status, objective) == ("optimal", pytest.approx(643.8119481811668, abs=1e-6))
    sol = solve(model, SolverOptions(time_limit_seconds=120.0))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(objective, abs=1e-6)


def test_node_lp_claiming_unbounded_below_an_optimal_root_stops_the_call(monkeypatch):
    """Bounds and cuts only shrink the region, so once a node LP is optimal a
    later 'unbounded' is rounding: the call stops with ``limit_reached`` and
    keeps its incumbent instead of returning ``unbounded``."""
    model = build_nominal(demo_instance())
    solve_standard = solver_mod._solve_standard
    calls = []

    def claim_unbounded_after(n_good):
        def node_lp(*args, **kwargs):
            calls.append(None)
            if len(calls) > n_good:
                return solver_mod._SimplexResult("unbounded")
            return solve_standard(*args, **kwargs)
        return node_lp

    # the tree has 3 nodes and its incumbent 261 comes from the second
    monkeypatch.setattr(solver_mod, "_solve_standard", claim_unbounded_after(1))
    sol = solve(model)
    assert (sol.status, sol.stats.nodes, sol.values) == ("limit_reached", 2, {})
    assert math.isnan(sol.objective)
    calls.clear()
    monkeypatch.setattr(solver_mod, "_solve_standard", claim_unbounded_after(2))
    sol = solve(model)
    assert (sol.status, sol.stats.nodes, sol.objective) == ("limit_reached", 3, 261.0)
    assert model.max_violation(sol.values) <= 1e-6
    # an unbounded root LP is a real verdict
    calls.clear()
    monkeypatch.setattr(solver_mod, "_solve_standard", claim_unbounded_after(0))
    assert solve(model).status == "unbounded"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10_000), st.integers(3, 7), st.integers(1, 3), st.integers(1, 7),
       st.booleans(), st.sampled_from([0.05, 0.14, 0.5]))
def test_single_tree_matches_restart_loop(seed, n_vars, n_cons, entries, rhs_uncertain,
                                          kappa):
    """Cuts separated inside one tree reach the optimum of the restart loop,
    with and without a constant inside the radical, and every incumbent
    satisfies its cone rows."""
    model = _rc_of_random_model(seed, n_vars, n_cons, entries, rhs_uncertain, kappa)
    sol = solve(model)
    ref = reference_solve_cone(model)
    for out in (sol, ref):
        if out.values:
            assert model.max_violation(out.values) <= CONE_CUT_TOL
    if sol.status == "optimal" and ref.status == "optimal":
        assert abs(sol.objective - ref.objective) <= 1e-6


def test_cone_cut_count_reported():
    m, x = _cone_model(1.0, 1.0, 0.0, 10.0)
    sol = solve_cone(m)
    assert sol.stats.cone_cuts >= 1


def test_dispatcher_routes_by_feature():
    lp, _, _ = _lp()
    assert solve(lp).status == "optimal"
    m = Model()
    a = m.add_variable("a", "binary")
    m.set_objective("max", [(a, 1.0)])
    assert solve(m.finalize()).objective == pytest.approx(1.0)


def test_lp_is_the_root_node_of_one_tree():
    """A model with no integer variables and no cone rows is solved by the
    one tree as its root node, so it counts one node and every node limit
    bounds it."""
    for sense in ("max", "min"):
        m = _lp(sense)[0]
        sol = solve(m)
        assert (sol.status, sol.stats.nodes) == ("optimal", 1)
        assert solve(m, SolverOptions(max_nodes=1)).objective == sol.objective
    sol = solve(demo_lp(), SolverOptions(max_nodes=0))
    assert (sol.status, sol.values, sol.stats.nodes) == ("limit_reached", {}, 0)
    assert math.isnan(sol.objective)


def test_beale_cycling_example_terminates():
    """The classic degenerate LP that cycles without an anti-cycling rule."""
    m = Model()
    x4 = m.add_variable("x4")
    x5 = m.add_variable("x5")
    x6 = m.add_variable("x6")
    x7 = m.add_variable("x7")
    m.set_objective("min", [(x4, -0.75), (x5, 150.0), (x6, -0.02), (x7, 6.0)])
    m.add_constraint([(x4, 0.25), (x5, -60.0), (x6, -1 / 25), (x7, 9.0)], "<=", 0.0)
    m.add_constraint([(x4, 0.5), (x5, -90.0), (x6, -1 / 50), (x7, 3.0)], "<=", 0.0)
    m.add_constraint([(x6, 1.0)], "<=", 1.0)
    sol = solve(m.finalize())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_mixed_integer_matches_scipy_highs():
    """General-integer and mixed models against scipy's MILP solver."""
    rng = np.random.default_rng(123456)
    agreements = 0
    for trial in range(60):
        n = int(rng.integers(2, 7))
        rows = int(rng.integers(1, 5))
        m = Model(f"mix{trial}")
        ids, kinds = [], []
        for i in range(n):
            kind = ("continuous", "binary", "integer")[int(rng.integers(0, 3))]
            if kind == "integer":
                lo = float(rng.integers(-3, 1))
                hi = float(rng.integers(2, 7))
            elif kind == "continuous":
                lo, hi = 0.0, float(rng.uniform(2, 8))
            else:
                lo, hi = 0, 1
            ids.append(m.add_variable(f"v{i}", kind, lo, hi))
            kinds.append(kind)
        sense = "max" if rng.random() < 0.5 else "min"
        c = rng.uniform(-4, 4, n)
        m.set_objective(sense, [(v, float(cc)) for v, cc in zip(ids, c)])
        a = rng.uniform(-4, 4, (rows, n))
        b = rng.uniform(-4, 10, rows)
        senses = []
        for r in range(rows):
            rs = ("<=", ">=", "=")[int(rng.integers(0, 3))]
            senses.append(rs)
            m.add_constraint([(v, float(x)) for v, x in zip(ids, a[r])], rs,
                             float(b[r]))
        sol = solve(m.finalize())

        integrality = np.array([0 if k == "continuous" else 1 for k in kinds])
        lb = np.array([m.variables[v].lower for v in ids])
        ub = np.array([m.variables[v].upper for v in ids])
        lcs = []
        for r, rs in enumerate(senses):
            if rs == "<=":
                lcs.append(LinearConstraint(a[r:r + 1], -np.inf, b[r]))
            elif rs == ">=":
                lcs.append(LinearConstraint(a[r:r + 1], b[r], np.inf))
            else:
                lcs.append(LinearConstraint(a[r:r + 1], b[r], b[r]))
        res = milp(-c if sense == "max" else c, constraints=lcs,
                   integrality=integrality, bounds=Bounds(lb, ub))
        if res.status == 0:
            ref = -res.fun if sense == "max" else res.fun
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref, abs=1e-5)
            agreements += 1
        elif res.status == 2:
            assert sol.status == "infeasible"
    assert agreements >= 20


# -- limits ----------------------------------------------------------------------


@pytest.mark.parametrize("sense, row_sense", [("max", "<="), ("min", ">=")])
def test_simplex_pivot_cap_reports_limit(monkeypatch, sense, row_sense):
    """A simplex loop that hits its pivot cap gives ``limit_reached`` for a
    continuous and for an integer model, for a ``<=`` and for a ``>=`` row."""
    monkeypatch.setattr(solver_mod, "_MAX_ITER", 0)
    for kind in ("continuous", "integer"):
        m = Model()
        x = m.add_variable("x", kind, 0, 10)
        y = m.add_variable("y", kind, 0, 10)
        m.set_objective(sense, [(x, 2.0), (y, 3.0)])
        m.add_constraint([(x, 2.0), (y, 2.0)], row_sense, 5.0)
        assert solve(m.finalize()).status == "limit_reached"


def test_lp_time_limit_reports_limit():
    m, _, _ = _lp()
    sol = solve(m, SolverOptions(time_limit_seconds=0))
    assert sol.status == "limit_reached"
    assert sol.values == {}


def test_node_lps_share_the_call_deadline(monkeypatch):
    """Every loop of every node LP of one call stops at the call's own
    deadline."""
    deadlines = []

    def spy(run):
        def loop(*args):
            deadlines.append(args[-1])
            return run(*args)
        return loop

    for name in ("_run_primal", "_run_dual"):
        monkeypatch.setattr(solver_mod, name, spy(getattr(solver_mod, name)))
    sol = solve(build_rc(demo_instance(), 0.05, 0.0, 0.14),
                SolverOptions(time_limit_seconds=60.0))
    assert sol.status == "optimal"
    assert len(deadlines) >= sol.stats.nodes > 1
    assert len(set(deadlines)) == 1 and math.isfinite(deadlines[0])


def test_cone_time_limit_bounds_the_whole_call():
    # unlimited, this solve takes about 3,500 nodes and 25 s
    model = _generated_rc(12, 8)
    start = time.perf_counter()
    sol = solve(model, SolverOptions(time_limit_seconds=0.1))
    elapsed = time.perf_counter() - start
    assert sol.status == "limit_reached"
    assert elapsed < 0.2


def test_cone_node_limit_bounds_the_whole_call():
    # the whole tree needs 32 nodes
    sol = solve(build_rc(demo_instance(), 0.05, 0.0, 0.14), SolverOptions(max_nodes=20))
    assert sol.status == "limit_reached"
    assert sol.stats.nodes <= 20


def test_cone_round_limit_bounds_the_whole_call():
    # the whole tree separates at 7 integer-feasible nodes, one cut each
    sol = solve(build_rc(demo_instance(), 0.05, 0.0, 0.14), SolverOptions(max_cone_rounds=3))
    assert sol.status == "limit_reached"
    assert sol.stats.cone_cuts == 3


def test_cone_pops_span_every_round(monkeypatch):
    popped = _popped_bounds(monkeypatch)
    sol = solve(build_rc(demo_instance(), 0.05, 0.0, 0.14))
    assert sol.stats.cone_cuts > 0
    # every solved node is popped once, re-queued nodes included, and the
    # bounds never rise
    assert len(popped) >= sol.stats.nodes
    assert all(a >= b - 1e-9 for a, b in zip(popped, popped[1:]))


@pytest.mark.parametrize("model, options", [
    (build_rc(demo_instance(), 0.05, 0.0, 0.14), SolverOptions(max_nodes=5)),
    (build_rc(demo_instance(), 0.05, 0.0, 0.14), SolverOptions(max_nodes=20)),
    (build_rc(demo_instance(), 0.05, 0.0, 0.14), SolverOptions(max_cone_rounds=0)),
    (build_rc(demo_instance(), 0.05, 0.0, 0.14), SolverOptions(max_cone_rounds=3)),
    # unlimited, the first model separates at 52 nodes; the second takes
    # about 25 s
    (_rc_of_random_model(23, 12, 3, 10, False, 0.05), SolverOptions(max_cone_rounds=20)),
    (_generated_rc(12, 8), SolverOptions(time_limit_seconds=0.05)),
    (build_rc(demo_instance(), 0.05, 0.0, 0.14), SolverOptions(time_limit_seconds=0)),
], ids=["nodes-5", "nodes-20", "rounds-0", "rounds-3", "rounds-20", "time-0.05",
        "time-0"])
def test_limit_stopped_cone_solve_returns_cone_feasible_values_or_none(model, options):
    """A cone solve stopped by a limit returns a cone-feasible incumbent or no
    values, and reports the worst cone violation either way."""
    sol = solve(model, options)
    assert sol.status == "limit_reached"
    violation = sol.stats.cone_violation
    if sol.values:
        assert model.max_violation(sol.values) <= CONE_CUT_TOL
        assert 0.0 <= violation <= CONE_CUT_TOL
        assert sol.objective == pytest.approx(model.objective_value(sol.values), abs=1e-9)
    else:
        assert math.isnan(sol.objective)
        assert violation >= 0.0


def test_cone_violation_reported_on_optimal_exit():
    model = build_rc(demo_instance(), 0.05, 0.0, 0.14)
    sol = solve(model)
    assert 0.0 <= sol.stats.cone_violation <= CONE_CUT_TOL
    assert model.max_violation(sol.values) <= CONE_CUT_TOL
    # models without cone rows report none
    assert solve(build_irc(demo_instance(), 0.05, 0.0)).stats.cone_violation is None


# -- pivot sequence ----------------------------------------------------------------


@pytest.mark.parametrize("instance, build, objective, refactored, carried", [
    (demo_instance, build_nominal, 261.0, (3, 16, 0, 2), (3, 16, 0, 0)),
    (demo_instance, lambda inst: build_irc(inst, 0.05, 0.0), 177.0,
     (29, 117, 0, 28), (29, 119, 0, 0)),
    (demo_instance, lambda inst: build_rc(inst, 0.05, 0.0, 0.14), 159.0,
     (32, 152, 7, 31), (30, 153, 7, 2)),
    (lambda: generated_instance(7, 5, 1), build_nominal, 386.94188275568615,
     (27, 118, 0, 26), (33, 161, 0, 4)),
    (lambda: generated_instance(7, 5, 1), lambda inst: build_irc(inst, 0.05, 0.02),
     323.85452413973695, (29, 228, 0, 28), (33, 335, 0, 6)),
    (lambda: generated_instance(8, 5, 1), lambda inst: build_rc(inst, 0.05, 0.0, 0.14),
     327.5182571681296, (43, 474, 15, 42), (41, 433, 14, 5)),
], ids=["nominal", "irc", "rc", "gen7x5s1-nominal", "gen7x5s1-irc", "gen8x5s1-rc"])
def test_hk_demo_pivot_counts_exact(monkeypatch, instance, build, objective, refactored,
                                    carried):
    """Node, LP-iteration, cut and dense-refactor counts pin the whole pivot
    sequence, on hk_demo and on generated instances with larger trees: once
    with no tableau held, so that every node LP refactors, and once with the
    default, where node LPs carry their parents' tableaux.  A carried
    tableau differs from a refactored one in the last bits, so near-tied
    ratio tests may go the other way and the trees differ; the optimum does
    not."""
    model = build(instance())
    for held, counts in ((0, refactored), (solver_mod._HELD_TABLEAUX, carried)):
        monkeypatch.setattr(solver_mod, "_HELD_TABLEAUX", held)
        sol = solve(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(objective, abs=1e-6)
        stats = sol.stats
        assert (stats.nodes, stats.iterations, stats.cone_cuts, stats.refactors) == counts


def _carried_node_lps(monkeypatch, model):
    """Every node LP of ``model``'s tree that starts from a held tableau:
    its working LP, and its origin's basis, tableau and age."""
    solve_standard, lps = solver_mod._solve_standard, []

    def node_lp(sf, deadline, origin=None):
        if origin is not None and origin.tab is not None and (
                origin.age < solver_mod._REFACTOR_EVERY):
            lps.append((sf, origin.basis, origin.tab, origin.age))
        return solve_standard(sf, deadline, origin)

    monkeypatch.setattr(solver_mod, "_solve_standard", node_lp)
    assert solve(model).status == "optimal"
    monkeypatch.undo()
    return lps


_CUT_TREES = {
    "hk_demo-rc": lambda: build_rc(demo_instance(), 0.05, 0.0, 0.14),
    "gen8x5-rc": lambda: build_rc(generated_instance(8, 5, 0), 0.05, 0.0, 0.14),
}


@pytest.mark.parametrize("build", _CUT_TREES.values(), ids=_CUT_TREES.keys())
def test_node_lp_from_carried_tableau_matches_refactored(monkeypatch, build):
    """Each node LP that started from a held tableau, some after cut rows
    were appended, is solved again from that tableau and from a dense
    refactor at the same basis: the statuses match and the objectives agree
    to 1e-9 relative."""
    lps = _carried_node_lps(monkeypatch, build())
    assert any(len(basis) < sf.a.shape[0] for sf, basis, _, _ in lps)
    for sf, basis, tab, age in lps:
        carried = solver_mod._solve_standard(
            sf, INF, origin=solver_mod._SimplexResult("optimal", basis=basis, tab=tab, age=age))
        fresh = solver_mod._solve_standard(
            sf, INF, origin=solver_mod._SimplexResult("optimal", basis=basis))
        assert (carried.refactors, fresh.refactors) == (0, 1)
        assert carried.status == fresh.status
        if fresh.status == "optimal":
            assert carried.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("build", _CUT_TREES.values(), ids=_CUT_TREES.keys())
def test_cut_rows_extend_a_tableau_as_a_refactor_would(monkeypatch, build):
    """A tableau at an LP's basis, extended by the rows appended since with
    their logicals basic, equals ``_refactor`` at the extended basis entry
    by entry, reduced costs included."""
    extended = 0
    for sf, basis, _, _ in _carried_node_lps(monkeypatch, build()):
        n, m, m0 = len(sf.c), sf.a.shape[0], len(basis)
        if m0 == m:
            continue
        mat = np.hstack([sf.a, -np.eye(m)])
        cost = np.concatenate([-sf.c, np.zeros(m)])
        old = np.asarray(basis)
        rows = solver_mod._refactor(mat[:m0, :n + m0], old)
        tab = np.vstack([rows, cost[:n + m0] - cost[old] @ rows])
        full = np.concatenate([old, np.arange(n + m0, n + m)])
        rows = solver_mod._refactor(mat, full)
        d = cost - cost[full] @ rows
        d[full] = 0.0
        np.testing.assert_allclose(solver_mod._carry(tab, mat, full), np.vstack([rows, d]),
                                   rtol=0.0, atol=1e-9)
        extended += 1
    assert extended


def test_unproven_verdict_from_a_carried_tableau_is_retried_refactored(monkeypatch):
    """A verdict reached from a carried tableau is retried from a dense
    refactor even without a step: the refactor does not repeat that
    tableau."""
    m = Model()
    x = m.add_variable("x", upper=2000.0)
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1e-12)], ">=", -1.0)
    sf = to_standard_form(m.finalize())
    origin = solver_mod._solve_standard(sf, INF)
    assert origin.status == "optimal" and origin.tab is not None
    starts = []
    start = solver_mod._start
    monkeypatch.setattr(solver_mod, "_start", lambda *args: starts.append(args[-1]) or start(*args))
    monkeypatch.setattr(solver_mod, "_proven", lambda *args: False)
    infeasible = replace(sf, row_lo=np.array([1e-6]))  # no column can move the row
    res = solver_mod._solve_standard(infeasible, INF, origin=origin)
    assert (res.status, res.iterations) == ("limit", 0)
    assert starts[0] is origin.tab and starts[1] is None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(
    [0.0, 0.5, 1.5, -2.5, 3.0000001, 0.4999999, -0.25, 0.75, 7.0 - 1e-7, 1e9 + 0.5])
    | st.floats(-1e6, 1e6)), max_size=12))
def test_branching_var_matches_scalar_scan(pairs):
    """The vectorised pick equals the scalar scan, ties included."""
    is_int = [integer for integer, _ in pairs]
    x = np.array([val for _, val in pairs], dtype=float)
    assert solver_mod._branching_var(x, np.array(is_int, dtype=bool)) == (
        reference_branching_var(is_int, dict(enumerate(x.tolist())), INTEGRALITY_TOL))


@contextlib.contextmanager
def _scalar_kernel():
    names = ("_pivot", "_run_primal", "_run_dual")
    saved = [getattr(solver_mod, name) for name in names]

    def run_dual(tab, basis, x, lo, hi, deadline):
        return reference_run_dual(tab, basis, x, lo, hi, FEASIBILITY_TOL, deadline)

    for name, ref in zip(names, (reference_pivot, reference_run_primal, run_dual)):
        setattr(solver_mod, name, ref)
    try:
        yield
    finally:
        for name, fn in zip(names, saved):
            setattr(solver_mod, name, fn)


@st.composite
def _bounded_models(draw):
    """Small models with every column kind (shifted, mirrored, split) kept
    bounded by box rows; integer variables have finite bounds.  Rows pass
    within a drawn slack of an integer point, so most models are feasible."""
    n = draw(st.integers(2, 6))
    small = st.integers(-6, 6)
    spec = {"kinds": [], "bounds": [], "rows": [], "sense": draw(st.sampled_from(["max", "min"]))}
    point = []
    for _ in range(n):
        kind = draw(st.sampled_from(["continuous", "integer", "binary"]))
        lo = float(draw(st.integers(-4, 1)))
        hi = float(draw(st.integers(2, 6)))
        point.append(draw(st.integers(0, 1)) if kind == "binary" else draw(st.integers(lo, 2)))
        if kind == "binary":
            lo, hi = 0.0, 1.0
        elif kind == "continuous":
            lo, hi = draw(st.sampled_from([(lo, hi), (-math.inf, hi), (-math.inf, math.inf),
                                           (lo, math.inf)]))
        spec["kinds"].append(kind)
        spec["bounds"].append((lo, hi))
    spec["c"] = [float(draw(small)) for _ in range(n)]
    for _ in range(draw(st.integers(1, 5))):
        coeffs = [draw(small) for _ in range(n)]
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        slack = 0 if sense == "=" else draw(st.integers(-2, 8))
        at_point = sum(a * x for a, x in zip(coeffs, point))
        rhs = at_point + slack if sense == "<=" else at_point - slack
        spec["rows"].append(([float(a) for a in coeffs], sense, float(rhs)))
    return spec


def _model_of(spec, relax):
    m = Model()
    ids = [m.add_variable(f"x{i}", "continuous" if relax else kind, lo, hi)
           for i, (kind, (lo, hi)) in enumerate(zip(spec["kinds"], spec["bounds"]))]
    m.set_objective(spec["sense"], list(zip(ids, spec["c"])))
    for coeffs, sense, rhs in spec["rows"]:
        m.add_constraint(list(zip(ids, coeffs)), sense, rhs)
    for v in ids:
        m.add_constraint([(v, 1.0)], "<=", 20.0)
        m.add_constraint([(v, 1.0)], ">=", -20.0)
    return m.finalize()


def _highs(spec, relax):
    sign = -1.0 if spec["sense"] == "max" else 1.0
    lo = [max(lo, -20.0) for lo, _ in spec["bounds"]]
    hi = [min(hi, 20.0) for _, hi in spec["bounds"]]
    rows = [LinearConstraint([coeffs], *{"<=": (-np.inf, rhs), ">=": (rhs, np.inf),
                                          "=": (rhs, rhs)}[sense])
            for coeffs, sense, rhs in spec["rows"]]
    integrality = [0 if relax or k == "continuous" else 1 for k in spec["kinds"]]
    res = milp(sign * np.array(spec["c"]), constraints=rows, integrality=integrality,
               bounds=Bounds(lo, hi), options={"mip_rel_gap": 0.0})
    return res.status, (sign * res.fun if res.status == 0 else None)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_bounded_models(), st.booleans())
def test_vectorised_kernel_matches_scalar_kernel_and_highs(spec, relax):
    """Objectives agree with HiGHS; the vectorised pivot, bounded primal and
    bounded dual simplex scans take exactly the steps of the scalar
    reference kernel."""
    model = _model_of(spec, relax)
    sol = solve(model)
    with _scalar_kernel():
        ref = solve(model)
    assert (sol.status, sol.stats.nodes, sol.stats.iterations) == (
        ref.status, ref.stats.nodes, ref.stats.iterations)
    assert sol.objective == ref.objective or (
        math.isnan(sol.objective) and math.isnan(ref.objective))
    status, objective = _highs(spec, relax)
    if status == 2:
        assert sol.status == "infeasible"
    else:
        assert status == 0 and sol.status == "optimal"
        assert abs(sol.objective - objective) <= 1e-6 * max(1.0, abs(objective))
