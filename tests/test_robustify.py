import dataclasses
import math
import re

import numpy as np
import pytest

from robustcounter.model import ConeTerm, Model, ModelError
from robustcounter.robustify import (
    TimingConstraintTemplate,
    interval_robust_counterpart,
    robust_timing_bounded,
    robust_timing_normal,
    symmetric_robust_counterpart,
)
from robustcounter.solver import solve
from robustcounter.uncertainty import (
    RHS,
    Bounded,
    BoundedRange,
    Normal,
    Poisson,
    UncertainSet,
    Uniform,
    normal_lambda,
    omega_from_kappa,
    parse_annotations,
)
from robustcounter.validate import corner_check, monte_carlo_check

from _oracles import random_uncertain_ilp


def _one_row(lower=0.0):
    m = Model("one_row")
    x = m.add_variable("x", "continuous", lower)
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 10.0, label="c")
    return m.finalize(), x


def _both_uncertain(x):
    return UncertainSet([(0, x, Bounded()), (0, RHS, Bounded())])


# -- interval robust counterpart ------------------------------------------------


def test_irc_single_row_worst_corner():
    # worst corner (1.1, 9) -> x = 9/1.1, confirmed by corner enumeration
    m, x = _one_row()
    art = interval_robust_counterpart(m, _both_uncertain(x), 0.1, 0.0)
    sol = solve(art.model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(9.0 / 1.1, abs=1e-9)


def test_irc_zero_epsilon_recovers_nominal():
    m, x = _one_row()
    art = interval_robust_counterpart(m, _both_uncertain(x), 0.0, 0.0)
    assert solve(art.model).objective == pytest.approx(10.0)


def test_irc_large_delta_lets_nominal_bind():
    # delta * max{1, 10} = 10 relaxes the robust row past the nominal one
    m, x = _one_row()
    art = interval_robust_counterpart(m, _both_uncertain(x), 0.1, 1.0)
    assert solve(art.model).objective == pytest.approx(10.0)


def test_irc_structure():
    # a free x keeps its absolute-value auxiliary and both links
    m, x = _one_row(lower=-math.inf)
    uset = _both_uncertain(x)
    art = interval_robust_counterpart(m, uset, 0.1, 0.0)
    # nominal rows retained verbatim, one aux per mixed-sign coefficient entry
    assert art.model.constraints[0].lhs == m.constraints[0].lhs
    assert art.model.constraints[0].rhs == m.constraints[0].rhs
    assert [v.name for v in art.model.variables] == ["x", "u_c_x"]
    u = art.model.variable_by_name("u_c_x").id
    robust = art.model.constraint_by_label("c__irc")
    assert dict(robust.lhs.terms) == {x: pytest.approx(1.0), u: pytest.approx(0.1)}
    assert robust.rhs == pytest.approx(9.0)
    labels = [c.label for c in art.model.constraints]
    assert labels == ["c", "c__irc_lnk_x_up", "c__irc_lnk_x_lo", "c__irc"]


def test_irc_sign_known_variable_gets_no_auxiliary():
    # x >= 0: the worst case of the coefficient is its high end, 1.1
    m, x = _one_row()
    art = interval_robust_counterpart(m, _both_uncertain(x), 0.1, 0.0)
    assert [v.name for v in art.model.variables] == ["x"]
    assert [c.label for c in art.model.constraints] == ["c", "c__irc"]
    robust = art.model.constraint_by_label("c__irc")
    assert dict(robust.lhs.terms) == {x: pytest.approx(1.1)}
    assert robust.rhs == pytest.approx(9.0)


def _tagged_model(variables, objective, rows):
    """Continuous x >= 0 variables, a max objective, and ``(label, coeffs,
    rhs, tags)`` rows whose tags map a variable name or "RHS" to a tag."""
    m = Model()
    ids = {name: m.add_variable(name, "continuous", 0.0) for name in variables}
    m.set_objective("max", [(ids[n], c) for n, c in objective.items()])
    uset = UncertainSet()
    for label, coeffs, rhs, tags in rows:
        cid = m.add_constraint([(ids[n], a) for n, a in coeffs.items()], "<=",
                               rhs, label=label)
        for target, tag in tags.items():
            uset.add(cid, RHS if target == "RHS" else ids[target], tag)
    return m.finalize(), uset


# per-entry tags wider than the global eps; the expected optima put every
# tagged coefficient at the high end of its own interval and the RHS at its
# low end
_ENTRY_CASES = {
    # 1.2 x <= 9
    "bounded": (["x"], {"x": 1.0},
                [("cap", {"x": 1.0}, 10.0, {"x": Bounded(0.2), "RHS": Bounded()})],
                0.1, 7.5),
    # 2.8 x + 1.1 y <= 12, y <= 4: y = 4, x = 7.6 / 2.8
    "range": (["x", "y"], {"x": 3.0, "y": 2.0},
              [("cap", {"x": 2.0, "y": 1.0}, 12.0,
                {"x": BoundedRange(1.5, 2.8), "y": Bounded()}),
               ("side", {"y": 1.0}, 4.0, {})],
              0.1, 113.0 / 7.0),
    # 1.3 x + 1.05 y + 2.5 z <= 19, x <= 8, y <= 6: z = 2.3 / 2.5
    "mixed": (["x", "y", "z"], {"x": 2.0, "y": 1.0, "z": 1.5},
              [("cap", {"x": 1.0, "y": 1.0, "z": 2.0}, 20.0,
                {"x": Bounded(0.3), "y": Bounded(), "z": BoundedRange(1.0, 2.5),
                 "RHS": Bounded()}),
               ("cx", {"x": 1.0}, 8.0, {}),
               ("cy", {"y": 1.0}, 6.0, {})],
              0.05, 23.38),
}


@pytest.mark.parametrize("case", sorted(_ENTRY_CASES))
def test_irc_honours_per_entry_intervals(case):
    variables, objective, rows, eps, optimum = _ENTRY_CASES[case]
    model, uset = _tagged_model(variables, objective, rows)
    sol = solve(interval_robust_counterpart(model, uset, eps, 0.0).model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(optimum, abs=1e-9)
    values = {v.id: sol.values[v.id] for v in model.variables}
    report = corner_check(model, uset, values, eps, 0.0)
    assert report.certified
    assert report.worst_violation[0] == pytest.approx(0.0, abs=1e-9)


def test_irc_rejects_ge_uncertain_rows():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], ">=", 1.0, label="floor")
    m.finalize()
    with pytest.raises(ModelError, match="normalize"):
        interval_robust_counterpart(m, UncertainSet([(0, x, Bounded())]), 0.1, 0.0)


def test_irc_rejects_cone_models():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 5.0, label="c",
                     cone=ConeTerm.from_components(1.0, [(x, 1.0)]))
    m.finalize()
    with pytest.raises(ModelError, match="cone-free"):
        interval_robust_counterpart(m, UncertainSet([(0, x, Bounded())]), 0.1, 0.0)


@pytest.mark.parametrize("eps, delta", [
    (math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf)])
@pytest.mark.parametrize("mode", ["irc", "rc"])
def test_counterparts_reject_nonfinite_levels(eps, delta, mode):
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 5.0, label="c")
    uset = UncertainSet([(0, x, Bounded())])
    with pytest.raises(ModelError, match="finite and nonnegative"):
        if mode == "irc":
            interval_robust_counterpart(m.finalize(), uset, eps, delta)
        else:
            symmetric_robust_counterpart(m.finalize(), uset, eps, delta, 0.14)


def test_irc_counterpart_points_feasible_for_nominal():
    """Any counterpart-feasible point restricted to nominal variables is
    nominal feasible (nominal retention)."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        model, uset = random_uncertain_ilp(rng)
        art = interval_robust_counterpart(model, uset, 0.1, 0.05)
        sol = solve(art.model)
        if sol.status != "optimal":
            continue
        projected = {v.id: sol.values[v.id] for v in model.variables}
        assert model.max_violation(projected) <= 1e-6


def test_irc_nesting_in_epsilon():
    """Counterpart-feasible points of IRC[eps] stay feasible in IRC[eps']
    for eps' <= eps (same auxiliary layout)."""
    rng = np.random.default_rng(23)
    for _ in range(10):
        model, uset = random_uncertain_ilp(rng)
        tight = interval_robust_counterpart(model, uset, 0.2, 0.1)
        loose = interval_robust_counterpart(model, uset, 0.05, 0.1)
        # harvest vertices of the tight counterpart under random objectives
        for seed in range(3):
            probe = tight.model.copy()
            obj_rng = np.random.default_rng(seed)
            probe.set_objective("max", [
                (v.id, float(obj_rng.uniform(-1, 1))) for v in probe.variables
            ])
            sol = solve(probe.finalize())
            if sol.status != "optimal":
                continue
            assert loose.model.max_violation(sol.values) <= 1e-6


def test_irc_monotone_in_epsilon_and_delta():
    rng = np.random.default_rng(29)
    for _ in range(8):
        model, uset = random_uncertain_ilp(rng)
        objs = []
        for eps in (0.0, 0.05, 0.1, 0.2):
            sol = solve(interval_robust_counterpart(model, uset, eps, 0.05).model)
            objs.append(sol.objective if sol.status == "optimal" else -math.inf)
        assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:]))
        objs = []
        for delta in (0.0, 0.05, 0.1):
            sol = solve(interval_robust_counterpart(model, uset, 0.1, delta).model)
            objs.append(sol.objective if sol.status == "optimal" else -math.inf)
        assert all(a <= b + 1e-9 for a, b in zip(objs, objs[1:]))


def test_irc_optimum_passes_corner_certification():
    rng = np.random.default_rng(41)
    certified = 0
    for _ in range(15):
        model, uset = random_uncertain_ilp(rng, max_entries=8)
        for eps, delta in ((0.05, 0.0), (0.2, 0.1)):
            art = interval_robust_counterpart(model, uset, eps, delta)
            sol = solve(art.model)
            if sol.status != "optimal":
                continue
            values = {v.id: sol.values[v.id] for v in model.variables}
            report = corner_check(model, uset, values, eps, delta)
            assert report.certified
            certified += 1
    assert certified >= 20


# -- symmetric robust counterpart ----------------------------------------------------


def test_rc_kappa_one_admits_nominal():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform())])
    art = symmetric_robust_counterpart(m, uset, 0.1, 0.0, 1.0)
    sol = solve(art.model)
    assert sol.objective == pytest.approx(10.0, abs=1e-9)


def test_rc_omega_two_coefficient_only():
    """One-dimensional split oracle: min over v of |x-v| + 2|v| equals x
    (attained at v = 0), so the robust row binds at 1.1x <= 10."""
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform())])
    art = symmetric_robust_counterpart(m, uset, 0.1, 0.0, math.exp(-2.0))
    sol = solve(art.model)
    assert sol.objective == pytest.approx(10.0 / 1.1, abs=1e-6)


def test_rc_rhs_only():
    # cone constant carries rhs^2 = 100: x + 0.1 * sqrt(100) <= 10
    m, x = _one_row()
    uset = UncertainSet([(0, RHS, Uniform())])
    art = symmetric_robust_counterpart(m, uset, 0.1, 0.0, math.exp(-0.5))
    sol = solve(art.model)
    assert sol.objective == pytest.approx(9.0, abs=1e-9)


def test_rc_certain_rhs_keeps_radical_clean():
    m, x = _one_row()
    art = symmetric_robust_counterpart(
        m, UncertainSet([(0, x, Uniform())]), 0.1, 0.0, 0.5
    )
    robust = art.model.constraint_by_label("c__rc")
    assert robust.cone.constant_inside == 0.0
    art2 = symmetric_robust_counterpart(m, _both_uncertain(x), 0.1, 0.0, 0.5)
    assert art2.model.constraint_by_label("c__rc").cone.constant_inside == 100.0


def test_rc_structure_and_omega():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform())])
    art = symmetric_robust_counterpart(m, uset, 0.1, 0.0, 0.14)
    robust = art.model.constraint_by_label("c__rc")
    assert robust.cone.scale == pytest.approx(0.1 * omega_from_kappa(0.14))
    assert [v.name for v in art.model.variables] == ["x", "u_c_x", "v_c_x"]
    u = art.model.variable_by_name("u_c_x").id
    v = art.model.variable_by_name("v_c_x").id
    assert dict(robust.lhs.terms) == {x: pytest.approx(1.0), u: pytest.approx(0.1)}
    assert robust.cone.components == ((v, 1.0),)
    labels = [c.label for c in art.model.constraints]
    assert labels == ["c", "c__rc_lnk_x_up", "c__rc_lnk_x_lo", "c__rc"]


def test_rc_omega_zero_structural_reduction():
    """Substituting v = x, u = 0 into the robust row reproduces the nominal
    row plus the delta allowance exactly."""
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform())])
    delta = 0.07
    art = symmetric_robust_counterpart(m, uset, 0.25, delta, 1.0)
    robust = art.model.constraint_by_label("c__rc")
    u = art.model.variable_by_name("u_c_x").id
    v = art.model.variable_by_name("v_c_x").id
    for x_val in (0.0, 3.0, 10.0):
        values = {x: x_val, u: 0.0, v: x_val}
        lhs = robust.lhs.value(values) + robust.cone.value(values)
        nominal_lhs = m.constraints[0].lhs.value({x: x_val})
        assert lhs == pytest.approx(nominal_lhs)
        assert robust.rhs == pytest.approx(
            m.constraints[0].rhs + delta * max(1.0, abs(m.constraints[0].rhs))
        )
    # the substitution satisfies the sandwich links
    assert art.model.evaluate_constraint({x: 3.0, u: 0.0, v: 3.0},
                                         art.model.constraint_by_label(
                                             "c__rc_lnk_x_up").id) <= 0
    assert art.model.evaluate_constraint({x: 3.0, u: 0.0, v: 3.0},
                                         art.model.constraint_by_label(
                                             "c__rc_lnk_x_lo").id) <= 0


def test_rc_monotone_in_kappa():
    rng = np.random.default_rng(57)
    for _ in range(6):
        model, uset = random_uncertain_ilp(rng, max_entries=6)
        objs = []
        for kappa in (0.05, 0.14, 0.5, 1.0):
            sol = solve(symmetric_robust_counterpart(
                model, uset, 0.1, 0.05, kappa).model)
            objs.append(sol.objective if sol.status == "optimal" else -math.inf)
        assert all(a <= b + 1e-6 for a, b in zip(objs, objs[1:]))


@pytest.mark.parametrize("rhs, status", [(math.inf, "optimal"), (-math.inf, "infeasible")])
def test_counterparts_of_a_row_with_an_infinite_rhs(rhs, status):
    """An infinite right-hand side gets no slack allowance, so ``x <= inf``
    stays vacuous and ``x <= -inf`` infeasible.  Both counterparts raised
    'right-hand side must not be NaN': the allowance was ``0 * inf`` at
    delta 0 and ``-inf + inf`` at delta 0.1."""
    m = Model("inf_rhs")
    x = m.add_variable("x", "continuous", 0.0, 10.0)
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", rhs, label="c")
    m, uset = m.finalize(), UncertainSet([(0, x, Bounded())])
    for delta in (0.0, 0.1):
        for art, label in ((interval_robust_counterpart(m, uset, 0.05, delta), "c__irc"),
                           (symmetric_robust_counterpart(m, uset, 0.05, delta, 0.14),
                            "c__rc")):
            assert art.model.constraint_by_label(label).rhs == rhs
            sol = solve(art.model)
            assert sol.status == status, (label, delta)
            if status == "optimal":
                assert sol.values[x] == 10.0


@pytest.mark.parametrize("rhs", [math.inf, -math.inf])
def test_a_tagged_infinite_rhs_fails_the_same_way_everywhere(rhs):
    """An infinite right-hand side has no interval to range over.  The
    interval counterpart and both checks raised 'nominal value must be
    finite', the symmetric counterpart a cone error, and the annotation
    parser accepted the tag."""
    m = Model("inf_rhs")
    x = m.add_variable("x", "continuous", 0.0, 10.0)
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", rhs, label="c")
    m, uset = m.finalize(), UncertainSet([(0, x, Bounded()), (0, RHS, Bounded())])
    message = f"row 'c' has an uncertain right-hand side of {rhs}"
    for check in (lambda: interval_robust_counterpart(m, uset, 0.05, 0.1),
                  lambda: symmetric_robust_counterpart(m, uset, 0.05, 0.1, 0.14),
                  lambda: corner_check(m, uset, {x: 5.0}, 0.05, 0.1),
                  lambda: monte_carlo_check(m, uset, {x: 5.0}, 0.05, 0.1, 1000, seed=1),
                  lambda: parse_annotations("c RHS(bounded)\n", m)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            check()


# -- robust timing rows ----------------------------------------------------------------


def _template(alpha=10.0, beta=0.5, horizon=12.0, tcl=1.5):
    m = Model()
    ts = m.add_variable("ts")
    tf = m.add_variable("tf")
    w1 = m.add_variable("w1", "binary")
    w2 = m.add_variable("w2", "binary")
    b = m.add_variable("b")
    return TimingConstraintTemplate(alpha, beta, horizon, tcl, ts, tf, (w1, w2), b), m


def _wv1_coeff(m, tpl, ids):
    """The first assignment binary's coefficient in the sequencing row."""
    return dict(m.constraints[ids[0]].lhs.terms)[tpl.assign_vars[0]]


@pytest.mark.parametrize("eps, delta", [
    (math.nan, 0.25), (math.inf, 0.25), (0.05, math.nan), (0.05, math.inf)])
def test_timing_rows_reject_unusable_levels(eps, delta):
    """A NaN level used to give NaN rows, an infinite one infinite rows."""
    tpl, m = _template()
    with pytest.raises(ValueError, match="finite and nonnegative"):
        robust_timing_bounded(m, tpl, eps, delta, label="t")
    with pytest.raises(ValueError, match="finite and nonnegative"):
        robust_timing_normal(m, tpl, Normal(1.0, 0.5), eps, delta, 0.05, label="t")
    assert not m.constraints


@pytest.mark.parametrize("mu, sigma", [
    (math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)])
def test_timing_normal_rejects_nonfinite_parameters(mu, sigma):
    """The parameters are the ``Normal`` tag's, which checks them."""
    tpl, m = _template()
    with pytest.raises(ValueError, match="finite"):
        robust_timing_normal(m, tpl, Normal(mu, sigma), 0.1, 0.0, 0.05, label="t")


@pytest.mark.parametrize("field", ["alpha", "beta", "horizon", "tcl"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_timing_template_rejects_nonfinite_data(field, value):
    """A NaN or infinite coefficient, horizon or clean-up time used to pass
    the nonnegativity check and give NaN or infinite rows."""
    with pytest.raises(ValueError, match="finite"):
        _template(**{field: value})


@pytest.mark.parametrize("alpha_range", [
    (math.nan, 10.0), (8.0, math.nan), (8.0, math.inf), (-math.inf, 10.0)])
def test_timing_bounded_rejects_nonfinite_alpha_range(alpha_range):
    """A non-finite range end used to give a NaN or infinite row; the range
    is a ``BoundedRange`` tag, which checks it."""
    tpl, m = _template()
    with pytest.raises(ValueError, match="finite"):
        robust_timing_bounded(m, tpl, 0.05, 0.1, label="t",
                              distribution=BoundedRange(*alpha_range))


@pytest.mark.parametrize("target", ["alpha", "beta"])
def test_timing_bounded_rejects_a_range_wider_than_a_float(target):
    """A range whose width overflowed gave ``delta2 = inf`` and two vacuous
    rows; the ``BoundedRange`` tag rejects it, and an empty range."""
    tpl, m = _template()
    with pytest.raises(ValueError, match="wider than a float"):
        robust_timing_bounded(m, tpl, 0.05, 0.1, label="t", target=target,
                              distribution=BoundedRange(-1.7e308, 1.7e308))
    with pytest.raises(ValueError, match="empty range"):
        robust_timing_bounded(m, tpl, 0.05, 0.1, label="t", target=target,
                              distribution=BoundedRange(10.0, 8.0))


@pytest.mark.parametrize("rule, tag", [
    *(("bounded", tag) for tag in (Normal(1.0, 0.5), Poisson(2.0), None, (8.0, 10.0))),
    *(("normal", tag) for tag in (Bounded(), BoundedRange(0.5, 1.5), Uniform(), (1.0, 0.5))),
])
def test_timing_rules_refuse_a_tag_of_the_wrong_kind(rule, tag):
    """The bounded rule reads the interval tags, the normal rule a Normal."""
    tpl, m = _template()
    with pytest.raises(ValueError, match=f"^robust_timing_{rule} reads an? "):
        if rule == "bounded":
            robust_timing_bounded(m, tpl, 0.05, 0.1, label="t", distribution=tag)
        else:
            robust_timing_normal(m, tpl, tag, 0.05, 0.1, 0.05, label="t")
    assert not m.constraints


def test_timing_bounded_zero_epsilon():
    tpl, m = _template()
    ids, delta2 = robust_timing_bounded(m, tpl, 0.0, 0.25, label="t")
    assert delta2 == pytest.approx(-0.25)
    assert _wv1_coeff(m, tpl, ids) == pytest.approx(tpl.horizon_H - tpl.alpha)


def test_timing_bounded_split_example():
    tpl, m = _template(alpha=10.0)
    ids, delta2 = robust_timing_bounded(m, tpl, 0.05, 0.5, label="t")
    seq, changeover = (m.constraints[i] for i in ids)
    assert delta2 == pytest.approx(0.5, abs=1e-12)
    assert _wv1_coeff(m, tpl, ids) == pytest.approx(12.0 - 9.5)
    assert changeover.rhs - seq.rhs == pytest.approx(tpl.changeover_tcl)
    assert seq.rhs == 2.0 * tpl.horizon_H + delta2
    assert (seq.label, changeover.label) == ("t_seq__irc", "t_changeover__irc")
    assert seq.sense == changeover.sense == "<="
    assert seq.lhs == changeover.lhs
    assert dict(seq.lhs.terms) == {tpl.start_var: 1.0, tpl.finish_var: -1.0,
                                   tpl.assign_vars[0]: 12.0 - 9.5,
                                   tpl.assign_vars[1]: 12.0,
                                   tpl.batch_var: -0.95 * 0.5}


def test_timing_bounded_explicit_range():
    """The range is read for either target; the other coefficient keeps
    its (1 - eps) floor."""
    tpl, m = _template(alpha=8.38, beta=8.38)
    for target, other in (("alpha", "beta"), ("beta", "alpha")):
        ids, delta2 = robust_timing_bounded(m, tpl, 0.05, 1.0, label=target, target=target,
                                            distribution=BoundedRange(8.00, 10.42))
        assert delta2 == pytest.approx(1.42, abs=1e-12)
        terms = dict(m.constraints[ids[0]].lhs.terms)
        floors = {"alpha": 12.0 - terms[tpl.assign_vars[0]], "beta": -terms[tpl.batch_var]}
        assert floors[target] == pytest.approx(8.00)
        assert floors[other] == pytest.approx(0.95 * 8.38)


def test_timing_bounded_reads_the_level_of_its_tag():
    """A ``Bounded`` tag with its own half-width overrides the global level
    for the targeted coefficient only."""
    tpl, m = _template(alpha=10.0, beta=0.5)
    ids, delta2 = robust_timing_bounded(m, tpl, 0.05, 0.5, label="t",
                                        distribution=Bounded(0.2))
    assert delta2 == pytest.approx(2 * 0.2 * 10.0 - 0.5)
    assert _wv1_coeff(m, tpl, ids) == pytest.approx(12.0 - 8.0)
    assert dict(m.constraints[ids[0]].lhs.terms)[tpl.batch_var] == -0.95 * 0.5


def test_timing_bounded_negative_delta2_noted():
    """A negative delta2 shows in the rows: both sit below their nominal
    right-hand sides."""
    tpl, m = _template(alpha=1.0)
    ids, delta2 = robust_timing_bounded(m, tpl, 0.05, 0.5, label="t")
    assert delta2 == pytest.approx(0.1 - 0.5)
    seq, changeover = (m.constraints[i] for i in ids)
    assert seq.rhs < 2.0 * tpl.horizon_H
    assert changeover.rhs < 2.0 * tpl.horizon_H + tpl.changeover_tcl


def test_timing_bounded_split_identity_randomized():
    rng = np.random.default_rng(61)
    for _ in range(200):
        alpha, beta = rng.uniform(0.1, 20.0, 2)
        eps = float(rng.uniform(0.0, 0.3))
        delta = float(rng.uniform(0.0, 1.0))
        tpl, m = _template(alpha=float(alpha), beta=float(beta))
        target = "alpha" if rng.random() < 0.5 else "beta"
        _, delta2 = robust_timing_bounded(m, tpl, eps, delta, label="t", target=target)
        coeff = alpha if target == "alpha" else beta
        assert delta + delta2 == pytest.approx(2.0 * eps * coeff, abs=1e-12)


def test_timing_normal_zero_epsilon():
    tpl, m = _template()
    ids, delta2 = robust_timing_normal(m, tpl, Normal(1.0, 0.5), 0.0, 0.3, 0.05, label="t")
    assert delta2 == pytest.approx(-0.3)
    assert _wv1_coeff(m, tpl, ids) == pytest.approx(tpl.horizon_H - tpl.alpha)
    assert [m.constraints[i].label for i in ids] == ["t_seq__rc", "t_changeover__rc"]


def test_timing_normal_table_row_multiplier():
    # mean 9.912, sd 0.523 at eps = 0.05, kappa = 0.05
    tpl, m = _template(alpha=9.5)
    ids, _ = robust_timing_normal(m, tpl, Normal(9.912, 0.523), 0.05, 0.0, 0.05, label="t")
    lam = normal_lambda(0.05)
    expected = (1.0 - 0.05 * (lam * math.sqrt(0.523) - 9.912)) * 9.5
    assert _wv1_coeff(m, tpl, ids) == pytest.approx(tpl.horizon_H - expected, abs=1e-9)


def test_timing_normal_median_kappa_vanishes():
    tpl, m = _template()
    ids, delta2 = robust_timing_normal(m, tpl, Normal(0.0, 0.7), 0.1, 0.2, 0.5, label="t")
    # lambda = 0 and mu = 0: multiplier 1, delta2 = -delta
    assert delta2 == pytest.approx(-0.2)
    assert _wv1_coeff(m, tpl, ids) == pytest.approx(tpl.horizon_H - tpl.alpha)


def test_timing_normal_split_identity_randomized():
    rng = np.random.default_rng(67)
    for _ in range(200):
        tpl, m = _template(alpha=float(rng.uniform(0.1, 20)),
                           beta=float(rng.uniform(0.1, 2)))
        mu = float(rng.uniform(-2, 12))
        sigma = float(rng.uniform(0.01, 2.0))
        eps = float(rng.uniform(0.0, 0.3))
        delta = float(rng.uniform(0.0, 1.0))
        kappa = float(rng.uniform(0.01, 0.99))
        _, delta2 = robust_timing_normal(m, tpl, Normal(mu, sigma), eps, delta, kappa,
                                         label="t")
        lam = normal_lambda(kappa)
        assert delta + delta2 == pytest.approx(
            2.0 * eps * (lam * math.sqrt(sigma) - mu), abs=1e-12)


def test_timing_normal_split_reads_sigma():
    tpl, m = _template()
    _, d_sigma = robust_timing_normal(m, tpl, Normal(1.0, 0.5), 0.1, 0.3, 0.05, label="t")
    lam = normal_lambda(0.05)
    assert d_sigma == pytest.approx(2 * 0.1 * (lam * math.sqrt(0.5) - 1.0) - 0.3)


def test_timing_rows_attach_to_models():
    """Every call labelled its rows ``timing_seq__irc``, so a second
    template's rows could not join the model of the first."""
    tpl, m = _template()
    other = TimingConstraintTemplate(8.0, 0.2, 12.0, 1.0, tpl.finish_var, tpl.start_var,
                                     tpl.assign_vars[::-1], tpl.batch_var)
    first, _ = robust_timing_bounded(m, tpl, 0.05, 0.1, label="a_b")
    second, _ = robust_timing_bounded(m, other, 0.05, 0.1, label="b_a")
    third, _ = robust_timing_normal(m, other, Normal(8.1, 0.3), 0.05, 0.1, 0.05, label="b_a")
    assert [first, second, third] == [(0, 1), (2, 3), (4, 5)]
    assert [c.label for c in m.constraints] == [
        "a_b_seq__irc", "a_b_changeover__irc", "b_a_seq__irc", "b_a_changeover__irc",
        "b_a_seq__rc", "b_a_changeover__rc"]
    with pytest.raises(ModelError, match="duplicate constraint label 'a_b_"):
        robust_timing_bounded(m, tpl, 0.05, 0.1, label="a_b")
    with pytest.raises(ModelError, match="duplicate constraint label 'b_a_"):
        robust_timing_normal(m, other, Normal(8.1, 0.3), 0.05, 0.1, 0.05, label="b_a")
    m.add_constraint([(tpl.start_var, 1.0)], "<=", 24.0, label="c_changeover__irc")
    with pytest.raises(ModelError, match="duplicate constraint label 'c_changeover__irc'"):
        robust_timing_bounded(m, tpl, 0.05, 0.1, label="c")  # and adds no row
    assert len(m.constraints) == 7
    m.set_objective("max", [(tpl.assign_vars[0], 1.0)])
    assert solve(m.finalize()).status == "optimal"
    with pytest.raises(ModelError, match="finalized"):
        robust_timing_bounded(m, tpl, 0.05, 0.1, label="d")


@pytest.mark.parametrize("var", [999, -4])
@pytest.mark.parametrize("field", ["start_var", "finish_var", "batch_var"])
def test_timing_rows_reject_variables_the_model_lacks(field, var):
    """A template whose variable ids are not the model's still gave rows."""
    tpl, m = _template()
    tpl = dataclasses.replace(tpl, **{field: var})
    with pytest.raises(ModelError, match=f"unknown variable id {var}"):
        robust_timing_bounded(m, tpl, 0.05, 0.1, label="t")
    with pytest.raises(ModelError, match=f"unknown variable id {var}"):
        robust_timing_normal(m, tpl, Normal(1.0, 0.5), 0.05, 0.1, 0.05, label="t")
    assert not m.constraints


def test_rc_matches_fine_grid_split_oracle():
    """Cone solve vs a dense one-dimensional scan of the (u, v) split."""
    m, x = _one_row()
    uset = _both_uncertain(x)
    omega = omega_from_kappa(0.14)
    art = symmetric_robust_counterpart(m, uset, 0.1, 0.0, 0.14)
    sol = solve(art.model)

    def row_value(x_val):
        vs = np.linspace(-25.0, 25.0, 500_001)
        penalty = np.abs(x_val - vs) + omega * np.sqrt(vs ** 2 + 100.0)
        return x_val + 0.1 * float(penalty.min())

    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if row_value(mid) < 10.0:
            lo = mid
        else:
            hi = mid
    assert sol.objective == pytest.approx(0.5 * (lo + hi), abs=1e-5)
