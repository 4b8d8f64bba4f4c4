import dataclasses
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcounter.fixtures import demo_instance, tiny_instance
from robustcounter.sitesel import (
    InstanceError,
    PopulationUnit,
    SiteCandidate,
    SiteSelectionInstance,
    budget_uncertain_set,
    build_irc,
    build_nominal,
    build_rc,
    load_instance,
    write_instance,
)
from robustcounter.solver import solve
from robustcounter.validate import corner_check

from _oracles import highs_solve, oa_highs_solve


def _pair_instance(budget=80.0):
    return SiteSelectionInstance.with_all_uncertain(
        [PopulationUnit("a", "A", 120), PopulationUnit("b", "B", 80)],
        [SiteCandidate("s1", "S1", 40.0, 0.05), SiteCandidate("s2", "S2", 25.0, 0.08)],
        [[0.4, 0.3], [0.2, 0.6]], budget, 15.0, 2,
    )


def _pair_with(**changes):
    return dataclasses.replace(_pair_instance(), **changes)


# -- utilization matrix --------------------------------------------------------


def _utilization(populations, probabilities):
    units = [PopulationUnit(f"u{i}", "U", n) for i, n in enumerate(populations)]
    sites = [SiteCandidate(f"s{j}", "S", 1.0, 0.0) for j in range(len(probabilities[0]))]
    return SiteSelectionInstance(units, sites, probabilities, 10.0, 0.0, 1).utilization


def test_utilization_products():
    u = _utilization([100], [[0.3, 0.7]])
    assert np.allclose(u, [[30.0, 70.0]])
    assert np.allclose(u.sum(axis=0), [30.0, 70.0])


def test_utilization_zero_probabilities():
    u = _utilization([50], [[0.0, 0.0]])
    assert np.allclose(u, 0.0)
    assert u.shape == (1, 2)


def test_utilization_diagonal():
    u = _utilization([50, 50], [[0.5, 0.0], [0.0, 0.5]])
    assert np.allclose(u, [[25.0, 0.0], [0.0, 25.0]])
    assert np.allclose(u.sum(axis=0), [25.0, 25.0])


def test_instance_data_stays_as_checked():
    """The instance copies its probabilities; neither they nor the
    utilizations every builder reads can change after the checks."""
    probabilities = np.array([[0.3, 0.7]])
    inst = SiteSelectionInstance([PopulationUnit("u", "U", 100)],
                                 [SiteCandidate("s", "S", 1.0, 0.0),
                                  SiteCandidate("t", "T", 1.0, 0.0)],
                                 probabilities, 10.0, 0.0, 1)
    probabilities[0, 0] = 5.0
    assert inst.probabilities[0, 0] == 0.3
    for array in (inst.probabilities, inst.utilization):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


def test_utilization_rejects_dimension_mismatch():
    with pytest.raises(InstanceError, match=r"shape \(2, 1\) does not match 1 units x 1 sites"):
        SiteSelectionInstance([PopulationUnit("u", "U", 10)],
                              [SiteCandidate("s", "S", 1.0, 0.0)],
                              [[0.5], [0.5]], 10.0, 0.0, 1)


# -- nominal model -----------------------------------------------------------------


def test_nominal_single_site_opens():
    sol = solve(build_nominal(tiny_instance(20.0)))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(30.0)


def test_nominal_budget_too_small_infeasible():
    # the fixed cost alone exceeds the budget, but assignment is forced
    assert solve(build_nominal(tiny_instance(5.0))).status == "infeasible"


def test_nominal_symmetric_sites_relabel_invariant():
    def build(order):
        sites = [SiteCandidate(f"s{k}", f"S{k}", 30.0, 0.1) for k in order]
        p = [[0.3, 0.3], [0.3, 0.3]]
        inst = SiteSelectionInstance.with_all_uncertain(
            [PopulationUnit("a", "A", 60), PopulationUnit("b", "B", 60)],
            sites, p, 100.0, 10.0, 2)
        return solve(build_nominal(inst)).objective
    assert build((1, 2)) == pytest.approx(build((2, 1)))


def test_exact_assignment_mode():
    inst = _pair_instance(budget=200.0)
    relaxed = solve(build_nominal(inst))
    exact = solve(build_nominal(inst, exact_assignment=True))
    # >= cover may double-assign for extra utilization; == may not
    assert exact.status == "optimal"
    assert exact.objective <= relaxed.objective + 1e-9
    m = build_nominal(inst, exact_assignment=True)
    for unit in inst.units:
        con = m.constraint_by_label(f"assign_{unit.id}")
        assert con.sense == "="


def test_assignment_cover_and_linking_invariant():
    inst = _pair_instance()
    m = build_nominal(inst)
    sol = solve(m)
    for i, unit in enumerate(inst.units):
        total = sum(
            sol.values[m.variable_by_name(f"x_{unit.id}_{s.id}").id]
            for s in inst.sites
        )
        assert total >= 1.0 - 1e-6
        for s in inst.sites:
            x_val = sol.values[m.variable_by_name(f"x_{unit.id}_{s.id}").id]
            y_val = sol.values[m.variable_by_name(f"y_{s.id}").id]
            assert x_val <= y_val + 1e-6


def test_objective_matches_recomputed_utilization():
    inst = _pair_instance()
    m = build_nominal(inst)
    sol = solve(m)
    u = inst.utilization
    total = sum(
        u[i, j] * sol.values[m.variable_by_name(f"x_{unit.id}_{site.id}").id]
        for i, unit in enumerate(inst.units)
        for j, site in enumerate(inst.sites)
    )
    assert sol.objective == pytest.approx(total, abs=1e-6)


# -- brute force equivalence -----------------------------------------------------------


def _enumerate_nominal(inst: SiteSelectionInstance, tol=1e-9):
    """Exhaustive (y, x) enumeration straight from the instance arithmetic."""
    u = inst.utilization
    m, n = u.shape
    best = None
    for y in itertools.product((0, 1), repeat=n):
        if sum(y) > inst.max_sites:
            continue
        for flat in itertools.product((0, 1), repeat=m * n):
            x = np.array(flat).reshape(m, n)
            if np.any(x > np.array(y)[None, :]):
                continue
            if np.any(x.sum(axis=1) < 1):
                continue
            enroll = (u * x).sum(axis=0)
            if np.any(enroll < inst.min_enrollment * np.array(y) - tol):
                continue
            cost = sum(s.fixed_cost * y[j] for j, s in enumerate(inst.sites))
            cost += sum(inst.sites[j].variable_cost * u[i, j] * x[i, j]
                        for i in range(m) for j in range(n))
            if cost > inst.budget + tol:
                continue
            obj = float((u * x).sum())
            if best is None or obj > best:
                best = obj
    return best


def _enumerate_irc(inst: SiteSelectionInstance, eps, delta, tol=1e-9):
    """Adds the worst-corner budget check on top of the nominal enumeration."""
    u = inst.utilization
    m, n = u.shape
    in_m, in_k = set(inst.uncertain_fixed), set(inst.uncertain_variable)
    best = None
    for y in itertools.product((0, 1), repeat=n):
        if sum(y) > inst.max_sites:
            continue
        for flat in itertools.product((0, 1), repeat=m * n):
            x = np.array(flat).reshape(m, n)
            if np.any(x > np.array(y)[None, :]):
                continue
            if np.any(x.sum(axis=1) < 1):
                continue
            enroll = (u * x).sum(axis=0)
            if np.any(enroll < inst.min_enrollment * np.array(y) - tol):
                continue
            cost = sum(s.fixed_cost * y[j] for j, s in enumerate(inst.sites))
            cost += sum(inst.sites[j].variable_cost * u[i, j] * x[i, j]
                        for i in range(m) for j in range(n))
            if cost > inst.budget + tol:
                continue
            # worst corner: costs up where used, budget down
            worst = sum(
                inst.sites[j].fixed_cost * (1 + (eps if j in in_m else 0)) * y[j]
                for j in range(n)
            )
            worst += sum(
                inst.sites[j].variable_cost * (1 + (eps if j in in_k else 0))
                * u[i, j] * x[i, j]
                for i in range(m) for j in range(n)
            )
            allowance = delta * max(1.0, abs(inst.budget))
            if worst > (1 - eps) * inst.budget + allowance + tol:
                continue
            obj = float((u * x).sum())
            if best is None or obj > best:
                best = obj
    return best


def test_nominal_matches_enumeration():
    for budget in (60.0, 80.0, 200.0):
        inst = _pair_instance(budget)
        sol = solve(build_nominal(inst))
        oracle = _enumerate_nominal(inst)
        if oracle is None:
            assert sol.status == "infeasible"
        else:
            assert sol.objective == pytest.approx(oracle, abs=1e-6)


def test_irc_matches_enumeration():
    inst = _pair_instance(80.0)
    for eps, delta in ((0.0, 0.0), (0.05, 0.0), (0.1, 0.05), (0.2, 0.0)):
        sol = solve(build_irc(inst, eps, delta))
        oracle = _enumerate_irc(inst, eps, delta)
        if oracle is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(oracle, abs=1e-6)


def test_three_site_enumeration():
    inst = SiteSelectionInstance.with_all_uncertain(
        [PopulationUnit("a", "A", 90), PopulationUnit("b", "B", 60),
         PopulationUnit("c", "C", 40)],
        [SiteCandidate("s1", "S1", 30.0, 0.05),
         SiteCandidate("s2", "S2", 20.0, 0.07),
         SiteCandidate("s3", "S3", 25.0, 0.04)],
        [[0.4, 0.2, 0.1], [0.1, 0.5, 0.2], [0.2, 0.1, 0.5]],
        70.0, 12.0, 2,
    )
    sol = solve(build_nominal(inst))
    oracle = _enumerate_nominal(inst)
    assert sol.objective == pytest.approx(oracle, abs=1e-6)
    sol = solve(build_irc(inst, 0.1, 0.0))
    oracle = _enumerate_irc(inst, 0.1, 0.0)
    if oracle is None:
        assert sol.status == "infeasible"
    else:
        assert sol.objective == pytest.approx(oracle, abs=1e-6)


# -- robust variants -----------------------------------------------------------------


def test_irc_examples_from_tiny_instance():
    inst = tiny_instance(20.0)
    assert solve(build_irc(inst, 0.0, 0.0)).objective == pytest.approx(30.0)
    sol = solve(build_irc(inst, 0.1, 0.0))
    assert sol.status == "optimal" and sol.objective == pytest.approx(30.0)
    assert solve(build_irc(inst, 0.3, 0.0)).status == "infeasible"


@pytest.mark.parametrize("inst, eps, delta", [
    (_pair_instance(80.0), 0.0, 0.0),
    (_pair_instance(80.0), 0.05, 0.0),
    (_pair_instance(80.0), 0.1, 0.02),
    (_pair_instance(80.0), 0.2, 0.1),
    (demo_instance(), 0.05, 0.0),
    (demo_instance(), 0.1, 0.05),
], ids=["pair-0-0", "pair-0.05-0", "pair-0.1-0.02", "pair-0.2-0.1", "hk-0.05-0",
        "hk-0.1-0.05"])
def test_irc_optimum_matches_highs_and_is_certified(inst, eps, delta):
    """The IRC's optimum equals HiGHS's on the same rows, and the exact worst
    corner of the nominal budget row's intervals certifies it."""
    model = build_irc(inst, eps, delta)
    sol = solve(model)
    status, objective = highs_solve(model)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(objective, abs=1e-6)
        nominal = build_nominal(inst)
        report = corner_check(nominal, budget_uncertain_set(inst, nominal), sol.values,
                              eps, delta)
        assert report.certified


def test_rc_nominal_reduction():
    for inst in (tiny_instance(20.0), _pair_instance(80.0)):
        nominal = solve(build_nominal(inst))
        rc = solve(build_rc(inst, 0.0, 0.0, 1.0))
        assert rc.objective == pytest.approx(nominal.objective, abs=1e-7)
        irc = solve(build_irc(inst, 0.0, 0.0))
        assert irc.objective == pytest.approx(nominal.objective, abs=1e-7)


@pytest.mark.parametrize("inst", [demo_instance(), _pair_with(uncertain_fixed=(1,)),
                                  _pair_with(uncertain_fixed=())],
                         ids=["demo", "pair-fixed-s2", "pair-no-fixed"])
def test_rc_budget_row_extends_nominal_budget_row_bit_for_bit(inst):
    """budget__rc is the nominal budget row's terms, bit for bit, plus one
    eps*|f_j| term on l_j for each uncertain fixed site."""
    def bits(terms):
        return [(v, float(c).hex()) for v, c in terms]

    eps = 0.07
    budget = build_nominal(inst).constraint_by_label("budget")
    rc = build_rc(inst, eps, 0.01, 0.14)
    u = inst.utilization
    expected = [(rc.variable_by_name(f"y_{s.id}").id, s.fixed_cost) for s in inst.sites]
    expected += [(rc.variable_by_name(f"x_{unit.id}_{s.id}").id, s.variable_cost * u[i, j])
                 for i, unit in enumerate(inst.units) for j, s in enumerate(inst.sites)]
    assert bits(budget.lhs.terms) == bits(sorted(expected))
    protection = [(rc.variable_by_name(f"l_{inst.sites[j].id}").id,
                   eps * abs(inst.sites[j].fixed_cost)) for j in inst.uncertain_fixed]
    row = rc.constraint_by_label("budget__rc")
    assert bits(row.lhs.terms) == bits(budget.lhs.terms) + bits(protection)


def test_a_site_no_unit_chooses_adds_no_variable_cost_entry():
    """With site s2's probability 0 for every unit its variable-cost block is
    empty: the rc row gets no ``zv_s2`` component or link, the uncertain set
    no entry for its four assignments, and both counterparts solve as HiGHS
    does."""
    inst = demo_instance()
    probabilities = inst.probabilities.copy()
    probabilities[:, 1] = 0.0
    inst = dataclasses.replace(inst, probabilities=probabilities)
    rc = build_rc(inst, 0.05, 0.0, 0.14)
    names = {v.name for v in rc.variables}
    labels = {c.label for c in rc.constraints}
    assert {"zv_s1", "zv_s3"} <= names and "zv_s2" not in names
    assert "budget__rc_lnk_s1_v" in labels and "budget__rc_lnk_s2_v" not in labels
    assert len(budget_uncertain_set(inst, build_nominal(inst))) == 12
    assert len(budget_uncertain_set(demo_instance(), build_nominal(demo_instance()))) == 16
    sol = solve(rc)
    assert (sol.status, oa_highs_solve(rc)[:2]) == ("optimal", ("optimal", 159.0))
    assert sol.objective == pytest.approx(159.0, abs=1e-6)
    irc = build_irc(inst, 0.05, 0.0)
    sol = solve(irc)
    assert (sol.status, highs_solve(irc)) == ("optimal", ("optimal", 177.0))
    assert sol.objective == pytest.approx(177.0, abs=1e-6)


def test_rc_fixed_cost_only_example():
    inst = SiteSelectionInstance(
        (PopulationUnit("u1", "U", 100),),
        (SiteCandidate("s1", "S", 10.0, 0.1),),
        [[0.3]], 20.0, 10.0, 1,
        uncertain_fixed=(0,), uncertain_variable=(),
    )
    sol = solve(build_rc(inst, 0.1, 0.0, math.exp(-0.5)))  # omega = 1
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(30.0)


def test_rc_cone_floor_forces_infeasibility():
    """With the radical floor eps*omega*C exceeding the delta allowance plus
    all slack, even opening nothing cannot help because assignment is forced."""
    inst = tiny_instance(20.0)
    # eps*omega*sqrt(C^2) = 0.9 * 3.26 * 20 > C: the robust row cannot hold
    sol = solve(build_rc(inst, 0.9, 0.0, 0.005))
    assert sol.status == "infeasible"


def test_rc_monotone_in_kappa_on_demo():
    inst = demo_instance()
    objs = []
    for kappa in (0.05, 0.14, 0.5, 1.0):
        sol = solve(build_rc(inst, 0.05, 0.0, kappa))
        objs.append(sol.objective if sol.status == "optimal" else -math.inf)
    assert all(a <= b + 1e-6 for a, b in zip(objs, objs[1:]))


def test_robust_sandwich_on_demo():
    inst = demo_instance()
    nominal = solve(build_nominal(inst)).objective
    for eps in (0.0, 0.05, 0.1):
        irc = solve(build_irc(inst, eps, 0.0))
        if irc.status == "optimal":
            assert irc.objective <= nominal + 1e-9


def test_sitesel_invariant_rejections():
    with pytest.raises(InstanceError, match="outside"):
        SiteSelectionInstance.with_all_uncertain(
            [PopulationUnit("u", "U", 10)], [SiteCandidate("s", "S", 1.0, 0.0)],
            [[1.2]], 10.0, 0.0, 1)
    with pytest.raises(InstanceError, match="at most one site"):
        SiteSelectionInstance.with_all_uncertain(
            [PopulationUnit("u", "U", 10)],
            [SiteCandidate("s", "S", 1.0, 0.0), SiteCandidate("t", "T", 1.0, 0.0)],
            [[0.7, 0.7]], 10.0, 0.0, 1)
    with pytest.raises(InstanceError, match="budget"):
        SiteSelectionInstance.with_all_uncertain(
            [PopulationUnit("u", "U", 10)], [SiteCandidate("s", "S", 1.0, 0.0)],
            [[0.5]], 0.5, 0.0, 1)
    with pytest.raises(InstanceError, match="population"):
        PopulationUnit("u", "U", -5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_instance_data_rejects_nonfinite_values(bad):
    """Each error names its unit, site or key.  A NaN population used to be
    reported as mismatched column totals, and an infinite budget solved."""
    unit, site = PopulationUnit("u", "U", 10.0), SiteCandidate("s", "S", 1.0, 0.0)
    with pytest.raises(InstanceError, match="unit 'u'.*population"):
        PopulationUnit("u", "U", bad)
    with pytest.raises(InstanceError, match="site 's'.*fixed cost"):
        SiteCandidate("s", "S", bad, 0.0)
    with pytest.raises(InstanceError, match="site 's'.*variable cost"):
        SiteCandidate("s", "S", 1.0, bad)
    with pytest.raises(InstanceError, match="budget"):
        SiteSelectionInstance.with_all_uncertain([unit], [site], [[0.5]], bad, 0.0, 1)
    with pytest.raises(InstanceError, match="min_enrollment"):
        SiteSelectionInstance.with_all_uncertain([unit], [site], [[0.5]], 10.0, bad, 1)
    with pytest.raises(InstanceError, match=r"p\[u,s\]"):
        SiteSelectionInstance.with_all_uncertain([unit], [site], [[bad]], 10.0, 0.0, 1)


@pytest.mark.parametrize("field, value", [
    ("max_sites", 2.5), ("max_sites", 2.0), ("max_sites", math.inf),
    ("max_sites", math.nan), ("max_sites", True), ("max_sites", 0),
    ("uncertain_fixed", (0, 0)), ("uncertain_variable", (1, 0, 1)),
    ("uncertain_fixed", (1.0,)), ("uncertain_variable", (True,)),
    ("uncertain_fixed", (2,)), ("uncertain_variable", (-1,)),
], ids=["max-2.5", "max-2.0", "max-inf", "max-nan", "max-true", "max-0",
        "fixed-dup", "variable-dup", "fixed-float", "variable-bool", "fixed-high",
        "variable-negative"])
def test_instance_rejects_bad_counts_and_indices(field, value):
    """Each was accepted and failed later: a non-integer max_sites wrote a
    config.txt that load_instance refused (NaN failed at build time), and a
    repeated or non-integer uncertain index broke build_irc and build_rc."""
    with pytest.raises(InstanceError, match=field):
        _pair_with(**{field: value})


def test_instance_accepts_numpy_integers():
    inst = _pair_with(max_sites=np.int64(1), uncertain_fixed=(np.int32(1),))
    assert solve(build_rc(inst, 0.05, 0.0, 0.5)).status == "optimal"


def test_load_instance_rejects_repeated_uncertain_site(tmp_path):
    write_instance(demo_instance(), tmp_path / "demo")
    config = tmp_path / "demo" / "config.txt"
    config.write_text(config.read_text().replace(
        "uncertain_fixed=all", "uncertain_fixed=s1,s1"))
    with pytest.raises(InstanceError, match="uncertain_fixed"):
        load_instance(tmp_path / "demo")


@pytest.mark.parametrize("kind", ["unit", "site"])
@pytest.mark.parametrize("bad", ["\u00fc1", "u-1", "1u"])
def test_instance_ids_must_be_ascii_identifiers(kind, bad):
    unit, site = PopulationUnit("u", "U", 10), SiteCandidate("s", "S", 1.0, 0.0)
    if kind == "unit":
        unit = dataclasses.replace(unit, id=bad)
    else:
        site = dataclasses.replace(site, id=bad)
    with pytest.raises(InstanceError, match=f"{kind} id {bad!r}"):
        SiteSelectionInstance.with_all_uncertain([unit], [site], [[0.5]], 10.0, 0.0, 1)


@pytest.mark.parametrize("kind", ["unit", "site"])
def test_instance_ids_must_be_unique(kind):
    """A repeated id was accepted: build_nominal then failed on a duplicate
    variable name, and write_instance wrote a directory load_instance refused."""
    units = [PopulationUnit("u", "U", 10), PopulationUnit("v", "V", 20)]
    sites = [SiteCandidate("s", "S", 1.0, 0.0), SiteCandidate("t", "T", 2.0, 0.0)]
    records = units if kind == "unit" else sites
    records[1] = dataclasses.replace(records[1], id=records[0].id)
    with pytest.raises(InstanceError, match=f"^{kind} id '{records[0].id}' is repeated$"):
        SiteSelectionInstance.with_all_uncertain(units, sites, np.full((2, 2), 0.25),
                                                 10.0, 0.0, 1)


@pytest.mark.parametrize("key", ["budget", "min_enrollment"])
def test_load_instance_rejects_infinite_config_value(tmp_path, key):
    write_instance(demo_instance(), tmp_path / "demo")
    config = tmp_path / "demo" / "config.txt"
    config.write_text("\n".join(f"{key}=inf" if line.startswith(key + "=") else line
                                for line in config.read_text().splitlines()) + "\n")
    with pytest.raises(InstanceError, match=key):
        load_instance(tmp_path / "demo")


@pytest.mark.parametrize("eps, delta", [
    (math.nan, 0.0), (math.inf, 0.0), (0.05, math.nan), (0.05, math.inf)])
def test_rc_rejects_nonfinite_levels(eps, delta):
    with pytest.raises(InstanceError, match="finite and nonnegative"):
        build_rc(demo_instance(), eps, delta, 0.14)


# -- instance files ---------------------------------------------------------------------


def test_instance_round_trip(tmp_path):
    inst = demo_instance()
    write_instance(inst, tmp_path / "demo")
    again = load_instance(tmp_path / "demo")
    assert [u.id for u in again.units] == [u.id for u in inst.units]
    assert [s.id for s in again.sites] == [s.id for s in inst.sites]
    assert np.allclose(again.probabilities, inst.probabilities)
    assert again.budget == inst.budget
    assert again.uncertain_fixed == inst.uncertain_fixed
    sol_a = solve(build_nominal(inst))
    sol_b = solve(build_nominal(again))
    assert sol_a.objective == pytest.approx(sol_b.objective, abs=1e-9)


_finite = st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)


@st.composite
def _instances(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # any name csv can hold: spaces at either end, quotes, commas, line breaks
    name = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=8)
    units = [PopulationUnit(f"u{i}", draw(name), draw(_finite)) for i in range(m)]
    sites = [SiteCandidate(f"s{j}", draw(name), draw(_finite), draw(_finite))
             for j in range(n)]
    weights = np.array([[draw(st.floats(0.0, 1.0)) for _ in range(n)] for _ in range(m)])
    probabilities = weights / np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    subsets = st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(tuple)
    return SiteSelectionInstance(
        tuple(units), tuple(sites), probabilities,
        budget=draw(st.floats(1.0, 1e12, exclude_min=True)),
        min_enrollment=draw(_finite), max_sites=draw(st.integers(1, 10)),
        uncertain_fixed=draw(subsets), uncertain_variable=draw(subsets),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_instances())
def test_instance_directory_round_trips_exactly(inst):
    with tempfile.TemporaryDirectory() as tmp:
        write_instance(inst, Path(tmp) / "inst")
        again = load_instance(Path(tmp) / "inst")
    assert again.units == inst.units
    assert again.sites == inst.sites
    assert np.array_equal(again.probabilities, inst.probabilities)
    assert (again.budget, again.min_enrollment, again.max_sites) == (
        inst.budget, inst.min_enrollment, inst.max_sites)
    assert again.uncertain_fixed == inst.uncertain_fixed
    assert again.uncertain_variable == inst.uncertain_variable


def test_names_come_back_as_written(tmp_path):
    """Every cell used to be stripped, so ``" Harbour, east "`` came back as
    ``"Harbour, east"``; ids and numbers are still read stripped."""
    inst = dataclasses.replace(
        demo_instance(),
        units=(PopulationUnit("u1", " Harbour, east ", 120.0),
               *demo_instance().units[1:]),
        sites=(SiteCandidate("s1", '"North"\r\ncampus\t', 55.0, 0.1),
               *demo_instance().sites[1:]))
    write_instance(inst, tmp_path / "demo")
    again = load_instance(tmp_path / "demo")
    assert again.units == inst.units and again.sites == inst.sites
    units = tmp_path / "demo" / "units.csv"
    units.write_text(units.read_text().replace("u2,Midtown,90.0", " u2 ,Midtown, 90.0 "))
    assert load_instance(tmp_path / "demo").units[1] == PopulationUnit("u2", "Midtown", 90.0)


@pytest.mark.parametrize("path, old, new, message", [
    ("sites.csv", None, "", "sites.csv: empty file"),
    ("units.csv", "u2,Midtown,90.0", "u2,Midtown", "units.csv: malformed row ['u2', 'Midtown']"),
    ("sites.csv", "s2,Central annex,65.0,0.12", "s2,Central annex,65.0",
     "sites.csv: malformed row ['s2', 'Central annex', '65.0']"),
    ("units.csv", "u2,Midtown", "u1,Midtown", "unit id 'u1' is repeated"),
    ("sites.csv", "s2,Central annex", "s1,Central annex", "site id 's1' is repeated"),
    ("prob.csv", "u4,", "u9,", "prob.csv: unknown unit id 'u9'"),
    ("prob.csv", "u4,", "u1,", "prob.csv: duplicate row for unit 'u1'"),
    ("prob.csv", "u2,0.2,0.6,0.1", "u2,0.2,0.6",
     "prob.csv: row for 'u2' has 2 probabilities for 3 sites"),
    ("prob.csv", "u4,0.1,0.2,0.6\n", "", "prob.csv: missing rows for units ['u4']"),
    ("config.txt", "max_sites=3", "max_sites 3", "config.txt:3: expected key=value"),
    ("config.txt", "budget=150.0\n", "", "config.txt: missing budget="),
    ("config.txt", "uncertain_fixed=all", "uncertain_fixd=s1",
     "config.txt:4: unknown setting 'uncertain_fixd'"),
    ("config.txt", "max_sites=3\n", "max_sites=3\nbudget=999\n",
     "config.txt:4: repeated setting 'budget'"),
], ids=["empty-file", "short-unit-row", "short-site-row", "repeated-unit-id",
        "repeated-site-id", "unknown-prob-unit", "repeated-prob-row", "short-prob-row",
        "missing-prob-row", "no-equals", "missing-budget", "misspelt-key", "repeated-key"])
def test_load_instance_rejects_malformed_files(tmp_path, path, old, new, message):
    """Four of these loaded or failed elsewhere: a misspelt key was ignored
    (every fixed cost stayed uncertain), a repeated key kept its last value,
    a repeated unit id failed as a repeated prob.csv row and a repeated site
    id as a prob.csv header mismatch."""
    write_instance(demo_instance(), tmp_path / "demo")
    target = tmp_path / "demo" / path
    text = target.read_text()
    assert old is None or old in text
    target.write_text(new if old is None else text.replace(old, new, 1))
    with pytest.raises(InstanceError) as err:
        load_instance(tmp_path / "demo")
    assert str(err.value) == message


def test_load_instance_missing_directory(tmp_path):
    with pytest.raises(InstanceError, match="does not exist"):
        load_instance(tmp_path / "nowhere")


def test_config_txt_skips_comments_and_blank_lines(tmp_path):
    write_instance(demo_instance(), tmp_path / "demo")
    config = tmp_path / "demo" / "config.txt"
    lines = config.read_text().splitlines()
    config.write_text("# hk demo\n\n" + "\n".join(f"{line}  # set" for line in lines))
    again = load_instance(tmp_path / "demo")
    assert (again.budget, again.min_enrollment, again.max_sites, again.uncertain_fixed,
            again.uncertain_variable) == (150.0, 25.0, 3, (0, 1, 2), (0, 1, 2))


def test_load_instance_names_bad_probability_cell(tmp_path):
    write_instance(demo_instance(), tmp_path / "demo")
    prob = (tmp_path / "demo" / "prob.csv").read_text().splitlines()
    prob[1] = prob[1].replace("0.5", "1.2", 1)
    (tmp_path / "demo" / "prob.csv").write_text("\n".join(prob) + "\n")
    with pytest.raises(InstanceError, match=r"p\[u1,s1\]"):
        load_instance(tmp_path / "demo")


@pytest.mark.parametrize("path, old, new, message", [
    ("units.csv", "u1,Harbour,120.0", "u1,Harbour,1_20", "population for 'u1'"),
    ("units.csv", "u1,Harbour,120.0", "u1,Harbour,inf", "population must be finite"),
    ("sites.csv", "s1,North campus,55.0", "s1,North campus,\u0665\u0665",
     "fixed_cost for 's1'"),
    ("prob.csv", "u1,0.5", "u1,\u0660.5", r"p\[u1,s1\]"),
    ("config.txt", "budget=150.0", "budget=1_50", "budget="),
    ("config.txt", "max_sites=3", "max_sites=\u0663", "max_sites="),
    ("config.txt", "max_sites=3", "max_sites=3.0", "max_sites="),
], ids=["underscore-population", "inf-population", "arabic-indic-cost",
        "arabic-indic-probability", "underscore-budget", "arabic-indic-max-sites",
        "decimal-max-sites"])
def test_load_instance_reads_ascii_numbers_only(tmp_path, path, old, new, message):
    """Instance numbers follow the model text's grammar (integers for
    max_sites); ``float`` and ``int`` once read these spellings.  ``inf``
    still reads, and the data checks reject it."""
    write_instance(demo_instance(), tmp_path / "demo")
    target = tmp_path / "demo" / path
    text = target.read_text()
    assert old in text
    target.write_text(text.replace(old, new, 1))
    with pytest.raises(InstanceError, match=message):
        load_instance(tmp_path / "demo")


def test_load_instance_missing_file(tmp_path):
    write_instance(demo_instance(), tmp_path / "demo")
    (tmp_path / "demo" / "prob.csv").unlink()
    with pytest.raises(InstanceError, match="prob.csv"):
        load_instance(tmp_path / "demo")


def test_load_instance_reads_config_txt_only(tmp_path):
    write_instance(demo_instance(), tmp_path / "demo")
    (tmp_path / "demo" / "config.txt").rename(tmp_path / "demo" / "config")
    with pytest.raises(InstanceError, match="config.txt"):
        load_instance(tmp_path / "demo")


def test_load_instance_named_uncertain_sites(tmp_path):
    write_instance(demo_instance(), tmp_path / "demo")
    config = tmp_path / "demo" / "config.txt"
    text = config.read_text().replace("uncertain_fixed=all", "uncertain_fixed=s1,s3")
    config.write_text(text)
    inst = load_instance(tmp_path / "demo")
    assert inst.uncertain_fixed == (0, 2)


def test_load_instance_unknown_site_in_config(tmp_path):
    write_instance(demo_instance(), tmp_path / "demo")
    config = tmp_path / "demo" / "config.txt"
    config.write_text(config.read_text().replace(
        "uncertain_fixed=all", "uncertain_fixed=sX"))
    with pytest.raises(InstanceError, match="sX"):
        load_instance(tmp_path / "demo")


def test_nominal_model_text_round_trip_structure():
    from robustcounter.model import export_text, import_text

    model = build_nominal(demo_instance())
    again = import_text(export_text(model))
    assert [v.name for v in again.variables] == [v.name for v in model.variables]
    assert [v.kind for v in again.variables] == [v.kind for v in model.variables]
    assert [c.label for c in again.constraints] == [c.label for c in model.constraints]
    assert again.objective.terms == model.objective.terms
