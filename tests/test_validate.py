import math
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustcounter import validate
from robustcounter.fixtures import one_row_uncertain
from robustcounter.model import ConeTerm, Model
from robustcounter.robustify import (
    interval_robust_counterpart,
    symmetric_robust_counterpart,
)
from robustcounter.sitesel import (
    PopulationUnit,
    SiteCandidate,
    SiteSelectionInstance,
    budget_uncertain_set,
    build_irc,
    build_nominal,
)
from robustcounter.solver import solve
from robustcounter.uncertainty import (
    RHS,
    Binomial,
    Bounded,
    BoundedRange,
    Discrete,
    Normal,
    Poisson,
    UncertainSet,
    Uniform,
    draw_deviations,
)
from robustcounter.validate import (
    corner_check,
    monte_carlo_check,
    sweep,
    write_sweep_csv,
)

from _oracles import (
    highs_solve,
    random_uncertain_ilp,
    reference_corner_check,
    reference_monte_carlo_check,
    reference_sample_perturbed,
)


def _one_row():
    m = Model("one_row")
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 10.0, label="c")
    return m.finalize(), x


# -- corner_check -------------------------------------------------------------


def test_corner_certifies_irc_optimum():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Bounded()), (0, RHS, Bounded())])
    art = interval_robust_counterpart(m, uset, 0.1, 0.0)
    sol = solve(art.model)
    report = corner_check(m, uset, {x: sol.values[x]}, 0.1, 0.0)
    assert report.certified
    assert report.corners_checked == 4
    assert report.worst_violation[0] == pytest.approx(0.0, abs=1e-9)


def test_corner_rejects_nominal_optimum():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Bounded()), (0, RHS, Bounded())])
    report = corner_check(m, uset, {x: 10.0}, 0.1, 0.0)
    assert not report.certified
    # worst corner: 1.1 * 10 - 9 = 2
    assert report.worst_violation[0] == pytest.approx(2.0)


def test_corner_zero_entries_is_plain_feasibility():
    m, x = _one_row()
    empty = UncertainSet()
    good = corner_check(m, empty, {x: 5.0}, 0.1, 0.0)
    assert good.certified and good.corners_checked == 1
    bad = corner_check(m, empty, {x: 11.0}, 0.1, 0.0)
    assert not bad.certified


def test_corner_respects_explicit_ranges():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 8.38)], "<=", 100.0, label="t")
    m.finalize()
    uset = UncertainSet([(0, x, BoundedRange(8.00, 10.42))])
    report = corner_check(m, uset, {x: 100.0 / 10.42}, 0.0, 0.0)
    assert report.certified
    report = corner_check(m, uset, {x: 100.0 / 10.0}, 0.0, 0.0)
    assert not report.certified


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_corner_rejects_nonfinite_values(bad):
    """A NaN row fails every comparison, so ``x <= 10`` at x = NaN used to
    pass as certified with a worst violation of 0."""
    m, x = _one_row()
    for uset in (UncertainSet(), UncertainSet([(0, x, Bounded())])):
        with pytest.raises(ValueError, match="solution value of x"):
            corner_check(m, uset, {x: bad}, 0.1, 0.0)


def test_corner_rejects_random_distributions():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Normal(0.0, 1.0))])
    with pytest.raises(ValueError, match="monte_carlo"):
        corner_check(m, uset, {x: 1.0}, 0.1, 0.0)


def test_corner_certifies_uniform_tags():
    """A uniform entry realizes ``a (1 + eps xi)``, ``|xi| <= 1``: the
    interval the interval counterpart protects, which corner_check used to
    refuse."""
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform()), (0, RHS, Uniform())])
    sol = solve(interval_robust_counterpart(m, uset, 0.1, 0.0).model)
    assert sol.objective == pytest.approx(9.0 / 1.1)
    point = {x: sol.values[x]}
    assert corner_check(m, uset, point, 0.1, 0.0).certified
    assert monte_carlo_check(m, uset, point, 0.1, 0.0, 1000, 0).violations == 0
    assert not corner_check(m, uset, {x: 8.2}, 0.1, 0.0).certified


def _generated_instance(units, sites, gen_seed):
    """Seeded m x n site-selection instance with every cost and the budget
    uncertain: populations 40-200, fixed costs 40-90, variable costs
    0.05-0.2, Dirichlet(1) choice probabilities, budget 0.45 * sum(f) + 20."""
    rng = np.random.default_rng([units, sites, gen_seed])
    unit_list = [PopulationUnit(f"u{i}", f"unit {i}", float(rng.integers(40, 201)))
                 for i in range(units)]
    site_list = [SiteCandidate(f"s{j}", f"site {j}", float(rng.integers(40, 91)),
                               round(float(rng.uniform(0.05, 0.2)), 3))
                 for j in range(sites)]
    probabilities = rng.dirichlet(np.ones(sites), size=units)
    budget = 0.45 * sum(s.fixed_cost for s in site_list) + 20.0
    return SiteSelectionInstance.with_all_uncertain(
        unit_list, site_list, probabilities, budget, 25.0, sites // 2)


def test_corner_certifies_46_entries_without_cap():
    """The budget row of a generated 8x5 instance carries 46 entries (5 fixed
    costs, 40 variable costs, the budget): the IRC optimum is certified and
    its worst case at eps 0.5 is every cost up and the budget down."""
    inst = _generated_instance(8, 5, 1)
    nominal = build_nominal(inst)
    uset = budget_uncertain_set(inst, nominal)
    assert len(uset) == 46
    sol = solve(build_irc(inst, 0.05, 0.02))
    assert sol.status == "optimal"
    point = {v.id: sol.values[v.id] for v in nominal.variables}
    report = corner_check(nominal, uset, point, 0.05, 0.02)
    assert report.certified
    assert report.corners_checked == 2 ** 46
    budget = nominal.constraint_by_label("budget")
    wide = corner_check(nominal, uset, point, 0.5, 0.0)
    assert not wide.certified
    assert wide.worst_violation[budget.id] == pytest.approx(
        1.5 * budget.lhs.value(point) - 0.5 * inst.budget, abs=1e-9)


def test_corner_delta_allowance_scales_with_rhs():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Bounded())])
    # violation at the worst corner is 0.1 * x; allowance delta * 10
    report = corner_check(m, uset, {x: 10.0}, 0.1, 0.1)
    assert report.certified
    report = corner_check(m, uset, {x: 10.0}, 0.1, 0.05)
    assert not report.certified


def test_corner_rejects_negative_delta():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Bounded())])
    with pytest.raises(ValueError, match="delta"):
        corner_check(m, uset, {x: 1.0}, 0.1, -0.05)


@pytest.mark.parametrize("epsilon, delta, name", [
    (0.05, math.inf, "delta"), (0.05, math.nan, "delta"),
    (math.inf, 0.0, "epsilon"), (math.nan, 0.0, "epsilon"),
])
def test_checks_reject_unusable_levels(epsilon, delta, name):
    """An infinite delta used to certify x = 1e6 against x <= 10, and Monte
    Carlo reported a violation frequency of 0 for it."""
    m, uset = one_row_uncertain()
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        corner_check(m, uset, {0: 1e6}, epsilon, delta)
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        monte_carlo_check(m, uset, {0: 1e6}, epsilon, delta, 2000, seed=1)


def test_corner_check_on_ge_rows():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("min", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], ">=", 2.0, label="floor")
    m.finalize()
    uset = UncertainSet([(0, RHS, Bounded())])
    # worst corner lifts the floor to 2.2
    report = corner_check(m, uset, {x: 2.0}, 0.1, 0.0)
    assert not report.certified
    assert report.worst_violation[0] == pytest.approx(0.2)
    assert corner_check(m, uset, {x: 2.2}, 0.1, 0.0).certified


_BOX = ((0.0, 6.0), (-6.0, 0.0), (-4.0, 5.0))
_QUARTERS = st.integers(-12, 12).map(lambda k: k / 4.0)


@st.composite
def _tag(draw, nominal):
    kind = draw(st.sampled_from(["global", "own", "range"]))
    if kind == "global":
        return Bounded()
    if kind == "own":
        return Bounded(draw(st.sampled_from([0.0, 0.05, 0.2, 0.5])))
    return BoundedRange(nominal - draw(st.integers(0, 3)) / 4.0,
                        nominal + draw(st.integers(0, 3)) / 4.0)


@st.composite
def _tagged_rows(draw):
    """Rows over 1-4 boxed variables of either sign or mixed sign, each of
    any sense, with some coefficients and right-hand sides tagged
    ``Bounded()``, ``Bounded(eps_j)`` or ``BoundedRange``."""
    n = draw(st.integers(1, 4))
    bounds = [draw(st.sampled_from(_BOX)) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                             unique=True))
        coeffs = {j: float(draw(st.integers(-4, 4).filter(bool))) for j in cols}
        rhs = float(draw(st.integers(-5, 10)))
        tags = {j: draw(_tag(a)) for j, a in coeffs.items() if draw(st.booleans())}
        if draw(st.booleans()):
            tags["RHS"] = draw(_tag(rhs))
        rows.append((coeffs, draw(st.sampled_from(["<=", ">=", "="])), rhs, tags))
    return {
        "bounds": bounds,
        "objective": [float(draw(st.integers(-3, 3))) for _ in range(n)],
        "rows": rows,
        "point": [min(max(draw(_QUARTERS), lo), hi) for lo, hi in bounds],
        "eps": draw(st.sampled_from([0.0, 0.05, 0.1, 0.3])),
        "delta": draw(st.sampled_from([0.0, 0.05])),
    }


def _negated(tag):
    return BoundedRange(-tag.high, -tag.low) if isinstance(tag, BoundedRange) else tag


def _tagged_model(spec, rows):
    m = Model()
    ids = [m.add_variable(f"x{j}", "continuous", lo, hi)
           for j, (lo, hi) in enumerate(spec["bounds"])]
    m.set_objective("max", list(zip(ids, spec["objective"])))
    uset = UncertainSet()
    for coeffs, sense, rhs, tags in rows:
        cid = m.add_constraint([(ids[j], a) for j, a in coeffs.items()], sense, rhs)
        for target, tag in tags.items():
            uset.add(cid, RHS if target == "RHS" else ids[target], tag)
    return m.finalize(), uset


def _as_le_rows(rows):
    """Each row as ``<=`` rows: ``>=`` rows negated, ``=`` rows as both."""
    out = []
    for coeffs, sense, rhs, tags in rows:
        if sense != ">=":
            out.append((coeffs, "<=", rhs, tags))
        if sense != "<=":
            out.append(({j: -a for j, a in coeffs.items()}, "<=", -rhs,
                        {t: _negated(tag) for t, tag in tags.items()}))
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_tagged_rows())
def test_corner_check_and_irc_match_enumeration(spec):
    """The separable worst case equals the 2^k corner enumeration on rows of
    every sense, and the IRC optimum of the rows written as ``<=`` rows is
    certified by the enumeration, with HiGHS agreeing on the IRC."""
    eps, delta = spec["eps"], spec["delta"]
    model, uset = _tagged_model(spec, spec["rows"])
    point = dict(enumerate(spec["point"]))
    report = corner_check(model, uset, point, eps, delta)
    want, _ = reference_corner_check(model, uset, point, eps, delta)
    for con in model.constraints:
        assert abs(report.worst_violation[con.id] - want[con.id]) <= (
            1e-9 * max(1.0, abs(con.rhs)))

    le_model, le_uset = _tagged_model(spec, _as_le_rows(spec["rows"]))
    irc = interval_robust_counterpart(le_model, le_uset, eps, delta).model
    sol = solve(irc)
    status, objective = highs_solve(irc)
    assert sol.status == status
    if status != "optimal":
        return
    assert abs(sol.objective - objective) <= 1e-6 * max(1.0, abs(objective))
    values = {v.id: sol.values[v.id] for v in model.variables}
    _, certified = reference_corner_check(model, uset, values, eps, delta, tol=1e-7)
    assert certified


# -- monte_carlo_check ------------------------------------------------------------


def test_mc_zero_epsilon_never_violates():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform())])
    est = monte_carlo_check(m, uset, {x: 10.0}, 0.0, 0.0, 2000, seed=1)
    assert est.frequency == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mc_rejects_nonfinite_values(bad):
    """At x = NaN no sample counted as a violation; at x = inf about half did,
    from ``inf - inf``."""
    m, x = _one_row()
    for tags in ([(0, x, Uniform())], [(0, RHS, Uniform())]):
        with pytest.raises(ValueError, match="solution value of x"):
            monte_carlo_check(m, UncertainSet(tags), {x: bad}, 0.1, 0.0,
                              1000, seed=1)


def test_mc_skips_entries_with_zero_terms():
    """Coefficients of a variable at +-0 open no stream, and the estimate is
    still the reference's, with every uncertain row counted."""
    m = Model()
    x, y, z = (m.add_variable(name, "continuous", -10.0, 10.0) for name in "xyz")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0), (y, 2.0)], "<=", 3.0, label="a")
    m.add_constraint([(y, 1.0), (z, -1.0)], ">=", 0.0, label="b")
    m.add_constraint([(z, 1.0)], "=", 2.0, label="c")
    m.finalize()
    point = {x: 3.0, y: -0.0, z: 2.0}
    uset = UncertainSet([
        (0, y, Uniform()),                  # 0: y is -0: skipped
        (0, x, Bounded()),                  # 1: drawn
        (0, RHS, Normal(0.0, 1.0)),         # 2: drawn
        (1, y, BoundedRange(0.5, 2.0)),     # 3: y is -0: skipped
        (1, RHS, Poisson(2.0)),             # 4: drawn
        (1, z, Bounded()),                  # 5: drawn
        (2, RHS, Discrete((1.0, -1.0), (0.5, 0.5))),  # 6: drawn
        (2, z, BoundedRange(0.9, 1.1)),     # 7: drawn
    ])
    m0 = Model()
    w = m0.add_variable("w")
    m0.set_objective("max", [(w, 1.0)])
    m0.add_constraint([(w, 1.0)], "<=", 0.0, label="zero")
    m0.finalize()
    cases = [
        (m, uset, point, 0.1, [1, 2, 4, 5, 6, 7]),
        # no entry drawn: the row is still counted
        (m0, UncertainSet([(0, w, Uniform())]), {w: 0.0}, 0.2, []),
    ]
    for model, tags, values, eps, drawn in cases:
        opened = []

        def stream(seed, idx, _open=validate._entry_stream):
            opened.append(idx)
            return _open(seed, idx)

        args = (model, tags, values, eps, 0.0, 2000, 17)
        with mock.patch.object(validate, "_entry_stream", stream):
            got = monte_carlo_check(*args)
        assert sorted(opened) == drawn
        want = reference_monte_carlo_check(*args)
        assert list(got.per_constraint) == sorted({e.constraint_id for e in tags})
        assert got.per_constraint == want.per_constraint
        assert got.violations == want.violations


def test_mc_requires_enough_samples():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform())])
    with pytest.raises(ValueError, match="1000"):
        monte_carlo_check(m, uset, {x: 1.0}, 0.1, 0.0, 10, seed=1)


@pytest.mark.parametrize("bad", [1e5, 2000.5, math.inf, math.nan, True, "2000",
                                 999, np.float64(2000.0)])
def test_mc_rejects_unusable_sample_counts(bad):
    """Float, infinite and boolean counts used to fail deep inside numpy with
    a TypeError.  They are refused up front, also where no row needs a draw
    (x = 1 keeps ``x <= 10`` within any realisation at eps 0.1)."""
    m, x = _one_row()
    for point in ({x: 10.0}, {x: 1.0}):
        uset = UncertainSet([(0, x, Uniform())])
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_check(m, uset, point, 0.1, 0.0, bad, seed=1)


def test_mc_accepts_numpy_integer_sample_counts():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform())])
    want = monte_carlo_check(m, uset, {x: 10.0}, 0.1, 0.0, 2000, seed=1)
    got = monte_carlo_check(m, uset, {x: 10.0}, 0.1, 0.0, np.int64(2000), seed=1)
    assert got == want


def test_checks_name_a_missing_value():
    """A value missing for a variable an uncertain row reads used to raise a
    bare ``KeyError: 1``: the finiteness check read it as 0."""
    m = Model()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 10.0, label="c")
    m.finalize()
    uset = UncertainSet([(0, x, Bounded())])
    with pytest.raises(ValueError, match="variable y"):
        corner_check(m, uset, {x: 1.0}, 0.1, 0.0)
    with pytest.raises(ValueError, match="variable y"):
        monte_carlo_check(m, uset, {x: 1.0}, 0.1, 0.0, 1000, seed=1)


@pytest.mark.parametrize("epsilon, delta, name", [
    (-0.5, 0.0, "epsilon"), (0.1, -0.05, "delta"), (math.nan, 0.0, "epsilon"),
    (math.inf, 0.0, "epsilon"),
])
def test_mc_rejects_negative_or_infinite_levels(epsilon, delta, name):
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform()), (0, RHS, Uniform())])
    with pytest.raises(ValueError, match=name):
        monte_carlo_check(m, uset, {x: 10.0}, epsilon, delta, 2000, seed=1)


def test_mc_seeds_must_fit_64_bits():
    """Seeds are Philox key words: outside [0, 2**64) they would alias a
    seed inside it (2**64 + 1 repeats seed 1, -1 repeats 2**64 - 1).  A
    float or bool seed used to alias one too (1.5 and True drew seed 1's
    stream) and was reported as given."""
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform())])
    for seed in (0, 2 ** 64 - 1, np.uint64(3)):
        est = monte_carlo_check(m, uset, {x: 10.0}, 0.1, 0.0, 2000, seed=seed)
        assert est.seed == seed and 0 < est.violations < 2000
    assert monte_carlo_check(m, uset, {x: 10.0}, 0.1, 0.0, 2000,
                             seed=np.uint64(3)) == monte_carlo_check(
        m, uset, {x: 10.0}, 0.1, 0.0, 2000, seed=3)
    for seed in (-1, 2 ** 64, 2 ** 64 + 1, 1.5, 1.0, True, "1"):
        for point in ({x: 10.0}, {x: 1.0}):
            with pytest.raises(ValueError, match="seed"):
                monte_carlo_check(m, uset, point, 0.1, 0.0, 2000, seed=seed)


def test_mc_memory_does_not_grow_with_samples():
    """A check holds a few fixed-size blocks of samples, not every sample
    of every entry: 2e5 samples of a row with 12 normal coefficients
    and a uniform right-hand side peaked at about 10 MiB of traced
    allocations when each entry was drawn in one buffer."""
    m = Model()
    ids = [m.add_variable(f"x{j}") for j in range(12)]
    m.set_objective("max", [(v, 1.0) for v in ids])
    m.add_constraint([(v, 1.0) for v in ids], "<=", 12.0)
    m.finalize()
    uset = UncertainSet([(0, v, Normal(0.0, 1.0)) for v in ids]
                        + [(0, RHS, Uniform())])
    args = (m, uset, dict.fromkeys(ids, 1.0), 0.1, 0.0, 200_000, 5)
    tracemalloc.start()
    try:
        got = monte_carlo_check(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20
    want = reference_monte_carlo_check(*args)
    assert got == want
    assert 0 < got.violations < 200_000


def test_mc_leaves_no_thread_behind():
    """The estimator draws on the calling thread, so a later fork
    (``sweep --jobs``) starts from a single-threaded process."""
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform()), (0, RHS, Normal(0.0, 1.0))])
    before = set(threading.enumerate())
    monte_carlo_check(m, uset, {x: 10.0}, 0.1, 0.0, 2000, seed=1)
    assert set(threading.enumerate()) == before


def test_mc_binding_nominal_violates_half_the_time():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform())])
    est = monte_carlo_check(m, uset, {x: 10.0}, 0.1, 0.0, 100_000, seed=3)
    assert est.frequency == pytest.approx(0.5, abs=0.01)


def test_mc_deterministic_bit_for_bit():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Uniform()), (0, RHS, Uniform())])
    a = monte_carlo_check(m, uset, {x: 9.5}, 0.1, 0.0, 50_000, seed=11)
    b = monte_carlo_check(m, uset, {x: 9.5}, 0.1, 0.0, 50_000, seed=11)
    assert a.frequency == b.frequency
    assert a.violations == b.violations
    assert a.per_constraint == b.per_constraint


def test_mc_streams_split_per_entry():
    """Adding an entry leaves the other entries' draws untouched: the
    coefficient-only violation count is reproduced inside the joint run."""
    m = Model()
    x = m.add_variable("x")
    y = m.add_variable("y")
    m.set_objective("max", [(x, 1.0), (y, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 10.0, label="cx")
    m.add_constraint([(y, 1.0)], "<=", 8.0, label="cy")
    m.finalize()
    point = {x: 10.0, y: 0.0}
    solo = monte_carlo_check(
        m, UncertainSet([(0, x, Uniform())]), point, 0.1, 0.0, 20_000, seed=5)
    joint = monte_carlo_check(
        m, UncertainSet([(0, x, Uniform()), (1, y, Uniform())]), point,
        0.1, 0.0, 20_000, seed=5)
    assert joint.per_constraint[0] == solo.per_constraint[0]


def test_mc_rc_guarantee_on_random_instances():
    rng = np.random.default_rng(2025)
    from _oracles import random_rc_instance

    for _ in range(5):
        model, uset = random_rc_instance(rng)
        for kappa in (0.05, 0.14):
            art = symmetric_robust_counterpart(model, uset, 0.1, 0.0, kappa)
            sol = solve(art.model)
            assert sol.status == "optimal"
            values = {v.id: sol.values[v.id] for v in model.variables}
            est = monte_carlo_check(model, uset, values, 0.1, 0.0, 20_000, seed=7)
            bound = kappa + 3.0 * math.sqrt(kappa * (1 - kappa) / est.samples)
            assert est.frequency <= bound


def test_mc_poisson_tagged_entries():
    m, x = _one_row()
    uset = UncertainSet([(0, x, Poisson(5.0))])
    est = monte_carlo_check(m, uset, {x: 5.0}, 0.05, 0.0, 10_000, seed=9)
    # realized coefficient 1 + 0.05 * xi with xi ~ Poisson(5); violation
    # needs (1 + .05 xi) * 5 > 10, i.e. xi > 20: vanishingly rare
    assert est.frequency < 0.01


_MC_FAMILIES = ["bounded", "bounded eps_j", "range", "uniform", "normal",
                "poisson", "binomial", "discrete"]
# sample counts just below, at and past the ends of the estimator's blocks
_BLOCK_EDGES = [validate._MC_BLOCK - 1, validate._MC_BLOCK, validate._MC_BLOCK + 1,
                2 * validate._MC_BLOCK + 1]
_DISCRETE = [Discrete((-1.0, 1.0), (0.5, 0.5)),
             Discrete((-2, 0, 3), (0.25, 0.5, 0.25)),
             Discrete((0.5,), (1.0,))]


@st.composite
def _mc_tag(draw, nominal):
    """Any tag family the sampler knows, with small parameters."""
    kind = draw(st.sampled_from(_MC_FAMILIES))
    if kind == "bounded":
        return Bounded()
    if kind == "bounded eps_j":
        return Bounded(draw(st.sampled_from([0.0, 0.05, 0.2, 0.5])))
    if kind == "range":
        return BoundedRange(nominal - draw(st.integers(0, 3)) / 4.0,
                            nominal + draw(st.integers(0, 3)) / 4.0)
    if kind == "uniform":
        return Uniform()
    if kind == "normal":
        return Normal(draw(st.sampled_from([-1.0, 0.0, 0.5])),
                      draw(st.sampled_from([0.5, 1.0, 2.0])))
    if kind == "poisson":
        return Poisson(draw(st.sampled_from([0.5, 1.0, 5.0])))
    if kind == "binomial":
        return Binomial(draw(st.integers(0, 6)),
                        draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])))
    return draw(st.sampled_from(_DISCRETE))


@st.composite
def _mc_cases(draw):
    """1-3 uncertain rows of any sense over 1-4 variables, ``<=`` rows with
    or without a cone term, coefficients and right-hand sides carrying any
    tag, the entries of all rows interleaved in a drawn order."""
    n = draw(st.integers(1, 4))
    m = Model()
    ids = [m.add_variable(f"x{j}", "continuous", -10.0, 10.0) for j in range(n)]
    m.set_objective("max", [(v, 1.0) for v in ids])
    # one value in four is a zero of either sign, whose entries are skipped
    point = {v: draw(st.sampled_from([0.0, -0.0]) if draw(st.integers(0, 3)) == 0
                     else st.integers(-12, 12).map(lambda k: k / 4.0))
             for v in ids}
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        cols = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True))
        coeffs = {j: float(draw(st.integers(-4, 4).filter(bool))) for j in cols}
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        # near the row's value at the point, so violations are neither
        # certain nor impossible
        rhs = (sum(a * point[j] for j, a in coeffs.items())
               + draw(st.integers(-2, 2)) / 2.0)
        cone = None
        if sense == "<=" and draw(st.booleans()):
            cone = ConeTerm.from_components(
                draw(st.sampled_from([0.1, 0.5])), list(coeffs.items()),
                draw(st.sampled_from([0.0, 4.0])))
        cid = m.add_constraint(list(coeffs.items()), sense, rhs, cone=cone)
        targets = [j for j in cols if draw(st.booleans())]
        if draw(st.booleans()) or not targets:
            targets.append(RHS)
        for target in targets:
            nominal = rhs if target is RHS else coeffs[target]
            entries.append((cid, target, draw(_mc_tag(nominal))))
    uset = UncertainSet(draw(st.permutations(entries)))
    return {
        "model": m.finalize(),
        "uset": uset,
        "point": point,
        "eps": draw(st.sampled_from([0.0, 0.05, 0.1, 0.3])),
        "delta": draw(st.sampled_from([0.0, 0.05, 0.3])),
        "n_samples": draw(st.sampled_from([1000, 1001, 4097, 20000] + _BLOCK_EDGES)),
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
    }


# concurrent checks for the all_cpus cases: one per CPU, at least two, at most four
_CONCURRENT = min(max(os.cpu_count() or 1, 2), 4)


def _mc_on_cpus(cpus, args):
    """Run one check alone (``cpus`` 1), or as ``_CONCURRENT`` concurrent
    calls (``cpus`` None).  Calls share no block buffers or streams, so
    every concurrent call returns the same estimate."""
    if cpus == 1:
        return monte_carlo_check(*args)
    with ThreadPoolExecutor(_CONCURRENT) as pool:
        got = list(pool.map(lambda _: monte_carlo_check(*args), range(_CONCURRENT)))
    assert all(g == got[0] for g in got)
    return got[0]


@pytest.mark.parametrize("cpus", [1, None], ids=["one_cpu", "all_cpus"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_mc_cases())
def test_mc_matches_reference_bit_for_bit(cpus, case):
    """Estimates drawn block by block equal the keep-every-draw reference
    exactly, also for sample counts at and across block edges, whether the
    check runs alone or beside concurrent checks on every CPU."""
    args = (case["model"], case["uset"], case["point"], case["eps"],
            case["delta"], case["n_samples"], case["seed"])
    want = reference_monte_carlo_check(*args)
    got = _mc_on_cpus(cpus, args)
    assert got.violations == want.violations
    assert got.frequency == want.frequency
    assert got.per_constraint == want.per_constraint
    assert list(got.per_constraint) == list(want.per_constraint)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mc_deviation_kernel_matches_reference_bits(data):
    """The in-place kernel returns the bits of ``realization - nominal`` (times
    the variable's value for a coefficient) for every tag family."""
    nominal = float(data.draw(st.integers(-40, 40))) / 4.0
    dist = data.draw(_mc_tag(nominal))
    eps = data.draw(st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    n = data.draw(st.sampled_from([1000, 1001, 4097]))
    seed = data.draw(st.integers(0, 2 ** 64 - 1))
    idx = data.draw(st.integers(0, 20))
    x = data.draw(st.sampled_from([0.0, -0.25, 1.0, 3.7, 1e6]))
    got = draw_deviations(nominal, dist, eps, validate._entry_stream(seed, idx), n)
    want = reference_sample_perturbed(
        nominal, dist, eps, validate._entry_stream(seed, idx), n) - nominal
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    got *= x
    assert got.tobytes() == (want * x).tobytes()


def test_mc_draws_nothing_for_rows_certified_from_their_support():
    """The IRC optimum is robust over the whole box, so its row opens no
    stream.  A Poisson-tagged row beside it, whose support is unbounded, is
    still drawn."""
    m = Model()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.set_objective("max", [(x, 1.0), (y, 1.0)])
    m.add_constraint([(x, 1.0), (y, 2.0)], "<=", 10.0, label="irc")
    m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 12.0, label="poisson")
    m.finalize()
    irc_tags = [(0, x, Bounded()), (0, y, Bounded()), (0, RHS, Bounded())]
    sol = solve(interval_robust_counterpart(m, UncertainSet(irc_tags), 0.1, 0.0).model)
    point = {x: sol.values[x], y: sol.values[y]}
    assert point[x] > 0
    cases = [(irc_tags, []),
             (irc_tags + [(1, y, Uniform()), (1, x, Poisson(1.0))], [4])]
    for tags, drawn in cases:
        opened = []

        def stream(seed, idx, _open=validate._entry_stream):
            opened.append(idx)
            return _open(seed, idx)

        args = (m, UncertainSet(tags), point, 0.1, 0.0, 4000, 3)
        before = set(threading.enumerate())
        with mock.patch.object(validate, "_entry_stream", stream):
            got = monte_carlo_check(*args)
        assert sorted(opened) == drawn
        assert set(threading.enumerate()) == before
        want = reference_monte_carlo_check(*args)
        assert got.per_constraint[0] == 0.0
        assert list(got.per_constraint.items()) == list(want.per_constraint.items())
        assert got.violations == want.violations
    assert 0 < got.per_constraint[1] < 1


def _realised_ends(nominal, tag, eps):
    """Least and greatest value the sampler can realise for a tagged value,
    None for a Poisson tag (unbounded)."""
    if isinstance(tag, BoundedRange):
        return tag.low, tag.high
    if isinstance(tag, Poisson):
        return None
    if isinstance(tag, Normal):
        xi = (tag.mean - 6 * tag.std, tag.mean + 6 * tag.std)
    elif isinstance(tag, Binomial):
        xi = (0, tag.n)
    elif isinstance(tag, Discrete):
        xi = (min(tag.values), max(tag.values))
    else:
        xi = (-1, 1)
        if isinstance(tag, Bounded) and tag.epsilon is not None:
            eps = tag.epsilon
    ends = [nominal * (1 + eps * v) for v in xi]
    return min(ends), max(ends)


@st.composite
def _inside_rows(draw):
    """Uncertain ``<=`` and ``>=`` rows whose right-hand side clears the
    worst realisation of their coefficients, tagged with any family, by a
    drawn gap, at magnitude 1 or 1e16 (values and gaps scaled); the
    right-hand side is untagged or carries an explicit range.  A row with a
    Poisson coefficient clears only its nominal value.  Returns the check's
    arguments and the entries that must be drawn: those of Poisson rows."""
    mag = draw(st.sampled_from([1.0, 1e16]))
    eps = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    n = draw(st.integers(1, 4))
    m = Model()
    ids = [m.add_variable(f"x{j}", "continuous", -math.inf) for j in range(n)]
    m.set_objective("max", [(v, 1.0) for v in ids])
    point = {v: mag * draw(st.sampled_from([0.0, -0.0]) if draw(st.integers(0, 3)) == 0
                           else st.integers(-12, 12).map(lambda k: k / 4.0))
             for v in ids}
    entries, poisson_rows = [], set()
    for cid in range(draw(st.integers(1, 3))):
        cols = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True))
        coeffs = {j: float(draw(st.integers(-4, 4).filter(bool))) for j in cols}
        tags = {j: draw(_mc_tag(coeffs[j])) for j in cols if draw(st.booleans())}
        lhs0 = sum(a * point[j] for j, a in coeffs.items())
        up = down = 0.0
        for j, tag in tags.items():
            ends = _realised_ends(coeffs[j], tag, eps)
            if ends is None:
                poisson_rows.add(cid)
                continue
            shifts = [(end - coeffs[j]) * point[j] for end in ends]
            up, down = up + max(shifts), down + min(shifts)
        gap = mag * draw(st.sampled_from([1e-6, 0.5, 2.0]))
        below, above = (mag * draw(st.integers(0, 3)) / 4.0 for _ in range(2))
        sense = draw(st.sampled_from(["<=", ">="]))
        rhs = (lhs0 + up + gap + below if sense == "<="
               else lhs0 + down - gap - above)
        m.add_constraint(list(coeffs.items()), sense, rhs)
        if draw(st.booleans()) or not tags:
            tags[RHS] = BoundedRange(rhs - below, rhs + above)
        entries += [(cid, target, tag) for target, tag in tags.items()]
    uset = UncertainSet(draw(st.permutations(entries)))
    must_draw = [idx for idx, e in enumerate(uset) if e.constraint_id in poisson_rows
                 and (e.is_rhs or point[e.target] != 0.0)]
    return (m.finalize(), uset, point, eps, draw(st.sampled_from([0.0, 0.05]))), must_draw


@st.composite
def _irc_optima(draw):
    """The IRC optimum of random bounded-tag rows of any sense (its rows
    tight at the worst corner), checked against the rows it protects."""
    spec = draw(_tagged_rows())
    model, uset = _tagged_model(spec, spec["rows"])
    le_model, le_uset = _tagged_model(spec, _as_le_rows(spec["rows"]))
    irc = interval_robust_counterpart(le_model, le_uset, spec["eps"], spec["delta"])
    sol = solve(irc.model)
    assume(sol.status == "optimal")
    point = {v.id: sol.values[v.id] for v in model.variables}
    return (model, uset, point, spec["eps"], spec["delta"]), None


@pytest.mark.parametrize("cpus", [1, None], ids=["one_cpu", "all_cpus"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(_irc_optima(), _inside_rows()),
       n_samples=st.sampled_from([1000, 1001, 4097] + _BLOCK_EDGES),
       seed=st.integers(0, 2 ** 64 - 1))
def test_mc_certified_rows_match_reference_bit_for_bit(cpus, case, n_samples, seed):
    """Rows that no realisation can violate are counted without a draw, and
    the estimate is still the keep-every-draw reference's, bit for bit, also
    across block edges and beside concurrent checks on every CPU.  Rows that
    clear their worst realisation by a gap open no stream; rows with a
    Poisson entry are drawn."""
    (model, uset, point, eps, delta), must_draw = case
    args = (model, uset, point, eps, delta, n_samples, seed)
    opened = []

    def stream(seed, idx, _open=validate._entry_stream):
        opened.append(idx)
        return _open(seed, idx)

    with mock.patch.object(validate, "_entry_stream", stream):
        got = _mc_on_cpus(cpus, args)
    want = reference_monte_carlo_check(*args)
    assert got.violations == want.violations
    assert got.frequency == want.frequency
    assert list(got.per_constraint.items()) == list(want.per_constraint.items())
    if must_draw is not None:
        calls = 1 if cpus == 1 else _CONCURRENT
        assert sorted(opened) == sorted(must_draw * calls)


def test_mc_adds_terms_in_entry_order():
    """Floating-point sums depend on their order.  Terms of 1e16, -1e16 and 1
    on a row whose nominal side is 1 sum to 1 in that order (1 + 1e16 rounds
    to 1e16) and to 2 in reverse, so a right-hand side of 1.5 tells the two
    orders apart."""
    m = Model()
    ids = [m.add_variable(name, "continuous", -math.inf) for name in "xyz"]
    m.set_objective("max", [(ids[0], 1.0)])
    m.add_constraint([(v, 1.0) for v in ids], "<=", 1.5)
    m.finalize()
    point = dict(zip(ids, (1e16, -1e16, 1.0)))

    def entries(order):
        # xi = 1 at eps 1 doubles a coefficient: each term equals its x
        return UncertainSet([(0, v, Discrete((1.0,), (1.0,))) for v in order])

    args = (point, 1.0, 0.0, 1000, 0)
    assert reference_monte_carlo_check(m, entries(ids), *args).violations == 0
    # The support is one point, whose residual is 0.5 exactly but -0.5 when
    # summed in entry order: the row lies within the rounding margin of its
    # allowance, so it is drawn rather than certified.
    opened = []

    def stream(seed, idx, _open=validate._entry_stream):
        opened.append(idx)
        return _open(seed, idx)

    with mock.patch.object(validate, "_entry_stream", stream):
        assert monte_carlo_check(m, entries(ids), *args).violations == 0
    assert sorted(opened) == [0, 1, 2]
    assert monte_carlo_check(m, entries(ids[::-1]), *args).violations == 1000


# -- sweep ---------------------------------------------------------------------------


def _builder(base_model_factory):
    def build(eps, delta, kappa):
        m, x = base_model_factory()
        uset = UncertainSet([(0, x, Uniform())])
        return symmetric_robust_counterpart(m, uset, eps, delta, kappa).model
    return build


def test_sweep_includes_nominal_and_orders_rows():
    rows = sweep(_builder(_one_row), [(e, 0.0, 0.14) for e in (0.0, 0.05, 0.1)])
    assert rows[0].epsilon == 0.0 and rows[0].kappa == 1.0
    assert len(rows) == 4
    objs = [r.objective for r in rows[1:]]
    assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:]))
    assert rows[0].relative_gap == pytest.approx(0.0)


def test_sweep_single_nominal_point():
    rows = sweep(_builder(_one_row), [(0.0, 0.0, 1.0)])
    assert len(rows) == 1
    assert rows[0].objective == pytest.approx(10.0)


def test_sweep_records_failures_and_continues():
    def flaky(eps, delta, kappa):
        if eps > 0.07:
            raise RuntimeError("boom")
        m, _ = _one_row()
        return m
    rows = sweep(flaky, [(0.05, 0.0, 1.0), (0.1, 0.0, 1.0), (0.0, 0.0, 1.0)])
    statuses = {(r.epsilon): r.status for r in rows}
    assert statuses[0.1] == "error"
    assert statuses[0.05] == "optimal"


def test_sweep_empty_grid_rejected():
    with pytest.raises(ValueError, match="empty"):
        sweep(_builder(_one_row), [])


def test_sweep_csv_full_precision(tmp_path):
    rows = sweep(_builder(_one_row), [(0.1, 0.0, 0.14)])
    out = tmp_path / "sweep.csv"
    with out.open("w", newline="") as fh:
        write_sweep_csv(rows, fh)
    text = out.read_text().splitlines()
    assert text[0] == "epsilon,delta,kappa,status,objective,nominal_objective,relative_gap"
    assert repr(rows[1].objective) in text[2]
