"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
criterion lines inline).  Every tolerance is pinned here; nothing defers to
later calibration.
"""

import dataclasses
import math

import numpy as np
import pytest

from robustcounter.fixtures import (
    TIMING_UNCERTAINTY,
    all_models,
    demo_instance,
    one_row_uncertain,
    tiny_instance,
)
from robustcounter.model import Model, export_text, import_text
from robustcounter.robustify import (
    TimingConstraintTemplate,
    interval_robust_counterpart,
    robust_timing_bounded,
    robust_timing_normal,
    symmetric_robust_counterpart,
)
from robustcounter.sitesel import build_irc, build_nominal, build_rc
from robustcounter.solver import solve
from robustcounter.uncertainty import (
    BoundedRange,
    Normal,
    Poisson,
    discrete_deviation,
    normal_lambda,
    omega_from_kappa,
)
from robustcounter.validate import corner_check, monte_carlo_check, sweep

from _oracles import (
    brute_force_binary_fast,
    brute_force_robust_binary_fast,
    poisson_tail_gt,
    random_binary_model,
    random_rc_instance,
    random_uncertain_ilp,
)


def _report(num: int, name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {name}")
    assert ok, f"criterion {num} failed: {name}"


# -- criterion 1 ------------------------------------------------------------------


def test_criterion_01_reliability_weight_anchors():
    ok = abs(omega_from_kappa(math.exp(-2.0)) - 2.0) <= 1e-12
    # closed-form oracle sqrt(-2 ln 0.05)
    oracle = math.sqrt(-2.0 * math.log(0.05))
    ok = ok and abs(omega_from_kappa(0.05) - 2.447747) <= 1e-5
    ok = ok and abs(omega_from_kappa(0.05) - oracle) <= 1e-12
    _report(1, "reliability-weight anchors (exp(-2) -> 2, 0.05 -> 2.447747)", ok)


# -- criterion 2 --------------------------------------------------------------------


def test_criterion_02_poisson_deviation_anchor():
    t = discrete_deviation(Poisson(5.0), 0.24)
    # independent CDF-summation oracle for the tail condition and minimality
    ok = (t == 6
          and poisson_tail_gt(5.0, 6) <= 0.24
          and poisson_tail_gt(5.0, 5) > 0.24)
    _report(2, "mean-5 count deviates to 6 at the 24% reliability level", ok)


# -- criteria 3 + 4 share instances ----------------------------------------------------


@pytest.fixture(scope="module")
def irc_instances():
    """100 random uncertain ILPs solved through the interval counterpart at
    every (eps, delta) combination."""
    rng = np.random.default_rng(20240817)
    out = []
    combos = [(eps, delta) for eps in (0.05, 0.1, 0.2) for delta in (0.0, 0.1)]
    for i in range(100):
        model, uset = random_uncertain_ilp(rng, max_vars=6, max_cons=4,
                                           max_entries=10)
        eps, delta = combos[i % len(combos)]
        art = interval_robust_counterpart(model, uset, eps, delta)
        sol = solve(art.model)
        out.append((model, uset, eps, delta, sol))
    return out


def test_criterion_03_irc_corner_soundness(irc_instances):
    checked = 0
    ok = True
    for model, uset, eps, delta, sol in irc_instances:
        if sol.status != "optimal":
            continue
        values = {v.id: sol.values[v.id] for v in model.variables}
        report = corner_check(model, uset, values, eps, delta)
        ok = ok and report.certified
        checked += 1
    ok = ok and checked >= 90  # generator keeps instances feasible
    _report(3, f"interval counterpart optima certified at every corner "
               f"({checked} instances)", ok)


def test_criterion_04_irc_brute_force_optimality(irc_instances):
    ok = True
    for model, uset, eps, delta, sol in irc_instances:
        status, best, _ = brute_force_robust_binary_fast(model, uset, eps, delta)
        if sol.status == "infeasible":
            ok = ok and status == "infeasible"
            continue
        ok = ok and status == "optimal"
        ok = ok and abs(sol.objective - best) <= 1e-6
    _report(4, "interval counterpart objectives equal point-by-corner "
               "enumeration (1e-6)", ok)


# -- criterion 5 --------------------------------------------------------------------


def test_criterion_05_rc_probabilistic_guarantee():
    rng = np.random.default_rng(20240818)
    n_samples = 10 ** 5
    ok = True
    for _ in range(20):
        model, uset = random_rc_instance(rng, max_vars=4, max_entries=5)
        for kappa in (0.05, 0.14):
            art = symmetric_robust_counterpart(model, uset, 0.1, 0.0, kappa)
            sol = solve(art.model)
            if sol.status != "optimal":
                ok = False
                continue
            values = {v.id: sol.values[v.id] for v in model.variables}
            est = monte_carlo_check(model, uset, values, 0.1, 0.0,
                                    n_samples, seed=99)
            bound = kappa + 3.0 * math.sqrt(kappa * (1.0 - kappa) / n_samples)
            ok = ok and est.frequency <= bound
    _report(5, "reliability counterpart violation frequency within "
               "kappa + 3-sigma at kappa in {0.05, 0.14}", ok)


# -- criterion 6 ---------------------------------------------------------------------


def test_criterion_06_monotonicity_triptych():
    instance = demo_instance()

    def builder(eps, delta, kappa):
        return build_rc(instance, eps, delta, kappa)

    eps_axis = (0.0, 0.025, 0.05, 0.075, 0.1)
    delta_axis = (0.0, 0.05, 0.1)
    kappa_axis = (1.0, 0.5, 0.14)
    grid = [(e, d, k) for e in eps_axis for d in delta_axis for k in kappa_axis]
    rows = sweep(builder, grid)
    table = {(r.epsilon, r.delta, r.kappa): r for r in rows}

    def obj(point):
        row = table[point]
        return row.objective if row.status == "optimal" else None

    ok = True
    for d in delta_axis:
        for k in kappa_axis:
            objs = [obj((e, d, k)) for e in eps_axis]
            pairs = [(a, b) for a, b in zip(objs, objs[1:]) if a is not None and b is not None]
            ok = ok and all(a >= b - 1e-6 for a, b in pairs)
    for e in eps_axis:
        for k in kappa_axis:
            objs = [obj((e, d, k)) for d in delta_axis]
            pairs = [(a, b) for a, b in zip(objs, objs[1:]) if a is not None and b is not None]
            ok = ok and all(a <= b + 1e-6 for a, b in pairs)
    for e in eps_axis:
        for d in delta_axis:
            objs = [obj((e, d, k)) for k in sorted(kappa_axis)]
            pairs = [(a, b) for a, b in zip(objs, objs[1:]) if a is not None and b is not None]
            ok = ok and all(a <= b + 1e-6 for a, b in pairs)
    _report(6, "sweep objectives monotone in eps (down), delta (up), "
               "kappa (up) on the bundled instance", ok)


# -- criterion 7 ----------------------------------------------------------------------


def test_criterion_07_nominal_reduction():
    ok = True
    for instance in (tiny_instance(20.0), demo_instance()):
        nominal = solve(build_nominal(instance)).objective
        irc = solve(build_irc(instance, 0.0, 0.0)).objective
        rc = solve(build_rc(instance, 0.0, 0.0, 1.0)).objective
        ok = ok and abs(irc - nominal) <= 1e-7 and abs(rc - nominal) <= 1e-7
    model, uset = one_row_uncertain()
    nominal = solve(model).objective
    irc = solve(interval_robust_counterpart(model, uset, 0.0, 0.0).model).objective
    rc = solve(symmetric_robust_counterpart(model, uset, 0.0, 0.0, 1.0).model).objective
    ok = ok and abs(irc - nominal) <= 1e-7 and abs(rc - nominal) <= 1e-7
    _report(7, "counterparts at (0, 0, 1) reproduce the nominal optimum (1e-7)", ok)


# -- criterion 8 ------------------------------------------------------------------------


def test_criterion_08_milp_oracle_equivalence():
    rng = np.random.default_rng(20240819)
    ok = True
    for _ in range(200):
        n_vars = int(rng.integers(2, 11))
        n_cons = int(rng.integers(1, 7))
        model = random_binary_model(rng, n_vars, n_cons, allow_negative_rhs=True)
        sol = solve(model)
        status, best, _ = brute_force_binary_fast(model)
        ok = ok and sol.status == status
        if status == "optimal" and sol.status == "optimal":
            ok = ok and abs(sol.objective - best) <= 1e-6
            ok = ok and model.max_violation(sol.values) <= 1e-6
    _report(8, "branch-and-bound matches exhaustive enumeration on 200 "
               "random binary models", ok)


# -- criterion 9 -----------------------------------------------------------------------


def _template(m, alpha, beta):
    ts = m.add_variable("ts")
    tf = m.add_variable("tf")
    w1 = m.add_variable("w1", "binary")
    w2 = m.add_variable("w2", "binary")
    bv = m.add_variable("bv")
    return TimingConstraintTemplate(alpha, beta, 12.0, 1.0, ts, tf, (w1, w2), bv)


def test_criterion_09_timing_split_identities():
    rng = np.random.default_rng(20240820)
    ok = True
    for _ in range(300):
        alpha = float(rng.uniform(0.1, 20.0))
        beta = float(rng.uniform(0.01, 2.0))
        eps = float(rng.uniform(0.0, 0.3))
        delta = float(rng.uniform(0.0, 1.5))
        m = Model()
        tpl = _template(m, alpha, beta)
        _, d2 = robust_timing_bounded(m, tpl, eps, delta, label="timing")
        ok = ok and abs((delta + d2) - 2.0 * eps * alpha) <= 1e-12
        mu = float(rng.uniform(-2.0, 12.0))
        sigma = float(rng.uniform(0.01, 2.0))
        kappa = float(rng.uniform(0.01, 0.99))
        _, d2 = robust_timing_normal(m, tpl, Normal(mu, sigma), eps, delta, kappa,
                                     label="timing")
        lam = normal_lambda(kappa)
        ok = ok and abs((delta + d2) - 2.0 * eps * (lam * math.sqrt(sigma) - mu)) <= 1e-12
    # the bundled uncertain-parameter records each add their rows to one model
    m = Model()
    tpl = _template(m, 1.0, 0.0)
    for k, record in enumerate(TIMING_UNCERTAINTY):
        tpl = dataclasses.replace(tpl, alpha=record.nominal)
        tag = record.distribution
        if isinstance(tag, BoundedRange):
            ids, d2 = robust_timing_bounded(m, tpl, 0.05, 0.1, label=f"r{k}",
                                            distribution=tag)
            ok = ok and abs((0.1 + d2) - (tag.high - tag.low)) <= 1e-12
        else:
            assert isinstance(tag, Normal)
            ids, d2 = robust_timing_normal(m, tpl, tag, 0.05, 0.1, 0.05, label=f"r{k}")
            lam = normal_lambda(0.05)
            expect = 2.0 * 0.05 * (lam * math.sqrt(tag.std) - tag.mean)
            ok = ok and abs((0.1 + d2) - expect) <= 1e-12
        ok = ok and all(math.isfinite(m.constraints[i].rhs) for i in ids)
    ok = ok and len(m.constraints) == 2 * len(TIMING_UNCERTAINTY)
    _report(9, "slack-split identities hold to 1e-12; bundled uncertain "
               "records add their rows to one model", ok)


# -- criterion 10 -----------------------------------------------------------------------


def test_criterion_10_pipeline_consistency():
    ok = True
    for name, model in all_models().items():
        direct = solve(model)
        again = import_text(export_text(model))
        reparsed = solve(again)
        ok = ok and direct.status == reparsed.status
        if direct.status == "optimal":
            ok = ok and abs(direct.objective - reparsed.objective) <= 1e-9
    _report(10, "export -> import -> solve matches in-process solve (1e-9) "
                "on every fixture", ok)
