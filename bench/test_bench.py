"""Tests of the benchmark's own parts: the oracles on hand-checked cases and
the tracer's install/uninstall discipline.

    python3 -m pytest bench/test_bench.py
"""

import importlib
import math

import run  # noqa: F401  (puts the checkout's src on sys.path)

import oracles
import tracing
import workloads
from robustcounter.fixtures import demo_lp, demo_milp, one_row_uncertain
from robustcounter.model import Model
from robustcounter.robustify import interval_robust_counterpart


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a in tracing.WRAPPED}


def test_highs_on_hand_models():
    assert oracles.highs_solve(demo_lp()) == ("optimal", 12.0)
    assert oracles.highs_solve(demo_milp()) == ("optimal", 5.0)


def test_readme_example_gives_nine_over_one_point_one():
    model, uset = one_row_uncertain()
    robust = interval_robust_counterpart(model, uset, 0.1, 0.0).model
    status, objective = oracles.highs_solve(robust)
    assert status == "optimal"
    assert math.isclose(objective, 9 / 1.1, rel_tol=1e-9)
    # the worst case of x <= 10 with x and the RHS in +-10 % is 1.1 x <= 9
    tags = {"x": ("bounded", ()), "RHS": ("bounded", ())}
    assert abs(oracles.separable_violation({"x": 1.0}, 10.0, tags,
                                           {"x": 9 / 1.1}, 0.1)) < 1e-12
    assert oracles.separable_violation({"x": 1.0}, 10.0, tags,
                                       {"x": 9 / 1.1 + 1e-3}, 0.1) > 0


def test_separable_worst_case_honours_per_entry_tags():
    # x bounded 0.2 at x = 9/1.1: 1.2 * 9/1.1 - 9 = 0.8182
    tags = {"x": ("bounded", (0.2,)), "RHS": ("bounded", ())}
    viol = oracles.separable_violation({"x": 1.0}, 10.0, tags, {"x": 9 / 1.1}, 0.1)
    assert math.isclose(viol, 1.2 * 9 / 1.1 - 9, rel_tol=1e-12)
    # a range tag is taken as given, and a negative value picks its low end
    tags = {"x": ("range", (1.5, 2.8)), "y": ("bounded", ())}
    viol = oracles.separable_violation({"x": 2.0, "y": 1.0}, 12.0, tags,
                                       {"x": 3.0, "y": -4.0}, 0.1)
    assert math.isclose(viol, 2.8 * 3.0 + 0.9 * -4.0 - 12.0, rel_tol=1e-12)


def test_mc_bound():
    assert math.isclose(oracles.mc_bound(0.14, 100_000),
                        0.14 + 3 * math.sqrt(0.14 * 0.86 / 100_000))


def test_cone_brute_force_on_two_binaries():
    # max 3a + 2b  s.t.  a + b + sqrt(z^2 + 1) <= rhs,  z >= a,  z free:
    # (1,1) needs 2 + sqrt 2, (1,0) needs 1 + sqrt 2, (0,1) needs 2
    def model(rhs):
        m = Model("two")
        a = m.add_variable("a", "binary")
        b = m.add_variable("b", "binary")
        z = m.add_variable("z", "continuous", -math.inf, math.inf)
        m.set_objective("max", [(a, 3.0), (b, 2.0)])
        from robustcounter.model import ConeTerm
        m.add_constraint([(a, 1.0), (b, 1.0)], "<=", rhs, label="cone",
                         cone=ConeTerm.from_components(1.0, [(z, 1.0)], 1.0))
        m.add_constraint([(z, 1.0), (a, -1.0)], ">=", 0.0, label="link")
        return m.finalize()

    assert oracles.ConeBruteForce(model(2.5)).optimum(1e-9) == 3.0
    assert oracles.ConeBruteForce(model(2.4)).optimum(1e-9) == 2.0
    assert oracles.ConeBruteForce(model(3.5)).optimum(1e-9) == 5.0


def _small_workload(probe):
    wl = workloads.setup_certify(run.ROOT, 0)
    ops = [op for op in wl.ops if op.spec.mode == "rc"][:1]
    ops += [op for op in wl.ops if op.spec.mode == "irc"][:1]
    inner = ops[0].run

    def checked():
        probe()
        return inner()

    ops[0] = workloads.Op(ops[0].key, checked, ops[0].spec)
    wl.ops = ops
    return wl


def test_untraced_run_installs_no_wrapper():
    originals = _originals()

    def probe():
        assert _originals() == originals

    passes = run._run_passes(_small_workload(probe), 0.001, None)
    assert len(passes) == 1 and not passes[0]["traced"]
    assert _originals() == originals


def test_traced_run_wraps_then_restores():
    originals = _originals()
    seen = []

    def probe():
        seen.append(all(getattr(fn, "__wrapped__", None) is originals[key]
                        for key, fn in _originals().items()))

    tracer = tracing.Tracer()
    passes = run._run_passes(_small_workload(probe), 0.001, tracer)
    assert [p["traced"] for p in passes] == [False, True]
    assert seen == [False, True]
    assert _originals() == originals
    layer = tracing.layer_metrics(tracer.spans, passes[1]["spans"])
    assert layer["solver.cone_rounds"] >= 1
    assert layer["robustify.aux_vars"] > 0
    assert layer["validate.corner_points"] > 0
