import math
import re

import numpy as np
import pytest

from robustcounter.fixtures import all_models
from robustcounter.model import (
    INF,
    ConeTerm,
    LinExpr,
    Model,
    ModelError,
    ParseError,
    export_text,
    import_text,
    to_standard_form,
)
from robustcounter.solver import solve, solve_lp

from _oracles import random_lp_model


def test_add_variable_basics():
    m = Model()
    x = m.add_variable("x", "continuous", 0.0, INF)
    assert m.variables[x].lower == 0.0 and m.variables[x].upper == INF
    y = m.add_variable("y", "binary", -3.0, 7.0)
    assert (m.variables[y].lower, m.variables[y].upper) == (0.0, 1.0)


def test_add_variable_rejects_bound_inversion():
    m = Model()
    with pytest.raises(ModelError, match="inverted bounds"):
        m.add_variable("x", "continuous", 5.0, 3.0)


def test_add_variable_rejects_empty_name_and_duplicates():
    m = Model()
    with pytest.raises(ModelError):
        m.add_variable("")
    m.add_variable("x")
    with pytest.raises(ModelError, match="duplicate"):
        m.add_variable("x")


@pytest.mark.parametrize("name", ["x-1", "cap one", "1x", "x.y", "\u00fc1", "x\n"])
def test_names_and_labels_the_text_format_cannot_read_are_rejected(name):
    m = Model()
    with pytest.raises(ModelError, match=f"variable name {re.escape(repr(name))}"):
        m.add_variable(name)
    x = m.add_variable("x")
    with pytest.raises(ModelError, match=f"constraint label {re.escape(repr(name))}"):
        m.add_constraint([(x, 1.0)], "<=", 1.0, label=name)
    assert len(m.variables) == 1 and not m.constraints


def test_accepted_names_and_labels_round_trip_through_text():
    m = Model()
    ids = [m.add_variable(name) for name in ("x_1", "_y", "Inf", "CONE", "max")]
    m.set_objective("max", [(v, 1.0) for v in ids])
    for label in ("cap_one", "_c", "c0x", "inf"):
        m.add_constraint([(v, 1.0) for v in ids], "<=", 1.0, label=label)
    m.add_constraint([(ids[0], 1.0)], "<=", 2.0)
    text = export_text(m.finalize())
    again = import_text(text)
    assert export_text(again) == text
    assert [c.label for c in again.constraints] == ["cap_one", "_c", "c0x", "inf", "c4"]


@pytest.mark.parametrize("lower, upper", [
    (math.nan, 10.0), (0.0, math.nan), (INF, INF), (-INF, -INF)])
def test_add_variable_rejects_unusable_bounds(lower, upper):
    with pytest.raises(ModelError, match="bounds of 'x'"):
        Model().add_variable("x", "continuous", lower, upper)


@pytest.mark.parametrize("terms, constant, rhs", [
    ([(0, INF)], 0.0, 3.0), ([(0, math.nan)], 0.0, 3.0),
    ([(0, 1.0)], -INF, 3.0), ([(0, 1.0)], 0.0, math.nan)])
def test_add_constraint_rejects_nonfinite_data(terms, constant, rhs):
    m = Model()
    m.add_variable("x", upper=10.0)
    with pytest.raises(ModelError, match="finite|right-hand side"):
        m.add_constraint(LinExpr.from_terms(terms, constant), "<=", rhs)
    m.add_constraint([(0, 1.0)], "<=", INF)  # a vacuous row stays allowed


def test_set_objective_rejects_nonfinite_data():
    m = Model()
    m.add_variable("x", upper=10.0)
    with pytest.raises(ModelError, match="finite"):
        m.set_objective("max", [(0, INF)])
    with pytest.raises(ModelError, match="finite"):
        m.set_objective("max", LinExpr.from_terms([(0, 1.0)], math.nan))


@pytest.mark.parametrize("scale, inside", [
    (math.nan, 0.0), (INF, 0.0), (1.0, math.nan), (1.0, INF)])
def test_cone_term_rejects_nonfinite_data(scale, inside):
    with pytest.raises(ModelError, match="cone"):
        ConeTerm.from_components(scale, [(0, 1.0)], inside)


def test_term_merging():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    cid = m.add_constraint([(x, 2.0), (x, 3.0)], "<=", 10.0)
    assert m.constraints[cid].lhs.terms == ((x, 5.0),)


def test_term_merging_order_independent():
    rng = np.random.default_rng(7)
    m = Model()
    ids = [m.add_variable(f"x{i}") for i in range(5)]
    terms = [(ids[i % 5], float(c)) for i, c in enumerate(rng.uniform(-2, 2, 20))]
    base = LinExpr.from_terms(terms)
    for _ in range(10):
        rng.shuffle(terms)
        assert LinExpr.from_terms(terms) == base


def test_add_constraint_rejects_foreign_variable():
    m = Model()
    m.add_variable("x")
    with pytest.raises(ModelError, match="unknown variable"):
        m.add_constraint([(42, 1.0)], "<=", 1.0)


@pytest.mark.parametrize("component, message", [
    ((42, 1.0), "unknown variable id 42"),
    ((0, math.nan), "coefficient of 'x' must be finite, got nan"),
    ((0, INF), "coefficient of 'x' must be finite, got inf"),
], ids=["foreign-id", "nan", "inf"])
def test_add_constraint_checks_cone_components_like_terms(component, message):
    m = Model()
    m.add_variable("x")
    with pytest.raises(ModelError, match=re.escape(message)):
        m.add_constraint([(0, 1.0)], "<=", 1.0, cone=ConeTerm(1.0, (component,)))
    assert not m.constraints


def test_cone_only_on_le():
    m = Model()
    x = m.add_variable("x")
    cone = ConeTerm.from_components(1.0, [(x, 1.0)])
    with pytest.raises(ModelError, match="cone"):
        m.add_constraint([(x, 1.0)], "=", 1.0, cone=cone)
    with pytest.raises(ModelError):
        ConeTerm.from_components(-1.0, [(x, 1.0)])


def test_finalized_model_rejects_mutation():
    m = Model()
    m.add_variable("x")
    m.finalize()
    with pytest.raises(ModelError, match="finalized"):
        m.add_variable("y")
    m2 = m.copy()
    m2.add_variable("y")  # copies are mutable again


def test_evaluate_constraint():
    m = Model()
    x = m.add_variable("x")
    le = m.add_constraint([(x, 1.0)], "<=", 5.0)
    ge = m.add_constraint([(x, 1.0)], ">=", 2.0)
    eq = m.add_constraint([(x, 1.0)], "=", 3.0)
    cone = m.add_constraint(
        [(x, 1.0)], "<=", 10.0, cone=ConeTerm.from_components(1.0, [(x, 1.0)])
    )
    assert m.evaluate_constraint({x: 3.0}, le) == pytest.approx(-2.0)
    assert m.evaluate_constraint({x: 1.0}, ge) == pytest.approx(1.0)
    assert m.evaluate_constraint({x: 3.0}, eq) == pytest.approx(0.0)
    assert m.evaluate_constraint({x: 4.0}, cone) == pytest.approx(-2.0)
    with pytest.raises(ModelError, match="missing value"):
        m.evaluate_constraint({}, le)


def test_evaluate_constraint_is_linear_for_cone_free_rows():
    rng = np.random.default_rng(3)
    m = Model()
    ids = [m.add_variable(f"x{i}", lower=-INF) for i in range(4)]
    cid = m.add_constraint(
        [(v, float(c)) for v, c in zip(ids, rng.uniform(-3, 3, 4))], "<=",
        float(rng.uniform(-2, 2)),
    )
    for _ in range(25):
        p = dict(zip(ids, rng.uniform(-5, 5, 4)))
        q = dict(zip(ids, rng.uniform(-5, 5, 4)))
        alpha = float(rng.uniform(0, 1))
        mix = {v: alpha * p[v] + (1 - alpha) * q[v] for v in p}
        lin = (alpha * m.evaluate_constraint(p, cid)
               + (1 - alpha) * m.evaluate_constraint(q, cid))
        assert m.evaluate_constraint(mix, cid) == pytest.approx(lin, abs=1e-9)


# -- standard form -----------------------------------------------------------


def test_standard_form_trivial():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint([(x, 1.0)], "<=", 5.0)
    sf = to_standard_form(m.finalize())
    assert sf.a.shape == (1, 1)
    assert np.allclose(sf.c, [1.0])
    assert (sf.row_lo.tolist(), sf.row_hi.tolist()) == ([-INF], [5.0])


def test_standard_form_ge_row_is_a_lower_range():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.0)])
    m.add_constraint(LinExpr.from_terms([(x, 1.0)], 0.5), ">=", 2.0)
    m.add_constraint([(x, 1.0)], "=", 3.0)
    sf = to_standard_form(m.finalize())
    assert np.allclose(sf.a, [[1.0], [1.0]])
    assert (sf.row_lo.tolist(), sf.row_hi.tolist()) == ([1.5, 3.0], [INF, 3.0])


def test_standard_form_keeps_bounds_on_columns():
    m = Model()
    x = m.add_variable("x", lower=1.0, upper=4.0)
    y = m.add_variable("y", lower=-INF, upper=2.0)
    z = m.add_variable("z", lower=-INF, upper=INF)
    m.set_objective("min", LinExpr.from_terms([(x, 1.0), (y, -2.0), (z, 1.0)], 7.0))
    m.add_constraint([(x, 1.0), (z, 1.0)], "<=", 10.0)
    sf = to_standard_form(m.finalize())
    # one column per variable, bounds as given, the min objective negated
    assert (sf.col_lo.tolist(), sf.col_hi.tolist()) == ([1.0, -INF, -INF], [4.0, 2.0, INF])
    assert sf.c.tolist() == [-1.0, 2.0, -1.0] and sf.c0 == -7.0
    assert sf.model_objective(3.0) == -3.0


def test_standard_form_rejects_cones():
    m = Model()
    x = m.add_variable("x")
    m.add_constraint([(x, 1.0)], "<=", 1.0,
                     cone=ConeTerm.from_components(1.0, [(x, 1.0)]))
    with pytest.raises(ModelError, match="cone"):
        to_standard_form(m.finalize())


def test_standard_form_equivalence_on_random_models():
    """LP optima are feasible in the original model with the reported
    objective, across lower, upper-only and free bounds."""
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(100):
        m = random_lp_model(rng)
        sol = solve_lp(to_standard_form(m))
        if sol.status != "optimal":
            continue
        solved += 1
        assert m.max_violation(sol.values) <= 1e-7
        assert m.objective_value(sol.values) == pytest.approx(sol.objective, abs=1e-7)
    assert solved >= 30  # random mixed-sense rows leave plenty feasible


def _term_by_term_standard_form(model):
    """The standard form built one term at a time in Python floats: the
    reference the dense build must match bit for bit."""
    n = len(model.variables)

    def row(expr, sign=1.0):
        out = [0.0] * n
        for var_id, coeff in expr.terms:
            out[var_id] += coeff
        return [a * sign + 0.0 for a in out]

    sign = -1.0 if model.objective_sense == "min" else 1.0
    rows = model.constraints
    return {
        "c": row(model.objective, sign),
        "a": [row(con.lhs) for con in rows],
        "row_lo": [-INF if con.sense == "<=" else con.rhs - con.lhs.constant for con in rows],
        "row_hi": [INF if con.sense == ">=" else con.rhs - con.lhs.constant for con in rows],
        "col_lo": [v.lower for v in model.variables],
        "col_hi": [v.upper for v in model.variables],
    }, sign * model.objective.constant + 0.0


def test_standard_form_matches_term_by_term_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        work = random_lp_model(rng).copy()
        ids = [v.id for v in work.variables]
        work.set_objective(work.objective_sense, LinExpr.from_terms(
            work.objective.terms, float(rng.uniform(-2, 2))))
        for _ in range(3):
            picked = rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)))
            work.add_constraint(
                LinExpr.from_terms([(int(v), float(rng.uniform(-4, 4))) for v in picked],
                                   float(rng.uniform(-2, 2))),
                ("<=", ">=", "=")[int(rng.integers(0, 3))], float(rng.uniform(-5, 15)))
        sf = to_standard_form(work)
        want, c0 = _term_by_term_standard_form(work)
        for name, rows in want.items():
            got = getattr(sf, name)
            ref = np.array(rows, dtype=float).reshape(got.shape)
            # a strided c rounds c @ x differently from a contiguous one
            assert got.flags.c_contiguous and got.tobytes() == ref.tobytes(), name
        assert repr(float(sf.c0)) == repr(c0)


# -- text format ---------------------------------------------------------------


def _structurally_equal(a: Model, b: Model, rel=1e-11) -> bool:
    if len(a.variables) != len(b.variables):
        return False
    for va, vb in zip(a.variables, b.variables):
        if (va.name, va.kind) != (vb.name, vb.kind):
            return False
        for x, y in ((va.lower, vb.lower), (va.upper, vb.upper)):
            if x != y and not math.isclose(x, y, rel_tol=rel):
                return False
    if a.objective_sense != b.objective_sense:
        return False
    def expr_eq(ea, eb):
        if len(ea.terms) != len(eb.terms):
            return False
        if not math.isclose(ea.constant, eb.constant, rel_tol=rel, abs_tol=1e-300):
            return False
        return all(
            va == vb and math.isclose(ca, cb, rel_tol=rel)
            for (va, ca), (vb, cb) in zip(ea.terms, eb.terms)
        )
    if not expr_eq(a.objective, b.objective):
        return False
    if len(a.constraints) != len(b.constraints):
        return False
    for ca, cb in zip(a.constraints, b.constraints):
        if (ca.label, ca.sense) != (cb.label, cb.sense):
            return False
        if not math.isclose(ca.rhs, cb.rhs, rel_tol=rel, abs_tol=1e-300):
            return False
        if not expr_eq(ca.lhs, cb.lhs):
            return False
        if (ca.cone is None) != (cb.cone is None):
            return False
        if ca.cone is not None:
            if not math.isclose(ca.cone.scale, cb.cone.scale, rel_tol=rel):
                return False
            if not math.isclose(ca.cone.constant_inside, cb.cone.constant_inside,
                                rel_tol=rel, abs_tol=1e-300):
                return False
    return True


def test_text_round_trip_demo():
    m = Model("demo")
    x = m.add_variable("x", "continuous", 0.0, INF)
    y = m.add_variable("y", "binary")
    z = m.add_variable("z", "integer", -3, 9)
    m.set_objective("max", LinExpr.from_terms([(x, 1.5), (y, -2.0)], 0.25))
    m.add_constraint([(x, 1.0), (y, 3.5e-3)], "<=", 10.0, label="cap")
    m.add_constraint([(z, -1.0)], ">=", -4.0, label="floor")
    m.add_constraint(
        [(x, 1.0)], "<=", 19.0, label="cone_row",
        cone=ConeTerm.from_components(0.2, [(x, 2.0), (y, -1.0)], 100.0),
    )
    m.finalize()
    again = import_text(export_text(m))
    assert _structurally_equal(m, again)


def test_text_round_trip_empty_constraints():
    m = Model()
    m.add_variable("x")
    m.set_objective("min", [])
    text = export_text(m.finalize())
    again = import_text(text)
    assert len(again.constraints) == 0


def test_text_round_trip_random_models():
    rng = np.random.default_rng(99)
    for _ in range(40):
        m = random_lp_model(rng)
        assert _structurally_equal(m, import_text(export_text(m)))


def _text_fields(m: Model):
    """Everything the text format carries, compared with ``==``: floats exactly."""
    return m.variables, m.objective_sense, m.objective, m.constraints


@pytest.mark.parametrize("name", sorted(all_models()))
def test_text_round_trip_is_exact_for_fixtures(name):
    m = all_models()[name]
    assert _text_fields(import_text(export_text(m))) == _text_fields(m)


def test_text_round_trip_is_exact_for_random_models():
    rng = np.random.default_rng(99)
    for _ in range(40):
        m = random_lp_model(rng)
        assert _text_fields(import_text(export_text(m))) == _text_fields(m)


def test_import_truncated_document():
    with pytest.raises(ParseError, match="truncated"):
        import_text("#vars\nx continuous 0 inf\n")


def test_import_error_carries_line_and_column():
    text = "#vars\nx continuous 0 inf\n#obj\nmax 1*x\n#cons\nc: 1*x <= oops\n"
    with pytest.raises(ParseError) as err:
        import_text(text)
    assert err.value.line == 6
    assert err.value.col > 1


def test_import_rejects_unknown_variable():
    text = "#vars\nx continuous 0 inf\n#obj\nmax 1*q\n#cons\n"
    with pytest.raises(ParseError, match="unknown variable"):
        import_text(text)



@pytest.mark.parametrize("line, text", [
    (2, "x continuous nan 10\n#obj\nmax 1*x\n#cons\n"),
    (2, "x continuous inf inf\n#obj\nmax 1*x\n#cons\n"),
    (2, "x integer 0 nan\n#obj\nmax 1*x\n#cons\n"),
    (4, "x continuous 0 10\n#obj\nmax inf*x\n#cons\n"),
    (6, "x continuous 0 10\n#obj\nmax 1*x\n#cons\nc: 1*x + inf <= 3\n"),
], ids=["nan-lower", "inf-lower", "nan-upper", "inf-objective", "inf-constant"])
def test_import_rejects_nonfinite_data(line, text):
    with pytest.raises(ParseError) as err:
        import_text("#vars\n" + text)
    assert err.value.line == line


@pytest.mark.parametrize("line, text", [
    (2, "x continuous 0 1_0\n#obj\nmax 1*x\n#cons\n"),
    (2, "x continuous \u0660 10\n#obj\nmax 1*x\n#cons\n"),
    (4, "x continuous 0 10\n#obj\nmax \u0661*x\n#cons\n"),
    (6, "x continuous 0 10\n#obj\nmax 1*x\n#cons\nc: 1*x <= \u0661\u0660\n"),
], ids=["underscore-bound", "arabic-indic-bound", "arabic-indic-objective",
        "arabic-indic-rhs"])
def test_import_reads_ascii_numbers_only(line, text):
    """Every number of model text is ASCII decimal, scientific or inf;
    ``float`` once read these spellings in bounds and ``\\d`` in rows."""
    with pytest.raises(ParseError) as err:
        import_text("#vars\n" + text)
    assert err.value.line == line
    m = import_text("#vars\nx continuous -inf inf\n#obj\nmin 1*x\n#cons\nc: 1*x >= -inf\n")
    assert (m.variables[0].lower, m.variables[0].upper, m.constraints[0].rhs) == (
        -INF, INF, -INF)


@pytest.mark.parametrize("raw, col", [
    ("x continuous 0 1_0", 16),
    ("x   continuous   0_1   1", 18),
    ("  x continuous \u0660 10", 16),
    ("x continuous 0\t1e", 16),
], ids=["upper", "spaced-lower", "indented-lower", "tab-upper"])
def test_import_points_a_malformed_bound_at_its_column(raw, col):
    """A malformed ``#vars`` bound is reported at its own column in the raw
    line, however the fields are spaced (it was always the column just
    past ``name kind`` with single spaces)."""
    with pytest.raises(ParseError) as err:
        import_text(f"#vars\n{raw}\n#obj\nmax 1*x\n#cons\n")
    assert (err.value.line, err.value.col) == (2, col)
    assert raw[col - 1:].split()[0] in ("1_0", "0_1", "\u0660", "1e")


def test_nonfinite_coefficient_does_not_solve():
    """A row with an infinite coefficient used to solve to a point that
    breaks it (x = y = 10 against 1*x + inf*y <= 3)."""
    text = ("#vars\nx continuous 0 10\ny continuous 0 10\n#obj\nmax 1*x + 1*y\n"
            "#cons\nc: 1*x + inf*y <= 3\n")
    with pytest.raises(ParseError, match="finite"):
        import_text(text)


def test_scientific_notation_round_trip():
    m = Model()
    x = m.add_variable("x")
    m.set_objective("max", [(x, 1.23456789e-7)])
    m.add_constraint([(x, 9.87654321e5)], "<=", 1e10, label="big")
    again = import_text(export_text(m.finalize()))
    assert again.objective.terms[0][1] == pytest.approx(1.23456789e-7, rel=1e-11)
