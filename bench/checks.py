"""Check every operation's outputs against the oracles.

``check_<workload>(workload, records)`` takes the records of one pass, keyed
by operation, and returns ``(results, problems)``: per operation a
:class:`Result`, and the workload-wide properties that failed.
"""

from __future__ import annotations

from dataclasses import dataclass

from robustcounter.model import import_text

import oracles
import workloads

ROW_TOL = 1e-6     # the solver's cone-cut tolerance, per unit of |rhs|
CERT_TOL = 1e-9


@dataclass
class Result:
    ok: bool
    message: str = ""
    expected: bool = False   # failed because of a named fault


def _solved(rec) -> str | None:
    if rec["status"] != "optimal":
        return f"status {rec['status']}"
    viol = oracles.max_row_violation(rec["model"], rec["values"])
    if viol > ROW_TOL:
        return f"point violates a row or bound by {viol:.3g}"
    return None


def _highs_problem(rec) -> str | None:
    status, want = oracles.highs_solve(rec["model"])
    if status != "optimal":
        return f"HiGHS status {status}"
    if not oracles.rel_close(rec["objective"], want):
        return f"objective {rec['objective']!r} but HiGHS gives {want!r}"
    return None


# -- hk_sweep ---------------------------------------------------------------------


def check_hk_sweep(workload, records):
    results = {}
    objective = {}
    for op in workload.ops:
        rec = records[op.key]
        eps, delta, kappa = op.spec
        problem = _solved(rec)
        if problem is None:
            if kappa == 1.0 or eps == 0.0:
                problem = _highs_problem(rec)
            else:
                problem = _brute_force(rec)
        results[op.key] = Result(problem is None, problem or "")
        objective[op.spec] = rec["objective"]
    # objectives fall in eps and rise in delta and kappa; the kappa axis is
    # listed from 1 down, so along every axis the required sign of
    # (next - this) is: eps -1, delta +1, kappa -1
    problems = []
    axes = (workloads.HK_EPS, workloads.HK_DELTA, workloads.HK_KAPPA)
    for axis, sign in ((0, -1.0), (1, 1.0), (2, -1.0)):
        for cell, obj in objective.items():
            values = axes[axis]
            pos = values.index(cell[axis])
            if pos + 1 == len(values):
                continue
            nxt = list(cell)
            nxt[axis] = values[pos + 1]
            other = objective[tuple(nxt)]
            if sign * (other - obj) < -oracles.REL_TOL * max(1.0, abs(obj)):
                problems.append(f"objective not monotone from {cell} to "
                                f"{tuple(nxt)}: {obj!r} -> {other!r}")
    return results, problems


def _brute_force(rec) -> str | None:
    # a binary point whose cone row lands within the solver's cut tolerance
    # of its bound may count either way, so both readings are accepted
    brute = oracles.ConeBruteForce(rec["model"])
    scale = max(1.0, abs(brute.cone_row[3]))
    strict = brute.optimum(-1e-7 * scale)
    loose = brute.optimum(1e-5 * scale)
    got = rec["objective"]
    if oracles.rel_close(got, strict) or oracles.rel_close(got, loose):
        return None
    return f"objective {got!r} but brute force gives {strict!r}"


# -- gen_milp -----------------------------------------------------------------------


def check_gen_milp(workload, records):
    results = {}
    for op in workload.ops:
        rec = records[op.key]
        m, n, g, form = op.spec
        problem = _solved(rec)
        if problem is None:
            problem = _highs_problem(rec)
        if problem is None and form == "irc":
            inst = workload.data["instances"][(m, n, g)]
            viol, allowance = _budget_worst_case(inst, rec)
            if viol > allowance + ROW_TOL * max(1.0, inst.budget):
                problem = (f"IRC point exceeds the interval worst case of the "
                           f"budget row by {viol - allowance:.3g}")
        results[op.key] = Result(problem is None, problem or "")
    return results, []


def _budget_worst_case(inst, rec):
    """Worst violation of the nominal budget row at the IRC point, with
    every fixed cost, variable cost and the budget in its eps-interval."""
    model, values = rec["model"], rec["values"]
    point, coeffs, tags = {}, {}, {}
    for j, site in enumerate(inst.sites):
        name = f"y_{site.id}"
        point[name] = values[model.variable_by_name(name).id]
        coeffs[name] = site.fixed_cost
        tags[name] = ("bounded", ())
        for i, unit in enumerate(inst.units):
            name = f"x_{unit.id}_{site.id}"
            point[name] = values[model.variable_by_name(name).id]
            coeffs[name] = (site.variable_cost * unit.population
                            * float(inst.probabilities[i, j]))
            tags[name] = ("bounded", ())
    tags["RHS"] = ("bounded", ())
    viol = oracles.separable_violation(coeffs, inst.budget, tags, point,
                                       workloads.GEN_EPS)
    return viol, workloads.GEN_DELTA * max(1.0, inst.budget)


# -- certify --------------------------------------------------------------------------


def check_certify(workload, records):
    results = {}
    for op in workload.ops:
        rec = records[op.key]
        spec = op.spec
        problem = _certify_problem(spec, rec)
        if problem is None:
            results[op.key] = Result(True)
        elif op.expect_fault and problem.startswith("not robust"):
            results[op.key] = Result(False, f"{problem}; cause: {op.expect_fault}",
                                     expected=True)
        else:
            results[op.key] = Result(False, problem)
    return results, []


def _certify_problem(spec, rec) -> str | None:
    counterpart = rec["model"]
    reread = import_text(rec["text"])
    if (len(reread.variables), len(reread.constraints)) != (
            len(counterpart.variables), len(counterpart.constraints)):
        return "exported counterpart text does not re-read to the same shape"
    problem = _solved(rec)
    if problem:
        return problem
    if spec.mode == "irc":
        problem = _highs_problem(rec)
        if problem:
            return problem
    nominal = rec["nominal"]
    if rec["corner"] is not None:
        report = rec["corner"]
        point = {v.name: rec["values"][v.id] for v in nominal.variables}
        worst = {row.label: oracles.separable_violation(
                     row.coeffs, row.rhs, row.tags, point, spec.epsilon)
                 for row in spec.rows}
        for row in spec.rows:
            cid = nominal.constraint_by_label(row.label).id
            mine = max(0.0, worst[row.label])
            if abs(report.worst_violation[cid] - mine) > CERT_TOL * max(1.0, abs(row.rhs)):
                return (f"corner_check worst violation {report.worst_violation[cid]!r} "
                        f"on {row.label} but the separable worst case is {mine!r}")
        allowed = all(max(0.0, worst[r.label])
                      <= spec.delta * max(1.0, abs(r.rhs)) + CERT_TOL
                      for r in spec.rows if r.tags)
        if report.certified != allowed:
            return (f"corner_check says certified={report.certified}, the "
                    f"separable worst case says {allowed}")
        if not report.certified:
            return f"not robust: corner violation {max(worst.values()):.4g}"
    if rec["mc"] is not None:
        est = rec["mc"]
        if est.samples != workloads.MC_SAMPLES:
            return f"Monte Carlo drew {est.samples} samples"
        if spec.mode == "irc" and est.violations:
            return f"not robust: Monte Carlo found {est.violations} violations of an IRC point"
        bound = oracles.mc_bound(spec.kappa, est.samples)
        if spec.mode == "rc" and est.frequency > bound:
            return (f"not robust: violation frequency {est.frequency} above "
                    f"kappa + 3 sigma = {bound:.5f}")
    return None


CHECKS = {
    "hk_sweep": check_hk_sweep,
    "gen_milp": check_gen_milp,
    "certify": check_certify,
}
