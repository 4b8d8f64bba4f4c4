"""Independent oracles and instance generators shared by the test suite.

Everything here deliberately avoids the code paths it checks: quantiles come
from bisection on an erf-based CDF, MILP optima from exhaustive enumeration,
robust optima and worst violations from explicit corner realization, LP
optima from vertex enumeration or scipy, cone optima from an outer
approximation with HiGHS as the master.  The scalar simplex kernel is the
row-by-row pivot and the element-by-element scans of the bounded primal
(Bland) and bounded dual simplex (largest bound violation leaves, Bland's
row after a run of dual-degenerate pivots) that the solver's vectorised
kernel must reproduce pivot for pivot.  The reference Monte Carlo estimator
keeps every entry's draws and sums each row at the end, as the streaming,
concurrent estimator must reproduce bit for bit.  The restart loop is the
outer approximation for cone rows that solves a fresh branch and bound per
round of cuts, against which the solver's single-tree cone cuts are checked.
Generators are seeded and deterministic.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from scipy.optimize import Bounds, LinearConstraint, milp

from robustcounter import solver
from robustcounter.model import FEASIBILITY_TOL, LinExpr, Model, Solution, SolverStats
from robustcounter.sitesel import PopulationUnit, SiteCandidate, SiteSelectionInstance
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
)
from robustcounter.validate import ViolationEstimate


def erf_cdf_quantile(p: float) -> float:
    """Standard-normal quantile by bisection on an erf-based CDF."""
    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def poisson_tail_gt(mean: float, t: int) -> float:
    """P(X > t) for Poisson by direct CDF summation."""
    term = math.exp(-mean)
    total = term
    for k in range(1, t + 1):
        term *= mean / k
        total += term
    return 1.0 - total


def binomial_tail_gt(n: int, p: float, t: int) -> float:
    total = 0.0
    for k in range(t + 1, n + 1):
        total += math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
    return total


def reference_discrete_deviation(distribution, kappa: float) -> int:
    """Smallest t with P(X > t) <= kappa for a Poisson or binomial tag,
    summing every pmf term (in log space) from t = 0 upward."""
    if isinstance(distribution, Poisson):
        mean = distribution.mean
        log_mean = math.log(mean)
        cdf = 0.0
        t = 0
        while True:
            cdf += math.exp(t * log_mean - mean - math.lgamma(t + 1))
            if 1.0 - cdf <= kappa:
                return t
            if t > mean + 50 * math.sqrt(mean) + 50:
                raise ValueError("poisson tail search failed to converge")
            t += 1
    n, p = distribution.n, distribution.p
    if p == 0.0:
        return 0
    if p == 1.0:
        return 0 if kappa >= 1.0 else n
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    cdf = 0.0
    for t in range(n + 1):
        cdf += math.exp(log_n - math.lgamma(t + 1) - math.lgamma(n - t + 1)
                        + t * log_p + (n - t) * log_q)
        if 1.0 - cdf <= kappa:
            return t
    return n

# -- exhaustive MILP oracle -------------------------------------------------------


def brute_force_binary(model: Model, tol: float = 1e-9):
    """Enumerate every 0/1 point of an all-binary model.

    Returns (status, objective, values) with status 'optimal' or 'infeasible'.
    """
    binaries = [v.id for v in model.variables if v.kind == "binary"]
    assert len(binaries) == len(model.variables), "oracle expects all-binary models"
    best = None
    best_point = None
    sense = model.objective_sense
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        values = dict(zip(binaries, bits))
        ok = True
        for con in model.constraints:
            if model.evaluate_constraint(values, con.id) > tol:
                ok = False
                break
        if not ok:
            continue
        obj = model.objective_value(values)
        if best is None or (obj > best if sense == "max" else obj < best):
            best = obj
            best_point = values
    if best is None:
        return "infeasible", math.nan, None
    return "optimal", best, best_point


def entry_interval(nominal: float, distribution, epsilon: float):
    """An entry's interval: an explicit range as given, ``Bounded(eps_j)`` at
    its own level, every other tag at the global level."""
    if isinstance(distribution, BoundedRange):
        return distribution.low, distribution.high
    eps = epsilon
    if isinstance(distribution, Bounded) and distribution.epsilon is not None:
        eps = distribution.epsilon
    return nominal - eps * abs(nominal), nominal + eps * abs(nominal)


def reference_corner_check(model: Model, uset: UncertainSet, values,
                           epsilon: float, delta: float, tol: float = 1e-9):
    """Worst violation of every row of a cone-free model over all 2^k corners
    of its own k uncertain entries, by enumeration.

    Returns (worst violation per constraint id, certified): a row is
    certified when its worst violation stays within
    ``delta * max(1, |rhs|) + tol * max(1, |rhs|)``; rows without entries
    within the feasibility tolerance.
    """
    grouped = uset.by_constraint()
    worst: dict[int, float] = {}
    certified = True
    for con in model.constraints:
        entries = grouped.get(con.id, [])
        scale = max(1.0, abs(con.rhs))
        if not entries:
            worst[con.id] = max(0.0, model.evaluate_constraint(values, con.id))
            certified &= worst[con.id] <= FEASIBILITY_TOL + tol * scale
            continue
        coeffs = dict(con.lhs.terms)
        ends = [entry_interval(con.rhs if e.is_rhs else coeffs[e.target],
                               e.distribution, epsilon) for e in entries]
        row_worst = 0.0
        for corner in itertools.product(*ends):
            realized, rhs = dict(coeffs), con.rhs
            for entry, value in zip(entries, corner):
                if entry.is_rhs:
                    rhs = value
                else:
                    realized[entry.target] = value
            diff = con.lhs.constant + sum(
                a * values[v] for v, a in realized.items()) - rhs
            viol = {"<=": diff, ">=": -diff}.get(con.sense, abs(diff))
            row_worst = max(row_worst, viol)
        worst[con.id] = row_worst
        certified &= row_worst <= (delta + tol) * scale
    return worst, certified


# -- reference Monte Carlo estimator ------------------------------------------------


def _reference_entry_stream(seed: int, entry_index: int) -> np.random.Generator:
    key = (int(seed) & (2 ** 64 - 1)) | (int(entry_index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _reference_nominal(model: Model, entry) -> float:
    con = model.constraints[entry.constraint_id]
    if entry.is_rhs:
        return con.rhs
    return dict(con.lhs.terms)[entry.target]


def reference_sample_perturbed(nominal: float, dist, epsilon: float, rng, n: int
                      ) -> np.ndarray:
    """N realizations of one uncertain value.

    Bounded/Uniform draw a symmetric perturbation xi ~ U[-1, 1] and realize
    ``nominal * (1 + eps * xi)`` (per-entry half-widths override the global
    level); BoundedRange draws uniformly over its explicit interval; other
    tags draw xi from the tagged distribution and realize the same relative
    form, normals truncated to six standard deviations.
    """
    if isinstance(dist, BoundedRange):
        return rng.uniform(dist.low, dist.high, size=n)
    if isinstance(dist, Bounded):
        eps = dist.epsilon if dist.epsilon is not None else epsilon
        xi = rng.uniform(-1.0, 1.0, size=n)
        return nominal * (1.0 + eps * xi)
    if isinstance(dist, Uniform):
        xi = rng.uniform(-1.0, 1.0, size=n)
        return nominal * (1.0 + epsilon * xi)
    if isinstance(dist, Normal):
        xi = rng.normal(dist.mean, dist.std, size=n)
        xi = np.clip(xi, dist.mean - 6.0 * dist.std, dist.mean + 6.0 * dist.std)
        return nominal * (1.0 + epsilon * xi)
    if isinstance(dist, Poisson):
        xi = rng.poisson(dist.mean, size=n)
        return nominal * (1.0 + epsilon * xi)
    if isinstance(dist, Binomial):
        xi = rng.binomial(dist.n, dist.p, size=n)
        return nominal * (1.0 + epsilon * xi)
    if isinstance(dist, Discrete):
        xi = rng.choice(np.asarray(dist.values), size=n, p=np.asarray(dist.probs))
        return nominal * (1.0 + epsilon * xi)
    raise ValueError(f"unsupported distribution {dist!r}")


def reference_monte_carlo_check(model: Model, uncertain_set: UncertainSet,
                                solution_values, epsilon: float, delta: float,
                                n_samples: int, seed: int) -> ViolationEstimate:
    """The straightforward estimator: every entry's realizations are drawn
    and kept, then each row's realized sides are summed entry by entry.
    ``monte_carlo_check`` must reproduce it bit for bit."""
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful estimate")
    uncertain_set.validate(model)
    realizations: dict[int, np.ndarray] = {}
    for idx, entry in enumerate(uncertain_set):
        nominal = _reference_nominal(model, entry)
        rng = _reference_entry_stream(seed, idx)
        realizations[idx] = reference_sample_perturbed(
            nominal, entry.distribution, epsilon, rng, n_samples
        )

    grouped: dict[int, list[int]] = {}
    for idx, entry in enumerate(uncertain_set):
        grouped.setdefault(entry.constraint_id, []).append(idx)

    per_constraint: dict[int, float] = {}
    worst_count = 0
    entries = list(uncertain_set)
    for con_id, idxs in grouped.items():
        con = model.constraints[con_id]
        lhs = np.full(n_samples, con.lhs.value(solution_values))
        if con.cone is not None:
            lhs += con.cone.value(solution_values)
        rhs = np.full(n_samples, con.rhs)
        for idx in idxs:
            entry = entries[idx]
            nominal = _reference_nominal(model, entry)
            if entry.is_rhs:
                rhs += realizations[idx] - nominal
            else:
                lhs += (realizations[idx] - nominal) * solution_values[entry.target]
        allowance = delta * max(1.0, abs(con.rhs))
        if con.sense == "<=":
            resid = lhs - rhs
        elif con.sense == ">=":
            resid = rhs - lhs
        else:
            resid = np.abs(lhs - rhs)
        count = int(np.sum(resid > allowance + 1e-9))
        per_constraint[con_id] = count / n_samples
        worst_count = max(worst_count, count)

    frequency = worst_count / n_samples
    ci = 3.0 * math.sqrt(frequency * (1.0 - frequency) / n_samples)
    return ViolationEstimate(
        samples=n_samples,
        violations=worst_count,
        frequency=frequency,
        ci_half_width=ci,
        seed=seed,
        per_constraint=per_constraint,
    )


def _highs_rows(model: Model):
    """(c, sign, A, row lows, row highs) of a model's linear parts, for
    scipy's ``milp``: ``sign * c`` is minimized."""
    n = len(model.variables)
    a = np.zeros((len(model.constraints), n))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for r, con in enumerate(model.constraints):
        for v, coeff in con.lhs.terms:
            a[r, v] = coeff
        if con.sense in ("<=", "="):
            hi[r] = con.rhs - con.lhs.constant
        if con.sense in (">=", "="):
            lo[r] = con.rhs - con.lhs.constant
    c = np.zeros(n)
    for v, coeff in model.objective.terms:
        c[v] = coeff
    return c, -1.0 if model.objective_sense == "max" else 1.0, a, lo, hi


def _highs_milp(model: Model, c, a, lo, hi):
    return milp(c, constraints=[LinearConstraint(a, lo, hi)],
                integrality=[v.kind != "continuous" for v in model.variables],
                bounds=Bounds([v.lower for v in model.variables],
                              [v.upper for v in model.variables]),
                options={"mip_rel_gap": 0.0})


def highs_solve(model: Model):
    """(status, objective) of a cone-free model by scipy's HiGHS on matrices
    assembled from its rows; status is 'optimal', 'infeasible' or the
    scipy status code."""
    c, sign, a, lo, hi = _highs_rows(model)
    res = _highs_milp(model, sign * c, a, lo, hi)
    if res.status == 2:
        return "infeasible", math.nan
    if res.status != 0:
        return res.status, math.nan
    return "optimal", sign * res.fun + model.objective.constant


def oa_highs_solve(model: Model, tol: float = 1e-7, max_rounds: int = 1000):
    """(status, objective, rounds) of a model with square-root cone rows by
    outer approximation with HiGHS as the MILP master.

    Each cone row ``lhs + s*sqrt(k + sum((a_j x_j)^2)) <= rhs`` enters the
    master as its linear part plus ``s*sqrt(k)``, the radical's least value.
    While the master optimum x* breaks a cone row by more than ``tol``, the
    row gets the tangent plane of the radical at x*,
    ``s*(k + sum(a_j^2 x*_j x_j)) / sqrt(k + sum((a_j x*_j)^2))``, which
    never exceeds the radical.  Status is 'optimal', 'infeasible', the scipy
    status code, or 'limit' after ``max_rounds`` masters.
    """
    c, sign, a, lo, hi = _highs_rows(model)
    cone_rows = [con for con in model.constraints if con.cone is not None]
    for con in cone_rows:
        hi[con.id] -= con.cone.scale * math.sqrt(con.cone.constant_inside)
    for rounds in range(1, max_rounds + 1):
        res = _highs_milp(model, sign * c, a, lo, hi)
        if res.status == 2:
            return "infeasible", math.nan, rounds
        if res.status != 0:
            return res.status, math.nan, rounds
        x = res.x
        cuts = []
        for con in cone_rows:
            cone = con.cone
            radical = math.sqrt(cone.constant_inside
                                + sum((coeff * x[v]) ** 2 for v, coeff in cone.components))
            lhs = con.lhs.constant + sum(coeff * x[v] for v, coeff in con.lhs.terms)
            if lhs + cone.scale * radical - con.rhs > tol:
                row = a[con.id].copy()
                for v, coeff in cone.components:
                    row[v] += cone.scale * coeff * coeff * x[v] / radical
                cut_hi = (con.rhs - con.lhs.constant
                          - cone.scale * cone.constant_inside / radical)
                cuts.append((row, cut_hi))
        if not cuts:
            return "optimal", sign * res.fun + model.objective.constant, rounds
        a = np.vstack([a] + [row for row, _ in cuts])
        lo = np.concatenate([lo, np.full(len(cuts), -np.inf)])
        hi = np.concatenate([hi, [cut_hi for _, cut_hi in cuts]])
    return "limit", math.nan, max_rounds


# -- generators ---------------------------------------------------------------------


def generated_instance(units: int, sites: int, gen_seed: int):
    """Seeded ``units`` x ``sites`` site-selection instance, drawn exactly as
    the benchmark's ``bench/workloads.generate_instance`` draws it:
    populations 40-200, fixed costs 40-90, variable costs 0.05-0.2 per
    person, Dirichlet(1) choice probabilities, budget ``0.45 * sum(f) + 20``,
    enrollment floor 25, ``sites // 2`` sites at most, every cost and the
    budget uncertain."""
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


def random_binary_model(rng: np.random.Generator, n_vars: int, n_cons: int,
                        allow_negative_rhs: bool = False) -> Model:
    """Random all-binary maximization with <= rows."""
    m = Model(f"rand_{rng.integers(1 << 30)}")
    ids = [m.add_variable(f"b{i}", "binary") for i in range(n_vars)]
    obj = [(v, float(c)) for v, c in zip(ids, rng.uniform(0.1, 5.0, n_vars))]
    m.set_objective("max", obj)
    for r in range(n_cons):
        coeffs = rng.uniform(-5.0, 5.0, n_vars)
        mask = rng.random(n_vars) < 0.8
        coeffs = coeffs * mask
        pos_sum = coeffs[coeffs > 0].sum()
        if allow_negative_rhs and rng.random() < 0.15:
            rhs = float(rng.uniform(-3.0, 0.0))
        else:
            rhs = float(rng.uniform(0.5, max(pos_sum, 1.0)))
        m.add_constraint(
            [(v, float(c)) for v, c in zip(ids, coeffs) if c != 0.0],
            "<=", rhs, label=f"r{r}",
        )
    return m.finalize()


def random_uncertain_ilp(rng: np.random.Generator, max_vars: int = 6,
                         max_cons: int = 4, max_entries: int = 10
                         ) -> tuple[Model, UncertainSet]:
    """Random all-binary ILP with a bounded uncertain set on its rows.

    Right-hand sides are kept positive so the all-zero point stays robust
    feasible and every instance has a robust optimum.
    """
    n_vars = int(rng.integers(2, max_vars + 1))
    n_cons = int(rng.integers(1, max_cons + 1))
    model = random_binary_model(rng, n_vars, n_cons)
    candidates = []
    for con in model.constraints:
        for var_id, coeff in con.lhs.terms:
            if coeff != 0.0:
                candidates.append((con.id, var_id))
        candidates.append((con.id, RHS))
    rng.shuffle(candidates)
    n_entries = int(rng.integers(1, min(max_entries, len(candidates)) + 1))
    uset = UncertainSet()
    for cid, target in candidates[:n_entries]:
        uset.add(cid, target, Bounded())
    return model, uset


def random_rc_instance(rng: np.random.Generator, max_vars: int = 4,
                       max_entries: int = 5) -> tuple[Model, UncertainSet]:
    """Random bounded-variable LP with uniform-perturbation uncertain entries
    on a single binding row (for the reliability-guarantee checks)."""
    n_vars = int(rng.integers(2, max_vars + 1))
    m = Model(f"rc_{rng.integers(1 << 30)}")
    ids = [m.add_variable(f"x{i}", "continuous", 0.0, 10.0) for i in range(n_vars)]
    m.set_objective("max", [(v, float(c)) for v, c in zip(ids, rng.uniform(0.5, 3.0, n_vars))])
    coeffs = rng.uniform(0.5, 3.0, n_vars)
    rhs = float(rng.uniform(5.0, 20.0))
    m.add_constraint([(v, float(c)) for v, c in zip(ids, coeffs)], "<=", rhs,
                     label="cap")
    m.finalize()
    n_entries = int(rng.integers(1, min(max_entries, n_vars) + 1))
    uset = UncertainSet()
    chosen = rng.choice(n_vars, size=n_entries, replace=False)
    for i in sorted(int(j) for j in chosen):
        uset.add(0, ids[i], Uniform())
    if rng.random() < 0.5:
        uset.add(0, RHS, Uniform())
    return m, uset


def random_lp_model(rng: np.random.Generator, max_vars: int = 5,
                    max_cons: int = 5) -> Model:
    """Random continuous model with mixed senses, shifts, and free variables."""
    n_vars = int(rng.integers(1, max_vars + 1))
    n_cons = int(rng.integers(1, max_cons + 1))
    m = Model(f"lp_{rng.integers(1 << 30)}")
    ids = []
    for i in range(n_vars):
        style = rng.random()
        if style < 0.6:
            lo, hi = 0.0, math.inf
        elif style < 0.75:
            lo, hi = float(rng.uniform(-5, 1)), float(rng.uniform(2, 8))
        elif style < 0.9:
            lo, hi = -math.inf, float(rng.uniform(0, 8))
        else:
            lo, hi = -math.inf, math.inf
        ids.append(m.add_variable(f"x{i}", "continuous", lo, hi))
    sense = "max" if rng.random() < 0.5 else "min"
    m.set_objective(sense, [(v, float(c)) for v, c in zip(ids, rng.uniform(-3, 3, n_vars))])
    for r in range(n_cons):
        coeffs = rng.uniform(-4.0, 4.0, n_vars)
        row_sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        rhs = float(rng.uniform(-5.0, 15.0))
        m.add_constraint([(v, float(c)) for v, c in zip(ids, coeffs)],
                         row_sense, rhs, label=f"r{r}")
    # box the whole problem so optima stay finite
    for i, v in enumerate(ids):
        m.add_constraint([(v, 1.0)], "<=", 50.0, label=f"cap_hi_{i}")
        m.add_constraint([(v, 1.0)], ">=", -50.0, label=f"cap_lo_{i}")
    return m.finalize()


def _binary_matrices(model: Model):
    """Dense (A, senses, b, c, const) extraction for all-binary models."""
    n = len(model.variables)
    rows = len(model.constraints)
    a = np.zeros((rows, n))
    b = np.zeros(rows)
    senses = []
    consts = np.zeros(rows)
    for r, con in enumerate(model.constraints):
        for var_id, coeff in con.lhs.terms:
            a[r, var_id] = coeff
        b[r] = con.rhs
        consts[r] = con.lhs.constant
        senses.append(con.sense)
    c = np.zeros(n)
    for var_id, coeff in model.objective.terms:
        c[var_id] = coeff
    return a, senses, b, c, consts


def all_binary_points(n: int) -> np.ndarray:
    """(2^n, n) matrix of every 0/1 assignment, column 0 most significant."""
    count = 1 << n
    idx = np.arange(count, dtype=np.uint32)[:, None]
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)[None, :]
    return ((idx >> shifts) & 1).astype(float)


def brute_force_binary_fast(model: Model, tol: float = 1e-9):
    """Vectorized exhaustive enumeration of an all-binary linear model."""
    a, senses, b, c, consts = _binary_matrices(model)
    n = a.shape[1]
    points = all_binary_points(n)
    lhs = points @ a.T + consts[None, :]
    feasible = np.ones(points.shape[0], dtype=bool)
    for r, sense in enumerate(senses):
        if sense == "<=":
            feasible &= lhs[:, r] <= b[r] + tol
        elif sense == ">=":
            feasible &= lhs[:, r] >= b[r] - tol
        else:
            feasible &= np.abs(lhs[:, r] - b[r]) <= tol
    if not feasible.any():
        return "infeasible", math.nan, None
    objs = points @ c + model.objective.constant
    objs = np.where(feasible, objs, -np.inf if model.objective_sense == "max" else np.inf)
    best_idx = int(np.argmax(objs) if model.objective_sense == "max"
                   else np.argmin(objs))
    values = {i: float(points[best_idx, i]) for i in range(n)}
    return "optimal", float(objs[best_idx]), values


def brute_force_robust_binary_fast(model: Model, uset: UncertainSet,
                                   epsilon: float, delta: float,
                                   tol: float = 1e-9):
    """Vectorized robust optimum: all 0/1 points x all uncertainty corners.

    Feasibility requires the nominal rows plus, for every uncertain row and
    every corner realization of its entries, the realized row within the
    delta * max(1, |rhs|) allowance.
    """
    a, senses, b, c, consts = _binary_matrices(model)
    n = a.shape[1]
    points = all_binary_points(n)
    lhs = points @ a.T + consts[None, :]
    feasible = np.ones(points.shape[0], dtype=bool)
    for r, sense in enumerate(senses):
        if sense == "<=":
            feasible &= lhs[:, r] <= b[r] + tol
        elif sense == ">=":
            feasible &= lhs[:, r] >= b[r] - tol
        else:
            feasible &= np.abs(lhs[:, r] - b[r]) <= tol

    for cid, entries in uset.by_constraint().items():
        con = model.constraints[cid]
        coeff_entries = [e for e in entries if not e.is_rhs]
        rhs_uncertain = any(e.is_rhs for e in entries)
        k = len(coeff_entries)
        bits = all_binary_points(k) if k else np.zeros((1, 0))
        lows = np.array([
            a[cid, e.target] - epsilon * abs(a[cid, e.target])
            for e in coeff_entries
        ])
        highs = np.array([
            a[cid, e.target] + epsilon * abs(a[cid, e.target])
            for e in coeff_entries
        ])
        cols = [e.target for e in coeff_entries]
        base = lhs[:, cid]
        if k:
            deltas = bits * (highs - lows)[None, :] + lows[None, :] - a[cid, cols][None, :]
            shift = deltas @ points[:, cols].T  # corners x points
            realized = base[None, :] + shift
        else:
            realized = base[None, :]
        worst_lhs = realized.max(axis=0)
        rhs_values = [con.rhs]
        if rhs_uncertain:
            rhs_values = [con.rhs - epsilon * abs(con.rhs),
                          con.rhs + epsilon * abs(con.rhs)]
        allowance = delta * max(1.0, abs(con.rhs))
        worst_rhs = min(rhs_values)
        feasible &= worst_lhs <= worst_rhs + allowance + tol

    if not feasible.any():
        return "infeasible", math.nan, None
    objs = points @ c + model.objective.constant
    objs = np.where(feasible, objs, -np.inf)
    best_idx = int(np.argmax(objs))
    values = {i: float(points[best_idx, i]) for i in range(n)}
    return "optimal", float(objs[best_idx]), values


# -- scalar simplex kernel ------------------------------------------------------


def reference_branching_var(is_int, values, tol: float):
    """Most fractional integer variable by a scalar scan: the distance to the
    nearest integer closest to 0.5, ties to the lowest id; None when every
    integer variable is within ``tol`` of an integer."""
    fractional = []
    for var_id, integer in enumerate(is_int):
        val = values[var_id]
        frac = abs(val - round(val))
        if integer and frac > tol:
            fractional.append((abs(frac - 0.5), var_id))
    return min(fractional)[1] if fractional else None


_PIVOT_TOL = 1e-9


def reference_pivot(tab, basis, row, col):
    """Row-by-row pivot: rows whose pivot-column entry is within the
    tolerance are skipped."""
    tab[row] /= tab[row, col]
    piv_row = tab[row]
    for r in range(tab.shape[0]):
        if r != row and abs(tab[r, col]) > _PIVOT_TOL:
            tab[r] -= tab[r, col] * piv_row
    basis[row] = col


def reference_run_dual(tab, basis, x, lo, hi, tol, bland_after, deadline=math.inf,
                       max_iter=1_000_000):
    """Bounded dual simplex with scalar scans: the leaving row is, among rows
    whose value is more than the pivot tolerance outside its bounds, the one
    that lies farthest beyond its bound widened by that tolerance (the lowest
    row among ties); after ``bland_after`` dual-degenerate pivots in a row
    (smallest ratio within the pivot tolerance) it is instead the one with
    the lowest basis index (Bland's), until a pivot that is not degenerate.
    It leaves at the bound it breaks.  The entering column can move that
    value towards the bound from where it sits and has the smallest ratio
    ``|d_j| / |a_rj|``, ratios within the pivot tolerance of the smallest
    going to the largest ``|a_rj|`` and then to the lowest index.  A leaving
    row with no entering column is skipped until the next pivot when its
    value is within ``tol`` of its bounds, and ends the run 'infeasible'
    otherwise.  Stops with 'limit' when a pivot is due at or after
    ``deadline``."""
    m = len(basis)
    iters = degenerate = 0
    skipped = set()
    while iters < max_iter:
        leave, below, worst = -1, False, 0.0
        for r in range(m):
            p = basis[r]
            low = x[p] < lo[p] - _PIVOT_TOL
            excess = max(lo[p] - _PIVOT_TOL - x[p], x[p] - (hi[p] + _PIVOT_TOL))
            if r in skipped or excess <= 0.0:
                continue
            if leave < 0 or (p < basis[leave] if degenerate >= bland_after else excess > worst):
                leave, below, worst = r, low, excess
        if leave < 0:
            return "optimal", iters
        if time.monotonic() >= deadline:
            return "limit", iters
        eligible = []
        for j in range(tab.shape[1]):
            a = tab[leave, j] if below else -tab[leave, j]
            if (a < -_PIVOT_TOL and x[j] < hi[j]) or (a > _PIVOT_TOL and x[j] > lo[j]):
                eligible.append((-tab[-1, j] / a, abs(a), j))
        if not eligible:
            p = basis[leave]
            if lo[p] - tol <= x[p] <= hi[p] + tol:
                skipped.add(leave)
                continue
            return "infeasible", iters
        best = min(ratio for ratio, _, _ in eligible)
        degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
        enter, size = -1, 0.0
        for ratio, a, j in eligible:
            if ratio <= best + _PIVOT_TOL and a > size:
                enter, size = j, a
        p = basis[leave]
        target = lo[p] if below else hi[p]
        step = (x[p] - target) / tab[leave, enter]
        for r in range(m):
            x[basis[r]] -= step * tab[r, enter]
        x[enter] += step
        x[p] = target
        reference_pivot(tab, basis, leave, enter)
        skipped.clear()
        iters += 1
    return "limit", iters


def reference_run_primal(tab, basis, x, lo, hi, deadline=math.inf, max_iter=1_000_000):
    """Bounded primal simplex with scalar scans: the first nonbasic column
    whose reduced cost improves in a direction its bounds leave open enters;
    it moves until a basic value meets a bound (ratios within the tolerance
    of the smallest go to the lowest basis index) or, when that comes no
    later, its own other bound, and then flips to it.  Returns (status,
    iterations, entering column)."""
    m = len(basis)
    iters = 0
    while iters < max_iter:
        enter = -1
        for j in range(tab.shape[1]):
            d = tab[-1, j]
            if j not in basis and ((d < -_PIVOT_TOL and x[j] < hi[j])
                                   or (d > _PIVOT_TOL and x[j] > lo[j])):
                enter = j
                break
        if enter < 0:
            return "optimal", iters, -1
        if time.monotonic() >= deadline:
            return "limit", iters, -1
        sign = 1.0 if tab[-1, enter] < 0 else -1.0
        ratios = []
        for r in range(m):
            a, p = sign * tab[r, enter], basis[r]
            if a > _PIVOT_TOL:
                ratios.append((max((x[p] - lo[p]) / a, 0.0), r))
            elif a < -_PIVOT_TOL:
                ratios.append((max((hi[p] - x[p]) / -a, 0.0), r))
        step = min((ratio for ratio, _ in ratios), default=math.inf)
        span = hi[enter] - lo[enter]
        iters += 1
        if span <= step:
            if span == math.inf:
                return "unbounded", iters - 1, enter
            for r in range(m):
                x[basis[r]] -= sign * tab[r, enter] * span
            x[enter] = hi[enter] if sign > 0 else lo[enter]
            continue
        leave = min((r for ratio, r in ratios if ratio <= step + _PIVOT_TOL),
                    key=lambda r: basis[r])
        for r in range(m):
            x[basis[r]] -= sign * tab[r, enter] * step
        x[enter] += sign * step
        p = basis[leave]
        x[p] = lo[p] if sign * tab[leave, enter] > 0 else hi[p]
        reference_pivot(tab, basis, leave, enter)
    return "limit", iters, -1


# -- restart loop for cone rows ---------------------------------------------------


def reference_tangent_cut(cone, values):
    """The tangent plane of ``f(x) = s * sqrt(c0 + sum_j (c_j x_j)^2)`` at
    ``values``, as (terms, constant) on the row's left-hand side.

    With ``g = sqrt(c0 + sum_j (c_j xbar_j)^2) > 0`` the gradient is
    ``s * c_j^2 * xbar_j / g``, and ``f(xbar) - grad . xbar`` simplifies to
    ``s * c0 / g``.  At ``g = 0`` (``c0 = 0`` and every ``c_j xbar_j = 0``)
    ``f`` has no gradient; the cut is ``s * c_j * sign(xbar_j) * x_j``, which
    lies below ``s * |c_j x_j| <= f``, for the component with the largest
    ``|c_j|`` (lowest variable id on ties; ``sign(0)`` is 1)."""
    scale, c0 = cone.scale, cone.constant_inside
    g = math.sqrt(c0 + sum((c * values[v]) ** 2 for v, c in cone.components))
    if g > 1e-12:
        return [(v, scale * c * c * values[v] / g) for v, c in cone.components], scale * c0 / g
    if not cone.components:
        return [], 0.0
    best = max(abs(c) for _, c in cone.components)
    v, c = min((v, c) for v, c in cone.components if abs(c) == best)
    return [(v, scale * c * (1.0 if values[v] >= 0 else -1.0))], 0.0


def reference_solve_cone(model: Model, max_rounds: int = 200):
    """Outer approximation by restarts: each round solves a fresh branch and
    bound over the model with every cone row at its radical floor plus every
    cut so far, then cuts the rows the incumbent violates by more than 1e-6.
    Returns the first incumbent that satisfies every cone row, a non-optimal
    round's Solution as it is, or ``limit_reached`` after ``max_rounds``."""
    cone_rows = [c for c in model.constraints if c.cone is not None]
    work = model.copy()
    for con in cone_rows:
        floor_const = con.cone.scale * math.sqrt(con.cone.constant_inside)
        relaxed = LinExpr.from_terms(con.lhs.terms, con.lhs.constant + floor_const)
        work.constraints[con.id] = replace(con, lhs=relaxed, cone=None)
    total = SolverStats()
    for _ in range(max_rounds):
        sol = solver.solve_milp(work.finalize())
        total.nodes += sol.stats.nodes
        total.iterations += sol.stats.iterations
        sol.stats = total
        if sol.status != "optimal":
            return sol
        violated = [con for con in cone_rows
                    if con.lhs.value(sol.values) + con.cone.value(sol.values) - con.rhs
                    > 1e-6]
        if not violated:
            return sol
        work = work.copy()
        for con in violated:
            terms, constant = reference_tangent_cut(con.cone, sol.values)
            total.cone_cuts += 1
            work.add_constraint(
                LinExpr.from_terms(list(con.lhs.terms) + list(terms),
                                   con.lhs.constant + constant),
                "<=", con.rhs, label=f"{con.label}__cut{total.cone_cuts}",
            )
    return Solution("limit_reached", {}, math.nan, total)
