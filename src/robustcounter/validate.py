"""Independent verification of robustness claims.

Three checks, all operating on a *nominal* model, an uncertain set, and a
candidate solution:

* :func:`corner_check` -- exact worst-case certification for bounded
  uncertainty.  The worst corner of each row is found entry by entry (the
  worst case is separable); certification requires every violation to stay
  within the ``delta * max(1, |rhs|)`` allowance.
* :func:`monte_carlo_check` -- violation-probability estimation for random
  uncertainty, with splittable per-entry random streams so adding an entry
  never perturbs the draws of the others.
* :func:`sweep` -- solve a builder across an (epsilon, delta, kappa) grid and
  tabulate objectives against the nominal solve, serially or on an executor.

Sweep grid points are embarrassingly parallel; the estimator is sequential
per seed to keep reproducibility.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import FEASIBILITY_TOL, Model
from .solver import SolverOptions, solve
from .uncertainty import (
    Bounded,
    BoundedRange,
    Binomial,
    Discrete,
    Normal,
    Poisson,
    Uniform,
    UncertainSet,
    bounded_interval,
)

_CERT_TOL = 1e-9


@dataclass
class CornerReport:
    """Worst-case certification over all interval corners."""

    corners_checked: int
    worst_violation: dict[int, float]
    certified: bool
    allowance: dict[int, float] = field(default_factory=dict)


@dataclass
class ViolationEstimate:
    """Monte Carlo estimate of the worst per-constraint violation probability."""

    samples: int
    violations: int
    frequency: float
    ci_half_width: float
    seed: int
    per_constraint: dict[int, float] = field(default_factory=dict)


def _nominal_coefficient(model: Model, entry) -> float:
    con = model.constraints[entry.constraint_id]
    if entry.is_rhs:
        return con.rhs
    return dict(con.lhs.terms)[entry.target]


def corner_check(model: Model, uncertain_set: UncertainSet, solution_values,
                 epsilon: float, delta: float) -> CornerReport:
    """Certify a solution against the worst corner of the uncertainty box.

    Each uncertain entry belongs to exactly one row and ranges over its own
    interval (:func:`bounded_interval`), independently of the others, so the
    worst case of a row is separable: for a ``<=`` row it is
    ``sum_j max(lo_j x_j, hi_j x_j) - rhs_lo``, ``>=`` rows mirror it and
    ``=`` rows take the larger of the two sides.  That is the worst of all
    ``2**len(uncertain_set)`` corners, which ``corners_checked`` reports,
    without enumerating them.  Certification requires every violation to stay
    within the ``delta * max(1, |rhs|)`` allowance.  Constraints without
    uncertain entries are checked for plain feasibility.

    Only bounded interval distributions are supported; use
    :func:`monte_carlo_check` for random ones.
    """
    uncertain_set.validate(model)
    for entry in uncertain_set:
        if not isinstance(entry.distribution, (Bounded, BoundedRange)):
            raise ValueError(
                f"corner_check supports bounded distributions only, got "
                f"{type(entry.distribution).__name__}; use monte_carlo_check"
            )

    grouped = uncertain_set.by_constraint()
    worst: dict[int, float] = {}
    allowance: dict[int, float] = {}
    for con in model.constraints:
        entries = grouped.get(con.id, [])
        if not entries:
            resid = model.evaluate_constraint(solution_values, con.id)
            worst[con.id] = max(0.0, resid)
            allowance[con.id] = FEASIBILITY_TOL
            continue
        allowance[con.id] = delta * max(1.0, abs(con.rhs))
        lhs = con.lhs.value(solution_values)
        if con.cone is not None:
            lhs += con.cone.value(solution_values)
        lhs_low = lhs_high = lhs
        rhs_low = rhs_high = con.rhs
        for entry in entries:
            nominal = _nominal_coefficient(model, entry)
            low, high = bounded_interval(nominal, entry.distribution, epsilon)
            if entry.is_rhs:
                rhs_low, rhs_high = low, high
                continue
            x = solution_values[entry.target]
            shifts = ((low - nominal) * x, (high - nominal) * x)
            lhs_low += min(shifts)
            lhs_high += max(shifts)
        over, under = lhs_high - rhs_low, rhs_high - lhs_low
        viol = {"<=": over, ">=": under}.get(con.sense, max(over, under))
        worst[con.id] = max(0.0, viol)
    certified = all(
        worst[cid] <= allowance[cid] + _CERT_TOL for cid in worst
    )
    corners = 2 ** len(uncertain_set)
    return CornerReport(corners, worst, certified, allowance)


# -- Monte Carlo ----------------------------------------------------------------


def _entry_stream(seed: int, entry_index: int) -> np.random.Generator:
    """Philox counter-based stream keyed by (seed, entry index).

    The 128-bit key places the seed in the low word and the entry index in
    the high word, so streams are independent per entry and adding an entry
    leaves the others' draws untouched.
    """
    key = (int(seed) & (2 ** 64 - 1)) | (int(entry_index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_perturbed(nominal: float, dist, epsilon: float, rng, n: int
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


def monte_carlo_check(model: Model, uncertain_set: UncertainSet, solution_values,
                      epsilon: float, delta: float, n_samples: int, seed: int
                      ) -> ViolationEstimate:
    """Estimate the violation probability of a solution under random data.

    A realization violates row i when its realized left-hand side exceeds the
    realized right-hand side by more than ``delta * max(1, |rhs|)`` (plus a
    1e-9 guard for solver noise).  The reported frequency is the worst row's
    frequency, matching the per-row form of the reliability guarantee;
    per-row frequencies ride along.  Identical seeds give identical
    estimates bit for bit.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful estimate")
    uncertain_set.validate(model)
    realizations: dict[int, np.ndarray] = {}
    for idx, entry in enumerate(uncertain_set):
        nominal = _nominal_coefficient(model, entry)
        rng = _entry_stream(seed, idx)
        realizations[idx] = _sample_perturbed(
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
            nominal = _nominal_coefficient(model, entry)
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
        count = int(np.sum(resid > allowance + _CERT_TOL))
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


# -- parameter sweeps -------------------------------------------------------------


@dataclass
class SweepRow:
    epsilon: float
    delta: float
    kappa: float
    status: str
    objective: float
    nominal_objective: float
    relative_gap: float


def _solve_cell(builder, options, point) -> tuple[str, float]:
    try:
        sol = solve(builder(*point), options)
        return sol.status, sol.objective
    except Exception:  # individual failures must not kill the sweep
        return "error", math.nan


def sweep(builder, grid, options: SolverOptions | None = None,
          executor=None) -> list[SweepRow]:
    """Solve ``builder(eps, delta, kappa)`` at every grid point.

    The nominal point (0, 0, 1) comes first, added when the grid does not
    contain it.  Individual failures are recorded as status ``error`` and
    the sweep continues.  ``relative_gap`` is the objective shortfall
    relative to the nominal optimum.  ``executor`` (anything with ``map``,
    such as a ``ProcessPoolExecutor``) runs the cells; a process pool needs
    a picklable builder.
    """
    points = [tuple(map(float, p)) for p in grid]
    if not points:
        raise ValueError("sweep grid is empty")
    nominal_point = (0.0, 0.0, 1.0)
    points = [nominal_point] + [p for p in points if p != nominal_point]
    cell = functools.partial(_solve_cell, builder, options)
    results = list((executor.map if executor is not None else map)(cell, points))
    status, nominal_objective = results[0]
    if status != "optimal":
        nominal_objective = math.nan
    rows: list[SweepRow] = []
    for (eps, delta, kappa), (status, objective) in zip(points, results):
        gap = math.nan
        if status == "optimal" and math.isfinite(nominal_objective):
            denom = abs(nominal_objective) if nominal_objective != 0 else 1.0
            gap = (nominal_objective - objective) / denom
        rows.append(SweepRow(eps, delta, kappa, status, objective,
                             nominal_objective, gap))
    return rows


def write_sweep_csv(rows, fh) -> None:
    """Write sweep rows as CSV at full precision (repr of each float)."""
    writer = csv.writer(fh)
    writer.writerow(["epsilon", "delta", "kappa", "status", "objective",
                     "nominal_objective", "relative_gap"])
    for row in rows:
        writer.writerow([
            repr(row.epsilon), repr(row.delta), repr(row.kappa), row.status,
            repr(row.objective), repr(row.nominal_objective),
            repr(row.relative_gap),
        ])
