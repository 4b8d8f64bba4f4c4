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

Sweep grid points are embarrassingly parallel.  The estimator walks its
samples in fixed blocks on the calling thread, each entry drawing from its
own counter-based stream that continues from block to block, and adds the
terms to their rows in entry order: it holds a few one-block buffers and
one generator per drawn entry, whatever the sample count, and its bits do
not depend on the block size.  It draws nothing for a coefficient of a
variable at 0, nor for a row whose worst realization in its tags' support,
plus a stated rounding margin, stays within its allowance; the estimate
stays the one with every entry drawn, bit for bit.
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
    _is_int,
    bounded_interval,
    check_levels,
    slack_allowance,
)

_CERT_TOL = 1e-9
_MC_BLOCK = 8192  # samples per Monte Carlo block: 64 KiB per float64 buffer


@dataclass
class CornerReport:
    """Worst-case certification over all interval corners."""

    corners_checked: int
    worst_violation: dict[int, float]
    certified: bool


@dataclass
class ViolationEstimate:
    """Monte Carlo estimate of the worst per-constraint violation probability."""

    samples: int
    violations: int
    frequency: float
    ci_half_width: float
    seed: int
    per_constraint: dict[int, float] = field(default_factory=dict)


def _require_finite_values(model: Model, solution_values, constraints) -> None:
    """Reject a missing, NaN or infinite value of any variable the rows read.

    A NaN row fails every comparison and so would pass as satisfied, and an
    infinite value turns a deviation into ``inf - inf``.
    """
    for con in constraints:
        var_ids = [v for v, _ in con.lhs.terms]
        if con.cone is not None:
            var_ids += [v for v, _ in con.cone.components]
        for var_id in var_ids:
            name = model.variables[var_id].name
            if var_id not in solution_values:
                raise ValueError(f"solution_values has no value for variable {name}")
            value = solution_values[var_id]
            if not math.isfinite(value):
                raise ValueError(
                    f"solution value of {name} is {value}; values must be finite")


def _nominal_coefficient(model: Model, entry) -> float:
    con = model.constraints[entry.constraint_id]
    if entry.is_rhs:
        return con.rhs
    return dict(con.lhs.terms)[entry.target]


def _nominal_lhs(con, solution_values) -> float:
    """The row's left-hand side at the point, cone term included."""
    lhs = con.lhs.value(solution_values)
    if con.cone is not None:
        lhs += con.cone.value(solution_values)
    return lhs


def _worst_residual(model: Model, con, entries, solution_values, epsilon: float,
                    interval=bounded_interval) -> tuple[float, float] | None:
    """Greatest residual of row ``con`` over its ``entries``, each anywhere
    in its own ``interval(nominal, distribution, epsilon)`` independently of
    the others, and the row's magnitude ``S = |lhs0| + |rhs| + sum_j m_j
    |x_j|`` (``m_j = max(|a_j|, |lo_j|, |hi_j|)``, inf from 2**1000 on);
    None when an interval is None.  The worst case is separable: ``lhs0 +
    sum_j max((lo_j - a_j) x_j, (hi_j - a_j) x_j) - rhs_lo`` for a ``<=``
    row, mirrored for ``>=`` and the larger side for ``=``.
    """
    lhs_low = lhs_high = lhs = _nominal_lhs(con, solution_values)
    rhs_low = rhs_high = con.rhs
    size = abs(lhs) + abs(con.rhs)
    for entry in entries:
        nominal = _nominal_coefficient(model, entry)
        bounds = interval(nominal, entry.distribution, epsilon)
        if bounds is None:
            return None
        low, high = bounds
        scale = max(abs(nominal), abs(low), abs(high))
        if scale >= 2.0 ** 1000:
            size = math.inf
        if entry.is_rhs:
            rhs_low, rhs_high = low, high
            size += scale
            continue
        x = solution_values[entry.target]
        shifts = ((low - nominal) * x, (high - nominal) * x)
        lhs_low += min(shifts)
        lhs_high += max(shifts)
        size += scale * abs(x)
    over, under = lhs_high - rhs_low, rhs_high - lhs_low
    return {"<=": over, ">=": under}.get(con.sense, max(over, under)), size


def corner_check(model: Model, uncertain_set: UncertainSet, solution_values,
                 epsilon: float, delta: float) -> CornerReport:
    """Certify a solution against the worst corner of the uncertainty box.

    Each uncertain entry belongs to exactly one row and ranges over its own
    interval (:func:`bounded_interval`), independently of the others, so the
    worst case of a row is separable (:func:`_worst_residual`).  That is the
    worst of all ``2**len(uncertain_set)`` corners, which ``corners_checked``
    reports, without enumerating them.  Certification requires every
    violation to stay within the ``delta * max(1, |rhs|)`` allowance.
    Constraints without uncertain entries are checked for plain feasibility.

    Only the tags with a bounded support are supported, ``Bounded``,
    ``BoundedRange`` and ``Uniform`` (whose interval is the support Monte
    Carlo draws from); use :func:`monte_carlo_check` for the others.
    ``epsilon`` and ``delta`` must be finite and nonnegative, and every
    value the rows read present and finite.
    """
    check_levels(epsilon, delta)
    uncertain_set.validate(model)
    _require_finite_values(model, solution_values, model.constraints)
    for entry in uncertain_set:
        if not isinstance(entry.distribution, (Bounded, BoundedRange, Uniform)):
            raise ValueError(
                f"corner_check supports bounded, range and uniform tags only, got "
                f"{type(entry.distribution).__name__}; use monte_carlo_check"
            )

    grouped = uncertain_set.by_constraint()
    worst: dict[int, float] = {}
    certified = True
    for con in model.constraints:
        entries = grouped.get(con.id, [])
        allowance = slack_allowance(con.rhs, delta) if entries else FEASIBILITY_TOL
        viol, _ = _worst_residual(model, con, entries, solution_values, epsilon)
        worst[con.id] = max(0.0, viol)
        certified = certified and worst[con.id] <= allowance + _CERT_TOL
    return CornerReport(2 ** len(uncertain_set), worst, certified)


# -- Monte Carlo ----------------------------------------------------------------


def _entry_stream(seed: int, entry_index: int) -> np.random.Generator:
    """Philox counter-based stream keyed by (seed, entry index).

    The 128-bit key places the seed in the low word and the entry index in
    the high word, so streams are independent per entry and adding an entry
    leaves the others' draws untouched.
    """
    key = (int(seed) & (2 ** 64 - 1)) | (int(entry_index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _normal_clip(dist) -> tuple[float, float]:
    """The six-sigma interval a normal xi is clipped to."""
    return dist.mean - 6.0 * dist.std, dist.mean + 6.0 * dist.std


def _support(nominal: float, dist, epsilon: float) -> tuple[float, float] | None:
    """``[low, high]`` holding every realization :func:`_deviation` draws,
    rounding aside; None for Poisson (unbounded).  The relative tags realize
    ``nominal * (1 + eps * xi)``, so the ends of xi's support give the ends.
    """
    if isinstance(dist, (Bounded, BoundedRange, Uniform)):
        return bounded_interval(nominal, dist, epsilon)
    if isinstance(dist, Normal):
        xi = _normal_clip(dist)
    elif isinstance(dist, Binomial):
        xi = (0.0, float(dist.n))
    elif isinstance(dist, Discrete):
        xi = (min(dist.values), max(dist.values))
    else:
        return None
    ends = [nominal * (1.0 + epsilon * v) for v in xi]
    return min(ends), max(ends)


def _deviation(nominal: float, dist, epsilon: float, rng, n: int) -> np.ndarray:
    """N draws of ``realization - nominal`` for one uncertain value, finished
    in one buffer.

    Bounded/Uniform draw a symmetric perturbation xi ~ U[-1, 1] and realize
    ``nominal * (1 + eps * xi)`` (per-entry half-widths override the global
    level); BoundedRange draws uniformly over its explicit interval; other
    tags draw xi from the tagged distribution and realize the same relative
    form, normals clipped by :func:`_normal_clip`; :func:`_support` bounds
    the draws.  The in-place steps are the IEEE operations of ``nominal *
    (1 + eps * xi) - nominal`` in that order, and ``u * 2 - 1`` is numpy's
    ``uniform(-1, 1)``, so the bits are those of the out-of-place form.
    """
    if isinstance(dist, BoundedRange):
        out = rng.uniform(dist.low, dist.high, size=n)
        out -= nominal
        return out
    eps = epsilon
    if isinstance(dist, (Bounded, Uniform)):
        if isinstance(dist, Bounded) and dist.epsilon is not None:
            eps = dist.epsilon
        out = rng.random(n)
        out *= 2.0
        out -= 1.0
    elif isinstance(dist, Normal):
        out = rng.normal(dist.mean, dist.std, size=n)
        np.clip(out, *_normal_clip(dist), out=out)
    elif isinstance(dist, Poisson):
        out = rng.poisson(dist.mean, size=n).astype(np.float64)
    elif isinstance(dist, Binomial):
        out = rng.binomial(dist.n, dist.p, size=n).astype(np.float64)
    elif isinstance(dist, Discrete):
        out = rng.choice(np.asarray(dist.values), size=n,
                         p=np.asarray(dist.probs)).astype(np.float64)
    else:
        raise ValueError(f"unsupported distribution {dist!r}")
    out *= eps
    out += 1.0
    out *= nominal
    out -= nominal
    return out


def monte_carlo_check(model: Model, uncertain_set: UncertainSet, solution_values,
                      epsilon: float, delta: float, n_samples: int, seed: int
                      ) -> ViolationEstimate:
    """Estimate the violation probability of a solution under random data.

    A realization violates row i when its realized left-hand side exceeds the
    realized right-hand side by more than ``delta * max(1, |rhs|)`` (plus a
    1e-9 guard for solver noise).  The reported frequency is the worst row's
    frequency, matching the per-row form of the reliability guarantee;
    per-row frequencies ride along.

    ``n_samples`` must be an integer (not a bool) of at least 1000,
    ``epsilon`` and ``delta`` finite and nonnegative (:func:`check_levels`),
    every value the uncertain rows read present and finite, and ``seed`` an
    integer (not a bool) in ``[0, 2**64)``: it is the low word of every
    entry's Philox key.

    A row that no realization in its tags' support (:func:`_support`) can
    violate counts 0 without a draw or a sample buffer: its greatest
    residual (:func:`_worst_residual`) plus the rounding margin
    ``8 * (k + 4) * 2**-52 * S`` stays within the allowance, for its k
    entries and ``S = |lhs0| + |rhs| + sum_j max(|a_j|, |lo_j|, |hi_j|) *
    |x_j|``.  A draw rounds a few times per entry and a row sums k + 1
    terms, so no residual the sampler computes exceeds the bound by more
    than the margin: drawn, the row would count 0 too.  The bound needs every
    magnitude below 2**1000; a Poisson entry (unbounded) is always drawn.
    A coefficient whose variable is +-0 opens no stream either; adding +-0
    changes no count while the skipped term would be finite (an overflowed
    ``inf * 0`` is NaN, and a NaN row never counts).

    The remaining entries are drawn in blocks of ``_MC_BLOCK`` samples, on
    the calling thread: each opens its stream once, and for each block each
    drawn row starts from its nominal sides, adds its entries' terms in
    entry order and counts its violations.  A stream continues from one
    block to the next, so the draws are those of one call and the estimate
    is the same bit for bit whatever the block size.  Only one row's
    block is live at a time, so memory is a few one-block buffers plus one
    generator per drawn entry, whatever ``n_samples``.
    """
    if not (_is_int(n_samples) and n_samples >= 1000):
        raise ValueError(
            f"need at least 1000 samples for a meaningful estimate: n_samples "
            f"must be an integer of at least 1000, got {n_samples!r}")
    n_samples = int(n_samples)
    check_levels(epsilon, delta)
    if not (_is_int(seed) and 0 <= int(seed) < 2 ** 64):
        raise ValueError(f"seed must lie in [0, 2**64) as an integer, got {seed!r}")
    seed = int(seed)
    uncertain_set.validate(model)
    entries = list(uncertain_set)
    rows: dict[int, list[int]] = {}
    for idx, entry in enumerate(entries):
        rows.setdefault(entry.constraint_id, []).append(idx)
    _require_finite_values(model, solution_values,
                           [model.constraints[cid] for cid in rows])

    drawn = []  # (row, its nominal lhs, its violation limit, its drawn terms)
    for con_id, idxs in rows.items():
        con = model.constraints[con_id]
        limit = slack_allowance(con.rhs, delta) + _CERT_TOL
        bound = _worst_residual(model, con, [entries[idx] for idx in idxs],
                                solution_values, epsilon, _support)
        if bound is not None:
            worst, size = bound
            margin = 8 * (len(idxs) + 4) * 2.0 ** -52 * size
            if size < 2.0 ** 1000 and worst + margin <= limit:
                continue  # no draw can violate the row: it counts 0
        terms = []
        for idx in idxs:
            entry = entries[idx]
            x = None if entry.is_rhs else solution_values[entry.target]
            if x != 0.0:
                terms.append((entry.distribution, _nominal_coefficient(model, entry),
                              x, _entry_stream(seed, idx)))
        drawn.append((con, _nominal_lhs(con, solution_values), limit, terms))

    counts = dict.fromkeys(rows, 0)
    for start in range(0, n_samples, _MC_BLOCK):
        b = min(_MC_BLOCK, n_samples - start)
        for con, lhs0, limit, terms in drawn:
            lhs, rhs = np.full(b, lhs0), np.full(b, con.rhs)
            for dist, nominal, x, rng in terms:
                dev = _deviation(nominal, dist, epsilon, rng, b)
                if x is None:
                    rhs += dev
                else:
                    dev *= x
                    lhs += dev
            if con.sense == "<=":
                resid = lhs - rhs
            elif con.sense == ">=":
                resid = rhs - lhs
            else:
                resid = np.abs(lhs - rhs)
            counts[con.id] += int(np.count_nonzero(resid > limit))

    worst_count = max(counts.values(), default=0)
    frequency = worst_count / n_samples
    ci = 3.0 * math.sqrt(frequency * (1.0 - frequency) / n_samples)
    return ViolationEstimate(
        samples=n_samples,
        violations=worst_count,
        frequency=frequency,
        ci_half_width=ci,
        seed=seed,
        per_constraint={cid: count / n_samples for cid, count in counts.items()},
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
