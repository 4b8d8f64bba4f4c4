"""Independent verification of robustness claims.

Three checks, all operating on a *nominal* model, an uncertain set, and a
candidate solution:

* :func:`corner_check` -- exact worst-case certification for bounded
  uncertainty.  The worst corner of each row is found entry by entry (the
  worst case is separable); certification requires every violation to stay
  within the ``delta * max(1, |rhs|)`` allowance.  The report carries the
  count k of ``entries``, whose ``2**k`` corners that covers.
* :func:`monte_carlo_check` -- violation-probability estimation for random
  uncertainty, with splittable per-entry random streams so adding an entry
  never perturbs the draws of the others.
* :func:`sweep` -- solve a builder across an (epsilon, delta, kappa) grid and
  tabulate objectives against the nominal solve, serially or on a process pool.

Both checks read entries, rows and nominal values as ``UncertainSet.validate``
resolves them, in time linear in the entries.  Sweep grid points are
embarrassingly parallel.  The estimator walks its samples in fixed blocks on
the calling thread, each entry drawing (``uncertainty.draw_deviations``) from
its own counter-based stream that continues from block to block, and adds the
terms to their rows in entry order: it holds a few one-block buffers and one
generator per drawn entry, whatever the sample count, and its bits do not
depend on the block size.  It draws nothing for a variable at 0, nor for a row
whose worst realization in its tags' ``uncertainty.support``, plus a rounding
margin, stays within its allowance; the estimate stays the one with every
entry drawn, bitwise.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .model import FEASIBILITY_TOL, Model, residual
from .solver import SolverOptions, solve
from .uncertainty import (
    INTERVAL_TAGS,
    UncertainSet,
    _is_int,
    check_levels,
    draw_deviations,
    slack_allowance,
    support,
)

_CERT_TOL = 1e-9
_MC_BLOCK = 8192  # samples per Monte Carlo block: 64 KiB per float64 buffer


@dataclass
class CornerReport:
    """Worst-case certification over the ``2**entries`` interval corners."""

    entries: int
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
        for var_id, _ in con.lhs.terms + (con.cone.components if con.cone else ()):
            name = model.variables[var_id].name
            if var_id not in solution_values:
                raise ValueError(f"solution_values has no value for variable {name}")
            value = solution_values[var_id]
            if not math.isfinite(value):
                raise ValueError(
                    f"solution value of {name} is {value}; values must be finite")


def _nominal_lhs(con, solution_values) -> float:
    """The row's left-hand side at the point, cone term included."""
    lhs = con.lhs.value(solution_values)
    if con.cone is not None:
        lhs += con.cone.value(solution_values)
    return lhs


def _worst_residual(con, entries, solution_values, epsilon: float
                    ) -> tuple[float, float] | None:
    """Greatest residual of row ``con`` over its resolved ``entries``, each anywhere
    in its own :func:`support` independently of the others, and the row's
    magnitude ``S = |lhs0| + |rhs| + sum_j m_j |x_j|`` (``m_j = max(|a_j|,
    |lo_j|, |hi_j|)``, inf from 2**1000 on); None when a support is None.
    The worst case is separable: each side's interval is summed entry by
    entry, and the residual is the larger at its two opposite ends.
    """
    lhs_low = lhs_high = lhs = _nominal_lhs(con, solution_values)
    rhs_low = rhs_high = con.rhs
    size = abs(lhs) + abs(con.rhs)
    for _, entry, nominal in entries:
        bounds = support(nominal, entry.distribution, epsilon)
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
    return max(residual(con.sense, lhs_high, rhs_low),
               residual(con.sense, lhs_low, rhs_high)), size


def corner_check(model: Model, uncertain_set: UncertainSet, solution_values,
                 epsilon: float, delta: float) -> CornerReport:
    """Certify a solution against the worst corner of the uncertainty box.

    Each uncertain entry belongs to exactly one row and ranges over its own
    interval (:func:`support`), independently of the others, so the
    worst case of a row is separable (:func:`_worst_residual`).  That is the
    worst of all ``2**k`` corners of the k entries, which ``entries``
    reports, found in time linear in k.  Certification requires every
    violation to stay within the ``delta * max(1, |rhs|)`` allowance.
    Constraints without uncertain entries are checked for plain feasibility.

    Only the ``INTERVAL_TAGS`` are supported, ``Bounded``, ``BoundedRange``
    and ``Uniform``, whose support is their :func:`bounded_interval`; use
    :func:`monte_carlo_check` for the others.
    ``epsilon`` and ``delta`` must be finite and nonnegative, and every
    value the rows read present and finite.
    """
    check_levels(epsilon, delta)
    resolved = uncertain_set.validate(model)
    _require_finite_values(model, solution_values, model.constraints)
    for entry in uncertain_set:
        if not isinstance(entry.distribution, INTERVAL_TAGS):
            raise ValueError(
                f"corner_check supports bounded, range and uniform tags only, got "
                f"{type(entry.distribution).__name__}; use monte_carlo_check")

    worst: dict[int, float] = {}
    certified = True
    for con in model.constraints:
        entries = resolved.get(con.id, [])
        allowance = slack_allowance(con.rhs, delta) if entries else FEASIBILITY_TOL
        viol, _ = _worst_residual(con, entries, solution_values, epsilon)
        worst[con.id] = max(0.0, viol)
        certified = certified and worst[con.id] <= allowance + _CERT_TOL
    return CornerReport(len(uncertain_set), worst, certified)


# -- Monte Carlo ----------------------------------------------------------------


def _entry_stream(seed: int, entry_index: int) -> np.random.Generator:
    """Philox counter-based stream keyed by (seed, entry index).

    The 128-bit key places the seed in the low word and the entry index in
    the high word, so streams are independent per entry and adding an entry
    leaves the others' draws untouched.
    """
    key = (int(seed) & (2 ** 64 - 1)) | (int(entry_index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


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

    A row that no realization in its tags' :func:`support` can
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

    The remaining entries are drawn in blocks of ``_MC_BLOCK`` samples on
    the calling thread: each opens its stream once, and for each block each
    drawn row starts from its nominal sides, adds its entries' terms
    (:func:`draw_deviations`) in entry order and counts its violations.  A
    stream continues from block to block, so the draws and the estimate
    are those of one call, bit for bit.  Only one row's block is live at a
    time: memory is a few one-block buffers and one generator per drawn
    entry, whatever ``n_samples``.
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
    resolved = uncertain_set.validate(model)
    _require_finite_values(model, solution_values,
                           [model.constraints[cid] for cid in resolved])

    drawn = []  # (row, its nominal lhs, its violation limit, its drawn terms)
    for con_id, entries in resolved.items():
        con = model.constraints[con_id]
        limit = slack_allowance(con.rhs, delta) + _CERT_TOL
        bound = _worst_residual(con, entries, solution_values, epsilon)
        if bound is not None:
            worst, size = bound
            margin = 8 * (len(entries) + 4) * 2.0 ** -52 * size
            if size < 2.0 ** 1000 and worst + margin <= limit:
                continue  # no draw can violate the row: it counts 0
        terms = []
        for idx, entry, nominal in entries:
            x = None if entry.is_rhs else solution_values[entry.target]
            if x != 0.0:
                terms.append((entry.distribution, nominal, x, _entry_stream(seed, idx)))
        drawn.append((con, _nominal_lhs(con, solution_values), limit, terms))

    counts = dict.fromkeys(resolved, 0)
    for start in range(0, n_samples, _MC_BLOCK):
        b = min(_MC_BLOCK, n_samples - start)
        for con, lhs0, limit, terms in drawn:
            lhs, rhs = np.full(b, lhs0), np.full(b, con.rhs)
            for dist, nominal, x, rng in terms:
                dev = draw_deviations(nominal, dist, epsilon, rng, b)
                if x is None:
                    rhs += dev
                else:
                    dev *= x
                    lhs += dev
            counts[con.id] += int(np.count_nonzero(residual(con.sense, lhs, rhs) > limit))

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
          jobs: int = 1) -> list[SweepRow]:
    """Solve ``builder(eps, delta, kappa)`` at every grid point.

    The nominal point (0, 0, 1) comes first, added when the grid does not
    contain it.  It is built and solved unguarded, in the calling process,
    so an error there (an input the builder rejects) raises.  Failures at
    the other points are recorded as status ``error`` and the sweep
    continues.  ``relative_gap`` is the objective shortfall relative to the
    nominal optimum.  The other cells run on ``min(jobs, cells, CPUs)``
    forked workers (all start at once) when that is over 1, which needs a
    picklable builder, and in the calling process otherwise.
    """
    points = [tuple(map(float, p)) for p in grid]
    if not points:
        raise ValueError("sweep grid is empty")
    nominal_point = (0.0, 0.0, 1.0)
    points = [nominal_point] + [p for p in points if p != nominal_point]
    nominal = solve(builder(*nominal_point), options)
    cell = functools.partial(_solve_cell, builder, options)
    results = [(nominal.status, nominal.objective)]
    workers = min(jobs, len(points) - 1, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # kept out of import time
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results += pool.map(cell, points[1:])
    else:
        results += map(cell, points[1:])
    nominal_objective = nominal.objective if nominal.status == "optimal" else math.nan
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
    """Write sweep rows as CSV, one column per :class:`SweepRow` field, at
    full precision (``csv`` writes a float's ``str``, its ``repr``)."""
    writer = csv.writer(fh)
    writer.writerow(f.name for f in fields(SweepRow))
    writer.writerows(map(astuple, rows))
