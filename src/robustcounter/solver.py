"""Embedded optimizer: simplex, and one branch-and-bound tree that also cuts
square-root cone rows.

Everything here is deterministic: identical inputs and options produce
identical Solutions, including node counts.  An LP without a basis to start
from (``solve_lp``, the root of a tree) is solved by two-phase primal
simplex with Bland's rule.  Every other node LP starts from the optimal
basis of the LP it was made from (Koberstein 2005; Achterberg 2007): the
basis is refactored from the original matrix, so no rounding drifts from
node to node, and a dual simplex (Bland's leaving row, the largest pivot
among near-tied ratios) restores feasibility.  A node whose basis is
singular, or whose dual 'infeasible' no Farkas ray confirms, is solved cold.
Branching picks the most fractional variable with lowest-index tie-breaks,
and the node queue is ordered by best bound with FIFO tie-breaks.

Square-root cone rows are handled by LP/NLP-based branch and bound (Quesada
& Grossmann 1992): node LPs see each cone row at its radical floor, and at
every integer-feasible node the exact rows are checked and violated ones get
a supporting hyperplane of the convex radical.  The cuts go into the working
model for the rest of the tree and the node is queued again, so one tree
serves the whole solve and its time, node and cut-round limits bound the
whole call.  Supporting hyperplanes never cut off exactly-feasible points,
and incumbents are taken only where every cone row holds.

A node's bounds are two arrays; a child copies one and changes one finite
integer bound, so every node LP is the current working model's standard-form
layout with the node's arrays written in: the matrices are expanded once per
call, cut rows are appended to them, and a child LP differs from its
parent's only in the right-hand side.
Duals of the final basis are computed only for ``solve_lp``; branch and
bound never reads them.  One deadline, taken when the call starts, stops
the tree and the simplex inside every node LP.

One solve runs on one thread; distinct solves on distinct models may run
concurrently (no shared mutable state).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    FEASIBILITY_TOL,
    INF,
    INTEGRALITY_TOL,
    ConeTerm,
    Constraint,
    LinExpr,
    Model,
    Solution,
    SolverStats,
    StandardFormLP,
    _bound_arrays,
    _Layout,
    to_standard_form,
)

_PIVOT_TOL = 1e-9
_MAX_ITER = 1_000_000  # pivots per simplex loop before it reports "limit"
_BOUND_CAP = 1e9  # branching cap for unbounded integer variables
_PRUNE_TOL = 1e-9


class SolverError(ValueError):
    """Raised for malformed solver input (dimension mismatch etc.)."""


@dataclass
class SolverOptions:
    feasibility_tol: float = FEASIBILITY_TOL
    integrality_tol: float = INTEGRALITY_TOL
    cone_cut_tol: float = 1e-6
    max_nodes: int = 200_000
    max_cone_rounds: int = 200  # integer-feasible nodes at which cuts are added
    time_limit_seconds: float = INF

    def __post_init__(self):
        for name in ("feasibility_tol", "integrality_tol", "cone_cut_tol"):
            if getattr(self, name) <= 0:
                raise SolverError(f"{name} must be positive")
        for name in ("time_limit_seconds", "max_nodes", "max_cone_rounds"):
            if not getattr(self, name) >= 0:
                raise SolverError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass
class NodeRecord:
    """One branch-and-bound subproblem: every variable's bounds in id order
    (read-only, shared with children), and the optimal basis of the LP it
    was made from, if it has one."""

    lo: np.ndarray
    hi: np.ndarray
    basis: tuple[int, ...] | None = None


# -- simplex ----------------------------------------------------------------


class _SimplexResult:
    __slots__ = ("status", "x", "objective", "iterations", "basis", "duals_ub",
                 "duals_eq")

    def __init__(self, status, x=None, objective=math.nan, iterations=0, basis=None,
                 duals_ub=None, duals_eq=None):
        self.status = status
        self.x = x
        self.objective = objective
        self.iterations = iterations
        self.basis = basis
        self.duals_ub = duals_ub
        self.duals_eq = duals_eq


def _pivot(tab, basis, row, col):
    # masked rank-1 update, one multiply and one subtract per element as row
    # by row; rows whose pivot-column entry is within the tolerance stay as is
    tab[row] /= tab[row, col]
    mask = np.abs(tab[:, col]) > _PIVOT_TOL
    mask[row] = False
    np.subtract(tab, np.multiply.outer(tab[:, col], tab[row]), out=tab,
                where=mask[:, None])
    basis[row] = col


def _run_simplex(tab, basis, n_cols, deadline):
    """Minimize over the tableau in place with Bland's rule.

    ``tab`` rows are [A | b] plus a final reduced-cost row [cbar | -obj].
    Returns (status, iterations); status is 'optimal', 'unbounded' or
    'limit' after ``_MAX_ITER`` pivots or once ``deadline`` (a
    ``time.monotonic`` value) has passed with a pivot still to make.
    """
    m = tab.shape[0] - 1
    cbar = tab[-1, :n_cols]
    for iters in range(_MAX_ITER):
        improving = (cbar < -_PIVOT_TOL).nonzero()[0]
        if not improving.size:
            return "optimal", iters
        if time.monotonic() >= deadline:
            return "limit", iters
        enter = int(improving[0])
        # ratio test in row order: a ratio more than the tolerance below the
        # best wins, one within the tolerance wins on the lower basis index
        col, rhs = tab[:m, enter].tolist(), tab[:m, -1].tolist()
        leave = -1
        best_ratio = INF
        for r, a in enumerate(col):
            if a > _PIVOT_TOL:
                ratio = rhs[r] / a
                if (ratio < best_ratio - _PIVOT_TOL
                        or (abs(ratio - best_ratio) <= _PIVOT_TOL
                            and (leave < 0 or basis[r] < basis[leave]))):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            return "unbounded", iters
        _pivot(tab, basis, leave, enter)
    return "limit", _MAX_ITER


def _run_dual(tab, basis, n_cols, deadline):
    """Dual simplex over the tableau in place, from nonnegative reduced costs.

    The leaving row is Bland's: the lowest basis index among rows whose
    value is below the tolerance's negative.  The entering column has the
    smallest ratio ``cbar_j / |a_rj|`` among columns with ``a_rj`` below it;
    ratios within the tolerance of the smallest go to the largest
    ``|a_rj|``, then to the lowest index.  Returns (status, iterations);
    status is 'optimal' once every row's value is feasible, 'infeasible'
    when a leaving row has no entering column, or 'limit' as for
    :func:`_run_simplex`.
    """
    m = tab.shape[0] - 1
    cbar = tab[-1, :n_cols]
    for iters in range(_MAX_ITER):
        negative = (tab[:m, -1] < -_PIVOT_TOL).nonzero()[0]
        if not negative.size:
            return "optimal", iters
        if time.monotonic() >= deadline:
            return "limit", iters
        leave = min(negative.tolist(), key=basis.__getitem__)
        row = tab[leave, :n_cols]
        cand = (row < -_PIVOT_TOL).nonzero()[0]
        if not cand.size:
            return "infeasible", iters
        size = -row[cand]
        ratio = cbar[cand] / size
        near = ratio <= ratio.min() + _PIVOT_TOL
        _pivot(tab, basis, leave, int(cand[near][np.argmax(size[near])]))
    return "limit", _MAX_ITER


def _deadline(options: SolverOptions) -> float:
    """The ``time.monotonic`` value at which the call's time limit runs out."""
    return time.monotonic() + options.time_limit_seconds


def solve_lp(sf: StandardFormLP, options: SolverOptions | None = None) -> Solution:
    """Solve a standard-form LP by two-phase primal simplex.

    Status ``optimal`` certifies primal feasibility within the feasibility
    tolerance and no improving reduced cost; ``infeasible`` certifies a
    positive phase-1 optimum; ``unbounded`` certifies an improving ray;
    ``limit_reached`` means a phase hit the pivot cap or the time limit.
    The returned values are restored to model-variable space and the duals of
    the final basis are stashed in ``stats.extra['duals']``.
    """
    options = options or SolverOptions()
    res = _solve_standard(sf, options, _deadline(options), duals=True)
    stats = SolverStats(iterations=res.iterations)
    if res.status == "optimal":
        values = sf.restore(res.x)
        stats.extra["duals"] = (res.duals_ub, res.duals_eq)
        return Solution("optimal", values, sf.model_objective(res.objective), stats)
    if res.status == "infeasible":
        return Solution("infeasible", {}, math.nan, stats)
    if res.status == "unbounded":
        obj = INF if sf.sense == "max" else -INF
        return Solution("unbounded", {}, obj, stats)
    return Solution("limit_reached", {}, math.nan, stats)


def _solve_standard(sf: StandardFormLP, options: SolverOptions, deadline: float,
                    duals: bool = False, basis=None) -> _SimplexResult:
    """Simplex on the canonical maximization; internal min convention.

    With ``basis``, an optimal basis of an LP with the same matrix (or the
    same matrix before inequality rows were appended), the LP is first solved
    warm (:func:`_solve_warm`); the cold two-phase path runs
    without one, or when the warm path cannot give a sound verdict.  Every
    simplex loop stops at ``deadline``.  The result carries the final basis
    (``None`` when phase 1 dropped a redundant row); its duals are computed
    only when ``duals`` is set."""
    n = sf.n_cols
    m_ub, m_eq = sf.a_ub.shape[0], sf.a_eq.shape[0]
    if sf.a_ub.shape[1] != n or (m_eq and sf.a_eq.shape[1] != n):
        raise SolverError("constraint matrix width does not match objective length")
    if sf.b_ub.shape[0] != m_ub or sf.b_eq.shape[0] != m_eq:
        raise SolverError("right-hand side length does not match matrix rows")
    warm_iters = 0
    if basis is not None:
        res = _solve_warm(sf, options, deadline, basis)
        if res.status != "retry":
            return res
        warm_iters = res.iterations
    res = _solve_cold(sf, options, deadline, duals)
    res.iterations += warm_iters
    return res


def _optimal(sf: StandardFormLP, tab, basis, iterations) -> _SimplexResult:
    """The optimal result read off a final tableau and its basis."""
    x = np.zeros(tab.shape[1] - 1)
    x[basis] = tab[:-1, -1]
    x = np.maximum(x[:sf.n_cols], 0.0)
    return _SimplexResult("optimal", x, float(sf.c @ x + sf.c0), iterations,
                          tuple(basis))


def _standard_matrix(sf: StandardFormLP) -> np.ndarray:
    """``[A_ub I | b_ub]`` over ``[A_eq 0 | b_eq]``: every row with the slack
    columns after the structural ones."""
    n, m_ub = sf.n_cols, sf.a_ub.shape[0]
    mat = np.zeros((m_ub + sf.a_eq.shape[0], n + m_ub + 1))
    mat[:m_ub, :n] = sf.a_ub
    mat[np.arange(m_ub), n + np.arange(m_ub)] = 1.0
    mat[m_ub:, :n] = sf.a_eq
    mat[:, -1] = np.concatenate([sf.b_ub, sf.b_eq])
    return mat


def _refactor(mat, basis):
    """``B^-1 mat`` for the basis columns ``B`` of ``mat``, or None when B is
    too near singular: its computed ``B^-1 B`` strays from the identity by
    more than the pivot tolerance, below which the kernel reads entries as
    zero."""
    eye = np.eye(len(basis))
    try:
        tab = np.linalg.solve(mat[:, basis], mat)
    except np.linalg.LinAlgError:
        return None
    if not np.abs(tab[:, basis] - eye).max(initial=0.0) <= _PIVOT_TOL:
        return None
    tab[:, basis] = eye
    return tab


def _solve_warm(sf: StandardFormLP, options: SolverOptions, deadline: float,
                basis) -> _SimplexResult:
    """Dual simplex from ``basis`` (Koberstein 2005), refactored from the
    original matrix: the tableau is ``B^-1 [A | b]`` for the basis columns
    ``B``, so no rounding carries over from the LP the basis came from.

    A basis shorter than the rows is one from before inequality rows were
    appended (:meth:`_Layout.extended`); their slacks join it.  Negative
    reduced costs left by rounding are shifted to zero for the dual simplex
    and restored for a primal phase 2 that finishes.  An 'infeasible' stands
    only when a Farkas ray ``y = B^-T e_r`` checked against ``[A | b]``
    proves it.  Status 'retry', with the pivots spent, asks for the cold
    path: a singular basis, or an unproven 'infeasible'.
    """
    n, m_ub = sf.n_cols, sf.a_ub.shape[0]
    mat = _standard_matrix(sf)
    m, n_work = mat.shape[0], mat.shape[1] - 1
    basis = list(basis) + list(range(n + m_ub - m + len(basis), n + m_ub))
    rows = _refactor(mat, basis)
    if rows is None:
        return _SimplexResult("retry")
    tab = np.vstack([rows, np.zeros(n_work + 1)])
    cost = np.zeros(n_work + 1)
    cost[:n] = -sf.c
    tab[-1] = cost - cost[basis] @ tab[:m]
    tab[-1, basis] = 0.0
    shifted = tab[-1, :n_work] < 0.0
    tab[-1, :n_work][shifted] = 0.0

    status, iters = _run_dual(tab, basis, n_work, deadline)
    if status == "infeasible":
        rows = np.flatnonzero(tab[:m, -1] < -_PIVOT_TOL)
        try:
            y = np.linalg.solve(mat[:, basis].T, np.eye(m)[:, rows])
        except np.linalg.LinAlgError:
            return _SimplexResult("retry", iterations=iters)
        ray = y.T @ mat
        scale = np.maximum(1.0, np.abs(y).max(axis=0, initial=0.0))
        if np.any((ray[:, :-1].min(axis=1, initial=0.0) >= -_PIVOT_TOL * scale)
                  & (ray[:, -1] < -options.feasibility_tol * scale)):
            return _SimplexResult("infeasible", iterations=iters)
        return _SimplexResult("retry", iterations=iters)
    if status == "limit":
        return _SimplexResult("limit", iterations=iters)
    if shifted.any():
        tab[-1] = cost - cost[basis] @ tab[:m]
    status, more = _run_simplex(tab, basis, n_work, deadline)
    iters += more
    if status != "optimal":
        return _SimplexResult(status, iterations=iters)
    return _optimal(sf, tab, basis, iters)


def _solve_cold(sf: StandardFormLP, options: SolverOptions, deadline: float,
                duals: bool) -> _SimplexResult:
    """Two-phase primal simplex from the slack and artificial basis."""
    n = sf.n_cols
    m_ub, m_eq = sf.a_ub.shape[0], sf.a_eq.shape[0]
    m = m_ub + m_eq
    n_work = n + m_ub

    # the standard rows with signs flipped to keep rhs >= 0, then one
    # artificial column per row without a clean slack
    mat = _standard_matrix(sf)
    flip = mat[:, -1] < 0
    mat[flip] *= -1.0
    need_art = np.flatnonzero(flip | (np.arange(m) >= m_ub))
    n_total = n_work + need_art.shape[0]
    tab = np.zeros((m + 1, n_total + 1))
    tab[:m, :n_work] = mat[:, :-1]
    tab[:m, -1] = mat[:, -1]
    signed = mat[:, :-1] if duals else None
    basis = [n + r for r in range(m)]  # slack columns; artificials set below
    tab[need_art, n_work + np.arange(need_art.shape[0])] = 1.0
    for k, r in enumerate(need_art.tolist()):
        basis[r] = n_work + k

    total_iters = 0
    keep_rows = list(range(m))
    if need_art.size:
        # phase 1: minimize the artificial sum
        tab[-1, n_work:n_total] = 1.0
        for r in need_art:
            tab[-1] -= tab[r]
        status, iters = _run_simplex(tab, basis, n_total, deadline)
        total_iters += iters
        if status == "limit":
            return _SimplexResult("limit", iterations=total_iters)
        phase1 = -tab[-1, -1]
        if phase1 > options.feasibility_tol:
            return _SimplexResult("infeasible", iterations=total_iters)
        # drive leftover zero-level artificials out of the basis; a row with
        # no usable entry is redundant and dropped
        keep_rows = []
        for r in range(m):
            if basis[r] >= n_work:
                usable = np.flatnonzero(np.abs(tab[r, :n_work]) > 1e-7)
                if not usable.size:
                    continue
                _pivot(tab, basis, r, int(usable[0]))
            keep_rows.append(r)
        if len(keep_rows) < m:
            tab = tab[keep_rows + [m]]
            basis = [basis[r] for r in keep_rows]
            m = len(keep_rows)
        tab = np.delete(tab, np.s_[n_work:n_total], axis=1)

    # phase 2: minimize -c over the feasible tableau
    c_min = np.zeros(n_work)
    c_min[:n] = -sf.c
    tab[-1, :n_work] = c_min
    tab[-1, -1] = 0.0
    for r in range(m):
        coeff = tab[-1, basis[r]]
        if abs(coeff) > _PIVOT_TOL:
            tab[-1] -= coeff * tab[r]
    status, iters = _run_simplex(tab, basis, n_work, deadline)
    total_iters += iters
    if status != "optimal":
        return _SimplexResult(status, iterations=total_iters)

    res = _optimal(sf, tab, basis, total_iters)
    if len(keep_rows) < m_ub + m_eq:
        res.basis = None
    if not duals:
        return res

    # simplex multipliers from the final basis, mapped to max-convention duals
    try:
        y_int = np.linalg.solve(signed[keep_rows][:, basis].T, c_min[basis])
    except np.linalg.LinAlgError:
        y_int = np.zeros(m)
    y_max = np.zeros(m_ub + m_eq)
    y_max[keep_rows] = np.where(flip[keep_rows], 1.0, -1.0) * y_int
    res.duals_ub, res.duals_eq = y_max[:m_ub], y_max[m_ub:]
    return res


# -- branch and bound --------------------------------------------------------


def _root_bounds(model: Model, is_int: np.ndarray):
    """Model bounds with unbounded integer ones capped, never past the
    other bound (``[2e9, inf)`` becomes ``[2e9, 2e9]``), and whether any was."""
    lo, hi = _bound_arrays(model)
    low, high = is_int & (lo == -INF), is_int & (hi == INF)
    lo[low] = np.minimum(-_BOUND_CAP, hi[low])
    hi[high] = np.maximum(_BOUND_CAP, lo[high])
    return lo, hi, bool(low.any() or high.any())


def _branching_var(values, is_int: np.ndarray, tol: float) -> int | None:
    """The integer variable whose distance to the nearest integer is closest
    to 0.5, the lowest id among ties; None when all are within ``tol``."""
    x = np.fromiter(values.values(), float, len(values))
    frac = np.abs(x - np.round(x))
    cand = np.flatnonzero(is_int & (frac > tol))
    return int(cand[np.argmin(np.abs(frac[cand] - 0.5))]) if cand.size else None


def _relax_cones(model: Model, cone_rows) -> Model:
    """Unfrozen copy of ``model`` with each cone row replaced by its value at
    the radical floor, a valid relaxation: the radical never falls below
    ``sqrt(constant_inside)``."""
    work = model.copy(name=f"{model.name}__oa")
    for con in cone_rows:
        floor_const = con.cone.scale * math.sqrt(con.cone.constant_inside)
        relaxed = LinExpr.from_terms(con.lhs.terms, con.lhs.constant + floor_const)
        work.constraints[con.id] = replace(con, lhs=relaxed, cone=None)
    return work


def _cone_violations(cone_rows, values) -> list[tuple[Constraint, float]]:
    """Each cone row with its exact residual ``lhs + cone - rhs`` at ``values``."""
    return [(con, con.lhs.value(values) + con.cone.value(values) - con.rhs)
            for con in cone_rows]


def solve_milp(model: Model, options: SolverOptions | None = None) -> Solution:
    """Branch-and-bound over LP relaxations, with cone rows cut in the tree.

    The root's bound arrays are the model's, unbounded integer bounds capped
    at ``_BOUND_CAP``.  Branching variable: most fractional, ties broken by
    lowest id.  Node order: best bound, ties FIFO.  Cone rows enter the node LPs at their
    radical floor; at a node whose LP point is integer-feasible every cone
    row is evaluated exactly, and rows violated by more than
    ``cone_cut_tol`` get a supporting-hyperplane cut.  The cuts join every
    later node LP, and the node goes back into the queue under its own LP
    bound, which the cuts leave valid.  An incumbent is accepted only when
    every cone row holds.

    An exhausted tree certifies the incumbent optimal (within the LP and cut
    tolerances); hitting ``max_nodes``, ``max_cone_rounds`` separations, the
    time limit or the simplex pivot cap yields ``limit_reached`` carrying the
    incumbent if one exists.  Only the root LP can make the call
    ``unbounded``: once a node LP is optimal, a later node LP that claims an
    unbounded ray does so from rounding, and the call stops with
    ``limit_reached`` as well.  With cone rows, ``stats.extra["cone_violation"]``
    is the worst cone-row residual at the returned values, or at the last
    cut-off point when none are returned.
    """
    options = options or SolverOptions()
    deadline = _deadline(options)
    cone_rows = [c for c in model.constraints if c.cone is not None]
    work = _relax_cones(model, cone_rows) if cone_rows else model
    is_int = np.array([v.is_integer for v in model.variables], dtype=bool)
    lo, hi, capped = _root_bounds(model, is_int)
    stats = SolverStats()
    if capped:
        stats.extra["integer_bounds_capped"] = True

    best_values = None
    best_cano = -INF
    counter = 0
    separations = 0
    cut_off = 0.0
    layout = _Layout(work, lo, hi)
    heap = [(-INF, counter, NodeRecord(lo, hi))]
    status = "optimal"
    bounded = False  # some node LP was optimal, so none can be unbounded
    bound_sequence: list[float] = []
    stats.extra["bound_sequence"] = bound_sequence
    while heap:
        neg_bound, _, node = heapq.heappop(heap)
        bound_sequence.append(-neg_bound)
        if -neg_bound <= best_cano + _PRUNE_TOL and best_values is not None:
            break  # best-bound order: nothing left can improve
        if stats.nodes >= options.max_nodes or time.monotonic() > deadline:
            status = "limit_reached"
            break
        sf = layout.form(node.lo, node.hi)
        res = _solve_standard(sf, options, deadline, basis=node.basis)
        stats.nodes += 1
        stats.iterations += res.iterations
        if res.status == "infeasible":
            continue
        if res.status == "limit":
            status = "limit_reached"
            break
        if res.status == "unbounded":
            # bounds and cuts only shrink the region, so after an optimal
            # node LP this is rounding, and the tree cannot go on soundly
            status = "limit_reached" if bounded else "unbounded"
            break
        bounded = True
        cano = res.objective  # canonical max value from _solve_standard
        if cano <= best_cano + _PRUNE_TOL and best_values is not None:
            continue
        values = sf.restore(res.x)
        var = _branching_var(values, is_int, options.integrality_tol)
        if var is None:
            violated = [(con, viol) for con, viol in _cone_violations(cone_rows, values)
                        if viol > options.cone_cut_tol]
            if violated:
                cut_off = max(viol for _, viol in violated)
                if separations >= options.max_cone_rounds:
                    status = "limit_reached"
                    break
                separations += 1
                n_rows = len(work.constraints)
                for con, _ in violated:
                    terms, constant = _cone_support_cut(con.cone, values)
                    stats.cone_cuts += 1
                    work.add_constraint(
                        LinExpr.from_terms(con.lhs.terms + tuple(terms),
                                           con.lhs.constant + constant),
                        "<=", con.rhs, label=f"{con.label}__cut{stats.cone_cuts}",
                    )
                layout = layout.extended(work.constraints[n_rows:])
                counter += 1
                heapq.heappush(heap, (-cano, counter, replace(node, basis=res.basis)))
                continue
            if cano > best_cano:
                best_cano = cano
                best_values = values
            continue
        down, up = node.hi.copy(), node.lo.copy()
        down[var], up[var] = math.floor(values[var]), math.ceil(values[var])
        for lo, hi in ((node.lo, down), (up, node.hi)):
            if lo[var] <= hi[var]:
                counter += 1
                heapq.heappush(heap, (-cano, counter, NodeRecord(lo, hi, res.basis)))

    if status == "unbounded":
        best_values = None
    if cone_rows:
        stats.extra["cone_violation"] = cut_off if best_values is None else max(
            [0.0] + [viol for _, viol in _cone_violations(cone_rows, best_values)])
    if status == "unbounded":
        obj = INF if model.objective_sense == "max" else -INF
        return Solution("unbounded", {}, obj, stats)
    if best_values is None:
        if status == "limit_reached":
            return Solution("limit_reached", {}, math.nan, stats)
        return Solution("infeasible", {}, math.nan, stats)
    objective = best_cano if model.objective_sense == "max" else -best_cano
    return Solution(status, best_values, objective, stats)


# -- cone cuts ----------------------------------------------------------------


def _cone_support_cut(cone: ConeTerm, values):
    """Linear under-estimator of the cone value, tight at ``values``.

    Returns a (terms, constant) pair.  The gradient of the radical is defined
    whenever the radical is positive at the incumbent; the zero-radical case
    (possible only with a zero inside constant) falls back to a
    single-coordinate subgradient pointed toward the incumbent.
    """
    g2 = cone.constant_inside
    for var_id, coeff in cone.components:
        g2 += (coeff * values[var_id]) ** 2
    g = math.sqrt(g2)
    if g > 1e-12:
        terms = [
            (var_id, cone.scale * coeff * coeff * values[var_id] / g)
            for var_id, coeff in cone.components
        ]
        constant = cone.scale * cone.constant_inside / g
        return terms, constant
    if not cone.components:
        return [], 0.0
    var_id, coeff = max(cone.components, key=lambda t: (abs(t[1]), -t[0]))
    direction = 1.0 if values[var_id] >= 0 else -1.0
    return [(var_id, cone.scale * coeff * direction)], 0.0


def solve_cone(model: Model, options: SolverOptions | None = None) -> Solution:
    """Solve a model with square-root cone rows: one branch and bound
    (:func:`solve_milp`) that separates supporting-hyperplane cuts at its
    integer-feasible nodes.  Supporting hyperplanes of a convex radical never
    cut off exactly-feasible points, so an exhausted tree's incumbent is
    optimal for the original model."""
    return solve_milp(model, options)


def solve(model: Model, options: SolverOptions | None = None) -> Solution:
    """Dispatch on model features: cone rows, integrality, or plain LP."""
    options = options or SolverOptions()
    if model.has_cones():
        return solve_cone(model, options)
    if model.has_integers():
        return solve_milp(model, options)
    return solve_lp(to_standard_form(model), options)
