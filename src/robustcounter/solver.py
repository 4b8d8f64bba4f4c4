"""Embedded optimizer: one bounded simplex, and one branch-and-bound tree
that also cuts square-root cone rows.

Everything here is deterministic for one numpy/BLAS build and thread count:
identical inputs and options produce identical Solutions, including node
counts.  Dense solves and products round differently per BLAS thread count
(gen 12x8 rc takes 78,004 LP iterations with OpenBLAS's two threads on a
2-core host and 78,729 with one).  Every model is solved by one
branch-and-bound tree; a model with no integer variables and no cone rows
is the tree's root node alone.  Every LP of the tree runs through one
routine over ``[A | -I]``: model variables keep their bounds on their
columns and each row gets a logical column bounded by the row's range
(Dantzig's upper-bounding technique).  The root starts at the slack basis,
where the tableau is ``-[A | -I]``.  A node LP starts from the final
tableau ``B^-1 [A | -I]`` of the LP it was made from, its parent's or,
after a cut, its own; rows appended since join it with their logicals
basic (the dual-simplex warm start of Koberstein 2005; Achterberg 2007).
The tableau is solved for afresh from the original matrix at that LP's
basis only when the tree no longer holds it (it holds those of the last
``_HELD_TABLEAUX`` LPs that made nodes), once it has carried
``_REFACTOR_EVERY`` LP iterations since its last dense solve, so rounding
drifts only that far, and on the retry after an unproven verdict.  The
slack basis, which is never singular, replaces a singular one.  A bounded
dual simplex (the row farthest out of bounds leaves, Koberstein 2005, and
Bland's row after ``_BLAND_AFTER`` dual-degenerate pivots in a row; the
largest pivot among near-tied ratios enters) reaches a feasible basis with
wrong-signed reduced costs shifted to zero, and a bounded primal simplex
with Bland's rule finishes with the true costs.  Each simplex loop stops at
``_MAX_ITER_PER_COLUMN`` pivots per column of ``[A | -I]``.  A row that no
column can move is accepted within the feasibility tolerance.  'infeasible'
and 'unbounded' stand only when a ray recomputed from the original matrix
proves them.  Branching picks the most fractional variable with
lowest-index tie-breaks, and the node queue is ordered by best bound with
FIFO tie-breaks.

Square-root cone rows are handled by LP/NLP-based branch and bound (Quesada
& Grossmann 1992): node LPs see each cone row at its radical floor, and at
every integer-feasible node the integer values are rounded, the rounded
point is checked against every row, and violated cone rows get a supporting
hyperplane of the convex radical.  Each cut is appended as a row to the
tree's one working LP and the node is queued again, so one tree serves the
whole solve and its time, node and cut-round limits bound the whole call.
Supporting hyperplanes never cut off exactly-feasible points, and
incumbents are rounded points where every row holds.

A node's bounds are two arrays; a child copies one and changes one integer
bound, so every node LP is the working LP with the node's arrays as its
column bounds.  One deadline, taken when the call starts, stops the tree
and the simplex inside every node LP.

One solve runs on one thread; distinct solves on distinct models may run
concurrently (no shared mutable state).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    CONE_CUT_TOL,
    FEASIBILITY_TOL,
    INF,
    INTEGRALITY_TOL,
    ConeTerm,
    LinExpr,
    Model,
    Solution,
    SolverStats,
    StandardFormLP,
    to_standard_form,
)

_PIVOT_TOL = 1e-9
_MAX_ITER_PER_COLUMN = 100  # a simplex loop's pivot cap per column of [A | -I]
_BLAND_AFTER = 50  # dual-degenerate pivots in a row before the leaving row is Bland's
_PRUNE_TOL = 1e-9
_HELD_TABLEAUX = 16  # LP results whose final tableaux a tree holds for its nodes
_REFACTOR_EVERY = 50  # LP iterations a tableau carries before a node refactors


class SolverError(ValueError):
    """Raised for malformed solver input: a limit that is negative or NaN."""


@dataclass
class SolverOptions:
    """The limits of one call; each bounds the whole call.  Tolerances are
    the constants ``FEASIBILITY_TOL``, ``INTEGRALITY_TOL`` and
    ``CONE_CUT_TOL`` of :mod:`robustcounter.model`."""

    max_nodes: int = 200_000
    max_cone_rounds: int = 200  # integer-feasible nodes at which cuts are added
    time_limit_seconds: float = INF

    def __post_init__(self):
        for name in ("time_limit_seconds", "max_nodes", "max_cone_rounds"):
            if not getattr(self, name) >= 0:
                raise SolverError(f"{name} must be nonnegative, got {getattr(self, name)}")


# -- simplex ----------------------------------------------------------------


@dataclass(slots=True)
class _SimplexResult:
    status: str
    x: np.ndarray | None = None
    objective: float = math.nan
    iterations: int = 0
    basis: np.ndarray | None = None
    tab: np.ndarray | None = None  # the final tableau at ``basis``
    age: int = 0  # LP iterations ``tab`` carries since its last dense solve
    refactors: int = 0  # dense solves of B^-1 [A | -I]


def _pivot(tab, basis, row, col):
    # masked rank-1 update, one multiply and one subtract per element as row
    # by row; rows whose pivot-column entry is within the tolerance stay as is
    tab[row] /= tab[row, col]
    mask = np.abs(tab[:, col]) > _PIVOT_TOL
    mask[row] = False
    np.subtract(tab, np.multiply.outer(tab[:, col], tab[row]), out=tab,
                where=mask[:, None])
    basis[row] = col


def _run_dual(tab, basis, x, lo, hi, deadline):
    """Bounded dual simplex over the tableau in place, from dual-feasible
    reduced costs (the last row of ``tab``) and values ``x`` of every column.

    The leaving row is, among rows whose value is more than the pivot
    tolerance outside its bounds, the one farthest beyond its bound widened
    by that tolerance, the lowest row among ties (Koberstein 2005).  After
    ``_BLAND_AFTER`` dual-degenerate pivots in a row (smallest ratio within
    the pivot tolerance) it is Bland's, the lowest basis index, until a
    pivot that is not degenerate.  It leaves at the bound it breaks.  The
    entering column is a nonbasic one that can move the leaving value
    towards that bound from where it sits, with the smallest ratio
    ``|d_j| / |a_rj|``; ratios within the pivot tolerance of the smallest go
    to the largest ``|a_rj|``, then to the lowest index.  A leaving row with
    no entering column is passed over until the next pivot if it is within
    ``FEASIBILITY_TOL`` of its bounds.  Returns (status, iterations); status
    is 'optimal' once every basic value not passed over is within its
    bounds, 'infeasible' when one beyond ``FEASIBILITY_TOL`` has no entering
    column, or 'limit' after ``_MAX_ITER_PER_COLUMN`` pivots per column of
    ``tab`` or once ``deadline`` (a ``time.monotonic`` value) has passed
    with a pivot still to make.
    """
    m = len(basis)
    d = tab[-1]
    xb = x[basis]  # the basic values, written back to ``x`` on return
    lob, hib = lo[basis] - _PIVOT_TOL, hi[basis] + _PIVOT_TOL
    up, down = x < hi, x > lo  # which nonbasic columns can rise, fall
    up[basis] = down[basis] = False
    passed = []  # rows no column can move, within tolerance, since the last pivot
    iters = degenerate = 0
    try:
        while iters < _MAX_ITER_PER_COLUMN * tab.shape[1]:
            below = xb < lob
            viol = np.maximum(lob - xb, xb - hib)
            bad = (viol > 0).nonzero()[0]
            bad = bad[~np.isin(bad, passed)] if passed else bad
            if not bad.size:
                return "optimal", iters
            if time.monotonic() >= deadline:
                return "limit", iters
            r = bad[basis[bad].argmin()] if degenerate >= _BLAND_AFTER else bad[viol[bad].argmax()]
            # the basic value is -row @ x over the nonbasic columns
            row = tab[r]
            neg, pos = row < -_PIVOT_TOL, row > _PIVOT_TOL
            cand = ((neg & up) | (pos & down) if below[r]
                    else (pos & up) | (neg & down)).nonzero()[0]
            if not cand.size:
                if not lo[basis[r]] - FEASIBILITY_TOL <= xb[r] <= hi[basis[r]] + FEASIBILITY_TOL:
                    return "infeasible", iters
                passed.append(r)
                continue
            a = row[cand]
            ratio = -d[cand] / a if below[r] else d[cand] / a
            least, q = np.minimum.reduce(ratio), cand[0]
            if cand.size > 1:
                near = ratio <= least + _PIVOT_TOL
                q = cand[near][np.abs(a[near]).argmax()]
            degenerate = degenerate + 1 if least <= _PIVOT_TOL else 0
            p = basis[r]
            target = lo[p] if below[r] else hi[p]
            col = tab[:m, q]
            step = (xb[r] - target) / col[r]
            xb -= step * col
            xb[r] = x[q] + step
            x[p] = target
            lob[r], hib[r] = lo[q] - _PIVOT_TOL, hi[q] + _PIVOT_TOL
            up[q] = down[q] = False
            up[p], down[p] = target < hi[p], target > lo[p]
            _pivot(tab, basis, r, q)
            passed = []
            iters += 1
        return "limit", iters
    finally:
        x[basis] = xb


def _run_primal(tab, basis, x, lo, hi, deadline):
    """Bounded primal simplex with Bland's rule over the tableau in place,
    from values ``x`` within their bounds.

    The entering column is the lowest-index nonbasic one whose reduced cost
    improves in a direction its bounds leave open.  It moves until a basic
    value reaches a bound, ratios within the tolerance of the smallest going
    to the lowest basis index, or until its own other bound, whichever comes
    first; then it flips to that bound with no pivot.  Returns (status,
    iterations, entering column); status is 'optimal', 'unbounded' (nothing
    stops the entering column) or 'limit' as for :func:`_run_dual`.
    """
    m = len(basis)
    d = tab[-1]
    lob, hib = lo[basis], hi[basis]
    up, down = x < hi, x > lo
    up[basis] = down[basis] = False
    cap = _MAX_ITER_PER_COLUMN * tab.shape[1]
    for iters in range(cap):
        cand = (((d < -_PIVOT_TOL) & up) | ((d > _PIVOT_TOL) & down)).nonzero()[0]
        if not cand.size:
            return "optimal", iters, -1
        if time.monotonic() >= deadline:
            return "limit", iters, -1
        q = cand[0]
        sign = 1.0 if d[q] < 0 else -1.0
        col = sign * tab[:m, q]  # basic values fall by col * step
        xb = x[basis]
        ratio = np.full(m, INF)
        dec, inc = col > _PIVOT_TOL, col < -_PIVOT_TOL
        ratio[dec] = (xb[dec] - lob[dec]) / col[dec]
        ratio[inc] = (hib[inc] - xb[inc]) / -col[inc]
        np.maximum(ratio, 0.0, out=ratio)
        step = ratio.min(initial=INF)
        span = hi[q] - lo[q]
        if span <= step:
            if span == INF:
                return "unbounded", iters, q
            x[basis] = xb - col * span
            x[q] = hi[q] if sign > 0 else lo[q]
            up[q], down[q] = sign < 0, sign > 0
            continue
        near = (ratio <= step + _PIVOT_TOL).nonzero()[0]
        r = near[basis[near].argmin()]
        p = basis[r]
        x[basis] = xb - col * step
        x[q] += sign * step
        x[p] = lob[r] if col[r] > 0 else hib[r]
        lob[r], hib[r] = lo[q], hi[q]
        up[q] = down[q] = False
        up[p], down[p] = x[p] < hi[p], x[p] > lo[p]
        _pivot(tab, basis, r, q)
    return "limit", cap, -1


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


def _carry(tab, mat, basis):
    """The tableau ``[B^-1 mat ; reduced costs]`` at ``basis`` from ``tab``,
    the final tableau of an LP whose matrix was ``mat`` before rows were
    appended, at the basis ``B = basis[:len(tab) - 1]``.  The rest of
    ``basis`` is the appended rows' logicals, each basic in its own row, so
    those rows are ``mat[new, B] @ T - mat[new]`` over the old rows ``T``:
    one product, not a solve.  Every reduced cost keeps its value, 0 on the
    new logical columns."""
    m0, width = tab.shape[0] - 1, tab.shape[1]
    m = mat.shape[0]
    if m == m0:
        return tab.copy()
    out = np.zeros((m + 1, mat.shape[1]))
    out[:m0, :width] = tab[:m0]
    out[m0:m] = mat[m0:, basis[:m0]] @ out[:m0] - mat[m0:]
    out[m, :width] = tab[m0]
    return out


def _start(mat, cost, lo, hi, basis, tab=None):
    """The tableau ``[B^-1 mat ; reduced costs]`` at ``basis``, the value of
    every column, which reduced costs were shifted to zero, and whether
    ``B^-1 mat`` was solved for afresh.  The tableau is carried from ``tab``
    (:func:`_carry`) when given, and otherwise refactored from ``mat``, with
    the slack basis in place of a singular one.  A nonbasic column sits at
    the bound its reduced cost favours, at its one finite bound, or at 0
    when free; reduced costs of the wrong sign for where a column sits are
    shifted."""
    refactored = False
    if tab is None:
        slack = np.arange(mat.shape[1] - mat.shape[0], mat.shape[1])
        refactored = not np.array_equal(basis, slack)
        rows = _refactor(mat, basis) if refactored else None
        if rows is None:  # B^-1 mat is -mat at the slack basis
            basis[:] = slack
            rows = -mat
        d = cost - cost[basis] @ rows
        d[basis] = 0.0
        tab = np.vstack([rows, d])
    else:
        tab = _carry(tab, mat, basis)
    rows, d = tab[:-1], tab[-1]
    finite_lo, neg, pos = np.isfinite(lo), d < 0, d > 0
    at_hi = np.isfinite(hi) & (neg | ~finite_lo)
    x = np.where(at_hi, hi, np.where(finite_lo, lo, 0.0))
    x[basis] = 0.0
    x[basis] = -(rows @ x)
    shifted = (lo < hi) & np.where(at_hi, pos, neg | (pos & ~finite_lo))
    shifted[basis] = False
    d[shifted] = 0.0
    return tab, x, shifted, refactored


def _range_over_box(coef, lo, hi):
    """The least and the greatest value of ``coef @ z`` over ``lo <= z <= hi``."""
    nz = coef != 0.0
    coef, lo, hi = coef[nz], lo[nz], hi[nz]
    pos = coef > 0.0
    return coef @ np.where(pos, lo, hi), coef @ np.where(pos, hi, lo)


def _proven(status, mat, cost, lo, hi, basis, x, enter) -> bool:
    """Whether a ray computed afresh from ``basis`` and the original matrix
    proves an 'infeasible' or 'unbounded' verdict.

    Infeasible: for a row out of bounds, ``y = B^-T e_r`` gives ``y @ mat @ z
    == 0`` for every solution ``z``, which no ``z`` within the bounds can
    meet.  Unbounded: the direction that moves ``enter`` and keeps
    ``mat @ z == 0`` improves the cost and meets no finite bound.  Entries
    within the pivot tolerance (scaled by the ray) count as zero, and the
    ray's reach is compared with ``FEASIBILITY_TOL`` (scaled alike)."""
    b = mat[:, basis]
    try:
        if status == "infeasible":
            xb = x[basis]
            rows = np.flatnonzero((xb < lo[basis] - _PIVOT_TOL) | (xb > hi[basis] + _PIVOT_TOL))
            ys = np.linalg.solve(b.T, np.eye(len(basis))[:, rows]).T
        else:
            col = np.linalg.solve(b, mat[:, enter])
    except np.linalg.LinAlgError:
        return False
    if status == "infeasible":
        for y in ys:
            scale = max(1.0, np.abs(y).max())
            ray = y @ mat
            ray[np.abs(ray) <= _PIVOT_TOL * scale] = 0.0
            least, greatest = _range_over_box(ray, lo, hi)
            if least > FEASIBILITY_TOL * scale or greatest < -FEASIBILITY_TOL * scale:
                return True
        return False
    ray = np.zeros(mat.shape[1])
    ray[enter] = 1.0 if cost[enter] - cost[basis] @ col < 0 else -1.0
    ray[basis] = -ray[enter] * col
    scale = max(1.0, np.abs(ray).max())
    if not (cost @ ray < -_PIVOT_TOL * scale
            and np.abs(mat @ ray).max(initial=0.0) <= FEASIBILITY_TOL * scale):
        return False
    return bool(np.all(hi[ray > _PIVOT_TOL * scale] == INF)
                and np.all(lo[ray < -_PIVOT_TOL * scale] == -INF))


def _working(sf):
    """``[a | -I]`` of the LP ``sf``, and its costs: ``-c``, then 0 on the logicals."""
    m = len(sf.a)
    return np.hstack([sf.a, -np.eye(m)]), np.concatenate([-sf.c, np.zeros(m)])


def _solve_standard(sf: StandardFormLP, deadline: float,
                    origin: _SimplexResult | None = None, work=None) -> _SimplexResult:
    """The one LP routine: bounded dual simplex to a feasible basis, then
    bounded primal simplex with the true costs, over ``[a | -I]`` whose last
    columns are the rows' logical columns, bounded by the row ranges.

    It starts from ``origin``, the optimal result of an LP with the same
    matrix or the same matrix before rows were appended (their logicals join
    its basis), or from the slack basis.  It carries the origin's final
    tableau while that is held and has taken fewer than ``_REFACTOR_EVERY``
    LP iterations since its last dense solve; otherwise it refactors at the
    origin's basis, or takes the slack basis in place of a singular one.
    Reduced costs shifted at the start are restored for the primal finish.
    A row that no column can move is accepted within ``FEASIBILITY_TOL``.
    An 'infeasible' or 'unbounded' verdict stands only when :func:`_proven`;
    the first one that is not refactors at the current basis and goes on if
    the first try took a step or carried its tableau, and otherwise, or at a
    second, the LP ends with 'limit'.  Every loop stops at ``deadline``.
    The result carries the final basis and tableau.  ``work`` is
    :func:`_working` of ``sf`` when the caller holds it."""
    n, m = len(sf.c), sf.a.shape[0]
    lo = np.concatenate([sf.col_lo, sf.row_lo])
    hi = np.concatenate([sf.col_hi, sf.row_hi])
    # a node's bounds are its parent's with one tightened to lo <= hi
    if origin is None and np.logical_or.reduce((lo > hi) | (lo == INF) | (hi == -INF)):
        return _SimplexResult("infeasible")
    mat, cost = work or _working(sf)
    basis = np.arange(n, n + m) if origin is None else np.concatenate(
        [origin.basis, np.arange(n + len(origin.basis), n + m)])
    carried = origin is not None and origin.tab is not None and origin.age < _REFACTOR_EVERY
    tab, age = (origin.tab, origin.age) if carried else (None, 0)
    iters = refactors = 0
    for _ in range(2):
        tab, x, shifted, refactored = _start(mat, cost, lo, hi, basis, tab)
        refactors += refactored
        status, more = _run_dual(tab, basis, x, lo, hi, deadline)
        iters += more
        age += more
        enter = -1
        if status == "optimal":
            if shifted.any():
                tab[-1] = cost - cost[basis] @ tab[:m]
                tab[-1, basis] = 0.0
            status, more, enter = _run_primal(tab, basis, x, lo, hi, deadline)
            iters += more
            age += more
        if status == "optimal":
            xs = np.minimum(np.maximum(x[:n], sf.col_lo), sf.col_hi)
            return _SimplexResult("optimal", xs, float(sf.c @ xs + sf.c0), iters, basis,
                                  tab, age, refactors)
        if status == "limit" or _proven(status, mat, cost, lo, hi, basis, x, enter):
            return _SimplexResult(status, iterations=iters, refactors=refactors)
        if not (iters or carried):
            break  # a retry from the same tableau would repeat this verdict
        tab, age, carried = None, 0, False
    return _SimplexResult("limit", iterations=iters, refactors=refactors)


# -- branch and bound --------------------------------------------------------


def _branching_var(x: np.ndarray, is_int: np.ndarray) -> int | None:
    """The integer variable whose distance to the nearest integer is closest
    to 0.5, the lowest id among ties; None when all are within
    ``INTEGRALITY_TOL``."""
    frac = np.abs(x - np.rint(x))
    cand = (is_int & (frac > INTEGRALITY_TOL)).nonzero()[0]
    return int(cand[np.argmin(np.abs(frac[cand] - 0.5))]) if cand.size else None


def _relax_cones(model: Model, cone_rows) -> Model:
    """Copy of ``model`` with each cone row replaced by its value at the
    radical floor, a valid relaxation: the radical never falls below
    ``sqrt(constant_inside)``."""
    relaxed = model.copy(name=f"{model.name}__oa")
    for con in cone_rows:
        floor_const = con.cone.scale * math.sqrt(con.cone.constant_inside)
        lhs = LinExpr.from_terms(con.lhs.terms, con.lhs.constant + floor_const)
        relaxed.constraints[con.id] = replace(con, lhs=lhs, cone=None)
    return relaxed


def solve_milp(model: Model, options: SolverOptions | None = None) -> Solution:
    """Branch-and-bound over LP relaxations, with cone rows cut in the tree.

    The root's bounds are the model's.  Branching variable: most
    fractional, ties broken by lowest id.  Node order: best bound, ties
    FIFO.  Cone rows enter the node LPs at their radical floor.  At a node
    whose LP point is integer-feasible the integer values are rounded; if
    the rounded point breaks a linear row or bound by more than
    ``FEASIBILITY_TOL``, the node branches on the integer variable farthest
    from integral.  Otherwise every cone row is evaluated exactly there, and
    rows violated by more than ``CONE_CUT_TOL`` get a supporting-hyperplane
    cut, appended as a row to the working LP that every later node LP
    shares, and the node goes back into the queue under its own LP bound,
    which the cuts leave valid.  A rounded point that passes every check is
    an incumbent, its objective taken there.

    An exhausted tree certifies the incumbent optimal (within the LP and cut
    tolerances); hitting ``max_nodes``, ``max_cone_rounds`` separations, the
    time limit or the simplex pivot cap yields ``limit_reached`` carrying the
    incumbent if one exists, as does a rounded point that fails its checks
    with nothing left to round.  Only the root LP can make the call
    ``unbounded``: once a node LP is optimal, a later node LP that claims an
    unbounded ray does so from rounding, and the call stops with
    ``limit_reached`` as well.  With cone rows, ``stats.cone_violation`` is
    the worst cone-row residual at the returned values, or at the last
    cut-off point when none are returned.
    """
    options = options or SolverOptions()
    deadline = time.monotonic() + options.time_limit_seconds
    cone_rows = [c for c in model.constraints if c.cone is not None]
    is_int = np.array([v.is_integer for v in model.variables], dtype=bool)
    lp = to_standard_form(_relax_cones(model, cone_rows) if cone_rows else model)
    # the model's linear rows and bounds, which a rounded point must meet
    linear = np.flatnonzero([c.cone is None for c in model.constraints])
    lin_a, lin_lo, lin_hi = lp.a[linear], lp.row_lo[linear], lp.row_hi[linear]
    stats = SolverStats()

    best_values = None
    best_cano = -INF
    separations = 0
    cut_off = 0.0
    # a node is (-bound, FIFO seq, lo, hi, origin): every variable's bounds in id order,
    # shared with children, and the optimal LP result it starts from, None at the root
    seq = itertools.count()
    heap = [(-INF, next(seq), lp.col_lo, lp.col_hi, None)]
    work = _working(lp)
    held = deque()  # results whose tableaux nodes may start from, oldest first

    def hold(res):
        held.append(res)
        if len(held) > _HELD_TABLEAUX:
            held.popleft().tab = None
        return res

    status = "optimal"
    bounded = False  # some node LP was optimal, so none can be unbounded
    while heap:
        neg_bound, _, node_lo, node_hi, origin = heapq.heappop(heap)
        if -neg_bound <= best_cano + _PRUNE_TOL:
            break  # best-bound order: nothing left can improve
        if stats.nodes >= options.max_nodes or time.monotonic() > deadline:
            status = "limit_reached"
            break
        res = _solve_standard(StandardFormLP(lp.c, lp.c0, lp.a, lp.row_lo, lp.row_hi, node_lo,
                                             node_hi, lp.sense), deadline, origin, work)
        stats.nodes += 1
        stats.iterations += res.iterations
        stats.refactors += res.refactors
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
        if cano <= best_cano + _PRUNE_TOL:
            continue
        var = _branching_var(res.x, is_int)
        if var is None:
            point = np.where(is_int, np.rint(res.x), res.x) + 0.0
            act = lin_a @ point
            breach = np.concatenate([lin_lo - act, act - lin_hi,
                                     lp.col_lo - point, point - lp.col_hi])
            if np.logical_or.reduce(breach > FEASIBILITY_TOL):
                var = int(np.argmax(np.abs(res.x - point)))
                if res.x[var] == point[var]:
                    status = "limit_reached"  # the LP point itself breaks a row
                    break
        if var is None:
            values = dict(enumerate(point.tolist()))
            viol = [model.evaluate_constraint(values, con.id) for con in cone_rows]
            violated = [con for con, v in zip(cone_rows, viol) if v > CONE_CUT_TOL]
            if violated:
                cut_off = max(viol)
                if separations >= options.max_cone_rounds:
                    status = "limit_reached"
                    break
                separations += 1
                # each row's linear terms plus its radical's tangent, without the floor
                rows, row_hi = lp.a[[con.id for con in violated]], []
                for row, con in zip(rows, violated):
                    terms, constant = _cone_support_cut(con.cone, values)
                    for var_id, coeff in terms:
                        row[var_id] += coeff
                    row_hi.append(con.rhs - (con.lhs.constant + constant))
                stats.cone_cuts += len(rows)
                lp = replace(lp, a=np.vstack([lp.a, rows]),
                             row_lo=np.concatenate([lp.row_lo, np.full(len(rows), -INF)]),
                             row_hi=np.concatenate([lp.row_hi, row_hi]))
                work = _working(lp)
                heapq.heappush(heap, (-cano, next(seq), node_lo, node_hi, hold(res)))
                continue
            cano = float(lp.c @ point + lp.c0)
            if cano > best_cano:
                best_cano = cano
                best_values = values
            continue
        down, up = node_hi.copy(), node_lo.copy()
        down[var], up[var] = math.floor(res.x[var]), math.ceil(res.x[var])
        hold(res)
        for lo, hi in ((node_lo, down), (up, node_hi)):
            if lo[var] <= hi[var]:
                heapq.heappush(heap, (-cano, next(seq), lo, hi, res))

    if cone_rows:
        stats.cone_violation = cut_off if best_values is None else max(
            [0.0] + [model.evaluate_constraint(best_values, con.id) for con in cone_rows])
    if status == "unbounded":
        return Solution("unbounded", {}, lp.model_objective(INF), stats)
    if best_values is None:
        if status == "limit_reached":
            return Solution("limit_reached", {}, math.nan, stats)
        return Solution("infeasible", {}, math.nan, stats)
    return Solution(status, best_values, lp.model_objective(best_cano), stats)


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
    """Solve any model by one branch-and-bound tree (:func:`solve_milp`,
    through :func:`solve_cone` when it has cone rows).  A model with no
    integer variables and no cone rows is the tree's root node alone, and
    every limit bounds it."""
    if model.has_cones():
        return solve_cone(model, options)
    return solve_milp(model, options)
