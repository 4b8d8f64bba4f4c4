"""Computations made apart from the program, used to check its outputs.

Nothing here calls the program's solver, standard-form build, counterpart
builders or certifiers.  It reads a ``Model``'s variables and rows as data
and works on them with scipy, numpy and plain Python.  The module imports
scipy.optimize on first use, after the timed passes, so oracle imports stay
out of ``setup_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL_TOL = 1e-6


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _rows(model):
    """(terms, constant, sense, rhs, cone) for every row, as plain data."""
    return [(dict(c.lhs.terms), c.lhs.constant, c.sense, c.rhs, c.cone)
            for c in model.constraints]


def _row_lhs(terms, constant, cone, values) -> float:
    lhs = constant + math.fsum(a * values[v] for v, a in terms.items())
    if cone is not None:
        inside = cone.constant_inside + math.fsum(
            (a * values[v]) ** 2 for v, a in cone.components)
        lhs += cone.scale * math.sqrt(inside)
    return lhs


def max_row_violation(model, values) -> float:
    """Largest violation of any row (cone rows at their exact value), any
    bound or any integrality requirement, each scaled by ``max(1, |rhs|)``."""
    worst = 0.0
    for terms, constant, sense, rhs, cone in _rows(model):
        lhs = _row_lhs(terms, constant, cone, values)
        if sense == "<=":
            viol = lhs - rhs
        elif sense == ">=":
            viol = rhs - lhs
        else:
            viol = abs(lhs - rhs)
        worst = max(worst, viol / max(1.0, abs(rhs)))
    for v in model.variables:
        x = values[v.id]
        worst = max(worst, v.lower - x, x - v.upper)
        if v.kind in ("binary", "integer"):
            worst = max(worst, abs(x - round(x)))
    return worst


# -- HiGHS ---------------------------------------------------------------------


def highs_solve(model) -> tuple[str, float]:
    """Optimum of a cone-free model (or one whose cones have zero scale) by
    ``scipy.optimize.milp`` on matrices assembled here from the rows."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(model.variables)
    rows = _rows(model)
    a = np.zeros((len(rows), n))
    lo = np.full(len(rows), -np.inf)
    hi = np.full(len(rows), np.inf)
    for r, (terms, constant, sense, rhs, cone) in enumerate(rows):
        if cone is not None and cone.scale != 0.0:
            raise ValueError("highs_solve needs cone-free rows")
        for v, coeff in terms.items():
            a[r, v] = coeff
        if sense in ("<=", "="):
            hi[r] = rhs - constant
        if sense in (">=", "="):
            lo[r] = rhs - constant
    c = np.zeros(n)
    for v, coeff in model.objective.terms:
        c[v] = coeff
    sign = -1.0 if model.objective_sense == "max" else 1.0
    integrality = np.array([v.kind in ("binary", "integer")
                            for v in model.variables], dtype=int)
    bounds = Bounds([v.lower for v in model.variables],
                    [v.upper for v in model.variables])
    res = milp(sign * c, constraints=[LinearConstraint(a, lo, hi)],
               integrality=integrality, bounds=bounds,
               options={"mip_rel_gap": 1e-9})
    if res.status != 0:
        return {2: "infeasible", 3: "unbounded"}.get(res.status, "error"), math.nan
    return "optimal", sign * res.fun + model.objective.constant


# -- separable interval worst case ------------------------------------------------


def interval(nominal: float, tag, epsilon: float) -> tuple[float, float]:
    """Realization interval of a ``(kind, args)`` tag around ``nominal``."""
    kind, args = tag
    if kind == "range":
        return float(args[0]), float(args[1])
    if kind != "bounded":
        raise ValueError(f"{kind} tags have no interval")
    eps = float(args[0]) if args else epsilon
    return nominal - eps * abs(nominal), nominal + eps * abs(nominal)


def separable_violation(coeffs, rhs, tags, point, epsilon) -> float:
    """Worst violation of ``sum(a_j x_j) <= rhs`` over the interval box.

    Each entry sits in this row only, so the worst case is the sum over
    entries of ``max(lo * x, hi * x)`` against the lowest right-hand side.
    """
    lhs = []
    for name, a in coeffs.items():
        if name in tags:
            lo, hi = interval(a, tags[name], epsilon)
            lhs.append(max(lo * point[name], hi * point[name]))
        else:
            lhs.append(a * point[name])
    low_rhs = interval(rhs, tags["RHS"], epsilon)[0] if "RHS" in tags else rhs
    return math.fsum(lhs) - low_rhs


# -- Monte Carlo -------------------------------------------------------------------


def mc_bound(kappa: float, samples: int) -> float:
    """Highest violation frequency a reliability-``kappa`` row may show in
    ``samples`` draws: ``kappa + 3 sigma`` of the binomial estimate."""
    return kappa + 3.0 * math.sqrt(kappa * (1.0 - kappa) / samples)


# -- brute force over the binaries of a one-cone model ------------------------------


class ConeBruteForce:
    """Optimum of a maximization whose integer variables are binary and
    whose continuous variables appear only in linear link rows and in one
    cone row, by enumerating every binary point.

    For each binary point the continuous variables are chosen by
    ``scipy.optimize.minimize`` (SLSQP) to make the cone row's left-hand
    side as small as the link rows allow.  Points are visited from the best
    objective down, so the first one that fits is the optimum.
    """

    def __init__(self, model):
        self.model = model
        self.bins = [v.id for v in model.variables if v.kind == "binary"]
        self.conts = [v.id for v in model.variables if v.kind != "binary"]
        if len(self.bins) + len(self.conts) != len(model.variables):
            raise ValueError("only binary and continuous variables supported")
        if any(v in self.conts for v, _ in model.objective.terms):
            raise ValueError("objective must read binaries only")
        cont_set = set(self.conts)
        pure, mixed, cones = [], [], []
        for row in _rows(model):
            if row[4] is not None:
                cones.append(row)
            elif cont_set & row[0].keys():
                mixed.append(row)
            else:
                pure.append(row)
        if len(cones) != 1:
            raise ValueError("exactly one cone row supported")
        self.cone_row = cones[0]
        self.mixed = mixed
        points = np.array(list(itertools.product((0.0, 1.0),
                                                 repeat=len(self.bins))))
        ok = np.ones(len(points), dtype=bool)
        col = {v: k for k, v in enumerate(self.bins)}
        for terms, constant, sense, rhs, _ in pure:
            a = np.zeros(len(self.bins))
            for v, coeff in terms.items():
                a[col[v]] = coeff
            lhs = points @ a + constant
            if sense in ("<=", "="):
                ok &= lhs <= rhs + 1e-9
            if sense in (">=", "="):
                ok &= lhs >= rhs - 1e-9
        obj = np.zeros(len(self.bins))
        for v, coeff in model.objective.terms:
            obj[col[v]] = coeff
        points = points[ok]
        values = points @ obj + model.objective.constant
        order = np.argsort(-values, kind="stable")
        self.points = points[order]
        self.objectives = values[order]
        self._min_lhs: dict[int, float] = {}

    def min_cone_lhs(self, k: int) -> float:
        """Smallest cone-row left-hand side at binary point ``k``."""
        if k in self._min_lhs:
            return self._min_lhs[k]
        from scipy.optimize import minimize

        fixed = dict(zip(self.bins, self.points[k]))
        idx = {v: i for i, v in enumerate(self.conts)}
        terms, constant, _, _, cone = self.cone_row

        def split(terms_):
            base = sum(a * fixed[v] for v, a in terms_.items() if v in fixed)
            vec = np.zeros(len(self.conts))
            for v, a in terms_.items():
                if v in idx:
                    vec[idx[v]] = a
            return base, vec

        base, lin = split(terms)
        comp_fixed = cone.constant_inside + sum(
            (a * fixed[v]) ** 2 for v, a in cone.components if v in fixed)
        comp = np.zeros(len(self.conts))
        for v, a in cone.components:
            if v in idx:
                comp[idx[v]] = a

        def f(x):
            return (constant + base + lin @ x
                    + cone.scale * math.sqrt(comp_fixed + np.sum((comp * x) ** 2)))

        def grad(x):
            root = math.sqrt(comp_fixed + np.sum((comp * x) ** 2))
            return lin + (cone.scale * comp * comp * x / root if root > 0 else 0.0)

        constraints = []
        for r_terms, r_const, sense, rhs, _ in self.mixed:
            r_base, r_vec = split(r_terms)
            slack = rhs - r_const - r_base
            if sense == "<=":
                constraints.append({"type": "ineq",
                                    "fun": lambda x, v=r_vec, s=slack: s - v @ x,
                                    "jac": lambda x, v=r_vec: -v})
            elif sense == ">=":
                constraints.append({"type": "ineq",
                                    "fun": lambda x, v=r_vec, s=slack: v @ x - s,
                                    "jac": lambda x, v=r_vec: v})
            else:
                constraints.append({"type": "eq",
                                    "fun": lambda x, v=r_vec, s=slack: v @ x - s,
                                    "jac": lambda x, v=r_vec: v})
        bounds = [(None if math.isinf(self.model.variables[v].lower)
                   else self.model.variables[v].lower,
                   None if math.isinf(self.model.variables[v].upper)
                   else self.model.variables[v].upper) for v in self.conts]
        res = minimize(f, np.zeros(len(self.conts)), jac=grad, bounds=bounds,
                       constraints=constraints, method="SLSQP",
                       options={"ftol": 1e-12, "maxiter": 500})
        ok = all((c["fun"](res.x) >= -1e-7) if c["type"] == "ineq"
                 else abs(c["fun"](res.x)) <= 1e-7 for c in constraints)
        value = float(res.fun) if ok else math.inf
        self._min_lhs[k] = value
        return value

    def optimum(self, tol: float) -> float:
        """Best objective among binary points whose cone row fits within
        ``tol`` of its right-hand side; -inf when none does."""
        rhs = self.cone_row[3]
        for k in range(len(self.points)):
            if self.min_cone_lhs(k) <= rhs + tol:
                return float(self.objectives[k])
        return -math.inf
