"""Mechanical derivation of deterministic robust counterparts.

Two transformations on a nominal model plus an uncertain set:

* :func:`interval_robust_counterpart` -- bounded (interval) uncertainty with
  per-entry intervals (global level ``epsilon`` unless a tag sets its own)
  and infeasibility tolerance ``delta``.  Per uncertain ``<=`` row it adds
  the separable worst-case row, with absolute-value auxiliaries only for
  mixed-sign variables, keeping every nominal row verbatim.
* :func:`symmetric_robust_counterpart` -- symmetric random uncertainty with
  reliability level ``kappa``.  The worst-case row gains a square-root cone
  term weighted by ``epsilon * omega`` where ``kappa = exp(-omega^2/2)``.

Both are pure transformations: the input model is read-only and a fresh model
is returned, so many transformations may run in parallel.

The module also adds the robust timing rows of sequencing constraints to a
caller's model, where the slack budget is split between the main
constraints (``delta``) and the emitted auxiliary rows (``delta2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ConeTerm, LinExpr, Model, ModelError
from .uncertainty import (
    INTERVAL_TAGS,
    Bounded,
    Normal,
    UncertainSet,
    _require_finite,
    bounded_interval,
    check_levels,
    normal_lambda,
    omega_from_kappa,
    slack_allowance,
)

IRC_SUFFIX = "__irc"
RC_SUFFIX = "__rc"


@dataclass
class CounterpartArtifacts:
    """A robust counterpart model.

    Its labels and names tie every addition to the nominal row and variable
    it protects: a tagged row ``<row>`` gains the row ``<row>__irc`` or
    ``<row>__rc`` and the links ``<row>__irc_lnk_<var>_up|lo`` or
    ``<row>__rc_lnk_<var>_up|lo`` between ``<var>`` and its auxiliaries
    ``u_<row>_<var>`` (absolute value; an interval counterpart adds one only
    for a mixed-sign variable) and ``v_<row>_<var>`` (cone split; symmetric
    counterparts only).
    """

    model: Model


def _prepare(model: Model, uncertain_set: UncertainSet, epsilon: float,
             delta: float, suffix: str):
    if model.has_cones():
        raise ModelError("input model must be cone-free")
    check_levels(epsilon, delta, ModelError)
    resolved = uncertain_set.validate(model)
    for con_id in resolved:
        con = model.constraints[con_id]
        if con.sense != "<=":
            raise ModelError(
                f"uncertain constraint {con.label!r} has sense {con.sense!r}; "
                "normalize to <= before robustifying"
            )
    out = model.copy(name=model.name + suffix)
    return out, resolved


def interval_robust_counterpart(model: Model, uncertain_set: UncertainSet,
                                epsilon: float, delta: float
                                ) -> CounterpartArtifacts:
    """Bounded-uncertainty counterpart.

    Each uncertain entry ranges over its own interval ``[lo_j, hi_j]`` from
    :func:`bounded_interval`.  The entries of a row vary independently, so
    the worst case of the row is separable: each takes the end of its
    interval that raises the left-hand side (Ben-Tal & Nemirovski 2000).
    Per uncertain row ``sum(a_j x_j) <= b`` the output carries

        sum(c_j x_j) + sum_{j mixed} rad_j u_j <= lo_b + delta * max(1, |b|)

    where ``c_j`` is ``hi_j`` when ``x_j >= 0``, ``lo_j`` when ``x_j <= 0``,
    and the midpoint ``mid_j`` for a mixed-sign variable, which alone gets an
    auxiliary ``u_j >= 0`` with half-width ``rad_j`` and links
    ``-u_j <= x_j <= u_j``.  ``lo_b`` is the low end of an uncertain
    right-hand side, else ``b``.  All nominal rows and the objective are
    kept, so any feasible point of the counterpart is nominal feasible.
    """
    out, resolved = _prepare(model, uncertain_set, epsilon, delta, IRC_SUFFIX)
    for con_id in sorted(resolved):
        con = model.constraints[con_id]
        coeffs = dict(con.lhs.terms)
        rhs = con.rhs
        for _, entry, nominal in resolved[con_id]:
            lo, hi = bounded_interval(nominal, entry.distribution, epsilon)
            if entry.is_rhs:
                rhs = lo
                continue
            var = model.variables[entry.target]
            if var.lower >= 0:
                coeffs[var.id] = hi
                continue
            if var.upper <= 0:
                coeffs[var.id] = lo
                continue
            coeffs[var.id] = 0.5 * (lo + hi)
            u = out.add_variable(f"u_{con.label}_{var.name}", "continuous", 0.0)
            coeffs[u] = 0.5 * (hi - lo)
            for sign, side in ((1.0, "up"), (-1.0, "lo")):
                out.add_constraint(
                    [(var.id, sign), (u, -1.0)], "<=", 0.0,
                    label=f"{con.label}{IRC_SUFFIX}_lnk_{var.name}_{side}",
                )
        out.add_constraint(
            LinExpr.from_terms(coeffs.items(), con.lhs.constant), "<=",
            rhs + slack_allowance(con.rhs, delta),
            label=f"{con.label}{IRC_SUFFIX}",
        )
    return CounterpartArtifacts(out.finalize())


def symmetric_robust_counterpart(model: Model, uncertain_set: UncertainSet,
                                 epsilon: float, delta: float, kappa: float
                                 ) -> CounterpartArtifacts:
    """Symmetric-uncertainty counterpart with reliability level ``kappa``.

    Per uncertain row the output carries

        sum(a_j x_j) + eps * sum_{j in M} |a_j| u_j
            + CONE(eps * omega; {a_j v_j}; b^2 * [RHS uncertain])
            <= b + delta * max(1, |b|)

    with links ``-u_j <= x_j - v_j <= u_j``, ``u_j >= 0`` and ``v_j`` free.
    The solver trades the linear protection (u) against the cone protection
    (v); at ``kappa = 1`` the cone weight vanishes and the row admits the
    nominal point with ``v = x, u = 0``.
    """
    omega = omega_from_kappa(kappa)
    out, resolved = _prepare(model, uncertain_set, epsilon, delta, RC_SUFFIX)
    for con_id in sorted(resolved):
        con = model.constraints[con_id]
        rhs_uncertain = False
        robust_terms = list(con.lhs.terms)
        cone_components = []
        for _, entry, nominal in resolved[con_id]:
            if entry.is_rhs:
                rhs_uncertain = True
                continue
            var = model.variables[entry.target]
            u = out.add_variable(f"u_{con.label}_{var.name}", "continuous", 0.0)
            v = out.add_variable(
                f"v_{con.label}_{var.name}", "continuous", -math.inf, math.inf
            )
            robust_terms.append((u, epsilon * abs(nominal)))
            cone_components.append((v, nominal))
            for sign, side in ((1.0, "up"), (-1.0, "lo")):
                out.add_constraint(
                    [(var.id, sign), (v, -sign), (u, -1.0)], "<=", 0.0,
                    label=f"{con.label}{RC_SUFFIX}_lnk_{var.name}_{side}",
                )
        cone = ConeTerm.from_components(
            epsilon * omega,
            cone_components,
            con.rhs ** 2 if rhs_uncertain else 0.0,
        )
        out.add_constraint(
            LinExpr.from_terms(robust_terms, con.lhs.constant), "<=",
            con.rhs + slack_allowance(con.rhs, delta),
            label=f"{con.label}{RC_SUFFIX}",
            cone=cone,
        )
    return CounterpartArtifacts(out.finalize())


# -- robust timing rows --------------------------------------------------------


@dataclass(frozen=True)
class TimingConstraintTemplate:
    """Data for one pair of sequencing rows of a scheduling model.

    ``alpha`` is the fixed processing-time coefficient (hours), ``beta`` the
    batch-size-proportional coefficient (hours per unit), ``horizon_H`` the
    big-M horizon and ``changeover_tcl`` the clean-up time.  The variable ids
    reference the caller's model: successor start, predecessor timing,
    the pair of assignment binaries, and the batch size.
    """

    alpha: float
    beta: float
    horizon_H: float
    changeover_tcl: float
    start_var: int
    finish_var: int
    assign_vars: tuple[int, int]
    batch_var: int

    def __post_init__(self):
        _require_finite(self.alpha, self.beta, self.horizon_H, self.changeover_tcl)
        for name in ("alpha", "beta", "horizon_H", "changeover_tcl"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def _add_timing_rows(model: Model, template: TimingConstraintTemplate, label: str,
                     alpha_eff: float, beta_eff: float, delta2: float, suffix: str
                     ) -> tuple[tuple[int, int], float]:
    wv1, wv2 = template.assign_vars
    h = template.horizon_H
    base = (
        (template.start_var, 1.0),
        (template.finish_var, -1.0),
        (wv1, h - alpha_eff),
        (wv2, h),
        (template.batch_var, -beta_eff),
    )
    changeover_label = f"{label}_changeover{suffix}"
    if changeover_label in model._labels:  # the one way the second row fails after the first
        raise ModelError(f"duplicate constraint label {changeover_label!r}")
    seq = model.add_constraint(base, "<=", 2.0 * h + delta2, label=f"{label}_seq{suffix}")
    changeover = model.add_constraint(base, "<=", 2.0 * h + template.changeover_tcl + delta2,
                                      label=changeover_label)
    return (seq, changeover), delta2


def robust_timing_bounded(model: Model, template: TimingConstraintTemplate,
                          epsilon: float, delta: float, *, label: str,
                          target: str = "alpha", distribution=Bounded()
                          ) -> tuple[tuple[int, int], float]:
    """Add a template's bounded-uncertainty rows ``<label>_seq__irc`` and
    ``<label>_changeover__irc`` to ``model``; return their ids and delta2.

    Both coefficients are lowered to their interval floor, (1 - eps) times
    nominal; the ``target`` one's floor and width are :func:`bounded_interval`'s
    over ``distribution``, one of the ``INTERVAL_TAGS``.  The auxiliary slack
    satisfies the identity

        delta + delta2 == upper - lower   (== 2 * eps * coefficient)

    with ``target`` selecting the fixed-time ("alpha") or rate ("beta")
    branch.  A negative delta2 (delta exceeding the interval width) is
    emitted as-is and tightens the rows: the identity is an identity, not an
    inequality.  :meth:`Model.add_constraint` checks the template's variable
    ids and the labels, and a call that fails adds no row.
    """
    check_levels(epsilon, delta)
    if target not in ("alpha", "beta"):
        raise ValueError("target must be 'alpha' or 'beta'")
    if not isinstance(distribution, INTERVAL_TAGS):
        raise ValueError(f"robust_timing_bounded reads an interval tag, got {distribution!r}")
    alpha_eff = (1.0 - epsilon) * template.alpha
    beta_eff = (1.0 - epsilon) * template.beta
    low, high = bounded_interval(getattr(template, target), distribution, epsilon)
    if target == "alpha":
        alpha_eff = low
    else:
        beta_eff = low
    delta2 = high - low - delta
    return _add_timing_rows(model, template, label, alpha_eff, beta_eff, delta2, IRC_SUFFIX)


def robust_timing_normal(model: Model, template: TimingConstraintTemplate,
                         distribution: Normal, epsilon: float, delta: float,
                         kappa: float, *, label: str) -> tuple[tuple[int, int], float]:
    """Add a template's normal-uncertainty rows ``<label>_seq__rc`` and
    ``<label>_changeover__rc`` to ``model``; return their ids and delta2.

    With ``mu`` and ``sigma`` the ``Normal`` tag's mean and std, both
    coefficients are scaled by ``1 - eps * (lambda * sqrt(sigma) - mu)`` with
    ``lambda`` the standard-normal quantile at ``1 - kappa``.  The slack
    split follows the same quantile shift:

        delta + delta2 == 2 * eps * (lambda * sqrt(sigma) - mu)

    with ``sigma`` under the square root, as in the multipliers.
    """
    if not isinstance(distribution, Normal):
        raise ValueError(f"robust_timing_normal reads a Normal tag, got {distribution!r}")
    check_levels(epsilon, delta)
    mu, sigma = distribution.mean, distribution.std
    lam = normal_lambda(kappa)
    multiplier = 1.0 - epsilon * (lam * math.sqrt(sigma) - mu)
    alpha_eff = multiplier * template.alpha
    beta_eff = multiplier * template.beta
    delta2 = 2.0 * epsilon * (lam * math.sqrt(sigma) - mu) - delta
    return _add_timing_rows(model, template, label, alpha_eff, beta_eff, delta2, RC_SUFFIX)
