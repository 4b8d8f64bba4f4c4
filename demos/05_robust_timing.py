"""Robust timing rows for sequencing constraints.

Scheduling models sequence consecutive runs of a task on a unit with big-M
rows driven by a fixed processing time (alpha) and a batch-size rate (beta).
When those coefficients are uncertain, the robust transformation lowers them
to their interval floor and splits the violation budget between the main
sequencing rows (delta) and the emitted auxiliary rows (delta2):

    delta + delta2 = width of the uncertainty interval
                   = 2 * eps * alpha            (relative level)
                   = upper - lower              (explicit range)
                   = 2 * eps * (lambda*sqrt(sigma) - mu)   (normal fit)

The bundled records carry the uncertain processing times/rates of an
industrial batch-plant case: explicit ranges where only bounds are known,
normal fits where plant data gave a mean and standard deviation.
"""

from robustcounter import (
    BoundedRange,
    Model,
    TimingConstraintTemplate,
    robust_timing_bounded,
    robust_timing_normal,
)
from robustcounter.fixtures import TIMING_UNCERTAINTY

EPS, DELTA, KAPPA = 0.05, 0.1, 0.05

# one shared variable block for illustration; every record adds its rows here
m = Model("schedule_fragment")
template_vars = dict(
    start_var=m.add_variable("start_next"),
    finish_var=m.add_variable("finish_prev"),
    assign_vars=(m.add_variable("run_prev", "binary"),
                 m.add_variable("run_next", "binary")),
    batch_var=m.add_variable("batch"),
)

print(f"eps = {EPS}, delta = {DELTA}, kappa = {KAPPA}\n")
print(f"{'missions':>12} {'units':>6} {'nominal':>8} {'kind':>8} "
      f"{'floor-coeff':>12} {'delta2':>8}")
for k, record in enumerate(TIMING_UNCERTAINTY):
    tpl = TimingConstraintTemplate(
        alpha=record.nominal, beta=0.0, horizon_H=12.0, changeover_tcl=1.0,
        **template_vars,
    )
    if isinstance(record.distribution, BoundedRange):
        rows, delta2 = robust_timing_bounded(m, tpl, EPS, DELTA, label=f"record{k}",
                                             distribution=record.distribution)
        kind = "range"
    else:
        rows, delta2 = robust_timing_normal(m, tpl, record.distribution, EPS, DELTA,
                                            KAPPA, label=f"record{k}")
        kind = "normal"
    # the effective coefficient: the floor, or the nominal after the quantile shift
    wv1 = template_vars["assign_vars"][0]
    floor = tpl.horizon_H - dict(m.constraints[rows[0]].lhs.terms)[wv1]
    print(f"{record.missions:>12} {record.units:>6} {record.nominal:8.2f} "
          f"{kind:>8} {floor:12.4f} {delta2:8.4f}")

print(f"\nnegative delta2 tightens the auxiliary rows (the split is an "
      f"identity, not an inequality); each record added a sequencing row and "
      f"a changeover row, {len(m.constraints)} rows in all, to {m.name!r}.")
