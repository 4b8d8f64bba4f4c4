"""From a nominal row to its robust counterparts.

One constraint, `x <= 10`, with both the coefficient and the right-hand side
allowed to drift by 10% of their nominal values.  The interval counterpart
protects against every realization; the reliability counterpart buys back
objective by tolerating a small violation probability.
"""

import math

from robustcounter import (
    RHS,
    Bounded,
    Model,
    UncertainSet,
    corner_check,
    interval_robust_counterpart,
    solve,
    symmetric_robust_counterpart,
)

m = Model("one_row")
x = m.add_variable("x")
m.set_objective("max", [(x, 1.0)])
m.add_constraint([(x, 1.0)], "<=", 10.0, label="cap")
m.finalize()

uset = UncertainSet([(0, x, Bounded()), (0, RHS, Bounded())])
EPS = 0.1

nominal = solve(m)
print(f"nominal optimum: x = {nominal.objective:.6f}")

# The worst corner realizes the coefficient at 1.1 and the budget at 9, so
# the interval counterpart concedes down to 9/1.1.
irc = interval_robust_counterpart(m, uset, EPS, 0.0)
sol = solve(irc.model)
print(f"interval counterpart: x = {sol.objective:.6f} "
      f"(worst corner 1.1*x <= 9)")

# Certification finds the worst corner of the uncertainty box entry by entry.
report = corner_check(m, uset, {x: sol.values[x]}, EPS, 0.0)
print(f"  corner check at the robust point: certified = {report.certified} "
      f"(the worst of 2**{report.entries} corners)")
report = corner_check(m, uset, {x: nominal.objective}, EPS, 0.0)
print(f"  corner check at the nominal point: certified = {report.certified}, "
      f"worst violation {max(report.worst_violation.values()):.3f}")

# The reliability counterpart interpolates: kappa = 1 tolerates violation
# with probability one (back to nominal), small kappa approaches the
# interval counterpart.  The weight ties to kappa via exp(-omega^2/2).
print("\nreliability ladder (eps = 0.1, delta = 0):")
for kappa in (1.0, 0.6065306597126334, math.exp(-2.0), 0.05):
    art = symmetric_robust_counterpart(m, uset, EPS, 0.0, kappa)
    sol = solve(art.model)
    print(f"  kappa = {kappa:-8.4f}  ->  x = {sol.objective:.6f}")

# The delta allowance relaxes the budget by delta * max(1, |rhs|); at
# delta = 1 the robust row falls behind the nominal one entirely.
irc = interval_robust_counterpart(m, uset, EPS, 1.0)
print(f"\ninterval counterpart with delta = 1: x = {solve(irc.model).objective:.6f}")
