"""Hospital site selection under cost and budget uncertainty.

Four population districts, three candidate sites.  Expected utilization is
population times the per-person choice probability; the model opens at most
three sites under a budget, keeps every open site above an enrollment floor,
and covers every district.  The robust variants guard the budget row against
drifting fixed costs, variable costs, and the budget itself.
"""

from robustcounter import build_irc, build_nominal, build_rc, solve
from robustcounter.fixtures import demo_instance

instance = demo_instance()
util = instance.utilization
print("expected utilization matrix (districts x sites):")
for i, unit in enumerate(instance.units):
    row = "  ".join(f"{util[i, j]:6.1f}" for j in range(len(instance.sites)))
    print(f"  {unit.name:>12}: {row}")
print("  column totals:", "  ".join(f"{t:6.1f}" for t in util.sum(axis=0)))


def describe(tag, model):
    sol = solve(model)
    if sol.status != "optimal":
        print(f"{tag}: {sol.status}")
        return
    opened = [s.id for s in instance.sites
              if sol.values[model.variable_by_name(f"y_{s.id}").id] > 0.5]
    budget_used = model.constraint_by_label("budget").lhs.value(sol.values)
    print(f"{tag}: E = {sol.objective:8.2f}   open = {','.join(opened):<10} "
          f"budget {budget_used:7.2f} / {instance.budget:.0f}")


describe("nominal            ", build_nominal(instance))

# Interval robustness: the budget row must survive every cost realization
# within 5% (and 10%) of nominal, with the budget itself shrunk worst-case.
describe("interval eps = 0.05", build_irc(instance, 0.05, 0.0))
describe("interval eps = 0.10", build_irc(instance, 0.10, 0.0))
describe("interval + delta=.05", build_irc(instance, 0.10, 0.05))

# Reliability robustness at 5% uncertainty: smaller kappa demands more
# certainty and costs more utilization.
for kappa in (0.5, 0.14, 0.05):
    describe(f"reliability k={kappa:<4}", build_rc(instance, 0.05, 0.0, kappa))
