"""Building models, solving them, and round-tripping through the text format.

The model carrier is deliberately small: variables with bounds and kinds,
merged linear expressions, and labelled rows.  The same carrier holds plain
LPs, mixed-integer models, and the cone-augmented robust counterparts, so
everything downstream speaks one language.
"""

from robustcounter import (
    ConeTerm,
    Model,
    export_text,
    import_text,
    solve,
)

# A two-variable LP. The feasible region has four vertices; the optimum sits
# at (4, 0) with objective 12.
m = Model("workshop")
x = m.add_variable("x")
y = m.add_variable("y")
m.set_objective("max", [(x, 3.0), (y, 2.0)])
m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 4.0, label="labour")
m.add_constraint([(x, 1.0), (y, 3.0)], "<=", 6.0, label="material")
m.finalize()

lp = solve(m)
print(f"LP: {lp.status}, objective {lp.objective:.6f}, "
      f"x = {lp.values[x]:.3f}, y = {lp.values[y]:.3f}")

# Declaring a variable binary flips the solver into branch-and-bound.
knap = Model("knapsack")
a = knap.add_variable("a", "binary")
b = knap.add_variable("b", "binary")
knap.set_objective("max", [(a, 5.0), (b, 4.0)])
knap.add_constraint([(a, 3.0), (b, 2.0)], "<=", 4.0, label="cap")
knap.finalize()

sol = solve(knap)
print(f"MILP: objective {sol.objective:.6f} at a = {sol.values[a]:.0f}, "
      f"b = {sol.values[b]:.0f} ({sol.stats.nodes} nodes explored)")

# Rows may carry a square-root cone term; the solver handles those by outer
# approximation inside its branch and bound, adding supporting hyperplanes at
# integer-feasible points that violate the row.
soc = Model("cone")
z = soc.add_variable("z")
soc.set_objective("max", [(z, 1.0)])
soc.add_constraint(
    [(z, 1.0)], "<=", 10.0, label="soft_cap",
    cone=ConeTerm.from_components(1.0, [(z, 1.0)]),
)
soc.finalize()
sol = solve(soc)
print(f"cone: z + sqrt(z^2) <= 10 gives z = {sol.values[z]:.6f} "
      f"after {sol.stats.cone_cuts} cut(s)")

# Models persist as a small line-oriented text document and come back
# identical: every float is written as the shortest text that reads back to it.
text = export_text(m)
print("\nserialized model:")
print(text)
again = solve(import_text(text))
assert again.objective == lp.objective == 12.0
print("reparsed objective:", f"{again.objective:.6f}")
