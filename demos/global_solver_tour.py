"""Global solver walkthrough.

Three stops: an exact instance fathomed in one node, the fixed-voltage
experiment where voltages are pinned and the relaxation gap survives even
sub-degree angles, and a regenerated radial 9-bus instance with a certified
positive gap (the reason cuts and bound tightening exist).
"""

from radopf import bnb, cases, jabr, network
from radopf.generate import raise_reactive_floor

print("1. exact root: case2_two_gen at gamma = 0.90")
scaled = network.scale_load(cases.load_case("case2_two_gen"), 0.90)
res = bnb.solve_global(scaled, gap_tol=1e-4)
print(f"   {res.status} at ${res.objective:.2f} in {res.nodes} node(s)\n")

print("2. pinned voltages (c11=0.874, c22=0.816)")
net2 = cases.load_case("case2_two_gen")
relax = jabr.solve_relaxation(net2, fixed_voltage={1: 0.874, 2: 0.816})
res = bnb.solve_global(net2, gap_tol=1e-3, fixed_voltage={1: 0.874, 2: 0.816})
import math
dtheta = math.degrees(res.incumbent.theta[1] - res.incumbent.theta[0])
print(f"   relaxation ${relax.objective:.2f} vs global ${res.objective:.2f}"
      f" (gap {100 * (1 - relax.objective / res.objective):.1f}%)"
      f" with angle difference {abs(dtheta):.2f} deg\n")

print("3. regenerated radial 9-bus instance (reactive floor overshoot)")
tree = network.spanning_tree(cases.load_case("case9", drop_charging=True), 0)
inst = raise_reactive_floor(tree, 1, 0.3)
relax = jabr.solve_relaxation(inst)
res = bnb.solve_global(inst, gap_tol=5e-3, time_limit=120)
print(f"   relaxation ${relax.objective:.2f} ({relax.verdict});"
      f" global {res.status} ${res.objective:.2f}")
print(f"   certified gap {100 * (1 - relax.objective / res.objective):.2f}%"
      f" after {res.nodes} nodes (root gap {res.root_gap_pct:.2f}%,"
      f" {res.cuts} cuts)")
print("   bound trace (node, lower bound, incumbent):")
for row in res.trace[:: max(1, len(res.trace) // 8)]:
    print(f"     {row[0]:>5} {row[1]:>12.2f} {row[2]:>12.2f}")
