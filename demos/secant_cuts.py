"""Bound tightening and secant cuts on a radialized 9-bus system.

Shows the boxes shrinking from the loose implied bounds, the chord geometry
of each generated cut, and a sampling check that no annulus point is cut off.
"""

import numpy as np

from radopf import cases, jabr, network, tighten

base = cases.load_case("case9", drop_charging=True)
tree = network.spanning_tree(base, seed=0)
print(f"radialized case9: {len(tree.lines)} lines (tree of {tree.num_buses} buses)")

model = jabr.build_relaxation(tree)
implied = tighten.NodeBox.of(model)
bounds, cuts = tighten.run_algorithm1(model)
c, s = model.c, model.s

print(f"\n{'line':>4} {'implied c':>16} {'tight c':>18} {'tight s':>18}")
for k, ln in enumerate(tree.lines):
    print(f"{k:>4} [{implied.lo[c[k]]:+.2f},{implied.hi[c[k]]:+.2f}]"
          f"  ->  [{bounds.lo[c[k]]:+.4f},{bounds.hi[c[k]]:+.4f}]"
          f"   [{bounds.lo[s[k]]:+.4f},{bounds.hi[s[k]]:+.4f}]")

print(f"\n{len(cuts)} secant cuts:")
rng = np.random.default_rng(1)
for cut in cuts:
    ring = tighten.ring_for(tree, cut.line)
    vc, vs = c[cut.line], s[cut.line]
    cv = rng.uniform(bounds.lo[vc], bounds.hi[vc], 100_000)
    sv = rng.uniform(bounds.lo[vs], bounds.hi[vs], 100_000)
    keep = cv * cv + sv * sv >= ring.r_lo ** 2
    worst = float(np.max(cut.violation(cv[keep], sv[keep])))
    print(f"  line {cut.line} (case {cut.case}): {cut.a_c:+.4f} c {cut.a_s:+.4f} s"
          f" >= {cut.rhs:.4f}; worst annulus violation {worst:.1e}"
          f" over {int(keep.sum())} samples")
print("\n(negative violation means satisfied with slack; anything above 1e-9"
      " would be a bug)")
