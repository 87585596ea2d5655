"""Deterministic feasible radial feeders shaped like the Baran-Wu 33-bus
distribution feeder: a trunk from the substation plus laterals that branch
off it.

Line impedances and bus loads are drawn around nominal totals and divided by
the bus count, so the voltage drop to the far end of the trunk stays roughly
the same at every size and the feeder stays feasible up to 1.2x load.  The
only generator sits at the substation with wide limits and no binding floor,
which keeps the SOCP relaxation exact.

Seed 0 gives the base feeder of each size.  Any other seed gives the same
feeder with buses 2..n renumbered and buses and lines listed in another
order.  The program sees different input on every seed, but the interior
point method does the same work up to rounding (its KKT system is dense, so
the order changes no fill), so a run's time does not depend on which seed
the benchmark was given.  A feeder drawn afresh per seed would move the
pass time by ~10% through IPM iteration counts alone.

    python3 perfbench/feeders.py           # self-check: every relaxation optimal
"""

from __future__ import annotations

import dataclasses
import sys

import env  # noqa: F401  (before numpy: pins BLAS threads, finds src/)
import numpy as np

from radopf import network

SIZES = (33, 69, 120)
GAMMAS = (0.8, 1.0, 1.2)

_TOTAL_P = 0.40     # substation load in per unit at gamma = 1
_Q_OVER_P = 0.6
_TOTAL_R = 0.30     # series resistance of an n-line path, before 1/n scaling
_TOTAL_X = 0.20


def radial_feeder(n_buses: int, seed: int) -> network.Network:
    """Feeder with `n_buses` buses; the same (n_buses, seed) gives the same
    network."""
    if n_buses < 4:
        raise ValueError("a feeder needs at least 4 buses")
    rng = np.random.default_rng([n_buses, 0])
    trunk = n_buses // 2 + 1
    edges = [(k, k + 1) for k in range(1, trunk)]
    nxt = trunk + 1
    while nxt <= n_buses:
        length = min(int(rng.integers(3, 9)), n_buses - nxt + 1)
        prev = int(rng.integers(2, trunk))
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1

    scale = 1.0 / n_buses
    lines = tuple(network.Line(i, j,
                               r=_TOTAL_R * scale * rng.uniform(0.5, 1.5),
                               x=_TOTAL_X * scale * rng.uniform(0.5, 1.5))
                  for i, j in edges)
    buses = [network.Bus(1, vmin=1.0, vmax=1.05)]
    for b in range(2, n_buses + 1):
        pd = _TOTAL_P * scale * rng.uniform(0.5, 1.5)
        buses.append(network.Bus(b, vmin=0.9, vmax=1.1, pd=pd,
                                 qd=_Q_OVER_P * pd * rng.uniform(0.5, 1.5)))
    gen = network.Generator(1, pmin=0.0, pmax=10.0, qmin=-10.0, qmax=10.0,
                            cost=network.CostFunction(c2=100.0, c1=2000.0))
    if seed:
        shuffle = np.random.default_rng([n_buses, seed])
        new = dict(zip(range(2, n_buses + 1),
                       (2 + shuffle.permutation(n_buses - 1)).tolist()))
        new[1] = 1
        buses = [dataclasses.replace(b, id=new[b.id])
                 for b in (buses[k] for k in shuffle.permutation(n_buses))]
        lines = tuple(dataclasses.replace(ln, from_bus=new[ln.from_bus],
                                          to_bus=new[ln.to_bus])
                      for ln in (lines[k] for k in
                                 shuffle.permutation(len(lines))))
    return network.Network(buses=tuple(buses), generators=(gen,), lines=lines,
                           name=f"feeder{n_buses}-s{seed}")


def self_check(seed: int = 0) -> list[str]:
    """Problems found when relaxing every feeder at every load level."""
    from radopf import jabr
    problems = []
    for n in SIZES:
        base = radial_feeder(n, seed)
        for gamma in GAMMAS:
            res = jabr.solve_relaxation(network.scale_load(base, gamma))
            if res.status != "optimal" or res.verdict != "exact":
                problems.append(f"{base.name} gamma={gamma}: {res.status}/"
                                f"{res.verdict}")
    return problems


if __name__ == "__main__":
    found = self_check(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
    print("\n".join(found) or "all feeder relaxations optimal and exact")
    sys.exit(1 if found else 0)
