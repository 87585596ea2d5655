"""Instance generators: radial instances with a relaxation gap, and samples
of the feasible region in generation space."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import jabr
from .network import Network, admittance, bus_gen_limits


def perturb(net: Network, raise_fraction: float) -> Network:
    """Raise generation lower bounds toward the dispatch that the relaxation
    chooses, which starts making those bounds bind.  Only the first solve's
    dispatch is read, so the relaxation runs without its refine re-solve."""
    res = jabr.solve_relaxation(net, refine=False)
    if not res.solution.optimal:
        return net
    pg = res.solution.x[res.model.pg]
    qg = res.solution.x[res.model.qg]
    gens = []
    for k, g in enumerate(net.generators):
        pmin = g.pmin + raise_fraction * max(pg[k] - g.pmin, 0.0)
        qmin = g.qmin + raise_fraction * max(qg[k] - g.qmin, 0.0)
        gens.append(replace(g, pmin=min(pmin, g.pmax), qmin=min(qmin, g.qmax)))
    return replace(net, generators=tuple(gens))


def raise_reactive_floor(net: Network, gen_idx: int,
                         fraction: float) -> Network | None:
    """Push one generator's reactive lower bound past its relaxation dispatch
    (a fraction of the way to qmax).  Forcing reactive redispatch is the most
    reliable way to manufacture radial instances with a positive gap."""
    res = jabr.solve_relaxation(net, refine=False)
    if not res.solution.optimal:
        return None
    qg = res.solution.x[res.model.qg]
    gens = list(net.generators)
    g = gens[gen_idx]
    gens[gen_idx] = replace(
        g, qmin=min(qg[gen_idx] + fraction * (g.qmax - qg[gen_idx]), g.qmax))
    return replace(net, generators=tuple(gens))


def projection_samples(net: Network, n: int, seed: int) -> np.ndarray:
    """Feasible-region scatter in generation space via voltage-space sampling."""
    rng = np.random.default_rng(seed)
    G, B = admittance(net)
    Y = G + 1j * B
    nb = net.num_buses
    pd = np.array([b.pd for b in net.buses])
    qd = np.array([b.qd for b in net.buses])
    pmin, pmax, qmin, qmax = bus_gen_limits(net)
    has_gen = np.array([bool(net.generators_at(b.id)) for b in net.buses])
    vmin = np.array([b.vmin for b in net.buses])
    vmax = np.array([b.vmax for b in net.buses])
    out = []
    for _ in range(n):
        vm = rng.uniform(vmin, vmax)
        th = np.concatenate([[0.0], rng.uniform(-0.5, 0.5, nb - 1)])
        V = vm * np.exp(1j * th)
        S = V * np.conj(Y @ V)
        p_need = S.real + pd
        q_need = S.imag + qd
        ok = (np.all(p_need[has_gen] >= pmin[has_gen] - 1e-9)
              and np.all(p_need[has_gen] <= pmax[has_gen] + 1e-9)
              and np.all(q_need[has_gen] >= qmin[has_gen] - 1e-9)
              and np.all(q_need[has_gen] <= qmax[has_gen] + 1e-9)
              and np.all(np.abs(p_need[~has_gen]) <= 1e-6)
              and np.all(np.abs(q_need[~has_gen]) <= 1e-6))
        gi = np.where(has_gen)[0]
        first = gi[0] if gi.size else 0
        second = gi[1] if gi.size > 1 else first
        out.append([p_need[first], q_need[first], p_need[second], float(ok)])
    return np.array(out)
