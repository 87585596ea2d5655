"""Randomized radial systems pushed through the whole pipeline.

Random trees with random impedances, loads and generator placements check
the structural properties that the curated cases can't: relaxation value
sandwiched under the global value, lifted feasibility of recovered points,
orientation invariance, and bound/cut validity on arbitrary topologies.
"""

import math

import numpy as np
import pytest

from radopf import bnb, cases, conic, jabr, network, tighten
from radopf.network import Bus, CostFunction, Generator, Line, Network


def random_tree(rng, n_buses=None):
    n = int(n_buses or rng.integers(3, 7))
    buses = []
    for i in range(1, n + 1):
        pd = float(rng.uniform(-0.3, 0.8))
        qd = float(rng.uniform(-0.4, 0.4))
        buses.append(Bus(i, pd=pd, qd=qd))
    lines = []
    for j in range(2, n + 1):
        parent = int(rng.integers(1, j))
        r = float(rng.uniform(0.005, 0.08))
        x = float(rng.uniform(0.02, 0.25))
        lines.append(Line(parent, j, r, x))
    n_gen = int(rng.integers(1, 3))
    gen_buses = rng.choice(np.arange(1, n + 1), size=n_gen, replace=False)
    gens = []
    for b in gen_buses:
        gens.append(Generator(int(b), pmin=0.0, pmax=float(rng.uniform(1.5, 4.0)),
                              qmin=float(rng.uniform(-2.0, -0.5)),
                              qmax=float(rng.uniform(0.5, 2.0)),
                              cost=CostFunction(c1=float(rng.uniform(100, 900)))))
    return Network(buses=tuple(buses), generators=tuple(gens), lines=tuple(lines))


def lift_violation(net, opf):
    model = jabr.build_relaxation(net)
    x = np.zeros(model.program.num_vars)
    pos = net.bus_index
    for k in range(len(net.generators)):
        x[model.pg[k]] = opf.pg[k]
        x[model.qg[k]] = opf.qg[k]
    for b_id, v in model.cii.items():
        x[v] = opf.vm[pos[b_id]] ** 2
    for k, ln in enumerate(net.lines):
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        d = opf.theta[j] - opf.theta[i]
        x[model.c[k]] = opf.vm[i] * opf.vm[j] * math.cos(d)
        x[model.s[k]] = opf.vm[i] * opf.vm[j] * math.sin(d)
    return model.program.max_violation(x)


@pytest.mark.parametrize("seed", range(12))
def test_pipeline_on_random_tree(seed):
    rng = np.random.default_rng(1000 + seed)
    net = random_tree(rng)
    res = jabr.solve_relaxation(net)
    if not res.solution.optimal:
        return  # infeasible draw; nothing further to check
    if res.opf is not None:
        # recovered point verifies and its lifting satisfies the relaxation
        check = jabr.evaluate_opf_point(net, res.opf.e, res.opf.f,
                                        res.opf.pg, res.opf.qg)
        assert check.max_violation < 1e-6
        assert lift_violation(net, res.opf) < 1e-6
        assert res.opf.objective >= res.objective - 1e-6 * (1 + abs(res.objective))


@pytest.mark.parametrize("seed", [2, 5, 9])
def test_global_value_dominates_relaxation(seed):
    rng = np.random.default_rng(2000 + seed)
    net = random_tree(rng, n_buses=4)
    res = jabr.solve_relaxation(net)
    if not res.solution.optimal:
        return
    glob = bnb.solve_global(net, gap_tol=2e-3, time_limit=60)
    if glob.status == bnb.INFEASIBLE:
        return
    assert glob.optimal
    scale = 1 + abs(glob.objective)
    assert glob.objective >= res.objective - 1e-5 * scale
    inc = glob.incumbent
    check = jabr.evaluate_opf_point(net, inc.e, inc.f, inc.pg, inc.qg)
    assert check.max_violation < 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_orientation_flip_invariance_random(seed):
    from dataclasses import replace
    rng = np.random.default_rng(3000 + seed)
    net = random_tree(rng)
    flipped = replace(net, lines=tuple(
        Line(ln.to_bus, ln.from_bus, ln.r, ln.x) for ln in net.lines))
    a = jabr.solve_relaxation(net, refine=False)
    b = jabr.solve_relaxation(flipped, refine=False)
    assert a.solution.optimal == b.solution.optimal
    if a.solution.optimal:
        assert a.objective == pytest.approx(b.objective, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("seed", range(4))
def test_bounds_and_cuts_valid_on_random_tree(seed):
    rng = np.random.default_rng(4000 + seed)
    net = random_tree(rng)
    model = jabr.build_relaxation(net)
    try:
        box, cuts = tighten.run_algorithm1(model)
    except tighten.RelaxationInfeasible:
        return
    res = jabr.solve_relaxation(net)
    if res.opf is None:
        return
    pos = net.bus_index
    for k, ln in enumerate(net.lines):
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        d = res.opf.theta[j] - res.opf.theta[i]
        c = res.opf.vm[i] * res.opf.vm[j] * math.cos(d)
        s = res.opf.vm[i] * res.opf.vm[j] * math.sin(d)
        vc, vs = model.c[k], model.s[k]
        assert box.lo[vc] - 1e-7 <= c <= box.hi[vc] + 1e-7, k
        assert box.lo[vs] - 1e-7 <= s <= box.hi[vs] + 1e-7, k
    for cut in cuts:
        i, j = pos[net.lines[cut.line].from_bus], pos[net.lines[cut.line].to_bus]
        d = res.opf.theta[j] - res.opf.theta[i]
        c = res.opf.vm[i] * res.opf.vm[j] * math.cos(d)
        s = res.opf.vm[i] * res.opf.vm[j] * math.sin(d)
        assert cut.satisfied(c, s, tol=1e-7), cut
