"""Spatial branch-and-bound: envelopes, branching, polish, global solves."""

import dataclasses
import math

import numpy as np
import pytest

from radopf import bnb, cases, conic, jabr, network, tighten


@pytest.fixture(scope="module")
def net2():
    return cases.load_case("case2_two_gen")


@pytest.fixture(scope="module")
def net3():
    return cases.load_case("case3_one_gen")


# ------------------------------------------------------------ node relaxation

def test_secant_overestimates_square():
    """Secant of x^2 over [l,u] at the midpoint equals (l+u)^2/2 - lu, which
    dominates the true midpoint square."""
    l, u = 0.3, 1.1
    mid = 0.5 * (l + u)
    secant = (l + u) * mid - l * u
    assert secant == pytest.approx((l + u) ** 2 / 2 - l * u)
    assert secant >= mid ** 2


def test_point_box_relaxation_is_exact(net2):
    """Collapsing the box onto a feasible surface point leaves exactly that
    point, and the relaxation reproduces its objective."""
    scaled = network.scale_load(net2, 0.95)
    res = jabr.solve_relaxation(scaled)
    opf = res.opf
    box = bnb.NodeBox.root(scaled)
    pos = scaled.bus_index
    for k, b in enumerate(scaled.buses):
        v = opf.vm[pos[b.id]] ** 2
        box.cii_lo[k] = v - 1e-9
        box.cii_hi[k] = v + 1e-9
    vi, vj = opf.vm[0], opf.vm[1]
    d = opf.theta[1] - opf.theta[0]
    box.c_lo[0] = vi * vj * math.cos(d) - 1e-9
    box.c_hi[0] = vi * vj * math.cos(d) + 1e-9
    box.s_lo[0] = vi * vj * math.sin(d) - 1e-9
    box.s_hi[0] = vi * vj * math.sin(d) + 1e-9
    model = bnb.node_relaxation(scaled, box)
    sol = conic.solve(model.program)
    assert sol.optimal
    assert sol.objective == pytest.approx(opf.objective, rel=1e-5)


def test_root_relaxation_sandwiched(net2):
    """Root node bound lies between the plain relaxation value and the
    global value."""
    scaled = network.scale_load(net2, 1.00)
    socp = jabr.solve_relaxation(scaled).objective
    box = bnb.NodeBox.root(scaled)
    model = bnb.node_relaxation(scaled, box)
    sol = conic.solve(model.program)
    assert socp - 1e-4 <= sol.objective <= 563.56 * 1.01


def test_node_relaxation_lp_variant_bounded(net2):
    """Dropping the cone leaves a finite-valued box LP under the global
    optimum (any valid relaxation bounds it)."""
    scaled = network.scale_load(net2, 1.00)
    box = bnb.NodeBox.root(scaled, tighten.compute_bounds(scaled))
    model = bnb.node_relaxation(scaled, box, include_cone=False)
    sol = conic.solve_lp(model.program)
    assert sol.optimal
    assert sol.objective <= 563.56 * 1.005


# ---------------------------------------------------------------- propagation

def test_propagation_sound_and_contracting(net3):
    scaled = network.scale_load(net3, 0.95, scale_p=False)
    res = jabr.solve_relaxation(scaled)
    opf = res.opf
    prop = bnb._Propagator(scaled)
    box = bnb.NodeBox.root(scaled)
    out = prop.run(box)
    assert out is not None
    pos = scaled.bus_index
    for k, ln in enumerate(scaled.lines):
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        c = opf.vm[i] * opf.vm[j] * math.cos(opf.theta[j] - opf.theta[i])
        s = opf.vm[i] * opf.vm[j] * math.sin(opf.theta[j] - opf.theta[i])
        assert out.c_lo[k] - 1e-7 <= c <= out.c_hi[k] + 1e-7
        assert out.s_lo[k] - 1e-7 <= s <= out.s_hi[k] + 1e-7
        assert out.c_hi[k] - out.c_lo[k] <= box.c_hi[k] - box.c_lo[k] + 1e-12


def test_propagation_handles_lossless_lines():
    base = cases.load_case("case9", drop_charging=True)
    tree = network.spanning_tree(base, 0)
    prop = bnb._Propagator(tree)
    out = prop.run(bnb.NodeBox.root(tree))
    assert out is not None
    assert np.all(out.c_lo <= out.c_hi) and np.all(out.s_lo <= out.s_hi)


# ------------------------------------------------------------------- branching

def test_branch_partitions_parent(net2):
    box = bnb.NodeBox.root(net2)
    point = bnb._mid_point(net2, box)
    kids, info = bnb.branch(net2, box, point, np.ones(1))
    assert len(kids) == 2
    kind, idx, split = info
    lo, hi = box.interval(kind, idx)
    assert lo < split < hi
    assert kids[0].interval(kind, idx) == (lo, split)
    assert kids[1].interval(kind, idx) == (split, hi)


def test_branch_clamps_to_middle_band(net2):
    box = bnb.NodeBox.root(net2)
    point = bnb._mid_point(net2, box)
    point["cii"] = {1: box.cii_lo[0], 2: box.cii_hi[1]}  # values at the edges
    kids, info = bnb.branch(net2, box, point, np.ones(1))
    kind, idx, split = info
    lo, hi = box.interval(kind, idx)
    w = hi - lo
    assert lo + 0.2 * w - 1e-12 <= split <= hi - 0.2 * w + 1e-12


def test_branch_none_when_residual_free(net2):
    box = bnb.NodeBox.root(net2)
    kids, info = bnb.branch(net2, box, bnb._mid_point(net2, box), np.zeros(1))
    assert kids == [] and info is None


def test_branch_falls_to_cs_when_cii_pinned(net2):
    """With squared voltages pinned, branching must pick c or s."""
    box = bnb.NodeBox.root(net2, fixed_voltage={1: 0.874, 2: 0.816})
    point = bnb._mid_point(net2, box)
    kids, info = bnb.branch(net2, box, point, np.ones(1))
    assert info is not None and info[0] in ("c", "s")


# ----------------------------------------------------------------- local polish

def test_polish_returns_verified_point(net2):
    scaled = network.scale_load(net2, 1.00)
    res = jabr.solve_relaxation(scaled, refine=False)
    cand = bnb.local_polish(scaled, res.model.point(res.solution.x))
    assert cand is not None
    check = jabr.evaluate_opf_point(scaled, cand.e, cand.f, cand.pg, cand.qg)
    assert check.max_violation < 1e-6
    assert cand.objective >= 563.56 * 0.995  # not below the global optimum


def test_polish_keeps_exact_point(net3):
    """Feeding an already-exact relaxation point returns (essentially) it."""
    scaled = network.scale_load(net3, 0.95, scale_p=False)
    res = jabr.solve_relaxation(scaled)
    cand = bnb.local_polish(scaled, res.model.point(res.solution.x),
                            cost_pass=False)
    assert cand is not None
    assert cand.objective == pytest.approx(res.objective, rel=1e-4)


def test_polish_fails_on_infeasible_instance(net3):
    scaled = network.scale_load(net3, 1.10, scale_p=False)
    res = jabr.solve_relaxation(scaled, refine=False)
    assert res.solution.optimal  # relaxation still feasible
    cand = bnb.local_polish(scaled, res.model.point(res.solution.x))
    assert cand is None


def _polish_points(net, seeds=(0, 1, 2)):
    """z = (|V|, free angles) near the relaxation voltages, each at least
    1e-3 away from every clip kink of the balance residuals."""
    res = jabr.solve_relaxation(net)
    point = res.model.point(res.solution.x)
    vm = np.sqrt([point["cii"][b.id] for b in net.buses])
    bal = bnb._balance(net)
    n = net.num_buses
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        z = np.concatenate([vm + 0.01 * rng.standard_normal(n),
                            0.05 * rng.standard_normal(n - 1)])
        need = bnb._required(z, bal)
        assert np.min(np.abs(need - bal.lo)) > 1e-3
        assert np.min(np.abs(need - bal.hi)) > 1e-3
        out.append(z)
    return bal, out


def _central(f, z, h=1e-6):
    cols = [(f(z + h * e) - f(z - h * e)) / (2 * h) for e in np.eye(len(z))]
    return np.array(cols).T


def _polish_networks(net3):
    tree9 = network.spanning_tree(cases.load_case("case9", drop_charging=True), 0)
    # a second unit with a quadratic cost at the slack bus exercises the
    # pro-rata split of the allocation
    extra = network.Generator(bus=1, pmin=0.5, pmax=2.0, qmin=-0.5, qmax=1.0,
                              cost=network.CostFunction(c2=40.0, c1=300.0))
    two_units = dataclasses.replace(net3, generators=net3.generators + (extra,))
    return [network.scale_load(net3, 1.00, scale_p=False), tree9, two_units]


@pytest.mark.filterwarnings("ignore:branch")
def test_polish_derivatives_match_central_differences(net3):
    """The analytic Jacobian of the clipped balance residuals and the
    gradient of the penalized cost agree with central differences."""
    slopes = outside = 0
    for net in _polish_networks(net3):
        bal, points = _polish_points(net)
        for z in points:
            J = bnb._residual_jacobian(z, bal)
            fd = _central(lambda zz: bnb._residuals(zz, bal), z)
            np.testing.assert_allclose(J, fd, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(J)))
            rho = 1e5 * (1.0 + abs(bnb._alloc_cost(z, bal)))
            _, grad = bnb._penalized(z, bal, rho)
            fd = _central(lambda zz: np.array([bnb._penalized(zz, bal, rho)[0]]), z)[0]
            np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(grad)))
            # the cost-only gradient, where the pro-rata slope is not
            # swamped by the penalty
            _, grad = bnb._penalized(z, bal, 0.0)
            fd = _central(lambda zz: np.array([bnb._alloc_cost(zz, bal)]), z)[0]
            np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(grad)))
            need = bnb._required(z, bal)
            slopes += int(np.any(((need[0] > bal.lo[0])
                                  & (need[0] < bal.hi[0]))[bal.gen_bus]))
            outside += int(np.any(bnb._residuals(z, bal) != 0))
    assert slopes and outside  # both terms of the gradient were exercised


def test_settle_meets_the_balance_equations(net3):
    """A recovered exact point is pushed onto the balance rows well below
    the 1e-6 acceptance tolerance."""
    scaled = network.scale_load(net3, 0.95, scale_p=False)
    res = jabr.solve_relaxation(scaled)
    settled = bnb._settle(scaled, res.opf, bnb._balance(scaled))
    assert settled is not None
    check = jabr.evaluate_opf_point(scaled, settled.e, settled.f,
                                    settled.pg, settled.qg)
    assert check.max_violation < 1e-9
    assert settled.objective == pytest.approx(res.objective, rel=1e-5)


# ------------------------------------------------------------------ obbt

def test_range_reduction_shrinks_and_keeps_optimum(net2):
    scaled = network.scale_load(net2, 1.00)
    vb, cuts = tighten.run_algorithm1(scaled)
    box = bnb.NodeBox.root(scaled, vb)
    model = bnb.node_relaxation(scaled, box, cuts)
    sol = conic.solve(model.program)
    point = model.point(sol.x)
    slacks = bnb._coupling_slacks(scaled, point)
    red = bnb.range_reduction(model, box, 564.9, slacks, max_vars=4)
    assert red is not None
    assert red.max_width() <= box.max_width()
    # the verified optimum (cost 564.84, s = v1*v2*sin(-0.003452)) stays inside
    assert red.s_lo[0] <= -0.002894 <= red.s_hi[0]


def test_range_reduction_infeasible_cutoff_prunes(net2):
    scaled = network.scale_load(net2, 1.00)
    box = bnb.NodeBox.root(scaled)
    model = bnb.node_relaxation(scaled, box)
    sol = conic.solve(model.program)
    point = model.point(sol.x)
    slacks = bnb._coupling_slacks(scaled, point)
    red = bnb.range_reduction(model, box, 100.0, slacks)
    assert red is None  # cutoff below the relaxation value empties the node


# ------------------------------------------------------------------ end to end

def test_global_two_bus_inexact_case(net2):
    """Gap below 1e-3 within a few hundred nodes on the hardest sweep point."""
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=9e-4, time_limit=120)
    assert res.optimal
    assert res.objective == pytest.approx(563.56, rel=5e-3)
    assert res.lower_bound <= res.objective + 1e-9
    assert res.nodes <= 500


def test_global_exact_short_circuit(net2):
    """Exact root relaxations return after a single node with zero gap."""
    scaled = network.scale_load(net2, 0.90)
    res = bnb.solve_global(scaled, gap_tol=1e-4)
    assert res.optimal and res.nodes == 1
    assert res.gap <= 1e-4


def test_global_fathoms_an_exact_node_with_two_units(net3):
    """Two units of different cost share the generator bus.  The settled
    point of the exact root keeps the relaxation's split, cheap unit first,
    so the root is fathomed at the relaxation value."""
    units = tuple(network.Generator(bus=1, pmin=0.75, pmax=2.75, qmin=-0.5,
                                    qmax=2.5, cost=network.CostFunction(c1=c1))
                  for c1 in (400.0, 600.0))
    scaled = network.scale_load(dataclasses.replace(net3, generators=units),
                                0.95, scale_p=False)
    res = bnb.solve_global(scaled, gap_tol=1e-4)
    assert res.optimal and res.nodes == 1
    assert res.objective == pytest.approx(res.root_lb, rel=1e-6)
    assert res.incumbent.pg[1] == pytest.approx(0.75)


def test_global_fixed_voltage_experiment(net2):
    res = bnb.solve_global(net2, gap_tol=2e-3,
                           fixed_voltage={1: 0.874, 2: 0.816})
    assert res.optimal
    assert res.objective == pytest.approx(573.82, rel=5e-3)
    th = res.incumbent.theta
    assert abs(math.degrees(th[1] - th[0])) < 1.0


def test_global_three_bus_values(net3):
    for gamma, want in ((1.00, 950.70), (1.03, 959.91)):
        scaled = network.scale_load(net3, gamma, scale_p=False)
        res = bnb.solve_global(scaled, gap_tol=2e-3, time_limit=120)
        assert res.optimal
        assert res.objective == pytest.approx(want, rel=5e-3)


def test_global_certifies_infeasible(net3):
    scaled = network.scale_load(net3, 1.04, scale_p=False)
    res = bnb.solve_global(scaled, gap_tol=2e-3, time_limit=120)
    assert res.status == bnb.INFEASIBLE
    # while the plain relaxation is still feasible
    assert jabr.solve_relaxation(scaled).solution.optimal


def test_polish_backs_off_without_an_incumbent(net3, monkeypatch):
    """On an infeasible instance every polish fails: each failure doubles
    the wait to the next one, and only the first call multistarts."""
    calls = []
    polish = bnb.local_polish

    def counted(*args, **kwargs):
        calls.append(kwargs.get("multistart", True))
        return polish(*args, **kwargs)

    monkeypatch.setattr(bnb, "local_polish", counted)
    scaled = network.scale_load(net3, 1.04, scale_p=False)
    res = bnb.solve_global(scaled, gap_tol=2e-3, time_limit=120)
    assert res.status == bnb.INFEASIBLE
    assert res.nodes == 57
    assert 1 <= len(calls) <= math.ceil(math.log2(res.nodes)) + 2
    assert sum(calls) == 1
    assert (res.polish_calls, res.polish_found) == (len(calls), 0)


def test_global_root_lb_matches_relaxation(net2):
    """Root lower bound equals the relaxation value."""
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=2e-3, time_limit=120)
    assert res.root_lb == pytest.approx(501.46, rel=1e-3)
    assert res.root_gap_pct == pytest.approx(100 * (1 - res.root_lb / res.objective),
                                             abs=1e-6)


def test_lower_bound_monotone_truncated(net2):
    """Every processed node's bound sits at or above the root bound (child
    boxes only shrink), and the final certified bound is consistent."""
    scaled = network.scale_load(net2, 1.01)
    res = bnb.solve_global(scaled, gap_tol=2e-3, time_limit=120)
    scale = max(1.0, abs(res.root_lb))
    assert all(row[1] >= res.root_lb - 1e-6 * scale for row in res.trace)
    assert res.lower_bound <= res.objective + 1e-9 * scale


def test_incumbents_all_verified(net2):
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=2e-3, time_limit=120)
    inc = res.incumbent
    check = jabr.evaluate_opf_point(scaled, inc.e, inc.f, inc.pg, inc.qg)
    assert check.max_violation < 1e-6


def test_workers_same_answer(net3):
    scaled = network.scale_load(net3, 1.00, scale_p=False)
    a = bnb.solve_global(scaled, gap_tol=2e-3, workers=1)
    b = bnb.solve_global(scaled, gap_tol=2e-3, workers=4)
    assert a.optimal and b.optimal
    assert a.objective == pytest.approx(b.objective, rel=2e-3)


def test_batched_search_does_not_stop_at_a_fathomed_pop(net2):
    """A batch popped up to a fathomable node still pushes children below
    the cutoff; the search must go on to pop them."""
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=2e-3, workers=5)
    assert res.status == bnb.GLOBAL_OPTIMAL
    assert res.gap <= 2e-3


def test_time_limit_status(net2):
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=1e-9, time_limit=0.5)
    assert res.status in (bnb.TIME_LIMIT, bnb.GLOBAL_OPTIMAL)


def test_cuts_never_change_the_global_value(net2):
    """Boxes and cuts only remove relaxation points, so the certified global
    value is the same with and without them (within the two certificates)."""
    scaled = network.scale_load(net2, 1.00)
    tol = 1e-5
    with_cuts = bnb.solve_global(scaled, gap_tol=tol, time_limit=120)
    without = bnb.solve_global(scaled, gap_tol=tol, time_limit=120,
                               use_cuts=False, use_bounds=False)
    assert with_cuts.optimal and without.optimal
    assert with_cuts.objective == pytest.approx(without.objective, rel=3 * tol)


@pytest.mark.slow
def test_matches_closed_form_on_random_two_bus():
    """Verdict/value agreement with the two-bus closed form on 200 random
    instances: infeasible stays infeasible, values agree at the gap tol."""
    import test_twobus
    from radopf import twobus
    rng = np.random.default_rng(77)
    seen = {"exact": 0, "inexact": 0, "infeasible": 0}
    for _ in range(200):
        inst = test_twobus.sample_instance(rng)
        cls = twobus.classify(inst)
        res = bnb.solve_global(inst.to_network(), gap_tol=2e-3, time_limit=30)
        if cls.verdict in (twobus.OPF_INFEASIBLE, twobus.BOTH_INFEASIBLE):
            assert res.status == bnb.INFEASIBLE, (inst, cls.verdict, res.status)
            seen["infeasible"] += 1
        else:
            assert res.optimal, (inst, cls.verdict, res.status)
            assert res.objective == pytest.approx(cls.opf_value, rel=2e-3,
                                                  abs=1e-6), inst
            seen[cls.verdict] += 1
    assert all(v > 0 for v in seen.values()), seen


@pytest.mark.parametrize("gamma,incumbent", [(1.00, math.inf), (1.00, 570.0),
                                             (1.01, 600.0)])
def test_range_reduction_matches_per_direction_solves(net2, gamma,
                                                      incumbent):
    """The batched sweep gives the box of a reference loop that solves
    every direction on its own."""
    scaled = network.scale_load(net2, gamma)
    box = bnb.NodeBox.root(scaled, tighten.compute_bounds(scaled))
    model = bnb.node_relaxation(scaled, box)
    sol = conic.solve(model.program)
    point = model.point(sol.x)
    slacks = bnb._coupling_slacks(scaled, point)
    got = bnb.range_reduction(model, box, incumbent, slacks)

    ref_model = bnb.node_relaxation(scaled, box)
    if math.isfinite(incumbent):
        jabr.add_cost_cap(ref_model, incumbent + 1e-6 * (1 + abs(incumbent)))
    worst = int(np.argmax(slacks))
    ln = scaled.lines[worst]
    pos = scaled.bus_index
    targets = [("cii", pos[ln.from_bus]), ("cii", pos[ln.to_bus]),
               ("c", worst), ("s", worst)]
    targets.sort(key=lambda t: box.interval(*t)[0] - box.interval(*t)[1])
    want = box.copy()
    for kind, idx in targets[:2]:
        lo, hi = box.interval(kind, idx)
        var = (ref_model.cii[scaled.buses[idx].id] if kind == "cii"
               else (ref_model.c if kind == "c" else ref_model.s)[idx])
        for sense in (+1, -1):
            override = np.zeros(ref_model.program.num_vars)
            override[var] = sense
            one = conic.solve(ref_model.program, objective_override=override)
            assert one.optimal
            val = sense * one.objective
            pad = 1e-9 * (1 + abs(val))
            lo, hi = (max(lo, val - pad), hi) if sense > 0 else \
                (lo, min(hi, val + pad))
        want.set_interval(kind, idx, lo, hi)
    assert got is not None
    for kind in ("cii", "c", "s"):
        for end in ("_lo", "_hi"):
            np.testing.assert_allclose(getattr(got, kind + end),
                                       getattr(want, kind + end),
                                       rtol=1e-7, atol=1e-7)
