"""Lifted OPF model: golden relaxation values, exactness, angle recovery."""

import warnings

import numpy as np
import pytest

from radopf import cases, conic, jabr, network, tighten

TWO_BUS_SOCP = {0.13: 459.00, 0.80: 459.00, 0.98: 496.96, 1.00: 501.46,
                1.01: 503.76, 1.02: 506.07, 2.92: 1608.75}
THREE_BUS_SOCP = {0.95: 939.45, 0.96: 939.90, 0.97: 940.87, 1.00: 945.45,
                  1.03: 950.05, 1.04: 951.60}


@pytest.fixture(scope="module")
def net2():
    return cases.load_case("case2_two_gen")


@pytest.fixture(scope="module")
def net3():
    return cases.load_case("case3_one_gen")


@pytest.mark.parametrize("gamma,value", sorted(TWO_BUS_SOCP.items()))
def test_two_bus_relaxation_values(net2, gamma, value):
    res = jabr.solve_relaxation(network.scale_load(net2, gamma))
    assert res.solution.optimal
    assert res.objective == pytest.approx(value, rel=5e-3)


def test_two_bus_relaxation_infeasible_beyond(net2):
    res = jabr.solve_relaxation(network.scale_load(net2, 2.93))
    assert res.status == conic.INFEASIBLE


@pytest.mark.parametrize("gamma,value", sorted(THREE_BUS_SOCP.items()))
def test_three_bus_relaxation_values(net3, gamma, value):
    res = jabr.solve_relaxation(network.scale_load(net3, gamma, scale_p=False))
    assert res.solution.optimal
    assert res.objective == pytest.approx(value, rel=5e-3)


def test_exactness_pattern_two_bus(net2):
    """Exact inside the window, inexact just outside of it."""
    assert jabr.solve_relaxation(network.scale_load(net2, 0.90)).verdict == "exact"
    assert jabr.solve_relaxation(network.scale_load(net2, 0.98)).verdict == "exact"
    assert jabr.solve_relaxation(network.scale_load(net2, 1.00)).verdict == "inexact"
    assert jabr.solve_relaxation(network.scale_load(net2, 1.01)).verdict == "inexact"


def test_exactness_hand_built_surface_point(net2):
    """A point manufactured on the cone surface has zero residual."""
    model = jabr.build_relaxation(net2)
    x = np.zeros(model.program.num_vars)
    x[model.cii[1]] = 1.05
    x[model.cii[2]] = 0.98
    r = np.sqrt(1.05 * 0.98)
    x[model.c[0]] = r * np.cos(0.02)
    x[model.s[0]] = r * np.sin(0.02)
    res = model.coupling_residuals(x)
    assert abs(res[0]) < 1e-12


def test_fixed_voltage_socp_value(net2):
    res = jabr.solve_relaxation(net2, fixed_voltage={1: 0.874, 2: 0.816})
    assert res.objective == pytest.approx(503.37, rel=5e-3)
    assert res.verdict == "inexact"


def test_recover_angles_exact_case(net2):
    scaled = network.scale_load(net2, 0.98)
    res = jabr.solve_relaxation(scaled)
    opf = res.opf
    assert opf is not None
    check = jabr.evaluate_opf_point(scaled, opf.e, opf.f, opf.pg, opf.qg)
    assert check.max_violation < 1e-6
    assert opf.objective == pytest.approx(res.objective, rel=1e-5)


@pytest.mark.parametrize("coord", ["pg", "qg", "vm"])
def test_nan_coordinate_is_infeasible(net2, coord):
    """A NaN in a candidate reads as an infinite violation, whichever
    family's residual it lands in."""
    scaled = network.scale_load(net2, 0.98)
    opf = jabr.solve_relaxation(scaled).opf
    pt = {"pg": opf.pg.copy(), "qg": opf.qg.copy(), "vm": opf.vm.copy()}
    pt[coord][-1] = np.nan
    check = jabr.evaluate_opf_point(scaled, pt["vm"] * np.cos(opf.theta),
                                    pt["vm"] * np.sin(opf.theta),
                                    pt["pg"], pt["qg"])
    assert check.max_violation == np.inf
    assert not check.feasible()


def test_recover_angles_refuses_inexact(net2):
    scaled = network.scale_load(net2, 1.00)
    model = jabr.build_relaxation(scaled)
    sol = conic.solve(model.program)
    with pytest.raises(ValueError, match="inexact"):
        jabr.recover_angles(scaled, model, sol)


def test_recover_angles_zero_s_all_zero(net3):
    """All s variables at zero mean all angles collapse to the slack's."""
    model = jabr.build_relaxation(net3)
    x = np.zeros(model.program.num_vars)
    for b, v in model.cii.items():
        x[v] = 1.0
    for k in range(2):
        x[model.c[k]] = 1.0
        x[model.s[k]] = 0.0
    sol = conic.ConicSolution(status="optimal", x=x, objective=0.0)
    opf = jabr.recover_angles(net3, model, sol)
    assert np.allclose(opf.theta, 0.0)


def test_recovered_point_balance_residual(net3):
    scaled = network.scale_load(net3, 0.95, scale_p=False)
    res = jabr.solve_relaxation(scaled)
    opf = res.opf
    check = jabr.evaluate_opf_point(scaled, opf.e, opf.f, opf.pg, opf.qg)
    assert np.max(np.abs(check.flow_p)) < 1e-6
    assert np.max(np.abs(check.flow_q)) < 1e-6


def test_evaluate_zero_voltage_flags_vmin():
    net = cases.load_case("case2_two_gen")
    z = np.zeros(2)
    res = jabr.evaluate_opf_point(net, z, z, np.zeros(2), np.zeros(2))
    assert np.max(res.voltage) >= 0.81 - 1e-12


def test_evaluate_inexact_socp_point_violates(net2):
    """Naively mapping an inexact relaxation point into voltages breaks the
    power balance."""
    scaled = network.scale_load(net2, 1.00)
    model = jabr.build_relaxation(scaled)
    sol = conic.solve(model.program)
    x = sol.x
    vm = np.sqrt([x[model.cii[1]], x[model.cii[2]]])
    th = np.array([0.0, np.arctan2(x[model.s[0]], x[model.c[0]])])
    res = jabr.evaluate_opf_point(scaled, vm * np.cos(th), vm * np.sin(th),
                                  x[model.pg], x[model.qg])
    assert res.max_violation > 1e-4


def test_orientation_flip_same_objective(net3):
    """Reversing every line's orientation changes nothing physically."""
    from dataclasses import replace
    flipped = replace(net3, lines=tuple(
        network.Line(ln.to_bus, ln.from_bus, ln.r, ln.x) for ln in net3.lines))
    a = jabr.solve_relaxation(network.scale_load(net3, 1.0, scale_p=False))
    b = jabr.solve_relaxation(network.scale_load(flipped, 1.0, scale_p=False))
    assert a.objective == pytest.approx(b.objective, rel=1e-8)


def test_relaxation_contains_feasible_points(net2):
    """The lifted image of any rectangular-feasible point satisfies every
    relaxation constraint: solve exactly, recover, lift, check."""
    scaled = network.scale_load(net2, 0.95)
    res = jabr.solve_relaxation(scaled)
    opf = res.opf
    model = jabr.build_relaxation(scaled)
    x = np.zeros(model.program.num_vars)
    for k, g in enumerate(scaled.generators):
        x[model.pg[k]] = opf.pg[k]
        x[model.qg[k]] = opf.qg[k]
    pos = scaled.bus_index
    for b_id, v in model.cii.items():
        x[v] = opf.vm[pos[b_id]] ** 2
    for k, ln in enumerate(scaled.lines):
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        vi, vj = opf.vm[i], opf.vm[j]
        d = opf.theta[j] - opf.theta[i]
        x[model.c[k]] = vi * vj * np.cos(d)
        x[model.s[k]] = vi * vj * np.sin(d)
    assert model.program.max_violation(x) < 1e-6


@pytest.mark.parametrize("pins,match", [
    ({7: 0.9}, "bus 7"),
    ({1: 1.5}, r"bus 1 is outside \[0.81, 1.21"),
    ({2: 0.80}, r"bus 2 is outside \[0.81, 1.21"),
    ({2: float("nan")}, "outside"),
])
def test_fixed_voltage_must_name_a_bus_and_lie_in_its_range(net2, pins, match):
    with pytest.raises(ValueError, match=match):
        jabr.build_relaxation(net2, fixed_voltage=pins)
    with pytest.raises(ValueError, match=match):
        jabr.solve_relaxation(net2, fixed_voltage=pins)


def test_non_radial_rejected():
    net = cases.load_case("case9", drop_charging=True)
    with pytest.raises(network.NetworkError, match="radial"):
        jabr.build_relaxation(net)


# case14 spanning trees at the edge of their infeasible load range (tree 0
# is infeasible from 1.06, tree 1 from 1.02, tree 2 on all of 0.80..1.10),
# where the relaxation must still end with a verdict
CASE14_TREE_HARD = [(0, 1.10), (1, 1.02), (1, 1.04), (2, 0.94)]


@pytest.fixture(scope="module")
def case14():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # charging/tap/shift zeroed
        return cases.load_case("case14", drop_charging=True)


@pytest.mark.parametrize("tree,gamma", CASE14_TREE_HARD)
def test_case14_tree_relaxation_answers(case14, tree, gamma):
    """Each ends with an answer, and an infeasible verdict carries a Farkas
    certificate checked from the compiled data: A'y + G'z = 0, z in K and
    b'y + h'z < 0."""
    net = network.scale_load(network.spanning_tree(case14, tree), gamma)
    res = jabr.solve_relaxation(net)
    assert res.status in (conic.OPTIMAL, conic.INFEASIBLE)
    if res.status == conic.OPTIMAL:
        return
    cert = res.solution.certificate
    assert cert is not None and cert["kind"] == "primal"
    G, h, dims, A, b = res.model.program._constraints()
    y, z = cert["y"], cert["z"]
    assert np.linalg.norm(A.T @ y + G.T @ z) <= 1e-7
    assert b @ y + h @ z < 0
    assert np.all(z[:dims.l] >= 0)
    off = dims.l
    for k in dims.q:
        assert z[off] >= np.linalg.norm(z[off + 1:off + k])
        off += k


SWEEP_GAMMAS = [round(0.80 + 0.02 * k, 2) for k in range(16)]


@pytest.mark.parametrize("tree", [0, 2])
def test_case9_recovered_points_meet_the_tolerance(tree):
    """Over the load sweep 0.80..1.10 on a case9 spanning tree, every
    relaxation certified exact recovers a point that the rectangular oracle
    accepts to 1e-6."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # charging/tap/shift zeroed
        base = network.spanning_tree(
            cases.load_case("case9", drop_charging=True), tree)
    misses, exact = [], 0
    for gamma in SWEEP_GAMMAS:
        net = network.scale_load(base, gamma)
        opf = jabr.solve_relaxation(net).opf
        if opf is None:
            continue
        exact += 1
        viol = jabr.evaluate_opf_point(net, opf.e, opf.f, opf.pg,
                                       opf.qg).max_violation
        if viol > 1e-6:
            misses.append((gamma, viol))
    assert exact > 0
    assert not misses


def _lean_cases():
    """(label, network) of case2, case3 and the case9/case14 trees at three
    load levels each."""
    net2, net3 = cases.load_case("case2_two_gen"), cases.load_case("case3_one_gen")
    out = [(f"case2 g{g}", network.scale_load(net2, g)) for g in (0.90, 1.00, 1.01)]
    out += [(f"case3 g{g}", network.scale_load(net3, g, scale_p=False))
            for g in (0.95, 1.00, 1.03)]
    for name in ("case9", "case14"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # charging/tap/shift zeroed
            tree = network.spanning_tree(cases.load_case(name, drop_charging=True))
        out += [(f"{name} g{g}", network.scale_load(tree, g)) for g in (0.80, 0.95, 1.05)]
    return out


def test_lifted_model_has_no_line_pair_box():
    """The lifted model leaves every c and s free: it compiles to exactly
    four orthant rows per line fewer than the same model under the search's
    root box, and nothing else differs in shape."""
    for label, net in _lean_cases()[::3]:
        model = jabr.build_relaxation(net)
        for k in range(len(net.lines)):
            for v in (model.c[k], model.s[k]):
                assert model.program.lb[v] == -np.inf
                assert model.program.ub[v] == np.inf
        box = tighten.NodeBox.of(model)
        lean_G, lean_dims = model.program._constraints()[0:3:2]
        box_G, box_dims = model.program.member(
            box.lo, box.hi)._constraints()[0:3:2]
        assert box_dims.l - lean_dims.l == 4 * len(net.lines), label
        assert list(box_dims.q) == list(lean_dims.q), label
        assert box_G.shape[0] - lean_G.shape[0] == 4 * len(net.lines), label


def test_line_table_holds_each_lines_four_columns(case14):
    """Row k of `model.lines` is line k's from-bus c_ii, to-bus c_ii, c and
    s on every line of a case14 tree; the table is read-only."""
    tree = network.spanning_tree(case14, 0)
    model = jabr.build_relaxation(tree)
    assert model.lines.shape == (len(tree.lines), 4)
    for k, ln in enumerate(tree.lines):
        assert model.lines[k].tolist() == [model.cii[ln.from_bus],
                                           model.cii[ln.to_bus],
                                           model.c[k], model.s[k]]
    with pytest.raises(ValueError):
        model.lines[0, 0] = model.lines[0, 1]


def test_lean_relaxation_stays_in_the_line_box_and_keeps_its_value():
    """The cone and the c_ii bounds imply |c|, |s| <= Vi_max*Vj_max, so the
    lean program's optimum lies in that box and its value is the boxed
    program's."""
    for label, net in _lean_cases():
        model = jabr.build_relaxation(net)
        lean = conic.solve(model.program)
        box = tighten.NodeBox.of(model)
        ref = conic.solve(model.program.member(box.lo, box.hi))
        assert lean.status == ref.status == conic.OPTIMAL, label
        assert lean.objective == pytest.approx(ref.objective, rel=1e-6), label
        for k in range(len(net.lines)):
            reach = tighten.ring_for(net, k).r_hi * (1 + 1e-8)
            assert abs(lean.x[model.c[k]]) <= reach, label
            assert abs(lean.x[model.s[k]]) <= reach, label


def _case9_tree():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # charging/tap/shift zeroed
        return network.spanning_tree(cases.load_case("case9", drop_charging=True))


def test_cost_epigraph_is_the_last_variable():
    """On a case9 tree, whose units have quadratic costs, the cost epigraph
    t is the model's last variable: free, with cost 1, without a bound row,
    and with the last cone, over every unit's pg."""
    model = jabr.build_relaxation(_case9_tree())
    prog = model.program
    t = model.t
    assert t == prog.num_vars - 1 and prog.cost[t] == 1.0
    assert (prog.lb[t], prog.ub[t]) == (-np.inf, np.inf)
    G, _, dims, A, _ = prog._constraints()
    assert not np.any(G[:dims.l, t]) and not np.any(A[:, t])
    cone = prog.cones[-1]
    assert list(cone.u[0]) == [t]
    assert [int(iz[0]) for iz, _, _ in cone.zs] == model.pg


def test_cost_cap_is_one_row():
    """`cost_cap` is one inequality row, the model's objective at most the
    cap, and leaves the program as it was."""
    model = jabr.build_relaxation(_case9_tree())
    prog = model.program
    before = prog.dump()
    idx, coef, rhs = jabr.cost_cap(model, 6000.0)
    assert prog.dump() == before
    x = np.random.default_rng(0).uniform(-1.0, 2.0, prog.num_vars)
    assert coef @ x[idx] - rhs == pytest.approx(
        prog.objective_value(x) - 6000.0, rel=1e-12)


def test_linear_costs_have_no_cost_epigraph(net2):
    """With every cost linear the model has no epigraph variable or cone,
    and a cost cap is the row of the units' linear costs."""
    model = jabr.build_relaxation(net2)
    assert model.t is None
    assert len(model.program.cones) == len(net2.lines)
    idx, _, _ = jabr.cost_cap(model, 600.0)
    assert list(idx) == [
        v for v, g in zip(model.pg, net2.generators) if g.cost.c1]
