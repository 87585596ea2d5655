"""Bound tightening and secant valid inequalities."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from radopf import _ipm, bnb, cases, conic, jabr, network, tighten
from radopf.tighten import NodeBox, Ring, generate_cut, ring_for


def line_box(model, box, k):
    """(c_lo, c_hi, s_lo, s_hi) of line k."""
    vc, vs = model.c[k], model.s[k]
    return (float(box.lo[vc]), float(box.hi[vc]),
            float(box.lo[vs]), float(box.hi[vs]))


# frozen via corner-norm arithmetic, re-derived in-test as the oracle
def corner_case(c_lo, s_lo, s_hi, r_lo):
    return (math.hypot(c_lo, s_lo) < r_lo, math.hypot(c_lo, s_hi) < r_lo)


def test_case1_symmetric_chord():
    assert corner_case(0.78, -0.2, 0.2, 0.81) == (True, True)
    cut = generate_cut(0.78, 1.2, -0.2, 0.2, 0.81)
    assert cut.case == 1
    x = math.sqrt(0.81 ** 2 - 0.2 ** 2)
    assert cut.rhs / cut.a_c == pytest.approx(x, rel=1e-12)
    assert cut.a_s == pytest.approx(0.0, abs=1e-15)


def test_case2_asymmetric_chord():
    assert corner_case(0.78, -0.1, 0.3, 0.81) == (True, False)
    cut = generate_cut(0.78, 1.2, -0.1, 0.3, 0.81)
    assert cut.case == 2
    y1 = math.sqrt(0.81 ** 2 - 0.78 ** 2)
    x2 = math.sqrt(0.81 ** 2 - 0.1 ** 2)
    assert cut.a_c == pytest.approx(y1 + 0.1, rel=1e-12)
    assert cut.a_s == pytest.approx(-(0.78 - x2), rel=1e-12)
    assert cut.rhs == pytest.approx(x2 * y1 + 0.78 * 0.1, rel=1e-12)
    # rounded reference form
    assert (cut.a_c, cut.a_s, cut.rhs) == pytest.approx((0.3184, 0.0238, 0.2536), abs=5e-5)


def test_case3_mirror_of_case2():
    assert corner_case(0.78, -0.3, 0.1, 0.81) == (False, True)
    cut = generate_cut(0.78, 1.2, -0.3, 0.1, 0.81)
    assert cut.case == 3


def test_case4_no_cut():
    assert corner_case(0.85, -0.2, 0.2, 0.81) == (False, False)
    assert generate_cut(0.85, 1.2, -0.2, 0.2, 0.81) is None


def test_box_clear_of_circle_no_cut():
    assert generate_cut(0.82, 1.2, -0.1, 0.1, 0.81) is None


def test_nonpositive_c_lo_warns_and_skips():
    with pytest.warns(UserWarning, match="cut skipped"):
        assert generate_cut(-0.1, 1.2, -0.2, 0.2, 0.81) is None


@pytest.mark.parametrize("box,r_lo", [
    ((0.78, 1.2, -0.2, 0.2), 0.81),
    ((0.78, 1.2, -0.1, 0.3), 0.81),
    ((0.78, 1.2, -0.3, 0.1), 0.81),
    ((0.5, 1.0, -0.05, 0.4), 0.7),
])
def test_chord_endpoints_on_circle(box, r_lo):
    """Every chord endpoint has one coordinate from the box and the other
    from a square root, so it lies exactly on the inner circle."""
    cut = generate_cut(*box, r_lo)
    for x, y in (cut.p1, cut.p2):
        assert abs(x * x + y * y - r_lo ** 2) < 1e-12


@pytest.mark.parametrize("box,r_lo", [
    ((0.78, 1.2, -0.2, 0.2), 0.81),
    ((0.78, 1.2, -0.1, 0.3), 0.81),
    ((0.78, 1.2, -0.3, 0.1), 0.81),
    ((0.3, 1.3, -0.6, 0.55), 0.9),
])
def test_cut_validity_dense_sampling(box, r_lo):
    """Every box point with norm >= r_lo satisfies the cut (the cut only
    shaves points inside the inner circle)."""
    cut = generate_cut(*box, r_lo)
    if cut is None:
        return
    rng = np.random.default_rng(0)
    c = rng.uniform(box[0], box[1], 100_000)
    s = rng.uniform(box[2], box[3], 100_000)
    keep = c * c + s * s >= r_lo ** 2
    assert np.all(cut.violation(c[keep], s[keep]) <= 1e-9)


def test_ring_from_network():
    net = cases.load_case("case2_two_gen")
    ring = ring_for(net, 0)
    assert ring.r_lo == pytest.approx(0.81)
    assert ring.r_hi == pytest.approx(1.21)
    with pytest.raises(ValueError):
        Ring(r_lo=0.0, r_hi=1.0)


def test_implied_bounds():
    net = cases.load_case("case2_two_gen")
    model = jabr.build_relaxation(net)
    box = NodeBox.of(model)
    assert line_box(model, box, 0) == pytest.approx((-1.21, 1.21, -1.21, 1.21))


def _box_cases():
    """(label, network, pins) for case2, case3 and a case9 tree, each
    unpinned and with its first bus pinned inside its voltage range."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # charging/tap/shift zeroed
        tree9 = network.spanning_tree(cases.load_case("case9", drop_charging=True), 0)
    out = []
    for label, net in (("case2", cases.load_case("case2_two_gen")),
                       ("case3", cases.load_case("case3_one_gen")),
                       ("case9 tree", tree9)):
        bus = net.buses[0]
        out += [(label, net, None),
                (f"{label} pinned", net, {bus.id: bus.vmin * bus.vmax})]
    return out


def test_node_box_of_puts_the_line_box_on_every_pair():
    """NodeBox.of writes -+Vi_max*Vj_max on each line's c and s, the range
    that the lifted model gives them, and the program's own bounds
    elsewhere."""
    for label, net, pins in _box_cases():
        model = jabr.build_relaxation(net, fixed_voltage=pins)
        box = NodeBox.of(model)
        pair = model.c + model.s
        for k in range(len(net.lines)):
            r_hi = ring_for(net, k).r_hi
            for v in (model.c[k], model.s[k]):
                assert (box.lo[v], box.hi[v]) == (-r_hi, r_hi), label
        rest = np.setdiff1d(np.arange(model.program.num_vars), pair)
        assert np.array_equal(box.lo[rest], np.array(model.program.lb)[rest])
        assert np.array_equal(box.hi[rest], np.array(model.program.ub)[rest])


def test_node_program_matches_one_with_the_line_box_set_explicitly():
    """A node member built from NodeBox.of compiles to the same arrays as
    one from a model whose c/s bounds were written into the program."""
    for label, net, pins in _box_cases():
        base = jabr.build_relaxation(net, fixed_voltage=pins)
        _, cuts = tighten.run_algorithm1(base)
        ref = jabr.build_relaxation(net, fixed_voltage=pins)
        prog = ref.program
        for k in range(len(net.lines)):
            r_hi = ring_for(net, k).r_hi
            for v in (ref.c[k], ref.s[k]):
                prog.lb[v], prog.ub[v] = -r_hi, r_hi
        ref_box = NodeBox(np.array(prog.lb), np.array(prog.ub))
        got = bnb.node_relaxation(base, NodeBox.of(base), cuts)
        want = bnb.node_relaxation(ref, ref_box, cuts)
        assert np.array_equal(got.prog._objective(),
                              want.prog._objective()), label
        got, want = got._constraints(), want._constraints()
        for a, b in zip(got, want):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), label
        assert (got[2].l, got[2].q) == (want[2].l, want[2].q), label


def test_compute_bounds_two_bus():
    """Bounds tighten well inside the implied box and exclude c <= 0."""
    net = cases.load_case("case2_two_gen")
    model = jabr.build_relaxation(net)
    c_lo, c_hi, s_lo, s_hi = line_box(model, tighten.compute_bounds(model), 0)
    assert c_lo > 0.0
    assert -1.21 < s_lo < s_hi < 1.21
    assert c_hi <= 1.21 + 1e-6


def test_zero_load_net_s_bounds_contain_zero():
    net = network.Network(
        buses=(network.Bus(1), network.Bus(2)),
        generators=(network.Generator(1, 0.0, 1.0, -1.0, 1.0,
                                      network.CostFunction(c1=1.0)),),
        lines=(network.Line(1, 2, 0.01, 0.05),))
    model = jabr.build_relaxation(net)
    _, _, s_lo, s_hi = line_box(model, tighten.compute_bounds(model), 0)
    assert s_lo <= 0.0 <= s_hi


def test_bounds_are_valid_for_feasible_points():
    """An exactly recovered OPF point stays inside the tightened boxes."""
    net = network.scale_load(cases.load_case("case2_two_gen"), 0.95)
    model = jabr.build_relaxation(net)
    box, cuts = tighten.run_algorithm1(model)
    c_lo, c_hi, s_lo, s_hi = line_box(model, box, 0)
    res = jabr.solve_relaxation(net)
    opf = res.opf
    vi, vj = opf.vm[0], opf.vm[1]
    d = opf.theta[1] - opf.theta[0]
    c, s = vi * vj * np.cos(d), vi * vj * np.sin(d)
    assert c_lo - 1e-9 <= c <= c_hi + 1e-9
    assert s_lo - 1e-9 <= s <= s_hi + 1e-9
    for cut in cuts:
        assert cut.violation(c, s) <= 1e-9


def test_a_direction_stops_at_its_interval_end(monkeypatch):
    """Each direction's cutoff is its interval's other end.  Capped at
    0.1% below its optimum, the 2-bus γ=1.00 root node member is empty:
    every direction of its line stops once its bound passes that end, or
    is certified infeasible, and the box is reported empty."""
    net = network.scale_load(cases.load_case("case2_two_gen"), 1.00)
    base = jabr.build_relaxation(net)
    box = tighten.compute_bounds(base)
    node = bnb.node_relaxation(base, box)
    opt = conic.solve(node)
    assert opt.optimal
    capped = dataclasses.replace(
        node, rows=[*node.rows, jabr.cost_cap(base, opt.objective * (1 - 1e-3))])
    solve_batch, calls = conic.solve_batch, []

    def spy(progs, overrides=None, **kwargs):
        sols = solve_batch(progs, overrides, **kwargs)
        calls.append((kwargs["cutoffs"], sols))
        return sols

    monkeypatch.setattr(conic, "solve_batch", spy)
    variables = base.lines[0].tolist()
    assert tighten.shrink_batch([(capped, box, variables)]) == [None]
    ((cutoffs, sols),) = calls
    assert cutoffs == [end for v in variables
                       for end in (box.hi[v], -box.lo[v])]
    statuses = {sol.status for sol in sols}
    assert conic.CUTOFF in statuses
    assert statuses <= {conic.CUTOFF, conic.INFEASIBLE}
    assert all(sol.bound >= cut for cut, sol in zip(cutoffs, sols))


def test_a_direction_cut_short_still_tightens(monkeypatch):
    """A bound solve stopped by the iteration cap still gives its
    Lagrangian bound as an interval end.  With six IPM iterations no
    direction on the 2-bus γ=1.00 line ends optimal, yet its box narrows
    from ±1.21 and still holds the (c, s) of the certified optimum."""
    monkeypatch.setattr(_ipm, "MAXITER", 6)
    solve_batch, statuses = conic.solve_batch, []

    def spy(progs, overrides=None, **kwargs):
        sols = solve_batch(progs, overrides, **kwargs)
        statuses.extend(sol.status for sol in sols)
        return sols

    monkeypatch.setattr(conic, "solve_batch", spy)
    net = network.scale_load(cases.load_case("case2_two_gen"), 1.00)
    model = jabr.build_relaxation(net)
    box, _ = tighten.run_algorithm1(model)
    assert len(statuses) == 4 and conic.OPTIMAL not in statuses
    c_lo, c_hi, s_lo, s_hi = line_box(model, box, 0)
    assert (c_lo, c_hi) == pytest.approx((0.6553, 1.1834), abs=1e-4)
    assert (s_lo, s_hi) == pytest.approx((-0.0456, 0.0388), abs=1e-4)
    # the global optimum that `bnb.solve_global` certifies on this network
    c, s = 0.838254, -0.002894
    assert c_lo <= c <= c_hi and s_lo <= s <= s_hi


@pytest.mark.parametrize("name,gamma", [("case2_two_gen", 1.00),
                                        ("case3_one_gen", 1.03)])
def test_shrunk_ends_lie_on_the_safe_side_of_each_optimum(name, gamma):
    """On a root node member, every interval end `shrink_batch` moves is
    at or below the variable's value at its own minimizer (lower end) and
    at or above its value at its own maximizer (upper end).  An end it
    keeps is the member's own bound, which the IPM meets only to its
    tolerance."""
    net = network.scale_load(cases.load_case(name), gamma,
                             scale_p=name != "case3_one_gen")
    base = jabr.build_relaxation(net)
    root = tighten.compute_bounds(base)
    node = bnb.node_relaxation(base, root)
    variables = sorted(set(base.lines.ravel().tolist()))
    (got,) = tighten.shrink_batch([(node, root, variables)])
    assert (got.lo > root.lo).any() and (got.hi < root.hi).any()
    for v in variables:
        for sense in (+1, -1):
            override = np.zeros(base.program.num_vars)
            override[v] = sense
            sol = conic.solve(node, objective_override=override)
            assert sol.optimal
            if sense > 0 and got.lo[v] > root.lo[v]:
                assert got.lo[v] <= sol.x[v]
            if sense < 0 and got.hi[v] < root.hi[v]:
                assert got.hi[v] >= sol.x[v]


def test_run_algorithm1_two_bus_single_cut():
    net = cases.load_case("case2_two_gen")
    _, cuts = tighten.run_algorithm1(jabr.build_relaxation(net))
    assert len(cuts) <= 1


def test_run_algorithm1_radial_case9_cut_count():
    base = cases.load_case("case9", drop_charging=True)
    tree = network.spanning_tree(base, 0)
    _, cuts = tighten.run_algorithm1(jabr.build_relaxation(tree))
    assert len(cuts) <= len(tree.lines)
    assert 1 <= len(cuts)


def test_run_algorithm1_radial_case14_cut_count():
    """Cut counts stay within the line count; some trees need none (every
    box clears the inner circle) and some need several."""
    base = cases.load_case("case14", drop_charging=True)
    counts = []
    for seed in (0, 1, 3):
        tree = network.spanning_tree(base, seed)
        assert len(tree.lines) == 13
        _, cuts = tighten.run_algorithm1(jabr.build_relaxation(tree))
        assert len(cuts) <= 13
        counts.append(len(cuts))
    assert max(counts) >= 1


def test_idempotent_rerun():
    model = jabr.build_relaxation(cases.load_case("case3_one_gen"))
    a = tighten.run_algorithm1(model)
    b = tighten.run_algorithm1(model)
    assert np.allclose(a[0].lo[model.c], b[0].lo[model.c]) and \
        np.allclose(a[0].hi[model.s], b[0].hi[model.s])
    assert [(c.a_c, c.a_s, c.rhs) for c in a[1]] == [(c.a_c, c.a_s, c.rhs) for c in b[1]]


def test_tightening_never_cuts_relaxation_optimum():
    """Adding boxes and cuts leaves the relaxation optimum unchanged."""
    for gamma in (0.95, 1.00):
        net = network.scale_load(cases.load_case("case2_two_gen"), gamma)
        plain = jabr.solve_relaxation(net).objective
        model = jabr.build_relaxation(net)
        box, cuts = tighten.run_algorithm1(model)
        sol = conic.solve(model.program.member(
            box.lo, box.hi, [cut.row(model) for cut in cuts]))
        assert sol.objective == pytest.approx(plain, rel=1e-6)


def test_member_rejects_an_inverted_box():
    model = jabr.build_relaxation(cases.load_case("case2_two_gen"))
    box = NodeBox.of(model)
    box.lo[model.c[0]], box.hi[model.c[0]] = 0.9, 0.8
    with pytest.raises(conic.ProgramError):
        model.program.member(box.lo, box.hi)


def test_infeasible_relaxation_propagates():
    net = network.scale_load(cases.load_case("case2_two_gen"), 2.93)
    with pytest.raises(tighten.RelaxationInfeasible):
        tighten.compute_bounds(jabr.build_relaxation(net))


def test_cuts_csv():
    net = cases.load_case("case2_two_gen")
    _, cuts = tighten.run_algorithm1(jabr.build_relaxation(net))
    text = tighten.cuts_csv(cuts)
    assert text.splitlines()[0] == "line,a_c,a_s,rhs,case,x1,y1,x2,y2"


def _reference_algorithm1(net):
    """Algorithm 1 with every direction solved on its own, each on a fresh
    build with the box and cuts so far installed row by row, and each
    interval end taken from that solve's Lagrangian bound."""
    model = jabr.build_relaxation(net)
    bounds = NodeBox.of(model)
    cuts = []
    for k in range(len(net.lines)):
        vals = {}
        for var, sense in ((model.c[k], 1), (model.c[k], -1),
                           (model.s[k], 1), (model.s[k], -1)):
            fresh = jabr.build_relaxation(net)
            prog = fresh.program
            prog.lb, prog.ub = bounds.lo.tolist(), bounds.hi.tolist()
            for cut in cuts:
                prog.add_ineq([fresh.c[cut.line], fresh.s[cut.line]],
                              [-cut.a_c, -cut.a_s], -cut.rhs)
            override = np.zeros(prog.num_vars)
            override[var] = sense
            sol = conic.solve_batch([prog], [override],
                                    cutoffs=[math.inf])[0]
            vals[var, sense] = sense * sol.bound
        for var in (model.c[k], model.s[k]):
            bounds.lo[var] = max(bounds.lo[var], vals[var, 1])
            bounds.hi[var] = min(bounds.hi[var], vals[var, -1])
        cut = generate_cut(*line_box(model, bounds, k), ring_for(net, k).r_lo,
                           line=k)
        if cut is not None:
            cuts.append(cut)
    return bounds, cuts


@pytest.mark.parametrize("name,gamma", [("case2_two_gen", 1.00),
                                        ("case3_one_gen", 1.00),
                                        ("case3_one_gen", 1.03)])
def test_algorithm1_matches_per_direction_solves(name, gamma):
    """Batched per-line solves give the boxes and cuts of the loop that
    solves each direction on its own."""
    net = network.scale_load(cases.load_case(name), gamma,
                             scale_p=name != "case3_one_gen")
    got_b, got_c = tighten.run_algorithm1(jabr.build_relaxation(net))
    want_b, want_c = _reference_algorithm1(net)
    for field in ("lo", "hi"):
        np.testing.assert_allclose(getattr(got_b, field),
                                   getattr(want_b, field), rtol=1e-7,
                                   atol=1e-7)
    assert [c.line for c in got_c] == [c.line for c in want_c]
    for a, b in zip(got_c, want_c):
        assert (a.a_c, a.a_s, a.rhs) == pytest.approx((b.a_c, b.a_s, b.rhs),
                                                      rel=1e-7, abs=1e-7)
