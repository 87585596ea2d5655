"""Spatial branch-and-bound: envelopes, branching, polish, global solves."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from radopf import _ipm, bnb, cases, conic, jabr, network, tighten, twobus


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
    lifted = jabr.build_relaxation(scaled)
    box = bnb.NodeBox.of(lifted)
    pos = scaled.bus_index
    vi, vj = opf.vm[0], opf.vm[1]
    d = opf.theta[1] - opf.theta[0]
    at = {lifted.cii[b.id]: opf.vm[pos[b.id]] ** 2 for b in scaled.buses}
    at[lifted.c[0]] = vi * vj * math.cos(d)
    at[lifted.s[0]] = vi * vj * math.sin(d)
    for v, val in at.items():
        box.lo[v], box.hi[v] = val - 1e-9, val + 1e-9
    sol = conic.solve(bnb.node_relaxation(lifted, box))
    assert sol.optimal
    assert sol.objective == pytest.approx(opf.objective, rel=1e-5)


def test_root_relaxation_sandwiched(net2):
    """Root node bound lies between the plain relaxation value and the
    global value."""
    scaled = network.scale_load(net2, 1.00)
    socp = jabr.solve_relaxation(scaled).objective
    base = jabr.build_relaxation(scaled)
    sol = conic.solve(bnb.node_relaxation(base, bnb.NodeBox.of(base)))
    assert socp - 1e-4 <= sol.objective <= 563.56 * 1.01


def test_node_relaxation_lp_variant_bounded(net2):
    """Dropping the cone leaves a finite-valued box LP under the global
    optimum (any valid relaxation bounds it)."""
    scaled = network.scale_load(net2, 1.00)
    box = tighten.compute_bounds(jabr.build_relaxation(scaled))
    base = jabr.build_relaxation(scaled)
    base.program.cones.clear()
    sol = conic.solve(bnb.node_relaxation(base, box))
    assert sol.optimal
    assert sol.objective <= 563.56 * 1.005


def test_node_member_compiles_like_a_program_built_row_by_row():
    """On a case9 tree with Algorithm-1 cuts, a node member, without and
    with the cost cap appended, compiles to the bits of the lifted program
    built afresh with the box as its bounds and the cuts, the line rows
    (`_line_rows`) and the cap added one row at a time.  In the second box
    one line's c interval is collapsed, not by a pin, and that variable
    moves into `A`.  Forming members leaves the base program as it was."""
    net = _case9_tree()
    base = jabr.build_relaxation(net)
    before = base.program.dump()
    root, cuts = tighten.run_algorithm1(base)
    assert cuts
    flat, v = root.copy(), base.c[1]
    flat.hi[v] = flat.lo[v]
    n, eqs = base.program.num_vars, len(base.program.eqs)
    for box in (root, flat):
        node = bnb.node_relaxation(base, box, cuts)
        for cap in (None, 6000.0):
            member = node if cap is None else dataclasses.replace(
                node, rows=[*node.rows, jabr.cost_cap(base, cap)])
            prog = jabr.build_relaxation(net).program
            prog.lb, prog.ub = box.lo.tolist(), box.hi.tolist()
            for cut in cuts:
                prog.add_ineq([base.c[cut.line], base.s[cut.line]],
                              [-cut.a_c, -cut.a_s], -cut.rhs)
            for cols in base.lines.tolist():
                for coef, rhs in _line_rows(box.lo[cols].tolist(),
                                            box.hi[cols].tolist()):
                    prog.add_ineq(cols, coef, rhs)
            if cap is not None:
                idx = np.flatnonzero(prog.cost)
                prog.add_ineq(idx, np.asarray(prog.cost)[idx],
                              cap - prog.cost_const)
            got, want = member._constraints(), prog._constraints()
            for a, b in zip(got[:2] + got[3:], want[:2] + want[3:]):
                assert np.array_equal(a, b) and a.tobytes() == b.tobytes()
            assert (got[2].l, got[2].q) == (want[2].l, want[2].q)
        fixed = got[3][eqs:]
        assert np.array_equal(fixed, np.eye(n)[[v]] if box is flat
                              else np.zeros((0, n)))
    assert base.program.dump() == before


def _line_rows(lo, hi):
    """The four rows of one line over its box, `lo` and `hi` on its columns
    (c_ii, c_jj, c, s), computed with `math` on floats: the two McCormick
    and secant rows, then the two lifted nonlinear cuts, or two rows
    0 <= 1 where lc <= 0.  The reference for `node_relaxation`'s bits."""
    li, lj, lc, ls = lo
    ui, uj, uc, us = hi
    rhs_sec = -(lc * uc) - (ls * us)
    rows = [([lj, li, -(lc + uc), -(ls + us)], li * lj + rhs_sec),
            ([uj, ui, -(lc + uc), -(ls + us)], ui * uj + rhs_sec)]
    if lc <= 0:
        return rows + [([0.0] * 4, 1.0)] * 2
    vli, vui, vlj, vuj = map(math.sqrt, (li, ui, lj, uj))
    si, sj = vli + vui, vlj + vuj
    th_l = math.atan2(ls, lc if ls < 0 else uc)
    th_u = math.atan2(us, lc if us > 0 else uc)
    phi, cd = 0.5 * (th_u + th_l), math.cos(0.5 * (th_u - th_l))
    ac, as_ = si * sj * math.cos(phi), si * sj * math.sin(phi)
    span = vli * vlj - vui * vuj
    return rows + [([ej * cd * sj, ei * cd * si, -ac, -as_], -rhs)
                   for ei, ej, rhs in ((vui, vuj, vui * vuj * cd * span),
                                       (vli, vlj, -vli * vlj * cd * span))]


def test_node_rows_match_the_per_line_reference_bit_for_bit():
    """On a case9 tree, the rows `node_relaxation` writes on each line's
    columns equal, bit for bit, the rows `_line_rows` computes with `math`
    per line: over the root box after Algorithm 1, over a child of it from
    `branch`, and over a box in which two lines have lc <= 0."""
    base = jabr.build_relaxation(_case9_tree())
    root, cuts = tighten.run_algorithm1(base)
    x = conic.solve(bnb.node_relaxation(base, root, cuts)).x
    (child, _), _ = bnb.branch(base, root, x, base.coupling_residuals(x))
    void = root.copy()
    void.lo[base.c[0]], void.lo[base.c[1]] = -0.1, 0.0
    assert (root.lo[base.c] > 0).all()
    nl = len(base.lines)
    for box in (root, child, void):
        rows = bnb.node_relaxation(base, box, cuts).rows[-4 * nl:]
        for k, cols in enumerate(base.lines.tolist()):
            want = _line_rows(box.lo[cols].tolist(), box.hi[cols].tolist())
            for (idx, a, b), (coef, rhs) in zip(rows[4 * k:4 * k + 4], want):
                assert idx.tolist() == cols
                assert list(a) == coef and b == rhs, k
    assert not np.any(rows[2][1]) and not np.any(rows[6][1])


def _case9_tree():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # charging/tap/shift zeroed
        return network.spanning_tree(cases.load_case("case9",
                                                     drop_charging=True))


def _lifted_points(net, model, vm, th, pg, qg):
    """Rows of lifted points, one per row of the (|V|, angle) arrays, as
    criterion 8 lifts a point, with the cost epigraph at Σ c2·pg²."""
    X = np.zeros((len(vm), model.program.num_vars))
    pos = net.bus_index
    X[:, model.pg], X[:, model.qg] = pg, qg
    for b_id, v in model.cii.items():
        X[:, v] = vm[:, pos[b_id]] ** 2
    for k, ln in enumerate(net.lines):
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        d = th[:, j] - th[:, i]
        X[:, model.c[k]] = vm[:, i] * vm[:, j] * np.cos(d)
        X[:, model.s[k]] = vm[:, i] * vm[:, j] * np.sin(d)
    if model.t is not None:
        c2 = np.array([g.cost.c2 for g in net.generators])
        X[:, model.t] = pg ** 2 @ c2
    return X


@pytest.mark.parametrize("which", ["two-bus", "case9-tree"])
def test_lifted_nonlinear_cuts_keep_every_surface_point(net2, which):
    """Random node boxes around clusters of points of the nonconvex set:
    each line's two lifted nonlinear cuts hold at every lifted point in the
    box to 1e-9, and a line whose box reaches c <= 0 gets rows that every
    point meets strictly."""
    net = network.scale_load(net2, 1.00) if which == "two-bus" else _case9_tree()
    model = jabr.build_relaxation(net)
    root = bnb.NodeBox.of(model)
    rng = np.random.default_rng(24)
    nb, nl, m = net.num_buses, len(net.lines), 200
    pos = net.bus_index
    vmin = np.array([b.vmin for b in net.buses])
    vmax = np.array([b.vmax for b in net.buses])
    glo = np.array([[g.pmin, g.qmin] for g in net.generators])
    ghi = np.array([[g.pmax, g.qmax] for g in net.generators])
    walk = network.tree_edges(net, net.buses[0].id)
    cols = model.lines.ravel().tolist()
    seen = {"cut": 0, "void": 0}
    for trial in range(60):
        # a cluster of points around a random centre; every fourth one has
        # line angles around ±π/2, so that its box mostly has c <= 0
        spread = 10 ** rng.uniform(-3, -0.5)
        if trial % 4:
            centre = rng.uniform(-0.6, 0.6, nl)
        else:
            centre = rng.choice([-1, 1], nl) * rng.uniform(1.5, 1.9, nl)
        vm = np.clip(rng.uniform(vmin, vmax)
                     + spread * (vmax - vmin) * rng.uniform(-1, 1, (m, nb)),
                     vmin, vmax)
        d = centre + spread * rng.uniform(-1, 1, (m, nl))
        th = np.zeros((m, nb))
        for i, j, k in walk:
            sign = 1.0 if net.lines[k].from_bus == i else -1.0
            th[:, pos[j]] = th[:, pos[i]] + sign * d[:, k]
        units = rng.uniform(glo, ghi, (m, *glo.shape))
        X = _lifted_points(net, model, vm, th, units[:, :, 0], units[:, :, 1])

        box = root.copy()
        margin = spread * rng.uniform(0, 0.1, len(cols))
        box.lo[cols] = np.maximum(root.lo[cols], X[:, cols].min(axis=0) - margin)
        box.hi[cols] = np.minimum(root.hi[cols], X[:, cols].max(axis=0) + margin)
        rows = bnb.node_relaxation(model, box).rows[-4 * nl:]
        for k in range(nl):
            void = box.lo[model.c[k]] <= 0
            seen["void" if void else "cut"] += 1
            for idx, coef, rhs in rows[4 * k + 2:4 * k + 4]:
                excess = X[:, idx] @ np.asarray(coef) - rhs
                if void:
                    assert excess.max() < 0
                else:
                    assert np.any(np.asarray(coef) != 0)
                    assert excess.max() <= 1e-9, (which, trial, k)
    assert min(seen.values()) > 0, seen


def _count_conelp(monkeypatch):
    """Patch `_ipm.conelp` to count its calls into the returned list."""
    conelp, calls = _ipm.conelp, []

    def counted(*args, **kwargs):
        calls.append(1)
        return conelp(*args, **kwargs)

    monkeypatch.setattr(_ipm, "conelp", counted)
    return calls


def test_boxes_with_and_without_lifted_cuts_share_one_shape(net2,
                                                            monkeypatch):
    """A line whose box has c <= 0 gets two rows that bind nothing in
    place of its lifted nonlinear cuts, so its node program compiles to the
    shape of one whose box has them, and the two solve in one call."""
    base = jabr.build_relaxation(network.scale_load(net2, 1.00))
    root = bnb.NodeBox.of(base)
    kid = root.copy()
    kid.lo[base.c[0]] = 0.5 * kid.hi[base.c[0]]
    progs = [bnb.node_relaxation(base, box) for box in (root, kid)]
    assert [any(not np.any(coef) for _, coef, _ in p.rows) for p in progs] \
        == [True, False]
    shapes = [(G.shape, A.shape, dims.l, tuple(dims.q))
              for G, _, dims, A, _ in (p._constraints() for p in progs)]
    assert shapes[0] == shapes[1]
    calls = _count_conelp(monkeypatch)
    conic.solve_batch(progs)
    assert len(calls) == 1


@pytest.mark.parametrize("use_bounds", [True, False])
def test_node_batches_share_one_conelp_call(net2, monkeypatch, use_bounds):
    """Every node program of a search has the same rows: each popped
    batch's node relaxations go to one `_ipm.conelp` call, with the root
    box tightened by Algorithm 1 or, without bounds, starting from
    |c|, |s| <= Vi_max·Vj_max."""
    solve_batch, per_batch = conic.solve_batch, []
    calls = _count_conelp(monkeypatch)

    def spy(progs, overrides=None, cutoffs=None):
        if cutoffs is None:          # not a node batch
            return solve_batch(progs, overrides)
        before = len(calls)
        sols = solve_batch(progs, overrides, cutoffs)
        per_batch.append(len(calls) - before)
        return sols

    monkeypatch.setattr(conic, "solve_batch", spy)
    res = bnb.solve_global(network.scale_load(net2, 1.00), gap_tol=9e-4,
                           use_bounds=use_bounds)
    assert res.optimal and len(per_batch) > 1
    assert per_batch == [1] * len(per_batch)


def test_search_members_pass_one_equality_block(net2, monkeypatch):
    """No member of a 2-bus γ=1.00 search fixes a variable, so every
    member holds its program's `A` and `b`: every `conelp` call with more
    than one member gets them once, a 2-D `A` and a 1-D `b`, not a copy
    per member."""
    conelp, seen = _ipm.conelp, []

    def spy(c, G, h, dims, A, b, cutoff, box):
        if len(c) > 1:
            seen.append((np.ndim(G), np.ndim(A), np.ndim(b)))
        return conelp(c, G, h, dims, A, b, cutoff, box)

    monkeypatch.setattr(_ipm, "conelp", spy)
    res = bnb.solve_global(network.scale_load(net2, 1.00), gap_tol=9e-4)
    assert res.optimal and (3, 2, 1) in seen
    assert {ndims[1:] for ndims in seen} == {(2, 1)}


def test_search_programs_have_the_model_columns(monkeypatch):
    """Every program a search on a case9 tree solves, from Algorithm 1 to
    range reduction, compiles to exactly the lifted model's columns, so a
    node box covers all of them."""
    net = _case9_tree()
    n = jabr.build_relaxation(net).program.num_vars
    solve_batch, columns = conic.solve_batch, set()

    def spy(progs, overrides=None, **kwargs):
        columns.update(p._constraints()[0].shape[1] for p in progs)
        return solve_batch(progs, overrides, **kwargs)

    monkeypatch.setattr(conic, "solve_batch", spy)
    res = bnb.solve_global(net, gap_tol=1e-2, node_limit=8)
    assert res.nodes > 0 and columns == {n}


def test_one_build_per_solve(net2, monkeypatch):
    """A global search and a refined relaxation build the lifted model
    once."""
    builds = []
    real = jabr.build_relaxation

    def counted(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(jabr, "build_relaxation", counted)
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=9e-4)
    assert res.optimal and res.nodes > 1 and len(builds) == 1
    builds.clear()
    res = bnb.solve_global(net2, gap_tol=9e-4,
                           fixed_voltage={1: 0.874, 2: 0.816})
    assert res.optimal and len(builds) == 1
    builds.clear()
    relax = jabr.solve_relaxation(scaled)
    assert relax.verdict == "inexact" and len(builds) == 1


# ---------------------------------------------------------------- propagation

def test_propagation_sound_and_contracting(net3):
    scaled = network.scale_load(net3, 0.95, scale_p=False)
    res = jabr.solve_relaxation(scaled)
    opf = res.opf
    base = jabr.build_relaxation(scaled)
    prop = bnb._Propagator(base)
    box = bnb.NodeBox.of(base)
    out = prop.run(box)
    assert out is not None
    model = res.model
    pos = scaled.bus_index
    for k, ln in enumerate(scaled.lines):
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        c = opf.vm[i] * opf.vm[j] * math.cos(opf.theta[j] - opf.theta[i])
        s = opf.vm[i] * opf.vm[j] * math.sin(opf.theta[j] - opf.theta[i])
        vc, vs = model.c[k], model.s[k]
        assert out.lo[vc] - 1e-7 <= c <= out.hi[vc] + 1e-7
        assert out.lo[vs] - 1e-7 <= s <= out.hi[vs] + 1e-7
        assert out.hi[vc] - out.lo[vc] <= box.hi[vc] - box.lo[vc] + 1e-12


def test_propagation_handles_lossless_lines():
    base = cases.load_case("case9", drop_charging=True)
    tree = network.spanning_tree(base, 0)
    base = jabr.build_relaxation(tree)
    out = bnb._Propagator(base).run(bnb.NodeBox.of(base))
    assert out is not None
    assert np.all(out.lo <= out.hi)


def test_propagation_keeps_unit_bounds(net3):
    """Propagation writes back only the c_ii, c and s intervals: the node
    member's box is the propagated one, and its unit bounds stay those of
    the unit although the sweep alone cuts its pmax."""
    scaled = network.scale_load(net3, 1.00, scale_p=False)
    base = jabr.build_relaxation(scaled)
    prop = bnb._Propagator(base)
    box = tighten.compute_bounds(base)
    lo, hi = bnb._sweep_rows(prop.rows, box.lo.copy(), box.hi.copy())
    out = prop.run(box)
    node = bnb.node_relaxation(base, out)
    assert node.lo.tolist() == out.lo.tolist()
    assert node.hi.tolist() == out.hi.tolist()
    assert scaled.generators[0].pmax == 5.5
    assert hi[base.pg[0]] == pytest.approx(4.6185, abs=1e-4)
    for k, g in enumerate(scaled.generators):
        assert (out.lo[base.pg[k]], out.hi[base.pg[k]]) == (g.pmin, g.pmax)
        assert (out.lo[base.qg[k]], out.hi[base.qg[k]]) == (g.qmin, g.qmax)


# ------------------------------------------------------------------- branching

def test_branch_partitions_parent(net2):
    model = jabr.build_relaxation(net2)
    box = bnb.NodeBox.of(model)
    kids, info = bnb.branch(model, box, 0.5 * (box.lo + box.hi), np.ones(1))
    assert len(kids) == 2
    v, split = info
    lo, hi = box.lo[v], box.hi[v]
    assert lo < split < hi
    assert (kids[0].lo[v], kids[0].hi[v]) == (lo, split)
    assert (kids[1].lo[v], kids[1].hi[v]) == (split, hi)


def test_branch_splits_at_the_middle(net2):
    """The split is the middle of the chosen interval, whatever the value
    of the point there, at either edge."""
    model = jabr.build_relaxation(net2)
    box = bnb.NodeBox.of(model)
    for edge in (box.lo, box.hi):
        kids, info = bnb.branch(model, box, edge.copy(), np.ones(1))
        v, split = info
        assert box.lo[v] < box.hi[v]
        assert split == 0.5 * (box.lo[v] + box.hi[v])


def test_branch_none_when_residual_free(net2):
    model = jabr.build_relaxation(net2)
    box = bnb.NodeBox.of(model)
    kids, info = bnb.branch(model, box, 0.5 * (box.lo + box.hi), np.zeros(1))
    assert kids == [] and info is None


def test_branch_falls_to_cs_when_cii_pinned(net2):
    """With squared voltages pinned, branching must pick c or s."""
    model = jabr.build_relaxation(net2, fixed_voltage={1: 0.874, 2: 0.816})
    box = bnb.NodeBox.of(model)
    kids, info = bnb.branch(model, box, 0.5 * (box.lo + box.hi), np.ones(1))
    assert info is not None and info[0] in (model.c[0], model.s[0])


# ----------------------------------------------------------------- local polish

def test_polish_returns_verified_point(net2):
    scaled = network.scale_load(net2, 1.00)
    res = jabr.solve_relaxation(scaled, refine=False)
    cand = bnb.local_polish(res.model, res.solution.x)
    assert cand is not None
    check = jabr.evaluate_opf_point(scaled, cand.e, cand.f, cand.pg, cand.qg)
    assert check.max_violation < 1e-6
    assert cand.objective >= 563.56 * 0.995  # not below the global optimum


def test_polish_keeps_exact_point(net3):
    """Feeding an already-exact relaxation point returns (essentially) it."""
    scaled = network.scale_load(net3, 0.95, scale_p=False)
    res = jabr.solve_relaxation(scaled)
    cand = bnb.local_polish(res.model, res.solution.x)
    assert cand is not None
    assert cand.objective == pytest.approx(res.objective, rel=1e-4)


def test_polish_fails_on_infeasible_instance(net3):
    scaled = network.scale_load(net3, 1.10, scale_p=False)
    res = jabr.solve_relaxation(scaled, refine=False)
    assert res.solution.optimal  # relaxation still feasible
    cand = bnb.local_polish(res.model, res.solution.x)
    assert cand is None


def _polish_points(net, seeds=(0, 1, 2)):
    """The relaxation's unit split, clipped into the unit boxes, and
    z = (|V|, free angles) near the relaxation voltages, each at least 1e-3
    away from every bound of the bus generation boxes and, at a bus whose
    required active generation lies inside its box, from the kink of the
    cost where that requirement equals the bus's summed active split (the
    reactive split does not enter the cost)."""
    res = jabr.solve_relaxation(net)
    model, x = res.model, res.solution.x
    vm = np.sqrt(x[[model.cii[b.id] for b in net.buses]])
    bal = bnb._balance(net)
    base = np.clip([x[model.pg], x[model.qg]], bal.gen_lo, bal.gen_hi)
    summed = np.bincount(bal.gen_bus, base[0], net.num_buses)
    n = net.num_buses
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        z = np.concatenate([vm + 0.01 * rng.standard_normal(n),
                            0.05 * rng.standard_normal(n - 1)])
        need = bnb._required(z, bal)
        assert np.min(np.abs(need - bal.lo)) > 1e-3
        assert np.min(np.abs(need - bal.hi)) > 1e-3
        inside = (need[0] > bal.lo[0]) & (need[0] < bal.hi[0])
        assert np.min(np.abs(need[0] - summed)[inside],
                      initial=np.inf) > 1e-3
        out.append(z)
    return bal, base, out


def _central(f, z, h=1e-6):
    cols = [(f(z + h * e) - f(z - h * e)) / (2 * h) for e in np.eye(len(z))]
    return np.array(cols).T


def _polish_networks(net3):
    tree9 = network.spanning_tree(cases.load_case("case9", drop_charging=True), 0)
    # a second unit with a quadratic cost at the slack bus exercises the
    # split of the allocation between units; its relaxation split sits at
    # the floors, the two-unit case3 at γ=1.00 has one off them
    extra = network.Generator(bus=1, pmin=0.5, pmax=2.0, qmin=-0.5, qmax=1.0,
                              cost=network.CostFunction(c2=40.0, c1=300.0))
    two_units = dataclasses.replace(net3, generators=net3.generators + (extra,))
    return [network.scale_load(net3, 1.00, scale_p=False), tree9, two_units,
            _two_units(net3, 1.00)]


@pytest.mark.filterwarnings("ignore:branch")
def test_polish_derivatives_match_central_differences(net3):
    """The exact Jacobian of the required generation, the Newton core's
    sensitivities of every quantity to the held ones, and the reduced
    gradient of the allocated cost agree with central differences.  The
    held set is the core's start: the slack |V| and every row but the slack
    bus's, each row held at its value at z, so z solves it; a perturbed
    held set is solved again by `_newton`.  The cost reads the bus boxes
    widened by 10, so that no requirement at these points is clipped."""
    slopes = 0
    for net in _polish_networks(net3):
        bal, base, points = _polish_points(net)
        wide = dataclasses.replace(bal, lo=bal.lo - 10.0, hi=bal.hi + 10.0)
        n = net.num_buses
        sk = net.bus_index[bal.slack]
        held = np.ones(3 * n, dtype=bool)
        held[:n] = False
        held[[sk, n + sk, 2 * n + sk]] = [True, False, False]
        for z in points:
            need, d_need = bnb._required(z, bal, jac=True)
            J = d_need.reshape(2 * n, -1)
            fd = _central(lambda zz: bnb._required(zz, bal).ravel(), z)
            np.testing.assert_allclose(J, fd, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(J)))
            pt = bnb._Solved(z, held, need.ravel(), need, d_need)
            D, H = bnb._sensitivity(pt)
            g = bnb._cost_slope(wide, need, base)[1] @ D[n:2 * n]

            def solved(h):
                zz, target = z.copy(), need.ravel().copy()
                zz[H[H < n]], target[H[H >= n] - n] = h[H < n], h[H >= n]
                p = bnb._newton(zz, held, target, bal)
                return np.append(p.quantities(),
                                 bnb._cost_slope(wide, p.need, base)[0])

            fd = _central(solved, pt.quantities()[H])
            np.testing.assert_allclose(D, fd[:-1], rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(D)))
            np.testing.assert_allclose(g, fd[-1], rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(g)))
            slopes += int(np.any(g != 0))
    assert slopes  # the cost gradient was exercised


def test_polish_of_two_bus_meets_the_rows_at_no_more_cost(net2):
    """On 2-bus γ = 1.00 the polish of the relaxation point meets every
    row within 1e-9, and costs at most the 565.30096 that the former
    least-squares polish found."""
    scaled = network.scale_load(net2, 1.00)
    res = jabr.solve_relaxation(scaled, refine=False)
    cand = bnb.local_polish(res.model, res.solution.x)
    assert cand is not None
    check = jabr.evaluate_opf_point(scaled, cand.e, cand.f, cand.pg, cand.qg)
    assert check.max_violation <= 1e-9
    assert cand.objective <= 565.30096 * (1 + 1e-9)


def test_polish_of_an_exact_point_meets_the_balance_equations(net3):
    """The polish of an exact relaxation point lands on the balance rows
    well below the 1e-6 acceptance tolerance, at the relaxation's cost."""
    scaled = network.scale_load(net3, 0.95, scale_p=False)
    res = jabr.solve_relaxation(scaled)
    cand = bnb.local_polish(res.model, res.solution.x)
    assert cand is not None
    check = jabr.evaluate_opf_point(scaled, cand.e, cand.f, cand.pg, cand.qg)
    assert check.max_violation < 1e-9
    assert cand.objective == pytest.approx(res.objective, rel=1e-5)


def test_polish_keeps_the_relaxation_split_between_units(net3):
    """Two units of different cost share the generator bus of the inexact
    case3 at γ=1.00.  Polished from the relaxation point, the cheap unit
    keeps more than its floor, and the point costs at most 912; a split
    pro rata by range gives both units 0.951 for 950.72."""
    net = _two_units(net3, 1.00)
    res = jabr.solve_relaxation(net, refine=False)
    assert res.verdict == "inexact"
    cand = bnb.local_polish(res.model, res.solution.x)
    assert cand is not None and cand.objective <= 912.0
    assert cand.pg[0] > net.generators[0].pmin + 1e-3


def test_polish_without_newton_returns_nothing(net2, net3, monkeypatch):
    """With the Newton core failing from every start, the polish returns
    nothing, from an exact relaxation point as from an inexact one: it
    returns only points the core solved.  So a search whose root is exact
    cannot end there, and under a node limit it ends `gap-limit` without
    an incumbent."""
    monkeypatch.setattr(bnb, "_core", lambda *args: None)
    exact = network.scale_load(net3, 0.95, scale_p=False)
    res = jabr.solve_relaxation(exact)
    assert res.verdict == "exact"
    assert bnb.local_polish(res.model, res.solution.x) is None

    res = jabr.solve_relaxation(network.scale_load(net2, 1.00), refine=False)
    assert res.verdict == "inexact"
    assert bnb.local_polish(res.model, res.solution.x) is None

    for net in (network.scale_load(net2, 0.98), exact):
        res = bnb.solve_global(net, gap_tol=9e-4, node_limit=8)
        assert (res.status, res.incumbent, res.polish_found) == (
            bnb.GAP_LIMIT, None, 0)


@pytest.mark.parametrize("case,gamma,rescued,objective", [
    ("net2", 1.00, True, 564.84483), ("net2", 1.01, True, 642.14772),
    ("net2", 0.98, False, 496.96110), ("net3", 1.00, False, 950.71790)])
def test_the_tilted_start_is_the_only_rescue(request, monkeypatch, case,
                                              gamma, rescued, objective):
    """Each of these searches polishes once.  On 2-bus γ = 1.00 and 1.01
    the core fails from the guided start, solves from the tilted one, and
    that point, after the descent, is the search's incumbent; on 2-bus
    γ = 0.98 and 3-bus γ = 1.00 the guided start solves."""
    core, descend, polish = bnb._core, bnb._descend, bnb.local_polish
    log, calls = [], []

    def core_spy(*args):
        pt = core(*args)
        log.append(pt is not None)
        return pt

    def descend_spy(*args):
        log.append("descend")
        return descend(*args)

    def polish_spy(*args):
        log.clear()
        cand = polish(*args)
        calls.append((list(log), cand))
        return cand

    monkeypatch.setattr(bnb, "_core", core_spy)
    monkeypatch.setattr(bnb, "_descend", descend_spy)
    monkeypatch.setattr(bnb, "local_polish", polish_spy)
    net = network.scale_load(request.getfixturevalue(case), gamma,
                             scale_p=case == "net2")
    res = bnb.solve_global(net, gap_tol=9e-4)
    (starts, cand), = calls
    want = [False, True, "descend"] if rescued else [True, "descend"]
    assert starts[:len(want)] == want
    assert res.optimal and res.incumbent is cand
    assert res.objective == pytest.approx(objective, rel=1e-7)


def test_acceptance_refuses_a_point_that_undercuts_the_optimum():
    """A 2-bus instance whose optimum the closed form gives (`twobus`):
    moving the load bus's angle 2e-8 toward the slack's makes its active
    row miss by ~1.1e-7 and the allocated cost fall below the optimum.
    That point passes the rectangular check at 1e-6, and the polish's
    acceptance check (`_verified`, at `_FEAS_TOL`) refuses it.  Polished
    from the optimum's lifted image, the point costs no less than the
    closed-form value."""
    inst = twobus.TwoBusInstance(g=-1, b=5, pd=0.5, qd=0.2)
    cls = twobus.classify(inst)
    assert cls.verdict == twobus.EXACT
    c11, c22 = cls.c_r
    pg, qg, c12, s12 = twobus.back_substitute(inst, c11, c22)
    net = inst.to_network()
    bal = bnb._balance(net)
    vm = np.sqrt([c11, c22])
    z = np.array([*vm, math.atan2(s12, c12) + 2e-8])
    need, d_need = bnb._required(z, bal, jac=True)
    assert 5e-8 < abs(need[0, 1]) < 5e-7  # the load bus's active row
    base = need[:, :1]
    (pgs, qgs), _ = bnb._allocate(bal, need, base)
    th = np.array([0.0, z[2]])
    check = jabr.evaluate_opf_point(net, vm * np.cos(th), vm * np.sin(th),
                                    pgs, qgs)
    assert check.feasible(1e-6) and check.objective < cls.opf_value
    pt = bnb._Solved(z, np.zeros(6, dtype=bool), need.ravel(), need, d_need)
    assert bnb._verified(net, bal, pt, base) is None

    model = jabr.build_relaxation(net)
    x = np.zeros(model.program.num_vars)
    x[model.pg], x[model.qg] = pg, qg
    x[model.cii[1]], x[model.cii[2]] = c11, c22
    x[model.c], x[model.s] = c12, s12
    cand = bnb.local_polish(model, x)
    assert cand is not None
    assert cand.objective >= cls.opf_value - 1e-9 * abs(cls.opf_value)


# ------------------------------------------------------------------ obbt

def test_range_reduction_shrinks_and_keeps_optimum(net2):
    scaled = network.scale_load(net2, 1.00)
    base = jabr.build_relaxation(scaled)
    box, cuts = tighten.run_algorithm1(base)
    node = bnb.node_relaxation(base, box, cuts)
    slacks = base.coupling_residuals(conic.solve(node).x)
    red = bnb.range_reduction(base, node, box, 564.9, slacks)
    assert red is not None
    assert np.all(red.hi - red.lo <= box.hi - box.lo)
    # the verified optimum (cost 564.84, s = v1*v2*sin(-0.003452)) stays inside
    assert red.lo[base.s[0]] <= -0.002894 <= red.hi[base.s[0]]


def test_range_reduction_infeasible_cutoff_prunes(net2):
    scaled = network.scale_load(net2, 1.00)
    base = jabr.build_relaxation(scaled)
    box = bnb.NodeBox.of(base)
    node = bnb.node_relaxation(base, box)
    slacks = base.coupling_residuals(conic.solve(node).x)
    red = bnb.range_reduction(base, node, box, 100.0, slacks)
    assert red is None  # cutoff below the relaxation value empties the node


def test_range_reduction_batch_matches_single_node_calls(net2):
    """The root and both children of one branch, reduced in one call: the
    child under a cutoff of 100.0 empties on its own, and each other node
    gets the box of a call on that node alone."""
    scaled = network.scale_load(net2, 1.00)
    base = jabr.build_relaxation(scaled)
    root, cuts = tighten.run_algorithm1(base)
    x = conic.solve(bnb.node_relaxation(base, root, cuts)).x
    slacks = base.coupling_residuals(x)
    kids, _ = bnb.branch(base, root, x, slacks)
    nodes = [(root, 570.0), (kids[0], 100.0), (kids[1], 570.0)]
    got = bnb.range_reduction_batch(base, [
        (bnb.node_relaxation(base, box, cuts), box, cap, slacks)
        for box, cap in nodes])
    assert got[1] is None
    for (box, cap), red in zip(nodes, got):
        alone = bnb.range_reduction(base, bnb.node_relaxation(base, box, cuts),
                                    box, cap, slacks)
        assert (red is None) == (alone is None)
        if red is None:
            continue
        np.testing.assert_allclose(red.lo, alone.lo, rtol=0, atol=1e-9)
        np.testing.assert_allclose(red.hi, alone.hi, rtol=0, atol=1e-9)


def test_range_reduction_bounds_the_whole_worst_line(net3, monkeypatch):
    """One `shrink_batch` call bounds every variable of each node's worst
    line that is wider than the width floor: all four on the root box, and
    the other three once its from-bus c_ii interval is narrowed to the
    floor around the relaxation point, which keeps its interval."""
    scaled = network.scale_load(net3, 1.03, scale_p=False)
    base = jabr.build_relaxation(scaled)
    root = tighten.compute_bounds(base)
    x = conic.solve(bnb.node_relaxation(base, root)).x
    slacks = base.coupling_residuals(x)
    worst = base.lines[np.argmax(slacks)].tolist()
    assert np.all(root.hi[worst] - root.lo[worst] > bnb._WIDTH_TOL)
    narrow, vi = root.copy(), worst[0]
    narrow.lo[vi] = x[vi] - bnb._WIDTH_TOL / 4
    narrow.hi[vi] = x[vi] + bnb._WIDTH_TOL / 4
    asked, shrink_batch = [], tighten.shrink_batch

    def spy(jobs):
        asked.append([wide for _, _, wide in jobs])
        return shrink_batch(jobs)

    monkeypatch.setattr(tighten, "shrink_batch", spy)
    got = bnb.range_reduction_batch(base, [
        (bnb.node_relaxation(base, box), box, math.inf, slacks)
        for box in (root, narrow)])
    assert asked == [[worst, worst[1:]]]
    assert got[1] is not None
    assert (got[1].lo[vi], got[1].hi[vi]) == (narrow.lo[vi], narrow.hi[vi])


# ------------------------------------------------------------------ end to end

def test_global_two_bus_inexact_case(net2):
    """Gap below 1e-3 within a few hundred nodes on the hardest sweep point."""
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=9e-4, time_limit=120)
    assert res.optimal
    assert res.objective == pytest.approx(563.56, rel=5e-3)
    assert res.lower_bound <= res.objective + 1e-9
    assert res.nodes <= 500


def test_global_infeasible_in_preprocessing():
    """A unit floor far above what the load can take empties the relaxation
    while its bounds are tightened: the search ends before its first node."""
    net = twobus.TwoBusInstance(g=-1.0, b=5.0, pd=0.5, qd=0.2,
                                pmin=100.0).to_network()
    res = bnb.solve_global(net, gap_tol=1e-4)
    assert res.status == bnb.INFEASIBLE and res.nodes == 0
    assert res.lower_bound == math.inf
    assert res.root_lb is None and res.objective is None


def test_infeasible_root_has_an_infinite_bound(net2):
    """At γ = 0.13 the root relaxation is certified infeasible: its bound,
    and so `root_lb`, is +inf, and that bound alone makes the verdict."""
    res = bnb.solve_global(network.scale_load(net2, 0.13), gap_tol=9e-4)
    assert res.status == bnb.INFEASIBLE and res.nodes == 1
    assert res.root_lb == math.inf and res.lower_bound == math.inf


def test_global_exact_short_circuit(net2):
    """Exact root relaxations return after a single node with zero gap."""
    scaled = network.scale_load(net2, 0.90)
    res = bnb.solve_global(scaled, gap_tol=1e-4)
    assert res.optimal and res.nodes == 1
    assert res.gap <= 1e-4


def _two_units(net3, gamma=0.95):
    """case3 at `gamma` with its unit split into two of different cost."""
    units = tuple(network.Generator(bus=1, pmin=0.75, pmax=2.75, qmin=-0.5,
                                    qmax=2.5, cost=network.CostFunction(c1=c1))
                  for c1 in (400.0, 600.0))
    return network.scale_load(dataclasses.replace(net3, generators=units),
                              gamma, scale_p=False)


def test_global_fathoms_an_exact_node_with_two_units(net3):
    """Two units of different cost share the generator bus.  The polished
    point of the exact root keeps the relaxation's split, cheap unit first,
    so the root is fathomed at the relaxation value."""
    res = bnb.solve_global(_two_units(net3), gap_tol=1e-4)
    assert res.optimal and res.nodes == 1
    assert res.objective == pytest.approx(res.root_lb, rel=1e-6)
    assert res.incumbent.pg[1] == pytest.approx(0.75)


def test_unbranchable_node_keeps_its_bound(net3, monkeypatch):
    """The exact root of the two-unit case gives no incumbent when the
    polish splits from the units' floors: that polish finds a dearer
    point, and the root can be neither fathomed nor branched.  Its bound
    must stay in the lower bound, so the search may not certify the
    polished point."""
    polish = bnb.local_polish

    def from_floors(model, x):
        x = x.copy()
        x[model.pg] = [g.pmin for g in model.net.generators]
        x[model.qg] = [g.qmin for g in model.net.generators]
        return polish(model, x)

    monkeypatch.setattr(bnb, "local_polish", from_floors)
    res = bnb.solve_global(_two_units(net3), gap_tol=1e-4)
    assert res.status == bnb.GAP_LIMIT
    assert res.lower_bound == pytest.approx(res.root_lb, rel=1e-9)
    assert res.objective > res.lower_bound * (1 + 1e-3)


def test_unresolved_leaf_keeps_its_bound(net3, monkeypatch):
    """A node whose relaxation failed and that cannot be branched is a leaf
    without a certificate: the search may not call a feasible instance
    infeasible on it, and the leaf keeps the Lagrangian bound of its
    relaxation.  Every node-relaxation solve (a batch without objective
    overrides) is made to end in `numerical_failure`."""
    solve_batch = conic.solve_batch

    def failing(progs, overrides=None, **kwargs):
        sols = solve_batch(progs, overrides, **kwargs)
        if overrides is None:
            sols = [dataclasses.replace(sol, status=conic.FAILED)
                    for sol in sols]
        return sols

    monkeypatch.setattr(conic, "solve_batch", failing)
    monkeypatch.setattr(bnb, "_WIDTH_TOL", 10.0)
    scaled = network.scale_load(net3, 1.03, scale_p=False)
    res = bnb.solve_global(scaled, gap_tol=9e-4)
    assert res.status == bnb.GAP_LIMIT
    assert res.nodes == 1 and math.isfinite(res.lower_bound)
    relaxed = jabr.solve_relaxation(scaled).objective
    assert res.lower_bound <= relaxed * (1 + 1e-9)


def test_one_range_reduction_call_per_node_batch(net2, monkeypatch):
    """After preprocessing, the search makes at most one range-reduction
    call (a batch with objective overrides) per node-relaxation call."""
    calls = []
    solve_batch = conic.solve_batch

    def counted(progs, overrides=None, **kwargs):
        calls.append("node" if overrides is None else
                     "reduce" if any(o is not None for o in overrides) else "")
        return solve_batch(progs, overrides, **kwargs)

    monkeypatch.setattr(conic, "solve_batch", counted)
    res = bnb.solve_global(network.scale_load(net2, 1.00), gap_tol=9e-4)
    assert res.optimal
    search = calls[calls.index("node"):]
    assert search.count("reduce") <= search.count("node")


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


def test_global_rejects_an_infinite_unit_bound():
    """The search needs a finite box on every unit.  On this two-bus
    instance with its unit's own infinite bounds, the polish split gave a
    NaN reactive output and the search certified a value below the closed
    form's optimum; now it refuses the network, naming the unit."""
    inst = twobus.TwoBusInstance(
        g=-5.901872998866605, b=6.0282363206777285, pd=-9.59015439152895,
        qd=0.843268820449862, pmin=-2.858254129506409,
        c11_min=0.8346431056489167, c11_max=1.251351010394668,
        c22_min=0.8479499432725236, c22_max=1.294920134300117)
    net = inst.to_network()
    unit = dataclasses.replace(net.generators[0], pmin=inst.pmin,
                               pmax=inst.pmax, qmin=inst.qmin,
                               qmax=inst.qmax)
    with pytest.raises(ValueError, match="unit 0 at bus 1"):
        bnb.solve_global(dataclasses.replace(net, generators=(unit,)))


def test_global_certifies_infeasible(net3):
    scaled = network.scale_load(net3, 1.04, scale_p=False)
    res = bnb.solve_global(scaled, gap_tol=2e-3, time_limit=120)
    assert res.status == bnb.INFEASIBLE
    # while the plain relaxation is still feasible
    assert jabr.solve_relaxation(scaled).solution.optimal


def test_polish_backs_off_without_an_incumbent(net3, monkeypatch):
    """On an infeasible instance every polish fails: each failure doubles
    the wait to the next one."""
    calls = []
    polish = bnb.local_polish

    def counted(*args):
        calls.append(args)
        return polish(*args)

    monkeypatch.setattr(bnb, "local_polish", counted)
    scaled = network.scale_load(net3, 1.04, scale_p=False)
    res = bnb.solve_global(scaled, gap_tol=2e-3, time_limit=120)
    assert res.status == bnb.INFEASIBLE
    assert res.nodes == 19
    assert 1 <= len(calls) <= math.ceil(math.log2(res.nodes)) + 2
    assert (res.polish_calls, res.polish_found) == (len(calls), 0)


def _ten_searches(net2, net3):
    """The ten global searches of the benchmark's small workload: status,
    nodes and the bits of the objective and lower bound of each, and the
    total of relaxations stopped at the cutoff."""
    runs = [(network.scale_load(net2, g), {})
            for g in (0.13, 0.98, 1.00, 1.01, 2.92)]
    runs += [(network.scale_load(net3, g, scale_p=False), {})
             for g in (0.95, 1.00, 1.03, 1.04)]
    runs.append((net2, {"fixed_voltage": {1: 0.874, 2: 0.816}}))
    out, stops = [], 0
    for net, kwargs in runs:
        res = bnb.solve_global(net, gap_tol=9e-4, **kwargs)
        out.append((res.status, res.nodes,
                    None if res.objective is None else res.objective.hex(),
                    float(res.lower_bound).hex()))
        stops += res.cutoff_stops
    return out, stops


def test_cutoff_stops_change_no_answer(net2, net3, monkeypatch):
    """Stopping node relaxations at the cutoff drops only nodes that the
    search would drop anyway: with every cutoff forced to +inf the ten
    searches end with the same status, nodes and bits."""
    stopped, stops = _ten_searches(net2, net3)
    assert stops > 0
    solve_batch = conic.solve_batch

    def uncut(progs, overrides=None, cutoffs=None):
        return solve_batch(progs, overrides,
                           None if cutoffs is None else [math.inf] * len(progs))

    monkeypatch.setattr(conic, "solve_batch", uncut)
    assert _ten_searches(net2, net3) == (stopped, 0)


def test_failed_node_is_pruned_by_its_bound(net2, monkeypatch):
    """A node relaxation that fails with its largest Lagrangian bound at
    the cutoff is pruned before range reduction.  Every node relaxation
    stopped at the cutoff is made to read `numerical_failure`, keeping its
    bound: the search reaches the same answer without reducing any of
    those nodes."""
    scaled = network.scale_load(net2, 1.00)
    want = bnb.solve_global(scaled, gap_tol=9e-4)
    assert want.cutoff_stops > 0
    # the members themselves are kept, so that no id is reused
    solve_batch, failed, reduced = conic.solve_batch, [], []

    def failing(progs, overrides=None, cutoffs=None):
        sols = solve_batch(progs, overrides, cutoffs)
        for k, sol in enumerate(sols):
            if sol.status == conic.CUTOFF:
                failed.append(progs[k])
                sols[k] = dataclasses.replace(sol, status=conic.FAILED)
        return sols

    reduce = bnb.range_reduction_batch

    def spy(model, jobs):
        reduced.extend(member for member, *_ in jobs)
        return reduce(model, jobs)

    monkeypatch.setattr(conic, "solve_batch", failing)
    monkeypatch.setattr(bnb, "range_reduction_batch", spy)
    res = bnb.solve_global(scaled, gap_tol=9e-4)
    assert len(failed) == want.cutoff_stops and res.cutoff_stops == 0
    assert not {id(p) for p in failed} & {id(p) for p in reduced}
    assert (res.status, res.nodes, res.objective) == (
        want.status, want.nodes, want.objective)


def test_global_root_lb_matches_relaxation(net2):
    """Root lower bound equals the relaxation value."""
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=2e-3, time_limit=120)
    assert res.root_lb == pytest.approx(501.46, rel=1e-3)
    assert res.root_gap_pct == pytest.approx(100 * (1 - res.root_lb / res.objective),
                                             abs=1e-6)


def test_root_gap_is_not_negative_at_a_negative_cost():
    """The root gap is (objective − root bound) over |objective|, so it
    keeps its sign when the optimum costs less than zero."""
    inst = twobus.TwoBusInstance(g=-1, b=5, pd=-0.5, qd=0.2, pmin=-0.49)
    res = bnb.solve_global(inst.to_network(), gap_tol=1e-6)
    assert res.optimal and res.objective < 0
    assert res.root_gap_pct >= 0
    assert res.root_gap_pct == pytest.approx(
        100 * (res.objective - res.root_lb) / abs(res.objective), abs=1e-12)


def test_node_bounds_are_lagrangian_bounds(net2, monkeypatch):
    """Every node-relaxation call passes cutoffs, so each member reports
    its Lagrangian bound: `root_lb` is the root member's bound to the bit,
    and an optimal member's bound never exceeds its optimum.  The optimum
    is known to the interior-point method's relative gap only, and the
    bound reads up to 4.5e-9 above the primal objective here."""
    node_progs, calls = set(), []
    relax, solve_batch = bnb.node_relaxation, conic.solve_batch

    def built(*args, **kwargs):
        member = relax(*args, **kwargs)
        node_progs.add(id(member))
        return member

    def spy(progs, overrides=None, cutoffs=None):
        sols = solve_batch(progs, overrides, cutoffs)
        if ({id(p) for p in progs} <= node_progs
                and all(o is None for o in overrides or ())):
            calls.append((cutoffs, sols))
        return sols

    monkeypatch.setattr(bnb, "node_relaxation", built)
    monkeypatch.setattr(conic, "solve_batch", spy)
    res = bnb.solve_global(network.scale_load(net2, 1.00), gap_tol=9e-4)
    assert res.optimal and len(calls) > 1
    assert all(cutoffs is not None for cutoffs, _ in calls)
    assert res.root_lb == calls[0][1][0].bound
    solved = [sol for _, sols in calls for sol in sols if sol.optimal]
    assert solved
    assert all(sol.bound <= sol.objective * (1 + _ipm.GAPTOL) for sol in solved)


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


def test_batched_search_does_not_stop_at_a_fathomed_pop(net2):
    """A batch popped up to a fathomable node still pushes children below
    the cutoff; the search must go on to pop them."""
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=2e-3)
    assert res.status == bnb.GLOBAL_OPTIMAL
    assert res.gap <= 2e-3


def test_node_limit_is_exact(net2):
    """A batch never takes more nodes than the limit has left."""
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=1e-9, node_limit=5)
    assert res.status == bnb.GAP_LIMIT
    assert res.nodes == 5


_THREADS_CHILD = """
from radopf import bnb, cases, network
n2, n3 = cases.load_case("case2_two_gen"), cases.load_case("case3_one_gen")
for net in (network.scale_load(n2, 1.00),
            network.scale_load(n3, 1.03, scale_p=False)):
    r = bnb.solve_global(net, gap_tol=9e-4)
    print(r.status, r.nodes, r.objective.hex(), r.lower_bound.hex())
"""


def test_answer_does_not_depend_on_blas_threads():
    """The same search under one and two BLAS threads, each in a child
    process of its own, ends with the same status, node count and bits."""
    src = str(Path(bnb.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _THREADS_CHILD], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout.splitlines())
    assert len(outs[0]) == 2
    assert outs[0] == outs[1]


def test_time_limit_status(net2):
    """The limit sits well below the ~0.45 s (2-core x86_64) in which this
    search exhausts its tree and ends `gap-limit` at a 1e-9 gap."""
    scaled = network.scale_load(net2, 1.00)
    res = bnb.solve_global(scaled, gap_tol=1e-9, time_limit=0.1)
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
    base = jabr.build_relaxation(scaled)
    box = tighten.compute_bounds(base)
    node = bnb.node_relaxation(base, box)
    slacks = base.coupling_residuals(conic.solve(node).x)
    got = bnb.range_reduction(base, node, box, incumbent, slacks)

    ref = bnb.node_relaxation(base, box)
    if math.isfinite(incumbent):
        cap = jabr.cost_cap(base, incumbent + 1e-6 * (1 + abs(incumbent)))
        ref = dataclasses.replace(ref, rows=[*ref.rows, cap])
    want = box.copy()
    for var in base.lines[np.argmax(slacks)]:
        if box.hi[var] - box.lo[var] <= bnb._WIDTH_TOL:
            continue
        lo, hi = box.lo[var], box.hi[var]
        for sense in (+1, -1):
            override = np.zeros(base.program.num_vars)
            override[var] = sense
            one = conic.solve_batch([ref], [override],
                                    cutoffs=[math.inf])[0]
            assert one.optimal
            val = sense * one.bound
            lo, hi = (max(lo, val), hi) if sense > 0 else (lo, min(hi, val))
        want.lo[var], want.hi[var] = lo, hi
    assert got is not None
    np.testing.assert_allclose(got.lo, want.lo, rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(got.hi, want.hi, rtol=1e-7, atol=1e-7)
