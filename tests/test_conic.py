"""Conic solver: analytic cases, LP cross-checks, certificates, invariants."""

import importlib.util
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from radopf import _ipm, conic


def test_box_lp_min():
    p = conic.ConicProgram()
    p.add_var("x", 1.0, 2.0, cost=1.0)
    sol = conic.solve(p)
    assert sol.optimal
    assert sol.objective == pytest.approx(1.0, abs=1e-7)


def test_tight_rotated_cone_analytic():
    """min c11 with |(c12,s12)|^2 <= c11*c22, c12 pinned at 1, c22 <= 1.21:
    optimum 1/1.21 with the cone tight."""
    p = conic.ConicProgram()
    c11 = p.add_var("c11", 0.0, cost=1.0)
    c22 = p.add_var("c22", 0.0, 1.21)
    c12 = p.add_var("c12", 1.0, 1.0)
    s12 = p.add_var("s12", 0.0, 0.0)
    p.add_rotated_cone(c11, c22, [c12, s12])
    sol = conic.solve(p)
    assert sol.optimal
    assert sol.objective == pytest.approx(1.0 / 1.21, rel=1e-7)


def test_lp_unit_box_corner():
    p = conic.ConicProgram()
    x = p.add_var("x", 0.0, 1.0, cost=1.0)
    y = p.add_var("y", 0.0, 1.0, cost=1.0)
    sol = conic.solve(p)
    assert sol.optimal
    assert sol.objective == pytest.approx(0.0, abs=1e-7)
    assert np.allclose(sol.x, 0.0, atol=1e-6)


def test_infeasible_lp_certificate():
    p = conic.ConicProgram()
    x = p.add_var("x", cost=1.0)
    p.add_ineq([x], [-1.0], -1.0)  # x >= 1
    p.add_ineq([x], [1.0], 0.0)    # x <= 0
    sol = conic.solve(p)
    assert sol.status == conic.INFEASIBLE
    assert sol.certificate is not None and sol.certificate["kind"] == "primal"


def test_unbounded():
    p = conic.ConicProgram()
    p.add_var("x", ub=0.0, cost=1.0)
    sol = conic.solve(p)
    assert sol.status == conic.UNBOUNDED


def test_quadratic_objective_epigraph():
    """min (x-1)^2 over [-5,5] through a cost-1 epigraph variable t >= x^2."""
    p = conic.ConicProgram()
    x = p.add_var("x", -5.0, 5.0, cost=-2.0)
    p.epigraph_cone(p.add_var("t", cost=1.0), [(x, 1.0)])
    p.cost_const = 1.0
    sol = conic.solve(p)
    assert sol.optimal
    assert sol.objective == pytest.approx(0.0, abs=1e-6)


def _random_lp(rng, n=8, m=5):
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.2, 1.0, n)
    b = A @ x0
    c = rng.normal(size=n)
    p = conic.ConicProgram()
    for i in range(n):
        p.add_var(f"x{i}", 0.0, 2.0, cost=c[i])
    for k in range(m):
        p.add_eq(np.arange(n), A[k], b[k])
    return p, c, A, b


@pytest.mark.parametrize("seed", range(8))
def test_lp_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    p, c, A, b = _random_lp(rng)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, 2)] * p.num_vars, method="highs")
    sol = conic.solve(p)
    assert sol.optimal and ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("seed", range(6))
def test_weak_duality_and_feasibility(seed):
    """Returned optimum is primal feasible (checked from raw data) and the
    Lagrangian bound never exceeds the primal objective beyond tolerance."""
    rng = np.random.default_rng(100 + seed)
    n = 6
    p = conic.ConicProgram()
    for i in range(n):
        p.add_var(f"x{i}", -1.0, 2.0, cost=rng.normal())
    A = rng.normal(size=(2, n))
    x0 = rng.uniform(0.0, 1.0, n)
    for k in range(2):
        p.add_eq(np.arange(n), A[k], float(A[k] @ x0))
    p.add_rotated_cone((np.array([0]), np.array([1.0]), 2.0),
                       (np.array([1]), np.array([1.0]), 2.0),
                       [(np.array([2, 3]), np.array([1.0, -1.0]), 0.0)])
    sol = conic.solve(p)
    assert sol.optimal
    assert p.max_violation(sol.x) <= 1e-6
    bound = conic.solve_batch([p], cutoffs=[math.inf])[0].bound
    assert bound <= sol.objective + 1e-8 * (1 + abs(sol.objective))


def test_max_violation_of_a_nan_point_is_inf():
    p = conic.ConicProgram()
    for i in range(3):
        p.add_var(f"x{i}", 0.0, 1.0)
    p.add_eq([0, 1], [1.0, 1.0], 1.0)
    p.add_rotated_cone(0, 1, [2])
    assert p.max_violation(np.array([0.5, 0.5, 0.1])) == 0.0
    assert p.max_violation(np.array([0.5, 0.5, np.nan])) == np.inf


def test_deterministic_resolve():
    rng = np.random.default_rng(7)
    p, *_ = _random_lp(rng)
    a = conic.solve(p)
    b = conic.solve(p)
    assert a.objective == b.objective


def test_objective_override_skips_cost():
    p = conic.ConicProgram()
    x = p.add_var("x", 0.0, 3.0, cost=5.0)
    y = p.add_var("y", 1.0, 2.0)
    override = np.zeros(2)
    override[1] = -1.0  # maximize y
    sol = conic.solve(p, objective_override=override)
    assert sol.optimal
    assert -sol.objective == pytest.approx(2.0, abs=1e-7)


def test_dump_is_readable():
    p = conic.ConicProgram()
    x = p.add_var("x", 0.0, 1.0, cost=2.0)
    y = p.add_var("y", 0.0, 1.0)
    p.add_eq([x, y], [1.0, 1.0], 1.0)
    p.add_rotated_cone(x, y, [x])
    text = p.dump()
    assert "vars 2" in text and "eq:" in text and "rsoc:" in text


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_feasible_lp_never_infeasible(seed):
    """Programs built around a known interior point must never be declared
    infeasible, and the returned value can't beat the known point."""
    rng = np.random.default_rng(seed)
    n, m = 5, 3
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.3, 0.7, n)
    b = A @ x0
    c = rng.normal(size=n)
    p = conic.ConicProgram()
    for i in range(n):
        p.add_var(f"x{i}", 0.0, 1.0, cost=c[i])
    for k in range(m):
        p.add_eq(np.arange(n), A[k], b[k])
    sol = conic.solve(p)
    assert sol.status == conic.OPTIMAL
    assert sol.objective <= c @ x0 + 1e-7 * (1 + abs(c @ x0))


# ------------------------------------------------------------ compile

def _constraints_by_rows(prog):
    """(G, h, dims, A, b) built one dense row at a time: the reference for
    the scatter in `ConicProgram._constraints`."""
    n = prog.num_vars
    A_rows, b_vals, G_rows, h_vals = [], [], [], []

    def row_of(idx, coef):
        r = np.zeros(n)
        r[idx] = coef
        return r

    for row in prog.eqs:
        A_rows.append(row_of(row.idx, row.coef))
        b_vals.append(row.rhs)
    for i in range(n):
        if prog.lb[i] == prog.ub[i] and np.isfinite(prog.lb[i]):
            A_rows.append(row_of([i], [1.0]))
            b_vals.append(prog.lb[i])
    for row in prog.ineqs:
        G_rows.append(row_of(row.idx, row.coef))
        h_vals.append(row.rhs)
    for i in range(n):
        if prog.lb[i] == prog.ub[i]:
            continue
        if np.isfinite(prog.ub[i]):
            G_rows.append(row_of([i], [1.0]))
            h_vals.append(prog.ub[i])
        if np.isfinite(prog.lb[i]):
            G_rows.append(row_of([i], [-1.0]))
            h_vals.append(-prog.lb[i])
    l = len(G_rows)
    q_sizes = []
    for cone in prog.cones:
        iu, cu, du = cone.u
        iw, cw, dw = cone.w
        top = np.zeros(n)
        top[iu] += 0.5 * cu
        top[iw] += 0.5 * cw
        mid = np.zeros(n)
        mid[iu] += 0.5 * cu
        mid[iw] -= 0.5 * cw
        G_rows += [-top, -mid]
        h_vals += [0.5 * (du + dw), 0.5 * (du - dw)]
        for iz, cz, dz in cone.zs:
            G_rows.append(-row_of(iz, cz))
            h_vals.append(dz)
        q_sizes.append(2 + len(cone.zs))
    A = np.array(A_rows).reshape(-1, n) if A_rows else np.zeros((0, n))
    G = np.array(G_rows).reshape(-1, n) if G_rows else np.zeros((0, n))
    return (G, np.array(h_vals, dtype=float), _ipm.make_dims(l, q_sizes), A,
            np.array(b_vals, dtype=float))


def _compile_case(name):
    from radopf import bnb, cases, jabr, network
    if name == "hand-built":
        p = conic.ConicProgram()
        p.add_var("a", -1.0, 2.0, cost=1.0)
        p.add_var("fixed", 0.25, 0.25)
        p.add_var("free", cost=-1.0)
        p.add_var("lower", 0.0)
        p.add_var("upper", ub=3.0)
        p.add_eq([0, 2], [1.0, 1.0], 1.0)
        p.add_ineq([2, 3, 4], [1.0, -2.0, 0.5], 4.0)
        p.add_rotated_cone(0, (np.array([3]), np.array([2.0]), 1.0),
                           [2, (np.array([1, 4]), np.array([1.0, -1.0]), 0.5)])
        p.epigraph_cone(p.add_var("t", cost=1.0), [(0, 0.5), (3, 2.0)])
        return p
    if name == "2-bus node with cost cap":
        net = network.scale_load(cases.load_case("case2_two_gen"), 1.0)
        base = jabr.build_relaxation(net)
        model = bnb.node_relaxation(base, bnb.NodeBox.of(base))
        jabr.add_cost_cap(model, 600.0)
        return model.program
    tree9 = network.spanning_tree(cases.load_case("case9", drop_charging=True))
    if name == "case9 tree":
        return jabr.build_relaxation(tree9).program
    # quadratic costs: the model's epigraph column and cone, and the cap row
    base = jabr.build_relaxation(tree9)
    model = bnb.node_relaxation(base, bnb.NodeBox.of(base))
    jabr.add_cost_cap(model, 6000.0)
    return model.program


@pytest.mark.parametrize("name", ["case9 tree", "2-bus node with cost cap",
                                  "case9 node with cost cap", "hand-built"])
def test_compile_matches_row_by_row(name):
    """The scattered standard form is bit-identical to a row-by-row build;
    all but the 2-bus node carry a quadratic epigraph column and cone."""
    prog = _compile_case(name)
    got = prog._constraints()
    want = _constraints_by_rows(prog)
    for g, w in zip(got[:2] + got[3:], want[:2] + want[3:]):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    assert (got[2].l, got[2].q) == (want[2].l, want[2].q)


def _epigraph_slack(prog, point):
    """s0 - |s1..| of the last cone block of h - G·point (> 0 inside)."""
    G, h, dims, _, _ = prog._constraints()
    s = (h - G @ point)[-dims.q[-1]:]
    return s[0] - np.linalg.norm(s[1:])


def _epigraph_program(unbounded):
    """An epigraph cone, over a last variable t, of two quadratic terms, one
    of them with an infinite bound unless every bound is finite, and a
    variable with q = 0 between them; returns the program and q per
    variable."""
    p = conic.ConicProgram()
    q = [0.5, 0.0, 2.0] + [3.0] * unbounded
    p.add_var("a", -1.0, 2.0, cost=1.0)
    p.add_var("flat", -3.0, 3.0, cost=2.0)
    p.add_var("b", 0.0, 1.5)
    if unbounded:
        p.add_var("c", 0.0)
    p.epigraph_cone(p.add_var("t", cost=1.0), enumerate(q))
    return p, np.append(q, 0.0)


def _cost_cap_program(unbounded):
    """A case9 tree model with a cost cap; the second unit's cost is linear
    and, unless every bound is finite, the first unit has no upper limit.
    The model's epigraph t is its last variable."""
    import dataclasses
    from radopf import cases, jabr, network
    net = network.spanning_tree(cases.load_case("case9", drop_charging=True))
    gens = list(net.generators)
    gens[1] = dataclasses.replace(
        gens[1], cost=dataclasses.replace(gens[1].cost, c2=0.0))
    if unbounded:
        gens[0] = dataclasses.replace(gens[0], pmax=np.inf)
    model = jabr.build_relaxation(dataclasses.replace(net,
                                                      generators=tuple(gens)))
    jabr.add_cost_cap(model, 6000.0)
    prog = model.program
    q = np.zeros(prog.num_vars)
    q[model.pg] = [g.cost.c2 for g in gens]
    return prog, q


@pytest.mark.parametrize("unbounded", [False, True])
def test_balanced_epigraph_is_the_same_set(unbounded):
    """Points (x, t) just above sum q_i x_i^2 lie inside the compiled
    epigraph cone and points just below lie outside, for a hand-built
    epigraph and for the lifted model's under `jabr.add_cost_cap`; q = 0
    variables add no row."""
    rng = np.random.default_rng(0)
    # (program, q per column); t is the last column and its cone the last
    for p, q in (_epigraph_program(unbounded), _cost_cap_program(unbounded)):
        n = p.num_vars
        assert p._constraints()[2].q[-1] == 2 + np.count_nonzero(q)
        for x in (*rng.uniform(-2.0, 3.0, size=(6, n)), np.zeros(n)):
            f = q @ (x * x)
            for t_val, inside in ((f * (1 + 1e-9) + 1e-12, True),
                                  (f * (1 - 1e-9) - 1e-12, False)):
                x[n - 1] = t_val
                assert (_epigraph_slack(p, x) > 0) == inside


def test_epigraph_scale_from_finite_bounds():
    """g is sqrt(sum q_i max(lb_i^2, ub_i^2)) over finitely bounded terms,
    and 1 when no term has finite bounds."""
    cone = _epigraph_program(unbounded=True)[0].cones[-1]
    g = np.sqrt(0.5 * 2.0 ** 2 + 2.0 * 1.5 ** 2)
    assert cone.w[2] == pytest.approx(g) and cone.u[1][0] == pytest.approx(1 / g)
    assert [int(iz[0]) for iz, _, _ in cone.zs] == [0, 2, 3]
    free = conic.ConicProgram()
    y = free.add_var("y")
    cone = free.epigraph_cone(free.add_var("t", cost=1.0), [(y, 4.0)])
    assert cone.w[2] == 1.0 and cone.u[1][0] == 1.0


# ------------------------------------------------------------ kernel checks

def _interior_point(rng, l, q):
    """A random strictly interior point of the orthant times the cones q."""
    parts = [rng.uniform(0.1, 3.0, l)]
    for k in q:
        tail = rng.normal(size=k - 1)
        parts.append(np.r_[np.linalg.norm(tail) + rng.uniform(0.05, 2.0), tail])
    return np.concatenate(parts)


def _nt_w2(s, z, l, q):
    """Dense W^2 of the Nesterov-Todd scaling, block by block from its
    textbook form: s_i/z_i on the orthant, eta^2 (2 w w' - J) on a cone."""
    m = s.size
    W2 = np.zeros((m, m))
    W2[np.arange(l), np.arange(l)] = s[:l] / z[:l]
    off = l
    for k in q:
        sb, zb = s[off:off + k], z[off:off + k]
        J = np.diag(np.r_[1.0, -np.ones(k - 1)])
        rs, rz = sb @ J @ sb, zb @ J @ zb
        sbar, zbar = sb / np.sqrt(rs), zb / np.sqrt(rz)
        gamma = np.sqrt((1.0 + sbar @ zbar) / 2.0)
        w = (sbar + J @ zbar) / (2.0 * gamma)
        W2[off:off + k, off:off + k] = np.sqrt(rs / rz) * (2.0 * np.outer(w, w) - J)
        off += k
    return W2


def _check_reduced_solves(rng, A, G, l, q, spread):
    """Both reduced solves of [[0 A' G'], [A 0 0], [G 0 -W^2]], dense and
    sparse, agree with a dense solve of the full matrix, W^2 built
    independently from (s, z).  s and z are pulled apart on the orthant by
    up to `spread`, as late in a solve, so that the reduced matrix is
    ill-conditioned and the refinement steps matter."""
    (p, n), m = A.shape, G.shape[0]
    s, z = _interior_point(rng, l, q), _interior_point(rng, l, q)
    ratio = spread ** rng.uniform(-1, 1, l)
    s[:l] *= ratio
    z[:l] /= ratio
    W2 = _nt_w2(s, z, l, q)
    assert W2 @ z == pytest.approx(s, rel=1e-10, abs=1e-10)  # W^2 z = s

    M = np.zeros((n + p + m, n + p + m))
    M[:n, n:n + p], M[n:n + p, :n] = A.T, A
    M[:n, n + p:], M[n + p:, :n] = G.T, G
    M[n + p:, n + p:] = -W2
    rhs = rng.normal(size=n + p + m)
    ref = np.linalg.solve(M, rhs)

    dims = _ipm.make_dims(l, q)
    scal = _ipm._Scaling(s[None], z[None], dims)
    assert scal.finite.all()
    for impl in (_ipm._Dense, _ipm._Sparse):
        lin = impl(A[None], G[None], np.zeros((1, m)), dims, 1)
        kkt, _ = lin.factor(scal, np.zeros((1, m)))
        assert kkt.ok.all()
        u = kkt.solve(np.r_[rhs[:n + p],
                            scal.apply_inv(rhs[None, n + p:])[0]][None])[0]
        got = np.r_[u[:n + p], scal.apply_inv(u[None, n + p:])[0]]
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref), impl


@pytest.mark.parametrize("seed", range(6))
def test_reduced_kkt_matches_full_system(seed):
    rng = np.random.default_rng(seed)
    l = int(rng.integers(1, 6))
    q = [int(k) for k in rng.integers(2, 6, size=rng.integers(1, 5))]
    m = l + sum(q)
    n = int(rng.integers(2, m))
    p = int(rng.integers(0, n))
    A, G = rng.normal(size=(p, n)), rng.normal(size=(m, n))
    _check_reduced_solves(rng, A, G, l, q, 1e4)


def test_reduced_kkt_matches_full_system_block_sparse():
    """A program shaped like a radial relaxation, above the size at which
    `conelp` takes the sparse path: a bound row per variable, two-entry
    rows, cone blocks over a few columns each, and sparse equalities."""
    rng = np.random.default_rng(42)
    n, p = 170, 50
    assert n + p >= _ipm._SPARSE_FROM
    rows = [np.eye(n), -np.eye(n)]
    for _ in range(30):
        r = np.zeros(n)
        r[rng.choice(n, 2, replace=False)] = rng.normal(size=2)
        rows.append(r[None])
    q = [int(k) for k in rng.integers(3, 6, size=40)]
    for k in q:
        block = np.zeros((k, n))
        cols = rng.choice(n, 4, replace=False)
        block[:, cols] = rng.normal(size=(k, 4))
        block[rng.integers(k), :] = 0.0      # a row outside the pattern
        rows.append(block)
    G = np.concatenate(rows)
    l = len(G) - sum(q)
    A = np.zeros((p, n))
    for i in range(p):
        A[i, rng.choice(n, 3, replace=False)] = rng.normal(size=3)
    _check_reduced_solves(rng, A, G, l, q, 1e4)


# A program whose reduced matrix [[G'G, A'], [A, 0]] is exactly singular:
# G'G = I and a duplicated equality row.  The data are small integers, so the
# plain elimination meets an exact zero pivot.
_SINGULAR_A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
_SINGULAR_G = np.vstack((np.eye(3), np.zeros((2, 3))))


def _singular_storage(impl, members):
    """`impl` over copies of the singular program; a member given as False
    has an infinite entry in G instead, inside the pattern of the others, so
    that the sparse pattern stays theirs."""
    count = len(members)
    G = np.repeat(_SINGULAR_G[None], count, axis=0)
    G[~np.array(members), 0, 0] = np.inf
    dims = _ipm.make_dims(3, [2])
    return impl(np.repeat(_SINGULAR_A[None], count, axis=0), G,
                np.zeros((count, dims.m)), dims, count)


@pytest.mark.parametrize("impl", [_ipm._Dense, _ipm._Sparse])
def test_regularization_ladder_and_failed_member(impl, monkeypatch):
    """An exactly singular reduced matrix fails the plain factorization and
    is factored on the regularization ladder, on both storage formats; the
    refined solve of a consistent system then meets the unregularized full
    system.  A member with non-finite data has no factors and solves to
    NaN, and leaves the other member's solve as it is alone."""
    A, G = _SINGULAR_A, _SINGULAR_G
    M = np.block([[np.zeros((3, 3)), A.T, G.T],
                  [A, np.zeros((2, 7))],
                  [G, np.zeros((5, 2)), -np.eye(5)]])
    rhs = M @ np.random.default_rng(0).normal(size=10)
    with monkeypatch.context() as patch:
        patch.setattr(_ipm, "_REG_LADDER", ())
        kkt, _ = _singular_storage(impl, [True]).factor()
        assert not kkt.ok.any()
        assert np.isnan(kkt.solve(rhs[None])).all()

    kkt, _ = _singular_storage(impl, [True]).factor()
    assert kkt.ok.all()
    alone = kkt.solve(rhs[None])[0]
    assert np.linalg.norm(M @ alone - rhs) <= 1e-9 * np.linalg.norm(rhs)

    with np.errstate(invalid="ignore"):
        kkt, _ = _singular_storage(impl, [True, False]).factor()
        both = kkt.solve(np.stack((rhs, rhs)))
    assert kkt.ok.tolist() == [True, False]
    assert np.array_equal(both[0], alone)
    assert np.isnan(both[1]).all()


def _max_step_reference(v, dv, l, q):
    """Cone-by-cone step length: sup of alpha >= 0 with v + alpha*dv in K."""
    alpha = np.inf
    neg = dv[:l] < 0
    if np.any(neg):
        alpha = np.min(-v[:l][neg] / dv[:l][neg])
    off = l
    for k in q:
        s0, s1 = v[off], v[off + 1:off + k]
        d0, d1 = dv[off], dv[off + 1:off + k]
        off += k
        # roots of |s0+a*d0|^2 - |s1+a*d1|^2, positive at a=0
        a = d0 * d0 - d1 @ d1
        bq = 2.0 * (s0 * d0 - s1 @ d1)
        cq = s0 * s0 - s1 @ s1
        step = np.inf
        if abs(a) < 1e-300:
            if bq < 0:
                step = -cq / bq
        else:
            disc = bq * bq - 4.0 * a * cq
            if disc >= 0.0:
                r = np.sqrt(disc)
                pos = [t for t in ((-bq - r) / (2.0 * a), (-bq + r) / (2.0 * a))
                       if t > 0]
                if pos and (a < 0 or bq < 0):
                    step = min(pos)
        if d0 < 0:
            step = min(step, -s0 / d0)
        alpha = min(alpha, step)
    return alpha


@st.composite
def _step_case(draw):
    """Two interior points (the solver's z and s) and two directions on a
    grid of quarters, where every J-inner product is exact, so both step
    lengths are well defined."""
    quarter = st.integers(-8, 8)
    l = draw(st.integers(0, 3))
    q = draw(st.lists(st.integers(2, 5), max_size=4))
    m = l + sum(q)

    def interior():
        v = [draw(st.integers(1, 8)) for _ in range(l)]
        for k in q:
            tail = [draw(quarter) for _ in range(k - 1)]
            head = int(np.sqrt(sum(t * t for t in tail))) + draw(st.integers(1, 4))
            v += [head] + tail
        return v

    V = np.array([interior(), interior()], dtype=float).reshape(2, m) / 4
    D = np.array([[draw(quarter) for _ in range(m)] for _ in range(2)],
                 dtype=float).reshape(2, m) / 4
    return l, q, V, D


@settings(max_examples=200, deadline=None)
@given(_step_case())
def test_stacked_step_length_matches_per_block(case):
    l, q, V, D = case
    # the solver runs its kernel with these silenced; both sides of the
    # np.where are evaluated
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _ipm._max_step(V, D, _ipm.make_dims(l, q))
    want = min(_max_step_reference(v, d, l, q) for v, d in zip(V, D))
    if np.isinf(want):
        assert np.isinf(got)
    else:
        assert got == pytest.approx(want, rel=1e-9)


# ------------------------------------------------------------ batched solves

def _cone_program(rng, box_hi=2.0):
    """Six variables in [-1, box_hi], two equalities through a known point
    and one rotated cone: the shape of `test_weak_duality_and_feasibility`."""
    n = 6
    p = conic.ConicProgram()
    for i in range(n):
        p.add_var(f"x{i}", -1.0, box_hi, cost=rng.normal())
    A = rng.normal(size=(2, n))
    x0 = rng.uniform(0.0, 1.0, n)
    for k in range(2):
        p.add_eq(np.arange(n), A[k], float(A[k] @ x0))
    p.add_rotated_cone((np.array([0]), np.array([1.0]), 2.0),
                       (np.array([1]), np.array([1.0]), 2.0),
                       [(np.array([2, 3]), np.array([1.0, -1.0]), 0.0)])
    return p


def _assert_same_as_alone(batch, alone):
    assert batch.status == alone.status
    assert abs(batch.iterations - alone.iterations) <= 1
    if alone.objective is not None:
        assert batch.objective == pytest.approx(alone.objective, rel=1e-7,
                                                abs=1e-9)


def test_stopping_constants_are_read_at_each_call(monkeypatch):
    """`_ipm.FEASTOL`, `GAPTOL` and `MAXITER` are read when a solve runs,
    not bound when the module loads: loosened tolerances end the same
    program `optimal` sooner, at a point feasible and optimal to the looser
    tolerance, and an iteration cap ends it `numerical_failure` at the
    cap."""
    p = _cone_program(np.random.default_rng(3))
    tight = conic.solve(p)
    assert tight.optimal
    monkeypatch.setattr(_ipm, "FEASTOL", 1e-4)
    monkeypatch.setattr(_ipm, "GAPTOL", 1e-4)
    loose = conic.solve(p)
    assert loose.optimal
    assert loose.iterations < tight.iterations
    assert p.max_violation(loose.x) <= 1e-4
    assert loose.objective == pytest.approx(tight.objective, rel=1e-4,
                                            abs=1e-4)
    monkeypatch.setattr(_ipm, "MAXITER", 3)
    capped = conic.solve(p)
    assert capped.status == conic.FAILED
    assert capped.iterations == 3


def test_blocked_corrector_is_retaken(monkeypatch):
    """A corrector step blocked near the cone boundary is retaken as a
    plain centering-biased step.  Each iteration measures two steps,
    predictor then corrector; blocking the corrector of iteration 4 of the
    2-bus γ=1.00 relaxation costs one more step measurement, for the
    retake, and the solve still ends at the unblocked optimum."""
    from radopf import cases, jabr, network
    net = network.scale_load(cases.load_case("case2_two_gen"), 1.00)
    max_step = _ipm._max_step
    calls = {False: 0, True: 0}

    def blocking(V, D, dims):
        calls[block] += 1
        out = max_step(V, D, dims)
        return np.full_like(out, 1e-6) if block and calls[True] == 8 else out

    monkeypatch.setattr(_ipm, "_max_step", blocking)
    block = False
    free = jabr.solve_relaxation(net, refine=False).solution
    block = True
    blocked = jabr.solve_relaxation(net, refine=False).solution
    assert calls[True] == calls[False] + 1
    assert free.optimal and blocked.optimal
    assert blocked.objective == pytest.approx(free.objective, rel=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_batch_directions_match_one_member_solves(seed):
    """Every min/max direction of one program, solved in one batch, ends
    as its own one-member solve does, although the members stop at
    different iterations."""
    rng = np.random.default_rng(200 + seed)
    p = _cone_program(rng)
    overrides = [None]
    for i in range(p.num_vars):
        for sense in (+1.0, -1.0):
            o = np.zeros(p.num_vars)
            o[i] = sense
            overrides.append(o)
    sols = conic.solve_batch([p] * len(overrides), overrides)
    assert len({s.iterations for s in sols}) > 1
    for o, sol in zip(overrides, sols):
        _assert_same_as_alone(sol, conic.solve(p, objective_override=o))


def test_batch_of_programs_with_an_infeasible_member():
    """Different programs of equal shape share one call; the infeasible one
    carries a Farkas certificate checked from the compiled data, and the
    others are untouched by it."""
    rng = np.random.default_rng(11)
    progs = [_cone_program(np.random.default_rng(3)),
             _cone_program(np.random.default_rng(4)),
             _cone_program(rng)]
    # x4 <= -2 against its own lower bound -1: same rows, empty set
    progs[1].add_ineq([4], [1.0], -2.0)
    for q in (progs[0], progs[2]):
        q.add_ineq([4], [1.0], 5.0)
    sols = conic.solve_batch(progs)
    assert [s.status for s in sols] == [conic.OPTIMAL, conic.INFEASIBLE,
                                        conic.OPTIMAL]
    for prog, sol in zip(progs, sols):
        _assert_same_as_alone(sol, conic.solve(prog))
    cert = sols[1].certificate
    assert cert is not None and cert["kind"] == "primal"
    G, h, dims, A, b = progs[1]._constraints()
    y, z = cert["y"], cert["z"]
    assert np.linalg.norm(A.T @ y + G.T @ z) <= 1e-7
    assert b @ y + h @ z < 0
    assert np.all(z[:dims.l] >= 0)
    off = dims.l
    for k in dims.q:
        assert z[off] >= np.linalg.norm(z[off + 1:off + k])
        off += k


def test_batch_groups_programs_by_shape():
    """Programs whose compiled shapes differ go to separate calls and come
    back in input order."""
    rng = np.random.default_rng(5)
    small, _, _, _ = _random_lp(rng, n=4, m=2)
    cone = _cone_program(rng)
    sols = conic.solve_batch([cone, small, cone])
    for prog, sol in zip([cone, small, cone], sols):
        _assert_same_as_alone(sol, conic.solve(prog))
    assert sols[0].objective == sols[2].objective


@pytest.mark.parametrize("impl, reduced", [(_ipm._Dense, 2),
                                            (_ipm._Sparse, 3)])
def test_refinement_steps_per_storage(impl, reduced, monkeypatch):
    """One solve makes the unrefined reduced solve and one more per
    refinement step: one step on `_Dense` and two on `_Sparse`, per call,
    however many members and right-hand sides it holds."""
    calls = []
    reduced_solve = impl._reduced

    def spy(self, r):
        calls.append(r.shape)
        return reduced_solve(self, r)

    monkeypatch.setattr(impl, "_reduced", spy)
    kkt, _ = _singular_storage(impl, [True, True]).factor()
    assert kkt.ok.all()
    rhs = np.random.default_rng(0).normal(size=(2, 10))
    for r in (rhs, np.stack((rhs, -rhs), axis=1)):
        calls.clear()
        kkt.solve(r)
        assert len(calls) == reduced


# ------------------------------------------------------- large sparse programs

def _chain_program(nbus, r=0.002, load=0.01, extra_ineq=10.0):
    """Jabr relaxation of a feasible radial chain with one generator at its
    head, large enough for `conelp` to take the sparse path; the last
    argument bounds pg0 from above (below 0 it empties the program)."""
    from radopf import jabr, network
    buses = tuple(network.Bus(i, pd=0.0 if i == 1 else load,
                              qd=0.0 if i == 1 else load / 2)
                  for i in range(1, nbus + 1))
    gen = network.Generator(1, pmin=0.0, pmax=5.0, qmin=-5.0, qmax=5.0,
                            cost=network.CostFunction(c2=10.0, c1=100.0))
    lines = tuple(network.Line(i, i + 1, r=r * (1 + 0.01 * i), x=2 * r)
                  for i in range(1, nbus))
    net = network.Network(buses, (gen,), lines, name=f"chain{nbus}")
    model = jabr.build_relaxation(net)
    model.program.add_ineq([model.pg[0]], [1.0], extra_ineq)
    return model.program


def _reduced_order(prog):
    return len(prog._objective()) + len(prog._constraints()[4])


def test_sparse_path_matches_dense_on_a_radial_chain(monkeypatch):
    prog = _chain_program(50)
    assert _reduced_order(prog) >= _ipm._SPARSE_FROM
    sparse = conic.solve(prog)
    monkeypatch.setattr(_ipm, "_SPARSE_FROM", 10 ** 9)
    dense = conic.solve(prog)
    assert sparse.status == dense.status == conic.OPTIMAL
    assert sparse.objective == pytest.approx(dense.objective, rel=1e-7)
    assert abs(sparse.iterations - dense.iterations) <= 2
    assert prog.max_violation(sparse.x) <= 1e-6


def test_sparse_batch_with_an_infeasible_member():
    """Large programs of equal shape, different data, share one sparse
    call; the infeasible member's Farkas certificate is checked from the
    compiled data, and the others end as their one-member solves do."""
    progs = [_chain_program(45, r=0.002), _chain_program(45, r=0.003,
                                                         extra_ineq=-1.0),
             _chain_program(45, r=0.0025, load=0.012)]
    assert _reduced_order(progs[0]) >= _ipm._SPARSE_FROM
    sols = conic.solve_batch(progs)
    assert [s.status for s in sols] == [conic.OPTIMAL, conic.INFEASIBLE,
                                        conic.OPTIMAL]
    for prog, sol in zip(progs, sols):
        _assert_same_as_alone(sol, conic.solve(prog))
    cert = sols[1].certificate
    assert cert is not None and cert["kind"] == "primal"
    G, h, dims, A, b = progs[1]._constraints()
    y, z = cert["y"], cert["z"]
    assert np.linalg.norm(A.T @ y + G.T @ z) <= 1e-7
    assert b @ y + h @ z < 0
    assert np.all(z[:dims.l] >= 0)
    off = dims.l
    for k in dims.q:
        assert z[off] >= np.linalg.norm(z[off + 1:off + k])
        off += k


_FEEDERS = Path(__file__).resolve().parent.parent / "perfbench" / "feeders.py"


def test_sparse_refinement_keeps_a_feeder_relaxation_optimal(monkeypatch):
    """The benchmark's 120-bus feeder at load 0.8 takes the sparse path and
    ends `optimal`.  With one refinement step on `_Sparse` instead of two
    it ends `numerical_failure`, which the reduced-solve checks above do
    not see."""
    # feeders.py imports the benchmark's `env` only for what importing it
    # does to the process (BLAS threads, sys.path); a stub keeps that out
    monkeypatch.setitem(sys.modules, "env", types.ModuleType("env"))
    spec = importlib.util.spec_from_file_location("_radopf_feeders", _FEEDERS)
    feeders = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(feeders)
    from radopf import jabr, network
    net = network.scale_load(feeders.radial_feeder(120, 0), 0.8)
    res = jabr.solve_relaxation(net, refine=False)
    assert _reduced_order(res.model.program) >= _ipm._SPARSE_FROM
    assert res.status == conic.OPTIMAL


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_shared_program_solves_as_its_stacked_copies(sparse):
    """One program listed for three members is broadcast to them; three
    copies of it are stacked.  Under three objective overrides, each
    member of the two calls ends alike, bit for bit, on either storage.
    The chain's line variables are free, so its bounds are -inf; the
    boxed program's are finite."""
    prog = (_chain_program(50) if sparse
            else _cone_program(np.random.default_rng(3)))
    assert (_reduced_order(prog) >= _ipm._SPARSE_FROM) == sparse
    v = next(i for i, (lo, hi) in enumerate(zip(prog.lb, prog.ub))
             if lo > -math.inf and hi < math.inf and lo < hi)
    unit = np.zeros(prog.num_vars)
    unit[v] = 1.0
    overrides = [np.array(prog.cost), unit, -unit]
    shared = conic.solve_batch([prog] * 3, overrides)
    stacked = conic.solve_batch([prog.copy() for _ in range(3)], overrides)
    for a, b in zip(shared, stacked):
        assert a.status == b.status == conic.OPTIMAL
        assert a.iterations == b.iterations
        assert a.x.tobytes() == b.x.tobytes()
        assert a.bound == b.bound
        assert math.isfinite(a.bound) != sparse


# ----------------------------------------------------------- cutoff stop

def _node_program(cii1_hi=None, cii2_lo=None):
    """The 2-bus γ=1.00 node program over its tightened root box, with the
    squared voltages of buses 1 and 2 optionally cut from above and below;
    cut to [0.81, 0.91] and [1.01, 1.21] its relaxation is empty."""
    from radopf import bnb, cases, jabr, network, tighten
    net = network.scale_load(cases.load_case("case2_two_gen"), 1.00)
    base = jabr.build_relaxation(net)
    box = tighten.compute_bounds(base)
    if cii1_hi is not None:
        box.hi[base.cii[1]] = cii1_hi
    if cii2_lo is not None:
        box.lo[base.cii[2]] = cii2_lo
    return bnb.node_relaxation(base, box).program


def test_cutoff_below_the_optimum_stops_with_a_valid_bound():
    prog = _node_program()
    opt = conic.solve(prog)
    assert opt.optimal and opt.bound <= opt.objective * (1 + _ipm.GAPTOL)
    sol = conic.solve_batch([prog], cutoffs=[opt.objective * (1 - 1e-6)])[0]
    assert sol.status == conic.CUTOFF
    assert sol.iterations < opt.iterations
    assert opt.objective * (1 - 1e-6) <= sol.bound <= opt.objective


def test_cutoff_above_the_optimum_changes_nothing():
    prog = _node_program()
    opt = conic.solve(prog)
    sol = conic.solve_batch([prog], cutoffs=[opt.objective * (1 + 1e-6)])[0]
    assert sol.optimal and sol.iterations == opt.iterations
    assert sol.x.tobytes() == opt.x.tobytes()
    assert sol.objective == opt.objective
    assert sol.bound <= opt.objective * (1 + 1e-9)


def test_batch_partners_without_a_cutoff_are_untouched():
    """Members stopped at their cutoff leave the batch; the member without
    one ends bit for bit as its one-member solve."""
    progs = [_node_program(), _node_program(cii1_hi=1.01),
             _node_program(cii1_hi=0.91, cii2_lo=1.01)]
    alone = [conic.solve(p) for p in progs]
    cut = alone[0].objective * (1 - 1e-6)
    sols = conic.solve_batch(progs, cutoffs=[cut, math.inf, cut])
    assert [s.status for s in sols] == [conic.CUTOFF, conic.OPTIMAL,
                                        conic.CUTOFF]
    assert sols[1].x.tobytes() == alone[1].x.tobytes()
    assert sols[1].iterations == alone[1].iterations
    assert sols[1].bound <= alone[1].objective * (1 + 1e-9)


def test_infinite_cutoffs_still_form_the_bound():
    """A call that passes cutoffs forms each member's bound even when every
    cutoff is +inf, and ends the member as a call without them does.  A
    member with an objective override reports its own bound, finite and at
    or below its objective."""
    prog = _node_program()
    opt = conic.solve(prog)
    low = np.zeros(prog.num_vars)
    low[prog.names.index("c[1,2]")] = 1.0
    sols = conic.solve_batch([prog, prog], [None, low], [math.inf] * 2)
    assert sols[0].optimal and sols[0].x.tobytes() == opt.x.tobytes()
    assert math.isfinite(sols[0].bound)
    assert sols[0].bound <= opt.objective * (1 + _ipm.GAPTOL)
    assert sols[1].optimal and math.isfinite(sols[1].bound)
    assert sols[1].bound <= sols[1].objective


def test_range_is_ignored_for_an_objective_that_weighs_it_below_zero():
    """t's range [0, g²] holds at some optimum of an objective that weighs
    t at zero or above, not of one that maximizes it.  With t <= 5, the
    maximum of t is 5, outside [0, 1]: the bound of that direction reads
    t's own bounds [0, 5] and stays valid, finite and at or below -5."""
    p = conic.ConicProgram()
    x = p.add_var("x", -1.0, 1.0)
    t = p.add_var("t", 0.0, 5.0, cost=1.0)
    p.epigraph_cone(t, [(x, 1.0)])
    assert p.ranges == {t: (0.0, 1.0)}
    for weight in (0.0, 1.0):
        c = np.zeros(2)
        c[t] = weight
        assert tuple(conic._bound_box(p, c)[:, t]) == (0.0, 1.0)
    up = np.zeros(2)
    up[t] = -1.0
    assert tuple(conic._bound_box(p, up)[:, t]) == (0.0, 5.0)
    sol = conic.solve_batch([p], [up], cutoffs=[math.inf])[0]
    assert sol.optimal and sol.objective == pytest.approx(-5.0, rel=1e-7)
    assert -5.0 - 1e-6 <= sol.bound <= -5.0


def test_infeasible_node_program_stops_before_its_certificate():
    prog = _node_program(cii1_hi=0.91, cii2_lo=1.01)
    farkas = conic.solve(prog)
    assert farkas.status == conic.INFEASIBLE
    sol = conic.solve_batch([prog], cutoffs=[563.56])[0]
    assert sol.status == conic.CUTOFF and sol.bound >= 563.56
    assert sol.iterations < farkas.iterations


def test_failed_member_reports_its_largest_bound(monkeypatch):
    """A member cut off by the iteration cap still reports the largest
    bound of its iterates, which grows with the cap and stays below the
    optimum."""
    prog = _node_program()
    opt = conic.solve(prog)
    bounds = []
    for cap in range(2, 7):
        monkeypatch.setattr(_ipm, "MAXITER", cap)
        sol = conic.solve_batch([prog], cutoffs=[1e30])[0]
        assert sol.status == conic.FAILED
        bounds.append(sol.bound)
    assert math.isfinite(bounds[0])
    assert bounds == sorted(bounds) and bounds[-1] <= opt.objective


def test_failed_member_reports_no_point(monkeypatch):
    """A member that ends `numerical_failure` has no answer: it reports no
    point and no objective, only its largest bound."""
    prog = _node_program()
    monkeypatch.setattr(_ipm, "MAXITER", 3)
    sol = conic.solve_batch([prog], cutoffs=[1e30])[0]
    assert sol.status == conic.FAILED and sol.iterations == 3
    assert sol.x is None and sol.objective is None
    assert math.isfinite(sol.bound)


def test_infeasible_member_reports_an_infinite_bound():
    """A certified-infeasible member's bound is +inf, with cutoffs or
    without: no point of an empty set costs less."""
    prog = _node_program(cii1_hi=0.91, cii2_lo=1.01)
    for cutoffs in (None, [math.inf]):
        sol = conic.solve_batch([prog], cutoffs=cutoffs)[0]
        assert sol.status == conic.INFEASIBLE and sol.bound == math.inf
        assert sol.x is None and sol.objective is None


def test_override_member_stops_at_its_cutoff():
    """A member with an objective override keeps its cutoff, a value of
    that objective.  Given one below its optimum, it ends `cutoff` with a
    bound at or above the cutoff.  The cutoffs swept here are the bounds
    such stops reached and the few floats around each: at some of them
    `conelp`, which compares in its scaled objective, scales the bound back
    to an ulp below the cutoff it reached."""
    prog = _node_program()
    cost = 3.7 * np.array(prog.cost)
    opt = conic.solve(prog, objective_override=cost)
    assert opt.optimal
    for k in range(1, 40, 3):
        first = conic.solve_batch([prog], [cost],
                                  cutoffs=[opt.objective * (1 - k * 1e-5)])[0]
        assert first.status == conic.CUTOFF and first.x is None
        up = np.nextafter(first.bound, math.inf)
        for cut in (first.bound, up, np.nextafter(up, math.inf),
                    np.nextafter(first.bound, -math.inf)):
            sol = conic.solve_batch([prog], [cost], cutoffs=[float(cut)])[0]
            assert sol.status == conic.CUTOFF and sol.bound >= cut
            assert sol.bound <= opt.objective
            assert sol.objective is None


@pytest.mark.xfail(strict=True, reason="the IPM ends numerical_failure on "
                   "a chain whose line variables carry a node's box")
def test_boxed_chain_solves_like_the_unboxed_one():
    """Boxing every line's c and s at ±1.21 (= vmax², which the cone
    already implies) changes no feasible point, so the boxed chain must
    end optimal at the unboxed optimum, 4.016328 in 13 iterations.  It
    ends `numerical_failure` instead, with its dual residual stuck just
    above `FEASTOL`."""
    prog = _chain_program(5)
    opt = conic.solve(prog)
    assert opt.optimal and opt.objective == pytest.approx(4.016328, rel=1e-6)
    for v, name in enumerate(prog.names):
        if name.startswith(("c[", "s[")) and "," in name:
            prog.lb[v], prog.ub[v] = -1.1 ** 2, 1.1 ** 2
    sol = conic.solve(prog)
    assert sol.optimal
    assert sol.objective == pytest.approx(opt.objective, rel=1e-7)


def test_epigraph_range_lets_the_bound_stop_a_quadratic_cost():
    """The free cost epigraph t gets [0, Σ q·max(lb², ub²)] in the box the
    bound reads, not as a row; without that range the bound is -inf and
    the same cutoff cannot stop the solve.  Each line's c and s get the
    box |c|, |s| <= vmax² that a node box gives them, which the cone
    already implies, so the optimum is the unboxed program's."""
    prog = _chain_program(5)
    t = prog.num_vars - 1
    assert prog.names[t] == "cost_epi" and prog.lb[t] == -math.inf
    assert prog.ranges == {t: (0.0, 10.0 * 5.0 ** 2)}
    opt = conic.solve(prog)
    assert opt.optimal
    for v, name in enumerate(prog.names):
        if name.startswith(("c[", "s[")) and "," in name:
            prog.lb[v], prog.ub[v] = -1.1 ** 2, 1.1 ** 2
    cut = opt.objective * (1 - 1e-4)
    sol = conic.solve_batch([prog], cutoffs=[cut])[0]
    assert sol.status == conic.CUTOFF and cut <= sol.bound <= opt.objective
    prog.ranges = {}
    sol = conic.solve_batch([prog], cutoffs=[cut])[0]
    assert sol.status != conic.CUTOFF and sol.bound == -math.inf
