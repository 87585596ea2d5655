"""Spatial branch-and-bound global solver for the lifted OPF on trees.

Node relaxations keep the full SOCP (linear balance + voltage cone) and
outer-approximate the reverse side of the coupling equality over the node's
box: the bilinear product c_ii*c_jj is bounded below by its McCormick planes
while c^2 and s^2 are bounded above by their secants, giving linear rows that
shrink to the surface as boxes shrink.  Bisection branches on the variable
contributing most to the worst coupling slack, incumbents come from a local
polish of relaxation points in (|V|, angle) space, and every incumbent must
pass the independent rectangular feasibility check before it is accepted.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize as sopt

from . import conic, jabr, tighten
from .network import Network, bus_gen_limits, tree_edges

GLOBAL_OPTIMAL = "global-optimal"
INFEASIBLE = "infeasible"
GAP_LIMIT = "gap-limit"
TIME_LIMIT = "time-limit"

_WIDTH_TOL = 1e-6   # interval width below which a variable is not branched
_EXACT_TOL = 1e-6   # relative coupling slack accepted as on-surface


@dataclass
class NodeBox:
    """Per-variable intervals for (c_ii, c_ij, s_ij), refined by branching."""
    cii_lo: np.ndarray
    cii_hi: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray

    @classmethod
    def root(cls, net: Network, bounds: tighten.VarBounds | None = None,
             fixed_voltage: dict[int, float] | None = None) -> "NodeBox":
        lo = np.array([b.vmin ** 2 for b in net.buses])
        hi = np.array([b.vmax ** 2 for b in net.buses])
        if fixed_voltage:
            for k, b in enumerate(net.buses):
                if b.id in fixed_voltage:
                    lo[k] = hi[k] = float(fixed_voltage[b.id])
        if bounds is None:
            bounds = tighten.VarBounds.implied(net)
        return cls(cii_lo=lo, cii_hi=hi,
                   c_lo=bounds.c_lo.copy(), c_hi=bounds.c_hi.copy(),
                   s_lo=bounds.s_lo.copy(), s_hi=bounds.s_hi.copy())

    def copy(self) -> "NodeBox":
        return NodeBox(*(a.copy() for a in
                         (self.cii_lo, self.cii_hi, self.c_lo, self.c_hi,
                          self.s_lo, self.s_hi)))

    def interval(self, kind: str, k: int) -> tuple[float, float]:
        lo = getattr(self, kind + "_lo")
        hi = getattr(self, kind + "_hi")
        return float(lo[k]), float(hi[k])

    def set_interval(self, kind: str, k: int, lo: float, hi: float):
        getattr(self, kind + "_lo")[k] = lo
        getattr(self, kind + "_hi")[k] = hi

    def max_width(self) -> float:
        return max(float(np.max(self.cii_hi - self.cii_lo, initial=0.0)),
                   float(np.max(self.c_hi - self.c_lo, initial=0.0)),
                   float(np.max(self.s_hi - self.s_lo, initial=0.0)))


class _Propagator:
    """Feasibility-based interval tightening through the balance equalities.

    Interval arithmetic on each equality row bounds every participating
    variable by the residual range of the others; sweeping until fixpoint
    ties the (c_ii, c_ij, s_ij) intervals together, so one bisection narrows
    the whole coupled group.  Row structure is box-independent, so it is
    extracted once per network and reused across nodes.
    """

    def __init__(self, net: Network, **build_kwargs):
        self.net = net
        model = jabr.build_relaxation(net, **build_kwargs)
        nv = model.program.num_vars
        self.lo0 = np.full(nv, -np.inf)
        self.hi0 = np.full(nv, np.inf)
        for k, g in enumerate(net.generators):
            self.lo0[model.pg[k]], self.hi0[model.pg[k]] = g.pmin, g.pmax
            self.lo0[model.qg[k]], self.hi0[model.qg[k]] = g.qmin, g.qmax
        pos = net.bus_index
        self.kind = {}
        for bus in net.buses:
            self.kind[model.cii[bus.id]] = ("cii", pos[bus.id])
        for k in range(len(net.lines)):
            self.kind[model.c[k]] = ("c", k)
            self.kind[model.s[k]] = ("s", k)
        # lossless (r=0) lines put exact zeros in balance rows; drop them so
        # the interval division below stays well defined
        self.rows = []
        for r in model.program.eqs:
            keep = np.abs(r.coef) > 1e-14
            self.rows.append((r.idx[keep], r.coef[keep], r.rhs))

    def run(self, box: NodeBox) -> NodeBox | None:
        lo, hi = self.lo0.copy(), self.hi0.copy()
        for v, (what, k) in self.kind.items():
            lo[v] = getattr(box, what + "_lo")[k]
            hi[v] = getattr(box, what + "_hi")[k]
        lo, hi = _sweep_rows(self.rows, lo, hi)
        if lo is None:
            return None
        out = box.copy()
        for v, (what, k) in self.kind.items():
            getattr(out, what + "_lo")[k] = lo[v]
            getattr(out, what + "_hi")[k] = hi[v]
        return out


def _sweep_rows(rows, lo, hi):
    pad = 1e-9
    for _ in range(6):
        changed = False
        for idx, coef, rhs in rows:
            terms_lo = np.where(coef > 0, coef * lo[idx], coef * hi[idx])
            terms_hi = np.where(coef > 0, coef * hi[idx], coef * lo[idx])
            sum_lo, sum_hi = terms_lo.sum(), terms_hi.sum()
            for t, (j, a) in enumerate(zip(idx, coef)):
                rest_lo = sum_lo - terms_lo[t]
                rest_hi = sum_hi - terms_hi[t]
                if a > 0:
                    new_lo = (rhs - rest_hi) / a - pad
                    new_hi = (rhs - rest_lo) / a + pad
                else:
                    new_lo = (rhs - rest_lo) / a - pad
                    new_hi = (rhs - rest_hi) / a + pad
                if new_lo > lo[j] + 1e-12 or new_hi < hi[j] - 1e-12:
                    lo[j] = max(lo[j], new_lo)
                    hi[j] = min(hi[j], new_hi)
                    if lo[j] > hi[j]:
                        return None, None
                    changed = True
        if not changed:
            break
    return lo, hi


def node_relaxation(net: Network, box: NodeBox, cuts=(),
                    **build_kwargs) -> jabr.JabrModel:
    """Lifted SOCP over the box plus the reverse-side outer approximation."""
    model = jabr.build_relaxation(net, **build_kwargs)
    prog = model.program
    for k, bus in enumerate(net.buses):
        prog.set_bounds(model.cii[bus.id], box.cii_lo[k], box.cii_hi[k])
    tighten.apply_to_model(model, box, cuts)
    pos = net.bus_index
    for k, ln in enumerate(net.lines):
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        li, ui = box.cii_lo[i], box.cii_hi[i]
        lj, uj = box.cii_lo[j], box.cii_hi[j]
        lc, uc = box.c_lo[k], box.c_hi[k]
        ls, us = box.s_lo[k], box.s_hi[k]
        vi, vj = model.cii[ln.from_bus], model.cii[ln.to_bus]
        vc, vs = model.c[k], model.s[k]
        rhs_sec = -(lc * uc) - (ls * us)
        # McCormick underestimate of cii*cjj <= secants of c^2 + s^2
        prog.add_ineq([vi, vj, vc, vs],
                      [lj, li, -(lc + uc), -(ls + us)],
                      li * lj + rhs_sec)
        prog.add_ineq([vi, vj, vc, vs],
                      [uj, ui, -(lc + uc), -(ls + us)],
                      ui * uj + rhs_sec)
    return model


# ------------------------------------------------------------------ branching

_KINDS = ("cii", "c", "s")


def _coupling_slacks(net: Network, box_point: dict) -> np.ndarray:
    pos = net.bus_index
    out = np.empty(len(net.lines))
    cii, c, s = box_point["cii"], box_point["c"], box_point["s"]
    for k, ln in enumerate(net.lines):
        prod = cii[ln.from_bus] * cii[ln.to_bus]
        out[k] = (prod - c[k] ** 2 - s[k] ** 2) / max(abs(prod), 1e-12)
    return out


def branch(net: Network, box: NodeBox, point: dict,
           slacks: np.ndarray) -> tuple[list, tuple | None]:
    """Children boxes from bisecting the strongest contributor to the worst
    coupling slack; the split point is the relaxation value clamped to the
    middle 60% of the interval."""
    order = np.argsort(-slacks)
    pos = net.bus_index
    for k in order:
        if slacks[k] <= 0:
            break
        ln = net.lines[k]
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        cands = []
        wi = box.cii_hi[i] - box.cii_lo[i]
        wj = box.cii_hi[j] - box.cii_lo[j]
        # product gap scales with the partner value; secant gap is quadratic
        cands.append(("cii", i, wi * abs(point["cii"][ln.to_bus]),
                      point["cii"][ln.from_bus]))
        cands.append(("cii", j, wj * abs(point["cii"][ln.from_bus]),
                      point["cii"][ln.to_bus]))
        lc, uc = box.c_lo[k], box.c_hi[k]
        ls, us = box.s_lo[k], box.s_hi[k]
        cv, sv = point["c"][k], point["s"][k]
        cands.append(("c", k, (lc + uc) * cv - lc * uc - cv * cv, cv))
        cands.append(("s", k, (ls + us) * sv - ls * us - sv * sv, sv))
        best = None
        for kind, idx, score, val in cands:
            lo, hi = box.interval(kind, idx)
            if hi - lo <= _WIDTH_TOL:
                continue
            if best is None or score > best[2]:
                best = (kind, idx, score, val)
        if best is None:
            continue
        kind, idx, _, val = best
        lo, hi = box.interval(kind, idx)
        split = min(max(val, lo + 0.2 * (hi - lo)), hi - 0.2 * (hi - lo))
        left, right = box.copy(), box.copy()
        left.set_interval(kind, idx, lo, split)
        right.set_interval(kind, idx, split, hi)
        return [left, right], (kind, idx, split)
    return [], None


# --------------------------------------------------------------- local polish

def _allocate(net: Network, p_bus: np.ndarray, q_bus: np.ndarray):
    """Split required bus generation across its units, pro rata by range."""
    pg = np.zeros(len(net.generators))
    qg = np.zeros(len(net.generators))
    for k, bus in enumerate(net.buses):
        gidx = net.generators_at(bus.id)
        if not gidx:
            continue
        for arr, need, lo_attr, hi_attr in ((pg, p_bus[k], "pmin", "pmax"),
                                            (qg, q_bus[k], "qmin", "qmax")):
            lo = sum(getattr(net.generators[g], lo_attr) for g in gidx)
            hi = sum(getattr(net.generators[g], hi_attr) for g in gidx)
            frac = 0.0 if hi <= lo else min(max((need - lo) / (hi - lo), 0.0), 1.0)
            for g in gidx:
                gl = getattr(net.generators[g], lo_attr)
                gh = getattr(net.generators[g], hi_attr)
                arr[g] = gl + frac * (gh - gl)
    return pg, qg


def local_polish(net: Network, point: dict, *, cost_pass: bool = True,
                 multistart: bool = True, tol: float = 1e-6,
                 fixed_voltage: dict[int, float] | None = None) -> jabr.OpfSolution | None:
    """Project a relaxation point onto the feasible set and locally improve.

    Lines are rescaled radially onto the cone surface, angles recovered along
    the tree, then (|V|, angle) are adjusted: first a least-squares push onto
    the balance equations (clamped to the bus generation boxes), optionally a
    penalized cost descent, and a final cleanup.  Returns a verified feasible
    point or None.
    """
    G, B = jabr.admittance(net)
    Y = G + 1j * B
    n = net.num_buses
    pos = net.bus_index
    ids = [b.id for b in net.buses]
    vmin = np.array([b.vmin for b in net.buses])
    vmax = np.array([b.vmax for b in net.buses])
    if fixed_voltage:
        # epsilon-widened so the bounded least-squares stays well posed
        for b_id, c_pin in fixed_voltage.items():
            k = pos[b_id]
            vmin[k] = math.sqrt(c_pin) - 5e-10
            vmax[k] = math.sqrt(c_pin) + 5e-10
    pd = np.array([b.pd for b in net.buses])
    qd = np.array([b.qd for b in net.buses])
    pmin, pmax, qmin, qmax = bus_gen_limits(net)
    slack = jabr._slack_bus(net)
    islack = pos[slack]

    cii = point["cii"]
    c = np.asarray(point["c"], dtype=float).copy()
    s = np.asarray(point["s"], dtype=float).copy()
    for k, ln in enumerate(net.lines):
        target = math.sqrt(max(cii[ln.from_bus] * cii[ln.to_bus], 0.0))
        nrm = math.hypot(c[k], s[k])
        if nrm > 1e-12:
            c[k] *= target / nrm
            s[k] *= target / nrm
        else:
            c[k], s[k] = target, 0.0
    vm0 = np.sqrt([max(cii[i], 1e-9) for i in ids])
    edges = tree_edges(net, slack)
    th0 = np.zeros(n)
    for i, j, k in edges:
        d = math.atan2(s[k], c[k])
        th0[pos[j]] = th0[pos[i]] + d if net.lines[k].from_bus == i else th0[pos[i]] - d

    free = [k for k in range(n) if k != islack]

    def unpack(z):
        vm = z[:n]
        th = np.zeros(n)
        th[free] = z[n:]
        return vm, th

    def injections(z):
        vm, th = unpack(z)
        V = vm * np.exp(1j * th)
        S = V * np.conj(Y @ V)
        return S.real + pd, S.imag + qd  # required bus generation

    def residuals(z):
        p_need, q_need = injections(z)
        rp = p_need - np.clip(p_need, pmin, pmax)
        rq = q_need - np.clip(q_need, qmin, qmax)
        return np.concatenate([rp, rq])

    lb = np.concatenate([vmin, np.full(n - 1, -np.pi)])
    ub = np.concatenate([vmax, np.full(n - 1, np.pi)])
    starts = [np.clip(np.concatenate([vm0, th0[free]]), lb + 1e-12, ub - 1e-12)]
    if multistart:
        # the guided start can stall on a voltage floor; sweep flat and
        # feeder-tilted profiles (voltage declining with depth from slack)
        depth = np.zeros(n)
        for i, j, _ in edges:
            depth[pos[j]] = depth[pos[i]] + 1
        prof = depth / max(depth.max(), 1.0)
        for f, tilt in ((0.5, 0.0), (0.55, -0.5), (0.35, -0.4), (0.75, -0.35),
                        (0.25, 0.3), (0.9, -0.5), (0.15, 0.0), (0.85, 0.0)):
            frac = np.clip(f + tilt * (prof - 0.5), 0.02, 0.98)
            starts.append(np.concatenate([vmin + frac * (vmax - vmin), th0[free]]))

    z = None
    for z0 in starts:
        try:
            fit = sopt.least_squares(residuals, z0, bounds=(lb, ub), xtol=1e-14,
                                     ftol=1e-14, gtol=1e-14, max_nfev=200)
        except Exception:
            continue
        if np.max(np.abs(residuals(fit.x))) <= 10 * tol:
            z = fit.x
            break
    if z is None:
        return None

    def alloc_cost(z):
        p_need, q_need = injections(z)
        pg, qg = _allocate(net, np.clip(p_need, pmin, pmax),
                           np.clip(q_need, qmin, qmax))
        return sum(g.cost.value(p) for g, p in zip(net.generators, pg))

    if cost_pass:
        scale = 1.0 + abs(alloc_cost(z))
        rho = 1e5 * scale

        def penalized(zz):
            r = residuals(zz)
            return alloc_cost(zz) + rho * float(r @ r)

        try:
            imp = sopt.minimize(penalized, z, method="L-BFGS-B",
                                bounds=list(zip(lb, ub)),
                                options={"maxiter": 60})
            fit2 = sopt.least_squares(residuals, imp.x, bounds=(lb, ub),
                                      xtol=1e-14, ftol=1e-14, gtol=1e-14,
                                      max_nfev=150)
            if (np.max(np.abs(residuals(fit2.x))) <= 10 * tol
                    and alloc_cost(fit2.x) < alloc_cost(z)):
                z = fit2.x
        except Exception:
            pass

    vm, th = unpack(z)
    p_need, q_need = injections(z)
    pg, qg = _allocate(net, np.clip(p_need, pmin, pmax),
                       np.clip(q_need, qmin, qmax))
    check = jabr.evaluate_opf_point(net, vm * np.cos(th), vm * np.sin(th), pg, qg)
    if not check.feasible(tol):
        return None
    return jabr.OpfSolution(bus_ids=ids, vm=vm, theta=th, pg=pg, qg=qg,
                            objective=check.objective)


# -------------------------------------------------------------- range reduction

def range_reduction(model: jabr.JabrModel, box: NodeBox, incumbent: float,
                    slacks: np.ndarray, *, max_vars: int = 2,
                    feastol: float = 1e-8,
                    gaptol: float = 1e-8) -> NodeBox | None:
    """Optimization-based shrink of the most promising intervals of `box`
    over its node model `model`, optionally under the incumbent cost cutoff;
    returns None when the box empties.

    The model gains the cutoff row.  All min/max directions are solved in
    one batch by `tighten.min_max`; the box is updated after the sweep, not
    between solves, which keeps the sweep order-independent.
    """
    net = model.net
    if not len(net.lines):
        return box
    worst = int(np.argmax(slacks))
    pos = net.bus_index
    ln = net.lines[worst]
    targets = [("cii", pos[ln.from_bus]), ("cii", pos[ln.to_bus]),
               ("c", worst), ("s", worst)]
    targets.sort(key=lambda t: box.interval(*t)[0] - box.interval(*t)[1])
    if math.isfinite(incumbent):
        jabr.add_cost_cap(model, incumbent + 1e-6 * (1 + abs(incumbent)))
    wide, variables = [], []
    for kind, idx in targets[:max_vars]:
        lo, hi = box.interval(kind, idx)
        if hi - lo <= _WIDTH_TOL:
            continue
        wide.append((kind, idx))
        variables.append(model.cii[net.buses[idx].id] if kind == "cii"
                         else (model.c if kind == "c" else model.s)[idx])
    try:
        pairs = tighten.min_max(model, variables, feastol=feastol,
                                gaptol=gaptol)
    except tighten.RelaxationInfeasible:
        return None
    out = box.copy()
    for (kind, idx), (vmin, vmax) in zip(wide, pairs):
        lo, hi = box.interval(kind, idx)
        if vmin is not None:
            lo = max(lo, vmin - 1e-9 * (1 + abs(vmin)))
        if vmax is not None:
            hi = min(hi, vmax + 1e-9 * (1 + abs(vmax)))
        if lo > hi:
            return None
        out.set_interval(kind, idx, lo, hi)
    return out


# ------------------------------------------------------------------ the search

@dataclass
class BnbResult:
    status: str
    incumbent: jabr.OpfSolution | None
    objective: float | None
    lower_bound: float
    gap: float
    nodes: int
    root_lb: float | None
    root_gap_pct: float | None
    cuts: int
    runtime: float
    preprocess_time: float = 0.0
    trace: list = field(default_factory=list)

    @property
    def optimal(self) -> bool:
        return self.status == GLOBAL_OPTIMAL


def _rel_gap(lb: float, ub: float) -> float:
    if not math.isfinite(ub):
        return math.inf
    if ub == lb:
        return 0.0
    return (ub - lb) / max(abs(ub), 1e-9)


def solve_global(net: Network, *, gap_tol: float = 1e-4,
                 time_limit: float | None = None, node_limit: int | None = None,
                 use_cuts: bool = True, use_bounds: bool = True,
                 workers: int = 1,
                 fixed_voltage: dict[int, float] | None = None,
                 angle_bound_deg: float | None = None,
                 feastol: float = 1e-8, gaptol: float = 1e-8) -> BnbResult:
    """Best-first spatial branch-and-bound to certified relative gap.

    `workers` is a batch size, not a thread count: that many best-first
    nodes are popped together and their relaxations solved in one batched
    interior-point call.

    Infeasibility is declared only on a root-relaxation infeasibility
    certificate or when the whole tree is exhausted with every leaf either
    relaxation-infeasible or shrunk below the width floor without producing
    a feasible point.
    """
    net.require_radial()
    t0 = time.monotonic()
    build_kwargs = {}
    if fixed_voltage:
        build_kwargs["fixed_voltage"] = fixed_voltage
    if angle_bound_deg is not None:
        build_kwargs["angle_bound_deg"] = angle_bound_deg

    def done(status, lb, inc, nodes, root_lb, trace, ncuts):
        ub = inc.objective if inc is not None else math.inf
        rg = None
        if root_lb is not None and inc is not None and inc.objective:
            rg = 100.0 * (1.0 - root_lb / inc.objective)
        return BnbResult(status=status, incumbent=inc,
                         objective=inc.objective if inc else None,
                         lower_bound=lb, gap=_rel_gap(lb, ub), nodes=nodes,
                         root_lb=root_lb, root_gap_pct=rg, cuts=ncuts,
                         runtime=time.monotonic() - t0,
                         preprocess_time=pre_time, trace=trace)

    cuts: list[tighten.Cut] = []
    var_bounds = None
    pre_time = 0.0
    try:
        if use_bounds and use_cuts:
            var_bounds, cuts = tighten.run_algorithm1(
                net, feastol=feastol, gaptol=gaptol, **build_kwargs)
        elif use_bounds:
            var_bounds = tighten.compute_bounds(
                net, feastol=feastol, gaptol=gaptol, **build_kwargs)
        pre_time = time.monotonic() - t0
    except tighten.RelaxationInfeasible:
        pre_time = time.monotonic() - t0
        return done(INFEASIBLE, math.inf, None, 0, None, [], 0)

    prop = _Propagator(net, **build_kwargs)
    root = NodeBox.root(net, var_bounds, fixed_voltage)
    heap = [(-math.inf, 0, root, 0)]
    counter = 1
    incumbent: jabr.OpfSolution | None = None
    nodes = 0
    root_lb = None
    trace = []
    exhausted_clean = True

    def ub_val():
        return incumbent.objective if incumbent is not None else math.inf

    def global_lb():
        vals = [entry[0] for entry in heap]
        if incumbent is not None:
            vals.append(incumbent.objective)
        return min(vals) if vals else ub_val()

    def consider(cand: jabr.OpfSolution | None):
        nonlocal incumbent
        if cand is None:
            return
        check = jabr.evaluate_opf_point(net, cand.e, cand.f, cand.pg, cand.qg)
        if not check.feasible(1e-6):
            return
        if fixed_voltage:
            pos = net.bus_index
            for b_id, pin in fixed_voltage.items():
                if abs(cand.vm[pos[b_id]] ** 2 - pin) > 1e-7:
                    return
        if incumbent is None or cand.objective < incumbent.objective:
            incumbent = cand

    while heap:
        if time_limit is not None and time.monotonic() - t0 > time_limit:
            return done(TIME_LIMIT, global_lb(), incumbent, nodes, root_lb,
                        trace, len(cuts))
        if node_limit is not None and nodes >= node_limit:
            return done(GAP_LIMIT, global_lb(), incumbent, nodes, root_lb,
                        trace, len(cuts))

        # pop a batch of up to `workers` best-first nodes and solve their
        # relaxations in one batched call; results are folded back in
        # deterministic (bound-sorted) order
        batch = []
        while heap and len(batch) < max(1, workers):
            lb_parent, _, box, depth = heapq.heappop(heap)
            if lb_parent >= ub_val() - gap_tol * max(abs(ub_val()), 1e-9):
                heapq.heappush(heap, (lb_parent, counter, box, depth))
                counter += 1
                break
            box = prop.run(box)
            if box is None:
                nodes += 1  # emptied by interval propagation
                continue
            batch.append((lb_parent, box, depth))
        if not batch:
            break
        models = [node_relaxation(net, box, cuts, **build_kwargs)
                  for _, box, _ in batch]
        sols = conic.solve_batch([m.program for m in models],
                                 feastol=feastol, gaptol=gaptol)

        for (lb_parent, box, depth), model, sol in zip(batch, models, sols):
            nodes += 1
            if sol.status == conic.INFEASIBLE:
                continue
            if not sol.optimal:
                # unresolved node: keep searching below it, bound unchanged
                kids, _ = branch(net, box, _mid_point(net, box),
                                 np.ones(len(net.lines)))
                if not kids:
                    exhausted_clean = exhausted_clean and \
                        box.max_width() <= 10 * _WIDTH_TOL
                    continue
                for kid in kids:
                    heapq.heappush(heap, (lb_parent, counter, kid, depth + 1))
                    counter += 1
                continue

            node_lb = sol.dual_objective if sol.dual_objective is not None \
                else sol.objective
            if root_lb is None:
                root_lb = node_lb
            if node_lb >= ub_val() - gap_tol * max(abs(ub_val()), 1e-9):
                continue

            point = model.point(sol.x)
            slacks = _coupling_slacks(net, point)
            worst = float(np.max(slacks, initial=0.0))

            if worst <= _EXACT_TOL:
                # point is on the cone surface: recover and fathom
                try:
                    consider(jabr.recover_angles(net, model, sol,
                                                 tol=10 * _EXACT_TOL))
                except ValueError:
                    pass
                if incumbent is None:
                    consider(local_polish(net, point,
                                          fixed_voltage=fixed_voltage))
                if incumbent is not None and incumbent.objective <= node_lb \
                        + gap_tol * max(1.0, abs(node_lb)):
                    trace.append((nodes, node_lb, ub_val()))
                    continue
                # recovery failed numerically; keep branching below

            elif incumbent is None or nodes % 25 == 0:
                consider(local_polish(net, point,
                                      cost_pass=True,
                                      multistart=incumbent is None,
                                      fixed_voltage=fixed_voltage))

            # cutoff-based range reduction pays for itself at every depth
            # on these instance sizes
            box = range_reduction(model, box, ub_val(), slacks,
                                  feastol=feastol, gaptol=gaptol)
            if box is None:
                trace.append((nodes, node_lb, ub_val()))
                continue

            kids, _ = branch(net, box, point, slacks)
            if not kids:
                # coupling violated but nothing branchable: width floor hit
                trace.append((nodes, node_lb, ub_val()))
                continue
            for kid in kids:
                heapq.heappush(heap, (node_lb, counter, kid, depth + 1))
                counter += 1
            trace.append((nodes, node_lb, ub_val()))

        if incumbent is not None and _rel_gap(global_lb(), ub_val()) <= gap_tol:
            return done(GLOBAL_OPTIMAL, global_lb(), incumbent, nodes,
                        root_lb, trace, len(cuts))

    lb = global_lb()
    if incumbent is not None:
        if _rel_gap(lb, ub_val()) <= gap_tol or not heap:
            return done(GLOBAL_OPTIMAL, min(lb, ub_val()), incumbent, nodes,
                        root_lb, trace, len(cuts))
        return done(GAP_LIMIT, lb, incumbent, nodes, root_lb, trace, len(cuts))
    if exhausted_clean:
        return done(INFEASIBLE, math.inf, None, nodes, root_lb, trace, len(cuts))
    return done(GAP_LIMIT, lb, None, nodes, root_lb, trace, len(cuts))


def _mid_point(net: Network, box: NodeBox) -> dict:
    cii = {b.id: 0.5 * (box.cii_lo[k] + box.cii_hi[k])
           for k, b in enumerate(net.buses)}
    return {"cii": cii,
            "c": 0.5 * (box.c_lo + box.c_hi),
            "s": 0.5 * (box.s_lo + box.s_hi),
            "pg": np.zeros(len(net.generators)),
            "qg": np.zeros(len(net.generators))}
