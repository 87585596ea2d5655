"""Spatial branch-and-bound global solver for the lifted OPF on trees.

Node relaxations keep the full SOCP (linear balance + voltage cone) and
outer-approximate the reverse side of the coupling equality over the node's
box: the bilinear product c_ii*c_jj is bounded below by its McCormick planes
while c^2 and s^2 are bounded above by their secants, giving linear rows that
shrink to the surface as boxes shrink.  Each line also gets its two lifted
nonlinear cuts over the node's box (Coffrin, Hijazi and Van Hentenryck, IEEE
TPWRS 2017), which tie its (c, s) angle range to its voltage magnitude
ranges; range reduction reads them too.  A node box bounds the variables of
the network's lifted model in the model's own index layout, so relaxation,
propagation, branching and range reduction all read it directly.  Bisection
splits the variable contributing most to the worst coupling slack at the
middle of its interval, node relaxations stop once their Lagrangian bound
reaches the cutoff, incumbents come from a local polish of relaxation points
in (|V|, angle) space, and every incumbent must pass the independent
rectangular feasibility check before it is accepted.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import conic, jabr, tighten
from .network import Network, NetworkError, bus_gen_limits, tree_edges
from .tighten import NodeBox

GLOBAL_OPTIMAL = "global-optimal"
INFEASIBLE = "infeasible"
GAP_LIMIT = "gap-limit"
TIME_LIMIT = "time-limit"

_WIDTH_TOL = 1e-6   # interval width below which a variable is not branched
_EXACT_TOL = 1e-6   # relative coupling slack accepted as on-surface
_FEAS_TOL = 1e-6    # rectangular violation accepted for an incumbent
_BATCH = 4          # best-first nodes whose relaxations are solved together


class _Propagator:
    """Feasibility-based interval tightening through the balance equalities.

    Interval arithmetic on each equality row bounds every participating
    variable by the residual range of the others; sweeping until fixpoint
    ties the (c_ii, c_ij, s_ij) intervals together, so one bisection narrows
    the whole coupled group.  Row structure is box-independent, so it is
    read once from the search's lifted model and reused across nodes.
    """

    def __init__(self, model: jabr.JabrModel):
        self.units = model.pg + model.qg
        # lossless (r=0) lines put exact zeros in balance rows; drop them so
        # the interval division below stays well defined
        self.rows = []
        for r in model.program.eqs:
            keep = np.abs(r.coef) > 1e-14
            self.rows.append((r.idx[keep], r.coef[keep], r.rhs))

    def run(self, box: NodeBox) -> NodeBox | None:
        """`box` with its c_ii, c and s intervals tightened, or None when the
        sweep empties it.  The unit intervals come back unchanged: the sweep
        may tighten them too, but writing that back would change the node
        programs and the search's answers."""
        lo, hi = _sweep_rows(self.rows, box.lo.copy(), box.hi.copy())
        if lo is None:
            return None
        lo[self.units], hi[self.units] = box.lo[self.units], box.hi[self.units]
        return NodeBox(lo, hi)


def _sweep_rows(rows, lo, hi):
    pad = 1e-9
    for _ in range(6):
        changed = False
        for idx, coef, rhs in rows:
            pos = coef > 0
            terms_lo = np.where(pos, coef * lo[idx], coef * hi[idx])
            terms_hi = np.where(pos, coef * hi[idx], coef * lo[idx])
            # every term reads the row-start sums, and a row names each
            # variable once, so the row's terms update together
            rest_lo = terms_lo.sum() - terms_lo
            rest_hi = terms_hi.sum() - terms_hi
            new_lo = np.where(pos, rhs - rest_hi, rhs - rest_lo) / coef - pad
            new_hi = np.where(pos, rhs - rest_lo, rhs - rest_hi) / coef + pad
            hit = (new_lo > lo[idx] + 1e-12) | (new_hi < hi[idx] - 1e-12)
            if hit.any():
                j, new_lo, new_hi = idx[hit], new_lo[hit], new_hi[hit]
                lo[j] = np.where(new_lo > lo[j], new_lo, lo[j])
                hi[j] = np.where(new_hi < hi[j], new_hi, hi[j])
                if (lo[j] > hi[j]).any():
                    return None, None
                changed = True
        if not changed:
            break
    return lo, hi


def node_relaxation(model: jabr.JabrModel, box: NodeBox,
                    cuts=()) -> jabr.JabrModel:
    """A copy of the lifted model with the box as its variable bounds and
    the secant cuts (`tighten.boxed`), plus four rows per line over the
    box: two that outer-approximate the reverse side of its coupling, and
    its two lifted nonlinear cuts (`_lnc_rows`).  Every node of a search
    gets the same rows, so its programs share one compiled shape."""
    model = tighten.boxed(model, box, cuts)
    prog = model.program
    lo, hi = box.lo, box.hi
    for k in range(len(model.net.lines)):
        vi, vj, vc, vs = model.line_vars(k)
        li, ui, lj, uj = lo[vi], hi[vi], lo[vj], hi[vj]
        lc, uc, ls, us = lo[vc], hi[vc], lo[vs], hi[vs]
        rhs_sec = -(lc * uc) - (ls * us)
        # McCormick underestimate of cii*cjj <= secants of c^2 + s^2
        prog.add_ineq([vi, vj, vc, vs],
                      [lj, li, -(lc + uc), -(ls + us)],
                      li * lj + rhs_sec)
        prog.add_ineq([vi, vj, vc, vs],
                      [uj, ui, -(lc + uc), -(ls + us)],
                      ui * uj + rhs_sec)
        for coef, rhs in _lnc_rows(li, ui, lj, uj, lc, uc, ls, us):
            prog.add_ineq([vi, vj, vc, vs], coef, rhs)
    return model


def _lnc_rows(li, ui, lj, uj, lc, uc, ls, us):
    """The two lifted nonlinear cuts of one line over the box of its
    (c_ii, c_jj, c, s), as (coefficients, rhs) of rows a'x <= rhs in that
    variable order (Coffrin, Hijazi and Van Hentenryck, IEEE TPWRS 2017).

    With voltage magnitudes in [√l, √u] at each end and the angle of (c, s)
    in [θl, θu], which lies inside ±π/2 when lc > 0, every point of the
    surface c² + s² = c_ii·c_jj in the box meets both.  Where lc <= 0 the
    rows are 0 <= 1, which every point meets strictly, so the row count
    does not depend on the box."""
    if lc <= 0:
        return [([0.0] * 4, 1.0)] * 2
    vli, vui, vlj, vuj = map(math.sqrt, (li, ui, lj, uj))
    si, sj = vli + vui, vlj + vuj
    th_l = math.atan2(ls, lc if ls < 0 else uc)
    th_u = math.atan2(us, lc if us > 0 else uc)
    phi, cd = 0.5 * (th_u + th_l), math.cos(0.5 * (th_u - th_l))
    ac, as_ = si * sj * math.cos(phi), si * sj * math.sin(phi)
    span = vli * vlj - vui * vuj
    # σi·σj·(c·cos φ + s·sin φ) − vj·cos δ·σj·c_ii − vi·cos δ·σi·c_jj ≥ rhs,
    # once with the upper magnitudes as (vi, vj) and once with the lower
    return [([ej * cd * sj, ei * cd * si, -ac, -as_], -rhs)
            for ei, ej, rhs in ((vui, vuj, vui * vuj * cd * span),
                                (vli, vlj, -vli * vlj * cd * span))]


# ------------------------------------------------------------------ branching

def branch(model: jabr.JabrModel, box: NodeBox, x: np.ndarray,
           slacks: np.ndarray) -> tuple[list, tuple | None]:
    """Children boxes from bisecting the strongest contributor to the worst
    coupling slack at the point `x` of `model`'s variables, and the
    (variable, split) bisected; the split point is the middle of the
    variable's interval, whatever its value in `x`.  Candidates, in order,
    are a line's from-bus c_ii, to-bus c_ii, c and s; no children when no
    line with positive slack has one wider than the width floor."""
    lo, hi = box.lo, box.hi
    for k in np.argsort(-slacks):
        if slacks[k] <= 0:
            break
        vi, vj, vc, vs = model.line_vars(k)
        cv, sv = x[vc], x[vs]
        # product gap scales with the partner value; secant gap is quadratic
        cands = ((vi, (hi[vi] - lo[vi]) * abs(x[vj])),
                 (vj, (hi[vj] - lo[vj]) * abs(x[vi])),
                 (vc, (lo[vc] + hi[vc]) * cv - lo[vc] * hi[vc] - cv * cv),
                 (vs, (lo[vs] + hi[vs]) * sv - lo[vs] * hi[vs] - sv * sv))
        best = None
        for v, score in cands:
            if hi[v] - lo[v] <= _WIDTH_TOL:
                continue
            if best is None or score > best[1]:
                best = (v, score)
        if best is None:
            continue
        v = best[0]
        split = 0.5 * (lo[v] + hi[v])
        left, right = box.copy(), box.copy()
        left.hi[v] = right.lo[v] = split
        return [left, right], (v, split)
    return [], None


# --------------------------------------------------------------- local polish
#
# The polish moves z = (|V| at every bus, angle at every bus but the slack).
# A bus's required generation is S(V) + S_d with S = V * conj(Y V); its
# residual is the part of that lying outside the bus generation box.  The
# helpers take (z, bal) so that scipy can pass `bal` through `args=`.

@dataclass
class _Balance:
    """Network data of the clipped polar balance residuals, bus order."""
    Y: np.ndarray           # complex bus admittance
    slack: int              # bus id whose angle is fixed at 0
    free: np.ndarray        # positions of the buses whose angle is in z
    sd: np.ndarray          # (2, buses) active/reactive demand
    lo: np.ndarray          # (2, buses) bus generation box
    hi: np.ndarray
    gen_bus: np.ndarray     # bus position of each generator
    gen_lo: np.ndarray      # (2, generators) unit boxes
    gen_hi: np.ndarray
    cost: np.ndarray        # (3, generators) c2, c1, c0


def _balance(net: Network) -> _Balance:
    G, B = jabr.admittance(net)
    pos = net.bus_index
    slack = jabr._slack_bus(net)
    pmin, pmax, qmin, qmax = bus_gen_limits(net)
    gens = net.generators
    return _Balance(
        Y=G + 1j * B, slack=slack,
        free=np.array([k for k in range(net.num_buses) if k != pos[slack]],
                      dtype=int),
        sd=np.array([[b.pd for b in net.buses], [b.qd for b in net.buses]]),
        lo=np.array([pmin, qmin]), hi=np.array([pmax, qmax]),
        gen_bus=np.array([pos[g.bus] for g in gens], dtype=int),
        gen_lo=np.array([[g.pmin for g in gens], [g.qmin for g in gens]]),
        gen_hi=np.array([[g.pmax for g in gens], [g.qmax for g in gens]]),
        cost=np.array([[g.cost.c2 for g in gens], [g.cost.c1 for g in gens],
                       [g.cost.c0 for g in gens]]))


def _required(z: np.ndarray, bal: _Balance, jac: bool = False):
    """Required bus generation (2, buses) at z and, with `jac`, its
    derivative (2, buses, len(z)): the real and imaginary parts of
    [dS/dVm, dS/dθ[:, free]] (Zimmerman, Murillo-Sánchez, Thomas, IEEE
    TPWRS 2011).  With M = diag(V)·conj(Y)·diag(conj(V/|V|)),
    dS/dVm = M + diag(conj(I)·V/|V|) and dS/dθ = j·(diag(S) − M·diag(|V|))."""
    n = len(bal.free) + 1
    vm = z[:n]
    th = np.zeros(n)
    th[bal.free] = z[n:]
    vn = np.exp(1j * th)
    V = vm * vn
    I = bal.Y @ V
    S = V * np.conj(I)
    need = np.array([S.real, S.imag]) + bal.sd
    if not jac:
        return need
    M = V[:, None] * np.conj(bal.Y * vn)
    dS = np.empty((n, 2 * n - 1), dtype=complex)
    dS[:, :n] = M
    dS[:, n:] = -1j * (M[:, bal.free] * vm[bal.free])
    k = np.arange(n)
    dS[k, k] += np.conj(I) * vn
    dS[bal.free, n + k[:-1]] += 1j * S[bal.free]
    return need, np.array([dS.real, dS.imag])


def _residuals(z: np.ndarray, bal: _Balance) -> np.ndarray:
    need = _required(z, bal)
    return (need - np.clip(need, bal.lo, bal.hi)).ravel()


def _residual_jacobian(z: np.ndarray, bal: _Balance) -> np.ndarray:
    """Rows of the required-generation derivative, zeroed where the
    required generation lies inside its box."""
    need, d_need = _required(z, bal, jac=True)
    outside = (need < bal.lo) | (need > bal.hi)
    return (d_need * outside[:, :, None]).reshape(need.size, -1)


def _allocate(bal: _Balance, need: np.ndarray, base: np.ndarray):
    """Split required bus generation (2, buses), clipped to the bus boxes,
    across its units from the `base` split (2, generators), which lies in
    the unit boxes.  Each bus's shortfall from its summed base is shared by
    the room each unit has toward the bound it moves to, so a base that
    meets the requirement is kept, and a base at the floors gives the split
    pro rata by range.  Returns (pg, qg) and each unit's share `room /
    Σroom`, the slope of its output in the clipped requirement."""
    nb = need.shape[1]
    short = np.clip(need, bal.lo, bal.hi) - np.array(
        [np.bincount(bal.gen_bus, row, nb) for row in base])
    room = np.where((short > 0)[:, bal.gen_bus], bal.gen_hi - base,
                    base - bal.gen_lo)
    total = np.array([np.bincount(bal.gen_bus, row, nb) for row in room])
    share = room / np.where(total > 0, total, 1.0)[:, bal.gen_bus]
    return base + short[:, bal.gen_bus] * share, share


def _gen_cost(bal: _Balance, pg: np.ndarray) -> float:
    c2, c1, c0 = bal.cost
    return float(np.sum(c2 * pg * pg + c1 * pg + c0))


def _alloc_cost(z: np.ndarray, bal: _Balance, base: np.ndarray) -> float:
    (pg, _), _ = _allocate(bal, _required(z, bal), base)
    return _gen_cost(bal, pg)


def _penalized(z: np.ndarray, bal: _Balance, base: np.ndarray, rho: float):
    """alloc_cost + rho·‖r‖² and its gradient: the cost slope through each
    unit's share of its bus (nonzero only where a bus's required active
    generation lies strictly inside its box) plus 2·rho·Jᵀr.  A residual
    is zero where its row of J is, so Jᵀr needs no mask."""
    need, d_need = _required(z, bal, jac=True)
    r = need - np.clip(need, bal.lo, bal.hi)
    (pg, _), share = _allocate(bal, need, base)
    p = need[0]
    inside = ((p > bal.lo[0]) & (p < bal.hi[0]))[bal.gen_bus]
    c2, c1, _ = bal.cost
    w = 2.0 * rho * r
    w[0] += np.bincount(bal.gen_bus, (2.0 * c2 * pg + c1) * inside * share[0],
                        len(p))
    value = _gen_cost(bal, pg) + rho * float(np.sum(r * r))
    return value, w.ravel() @ d_need.reshape(w.size, -1)


def _z_bounds(net: Network, fixed_voltage: dict[int, float] | None):
    """Box of z: the voltage limits (a pinned voltage widened by 5e-10 so
    that the bounded least squares stays well posed) and angles in ±π."""
    vmin = np.array([b.vmin for b in net.buses])
    vmax = np.array([b.vmax for b in net.buses])
    for b_id, c_pin in (fixed_voltage or {}).items():
        k = net.bus_index[b_id]
        vmin[k] = math.sqrt(c_pin) - 5e-10
        vmax[k] = math.sqrt(c_pin) + 5e-10
    n = net.num_buses
    return (np.concatenate([vmin, np.full(n - 1, -np.pi)]),
            np.concatenate([vmax, np.full(n - 1, np.pi)]))


def _push(z0, bal: _Balance, bounds, max_nfev: int):
    """Least-squares push of z0 onto the clipped balance equations; the
    end point if every residual is within 10·_FEAS_TOL, else None."""
    # deferred so that runs which never polish skip its import
    from scipy.optimize import least_squares
    fit = least_squares(_residuals, z0, jac=_residual_jacobian,
                        bounds=bounds, args=(bal,), xtol=1e-14,
                        ftol=1e-14, gtol=1e-14, max_nfev=max_nfev)
    return fit.x if np.max(np.abs(fit.fun)) <= 10 * _FEAS_TOL else None


def _verified(net: Network, bal: _Balance, z, base: np.ndarray):
    """The operating point of z with its generation allocated from the
    `base` split, if it passes the rectangular feasibility check at
    `_FEAS_TOL`."""
    n = net.num_buses
    vm, th = z[:n], np.zeros(n)
    th[bal.free] = z[n:]
    (pg, qg), _ = _allocate(bal, _required(z, bal), base)
    check = jabr.evaluate_opf_point(net, vm * np.cos(th), vm * np.sin(th),
                                    pg, qg)
    if not check.feasible(_FEAS_TOL):
        return None
    return jabr.OpfSolution(bus_ids=[b.id for b in net.buses], vm=vm,
                            theta=th, pg=pg, qg=qg, objective=check.objective)


def local_polish(net: Network, point: dict, *, multistart: bool = True,
                 fixed_voltage: dict[int, float] | None = None,
                 bal: _Balance | None = None) -> jabr.OpfSolution | None:
    """Project a relaxation point onto the feasible set and locally improve.

    Lines are rescaled radially onto the cone surface, angles recovered along
    the tree (`jabr.tree_angles`), then (|V|, angle) are adjusted: first a
    least-squares push onto the balance equations (clamped to the bus
    generation boxes), then a penalized cost descent (L-BFGS-B) that is kept
    when its pushed end point costs less, and a final cleanup.  Every step is
    given exact derivatives: the Jacobian of the clipped residuals and the
    gradient of the penalized cost (see `_penalized`).  Generation is
    allocated from the point's own unit split (`pg`, `qg` clipped into the
    unit boxes, see `_allocate`), so units at one bus keep the relaxation's
    split up to the shift that the pushed requirement asks.  With
    `multistart` the push is retried from a flat and a feeder-tilted voltage
    profile when the guided start fails.  `bal` is the network's
    `_balance`, built here when not given.  Returns a verified feasible
    point or None.
    """
    bal = bal if bal is not None else _balance(net)
    n = net.num_buses
    pos = net.bus_index
    lb, ub = _z_bounds(net, fixed_voltage)
    base = np.clip([point["pg"], point["qg"]], bal.gen_lo, bal.gen_hi)

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
    vm0 = np.sqrt([max(cii[b.id], 1e-9) for b in net.buses])
    th0 = jabr.tree_angles(net, c, s)

    vmin, vmax = lb[:n], ub[:n]
    starts = [np.clip(np.concatenate([vm0, th0[bal.free]]), lb + 1e-12, ub - 1e-12)]
    if multistart:
        # the guided start can stall on a voltage floor; try a flat and a
        # feeder-tilted profile (voltage declining with depth from slack)
        depth = np.zeros(n)
        for i, j, _ in tree_edges(net, bal.slack):
            depth[pos[j]] = depth[pos[i]] + 1
        prof = depth / max(depth.max(), 1.0)
        for f, tilt in ((0.5, 0.0), (0.55, -0.5)):
            frac = np.clip(f + tilt * (prof - 0.5), 0.02, 0.98)
            starts.append(np.concatenate([vmin + frac * (vmax - vmin),
                                          th0[bal.free]]))

    z = None
    for z0 in starts:
        try:
            z = _push(z0, bal, (lb, ub), 200)
        except ValueError:  # also numpy's LinAlgError
            continue
        if z is not None:
            break
    if z is None:
        return None

    from scipy.optimize import minimize
    cost = _alloc_cost(z, bal, base)
    rho = 1e5 * (1.0 + abs(cost))
    try:
        imp = minimize(_penalized, z, args=(bal, base, rho), jac=True,
                       method="L-BFGS-B", bounds=list(zip(lb, ub)),
                       options={"maxiter": 60})
        z2 = _push(imp.x, bal, (lb, ub), 150)
        if z2 is not None and _alloc_cost(z2, bal, base) < cost:
            z = z2
    except ValueError:
        pass
    return _verified(net, bal, z, base)


# -------------------------------------------------------------- range reduction

def range_reduction(model: jabr.JabrModel, box: NodeBox, cutoff: float,
                    slacks: np.ndarray) -> NodeBox | None:
    """Optimization-based shrink of the intervals of the worst line of
    `box` (the largest entry of `slacks`) over its node model `model`,
    under the cost cutoff when it is finite; returns None when the box
    empties.  `range_reduction_batch` of one node."""
    return range_reduction_batch([(model, box, cutoff, slacks)])[0]


def range_reduction_batch(jobs) -> list[NodeBox | None]:
    """Range reduction of several nodes, each job a (model, box, cutoff,
    slacks) tuple; returns one reduced box per job, None where it empties.

    A finite cutoff gives the model its cost cap, padded up by
    ``1e-6 * (1 + |cutoff|)``; +inf gives none.  Every variable of the
    worst coupling in `slacks` wider than `_WIDTH_TOL` goes to one
    `tighten.min_max_batch` call that solves every direction of every
    node.  A box is updated after the sweep, not between solves, which
    keeps the sweep order-independent.
    """
    bounded = []
    for model, box, cutoff, slacks in jobs:
        if math.isfinite(cutoff):
            jabr.add_cost_cap(model, cutoff + 1e-6 * (1 + abs(cutoff)))
        wide = []
        if len(model.net.lines):
            wide = [v for v in model.line_vars(int(np.argmax(slacks)))
                    if box.hi[v] - box.lo[v] > _WIDTH_TOL]
        bounded.append((model, wide))
    return [_reduced(box, wide, pairs) for (_, box, *_), (_, wide), pairs
            in zip(jobs, bounded, tighten.min_max_batch(bounded))]


def _reduced(box: NodeBox, wide, pairs) -> NodeBox | None:
    """`box` with the intervals of the variables `wide` cut to their
    (min, max) `pairs`, padded outward; None when the relaxation or an
    interval is empty."""
    if pairs is None:
        return None
    out = box.copy()
    for v, (vmin, vmax) in zip(wide, pairs):
        if vmin is not None:
            out.lo[v] = max(out.lo[v], vmin - 1e-9 * (1 + abs(vmin)))
        if vmax is not None:
            out.hi[v] = min(out.hi[v], vmax + 1e-9 * (1 + abs(vmax)))
        if out.lo[v] > out.hi[v]:
            return None
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
    polish_calls: int = 0     # local_polish calls made by the search
    polish_found: int = 0     # of which gave a new incumbent
    cutoff_stops: int = 0     # node relaxations stopped at the cutoff

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
                 fixed_voltage: dict[int, float] | None = None) -> BnbResult:
    """Best-first spatial branch-and-bound to certified relative gap.

    The lifted model is built once (`jabr.build_relaxation`, with the
    pinned voltages).  With `use_bounds`, Algorithm 1 tightens the root
    box's c and s intervals and, with `use_cuts` as well, adds the secant
    cuts.  The cuts are built from the tightened boxes, so
    `use_bounds=False` drops them too.  Algorithm 1, propagation and every
    node program start from that one model.

    Each node is a `NodeBox` over the lifted model's variables.  Up to
    `_BATCH` best-first nodes are popped together; a batch never takes more
    nodes than `node_limit` has left.  Interval propagation tightens each
    popped box's c_ii, c and s intervals (the unit bounds stay those of the
    units), and the boxes' relaxations are solved in one batched
    interior-point call under the cutoff (`conic.solve_batch`): a
    relaxation whose Lagrangian bound reaches the cutoff stops there, and
    `cutoff_stops` counts those.  A node's bound is the larger of its
    parent's and the largest Lagrangian bound of its relaxation's iterates
    (`ConicSolution.bound`), whatever the relaxation's status, and
    `root_lb` is the root's.  The batch then runs in three phases:

    1. Per node, in bound order: a node whose relaxation is infeasible or
       stopped at the cutoff, or whose bound is at the cutoff, is dropped;
       the polish runs when one is due, and a bound that the polish's
       incumbent brought to the cutoff is fathomed.
    2. Every node still open is range-reduced in one call
       (`range_reduction_batch`) over its whole worst line, under the
       cutoff as phase 1 left it.
    3. Per node: a box emptied by the reduction is pruned; the others are
       bisected at the middle of one interval (`branch`) and their children
       pushed with the node's bound.

    Incumbents come only from `local_polish`.  A node whose relaxation
    point lies on the cone surface is polished at once, without extra
    starts, and its recovered point (`jabr.recover_angles`) is tried when
    the polish finds none.  Other nodes are polished when one is due.  A
    polish succeeds when it gives a new incumbent and fails otherwise.
    While there is no incumbent, a failed polish makes the next one of a
    node off the surface wait `2**fails` nodes; once there is one, such a
    polish runs at every 25th node.  Multistart runs only while no polish
    has failed since the start or the last success: a point no better than
    the incumbent does not pay for two more starts.  Skipped polishes make
    no call; `polish_calls` counts the calls made and `polish_found` those
    that gave a new incumbent.

    A node whose relaxation ends without an answer goes through the same
    phases: it is range-reduced like any open node and, unless that
    certifies its box empty, branched blindly.  A node, solved or not, that
    is neither pruned, fathomed nor branchable keeps its bound in the
    reported lower bound, so the search then ends `gap-limit`.

    Infeasibility is declared only when bound tightening finds the
    relaxation empty before the first node (`nodes == 0`), or when the whole
    tree is exhausted with every leaf relaxation-infeasible, emptied by
    interval propagation or emptied by range reduction.

    Every unit needs finite bounds: the polish shares a bus's generation by
    its units' room toward their bounds, and a node box is finite.  A unit
    with an infinite bound raises `NetworkError`.
    """
    for k, g in enumerate(net.generators):
        if not all(map(math.isfinite, (g.pmin, g.pmax, g.qmin, g.qmax))):
            raise NetworkError(f"unit {k} at bus {g.bus} has an infinite "
                               f"bound (p in [{g.pmin}, {g.pmax}], "
                               f"q in [{g.qmin}, {g.qmax}])")
    t0 = time.monotonic()
    base = jabr.build_relaxation(net, fixed_voltage=fixed_voltage)

    cuts: list[tighten.Cut] = []
    pre_time = 0.0
    incumbent: jabr.OpfSolution | None = None
    nodes = 0
    root_lb = None
    trace = []
    floor = math.inf  # least bound of the open nodes dropped unbranched
    fails = 0         # failed polishes since the start or the last success
    next_polish = 0   # node count from which a polish is due again
    polish_calls = polish_found = cutoff_stops = 0

    def ub_val():
        return incumbent.objective if incumbent is not None else math.inf

    def cutoff():
        """Bound at or above which a node cannot improve the incumbent by
        more than the gap tolerance; +inf while there is no incumbent."""
        if incumbent is None:
            return math.inf
        ub = incumbent.objective
        return ub - gap_tol * max(abs(ub), 1e-9)

    def global_lb():
        return min([entry[0] for entry in heap] + [floor, ub_val()])

    def done(status, lb):
        """The result at `status` and lower bound `lb`, read from the
        search's state; every exit returns through it."""
        rg = None
        if root_lb is not None and incumbent is not None and incumbent.objective:
            rg = 100.0 * (1.0 - root_lb / incumbent.objective)
        return BnbResult(status=status, incumbent=incumbent,
                         objective=incumbent.objective if incumbent else None,
                         lower_bound=lb, gap=_rel_gap(lb, ub_val()),
                         nodes=nodes, root_lb=root_lb, root_gap_pct=rg,
                         cuts=len(cuts), runtime=time.monotonic() - t0,
                         preprocess_time=pre_time, trace=trace,
                         polish_calls=polish_calls, polish_found=polish_found,
                         cutoff_stops=cutoff_stops)

    root = NodeBox.of(base)
    try:
        if use_bounds and use_cuts:
            root, cuts = tighten.run_algorithm1(base)
        elif use_bounds:
            root = tighten.compute_bounds(base)
    except tighten.RelaxationInfeasible:
        pre_time = time.monotonic() - t0
        return done(INFEASIBLE, math.inf)
    pre_time = time.monotonic() - t0

    prop = _Propagator(base)
    bal = _balance(net)
    heap = [(-math.inf, 0, root)]
    counter = 1

    def consider(cand: jabr.OpfSolution | None):
        nonlocal incumbent
        if cand is None:
            return
        check = jabr.evaluate_opf_point(net, cand.e, cand.f, cand.pg, cand.qg)
        if not check.feasible(_FEAS_TOL):
            return
        if fixed_voltage:
            pos = net.bus_index
            for b_id, pin in fixed_voltage.items():
                if abs(cand.vm[pos[b_id]] ** 2 - pin) > 1e-7:
                    return
        if incumbent is None or cand.objective < incumbent.objective:
            incumbent = cand

    def polish(model, sol, exact):
        """Polish the point of `sol` in `model` if one is due: on the cone
        surface (`exact`) at once and without extra starts, falling back to
        the recovered point; otherwise, without an incumbent, 2**fails
        nodes after the last failure, and with one, every 25th node.  A
        polish succeeds when it gives a new incumbent; only one with no
        failure since the start or the last success multistarts."""
        nonlocal polish_calls, polish_found, fails, next_polish
        if not exact and (nodes % 25 if incumbent is not None
                          else nodes < next_polish):
            return
        polish_calls += 1
        cand = local_polish(net, model.point(sol.x),
                            multistart=fails == 0 and not exact,
                            fixed_voltage=fixed_voltage, bal=bal)
        if cand is None and exact:
            try:
                cand = jabr.recover_angles(net, model, sol,
                                           tol=10 * _EXACT_TOL)
            except ValueError:
                pass
        best = incumbent
        consider(cand)
        if incumbent is not best:
            polish_found += 1
            fails = 0
        else:
            fails += 1
            next_polish = nodes + 2 ** fails

    while heap:
        if time_limit is not None and time.monotonic() - t0 > time_limit:
            return done(TIME_LIMIT, global_lb())
        if node_limit is not None and nodes >= node_limit:
            return done(GAP_LIMIT, global_lb())

        # pop a batch of up to _BATCH best-first nodes and solve their
        # relaxations in one batched call; results are folded back in
        # deterministic (bound-sorted) order
        batch = []
        while heap and len(batch) < _BATCH and (
                node_limit is None or nodes + len(batch) < node_limit):
            lb_parent, _, box = heapq.heappop(heap)
            if lb_parent >= cutoff():
                heapq.heappush(heap, (lb_parent, counter, box))
                counter += 1
                break
            box = prop.run(box)
            if box is None:
                nodes += 1  # emptied by interval propagation
                continue
            batch.append((lb_parent, box))
        if not batch:
            break
        models = [node_relaxation(base, box, cuts) for _, box in batch]
        sols = conic.solve_batch([m.program for m in models],
                                 cutoffs=[cutoff()] * len(models))

        # phase 1, per node in bound order: verdict, fathoming, incumbents;
        # `left` keeps (bound, box, model, x, slacks, node) of the nodes
        # still open, with x None where the IPM failed
        left = []
        for (lb_parent, box), model, sol in zip(batch, models, sols):
            nodes += 1
            cutoff_stops += sol.status == conic.CUTOFF
            node_lb = max(lb_parent, sol.bound)
            if root_lb is None:
                root_lb = node_lb
            if (sol.status in (conic.INFEASIBLE, conic.CUTOFF)
                    or node_lb >= cutoff()):
                continue
            x, slacks = None, np.ones(len(net.lines))
            if sol.optimal:
                x, slacks = sol.x, model.coupling_residuals(sol.x)
                polish(model, sol, np.max(slacks, initial=0.0) <= _EXACT_TOL)
                if node_lb >= cutoff():
                    trace.append((nodes, node_lb, ub_val()))
                    continue
            left.append((node_lb, box, model, x, slacks, nodes))

        # phase 2: one range-reduction call for the open nodes, under the
        # cutoff as phase 1 left it.  Cutoff-based reduction pays for itself
        # at every depth on these instance sizes.
        boxes = range_reduction_batch([(model, box, cutoff(), slacks) for
                                       _, box, model, _, slacks, _ in left])

        # phase 3, per node: prune or branch.  An unresolved node is
        # branched blindly, scored at its box's middle; the free cost
        # epigraph has no middle, and `branch` does not read it.
        for (node_lb, _, model, x, slacks, node), box in zip(left, boxes):
            if box is not None:
                with np.errstate(invalid="ignore"):
                    mid = 0.5 * (box.lo + box.hi)
                kids, _ = branch(model, box, mid if x is None else x, slacks)
                if not kids:
                    # nothing branchable: the width floor is hit, the point
                    # is on the surface but gave no incumbent to fathom it,
                    # or the relaxation failed; no certificate, bound kept
                    floor = min(floor, node_lb)
                for kid in kids:
                    heapq.heappush(heap, (node_lb, counter, kid))
                    counter += 1
            if x is not None:
                trace.append((node, node_lb, ub_val()))

        if incumbent is not None and _rel_gap(global_lb(), ub_val()) <= gap_tol:
            return done(GLOBAL_OPTIMAL, global_lb())

    # the tree is exhausted or every open node is at the cutoff; without an
    # incumbent the heap is empty, so the bound is `floor`
    lb = global_lb()
    return done(GLOBAL_OPTIMAL if _rel_gap(lb, ub_val()) <= gap_tol
                else INFEASIBLE if incumbent is None and floor == math.inf
                else GAP_LIMIT, lb)
