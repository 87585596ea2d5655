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
rectangular feasibility check before it is accepted.  The polish is a
Newton power-flow core in numpy alone, with PV/PQ-style active-set switches
and a projected reduced-gradient cost descent.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import conic, jabr, tighten
from .network import Network, NetworkError, bus_gen_limits, tree_edges
from .tighten import NodeBox

GLOBAL_OPTIMAL = "global-optimal"
INFEASIBLE = "infeasible"
GAP_LIMIT = "gap-limit"
TIME_LIMIT = "time-limit"

_WIDTH_TOL = 1e-6   # interval width below which a variable is not branched
_FEAS_TOL = 1e-8    # rectangular violation accepted for an incumbent
# best-first nodes whose relaxations are solved together: on 2-3-bus nodes
# an IPM iteration costs ~0.45 ms however many members it holds and ~0.03 ms
# more per member, so a wider batch pays that fixed cost less often
_BATCH = 8


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
                    cuts=()) -> conic.Member:
    """The lifted model's program over the box (`conic.Member`) with the
    secant cuts (`tighten.Cut.row`), plus four rows per line on its four
    columns (`model.lines`), over the box gathered once on that table: two
    rows that outer-approximate the reverse side of its coupling, and its
    two lifted nonlinear cuts (`_lnc_rows`).  Every node of a search gets
    the same rows, so its members share one standard-form shape."""
    rows = [cut.row(model) for cut in cuts]
    # the rows are built line by line on floats: on the one- to three-line
    # networks that most nodes have, numpy arithmetic on arrays that short
    # costs several times as much
    for idx, lo, hi in zip(model.lines, box.lo[model.lines].tolist(),
                           box.hi[model.lines].tolist()):
        li, lj, lc, ls = lo
        ui, uj, uc, us = hi
        rhs_sec = -(lc * uc) - (ls * us)
        # McCormick underestimate of cii*cjj <= secants of c^2 + s^2
        rows.append((idx, [lj, li, -(lc + uc), -(ls + us)], li * lj + rhs_sec))
        rows.append((idx, [uj, ui, -(lc + uc), -(ls + us)], ui * uj + rhs_sec))
        rows += [(idx, coef, rhs) for coef, rhs in _lnc_rows(lo, hi)]
    return model.program.member(box.lo, box.hi, rows)


def _lnc_rows(lo, hi):
    """The two lifted nonlinear cuts of one line over its box, `lo` and
    `hi` on the line's columns (c_ii, c_jj, c, s), as (coefficients, rhs)
    of rows a'x <= rhs on those columns (Coffrin, Hijazi and Van
    Hentenryck, IEEE TPWRS 2017).

    With voltage magnitudes in [√l, √u] at each end and the angle of (c, s)
    in [θl, θu], which lies inside ±π/2 when lc > 0, every point of the
    surface c² + s² = c_ii·c_jj in the box meets both.  Where lc <= 0 the
    rows are 0 <= 1, which every point meets strictly, so the row count
    does not depend on the box."""
    li, lj, lc, ls = lo
    ui, uj, uc, us = hi
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
    variable's interval, whatever its value in `x`.  The candidates of a
    line are its four columns (`model.lines`: from-bus c_ii, to-bus c_ii,
    c and s), all scored at once; the first of the best-scored among those
    wider than the width floor is bisected.  Lines are tried in order of
    decreasing slack; no children when no line with positive slack has a
    column wider than the width floor."""
    lo, hi, xl = box.lo[model.lines], box.hi[model.lines], x[model.lines]
    # product gap scales with the partner value; secant gap is quadratic
    score = np.concatenate(
        [(hi[:, :2] - lo[:, :2]) * np.abs(xl[:, 1::-1]),
         (lo[:, 2:] + hi[:, 2:]) * xl[:, 2:] - lo[:, 2:] * hi[:, 2:]
         - xl[:, 2:] * xl[:, 2:]], axis=1)
    wide = hi - lo > _WIDTH_TOL
    score[~wide] = -np.inf
    for k in np.argsort(-slacks):
        if slacks[k] <= 0:
            break
        if not wide[k].any():
            continue
        v = model.lines[k, np.argmax(score[k])]
        split = 0.5 * (box.lo[v] + box.hi[v])
        left, right = box.copy(), box.copy()
        left.hi[v] = right.lo[v] = split
        return [left, right], (v, split)
    return [], None


# --------------------------------------------------------------- local polish
#
# The polish moves z = (|V| at every bus, angle at every bus but the slack).
# A bus's required generation is S(V) + S_d with S = V * conj(Y V).  The
# Newton core works on 3n quantities q = (|V|, required active generation,
# required reactive generation), each in bus order and each with a box: the
# voltage limits, a point for a pinned voltage, and the bus generation
# boxes.  Every quantity is held or free.  A held |V| is its entry of z, and
# a held row is the equation `required = target`.  The free |V| and the
# angles are solved for, as many as there are held rows, and a free row
# takes what the solution requires.

_BALANCE_TOL = 1e-10  # held-row residual and box excess of a core point
_NEWTON_ITERS = 30    # Newton iterations per solve of one active set
_DESCENT_ITERS = 30   # accepted cost steps per polish


@dataclass
class _Balance:
    """Network data of the polar balance rows, bus order."""
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


def _allocate(bal: _Balance, need: np.ndarray, base: np.ndarray):
    """Split required bus generation (2, buses), clipped to the bus boxes,
    across its units from the `base` split (2, generators), which lies in
    the unit boxes.  Each bus's shortfall from its summed base is shared by
    the room each unit has toward the bound it moves to, so a base that
    meets the requirement is kept, and a base at the floors gives the split
    pro rata by range.  Returns (pg, qg) and each unit's share `room /
    Σroom`, the slope of its output in the clipped requirement; where the
    base meets a requirement at the bus floor, the upward slope."""
    nb = need.shape[1]
    clipped = np.clip(need, bal.lo, bal.hi)
    short = clipped - np.array(
        [np.bincount(bal.gen_bus, row, nb) for row in base])
    up = (short > 0) | ((short == 0) & (clipped <= bal.lo))
    room = np.where(up[:, bal.gen_bus], bal.gen_hi - base, base - bal.gen_lo)
    total = np.array([np.bincount(bal.gen_bus, row, nb) for row in room])
    share = room / np.where(total > 0, total, 1.0)[:, bal.gen_bus]
    return base + short[:, bal.gen_bus] * share, share


def _cost_slope(bal: _Balance, need: np.ndarray, base: np.ndarray):
    """Cost of the generation allocated at `need` from `base`, and its
    slope in each bus's required active generation: each unit's marginal
    cost times its share of the bus."""
    (pg, _), share = _allocate(bal, need, base)
    c2, c1, c0 = bal.cost
    slope = np.bincount(bal.gen_bus, (2.0 * c2 * pg + c1) * share[0],
                        need.shape[1])
    return float(np.sum(c2 * pg * pg + c1 * pg + c0)), slope


@dataclass
class _Solved:
    """A point of the Newton core: z, its active set (`held` over the 3n
    quantities and `target` of the 2n rows, read where held), and the
    required generation and its derivative at z."""
    z: np.ndarray
    held: np.ndarray
    target: np.ndarray
    need: np.ndarray
    d_need: np.ndarray

    def quantities(self) -> np.ndarray:
        """q at z, a held row at its target."""
        n = len(self.held) // 3
        return np.concatenate([self.z[:n], np.where(
            self.held[n:], self.target, self.need.ravel())])


def _unknowns(held: np.ndarray, n: int):
    """Masks of the held rows (2n) and of the entries of z solved for."""
    return held[n:], np.concatenate([~held[:n], np.ones(n - 1, dtype=bool)])


def _newton(z, held, target, bal: _Balance) -> _Solved | None:
    """Damped Newton on the held rows over the free |V| and the angles,
    from z, on the exact Jacobian of `_required`.  Returns the point once
    every held row is within `_BALANCE_TOL` of its target, or None when a
    step halved 13 times still does not reduce the residual, the Jacobian
    is singular or the iterations run out."""
    n = len(bal.free) + 1
    rows, cols = _unknowns(held, n)
    need, d_need = _required(z, bal, jac=True)
    res = need.ravel()[rows] - target[rows]
    for _ in range(_NEWTON_ITERS):
        if np.max(np.abs(res), initial=0.0) <= _BALANCE_TOL:
            return _Solved(z, held, target, need, d_need)
        try:
            step = np.linalg.solve(d_need.reshape(2 * n, -1)[rows][:, cols],
                                   -res)
        except np.linalg.LinAlgError:
            return None
        norm, alpha = res @ res, 1.0
        while True:
            trial = z.copy()
            trial[cols] += alpha * step
            need, d_need = _required(trial, bal, jac=True)
            new = need.ravel()[rows] - target[rows]
            if new @ new <= (1.0 - 1e-4 * alpha) * norm:
                break
            alpha *= 0.5
            if alpha < 1e-4:
                return None
        z, res = trial, new
    return None


def _sensitivity(pt: _Solved):
    """Derivatives (3n, held) of every quantity in the held ones, with the
    free |V| and the angles moving so that the held rows stay met, and the
    positions of the held quantities.  A held row's own derivative is its
    unit column.  Raises LinAlgError when the Jacobian is singular."""
    n = len(pt.held) // 3
    rows, cols = _unknowns(pt.held, n)
    J = pt.d_need.reshape(2 * n, -1)
    H = np.flatnonzero(pt.held)
    hv = H < n
    T = np.zeros((2 * n - 1, len(H)))
    T[H[hv], np.flatnonzero(hv)] = 1.0
    rhs = np.hstack([J[rows][:, H[hv]], -np.eye(rows.sum())])
    T[cols] = -np.linalg.solve(J[rows][:, cols], rhs)
    return np.vstack([T[:n], J @ T]), H


def _core(z, held, target, box, bal: _Balance) -> _Solved | None:
    """The Newton core: solve the held rows (`_newton`); while a free
    quantity then lies outside its box by more than `_BALANCE_TOL`, hold
    the worst one at the bound it crossed, free the held quantity that can
    bring it furthest back inside its own box (the strongest among
    equals), and solve again.  This is a PV/PQ-style active-set switch;
    at most 3n are made.  Returns the solved point or None."""
    n = len(held) // 3
    lo, hi = box
    for _ in range(3 * n + 1):
        pt = _newton(z, held, target, bal)
        if pt is None:
            return None
        q = pt.quantities()
        over = np.where(held, 0.0, np.maximum(lo - q, q - hi))
        k = int(np.argmax(over))
        if over[k] <= _BALANCE_TOL:
            return pt
        bound = lo[k] if q[k] < lo[k] else hi[k]
        try:
            D, H = _sensitivity(pt)
        except np.linalg.LinAlgError:
            return None
        # the share of the way back to `bound` that each held quantity
        # makes, moving toward whichever of its bounds that needs
        room = np.where((bound - q[k]) * D[k] > 0, hi[H] - q[H], q[H] - lo[H])
        reach = np.minimum(np.abs(D[k]) * room / abs(bound - q[k]), 1.0)
        reach[(hi[H] <= lo[H]) | (np.abs(D[k]) < 1e-9)] = 0.0
        if reach.max() <= 0.0:
            return None
        c = H[np.lexsort((np.abs(D[k]), reach))[-1]]
        z, held, target = pt.z.copy(), held.copy(), target.copy()
        if k < n:
            z[k] = bound
        else:
            target[k - n] = bound
        held[k], held[c] = True, False
    return None


def _descend(pt: _Solved, box, bal: _Balance, base) -> _Solved:
    """Projected reduced-gradient descent of the allocated cost over the
    held quantities (after Dommel and Tinney, IEEE Trans. PAS 1968).  A
    trial moves them against the reduced gradient, the largest move
    `step`, clipped to their boxes; `_core` solves it, switching the active
    set where a free quantity leaves its box, and it is kept when its cost
    is lower by more than rounding.  The predicted decrease cannot gate it:
    a switch can undo part of the move.  The step doubles, up to 1, after
    a kept trial and is quartered after a refused one.  The descent stops
    when no trial is kept before the step or the predicted decrease is
    negligible, or after `_DESCENT_ITERS` kept trials."""
    n = len(pt.held) // 3
    lo, hi = box
    cost, slope = _cost_slope(bal, pt.need, base)
    step = 0.1
    for _ in range(_DESCENT_ITERS):
        try:
            D, H = _sensitivity(pt)
        except np.linalg.LinAlgError:
            break
        g = slope @ D[n:2 * n]
        h = pt.quantities()[H]
        d = np.where(hi[H] > lo[H], -g, 0.0)
        d[((h <= lo[H]) & (d < 0)) | ((h >= hi[H]) & (d > 0))] = 0.0
        big = np.max(np.abs(d), initial=0.0)
        hv = H < n
        kept = None
        while kept is None and big > 0.0 and step >= 1e-9:
            trial = np.clip(h + (step / big) * d, lo[H], hi[H])
            decrease = g @ (trial - h)
            if -decrease <= 1e-12 * (1.0 + abs(cost)):
                break
            z, target = pt.z.copy(), pt.target.copy()
            z[H[hv]], target[H[~hv] - n] = trial[hv], trial[~hv]
            new = _core(z, pt.held, target, box, bal)
            if new is not None:
                kept = (new, *_cost_slope(bal, new.need, base))
                if kept[1] >= cost - 1e-12 * (1.0 + abs(cost)):
                    kept = None
            step = min(2.0 * step, 1.0) if kept else 0.25 * step
        if kept is None:
            break
        pt, cost, slope = kept
    return pt


def _verified(net: Network, bal: _Balance, pt: _Solved, base: np.ndarray):
    """The operating point of the core's point `pt` with its generation
    allocated from the `base` split, if it passes the independent
    rectangular feasibility check at `_FEAS_TOL`."""
    n = net.num_buses
    vm, th = pt.z[:n], np.zeros(n)
    th[bal.free] = pt.z[n:]
    (pg, qg), _ = _allocate(bal, pt.need, base)
    check = jabr.evaluate_opf_point(net, vm * np.cos(th), vm * np.sin(th),
                                    pg, qg)
    if not check.feasible(_FEAS_TOL):
        return None
    return jabr.OpfSolution(bus_ids=[b.id for b in net.buses], vm=vm,
                            theta=th, pg=pg, qg=qg, objective=check.objective)


def local_polish(model: jabr.JabrModel,
                 x: np.ndarray) -> jabr.OpfSolution | None:
    """Project the point `x` of the lifted model `model` onto the feasible
    set and locally improve it; the search's only source of incumbents.

    The guided start z0 is |V| = √c_ii at every bus, with the angles of
    x's line pairs (c, s) summed along the tree (`jabr.tree_angles`).  A
    bus whose c_ii column has equal bounds in the model's program is
    pinned, since the model is built with its pins
    (`jabr.build_relaxation`), and its |V| is held at the root of the pin.
    The Newton core (`_core`) solves the balance rows from z0 with the
    slack bus's |V|, every pinned |V| and every other bus's generation
    held: the generation at its requirement at z0 clipped to the bus box,
    which `_allocate` splits among the bus's units.  The slack bus's
    generation and a pinned bus's reactive generation are free; where a
    pinned bus has no reactive room, the slack |V| is freed instead.  A
    projected reduced-gradient descent (`_descend`) then lowers the cost,
    each trial solved by the same core, so the point returned meets the
    balance rows within `_BALANCE_TOL`.  Generation is allocated from the
    point's own unit split (`pg`, `qg` clipped into the unit boxes, see
    `_allocate`), so units at one bus keep the relaxation's split up to the
    shift that the solved requirement asks.  When the guided start fails,
    the core is retried from a feeder-tilted voltage profile (voltage
    declining with depth from the slack).  Returns the point the core
    solved and the descent lowered if it passes the independent
    rectangular check at `_FEAS_TOL` (`_verified`), and None otherwise or
    when neither start solves.
    """
    net = model.net
    bal = _balance(net)
    n = net.num_buses
    pos = net.bus_index
    cols = [model.cii[b.id] for b in net.buses]
    cii = x[cols]
    base = np.clip([x[model.pg], x[model.qg]], bal.gen_lo, bal.gen_hi)
    vlo = np.array([b.vmin for b in net.buses])
    vhi = np.array([b.vmax for b in net.buses])
    lb = np.array(model.program.lb)[cols]
    pinned = lb == np.array(model.program.ub)[cols]
    vlo[pinned] = vhi[pinned] = np.sqrt(lb[pinned])
    box = (np.concatenate([vlo, bal.lo.ravel()]),
           np.concatenate([vhi, bal.hi.ravel()]))

    th0 = jabr.tree_angles(net, x[model.c], x[model.s])

    # the generation held at the guided start can lie beyond what any
    # voltage profile near it carries; then try a feeder-tilted profile
    depth = np.zeros(n)
    for i, j, _ in tree_edges(net, bal.slack):
        depth[pos[j]] = depth[pos[i]] + 1
    prof = depth / max(depth.max(), 1.0)
    frac = np.clip(0.55 - 0.5 * (prof - 0.5), 0.02, 0.98)
    guided = np.concatenate([np.clip(np.sqrt(np.maximum(cii, 1e-9)), vlo, vhi),
                             th0[bal.free]])
    tilted = np.concatenate([vlo + frac * (vhi - vlo), th0[bal.free]])

    # held: each pinned |V|, and every row but the slack bus's two and the
    # reactive row of a pinned bus with reactive room; the slack |V| too
    # when that makes the rows as many as the unknowns
    sk = pos[bal.slack]
    held = np.concatenate([pinned, np.ones(2 * n, dtype=bool)])
    held[2 * n:] &= ~(held[:n] & (bal.hi[1] > bal.lo[1]))
    held[[n + sk, 2 * n + sk]] = False
    if held[n:].sum() == (~held[:n]).sum() + n - 2:
        held[sk] = True
    if held[n:].sum() != (~held[:n]).sum() + n - 1:
        return None
    for z0 in (guided, tilted):
        target = np.clip(_required(z0, bal), bal.lo, bal.hi).ravel()
        pt = _core(z0, held, target, box, bal)
        if pt is not None:
            return _verified(net, bal, _descend(pt, box, bal, base), base)
    return None


# -------------------------------------------------------------- range reduction

def range_reduction(model: jabr.JabrModel, member: conic.Member, box: NodeBox,
                    cutoff: float, slacks: np.ndarray) -> NodeBox | None:
    """Optimization-based shrink of the intervals of the worst line of
    `box` (the largest entry of `slacks`) over its node relaxation `member`,
    under the cost cutoff when it is finite; returns None when the box
    empties.  `range_reduction_batch` of one node."""
    return range_reduction_batch(model, [(member, box, cutoff, slacks)])[0]


def range_reduction_batch(model: jabr.JabrModel,
                          jobs) -> list[NodeBox | None]:
    """Range reduction of several nodes of the lifted model `model`, each
    job a (member, box, cutoff, slacks) tuple with its `node_relaxation`;
    returns one reduced box per job, None where it empties.

    A finite cutoff appends the cost cap (`jabr.cost_cap`), padded up by
    ``1e-6 * (1 + |cutoff|)``; +inf appends none.  Every variable of the
    worst coupling in `slacks` wider than `_WIDTH_TOL` goes to one
    `tighten.shrink_batch` call that solves every direction of every node
    and cuts each interval to its directions' Lagrangian bounds, with no
    pad.  A box is updated after the sweep, not between solves, which
    keeps the sweep order-independent.
    """
    bounded = []
    for member, box, cutoff, slacks in jobs:
        if math.isfinite(cutoff):
            cap = jabr.cost_cap(model, cutoff + 1e-6 * (1 + abs(cutoff)))
            member = replace(member, rows=[*member.rows, cap])
        wide = []
        if len(model.lines):
            line = model.lines[np.argmax(slacks)]
            wide = line[box.hi[line] - box.lo[line] > _WIDTH_TOL].tolist()
        bounded.append((member, box, wide))
    return tighten.shrink_batch(bounded)


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
    node relaxation start from that one model, compiled once.

    Each node is a `NodeBox` over the lifted model's variables.  Up to
    `_BATCH` best-first nodes are popped together; a batch never takes more
    nodes than `node_limit` has left.  Interval propagation tightens each
    popped box's c_ii, c and s intervals (the unit bounds stay those of the
    units), and the boxes' relaxations are solved in one batched
    interior-point call under the cutoff (`conic.solve_batch`): a
    relaxation whose Lagrangian bound reaches the cutoff stops there, and
    `cutoff_stops` counts those.  A node's bound is the larger of its
    parent's and the largest Lagrangian bound of its relaxation's iterates
    (`ConicSolution.bound`), whatever the relaxation's status: +inf for a
    certified-infeasible relaxation, at or above the cutoff for one stopped
    there.  `root_lb` is the root's.  The batch then runs in three phases:

    1. Per node, in bound order: a node whose bound reaches the cutoff is
       dropped; the polish runs when one is due, and a bound that the
       polish's incumbent brought to the cutoff is fathomed.
    2. Every node still open is range-reduced in one call
       (`range_reduction_batch`) over its whole worst line, under the
       cutoff as phase 1 left it.
    3. Per node: a box emptied by the reduction is pruned; the others are
       bisected at the middle of one interval (`branch`) and their children
       pushed with the node's bound.

    Incumbents come only from `local_polish` of a node's relaxation point
    in the lifted model (node members have its columns), each a point
    its Newton core solved to `_BALANCE_TOL` that passes the rectangular
    check at `_FEAS_TOL`; a polished point is kept when it is cheaper than
    the incumbent.  A node whose relaxation point lies on the cone surface
    is polished at once.  Other nodes are polished when one is due: while
    there is no incumbent, a failed polish makes the next one wait
    `2**fails` nodes; once there is one, the polish runs at every 25th
    node.  A polish succeeds when it gives a new incumbent and fails
    otherwise.  Skipped polishes make no call; `polish_calls` counts the
    calls made and `polish_found` those that gave a new incumbent.

    A node whose relaxation ends without an answer goes through the same
    phases: it is range-reduced like any open node and, unless that
    certifies its box empty, branched blindly.  A node, solved or not, that
    is neither pruned, fathomed nor branchable keeps its bound in the
    reported lower bound, so the search then ends `gap-limit`.

    Infeasibility is declared only when bound tightening finds the
    relaxation empty before the first node (`nodes == 0`), or when the
    search's lower bound is +inf: the whole tree is exhausted with every
    leaf's bound +inf, emptied by interval propagation or emptied by range
    reduction.

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
            ub = incumbent.objective
            rg = 100.0 * (ub - root_lb) / abs(ub)
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
    heap = [(-math.inf, 0, root)]
    counter = 1

    def polish(x, exact):
        """Polish the point `x` if one is due: on the cone surface
        (`exact`) at once; otherwise, without an incumbent, 2**fails nodes
        after the last failure, and with one, every 25th node.  A polish
        succeeds when it gives a new incumbent."""
        nonlocal incumbent, polish_calls, polish_found, fails, next_polish
        if not exact and (nodes % 25 if incumbent is not None
                          else nodes < next_polish):
            return
        polish_calls += 1
        cand = local_polish(base, x)
        if cand is not None and cand.objective < ub_val():
            incumbent = cand
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
        members = [node_relaxation(base, box, cuts) for _, box in batch]
        sols = conic.solve_batch(members, cutoffs=[cutoff()] * len(members))

        # phase 1, per node in bound order: verdict, fathoming, incumbents;
        # `left` keeps (bound, box, member, x, slacks, node) of the nodes
        # still open, with x None where the IPM failed
        left = []
        for (lb_parent, box), member, sol in zip(batch, members, sols):
            nodes += 1
            cutoff_stops += sol.status == conic.CUTOFF
            node_lb = max(lb_parent, sol.bound)
            if root_lb is None:
                root_lb = node_lb
            if node_lb >= cutoff():
                continue
            x, slacks = None, np.ones(len(net.lines))
            if sol.optimal:
                x, slacks = sol.x, base.coupling_residuals(sol.x)
                polish(x, np.max(slacks, initial=0.0) <= jabr.EXACT_TOL)
                if node_lb >= cutoff():
                    trace.append((nodes, node_lb, ub_val()))
                    continue
            left.append((node_lb, box, member, x, slacks, nodes))

        # phase 2: one range-reduction call for the open nodes, under the
        # cutoff as phase 1 left it.  Cutoff-based reduction pays for itself
        # at every depth on these instance sizes.
        boxes = range_reduction_batch(base, [(m, box, cutoff(), slacks) for
                                             _, box, m, _, slacks, _ in left])

        # phase 3, per node: prune or branch.  An unresolved node is
        # branched blindly, scored at its box's middle; the free cost
        # epigraph has no middle, and `branch` does not read it.
        for (node_lb, _, _, x, slacks, node), box in zip(left, boxes):
            if box is not None:
                with np.errstate(invalid="ignore"):
                    mid = 0.5 * (box.lo + box.hi)
                kids, _ = branch(base, box, mid if x is None else x, slacks)
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
    # incumbent the heap is empty, so the bound is `floor`, +inf when no
    # node was dropped unbranched
    lb = global_lb()
    return done(GLOBAL_OPTIMAL if _rel_gap(lb, ub_val()) <= gap_tol
                else INFEASIBLE if lb == math.inf else GAP_LIMIT, lb)
