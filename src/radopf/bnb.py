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
_FEAS_TOL = 1e-6    # rectangular violation accepted for an incumbent


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


def _allocate(bal: _Balance, need: np.ndarray,
              base: np.ndarray | None = None) -> np.ndarray:
    """Split required bus generation (2, buses), clipped to the bus boxes,
    across its units; returns (pg, qg).  Each bus's shortfall from the
    `base` split (2, generators) is shared by the room each unit has toward
    its bound, so a base that meets the requirement is kept and the default
    base, every unit at its floor, gives the split pro rata by range."""
    base = bal.gen_lo if base is None else np.clip(base, bal.gen_lo, bal.gen_hi)
    nb = need.shape[1]
    short = np.clip(need, bal.lo, bal.hi) - np.array(
        [np.bincount(bal.gen_bus, row, nb) for row in base])
    room = np.where((short > 0)[:, bal.gen_bus], bal.gen_hi - base,
                    base - bal.gen_lo)
    total = np.array([np.bincount(bal.gen_bus, row, nb) for row in room])
    frac = short / np.where(total > 0, total, 1.0)
    return base + frac[:, bal.gen_bus] * room


def _gen_cost(bal: _Balance, pg: np.ndarray) -> float:
    c2, c1, c0 = bal.cost
    return float(np.sum(c2 * pg * pg + c1 * pg + c0))


def _alloc_cost(z: np.ndarray, bal: _Balance) -> float:
    return _gen_cost(bal, _allocate(bal, _required(z, bal))[0])


def _penalized(z: np.ndarray, bal: _Balance, rho: float):
    """alloc_cost + rho·‖r‖² and its gradient: the cost slope through the
    pro-rata split (nonzero only where a bus's required active generation
    lies strictly inside its box) plus 2·rho·Jᵀr.  A residual is zero
    where its row of J is, so Jᵀr needs no mask."""
    need, d_need = _required(z, bal, jac=True)
    r = need - np.clip(need, bal.lo, bal.hi)
    pg = _allocate(bal, need)[0]
    p = need[0]
    inside = ((p > bal.lo[0]) & (p < bal.hi[0]))[bal.gen_bus]
    share = inside * (bal.gen_hi[0] - bal.gen_lo[0]) / np.where(
        inside, (bal.hi[0] - bal.lo[0])[bal.gen_bus], 1.0)
    c2, c1, _ = bal.cost
    w = 2.0 * rho * r
    w[0] += np.bincount(bal.gen_bus, (2.0 * c2 * pg + c1) * share, len(p))
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


def _push(z0, bal: _Balance, bounds, tol: float, max_nfev: int):
    """Least-squares push of z0 onto the clipped balance equations; the
    end point if every residual is within 10·tol, else None."""
    fit = sopt.least_squares(_residuals, z0, jac=_residual_jacobian,
                             bounds=bounds, args=(bal,), xtol=1e-14,
                             ftol=1e-14, gtol=1e-14, max_nfev=max_nfev)
    return fit.x if np.max(np.abs(fit.fun)) <= 10 * tol else None


def _verified(net: Network, bal: _Balance, z, tol: float, base=None):
    """The operating point of z with its generation allocated (from the
    `base` split, if given), if it passes the rectangular feasibility check
    at `tol`."""
    n = net.num_buses
    vm, th = z[:n], np.zeros(n)
    th[bal.free] = z[n:]
    pg, qg = _allocate(bal, _required(z, bal), base)
    check = jabr.evaluate_opf_point(net, vm * np.cos(th), vm * np.sin(th),
                                    pg, qg)
    if not check.feasible(tol):
        return None
    return jabr.OpfSolution(bus_ids=[b.id for b in net.buses], vm=vm,
                            theta=th, pg=pg, qg=qg, objective=check.objective)


def _settle(net: Network, opf: jabr.OpfSolution, bal: _Balance,
            fixed_voltage: dict[int, float] | None = None) -> jabr.OpfSolution | None:
    """Push a point recovered from a (nearly) exact relaxation onto the
    balance equations.  A recovered point meets them only to the coupling
    slack of its relaxation, and its cost can lie below the optimum by more
    than that.  Only the voltages move; the units keep the relaxation's
    split, which is cost-optimal between units at a bus, up to the small
    shift that the settled requirement asks.  The settled point is verified
    like a polished one."""
    lb, ub = _z_bounds(net, fixed_voltage)
    z0 = np.clip(np.concatenate([opf.vm, opf.theta[bal.free]]),
                 lb + 1e-12, ub - 1e-12)
    try:
        z = _push(z0, bal, (lb, ub), _FEAS_TOL, 200)
    except ValueError:  # also numpy's LinAlgError
        return None
    return None if z is None else _verified(
        net, bal, z, _FEAS_TOL, np.array([opf.pg, opf.qg]))


def local_polish(net: Network, point: dict, *, cost_pass: bool = True,
                 multistart: bool = True, tol: float = _FEAS_TOL,
                 fixed_voltage: dict[int, float] | None = None,
                 bal: _Balance | None = None) -> jabr.OpfSolution | None:
    """Project a relaxation point onto the feasible set and locally improve.

    Lines are rescaled radially onto the cone surface, angles recovered along
    the tree, then (|V|, angle) are adjusted: first a least-squares push onto
    the balance equations (clamped to the bus generation boxes), optionally a
    penalized cost descent (L-BFGS-B), and a final cleanup.  Every step is
    given exact derivatives: the Jacobian of the clipped residuals and the
    gradient of the penalized cost (see `_penalized`).  With `multistart`
    the push is retried from eight flat and feeder-tilted voltage profiles
    when the guided start fails.  `bal` is the network's `_balance`, built
    here when not given.  Returns a verified feasible point or None.
    """
    bal = bal if bal is not None else _balance(net)
    n = net.num_buses
    pos = net.bus_index
    lb, ub = _z_bounds(net, fixed_voltage)

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
    edges = tree_edges(net, bal.slack)
    th0 = np.zeros(n)
    for i, j, k in edges:
        d = math.atan2(s[k], c[k])
        th0[pos[j]] = th0[pos[i]] + d if net.lines[k].from_bus == i else th0[pos[i]] - d

    vmin, vmax = lb[:n], ub[:n]
    starts = [np.clip(np.concatenate([vm0, th0[bal.free]]), lb + 1e-12, ub - 1e-12)]
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
            starts.append(np.concatenate([vmin + frac * (vmax - vmin),
                                          th0[bal.free]]))

    z = None
    for z0 in starts:
        try:
            z = _push(z0, bal, (lb, ub), tol, 200)
        except Exception:
            continue
        if z is not None:
            break
    if z is None:
        return None

    if cost_pass:
        cost = _alloc_cost(z, bal)
        rho = 1e5 * (1.0 + abs(cost))
        try:
            imp = sopt.minimize(_penalized, z, args=(bal, rho), jac=True,
                                method="L-BFGS-B", bounds=list(zip(lb, ub)),
                                options={"maxiter": 60})
            z2 = _push(imp.x, bal, (lb, ub), tol, 150)
            if z2 is not None and _alloc_cost(z2, bal) < cost:
                z = z2
        except Exception:
            pass
    return _verified(net, bal, z, tol)


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
    polish_calls: int = 0     # local_polish calls made by the search
    polish_found: int = 0     # of which returned a verified point

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

    Incumbents come from three places.  A node whose relaxation point lies
    on the cone surface is recovered and pushed onto the balance equations
    (`_settle`), keeping the relaxation's split between units at a bus; the
    raw recovered point is tried when the push fails.  Neither is tried
    when the recovered cost cannot beat the incumbent.  Other nodes are
    polished by `local_polish` when one is due.  A polish succeeds when it
    gives a new incumbent and fails otherwise.  While there is no
    incumbent, a failed polish makes the next one wait `2**fails` nodes;
    once there is one, the polish runs at every 25th node.  Multistart
    runs only while no polish has failed since the start or the last
    success: a point no better than the incumbent does not pay for eight
    more starts.  Skipped polishes make no call; `polish_calls` and
    `polish_found` count the calls made and the points they returned.

    A node whose relaxation ends without an answer is range-reduced under
    the cutoff when there is an incumbent: it is pruned if that certifies
    its box empty, and otherwise branched blindly with its parent's bound.

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

    polish_calls = polish_found = 0

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
                         preprocess_time=pre_time, trace=trace,
                         polish_calls=polish_calls, polish_found=polish_found)

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
    bal = _balance(net)
    root = NodeBox.root(net, var_bounds, fixed_voltage)
    heap = [(-math.inf, 0, root, 0)]
    counter = 1
    incumbent: jabr.OpfSolution | None = None
    nodes = 0
    root_lb = None
    trace = []
    exhausted_clean = True
    fails = 0         # failed polishes since the start or the last success
    next_polish = 0   # node count from which a polish is due again

    def ub_val():
        return incumbent.objective if incumbent is not None else math.inf

    def cutoff():
        """Bound at or above which a node cannot improve the incumbent by
        more than the gap tolerance."""
        return ub_val() - gap_tol * max(abs(ub_val()), 1e-9)

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
        if not check.feasible(_FEAS_TOL):
            return
        if fixed_voltage:
            pos = net.bus_index
            for b_id, pin in fixed_voltage.items():
                if abs(cand.vm[pos[b_id]] ** 2 - pin) > 1e-7:
                    return
        if incumbent is None or cand.objective < incumbent.objective:
            incumbent = cand

    def polish(point):
        """Polish `point` if one is due: without an incumbent, 2**fails
        nodes after the last failure; with one, every 25th node.  A polish
        succeeds when it gives a new incumbent; only one with no failure
        since the start or the last success multistarts."""
        nonlocal polish_calls, polish_found, fails, next_polish
        if incumbent is not None:
            if nodes % 25:
                return
        elif nodes < next_polish:
            return
        polish_calls += 1
        cand = local_polish(net, point, multistart=fails == 0,
                            fixed_voltage=fixed_voltage, bal=bal)
        polish_found += cand is not None
        best = incumbent
        consider(cand)
        if incumbent is not best:
            fails = 0
        else:
            fails += 1
            next_polish = nodes + 2 ** fails

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
            if lb_parent >= cutoff():
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
                # unresolved node: prune it if range reduction certifies
                # its box empty under the cutoff, else keep searching below
                # it, bound unchanged
                if incumbent is not None:
                    box = range_reduction(model, box, cutoff(),
                                          np.ones(len(net.lines)),
                                          feastol=feastol, gaptol=gaptol)
                    if box is None:
                        continue
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
            if node_lb >= cutoff():
                continue

            point = model.point(sol.x)
            slacks = _coupling_slacks(net, point)
            worst = float(np.max(slacks, initial=0.0))

            if worst <= _EXACT_TOL:
                # point is on the cone surface: recover and fathom
                try:
                    opf = jabr.recover_angles(net, model, sol,
                                              tol=10 * _EXACT_TOL)
                    if opf.objective < ub_val():
                        consider(_settle(net, opf, bal, fixed_voltage) or opf)
                except ValueError:
                    pass
                if incumbent is None:
                    polish(point)
                if incumbent is not None and incumbent.objective <= node_lb \
                        + gap_tol * max(1.0, abs(node_lb)):
                    trace.append((nodes, node_lb, ub_val()))
                    continue
                # recovery failed numerically; keep branching below

            else:
                polish(point)

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
