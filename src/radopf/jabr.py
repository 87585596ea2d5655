"""Cosine/sine lifting of AC OPF on radial networks.

The lifting replaces rectangular voltage products with per-bus variables
``c_ii = |V_i|^2`` and per-line pairs ``c_ij = |V_i||V_j|cos(t_i - t_j)``,
``s_ij = |V_i||V_j|sin(t_i - t_j)``; power balance becomes linear and all
nonconvexity collapses into the coupling ``c_ij^2 + s_ij^2 = c_ii c_jj``.
Relaxing the coupling to ``<=`` yields the SOCP solved here.  On trees an
exact (surface) solution can be mapped back to bus voltages and angles.

The quadratic part of the generation cost is a model variable t, the last
one, with cost 1 and the epigraph cone ``t >= sum_k c2_k pg_k^2``
(`conic.ConicProgram.epigraph_cone`); the program's objective is linear, and
a cost cap is the single row ``sum_k c1_k pg_k + t <= cap - sum_k c0_k``.

One directed variable pair is created per line; the mirrored orientation is
implied by ``c_ji = c_ij`` and ``s_ji = -s_ij`` at model-build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conic
from .network import Network, admittance, tree_edges

EXACT_TOL = 1e-6   # relative coupling slack accepted as on the surface


@dataclass
class JabrModel:
    """Variable layout of the lifted program for one network."""
    net: Network
    program: conic.ConicProgram
    pg: list[int]          # per generator
    qg: list[int]
    cii: dict[int, int]    # bus id -> variable
    c: list[int]           # per line, oriented from->to
    s: list[int]
    t: int | None          # cost epigraph, None when every cost is linear
    # read-only (lines, 4) table: row k holds line k's from-bus c_ii,
    # to-bus c_ii, c and s
    lines: np.ndarray

    def coupling_residuals(self, x: np.ndarray) -> np.ndarray:
        """Relative slack of c^2 + s^2 = cii*cjj per line (>=0 inside cone)."""
        xi, xj, xc, xs = x[self.lines].T
        prod = xi * xj
        return (prod - xc ** 2 - xs ** 2) / np.maximum(prod, 1e-12)


def checked_pins(net: Network,
                 fixed_voltage: dict[int, float] | None) -> dict[int, float]:
    """The pins {bus id: squared voltage} as floats; raises ValueError for
    a bus that is not in the network or a pin outside the bus's
    [vmin², vmax²]."""
    pins = {}
    for b_id, pin in (fixed_voltage or {}).items():
        if b_id not in net.bus_index:
            raise ValueError(f"fixed voltage for bus {b_id}, which is not "
                             "in the network")
        bus = net.bus(b_id)
        pins[b_id] = float(pin)
        if not bus.vmin ** 2 <= pins[b_id] <= bus.vmax ** 2:
            raise ValueError(f"fixed voltage {pin} at bus {b_id} is outside "
                             f"[{bus.vmin ** 2}, {bus.vmax ** 2}]")
    return pins


def build_relaxation(net: Network, *,
                     fixed_voltage: dict[int, float] | None = None) -> JabrModel:
    """SOCP relaxation of the lifted OPF for a radial network.

    fixed_voltage pins squared voltage magnitudes {bus id: c_ii}; a pin for
    a bus that is not in the network, or outside the bus's [vmin², vmax²],
    raises ValueError.

    Each line's c and s have no bounds, only the range |c|, |s| <=
    Vi_max·Vj_max (`ConicProgram.ranges`) that the cone c² + s² <= c_ii·c_jj
    and the c_ii bounds imply: as rows that box would never bind and only
    slow the interior-point method, while the range makes the Lagrangian
    bound finite.  Bound tightening starts from it (`tighten.NodeBox.of`).
    """
    net.require_radial()
    G, B = admittance(net)
    pins = checked_pins(net, fixed_voltage)
    prog = conic.ConicProgram()

    pg, qg = [], []
    for k, gen in enumerate(net.generators):
        pg.append(prog.add_var(f"pg{k}", gen.pmin, gen.pmax,
                               cost=gen.cost.c1))
        qg.append(prog.add_var(f"qg{k}", gen.qmin, gen.qmax))
        prog.cost_const += gen.cost.c0

    cii = {}
    for bus in net.buses:
        lo, hi = bus.vmin ** 2, bus.vmax ** 2
        if bus.id in pins:
            lo = hi = pins[bus.id]
        cii[bus.id] = prog.add_var(f"c[{bus.id}]", lo, hi)

    c, s = [], []
    for ln in net.lines:
        c.append(prog.add_var(f"c[{ln.from_bus},{ln.to_bus}]"))
        s.append(prog.add_var(f"s[{ln.from_bus},{ln.to_bus}]"))
        r = net.bus(ln.from_bus).vmax * net.bus(ln.to_bus).vmax
        prog.ranges[c[-1]] = prog.ranges[s[-1]] = (-r, r)

    quads = [(v, gen.cost.c2) for v, gen in zip(pg, net.generators)
             if gen.cost.c2 > 0]
    t = prog.add_var("cost_epi", cost=1.0) if quads else None

    # flow balance; the j==i admittance term sits on c_ii
    for bi, bus in enumerate(net.buses):
        p_idx, p_coef = [cii[bus.id]], [-G[bi, bi]]
        q_idx, q_coef = [cii[bus.id]], [B[bi, bi]]
        for k in net.incident_lines[bus.id]:
            ln = net.lines[k]
            sign = 1.0 if bus.id == ln.from_bus else -1.0
            p_idx += [c[k], s[k]]
            p_coef += [-ln.g, sign * ln.b]
            q_idx += [c[k], s[k]]
            q_coef += [ln.b, sign * ln.g]
        for gk in net.generators_at(bus.id):
            p_idx.append(pg[gk])
            p_coef.append(1.0)
            q_idx.append(qg[gk])
            q_coef.append(1.0)
        prog.add_eq(p_idx, p_coef, bus.pd)
        prog.add_eq(q_idx, q_coef, bus.qd)

    lines = [(cii[ln.from_bus], cii[ln.to_bus], c[k], s[k])
             for k, ln in enumerate(net.lines)]
    for vi, vj, vc, vs in lines:
        prog.add_rotated_cone(vi, vj, [vc, vs])
    lines = np.array(lines, dtype=int).reshape(-1, 4)
    lines.flags.writeable = False
    if quads:
        prog.epigraph_cone(t, quads)

    return JabrModel(net=net, program=prog, pg=pg, qg=qg, cii=cii, c=c, s=s,
                     t=t, lines=lines)


# ------------------------------------------------------------------ exactness

@dataclass
class Exactness:
    exact: bool
    max_residual: float

    def __str__(self):
        tag = "exact" if self.exact else "inexact"
        return f"{tag}(max residual {self.max_residual:.3e})"


def check_exactness(model: JabrModel, sol: conic.ConicSolution) -> Exactness:
    """Exact iff every line sits on the cone surface to relative
    `EXACT_TOL`."""
    if not sol.optimal:
        raise ValueError(f"exactness undefined for status {sol.status}")
    worst = float(np.max(model.coupling_residuals(sol.x), initial=0.0))
    return Exactness(exact=worst <= EXACT_TOL, max_residual=worst)


# -------------------------------------------------------------- opf solutions

@dataclass
class OpfSolution:
    """Feasible rectangular operating point with its lifted image."""
    bus_ids: list[int]
    vm: np.ndarray
    theta: np.ndarray
    pg: np.ndarray
    qg: np.ndarray
    objective: float

    @property
    def e(self) -> np.ndarray:
        return self.vm * np.cos(self.theta)

    @property
    def f(self) -> np.ndarray:
        return self.vm * np.sin(self.theta)


def _slack_bus(net: Network) -> int:
    gen_buses = sorted({g.bus for g in net.generators})
    return gen_buses[0] if gen_buses else net.buses[0].id


def tree_angles(net: Network, c, s) -> np.ndarray:
    """Bus angles, in bus order, of the per-line pairs (c, s): the tree is
    walked from the slack bus (lowest generator bus id, angle 0), and each
    line adds atan2(s, c) from its from-bus to its to-bus.  A bus the walk
    does not reach gets NaN."""
    pos = net.bus_index
    theta = np.full(net.num_buses, np.nan)
    slack = _slack_bus(net)
    theta[pos[slack]] = 0.0
    for i, j, k in tree_edges(net, slack):
        # flow-balance rows imply s = v_f v_t sin(t_to - t_from)
        delta = math.atan2(s[k], c[k])
        theta[pos[j]] = theta[pos[i]] + delta if net.lines[k].from_bus == i else theta[pos[i]] - delta
    return theta


def recover_angles(net: Network, model: JabrModel,
                   sol: conic.ConicSolution) -> OpfSolution:
    """Map an exact (surface) relaxation solution back to voltages/angles
    (`tree_angles`).  Inexact solutions are refused: off the cone surface
    the lifted point has no consistent voltage phasor.
    """
    ex = check_exactness(model, sol)
    if not ex.exact:
        raise ValueError(f"cannot recover angles from inexact solution ({ex})")
    x = sol.x
    ids = [b.id for b in net.buses]
    vm = np.array([math.sqrt(max(x[model.cii[b]], 0.0)) for b in ids])
    theta = tree_angles(net, x[model.c], x[model.s])

    pg = x[model.pg].copy()
    qg = x[model.qg].copy()
    obj = sum(g.cost.value(p) for g, p in zip(net.generators, pg))
    return OpfSolution(bus_ids=ids, vm=vm, theta=theta, pg=pg, qg=qg,
                       objective=obj)


@dataclass
class OpfResiduals:
    """Constraint-family violations of a rectangular candidate point."""
    flow_p: np.ndarray
    flow_q: np.ndarray
    voltage: np.ndarray
    gen_bounds: np.ndarray
    objective: float

    @property
    def max_violation(self) -> float:
        """Largest violation over the families; a residual that is not
        finite (a NaN from a NaN coordinate) reads as an infinite one."""
        parts = np.concatenate((np.abs(self.flow_p), np.abs(self.flow_q),
                                self.voltage, self.gen_bounds))
        if not np.all(np.isfinite(parts)):
            return math.inf
        return float(np.max(parts, initial=0.0))

    def feasible(self, tol: float = 1e-6) -> bool:
        return self.max_violation <= tol


def evaluate_opf_point(net: Network, e: np.ndarray, f: np.ndarray,
                       pg: np.ndarray, qg: np.ndarray) -> OpfResiduals:
    """Independent feasibility oracle on the rectangular formulation.

    Computes bus injections from the complex nodal equations and reports the
    violation of every constraint family; used to vet every claimed feasible
    point in the repo, independently of any solver.
    """
    G, B = admittance(net)
    V = np.asarray(e, dtype=float) + 1j * np.asarray(f, dtype=float)
    S = V * np.conj((G + 1j * B) @ V)
    pg = np.asarray(pg, dtype=float)
    qg = np.asarray(qg, dtype=float)

    flow_p = np.empty(net.num_buses)
    flow_q = np.empty(net.num_buses)
    volt = np.empty(net.num_buses)
    for k, bus in enumerate(net.buses):
        gidx = net.generators_at(bus.id)
        flow_p[k] = pg[gidx].sum() - bus.pd - S[k].real
        flow_q[k] = qg[gidx].sum() - bus.qd - S[k].imag
        v2 = abs(V[k]) ** 2
        volt[k] = max(bus.vmin ** 2 - v2, v2 - bus.vmax ** 2, 0.0)

    gb = np.zeros(max(len(net.generators), 1))
    for k, g in enumerate(net.generators):
        gb[k] = np.max([g.pmin - pg[k], pg[k] - g.pmax,
                        g.qmin - qg[k], qg[k] - g.qmax, 0.0])
    obj = sum(g.cost.value(p) for g, p in zip(net.generators, pg))
    return OpfResiduals(flow_p=flow_p, flow_q=flow_q, voltage=volt,
                        gen_bounds=gb[:len(net.generators)], objective=obj)


# ----------------------------------------------------------- full solve suite

@dataclass
class RelaxationResult:
    model: JabrModel
    solution: conic.ConicSolution
    exactness: Exactness | None = None
    opf: OpfSolution | None = None
    refined: conic.ConicSolution | None = None
    ipm_iterations: int = 0   # first solve plus the refine solve, if run

    @property
    def status(self) -> str:
        return self.solution.status

    @property
    def objective(self) -> float | None:
        return self.solution.objective

    @property
    def verdict(self) -> str:
        if not self.solution.optimal:
            return self.solution.status
        return "exact" if (self.opf is not None) else "inexact"


def cost_cap(model: JabrModel, cap: float):
    """The row, as (idx, coef, rhs) of a'x <= rhs (`conic.Member`), that
    holds the program's own objective (c1 on each unit, 1 on the cost
    epigraph t, the constant sum of c0) at or below cap."""
    prog = model.program
    idx = np.flatnonzero(prog.cost)
    return idx, np.asarray(prog.cost)[idx], cap - prog.cost_const


def solve_relaxation(net: Network, *, refine: bool = True,
                     fixed_voltage: dict[int, float] | None = None
                     ) -> RelaxationResult:
    """Solve the SOCP relaxation, then try to certify it exact.

    The relaxation optimum can sit on a face whose interior points are off
    the cone surface even when an exact optimum exists.  When the first solve
    is inexact we re-solve lexicographically - cost capped at the optimum,
    total squared voltage minimized - which slides along the optimal face
    toward the surface (the program with the `cost_cap` row appended);
    exactness is then re-checked on that point.  The verdict is `exact`
    only when a recovered point actually exists.  Exactness is judged at
    `check_exactness`'s tolerance.
    """
    model = build_relaxation(net, fixed_voltage=fixed_voltage)
    sol = conic.solve(model.program)
    res = RelaxationResult(model=model, solution=sol,
                           ipm_iterations=sol.iterations)
    if not sol.optimal:
        return res
    res.exactness = check_exactness(model, sol)
    use = sol
    if not res.exactness.exact and refine:
        cap = sol.objective + 1e-7 * (1.0 + abs(sol.objective))
        override = np.zeros(model.program.num_vars)
        override[list(model.cii.values())] = 1.0
        sol2 = conic.solve(model.program.member(rows=[cost_cap(model, cap)]),
                           objective_override=override)
        res.ipm_iterations += sol2.iterations
        if sol2.optimal:
            ex2 = check_exactness(model, sol2)
            if ex2.exact:
                res.refined, res.exactness, use = sol2, ex2, sol2
    if res.exactness.exact:
        res.opf = recover_angles(net, model, use)
    return res
