"""Closed-form analysis of the two-bus one-generator system.

With a generator at bus 1, a load at bus 2 and a linear cost, eliminating the
four balance equations projects the feasible set onto the (c11, c22) plane:
OPF points live on the hyperbola (c22 - beta)^2 + alpha^2 = c11*c22, the SOCP
relaxation fills the region on its upper-left side, voltage bounds box the
plane, and the generator lower bounds translate into a single effective lower
bound Delta on the difference c11 - c22.  Every approximation outcome of the
relaxation - exact, inexact with a closed-form gap, or feasible while OPF is
infeasible - is decided by where that line cuts the hyperbola and the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import conic, jabr
from .network import Bus, CostFunction, Generator, Line, Network

INF = float("inf")

EXACT = "exact"
INEXACT = "inexact"
OPF_INFEASIBLE = "opf-infeasible-socp-feasible"
BOTH_INFEASIBLE = "both-infeasible"


@dataclass(frozen=True)
class TwoBusInstance:
    """Line admittance entries (g < 0, b > 0), load, generator lower bounds,
    squared-voltage boxes, and the linear cost coefficient in $/p.u."""
    g: float
    b: float
    pd: float
    qd: float
    pmin: float = -INF
    qmin: float = -INF
    c11_min: float = 0.81
    c11_max: float = 1.21
    c22_min: float = 0.81
    c22_max: float = 1.21
    cost: float = 1.0
    pmax: float = INF
    qmax: float = INF

    def __post_init__(self):
        if not np.isfinite([self.g, self.b, self.pd, self.qd, self.cost]).all():
            raise ValueError("g, b, pd, qd and cost must be finite")
        # a unit bound may be infinite; a NaN one fails the test too
        if not (self.pmin <= self.pmax and self.qmin <= self.qmax):
            raise ValueError("unit bounds must be ordered numbers")
        if self.g >= 0:
            raise ValueError("need g < 0 (resistive series branch)")
        if self.b == 0:
            raise ValueError("need b != 0")
        if self.cost <= 0:
            raise ValueError("linear cost coefficient must be positive")
        if not (0 < self.c11_min <= self.c11_max and 0 < self.c22_min <= self.c22_max):
            raise ValueError("squared-voltage bounds must be ordered and positive")

    def mirrored(self) -> "TwoBusInstance":
        """Equivalent instance with b > 0 (conjugate the network: reactive
        quantities flip sign, so the q lower bound comes from -qmax)."""
        return replace(self, b=-self.b, qd=-self.qd,
                       qmin=-self.qmax, qmax=-self.qmin)

    def to_network(self) -> Network:
        """Equivalent 2-bus Network (for cross-checks against the solvers).

        An absent unit bound becomes a ±1e6 stand-in, because the global
        search (`bnb.solve_global`) needs a finite box on every unit.
        `grid_oracle` does not use the stand-ins: it solves the relaxation
        on the instance's own bounds.  An infinite `c11_max` or `c22_max`
        is refused (`NetworkError`): a bus needs a finite voltage limit."""
        den = self.g ** 2 + self.b ** 2
        r, x = -self.g / den, self.b / den
        return Network(
            buses=(Bus(1, vmin=math.sqrt(self.c11_min), vmax=math.sqrt(self.c11_max)),
                   Bus(2, vmin=math.sqrt(self.c22_min), vmax=math.sqrt(self.c22_max),
                       pd=self.pd, qd=self.qd)),
            generators=(Generator(1, pmin=max(self.pmin, -1e6), pmax=min(self.pmax, 1e6),
                                  qmin=max(self.qmin, -1e6), qmax=min(self.qmax, 1e6),
                                  cost=CostFunction(c1=self.cost)),),
            lines=(Line(1, 2, r=r, x=x),),
            name="twobus")


@dataclass
class TwoBusClassification:
    alpha: float
    beta: float
    delta: float
    verdict: str
    case_label: int | None = None
    gap: float | None = None
    opf_value: float | None = None
    socp_value: float | None = None
    c_o: tuple[float, float] | None = None
    c_r: tuple[float, float] | None = None
    c_e: tuple[float, float] | None = None
    c_l: tuple[float, float] | None = None
    c_i: tuple[float, float] | None = None
    degenerate: bool = False
    mirrored: bool = False
    notes: list[str] = field(default_factory=list)
    upper_bound_caveat: bool = False


def alpha_beta(inst: TwoBusInstance) -> tuple[float, float]:
    """Constants of the eliminated balance system for fixed admittance/load."""
    den = inst.b ** 2 + inst.g ** 2
    return ((inst.b * inst.pd + inst.g * inst.qd) / den,
            (inst.g * inst.pd - inst.b * inst.qd) / den)


def _generation(inst: TwoBusInstance, a: float, be: float, diff):
    """(p1g, q1g) on the eliminated system at c11 - c22 = diff, for the
    instance's constants (a, be) = `alpha_beta(inst)`."""
    return (-inst.g * diff - inst.g * be + inst.b * a,
            inst.b * diff + inst.b * be + inst.g * a)


def _curve(a: float, be: float, c22):
    """c11 along the OPF-feasible curve of the constants (a, be)."""
    return c22 - 2.0 * be + (a * a + be * be) / c22


def back_substitute(inst: TwoBusInstance, c11, c22):
    """Recover (p1g, q1g, c12, s12) on the eliminated system from (c11, c22)."""
    a, be = alpha_beta(inst)
    s12 = -a * np.ones_like(np.asarray(c22, dtype=float))
    c12 = np.asarray(c22, dtype=float) - be
    p1g, q1g = _generation(inst, a, be, np.asarray(c11, dtype=float) - c22)
    if np.ndim(c11) == 0:
        return float(p1g), float(q1g), float(c12), float(s12)
    return p1g, q1g, c12, s12


def effective_delta(inst: TwoBusInstance) -> float:
    """Binding translate of c11 - c22 >= Delta induced by pmin/qmin."""
    a, be = alpha_beta(inst)
    cands = []
    if inst.pmin > -INF:
        cands.append((inst.pmin + inst.g * be - inst.b * a) / (-inst.g))
    if inst.qmin > -INF:
        cands.append((inst.qmin - inst.b * be - inst.g * a) / inst.b)
    return max(cands) if cands else -INF


def hyperbola_c11(inst: TwoBusInstance, c22):
    """c11 along the OPF-feasible curve for c22 > 0."""
    return _curve(*alpha_beta(inst), np.asarray(c22, dtype=float))


def _socp_feasible(inst: TwoBusInstance, delta: float) -> bool:
    """Does any box point satisfy both c11 >= hyperbola(c22) and the
    difference bound?  The curve is convex in c22, so check its minimum over
    the admissible c22 range."""
    a, be = alpha_beta(inst)
    hi = min(inst.c22_max, inst.c11_max - delta) if delta > -INF else inst.c22_max
    if hi < inst.c22_min:
        return False
    c22_star = min(max(math.sqrt(a * a + be * be), inst.c22_min), hi)
    if c22_star <= 0:
        c22_star = min(inst.c22_min, hi)
    return float(hyperbola_c11(inst, c22_star)) <= inst.c11_max + 1e-15


def _crossings(be: float, m2: float, c11: float):
    """The two c22, smaller first, where the curve of the constants
    (a, be), with m2 = a² + be², meets the line at `c11`; None where the
    line misses the curve."""
    disc = (2 * be + c11) ** 2 - 4 * m2
    if disc < 0:
        return None
    root = math.sqrt(disc)
    return (2 * be + c11 - root) / 2, (2 * be + c11 + root) / 2


_TIE = 1e-11  # ties on decision inequalities resolve toward `exact`


def classify(inst: TwoBusInstance) -> TwoBusClassification:
    """Closed-form approximation outcome of the SOCP relaxation.

    Both problems reduce to the difference d = c11 - c22: the cost is an
    increasing affine function of d, the relaxation attains the smallest d
    reachable in the boxed region on the upper-left side of the feasible
    curve, and OPF attains the smallest d on the curve itself.  The five
    case labels follow the canonical panel order of the boxed geometry:
    (1) difference bound slack at the unconstrained optimum, (2) bound line
    misses the curve above the voltage box, (3) bound line meets the curve
    inside the box, (4) curve re-entry below the box, (5) finite gap with
    the OPF optimum pinned at the c11 lower bound.  Configurations where
    the relaxation optimizer is a box corner off the curve (possible under
    wide boxes/large loads) fall outside that catalogue; they are resolved
    by the same difference comparison and carry ``case_label=None``.
    """
    if inst.b < 0:
        out = classify(inst.mirrored())
        out.mirrored = True
        return out

    a, be = alpha_beta(inst)
    delta = effective_delta(inst)
    cls = TwoBusClassification(alpha=a, beta=be, delta=delta, verdict=BOTH_INFEASIBLE)
    m2 = a * a + be * be
    top = _crossings(be, m2, inst.c11_max)

    if not _socp_feasible(inst, delta):
        cls.notes.append("relaxation infeasible over the voltage box")
        return cls

    # --- smallest difference over box & upper-left side of the curve
    curve_top = float(hyperbola_c11(inst, inst.c22_max))
    on_curve = True
    if curve_top <= inst.c11_min:
        # corner of the box is strictly inside the relaxation region
        diff_u = inst.c11_min - inst.c22_max
        c_o = (inst.c11_min, inst.c22_max)
        on_curve = curve_top >= inst.c11_min - _TIE
    elif curve_top <= inst.c11_max:
        diff_u = curve_top - inst.c22_max
        c_o = (curve_top, inst.c22_max)
    else:
        if top is None:  # guarded by the feasibility check; defensive only
            cls.degenerate = True
            cls.notes.append("curve misses the box entirely (negative discriminant)")
            return cls
        c22_up = top[1]
        diff_u = inst.c11_max - c22_up
        c_o = (inst.c11_max, c22_up)
    cls.c_o = c_o
    if not on_curve:
        cls.notes.append("relaxation optimizer is a box corner off the curve")

    d_star = max(delta, diff_u)
    cls.socp_value = inst.cost * _generation(inst, a, be, d_star)[0]
    _flag_upper_bounds(cls, inst, d_star)
    if inst.c11_max - inst.c22_max >= d_star:
        cls.c_r = (inst.c22_max + d_star, inst.c22_max)
    else:
        cls.c_r = (inst.c11_max, inst.c11_max - d_star)

    # --- smallest difference along the curve inside the box
    cand = inst.c22_max
    via_e = False
    if delta > -INF and delta + 2 * be > 0:
        c22_e = m2 / (delta + 2 * be)
        cls.c_e = (c22_e + delta, c22_e)
        if c22_e < cand:
            cand = c22_e
            via_e = True
    opf_ok = cand >= inst.c22_min - _TIE
    via_i = False
    if opf_ok:
        cv = float(hyperbola_c11(inst, cand))
        if cv > inst.c11_max:  # slide down into the band where curve <= c11_max
            lo, hi = top or (INF, -INF)
            if cand < lo:
                opf_ok = False
            else:
                cand = min(cand, hi)
                cv = float(hyperbola_c11(inst, cand))
    if opf_ok and cv < inst.c11_min:
        # cand sits in the dip below the c11 lower bound; exit at its lower end
        bottom = _crossings(be, m2, inst.c11_min)
        if bottom is None:
            opf_ok = False
            cls.degenerate = True
            cls.notes.append("negative discriminant at the c11 lower bound")
        else:
            cand = bottom[0]
            cls.c_i = (inst.c11_min, cand)
            via_i = True
    if opf_ok and cand < inst.c22_min - _TIE:
        opf_ok = False

    if delta > -INF and (via_i or not opf_ok):
        if inst.c11_min - inst.c22_min <= d_star:
            cls.c_l = (inst.c22_min + d_star, inst.c22_min)
        else:
            cls.c_l = (inst.c11_min, inst.c11_min - d_star)

    if not opf_ok:
        cls.verdict = OPF_INFEASIBLE
        if via_e or via_i:
            cls.case_label = 4 if via_i else 2
        elif cls.c_e is not None and cls.c_e[1] < inst.c22_min:
            cls.case_label = 2
        return cls

    diff_opf = float(hyperbola_c11(inst, cand)) - cand
    cls.opf_value = inst.cost * _generation(inst, a, be, diff_opf)[0]
    _flag_upper_bounds(cls, inst, diff_opf)
    tol = _TIE * max(1.0, abs(d_star))
    if diff_opf <= d_star + tol:
        cls.verdict = EXACT
        cls.gap = 0.0
        cls.opf_value = cls.socp_value
        cls.degenerate = cls.degenerate or diff_opf > d_star - tol and diff_opf != d_star
        cls.case_label = 1 if delta <= diff_u + _TIE else 3
        return cls

    cls.verdict = INEXACT
    cls.gap = inst.cost * (-inst.g) * (diff_opf - d_star)
    cls.case_label = 5 if (via_i and on_curve and d_star == delta) else None
    if cls.case_label is None:
        cls.notes.append("inexact outside the five-panel catalogue")
    return cls


def _flag_upper_bounds(cls: TwoBusClassification, inst: TwoBusInstance, diff: float):
    """Mark classifications whose optimum would violate a finite upper
    generation bound (not part of the closed form)."""
    if cls.upper_bound_caveat:
        return
    p1, q1 = _generation(inst, cls.alpha, cls.beta, diff)
    if p1 > inst.pmax + 1e-9 or q1 > inst.qmax + 1e-9:
        cls.upper_bound_caveat = True
        cls.notes.append("upper generation bounds bind; closed form not valid")


# ----------------------------------------------------------------- enumeration

@dataclass
class OracleResult:
    verdict: str
    opf_value: float | None
    socp_value: float | None
    gap: float | None
    argmin: tuple[float, float] | None
    resolution: float


def grid_oracle(inst: TwoBusInstance, resolution: float = 1e-4) -> OracleResult:
    """Brute-force classification by enumeration.

    OPF side: walk the (c11, c22) grid restricted to cells crossed by the
    feasible curve (the problem is two-dimensional after elimination, so this
    is exhaustive up to the grid resolution) and keep points whose
    back-substituted generation respects the bounds.  SOCP side: solve the
    relaxation of the equivalent network with the conic solver, on the
    instance's own unit bounds: an absent bound is infinite and adds no row,
    where `to_network`'s finite stand-in would add an inequality 1e6 away
    from the data that the interior-point method has to centre against.
    Entirely independent of :func:`classify`.
    """
    if inst.b < 0:
        return grid_oracle(inst.mirrored(), resolution)

    a, be = alpha_beta(inst)

    def in_units(p1, q1):
        return ((p1 >= inst.pmin) & (p1 <= inst.pmax)
                & (q1 >= inst.qmin) & (q1 <= inst.qmax))

    n = max(2, int(round((inst.c22_max - inst.c22_min) / resolution)) + 1)
    c22 = inst.c22_min + resolution * np.arange(n)
    c22 = c22[c22 <= inst.c22_max + 1e-15]
    curve = _curve(a, be, c22)
    snapped = np.round(curve / resolution) * resolution
    keep = np.flatnonzero(
        (np.abs(snapped - curve) <= resolution / 2 + 1e-15)
        & (snapped >= inst.c11_min - 1e-12) & (snapped <= inst.c11_max + 1e-12))
    c11k, c22k = snapped[keep], c22[keep]
    p1, q1 = _generation(inst, a, be, c11k - c22k)
    ok = np.flatnonzero(in_units(p1, q1))
    opf_value = None
    argmin = None
    if ok.size:
        costs = inst.cost * p1[ok]
        best = int(np.argmin(costs))
        opf_value = float(costs[best])
        argmin = (float(c11k[ok[best]]), float(c22k[ok[best]]))
        # re-enumerate densely around the winning cell, exactly on the
        # curve this time: the coarse half-cell acceptance can be
        # optimistic by several cells where the curve grazes a bound,
        # so the window reaches well below the coarse argmin and the
        # refined value replaces the coarse one whenever it exists
        c22_best = argmin[1]
        fine = np.linspace(max(c22_best - 100 * resolution, inst.c22_min),
                           min(c22_best + 100 * resolution, inst.c22_max), 80001)
        c11f = _curve(a, be, fine)
        p1f, q1f = _generation(inst, a, be, c11f - fine)
        okf = np.flatnonzero((c11f >= inst.c11_min) & (c11f <= inst.c11_max)
                             & in_units(p1f, q1f))
        if okf.size:
            cf = inst.cost * p1f[okf]
            bf = int(np.argmin(cf))
            opf_value = float(cf[bf])
            argmin = (float(c11f[okf[bf]]), float(fine[okf[bf]]))

    model = jabr.build_relaxation(inst.to_network())
    prog = model.program
    p, q = model.pg[0], model.qg[0]
    prog.lb[p], prog.ub[p] = inst.pmin, inst.pmax
    prog.lb[q], prog.ub[q] = inst.qmin, inst.qmax
    sol = conic.solve(prog)
    socp_value = sol.objective

    tol = 2.0 * resolution * abs(inst.g) * inst.cost
    if socp_value is None:
        verdict = BOTH_INFEASIBLE
        gap = None
    elif opf_value is None:
        verdict = OPF_INFEASIBLE
        gap = None
    else:
        gap = opf_value - socp_value
        verdict = EXACT if gap <= tol else INEXACT
    return OracleResult(verdict=verdict, opf_value=opf_value,
                        socp_value=socp_value, gap=gap, argmin=argmin,
                        resolution=resolution)


# -------------------------------------------------------------------- plotting

@dataclass
class RegionSample:
    hyperbola: np.ndarray      # columns c11, c22
    box: np.ndarray            # polyline of the voltage box
    delta_line: np.ndarray     # columns c11, c22 along c11 - c22 = Delta
    grid: np.ndarray           # columns c11, c22, socp_feasible(0/1)
    points: dict[str, tuple[float, float]]


def sample_regions(inst: TwoBusInstance, resolution: float = 1e-2) -> RegionSample:
    """Curve/region samples of the projected geometry for plotting."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    cls = classify(inst)
    a, be = alpha_beta(inst)
    pad = 0.25 * (inst.c22_max - inst.c22_min) + resolution
    c22 = np.arange(max(inst.c22_min - pad, resolution), inst.c22_max + pad, resolution)
    hyp = np.column_stack([hyperbola_c11(inst, c22), c22])

    box = np.array([
        [inst.c11_min, inst.c22_min], [inst.c11_max, inst.c22_min],
        [inst.c11_max, inst.c22_max], [inst.c11_min, inst.c22_max],
        [inst.c11_min, inst.c22_min]])

    if cls.delta > -INF:
        dl = np.column_stack([c22 + cls.delta, c22])
    else:
        dl = np.empty((0, 2))

    g1 = np.arange(inst.c11_min, inst.c11_max + resolution / 2, resolution)
    g2 = np.arange(inst.c22_min, inst.c22_max + resolution / 2, resolution)
    C11, C22 = np.meshgrid(g1, g2, indexing="ij")
    inside = (C22 - be) ** 2 + a ** 2 <= C11 * C22
    if cls.delta > -INF:
        inside &= (C11 - C22) >= cls.delta
    grid = np.column_stack([C11.ravel(), C22.ravel(), inside.ravel().astype(float)])

    points = {name: val for name, val in
              [("cO", cls.c_o), ("cR", cls.c_r), ("cE", cls.c_e),
               ("cL", cls.c_l), ("cI", cls.c_i)] if val is not None}
    return RegionSample(hyperbola=hyp, box=box, delta_line=dl, grid=grid, points=points)
