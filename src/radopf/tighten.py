"""SOCP-based variable bound tightening and secant valid inequalities.

The lifted pair (c_ij, s_ij) of every line is confined to the annulus between
radii R_lo = Vi_min*Vj_min and R_hi = Vi_max*Vj_max.  A search starts from
the very loose box |c|, |s| <= R_hi, which the lifted model's cone implies
and its `ranges` hold (`NodeBox.of`).  Minimizing/maximizing
each coordinate over the relaxation, with each solve's Lagrangian bound as
the interval's end, produces a much tighter box; where that box pokes
inside the inner circle, the chord of the circle across the intrusion is a
valid linear cut, because every cut-off point has norm below R_lo and is
therefore infeasible.  Boxes and cuts accumulate line by line,
each tightening the relaxation used for the next; every bound solve is the
lifted program over the box so far with the cuts as rows (`Cut.row`).
"""

from __future__ import annotations

import io
import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import conic, jabr
from .network import Network


class RelaxationInfeasible(RuntimeError):
    """The SOCP relaxation is infeasible, so the OPF itself is infeasible."""


@dataclass
class Ring:
    """Annulus radii for one line's (c, s) pair."""
    r_lo: float
    r_hi: float

    def __post_init__(self):
        if not (0.0 < self.r_lo <= self.r_hi):
            raise ValueError("need 0 < r_lo <= r_hi")


def ring_for(net: Network, k: int) -> Ring:
    ln = net.lines[k]
    bi, bj = net.bus(ln.from_bus), net.bus(ln.to_bus)
    return Ring(r_lo=bi.vmin * bj.vmin, r_hi=bi.vmax * bj.vmax)


@dataclass
class NodeBox:
    """Interval [lo, hi] of every variable of a lifted model
    (`jabr.build_relaxation`), indexed like the model's own variables
    (`model.cii`, `model.c`, `model.s`, `model.t`, and row k of
    `model.lines` for line k's four columns).
    Every program a search solves has exactly those columns.  The layout
    depends only on the network, so Algorithm 1, interval propagation and
    every node of a search share it; `ConicProgram.member` solves over it."""
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, model: jabr.JabrModel) -> "NodeBox":
        """The program's own bounds (unit boxes, vmin²..vmax² or the pinned
        voltage, a free cost epigraph t), with each line's c and s in its
        range ±Vi_max·Vj_max (`jabr.build_relaxation`).  The cone implies
        that box, so it does not bind at the root; after tightening and
        branching it does."""
        prog = model.program
        box = cls(np.array(prog.lb), np.array(prog.ub))
        for v in model.lines[:, 2:].ravel().tolist():
            box.lo[v], box.hi[v] = prog.ranges[v]
        return box

    def copy(self) -> "NodeBox":
        return NodeBox(self.lo.copy(), self.hi.copy())


@dataclass
class Cut:
    """Valid inequality a_c*c + a_s*s >= rhs for one line's (c, s) pair."""
    line: int
    a_c: float
    a_s: float
    rhs: float
    case: int
    p1: tuple[float, float]
    p2: tuple[float, float]

    def violation(self, c, s):
        return self.rhs - (self.a_c * np.asarray(c) + self.a_s * np.asarray(s))

    def row(self, model: jabr.JabrModel):
        """The cut as a row (idx, coef, rhs) of a'x <= rhs (`conic.Member`)."""
        return ([model.c[self.line], model.s[self.line]],
                [-self.a_c, -self.a_s], -self.rhs)


def generate_cut(c_lo: float, c_hi: float, s_lo: float, s_hi: float,
                 r_lo: float, line: int = 0) -> Cut | None:
    """Secant cut for one line's box against the inner circle of radius r_lo.

    The chord's upper end (x1, y1) is where the circle meets s = s_hi when
    the box's upper-left corner lies inside the circle, and where it meets
    c = c_lo (s > 0) otherwise; its lower end (x2, y2) is likewise on
    s = s_lo or on c = c_lo (s < 0).  `case` is 1 with both corners inside,
    2 with the lower one only and 3 with the upper one only.  The cut
    (y1-y2) c - (x1-x2) s >= x2 y1 - x1 y2 keeps everything on the outer side
    of the chord.  Returns None when neither corner is inside (the box
    clears the circle) and skips with a warning when c_lo <= 0
    (construction assumes the box sits right of the s-axis).
    """
    if c_lo <= 0.0:
        warnings.warn(f"line {line}: c lower bound {c_lo:.4g} <= 0, cut skipped",
                      stacklevel=2)
        return None
    hi_in = math.hypot(c_lo, s_hi) < r_lo
    lo_in = math.hypot(c_lo, s_lo) < r_lo
    if not (hi_in or lo_in):
        return None
    edge = math.sqrt(r_lo ** 2 - c_lo ** 2)
    x1, y1 = (math.sqrt(r_lo ** 2 - s_hi ** 2), s_hi) if hi_in else (c_lo, edge)
    x2, y2 = (math.sqrt(r_lo ** 2 - s_lo ** 2), s_lo) if lo_in else (c_lo, -edge)
    return Cut(line=line, a_c=y1 - y2, a_s=-(x1 - x2), rhs=x2 * y1 - x1 * y2,
               case=1 if hi_in and lo_in else 2 if lo_in else 3,
               p1=(x1, y1), p2=(x2, y2))


def shrink_batch(jobs) -> list[NodeBox | None]:
    """Each job's box with the interval of each of its variables shrunk to
    the Lagrangian bounds on that variable's minimum and maximum over the
    job's relaxation.

    `jobs` holds (member, box, variables) triples, the member a relaxation
    over the box (`conic.Member`).  Every direction of every job (minimize,
    then maximize, per variable in order) is solved in one
    `conic.solve_batch` call, which forms each member once and each
    direction's bound L (`ConicSolution.bound`), whatever its status.  A
    direction's cutoff is its interval's other end (``hi`` when it
    minimizes, ``-lo`` when it maximizes): once L reaches it, the interval
    is decided and the direction stops.  A variable's interval becomes
    ``[max(lo, L_min), min(hi, -L_max)]``, so an end is a bound from the
    solve's duals, not its primal value, and an L of -inf leaves that end
    as it is.  Returns one box per job: a new `NodeBox`, or None where an
    interval inverted (a certified-infeasible direction has L = +inf).
    """
    progs, overrides, cutoffs = [], [], []
    for member, box, variables in jobs:
        for var in variables:
            for sense in (+1, -1):  # +1 minimizes, -1 maximizes
                progs.append(member)
                overrides.append(np.zeros(len(box.lo)))
                overrides[-1][var] = sense
                cutoffs.append(box.hi[var] if sense > 0 else -box.lo[var])
    sols = iter(conic.solve_batch(progs, overrides, cutoffs=cutoffs)
                if progs else [])
    out = []
    for _, box, variables in jobs:
        bounds = np.array([next(sols).bound
                           for _ in range(2 * len(variables))]).reshape(-1, 2)
        new = box.copy()
        new.lo[variables] = np.maximum(box.lo[variables], bounds[:, 0])
        new.hi[variables] = np.minimum(box.hi[variables], -bounds[:, 1])
        empty = (new.lo[variables] > new.hi[variables]).any()
        out.append(None if empty else new)
    return out


def _tighten_loop(model: jabr.JabrModel,
                  with_cuts: bool) -> tuple[NodeBox, list[Cut]]:
    prog = model.program
    box = NodeBox.of(model)
    cuts: list[Cut] = []
    for k in range(len(model.net.lines)):
        vc, vs = model.c[k], model.s[k]
        member = prog.member(box.lo, box.hi, [c.row(model) for c in cuts])
        box = shrink_batch([(member, box, [vc, vs])])[0]
        if box is None:
            raise RelaxationInfeasible("relaxation infeasible while bounding "
                                       + ", ".join(prog.names[v]
                                                   for v in (vc, vs)))
        if with_cuts:
            cut = generate_cut(float(box.lo[vc]), float(box.hi[vc]),
                               float(box.lo[vs]), float(box.hi[vs]),
                               ring_for(model.net, k).r_lo, line=k)
            if cut is not None:
                cuts.append(cut)
    return box, cuts


def compute_bounds(model: jabr.JabrModel) -> NodeBox:
    """The model's box with each line's c and s intervals tightened by four
    relaxation solves (`shrink_batch`), boxes accumulating in input-file
    line order; every other interval is the program's own."""
    return _tighten_loop(model, False)[0]


def run_algorithm1(model: jabr.JabrModel) -> tuple[NodeBox, list[Cut]]:
    """Algorithm 1 over the model's lines in order: tighten the line's c and
    s intervals to the Lagrangian bounds of one `shrink_batch` call on the
    box and cuts so far, then add its secant cut (when the box pokes inside
    the inner circle) before moving on.  Returns the tightened box over all
    of the model's variables, as `compute_bounds` does, and the cuts;
    raises `RelaxationInfeasible` when a line's call empties the box."""
    return _tighten_loop(model, True)


def cuts_csv(cuts: list[Cut]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["line", "a_c", "a_s", "rhs", "case", "x1", "y1", "x2", "y2"])
    for c in cuts:
        w.writerow([c.line, f"{c.a_c:.12g}", f"{c.a_s:.12g}", f"{c.rhs:.12g}",
                    c.case, f"{c.p1[0]:.12g}", f"{c.p1[1]:.12g}",
                    f"{c.p2[0]:.12g}", f"{c.p2[1]:.12g}"])
    return buf.getvalue()
