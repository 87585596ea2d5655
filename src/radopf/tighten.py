"""SOCP-based variable bound tightening and secant valid inequalities.

The lifted pair (c_ij, s_ij) of every line is confined to the annulus between
radii R_lo = Vi_min*Vj_min and R_hi = Vi_max*Vj_max.  The lifted model leaves
c and s free (its cone already implies the box), and a search starts from
the very loose box |c|, |s| <= R_hi (`NodeBox.of`).  Minimizing/maximizing
each coordinate over the relaxation, with each solve's Lagrangian bound as
the interval's end, produces a much tighter box; where that box pokes
inside the inner circle, the chord of the circle across the intrusion is a
valid linear cut, because every cut-off point has norm below R_lo and is
therefore infeasible.  Boxes and cuts accumulate line by line,
each tightening the relaxation used for the next; every bound solve runs on
a copy of one lifted model (`boxed`).
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
    (`model.cii`, `model.c`, `model.s`, `model.line_vars(k)`, `model.t`).
    Every program a search solves has exactly those columns.  The layout
    depends only on the network, so Algorithm 1, interval propagation and
    every node of a search share it; `boxed` makes it a program's bounds."""
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, model: jabr.JabrModel) -> "NodeBox":
        """The program's own bounds (unit boxes, vmin²..vmax² or the pinned
        voltage, a free cost epigraph t), with ±Vi_max·Vj_max on each
        line's c and s, which the lifted model leaves free.  The cone
        implies that box, so it does not bind at the root; after tightening
        and branching it does."""
        box = cls(np.array(model.program.lb), np.array(model.program.ub))
        net = model.net
        for k, ln in enumerate(net.lines):
            rmax = net.bus(ln.from_bus).vmax * net.bus(ln.to_bus).vmax
            pair = [model.c[k], model.s[k]]
            box.lo[pair], box.hi[pair] = -rmax, rmax
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


def generate_cut(c_lo: float, c_hi: float, s_lo: float, s_hi: float,
                 r_lo: float, line: int = 0) -> Cut | None:
    """Secant cut for one line's box against the inner circle of radius r_lo.

    The chord endpoints (x1, y1), (x2, y2) depend on which of the two left
    corners of the box fall inside the circle; the cut
    (y1-y2) c - (x1-x2) s >= x2 y1 - x1 y2 keeps everything on the outer side
    of the chord.  Returns None when the box clears the circle (no cut needed)
    and skips with a warning when c_lo <= 0 (construction assumes the box
    sits right of the s-axis).
    """
    if c_lo <= 0.0:
        warnings.warn(f"line {line}: c lower bound {c_lo:.4g} <= 0, cut skipped",
                      stacklevel=2)
        return None
    if c_lo >= r_lo:
        return None
    norm_lo = math.hypot(c_lo, s_lo)
    norm_hi = math.hypot(c_lo, s_hi)
    if norm_lo < r_lo and norm_hi < r_lo:
        case = 1
        y1, y2 = s_hi, s_lo
        x1 = math.sqrt(r_lo ** 2 - s_hi ** 2)
        x2 = math.sqrt(r_lo ** 2 - s_lo ** 2)
    elif norm_lo < r_lo:
        case = 2
        x1, y2 = c_lo, s_lo
        y1 = math.sqrt(r_lo ** 2 - c_lo ** 2)
        x2 = math.sqrt(r_lo ** 2 - s_lo ** 2)
    elif norm_hi < r_lo:
        case = 3
        y1, x2 = s_hi, c_lo
        x1 = math.sqrt(r_lo ** 2 - s_hi ** 2)
        y2 = -math.sqrt(r_lo ** 2 - c_lo ** 2)
    else:
        # both corners already outside: the chord degenerates to c >= c_lo
        return None
    return Cut(line=line, a_c=y1 - y2, a_s=-(x1 - x2), rhs=x2 * y1 - x1 * y2,
               case=case, p1=(x1, y1), p2=(x2, y2))


def boxed(model: jabr.JabrModel, box: NodeBox, cuts=()) -> jabr.JabrModel:
    """A copy of `model` with the box as its variable bounds and the secant
    cuts as rows; raises conic.ProgramError when an interval is inverted."""
    bad = np.flatnonzero(box.lo > box.hi)
    if bad.size:
        v = bad[0]
        raise conic.ProgramError(f"variable {model.program.names[v]}: "
                                 f"lb {box.lo[v]} > ub {box.hi[v]}")
    out = model.copy()
    prog = out.program
    prog.lb, prog.ub = box.lo.tolist(), box.hi.tolist()
    for cut in cuts:
        prog.add_ineq([out.c[cut.line], out.s[cut.line]],
                      [-cut.a_c, -cut.a_s], -cut.rhs)
    return out


def shrink_batch(jobs) -> list[NodeBox | None]:
    """Each job's box with the interval of each of its variables shrunk to
    the Lagrangian bounds on that variable's minimum and maximum over the
    job's relaxation.

    `jobs` holds (model, box, variables) triples.  Every direction of every
    job (minimize, then maximize, per variable in order) is solved in one
    `conic.solve_batch` call, which compiles each model once and forms each
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
    for model, box, variables in jobs:
        prog = model.program
        for var in variables:
            for sense in (+1, -1):  # +1 minimizes, -1 maximizes
                progs.append(prog)
                overrides.append(np.zeros(prog.num_vars))
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
    box = NodeBox.of(model)
    cuts: list[Cut] = []
    for k in range(len(model.net.lines)):
        vc, vs = model.c[k], model.s[k]
        box = shrink_batch([(boxed(model, box, cuts), box, [vc, vs])])[0]
        if box is None:
            raise RelaxationInfeasible("relaxation infeasible while bounding "
                                       + ", ".join(model.program.names[v]
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
