"""Second-order cone programs with linear objectives.

A :class:`ConicProgram` collects variables with box bounds, linear equalities
and inequalities, rotated-cone couplings ``|z|^2 <= u*w`` and an objective
``c'x + const``.  :func:`solve` forms the standard conic form of a
:class:`Member`, a program over a box with rows appended, over exactly the
program's variables, and runs the in-repo interior-point method.  A convex
quadratic cost is modelled by its caller as a variable t with cost 1 and the
epigraph cone ``t >= sum_i q_i x_i^2`` (`ConicProgram.epigraph_cone`), which
is scaled from the variables' bounds so that both sides of the cone are of
one size.  :func:`solve_batch` reports each member's Lagrangian bound and
stops a member once that bound reaches its cutoff.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _ipm

INF = float("inf")

OPTIMAL = _ipm.OPTIMAL
INFEASIBLE = _ipm.INFEASIBLE
UNBOUNDED = _ipm.UNBOUNDED
FAILED = _ipm.FAILED
CUTOFF = _ipm.CUTOFF


class ProgramError(ValueError):
    """Malformed program (inconsistent dimensions or coefficients)."""


def _as_term(term):
    """Normalize a linear expression to (idx array, coef array, const)."""
    if isinstance(term, (int, np.integer)):
        return np.array([term]), np.array([1.0]), 0.0
    if isinstance(term, (float, np.floating)):
        return np.empty(0, dtype=int), np.empty(0), float(term)
    idx, coef = term[0], term[1]
    const = float(term[2]) if len(term) > 2 else 0.0
    return (np.atleast_1d(np.asarray(idx, dtype=int)),
            np.atleast_1d(np.asarray(coef, dtype=float)), const)


def _entries(terms):
    """(rows, cols, vals) of the entries of (row, idx, coef) terms."""
    if not terms:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    rows, idx, coef = zip(*terms)
    return (np.array(rows).repeat([len(i) for i in idx]),
            np.concatenate(idx), np.concatenate(coef))


_Row = namedtuple("_Row", "idx coef rhs")
_Cone = namedtuple("_Cone", "u w zs")


class ConicProgram:
    """Builder for a conic program over named scalar variables.

    `ranges` maps a variable to an interval, narrower than its bounds,
    that holds it at some optimum of every objective that weighs it at zero
    or above.  It adds no row: only the Lagrangian bound of `solve_batch`
    reads it, and only for such an objective.  The rows, cones and ranges
    are compiled once (`_compiled`): the equalities into one read-only
    `(A, b)` that every `member` without a fixed variable shares, the rest
    into index/value entries from which each member forms its `G` and `h`.
    """

    def __init__(self):
        self.names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.cost: list[float] = []
        self.cost_const = 0.0
        self.eqs: list[_Row] = []
        self.ineqs: list[_Row] = []
        self.cones: list[_Cone] = []
        self.ranges: dict[int, tuple[float, float]] = {}
        self._cache = None, None

    # ------------------------------------------------------------------ build
    @property
    def num_vars(self) -> int:
        return len(self.names)

    def add_var(self, name: str, lb: float = -INF, ub: float = INF,
                cost: float = 0.0) -> int:
        if not lb <= ub:
            raise ProgramError(f"variable {name}: [{lb}, {ub}] is no interval")
        self.names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.cost.append(float(cost))
        return len(self.names) - 1

    def add_eq(self, idx, coef, rhs: float):
        self.eqs.append(_Row(*_as_term((idx, coef))[:2], float(rhs)))

    def add_ineq(self, idx, coef, rhs: float):
        """a'x <= rhs."""
        self.ineqs.append(_Row(*_as_term((idx, coef))[:2], float(rhs)))

    def add_rotated_cone(self, u, w, zs):
        """|z|^2 <= u * w with u, w >= 0; each argument is a variable index,
        a constant, or a tuple (idx, coef[, const])."""
        self.cones.append(_Cone(_as_term(u), _as_term(w), [_as_term(t) for t in zs]))

    def epigraph_cone(self, t: int, terms) -> _Cone:
        """Add the cone ``t >= sum_i q_i x_i^2`` over the (variable, q) pairs
        in `terms`, written ``|(sqrt(q_i) x_i)|^2 <= (t/g) * g``, and return
        it; pairs with q = 0 add no row.

        The scale ``g = sqrt(sum_i q_i max(lb_i^2, ub_i^2))``, over the terms
        whose bounds are finite (1 when there are none), is the square root
        of the largest value the sum reaches on the box.  Dividing t by it
        keeps the cone's two sides on one scale: with ``|z|^2 <= t * 1`` and
        t in the thousands they differ by ~1e3, and the interior-point
        method takes short steps for most of its iterations.  The set is the
        same for every g > 0.

        When every term is bounded, t gets the range ``[0, g^2]``.  It
        holds at some optimum of every objective that weighs t at zero or
        above: lowering t to the sum keeps every row of the lifted model,
        of its cost cap and of its node members, and costs such an
        objective nothing.
        """
        pairs = [(i, qi) for i, qi in terms if qi > 0]
        idx = np.array([i for i, _ in pairs], dtype=int)
        q = np.array([qi for _, qi in pairs], dtype=float)
        reach = np.maximum(np.square(np.array(self.lb)[idx]),
                           np.square(np.array(self.ub)[idx]))
        bounded = np.isfinite(reach)
        g2 = float(q[bounded] @ reach[bounded])
        g = float(np.sqrt(g2)) or 1.0
        if bounded.all():
            self.ranges[t] = (0.0, g2)
        self.add_rotated_cone((t, 1.0 / g), g,
                              [(i, np.sqrt(qi)) for i, qi in zip(idx, q)])
        return self.cones[-1]

    # ------------------------------------------------------------- inspection
    def objective_value(self, x: np.ndarray) -> float:
        return float(np.asarray(self.cost) @ x + self.cost_const)

    def max_violation(self, x: np.ndarray) -> float:
        """Worst constraint violation at x, computed from the raw data; a
        residual that is not finite (a NaN from a NaN coordinate) reads as
        an infinite violation."""
        lb = np.asarray(self.lb)
        ub = np.asarray(self.ub)
        finite_l = lb > -INF
        finite_u = ub < INF
        parts = [lb[finite_l] - x[finite_l], x[finite_u] - ub[finite_u],
                 [abs(float(row.coef @ x[row.idx]) - row.rhs) for row in self.eqs],
                 [float(row.coef @ x[row.idx]) - row.rhs for row in self.ineqs]]
        for cone in self.cones:
            u = self._term_value(cone.u, x)
            w = self._term_value(cone.w, x)
            z2 = sum(self._term_value(t, x) ** 2 for t in cone.zs)
            parts.append([-u, -w, z2 - u * w])
        worst = np.concatenate(parts)
        if not np.all(np.isfinite(worst)):
            return INF
        return float(np.max(worst, initial=0.0))

    @staticmethod
    def _term_value(term, x):
        idx, coef, const = term
        return float(coef @ x[idx]) + const

    def dump(self) -> str:
        """Human-readable text form of the program (see README)."""
        out = [f"vars {self.num_vars}"]
        for i, name in enumerate(self.names):
            out.append(f"  {name}: in [{self.lb[i]}, {self.ub[i]}]"
                       f" cost {self.cost[i]}")

        def expr(idx, coef):
            return " + ".join(f"{c:g}*{self.names[i]}" for i, c in zip(idx, coef))

        for row in self.eqs:
            out.append(f"eq: {expr(row.idx, row.coef)} == {row.rhs:g}")
        for row in self.ineqs:
            out.append(f"le: {expr(row.idx, row.coef)} <= {row.rhs:g}")

        def term(t):
            idx, coef, const = t
            body = expr(idx, coef)
            if const or not body:
                return f"({body} + {const:g})" if body else f"{const:g}"
            return body

        for cone in self.cones:
            zs = ", ".join(term(t) for t in cone.zs)
            out.append(f"rsoc: |({zs})|^2 <= {term(cone.u)} * {term(cone.w)}")
        return "\n".join(out)

    # ---------------------------------------------------------------- compile
    def member(self, lo=None, hi=None, rows=()) -> "Member":
        """The program over the box [lo, hi] (its own bounds where not
        given) with the rows a'x <= rhs of `rows`, each (idx, coef, rhs),
        after its own inequalities; raises ProgramError when an interval
        is inverted or has a NaN end."""
        lo = np.array(self.lb if lo is None else lo, dtype=float)
        hi = np.array(self.ub if hi is None else hi, dtype=float)
        for v in np.flatnonzero(~(lo <= hi))[:1]:
            raise ProgramError(f"variable {self.names[v]}: "
                               f"[{lo[v]}, {hi[v]}] is no interval")
        return Member(self, lo, hi, rows)

    def _objective(self, objective_override=None):
        """Objective row of the standard form: the override, if given, or
        the program's own costs."""
        c = np.zeros(self.num_vars)
        c[:] = self.cost if objective_override is None else objective_override
        return c

    def _constraints(self):
        """(G, h, dims, A, b) of the program over its own bounds."""
        return self.member()._constraints()

    def _compiled(self) -> "_Compiled":
        """The compiled program, compiled again only when the number of
        variables, rows or cones or the contents of `ranges` change."""
        key = (self.num_vars, len(self.eqs), len(self.ineqs), len(self.cones),
               dict(self.ranges))
        if self._cache[0] != key:
            self._cache = key, self._compile()
        return self._cache[1]

    def _compile(self) -> "_Compiled":
        # (u+w)/2 >= |((u-w)/2, z...)| is the SOC form of |z|^2 <= u*w: per
        # cone a top row, a mid row and one row per z term, each a linear
        # row (idx, coef, h) of the standard form before its negation
        soc = []
        for (iu, cu, du), (iw, cw, dw), zs in self.cones:
            idx = np.concatenate((iu, iw))
            soc += [(idx, 0.5 * np.concatenate((cu, cw)), 0.5 * (du + dw)),
                    (idx, 0.5 * np.concatenate((cu, -cw)), 0.5 * (du - dw)),
                    *zs]
        ranges = np.full((2, self.num_vars), [[-INF], [INF]])
        ranges[:, list(self.ranges)] = np.reshape(
            list(self.ranges.values()), (-1, 2)).T
        (r, i, v, b), *rest = (
            _entries([(k, *row[:2]) for k, row in enumerate(rows)])
            + (np.array([row[2] for row in rows], dtype=float),)
            for rows in (self.eqs, self.ineqs, soc))
        A = np.zeros((len(b), self.num_vars))
        A[r, i] = v
        A.flags.writeable = b.flags.writeable = False
        return _Compiled(A, b, *rest,
                         [2 + len(cone.zs) for cone in self.cones], ranges)


# a program's equalities as one read-only (A, b); the (row, column, value,
# rhs) entries of its inequalities and of its cones' SOC rows, before their
# negation; its cone sizes; and its ranges as (lo, hi) arrays, -inf/+inf
# where there is none
_Compiled = namedtuple("_Compiled", "A b ineq cone q ranges")


@dataclass(eq=False)
class Member:
    """A program over the box [lo, hi] of its variables, with the rows
    a'x <= rhs of `rows`, each (idx, coef, rhs), after its own
    inequalities (`ConicProgram.member`); what `solve_batch` solves."""
    prog: ConicProgram
    lo: np.ndarray
    hi: np.ndarray
    rows: list | tuple = ()

    def _constraints(self):
        """(G, h, dims, A, b) of the standard form: in `A` the program's
        equalities, then a row per fixed variable (lo = hi, finite); in `G`
        its inequalities, the rows, each other finite end of the box (per
        variable its upper, then its lower) and the cones, negated.  A
        member that fixes no variable returns the program's own read-only
        `A` and `b`, the same arrays for every such member."""
        A, b, (*ineq, h), (*cone, h_cone), q, _ = self.prog._compiled()
        lo, hi, rows = self.lo, self.hi, self.rows
        free = lo != hi
        fixed = np.flatnonzero(~free & np.isfinite(lo))
        bvar, lower = np.nonzero(np.stack(
            (free & np.isfinite(hi), free & np.isfinite(lo)), axis=1))
        if len(fixed):
            pins = np.zeros((len(fixed), len(lo)))
            pins[np.arange(len(fixed)), fixed] = 1.0
            A, b = np.concatenate((A, pins)), np.concatenate((b, lo[fixed]))
        l = len(h) + len(rows) + len(bvar)
        G = np.zeros((l + len(h_cone), len(lo)))
        G[ineq[0], ineq[1]] = ineq[2]
        r, i, v = _entries([(len(h) + k, *x[:2]) for k, x in enumerate(rows)])
        G[r, i] = v
        G[np.arange(l - len(bvar), l), bvar] = 1.0 - 2.0 * lower
        # entries of one cone row that share a column add up; rows enter as
        # s = h - Gx, so the cone block is negated
        np.add.at(G, (l + cone[0], cone[1]), cone[2])
        np.negative(G[l:], out=G[l:])
        h = np.concatenate((h, [row[2] for row in rows],
                            np.where(lower, -lo[bvar], hi[bvar]), h_cone))
        return G, h, _ipm.make_dims(l, q), A, b


@dataclass
class ConicSolution:
    """One member's answer (`solve_batch`).  Only an optimal member has an
    `objective` and a point `x`; an unbounded one has its ray in `x`."""
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    certificate: dict | None = None
    bound: float = -INF    # largest Lagrangian bound over the iterates

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def solve(prog: ConicProgram, *, objective_override=None) -> ConicSolution:
    """Solve the program; on `optimal` the returned point satisfies all
    constraints to `_ipm.FEASTOL` and closes the relative duality gap to
    `_ipm.GAPTOL`."""
    return solve_batch([prog], [objective_override])[0]


def solve_batch(progs, overrides=None, cutoffs=None) -> list[ConicSolution]:
    """Solve a list of members or programs (a program over its own bounds),
    one member each, in as few interior-point calls as their shapes allow;
    returns one solution per member, in order.

    `overrides`, if given, is aligned to `progs`: an objective per member,
    or None to keep the program's own.  Each member has one objective: its
    override, or the program's costs plus their constant.  An entry listed
    for several members is formed once; members whose standard forms
    agree in shape share one batched `conelp` call, in which every member
    runs its own iterates and ends as its own one-member solve would.  Of
    `G`, `h`, `A` and `b`, the call gets one array where every member in it
    holds that same array (the program's `A` and `b` when no member fixes a
    variable) and the members' arrays stacked where they differ.

    `cutoffs`, if given, is aligned to `progs` as well: a value of the
    member's objective at or above which its optimum is of no use; without
    it every member's cutoff is +inf.  Every member reports in
    `ConicSolution.bound` the largest Lagrangian bound of its iterates on
    its optimum (`_ipm.conelp`), whatever its status, and ends `CUTOFF`,
    with a bound at or above its cutoff, once that bound reaches it.  The
    bound reads the member's box, narrowed to the program's `ranges`
    where the member's objective weighs the variable at zero or above.  A
    certified-infeasible member reports +inf.
    """
    if overrides is None:
        overrides = [None] * len(progs)
    if cutoffs is None:
        cutoffs = [INF] * len(progs)
    formed, groups, consts = {}, {}, []
    for i, (p, override) in enumerate(zip(progs, overrides)):
        key = id(p)
        if key not in formed:
            m = p if isinstance(p, Member) else p.member()
            # the box and the program's ranges, rows of one array
            formed[key] = m, m._constraints(), np.array(
                (m.lo, m.hi, *m.prog._compiled().ranges))
        m, (G, _, dims, A, _), _ = formed[key]
        consts.append(m.prog.cost_const if override is None else 0.0)
        shape = (G.shape, A.shape, dims.l, tuple(dims.q))
        groups.setdefault(shape, []).append((i, key, m.prog._objective(override)))

    sols = [None] * len(progs)
    for members in groups.values():
        data = [formed[key][1] for _, key, _ in members]
        dims = data[0][2]
        G, h, A, b = (v[0] if all(x is v[0] for x in v) else np.stack(v)
                      for v in ([d[j] for d in data] for j in (0, 1, 3, 4)))
        cut = [cutoffs[i] - consts[i] for i, _, _ in members]
        costs = np.array([c for _, _, c in members])
        lo, hi, rlo, rhi = np.stack([formed[key][2] for _, key, _ in members],
                                    axis=1)
        box = np.where(costs >= 0, [np.maximum(lo, rlo), np.minimum(hi, rhi)],
                       [lo, hi])
        res = _ipm.conelp(costs, G, h, dims, A, b, cut, box)
        for (i, _, c), r in zip(members, res):
            obj, bound = None, r["bound"] + consts[i]
            if r["status"] == OPTIMAL:
                obj = float(c @ r["x"] + consts[i])
            elif r["status"] == CUTOFF:
                # `conelp` compares in its scaled objective, which may put
                # the bound an ulp under the cutoff it reached
                bound = max(bound, cutoffs[i])
            sols[i] = ConicSolution(r["status"], r["x"], obj, r["iterations"],
                                    r["certificate"], bound)
    return sols

