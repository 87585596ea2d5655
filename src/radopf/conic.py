"""Second-order cone programs with linear objectives.

A :class:`ConicProgram` collects variables with box bounds, linear equalities
and inequalities, rotated-cone couplings ``|z|^2 <= u*w`` and an objective
``c'x + const``.  :func:`solve` compiles the program to the standard conic
form, over exactly the program's variables, and runs the in-repo
interior-point method.  A convex quadratic cost is modelled by its caller as
a variable t with cost 1 and the epigraph cone ``t >= sum_i q_i x_i^2``
(`ConicProgram.epigraph_cone`), which is scaled from the variables' bounds so
that both sides of the cone are of one size.  :func:`solve_batch` can stop a
member once a Lagrangian bound of its iterate reaches a cutoff.
"""

from __future__ import annotations

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


@dataclass
class _Row:
    idx: np.ndarray
    coef: np.ndarray
    rhs: float


@dataclass
class _Cone:
    u: tuple
    w: tuple
    zs: list


class ConicProgram:
    """Builder for a conic program over named scalar variables.

    `ranges` maps a variable to an interval, narrower than its bounds,
    that holds it at some optimum of every objective that weighs it at zero
    or above.  It adds no row: only the Lagrangian bound of `solve_batch`
    reads it, and only for such an objective.
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

    def copy(self) -> "ConicProgram":
        """A program with the same data whose lists are its own: variables,
        rows and cones added to the copy do not reach this one.  The rows
        and cones themselves are shared."""
        out = ConicProgram()
        out.cost_const = self.cost_const
        out.ranges = dict(self.ranges)
        for attr in ("names", "lb", "ub", "cost", "eqs", "ineqs", "cones"):
            setattr(out, attr, list(getattr(self, attr)))
        return out

    # ------------------------------------------------------------------ build
    @property
    def num_vars(self) -> int:
        return len(self.names)

    def add_var(self, name: str, lb: float = -INF, ub: float = INF,
                cost: float = 0.0) -> int:
        if lb > ub:
            raise ProgramError(f"variable {name}: lb {lb} > ub {ub}")
        self.names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.cost.append(float(cost))
        return len(self.names) - 1

    def add_eq(self, idx, coef, rhs: float):
        idx, coef, const = _as_term((idx, coef))
        self.eqs.append(_Row(idx, coef, float(rhs) - const))

    def add_ineq(self, idx, coef, rhs: float):
        """a'x <= rhs."""
        idx, coef, const = _as_term((idx, coef))
        self.ineqs.append(_Row(idx, coef, float(rhs) - const))

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
        of its cost cap and of its node programs, and costs such an
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
        self.cones.append(_Cone((np.array([t]), np.array([1.0 / g]), 0.0),
                                (np.empty(0, dtype=int), np.empty(0), g),
                                [(np.array([i]), np.array([np.sqrt(qi)]), 0.0)
                                 for i, qi in zip(idx, q)]))
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
    def _objective(self, objective_override=None):
        """Objective row of the standard form: the override, if given, or
        the program's own costs."""
        c = np.zeros(self.num_vars)
        c[:] = self.cost if objective_override is None else objective_override
        return c

    def _constraints(self):
        """(G, h, dims, A, b) of the standard form over the program's
        variables.  Every matrix is filled by index scatter from zeros."""
        n = self.num_vars
        lb, ub = np.array(self.lb), np.array(self.ub)
        free = lb != ub
        fixed = np.flatnonzero(~free & np.isfinite(lb))
        # variable bounds: per variable its upper row, then its lower one
        bvar, lower = np.nonzero(np.stack(
            (free & np.isfinite(ub), free & np.isfinite(lb)), axis=1))
        bound_h = np.where(lower, -lb[bvar], ub[bvar])

        def scatter(M, linear, cols, vals):
            """Write the rows `linear` into M, then one row per (col, val)
            pair."""
            r, i, v = _entries([(k, row.idx, row.coef)
                                for k, row in enumerate(linear)])
            M[r, i] = v
            M[np.arange(len(linear), len(linear) + len(cols)), cols] = vals

        A = np.zeros((len(self.eqs) + len(fixed), n))
        scatter(A, self.eqs, fixed, np.ones(len(fixed)))
        b = np.concatenate(([r.rhs for r in self.eqs], lb[fixed]))
        l = len(self.ineqs) + len(bvar)
        h_lin = np.concatenate(([r.rhs for r in self.ineqs], bound_h))

        # (u+w)/2 >= |((u-w)/2, z...)| is the SOC form of |z|^2 <= u*w; per
        # cone its rows are top, mid and one per z term, built positive in C
        # and negated as a block, since rows enter as s = h - Gx
        q_sizes = [2 + len(cone.zs) for cone in self.cones]
        heads = np.cumsum(q_sizes) - q_sizes
        u, w, z, h_cone = [], [], [], []
        for head, cone in zip(heads, self.cones):
            (iu, cu, du), (iw, cw, dw) = cone.u, cone.w
            u.append((head, iu, 0.5 * cu))
            w.append((head, iw, 0.5 * cw))
            z += [(head + t, iz, cz) for t, (iz, cz, _) in enumerate(cone.zs, 2)]
            h_cone += [0.5 * (du + dw), 0.5 * (du - dw)]
            h_cone += [dz for _, _, dz in cone.zs]
        (ru, iu, cu), (rw, iw, cw), (rz, iz, cz) = map(_entries, (u, w, z))
        G = np.zeros((l + sum(q_sizes), n))
        scatter(G, self.ineqs, bvar, 1.0 - 2.0 * lower)
        C = G[l:]
        C[ru, iu] += cu
        C[rw, iw] += cw
        C[ru + 1, iu] += cu
        C[rw + 1, iw] -= cw
        C[rz, iz] = cz
        np.negative(C, out=C)
        return (G, np.concatenate((h_lin, h_cone)), _ipm.make_dims(l, q_sizes),
                A, b)


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
    """Solve a list of programs, one member each, in as few interior-point
    calls as their shapes allow; returns one solution per member, in order.

    `overrides`, if given, is aligned to `progs`: an objective per member,
    or None to keep the program's own.  Each member has one objective: its
    override, or the program's costs plus their constant.  A program listed
    for several members is compiled once; members whose compiled shapes
    agree share one batched `conelp` call, in which every member runs its
    own iterates and ends as its own one-member solve would.

    `cutoffs`, if given, is aligned to `progs` as well: a value of the
    member's objective at or above which its optimum is of no use (+inf for
    none).  Every member of such a call reports in `ConicSolution.bound` the
    largest Lagrangian bound of its iterates on its optimum
    (`_ipm.conelp`), whatever its status, and ends `CUTOFF`, with a bound at
    or above its cutoff, once that bound reaches it.  The bound reads the
    program's variable bounds, narrowed to its `ranges` where the member's
    objective weighs the variable at zero or above.  A certified-infeasible
    member reports +inf, and any other member of a call without `cutoffs`
    -inf.
    """
    if overrides is None:
        overrides = [None] * len(progs)
    consts = [prog.cost_const if override is None else 0.0
              for prog, override in zip(progs, overrides)]
    compiled, groups = {}, {}
    for i, (prog, override) in enumerate(zip(progs, overrides)):
        key = id(prog)
        if key not in compiled:
            compiled[key] = prog._constraints()
        G, _, dims, A, _ = compiled[key]
        shape = (G.shape, A.shape, dims.l, tuple(dims.q))
        groups.setdefault(shape, []).append((i, key, prog._objective(override)))

    sols = [None] * len(progs)
    for members in groups.values():
        data = [compiled[key] for _, key, _ in members]
        G, h, dims, A, b = data[0]
        if len({key for _, key, _ in members}) > 1:
            G, h, A, b = (np.stack([d[j] for d in data]) for j in (0, 1, 3, 4))
        cut = box = None
        if cutoffs is not None:
            cut = [cutoffs[i] - consts[i] for i, _, _ in members]
            box = tuple(np.stack([_bound_box(progs[i], c)
                                  for i, _, c in members], axis=1))
        res = _ipm.conelp(np.array([c for _, _, c in members]), G, h, dims,
                          A, b, cut, box)
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


def _bound_box(prog: ConicProgram, c: np.ndarray) -> np.ndarray:
    """(lo, hi) of the variables as the Lagrangian bound of the objective
    `c` reads them: their bounds, narrowed to the program's `ranges` where
    `c` weighs the variable at zero or above."""
    box = np.array([prog.lb, prog.ub])
    for v, (lo, hi) in prog.ranges.items():
        if c[v] >= 0:
            box[:, v] = max(box[0, v], lo), min(box[1, v], hi)
    return box
