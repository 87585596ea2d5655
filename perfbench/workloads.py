"""Workload inputs, the operations run on them, and their answer checks.

A workload's ``setup(seed)`` builds its inputs and returns a list of steps.
A step is a callable that makes program calls and returns one `Outcome` per
operation: one relaxation, one global solve, or one two-bus instance
classified in closed form and cross-checked by enumeration.

Every outcome is checked.  An operation fails on a wrong status, a value
outside its golden tolerance, an incumbent or recovered feeder point that
fails the independent rectangular check at 1e-6, or a solver status that is
no answer at all (``numerical_failure``, iteration limit, gap limit).
Contradicted answers are wrong; a missing answer, or a recovered feeder point
that is right in kind but misses 1e-6, is counted as failed but is not wrong.
Points recovered from the other relaxations are held to jabr's own exactness
test; where they miss 1e-6 they are noted in `Outcome.point_miss` only.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from radopf import bnb, cases, conic, jabr, network, twobus

import feeders

# the benchmark's own checks call the oracle directly, so the traced run
# counts only the program's calls to it
_evaluate = jabr.evaluate_opf_point

OPF_TOL = 1e-6
PAPER_REL = 5e-3          # paper tables are quoted to 0.5%
SMALL_GAP = 9e-4

# gamma: (SOCP value, global value or None when the OPF is infeasible).
# Every golden row of the paper's tables is here.  The 2-bus rows at 0.80 and
# 1.02, infeasible only after an exhausted tree, are left out to keep a pass
# short enough to repeat; 3-bus 1.04 covers that path.
TWO_BUS = {
    0.13: (459.00, None), 0.98: (496.96, 496.96), 1.00: (501.46, 563.56),
    1.01: (503.76, 641.21), 2.92: (1608.75, None),
}
THREE_BUS = {
    0.95: (939.45, 939.45), 1.00: (945.45, 950.70), 1.03: (950.05, 959.91),
    1.04: (951.60, None),
}
FIXED_VOLTAGE = {1: 0.874, 2: 0.816}
FIXED_GOLDEN = (503.37, 573.82)
TWO_BUS_SAMPLES = 100
SWEEP_GAMMAS = tuple(round(0.80 + 0.02 * k, 2) for k in range(16))
# fixed, not drawn from the seed: the IPM's time per relaxation differs by a
# third between one set of trees and another with the same iteration count
TREES = (0, 1, 2)


@dataclass
class Outcome:
    op: str
    status: str
    objective: float | None = None
    nodes: int = 0
    iters: int = 0
    why: str = ""          # empty when the answer passed every check
    wrong: bool = False    # a contradicted answer, not just a missing one
    point_miss: str = ""   # recovered point misses 1e-6 but does not fail

    @property
    def ok(self) -> bool:
        return not self.why

    @property
    def is_solve(self) -> bool:
        """A relaxation or a global solve, the unit of `ops_per_s`."""
        return not self.op.startswith("twobus#")

    @property
    def fingerprint(self) -> str:
        obj = "-" if self.objective is None else f"{self.objective:.9g}"
        return f"{self.op}|{self.status}|{self.nodes}|{self.iters}|{obj}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


def _point_violation(net, sol) -> float:
    return _evaluate(net, sol.e, sol.f, sol.pg, sol.qg).max_violation


# ------------------------------------------------------------------- checks

def relax_outcome(op: str, net, res, golden: float | None = None,
                  must_be_exact: bool = False) -> Outcome:
    iters = res.solution.iterations + (res.refined.iterations
                                       if res.refined is not None else 0)
    out = Outcome(op, res.status, res.objective, iters=iters)
    if res.status == conic.INFEASIBLE:
        if res.solution.certificate is None:
            out.why, out.wrong = "infeasible without a certificate", True
        elif golden is not None:
            out.why, out.wrong = f"infeasible, golden {golden}", True
        elif must_be_exact:
            out.why, out.wrong = "generated feeder relaxation infeasible", True
        return out
    if not res.solution.optimal:
        out.why = f"no answer: {res.status}"
        return out
    if golden is not None and _rel(res.objective, golden) > PAPER_REL:
        out.why, out.wrong = f"SOCP {res.objective:.6g} vs golden {golden}", True
    elif must_be_exact and res.opf is None:
        out.why, out.wrong = "generated feeder relaxation not exact", True
    elif res.opf is not None:
        viol = _point_violation(net, res.opf)
        if viol > OPF_TOL:
            miss = f"recovered point violates by {viol:.2e}"
        elif _rel(res.opf.objective, res.objective) > OPF_TOL:
            miss = (f"recovered cost {res.opf.objective:.9g} vs "
                    f"SOCP {res.objective:.9g}")
        else:
            miss = ""
        # the verdict stands; the point behind it misses the precision asked
        if must_be_exact:
            out.why = miss
        else:
            out.point_miss = miss
    return out


def global_outcome(op: str, net, relax, glob, *, golden: float | None,
                   fixed=None) -> Outcome:
    """`golden` is the paper's optimum, or None where the OPF is infeasible.
    Besides it: the rectangular check, objective >= SOCP bound, and an
    infeasible verdict whenever the relaxation is certified infeasible."""
    out = Outcome(op, glob.status, glob.objective, nodes=glob.nodes)
    if glob.status not in (bnb.GLOBAL_OPTIMAL, bnb.INFEASIBLE):
        out.why = f"no certificate: {glob.status}"
        return out
    if relax.status == conic.INFEASIBLE and glob.status != bnb.INFEASIBLE:
        out.why, out.wrong = "relaxation infeasible but OPF solved", True
        return out
    if glob.status == bnb.INFEASIBLE:
        if golden is not None:
            out.why, out.wrong = f"infeasible, golden {golden}", True
        return out
    if golden is None:
        out.why, out.wrong = "solved, golden says infeasible", True
        return out
    inc = glob.incumbent
    viol = _point_violation(net, inc)
    if viol > OPF_TOL:
        out.why, out.wrong = f"incumbent violates by {viol:.2e}", True
    elif _rel(inc.objective, glob.objective) > 1e-9:
        out.why, out.wrong = "incumbent cost differs from reported value", True
    elif relax.solution.optimal and glob.objective < relax.objective \
            - 1e-6 * (1 + abs(relax.objective)):
        out.why, out.wrong = (f"global {glob.objective:.9g} below SOCP bound "
                              f"{relax.objective:.9g}"), True
    elif _rel(glob.objective, golden) > PAPER_REL:
        out.why, out.wrong = f"global {glob.objective:.6g} vs golden {golden}", True
    elif fixed:
        pos = net.bus_index
        if any(abs(inc.vm[pos[b]] ** 2 - v) > 1e-7 for b, v in fixed.items()):
            out.why, out.wrong = "fixed voltages not held", True
        elif abs(math.degrees(inc.theta[1] - inc.theta[0])) >= 1.0:
            out.why, out.wrong = "fixed-voltage angle not below 1 degree", True
    return out


def _near_boundary(inst, cls, res) -> bool:
    """Within one enumeration cell of one of the classifier's decisions,
    where the grid and the closed form may legitimately disagree."""
    dists = []
    if cls.c_o is not None and cls.delta > -math.inf:
        dists.append(abs((cls.c_o[0] - cls.c_o[1]) - cls.delta))
    for pt in (cls.c_e, cls.c_i):
        if pt is not None:
            dists.append(abs(pt[1] - inst.c22_min))
    if cls.c_e is not None:
        dists.append(abs(cls.c_e[0] - inst.c11_min))
    return bool(dists) and min(dists) <= res


def twobus_outcome(k: int, inst, res: float = 1e-4) -> Outcome:
    cls = twobus.classify(inst)
    orc = twobus.grid_oracle(inst, resolution=res)
    out = Outcome(f"twobus#{k}", cls.verdict, cls.gap)
    agree = cls.verdict == orc.verdict
    if agree and cls.verdict == twobus.INEXACT:
        agree = abs(cls.gap - orc.gap) <= 2 * res * abs(inst.g) * inst.cost + 1e-9
    if not agree and not _near_boundary(inst, cls, res):
        out.why, out.wrong = (f"closed form {cls.verdict} vs enumeration "
                              f"{orc.verdict}"), True
    out.status += "" if agree else "~boundary"
    return out


def sample_two_bus(rng) -> twobus.TwoBusInstance:
    """Random line, load and voltage box; half the draws also get a random
    generation floor, so that every verdict occurs."""
    g = -rng.uniform(0.1, 10.0)
    b = rng.uniform(0.1, 30.0)
    box = dict(c11_min=rng.uniform(0.7, 0.9), c11_max=rng.uniform(1.1, 1.4),
               c22_min=rng.uniform(0.7, 0.9), c22_max=rng.uniform(1.1, 1.4))
    pd, qd = rng.uniform(-2.0, 2.0, size=2)
    pmin = rng.uniform(-2.0, 3.0) if rng.uniform() < 0.5 else -math.inf
    return twobus.TwoBusInstance(g=g, b=b, pd=pd, qd=qd, pmin=pmin, **box)


# ---------------------------------------------------------------- workloads

def _solve_pair(op, base, gamma, golden, **scale_kw):
    """Relaxation then global solve of `base` scaled by `gamma`; `golden`
    is (SOCP value, global value), the global value None where the OPF is
    infeasible."""
    def step():
        net = network.scale_load(base, gamma, **scale_kw)
        relax = jabr.solve_relaxation(net)
        glob = bnb.solve_global(net, gap_tol=SMALL_GAP)
        return [relax_outcome(f"{op} relax", net, relax, golden[0]),
                global_outcome(f"{op} global", net, relax, glob,
                               golden=golden[1])]
    return step


def _warm_up(global_paths: bool):
    """Run each code path a workload uses once, so that lazy imports and
    first BLAS calls are paid in set-up rather than in the timed passes."""
    net = network.scale_load(cases.load_case("case2_two_gen"), 1.01)
    jabr.solve_relaxation(net)
    if global_paths:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bnb.solve_global(net, gap_tol=SMALL_GAP, node_limit=2)
        inst = twobus.TwoBusInstance(g=-1.0, b=5.0, pd=0.5, qd=0.2)
        twobus.classify(inst)
        twobus.grid_oracle(inst)


def setup_bnb_small(seed: int):
    """Paper 2-bus and 3-bus load sweeps and the fixed-voltage experiment
    (inputs fixed, goldens on every seed), plus seeded two-bus instances."""
    net2 = cases.load_case("case2_two_gen")
    net3 = cases.load_case("case3_one_gen")
    steps = [_solve_pair(f"2bus g={g}", net2, g, gold)
             for g, gold in TWO_BUS.items()]
    steps += [_solve_pair(f"3bus g={g}", net3, g, gold, scale_p=False)
              for g, gold in THREE_BUS.items()]

    def fixed_step():
        relax = jabr.solve_relaxation(net2, fixed_voltage=FIXED_VOLTAGE)
        glob = bnb.solve_global(net2, gap_tol=SMALL_GAP,
                                fixed_voltage=FIXED_VOLTAGE)
        return [relax_outcome("fixed relax", net2, relax, FIXED_GOLDEN[0]),
                global_outcome("fixed global", net2, relax, glob,
                               golden=FIXED_GOLDEN[1], fixed=FIXED_VOLTAGE)]
    steps.append(fixed_step)

    rng = np.random.default_rng([seed, 2])
    insts = [sample_two_bus(rng) for _ in range(TWO_BUS_SAMPLES)]
    steps.append(lambda: [twobus_outcome(k, inst)
                          for k, inst in enumerate(insts)])
    _warm_up(global_paths=True)
    return steps


def setup_relax_sweep(seed: int):
    """SOCP relaxations only: trees 0..2 of case9 and case14 over a load
    sweep, then generated feeders of 33, 69 and 120 buses, relabelled by the
    seed (see feeders.py)."""
    steps = []
    for name in ("case9", "case14"):
        base = cases.load_case(name, drop_charging=True)
        for t in TREES:
            tree = network.spanning_tree(base, t)
            for g in SWEEP_GAMMAS:
                steps.append(_relax_step(f"{name}-t{t} g={g}", tree, g))
    for n in feeders.SIZES:
        feeder = feeders.radial_feeder(n, seed)
        for g in feeders.GAMMAS:
            steps.append(_relax_step(f"{feeder.name} g={g}", feeder, g,
                                     must_be_exact=True))
    _warm_up(global_paths=False)
    return steps


def _relax_step(op, base, gamma, must_be_exact=False):
    def step():
        net = network.scale_load(base, gamma)
        res = jabr.solve_relaxation(net)
        return [relax_outcome(op, net, res, must_be_exact=must_be_exact)]
    return step


SETUP = {
    "bnb-small": setup_bnb_small,
    "relax-sweep": setup_relax_sweep,
}


def run_steps(steps, on_op=None) -> tuple[list[Outcome], list[float]]:
    """Run every step once; `on_op(k)` is told when step k starts.  Returns
    the outcomes and the wall time of each step."""
    out, times = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, step in enumerate(steps):
            if on_op is not None:
                on_op(k)
            t = time.perf_counter()
            out.extend(step())
            times.append(time.perf_counter() - t)
    return out, times
