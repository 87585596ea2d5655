"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line on success (pytest -s shows them)."""

import math
import time
import warnings

import numpy as np
import pytest

import oracles
from radopf import bnb, cases, jabr, network, tighten, twobus
from radopf.generate import raise_reactive_floor

warnings.filterwarnings("ignore")

REL = 5e-3          # "within 0.5%"
GAP = 9e-4          # certification gap for golden solves (inside the 1e-3
                    # oracle-agreement tolerance of criterion 6)

TWO_BUS_TABLE = {
    0.13: (459.00, None), 0.80: (459.00, None), 0.98: (496.96, 496.96),
    1.00: (501.46, 563.56), 1.01: (503.76, 641.21), 1.02: (506.07, None),
    2.92: (1608.75, None),
}
THREE_BUS_TABLE = {
    0.95: (939.45, 939.45), 1.00: (945.45, 950.70), 1.03: (950.05, 959.91),
    1.04: (951.60, None),
}


def _report(name):
    print(f"\n[PASS] {name}")


@pytest.fixture(scope="module")
def net2():
    return cases.load_case("case2_two_gen")


@pytest.fixture(scope="module")
def net3():
    return cases.load_case("case3_one_gen")


@pytest.fixture(scope="module")
def two_bus_runs(net2):
    """Relaxation + global solve per Table-II gamma (reused downstream)."""
    out = {}
    for gamma in TWO_BUS_TABLE:
        scaled = network.scale_load(net2, gamma)
        t0 = time.monotonic()
        relax = jabr.solve_relaxation(scaled)
        glob = bnb.solve_global(scaled, gap_tol=GAP, time_limit=60)
        out[gamma] = (scaled, relax, glob, time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def three_bus_runs(net3):
    out = {}
    for gamma in THREE_BUS_TABLE:
        scaled = network.scale_load(net3, gamma, scale_p=False)
        relax = jabr.solve_relaxation(scaled)
        glob = bnb.solve_global(scaled, gap_tol=GAP, time_limit=60)
        out[gamma] = (scaled, relax, glob)
    return out


def test_criterion_1_two_bus_table(two_bus_runs):
    """SOCP and global values across the reference load sweep, the
    exact/inexact/infeasible pattern, and the per-gamma runtime cap."""
    for gamma, (scaled, relax, glob, secs) in two_bus_runs.items():
        socp_want, glob_want = TWO_BUS_TABLE[gamma]
        assert relax.objective == pytest.approx(socp_want, rel=REL), gamma
        if glob_want is None:
            assert glob.status == bnb.INFEASIBLE, gamma
        else:
            assert glob.optimal, gamma
            assert glob.objective == pytest.approx(glob_want, rel=REL), gamma
        assert secs < 30.0, f"gamma={gamma} took {secs:.1f}s"
    # verdict pattern: exact inside [0.81, 0.99], inexact at 1.00-1.01,
    # OPF infeasible from 1.02 on
    assert two_bus_runs[0.98][1].verdict == "exact"
    for gamma in (1.00, 1.01):
        assert two_bus_runs[gamma][1].verdict == "inexact"
        assert two_bus_runs[gamma][2].optimal
    for gamma in (0.13, 0.80, 1.02, 2.92):
        assert two_bus_runs[gamma][2].status == bnb.INFEASIBLE
        assert two_bus_runs[gamma][1].solution.optimal  # SOCP still feasible
    _report("criterion 1: two-bus reference sweep (SOCP, global, pattern, <30s/point)")


def test_criterion_2_fixed_voltage(net2):
    relax = jabr.solve_relaxation(net2, fixed_voltage={1: 0.874, 2: 0.816})
    assert relax.objective == pytest.approx(503.37, rel=REL)
    glob = bnb.solve_global(net2, gap_tol=GAP,
                            fixed_voltage={1: 0.874, 2: 0.816}, time_limit=60)
    assert glob.optimal
    assert glob.objective == pytest.approx(573.82, rel=REL)
    th = glob.incumbent.theta
    assert abs(math.degrees(th[1] - th[0])) < 1.0
    _report("criterion 2: fixed-voltage experiment (573.82 / 503.37, angle < 1 deg)")


def test_criterion_3_three_bus_table(three_bus_runs):
    for gamma, (scaled, relax, glob) in three_bus_runs.items():
        socp_want, glob_want = THREE_BUS_TABLE[gamma]
        assert relax.objective == pytest.approx(socp_want, rel=REL), gamma
        if glob_want is None:
            assert glob.status == bnb.INFEASIBLE
        else:
            assert glob.optimal
            assert glob.objective == pytest.approx(glob_want, rel=REL), gamma
    _report("criterion 3: three-bus reference sweep (values and infeasible row)")


def _sample_instance(rng):
    import test_twobus
    return test_twobus.sample_instance(rng)


def test_criterion_4_classifier_vs_oracle():
    """1000 randomized two-bus instances: closed form vs enumeration."""
    rng = np.random.default_rng(2024)
    res = 1e-4
    t0 = time.monotonic()
    total = agree = boundary_excused = 0
    import test_twobus
    while total < 1000:
        inst = _sample_instance(rng)
        cls = twobus.classify(inst)
        orc = twobus.grid_oracle(inst, resolution=res)
        total += 1
        ok = cls.verdict == orc.verdict
        if ok and cls.verdict == twobus.INEXACT:
            ok = abs(cls.gap - orc.gap) <= 2 * res * abs(inst.g) * inst.cost + 1e-9
        if ok:
            agree += 1
        elif test_twobus.near_decision_boundary(inst, res):
            boundary_excused += 1
    elapsed = time.monotonic() - t0
    assert agree + boundary_excused == total, \
        f"{total - agree - boundary_excused} unexcused disagreements"
    assert agree >= 0.995 * total, f"agreement {agree}/{total}"
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    _report(f"criterion 4: classifier vs grid oracle ({agree}/{total} agree, "
            f"{boundary_excused} boundary-excused, {elapsed:.0f}s)")


def test_criterion_5_cut_validity(net2, net3):
    """Every generated cut across the corpus keeps all sampled annulus
    points; chord endpoints sit on the inner circle to 1e-12."""
    instances = [network.scale_load(net2, g) for g in (0.95, 1.00)]
    instances.append(network.scale_load(net3, 1.00, scale_p=False))
    base9 = cases.load_case("case9", drop_charging=True)
    instances.append(network.spanning_tree(base9, 0))
    rng = np.random.default_rng(0)
    n_cuts = 0
    for net in instances:
        model = jabr.build_relaxation(net)
        box, cuts = tighten.run_algorithm1(model)
        for cut in cuts:
            n_cuts += 1
            for x, y in (cut.p1, cut.p2):
                r_lo = tighten.ring_for(net, cut.line).r_lo
                assert abs(x * x + y * y - r_lo ** 2) < 1e-12
            vc, vs = model.c[cut.line], model.s[cut.line]
            lo_c, hi_c = box.lo[vc], box.hi[vc]
            lo_s, hi_s = box.lo[vs], box.hi[vs]
            c = rng.uniform(lo_c, hi_c, 100_000)
            s = rng.uniform(lo_s, hi_s, 100_000)
            keep = c * c + s * s >= r_lo ** 2
            viol = cut.violation(c[keep], s[keep])
            assert np.all(viol <= 1e-9)
    assert n_cuts >= 3
    _report(f"criterion 5: cut validity ({n_cuts} cuts, 1e5 samples each, "
            "chords on circle to 1e-12)")


@pytest.mark.slow
def test_criterion_6_solver_vs_oracles(two_bus_runs, three_bus_runs):
    """Global solver vs rectangular brute-force oracles on every 2- and
    3-bus instance; every incumbent re-verified at 1e-6."""
    for gamma, (scaled, relax, glob, _) in two_bus_runs.items():
        val, _z = oracles.two_gen_global(scaled)
        if val is None:
            assert glob.status == bnb.INFEASIBLE, gamma
        else:
            assert glob.optimal, gamma
            assert glob.objective == pytest.approx(val, rel=1e-3), gamma
        if glob.incumbent is not None:
            inc = glob.incumbent
            chk = jabr.evaluate_opf_point(scaled, inc.e, inc.f, inc.pg, inc.qg)
            assert chk.max_violation < 1e-6
    for gamma, (scaled, relax, glob) in three_bus_runs.items():
        val, _pt = oracles.chain_global(scaled)
        if val is None:
            assert glob.status == bnb.INFEASIBLE, gamma
        else:
            assert glob.optimal, gamma
            assert glob.objective == pytest.approx(val, rel=1e-3), gamma
        if glob.incumbent is not None:
            inc = glob.incumbent
            chk = jabr.evaluate_opf_point(scaled, inc.e, inc.f, inc.pg, inc.qg)
            assert chk.max_violation < 1e-6
    _report("criterion 6: global solver matches rectangular oracles to 1e-3; "
            "incumbents verified at 1e-6")


@pytest.fixture(scope="module")
def library_instances():
    """Three radial instances rebuilt on every run from spanning trees of
    the standard meshed systems: each pushes one unit's reactive floor past
    the dispatch of a relaxation solve (`raise_reactive_floor`), so a change
    to the relaxation can change the instances themselves."""
    out = []
    base9 = cases.load_case("case9", drop_charging=True)
    tree9 = network.spanning_tree(base9, 0)
    out.append(("case9-t0-g1", raise_reactive_floor(tree9, 1, 0.3)))
    out.append(("case9-t0-g2", raise_reactive_floor(tree9, 2, 0.3)))
    base14 = cases.load_case("case14", drop_charging=True)
    tree14 = network.spanning_tree(base14, 0)
    out.append(("case14-t0-g4", raise_reactive_floor(tree14, 4, 0.1)))
    return out


@pytest.mark.slow
def test_criterion_7_bounds_and_cuts_effect(library_instances):
    """On the regenerated radial library: bounds+cuts never lower the root
    bound, node counts drop (vs bounds-only) on at least 2 of 3, and at
    least one instance certifies a relaxation gap above 1%."""
    improved_nodes = 0
    max_gap = 0.0
    counts = []
    for name, inst in library_instances:
        assert inst is not None and inst.is_radial
        relax = jabr.solve_relaxation(inst)
        assert relax.solution.optimal and relax.verdict == "inexact", name
        plain = bnb.solve_global(inst, gap_tol=1e-2, time_limit=150,
                                 use_bounds=False, use_cuts=False)
        bonly = bnb.solve_global(inst, gap_tol=1e-2, time_limit=150,
                                 use_cuts=False)
        full = bnb.solve_global(inst, gap_tol=1e-2, time_limit=150)
        assert full.root_lb >= plain.root_lb - 1e-6 * max(1, abs(plain.root_lb)), name
        counts.append(f"{name} {plain.nodes}/{bonly.nodes}/{full.nodes}")
        if full.nodes <= bonly.nodes:
            improved_nodes += 1
        if full.optimal and relax.objective:
            gap = 100.0 * (1.0 - relax.objective / full.objective)
            max_gap = max(max_gap, gap)
    assert improved_nodes >= 2, counts
    assert max_gap > 1.0, f"largest certified gap {max_gap:.2f}%"
    _report(f"criterion 7: bounds+cuts root-LB monotone, node counts improve "
            f"on {improved_nodes}/3, max gap {max_gap:.2f}% > 1%; "
            f"plain/bounds-only/bounds+cuts nodes: {', '.join(counts)}")


def _lift_point(net, vm, th, pg, qg):
    model = jabr.build_relaxation(net)
    x = np.zeros(model.program.num_vars)
    pos = net.bus_index
    for k in range(len(net.generators)):
        x[model.pg[k]] = pg[k]
        x[model.qg[k]] = qg[k]
    for b_id, v in model.cii.items():
        x[v] = vm[pos[b_id]] ** 2
    for k, ln in enumerate(net.lines):
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        d = th[j] - th[i]
        x[model.c[k]] = vm[i] * vm[j] * math.cos(d)
        x[model.s[k]] = vm[i] * vm[j] * math.sin(d)
    return model.program.max_violation(x)


def test_criterion_8_relaxation_contains_all_feasible_points(
        two_bus_runs, three_bus_runs, net2, net3):
    """Lifted image of every feasible point produced anywhere in the corpus
    satisfies the relaxation."""
    points = []
    for gamma, (scaled, relax, glob, _) in two_bus_runs.items():
        if relax.opf is not None:
            points.append((scaled, relax.opf))
        if glob.incumbent is not None:
            points.append((scaled, glob.incumbent))
    for gamma, (scaled, relax, glob) in three_bus_runs.items():
        if relax.opf is not None:
            points.append((scaled, relax.opf))
        if glob.incumbent is not None:
            points.append((scaled, glob.incumbent))
    # an oracle-produced point too
    scaled = network.scale_load(net3, 1.00, scale_p=False)
    val, pt = oracles.chain_global(scaled)
    assert oracles.verify_point(scaled, *pt).max_violation < 1e-6
    G, B = network.admittance(scaled)
    p, q = oracles._injections(scaled, G + 1j * B, pt[0], pt[1])
    i = scaled.bus_index[scaled.generators[0].bus]
    points.append((scaled, jabr.OpfSolution(
        bus_ids=[b.id for b in scaled.buses], vm=pt[0], theta=pt[1],
        pg=np.array([p[i]]), qg=np.array([q[i]]), objective=val)))
    assert len(points) >= 8
    worst = 0.0
    for net, opf in points:
        worst = max(worst, _lift_point(net, opf.vm, opf.theta, opf.pg, opf.qg))
    assert worst <= 1e-6, worst
    _report(f"criterion 8: relaxation feasibility of every lifted corpus "
            f"point (worst violation {worst:.2e})")
