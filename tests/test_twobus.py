"""Closed-form two-bus analysis vs enumeration, plus algebraic identities."""

import math

import numpy as np
import pytest

from radopf import jabr, twobus
from radopf.twobus import TwoBusInstance, alpha_beta, back_substitute, classify


def make_inst(**kw):
    base = dict(g=-3.8156, b=19.0782, pd=1.05, qd=0.228)
    base.update(kw)
    return TwoBusInstance(**base)


def sample_instance(rng):
    """Mixed sampler: random bound targets plus curve-pinned dip targets so
    every verdict class appears (g in [-10,-0.1], b in [0.1,30])."""
    g = -rng.uniform(0.1, 10.0)
    b = rng.uniform(0.1, 30.0)
    box = dict(c11_min=rng.uniform(0.7, 0.9), c11_max=rng.uniform(1.1, 1.4),
               c22_min=rng.uniform(0.7, 0.9), c22_max=rng.uniform(1.1, 1.4))
    if rng.uniform() < 0.5:
        # pin the feasible curve through (c11_min, c22I); loads follow from
        # the inverted elimination identities
        c11m = box["c11_min"]
        c22I = rng.uniform(box["c22_min"] + 0.02, box["c22_max"] - 0.05)
        root = math.sqrt(c11m * c22I)
        beta = rng.uniform(max(c22I - root, 0.0) + 0.02 * root,
                           c22I + root - 0.02 * root)
        alpha = math.copysign(
            math.sqrt(max(c11m * c22I - (c22I - beta) ** 2, 0.0)),
            rng.uniform(-1, 1))
        pd = alpha * b + beta * g
        qd = alpha * g - beta * b
        m2 = alpha * alpha + beta * beta
        hi = min(m2 / c22I, box["c22_max"])
        if hi > c22I:
            c22e = rng.uniform(c22I + 0.02 * (hi - c22I), hi - 0.02 * (hi - c22I))
            delta = m2 / c22e - 2 * beta
            pmin = -g * delta - g * beta + b * alpha
            return TwoBusInstance(g=g, b=b, pd=pd, qd=qd, pmin=pmin, **box)
    pd = rng.uniform(-2.0, 2.0)
    qd = rng.uniform(-2.0, 2.0)
    inst = TwoBusInstance(g=g, b=b, pd=pd, qd=qd, **box)
    cls = classify(inst)
    if cls.c_o is None:
        return inst
    a, be = cls.alpha, cls.beta
    target = cls.c_o[0] - cls.c_o[1] + rng.uniform(-0.2, 0.4)
    pmin = qmin = -np.inf
    which = rng.integers(0, 3)
    if which in (0, 2):
        pmin = -g * target - g * be + b * a
    if which in (1, 2):
        qmin = b * target + b * be + g * a
    return TwoBusInstance(g=g, b=b, pd=pd, qd=qd, pmin=pmin, qmin=qmin, **box)


def near_decision_boundary(inst, res=1e-4):
    """Within one grid cell of any of the classifier's decision quantities."""
    cls = classify(inst)
    dists = []
    if cls.c_o is not None and cls.delta > -np.inf:
        dists.append(abs((cls.c_o[0] - cls.c_o[1]) - cls.delta))
    for pt, bound in ((cls.c_e, inst.c22_min), (cls.c_i, inst.c22_min)):
        if pt is not None:
            dists.append(abs(pt[1] - bound))
    if cls.c_e is not None:
        dists.append(abs(cls.c_e[0] - inst.c11_min))
    return dists and min(dists) <= res


# ---------------------------------------------------------------- closed form

def test_alpha_beta_zero_load():
    assert alpha_beta(make_inst(pd=0.0, qd=0.0)) == (0.0, 0.0)


def test_alpha_beta_unit_example():
    a, b = alpha_beta(TwoBusInstance(g=-1.0, b=1.0, pd=1.0, qd=0.0))
    assert (a, b) == pytest.approx((0.5, -0.5))


def test_alpha_beta_matches_linear_system():
    """Cross-check against a numeric solve of the eliminated 4x4 system."""
    inst = make_inst()
    a, be = alpha_beta(inst)
    g, b = inst.g, inst.b
    # rows: p1, q1, p2, q2 balance in (p1, q1, c12, s12) with c11=c22=0
    M = np.array([[1.0, 0.0, -g, b],
                  [0.0, 1.0, b, g],
                  [0.0, 0.0, -g, -b],
                  [0.0, 0.0, b, -g]])
    rhs = np.array([0.0, 0.0, inst.pd, inst.qd])
    sol = np.linalg.solve(M, rhs)
    assert sol[3] == pytest.approx(-a, abs=1e-12)   # s12 = -alpha
    assert sol[2] == pytest.approx(-be, abs=1e-12)  # c12 = c22 - beta at c22=0


def test_back_substitute_zero_load_symmetry():
    p1, q1, c12, s12 = back_substitute(make_inst(pd=0.0, qd=0.0), 1.0, 1.0)
    assert p1 == pytest.approx(0.0, abs=1e-12)
    assert q1 == pytest.approx(0.0, abs=1e-12)


def test_back_substitute_satisfies_balance_rows():
    inst = make_inst()
    c11, c22 = 1.08, 0.95
    p1, q1, c12, s12 = back_substitute(inst, c11, c22)
    g, b = inst.g, inst.b
    assert p1 + g * c11 - g * c12 + b * s12 == pytest.approx(0.0, abs=1e-12)
    assert q1 - b * c11 + b * c12 + g * s12 == pytest.approx(0.0, abs=1e-12)
    assert g * c22 - g * c12 - b * s12 == pytest.approx(inst.pd, abs=1e-12)
    assert -b * c22 + b * c12 - g * s12 == pytest.approx(inst.qd, abs=1e-12)


def test_hyperbola_point_couples_exactly():
    inst = make_inst()
    for c22 in (0.85, 1.0, 1.2):
        c11 = float(twobus.hyperbola_c11(inst, c22))
        _, _, c12, s12 = back_substitute(inst, c11, c22)
        assert c12 ** 2 + s12 ** 2 == pytest.approx(c11 * c22, rel=1e-12)


def test_effective_delta_unbounded_and_monotone():
    assert twobus.effective_delta(make_inst()) == -np.inf
    lo = twobus.effective_delta(make_inst(pmin=0.5))
    hi = twobus.effective_delta(make_inst(pmin=0.9))
    assert hi > lo
    withq = twobus.effective_delta(make_inst(pmin=0.5, qmin=5.0))
    assert withq >= lo


def test_effective_delta_dominating_term():
    """With huge b the q-term scales down, so the p-term dominates."""
    inst = make_inst(b=25.0, pmin=1.0, qmin=0.2)
    a, be = alpha_beta(inst)
    d = twobus.effective_delta(inst)
    p_term = (inst.pmin + inst.g * be - inst.b * a) / (-inst.g)
    q_term = (inst.qmin - inst.b * be - inst.g * a) / inst.b
    assert d == max(p_term, q_term)


def test_classify_delta_small_is_exact():
    cls = classify(make_inst())
    assert cls.verdict == twobus.EXACT and cls.case_label == 1
    assert cls.gap == 0.0


def test_classify_verdict_scale_invariant_in_cost():
    inst = sample_instance(np.random.default_rng(3))
    a = classify(inst)
    from dataclasses import replace
    b = classify(replace(inst, cost=7.5))
    assert a.verdict == b.verdict and a.case_label == b.case_label
    if a.gap is not None and a.gap > 0:
        assert b.gap == pytest.approx(7.5 * a.gap, rel=1e-12)


def test_classify_monotone_values_in_pmin():
    """Raising pmin shrinks the feasible sets, so both optimal values are
    nondecreasing and infeasibility persists.  (The verdict label itself is
    NOT monotone: sliding the bound line down the curve can pop the crossing
    out of the dip below the c11 floor, flipping inexact back to exact; the
    enumeration oracle confirms such flips, so only the value claims hold.)"""
    rank = {twobus.EXACT: 0, twobus.INEXACT: 0,
            twobus.OPF_INFEASIBLE: 1, twobus.BOTH_INFEASIBLE: 2}
    rng = np.random.default_rng(11)
    from dataclasses import replace
    for _ in range(30):
        inst = sample_instance(rng)
        if inst.pmin == -np.inf:
            continue
        a = classify(inst)
        b = classify(replace(inst, pmin=inst.pmin + 0.05))
        assert rank[b.verdict] >= rank[a.verdict]
        if a.socp_value is not None and b.socp_value is not None:
            assert b.socp_value >= a.socp_value - 1e-9
        if a.opf_value is not None and b.opf_value is not None:
            assert b.opf_value >= a.opf_value - 1e-9


def test_classify_mirror_b_negative():
    inst = sample_instance(np.random.default_rng(21))
    from dataclasses import replace
    mirrored = replace(inst, b=-inst.b, qd=-inst.qd,
                       qmin=-inst.qmax, qmax=-inst.qmin)
    a, b = classify(inst), classify(mirrored)
    assert b.mirrored and a.verdict == b.verdict
    if a.gap and b.gap:
        assert a.gap == pytest.approx(b.gap, rel=1e-9)


def test_classify_requires_conventions():
    with pytest.raises(ValueError):
        TwoBusInstance(g=0.5, b=1.0, pd=0.0, qd=0.0)
    with pytest.raises(ValueError):
        TwoBusInstance(g=-0.5, b=1.0, pd=0.0, qd=0.0, cost=0.0)


def test_classify_outcomes_crafted():
    """One crafted instance per outcome of the classification."""
    exact = make_inst()
    assert classify(exact).verdict == twobus.EXACT
    # push the bound line past the curve window entirely
    a, be = alpha_beta(exact)
    inf1 = make_inst(pmin=-exact.g * 0.9 - exact.g * be + exact.b * a)
    out = classify(inf1)
    assert out.verdict in (twobus.OPF_INFEASIBLE, twobus.BOTH_INFEASIBLE)
    # dip construction for a finite gap
    rng = np.random.default_rng(2)
    for _ in range(200):
        cand = sample_instance(rng)
        if classify(cand).verdict == twobus.INEXACT:
            got = classify(cand)
            assert got.gap > 0 and got.opf_value > got.socp_value
            break
    else:
        pytest.fail("sampler produced no inexact instance")


# ------------------------------------------------------------------- sampling

def test_sample_regions_identities():
    inst = make_inst(pmin=0.8)
    sample = twobus.sample_regions(inst, resolution=5e-3)
    a, be = alpha_beta(inst)
    c11, c22 = sample.hyperbola[:, 0], sample.hyperbola[:, 1]
    assert np.max(np.abs((c22 - be) ** 2 + a ** 2 - c11 * c22)) < 1e-10
    assert sample.grid.shape[1] == 3
    # region grid agrees with direct evaluation
    mask = sample.grid[:, 2] > 0.5
    lhs = (sample.grid[:, 1] - be) ** 2 + a ** 2
    rhs = sample.grid[:, 0] * sample.grid[:, 1]
    d = twobus.effective_delta(inst)
    ok = (lhs <= rhs) & (sample.grid[:, 0] - sample.grid[:, 1] >= d)
    assert np.array_equal(mask, ok)


def test_sample_regions_rejects_bad_resolution():
    with pytest.raises(ValueError):
        twobus.sample_regions(make_inst(), resolution=0.0)


# ------------------------------------------------------- enumeration agreement

@pytest.mark.parametrize("seed", [0, 1])
def test_classifier_matches_grid_oracle(seed):
    """Verdicts agree with brute force; inexact gaps agree to the stated
    enumeration tolerance (full 1000-instance run lives in acceptance)."""
    rng = np.random.default_rng(seed)
    res = 1e-4
    checked = mismatches = 0
    for _ in range(40):
        inst = sample_instance(rng)
        cls = classify(inst)
        orc = twobus.grid_oracle(inst, resolution=res)
        checked += 1
        ok = cls.verdict == orc.verdict
        if ok and cls.verdict == twobus.INEXACT:
            ok = abs(cls.gap - orc.gap) <= 2 * res * abs(inst.g) * inst.cost + 1e-9
        if not ok:
            assert near_decision_boundary(inst, res), (inst, cls.verdict, orc.verdict)
            mismatches += 1
    assert mismatches <= max(1, checked // 50)


def test_grid_oracle_socp_matches_closed_form():
    """Numeric relaxation optimum equals the projected-geometry value."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = sample_instance(rng)
        cls = classify(inst)
        orc = twobus.grid_oracle(inst, resolution=1e-3)
        if cls.socp_value is None:
            assert orc.socp_value is None
        else:
            assert orc.socp_value == pytest.approx(cls.socp_value, rel=1e-6)


def test_grid_oracle_relaxation_has_no_rows_for_absent_unit_bounds(monkeypatch):
    """The oracle solves the relaxation on the instance's own unit bounds:
    the four absent ones add no row, where `to_network`'s stand-ins add
    one each."""
    inst = make_inst()
    real, seen = twobus.conic.solve, []
    monkeypatch.setattr(twobus.conic, "solve",
                        lambda prog: seen.append(prog) or real(prog))
    twobus.grid_oracle(inst, resolution=1e-3)
    (prog,) = seen

    def rows(p):
        return p._constraints()[2].l

    stand_ins = jabr.build_relaxation(inst.to_network()).program
    assert rows(prog) == rows(stand_ins) - 4


# (verdict, opf_value, argmin) of the enumeration, as float.hex: unbounded
# exact, an inexact one with a binding pmin, and a mirrored (b < 0) one
# with a qmax
PINNED_ORACLE = [
    (dict(g=-3.8156, b=19.0782, pd=1.05, qd=0.228),
     ("exact", "0x1.0f69f6b35ec0dp+0",
      ("0x1.2fc02cc3dedbcp+0", "0x1.23c36113404ebp+0"))),
    (dict(g=-5.901872998866605, b=6.0282363206777285, pd=-9.59015439152895,
          qd=0.843268820449862, pmin=-2.858254129506409,
          c11_min=0.8346431056489167, c11_max=1.251351010394668,
          c22_min=0.8479499432725236, c22_max=1.294920134300117),
     ("inexact", "-0x1.6cbd129943792p+1",
      ("0x1.ab565758b913ep-1", "0x1.23e391ee4aeeap+0"))),
    (dict(g=-1.6655043562053486, b=-13.143819368549435,
          pd=-0.7827353374284054, qd=-1.4584026418979472,
          qmax=-0.9716313924985834, c11_min=0.769178719089283,
          c11_max=1.2186447018835003, c22_min=0.8611486671241328,
          c22_max=1.1605992454634941),
     ("exact", "-0x1.8371cdc4847c3p-1",
      ("0x1.37f91876c9035p+0", "0x1.ffbb2d2470e04p-1"))),
]


@pytest.mark.parametrize("kw,want", PINNED_ORACLE)
def test_grid_oracle_enumeration_is_pinned(kw, want):
    orc = twobus.grid_oracle(TwoBusInstance(**kw))
    assert (orc.verdict, orc.opf_value.hex(),
            tuple(v.hex() for v in orc.argmin)) == want


def test_to_network_round_trip_admittance():
    inst = make_inst()
    net = inst.to_network()
    ln = net.lines[0]
    assert ln.g == pytest.approx(inst.g, rel=1e-12)
    assert ln.b == pytest.approx(inst.b, rel=1e-12)
