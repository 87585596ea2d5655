"""Network model: parsing, admittance, spanning trees, load scaling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radopf import cases, network
from radopf.network import (Bus, Generator, Line, Network, NetworkError,
                            ParseError, admittance, network_from_json,
                            network_to_json, parse_case, scale_load,
                            spanning_tree)


def test_parse_two_bus_line_admittance():
    """r=0.01008, x=0.0504 inverts to G=-3.8156, B=+19.0782 p.u."""
    net = cases.load_case("case2_two_gen")
    ln = net.lines[0]
    assert ln.g == pytest.approx(-3.8156, abs=5e-4)
    assert ln.b == pytest.approx(19.0782, abs=5e-4)


def test_parse_two_bus_loads_per_unit():
    net = cases.load_case("case2_two_gen")
    assert net.base_mva == 100.0
    b1 = net.bus(1)
    assert b1.pd == pytest.approx(0.75)
    assert b1.qd == pytest.approx(-0.847)
    g1, g2 = net.generators
    assert (g1.pmin, g1.pmax) == (0.75, 2.5)
    assert g2.cost.c1 == pytest.approx(1.2 * 100)  # $/MW -> $/p.u.


def test_bus_without_generator_left_out():
    net = cases.load_case("case3_one_gen")
    assert len(net.generators) == 1
    assert net.generators_at(2) == [] and net.generators_at(3) == []


def test_parse_errors_carry_line_numbers():
    bad = cases.case_text("case2_two_gen").replace("0.01008", "zz")
    with pytest.raises(ParseError, match=r"line \d+"):
        parse_case(bad)


def test_disconnected_network_rejected():
    with pytest.raises(NetworkError, match="connected"):
        Network(buses=(Bus(1), Bus(2), Bus(3)),
                generators=(Generator(1),),
                lines=(Line(1, 2, 0.01, 0.05),))


def test_charging_rejected_then_dropped():
    text = cases.case_text("case9")
    with pytest.raises(ParseError, match="charging"):
        parse_case(text)
    with pytest.warns(UserWarning):
        net = parse_case(text, drop_charging=True)
    assert len(net.lines) == 9


def test_gencost_quadratic_rescaling():
    net = cases.load_case("case9", drop_charging=True)
    g = net.generators[0]
    assert g.cost.c2 == pytest.approx(0.11 * 100 * 100)
    assert g.cost.c1 == pytest.approx(5.0 * 100)
    assert g.cost.c0 == pytest.approx(150.0)


def test_admittance_single_line_diagonal():
    net = cases.load_case("case2_two_gen")
    G, B = admittance(net)
    assert G[0, 0] == pytest.approx(-G[0, 1])
    assert B[0, 0] == pytest.approx(-19.0782, abs=5e-4)
    assert np.allclose(G, G.T) and np.allclose(B, B.T)


def test_admittance_chain_tridiagonal():
    net = cases.load_case("case3_one_gen")
    G, B = admittance(net)
    assert B[0, 2] == 0.0 and G[0, 2] == 0.0


def test_bus_shunt_enters_diagonal():
    net = cases.load_case("case14", drop_charging=True)
    G, B = admittance(net)
    k = net.bus_index[9]
    offdiag = sum(ln.b for ln in net.lines if 9 in (ln.from_bus, ln.to_bus))
    assert B[k, k] == pytest.approx(0.19 - offdiag)


def test_spanning_tree_already_radial_identity():
    net = cases.load_case("case3_one_gen")
    tree = spanning_tree(net, seed=5)
    assert tree.lines == net.lines


def test_spanning_tree_case9_count_and_acyclic():
    net = cases.load_case("case9", drop_charging=True)
    for seed in range(5):
        tree = spanning_tree(net, seed)
        assert len(tree.lines) == net.num_buses - 1
        tree.require_radial()


def test_spanning_tree_deterministic():
    net = cases.load_case("case9", drop_charging=True)
    assert spanning_tree(net, 3).lines == spanning_tree(net, 3).lines


def test_triangle_tree_choice_varies_with_seed():
    buses = tuple(Bus(i) for i in (1, 2, 3))
    lines = (Line(1, 2, 0.01, 0.05), Line(2, 3, 0.01, 0.05), Line(1, 3, 0.01, 0.05))
    net = Network(buses=buses, generators=(Generator(1),), lines=lines)
    seen = {spanning_tree(net, s).lines for s in range(20)}
    assert len(seen) > 1
    for tree_lines in seen:
        assert len(tree_lines) == 2


def test_scale_load_identity_and_table_rows():
    net = cases.load_case("case2_two_gen")
    assert scale_load(net, 1.0).buses == net.buses
    scaled = scale_load(net, 1.01)
    assert scaled.bus(1).pd == pytest.approx(0.75 * 1.01)
    assert scaled.bus(2).qd == pytest.approx(0.228 * 1.01)
    qonly = scale_load(cases.load_case("case3_one_gen"), 1.03, scale_p=False)
    assert qonly.bus(1).pd == pytest.approx(0.50)
    assert qonly.bus(3).qd == pytest.approx(-0.823 * 1.03)


def test_scale_load_rejects_nonpositive():
    with pytest.raises(NetworkError):
        scale_load(cases.load_case("case2_two_gen"), 0.0)


def test_json_round_trip():
    for name in ("case2_two_gen", "case3_one_gen", "case9"):
        net = cases.load_case(name, drop_charging=(name == "case9"))
        back = network_from_json(network_to_json(net))
        assert back == net


def test_mfile_reparse_round_trip():
    """Parsing the same text twice gives identical networks."""
    text = cases.case_text("case2_two_gen")
    assert parse_case(text) == parse_case(text)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(1e-4, 0.2), x=st.floats(1e-4, 0.5))
def test_line_admittance_identity(r, x):
    """(g, b) = (-r, x)/(r^2+x^2): check g*(r^2+x^2) + r == 0 exactly."""
    ln = Line(1, 2, r, x)
    assert abs(ln.g * (r * r + x * x) + r) < 1e-12
    assert abs(ln.b * (r * r + x * x) - x) < 1e-12


def test_unsupported_table_warns():
    text = cases.case_text("case2_two_gen") + "\nmpc.bus_name = [ 1; 2 ];\n"
    with pytest.warns(UserWarning, match="bus_name"):
        parse_case(text)


def test_cost_validation():
    with pytest.raises(NetworkError):
        network.CostFunction(c2=-1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: Generator(1, pmax=NAN),
    lambda: Generator(1, pmin=NAN, pmax=1.0),
    lambda: Generator(1, qmin=NAN),
    lambda: Generator(1, qmax=NAN),
    lambda: Line(1, 2, r=NAN, x=0.1),
    lambda: Line(1, 2, r=0.01, x=INF),
    lambda: network.CostFunction(c1=NAN),
    lambda: network.CostFunction(c2=INF),
    lambda: network.CostFunction(c0=-INF),
], ids=["pmax-nan", "pmin-nan", "qmin-nan", "qmax-nan", "r-nan", "x-inf",
        "c1-nan", "c2-inf", "c0-inf"])
def test_nan_or_infinite_data_is_refused(make):
    """Every comparison with NaN is false, so a NaN bound once passed the
    crossed-bounds test and was then read as no bound at all.  A NaN in
    any field, and a non-finite impedance or cost coefficient, is refused;
    a unit bound may still be infinite."""
    with pytest.raises(NetworkError):
        make()
    assert Generator(1, pmin=-INF, pmax=INF, qmin=-INF, qmax=INF).pmax == INF
