"""Instance generators."""

import warnings

from radopf import cases, conic, generate, jabr, network


def test_perturb_solves_the_relaxation_once(monkeypatch):
    """`perturb` reads only the first solve's dispatch: on an inexact case9
    tree it makes one `conic.solve` call, and gives the instance of a run
    with the refine re-solve on."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # charging/tap/shift zeroed
        tree = network.spanning_tree(cases.load_case("case9",
                                                     drop_charging=True))
    net = generate.raise_reactive_floor(tree, 1, 0.3)
    assert jabr.solve_relaxation(net, refine=False).verdict == "inexact"
    solve, relax, calls = conic.solve, jabr.solve_relaxation, []
    monkeypatch.setattr(conic, "solve",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    got = network.network_to_json(generate.perturb(net, 0.9))
    assert len(calls) == 1
    monkeypatch.setattr(jabr, "solve_relaxation",
                        lambda n, **kw: relax(n, **{**kw, "refine": True}))
    assert network.network_to_json(generate.perturb(net, 0.9)) == got
    assert len(calls) == 3      # the refine-on run re-solves
