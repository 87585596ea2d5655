"""The benchmark's own code calls radopf by name; those names and the
keywords it passes must exist.  The tests only read `perfbench/`."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_radopf_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_exists():
    """`Tracer.install` re-binds each (module, attr) of `TARGETS` and raises
    on a missing one, which would stop the traced benchmark run."""
    tracing = _tracing()
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert module.__name__.startswith("radopf."), module
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def _radopf_modules(tree):
    """Names that the parsed file binds by `from radopf import m`."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "radopf"
            for alias in node.names}


def _radopf_calls(tree):
    """(call node, module name, attribute) of every call `m.f(...)` in the
    parsed file whose `m` is imported by `from radopf import m`."""
    modules = _radopf_modules(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            yield node, node.func.value.id, node.func.attr


def _forwarded(tree, call):
    """Keyword names that reach `call` through a `**kw` of the function
    around it: the keywords that the file's calls of that function pass
    beyond the function's own parameters."""
    names = {kw.value.id for kw in call.keywords
             if kw.arg is None and isinstance(kw.value, ast.Name)}
    out = set()
    for fn in ast.walk(tree):
        if (isinstance(fn, ast.FunctionDef) and fn.args.kwarg is not None
                and fn.args.kwarg.arg in names
                and any(node is call for node in ast.walk(fn))):
            own = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            out |= {kw.arg for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name
                    for kw in node.keywords
                    if kw.arg is not None and kw.arg not in own}
    return out


def test_benchmark_calls_bind_to_current_signatures():
    """Every direct call that `perfbench/*.py` makes to a radopf module
    function binds to the function's current signature, with the keywords
    written at the call and those forwarded to it (`_solve_pair` passes
    `scale_p` to `network.scale_load`).  A removed parameter or function
    that the benchmark still uses would make every benchmark run fail."""
    checked = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for call, module, attr in _radopf_calls(tree):
            where = f"{path.name}:{call.lineno} {module}.{attr}"
            fn = getattr(importlib.import_module(f"radopf.{module}"), attr,
                         None)
            assert callable(fn), where
            positional = [None] * len(call.args)
            if any(isinstance(a, ast.Starred) for a in call.args):
                positional = []
            keywords = {kw.arg for kw in call.keywords if kw.arg is not None}
            keywords |= _forwarded(tree, call)
            try:
                inspect.signature(fn).bind_partial(
                    *positional, **dict.fromkeys(keywords))
            except TypeError as exc:
                pytest.fail(f"{where}: {exc}")
            checked.add((module, attr, frozenset(keywords)))
    assert ("network", "scale_load", frozenset({"scale_p"})) in checked
    assert ("bnb", "solve_global", frozenset({"gap_tol", "fixed_voltage"})) \
        in checked


def test_node_relaxation_spans_count_the_solved_node_members(monkeypatch):
    """With `Tracer` installed around one `solve_global` on 2-bus γ=1.00,
    `bnb.node_relaxation` has one span, and its per-layer call count one
    call, per node member that `conic.solve_batch` solves (its calls with
    cutoffs and no overrides).  A search that formed its node members
    without calling `node_relaxation` through the module would read 0
    there and still run."""
    from radopf import bnb, cases, conic, network
    tracing = _tracing()
    solve_batch, solved = conic.solve_batch, []

    def spy(progs, overrides=None, cutoffs=None):
        if overrides is None and cutoffs is not None:
            solved.extend(progs)
        return solve_batch(progs, overrides, cutoffs)

    monkeypatch.setattr(conic, "solve_batch", spy)
    net = network.scale_load(cases.load_case("case2_two_gen"), 1.00)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = bnb.solve_global(net, gap_tol=9e-4)
    finally:
        tracer.remove()
    spans = [s for s in tracer.spans if s["name"] == "bnb.node_relaxation"]
    calls = tracing.layer_metrics(tracer.spans, 1.0)["bnb.node_relaxation.calls"]
    assert res.optimal and len(solved) > 1
    assert len(spans) == calls == len(solved)


def test_every_name_the_benchmark_reads_exists():
    """Every `m.attr` that `perfbench/*.py` reads from a radopf module `m`
    exists: status constants (`bnb.GLOBAL_OPTIMAL`, `conic.INFEASIBLE`,
    `twobus.INEXACT`), classes, and functions bound at import
    (`jabr.evaluate_opf_point` in workloads.py), not only the functions
    it calls.  A renamed one would pass every other test and stop each
    benchmark run."""
    read = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = _radopf_modules(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                module = importlib.import_module(f"radopf.{node.value.id}")
                assert hasattr(module, node.attr), \
                    f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                read.add(f"{node.value.id}.{node.attr}")
    assert {"bnb.GLOBAL_OPTIMAL", "bnb.INFEASIBLE", "conic.INFEASIBLE",
            "twobus.INEXACT", "jabr.evaluate_opf_point"} <= read
