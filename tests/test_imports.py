"""What a fresh process loads: no module in `src/radopf` imports
scipy.optimize, and no run loads it, whether relaxation, tightening, the
two-bus analysis, the CLI's relax command, a local polish or a global
search; a global search on dense KKT storage only never loads
scipy.sparse.csgraph, which only the sparse storage uses; the first polish
in a fresh process gives the same point as one in a warm process; a star
import binds every public name."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from radopf import bnb, cases, jabr, network

ROOT = Path(__file__).resolve().parent.parent

RELAX_ONLY = """
import sys
from radopf import cases, cli, jabr, network, tighten, twobus
net = network.scale_load(cases.load_case("case2_two_gen"), 1.01)
assert jabr.solve_relaxation(net).solution.optimal
tighten.run_algorithm1(jabr.build_relaxation(net))
inst = twobus.TwoBusInstance(g=-3.8156, b=19.0782, pd=1.05, qd=0.228,
                             c11_min=0.81, c11_max=1.21,
                             c22_min=0.81, c22_max=1.21)
assert twobus.classify(inst).verdict == twobus.grid_oracle(inst).verdict
assert cli.main(["relax", "--case", "case2_two_gen"]) == cli.EXIT_OK
print("scipy.optimize" in sys.modules)
"""

FIRST_POLISH = """
import sys
sys.path.insert(0, {tests!r})
from test_imports import polish_case2
assert "scipy.optimize" not in sys.modules
hexed = polish_case2().objective.hex()
assert "scipy.optimize" not in sys.modules
print(hexed)
"""

GLOBAL_SEARCH = """
import sys
from radopf import bnb, cases, network
net = network.scale_load(cases.load_case("case2_two_gen"), 1.00)
assert bnb.solve_global(net, gap_tol=9e-4).optimal
print("scipy.optimize" in sys.modules, "scipy.sparse.csgraph" in sys.modules)
"""

STAR = """
import radopf
from radopf import *
print([name for name in radopf.__all__ if name not in globals()])
"""


def polish_case2():
    """Local polish of the 2-bus γ = 1.00 relaxation point."""
    net = network.scale_load(cases.load_case("case2_two_gen"), 1.00)
    res = jabr.solve_relaxation(net, refine=False)
    return bnb.local_polish(res.model, res.solution.x)


def _fresh(code: str) -> str:
    """Last stdout line of `code` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return run.stdout.strip().splitlines()[-1]


def test_relaxation_only_work_never_loads_scipy_optimize():
    assert _fresh(RELAX_ONLY) == "False"


def test_first_polish_in_a_fresh_process_matches_a_warm_one():
    cand = polish_case2()
    assert cand is not None
    tests = str(Path(__file__).resolve().parent)
    assert _fresh(FIRST_POLISH.format(tests=tests)) == cand.objective.hex()


def test_global_search_never_loads_scipy_optimize():
    """Nor scipy.sparse.csgraph: the 2-bus search factors every KKT matrix
    dense."""
    assert _fresh(GLOBAL_SEARCH) == "False False"


def test_no_source_module_imports_scipy_optimize():
    """A static scan: no import statement in `src/radopf` names
    scipy.optimize, at module level or inside a function."""
    found = []
    for path in sorted((ROOT / "src" / "radopf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == "scipy.optimize"
                      or name.startswith("scipy.optimize.")]
    assert found == []


def test_star_import_binds_every_public_name():
    """Every name in `radopf.__all__` resolves, so a deletion that leaves
    its name in the list fails here."""
    assert _fresh(STAR) == "[]"
