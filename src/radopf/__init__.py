"""Toolkit for AC optimal power flow on radial networks: SOCP relaxation of
the cosine/sine lifting, closed-form two-bus analysis, SOCP-based bound
tightening with secant valid inequalities, and a spatial branch-and-bound
global solver."""

from .network import (Bus, CostFunction, Generator, Line, Network,
                      NetworkError, ParseError, admittance, network_from_json,
                      network_to_json, parse_case, scale_load, spanning_tree)
from .conic import ConicProgram, ConicSolution, ProgramError, solve
from .jabr import (Exactness, JabrModel, OpfResiduals, OpfSolution,
                   RelaxationResult, build_relaxation, check_exactness,
                   evaluate_opf_point, recover_angles, solve_relaxation)
from .twobus import (OracleResult, TwoBusClassification, TwoBusInstance,
                     alpha_beta, back_substitute, classify, effective_delta,
                     grid_oracle, sample_regions)
from .tighten import (Cut, NodeBox, RelaxationInfeasible, Ring,
                      compute_bounds, generate_cut, run_algorithm1)
from .bnb import (BnbResult, branch, local_polish, node_relaxation,
                  range_reduction, solve_global)
from .cases import case_text, load_case

__version__ = "0.1.0"

__all__ = [
    "Bus", "CostFunction", "Generator", "Line", "Network", "NetworkError",
    "ParseError", "admittance", "parse_case", "network_from_json",
    "network_to_json", "scale_load", "spanning_tree",
    "ConicProgram", "ConicSolution", "ProgramError", "solve",
    "Exactness", "JabrModel", "OpfResiduals", "OpfSolution",
    "RelaxationResult", "build_relaxation", "check_exactness",
    "evaluate_opf_point", "recover_angles", "solve_relaxation",
    "OracleResult", "TwoBusClassification", "TwoBusInstance", "alpha_beta",
    "back_substitute", "classify", "effective_delta", "grid_oracle",
    "sample_regions",
    "Cut", "NodeBox", "RelaxationInfeasible", "Ring", "compute_bounds",
    "generate_cut", "run_algorithm1",
    "BnbResult", "branch", "local_polish", "node_relaxation",
    "range_reduction", "solve_global",
    "case_text", "load_case",
    "__version__",
]
