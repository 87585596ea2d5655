"""Command-line front end: parse, relax, classify, tighten, solve, report.

Exit codes: 0 solved, 2 OPF certified infeasible, 3 gap/time limit reached,
64 usage error, 65 data error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import bnb, cases, generate, jabr, network, tighten, twobus
from .conic import INFEASIBLE

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_USAGE = 64
EXIT_DATA = 65


def _load_network(args) -> network.Network:
    if args.case in cases._ALL:
        net = cases.load_case(args.case, drop_charging=getattr(args, "drop_charging", False))
    else:
        with open(args.case) as fh:
            text = fh.read()
        if args.case.endswith(".json"):
            net = network.network_from_json(text)
        else:
            net = network.parse_case(text, name=args.case,
                                     drop_charging=getattr(args, "drop_charging", False))
    gamma = getattr(args, "gamma", None)
    if gamma is not None and gamma != 1.0:
        net = network.scale_load(net, gamma, scale_p=not args.q_only)
    seed = getattr(args, "seed", None)
    if getattr(args, "radialize", False):
        net = network.spanning_tree(net, seed or 0)
    return net


def _report(net, gamma, relax_result, bnb_result=None) -> dict:
    out = {
        "instance": net.name,
        "gamma": gamma,
        "socp_status": relax_result.status,
        "socp_objective": relax_result.objective,
        "exactness": relax_result.verdict,
        "max_cone_residual": (relax_result.exactness.max_residual
                              if relax_result.exactness else None),
        "ipm_iterations": relax_result.ipm_iterations,
    }
    if bnb_result is not None:
        trace = bnb_result.trace
        out.update({
            "global_status": bnb_result.status,
            "global_objective": bnb_result.objective,
            "lower_bound": None if not math.isfinite(bnb_result.lower_bound)
                           else bnb_result.lower_bound,
            "nodes": bnb_result.nodes,
            "cuts": bnb_result.cuts,
            "polish_calls": bnb_result.polish_calls,
            "polish_found": bnb_result.polish_found,
            "cutoff_stops": bnb_result.cutoff_stops,
            "root_gap_percent": bnb_result.root_gap_pct,
            "preprocess_s": round(bnb_result.preprocess_time, 3),
            "search_s": round(bnb_result.runtime - bnb_result.preprocess_time, 3),
            "runtime_s": round(bnb_result.runtime, 3),
            "bound_trace": [(n, lb, None if not math.isfinite(ub) else ub)
                            for n, lb, ub in
                            trace[::max(1, len(trace) // 20)]],
        })
        if (relax_result.objective is not None and bnb_result.objective
                and bnb_result.objective > 0):
            out["gap_percent"] = 100.0 * (1.0 - relax_result.objective
                                          / bnb_result.objective)
    return out


def cmd_relax(args) -> int:
    net = _load_network(args)
    res = jabr.solve_relaxation(net)
    doc = _report(net, args.gamma, res)
    print(json.dumps(doc, indent=2))
    if res.status == INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_OK if res.solution.optimal else EXIT_LIMIT


def cmd_sweep(args) -> int:
    base = _load_network(argparse.Namespace(**{**vars(args), "gamma": None}))
    rows = []
    g = args.gamma_from
    while g <= args.gamma_to + 1e-12:
        net = network.scale_load(base, g, scale_p=not args.q_only)
        res = jabr.solve_relaxation(net)
        row = {"gamma": round(g, 10), "socp_status": res.status,
               "socp_objective": res.objective, "exactness": res.verdict}
        if args.solve:
            gres = bnb.solve_global(net, gap_tol=args.gap,
                                    time_limit=args.time_limit)
            row.update({"global_status": gres.status,
                        "global_objective": gres.objective})
        rows.append(row)
        g += args.step
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]) if rows else
                            ["gamma"])
    writer.writeheader()
    writer.writerows(rows)
    return EXIT_OK


def _read_instance(path) -> twobus.TwoBusInstance | None:
    """The two-bus instance in the JSON file at `path`, or None after one
    `bad instance:` line on stderr when its fields make no instance."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return twobus.TwoBusInstance(**doc)
    except (TypeError, ValueError) as exc:
        print(f"bad instance: {exc}", file=sys.stderr)
        return None


def cmd_classify2bus(args) -> int:
    inst = _read_instance(args.instance)
    if inst is None:
        return EXIT_DATA
    cls = twobus.classify(inst)
    out = asdict(cls)
    print(json.dumps(out, indent=2, default=float))
    return EXIT_OK


def cmd_solve(args) -> int:
    net = _load_network(args)
    fixed = None
    if args.fix_voltage:
        try:
            doc = json.loads(args.fix_voltage)
            fixed = jabr.checked_pins(net, {int(k): v for k, v in doc.items()})
        except (AttributeError, TypeError, ValueError) as exc:
            print(f"bad --fix-voltage (a JSON map bus -> squared voltage "
                  f"is wanted): {exc}", file=sys.stderr)
            return EXIT_USAGE
    res = jabr.solve_relaxation(net, fixed_voltage=fixed)
    gres = bnb.solve_global(net, gap_tol=args.gap, time_limit=args.time_limit,
                            use_cuts=not args.no_cuts,
                            use_bounds=not args.no_obbt, fixed_voltage=fixed)
    doc = _report(net, args.gamma, res, gres)
    print(json.dumps(doc, indent=2))
    if gres.status == bnb.INFEASIBLE:
        return EXIT_INFEASIBLE
    if gres.status in (bnb.GAP_LIMIT, bnb.TIME_LIMIT):
        return EXIT_LIMIT
    return EXIT_OK


def cmd_tighten(args) -> int:
    net = _load_network(args)
    try:
        model = jabr.build_relaxation(net)
        box, cuts = tighten.run_algorithm1(model)
    except tighten.RelaxationInfeasible as exc:
        print(f"relaxation infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    rows = io.StringIO()
    w = csv.writer(rows)
    w.writerow(["line", "c_lo", "c_hi", "s_lo", "s_hi"])
    for k in range(len(net.lines)):
        vc, vs = model.c[k], model.s[k]
        w.writerow([k] + [f"{v:.10g}" for v in (box.lo[vc], box.hi[vc],
                                                 box.lo[vs], box.hi[vs])])
    print(rows.getvalue())
    print(tighten.cuts_csv(cuts))
    return EXIT_OK


def cmd_genlib(args) -> int:
    import os
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    for name in args.cases:
        if name in cases._ALL:
            base = cases.load_case(name, drop_charging=True)
        else:
            with open(name) as fh:
                base = network.parse_case(fh.read(), name=name,
                                          drop_charging=True)
        for seed in range(args.seeds):
            tree = network.spanning_tree(base, seed)
            if args.overshoot_gen is not None:
                inst = generate.raise_reactive_floor(
                    tree, args.overshoot_gen, args.overshoot_q) or tree
            else:
                inst = generate.perturb(tree, args.raise_fraction)
            for g in np.arange(args.gamma_from, args.gamma_to + 1e-12, args.step):
                net = network.scale_load(inst, float(g))
                res = jabr.solve_relaxation(net)
                if not res.solution.optimal:
                    continue
                gres = bnb.solve_global(net, gap_tol=args.gap,
                                        time_limit=args.time_limit)
                gap = None
                if gres.objective and res.objective:
                    gap = 100.0 * (1.0 - res.objective / gres.objective)
                tag = f"{net.name}_tree{seed}_g{g:.2f}"
                with open(os.path.join(args.out, tag + ".json"), "w") as fh:
                    fh.write(network.network_to_json(net))
                manifest.append({"name": tag, "gamma": round(float(g), 10),
                                 "socp": res.objective,
                                 "global_status": gres.status,
                                 "global": gres.objective,
                                 "gap_percent": gap})
    path = os.path.join(args.out, "manifest.csv")
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["name", "gamma", "socp",
                                           "global_status", "global",
                                           "gap_percent"])
        w.writeheader()
        w.writerows(manifest)
    print(f"wrote {len(manifest)} instances + {path}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    import os
    if args.instance:
        inst = _read_instance(args.instance)
        if inst is None:
            return EXIT_DATA
        os.makedirs(args.out, exist_ok=True)
        sample = twobus.sample_regions(inst, resolution=args.resolution)
        np.savetxt(os.path.join(args.out, "hyperbola.csv"), sample.hyperbola,
                   delimiter=",", header="c11,c22", comments="")
        np.savetxt(os.path.join(args.out, "region.csv"), sample.grid,
                   delimiter=",", header="c11,c22,socp_feasible", comments="")
        with open(os.path.join(args.out, "points.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["label", "c11", "c22"])
            for label, (x, y) in sample.points.items():
                w.writerow([label, f"{x:.12g}", f"{y:.12g}"])
        print(f"wrote region data to {args.out}")
        return EXIT_OK
    net = _load_network(args)
    os.makedirs(args.out, exist_ok=True)
    pts = generate.projection_samples(net, args.samples, args.seed or 0)
    np.savetxt(os.path.join(args.out, "projection.csv"), pts, delimiter=",",
               header="pg_first,qg_first,pg_second,feasible", comments="")
    print(f"wrote projection samples to {args.out}")
    return EXIT_OK


def _range_error(args) -> str | None:
    """One line on the first of --step and --resolution (which must be
    positive) and --gap (which must not be negative) that `args` holds out
    of range, or None; a NaN is out of every range."""
    for name, ok, want in (("step", lambda v: v > 0, "positive"),
                           ("resolution", lambda v: v > 0, "positive"),
                           ("gap", lambda v: v >= 0, "non-negative")):
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            return f"--{name} must be {want}, not {value}"
    return None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="radopf",
                                description="Radial-network OPF toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, gamma=True):
        sp.add_argument("--case", required=True,
                        help="case file (.m subset or .json) or built-in name")
        if gamma:
            sp.add_argument("--gamma", type=float, default=None,
                            help="load scaling factor")
            sp.add_argument("--q-only", action="store_true",
                            help="scale reactive load only")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--radialize", action="store_true",
                        help="extract a spanning tree first")
        sp.add_argument("--drop-charging", action="store_true",
                        help="zero line charging/taps instead of rejecting")

    sp = sub.add_parser("relax", help="solve the SOCP relaxation")
    common(sp)
    sp.set_defaults(func=cmd_relax)

    sp = sub.add_parser("sweep", help="relaxation values over a load sweep")
    common(sp, gamma=False)
    sp.add_argument("--gamma-from", type=float, required=True)
    sp.add_argument("--gamma-to", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--q-only", action="store_true")
    sp.add_argument("--solve", action="store_true",
                    help="also run the global solver per point")
    sp.add_argument("--gap", type=float, default=1e-3)
    sp.add_argument("--time-limit", type=float, default=60.0)
    sp.set_defaults(func=cmd_sweep, gamma=None)

    sp = sub.add_parser("classify2bus", help="closed-form two-bus analysis")
    sp.add_argument("--instance", required=True, help="instance JSON")
    sp.set_defaults(func=cmd_classify2bus)

    sp = sub.add_parser("solve", help="global solve via branch-and-bound")
    common(sp)
    sp.add_argument("--gap", type=float, default=1e-4)
    sp.add_argument("--time-limit", type=float, default=None)
    sp.add_argument("--no-cuts", action="store_true",
                    help="skip the secant cuts of Algorithm 1")
    sp.add_argument("--no-obbt", action="store_true",
                    help="skip Algorithm 1's bound tightening; the cuts are "
                         "built from the tightened boxes, so this drops them "
                         "too")
    sp.add_argument("--fix-voltage", default=None,
                    help='JSON map bus -> squared voltage, e.g. \'{"1":0.874}\'')
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("tighten", help="variable bounds and secant cuts")
    common(sp)
    sp.set_defaults(func=cmd_tighten)

    sp = sub.add_parser("genlib", help="generate a radial instance library")
    sp.add_argument("--cases", nargs="+", required=True)
    sp.add_argument("--seeds", type=int, default=1)
    sp.add_argument("--gamma-from", type=float, default=1.0)
    sp.add_argument("--gamma-to", type=float, default=1.0)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--raise-fraction", type=float, default=0.9)
    sp.add_argument("--overshoot-gen", type=int, default=None,
                    help="raise this generator's reactive floor past dispatch")
    sp.add_argument("--overshoot-q", type=float, default=0.3)
    sp.add_argument("--gap", type=float, default=1e-2)
    sp.add_argument("--time-limit", type=float, default=60.0)
    sp.add_argument("--out", default="library")
    sp.set_defaults(func=cmd_genlib)

    sp = sub.add_parser("plotdata", help="emit projection/region CSVs")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", default=None,
                        help="two-bus instance JSON (region plots)")
    source.add_argument("--case", default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--q-only", action="store_true")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--radialize", action="store_true")
    sp.add_argument("--drop-charging", action="store_true")
    sp.add_argument("--resolution", type=float, default=1e-2)
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--out", default="plotdata")
    sp.set_defaults(func=cmd_plotdata)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    error = _range_error(args)
    if error:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (network.ParseError, network.NetworkError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
