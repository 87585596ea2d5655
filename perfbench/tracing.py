"""Spans around the public functions of each radopf layer, from outside.

`Tracer.install()` re-binds module attributes of ``radopf.conic``, ``jabr``,
``tighten``, ``bnb``, ``twobus`` and ``network`` to wrappers.  The program
calls these functions through module globals, so every internal call lands
in a wrapper without any change to ``src/``.  Each wrapper keeps a span in
memory (name, start, end, parent span, operation id) plus counts read from
the return value; `layer_metrics` folds the spans into per-layer numbers.
"""

from __future__ import annotations

import json
import time
import warnings

import numpy as np

from radopf import bnb, conic, jabr, network, tighten, twobus


def _conic_counts(args, kwargs, sol):
    return {"iters": sol.iterations, "status": sol.status}


def _global_counts(args, kwargs, res):
    return {"nodes": res.nodes, "preprocess": res.preprocess_time}


def _polish_counts(args, kwargs, sol):
    return {"found": sol is not None}


def _box_arrays(box):
    return [box.cii_lo, box.c_lo, box.s_lo], [box.cii_hi, box.c_hi, box.s_hi]


def _obbt_counts(args, kwargs, out):
    if out is None:
        return {"pruned": True, "shrunk": 0}
    box = args[1] if len(args) > 1 else kwargs["box"]
    (lo0, hi0), (lo1, hi1) = _box_arrays(box), _box_arrays(out)
    shrunk = sum(int(np.count_nonzero((a1 > a0) | (b1 < b0)))
                 for a0, b0, a1, b1 in zip(lo0, hi0, lo1, hi1))
    return {"pruned": False, "shrunk": shrunk}


def _cut_counts(args, kwargs, out):
    return {"cuts": len(out[1])}


# (module, attribute, counts read from the return value)
TARGETS = (
    (conic, "solve", _conic_counts),
    (jabr, "build_relaxation", None),
    (jabr, "solve_relaxation", None),
    (jabr, "check_exactness", None),
    (jabr, "recover_angles", None),
    (jabr, "evaluate_opf_point", None),
    (tighten, "run_algorithm1", _cut_counts),
    (bnb, "solve_global", _global_counts),
    (bnb, "node_relaxation", None),
    (bnb, "range_reduction", _obbt_counts),
    (bnb, "local_polish", _polish_counts),
    (bnb, "branch", None),
    (twobus, "classify", None),
    (twobus, "grid_oracle", None),
    (network, "scale_load", None),
)


def _name(module, attr):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counts):
        catch = name == "tighten.run_algorithm1"

        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                if catch:
                    # "cut skipped" warnings become a count instead of output
                    with warnings.catch_warnings(record=True) as seen:
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                    span["cuts_skipped"] = sum("cut skipped" in str(w.message)
                                               for w in seen)
                else:
                    out = fn(*args, **kwargs)
            except BaseException as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, out))
            return out

        return wrapper

    def install(self):
        for module, attr, counts in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(_name(module, attr), fn, counts))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _self_and_busy(spans):
    """Per span: duration minus its children's; per name: summed duration
    of the outermost spans of that name (recursion counted once)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    outer = []
    for s in spans:
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        outer.append(p is None)
    return child_time, outer


def layer_metrics(spans, pass_wall: float) -> dict:
    """Per-layer numbers named ``<layer>.<function>.<what>``.

    Functions that run on every workload report times in seconds; those
    that only the branch-and-bound and two-bus work reach report their share
    of the traced pass in percent, so that a layer doing no work reads 0%."""
    child_time, outer = _self_and_busy(spans)
    by = {}
    for s, kids, top in zip(spans, child_time, outer):
        if not top:
            continue
        d = by.setdefault(s["name"], {"calls": 0, "busy": 0.0, "self": 0.0,
                                      "list": []})
        dur = s["end"] - s["start"]
        d["calls"] += 1
        d["busy"] += dur
        d["self"] += dur - kids
        d["list"].append(s)

    def get(name):
        return by.get(name, {"calls": 0, "busy": 0.0, "self": 0.0, "list": []})

    def pct(seconds):
        return 100.0 * seconds / pass_wall

    m = {}
    cs = get("conic.solve")
    iters = sum(s.get("iters", 0) for s in cs["list"])
    m["conic.solve.calls"] = cs["calls"]
    m["conic.solve.busy_s"] = cs["busy"]
    m["conic.solve.iters"] = iters
    m["conic.solve.ms_per_iter"] = 1e3 * cs["busy"] / max(iters, 1)
    m["conic.solve.failed"] = sum(s.get("status") not in
                                  (conic.OPTIMAL, conic.INFEASIBLE)
                                  for s in cs["list"])
    m["conic.solve.infeasible"] = sum(s.get("status") == conic.INFEASIBLE
                                      for s in cs["list"])
    for fn in ("build_relaxation", "solve_relaxation"):
        d = get("jabr." + fn)
        m[f"jabr.{fn}.calls"] = d["calls"]
        m[f"jabr.{fn}.busy_s"] = d["busy"]
    m["jabr.solve_relaxation.self_s"] = get("jabr.solve_relaxation")["self"]
    m["jabr.check_exactness.busy_s"] = get("jabr.check_exactness")["busy"]
    m["jabr.recover_angles.busy_s"] = get("jabr.recover_angles")["busy"]
    m["jabr.evaluate_opf_point.calls"] = get("jabr.evaluate_opf_point")["calls"]
    m["network.scale_load.busy_s"] = get("network.scale_load")["busy"]

    a1 = get("tighten.run_algorithm1")
    m["tighten.run_algorithm1.calls"] = a1["calls"]
    m["tighten.run_algorithm1.busy_pct"] = pct(a1["busy"])
    m["tighten.run_algorithm1.cuts"] = sum(s.get("cuts", 0) for s in a1["list"])
    m["tighten.run_algorithm1.cuts_skipped"] = sum(s.get("cuts_skipped", 0)
                                                   for s in a1["list"])

    nr = get("bnb.node_relaxation")
    m["bnb.node_relaxation.calls"] = nr["calls"]
    m["bnb.node_relaxation.busy_pct"] = pct(nr["busy"])

    rr = get("bnb.range_reduction")
    pruned = sum(bool(s.get("pruned")) for s in rr["list"])
    useful = sum(bool(s.get("pruned")) or s.get("shrunk", 0) > 0
                 for s in rr["list"])
    m["bnb.range_reduction.calls"] = rr["calls"]
    m["bnb.range_reduction.busy_pct"] = pct(rr["busy"])
    m["bnb.range_reduction.pruned"] = pruned
    m["bnb.range_reduction.shrunk"] = sum(s.get("shrunk", 0) for s in rr["list"])
    m["bnb.range_reduction.useful_ratio"] = useful / max(rr["calls"], 1)

    lp = get("bnb.local_polish")
    found = sum(bool(s.get("found")) for s in lp["list"])
    m["bnb.local_polish.calls"] = lp["calls"]
    m["bnb.local_polish.busy_pct"] = pct(lp["busy"])
    m["bnb.local_polish.self_pct"] = pct(lp["self"])
    m["bnb.local_polish.found"] = found
    m["bnb.local_polish.success_ratio"] = found / max(lp["calls"], 1)

    sg = get("bnb.solve_global")
    m["bnb.solve_global.calls"] = sg["calls"]
    m["bnb.solve_global.busy_pct"] = pct(sg["busy"])
    m["bnb.solve_global.self_pct"] = pct(sg["self"])
    m["bnb.solve_global.preprocess_pct"] = pct(sum(s.get("preprocess", 0.0)
                                                   for s in sg["list"]))
    m["bnb.solve_global.nodes"] = sum(s.get("nodes", 0) for s in sg["list"])
    m["bnb.branch.calls"] = get("bnb.branch")["calls"]

    for fn in ("classify", "grid_oracle"):
        d = get("twobus." + fn)
        m[f"twobus.{fn}.calls"] = d["calls"]
        m[f"twobus.{fn}.busy_pct"] = pct(d["busy"])
    return m
