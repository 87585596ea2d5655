"""radopf benchmark: certified-solve time, throughput and failures per workload.

    python3 perfbench/run.py --workload bnb-small --seed 0 --seconds 40 --trace 0

Workloads (inputs are made from --seed; seed 0 reproduces the default ones):

  bnb-small    relaxation + global solve (gap 9e-4) over the paper's 2-bus and
               3-bus load sweeps (every golden row, and infeasible rows) and
               the fixed-voltage experiment, plus 100 seeded two-bus
               instances classified in closed form and cross-checked by
               enumeration.
  relax-sweep  jabr.solve_relaxation only: trees 0..2 of case9 and case14 at
               gamma 0.80..1.10, and generated radial feeders of 33/69/120
               buses at gamma 0.8/1.0/1.2, relabelled by the seed (see
               feeders.py).

A pass runs every operation of the workload once and checks every answer.
With --trace 0 a run makes as many untraced passes as fit in --seconds (at
least two; see PASS_SECONDS), each under a speed.SpeedProbe.  `wall_s` and
`cpu_s` are the median over the passes of the pass's wall and process CPU
time at reference speed: its own time, less the probe's, scaled by how much
slower than usual the probe's kernel ran meanwhile (see speed.py; the raw
times are printed and stored too).  `setup_s` is scaled by the passes'
median factor.  Every pass must give the same answers,
node counts and iteration counts.  The last stdout line carries the
end-to-end metrics.
With --trace 1 one untraced pass is followed by one pass with every layer
wrapped by tracing.py, and the last line carries the per-layer metrics and
the tracing overhead.  Spans, results and the exact counts of each (workload,
seed) go to perfbench/out/; a later run of the same sources and seed whose
answers, node, iteration or solve counts differ is reported as incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import env  # noqa: E402  (before numpy: pins BLAS threads, finds src/)
import speed  # noqa: E402

# Rough length of one untraced pass on a 2-core x86_64 host.  A run with
# --seconds S makes max(MIN_PASSES, S // PASS_SECONDS) passes, so the pass
# count does not depend on how fast the host happens to be.
PASS_SECONDS = {"bnb-small": 14.0, "relax-sweep": 25.0}
MIN_PASSES = 2
# fresh-interpreter import samples taken before the first pass and after
# each pass, so that they see the same host states as the passes
IMPORT_SAMPLES = 3
SETUP_REPEATS = 3
_IMPORT_PROBE = ("import env, time; t = time.perf_counter(); import workloads; "
                 "print(time.perf_counter() - t)")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("bnb-small", "relax-sweep"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _source_hash() -> str:
    h = hashlib.sha256()
    for d in (env.SRC / "radopf", HERE):
        for f in sorted(d.glob("*.py")):
            h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()[:16]


def _import_times() -> list[float]:
    """Times to import numpy, scipy and radopf in fresh interpreters."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=HERE,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def _passes(run_steps, steps, count, import_times):
    """Run `count` untraced passes, each under a SpeedProbe and followed by
    import samples appended to `import_times`.  Returns the first pass's
    outcomes, one record of times per pass, and the problems found when
    comparing the passes."""
    records, problems, outcomes = [], [], None
    for k in range(count):
        w0, c0 = time.perf_counter(), time.process_time()
        with speed.SpeedProbe() as probe:
            out, step_s = run_steps(steps)
        wall = time.perf_counter() - w0 - probe.spent_wall
        cpu = time.process_time() - c0 - probe.spent_cpu
        records.append({"wall_s": wall * probe.factor,
                        "cpu_s": cpu * probe.factor,
                        "raw_wall_s": wall, "raw_cpu_s": cpu,
                        "speed_factor": probe.factor,
                        "probe_ticks": len(probe.samples), "step_s": step_s})
        import_times += _import_times()
        if outcomes is None:
            outcomes = out
        elif [o.fingerprint for o in out] != [o.fingerprint for o in outcomes]:
            problems.append(f"pass {k} answers/nodes/iterations differ from "
                            f"pass 0")
    return outcomes, records, problems


def _check_repeat(record_path: Path, record: dict) -> list[str]:
    """Compare exact counts with an earlier run of the same sources and
    seed, then store this run's counts for the next one."""
    problems = []
    if record_path.is_file():
        old = json.loads(record_path.read_text())
        if old.get("source") == record["source"]:
            if old["ops"] != record["ops"]:
                diff = [f"{a} != {b}" for a, b in zip(old["ops"], record["ops"])
                        if a != b]
                problems.append(f"answers/nodes/iterations differ from an "
                                f"earlier run: {diff[:3]}")
            for key in ("conic.solve.calls", "conic.solve.iters"):
                if key in old and key in record and old[key] != record[key]:
                    problems.append(f"{key} {record[key]} != earlier {old[key]}")
            record = {**old, **record}
    record_path.write_text(json.dumps(record))
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    import workloads  # imports numpy, scipy and radopf
    import_times = _import_times()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # case-parsing notices
            steps = workloads.SETUP[args.workload](args.seed)
        setup_times.append(time.perf_counter() - t)

    count = 1 if args.trace else max(
        MIN_PASSES, int(args.seconds // PASS_SECONDS[args.workload]))
    outcomes, passes, problems = _passes(workloads.run_steps, steps, count,
                                         import_times)
    wall_s = statistics.median(p["wall_s"] for p in passes)
    cpu_s = statistics.median(p["cpu_s"] for p in passes)
    raw_wall_s = statistics.median(p["raw_wall_s"] for p in passes)
    # set-up is mostly fresh interpreters importing numpy and scipy, where the
    # probe cannot tick; it is scaled by the passes' factor instead, which
    # the host's state of the same minute sets
    raw_setup_s = (statistics.median(import_times)
                   + statistics.median(setup_times))
    setup_s = raw_setup_s * statistics.median(p["speed_factor"]
                                              for p in passes)
    failed = [o for o in outcomes if not o.ok]
    wrong = [o for o in failed if o.wrong]
    misses = [o for o in outcomes if o.point_miss]
    nodes = sum(o.nodes for o in outcomes)
    record = {"source": _source_hash(),
              "ops": [o.fingerprint for o in outcomes]}
    per_layer = {}
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # under the probe as well, so that the overhead compares times at
            # reference speed; its ticks add ~0.5% to whichever span is open
            w0 = time.perf_counter()
            with speed.SpeedProbe() as probe:
                traced, _ = workloads.run_steps(
                    steps, lambda k: setattr(tracer, "op", k))
            traced_wall = time.perf_counter() - w0 - probe.spent_wall
        finally:
            tracer.remove()
        if [o.fingerprint for o in traced] != record["ops"]:
            problems.append("traced pass answers differ from the untraced pass")
        per_layer = tracing.layer_metrics(tracer.spans, traced_wall)
        tb = [o for o in traced if not o.is_solve]
        per_layer["twobus.agree_ratio"] = (
            sum(not o.status.endswith("~boundary") for o in tb) / len(tb)
            if tb else 0.0)
        per_layer["trace.overhead_s"] = traced_wall * probe.factor - wall_s
        record["conic.solve.calls"] = per_layer["conic.solve.calls"]
        record["conic.solve.iters"] = per_layer["conic.solve.iters"]
        if per_layer["bnb.solve_global.nodes"] != nodes:
            problems.append(f"traced nodes {per_layer['bnb.solve_global.nodes']}"
                            f" != untraced {nodes}")
    env.OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"
    problems += _check_repeat(env.OUT / f"counts-{tag}.json", record)

    e2e = {
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(o.ok and o.is_solve for o in outcomes) / wall_s,
                      "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    if tracer is not None:
        bench = json.loads((env.ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env.describe(args.seed),
        "passes": passes, "raw_wall_s": raw_wall_s,
        "import_s": import_times, "setup_repeats_s": setup_times,
        "raw_setup_s": raw_setup_s,
        "nodes": nodes, "fail_frac": len(failed) / len(outcomes),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "failures": [f"{o.op}: {o.why}" for o in failed],
        "point_misses": [f"{o.op}: {o.point_miss}" for o in misses],
        "problems": problems, "per_layer": per_layer,
    }
    out_file = env.OUT / f"result-{tag}-t{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=1))
    if tracer is not None:
        tracer.write(env.OUT / f"spans-{tag}.jsonl")

    for name, (v, u) in e2e.items():
        print(f"{args.workload:12s} {name:14s} {v:12.4f} {u}")
    print(f"{args.workload:12s} {'raw_wall_s':14s} {raw_wall_s:12.4f} s "
          f"(median of {count} passes as timed; speed factors "
          + " ".join(f"{p['speed_factor']:.3f}" for p in passes) + ")")
    print(f"{args.workload:12s} {'nodes':14s} {nodes:12d} count")
    print(f"{args.workload:12s} {'fail_frac':14s} {details['fail_frac']:12.4f} "
          f"({len(failed)} of {len(outcomes)}, {len(wrong)} wrong)")
    print(f"{args.workload:12s} {'point_miss':14s} {len(misses):12d} count "
          f"(recovered points outside 1e-6 that jabr calls exact)")
    for k, v in per_layer.items():
        print(f"{args.workload:12s} {k:40s} {v:14.6g}")
    for line in details["failures"] + problems:
        print(f"{args.workload:12s} FAIL {line}")
    print(json.dumps({"env": details["env"],
                      "details": str(out_file.relative_to(env.ROOT))}))
    print(json.dumps({"correct": not wrong and not problems,
                      "attempted": len(outcomes), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
