"""Checks of the benchmark's own code; run with
``python3 -m pytest perfbench/test_feeders.py``."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import env  # noqa: E402,F401  (puts src/ on the path)
import feeders  # noqa: E402
import tracing  # noqa: E402

from radopf import network  # noqa: E402


def test_feeder_is_deterministic_in_size_and_seed():
    for n in feeders.SIZES:
        a = network.network_to_json(feeders.radial_feeder(n, 7))
        b = network.network_to_json(feeders.radial_feeder(n, 7))
        assert a == b
    assert network.network_to_json(feeders.radial_feeder(33, 7)) != \
        network.network_to_json(feeders.radial_feeder(33, 8))


def test_feeder_shape():
    for n in feeders.SIZES:
        net = feeders.radial_feeder(n, 0)
        assert net.num_buses == n and net.is_radial
        assert len(net.generators) == 1 and net.generators[0].bus == 1


def test_small_feeder_relaxation_is_exact():
    from radopf import jabr
    res = jabr.solve_relaxation(feeders.radial_feeder(12, 3))
    assert res.status == "optimal" and res.verdict == "exact"


def test_relabelled_feeder_poses_the_same_problem():
    from radopf import jabr
    base = jabr.solve_relaxation(feeders.radial_feeder(12, 0))
    other = feeders.radial_feeder(12, 5)
    assert [b.id for b in other.buses] != list(range(1, 13))
    res = jabr.solve_relaxation(other)
    assert res.verdict == base.verdict == "exact"
    assert res.solution.iterations == base.solution.iterations
    assert abs(res.objective - base.objective) <= 1e-7 * abs(base.objective)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "bnb.solve_global", "parent": None, "start": 0.0,
         "end": 10.0, "nodes": 4},
        {"id": 1, "name": "conic.solve", "parent": 0, "start": 1.0,
         "end": 4.0, "iters": 20, "status": "optimal"},
        {"id": 2, "name": "bnb.local_polish", "parent": 0, "start": 5.0,
         "end": 7.0, "found": True},
    ]
    m = tracing.layer_metrics(spans, pass_wall=10.0)
    assert m["bnb.solve_global.self_pct"] == 50.0
    assert m["conic.solve.ms_per_iter"] == 150.0
    assert m["bnb.local_polish.success_ratio"] == 1.0
    assert m["bnb.solve_global.nodes"] == 4


def test_every_per_layer_metric_is_produced_and_predicted_names_exist():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics([], 1.0)) | {"twobus.agree_ratio",
                                                      "trace.overhead_s"}
    listed = {m["name"] for m in bench["per_layer"]}
    assert listed == produced
    known = listed | {m["name"] for m in bench["end_to_end"]} | {"failed/attempted"}
    preds = json.loads((HERE / "predictions.json").read_text())["predictions"]
    for p in preds:
        assert set(p["per_layer"]) <= listed, p["id"]
        assert set(p["end_to_end"]) <= known, p["id"]


def test_speed_probe_ticks_and_restores_the_alarm_handler():
    import signal
    import time

    import speed
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 3 * speed.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 2 and probe.factor > 0
    assert 0 < probe.spent_wall < 3 * speed.PERIOD_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
