"""Command-line interface: exit codes, golden outputs, file artifacts."""

import csv
import json

import pytest

from radopf import cases, cli


@pytest.fixture()
def case2_path(tmp_path):
    p = tmp_path / "case2.m"
    p.write_text(cases.case_text("case2_two_gen"))
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_relax_golden(capsys, case2_path):
    code, out, _ = run(capsys, ["relax", "--case", case2_path, "--gamma", "1.0"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["socp_objective"] == pytest.approx(501.46, rel=5e-3)
    assert doc["exactness"] == "inexact"


def test_relax_reports_ipm_iterations(capsys):
    """`ipm_iterations` counts the first solve plus the refine solve: the
    inexact 2-bus γ=1.00 runs both, the exact γ=0.98 only the first."""
    from radopf import jabr, network
    base = cases.load_case("case2_two_gen")
    for gamma, refined in (("1.0", True), ("0.98", False)):
        code, out, _ = run(capsys, ["relax", "--case", "case2_two_gen",
                                    "--gamma", gamma])
        assert code == cli.EXIT_OK
        res = jabr.solve_relaxation(network.scale_load(base, float(gamma)))
        first = res.solution.iterations
        assert json.loads(out)["ipm_iterations"] == res.ipm_iterations
        assert (res.ipm_iterations > first) == refined and first > 0


def test_relax_accepts_builtin_name(capsys):
    code, out, _ = run(capsys, ["relax", "--case", "case2_two_gen", "--gamma", "0.13"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["socp_objective"] == pytest.approx(459.00, rel=5e-3)


def test_relax_infeasible_exit_code(capsys):
    code, out, _ = run(capsys, ["relax", "--case", "case2_two_gen", "--gamma", "2.93"])
    assert code == cli.EXIT_INFEASIBLE


def test_relax_zero_load_pmin_dispatch(capsys, tmp_path):
    """With loads removed (and pmin floors lifted, since forced generation
    has nowhere to go in a lossless-load network), the relaxation is exact
    at the pmin dispatch."""
    text = cases.case_text("case2_two_gen")
    text = text.replace("1  3   75  -84.7", "1  3   0  0").replace(
        "2  2  105   22.8", "2  2  0  0")
    text = text.replace("250  75;", "250  0;").replace("300  70;", "300  0;")
    p = tmp_path / "zeroload.m"
    p.write_text(text)
    code, out, _ = run(capsys, ["relax", "--case", str(p)])
    doc = json.loads(out)
    assert code == cli.EXIT_OK
    assert doc["exactness"] == "exact"
    assert doc["socp_objective"] == pytest.approx(0.0, abs=1e-4)


def test_sweep_matches_relax_row(capsys, case2_path):
    code, out, _ = run(capsys, ["sweep", "--case", case2_path,
                                "--gamma-from", "0.98", "--gamma-to", "0.98",
                                "--step", "0.01"])
    assert code == cli.EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["socp_objective"]) == pytest.approx(496.96, rel=5e-3)
    assert rows[0]["exactness"] == "exact"


def test_sweep_empty_range(capsys, case2_path):
    code, out, _ = run(capsys, ["sweep", "--case", case2_path,
                                "--gamma-from", "1.0", "--gamma-to", "0.5",
                                "--step", "0.1"])
    assert code == cli.EXIT_OK
    assert list(csv.DictReader(out.splitlines())) == []


def test_sweep_bad_step_usage(capsys, case2_path):
    code, _, err = run(capsys, ["sweep", "--case", case2_path,
                                "--gamma-from", "1.0", "--gamma-to", "1.1",
                                "--step", "-0.1"])
    assert code == cli.EXIT_USAGE


def test_sweep_pattern_two_bus(capsys, case2_path):
    code, out, _ = run(capsys, ["sweep", "--case", case2_path,
                                "--gamma-from", "0.98", "--gamma-to", "1.02",
                                "--step", "0.01"])
    rows = list(csv.DictReader(out.splitlines()))
    verdicts = [r["exactness"] for r in rows]
    assert verdicts[0] == "exact" and verdicts[1] == "exact"
    assert verdicts[2] == "inexact" and verdicts[3] == "inexact"


def test_sweep_pattern_three_bus_q_only(capsys):
    code, out, _ = run(capsys, ["sweep", "--case", "case3_one_gen",
                                "--gamma-from", "0.95", "--gamma-to", "0.98",
                                "--step", "0.01", "--q-only"])
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["exactness"] for r in rows] == ["exact", "exact", "inexact", "inexact"]
    assert float(rows[0]["socp_objective"]) == pytest.approx(939.45, rel=5e-3)


def test_classify2bus_roundtrip(capsys, tmp_path):
    inst = {"g": -3.8156, "b": 19.0782, "pd": 1.05, "qd": 0.228}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    code, out, _ = run(capsys, ["classify2bus", "--instance", str(p)])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "exact"
    assert doc["case_label"] == 1


def test_classify2bus_delta_unbounded_exact(capsys, tmp_path):
    inst = {"g": -1.0, "b": 2.0, "pd": 0.3, "qd": 0.1}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    code, out, _ = run(capsys, ["classify2bus", "--instance", str(p)])
    assert json.loads(out)["verdict"] == "exact"


def test_classify2bus_mirrored(capsys, tmp_path):
    base = {"g": -2.0, "b": 5.0, "pd": 0.8, "qd": 0.2, "pmin": 0.9}
    mirror = {**base, "b": -5.0, "qd": -0.2}
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(base))
    pb.write_text(json.dumps(mirror))
    _, out_a, _ = run(capsys, ["classify2bus", "--instance", str(pa)])
    _, out_b, _ = run(capsys, ["classify2bus", "--instance", str(pb)])
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["verdict"] == b["verdict"]
    assert b["mirrored"] is True


def test_classify2bus_bad_instance_data_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"g": 1.0, "b": 1.0, "pd": 0, "qd": 0}))
    code, _, err = run(capsys, ["classify2bus", "--instance", str(p)])
    assert code == cli.EXIT_DATA


def test_classify2bus_nan_instance_data_error(capsys, tmp_path):
    """A NaN admittance is refused as bad data, not classified."""
    p = tmp_path / "nan.json"
    p.write_text('{"g": NaN, "b": 5, "pd": 0.5, "qd": 0.2}')
    code, out, err = run(capsys, ["classify2bus", "--instance", str(p)])
    assert code == cli.EXIT_DATA
    assert out == "" and "bad instance" in err


def test_relax_of_a_nan_unit_bound_is_a_data_error(capsys, tmp_path):
    """A JSON case with `"pmax": NaN` exits 65 with one line on stderr; it
    once ran with that bound silently dropped."""
    from radopf import network
    doc = json.loads(network.network_to_json(cases.load_case("case2_two_gen")))
    doc["generators"][0]["pmax"] = float("nan")
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(doc))
    assert "NaN" in p.read_text()
    code, out, err = run(capsys, ["relax", "--case", str(p)])
    assert code == cli.EXIT_DATA
    assert out == "" and len(err.splitlines()) == 1


def test_failed_relaxation_reports_no_objective(capsys, monkeypatch):
    """A relaxation cut off by the iteration cap has no answer:
    `socp_objective` is null, and `solve` reports no relaxation gap
    although its search (run without the cap) finds the optimum."""
    from radopf import _ipm, jabr
    with monkeypatch.context() as m:
        m.setattr(_ipm, "MAXITER", 3)
        code, out, _ = run(capsys, ["relax", "--case", "case2_two_gen"])
    assert code == cli.EXIT_LIMIT
    doc = json.loads(out)
    assert doc["socp_status"] == "numerical_failure"
    assert doc["socp_objective"] is None
    relax = jabr.solve_relaxation

    def capped(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(_ipm, "MAXITER", 3)
            return relax(*args, **kwargs)

    monkeypatch.setattr(jabr, "solve_relaxation", capped)
    code, out, _ = run(capsys, ["solve", "--case", "case2_two_gen",
                                "--gamma", "0.98", "--gap", "2e-3"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["socp_objective"] is None and doc["global_objective"]
    assert "gap_percent" not in doc


def test_solve_global_golden(capsys, case2_path):
    code, out, _ = run(capsys, ["solve", "--case", case2_path,
                                "--gamma", "1.01", "--gap", "2e-3",
                                "--time-limit", "120"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["global_objective"] == pytest.approx(641.21, rel=5e-3)
    assert doc["gap_percent"] == pytest.approx(21.44, abs=0.5)


def test_solve_reports_polish_counts(capsys, case2_path):
    code, out, _ = run(capsys, ["solve", "--case", case2_path,
                                "--gamma", "1.00", "--gap", "2e-3"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert isinstance(doc["polish_calls"], int)
    assert 1 <= doc["polish_found"] <= doc["polish_calls"]


def test_solve_reports_cutoff_stops(capsys, case2_path):
    """Node relaxations stopped at the incumbent's cutoff are counted."""
    code, out, _ = run(capsys, ["solve", "--case", case2_path,
                                "--gamma", "1.00", "--gap", "2e-3"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert isinstance(doc["cutoff_stops"], int)
    assert 1 <= doc["cutoff_stops"] < doc["nodes"]


def test_solve_infeasible_distinct_exit(capsys, case2_path):
    code, out, _ = run(capsys, ["solve", "--case", case2_path,
                                "--gamma", "1.02", "--gap", "2e-3",
                                "--time-limit", "120"])
    assert code == cli.EXIT_INFEASIBLE


def test_solve_fixed_voltage(capsys, case2_path):
    code, out, _ = run(capsys, ["solve", "--case", case2_path,
                                "--gap", "2e-3",
                                "--fix-voltage", '{"1": 0.874, "2": 0.816}'])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["global_objective"] == pytest.approx(573.82, rel=5e-3)
    # the reported relaxation is the pinned one, and so is the gap
    assert doc["socp_objective"] == pytest.approx(503.37, rel=5e-3)
    glob = doc["global_objective"]
    assert doc["gap_percent"] == pytest.approx(
        100.0 * (glob - doc["socp_bound"]) / abs(glob))


def test_solve_reports_the_gap_at_a_negative_cost(capsys, tmp_path):
    """The relaxation gap is reported whenever the global objective is
    nonzero, as 100·(global − bound)/|global| from the relaxation's
    Lagrangian bound, so it is not negative; this instance's optimum costs
    −0.49, and the relaxation's primal value lies above its bound."""
    from radopf import network, twobus
    net = twobus.TwoBusInstance(g=-1, b=5, pd=-0.5, qd=0.2,
                                pmin=-0.49).to_network()
    path = tmp_path / "negative.json"
    path.write_text(network.network_to_json(net))
    code, out, _ = run(capsys, ["solve", "--case", str(path)])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    glob, bound = doc["global_objective"], doc["socp_bound"]
    assert glob == pytest.approx(-0.49, rel=1e-6)
    assert bound <= doc["socp_objective"]
    assert doc["gap_percent"] == pytest.approx(
        100.0 * (glob - bound) / abs(glob))
    assert 0.0 <= doc["gap_percent"] < 1e-4


@pytest.mark.parametrize("pins,words", [
    ('{"1": 0.874', "JSON"),
    ('[0.874]', "JSON"),
    ('{"one": 0.874}', "JSON"),
    ('{"7": 0.874}', "bus 7"),
    ('{"1": 1.5}', "[0.81"),
])
def test_solve_rejects_a_bad_fix_voltage(capsys, case2_path, pins, words):
    code, out, err = run(capsys, ["solve", "--case", case2_path,
                                  "--fix-voltage", pins])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "--fix-voltage" in err and words in err


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["sweep", "--gamma-from", "1.0", "--gamma-to", "1.0", "--step", "0.1",
     "--solve"],
], ids=["solve", "sweep-solve"])
def test_global_solve_of_an_infinite_unit_bound_is_a_data_error(
        capsys, tmp_path, argv):
    """The global solver refuses a unit with an infinite bound; the CLI
    reports that as a data error in one line on stderr, not a traceback."""
    import dataclasses
    from radopf import network
    net = cases.load_case("case2_two_gen")
    unit = dataclasses.replace(net.generators[0], pmax=float("inf"))
    p = tmp_path / "case2_inf.json"
    p.write_text(network.network_to_json(
        dataclasses.replace(net, generators=(unit,) + net.generators[1:])))
    assert "Infinity" in p.read_text()
    code, out, err = run(capsys, argv[:1] + ["--case", str(p)] + argv[1:])
    assert code == cli.EXIT_DATA
    assert out == "" and len(err.splitlines()) == 1
    assert "unit 0 at bus 1 has an infinite bound" in err


def test_tighten_outputs_bounds_and_cuts(capsys, case2_path):
    code, out, _ = run(capsys, ["tighten", "--case", case2_path])
    assert code == cli.EXIT_OK
    assert "line,c_lo,c_hi,s_lo,s_hi" in out
    assert "line,a_c,a_s,rhs,case" in out


def test_plotdata_two_bus_region(capsys, tmp_path):
    inst = {"g": -3.8156, "b": 19.0782, "pd": 1.05, "qd": 0.228, "pmin": 0.9}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    out_dir = tmp_path / "plots"
    code, out, _ = run(capsys, ["plotdata", "--instance", str(p),
                                "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    assert (out_dir / "hyperbola.csv").exists()
    assert (out_dir / "region.csv").exists()
    assert (out_dir / "points.csv").exists()
    rows = (out_dir / "hyperbola.csv").read_text().splitlines()
    assert rows[0] == "c11,c22"


def test_plotdata_without_a_source_is_a_usage_error(capsys, tmp_path):
    """Neither --instance nor --case is refused before any work."""
    out_dir = tmp_path / "plots"
    code, out, err = run(capsys, ["plotdata", "--out", str(out_dir)])
    assert code == cli.EXIT_USAGE
    assert out == "" and "--instance" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("inst", [
    {"g": 1.0, "b": 1.0, "pd": 0, "qd": 0},
    {"g": -3.8156, "b": 19.0782, "pd": 1.05, "qd": 0.228, "vmax": 1.1},
], ids=["g-positive", "unknown-key"])
def test_plotdata_bad_instance_data_error(capsys, tmp_path, inst):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(inst))
    out_dir = tmp_path / "plots"
    code, out, err = run(capsys, ["plotdata", "--instance", str(p),
                                  "--out", str(out_dir)])
    assert code == cli.EXIT_DATA
    assert out == "" and err.startswith("bad instance: ")
    assert not out_dir.exists()


def test_plotdata_projection(capsys, tmp_path, case2_path):
    out_dir = tmp_path / "proj"
    code, out, _ = run(capsys, ["plotdata", "--case", case2_path,
                                "--gamma", "0.95", "--samples", "500",
                                "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    body = (out_dir / "projection.csv").read_text().splitlines()
    assert body[0] == "pg_first,qg_first,pg_second,feasible"
    assert len(body) == 501


def test_genlib_manifest(capsys, tmp_path):
    out_dir = tmp_path / "lib"
    code, out, _ = run(capsys, ["genlib", "--cases", "case9", "--seeds", "1",
                                "--gamma-from", "1.0", "--gamma-to", "1.0",
                                "--raise-fraction", "0.9",
                                "--gap", "5e-3", "--time-limit", "60",
                                "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    with (out_dir / "manifest.csv").open() as fh:
        manifest = list(csv.DictReader(fh))
    assert len(manifest) >= 1
    for row in manifest:
        assert row["name"].startswith("case9_tree")
        if row["gap_percent"] not in ("", "None"):
            assert float(row["gap_percent"]) >= -1e-6
    # tree property: every emitted instance is radial
    from radopf import network
    for row in manifest:
        net = network.network_from_json((out_dir / (row["name"] + ".json")).read_text())
        assert len(net.lines) == net.num_buses - 1


def test_genlib_reads_a_json_case(capsys, tmp_path):
    """`--cases` takes a `network_to_json` file, as `relax` and `solve`
    take one in `--case`: a case9 spanning tree in JSON makes one library
    row at γ = 1."""
    from radopf import network
    tree = network.spanning_tree(cases.load_case("case9", drop_charging=True))
    path = tmp_path / "t9.json"
    path.write_text(network.network_to_json(tree))
    out_dir = tmp_path / "lib"
    code, _, _ = run(capsys, ["genlib", "--cases", str(path),
                              "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    with (out_dir / "manifest.csv").open() as fh:
        (row,) = csv.DictReader(fh)
    assert row["name"] == "case9_tree0_g1.00"
    assert row["global_status"] == "global-optimal"
    net = network.network_from_json((out_dir / (row["name"] + ".json"))
                                    .read_text())
    assert (net.num_buses, len(net.lines)) == (9, 8)


@pytest.mark.parametrize("argv", [
    ["genlib", "--cases", "case9", "--step", "0"],
    ["genlib", "--cases", "case9", "--step", "-0.05"],
    ["plotdata", "--instance", "inst.json", "--resolution", "0"],
    ["solve", "--case", "case2_two_gen", "--gap", "-1"],
    ["solve", "--case", "case2_two_gen", "--time-limit", "nan"],
    ["genlib", "--cases", "case9", "--time-limit", "0"],
    ["genlib", "--cases", "case9", "--gamma-from", "0"],
    ["relax", "--case", "case2_two_gen", "--gamma", "-1"],
    ["sweep", "--case", "case2_two_gen", "--gamma-to", "1", "--step", "0.1",
     "--gamma-from", "nan"],
    ["sweep", "--case", "case2_two_gen", "--gamma-from", "1", "--gamma-to",
     "1", "--step", "1e-300"],
    ["genlib", "--cases", "case2_two_gen", "--step", "1e-300"],
    ["genlib", "--cases", "case9", "--overshoot-gen", "7"],
    ["genlib", "--cases", "case9", "--overshoot-gen", "-1"],
    ["genlib", "--cases", "case9", "case2_two_gen", "--overshoot-gen", "2"],
    ["plotdata", "--case", "case2_two_gen", "--samples", "0"],
    ["plotdata", "--case", "case2_two_gen", "--samples", "-3"],
    ["genlib", "--cases", "case9", "--seeds", "-1"],
    ["genlib", "--cases", "case9", "--raise-fraction", "nan"],
    ["genlib", "--cases", "case9", "--raise-fraction", "-0.1"],
    ["genlib", "--cases", "case9", "--overshoot-gen", "1",
     "--overshoot-q", "1.5"],
], ids=["genlib-step-0", "genlib-step-negative", "plotdata-resolution-0",
        "solve-gap-negative", "solve-time-limit-nan", "genlib-time-limit-0",
        "genlib-gamma-from-0", "relax-gamma-negative", "sweep-gamma-from-nan",
        "sweep-step-too-small", "genlib-step-too-small",
        "genlib-overshoot-gen-past-the-units", "genlib-overshoot-gen-negative",
        "genlib-overshoot-gen-past-one-case", "plotdata-samples-0",
        "plotdata-samples-negative", "genlib-seeds-negative",
        "genlib-raise-fraction-nan", "genlib-raise-fraction-negative",
        "genlib-overshoot-q-above-1"])
def test_out_of_range_option_is_a_usage_error(capsys, tmp_path, argv):
    """A zero or negative step, resolution, time limit, load factor, sample
    count or seed count, a step too small to move the first load factor, a
    negative gap, a raise fraction or overshoot share outside [0, 1], or an
    --overshoot-gen that names no unit of some case, is refused with one
    line on stderr before any work: no output directory is made."""
    out_dir = tmp_path / "out"
    extra = ([] if argv[0] in ("solve", "relax", "sweep")
             else ["--out", str(out_dir)])
    code, out, err = run(capsys, argv + extra)
    assert code == cli.EXIT_USAGE
    assert out == "" and len(err.splitlines()) == 1
    assert argv[-2] in err
    assert not out_dir.exists()


def test_missing_case_file_data_error(capsys):
    code, _, err = run(capsys, ["relax", "--case", "/nonexistent/case.m"])
    assert code == cli.EXIT_DATA


@pytest.mark.parametrize("name,data,words", [
    ("bad.json", b'{"buses": 3}', "bad network JSON"),
    ("unknown.json", b'{"buses": [{"id": 1, "volts": 1.0}], '
                     b'"generators": [], "lines": []}', "volts"),
    ("missing.json", b'{"buses": []}', "generators"),
    ("bad.m", b"\xff\xfe function mpc = case\n", "utf-8"),
    ("folder", None, "directory"),
    ("vmax-inf.json", b'{"buses": [{"id": 1, "vmax": Infinity}], '
                      b'"generators": [], "lines": []}', "vmax"),
], ids=["wrong-type", "unknown-field", "missing-key", "not-utf8",
        "directory", "vmax-infinite"])
def test_unreadable_case_is_a_data_error(capsys, tmp_path, name, data, words):
    """A case file that cannot be read, or a JSON case with a missing key,
    a wrong type, an unknown field or an infinite voltage limit, exits 65
    with one line on stderr."""
    path = tmp_path / name
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    code, out, err = run(capsys, ["relax", "--case", str(path)])
    assert code == cli.EXIT_DATA
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and words in err


def test_usage_error(capsys):
    code, _, _ = run(capsys, ["relax"])  # missing --case
    assert code == cli.EXIT_USAGE


def test_deterministic_given_seed(capsys, tmp_path):
    args = ["plotdata", "--case", "case2_two_gen", "--samples", "200",
            "--seed", "7"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(d1)]) == cli.EXIT_OK
    assert cli.main(args + ["--out", str(d2)]) == cli.EXIT_OK
    capsys.readouterr()
    assert (d1 / "projection.csv").read_text() == (d2 / "projection.csv").read_text()
