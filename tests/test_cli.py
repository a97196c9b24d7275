"""Command-line surface: exit codes, file outputs, manifests, determinism."""

import json
import math

import numpy as np
import pytest

from hyperideal import cli

from conftest import CENSUS_JSON, SAMPLED6_JSON, TORUS_JSON, XSTAR


@pytest.fixture
def census_file(tmp_path):
    p = tmp_path / "census.json"
    p.write_text(json.dumps(CENSUS_JSON))
    return str(p)


@pytest.fixture
def torus_file(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(json.dumps(TORUS_JSON))
    return str(p)


@pytest.fixture
def metric_file(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"lengths": [1.0]}))
    return str(p)


def run(*argv):
    return cli.main(list(argv))


def test_validate_census(census_file, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert run("validate", "--tri", census_file, "--out", out) == 0
    rep = json.loads(open(out).read())
    assert rep["tet_count"] == 2
    assert len(rep["edges"]) == 1 and rep["edges"][0]["valence"] == 12
    assert rep["links"][0]["chi"] == -2
    assert "chi = -2" in capsys.readouterr().out
    man = json.loads(open(out + ".manifest.json").read())
    assert man["command"] == "validate"
    assert "started" in man and "finished" in man


def test_validate_torus_exit_3(torus_file, tmp_path):
    assert run("validate", "--tri", torus_file,
               "--out", str(tmp_path / "r.json")) == 3


def test_validate_structural_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    obj = json.loads(json.dumps(CENSUS_JSON))
    obj["pairings"][1] = [0, 1, 0, 0, [2, 3, 0, 1]]  # breaks the involution
    bad.write_text(json.dumps(obj))
    assert run("validate", "--tri", str(bad),
               "--out", str(tmp_path / "r.json")) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert run("validate", "--tri", str(notjson),
               "--out", str(tmp_path / "r.json")) == 2
    assert run("validate", "--tri", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "r.json")) == 2


def test_search_first_is_census(tmp_path, census_file):
    out = str(tmp_path / "found.json")
    assert run("search", "--tets", "2", "--filter", "census",
               "--first", "--out", out) == 0
    assert json.loads(open(out).read()) == CENSUS_JSON


def test_search_list_with_limit(tmp_path):
    out = str(tmp_path / "list.json")
    assert run("search", "--tets", "1", "--filter", "any",
               "--limit", "5", "--out", out) == 0
    rep = json.loads(open(out).read())
    assert rep["count"] == 27 and len(rep["gluings"]) == 5


def test_search_negative_limit_exit_2(tmp_path):
    out = tmp_path / "list.json"
    assert run("search", "--tets", "1", "--filter", "any",
               "--limit", "-1", "--out", str(out)) == 2
    assert not out.exists()


def test_search_no_match_exit_2(tmp_path):
    assert run("search", "--tets", "1", "--filter", "census",
               "--first", "--out", str(tmp_path / "x.json")) == 2


def test_shapes_report(census_file, metric_file, tmp_path):
    out = str(tmp_path / "shapes.json")
    assert run("shapes", "--tri", census_file, "--metric", metric_file,
               "--out", out) == 0
    rep = json.loads(open(out).read())
    assert len(rep["tets"]) == 2
    a = math.acos(math.cosh(1.0) / (2 * math.cosh(1.0) - 1.0))
    assert abs(rep["tets"][0]["angles"][0] - a) < 1e-15
    assert abs(rep["curvature"]["K"][0] - (2 * math.pi - 12 * a)) < 1e-12
    assert rep["curvature"]["J_eigs"][0] < 0


def test_shapes_inadmissible_exit_6(census_file, tmp_path):
    m = tmp_path / "neg.json"
    m.write_text(json.dumps({"lengths": [-2.0]}))
    assert run("shapes", "--tri", census_file, "--metric", str(m),
               "--out", str(tmp_path / "s.json")) == 6


def test_metric_json_validation(census_file, tmp_path):
    for payload in ('{"lengths": "nope"}', '{"lengths": [true]}', '{}', '[1.0]'):
        m = tmp_path / "m.json"
        m.write_text(payload)
        assert run("shapes", "--tri", census_file, "--metric", str(m),
                   "--out", str(tmp_path / "s.json")) == 2


def test_flow_converges_exit_0(census_file, metric_file, tmp_path):
    out = str(tmp_path / "trace.csv")
    assert run("flow", "--tri", census_file, "--metric", metric_file,
               "--out", out) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,x_0,K_0,total_curv,H"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    status = json.loads(open(out + ".status.json").read())
    assert status["status"] == "converged"
    assert abs(status["x_end"][0] - XSTAR) < 1e-8
    # every float round-trips: rewriting rows from parsed values is lossless
    for line in lines[1:3]:
        vals = [float(v) for v in line.split(",")]
        assert [float(f"{v:.17g}") for v in vals] == vals


def test_flow_tmax_exit_5(census_file, metric_file, tmp_path):
    out = str(tmp_path / "trace.csv")
    assert run("flow", "--tri", census_file, "--metric", metric_file,
               "--t-max", "0.5", "--out", out) == 5
    status = json.loads(open(out + ".status.json").read())
    assert status["status"] == "t_max_reached"


def test_flow_degenerated_exit_4(census_file, metric_file, tmp_path):
    out = str(tmp_path / "trace.csv")
    assert run("flow", "--tri", census_file, "--metric", metric_file,
               "--margin", "0.5", "--out", out) == 4
    status = json.loads(open(out + ".status.json").read())
    assert status["status"] == "degenerated"
    assert status["witness"]["kind"] in ("corner_cosine", "vertex_sum")


def test_flow_degenerated_exit_4_on_sampled_gluing(tmp_path):
    tri = tmp_path / "sampled6.json"
    tri.write_text(json.dumps(SAMPLED6_JSON))
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps({"lengths": [1.0, 1.0, 1.0]}))
    out = str(tmp_path / "trace.csv")
    assert run("flow", "--tri", str(tri), "--metric", str(metric),
               "--out", out) == 4
    status = json.loads(open(out + ".status.json").read())
    assert status["status"] == "degenerated"
    assert status["witness"]["kind"] in ("corner_cosine", "vertex_sum")


def test_flow_bad_config_exit_2(census_file, metric_file, tmp_path):
    assert run("flow", "--tri", census_file, "--metric", metric_file,
               "--tol", "1e-14", "--out", str(tmp_path / "t.csv")) == 2


def test_flow_nan_tolerance_exit_2(census_file, metric_file, tmp_path):
    out = tmp_path / "t.csv"
    assert run("flow", "--tri", census_file, "--metric", metric_file,
               "--tol", "nan", "--out", str(out)) == 2
    assert not out.exists()


def test_minimize_then_flow_immediate(census_file, metric_file, tmp_path):
    mout = str(tmp_path / "min.json")
    assert run("minimize", "--tri", census_file, "--metric", metric_file,
               "--out", mout) == 0
    rep = json.loads(open(mout).read())
    assert abs(rep["lengths"][0] - XSTAR) < 1e-10
    assert rep["iterations"] <= 20
    # the minimize report doubles as a metric file
    out = str(tmp_path / "trace.csv")
    assert run("flow", "--tri", census_file, "--metric", mout,
               "--out", out) == 0
    status = json.loads(open(out + ".status.json").read())
    assert status["steps_accepted"] == 0


def test_lp_census(census_file, tmp_path):
    out = str(tmp_path / "lp.json")
    assert run("lp", "--tri", census_file, "--out", out) == 0
    rep = json.loads(open(out).read())
    assert rep["feasible"] is True
    assert abs(rep["epsilon"] - math.pi / 6) < 1e-9
    w = np.array(rep["witness"]["angles"])
    assert w.shape == (2, 6)
    assert rep["pivots"] == {"phase1": 7, "drive_out": 0, "phase2": 12}


def test_minimize_lost_definiteness_exit_7(census_file, metric_file, tmp_path,
                                          monkeypatch):
    # DefinitenessError, not numpy's LinAlgError (a ValueError, exit 2)
    from hyperideal import metric
    monkeypatch.setattr(metric.Evaluation, "jacobian",
                        lambda self: np.eye(self.x.size))
    assert run("minimize", "--tri", census_file, "--metric", metric_file,
               "--out", str(tmp_path / "min.json")) == 7


def test_volmax_default_start(census_file, tmp_path):
    out = str(tmp_path / "vol.json")
    assert run("volmax", "--tri", census_file, "--out", out) == 0
    rep = json.loads(open(out).read())
    assert rep["max_spread"] < 1e-6
    assert abs(rep["lengths"][0][0] - XSTAR) < 1e-6


def test_volmax_explicit_start(census_file, tmp_path):
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"angles": [[math.pi / 6] * 6] * 2}))
    out = str(tmp_path / "vol.json")
    assert run("volmax", "--tri", census_file, "--start", str(start),
               "--out", out) == 0


@pytest.mark.parametrize("angles", [{"x": 1}, [[{}]], [[True] * 6] * 2],
                         ids=("object", "object_entry", "bool_entries"))
def test_volmax_non_numeric_start_exit_2(census_file, tmp_path, capsys, angles):
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"angles": angles}))
    assert run("volmax", "--tri", census_file, "--start", str(start),
               "--out", str(tmp_path / "vol.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "arrays of numbers" in err


def test_volmax_infeasible_lp_needs_start(torus_file, tmp_path):
    # exit 3 would be the link check; bypass is not offered, so volmax on
    # the torus instance fails upstream at build
    assert run("volmax", "--tri", torus_file,
               "--out", str(tmp_path / "v.json")) == 3


def test_reruns_byte_identical(census_file, metric_file, tmp_path):
    pairs = []
    for tag in ("a", "b"):
        lp = str(tmp_path / f"lp_{tag}.json")
        tr = str(tmp_path / f"tr_{tag}.csv")
        vm = str(tmp_path / f"vm_{tag}.json")
        assert run("lp", "--tri", census_file, "--out", lp) == 0
        assert run("flow", "--tri", census_file, "--metric", metric_file,
                   "--out", tr) == 0
        assert run("volmax", "--tri", census_file, "--out", vm) == 0
        pairs.append((open(lp, "rb").read(), open(tr, "rb").read(),
                      open(vm, "rb").read()))
    assert pairs[0] == pairs[1]


def test_manifests_equal_minus_timestamps(census_file, tmp_path):
    reps = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"lp_{tag}.json")
        assert run("lp", "--tri", census_file, "--out", out) == 0
        man = json.loads(open(out + ".manifest.json").read())
        man.pop("started"), man.pop("finished")
        reps.append(man)
    assert reps[0] == reps[1]


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for code in ("0 ", "2 ", "3 ", "4 ", "5 ", "6 ", "7 ", "8 "):
        assert code in text
