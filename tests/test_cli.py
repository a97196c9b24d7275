"""Command-line surface: exit codes, file outputs, manifests, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperideal
from hyperideal import __version__, cli, dynamics, serialize

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
    obj["pairings"][1] = [0, 1, 0, 0, 5]  # a map that is no list
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


@pytest.mark.parametrize("argv, sha256", [
    (["--tets", "2", "--filter", "any"],
     "eaefdcef9aad79277850fc57e636d56f0e88f41327e6448a33cf847a8e8e7c0f"),
    (["--tets", "2", "--filter", "census"],
     "f6d697fdcc42d090390535cec60ca6a4abe5e634f465d853689ed1e000bdac1b"),
    (["--tets", "2", "--filter", "torus"],
     "f9b04a9d8e92f54c503da8f3c2d7cae6f01a08983fda6da14a75e8427c008458"),
    (["--tets", "2", "--filter", "census", "--first"],
     "e707f0f5ef51bcdbc5d41244825d06ce1094b346aa60e33e474c0a2cb4c9872e"),
    (["--tets", "2", "--filter", "any", "--limit", "3"],
     "9308a4d7e236ab6bd3beaa1957b3e765399c14df7b5a379d6cf4c927842c6148"),
    (["--tets", "1", "--filter", "any"],
     "f5af56fd75e0989c4b76f88d424b09f6ba9f53392abb62867b515dfaba6c284a"),
    (["--tets", "1", "--filter", "census"],
     "63c63aa2a1b6298b12d6fdc84ec289b46b6094a22adc5929bbcb2673d1cf7cdc"),
], ids=("any", "census", "torus", "first", "limit", "one_tet_any",
        "one_tet_census"))
def test_search_outputs_pinned(tmp_path, argv, sha256):
    # Every byte of each search output, as the search wrote it before it
    # tried only the maps of one sign where a pairing closes a cycle.
    out = tmp_path / "out.json"
    assert run("search", *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def _outputs(directory):
    # Every file in directory, manifests without their wall-clock times.
    files = {}
    for path in sorted(Path(directory).iterdir()):
        text = path.read_text()
        if path.name.endswith(".manifest.json"):
            man = json.loads(text)
            del man["started"], man["finished"]
            text = json.dumps(man)
        files[path.name] = text
    return files


def _package_env():
    """os.environ with this package first on PYTHONPATH, for a fresh
    interpreter."""
    path = [str(Path(hyperideal.__file__).parents[1])]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_commands_in_one_process_match_separate_runs(census_file, tmp_path,
                                                     monkeypatch):
    # The parser is built once per process; a call that fails at parsing
    # (exit 2) leaves it fit for the next call, and each command writes what
    # it writes in a process of its own.
    commands = [["search", "--tets", "1", "--filter", "any", "--out", "s.json"],
                ["validate", "--tri", census_file, "--out", "v.json"]]
    alone, together = tmp_path / "alone", tmp_path / "together"
    alone.mkdir()
    together.mkdir()
    for argv in commands:
        subprocess.run([sys.executable, "-m", "hyperideal.cli", *argv],
                       cwd=alone, env=_package_env(), check=True,
                       capture_output=True)
    monkeypatch.chdir(together)
    assert cli.build_parser() is cli.build_parser()
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--tets", "3", "--out", "bad.json"])
        assert exc.value.code == 2
        assert cli.main(argv) == 0
    assert _outputs(together) == _outputs(alone)
    assert sorted(_outputs(alone)) == ["s.json", "s.json.manifest.json",
                                       "v.json", "v.json.manifest.json"]


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


def test_metric_integer_beyond_float_range_exit_2(census_file, tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text('{"lengths": [1' + "0" * 400 + ']}')
    assert run("shapes", "--tri", census_file, "--metric", str(m),
               "--out", str(tmp_path / "s.json")) == 2
    assert capsys.readouterr().err.startswith("error:")


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
    assert status["t_end"] < 50.0  # converged on a step not clipped to t_max
    assert abs(status["x_end"][0] - XSTAR) < 1e-8
    assert list(status["rejections"]) == list(dynamics.REJECT_REASONS)
    assert sum(status["rejections"].values()) == status["steps_rejected"]
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


@pytest.mark.parametrize("existing", [True, False],
                         ids=("existing", "absent"))
def test_flow_refused_trace_leaves_out_as_it_was(census_file, metric_file,
                                                 tmp_path, monkeypatch,
                                                 existing):
    # A trace refused as it is rendered (a non-finite value) leaves an
    # existing output with its bytes and creates no new one.
    out = tmp_path / "trace.csv"
    if existing:
        out.write_bytes(b"t,x_0\n0,1\n")

    def refuse(trace):
        raise ValueError(serialize.NON_FINITE)

    monkeypatch.setattr(serialize, "trace_csv", refuse)
    assert run("flow", "--tri", census_file, "--metric", metric_file,
               "--out", str(out)) == 2
    if existing:
        assert out.read_bytes() == b"t,x_0\n0,1\n"
    else:
        assert not out.exists()
    assert not (tmp_path / "trace.csv.status.json").exists()
    assert not (tmp_path / "trace.csv.manifest.json").exists()


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
    assert rep["pivots"] == {"phase1": 7, "drive_out": 0, "phase2": 5}


def test_lp_pivot_budget_exit_7(census_file, tmp_path, monkeypatch, capsys):
    # The census LP's phase 1 takes 7 pivots: a budget of 1 runs out.
    from hyperideal import simplex
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    out = tmp_path / "lp.json"
    assert run("lp", "--tri", census_file, "--out", str(out)) == 7
    captured = capsys.readouterr()
    assert captured.err == "error: simplex exceeded 1 pivots\n"
    assert captured.out == ""
    assert not out.exists()
    assert not (tmp_path / "lp.json.manifest.json").exists()


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


def test_volmax_start_integer_beyond_float_range_exit_2(census_file, tmp_path,
                                                       capsys):
    start = tmp_path / "start.json"
    start.write_text('{"angles": [[1' + "0" * 400 + ', 1, 1, 1, 1, 1], '
                     '[1, 1, 1, 1, 1, 1]]}')
    assert run("volmax", "--tri", census_file, "--start", str(start),
               "--out", str(tmp_path / "vol.json")) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_volmax_torus_hypothesis_exit_3(torus_file, tmp_path):
    # the torus gluing fails the boundary hypothesis at build, before the LP
    assert run("volmax", "--tri", torus_file,
               "--out", str(tmp_path / "v.json")) == 3


@pytest.mark.parametrize("argv, message", [
    (["search", "--tets", "1", "--filter", "any", "--limit", "-1"],
     "--limit must be non-negative"),
    (["search", "--tets", "1", "--filter", "census", "--first"],
     "no 1-tet gluing matched filter 'census'"),
    (["volmax", "--tri", "sampled6.json"],
     "the angle polytope is infeasible and --start was not given"),
], ids=("negative_limit", "no_match", "volmax_infeasible_lp"))
def test_refusal_writes_nothing(tmp_path, monkeypatch, capsys, argv, message):
    # SAMPLED6 meets the boundary hypothesis but its angle LP is infeasible
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sampled6.json").write_text(json.dumps(SAMPLED6_JSON))
    assert run(*argv, "--out", "out.json") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "out.json.manifest.json").exists()


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


_FLOW_DEFAULTS = {"t_max": 50.0, "curvature_tol": 1e-12,
                  "degeneration_margin": 1e-7, "rtol": 1e-8, "atol": 1e-14}
_FLOW_FLAGS = ["--t-max", "40", "--tol", "1e-11", "--margin", "1e-6",
               "--rtol", "1e-10", "--atol", "1e-13"]
_FLOW_CONFIG = {"t_max": 40.0, "curvature_tol": 1e-11,
                "degeneration_margin": 1e-6, "rtol": 1e-10, "atol": 1e-13}
_CENSUS_METRIC = {"tri": "census.json", "metric": "m.json"}


# Each command's manifest without `started`/`finished`; `version` is added in
# the test.  `inputs` holds the file flags, `config` every other flag.
@pytest.mark.parametrize("argv, expected", [
    (["validate", "--tri", "census.json"],
     {"command": "validate", "inputs": {"tri": "census.json"}, "config": {}}),
    (["search", "--tets", "1", "--filter", "any", "--limit", "5"],
     {"command": "search", "inputs": {},
      "config": {"tets": 1, "filter": "any", "limit": 5, "first": False}}),
    (["shapes", "--tri", "census.json", "--metric", "m.json"],
     {"command": "shapes", "inputs": _CENSUS_METRIC, "config": {}}),
    (["flow", "--tri", "census.json", "--metric", "m.json"],
     {"command": "flow", "inputs": _CENSUS_METRIC, "config": _FLOW_DEFAULTS}),
    (["flow", "--tri", "census.json", "--metric", "m.json"] + _FLOW_FLAGS,
     {"command": "flow", "inputs": _CENSUS_METRIC, "config": _FLOW_CONFIG}),
    (["minimize", "--tri", "census.json", "--metric", "m.json"],
     {"command": "minimize", "inputs": _CENSUS_METRIC,
      "config": {"tol": 1e-12}}),
    (["lp", "--tri", "census.json"],
     {"command": "lp", "inputs": {"tri": "census.json"}, "config": {}}),
    (["volmax", "--tri", "census.json"],
     {"command": "volmax", "inputs": {"tri": "census.json", "start": None},
      "config": {"tol": 1e-8}}),
    (["volmax", "--tri", "census.json", "--start", "start.json",
      "--tol", "1e-9"],
     {"command": "volmax",
      "inputs": {"tri": "census.json", "start": "start.json"},
      "config": {"tol": 1e-9}}),
    (["propsuite", "--seed", "0", "--probe-trials", "20"],
     {"command": "propsuite", "inputs": {},
      "config": {"seed": 0, "probe_trials": 20}}),
], ids=("validate", "search", "shapes", "flow", "flow_every_flag", "minimize",
        "lp", "volmax", "volmax_start", "propsuite"))
def test_manifest_pinned(tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "census.json").write_text(json.dumps(CENSUS_JSON))
    (tmp_path / "m.json").write_text(json.dumps({"lengths": [1.0]}))
    (tmp_path / "start.json").write_text(
        json.dumps({"angles": [[math.pi / 6] * 6] * 2}))
    assert run(*argv, "--out", "out.json") == 0
    man = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert isinstance(man.pop("started"), str)
    assert isinstance(man.pop("finished"), str)
    assert man == {**expected, "version": __version__}
    # key order is part of the manifest's bytes
    assert list(man["inputs"]) == list(expected["inputs"])
    assert list(man["config"]) == list(expected["config"])


def test_flow_flags_are_flow_config_fields(census_file, metric_file, tmp_path,
                                           monkeypatch):
    seen = []
    real_flow = dynamics.flow
    monkeypatch.setattr(dynamics, "flow",
                        lambda m, cfg: seen.append(cfg) or real_flow(m, cfg))
    assert run("flow", "--tri", census_file, "--metric", metric_file,
               *_FLOW_FLAGS, "--out", str(tmp_path / "t.csv")) == 0
    assert seen == [dynamics.FlowConfig(**_FLOW_CONFIG)]


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for code in ("0 ", "2 ", "3 ", "4 ", "5 ", "6 ", "7 ", "8 "):
        assert code in text


def test_cli_imports_nothing_but_numpy_outside_stdlib():
    # pyproject declares numpy as the only runtime dependency.  Modules the
    # interpreter loads at startup (site hooks) are not counted; anything
    # the import itself pulls in is, so a stray scipy import would show.
    code = ("import sys; before = set(sys.modules); import hyperideal.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert set(out.split()) <= {"numpy", "hyperideal"}, out
