"""One verdict per input, at every entry point.

A bad length or angle gets the same answer wherever it enters the package:
accepted, ValueError (not a valid number at all; CLI exit 2) or
InadmissibleShapeError with its reason (a number outside the admissible
set; CLI exit 6).  Inside a batch or a triangulation the error also names
the tetrahedron.  No message prints a numpy repr.
"""

import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import hyperideal
from hyperideal import angles as A
from hyperideal import cli, tetgeom
from hyperideal import metric as M
from hyperideal.errors import GluingError, InadmissibleShapeError

from conftest import CENSUS_JSON

OK = ("accepted",)
VALUE = ("ValueError",)
PI = math.pi


def verdict(call):
    try:
        call()
    except InadmissibleShapeError as exc:
        assert "np." not in str(exc)
        return (exc.reason, exc.tet)
    except ValueError as exc:
        assert "np." not in str(exc)
        return VALUE
    return OK


def expect(rule, tet):
    """The verdict of a rule outcome (OK, VALUE or a reason) at shape tet."""
    return rule if rule in (OK, VALUE) else (rule, tet)


def run_cli(tmp_path, capsys, argv):
    (tmp_path / "census.json").write_text(json.dumps(CENSUS_JSON))
    out = tmp_path / "out.json"
    code = cli.main([*argv, "--tri", str(tmp_path / "census.json"),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert "np." not in err
    if code != 0:
        assert err.startswith("error:")
        assert not out.exists()
        assert not (tmp_path / "out.json.manifest.json").exists()
    return code


# One census length, as JSON text: (ConeMetric, shape rules, `shapes` exit).
LENGTHS = {
    "NaN": (VALUE, VALUE, 2),
    "Infinity": (VALUE, VALUE, 2),
    "-Infinity": (VALUE, VALUE, 2),
    "1e400": (VALUE, VALUE, 2),
    "-1": ("nonpositive_length", "nonpositive_length", 6),
    "0": ("nonpositive_length", "nonpositive_length", 6),
    "400": (VALUE, VALUE, 2),
    "150": (OK, "corner_cosine", 6),
}


@pytest.mark.parametrize("text", LENGTHS)
def test_one_verdict_per_length(census_tri, tmp_path, capsys, text):
    metric_rule, shape_rule, code = LENGTHS[text]
    x = float(json.loads(text))
    one = np.full(6, x)
    batch = np.stack([np.ones(6), one])
    assert verdict(lambda: M.ConeMetric(tri=census_tri, x=[x])) \
        == expect(metric_rule, None)
    assert verdict(lambda: M.evaluate(census_tri, [x]).raise_if_inadmissible()) \
        == expect(shape_rule, 0)
    assert verdict(lambda: tetgeom.angles_from_lengths(one)) \
        == expect(shape_rule, None)
    assert verdict(lambda: tetgeom.angles_from_lengths(batch)) \
        == expect(shape_rule, 1)
    (tmp_path / "m.json").write_text('{"lengths": [%s]}' % text)
    assert run_cli(tmp_path, capsys,
                   ["shapes", "--metric", str(tmp_path / "m.json")]) == code


def test_nonpositive_length_message(census_tri):
    with pytest.raises(InadmissibleShapeError,
                       match=r"^edge 0 has non-positive length -1\.0$"):
        M.ConeMetric(tri=census_tri, x=[-1.0])


# The census has one edge class of 12 corners.  Tetrahedron 1 carries the
# row; tetrahedron 0 gets the angle that makes the class sum 2*pi, or pi/6.
ANGLES = {
    "nan": ([math.nan] + [PI / 6] * 5, PI / 6),
    "zero": ([0.0, PI / 3] + [PI / 6] * 4, None),
    "pi": ([PI] + [PI / 11] * 5, None),
    "vertex_sum": ([0.4 * PI, 0.35 * PI, 0.3 * PI] + [PI / 9] * 3, None),
    "edge_sum_defect": ([PI / 6 + 0.01] + [PI / 6] * 5, PI / 6),
    # each tetrahedron's angles are checked before the edge sums
    "vertex_sum_and_edge_sum_defect": ([0.4 * PI, 0.35 * PI, 0.3 * PI]
                                       + [PI / 9] * 3, PI / 6),
}
# (shape rules, the census assignment's rules, `volmax --start` exit)
ANGLE_VERDICTS = {
    "nan": (VALUE, VALUE, 2),
    "zero": ("angle_range", "angle_range", 6),
    "pi": ("angle_range", "angle_range", 6),
    "vertex_sum": ("vertex_sum", "vertex_sum", 6),
    "edge_sum_defect": (OK, VALUE, 2),
    "vertex_sum_and_edge_sum_defect": ("vertex_sum", "vertex_sum", 6),
}


@pytest.mark.parametrize("case", ANGLES)
def test_one_verdict_per_angle_vector(census_tri, tmp_path, capsys, case):
    row, fill = ANGLES[case]
    shape_rule, assignment_rule, code = ANGLE_VERDICTS[case]
    if fill is None:
        fill = (2 * PI - sum(row)) / 6
    rows = np.array([[fill] * 6, row])
    batch = np.array([[PI / 6] * 6, row])
    assert verdict(lambda: tetgeom.lengths_from_angles(row)) \
        == expect(shape_rule, None)
    assert verdict(lambda: tetgeom.lengths_from_angles(batch)) \
        == expect(shape_rule, 1)
    assert verdict(lambda: A.validate_assignment(
        A.AngleAssignment(tri=census_tri, angles=rows))) \
        == expect(assignment_rule, 1)
    assert verdict(lambda: A.maximize_volume(
        census_tri, A.AngleAssignment(tri=census_tri, angles=rows))) \
        == expect(assignment_rule, 1)
    (tmp_path / "start.json").write_text(json.dumps({"angles": rows.tolist()}))
    assert run_cli(tmp_path, capsys,
                   ["volmax", "--start", str(tmp_path / "start.json")]) == code


@pytest.mark.parametrize("rows, message", [
    ([[0.5, 0.5], [0.5]], "row 0 has 2 angles"),
    ([[0.5] * 6, [0.5] * 7], "row 1 has 7 angles"),
], ids=["ragged", "long_row"])
def test_start_rows_of_six(census_tri, tmp_path, capsys, rows, message):
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"angles": rows}))
    with pytest.raises(GluingError, match=rf"^assignment {message}, expected 6$"):
        cli._load_assignment(start, census_tri)
    assert run_cli(tmp_path, capsys, ["volmax", "--start", str(start)]) == 2


def test_package_exports_no_tracer_only_names():
    # These exist only because the benchmark traces them by name: the
    # package exports none of them, and no line of the package or the tests
    # reads one as an attribute or imports it.
    tracer_only = {"curvature", "curvature_jacobian", "tet_potentials",
                   "metric_margin", "schlafli_segment", "schlafli_potential",
                   "schlafli_potential_of_angles"}
    assert not tracer_only & set(hyperideal.__all__)
    names = "|".join(sorted(tracer_only))
    named = re.compile(rf"\.({names})\b|\bimport\b.*\b({names})\b")
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "hyperideal").glob("*.py")) \
        + sorted((root / "tests").glob("*.py"))
    callers = [f"{p.relative_to(root)}:{i}" for p in files
               for i, line in enumerate(p.read_text().splitlines(), 1)
               if named.search(line)]
    assert callers == []


def test_every_export_has_a_caller():
    # Each function or class the package exports is named somewhere other
    # than __init__.py and the line that defines it, in the package or the
    # benchmark: no export is reached only by the tests.
    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src" / "hyperideal").glob("*.py"))
             if p.name != "__init__.py"] + sorted((root / "perfbench").glob("*.py"))
    lines = [line for p in files for line in p.read_text().splitlines()]
    uncalled = []
    for name in hyperideal.__all__:
        obj = getattr(hyperideal, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        word, defines = re.compile(rf"\b{name}\b"), re.compile(rf"\s*(def|class) {name}\b")
        if not any(word.search(line) and not defines.match(line) for line in lines):
            uncalled.append(name)
    assert uncalled == []


def test_readme_python_session_runs():
    # The README's quick session as a reader would paste it; its last line
    # asserts that volume maximisation and the flow end at the same metric.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
