"""Number formatting, JSON rendering, trace CSV, and manifests.

`serialize.dumps` and `write_json` render a document into pieces that are
joined once, and `GluingSpec.json_text` joins a spec's finished rows inside
a frame made once per indent and tetrahedron count.  Neither may change a
byte, so the renderer they replaced, in which every dict joins its entries'
texts and every list its items', is kept below as `ref_nested_render`.  It
writes a `GluingSpec` as the JSON object it stands for, so that it checks
json_text's frame as well.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from hyperideal import cli
from hyperideal import dynamics as D
from hyperideal import serialize
from hyperideal import triangulation as T

from conftest import CENSUS_JSON, census_metric, spec_json


def _ref_render(obj, indent):
    # The reference renderer: a list goes inline when none of its items
    # wraps and their widths sum under 100.
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return serialize.fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = [_ref_render(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        if all("\n" not in s for s in items) and sum(map(len, items)) < 100:
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k, v in obj.items():
            parts.append("  " * (indent + 1) + json.dumps(k) + ": "
                         + _ref_render(v, indent + 1))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _ref_dumps(obj):
    return _ref_render(obj, 0) + "\n"


def test_fmt_round_trips():
    for v in (0.1, 1 / 3, math.pi, 1e-300, 6.62607015e-34, -0.0, 2.0 ** 53):
        assert float(serialize.fmt(v)) == v
    assert serialize.fmt(1.0) == "1"


def test_fmt_rejects_non_finite():
    for v in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            serialize.fmt(v)


def test_json_round_trip(tmp_path):
    obj = {"a": [1.0, 2.5, 1 / 3], "b": {"c": True, "d": None, "e": "x"},
           "n": np.float64(0.1), "i": np.int64(4)}
    p = tmp_path / "o.json"
    serialize.write_json(str(p), obj)
    back = json.loads(p.read_text())
    assert back["a"] == [1.0, 2.5, 1 / 3]
    assert back["b"] == {"c": True, "d": None, "e": "x"}
    assert back["n"] == 0.1 and back["i"] == 4


def test_trace_csv_layout(census_tri):
    trace = D.flow(census_metric(census_tri), D.FlowConfig(t_max=0.2))
    text = serialize.trace_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "t,x_0,K_0,total_curv,H"
    assert len(lines) == 1 + trace.t.size
    row = lines[-1].split(",")
    assert float(row[0]) == trace.t[-1]
    assert float(row[1]) == trace.x[-1, 0]
    assert float(row[4]) == trace.H[-1]


def _trace_csv_by_rows(trace):
    # the row-by-row rendering trace_csv must reproduce byte for byte
    n = trace.x.shape[1]
    lines = [",".join(["t"] + [f"x_{i}" for i in range(n)]
                      + [f"K_{i}" for i in range(n)] + ["total_curv", "H"])]
    for k in range(trace.t.size):
        row = ([trace.t[k]] + list(trace.x[k]) + list(trace.K[k])
               + [trace.total_curv[k], trace.H[k]])
        lines.append(",".join(serialize.fmt(float(v)) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tri_fixture, x0", [("census_tri", 0.3),
                                             ("torus_tri", 1.0)])
def test_trace_csv_matches_row_by_row_rendering(tri_fixture, x0, request):
    trace = D.flow(census_metric(request.getfixturevalue(tri_fixture), x0))
    assert serialize.trace_csv(trace) == _trace_csv_by_rows(trace)


@pytest.mark.parametrize("column, bad", [("H", math.nan), ("x", math.inf),
                                         ("t", -math.inf)])
def test_trace_csv_refuses_non_finite(census_tri, column, bad):
    trace = D.flow(census_metric(census_tri), D.FlowConfig(t_max=0.2))
    values = getattr(trace, column).copy()
    values.flat[-1] = bad
    trace = dataclasses.replace(trace, **{column: values})
    with pytest.raises(ValueError, match="refusing to serialize a non-finite"):
        serialize.trace_csv(trace)


def test_manifest_written(tmp_path):
    out = tmp_path / "data.json"
    serialize.write_json(str(out), {"v": 1})
    started = serialize.now_iso()
    serialize.write_manifest(str(out), "demo", {"tri": "t.json"},
                             {"tol": 1e-9}, "0.1.0", started)
    man = json.loads((tmp_path / "data.json.manifest.json").read_text())
    assert man["command"] == "demo"
    assert man["inputs"] == {"tri": "t.json"}
    assert man["config"] == {"tol": 1e-9}
    assert man["version"] == "0.1.0"
    assert man["started"] == started
    assert man["finished"] >= started


def test_dumps_matches_reference_on_edge_cases():
    obj = {"empty": [], "bools": [True, False, 1], "np": [np.int64(3), 4],
           "tuple": (1, 2, 3), "nested": [[1, 2], [[3]], []],
           "inline": list(range(37)), "wrapped": list(range(38)),
           "negative": [-1, 0, -20], "mixed": [1, 2.5, None, "x"]}
    assert serialize.dumps(obj) == _ref_dumps(obj)


def _row(width):
    # A pairing-shaped row [t, f, t2, f2, [perm]] whose items render to
    # `width` characters in all ("[0, 1, 2, 3]" is 12 of them).
    return [int("9" * (width - 15)), 0, 1, 2, [0, 1, 2, 3]]


def _inner(width):
    # A row whose inner list's items render to `width` characters in all.
    return [0, [int("9" * (width - 2)), 1, 2]]


@pytest.mark.parametrize("obj", [
    pytest.param(CENSUS_JSON, id="pairing_rows"),
    pytest.param([_row(99), _row(100)], id="row_width_99_100"),
    pytest.param({"rows": [_row(99), _row(100)]}, id="row_width_indented"),
    pytest.param([_inner(99), _inner(100)], id="inner_width_99_100"),
    pytest.param([[0, 1, 2, 3, [True, 1, 2, 3]], [0, True, [0, 1]]],
                 id="bool"),
    pytest.param([[0, 1, 2, 3, [np.int64(0), 1, 2, 3]], [np.int64(0), [0]]],
                 id="np_int64"),
    pytest.param([[0, 1, 2, 3, [0.5, 1, 2, 3]], [0.5, 1, [0, 1]]],
                 id="float"),
    pytest.param([[0, []], [[], []], []], id="empty_inner"),
    pytest.param([[-1, [-2, 3]], [0, [1, [2]]]], id="negative_and_deep"),
    pytest.param([(0, 1, 2, 3, [0, 1, 2, 3]), [0, 1, 2, 3, (0, 1, 2, 3)]],
                 id="tuple_rows"),
    pytest.param([[i, i % 4, i + 1, 3, [0, 1, 2, 3]] for i in range(40)],
                 id="forty_rows"),
    pytest.param(list(range(150)), id="long_int_list"),
    pytest.param({"rows": [[0, [1, list(range(60))]]]}, id="deep_wrap"),
    pytest.param([{"short": 1}], id="wrapped_short_item"),
])
def test_dumps_matches_reference_on_rows(obj):
    # Pairing-shaped rows, and rows with anything else in them, under the
    # one inline rule.
    assert serialize.dumps(obj) == _ref_dumps(obj)


@pytest.mark.parametrize("argv", [
    ("search", "--tets", "2", "--filter", "any"),
    ("shapes", "--tri", "{census}", "--metric", "{metric}"),
    ("lp", "--tri", "{census}"),
    ("volmax", "--tri", "{census}"),
    # every shape of search report, the empty "gluings": [] included
    pytest.param(("search", "--tets", "1", "--filter", "any"),
                 id="search_one_tet"),
    pytest.param(("search", "--tets", "1", "--filter", "census"),
                 id="search_empty"),
    pytest.param(("search", "--tets", "2", "--filter", "census",
                  "--limit", "3"), id="search_limit"),
    pytest.param(("search", "--tets", "2", "--filter", "torus"),
                 id="search_torus"),
    pytest.param(("search", "--tets", "2", "--filter", "census", "--first"),
                 id="search_first"),
], ids=lambda a: a[0])
def test_dumps_matches_reference_on_reports(tmp_path, argv):
    census = tmp_path / "census.json"
    census.write_text(json.dumps(CENSUS_JSON))
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps({"lengths": [1.0]}))
    out = tmp_path / "report.json"
    argv = [a.format(census=census, metric=metric) for a in argv]
    assert cli.main(argv + ["--out", str(out)]) == 0
    # the report was written by serialize.dumps
    text = out.read_text()
    assert _ref_dumps(json.loads(text)) == text


def ref_nested_layout(items, indent):
    if sum(map(len, items)) < 100:
        line = ", ".join(items)
        if "\n" not in line:
            return f"[{line}]"
    pad = "  " * (indent + 1)
    sep = ",\n" + pad
    return f"[\n{pad}{sep.join(items)}\n{'  ' * indent}]"


def ref_nested_render(obj, indent):
    if isinstance(obj, T.GluingSpec):
        obj = spec_json(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return serialize.fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return ref_nested_layout([ref_nested_render(v, indent + 1)
                                  for v in obj], indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            parts.append("  " * (indent + 1) + json.dumps(k) + ": "
                         + ref_nested_render(v, indent + 1))
        return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ref_nested_dumps(obj):
    return ref_nested_render(obj, 0) + "\n"


CENSUS_SPEC = T.GluingSpec.from_json_obj(CENSUS_JSON)


def _at_indent(obj, indent):
    # obj as the value of `indent` nested dicts, so that it renders there.
    for depth in range(indent):
        obj = {f"level_{depth}": obj}
    return obj


def _spec(tet_count, *rows):
    return T.GluingSpec(tet_count, tuple(rows))


@pytest.mark.parametrize("obj", [
    pytest.param({"a": {"b": {"c": [1, {"d": []}], "e": {}}}, "f": [],
                  "g": {}, "h": [[], {}, [[]], [{}]]}, id="nested_and_empty"),
    pytest.param([], id="empty_list"),
    pytest.param({}, id="empty_dict"),
    pytest.param([{}, {"a": {}}, [{"b": [1, 2]}]], id="dicts_in_lists"),
    pytest.param({"s": "quote \" and \\ and \u00e9", "n": None,
                  "t": (True, False)}, id="strings_and_constants"),
    pytest.param([_row(99), _row(100)], id="row_width_99_100"),
    pytest.param(_at_indent({"rows": [_row(99), _row(100)]}, 3),
                 id="row_width_deep"),
    pytest.param({"w99": [int("9" * 97), 1], "w100": [int("9" * 98), 1]},
                 id="item_width_99_100"),
    pytest.param({"s99": ["x" * 97], "s100": ["x" * 98]},
                 id="string_width_99_100"),
    pytest.param({"f": np.float64(0.1), "i": np.int32(-3), "b": np.bool_(True),
                  "f32": np.float32(0.5), "u": np.uint8(7)},
                 id="numpy_scalars"),
    pytest.param({"m": np.arange(6).reshape(2, 3), "e": np.zeros((2, 0)),
                  "v": np.array([]), "long": np.linspace(0.0, 1.0, 40),
                  "eye": [np.eye(3)]}, id="numpy_arrays"),
    *(pytest.param(_at_indent(CENSUS_SPEC, indent), id=f"spec_indent_{indent}")
      for indent in range(4)),
    pytest.param({"gluings": [CENSUS_SPEC] * 3, "count": 3},
                 id="specs_in_a_report"),
    *(pytest.param(_at_indent(_spec(1, *[(0, 1, (1, 0, 2, 3))] * rows), 1),
                   id=f"spec_{rows}_rows") for rows in (1, 2, 3)),
    pytest.param(_spec(1), id="spec_no_rows"),
    pytest.param([_spec(2, *CENSUS_SPEC.pairings[:4]),
                  _spec(1, *CENSUS_SPEC.pairings)], id="spec_rows_not_4n"),
    pytest.param([_spec(True, *CENSUS_SPEC.pairings[:4]),
                  _spec(1.0, *CENSUS_SPEC.pairings[:4])], id="spec_odd_count"),
    pytest.param([_spec(1, (1.0, 1, (1, 0, 2, 3)),
                        *CENSUS_SPEC.pairings[1:4]),
                  _spec(1, *CENSUS_SPEC.pairings[:3],
                        (True, 2, (0, 1, 3, 2))),
                  _spec(1, (0, 1, (1, 0, 2.0, 3)), *CENSUS_SPEC.pairings[1:4]),
                  _spec(1, [0, 1, [1, 0, 2, 3]], *CENSUS_SPEC.pairings[1:4])],
                 id="spec_odd_labels"),
])
def test_dumps_matches_nested_renderer(obj, tmp_path, monkeypatch):
    # Rendered with no finished rows, then with the rows and frames the
    # first rendering left, and written to a file as well.  The specs with
    # odd labels render first, so no row of equal ints is tabled for them.
    monkeypatch.setattr(T, "_ROWS", {})
    want = ref_nested_dumps(obj)
    assert serialize.dumps(obj) == want
    assert serialize.dumps(obj) == want
    path = tmp_path / "o.json"
    serialize.write_json(str(path), obj)
    assert path.read_text() == want


def test_spec_frame_appears_only_for_int_counts_with_4n_rows(monkeypatch):
    monkeypatch.setattr(T, "_ROWS", {})
    for spec in (_spec(1, *CENSUS_SPEC.pairings[:3]),
                 _spec(2, *CENSUS_SPEC.pairings[:4]),
                 _spec(1, *CENSUS_SPEC.pairings),
                 _spec(True, *CENSUS_SPEC.pairings[:4]),
                 _spec(1.0, *CENSUS_SPEC.pairings[:4])):
        for indent in (0, 1):
            assert spec.json_text(indent) == ref_nested_render(spec, indent)
    assert all(type(key) is int for key in T._ROWS)
    CENSUS_SPEC.json_text(3)
    assert [key for key in T._ROWS if type(key) is not int] == [(3, 2)]


def test_four_narrowest_rows_wrap():
    # json_text's frame is _layout's wrapped form: a row of int labels is
    # at least 26 characters wide, and four of them reach 100.
    row = serialize._render([0, 0, 0, 1, [1, 2, 3, 0]], 2)
    assert len(row) == 26
    assert serialize._layout([row] * 4, 1) == (
        "[\n    ", ",\n    ".join([row] * 4), "\n  ]")


@pytest.mark.parametrize("obj", [{1: 2}, {"a": {"b": {(0, 1): []}}},
                                 [{"a": 1, None: 2}]])
def test_non_str_key_raises_type_error(obj):
    with pytest.raises(TypeError, match="keys must be strings"):
        ref_nested_dumps(obj)
    with pytest.raises(TypeError, match="keys must be strings"):
        serialize.dumps(obj)


@pytest.mark.parametrize("bad", [
    pytest.param({"v": math.nan}, id="nan"),
    pytest.param({"ok": [1.0] * 50, "v": [2.0, -math.inf]}, id="inf_late"),
    pytest.param({"v": 1.0, 2: 3}, id="int_key"),
    pytest.param({"spec": CENSUS_SPEC, "v": object()}, id="unknown_type"),
])
@pytest.mark.parametrize("existing", [True, False],
                         ids=("existing", "absent"))
def test_refused_write_leaves_target_as_it_was(tmp_path, bad, existing):
    path = tmp_path / "out.json"
    if existing:
        serialize.write_json(str(path), {"v": 1.0})
        before = path.read_bytes()
    with pytest.raises((ValueError, TypeError)):
        serialize.write_json(str(path), bad)
    if existing:
        assert path.read_bytes() == before
    else:
        assert not path.exists()
