"""Deterministic file formats.

Every float is rendered with %.17g, which round-trips exactly through a
correct parser, and no data file ever contains a timestamp; wall-clock
metadata lives in the manifest sidecars, so rerunning a command with the
same inputs and configuration reproduces every data byte.

A JSON document is rendered into one list of pieces by `_pieces`.  A dict
adds its keys and braces around its values' own pieces, and a list the
pieces that `_layout`, the one width rule, gives: the list on one line, or
its items joined once between an opening and a close.  `dumps` joins the
pieces and `write_json` writes them with `writelines`, so no value's text
is copied again into its container's.  Both render before anything is
written: a refused value leaves an existing file as it was and creates no
new one.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import numpy as np


NON_FINITE = "refusing to serialize a non-finite float"


def fmt(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise ValueError(NON_FINITE)
    return format(v, ".17g")


def _wrapped(indent: int) -> tuple:
    # The opening, separator and close of a list at this indent that is
    # written one item a line.
    pad = "  " * (indent + 1)
    return f"[\n{pad}", ",\n" + pad, f"\n{'  ' * indent}]"


def _layout(items: list, indent: int) -> tuple:
    # The pieces of a list whose items render to `items` at this indent: one
    # line when no item wraps and the items' own widths sum under 100 (no
    # items make "[]"), else one item a line, the items joined once.
    if sum(map(len, items)) < 100:
        line = ", ".join(items)
        if "\n" not in line:
            return (f"[{line}]",)
    start, sep, end = _wrapped(indent)
    return start, sep.join(items), end


def _render(obj, indent: int) -> str:
    # The text of obj at this indent.  An object with a json_text(indent)
    # method, a GluingSpec, renders itself; it is looked for first, since a
    # search report holds thousands.
    json_text = getattr(obj, "json_text", None)
    if json_text is not None:
        return json_text(indent)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple, dict)):
        out = []
        _pieces(obj, indent, out)
        return "".join(out)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _pieces(obj, indent: int, out: list) -> None:
    # Appends the text of obj at this indent to out: a list or tuple as the
    # pieces _layout gives for its items' texts, a dict as its keys and
    # frame around its values' own pieces, anything else as the one string
    # _render makes.  No class with a json_text method is a dict, list or
    # tuple.
    if isinstance(obj, (list, tuple)):
        out += _layout([_render(v, indent + 1) for v in obj], indent)
    elif not isinstance(obj, dict):
        out.append(_render(obj, indent))
    elif not obj:
        out.append("{}")
    else:
        pad = "  " * (indent + 1)
        head = "{\n"
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append(f"{head}{pad}{json.dumps(k)}: ")
            _pieces(v, indent + 1, out)
            head = ",\n"
        out.append(f"\n{'  ' * indent}}}")


def dumps(obj) -> str:
    out = []
    _pieces(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj) -> None:
    """Write obj's JSON text to path.  The text is rendered before the file
    is opened, so a refused value (a non-finite float, a non-str key) leaves
    an existing file as it was and creates no new one."""
    pieces = []
    _pieces(obj, 0, pieces)
    pieces.append("\n")
    with open(path, "w") as f:
        f.writelines(pieces)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def trace_csv(trace) -> str:
    """Flow trace as delimited text: t, lengths, curvatures, sum K^2, energy."""
    n = trace.x.shape[1]
    cols = (["t"] + [f"x_{i}" for i in range(n)]
            + [f"K_{i}" for i in range(n)] + ["total_curv", "H"])
    table = np.column_stack((trace.t, trace.x, trace.K, trace.total_curv,
                             trace.H))
    if not np.isfinite(table).all():
        raise ValueError(NON_FINITE)
    rows = [",".join([format(v, ".17g") for v in row]) for row in table.tolist()]
    return "\n".join([",".join(cols), *rows]) + "\n"


def now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(out_path, command: str, inputs: dict, config: dict,
                   version: str, started: str) -> None:
    write_json(str(out_path) + ".manifest.json", {
        "command": command,
        "inputs": inputs,
        "config": config,
        "version": version,
        "started": started,
        "finished": now_iso(),
    })
