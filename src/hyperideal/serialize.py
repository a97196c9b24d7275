"""Deterministic file formats.

Every float is rendered with %.17g, which round-trips exactly through a
correct parser, and no data file ever contains a timestamp; wall-clock
metadata lives in the manifest sidecars, so rerunning a command with the
same inputs and configuration reproduces every data byte.
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


def _layout(items: list, indent: int) -> str:
    # One line when no item wraps and the items' own widths sum under 100;
    # no items make "[]".
    if sum(map(len, items)) < 100:
        line = ", ".join(items)
        if "\n" not in line:
            return f"[{line}]"
    pad = "  " * (indent + 1)
    sep = ",\n" + pad
    return f"[\n{pad}{sep.join(items)}\n{'  ' * indent}]"


def _render(obj, indent: int) -> str:
    # An object with a json_text(indent) method, a GluingSpec, renders
    # itself; it is looked for first, since a search report holds thousands.
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
    if isinstance(obj, (list, tuple)):
        return _layout([_render(v, indent + 1) for v in obj], indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            parts.append("  " * (indent + 1) + json.dumps(k) + ": "
                         + _render(v, indent + 1))
        return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return _render(obj, 0) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        f.write(dumps(obj))


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
