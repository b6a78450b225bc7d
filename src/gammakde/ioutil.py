"""Deterministic serialization helpers for report files.

Floats are written to 12 significant digits, in JSON and CSV alike, so
that reruns (including parallel ones) produce byte-identical files. In
JSON, NaN is mapped to null: it only appears for statistics that are
undefined at the configured replication count, and the reports flag those
in prose.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = ["round_floats", "json_text", "write_json", "write_csv"]

_FLOAT_FMT = ".12g"


def round_floats(obj):
    """Recursively round floats to 12 significant digits; NaN becomes None."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            raise ValueError("refusing to serialize an infinite value")
        return float(format(obj, _FLOAT_FMT))
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def json_text(obj) -> str:
    return json.dumps(round_floats(obj), indent=2) + "\n"


def write_json(obj, path: str | Path) -> None:
    Path(path).write_text(json_text(obj), encoding="ascii")


def write_csv(columns: dict, path: str | Path) -> None:
    """Write {name: equal-length float column} as CSV, columns in dict order."""
    lines = [",".join(columns)]
    rows = zip(*columns.values())
    lines.extend(",".join(format(v, _FLOAT_FMT) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
