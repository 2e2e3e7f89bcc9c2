"""Deterministic text serialization for CSV and JSON outputs.

Contract shared by every writer in the package: CSV prints numerics with
9 significant digits, JSON with 17 (full double round-trip); the decimal
separator is always '.', fields are ','-separated, files end with a
trailing newline, and nothing here depends on locale or wall-clock time.
Infinities serialize as "inf"/"-inf" strings; NaN is rejected because no
computation in this package may silently produce one.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

# write_float_table formats this many rows per write.
_CSV_BLOCK_ROWS = 2048


def csv_num(x: float) -> str:
    """One CSV cell: 9 significant digits, locale-free."""
    if isinstance(x, bool):
        return "true" if x else "false"
    x = float(x)
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        return "0"  # fold -0.0 into 0
    return format(x, ".9g")


def write_float_table(header: str, columns: Sequence[np.ndarray], fh) -> None:
    """Write a header line, then one CSV row per index of the float64 columns.

    Cells read exactly as csv_num writes them: 9 significant digits,
    -0.0 as 0, infinities as inf/-inf; NaN raises ValueError before
    anything is written.
    """
    if any(np.isnan(c).any() for c in columns):
        raise ValueError("NaN is not serializable")
    fh.write(header + "\n")
    row = ",".join(["%.9g"] * len(columns)) + "\n"
    # Blocks of rows keep the Python floats and strings of one format
    # call small next to the arrays of a large grid.
    for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        hi = lo + _CSV_BLOCK_ROWS
        # -0.0 + 0.0 == +0.0 folds negative zero; other values are unchanged
        cells = (np.stack([c[lo:hi] for c in columns], axis=1) + 0.0).ravel().tolist()
        fh.write(row * (len(cells) // len(columns)) % tuple(cells))


def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return repr(x)
    if isinstance(x, float):
        if math.isnan(x):
            raise ValueError("NaN is not serializable")
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if x == 0:
            return "0"  # fold -0.0 into 0
        return format(x, ".17g")
    if isinstance(x, str):
        return json.dumps(x)  # stdlib handles escaping
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def json_dumps(obj, _level: int = 0) -> str:
    """Serialize nested dict/list/scalar data with 17-digit floats.

    Dict insertion order is preserved, so identical inputs give
    byte-identical output.
    """
    pad = "  " * _level
    inner = "  " * (_level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {json_dumps(v, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{json_dumps(v, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)
