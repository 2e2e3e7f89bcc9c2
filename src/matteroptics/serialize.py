"""Deterministic text serialization for CSV and JSON outputs.

Contract shared by every writer in the package: CSV prints numerics with
9 significant digits, JSON with 17 (full double round-trip); the decimal
separator is always '.', fields are ','-separated, files end with a
trailing newline, and nothing here depends on locale or wall-clock time.
Infinities serialize as "inf"/"-inf" strings; NaN is rejected because no
computation in this package may silently produce one.

A list of flat rows (dicts that share one key order and hold only
finite floats, such as a Bloch trajectory) is formatted through one row
template with the same 17-digit "%.17g" contract, -0.0 folded by adding
0.0; any other list, and any row with an infinity or a NaN, takes the
general per-value path, so both give the same bytes.
"""

from __future__ import annotations

import json
import math
import re
from typing import Sequence

import numpy as np

# write_float_table formats this many rows per write.
_CSV_BLOCK_ROWS = 2048

# Printable ASCII but the quote and the backslash: json.dumps (ensure_ascii)
# escapes nothing else, so such a key is quoted as it stands.
_PLAIN_KEY = re.compile(r'[ !#-\[\]-~]*')


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


def by_order(values: dict[int, float]) -> dict[str, float]:
    """A q-keyed mapping in JSON form: string keys, q ascending."""
    return {str(q): values[q] for q in sorted(values)}


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


def _json_key(k) -> str:
    k = str(k)
    return f'"{k}"' if _PLAIN_KEY.fullmatch(k) else json.dumps(k)


def _float_rows(rows, level: int) -> str | None:
    """rows as json_dumps formats them at level, or None off the fast path.

    The fast path takes a list of non-empty dicts that share one key
    order and hold only exact, finite floats; the rows then differ only
    in their numbers, so one "%.17g" template formats them all.
    """
    if set(map(type, rows)) != {dict} or len(set(map(tuple, rows))) != 1:
        return None
    keys = tuple(rows[0])
    cells = [v for row in rows for v in row.values()]
    if not keys or set(map(type, cells)) != {float} or not all(map(math.isfinite, cells)):
        return None
    inner = "  " * (level + 1)
    fields = ",\n".join(
        f"{inner}  {_json_key(k).replace('%', '%%')}: %.17g" for k in keys
    )
    row = f"{inner}{{\n{fields}\n{inner}}}"
    # -0.0 + 0.0 == +0.0 folds negative zero; other values are unchanged
    body = ",\n".join([row] * len(rows)) % tuple([v + 0.0 for v in cells])
    return "[\n" + body + "\n" + "  " * level + "]"


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
            f"{inner}{_json_key(k)}: {json_dumps(v, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        fast = _float_rows(obj, _level)
        if fast is not None:
            return fast
        items = [f"{inner}{json_dumps(v, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)
