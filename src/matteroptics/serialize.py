"""Deterministic text serialization for CSV and JSON outputs.

Contract shared by every writer in the package: CSV prints numerics with
9 significant digits, JSON with 17 (full double round-trip); the decimal
separator is always '.', fields are ','-separated, files end with a
trailing newline, and nothing here depends on locale or wall-clock time.
Infinities serialize as "inf"/"-inf" strings; NaN is rejected because no
computation in this package may silently produce one.

json_dumps appends the text of a document to one list of parts in a
single pass. A scalar of an exact type takes its formatter from one
table; a subclass (np.float64, an IntEnum) takes the isinstance checks.
Lists, tuples and dicts go value by value. A ColumnTable (rows held as
named float64 columns, such as a Bloch trajectory) is written as the
list of one flat dict per row: while every cell is finite, through one
"%.17g" row template, -0.0 folded by adding 0.0; with an infinity or a
NaN among them, by the per-value path. Both give the same bytes.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# write_float_table formats this many rows per write.
_CSV_BLOCK_ROWS = 2048

# Printable ASCII but the quote and the backslash: json.dumps (ensure_ascii)
# escapes nothing else, so such a key is quoted as it stands.
_PLAIN_KEY = re.compile(r'[ !#-\[\]-~]*')

# Distinct str keys whose quoted text json_dumps keeps.
_KEY_MEMO_SIZE = 256


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


def _json_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g") if x else "0"  # fold -0.0 into 0
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    return '"inf"' if x > 0 else '"-inf"'


def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return repr(x)
    if isinstance(x, float):
        return _json_float(x)
    if isinstance(x, str):
        return json.dumps(x)  # stdlib handles escaping
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


# The text of a scalar of exactly one of these types; any other scalar,
# a bool, None or a subclass such as np.float64, takes _json_scalar.
_EXACT_SCALARS = {float: _json_float, str: json.dumps, int: repr}


@functools.lru_cache(maxsize=_KEY_MEMO_SIZE)
def _quoted(key: str) -> str:
    return f'"{key}"' if _PLAIN_KEY.fullmatch(key) else json.dumps(key)


def _json_key(k) -> str:
    # only str keys are memoized: a cache keyed on other values would
    # quote True as "1" after it had seen 1, since True == 1
    return _quoted(k) if type(k) is str else _quoted.__wrapped__(str(k))


@dataclass(frozen=True)
class ColumnTable:
    """Rows held as named float64 columns of one length: json_dumps writes
    it as the list of one flat dict per row, keys in column order."""

    columns: dict[str, np.ndarray]


def _encode_table(table: ColumnTable, nl: str, parts: list[str]) -> None:
    cells = np.stack(list(table.columns.values()), axis=1)
    if cells.size and np.isfinite(cells).all():
        inner = nl + "  "
        keys = [_json_key(k).replace("%", "%%") for k in table.columns]
        row = "{" + ",".join(f"{inner}  {k}: %.17g" for k in keys) + inner + "}"
        # -0.0 + 0.0 == +0.0 folds negative zero; other values are unchanged
        body = f",{inner}".join([row] * len(cells)) % tuple((cells + 0.0).ravel().tolist())
        parts += ("[", inner, body, nl, "]")
    else:  # "[]", or the per-value path
        rows = zip(*(c.tolist() for c in table.columns.values()))
        _encode([dict(zip(table.columns, row)) for row in rows], nl, parts)


def _encode(obj, nl: str, parts: list[str]) -> None:
    """Append obj's text to parts; nl is a newline and obj's own indent."""
    scalar = _EXACT_SCALARS.get(type(obj))
    if scalar is not None:
        parts.append(scalar(obj))
    elif isinstance(obj, dict):
        inner = nl + "  "
        sep = "{" + inner
        for k, v in obj.items():
            parts += (sep, _json_key(k), ": ")
            _encode(v, inner, parts)
            sep = "," + inner
        parts.append(nl + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        sep = "[" + inner
        for v in obj:
            parts.append(sep)
            _encode(v, inner, parts)
            sep = "," + inner
        parts.append(nl + "]" if obj else "[]")
    elif isinstance(obj, ColumnTable):
        _encode_table(obj, nl, parts)
    else:
        parts.append(_json_scalar(obj))


def json_dumps(obj) -> str:
    """Serialize nested dict/list/ColumnTable/scalar data with 17-digit floats.

    Dict insertion order is preserved, so identical inputs give
    byte-identical output.
    """
    parts: list[str] = []
    _encode(obj, "\n", parts)
    return "".join(parts)
