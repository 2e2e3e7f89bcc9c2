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

write_float_table (the snapshot and trajectory CSVs) gives the bytes of
csv_num, cell by cell, but builds them with numpy, a block of rows at a
time. A cell x with decimal exponent X (from log10, clipped) becomes the
integer mantissa round(|x| 10^(8-X)) of 9 digits d0..d8; the scaling is
one multiply or divide by an exact power of ten (10^0 to 10^22, enough
for 1e-14 <= |x| < 1e30), so it is correctly rounded and off by at most
2^-24 < 6e-8. The digits d1..d8 go to ASCII at once by SWAR arithmetic
in one uint64 (two 4-digit lanes, then four 2-digit lanes, then bytes),
and each cell is laid out as four 8-byte words padded with NULs: sign,
lead zeros and d0; the digits before an interior dot; the dot and the
digits after it, trailing zeros cut by a table of 4-digit halves; the
exponent and the separator. Removing the NULs leaves the row text. A
cell whose rounding the scaled value cannot settle falls back to "%.9g"
alone, in its place: a scaled value within 2.5e-7 of a half-integer
(over four times the scaling error), or within 1 of 1e8 or 1e9 (which
also catches an exponent that log10 got wrong), |x| outside
[1e-14, 1e30), and the infinities. Zero is the kernel's own.
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


def csv_cell(value) -> str:
    """One CSV cell of any kind: csv_num for a number or a bool, empty for
    None, and text always quoted, its quotes doubled."""
    if isinstance(value, str):
        return '"' + value.replace('"', '""') + '"'
    return "" if value is None else csv_num(value)


def by_order(values: dict[int, float]) -> dict[str, float]:
    """A q-keyed mapping in JSON form: string keys, q ascending."""
    return {str(q): values[q] for q in sorted(values)}


def _words(*byte_strings: bytes) -> np.ndarray:
    """Each string, at most 8 bytes, as the uint64 whose little-endian
    bytes it is, NUL-padded."""
    return np.array([int.from_bytes(b, "little") for b in byte_strings], dtype=np.uint64)


def _cell_tables():
    """The tables of write_float_table's kernel.

    A cell's row r is its decimal exponent X = r - 15 clipped to
    [-15, 29]; row 0 holds zero (and cells below 1e-14, which fall
    back). _BEFORE and _EXPONENT are indexed by r; _WORD0, _AFTER and
    _WORD2 by 9 r + s, s the count of significant digits after d0.
    """
    mul, div, before, word0, after, word2, exponent = [], [], [], [], [], [], []
    for x in range(-15, 30):
        zero = x == -15
        mul.append(1.0 if zero else 10.0 ** max(8 - x, 0))
        div.append(10.0 ** max(x - 8, 0))
        fixed = zero or -4 <= x <= 8
        split = x if 1 <= x <= 8 else 0  # d1..d<split> go before the dot
        before.append(b"\xff" * split)
        exponent.append(b"" if fixed else b"e%+03d" % x)
        for sig in range(9):
            dot = sig > split
            # word 0: bytes 1-5 the lead of 0.000ddd, byte 7 the dot after d0
            lead = b"\0" + b"0." + b"0" * (-x - 1) if fixed and x < 0 and not zero else b""
            word0.append(lead or (b"\0" * 7 + b"." if dot and (x == 0 or not fixed) else b""))
            after.append(b"\0" * split + b"\xff" * (sig - split))
            word2.append(b"\0" * (split - 1) + b"." if dot and split else b"")
    tz4 = sum((np.arange(10_000) % 10**d == 0).astype(np.int8) for d in range(1, 5))
    words = (_words(*t) for t in (before, word0, after, word2, exponent))
    return (np.array(mul), np.array(div), tz4, *words)


# 10^(8 - X) as a factor and a divisor, one of them 1; the trailing zeros
# of a 4-digit number (4 for 0); and the word tables (see _cell_words)
_MUL, _DIV, _TRAILING_ZEROS, _BEFORE, _WORD0, _AFTER, _WORD2, _EXPONENT = _cell_tables()


def _u(x: int) -> np.uint64:
    # numpy 1.x promotes uint64 with a Python or int64 integer to float64
    return np.uint64(x)


def _cell_words(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of each cell of x (rows, columns) as four NUL-padded words,
    with ',' or, in the last column, '\\n' after it, and the flat indices
    of the cells whose words are left for "%.9g" to fill."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # log10(0); casts of inf
        row = np.clip(np.floor(np.log10(a)), -15.0, 29.0).astype(np.intp) + 15
        m = a * _MUL.take(row) / _DIV.take(row)  # one rounding: |m - exact| <= 2^-24 < 6e-8
        n = np.rint(m)
        safe = (np.abs(m - n) < 0.5 - 2.5e-7) & (m > 1e8 + 1.0) & (m < 1e9 - 1.0)
        n = n.astype(np.int64)
    d0, head = n // 100_000_000, n // 10_000  # d0 and d0..d4
    hi, lo = head - d0 * 10_000, n - head * 10_000  # d1..d4 and d5..d8
    # significant digits after d0: 8 less the trailing zeros of d1..d8
    sig = 8 - _TRAILING_ZEROS.take(lo) - (lo == 0) * _TRAILING_ZEROS.take(hi)
    at = row * 9 + sig
    # SWAR: 4+4 digits in two 32-bit lanes, then 2-digit 16-bit lanes, then bytes
    v = hi.view(np.uint64) | lo.view(np.uint64) << _u(32)
    q = (v * _u(5243)) >> _u(19) & _u(0x0000007F0000007F)  # v // 100 in each lane
    v = q | (v - q * _u(100)) << _u(16)
    q = (v * _u(103)) >> _u(10) & _u(0x000F000F000F000F)  # v // 10 in each lane
    digits = q | (v - q * _u(10)) << _u(8) | _u(0x3030303030303030)
    words = np.empty(x.shape + (4,), dtype=np.uint64)
    sign_d0 = (x < 0) * _u(ord("-")) | (d0.view(np.uint64) | _u(ord("0"))) << _u(48)
    words[..., 0] = _WORD0.take(at) | sign_d0
    words[..., 1] = digits & _BEFORE.take(row)
    words[..., 2] = digits & _AFTER.take(at) | _WORD2.take(at)
    seps = _words(*[b"\0" * 7 + b","] * (x.shape[1] - 1), b"\0" * 7 + b"\n")
    words[..., 3] = _EXPONENT.take(row) | seps
    return words, np.flatnonzero(~(safe | (a == 0.0)))


def write_float_table(header: str, columns: Sequence[np.ndarray], fh) -> None:
    """Write a header line, then one CSV row per index of the float64 columns.

    Cells read exactly as csv_num writes them: 9 significant digits,
    -0.0 as 0, infinities as inf/-inf; NaN raises ValueError before
    anything is written. Each block of _CSV_BLOCK_ROWS rows is formatted
    by the numpy kernel of _cell_words (see the module docstring); a
    cell within 2.5e-7 of a rounding tie after scaling, within 1 of the
    mantissa's ends 1e8 and 1e9, outside [1e-14, 1e30) or infinite is
    formatted by "%.9g" alone, in its place.
    """
    if any(np.isnan(c).any() for c in columns):
        raise ValueError("NaN is not serializable")
    fh.write(header + "\n")
    for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        hi = lo + _CSV_BLOCK_ROWS
        x = np.stack([c[lo:hi] for c in columns], axis=1)
        words, fallback = _cell_words(x)
        if fallback.size:
            texts = ["%.9g" % v for v in x.ravel()[fallback].tolist()]
            cells = words.reshape(-1, 4)
            cells[fallback, :3] = np.array(texts, dtype="S24").view("<u8").reshape(-1, 3)
            cells[fallback, 3] &= _u(0xFF << 56)  # the separator alone
        fh.write(words.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii"))


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
