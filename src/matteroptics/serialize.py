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
2^-24 < 6e-8. The digits d1..d8 go to ASCII through two tables of the
10^4 four-digit numbers, and each cell becomes three NUL-padded 8-byte
words (see _cell_words): 24 bytes, which hold the longest cell, 16 bytes,
and a three-byte separator field. Removing the NULs leaves the row text.
A column whose cells are all +0.0 or -0.0 prints "0" on every row; when
the column before it is formatted, it is not formatted at all, and that
column's separator becomes ",0," (",0\n" in the last column). A zero
column after such a folded one is formatted, so a run of them
alternates. The folded columns and the separator words are found once
per table (see _layout), and nothing is kept between tables. A cell whose
rounding the scaled value cannot settle falls back to "%.9g" alone, in
its place: a scaled value within 2.5e-7 of a half-integer (over four
times the scaling error), or within 1 of 1e8 or 1e9 (which also catches
an exponent that log10 got wrong), |x| outside [1e-14, 1e30), and the
infinities. Zero is the kernel's own.
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


def _u(x: int) -> np.uint64:
    # numpy 1.x promotes uint64 with a Python or int64 integer to float64
    return np.uint64(x)


def _cell_tables():
    """The tables of write_float_table's kernel.

    A cell's row r is its decimal exponent X = r - 15 clipped to
    [-15, 29]; row 0 holds zero (and cells below 1e-14, which fall
    back). _BEFORE and _EXPONENT are indexed by r; _WORD0, _AFTER and
    _DOT by 9 r + s, s the count of significant digits after d0;
    _TRAILING_ZEROS and the digit tables by a 4-digit number.
    """
    mul, div, before, word0, after, dot_at, exponent = [], [], [], [], [], [], []
    for x in range(-15, 30):
        zero = x == -15
        mul.append(1.0 if zero else 10.0 ** max(8 - x, 0))
        div.append(10.0 ** max(x - 8, 0))
        fixed = zero or -4 <= x <= 8
        split = x if 1 <= x <= 8 else 0  # d1..d<split> go before the dot
        before.append(b"\xff" * split)
        exponent.append(b"" if fixed else b"\0e%+03d" % x)
        for sig in range(9):
            dot = sig > split
            # word 0: bytes 1-5 the lead of 0.000ddd, byte 7 the dot after d0
            lead = b"\0" + b"0." + b"0" * (-x - 1) if fixed and x < 0 and not zero else b""
            word0.append(lead or (b"\0" * 7 + b"." if dot and (x == 0 or not fixed) else b""))
            after.append(b"\0" * split + b"\xff" * (sig - split))
            dot_at.append(b"\0" * split + b"." if dot and split else b"")
    # n = 1000 i + 100 j + 10 k + l on a (10, 10, 10, 10) grid, with no
    # division: its trailing zeros, and the ASCII of its digits, i in byte 0
    z = (np.arange(10) == 0).astype(np.int8)
    tz4 = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    c = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    kl = c[:, None] << _u(16) | c << _u(24)
    digits = (c[:, None, None, None] | c[:, None, None] << _u(8) | kl).ravel()
    words = (_words(*t) for t in (before, word0, after, dot_at, exponent))
    return (np.array(mul), np.array(div), tz4.ravel(), digits, digits << _u(32), *words)


# 10^(8 - X) as a factor and a divisor, one of them 1; a 4-digit number's
# trailing zeros (4 for 0) and digits, in a word's low or high half; and
# the word tables (see _cell_words)
(_MUL, _DIV, _TRAILING_ZEROS, _DIGITS_LO, _DIGITS_HI,
 _BEFORE, _WORD0, _AFTER, _DOT, _EXPONENT) = _cell_tables()


def _layout(zero: Sequence[bool]) -> tuple[list[int], np.ndarray]:
    """The columns write_float_table formats, given which columns are all
    zero, and the separator word of each.

    A zero column whose left neighbour is formatted is not formatted: its
    "0" rides in that neighbour's separator, ",0," or, in the last
    column, ",0\\n". A zero column after a folded one is formatted, since
    ",0,0," does not fit in the three-byte separator field, so a run of
    zero columns alternates; column 0 is always formatted.
    """
    formatted: list[int] = []
    seps: list[bytes] = []
    for j, z in enumerate(zero):
        if z and formatted and formatted[-1] == j - 1:
            seps[-1] += b"0,"
        else:
            formatted.append(j)
            seps.append(b",")
    seps[-1] = seps[-1][:-1] + b"\n"
    return formatted, _words(*(sep.rjust(8, b"\0") for sep in seps))


def _cell_words(x: np.ndarray, seps: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Fill words (rows, columns, 3) with the cells of x (rows, columns),
    each column followed by its separator word from seps (see _layout);
    return the flat indices of the cells that "%.9g" filled.

    Word 0 holds the sign, the lead of 0.000ddd, d0 and the dot after d0;
    word 1 d1..d<split>, an interior dot, then the digits after it; word 2
    the ninth digit in byte 0, the exponent in bytes 1-4 and, in bytes
    5-7, the separator field: ',', '\\n', ',0,' or ',0\\n'. The kernel
    writes only two-digit exponents, so bytes 5 and 6 are NUL but for the
    separator. The longest cell, a negative "%.9g" with a three-digit
    exponent such as -1.23456789e-100, is 16 bytes, in words 0 and 1, and
    keeps word 2's separator field alone.
    """
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
    digits = _DIGITS_LO.take(hi) | _DIGITS_HI.take(lo)  # d1..d8 in bytes 0..7
    after = digits & _AFTER.take(at)
    sign_d0 = (x < 0) * _u(ord("-")) | (d0.view(np.uint64) | _u(ord("0"))) << _u(48)
    words[..., 0] = _WORD0.take(at) | sign_d0
    words[..., 1] = digits & _BEFORE.take(row) | _DOT.take(at) | after << _u(8)
    words[..., 2] = after >> _u(56) | _EXPONENT.take(row) | seps
    fallback = np.flatnonzero(~(safe | (a == 0.0)))
    if fallback.size:
        texts = ["%.9g" % v for v in x.ravel()[fallback].tolist()]
        cells = np.unravel_index(fallback, x.shape)
        words[cells + (slice(0, 2),)] = np.array(texts, dtype="S16").view("<u8").reshape(-1, 2)
        words[cells + (2,)] &= _u(0xFFFFFF << 40)  # the separator field alone
    return fallback


def write_float_table(header: str, columns: Sequence[np.ndarray], fh) -> None:
    """Write a header line, then one CSV row per index of the float64 columns.

    Cells read exactly as csv_num writes them: 9 significant digits,
    -0.0 as 0, infinities as inf/-inf; NaN raises ValueError before
    anything is written. The columns to format and their separators are
    found once per table (see _layout); each block of _CSV_BLOCK_ROWS
    rows of those columns is formatted by the numpy kernel of
    _cell_words, and a cell it cannot round safely by "%.9g" alone (see
    the module docstring).
    """
    if any(np.isnan(c).any() for c in columns):
        raise ValueError("NaN is not serializable")
    fh.write(header + "\n")
    formatted, seps = _layout([not c.any() for c in columns])
    columns = [columns[j] for j in formatted]
    words = np.empty((min(len(columns[0]), _CSV_BLOCK_ROWS), len(columns), 3), np.uint64)
    for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        hi = lo + _CSV_BLOCK_ROWS
        x = np.stack([c[lo:hi] for c in columns], axis=1)
        block = words[: len(x)]
        _cell_words(x, seps, block)
        fh.write(block.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii"))


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
