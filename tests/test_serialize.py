"""Serialization contract: digits, sign folding, and byte stability."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matteroptics import serialize
from matteroptics.serialize import ColumnTable, csv_num, json_dumps


class TestCsvNum:
    def test_nine_significant_digits(self):
        assert csv_num(0.12345678912345) == "0.123456789"
        assert csv_num(123456789123.0) == "1.23456789e+11"

    def test_zero_folding(self):
        assert csv_num(0.0) == "0"
        assert csv_num(-0.0) == "0"

    def test_infinities(self):
        assert csv_num(math.inf) == "inf"
        assert csv_num(-math.inf) == "-inf"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            csv_num(math.nan)

    def test_bools(self):
        assert csv_num(True) == "true"
        assert csv_num(False) == "false"

    def test_integers_as_floats(self):
        assert csv_num(3) == "3"
        assert csv_num(-17) == "-17"


class TestJsonDumps:
    def test_float_round_trips_exactly(self):
        for x in (1.0 / 3.0, 2.761e-05, 6.2956e-18, -123.456789012345678):
            assert float(json_dumps(x)) == x

    def test_zero_folding(self):
        assert json_dumps(-0.0) == "0"
        assert json_dumps({"a": -0.0}) == '{\n  "a": 0\n}'

    def test_infinity_as_string(self):
        assert json_dumps(math.inf) == '"inf"'
        assert json_dumps(-math.inf) == '"-inf"'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            json_dumps({"x": math.nan})

    def test_nesting_and_order(self):
        got = json_dumps({"b": [1, 2], "a": None, "ok": True})
        assert got == '{\n  "b": [\n    1,\n    2\n  ],\n  "a": null,\n  "ok": true\n}'

    def test_empty_containers(self):
        assert json_dumps({}) == "{}"
        assert json_dumps([]) == "[]"

    def test_string_escaping(self):
        assert json_dumps('say "hi"\n') == '"say \\"hi\\"\\n"'

    def test_unserializable_type(self):
        with pytest.raises(TypeError):
            json_dumps({"x": object()})

    def test_byte_stability(self):
        payload = {"values": [0.1, 0.2, 0.3], "name": "run", "n": 3}
        assert json_dumps(payload) == json_dumps(payload)


# The recursive per-value formatter that json_dumps was before it gained
# the row template, copied verbatim but for the two function names. Every
# input must give the same text, or the same error, through both.


def _reference_scalar(x) -> str:
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


def _reference_dumps(obj, _level: int = 0) -> str:
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
            f"{inner}{json.dumps(str(k))}: {_reference_dumps(v, _level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_reference_dumps(v, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _reference_scalar(obj)


def _outcome(dumps, obj):
    try:
        return dumps(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["t_s", "W", 'say "hi"', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f",
         "ünïcödé", "λ_L", "%s", "100%", "%%", "", " "]
    ),
)
# Dict keys of every type json_dumps takes. It quotes str() of each, so
# the equal keys True and 1 (or 1.0) must each keep their own text.
ANY_KEY = st.one_of(KEYS, st.integers(min_value=-3, max_value=3), st.booleans(), st.floats())
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPECIAL = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     math.inf, -math.inf, math.nan]
)
NOT_A_FLOAT = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.none(),
    FINITE.map(np.float64),
    SPECIAL.map(np.float64),
    st.tuples(FINITE, FINITE),
    st.text(max_size=3),
    st.sampled_from(['"', "\\", "\n", "\x1f", "é", "%"]),
    st.sampled_from([{}, [], (), [[]], {"e": {}}, ((),)]),
)


@st.composite
def documents(draw):
    """A list of flat float rows, one row possibly spoilt, at some depth."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    rows = [
        {k: draw(FINITE) for k in keys}
        for _ in range(draw(st.integers(min_value=1, max_value=30)))
    ]
    row = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
    key = draw(st.sampled_from(keys))
    spoil = draw(st.sampled_from(["none", "special", "other", "reorder", "missing", "extra"]))
    if spoil == "special":
        row[key] = draw(SPECIAL)
    elif spoil == "other":
        row[key] = draw(NOT_A_FLOAT)
    elif spoil == "reorder":
        value = row.pop(key)
        row[key] = value
    elif spoil == "missing":
        del row[key]
    elif spoil == "extra":
        row[draw(KEYS)] = draw(FINITE)
    doc = draw(st.sampled_from([list, tuple]))(rows)
    wraps = st.sampled_from(["list", "tuple", "dict", "empty"])
    for wrap in draw(st.lists(wraps, max_size=3)):
        if wrap == "list":
            doc = [doc, 1.5]
        elif wrap == "tuple":
            doc = (np.float64(draw(FINITE)), doc)
        elif wrap == "dict":
            doc = {draw(ANY_KEY): len(rows), draw(ANY_KEY): doc}
        else:
            doc = {"e": {}, "l": [[], ()], "doc": doc}
    return doc


def _table_rows(columns: dict) -> list:
    """The list of flat dicts that a ColumnTable of these columns stands for."""
    values = [np.asarray(c).tolist() for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


@st.composite
def tables(draw):
    """The columns of a ColumnTable: 0 to 30 rows of any float cells."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(min_value=0, max_value=30))
    cells = st.one_of(FINITE, FINITE, SPECIAL)
    return {k: np.array([draw(cells) for _ in range(n)], dtype=float) for k in keys}


class TestRowTemplateMatchesThePerValuePath:
    @settings(max_examples=400, deadline=None)
    @given(documents())
    def test_same_text_or_error(self, doc):
        assert _outcome(json_dumps, doc) == _outcome(_reference_dumps, doc)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(ANY_KEY, st.one_of(FINITE, SPECIAL, NOT_A_FLOAT), max_size=4))
    def test_dict_keys_quote_as_json_does(self, doc):
        assert _outcome(json_dumps, doc) == _outcome(_reference_dumps, doc)

    @pytest.mark.parametrize("first, second", [(1, True), (True, 1), (1.0, 1), (0, False)])
    def test_equal_keys_of_other_types_quote_as_their_own_text(self, first, second):
        # True == 1 and 1.0 == 1: each must keep its own str() in one process
        for key in (first, second, first):
            assert json_dumps({key: 0}) == _reference_dumps({key: 0}) == f'{{\n  "{key}": 0\n}}'

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_length(self, n):
        rows = [{"t_s": i * 0.02, "re_R": -0.0, "im_R": 1.0 / (i + 3), "W": -1.0} for i in range(n)]
        table = ColumnTable({k: np.array([row[k] for row in rows]) for k in rows[0]})
        want = _reference_dumps({"trajectory": rows})
        assert json_dumps({"trajectory": rows}) == json_dumps({"trajectory": table}) == want

    @settings(max_examples=300, deadline=None)
    @given(tables(), st.integers(min_value=0, max_value=2))
    def test_a_column_table_reads_as_its_rows(self, columns, depth):
        table, rows = ColumnTable(columns), _table_rows(columns)
        for _ in range(depth):
            table, rows = {"rows": table, "n": 1.5}, {"rows": rows, "n": 1.5}
        assert _outcome(json_dumps, table) == _outcome(_reference_dumps, rows)

    @pytest.mark.parametrize(
        "cell, text",
        [(-0.0, "0"), (math.inf, '"inf"'), (-math.inf, '"-inf"'), (math.nan, ValueError)],
    )
    def test_a_special_cell(self, cell, text):
        columns = {"t_s": np.array([0.5, 1.0]), "W": np.array([-1.0, cell])}
        want = _outcome(_reference_dumps, _table_rows(columns))
        assert _outcome(json_dumps, ColumnTable(columns)) == want
        if text is ValueError:
            assert want == (ValueError, "NaN is not serializable")
        else:
            assert want.endswith(f'"W": {text}\n  }}\n]')

    def test_zero_rows(self):
        table = ColumnTable({"t_s": np.array([]), "W": np.array([])})
        assert json_dumps({"trajectory": table}) == '{\n  "trajectory": []\n}'

    def test_a_finite_table_takes_the_template(self, monkeypatch):
        # the differential tests above would pass with no template at all
        columns = {"t_s": 0.5 * np.arange(5), "100%": np.full(5, -0.0)}
        want = _reference_dumps(_table_rows(columns))

        def per_value(x):
            raise AssertionError("cell formatted value by value")

        monkeypatch.setattr(serialize, "_json_scalar", per_value)
        monkeypatch.setitem(serialize._EXACT_SCALARS, float, per_value)
        assert json_dumps(ColumnTable(columns)) == want


def _per_cell_table(header: str, columns) -> str:
    # the cell-at-a-time writer write_float_table must match byte for byte
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return header + "\n" + "".join(",".join(map(csv_num, row)) + "\n" for row in rows)


# Finite doubles of any bit pattern, ±inf, and the cells at the kernel's
# edges: exact and near decimal ties, rounding up to 1e9, the switch from
# fixed to exponent notation, the ends of the once-scaled range [1e-14, 1e30);
# an interior dot with eight digits after d0, whose ninth byte is in the
# cell's last word; one cell at each decimal exponent the kernel takes; and
# the longest cells, a "%.9g" fallback with a three-digit exponent.
EDGES = [
    12345678.25, -0.09990234375, 999999999.5, 999999999.4, 9.9999999949e-5,
    9.99999999951e-5, 1e-4, 5e-324, 1.7976931348623157e308, 1e-14, 1e30,
    *np.nextafter([1e-14, 1e-14, 1e30, 1e30], [0.0, 1.0, 0.0, math.inf]).tolist(),
    12.3456789, -1234567.89,
    *(1.23456789 * 10.0**e for e in range(-15, 30)),
    -1.23456789e-100, -1e100,
]
CELLS = st.one_of(
    st.floats(allow_nan=False),
    st.integers(min_value=0, max_value=2**64 - 1)
    .map(lambda bits: float(np.uint64(bits).view(np.float64)))
    .filter(lambda x: not math.isnan(x)),
    st.sampled_from(EDGES + [-x for x in EDGES] + [0.0, -0.0, math.inf, -math.inf]),
)
# Rows of any cells, or rows with whole columns of ±0.0 at any position:
# first, last, alone, and in runs, which the writer folds every other one
# of into the separator before it.
ROWS = st.one_of(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=12)
    ),
    st.lists(st.booleans(), min_size=1, max_size=5).flatmap(
        lambda zero: st.lists(
            st.tuples(*(st.sampled_from([0.0, -0.0]) if z else CELLS for z in zero)).map(list),
            min_size=1, max_size=12,
        )
    ),
)


class TestFloatTable:
    @pytest.mark.parametrize("block_rows", [1, 5, 2048])
    @settings(max_examples=200, deadline=None)
    @given(ROWS)
    # a zero column alone, first, last, and in runs of two and three
    @example([[-0.0], [0.0]])
    @example([[0.0, 1.5, -0.0], [-0.0, -1e-120, 0.0]])
    @example([[1.5, -0.0, 0.0, 2.5, 0.0], [-1e-120, 0.0, 0.0, math.inf, -0.0]])
    @example([[1.5, -0.0, 0.0, -0.0, 2.5]])
    def test_same_bytes_as_per_cell_csv_num(self, block_rows, rows):
        columns = [np.array(c, dtype=float) for c in zip(*rows)] or [np.array([])]
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_CSV_BLOCK_ROWS", block_rows)
            serialize.write_float_table("a,b", columns, buf)
        assert buf.getvalue() == _per_cell_table("a,b", columns)

    def test_nan_is_refused_before_any_byte(self):
        columns = [np.arange(5000.0), np.ones(5000)]
        columns[1][4500] = math.nan  # in the third block
        buf = io.StringIO()
        with pytest.raises(ValueError, match="NaN is not serializable"):
            serialize.write_float_table("t,x", columns, buf)
        assert buf.getvalue() == ""

    def test_only_unsafe_cells_fall_back(self):
        # near a tie, near 1e8 or 1e9 after scaling, outside [1e-14, 1e30), or inf
        unsafe = [12345678.25, -0.09990234375, 999999999.5, 9.99999999e29, 100000000.4,
                  1e-4, 1e-14, 1e30, 9.9e-15, 1e300, 5e-324, math.inf, -math.inf]
        safe = [0.0, -0.0, 1.5e-14, 0.123456789, -1.5, 2.5e-5, 123456789.4, 9.9999999e29]
        x = np.array([unsafe + safe])
        _, seps = serialize._layout([False] * x.shape[1])
        fallback = serialize._cell_words(x, seps, np.empty(x.shape + (3,), np.uint64))
        assert fallback.tolist() == list(range(len(unsafe)))
        rng = np.random.default_rng(3)
        shape = (2048, 4)
        sign = rng.choice([-1.0, 1.0], shape)
        x = sign * rng.uniform(1.0, 9.9, shape) * 10.0 ** rng.integers(-14, 30, shape)
        _, seps = serialize._layout([False] * shape[1])
        assert serialize._cell_words(x, seps, np.empty(shape + (3,), np.uint64)).size == 0

    @pytest.mark.parametrize(
        "zero, formatted, row",
        [
            ([False, True], [0], "1,0"),
            ([True, True], [0], "0,0"),
            ([False, True, True], [0, 2], "1,0,0"),
            ([False, True, True, True, False], [0, 2, 4], "1,0,0,0,1"),
            ([True], [0], "0"),
        ],
    )
    def test_a_zero_column_after_a_formatted_one_is_folded(
        self, monkeypatch, zero, formatted, row
    ):
        # the bytes match with no fold at all; here the kernel is shown to
        # format only the columns the fold leaves, alternating along a run
        assert serialize._layout(zero)[0] == formatted
        widths = []
        real = serialize._cell_words

        def spy(x, seps, words):
            widths.append(x.shape[1])
            return real(x, seps, words)

        monkeypatch.setattr(serialize, "_cell_words", spy)
        columns = [np.full(3, -0.0 if z else 1.0) for z in zero]
        buf = io.StringIO()
        serialize.write_float_table("t", columns, buf)
        assert buf.getvalue() == "t\n" + (row + "\n") * 3
        assert widths == [len(formatted)]

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_the_longest_cells_in_every_column(self, width, fold):
        # 16 bytes and a separator: the most that a cell's three words hold;
        # with fold, a zero column follows, whose ",0," or ",0\n" the
        # "%.9g" fallback keeps in its separator field
        longest = [-1.23456789e-100, -1e100, -4.94065646e-324, 1.23456789e-100]
        for column in range(width):
            columns = [np.full(len(longest), 0.5) for _ in range(width)]
            columns[column] = np.array(longest)
            if fold and column + 1 < width:
                columns[column + 1] = np.full(len(longest), -0.0)
            buf = io.StringIO()
            serialize.write_float_table("t", columns, buf)
            assert buf.getvalue() == _per_cell_table("t", columns)
            assert max(map(len, buf.getvalue().replace("\n", ",").split(","))) == 16

    def test_peak_memory_of_a_snapshot(self):
        # a 2^16-row, 4-column table is a propagate snapshot; the text goes
        # to a sink that keeps none of it, so the peak is the writer's own
        rng = np.random.default_rng(1)
        columns = [rng.standard_normal(65536) * 10.0 ** rng.uniform(-6, 16) for _ in range(4)]

        class Sink:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            serialize.write_float_table("y_cm,re_psi,im_psi,density", columns, Sink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
