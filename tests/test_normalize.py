"""Options grammar, record shaping, fill policy, and their invariants."""

from __future__ import annotations

import copy
import datetime as dt
import json
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_utils import backfill_oracle, day_columns_oracle, weekdays_oracle

from quantmcp.errors import InternalError, ValidationError
from quantmcp.normalize import (
    Records,
    apply_fill,
    normalize_payload,
    parse_options,
)
from quantmcp import providers
from quantmcp.providers import DataQuery, RawProviderPayload, SyntheticProvider, fetch_historical
from quantmcp.security import CredentialStore, redact_message
from quantmcp.transport import RESPONSE, JsonRpcMessage, serialize_message

CLOSE = dt.time(15, 0, 0)


def _payload(rows, provider_id="p") -> RawProviderPayload:
    """A payload of ``rows``, shaped ``{code: [one column per field]}``."""
    return RawProviderPayload(provider_id=provider_id, rows=rows, fetched_at="2024-06-01T00:00:00+00:00")


def _day_rows(rows, query) -> RawProviderPayload:
    """A payload of per-day ``rows``, ``{code: {date: {field: value}}}``, laid out as csv and http lay theirs."""
    days = weekdays_oracle(query.start_date, query.end_date)
    return _payload(day_columns_oracle(rows, query.codes, query.fields, days))


def _query(**overrides) -> DataQuery:
    base = dict(
        codes=["300750.SZ"],
        fields=["close"],
        start_date=dt.date(2024, 1, 1),
        end_date=dt.date(2024, 1, 5),
    )
    base.update(overrides)
    return DataQuery(**base)


def _values(record) -> dict:
    """A record's field values, without its code and timestamp."""
    return {k: v for k, v in record.items() if k not in ("code", "timestamp")}


# --- options grammar --------------------------------------------------------


def test_parse_options_standard_string():
    options = parse_options("PriceAdj=F;Fill=Previous")
    assert options == {"PriceAdj": "F", "Fill": "Previous"}
    with pytest.raises(TypeError):  # read-only: a query's options stay as parsed
        options["Fill"] = "Blank"


def test_parse_options_empty_string_is_empty_map():
    assert parse_options("") == {}


def test_parse_options_duplicate_key_is_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_options("Fill=Previous;Fill=Blank")


def test_parse_options_token_without_equals_names_the_token():
    with pytest.raises(ValidationError) as excinfo:
        parse_options("PriceAdj")
    assert excinfo.value.data["token"] == "PriceAdj"


def test_parse_options_trims_whitespace_and_skips_empty_tokens():
    options = parse_options("  PriceAdj = F ;; Fill=Blank ; ")
    assert options == {"PriceAdj": "F", "Fill": "Blank"}


def test_parse_options_rejects_unknown_value_for_recognized_key():
    with pytest.raises(ValidationError) as excinfo:
        parse_options("Fill=Forward")
    assert excinfo.value.data["allowed"] == ["Blank", "Previous"]


def test_parse_options_preserves_unrecognized_keys_in_order():
    options = parse_options("TradingCalendar=SSE;PriceAdj=N")
    assert list(options) == ["TradingCalendar", "PriceAdj"]
    assert options.get("TradingCalendar") == "SSE"


def test_parse_options_token_with_an_empty_key_names_the_token():
    with pytest.raises(ValidationError, match="empty key") as excinfo:
        parse_options("PriceAdj=F;=F")
    assert excinfo.value.data["token"] == "=F"


# --- normalize_payload ------------------------------------------------------


def test_q1_synthetic_payload_normalizes_to_65_records():
    config = SyntheticProvider(id="synth", seed=0)
    query = _query(
        fields=["close", "pb_lf", "turn"],
        start_date=dt.date(2024, 1, 1),
        end_date=dt.date(2024, 3, 31),
    )
    raw = fetch_historical(config, query, CredentialStore({}))
    records = normalize_payload(raw, query, CLOSE)
    assert len(records) == 65
    # the weekday calendar makes Monday 2024-01-01 the first trading day
    assert records[0]["timestamp"] == "2024-01-01 15:00:00"
    assert records[-1]["timestamp"] == "2024-03-29 15:00:00"


def test_weekend_only_range_yields_no_records():
    query = _query(start_date=dt.date(2024, 1, 6), end_date=dt.date(2024, 1, 7))
    assert normalize_payload(_payload(query.table()), query, CLOSE) == []


def test_missing_days_become_all_null_records():
    raw = _day_rows({"300750.SZ": {dt.date(2024, 1, 3): {"close": 9.0}}}, _query())
    assert raw.rows == {"300750.SZ": [[None, None, 9.0, None, None]]}
    records = normalize_payload(raw, _query(), CLOSE)
    assert len(records) == 5
    assert [r["close"] for r in records] == [None, None, 9.0, None, None]


def test_row_outside_the_range_is_a_contract_breach():
    # a value past the query's five days: the column is longer than the calendar
    raw = _payload({"300750.SZ": [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]})
    with pytest.raises(InternalError, match="contract"):
        normalize_payload(raw, _query(), CLOSE)


def test_row_before_the_range_is_a_contract_breach():
    # a column the calendar cannot place day by day: shorter than the query's five days
    raw = _payload({"300750.SZ": [[1.0, 1.0]]})
    with pytest.raises(InternalError, match="contract"):
        normalize_payload(raw, _query(), CLOSE)


def test_a_missing_field_is_a_contract_breach():
    raw = _payload({"300750.SZ": [[1.0] * 5]})
    with pytest.raises(InternalError, match="contract"):
        normalize_payload(raw, _query(fields=["close", "turn"]), CLOSE)


def test_a_missing_code_is_a_contract_breach():
    query = _query(codes=["300750.SZ", "600000.SH"])
    raw = _payload({"300750.SZ": [[1.0] * 5]})
    with pytest.raises(InternalError, match="contract"):
        normalize_payload(raw, query, CLOSE)


def test_rows_on_weekend_days_inside_the_range_are_ignored():
    query = _query(end_date=dt.date(2024, 1, 8))
    saturday, monday = dt.date(2024, 1, 6), dt.date(2024, 1, 8)
    raw = _day_rows({"300750.SZ": {saturday: {"close": 6.0}, monday: {"close": 8.0}}}, query)
    records = normalize_payload(raw, query, CLOSE)
    assert [r["timestamp"][:10] for r in records][-2:] == ["2024-01-05", "2024-01-08"]
    assert [r["close"] for r in records] == [None, None, None, None, None, 8.0]


def test_row_for_unrequested_code_is_a_contract_breach():
    raw = _payload({"300750.SZ": [[None] * 5], "999999.SZ": [[None, 1.0, None, None, None]]})
    with pytest.raises(InternalError):
        normalize_payload(raw, _query(), CLOSE)


def test_records_are_sorted_by_code_then_timestamp():
    query = _query(codes=["600000.SH", "300750.SZ"])
    records = normalize_payload(_payload(query.table()), query, CLOSE)
    keys = [(r["code"], r["timestamp"]) for r in records]
    assert keys == sorted(keys)
    assert records[0]["code"] == "300750.SZ"


def test_record_count_law_holds_regardless_of_gaps():
    query = _query(codes=["A", "B"], start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 14))
    raw = _day_rows({"A": {dt.date(2024, 1, 3): {"close": 2.0}}}, query)
    records = normalize_payload(raw, query, CLOSE)
    assert len(records) == 2 * 10


def test_close_time_is_stamped_from_config():
    query = _query(start_date=dt.date(2024, 1, 2), end_date=dt.date(2024, 1, 2))
    records = normalize_payload(_payload(query.table()), query, dt.time(16, 30, 0))
    assert records[0]["timestamp"] == "2024-01-02 16:30:00"


def test_every_stamp_is_the_iso_day_then_the_configured_close_time():
    query = _query(codes=["A", "B"], start_date=dt.date(2023, 12, 20), end_date=dt.date(2024, 3, 4))
    records = normalize_payload(_payload(query.table()), query, dt.time(9, 5, 7))
    days = [day.isoformat() + " 09:05:07" for day in weekdays_oracle(query.start_date, query.end_date)]
    assert len(days) == 54
    assert [r["timestamp"] for r in records] == days + days


def test_record_list_serializes_to_json_and_back():
    config = SyntheticProvider(id="synth", seed=5)
    query = _query(fields=["close", "volume"], end_date=dt.date(2024, 1, 9))
    raw = fetch_historical(config, query, CredentialStore({}))
    records = normalize_payload(raw, query, CLOSE)
    text = json.dumps(list(records))
    parsed = json.loads(text)
    assert parsed == records
    assert json.loads(records.json_text()) == records


# --- apply_fill ---------------------------------------------------------------


def _table(columns_by_code, fields=("close",)) -> Records:
    """A table of ``{code: [one column per field]}`` over the first weekdays of 2024, codes sorted."""
    n = len(next(iter(columns_by_code.values()))[0])
    days, day = [], dt.date(2024, 1, 1)
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day.isoformat())
        day += dt.timedelta(days=1)
    codes = tuple(sorted(columns_by_code))
    return Records(codes, tuple(days), " 15:00:00", tuple(fields), tuple(tuple(columns_by_code[c]) for c in codes))


def _series(values, code="A") -> Records:
    return _table({code: [values]})


_GAPPY_CELLS = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _gappy_tables(draw, max_cells):
    """A table of 1-3 codes x 1-3 fields, each cell null or a float; a wider table spans fewer days."""
    n_codes = draw(st.integers(1, 3))
    fields = draw(st.lists(st.sampled_from(providers.CANONICAL_FIELDS), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, max_cells // (n_codes * len(fields))))
    columns = {f"C{i}": [draw(st.lists(_GAPPY_CELLS, min_size=n, max_size=n)) for _ in fields]
               for i in range(n_codes)}
    return _table(columns, fields)


def test_previous_fill_carries_last_observation_forward():
    filled = apply_fill(_series([100.0, None, None, 101.0]), "Previous")
    assert [r["close"] for r in filled] == [100.0, 100.0, 100.0, 101.0]


def test_previous_fill_leaves_leading_nulls():
    filled = apply_fill(_series([None, None]), "Previous")
    assert [r["close"] for r in filled] == [None, None]


def test_blank_fill_is_identity():
    records = _series([None, 5.0, None])
    assert apply_fill(records, "Blank") == records


def test_fill_does_not_leak_across_codes():
    records = _table({"A": [[7.0, None]], "B": [[None, 3.0]]})
    filled = apply_fill(records, "Previous")
    assert [r["close"] for r in filled] == [7.0, 7.0, None, 3.0]


def test_fill_copies_only_the_records_it_fills_and_never_mutates_its_input():
    records = _series([1.0, None, 2.0, None])
    snapshot = copy.deepcopy(list(records))
    before = records.columns[0][0]
    filled = apply_fill(records, "Previous")
    assert [r["close"] for r in filled] == [1.0, 1.0, 2.0, 2.0]
    assert list(records) == snapshot and records.columns[0][0] is before
    assert filled.columns[0][0] is not before
    assert apply_fill(records, "Blank") is records
    # only a column holding a null is rebuilt; the input table and its columns stay as they were
    query = _query(codes=["A", "B"], fields=["close", "turn"])
    gappy, whole = [None, 1.0, None, 2.0, None], [1.0, 2.0, 3.0, 4.0, 5.0]
    rows = query.table()
    rows["A"] = [gappy, whole]
    table = normalize_payload(_payload(rows), query, CLOSE)
    snapshot = copy.deepcopy(list(table))
    out = apply_fill(table, "Previous")
    assert [list(map(list, cols)) for cols in out.columns] == [[[None, 1.0, 1.0, 2.0, 2.0], whole], [[None] * 5] * 2]
    assert out.columns[0][1] is table.columns[0][1] and out.columns[0][0] is not gappy
    assert list(table) == snapshot and table.columns[0][0] is gappy and gappy == [None, 1.0, None, 2.0, None]
    assert apply_fill(table, "Blank") is table


def test_each_column_fills_on_its_own():
    records = _table({"A": [[1.0, None, None], [None, 2.0, None]]}, fields=("close", "turn"))
    filled = apply_fill(records, "Previous")
    assert [_values(r) for r in filled] == [
        {"close": 1.0, "turn": None},
        {"close": 1.0, "turn": 2.0},
        {"close": 1.0, "turn": 2.0},
    ]


@settings(max_examples=200, deadline=None)
@given(_gappy_tables(max_cells=40))
def test_previous_fill_matches_the_backward_scan_oracle(table):
    filled = apply_fill(table, "Previous")
    for i, f in enumerate(table.fields):
        assert [r[f] for r in filled] == [v for cols in table.columns for v in backfill_oracle(cols[i])]


@settings(max_examples=100, deadline=None)
@given(st.lists(_GAPPY_CELLS, max_size=30))
def test_previous_fill_is_idempotent_and_preserves_non_nulls(values):
    records = _series(values)
    once = apply_fill(records, "Previous")
    twice = apply_fill(once, "Previous")
    assert twice == once
    for before, after in zip(records, once):
        if before["close"] is not None:
            assert after["close"] == before["close"]
        assert after["timestamp"] == before["timestamp"]


# --- compact columns --------------------------------------------------------

_SECRET = "sk-code-0451"
_STORE = CredentialStore({"p": _SECRET})
_FLOATS = st.one_of(
    st.sampled_from([1e-07, 0.1234567, -0.0, 5e-324, 1e16, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_INTS = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, 2**63, 10**30]), st.integers(-(2**63), 2**63 - 1))
_COLUMN_CELLS = [_FLOATS, _INTS, st.one_of(_FLOATS, _INTS)]


@st.composite
def _provider_columns(draw, n):
    """``n`` floats, ints or a mix of both, maybe with a null first, in the middle or last."""
    column = draw(st.lists(draw(st.sampled_from(_COLUMN_CELLS)), min_size=n, max_size=n))
    for i in draw(st.sets(st.sampled_from([0, n // 2, n - 1]))):
        column[i] = None
    return column


def _compact_and_list(rows, query: DataQuery) -> tuple[Records, Records]:
    """The provider payload ``rows`` normalized, and the same table built over the provider's own lists."""
    compact = normalize_payload(_payload(rows), query, CLOSE)
    plain = Records(compact.codes, compact.days, compact.suffix, compact.fields,
                    tuple(tuple(rows[code]) for code in compact.codes))
    return compact, plain


@st.composite
def _compact_and_list_tables(draw):
    codes = draw(st.lists(st.sampled_from(["B", f"A{_SECRET}"]), min_size=1, max_size=2, unique=True))
    fields = draw(st.lists(st.sampled_from(providers.CANONICAL_FIELDS), min_size=2, max_size=3, unique=True))
    query = DataQuery(codes, fields, dt.date(2024, 1, 1), dt.date(2024, 1, draw(st.integers(1, 10))))
    n = len(query.days)
    return _compact_and_list({code: [draw(_provider_columns(n)) for _ in fields] for code in codes}, query)


# Every edge value at once, over the five weekdays 2024-01-01..05: one column per kind of storage.
_EDGE_COLUMNS = {
    "close": [1e-07, 0.1234567, -0.0, 5e-324, 1.7976931348623157e308],  # d
    "volume": [-(2**63), 2**63 - 1, 0, 100, 1],  # q
    "high": [2**63, 1, 2, 3, 10**30],  # list: beyond 64 bits
    "low": [100, 100.0, 1e16, 7, 0.5],  # list: mixed
    "turn": [None, 1.0, None, 2, None],  # list, and still one once filled
    "open": [1.5, None, 2.5, 3.5, None],  # list, d once filled
}
_EDGE_TABLES = _compact_and_list(
    {code: list(_EDGE_COLUMNS.values()) for code in ("B", f"A{_SECRET}")},
    DataQuery(["B", f"A{_SECRET}"], list(_EDGE_COLUMNS), dt.date(2024, 1, 1), dt.date(2024, 1, 5)),
)


def _storage(column) -> str:
    """How the type rule stores ``column``: "d" for floats, "q" for ints within 64 bits, else "list"."""
    if all(type(v) is float for v in column):
        return "d"
    if all(type(v) is int and -(2**63) <= v < 2**63 for v in column):
        return "q"
    return "list"


def _stored(table: Records) -> list[list[str]]:
    return [[col.typecode if isinstance(col, array) else type(col).__name__ for col in cols] for cols in table.columns]


def _frames(table: Records) -> tuple[str, str]:
    """The answer frame under an id holding ``e-``, and the same frame with the loaded secret redacted."""
    content = {"records": table, "meta": {"row_count": len(table), "cache_hit": False}}
    msg = JsonRpcMessage(RESPONSE, id="3e-7", result={"content": content, "isError": False})
    return serialize_message(msg), serialize_message(redact_message(msg, _STORE))


@settings(max_examples=40, deadline=None)
@given(_compact_and_list_tables())
@example(_EDGE_TABLES)
def test_a_compact_table_reads_and_serializes_as_its_list_columns_do(tables):
    compact, plain = tables
    assert _stored(compact) == [[_storage(col) for col in cols] for cols in plain.columns]
    assert compact.json_text() == plain.json_text()
    assert _frames(compact) == _frames(plain)
    assert repr(list(compact)) == repr(list(plain))  # repr tells 100 from 100.0 and -0.0 from 0.0
    for name in (*compact.fields, "absent"):
        assert repr(list(compact.column(name))) == repr(list(plain.column(name)))
    for policy in ("Previous", "Blank"):
        filled, plain_filled = apply_fill(compact, policy), apply_fill(plain, policy)
        assert _stored(filled) == [[_storage(col) for col in cols] for cols in plain_filled.columns]
        assert filled.json_text() == plain_filled.json_text()
        assert repr(list(filled)) == repr(list(plain_filled))
    fields = compact.fields[::-1]
    assert _frames(compact.reordered(fields)) == _frames(plain.reordered(fields))
    assert repr(list(compact.reordered(fields))) == repr(list(plain.reordered(fields)))


def test_the_edge_columns_are_stored_by_the_type_rule():
    compact, _ = _EDGE_TABLES
    assert _stored(compact) == [["d", "q", "list", "list", "list", "list"]] * 2
    assert _stored(apply_fill(compact, "Previous")) == [["d", "q", "list", "list", "list", "d"]] * 2
