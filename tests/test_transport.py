"""Framing, parsing, serialization, and the wire round-trip property."""

from __future__ import annotations

import datetime as dt
import json
import math
import operator
from array import array
from unittest.mock import ANY

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantmcp.errors import (
    INVALID_PARAMS,
    InternalError,
    InvalidRequestError,
    ParseError,
    RATE_LIMITED,
)
from quantmcp import transport
from quantmcp.providers import CANONICAL_FIELDS, DataQuery, RawProviderPayload, SyntheticProvider, fetch_historical
from quantmcp.normalize import Records, apply_fill, normalize_payload
from quantmcp.security import CredentialStore, redact_message
from quantmcp.transport import (
    MISSING,
    NOTIFICATION,
    REQUEST,
    RESPONSE,
    ErrorObject,
    JsonRpcMessage,
    make_error,
    parse_message,
    round_floats,
    serialize_message,
)


def test_parse_simple_request():
    msg = parse_message('{"jsonrpc":"2.0","id":1,"method":"tools/list"}')
    assert msg.kind == REQUEST
    assert msg.id == 1
    assert msg.method == "tools/list"
    assert msg.params is MISSING


def test_round_trip_is_byte_identical_modulo_key_order():
    line = '{"jsonrpc":"2.0","id":1,"result":{}}'
    out = serialize_message(parse_message(line))
    assert json.loads(out) == json.loads(line)
    # canonical key order makes the actual bytes equal here too
    assert out == line + "\n"


def test_error_response_carries_code_on_the_wire():
    out = serialize_message(make_error(7, -32601, "method not found"))
    assert out.count("\n") == 1 and out.endswith("\n")
    assert '"code":-32601' in out


def test_non_ascii_payload_survives_round_trip():
    msg = JsonRpcMessage(RESPONSE, id=3, result={"name": "宁德时代 300750.SZ"})
    again = parse_message(serialize_message(msg))
    assert again.result["name"] == "宁德时代 300750.SZ"


def test_make_error_null_id_for_unparseable_requests():
    msg = make_error(None, -32700, "parse error")
    assert '"id":null' in serialize_message(msg)


def test_make_error_passes_data_verbatim():
    msg = make_error(9, RATE_LIMITED, "rate limited", {"retry_after_ms": 800})
    obj = json.loads(serialize_message(msg))
    assert obj["error"]["data"] == {"retry_after_ms": 800}


def test_make_error_rejects_codes_outside_taxonomy():
    with pytest.raises(InternalError):
        make_error(1, -31999, "bogus")


@pytest.mark.parametrize(
    "line",
    [
        "not json at all",
        "{",
        '"just a string"[]',
        "\udcff\udcfe\x00",  # the bytes ff fe 00 read with surrogateescape
        '\ufeff{"jsonrpc":"2.0","id":1,"method":"ping"}',  # a UTF-8 byte order mark, as json.loads refuses it
    ],
)
def test_malformed_text_is_a_parse_error(line):
    with pytest.raises(ParseError):
        parse_message(line)


@pytest.mark.parametrize(
    "constant",
    [
        "NaN",
        "Infinity",
        "-Infinity",
        pytest.param("1e999", id="overflowing-float"),
        pytest.param("-1e999", id="overflowing-negative-float"),
    ],
)
def test_non_finite_constants_are_a_parse_error(constant):
    line = '{"jsonrpc":"2.0","id":1,"method":"m","params":{"x":%s}}' % constant
    with pytest.raises(ParseError):
        parse_message(line)


@pytest.mark.parametrize(
    "line",
    [
        '{"jsonrpc":"2.0","id":1,"method":"m","params":{"x":%s}}' % ("1" * 4301),
        '{"jsonrpc":"2.0","id":1,"method":"m","params":{"x":-%s}}' % ("9" * 5000),
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["4301-digit-int", "5000-digit-negative-int", "nesting-past-the-recursion-limit"],
)
def test_too_many_digits_or_too_deep_nesting_is_a_parse_error(line):
    with pytest.raises(ParseError):
        parse_message(line)


@pytest.mark.parametrize(
    "line",
    [
        r'{"jsonrpc":"2.0","id":"\ud800","method":"initialize"}',
        r'{"jsonrpc":"2.0","id":1,"method":"m","params":{"\uDFFF":1}}',
        r'{"jsonrpc":"2.0","id":1,"method":"m","params":["\ud83d\u0041"]}',
        '{"jsonrpc":"2.0","id":"a\udcffb","method":"initialize"}',  # a 0xff byte read with surrogateescape
    ],
    ids=["escaped-high-in-id", "escaped-low-in-key", "high-before-a-non-low-escape", "raw-surrogate"],
)
def test_a_lone_surrogate_is_a_parse_error(line):
    with pytest.raises(ParseError, match="invalid Unicode"):
        parse_message(line)


def test_escaped_surrogate_pairs_and_escaped_backslashes_still_parse():
    msg = parse_message(r'{"jsonrpc":"2.0","id":"\ud83d\ude00","method":"m","params":["\\ud800"]}')
    assert msg.id == "\U0001f600"
    assert msg.params == ["\\ud800"]


def test_large_finite_numbers_still_parse():
    msg = parse_message('{"jsonrpc":"2.0","id":1,"method":"m","params":{"x":1e308,"y":%s}}' % ("9" * 400))
    assert msg.params == {"x": 1e308, "y": int("9" * 400)}


@pytest.mark.parametrize(
    "obj",
    [
        {"jsonrpc": "2.0", "id": 1},  # neither method nor result/error
        {"jsonrpc": "2.0", "id": 1, "result": {}, "error": {"code": -32603, "message": "x"}},
        {"jsonrpc": "1.0", "id": 1, "method": "m"},
        {"id": 1, "method": "m"},
        {"jsonrpc": "2.0", "id": 1.5, "method": "m"},
        {"jsonrpc": "2.0", "id": True, "method": "m"},
        {"jsonrpc": "2.0", "id": None, "method": "m"},  # requests need a non-null id
        {"jsonrpc": "2.0", "id": 1, "method": ""},
        {"jsonrpc": "2.0", "id": 1, "method": "m", "params": 5},
        {"jsonrpc": "2.0", "result": {}},  # response without id
        {"jsonrpc": "2.0", "id": 1, "error": {"message": "x"}},
        {"jsonrpc": "2.0", "id": 1, "error": {"code": -32603, "message": ""}},
        {"jsonrpc": "2.0", "id": 1.5, "result": {}},
        {"jsonrpc": "2.0", "id": 1, "error": "boom"},
    ],
)
def test_invalid_envelopes_are_rejected(obj):
    with pytest.raises(InvalidRequestError):
        parse_message(json.dumps(obj))


def test_json_array_is_not_a_valid_message():
    with pytest.raises(InvalidRequestError):
        parse_message("[1,2,3]")


def test_invalid_request_keeps_recoverable_id():
    try:
        parse_message('{"jsonrpc":"2.0","id":42,"result":1,"error":{"code":-32603,"message":"x"}}')
    except InvalidRequestError as exc:
        assert exc.request_id == 42
    else:
        raise AssertionError("expected InvalidRequestError")


def test_notification_has_no_id():
    msg = parse_message('{"jsonrpc":"2.0","method":"notifications/initialized"}')
    assert msg.kind == NOTIFICATION
    assert msg.id is None
    assert repr(msg) == (
        "JsonRpcMessage(kind='notification', id=None, method='notifications/initialized', "
        "params=<missing>, result=<missing>, error=None, extra={})"
    )


def test_a_message_compared_with_another_type_lets_that_type_decide():
    msg = parse_message('{"jsonrpc":"2.0","id":1,"result":{}}')
    assert msg != {"jsonrpc": "2.0", "id": 1, "result": {}}
    assert msg == ANY  # NotImplemented, so ANY.__eq__ answers


def test_unknown_envelope_fields_are_preserved():
    line = '{"jsonrpc":"2.0","id":4,"method":"tools/list","_trace":"abc"}'
    msg = parse_message(line)
    assert msg.extra == {"_trace": "abc"}
    assert json.loads(serialize_message(msg))["_trace"] == "abc"


def test_serialize_rejects_invariant_violations():
    with pytest.raises(InternalError):
        serialize_message(JsonRpcMessage(RESPONSE, id=1))  # neither result nor error
    with pytest.raises(InternalError):
        serialize_message(
            JsonRpcMessage(RESPONSE, id=1, result={}, error=ErrorObject(-32603, "x"))
        )
    with pytest.raises(InternalError):
        serialize_message(JsonRpcMessage(REQUEST, id=None, method="m"))
    with pytest.raises(InternalError):
        serialize_message(JsonRpcMessage(NOTIFICATION, id=1, method="m"))
    with pytest.raises(InternalError):  # make_error leaves an empty message to this check
        serialize_message(make_error(1, -32603, ""))
    # Each frame would not read back as the message: invalid, another kind, or a field lost.
    for msg in [
        JsonRpcMessage(RESPONSE, id=1, result={}, extra={"error": 5}),
        JsonRpcMessage(RESPONSE, id=1, result={}, extra={"method": "x"}),
        JsonRpcMessage(REQUEST, id=1, method="m", extra={"params": 3}),
        JsonRpcMessage(NOTIFICATION, method="m", extra={"id": 5}),
        JsonRpcMessage(RESPONSE, id=1, method="m", result={}),
        JsonRpcMessage(RESPONSE, id=1, params={}, result={}),
        JsonRpcMessage(REQUEST, id=1, method="m", result={}),
    ]:
        with pytest.raises(InternalError):
            serialize_message(msg)


def test_floats_are_emitted_with_at_most_six_decimals():
    msg = JsonRpcMessage(RESPONSE, id=1, result={"v": 0.1234567890123, "w": 180.50})
    obj = json.loads(serialize_message(msg))
    assert obj["result"]["v"] == 0.123457
    assert obj["result"]["w"] == 180.5


_emitted = st.recursive(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=-(2**63), max_value=2**64),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=400, deadline=None)
@given(_emitted)
@example(1e-07)
@example(5e-05)
@example(0.1234567)
@example(1.2345678e20)
@example(1e16)
@example(-0.0)
@example(5e-324)
@example("1e-05")
@example({"a": [1e-07, 0.5, "x"], "b": {"c": 0.1234567}})
def test_serialize_message_equals_rounding_every_float_first(obj):
    msg = JsonRpcMessage(RESPONSE, id=1, result=obj)
    envelope = {"jsonrpc": "2.0", "id": 1, "result": obj}
    expected = json.dumps(round_floats(envelope), ensure_ascii=False, allow_nan=False, separators=(",", ":"))
    for ch in "\x85\u2028\u2029":
        expected = expected.replace(ch, f"\\u{ord(ch):04x}")
    assert serialize_message(msg) == expected + "\n"


def test_round_floats_returns_each_leaf_but_a_float_itself():
    leaves = ["0.1234567", 10**30, True, None]
    rounded = round_floats([0.1234567, *leaves])
    assert rounded == [0.123457, *leaves] and all(map(operator.is_, rounded[1:], leaves))


@pytest.mark.parametrize("ch", ["\x85", "\u2028", "\u2029"])
def test_unicode_line_breaks_are_escaped_so_a_frame_stays_one_line(ch):
    result = {f"k{ch}": f"a{ch}b"}
    text = serialize_message(JsonRpcMessage(RESPONSE, id=1, result=result))
    assert ch not in text
    assert len(text.splitlines()) == 1
    assert json.loads(text)["result"] == result


def test_ten_thousand_records_fit_one_parseable_frame():
    config = SyntheticProvider(id="synth", seed=7)
    query = DataQuery(
        codes=[f"C{i:03d}.SZ" for i in range(40)],
        fields=["close"],
        start_date=dt.date(2023, 1, 2),
        end_date=dt.date(2023, 12, 17),
    )
    records = normalize_payload(fetch_historical(config, query, CredentialStore({})), query)
    assert len(records) == 10000
    msg = JsonRpcMessage(RESPONSE, id=9, result={"records": records})
    wire = serialize_message(msg)
    assert wire.count("\n") == 1 and wire.endswith("\n")
    assert len(parse_message(wire).result["records"]) == 10000


# --- pre-encoded records tables ---------------------------------------------------

_CODES = st.text(st.sampled_from('A9.Z"\\%\u2028\x85\x00宁é'), min_size=1, max_size=6)
_CELLS = st.one_of(
    st.none(),
    st.sampled_from([0, -0.0, 1e-07, 0.1234567, 2**53 + 1, -(2**60), 180.5, 1e16, 5e-324]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _tables(draw):
    """A filled records table: up to 3 codes (some left all null) x up to 3 fields x up to 10 days."""
    codes = draw(st.lists(_CODES, min_size=1, max_size=3, unique=True))
    fields = draw(st.lists(st.sampled_from(CANONICAL_FIELDS), min_size=1, max_size=3, unique=True))
    start = dt.date(2024, 1, 1) + dt.timedelta(days=draw(st.integers(0, 30)))
    query = DataQuery(codes, fields, start, start + dt.timedelta(days=draw(st.integers(0, 9))))
    n, rows = len(query.days), query.table()
    for code in draw(st.sets(st.sampled_from(codes))):
        rows[code] = [draw(st.lists(_CELLS, min_size=n, max_size=n)) for _ in fields]
    table = normalize_payload(RawProviderPayload("p", rows, "t"), query, dt.time(9, 30, 5))
    return apply_fill(table, draw(st.sampled_from(["Previous", "Blank"])))


def _history(records, id=1) -> JsonRpcMessage:
    content = {"records": records, "meta": {"row_count": len(records), "cache_hit": False}}
    return JsonRpcMessage(RESPONSE, id=id, result={"content": content, "is_error": False})


def _plain_frame(records, id=1) -> str:
    """The frame of ``records`` as plain dicts, built the way every frame was before splicing."""
    envelope = {"jsonrpc": "2.0", "id": id, "result": _history(list(records)).result}
    text = json.dumps(round_floats(envelope), ensure_ascii=False, allow_nan=False, separators=(",", ":"))
    for ch in "\x85\u2028\u2029":
        text = text.replace(ch, f"\\u{ord(ch):04x}")
    return text + "\n"


def _one_table(codes=("A\"%宁",)) -> object:
    query = DataQuery(list(codes), ["close", "turn"], dt.date(2024, 1, 1), dt.date(2024, 1, 3))
    rows = query.table()
    rows[codes[0]] = [[1e-07, None, 180.5], [0.1234567, -0.0, 2**60]]
    return normalize_payload(RawProviderPayload("p", rows, "t"), query)


def _array_table(value: float) -> object:
    """A table whose one code holds an all-float column with ``value`` and an all-int column, both arrays."""
    query = DataQuery(["A"], ["close", "volume"], dt.date(2024, 1, 1), dt.date(2024, 1, 3))
    rows = {"A": [[value, 180.5, value], [2**63 - 1, -(2**63), 0]]}
    table = normalize_payload(RawProviderPayload("p", rows, "t"), query)
    assert [col.typecode for col in table.columns[0]] == ["d", "q"]
    return table


class _UnwalkableRecords(Records):
    def __iter__(self):
        raise AssertionError("the table was walked")


# Ids that make the envelope text look as if it held a float to round.
_ROUNDING_IDS = st.one_of(st.just(1), st.text(st.sampled_from("e-.0123456789x"), max_size=12).map(lambda s: s + "e-"))


@settings(max_examples=150, deadline=None)
@given(_tables(), _ROUNDING_IDS)
@example(_one_table(), "3fa85f64-5717-4562-b3fe-2c963f66afa6")
@example(_array_table(1e-07), 1)
@example(_array_table(5e-324), 1)
@example(_array_table(1e16), 1)
@example(_array_table(0.1234567), 1)
@example(_array_table(-0.0), 1)
def test_a_spliced_records_frame_equals_the_frame_of_its_dicts_byte_for_byte(table, rid):
    unwalkable = _UnwalkableRecords(table.codes, table.days, table.suffix, table.fields, table.columns)
    assert serialize_message(_history(unwalkable, id=rid)) == _plain_frame(table, id=rid)
    assert serialize_message(_history(list(table), id=rid)) == _plain_frame(table, id=rid)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_an_array_column_holding_a_non_finite_float_is_refused_like_a_list_one(value):
    for column in (array("d", [1.5, value]), [1.5, value]):
        table = Records(("A",), ("2024-01-02", "2024-01-03"), " 15:00:00", ("close",), ((column,),))
        with pytest.raises(InternalError):
            serialize_message(_history(table))


@pytest.mark.parametrize("rid", [transport._PLACEHOLDER, "x" + transport._PLACEHOLDER, 5])
def test_an_id_holding_the_placeholder_falls_back_to_the_plain_walk(rid):
    table = _one_table()
    msg = _history(table, id=rid)
    msg.extra["note"] = transport._PLACEHOLDER if rid == 5 else "n"  # the placeholder elsewhere in the frame
    wire = serialize_message(msg)
    plain = serialize_message(JsonRpcMessage(RESPONSE, id=rid, result=_history(list(table)).result, extra=msg.extra))
    assert wire == plain
    assert parse_message(wire).id == rid and parse_message(wire).result["content"]["records"] == round_floats(table)


def test_a_loaded_secret_inside_a_code_is_redacted_from_the_spliced_frame():
    secret = "sk-in-a-code-0451"
    store = CredentialStore({"p": secret})
    table = _one_table(codes=(f"X{secret}\u2028",))
    spliced, plain = _history(table), _history(list(table))
    assert store.shows_in(serialize_message(spliced))
    redacted = serialize_message(redact_message(spliced, store))
    assert redacted == serialize_message(redact_message(plain, store))
    assert secret not in redacted
    records = parse_message(redacted).result["content"]["records"]
    assert [r["code"] for r in records] == ["X***REDACTED***\u2028"] * 3
    assert [r["code"] for r in table] == [f"X{secret}\u2028"] * 3  # redaction walked a copy


# --- generated messages -----------------------------------------------------

_ids = st.one_of(st.integers(min_value=-(2**31), max_value=2**31), st.text(max_size=20))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(lambda x: round(x, 6)),
    st.text(max_size=30),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)
_structured = st.one_of(
    st.lists(_values, max_size=4),
    st.dictionaries(st.text(max_size=10), _values, max_size=4),
)
_extras = st.dictionaries(
    st.text(min_size=1, max_size=12).filter(
        lambda k: k not in ("jsonrpc", "id", "method", "params", "result", "error")
    ),
    _values,
    max_size=3,
)
_methods = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz/_", min_size=1, max_size=20
)
_codes = st.sampled_from(
    [-32700, -32600, -32601, -32602, -32603, -32001, -32002, -32003]
)


@st.composite
def messages(draw) -> JsonRpcMessage:
    kind = draw(st.sampled_from([REQUEST, RESPONSE, NOTIFICATION]))
    params = draw(st.one_of(st.just(MISSING), _structured))
    if kind == REQUEST:
        return JsonRpcMessage(
            REQUEST, id=draw(_ids), method=draw(_methods), params=params, extra=draw(_extras)
        )
    if kind == NOTIFICATION:
        return JsonRpcMessage(NOTIFICATION, method=draw(_methods), params=params, extra=draw(_extras))
    rid = draw(st.one_of(st.none(), _ids))
    if draw(st.booleans()):
        error = ErrorObject(
            code=draw(_codes),
            message=draw(st.text(min_size=1, max_size=30)),
            data=draw(st.one_of(st.just(MISSING), _values)),
        )
        return JsonRpcMessage(RESPONSE, id=rid, error=error, extra=draw(_extras))
    return JsonRpcMessage(RESPONSE, id=rid, result=draw(_values), extra=draw(_extras))


@settings(max_examples=300, deadline=None)
@given(messages())
def test_parse_serialize_round_trip(msg):
    wire = serialize_message(msg)
    assert wire.count("\n") == 1 and wire.endswith("\n")
    assert parse_message(wire) == msg


_stray_extras = st.dictionaries(
    st.one_of(st.sampled_from(("jsonrpc", "id", "method", "params", "result", "error")), st.text(max_size=12)),
    _values,
    max_size=3,
)
_stray_fields = st.fixed_dictionaries(
    {}, optional={"method": _methods, "params": _structured, "result": _values}
)


@settings(max_examples=300, deadline=None)
@given(messages(), _stray_extras, _stray_fields)
def test_an_emitted_frame_reads_back_as_the_message_or_nothing_is_emitted(msg, extra, stray):
    fields = dict(id=msg.id, method=msg.method, params=msg.params, result=msg.result, error=msg.error)
    msg = JsonRpcMessage(msg.kind, extra=extra, **{**fields, **stray})
    try:
        wire = serialize_message(msg)
    except InternalError:
        return
    assert parse_message(wire) == msg
