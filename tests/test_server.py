"""Lifecycle, dispatch routing, stdio framing behavior, and concurrency."""

from __future__ import annotations

import io
import json
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import initialize, make_ctx

import quantmcp.server as server_module
from quantmcp.errors import InternalError, ValidationError
from quantmcp.providers import CsvProvider, HttpProvider, RateSpec, SyntheticProvider
from quantmcp.registry import ParamSpec, ToolDescriptor, ToolRegistry
from quantmcp.security import CredentialStore, redact, redact_message
from quantmcp.server import Dispatcher, StdioServer
from quantmcp.tools import ToolResult, build_registry
from quantmcp.transport import (
    NOTIFICATION,
    REQUEST,
    RESPONSE,
    JsonRpcMessage,
    make_error,
    parse_message,
    serialize_message,
)

Q1_CALL_PARAMS = {
    "name": "tool_get_historical_data",
    "arguments": {
        "codes": ["300750.SZ"],
        "fields": ["close", "pb_lf", "turn"],
        "start_date": "2024-01-01",
        "end_date": "2024-03-31",
        "options": "PriceAdj=F;Fill=Previous",
    },
}


def _req(id, method, params=None) -> JsonRpcMessage:
    msg = JsonRpcMessage(REQUEST, id=id, method=method)
    if params is not None:
        msg.params = params
    return msg


# --- lifecycle ---------------------------------------------------------------


def test_tools_requests_are_rejected_before_initialize(dispatcher):
    for method in ("tools/list", "tools/call"):
        response = dispatcher.dispatch(_req(1, method, {"name": "x", "arguments": {}}))
        assert response.error.code == -32600
        assert "initialize" in response.error.message


def test_initialize_reports_protocol_version_and_capabilities(dispatcher):
    response = dispatcher.dispatch(
        _req(1, "initialize", {"clientInfo": {"name": "replay-harness", "version": "1"}})
    )
    result = response.result
    assert result["protocolVersion"]
    assert result["serverInfo"]["name"] == "quantmcp"
    assert "tools" in result["capabilities"]


def test_double_initialize_is_an_invalid_request(dispatcher):
    dispatcher.dispatch(_req(1, "initialize"))
    response = dispatcher.dispatch(_req(2, "initialize"))
    assert response.error.code == -32600


def test_client_info_is_recorded_and_logged(ctx):
    lines: list[str] = []
    dispatcher = Dispatcher(build_registry(), ctx, log=lines.append)
    dispatcher.dispatch(_req(1, "initialize", {"clientInfo": {"name": "replay-harness"}}))
    assert dispatcher.session_info["name"] == "replay-harness"
    assert any("replay-harness" in line for line in lines)


def test_unknown_method_is_method_not_found(live_dispatcher):
    response = live_dispatcher.dispatch(_req(3, "prompts/list"))
    assert response.error.code == -32601
    assert response.error.data == {"method": "prompts/list"}


def test_notifications_produce_no_response(live_dispatcher):
    note = JsonRpcMessage(NOTIFICATION, method="notifications/initialized")
    assert live_dispatcher.dispatch(note) is None


def test_inbound_responses_are_ignored(live_dispatcher):
    from quantmcp.transport import RESPONSE

    assert live_dispatcher.dispatch(JsonRpcMessage(RESPONSE, id=1, result={})) is None


def test_response_ids_always_match_request_ids(live_dispatcher):
    for rid in (7, "alpha", 0, "z-9"):
        response = live_dispatcher.dispatch(_req(rid, "tools/list"))
        assert response.id == rid


# --- tools/list ----------------------------------------------------------------


def test_manifest_lists_every_registered_tool_once(live_dispatcher):
    result = live_dispatcher.dispatch(_req(1, "tools/list")).result
    names = [t["name"] for t in result["tools"]]
    assert names == ["tool_get_historical_data", "tool_get_quote", "tool_compute_summary"]
    assert len(set(names)) == len(names)


def test_empty_registry_lists_no_tools(ctx):
    dispatcher = Dispatcher(ToolRegistry(), ctx)
    initialize(dispatcher)
    assert dispatcher.dispatch(_req(1, "tools/list")).result["tools"] == []


def test_manifest_entries_match_the_documented_meta_shape(live_dispatcher):
    """Validate every emitted schema with an independent JSON Schema oracle."""
    jsonschema = pytest.importorskip("jsonschema")
    meta_schema = {
        "type": "object",
        "required": ["name", "description", "inputSchema"],
        "additionalProperties": False,
        "properties": {
            "name": {"type": "string", "pattern": "^[a-z0-9_]+$"},
            "description": {"type": "string", "minLength": 1},
            "inputSchema": {
                "type": "object",
                "required": ["type", "properties", "required"],
                "properties": {
                    "type": {"const": "object"},
                    "required": {"type": "array", "items": {"type": "string"}},
                    "properties": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["type", "description"],
                            "properties": {
                                "type": {
                                    "enum": ["string", "number", "integer", "boolean", "array", "object"]
                                },
                                "description": {"type": "string", "minLength": 1},
                            },
                        },
                    },
                },
            },
        },
    }
    manifest = live_dispatcher.dispatch(_req(1, "tools/list")).result["tools"]
    for entry in manifest:
        jsonschema.validate(entry, meta_schema)
        schema = entry["inputSchema"]
        assert set(schema["required"]) <= set(schema["properties"])


# --- tools/call ------------------------------------------------------------------


def test_call_after_initialize_returns_a_tool_result(live_dispatcher):
    response = live_dispatcher.dispatch(_req(2, "tools/call", Q1_CALL_PARAMS))
    assert response.error is None
    assert response.result["is_error"] is False
    assert len(response.result["content"]["records"]) == 65


def test_unknown_tool_is_invalid_params_with_tool_name(live_dispatcher):
    response = live_dispatcher.dispatch(
        _req(2, "tools/call", {"name": "tool_get_wind_historical_data", "arguments": {}})
    )
    assert response.error.code == -32602
    assert response.error.data["tool"] == "tool_get_wind_historical_data"


def test_missing_required_argument_names_it(live_dispatcher):
    params = {"name": "tool_get_historical_data", "arguments": {"fields": ["close"]}}
    response = live_dispatcher.dispatch(_req(2, "tools/call", params))
    assert response.error.code == -32602
    violations = response.error.data["violations"]
    assert any(v.startswith("codes:") for v in violations)


def test_malformed_call_params_are_invalid_params(live_dispatcher):
    for params in (None, {"arguments": {}}, {"name": 7, "arguments": {}}):
        msg = _req(2, "tools/call", params) if params is not None else _req(2, "tools/call")
        response = live_dispatcher.dispatch(msg)
        assert response.error.code == -32602


def test_crashing_handler_maps_to_internal_error(ctx):
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(name="boom", description="crashes", params={}),
        lambda args, ctx: 1 / 0,
    )
    dispatcher = Dispatcher(registry, ctx)
    initialize(dispatcher)
    response = dispatcher.dispatch(_req(5, "tools/call", {"name": "boom", "arguments": {}}))
    assert response.error.code == -32603


def test_provider_failure_is_not_a_protocol_error():
    http = HttpProvider(
        id="alpha",
        base_url_template="http://127.0.0.1:9/q?code={code}",
        timeout_ms=300,
        rate=RateSpec(1000, 1000.0),
    )
    dispatcher = Dispatcher(build_registry(), make_ctx(providers={"alpha": http}))
    initialize(dispatcher)
    response = dispatcher.dispatch(_req(2, "tools/call", Q1_CALL_PARAMS))
    assert response.error is None
    assert response.result["is_error"] is True
    assert response.result["content"]["error_kind"] == "provider_failure"


def test_rate_limited_call_maps_to_32002():
    synth = SyntheticProvider(id="synth", rate=RateSpec(capacity=1, refill_per_sec=1.0))
    dispatcher = Dispatcher(build_registry(), make_ctx(providers={"synth": synth}))
    initialize(dispatcher)
    dispatcher.dispatch(_req(1, "tools/call", Q1_CALL_PARAMS))
    other = {
        "name": "tool_get_historical_data",
        "arguments": dict(Q1_CALL_PARAMS["arguments"], end_date="2024-02-29"),
    }
    response = dispatcher.dispatch(_req(2, "tools/call", other))
    assert response.error.code == -32002
    assert response.error.data["retry_after_ms"] > 0


def test_a_cached_small_miss_keeps_under_4000_bytes(live_dispatcher):
    """Each distinct 1-code, 1-quarter, 3-field miss leaves one cache entry; it and all it holds stay small."""

    def call(i: int, code: str) -> None:
        arguments = {"codes": [code], "fields": ["open", "close", "volume"],
                     "start_date": "2024-01-01", "end_date": "2024-03-31"}
        response = live_dispatcher.dispatch(_req(i, "tools/call", {"name": "tool_get_historical_data",
                                                                   "arguments": arguments}))
        assert response.result["content"]["meta"]["row_count"] == 65
        serialize_message(response)

    tracemalloc.start()
    try:
        for i in range(20):  # the calendar and the synthetic tables are built once, before the count
            call(i, f"{700000 + i}.SH")
        before = tracemalloc.get_traced_memory()[0]
        for i in range(300):
            call(i, f"{600000 + i}.SH")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(live_dispatcher.ctx.cache._entries) == 320
    assert kept / 300 < 4000


# --- stdio loop -------------------------------------------------------------------


def _run_session(lines: list[str], ctx=None, concurrency: int = 0) -> list[dict]:
    dispatcher = Dispatcher(build_registry(), ctx or make_ctx())
    out = io.StringIO()
    server = StdioServer(dispatcher, io.StringIO("".join(l + "\n" for l in lines)), out, concurrency)
    assert server.run() == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _session_lines() -> list[str]:
    return [
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {"clientInfo": {"name": "t"}}}),
        json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/list"}),
        json.dumps({"jsonrpc": "2.0", "id": 3, "method": "tools/call", "params": Q1_CALL_PARAMS}),
    ]


def test_full_session_over_stdio():
    frames = _run_session(_session_lines())
    assert [f["id"] for f in frames] == [1, 2, 3]
    assert len(frames[2]["result"]["content"]["records"]) == 65


def test_ping_is_answered_with_an_empty_result_before_and_after_initialize():
    ping = '{"jsonrpc":"2.0","id":%s,"method":"ping"}'
    out = io.StringIO()
    lines = [ping % 1, _session_lines()[0], ping % '"p"']
    StdioServer(Dispatcher(build_registry(), make_ctx()), io.StringIO("\n".join(lines) + "\n"), out).run()
    first, _, last = out.getvalue().splitlines()
    assert (first, last) == ('{"jsonrpc":"2.0","id":1,"result":{}}', '{"jsonrpc":"2.0","id":"p","result":{}}')


class _InterruptedAtEnd(io.StringIO):
    """An input stream that raises KeyboardInterrupt where it would end, as a Ctrl-C during a read does."""

    def readline(self, limit: int | None = -1) -> str:
        line = super().readline(limit)
        if not line:
            raise KeyboardInterrupt
        return line


def test_an_interrupt_during_a_read_ends_the_session_as_end_of_input_does():
    events: list[str] = []
    out = io.StringIO()
    dispatcher = Dispatcher(build_registry(), make_ctx(), log=events.append)
    assert StdioServer(dispatcher, _InterruptedAtEnd(_session_lines()[0] + "\n"), out).run() == 0
    assert json.loads(out.getvalue())["id"] == 1
    assert [json.loads(e)["event"] for e in events] == ["initialize", "shutdown"]


def test_garbage_input_yields_parse_error_and_the_server_survives():
    lines = ["{nonsense", _session_lines()[0], "more garbage }{", _session_lines()[1]]
    frames = _run_session(lines)
    assert frames[0]["error"]["code"] == -32700
    assert frames[0]["id"] is None
    assert frames[1]["id"] == 1
    assert frames[2]["error"]["code"] == -32700
    assert frames[3]["id"] == 2


def _summary_call_holding(number: str) -> str:
    summary = {
        "name": "tool_compute_summary",
        "arguments": {"records": [{"code": "A", "timestamp": "t", "close": 1.0}], "summarize_fields": ["close"]},
    }
    call = json.dumps({"jsonrpc": "2.0", "id": 7, "method": "tools/call", "params": summary})
    return call.replace("1.0", number)


def test_non_finite_number_yields_parse_error_and_the_server_survives():
    lines = [_session_lines()[0], _summary_call_holding("NaN"), _session_lines()[1]]
    frames = _run_session(lines)
    assert frames[1]["error"]["code"] == -32700
    assert frames[1]["id"] is None
    assert frames[2]["id"] == 2


@pytest.mark.parametrize("number", ["1e999", "7" * 5000], ids=["overflowing-float", "5000-digit-int"])
def test_unholdable_number_yields_parse_error_and_the_server_survives(number):
    frames = _run_session([_session_lines()[0], _summary_call_holding(number), _session_lines()[1]])
    assert frames[1]["error"]["code"] == -32700
    assert frames[1]["id"] is None
    assert frames[2]["id"] == 2


def test_lone_surrogate_yields_parse_error_and_the_server_survives():
    lone = r'{"jsonrpc":"2.0","id":"\ud800","method":"initialize"}'
    frames = _run_session([lone, _session_lines()[0]])
    assert frames[0]["error"]["code"] == -32700
    assert frames[0]["id"] is None
    assert frames[1]["id"] == 1 and "result" in frames[1]


@pytest.mark.parametrize("concurrency", [0, 2])
def test_an_answer_holding_a_lone_surrogate_is_answered_32603_and_the_next_request_still_is(ctx, concurrency):
    """No UTF-8 frame can carry a lone surrogate, so the answer is replaced and logged, not written or raised."""
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(name="surrogate", description="answers a lone surrogate", params={}),
        lambda args, _ctx: ToolResult(content={"text": "a\udc80b"}),
    )
    log: list[str] = []
    lines = [
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize"}),
        json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/call", "params": {"name": "surrogate"}}),
        json.dumps({"jsonrpc": "2.0", "id": 3, "method": "tools/list"}),
    ]
    out = io.StringIO()
    server = StdioServer(Dispatcher(registry, ctx, log=log.append), io.StringIO("".join(l + "\n" for l in lines)), out,
                         concurrency)
    assert server.run() == 0
    frames = {frame["id"]: frame for frame in map(json.loads, out.getvalue().encode("utf-8").splitlines())}
    assert frames[2] == {"jsonrpc": "2.0", "id": 2, "error": {"code": -32603, "message": "internal error"}}
    assert [tool["name"] for tool in frames[3]["result"]["tools"]] == ["surrogate"]
    events = [json.loads(line) for line in log]
    unserializable = [event for event in events if event["event"] == "unserializable_response"]
    assert len(unserializable) == 1 and "surrogates not allowed" in unserializable[0]["detail"]


_LINE_PIECES = st.one_of(
    st.text(max_size=6),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    st.sampled_from(["\\ud800", "\\uDFFF", "\\ud83d\\ude00", "\\\\", '"', "{", "}", "[", ",", ":", "1e999"]),
)
_LINE_TEMPLATES = [
    "{}",
    '{{"jsonrpc":"2.0","id":"{}","method":"initialize"}}',
    '{{"jsonrpc":"2.0","id":1,"method":"{}"}}',
    '{{"jsonrpc":"2.0","id":1,"method":"initialize","params":{{"clientInfo":{{"name":"{}"}}}}}}',
    '{{"jsonrpc":"2.0","id":1,"method":"tools/call","params":{{"name":"{}","arguments":{{}}}}}}',
    '{{"jsonrpc":"2.0","id":1,"method":"tools/call","params":{{"name":"tool_get_historical_data",'
    '"arguments":{{"codes":["{}"],"fields":["close"],"start_date":"2024-01-01","end_date":"2024-01-05"}}}}}}',
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_LINE_TEMPLATES),
    st.lists(_LINE_PIECES, max_size=5).map("".join),
    st.booleans(),
)
def test_no_line_makes_the_server_raise_or_emit_a_non_utf8_frame(template, piece, initialized_first):
    dispatcher = Dispatcher(build_registry(), make_ctx())
    out = io.StringIO()
    server = StdioServer(dispatcher, io.StringIO(), out)
    if initialized_first:
        server.handle_line('{"jsonrpc":"2.0","id":0,"method":"initialize"}')
    server.handle_line(template.format(piece))
    server.handle_line('{"jsonrpc":"2.0","id":"probe","method":"initialize"}')
    frames = [json.loads(line.encode("utf-8")) for line in out.getvalue().splitlines()]
    assert frames[-1]["id"] == "probe"


def test_invalid_envelope_answers_32600_with_recovered_id():
    lines = [json.dumps({"jsonrpc": "2.0", "id": 9, "result": 1, "error": {"code": -32603, "message": "x"}})]
    frames = _run_session(lines)
    assert frames[0]["error"]["code"] == -32600
    assert frames[0]["id"] == 9


def test_blank_lines_are_skipped():
    # only JSON's whitespace is blank: a line of any other space, or padded with one, is malformed JSON
    lines = ["", "   ", " \t\r", "\x1c", "\xa0" + _session_lines()[0] + "\x0b", _session_lines()[0]]
    frames = _run_session(lines)
    assert [(f["id"], f.get("error", {}).get("code")) for f in frames] == [(None, -32700)] * 2 + [(1, None)]


class _CappedReads:
    """An input stream over ``text`` that records the limit of each ``readline`` call."""

    def __init__(self, text: str):
        self.text, self.pos, self.limits = text, 0, []

    def readline(self, limit: int | None = -1) -> str:
        self.limits.append(limit)
        end = self.text.find("\n", self.pos) + 1 or len(self.text)
        if limit is not None and limit >= 0:
            end = min(end, self.pos + limit)
        line, self.pos = self.text[self.pos:end], end
        return line


def _line_of(chars: int, id: int) -> str:
    """A valid tools/list request padded to ``chars`` characters, its newline counted."""
    head, tail = '{"jsonrpc":"2.0","id":%d,"method":"tools/list","params":{"pad":"' % id, '"}}\n'
    return head + "x" * (chars - len(head) - len(tail)) + tail


@pytest.mark.parametrize("concurrency", [0, 2])
def test_a_line_over_the_cap_is_answered_32600_and_the_next_request_still_is(concurrency):
    cap = server_module.MAX_LINE_CHARS
    session = _session_lines()
    # one character over the cap, then one whose rest would be a line of its own if it were not dropped
    stream = _CappedReads(session[0] + "\n" + _line_of(cap + 1, 2) + _line_of(cap + 99, 5)
                          + session[2] + "\n" + _line_of(cap, 4))
    out = io.StringIO()
    assert StdioServer(Dispatcher(build_registry(), make_ctx()), stream, out, concurrency).run() == 0
    lines = out.getvalue().splitlines()
    frames = {frame["id"]: frame for frame in map(json.loads, lines)}  # concurrent answers may come in any order
    assert len(lines) == 5 and set(frames) == {1, None, 3, 4}
    assert json.loads(lines[1]) == json.loads(lines[2]) == {
        "jsonrpc": "2.0", "id": None, "error": {"code": -32600, "message": f"line exceeds {cap} characters"}}
    assert len(frames[3]["result"]["content"]["records"]) == 65 and "tools" in frames[4]["result"]
    assert stream.limits and all(isinstance(n, int) and 0 <= n <= cap for n in stream.limits)


def test_notifications_emit_nothing_on_the_wire():
    lines = _session_lines()[:1] + [json.dumps({"jsonrpc": "2.0", "method": "notifications/initialized"})]
    frames = _run_session(lines)
    assert len(frames) == 1


def test_every_frame_declares_the_protocol_version():
    for frame in _run_session(_session_lines()):
        assert frame["jsonrpc"] == "2.0"


def test_emitted_frames_are_redacted():
    http = HttpProvider(
        id="alpha",
        base_url_template="http://127.0.0.1:9/q?code={code}&apikey={apikey}",
        timeout_ms=300,
        rate=RateSpec(1000, 1000.0),
    )
    ctx = make_ctx(providers={"alpha": http}, secrets={"alpha": "sk-hunter2-hunter2"})
    lines = _session_lines()
    frames = _run_session(lines, ctx=ctx)
    blob = json.dumps(frames)
    assert "sk-hunter2-hunter2" not in blob
    # the failure detail still names the provider, just not the secret
    assert frames[2]["result"]["content"]["error_kind"] == "provider_failure"


def test_a_cache_hit_after_a_redacted_miss_returns_the_same_records():
    secret = "sk-in-a-code-0451"
    ctx = make_ctx(secrets={"synth": secret})
    call = {"name": "tool_get_historical_data",
            "arguments": {"codes": [f"X{secret}"], "fields": ["close", "turn"], "start_date": "2024-01-01",
                          "end_date": "2024-01-31", "options": "Fill=Previous"}}
    lines = [_session_lines()[0]] + [
        json.dumps({"jsonrpc": "2.0", "id": i, "method": "tools/call", "params": call}) for i in (2, 3)
    ]
    miss, hit = (frame["result"]["content"] for frame in _run_session(lines, ctx=ctx)[1:])
    assert (miss["meta"]["cache_hit"], hit["meta"]["cache_hit"]) == (False, True)
    assert miss["records"][0]["code"] == "X***REDACTED***"
    assert hit["records"] == miss["records"]
    # the emit redacted a copy: the cached records still hold the code as fetched
    dispatcher = Dispatcher(build_registry(), ctx)
    initialize(dispatcher)
    cached = dispatcher.dispatch(_req(4, "tools/call", call)).result["content"]["records"]
    assert [r["code"] for r in cached] == [f"X{secret}"] * len(miss["records"])
    assert [{**r, "code": "X***REDACTED***"} for r in cached] == miss["records"]


@pytest.mark.parametrize("tool,span", [
    ("tool_get_historical_data", {"start_date": "2024-01-01", "end_date": "2024-01-12", "options": "Fill=Previous"}),
    ("tool_get_quote", {"as_of": "2024-01-12"}),
], ids=["historical", "quote"])
def test_a_cache_hit_answers_in_the_field_order_of_its_own_query(tool, span):
    def call(dispatcher, id, fields):
        arguments = {"codes": ["300750.SZ", "600000.SH"], "fields": fields, **span}
        return dispatcher.dispatch(_req(id, "tools/call", {"name": tool, "arguments": arguments}))

    session, fresh = Dispatcher(build_registry(), make_ctx()), Dispatcher(build_registry(), make_ctx())
    initialize(session)
    initialize(fresh)
    call(session, 1, ["close", "turn"])
    hit, miss = call(session, 2, ["turn", "close"]), call(fresh, 2, ["turn", "close"])
    assert (hit.result["content"]["meta"]["cache_hit"], miss.result["content"]["meta"]["cache_hit"]) == (True, False)
    for response in (hit, miss):
        response.result["content"]["meta"].update(cache_hit=None, fetched_at=None)
    assert serialize_message(hit) == serialize_message(miss)
    assert list(hit.result["content"]["records"][0]) == ["code", "timestamp", "turn", "close"]


def test_concurrent_mode_interleaves_but_correlates_ids(ctx):
    registry = ToolRegistry()
    order = []

    def slow(args, _ctx):
        delay = args.values["delay_ms"] / 1000.0
        time.sleep(delay)
        order.append(args.values["tag"])
        return ToolResult(content={"tag": args.values["tag"]})

    registry.register(
        ToolDescriptor(
            name="slow_echo",
            description="sleeps then echoes",
            params={
                "delay_ms": ParamSpec("integer", "sleep duration", required=True),
                "tag": ParamSpec("string", "echo tag", required=True),
            },
        ),
        slow,
    )
    dispatcher = Dispatcher(registry, ctx)
    out = io.StringIO()
    lines = [
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize"}),
        json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/call",
                    "params": {"name": "slow_echo", "arguments": {"delay_ms": 200, "tag": "slow"}}}),
        json.dumps({"jsonrpc": "2.0", "id": 3, "method": "tools/call",
                    "params": {"name": "slow_echo", "arguments": {"delay_ms": 10, "tag": "fast"}}}),
    ]
    server = StdioServer(dispatcher, io.StringIO("".join(l + "\n" for l in lines)), out, concurrency=4)
    assert server.run() == 0
    frames = [json.loads(line) for line in out.getvalue().splitlines()]
    by_id = {f["id"]: f for f in frames}
    assert by_id[2]["result"]["content"]["tag"] == "slow"
    assert by_id[3]["result"]["content"]["tag"] == "fast"
    assert order == ["fast", "slow"]  # responses interleaved, ids correlate


@pytest.mark.parametrize("concurrency", [1, 2])
def test_concurrent_mode_stops_reading_at_its_bound_of_unanswered_calls_then_answers_every_call(concurrency):
    release = threading.Event()

    class Gated(SyntheticProvider):
        def fetch(self, query, credentials):
            release.wait(timeout=10.0)
            return super().fetch(query, credentials)

    bound = server_module.ADMITTED_PER_WORKER * concurrency
    first = json.dumps({"jsonrpc": "2.0", "id": 0, "method": "initialize"}) + "\n"
    calls = [
        json.dumps({"jsonrpc": "2.0", "id": i, "method": "tools/call", "params": {
            **Q1_CALL_PARAMS, "arguments": {**Q1_CALL_PARAMS["arguments"], "codes": [f"C{i}"]}}}) + "\n"
        for i in range(1, bound + 4)
    ]
    ctx = make_ctx(providers={"synth": Gated(id="synth", seed=0, rate=RateSpec(1000, 1000.0))})
    instream, out = io.StringIO(first + "".join(calls)), io.StringIO()
    server = StdioServer(Dispatcher(build_registry(), ctx), instream, out, concurrency=concurrency)
    reader = threading.Thread(target=server.run)
    reader.start()
    try:
        stop = len(first) + sum(map(len, calls[: bound + 1]))  # the call past the bound is read, then waits
        deadline = time.monotonic() + 5.0
        while instream.tell() != stop and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.2)
        assert (instream.tell(), out.getvalue().count("\n")) == (stop, 1)  # only initialize is answered
    finally:
        release.set()
        reader.join(timeout=30.0)
    assert not reader.is_alive()
    frames = [json.loads(line) for line in out.getvalue().splitlines()]
    assert sorted(f["id"] for f in frames) == list(range(len(calls) + 1))
    assert all(f["result"]["is_error"] is False and f["result"]["content"]["meta"]["row_count"] == 65
               for f in frames if f["id"])


def test_concurrent_writes_never_shear_frames(ctx):
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(
            name="echo_blob",
            description="returns a large blob",
            params={"n": ParamSpec("integer", "blob size", required=True)},
        ),
        lambda args, _ctx: ToolResult(content={"blob": "x" * args.values["n"]}),
    )
    dispatcher = Dispatcher(registry, ctx)
    out = io.StringIO()
    lines = [json.dumps({"jsonrpc": "2.0", "id": 0, "method": "initialize"})]
    for i in range(1, 21):
        lines.append(
            json.dumps({"jsonrpc": "2.0", "id": i, "method": "tools/call",
                        "params": {"name": "echo_blob", "arguments": {"n": 5000 + i}}})
        )
    server = StdioServer(dispatcher, io.StringIO("".join(l + "\n" for l in lines)), out, concurrency=8)
    assert server.run() == 0
    frames = [parse_message(line) for line in out.getvalue().splitlines()]
    assert sorted(f.id for f in frames) == list(range(21))


def test_csv_nan_cell_answers_a_provider_failure_over_stdio(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("code,date,close\nA,2024-01-02,nan\n")
    csv_provider = CsvProvider(id="f", csv_path=str(path), rate=RateSpec(1000, 1000.0))
    call = {"name": "tool_get_historical_data",
            "arguments": {"codes": ["A"], "fields": ["close"], "start_date": "2024-01-01", "end_date": "2024-01-05"}}
    lines = [_session_lines()[0], json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/call", "params": call})]
    frames = _run_session(lines, ctx=make_ctx(providers={"f": csv_provider}))
    assert "error" not in frames[1]
    assert frames[1]["result"]["is_error"] is True
    assert frames[1]["result"]["content"]["error_kind"] == "provider_failure"


_UNREADABLE_AFTER_STARTUP = {  # how the checked export is taken away, and the strerror its fetch then answers
    "renamed-away": (lambda path: path.rename(path.with_name("moved.csv")), "No such file or directory"),
    "a-directory": (lambda path: (path.unlink(), path.mkdir()), "Is a directory"),
}


@pytest.mark.parametrize("take_away, strerror", _UNREADABLE_AFTER_STARTUP.values(), ids=_UNREADABLE_AFTER_STARTUP)
def test_a_csv_export_unreadable_at_fetch_time_answers_a_provider_failure_without_its_path(
    tmp_path, take_away, strerror
):
    path = tmp_path / "export.csv"
    path.write_text("code,date,close\nA,2024-01-02,1.5\n")
    csv_provider = CsvProvider(id="f", csv_path=str(path))
    csv_provider.check()
    take_away(path)
    out = io.StringIO()
    server = StdioServer(Dispatcher(build_registry(), make_ctx(providers={"f": csv_provider})), io.StringIO(), out)
    call = {"name": "tool_get_historical_data",
            "arguments": {"codes": ["A"], "fields": ["close"], "start_date": "2024-01-01", "end_date": "2024-01-05"}}
    server.handle_line(_session_lines()[0])
    server.handle_line(json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/call", "params": call}))
    frame = json.loads(out.getvalue().splitlines()[-1])
    detail = f"provider 'f' csv is unreadable: {strerror}"
    assert frame == {"jsonrpc": "2.0", "id": 2, "result": {
        "content": {"error_kind": "provider_failure", "detail": detail}, "is_error": True,
        "human_summary": f"provider_failure: {detail}"}}
    assert str(tmp_path) not in out.getvalue()


# --- redaction: serialize first, redact only when a secret shows ------------------

# Each needs escaping in JSON or is multi-byte in UTF-8; "hunter2" sits inside
# "xhunter2-long", so the longest-first order matters.
SECRETS = {
    "quote": 'sk"quo\\te',
    "ctl": "line\nbreak\x01ctl",
    "uni": "cl\u00e9\u2028sep",
    "short": "hunter2",
    "long": "xhunter2-long",
}
S = list(SECRETS.values())


def _leak(args, _ctx):
    case = args.values["case"]
    if case == "value":
        content = {f"key-{s}": [s, f"pre{s}post", {"n": 1.23456789, s: None}] for s in S}
        return ToolResult(content=content, human_summary=f"done {S[0]}")
    if case == "tool_error":
        return ToolResult(content={"detail": f"bad {S[1]}", S[2]: 1}, is_error=True)
    if case == "raise":
        raise ValidationError(f"rejected {S[3]}", data={"why": S[4], S[0]: [S[1]]})
    if case == "crash":
        raise RuntimeError(f"crashed on {S[2]}")
    if case == "unserializable":
        return ToolResult(content={"set": {S[0]}})
    return ToolResult(content={"plain": "nothing secret", "x": 0.5})


def _leak_registry() -> ToolRegistry:
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(
            name="leak",
            description="returns secrets in every part of its answer",
            params={"case": ParamSpec("string", "which answer", required=True)},
        ),
        _leak,
    )
    return registry


class _RedactFirstDispatcher(Dispatcher):
    """The reference stderr path: redact the whole tree, then serialize."""

    def log_event(self, event, **fields):
        payload = redact({"event": event, **fields}, self.ctx.credentials)
        self.log(json.dumps(payload, ensure_ascii=False, default=str))


class _RedactFirstServer(StdioServer):
    """The reference stdout path: redact the whole message, then serialize."""

    def _emit(self, msg):
        msg = redact_message(msg, self.dispatcher.ctx.credentials)
        try:
            line = serialize_message(msg)
        except InternalError as exc:
            self.dispatcher.log_event("unserializable_response", detail=exc.message)
            fallback = make_error(msg.id if msg.kind == RESPONSE else None, -32603, "internal error")
            line = serialize_message(fallback)
        self._out.write(line)


def _leak_call(id, case, name="leak"):
    return json.dumps({"jsonrpc": "2.0", "id": id, "method": "tools/call",
                       "params": {"name": name, "arguments": {"case": case}}})


def _leak_session() -> list[str]:
    return [
        json.dumps({"jsonrpc": "2.0", "id": f"init-{S[4]}", "method": "initialize",
                    "params": {"clientInfo": {"name": f"client {S[3]}", "version": S[2]}}}),
        json.dumps({"jsonrpc": "2.0", "method": f"notify/{S[1]}"}),
        json.dumps({"jsonrpc": "2.0", "id": f"resp-{S[0]}", "result": S[0]}),
        _leak_call(f"id-{S[0]}", "value"),
        _leak_call(f"id-{S[1]}", "tool_error"),
        _leak_call(f"id-{S[2]}", "raise"),
        _leak_call(f"id-{S[3]}", "crash"),
        _leak_call(f"id-{S[4]}", "unserializable"),
        _leak_call(7, "clean"),
        _leak_call(f"id-{S[3]}", "clean", name=f"tool-{S[0]}"),
        json.dumps({"jsonrpc": "2.0", "id": 8, "method": f"rpc/{S[2]}"}),
        json.dumps({"jsonrpc": "2.0", "id": f"bad-{S[1]}", "result": 1,
                    "error": {"code": -32603, "message": "x"}}),
    ]


def _run_leak_session(server_cls, dispatcher_cls) -> tuple[bytes, list[str]]:
    lines: list[str] = []
    dispatcher = dispatcher_cls(_leak_registry(), make_ctx(secrets=SECRETS), log=lines.append)
    out = io.StringIO()
    server = server_cls(dispatcher, io.StringIO("".join(l + "\n" for l in _leak_session())), out)
    assert server.run() == 0
    return out.getvalue().encode("utf-8"), lines


def test_scan_then_redact_emits_the_bytes_of_redact_then_serialize():
    stdout, stderr = _run_leak_session(StdioServer, Dispatcher)
    ref_stdout, ref_stderr = _run_leak_session(_RedactFirstServer, _RedactFirstDispatcher)
    assert stdout == ref_stdout
    assert stderr == ref_stderr
    store = CredentialStore(SECRETS)
    assert not store.shows_in(stdout.decode("utf-8"))
    assert not any(store.shows_in(line) for line in stderr)
    frames = [json.loads(line) for line in stdout.decode("utf-8").splitlines()]
    assert len(frames) == 10
    # the -32603 fallback for the unserializable answer keeps the redacted id
    assert frames[5] == {"jsonrpc": "2.0", "id": "id-***REDACTED***",
                         "error": {"code": -32603, "message": "internal error"}}
    assert any('"event": "unserializable_response"' in line for line in stderr)


def test_a_frame_without_a_secret_skips_the_tree_walk(monkeypatch):
    walks = []

    def counting_redact_message(msg, store):
        walks.append(msg.id)
        return redact_message(msg, store)

    monkeypatch.setattr(server_module, "redact_message", counting_redact_message)
    dispatcher = Dispatcher(_leak_registry(), make_ctx(secrets=SECRETS))
    lines = [json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize"}),
             _leak_call(2, "clean"), _leak_call(3, "value")]
    out = io.StringIO()
    assert StdioServer(dispatcher, io.StringIO("".join(l + "\n" for l in lines)), out).run() == 0
    assert len(out.getvalue().splitlines()) == 3
    assert walks == [3]
