"""Tool handlers: historical pipeline, quotes, summary statistics, grounding."""

from __future__ import annotations

import datetime as dt
import gc
import json
import math
import threading

import pytest

from conftest import FakeWallClock, make_ctx
from oracle_utils import mean_oracle, synthetic_value_oracle, weekdays_oracle
from stub_provider import stub_rows_server

from quantmcp.cli import mask_volatile
from quantmcp.errors import ProviderFailure, RateLimitedError, ValidationError
from quantmcp import providers, security, tools
from quantmcp.providers import (
    CsvProvider,
    DataQuery,
    HttpProvider,
    RateSpec,
    SyntheticProvider,
    fetch_historical,
)
from quantmcp.registry import ValidatedArgs
from quantmcp.tools import (
    build_registry,
    compute_stats,
    tool_compute_summary,
    tool_get_historical_data,
    tool_get_quote,
)

Q1_ARGS = {
    "codes": ["300750.SZ"],
    "fields": ["close", "pb_lf", "turn"],
    "start_date": "2024-01-01",
    "end_date": "2024-03-31",
    "options": "PriceAdj=F;Fill=Previous",
}


def _validated(tool: str, arguments: dict) -> ValidatedArgs:
    return build_registry().validate_params(tool, arguments)


def _call_historical(ctx, arguments=Q1_ARGS):
    return tool_get_historical_data(_validated("tool_get_historical_data", arguments), ctx)


# --- tool_get_historical_data ---------------------------------------------------


def test_q1_query_returns_65_records_with_requested_keys(ctx):
    result = _call_historical(ctx)
    assert not result.is_error
    records = result.content["records"]
    assert len(records) == 65
    assert list(records[0]) == ["code", "timestamp", "close", "pb_lf", "turn"]
    assert result.content["meta"]["row_count"] == 65
    assert result.content["meta"]["provider_id"] == "synth"


def test_record_values_come_from_the_provider_formula(ctx):
    records = _call_historical(ctx).content["records"]
    for record in records[:10]:
        day = dt.date.fromisoformat(record["timestamp"][:10])
        for field in ("close", "pb_lf", "turn"):
            assert record[field] == synthetic_value_oracle("300750.SZ", field, day, 0)


def test_identical_queries_hit_the_cache_with_one_fetch(ctx):
    first = _call_historical(ctx)
    second = _call_historical(ctx)
    assert first.content["meta"]["cache_hit"] is False
    assert second.content["meta"]["cache_hit"] is True
    assert second.content["records"] == first.content["records"]


def test_weekend_only_range_is_a_successful_empty_result(ctx):
    args = dict(Q1_ARGS, start_date="2024-01-06", end_date="2024-01-07")
    result = _call_historical(ctx, args)
    assert not result.is_error
    assert result.content["records"] == []
    assert "no trading days" in result.human_summary


@pytest.mark.parametrize(
    "start, end", [(dt.date(9999, 12, 13), dt.date.max), (dt.date.min, dt.date(1, 1, 19))]
)
def test_ranges_at_either_end_of_the_calendar_are_served(ctx, start, end):
    args = dict(Q1_ARGS, start_date=start.isoformat(), end_date=end.isoformat())
    result = _call_historical(ctx, args)
    assert not result.is_error
    days = weekdays_oracle(start, end)
    records = result.content["records"]
    assert [r["timestamp"] for r in records] == [f"{d.isoformat()} 15:00:00" for d in days]
    assert [r["close"] for r in records] == [synthetic_value_oracle("300750.SZ", "close", d, 0) for d in days]


def test_unreachable_http_provider_is_a_tool_level_error():
    http = HttpProvider(
        id="alpha",
        base_url_template="http://127.0.0.1:9/q?code={code}&start={start}&end={end}",
        timeout_ms=300,
        rate=RateSpec(1000, 1000.0),
    )
    ctx = make_ctx(providers={"alpha": http})
    result = _call_historical(ctx)
    assert result.is_error
    assert result.content["error_kind"] == "provider_failure"
    assert "detail" in result.content


def test_missing_credential_is_a_tool_level_error():
    http = HttpProvider(
        id="alpha",
        base_url_template="http://127.0.0.1:9/q?code={code}&apikey={apikey}",
        rate=RateSpec(1000, 1000.0),
    )
    ctx = make_ctx(providers={"alpha": http})
    result = _call_historical(ctx)
    assert result.is_error
    assert result.content["error_kind"] == "credential_missing"
    assert _call_quote(ctx, {"codes": ["300750.SZ"], "fields": ["close"], "as_of": "2024-03-29"}) == result


def test_a_call_waiting_on_a_failing_identical_fill_answers_its_provider_failure(monkeypatch):
    entered, joined, release = threading.Event(), threading.Event(), threading.Event()

    class Response:
        status_code = 503

    def failing_get(url, timeout):
        entered.set()
        release.wait(timeout=5.0)
        return Response()

    class Inflight(dict):  # sets ``joined`` once a call finds another's fill in flight
        def get(self, key, default=None):
            flight = super().get(key, default)
            if flight is not None:
                joined.set()
            return flight

    monkeypatch.setattr(providers, "_http_get", failing_get)
    http = HttpProvider(id="alpha", base_url_template="http://stub.invalid/q?code={code}", rate=RateSpec(1000, 1000.0))
    ctx = make_ctx(providers={"alpha": http})
    monkeypatch.setattr(ctx.cache, "_inflight", Inflight())
    outcomes = []

    def call():
        try:
            outcomes.append(_call_historical(ctx).content)
        except Exception as exc:  # an escaping error would answer -32603
            outcomes.append(exc)

    owner, waiter = threading.Thread(target=call), threading.Thread(target=call)
    owner.start()
    assert entered.wait(timeout=5.0)
    waiter.start()
    assert joined.wait(timeout=5.0)
    release.set()
    for thread in (owner, waiter):
        thread.join(timeout=10.0)
    assert outcomes == [{"error_kind": "provider_failure", "detail": "provider 'alpha' returned HTTP 503"}] * 2


@pytest.mark.parametrize(
    ("kind", "n_codes", "timeout_ms", "retries", "expected_wait_s"),
    [
        pytest.param("http", 1, 5000, 0, 30.0, id="1-5000-0-30.0"),  # derived 6 s: never below the 30 s default
        pytest.param("http", 40, 5000, 0, 30.0, id="40-5000-0-30.0"),  # derived 26 s
        pytest.param("http", 9, 5000, 2, 31.0, id="9-5000-2-31.0"),  # 2 waves x 3 attempts x 5 s + 1 s margin
        pytest.param("http", 20, 20000, 0, 61.0, id="20-20000-0-61.0"),  # 3 waves x 20 s + 1 s margin
        # a fetch that never waits on its source keeps the default; its kind reads no timeout_ms or retries
        pytest.param("synthetic", 20, 20000, 0, 30.0, id="synthetic"),
        pytest.param("csv", 20, 20000, 0, 30.0, id="csv"),
    ],
)
def test_http_single_flight_wait_only_grows_past_the_default(
    monkeypatch, tmp_path, kind, n_codes, timeout_ms, retries, expected_wait_s
):
    class Response:
        status_code = 200

        def json(self):
            return {"rows": []}

    monkeypatch.setattr(providers, "_http_get", lambda url, timeout: Response())
    (tmp_path / "rows.csv").write_text("code,date,close,pb_lf,turn\n")
    cls, own = {
        "http": (HttpProvider, {"base_url_template": "http://stub.invalid/q?code={code}",
                                "timeout_ms": timeout_ms, "retries": retries}),
        "synthetic": (SyntheticProvider, {}),
        "csv": (CsvProvider, {"csv_path": str(tmp_path / "rows.csv")}),
    }[kind]
    provider = cls(id="alpha", rate=RateSpec(1000, 1000.0), **own)
    ctx = make_ctx(providers={"alpha": provider})
    waits: list[float] = []
    lookup_or_store = ctx.cache.lookup_or_store

    def recording_lookup(key, compute, ttl, wait_s):
        waits.append(wait_s)
        return lookup_or_store(key, compute, ttl, wait_s)

    monkeypatch.setattr(ctx.cache, "lookup_or_store", recording_lookup)
    arguments = dict(Q1_ARGS, codes=[f"{i:06d}.SZ" for i in range(n_codes)])
    assert not _call_historical(ctx, arguments).is_error
    assert waits == [expected_wait_s]


def test_rate_limit_denial_is_a_protocol_error():
    synth = SyntheticProvider(id="synth", rate=RateSpec(capacity=1, refill_per_sec=1.0))
    ctx = make_ctx(providers={"synth": synth})
    _call_historical(ctx)
    args = dict(Q1_ARGS, end_date="2024-02-29")  # different query, same bucket
    with pytest.raises(RateLimitedError) as excinfo:
        _call_historical(ctx, args)
    assert excinfo.value.data["retry_after_ms"] > 0


def test_unknown_provider_id_is_a_validation_error(ctx):
    with pytest.raises(ValidationError):
        _call_historical(ctx, dict(Q1_ARGS, provider_id="ghost"))


def test_semantically_invalid_date_is_a_validation_error(ctx):
    with pytest.raises(ValidationError) as excinfo:
        _call_historical(ctx, dict(Q1_ARGS, start_date="2024-13-45"))
    assert any("start_date" in v for v in excinfo.value.data["violations"])


@pytest.mark.parametrize(
    ("change", "violation"),
    [
        ({"codes": ["A", "B", "A"]}, "codes: duplicate instrument codes"),
        ({"fields": []}, "fields: must be non-empty"),
        ({"fields": ["close", "turn", "close"]}, "fields: duplicate field names"),
    ],
    ids=["duplicate-codes", "no-fields", "duplicate-fields"],
)
def test_a_repeated_code_or_field_or_no_field_is_a_validation_error(ctx, change, violation):
    with pytest.raises(ValidationError) as excinfo:
        _call_historical(ctx, dict(Q1_ARGS, **change))
    assert excinfo.value.data == {"violations": [violation]}


def test_calls_differing_only_in_options_no_provider_reads_share_one_fetch_and_one_entry(monkeypatch):
    fetches = []

    def counting_fetch(*args, **kwargs):
        fetches.append(1)
        return fetch_historical(*args, **kwargs)

    monkeypatch.setattr(tools, "fetch_historical", counting_fetch)
    ctx = make_ctx(rate=RateSpec(capacity=4, refill_per_sec=1.0))  # the fake clock never refills
    options = ["PriceAdj=F", "PriceAdj=B;Fill=Blank", "Nonce=1", "PriceAdj=F;Fill=Previous"]
    results = [_call_historical(ctx, dict(Q1_ARGS, options=o)) for o in options]
    assert [r.content["meta"]["cache_hit"] for r in results] == [False, True, True, False]  # only Fill splits
    assert results[1].content["records"] is results[0].content["records"] is results[2].content["records"]
    assert len(fetches) == 2 and len(ctx.cache._entries) == 2
    with pytest.raises(RateLimitedError):  # a hit still takes its token first
        _call_historical(ctx, dict(Q1_ARGS, options=""))


def test_a_query_over_the_record_limit_answers_32602_before_any_token_or_fetch(monkeypatch):
    fetches = []

    def failing_fetch(*args, **kwargs):
        fetches.append(1)
        raise ProviderFailure("provider 'synth' fetched")

    monkeypatch.setattr(tools, "fetch_historical", failing_fetch)
    ctx = make_ctx(rate=RateSpec(capacity=1, refill_per_sec=1.0))  # the fake clock never refills
    n_days = providers.MAX_QUERY_RECORDS // 2 + 1  # weekdays from Monday 2024-01-01, for two codes
    end = dt.date(2024, 1, 1) + dt.timedelta(days=(n_days - 1) // 5 * 7 + (n_days - 1) % 5)
    arguments = dict(Q1_ARGS, codes=["A", "B"], start_date="2024-01-01", end_date=end.isoformat())
    with pytest.raises(ValidationError) as excinfo:
        _call_historical(ctx, arguments)
    assert excinfo.value.code == -32602
    assert excinfo.value.data == {"violations": [
        f"query: {2 * n_days} records (codes x trading days), over the limit of {providers.MAX_QUERY_RECORDS}"
    ]}
    assert fetches == []
    assert _call_historical(ctx).is_error and fetches == [1]  # the one token was still there for this call


def test_inverted_range_is_a_validation_error(ctx):
    with pytest.raises(ValidationError):
        _call_historical(ctx, dict(Q1_ARGS, start_date="2024-03-31", end_date="2024-01-01"))


def test_provider_error_fires_before_options_and_date_errors(ctx):
    args = dict(Q1_ARGS, provider_id="ghost", options="Fill=Sideways", start_date="2024-13-45")
    with pytest.raises(ValidationError) as excinfo:
        _call_historical(ctx, args)
    assert excinfo.value.data == {"violations": ["provider_id: unknown provider 'ghost'"]}
    with pytest.raises(ValidationError) as excinfo:
        _call_historical(ctx, dict(args, provider_id="synth"))
    assert excinfo.value.data == {"key": "Fill", "allowed": ["Blank", "Previous"]}


def test_fill_previous_applies_to_csv_gaps(tmp_path):
    path = tmp_path / "gappy.csv"
    path.write_text(
        "code,date,close\n"
        "A,2024-01-01,10.0\n"
        "A,2024-01-03,11.0\n"
    )
    provider = CsvProvider(id="f", csv_path=str(path), rate=RateSpec(1000, 1000.0))
    ctx = make_ctx(providers={"f": provider})
    args = {
        "codes": ["A"],
        "fields": ["close"],
        "start_date": "2024-01-01",
        "end_date": "2024-01-05",
        "options": "Fill=Previous",
    }
    filled = _call_historical(ctx, args).content["records"]
    assert [r["close"] for r in filled] == [10.0, 10.0, 11.0, 11.0, 11.0]
    blank = _call_historical(ctx, dict(args, options=""))
    assert [r["close"] for r in blank.content["records"]] == [10.0, None, 11.0, None, None]


def test_pipeline_is_deterministic_modulo_fetched_at(ctx):
    later = FakeWallClock(dt.datetime(2025, 2, 3, 4, 5, 6, tzinfo=dt.timezone.utc))
    first, second = (_call_historical(c).content for c in (ctx, make_ctx(wall=later)))
    assert first["meta"]["fetched_at"] != second["meta"]["fetched_at"]
    # compact text keeps key order and int against float, so the texts differ wherever the answers do
    first_text, second_text = (
        json.dumps(content, ensure_ascii=False, separators=(",", ":"), default=list) for content in (first, second)
    )
    assert mask_volatile(first_text) == mask_volatile(second_text)


# --- tool_get_quote -------------------------------------------------------------


def _call_quote(ctx, arguments):
    return tool_get_quote(_validated("tool_get_quote", arguments), ctx)


def test_saturday_as_of_resolves_to_friday(ctx):
    result = _call_quote(ctx, {"codes": ["300750.SZ"], "fields": ["close"], "as_of": "2024-01-06"})
    records = result.content["records"]
    assert len(records) == 1
    assert records[0]["timestamp"] == "2024-01-05 15:00:00"
    assert records[0]["close"] == synthetic_value_oracle("300750.SZ", "close", dt.date(2024, 1, 5), 0)


def test_trading_day_as_of_uses_that_day(ctx):
    result = _call_quote(ctx, {"codes": ["300750.SZ"], "fields": ["close"], "as_of": "2024-01-05"})
    assert result.content["records"][0]["timestamp"] == "2024-01-05 15:00:00"


def test_as_of_the_last_day_of_the_calendar_is_quoted(ctx):
    result = _call_quote(ctx, {"codes": ["300750.SZ"], "fields": ["close"], "as_of": "9999-12-31"})
    assert result.content["records"] == [
        {
            "code": "300750.SZ",
            "timestamp": "9999-12-31 15:00:00",
            "close": synthetic_value_oracle("300750.SZ", "close", dt.date.max, 0),
        }
    ]


def test_as_of_defaults_to_the_server_clock():
    wall = FakeWallClock(dt.datetime(2024, 6, 2, 8, 0, tzinfo=dt.timezone.utc))  # a Sunday
    ctx = make_ctx(wall=wall)
    result = _call_quote(ctx, {"codes": ["300750.SZ"], "fields": ["close"]})
    assert result.content["records"][0]["timestamp"].startswith("2024-05-31")


def test_quote_checks_the_provider_before_as_of(ctx):
    args = {"codes": ["300750.SZ"], "fields": ["close"], "as_of": "2024-02-30", "provider_id": "ghost"}
    with pytest.raises(ValidationError) as excinfo:
        _call_quote(ctx, args)
    assert excinfo.value.data == {"violations": ["provider_id: unknown provider 'ghost'"]}
    with pytest.raises(ValidationError) as excinfo:
        _call_quote(ctx, dict(args, provider_id="synth"))
    assert excinfo.value.data == {"violations": ["as_of: '2024-02-30' is not a valid YYYY-MM-DD date"]}


@pytest.mark.parametrize("source", ["csv:nan", "csv:inf", "csv:-inf", "http:NaN"])
def test_non_finite_provider_value_is_an_uncached_provider_failure(tmp_path, monkeypatch, source):
    kind, cell = source.split(":")
    fetches = []

    def counting_fetch(*args, **kwargs):
        fetches.append(1)
        return fetch_historical(*args, **kwargs)

    monkeypatch.setattr(tools, "fetch_historical", counting_fetch)
    args = {"codes": ["A"], "fields": ["close"], "start_date": "2024-01-01", "end_date": "2024-01-05"}
    rate = RateSpec(1000, 1000.0)
    if kind == "csv":
        path = tmp_path / "non_finite.csv"
        path.write_text(f"code,date,close\nA,2024-01-02,{cell}\n")
        provider = CsvProvider(id="f", csv_path=str(path), rate=rate)
        ctx = make_ctx(providers={"f": provider})
        results = [_call_historical(ctx, args) for _ in range(2)]
    else:
        with stub_rows_server([{"code": "A", "date": "2024-01-02", "close": math.nan}]) as (base_url, state):
            provider = HttpProvider(
                id="h", base_url_template=base_url + "/q?code={code}", rate=rate
            )
            ctx = make_ctx(providers={"h": provider})
            results = [_call_historical(ctx, args) for _ in range(2)]
        assert len(state.requests) == 2
    for result in results:
        assert result.is_error
        assert result.content["error_kind"] == "provider_failure"
        assert "'close'" in result.content["detail"]
    assert len(fetches) == 2  # failures are not cached: the retry fetches again


@pytest.mark.parametrize(
    ("body", "detail"),
    [
        (b"code,date,close\nA,2024-01-02,1\nB,2024-01-02,\xff\n", "can't decode byte 0xff"),
        (b'code,date,close\nA,2024-01-02,"' + b"1" * 131_073 + b'"\n', "field larger than field limit"),
    ],
    ids=["non-utf8-byte", "cell-past-the-field-limit"],
)
def test_unreadable_csv_is_an_uncached_schema_failure(tmp_path, monkeypatch, body, detail):
    path = tmp_path / "export.csv"
    path.write_bytes(body)
    provider = CsvProvider(id="f", csv_path=str(path), rate=RateSpec(1000, 1000.0))
    query = DataQuery(["A"], ["close"], dt.date(2024, 1, 1), dt.date(2024, 1, 5))
    with pytest.raises(ProviderFailure) as excinfo:
        fetch_historical(provider, query, security.CredentialStore({}))
    assert excinfo.value.data == {"reason": "schema"}
    fetches = []

    def counting_fetch(*args, **kwargs):
        fetches.append(1)
        return fetch_historical(*args, **kwargs)

    monkeypatch.setattr(tools, "fetch_historical", counting_fetch)
    ctx = make_ctx(providers={"f": provider})
    args = {"codes": ["A"], "fields": ["close"], "start_date": "2024-01-01", "end_date": "2024-01-05"}
    for _ in range(2):
        result = _call_historical(ctx, args)
        assert result.is_error
        assert result.content["error_kind"] == "provider_failure"
        assert detail in result.content["detail"]
    assert len(fetches) == 2  # failures are not cached: the retry fetches again


@pytest.mark.parametrize("code", [["A"], {"A": 1}, 7], ids=["list", "object", "number"])
def test_http_row_with_a_non_string_code_is_an_uncached_provider_failure(monkeypatch, code):
    class Response:
        status_code = 200

        def json(self):
            return {"rows": [{"code": code, "date": "2024-01-02", "close": 1.0}]}

    gets = []
    monkeypatch.setattr(providers, "_http_get", lambda url, timeout: gets.append(url) or Response())
    provider = HttpProvider(
        id="h", base_url_template="http://stub.invalid/q?code={code}", rate=RateSpec(1000, 1000.0)
    )
    ctx = make_ctx(providers={"h": provider})
    args = {"codes": ["A"], "fields": ["close"], "start_date": "2024-01-01", "end_date": "2024-01-05"}
    for _ in range(2):
        result = _call_historical(ctx, args)
        assert result.is_error
        assert result.content["error_kind"] == "provider_failure"
        assert "non-string code" in result.content["detail"]
    assert len(gets) == 2  # failures are not cached: the retry fetches again


def test_http_body_nested_past_the_recursion_limit_is_a_schema_failure(monkeypatch):
    class Response:
        status_code = 200

        def json(self):  # decodes as requests does
            return json.loads("[" * 100_000 + "]" * 100_000)

    monkeypatch.setattr(providers, "_http_get", lambda url, timeout: Response())
    provider = HttpProvider(
        id="h", base_url_template="http://stub.invalid/q?code={code}", rate=RateSpec(1000, 1000.0)
    )
    args = {"codes": ["A"], "fields": ["close"], "start_date": "2024-01-01", "end_date": "2024-01-05"}
    result = _call_historical(make_ctx(providers={"h": provider}), args)
    assert result.is_error
    assert result.content == {"error_kind": "provider_failure", "detail": "provider 'h' returned a non-JSON body"}
    with pytest.raises(ProviderFailure) as excinfo:
        fetch_historical(provider, DataQuery(["A"], ["close"], dt.date(2024, 1, 1), dt.date(2024, 1, 5)), None)
    assert excinfo.value.data == {"reason": "schema"}


def test_distinct_queries_keep_their_own_records_when_their_hashes_collide(ctx, monkeypatch):
    # a cache keyed by a 64-bit hash of the query would answer the second query with the first's records
    monkeypatch.setattr(security, "fnv1a64", lambda *args: 0, raising=False)
    provider = ctx.providers["synth"]
    first = DataQuery(["A"], ["close"], dt.date(2024, 1, 2), dt.date(2024, 1, 2))
    second = DataQuery(["B"], ["turn"], dt.date(2024, 1, 3), dt.date(2024, 1, 3))
    for query, code, field in ((first, "A", "close"), (second, "B", "turn")):
        [record], meta = tools.fetch_normalized(ctx, provider, query)
        assert meta["cache_hit"] is False
        assert record["code"] == code
        assert record[field] == synthetic_value_oracle(code, field, query.start_date, 0)


def test_records_from_a_miss_are_not_gc_tracked(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("code,date,close,turn\nA,2024-01-02,1.5,\nA,2024-01-04,,0.25\nB,2024-01-03,7.0,1.0\n")
    provider = CsvProvider(id="f", csv_path=str(path), rate=RateSpec(1000, 1000.0))
    csv_args = {"codes": ["A", "B"], "fields": ["close", "turn"], "start_date": "2024-01-01",
                "end_date": "2024-01-05", "options": "Fill=Previous"}
    for ctx, args in ((make_ctx(), Q1_ARGS), (make_ctx(providers={"f": provider}), csv_args)):
        miss = _call_historical(ctx, args).content["records"]
        hit = _call_historical(ctx, args).content["records"]
        assert hit is miss  # the cached table, handed on as it is
        assert miss and all(gc.is_tracked(r) is False for r in miss)
    assert [r["close"] for r in miss] == [None, 1.5, 1.5, 1.5, 1.5, None, None, 7.0, 7.0, 7.0]


def test_unknown_code_on_csv_yields_no_data(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("code,date,close\nA,2024-01-05,3.2\n")
    provider = CsvProvider(id="f", csv_path=str(path), rate=RateSpec(1000, 1000.0))
    ctx = make_ctx(providers={"f": provider})
    result = _call_quote(ctx, {"codes": ["UNKNOWN.SZ"], "fields": ["close"], "as_of": "2024-01-06"})
    assert not result.is_error
    assert result.content["records"] == []
    assert result.human_summary == "no data for the requested codes"


# --- tool_compute_summary --------------------------------------------------------


def _call_summary(ctx, arguments):
    return tool_compute_summary(_validated("tool_compute_summary", arguments), ctx)


def test_q1_means_match_brute_force_recomputation(ctx):
    result = _call_summary(ctx, {"query": Q1_ARGS, "summarize_fields": ["close", "turn"]})
    summaries = {s["field"]: s for s in result.content["summaries"]}
    days = weekdays_oracle(dt.date(2024, 1, 1), dt.date(2024, 3, 31))
    for field in ("close", "turn"):
        values = [synthetic_value_oracle("300750.SZ", field, d, 0) for d in days]
        assert summaries[field]["count"] == 65
        assert abs(summaries[field]["mean"] - mean_oracle(values)) <= 1e-9
        assert summaries[field]["min"] == min(values)
        assert summaries[field]["max"] == max(values)


def test_summary_of_a_query_ending_on_the_last_day_of_the_calendar(ctx):
    args = dict(Q1_ARGS, start_date="9999-12-01", end_date="9999-12-31")
    result = _call_summary(ctx, {"query": args, "summarize_fields": ["close"]})
    assert not result.is_error
    days = weekdays_oracle(dt.date(9999, 12, 1), dt.date.max)
    values = [synthetic_value_oracle("300750.SZ", "close", d, 0) for d in days]
    (stats,) = result.content["summaries"]
    assert (stats["count"], stats["min"], stats["max"]) == (23, min(values), max(values))


def test_single_record_statistics():
    ctx = make_ctx()
    records = [{"code": "300750.SZ", "timestamp": "2024-01-02 15:00:00", "close": 180.50}]
    result = _call_summary(ctx, {"records": records, "summarize_fields": ["close"]})
    stats = result.content["summaries"][0]
    assert stats == {
        "field": "close",
        "count": 1,
        "mean": 180.50,
        "min": 180.50,
        "max": 180.50,
        "stddev": 0.0,
    }


def test_two_value_population_stddev():
    stats = compute_stats("x", [1.0, 3.0])
    assert stats["mean"] == 2.0
    assert stats["stddev"] == 1.0  # population (n) denominator
    assert stats["count"] == 2


def test_field_with_only_nulls_gets_a_per_field_error(ctx):
    records = [
        {"code": "A", "timestamp": "2024-01-01 15:00:00", "close": 1.0, "turn": None},
        {"code": "A", "timestamp": "2024-01-02 15:00:00", "close": 3.0, "turn": None},
    ]
    result = _call_summary(ctx, {"records": records, "summarize_fields": ["turn", "close"]})
    assert not result.is_error
    by_field = {s["field"]: s for s in result.content["summaries"]}
    assert by_field["turn"] == {"field": "turn", "error": "no non-null values"}
    assert by_field["close"]["mean"] == 2.0


def test_no_summarize_field_is_a_validation_error(ctx):
    with pytest.raises(ValidationError) as excinfo:
        _call_summary(ctx, {"records": [{"close": 1.0}], "summarize_fields": []})
    assert excinfo.value.data == {"violations": ["summarize_fields: must name at least one field"]}


def test_empty_record_set_is_a_tool_error(ctx):
    result = _call_summary(ctx, {"records": [], "summarize_fields": ["close"]})
    assert result.is_error
    assert result.content["error_kind"] == "empty_input"


def test_weekend_only_nested_query_is_a_tool_error(ctx):
    args = dict(Q1_ARGS, start_date="2024-01-06", end_date="2024-01-07")
    result = _call_summary(ctx, {"query": args, "summarize_fields": ["close"]})
    assert result.is_error and result.content["error_kind"] == "empty_input"


def test_records_and_query_are_mutually_exclusive(ctx):
    with pytest.raises(ValidationError):
        _call_summary(ctx, {"summarize_fields": ["close"]})
    with pytest.raises(ValidationError):
        _call_summary(
            ctx,
            {"records": [], "query": Q1_ARGS, "summarize_fields": ["close"]},
        )


def test_nested_query_arguments_are_schema_checked(ctx):
    with pytest.raises(ValidationError) as excinfo:
        _call_summary(ctx, {"query": {"codes": "oops"}, "summarize_fields": ["close"]})
    named = {v.split(":")[0] for v in excinfo.value.data["violations"]}
    assert "codes" in named and "start_date" in named


def test_nested_query_date_errors_name_the_query_prefix(ctx):
    args = dict(Q1_ARGS, end_date="2024-02-30")
    with pytest.raises(ValidationError) as excinfo:
        _call_summary(ctx, {"query": args, "summarize_fields": ["close"]})
    assert excinfo.value.data == {"violations": ["query.end_date: '2024-02-30' is not a valid YYYY-MM-DD date"]}


def test_query_backed_summary_of_the_code_field_is_a_validation_error(ctx):
    with pytest.raises(ValidationError) as excinfo:
        _call_summary(ctx, {"query": Q1_ARGS, "summarize_fields": ["close", "code"]})
    assert excinfo.value.data["violations"][0] == "records[0].code: expected number or null"


@pytest.mark.parametrize(
    "summarize_fields",
    [["close", "volume"], ["turn", "code", "close", "timestamp"], ["timestamp", "timestamp"], ["high", "volume", "high"]],
)
def test_query_backed_summary_equals_the_summary_of_its_records_inline(ctx, summarize_fields):
    # server-built records are checked per field name, inline ones per cell; the
    # json text also pins volume's min and max as floats on both paths
    query = dict(Q1_ARGS, fields=["close", "volume", "turn"], options="Fill=Blank")
    records = list(tool_get_historical_data(_validated("tool_get_historical_data", query), ctx).content["records"])

    def summary_json(arguments):
        try:
            out = _call_summary(ctx, dict(arguments, summarize_fields=summarize_fields)).content
        except ValidationError as exc:
            out = exc.data
        return json.dumps(out)

    assert summary_json({"query": query}) == summary_json({"records": records})


def test_non_numeric_record_values_are_rejected(ctx):
    records = [{"code": "A", "timestamp": "t", "close": "180.50"}]
    with pytest.raises(ValidationError) as excinfo:
        _call_summary(ctx, {"records": records, "summarize_fields": ["close"]})
    assert "records[0].close" in excinfo.value.data["violations"][0]


def test_a_repeated_summarize_field_repeats_its_violations_and_its_entry(ctx):
    bad = [{"code": "A", "timestamp": "t", "close": "x", "turn": True}, {"code": "A", "timestamp": "t", "close": "y"}]
    with pytest.raises(ValidationError) as excinfo:
        _call_summary(ctx, {"records": bad, "summarize_fields": ["close", "turn", "close"]})
    assert excinfo.value.data == {"violations": [
        "records[0].close: expected number or null",
        "records[0].turn: expected number or null",
        "records[0].close: expected number or null",
        "records[1].close: expected number or null",
        "records[1].close: expected number or null",
    ]}
    records = [{"code": "A", "timestamp": "t", "close": 1.0}, {"code": "A", "timestamp": "t", "close": 3.0}]
    result = _call_summary(ctx, {"records": records, "summarize_fields": ["close", "turn", "close"]})
    close = {"field": "close", "count": 2, "mean": 2.0, "min": 1.0, "max": 3.0, "stddev": 1.0}
    assert result.content["summaries"] == [close, {"field": "turn", "error": "no non-null values"}, close]


@pytest.mark.parametrize(
    "closes", [[1e308, 1e308], [1e308, -1e308]], ids=["sum-overflows", "variance-overflows"]
)
def test_overflowing_statistics_get_a_per_field_error(ctx, closes):
    records = [
        {"code": "A", "timestamp": f"2024-01-0{i + 1} 15:00:00", "close": c, "turn": float(i)}
        for i, c in enumerate(closes)
    ]
    result = _call_summary(ctx, {"records": records, "summarize_fields": ["close", "turn"]})
    assert not result.is_error
    by_field = {s["field"]: s for s in result.content["summaries"]}
    assert by_field["close"] == {"field": "close", "error": "statistics overflow a double"}
    assert by_field["turn"]["mean"] == 0.5


def test_a_difference_from_the_mean_past_the_largest_double_overflows():
    # 1.7e308 - mean overflows to inf, whose square raises nothing; the next value's square does
    with pytest.raises(OverflowError):
        compute_stats("close", [1.7e308, -1.7e308, -1.7e308])


def test_integer_beyond_the_largest_double_is_a_validation_error(ctx):
    records = [{"code": "A", "timestamp": "t", "close": 10**400}, {"code": "A", "timestamp": "t", "close": 1}]
    with pytest.raises(ValidationError) as excinfo:
        _call_summary(ctx, {"records": records, "summarize_fields": ["close"]})
    assert excinfo.value.data == {"violations": ["records[0].close: integer beyond the largest double"]}


def test_summary_over_failing_provider_is_a_tool_error():
    http = HttpProvider(
        id="alpha",
        base_url_template="http://127.0.0.1:9/q?code={code}",
        timeout_ms=300,
        rate=RateSpec(1000, 1000.0),
    )
    ctx = make_ctx(providers={"alpha": http})
    result = _call_summary(ctx, {"query": dict(Q1_ARGS), "summarize_fields": ["close"]})
    assert result.is_error and result.content["error_kind"] == "provider_failure"


# --- grounding -------------------------------------------------------------------


def test_every_tool_result_number_traces_to_the_provider_payload(ctx):
    """The tool layer never fabricates numeric values."""
    result = _call_historical(ctx)
    content = result.content
    days = weekdays_oracle(dt.date(2024, 1, 1), dt.date(2024, 3, 31))
    payload_numbers = {
        synthetic_value_oracle("300750.SZ", field, day, 0)
        for field in ("close", "pb_lf", "turn")
        for day in days
    }
    documented = payload_numbers | {len(content["records"])}

    def walk(value):
        if isinstance(value, bool) or value is None:
            return
        if isinstance(value, (int, float)):
            assert value in documented, f"untraceable number {value!r}"
        elif isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)

    walk(content["records"])
    walk(content["meta"]["row_count"])

    summary = _call_summary(ctx, {"query": Q1_ARGS, "summarize_fields": ["close"]})
    closes = sorted(
        synthetic_value_oracle("300750.SZ", "close", day, 0) for day in days
    )
    stats = summary.content["summaries"][0]
    assert stats["min"] == closes[0] and stats["max"] == closes[-1]
    assert abs(stats["mean"] - mean_oracle(closes)) <= 1e-9
    recomputed_std = math.sqrt(mean_oracle([(c - stats["mean"]) ** 2 for c in closes]))
    assert abs(stats["stddev"] - recomputed_std) <= 1e-9
