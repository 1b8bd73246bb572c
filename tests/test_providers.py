"""Adapters: trading calendar, synthetic determinism, csv and http fetching."""

from __future__ import annotations

import datetime as dt
import json
import math
import random
import subprocess
import sys
import threading
import time
from urllib.parse import parse_qs, urlsplit

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import fnv1a64_oracle, scaled_value_oracle, synthetic_value_oracle, weekdays_oracle
from stub_provider import stub_rows_server

from quantmcp.errors import ConfigError, CredentialMissing, ProviderFailure, ValidationError
from quantmcp.normalize import OptionsMap, Records, normalize_payload
from quantmcp import providers
from quantmcp.providers import (
    CANONICAL_FIELDS,
    FNV_PRIME,
    CsvProvider,
    DataQuery,
    HttpProvider,
    ProviderConfig,
    RateSpec,
    RawProviderPayload,
    SyntheticProvider,
    fetch_historical,
    fnv1a64,
    synthetic_value,
)
from quantmcp.registry import ParamSpec, ToolDescriptor, ValidatedArgs
from quantmcp.security import CredentialStore, RateDecision

from conftest import DATA_DIR, GOLDEN_DIR, REPO_ROOT, TESTS_DIR, src_env

EMPTY_STORE = CredentialStore({})

Q1_2024 = (dt.date(2024, 1, 1), dt.date(2024, 3, 31))


def _query(**overrides) -> DataQuery:
    base = dict(
        codes=["300750.SZ"],
        fields=["close", "pb_lf", "turn"],
        start_date=Q1_2024[0],
        end_date=Q1_2024[1],
    )
    base.update(overrides)
    return DataQuery(**base)


# --- trading calendar ---------------------------------------------------------


def test_first_week_of_2024_is_monday_through_friday():
    days = _query(start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 7)).days
    assert days == [dt.date(2024, 1, d) for d in range(1, 6)]


def test_weekend_only_range_is_empty():
    assert _query(start_date=dt.date(2024, 1, 6), end_date=dt.date(2024, 1, 7)).days == []


def test_q1_2024_has_65_trading_days():
    days = _query().days
    assert len(days) == 65
    assert days == weekdays_oracle(*Q1_2024)


def test_random_ranges_match_the_enumeration_oracle():
    rng = random.Random(20240101)
    for _ in range(50):
        start = dt.date(2020, 1, 1) + dt.timedelta(days=rng.randrange(2000))
        end = start + dt.timedelta(days=rng.randrange(90))
        assert _query(start_date=start, end_date=end).days == weekdays_oracle(start, end)


def test_inverted_range_is_a_validation_error():
    with pytest.raises(ValidationError) as excinfo:
        _query(start_date=dt.date(2024, 1, 2), end_date=dt.date(2024, 1, 1)).check()
    assert excinfo.value.data == {"violations": ["start_date: must not be after end_date"]}


@settings(max_examples=200, deadline=None)
@given(start=st.dates(), span=st.integers(0, 800))
def test_trading_days_and_the_month_slices_match_the_oracle_on_any_range(start, span):
    end = start + dt.timedelta(days=min(span, (dt.date.max - start).days))  # clipped at date.max
    expected = weekdays_oracle(start, end)
    query = _query(start_date=start, end_date=end)
    assert [day for (days, _, _), i, j in query.months for day in days[i:j]] == expected == query.days
    for (days, isos, head), _, _ in query.months:
        assert list(isos) == [day.isoformat() for day in days]
        assert {head} == {day.isoformat()[:8].encode() for day in days}


def test_the_month_memo_stays_bounded_over_more_months_than_it_holds():
    start, end = dt.date(1800, 1, 1), dt.date(1905, 12, 31)  # 1,272 months
    query = _query(start_date=start, end_date=end)
    assert len(query.months) == 1_272
    assert providers._month.cache_info().currsize <= 1_200
    assert query.days == weekdays_oracle(start, end)
    january = _query(start_date=start, end_date=dt.date(1800, 1, 31))
    assert january.days == weekdays_oracle(start, dt.date(1800, 1, 31))  # evicted, rebuilt


# --- synthetic values ---------------------------------------------------------


def test_fnv1a64_matches_reference_constants():
    assert fnv1a64(b"") == 14695981039346656037
    assert fnv1a64(b"a") == fnv1a64_oracle(b"a")
    assert fnv1a64("300750.SZ|close|2024-01-02|0".encode()) == fnv1a64_oracle(
        "300750.SZ|close|2024-01-02|0".encode()
    )


def test_fnv1a64_folds_on_from_a_prefix_state():
    for prefix, suffix in [(b"", b""), (b"300750.SZ|close|", b"2024-01-02|0"), ("贵州|turn|".encode(), b"x")]:
        assert fnv1a64(suffix, fnv1a64(prefix)) == fnv1a64_oracle(prefix + suffix)


_ASCII = st.binary(max_size=24).map(lambda raw: bytes(b & 127 for b in raw))


@settings(max_examples=200, deadline=None)
@given(h=st.integers(0, 2**64 - 1), prefix=st.binary(max_size=12), tail=_ASCII)
def test_a_tail_folds_by_one_table_lookup_from_any_state(h, prefix, tail):
    def fold(state: int) -> int:
        table = providers._tail_table(tail)
        return (state * FNV_PRIME ** len(tail) + table[state & 127]) % 2**64

    assert fold(h) == fnv1a64(tail, h)
    assert fold(fnv1a64(prefix)) == fnv1a64_oracle(prefix + tail)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_every_tail_byte_is_ascii(seed):
    assert all(b < 128 for day in range(1, 32) for b in b"%02d|%d" % (day, seed))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_each_day_tail_folds_from_every_low_byte_by_its_128_entry_table(seed):
    config = SyntheticProvider(id="synth", seed=seed)
    step = FNV_PRIME ** len(b"01|%d" % seed)
    for day, table in enumerate(config.tail_tables, 1):
        tail = b"%02d|%d" % (day, seed)
        assert len(table) == 128
        for lo in range(256):
            h = (0x9E3779B97F4A7C15 << 8 | lo) % 2**64  # high bits set, so the fold is not trivially small
            assert (h * step + table[h & 127]) % 2**64 == fnv1a64(tail, h), (day, lo)


def test_synthetic_values_match_the_committed_golden_file():
    cases = json.loads((GOLDEN_DIR / "synthetic_values.json").read_text())
    assert len(cases) >= 100
    for case in cases:
        day = dt.date.fromisoformat(case["day"])
        got = synthetic_value(case["code"], case["field"], day, case["seed"])
        assert got == case["value"], case
        # the golden file itself was produced by the independent oracle
        assert synthetic_value_oracle(case["code"], case["field"], day, case["seed"]) == case["value"]


_ENDS = [*range(1000), *range(999_000, 10**6)]
# Each rounding scaler's tie residues and their neighbours on either side: there the integer
# quotient and the tie fallback must agree with ``round`` of the float formula.
_NEAR_TIES = {
    "price": [k for m in range(0, 10**6, 100) for k in (m + 49, m + 50, m + 51)],
    "pb_lf": [k for k in range(10**6) if 9 * k % 1000 in (499, 500, 501)],
    "turn": [k for m in range(0, 10**6, 10) for k in (m + 4, m + 5, m + 6)],
}


def _assert_scaled_like_the_oracle(fields: tuple[str, ...], ks: list[int]) -> None:
    expected = list(map(scaled_value_oracle, [fields[0]] * len(ks), ks))  # one oracle formula for all ``fields``
    for f in fields:
        got = providers._SCALE[f](ks)
        assert got == expected, f
        assert set(map(type, got)) == set(map(type, expected)), f  # one type per field


@pytest.mark.parametrize(
    "fields, residues",
    [
        (("close", "open", "high", "low"), _NEAR_TIES["price"]),
        # ``volume`` rounds nothing; these hold 399 k whose 10**6 * (k / 10**6) falls below k
        (("volume",), _NEAR_TIES["price"] + _NEAR_TIES["pb_lf"]),
        (("pb_lf",), _NEAR_TIES["pb_lf"]),
        (("turn",), _NEAR_TIES["turn"]),
    ],
    ids=["prices", "volume", "pb_lf", "turn"],
)
def test_each_field_scales_its_near_tie_and_end_residues_like_the_oracle(fields, residues):
    _assert_scaled_like_the_oracle(fields, _ENDS + residues)


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(CANONICAL_FIELDS), ks=st.lists(st.integers(0, 10**6 - 1), min_size=1, max_size=40))
def test_each_field_scales_any_column_of_residues_like_the_oracle(field, ks):
    _assert_scaled_like_the_oracle((field,), ks)


def test_synthetic_is_deterministic():
    day = dt.date(2024, 1, 2)
    assert synthetic_value("300750.SZ", "close", day, 0) == synthetic_value(
        "300750.SZ", "close", day, 0
    )


def test_turn_stays_inside_its_range():
    for offset in range(30):
        day = dt.date(2024, 1, 1) + dt.timedelta(days=offset)
        assert 0 <= synthetic_value("300750.SZ", "turn", day, 0) < 10


def test_volume_is_an_integer():
    value = synthetic_value("300750.SZ", "volume", dt.date(2024, 1, 2), 0)
    assert isinstance(value, int)
    assert 0 <= value < 1_000_000


def test_unknown_field_is_rejected():
    with pytest.raises(ValidationError):
        synthetic_value("300750.SZ", "vwap", dt.date(2024, 1, 2), 0)


# --- synthetic fetch ----------------------------------------------------------


def test_synthetic_fetch_covers_every_code_and_trading_day():
    config = SyntheticProvider(id="synth", seed=0)
    payload = fetch_historical(config, _query(), EMPTY_STORE)
    columns = payload.rows["300750.SZ"]
    assert [len(columns[f]) for f in ("close", "pb_lf", "turn")] == [65, 65, 65]
    assert all(v is not None for f in ("close", "pb_lf", "turn") for v in columns[f])


def test_synthetic_row_count_law_over_random_queries():
    config = SyntheticProvider(id="synth", seed=3)
    rng = random.Random(7)
    for _ in range(25):
        n_codes = rng.randrange(1, 4)
        codes = [f"C{rng.randrange(100):02d}.SZ" for _ in range(n_codes)]
        start = dt.date(2024, 1, 1) + dt.timedelta(days=rng.randrange(200))
        end = start + dt.timedelta(days=rng.randrange(30))
        query = _query(codes=sorted(set(codes)), start_date=start, end_date=end)
        payload = fetch_historical(config, query, EMPTY_STORE)
        rows = sum(len(columns["close"]) for columns in payload.rows.values())
        assert rows == len(query.codes) * len(query.days)
        assert {len(col) for columns in payload.rows.values() for col in columns.values()} == {rows // len(query.codes)}


def test_synthetic_fetch_is_pure_given_seed_and_query():
    config = SyntheticProvider(id="synth", seed=11)
    first = fetch_historical(config, _query(), EMPTY_STORE)
    second = fetch_historical(config, _query(), EMPTY_STORE)
    assert first.rows == second.rows


def _assert_synthetic_cells(rows, query: DataQuery, seed: int) -> None:
    """Every (code, field, trading day) of ``query`` in order, each equal to ``synthetic_value`` and the oracle."""
    days = query.days
    assert list(rows) == query.codes
    for code, by_field in rows.items():
        assert list(by_field) == query.fields
        for f, column in by_field.items():
            assert len(column) == len(days)
            for day, got in zip(days, column):
                expected = synthetic_value(code, f, day, seed)
                assert got == expected and type(got) is type(expected), (code, f, day)
                oracle = synthetic_value_oracle(code, f, day, seed)
                assert got == oracle and type(got) is type(oracle), (code, f, day)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_synthetic_fetch_equals_synthetic_value_cell_by_cell(seed):
    field_map = {"close": "CLOSE", "turn": "turnover_rate"}
    config = SyntheticProvider(id="synth", seed=seed, field_map=field_map)
    codes = ["300750.SZ", "600519.SH", "贵州茅台", "A"]
    fields = list(reversed(CANONICAL_FIELDS))
    query = _query(codes=codes, fields=fields, start_date=dt.date(2023, 12, 20), end_date=dt.date(2024, 2, 5))
    _assert_synthetic_cells(fetch_historical(config, query, EMPTY_STORE).rows, query, seed)


_CODES = st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3, unique=True)
# Synthetic rows ignore field_map; these maps rename, swap and merge columns.
_FIELD_MAPS = st.dictionaries(
    st.sampled_from(CANONICAL_FIELDS), st.sampled_from([*CANONICAL_FIELDS, "PX", "code", "date"])
)
_FIELDS = st.permutations(CANONICAL_FIELDS).flatmap(lambda p: st.integers(1, 7).map(lambda n: list(p[:n])))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    codes=_CODES,
    fields=_FIELDS,
    field_map=_FIELD_MAPS,
    first_of_month=st.dates(dt.date(1999, 1, 1), dt.date(2031, 12, 1)).map(lambda d: d.replace(day=1)),
    back=st.integers(0, 40),
    forward=st.integers(0, 40),
)
def test_synthetic_fetch_equals_synthetic_value_for_generated_queries(
    seed, codes, fields, field_map, first_of_month, back, forward
):
    # the range runs from ``back`` days before a first of month (January
    # crosses a year end) to ``forward`` days after it
    config = SyntheticProvider(id="synth", seed=seed, field_map=field_map)
    start = first_of_month - dt.timedelta(days=back)
    end = first_of_month + dt.timedelta(days=forward)
    query = _query(codes=codes, fields=fields, start_date=start, end_date=end)
    _assert_synthetic_cells(fetch_historical(config, query, EMPTY_STORE).rows, query, seed)


def test_the_tail_cache_holds_one_table_per_day_of_the_month_for_a_seed():
    seed = 987_654_321
    config = SyntheticProvider(id="synth", seed=seed)
    for start, end in [(dt.date(2019, 1, 1), dt.date(2023, 12, 31)), (dt.date(2020, 2, 3), dt.date(2020, 7, 9))]:
        fetch_historical(config, _query(fields=["close"], start_date=start, end_date=end), EMPTY_STORE)
        tables = config.__dict__["tail_tables"]  # the fetch left them cached on the config
        assert config.tail_tables is tables
        assert tables == [providers._tail_table(b"%02d|%d" % (day, seed)) for day in range(1, 32)]


def test_threads_racing_to_build_the_tail_tables_all_get_the_reference_values():
    seed = 123_456_789_012  # a fresh config, so these threads race to build its tables
    config = SyntheticProvider(id="synth", seed=seed)
    query = _query(
        codes=["A", "B"], fields=["close", "volume"], start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 2, 29)
    )
    results = [None] * 6

    def fetch(i: int) -> None:
        results[i] = fetch_historical(config, query, EMPTY_STORE).rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for rows in results:
        _assert_synthetic_cells(rows, query, seed)


def test_query_validation_reports_unknown_fields():
    config = SyntheticProvider(id="synth")
    with pytest.raises(ValidationError) as excinfo:
        fetch_historical(config, _query(fields=["close", "vwap"]), EMPTY_STORE)
    assert any("vwap" in v for v in excinfo.value.data["violations"])


# --- csv ------------------------------------------------------------------


def _csv_config(path) -> ProviderConfig:
    return CsvProvider(id="wind_export", csv_path=str(path))


def test_csv_filters_to_matching_rows():
    config = _csv_config(DATA_DIR / "catl_daily_sample.csv")
    query = _query(
        fields=["close"], start_date=dt.date(2024, 1, 2), end_date=dt.date(2024, 1, 2)
    )
    payload = fetch_historical(config, query, EMPTY_STORE)
    assert payload.rows == {"300750.SZ": {"close": [180.5]}}


def test_csv_missing_column_is_a_provider_failure(tmp_path):
    path = tmp_path / "partial.csv"
    path.write_text("code,date,close\nA,2024-01-02,1.0\n")
    with pytest.raises(ProviderFailure) as excinfo:
        fetch_historical(_csv_config(path), _query(codes=["A"], fields=["turn"]), EMPTY_STORE)
    assert excinfo.value.data["missing_column"] == "turn"


def test_csv_empty_cells_become_null(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("code,date,close\nA,2024-01-02,\nA,2024-01-03,9.5\n")
    query = _query(codes=["A"], fields=["close"], start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 5))
    payload = fetch_historical(_csv_config(path), query, EMPTY_STORE)
    close = dict(zip(query.days, payload.rows["A"]["close"]))
    assert close[dt.date(2024, 1, 2)] is None
    assert close[dt.date(2024, 1, 3)] == 9.5


def test_csv_later_duplicate_row_wins(tmp_path):
    path = tmp_path / "dupes.csv"
    path.write_text("code,date,close\nA,2024-01-02,1.0\nB,2024-01-02,5.0\nA,2024-01-02,2.0\n")
    query = _query(codes=["A"], fields=["close"], start_date=dt.date(2024, 1, 2), end_date=dt.date(2024, 1, 2))
    rows = fetch_historical(_csv_config(path), query, EMPTY_STORE).rows
    assert rows == {"A": {"close": [2.0]}}


def test_provider_field_names_are_renamed_to_canonical(tmp_path):
    path = tmp_path / "renamed.csv"
    path.write_text("code,date,PB_LF_RAW\n300750.SZ,2024-01-02,5.5\n")
    config = CsvProvider(id="x", csv_path=str(path), field_map={"pb_lf": "PB_LF_RAW"})
    query = _query(fields=["pb_lf"], start_date=dt.date(2024, 1, 2), end_date=dt.date(2024, 1, 2))
    raw = fetch_historical(config, query, EMPTY_STORE)
    assert raw.rows == {"300750.SZ": {"pb_lf": [5.5]}}
    records = normalize_payload(raw, query, dt.time(15, 0, 0))
    assert {k: v for k, v in records[0].items() if k not in ("code", "timestamp")} == {"pb_lf": 5.5}
    assert records[0] == {
        "code": "300750.SZ",
        "timestamp": "2024-01-02 15:00:00",
        "pb_lf": 5.5,
    }


def test_csv_non_numeric_cell_is_a_provider_failure(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("code,date,close\nA,2024-01-02,n/a\n")
    with pytest.raises(ProviderFailure):
        fetch_historical(_csv_config(path), _query(codes=["A"], fields=["close"]), EMPTY_STORE)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_cell_is_a_schema_failure(tmp_path, cell):
    path = tmp_path / "non_finite.csv"
    path.write_text(f"code,date,close\nA,2024-01-02,{cell}\n")
    with pytest.raises(ProviderFailure) as excinfo:
        fetch_historical(_csv_config(path), _query(codes=["A"], fields=["close"]), EMPTY_STORE)
    assert excinfo.value.data == {"reason": "schema", "column": "close"}


def test_csv_config_requires_a_readable_file(tmp_path):
    with pytest.raises(ConfigError, match="csv_path"):
        CsvProvider(id="x", csv_path=str(tmp_path / "absent.csv")).check()


# --- http -----------------------------------------------------------------


def _http_config(base_url: str, **overrides) -> ProviderConfig:
    params = dict(
        id="alpha",
        base_url_template=base_url + "/query?code={code}&fields={field}&start={start}&end={end}",
        timeout_ms=2000,
    )
    params.update(overrides)
    return HttpProvider(**params)


def test_http_payload_matches_the_stub_fixture():
    fixture = [
        {"code": "300750.SZ", "date": "2024-01-02", "close": 180.5, "pb_lf": 5.1, "turn": 1.23},
        {"code": "300750.SZ", "date": "2024-01-03", "close": 181.0, "pb_lf": None},
    ]
    with stub_rows_server(fixture) as (base_url, state):
        query = _query(start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 5))
        payload = fetch_historical(_http_config(base_url), query, EMPTY_STORE)
    # one value per day 2024-01-01 .. 2024-01-05; a field the row lacks is None
    assert payload.rows == {
        "300750.SZ": {
            "close": [None, 180.5, 181.0, None, None],
            "pb_lf": [None, 5.1, None, None, None],
            "turn": [None, 1.23, None, None, None],
        }
    }
    assert state.requests and "code=300750.SZ" in state.requests[0]


_LAZY_IMPORTS_CHILD = """
import io, json, sys
before = set(sys.modules)
from quantmcp import cli, providers

call = {"name": "tool_get_historical_data", "arguments": {
    "codes": ["300750.SZ"], "fields": ["close"], "start_date": "2024-01-01", "end_date": "2024-01-31"}}
frames = [{"jsonrpc": "2.0", "id": 1, "method": "initialize"},
          {"jsonrpc": "2.0", "id": 2, "method": "tools/call", "params": call}]
sys.stdin = io.StringIO("".join(json.dumps(f) + "\\n" for f in frames))
sys.stdout = io.StringIO()
code = cli.main(["serve", "--config", sys.argv[1]])
served, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
watched = ("requests", "concurrent.futures", "dataclasses", "inspect")
by_session = [name for name in watched if name in set(sys.modules) - before]

import datetime as dt
from quantmcp.security import CredentialStore
from stub_provider import stub_rows_server
with stub_rows_server([{"code": "A", "date": "2024-01-02", "close": 1.5}]) as (base_url, _):
    config = providers.HttpProvider(id="h", base_url_template=base_url + "/q?code={code}")
    query = providers.DataQuery(["A"], ["close"], dt.date(2024, 1, 1), dt.date(2024, 1, 5))
    before_fetch = set(sys.modules)
    rows = providers.fetch_historical(config, query, CredentialStore({})).rows
by_fetch = [name for name in watched if name in set(sys.modules) - before_fetch]
print(json.dumps({"exit": code, "ids": [json.loads(line)["id"] for line in served.splitlines()],
                  "by_session": by_session, "by_fetch": by_fetch,
                  "close": [v for v in rows["A"]["close"] if v is not None],
                  "resolvable": providers.requests is sys.modules["requests"]}))
"""


def test_a_synthetic_session_loads_no_dataclasses_and_the_first_http_fetch_loads_requests_and_the_pool():
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORTS_CHILD, str(REPO_ROOT / "configs" / "synthetic.conf")],
        capture_output=True, text=True, timeout=60, env=src_env(str(TESTS_DIR)),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out == {
        "exit": 0, "ids": [1, 2], "by_session": [], "by_fetch": ["requests", "concurrent.futures"],
        "close": [1.5], "resolvable": True,
    }


def test_http_issues_one_request_per_code():
    with stub_rows_server([]) as (base_url, state):
        query = _query(codes=["A.SZ", "B.SZ", "C.SZ"], start_date=dt.date(2024, 1, 2), end_date=dt.date(2024, 1, 2))
        fetch_historical(_http_config(base_url), query, EMPTY_STORE)
    assert len(state.requests) == 3


def test_http_non_finite_value_is_a_schema_failure():
    fixture = [{"code": "300750.SZ", "date": "2024-01-02", "close": math.nan}]
    with stub_rows_server(fixture) as (base_url, _):
        query = _query(fields=["close"], start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 5))
        with pytest.raises(ProviderFailure) as excinfo:
            fetch_historical(_http_config(base_url), query, EMPTY_STORE)
    assert excinfo.value.data == {"reason": "schema", "column": "close"}


@pytest.mark.parametrize("sign", [1, -1])
def test_http_integer_past_the_largest_double_is_a_schema_failure(sign):
    fixture = [{"code": "300750.SZ", "date": "2024-01-02", "close": sign * 10**400}]
    with stub_rows_server(fixture) as (base_url, _):
        query = _query(fields=["close"], start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 5))
        with pytest.raises(ProviderFailure) as excinfo:
            fetch_historical(_http_config(base_url), query, EMPTY_STORE)
    assert excinfo.value.data == {"reason": "schema", "column": "close"}


def test_http_non_2xx_is_a_provider_failure_with_status():
    with stub_rows_server([], status=503) as (base_url, _):
        with pytest.raises(ProviderFailure) as excinfo:
            fetch_historical(_http_config(base_url), _query(), EMPTY_STORE)
    assert excinfo.value.data["status"] == 503


def test_http_timeout_is_reported_as_timeout():
    with stub_rows_server([], delay_s=0.5) as (base_url, _):
        with pytest.raises(ProviderFailure) as excinfo:
            fetch_historical(_http_config(base_url, timeout_ms=50), _query(), EMPTY_STORE)
    assert excinfo.value.data == {"timeout": True}


def test_http_requires_resolvable_credential_for_apikey_templates():
    template = _http_config("http://127.0.0.1:9").base_url_template + "&apikey={apikey}"
    config = _http_config("http://127.0.0.1:9", credential_ref="alpha", base_url_template=template)
    with pytest.raises(CredentialMissing):
        fetch_historical(config, _query(), EMPTY_STORE)


def test_http_rows_outside_the_range_are_dropped():
    fixture = [
        {"code": "300750.SZ", "date": "2023-12-29", "close": 170.0},
        {"code": "300750.SZ", "date": "2024-01-02", "close": 180.5},
    ]
    with stub_rows_server(fixture) as (base_url, _):
        query = _query(fields=["close"], start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 5))
        payload = fetch_historical(_http_config(base_url), query, EMPTY_STORE)
    assert payload.rows["300750.SZ"] == {"close": [None, 180.5, None, None, None]}


def test_http_never_retries_more_than_configured(monkeypatch):
    attempts = []

    def refuse(url, timeout):
        attempts.append(url)
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "get", refuse)
    config = _http_config("http://127.0.0.1:9", retries=2)
    with pytest.raises(ProviderFailure):
        fetch_historical(config, _query(), EMPTY_STORE)
    assert len(attempts) == 3  # 1 try + 2 retries

    attempts.clear()
    with pytest.raises(ProviderFailure):
        fetch_historical(_http_config("http://127.0.0.1:9"), _query(), EMPTY_STORE)
    assert len(attempts) == 1


class _FakeResponse:
    def __init__(self, status_code: int, rows: list[dict]):
        self.status_code = status_code
        self._rows = rows

    def json(self):
        return {"rows": self._rows}


def _code_of(url: str) -> str:
    return parse_qs(urlsplit(url).query)["code"][0]


def test_http_fan_out_merges_in_query_order_with_bounded_concurrency(monkeypatch):
    codes = [f"C{i:02d}.SZ" for i in range(12)]
    lock = threading.Lock()
    in_flight = [0]
    peak = [0]

    def fake_get(url, timeout):
        code = _code_of(url)
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        try:
            time.sleep(0.01 + 0.005 * (len(codes) - codes.index(code)))  # later codes answer sooner
            return _FakeResponse(200, [{"code": code, "date": "2024-01-02", "close": 1.0}])
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(requests, "get", fake_get)
    query = _query(codes=codes, fields=["close"], start_date=dt.date(2024, 1, 2), end_date=dt.date(2024, 1, 2))
    payload = fetch_historical(_http_config("http://stub.invalid"), query, EMPTY_STORE)
    merged = [(code, columns) for code, columns in payload.rows.items()]
    assert merged == [(c, {"close": [1.0]}) for c in codes]
    assert 1 < peak[0] <= 8


def test_http_shared_row_goes_to_the_later_code_in_query_order(monkeypatch):
    # A's slow answer also carries a row for B; B's own GET answers first but merges later
    def fake_get(url, timeout):
        if _code_of(url) == "A.SZ":
            time.sleep(0.1)
            return _FakeResponse(200, [{"code": "B.SZ", "date": "2024-01-02", "close": 1.0}])
        return _FakeResponse(200, [{"code": "B.SZ", "date": "2024-01-02", "close": 2.0}])

    monkeypatch.setattr(requests, "get", fake_get)
    day = dt.date(2024, 1, 2)
    query = _query(codes=["A.SZ", "B.SZ"], fields=["close"], start_date=day, end_date=day)
    payload = fetch_historical(_http_config("http://stub.invalid"), query, EMPTY_STORE)
    assert payload.rows == {"A.SZ": {"close": [None]}, "B.SZ": {"close": [2.0]}}


def test_http_substitutes_each_code_as_one_encoded_query_value():
    codes = ["X&key=attacker#", "贵州茅台", "300750.SZ"]
    with stub_rows_server([]) as (base_url, state):
        template = base_url + "/q?code={code}&key={apikey}"
        config = HttpProvider(id="alpha", base_url_template=template)
        fetch_historical(config, _query(codes=codes), CredentialStore({"alpha": "SECRET"}))
    sent = [parse_qs(urlsplit(path).query) for path in state.requests]
    assert sorted(q["code"][0] for q in sent) == sorted(codes)
    assert all(q == {"code": q["code"], "key": ["SECRET"]} for q in sent)
    assert "/q?code=300750.SZ&key=SECRET" in state.requests


# (code, date, CLOSE, PB, turn); the provider calls close CLOSE and pb_lf PB,
# and also serves a decoy "close" column. C is a code no query asks for.
_RENAMED_CELLS = [
    ("A", "2024-01-02", 1.5, 2.5, 0.5),
    ("B", "2024-01-03", 3.5, 4.5, 0.25),
    ("C", "2024-01-02", 9.0, 9.0, 9.0),
]


@pytest.mark.parametrize("kind", ["synthetic", "csv", "http"])
def test_rows_are_keyed_by_query_code_then_date_with_exactly_the_query_fields(kind, tmp_path):
    field_map = {"close": "CLOSE", "pb_lf": "PB"}
    query = _query(codes=["B", "A"], fields=["pb_lf", "turn", "close"],
                   start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 5))
    path = tmp_path / "renamed.csv"
    path.write_text("date,turn,CLOSE,code,PB,close\n" + "".join(
        f"{day},{turn},{close},{code},{pb},-1\n" for code, day, close, pb, turn in _RENAMED_CELLS))
    fixture = [{"code": code, "date": day, "CLOSE": close, "PB": pb, "turn": turn, "close": -1}
               for code, day, close, pb, turn in _RENAMED_CELLS]
    with stub_rows_server(fixture) as (base_url, _):
        config = {
            "synthetic": SyntheticProvider(id="s", field_map=field_map),
            "csv": CsvProvider(id="c", csv_path=str(path), field_map=field_map),
            "http": _http_config(base_url, field_map=field_map),
        }[kind]
        payload = fetch_historical(config, query, EMPTY_STORE)
    assert list(payload.rows) == query.codes
    assert all(list(columns) == query.fields for columns in payload.rows.values())
    if kind == "synthetic":
        _assert_synthetic_cells(payload.rows, query, 0)
    else:  # one value per day 2024-01-01 .. 2024-01-05
        assert payload.rows == {
            "B": {"pb_lf": [None, None, 4.5, None, None], "turn": [None, None, 0.25, None, None],
                  "close": [None, None, 3.5, None, None]},
            "A": {"pb_lf": [None, 2.5, None, None, None], "turn": [None, 0.5, None, None, None],
                  "close": [None, 1.5, None, None, None]},
        }


# (code, date, close, turn) in source order, for the query A and B over 2024-01-01 .. 2024-01-08:
# A's 01-02 row comes twice, the later wins; Saturday 01-06 is inside the range but no trading day;
# 12-29 is out of range, so its bad cell is never read; A's 01-03 lacks turn; Z is asked for by no query.
_CONTRACT_ROWS = [
    ("A", "2024-01-02", 1.0, 0.1),
    ("A", "2024-01-02", 2.0, 0.2),
    ("A", "2024-01-06", 6.0, 0.6),
    ("A", "2023-12-29", "n/a", 0.9),
    ("A", "2024-01-03", 3.0, None),
    ("Z", "2024-01-04", 9.0, 0.4),
]


@pytest.mark.parametrize("kind", ["csv", "http"])
def test_csv_and_http_lay_their_rows_out_as_one_column_per_field_over_the_trading_days(kind, tmp_path):
    query = _query(codes=["A", "B"], fields=["close", "turn"], start_date=dt.date(2024, 1, 1),
                   end_date=dt.date(2024, 1, 8))
    path = tmp_path / "contract.csv"
    path.write_text("code,date,close,turn\n" + "".join(
        f"{code},{day},{close},{'' if turn is None else turn}\n" for code, day, close, turn in _CONTRACT_ROWS))
    fixture = [{"code": code, "date": day, "close": close, **({} if turn is None else {"turn": turn})}
               for code, day, close, turn in _CONTRACT_ROWS]
    with stub_rows_server(fixture) as (base_url, _):
        config = _csv_config(path) if kind == "csv" else _http_config(base_url)
        payload = fetch_historical(config, query, EMPTY_STORE)
    assert query.days == [dt.date(2024, 1, d) for d in (1, 2, 3, 4, 5, 8)]
    assert payload.rows == {
        "A": {"close": [None, 2.0, 3.0, None, None, None], "turn": [None, 0.2, None, None, None, None]},
        "B": {"close": [None] * 6, "turn": [None] * 6},
    }


@pytest.mark.parametrize("kind", ["csv", "http"])
def test_a_bad_cell_on_a_weekend_fails_no_query(kind, tmp_path):
    # Friday 01-05 holds a number; Saturday 01-06, inside the range but no trading day, holds a bad cell
    rows = [("A", "2024-01-05", 1.5), ("A", "2024-01-06", "n/a")]
    path = tmp_path / "weekend.csv"
    path.write_text("code,date,close\n" + "".join(f"{code},{day},{close}\n" for code, day, close in rows))
    fixture = [{"code": code, "date": day, "close": close} for code, day, close in rows]
    query = _query(codes=["A"], fields=["close"], start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 8))
    with stub_rows_server(fixture) as (base_url, state):
        config = _csv_config(path) if kind == "csv" else _http_config(base_url)
        assert fetch_historical(config, query, EMPTY_STORE).rows == {"A": {"close": [None] * 4 + [1.5, None]}}
        # every row's date (csv) and code (http) are still checked, so a bad one fails every query
        with path.open("a") as fh:
            fh.write("A,Sat 2024-01-06,1.0\n")
        state.rows = [*fixture, {"code": ["A"], "date": "2024-01-06", "close": 1.0}]
        with pytest.raises(ProviderFailure):
            fetch_historical(config, query, EMPTY_STORE)


def test_http_reports_the_first_failing_code_in_query_order(monkeypatch):
    def fake_get(url, timeout):
        code = _code_of(url)
        if code == "B.SZ":
            time.sleep(0.2)
            return _FakeResponse(503, [])
        if code == "D.SZ":
            return _FakeResponse(404, [])
        return _FakeResponse(200, [])

    monkeypatch.setattr(requests, "get", fake_get)
    query = _query(codes=["A.SZ", "B.SZ", "C.SZ", "D.SZ"])
    with pytest.raises(ProviderFailure) as excinfo:
        fetch_historical(_http_config("http://stub.invalid"), query, EMPTY_STORE)
    assert excinfo.value.data["status"] == 503


def test_http_reports_a_fast_failure_without_awaiting_slower_gets(monkeypatch):
    release = threading.Event()

    def fake_get(url, timeout):
        if _code_of(url) == "A.SZ":
            return _FakeResponse(404, [])
        release.wait(timeout=5.0)
        return _FakeResponse(200, [])

    monkeypatch.setattr(requests, "get", fake_get)
    query = _query(codes=["A.SZ", "B.SZ", "C.SZ"])
    started = time.monotonic()
    try:
        with pytest.raises(ProviderFailure) as excinfo:
            fetch_historical(_http_config("http://stub.invalid"), query, EMPTY_STORE)
        elapsed = time.monotonic() - started
    finally:
        release.set()
    assert excinfo.value.data["status"] == 404
    assert elapsed < 2.0


def test_http_template_with_unknown_placeholder_is_a_config_error():
    with pytest.raises(ConfigError, match="placeholder"):
        HttpProvider(id="x", base_url_template="http://h/{ticker}").check()


def test_rate_invariants_are_config_checked():
    with pytest.raises(ConfigError, match="rate_capacity"):
        SyntheticProvider(id="x", rate=RateSpec(capacity=0)).check()
    with pytest.raises(ConfigError, match="refill"):
        SyntheticProvider(id="x", rate=RateSpec(refill_per_sec=0.0)).check()


# --- immutable values -----------------------------------------------------------

_FROZEN_VALUES = {  # (a builder, one of its fields)
    "synthetic": (lambda: SyntheticProvider(id="s"), "seed"),
    "http": (lambda: HttpProvider(id="h", base_url_template="http://h/q?code={code}"), "base_url_template"),
    "csv": (lambda: CsvProvider(id="c", csv_path="rows.csv"), "csv_path"),
    "DataQuery": (_query, "codes"),
    "Records": (lambda: Records(("A",), ("2024-01-02",), " 15:00:00", ("close",), (([1.5],),)), "columns"),
    "RateSpec": (RateSpec, "capacity"),
    "OptionsMap": (OptionsMap, "entries"),
    "ParamSpec": (lambda: ParamSpec("string", "a string"), "required"),
    "ToolDescriptor": (lambda: ToolDescriptor("t", "a tool", {}), "params"),
    "ValidatedArgs": (lambda: ValidatedArgs("t"), "values"),
    "RawProviderPayload": (lambda: RawProviderPayload("p", {}, "t"), "rows"),
    "RateDecision": (lambda: RateDecision(True), "allowed"),
}


@pytest.mark.parametrize("make, field", _FROZEN_VALUES.values(), ids=_FROZEN_VALUES)
def test_assigning_to_an_attribute_of_a_frozen_value_raises(make, field):
    value = make()
    before = getattr(value, field)
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert getattr(value, field) is before and not hasattr(value, "not_a_field")
