"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Everything runs offline and deterministically (seeded RNGs, injected
clocks, local stubs). Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion report lines.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import random
import string
import time

import pytest

from conftest import FakeMonoClock, GOLDEN_DIR, DATA_DIR, REPO_ROOT, initialize, make_ctx
from oracle_utils import (
    BucketSimOracle,
    backfill_oracle,
    mean_oracle,
    synthetic_value_oracle,
    weekdays_oracle,
)

from quantmcp.cli import main as cli_main
from quantmcp.normalize import Records, apply_fill
from quantmcp.providers import HttpProvider, RateSpec, SyntheticProvider
from quantmcp.registry import ParamSpec
from quantmcp.security import RateLimiter, cache_key
from quantmcp.server import Dispatcher, StdioServer
from quantmcp.tools import HISTORICAL_DESCRIPTOR, build_registry
from quantmcp.transport import REQUEST, JsonRpcMessage, parse_message, serialize_message

SYNTH_CONF = str(REPO_ROOT / "configs" / "synthetic.conf")

Q1_ARGS = {
    "codes": ["300750.SZ"],
    "fields": ["close", "pb_lf", "turn"],
    "start_date": "2024-01-01",
    "end_date": "2024-03-31",
    "options": "PriceAdj=F;Fill=Previous",
}


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


def _call(dispatcher: Dispatcher, rid: int, tool: str, arguments: dict) -> JsonRpcMessage:
    return dispatcher.dispatch(
        JsonRpcMessage(REQUEST, id=rid, method="tools/call", params={"name": tool, "arguments": arguments})
    )


def test_criterion_01_golden_transcript_replays_with_zero_diffs(capsys):
    with criterion(1, "protocol conformance via golden transcript"):
        started = time.monotonic()
        rc = cli_main(["replay", str(GOLDEN_DIR / "transcript_q1_2024.jsonl"), "--config", SYNTH_CONF])
        elapsed = time.monotonic() - started
        report = capsys.readouterr().out
        assert rc == 0, report
        assert "replayed 4 frames: 4 passed, 0 failed" in report
        assert elapsed < 1.0, f"replay took {elapsed:.3f}s"


def test_criterion_02_summary_means_match_brute_force_recomputation():
    with criterion(2, "grounding oracle for close/turn means"):
        dispatcher = Dispatcher(build_registry(), make_ctx())
        initialize(dispatcher)
        response = _call(
            dispatcher, 2, "tool_compute_summary",
            {"query": Q1_ARGS, "summarize_fields": ["close", "turn"]},
        )
        summaries = {s["field"]: s for s in response.result["content"]["summaries"]}
        days = weekdays_oracle(dt.date(2024, 1, 1), dt.date(2024, 3, 31))
        for field in ("close", "turn"):
            brute = [synthetic_value_oracle("300750.SZ", field, day, 0) for day in days]
            assert summaries[field]["count"] == len(brute) == 65
            assert abs(summaries[field]["mean"] - mean_oracle(brute)) <= 1e-9


def test_criterion_03_row_count_law_over_200_random_queries():
    with criterion(3, "row-count law |codes| x |trading_days|"):
        rng = random.Random(20240331)
        dispatcher = Dispatcher(build_registry(), make_ctx())
        initialize(dispatcher)
        for i in range(200):
            n_codes = rng.randrange(1, 5)
            codes = sorted({f"C{rng.randrange(1000):03d}.SZ" for _ in range(n_codes)})
            start = dt.date(2023, 1, 1) + dt.timedelta(days=rng.randrange(500))
            end = start + dt.timedelta(days=rng.randrange(21))
            arguments = {
                "codes": codes,
                "fields": ["close"],
                "start_date": start.isoformat(),
                "end_date": end.isoformat(),
            }
            response = _call(dispatcher, i + 10, "tool_get_historical_data", arguments)
            records = response.result["content"]["records"]
            assert len(records) == len(codes) * len(weekdays_oracle(start, end))


def test_criterion_04_fill_matches_the_backward_scan_oracle():
    with criterion(4, "fill equivalence against O(n^2) oracle"):
        rng = random.Random(1234)
        day_pool = weekdays_oracle(dt.date(2023, 1, 2), dt.date(2023, 12, 29))
        for _ in range(500):
            length = rng.randrange(0, 30)
            values = [None if rng.random() < 0.4 else round(rng.uniform(1, 200), 2) for _ in range(length)]
            days = tuple(day.isoformat() for day in day_pool[:length])
            records = Records(("X",), days, " 15:00:00", ("close",), ((list(values),),))
            filled = apply_fill(records, "Previous")
            assert [r["close"] for r in filled] == backfill_oracle(values)
            blank = apply_fill(records, "Blank")
            assert blank == records


def test_criterion_05_redaction_fuzz_leaks_no_secret():
    with criterion(5, "redaction fuzz over frames and logs"):
        rng = random.Random(53)
        secrets = {
            "synth": "sk-" + "".join(rng.choices(string.ascii_letters + string.digits, k=28)),
            "alpha": "ak-" + "".join(rng.choices(string.ascii_letters + string.digits, k=28)),
            "beta": "bk-" + "".join(rng.choices(string.ascii_letters + string.digits, k=28)),
        }
        providers = {
            "synth": SyntheticProvider(id="synth", seed=1, rate=RateSpec(10**6, 10**6)),
            "alpha": HttpProvider(
                id="alpha",
                base_url_template="http://127.0.0.1:9/q?code={code}&apikey={apikey}",
                timeout_ms=200,
                rate=RateSpec(10**6, 10**6),
            ),
            "beta": HttpProvider(
                id="beta",
                base_url_template="http://127.0.0.1:9/data/{apikey}/{code}",
                timeout_ms=200,
                rate=RateSpec(10**6, 10**6),
            ),
        }
        ctx = make_ctx(providers=providers, default="synth", secrets=secrets)
        log: list[str] = []
        dispatcher = Dispatcher(build_registry(), ctx, log=log.append)

        out = io.StringIO()
        server = StdioServer(dispatcher, io.StringIO(), out)
        server.handle_line(json.dumps({"jsonrpc": "2.0", "id": 0, "method": "initialize"}))
        tools = ["tool_get_historical_data", "tool_get_quote", "tool_compute_summary", "nosuch"]
        day = dt.date(2024, 2, 5)
        for i in range(1000):
            roll = rng.random()
            if roll < 0.05:
                server.handle_line("garbage {" + rng.choice(secrets["alpha"]))
                continue
            tool = rng.choice(tools)
            provider = rng.choice(["synth", "alpha", "beta", "ghost"])
            start = day + dt.timedelta(days=rng.randrange(10))
            arguments: dict = {
                "codes": [rng.choice(["300750.SZ", "600000.SH", ""]) ],
                "fields": [rng.choice(["close", "turn", "bogus"])],
                "start_date": start.isoformat(),
                "end_date": (start + dt.timedelta(days=rng.randrange(4))).isoformat(),
                "provider_id": provider,
            }
            if rng.random() < 0.2:
                arguments.pop(rng.choice(list(arguments)))
            if rng.random() < 0.2:
                arguments["hallucinated"] = secrets["beta"]
            if tool == "tool_compute_summary":
                arguments = {"query": arguments, "summarize_fields": ["close"]}
            server.handle_line(
                json.dumps(
                    {"jsonrpc": "2.0", "id": i + 1, "method": "tools/call",
                     "params": {"name": tool, "arguments": arguments}}
                )
            )

        frames = out.getvalue()
        logs = "\n".join(log)
        assert frames.count("\n") >= 1000
        for secret in secrets.values():
            assert secret not in frames, "secret leaked into a wire frame"
            assert secret not in logs, "secret leaked into a log line"
        assert "***REDACTED***" in frames  # the scrubber actually fired


def test_criterion_06_rate_limit_burst_and_retry_after():
    with criterion(6, "token bucket burst then denial"):
        limiter = RateLimiter({"p": RateSpec(capacity=5, refill_per_sec=1.0)})
        oracle = BucketSimOracle(5, 1.0)
        clock = FakeMonoClock(100.0)
        decisions = [limiter.acquire("p", clock()) for _ in range(6)]
        expected = [oracle.step(clock()) for _ in range(6)]
        assert [d.allowed for d in decisions] == [True] * 5 + [False]
        assert [e[0] for e in expected] == [True] * 5 + [False]
        assert abs(decisions[5].retry_after_ms - expected[5][1] * 1000.0) <= 50


def test_criterion_07_cache_single_fetch_and_ttl_expiry():
    with criterion(7, "cache hit semantics and 5s live TTL"):
        mono = FakeMonoClock()
        ctx = make_ctx(mono=mono)
        fetches = []
        import quantmcp.tools as tools_mod

        real_fetch = tools_mod.fetch_historical

        def counting_fetch(*args, **kwargs):
            fetches.append(1)
            return real_fetch(*args, **kwargs)

        tools_mod.fetch_historical = counting_fetch
        try:
            dispatcher = Dispatcher(build_registry(), ctx)
            initialize(dispatcher)
            first = _call(dispatcher, 1, "tool_get_historical_data", Q1_ARGS)
            second = _call(dispatcher, 2, "tool_get_historical_data", Q1_ARGS)
            assert len(fetches) == 1, "second identical query must not refetch"
            assert first.result["content"]["meta"]["cache_hit"] is False
            assert second.result["content"]["meta"]["cache_hit"] is True

            # range touching "today" (fake wall clock pins today to 2024-06-03)
            live_args = dict(Q1_ARGS, start_date="2024-06-03", end_date="2024-06-03")
            _call(dispatcher, 3, "tool_get_historical_data", live_args)
            mono.advance(4.0)
            within = _call(dispatcher, 4, "tool_get_historical_data", live_args)
            assert within.result["content"]["meta"]["cache_hit"] is True
            mono.advance(2.0)  # now 6s after the store: past the 5s TTL
            expired = _call(dispatcher, 5, "tool_get_historical_data", live_args)
            assert expired.result["content"]["meta"]["cache_hit"] is False
            assert len(fetches) == 3
        finally:
            tools_mod.fetch_historical = real_fetch


def _conforming_arguments(rng: random.Random) -> dict:
    start = dt.date(2024, 1, 1) + dt.timedelta(days=rng.randrange(300))
    arguments = {
        "codes": [f"C{rng.randrange(100):02d}.SZ" for _ in range(rng.randrange(1, 4))],
        "fields": rng.sample(["close", "open", "high", "low", "volume", "pb_lf", "turn"], rng.randrange(1, 4)),
        "start_date": start.isoformat(),
        "end_date": (start + dt.timedelta(days=rng.randrange(14))).isoformat(),
    }
    if rng.random() < 0.5:
        arguments["options"] = rng.choice(["", "Fill=Previous", "PriceAdj=F;Fill=Blank"])
    if rng.random() < 0.3:
        arguments["provider_id"] = "synth"
    return arguments


def test_criterion_08_validation_strictness_100_bad_100_good():
    with criterion(8, "validation strictness and completeness"):
        rng = random.Random(808)
        dispatcher = Dispatcher(build_registry(), make_ctx())
        initialize(dispatcher)
        registry = dispatcher.registry

        mutations = ["drop_required", "unknown_key", "wrong_type", "bad_items", "bad_pattern"]
        for i in range(100):
            arguments = _conforming_arguments(rng)
            expected: set[str] = set()
            for mutation in rng.sample(mutations, rng.randrange(1, 3)):
                if mutation == "drop_required":
                    victim = rng.choice(["codes", "fields", "start_date", "end_date"])
                    arguments.pop(victim, None)
                    expected.add(victim)
                elif mutation == "unknown_key":
                    arguments["frequency"] = "daily"
                    expected.add("frequency")
                elif mutation == "wrong_type":
                    victim = rng.choice(["codes", "start_date"])
                    arguments[victim] = 42
                    expected.add(victim)
                elif mutation == "bad_items":
                    arguments["fields"] = ["close", 7]
                    expected.add("fields")
                else:
                    arguments["end_date"] = "next tuesday"
                    expected.add("end_date")
            response = _call(dispatcher, i, "tool_get_historical_data", arguments)
            assert response.error is not None and response.error.code == -32602
            violations = response.error.data["violations"]
            named = {v.split(":")[0] for v in violations}
            assert expected <= named, f"incomplete violation list: {expected} vs {violations}"

        for _ in range(100):
            validated = registry.validate_params("tool_get_historical_data", _conforming_arguments(rng))
            assert validated.tool_name == "tool_get_historical_data"


def test_criterion_09_wire_round_trip_and_parse_error_survival():
    with criterion(9, "wire round-trip identity and -32700 survival"):
        rng = random.Random(909)

        def random_value(depth=0):
            choices = ["null", "bool", "int", "float", "str"]
            if depth < 2:
                choices += ["list", "dict"]
            kind = rng.choice(choices)
            if kind == "null":
                return None
            if kind == "bool":
                return rng.random() < 0.5
            if kind == "int":
                return rng.randrange(-(2**40), 2**40)
            if kind == "float":
                return round(rng.uniform(-1e6, 1e6), 6)
            if kind == "str":
                return "".join(rng.choices(string.printable, k=rng.randrange(12)))
            if kind == "list":
                return [random_value(depth + 1) for _ in range(rng.randrange(3))]
            return {f"k{i}": random_value(depth + 1) for i in range(rng.randrange(3))}

        codes = [-32700, -32600, -32601, -32602, -32603, -32001, -32002, -32003]
        for i in range(1000):
            kind = rng.choice(["request", "notification", "result", "error"])
            obj: dict = {"jsonrpc": "2.0"}
            if kind in ("request", "notification"):
                obj["method"] = "m" + "".join(rng.choices(string.ascii_lowercase, k=5))
                if rng.random() < 0.7:
                    obj["params"] = {"a": random_value()}
                if kind == "request":
                    obj["id"] = rng.choice([i, f"id-{i}"])
            else:
                obj["id"] = rng.choice([i, f"id-{i}", None])
                if kind == "result":
                    obj["result"] = random_value()
                else:
                    obj["error"] = {"code": rng.choice(codes), "message": "boom"}
            if rng.random() < 0.2:
                obj["_meta"] = random_value()
            line = json.dumps(obj)
            msg = parse_message(line)
            assert parse_message(serialize_message(msg)) == msg

        dispatcher = Dispatcher(build_registry(), make_ctx())
        out = io.StringIO()
        server = StdioServer(dispatcher, io.StringIO(), out)
        for _ in range(50):
            server.handle_line("".join(rng.choices("{}[]\",:abc", k=rng.randrange(1, 25))) or "{")
        server.handle_line(json.dumps({"jsonrpc": "2.0", "id": 77, "method": "initialize"}))
        frames = [json.loads(line) for line in out.getvalue().splitlines()]
        parse_errors = [f for f in frames if f.get("error", {}).get("code") == -32700]
        assert parse_errors, "garbage must produce -32700 frames"
        assert all(f["id"] is None for f in parse_errors)
        assert frames[-1]["id"] == 77 and "result" in frames[-1]  # server survived


def test_criterion_10_example_record_round_trips_byte_equal(tmp_path):
    with criterion(10, "example record fidelity through the full pipeline"):
        config_path = tmp_path / "csv.conf"
        config_path.write_text(
            "[server]\n"
            "default_provider = export\n"
            "close_time = 15:00:00\n"
            "\n"
            "[provider.export]\n"
            "kind = csv\n"
            f"csv_path = {DATA_DIR / 'catl_daily_sample.csv'}\n"
        )
        from quantmcp.config import build_context, load_config

        dispatcher = Dispatcher(build_registry(), build_context(load_config(config_path)))
        initialize(dispatcher)
        response = _call(
            dispatcher, 2, "tool_get_historical_data",
            {"codes": ["300750.SZ"], "fields": ["close"],
             "start_date": "2024-01-02", "end_date": "2024-01-02"},
        )
        wire = serialize_message(response)
        expected = '{"code":"300750.SZ","timestamp":"2024-01-02 15:00:00","close":180.5}'
        assert expected in wire, wire
        records = response.result["content"]["records"]
        assert records == [{"code": "300750.SZ", "timestamp": "2024-01-02 15:00:00", "close": 180.5}]
