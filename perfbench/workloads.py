"""The benchmark's four workloads: seeded inputs and per-call answer checks.

Every workload is a closed loop with one client. All date ranges end before
2025, so the server applies its 24 h historical TTL and a warmed entry stays
warm for the whole run. A check returns None for a correct result or a
one-line reason for a failed call.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass
from typing import Callable

from oracle import FIELDS, SyntheticOracle, stats_match, summary, weekdays

HISTORICAL = "tool_get_historical_data"
SUMMARY = "tool_compute_summary"

UNIVERSE_START = dt.date(2023, 1, 2)
UNIVERSE_END = dt.date(2024, 12, 31)
Q1_2024 = (dt.date(2024, 1, 1), dt.date(2024, 3, 31))
YEAR_2023 = (dt.date(2023, 1, 1), dt.date(2023, 12, 31))
QUARTERS = [
    (dt.date(y, m, 1), dt.date(y, m + 2, last))
    for y in (2023, 2024)
    for m, last in ((1, 31), (4, 30), (7, 30), (10, 31))
]


@dataclass
class Call:
    tool: str
    arguments: dict
    check: Callable[[dict], "str | None"]


def make_codes(rng: random.Random, n: int) -> list[str]:
    codes: set[str] = set()
    while len(codes) < n:
        codes.add(f"{rng.randrange(600000, 610000):06d}.SH")
    return sorted(codes)


def history_args(codes, fields, start, end, options="", provider_id=None) -> dict:
    args = {
        "codes": list(codes),
        "fields": list(fields),
        "start_date": start.isoformat(),
        "end_date": end.isoformat(),
        "options": options,
    }
    if provider_id is not None:
        args["provider_id"] = provider_id
    return args


def check_meta(content: dict, rows: int, cache_hit: bool, provider_id: str) -> str | None:
    meta = content["meta"]
    if meta["row_count"] != rows or len(content["records"]) != rows:
        return f"row_count {meta['row_count']} / {len(content['records'])} records, expected {rows}"
    if meta["cache_hit"] is not cache_hit:
        return f"cache_hit {meta['cache_hit']!r}, expected {cache_hit}"
    if meta["provider_id"] != provider_id:
        return f"provider_id {meta['provider_id']!r}, expected {provider_id!r}"
    return None


def full_check(oracle: SyntheticOracle, codes, fields, days, cache_hit: bool, provider_id: str = "synth"):
    """Every record must equal the synthetic_value oracle, rounded to 6 decimals."""
    expected = None

    def check(result: dict) -> str | None:
        nonlocal expected
        content = result["content"]
        bad = check_meta(content, len(codes) * len(days), cache_hit, provider_id)
        if bad:
            return bad
        if expected is None:
            expected = oracle.records(codes, fields, days)
        if content["records"] != expected:
            return "records differ from the synthetic_value oracle"
        return None

    return check


def summary_check(oracle: SyntheticOracle, codes, fields, days):
    def check(result: dict) -> str | None:
        content = result["content"]
        rows = len(codes) * len(days)
        if content["inputs"]["row_count"] != rows:
            return f"summary row_count {content['inputs']['row_count']}, expected {rows}"
        got = content["summaries"]
        want = [summary(f, [oracle.value(c, f, d) for c in codes for d in days]) for f in fields]
        if len(got) != len(want) or not all(stats_match(g, w) for g, w in zip(got, want)):
            return "summary stats differ from the fsum / population-stddev oracle"
        return None

    return check


class HistHitSmall:
    """1 code x Q1-2024 x close,pb_lf,turn, Fill=Previous, from a warmed pool of 8."""

    name = "hist_hit_small"
    rss_at_call = 2000
    fields = ("close", "pb_lf", "turn")

    def __init__(self, rng: random.Random, oracle: SyntheticOracle):
        self.rng = rng
        days = weekdays(*Q1_2024)
        self.pool = []
        for code in make_codes(rng, 8):
            args = history_args([code], self.fields, *Q1_2024, "Fill=Previous")
            self.pool.append(
                (
                    Call(HISTORICAL, args, full_check(oracle, [code], self.fields, days, cache_hit=False)),
                    Call(HISTORICAL, args, full_check(oracle, [code], self.fields, days, cache_hit=True)),
                )
            )

    def warm_calls(self) -> list[Call]:
        return [miss for miss, _ in self.pool]

    def next_call(self) -> Call:
        return self.rng.choice(self.pool)[1]


class MixedMissSmall:
    """Distinct 1-code queries, 1-3 month windows, 3 of 7 fields; 2/3 history, 1/3 summary."""

    name = "mixed_miss_small"
    rss_at_call = 1000

    def __init__(self, rng: random.Random, oracle: SyntheticOracle):
        self.rng = rng
        self.oracle = oracle
        self.codes = make_codes(rng, 12)
        self.seen: set = set()
        oracle.prime(self.codes, FIELDS, weekdays(UNIVERSE_START, UNIVERSE_END))

    def next_call(self) -> Call:
        rng = self.rng
        while True:
            code = rng.choice(self.codes)
            length = rng.randint(28, 92)
            start = UNIVERSE_START + dt.timedelta(days=rng.randrange((UNIVERSE_END - UNIVERSE_START).days - length))
            end = start + dt.timedelta(days=length - 1)
            fields = rng.sample(FIELDS, 3)
            fill = rng.choice(("Previous", "Blank"))
            key = (code, start, end, frozenset(fields), fill)  # the server's cache key ignores the tool
            if key not in self.seen:
                self.seen.add(key)
                break
        days = weekdays(start, end)
        args = history_args([code], fields, start, end, f"Fill={fill}")
        if rng.random() < 1 / 3:
            return Call(SUMMARY, {"query": args, "summarize_fields": fields},
                        summary_check(self.oracle, [code], fields, days))
        return Call(HISTORICAL, args, full_check(self.oracle, [code], fields, days, cache_hit=False))

    def warm_calls(self) -> list[Call]:
        return [self.next_call() for _ in range(50)]


class HistHitLarge:
    """100 codes x 2023 x all 7 fields (26,000 records, ~4 MB frame), pool of 2 warmed queries."""

    name = "hist_hit_large"
    rss_at_call = 4
    sample_size = 200

    def __init__(self, rng: random.Random, oracle: SyntheticOracle):
        self.rng = rng
        self.oracle = oracle
        self.days = weekdays(*YEAR_2023)
        universe = make_codes(rng, 200)
        rng.shuffle(universe)
        self.code_sets = [sorted(universe[:100]), sorted(universe[100:])]

    def _call(self, codes: list[str], cache_hit: bool) -> Call:
        days = self.days
        stamps = [f"{d.isoformat()} 15:00:00" for d in days]

        def check(result: dict) -> str | None:
            content = result["content"]
            bad = check_meta(content, len(codes) * len(days), cache_hit, "synth")
            if bad:
                return bad
            records = content["records"]
            for i, rec in enumerate(records):
                if rec["code"] != codes[i // len(days)] or rec["timestamp"] != stamps[i % len(days)]:
                    return f"record {i} is out of (code, timestamp) order"
            for i in self.rng.sample(range(len(records)), self.sample_size):
                rec = records[i]
                day = days[i % len(days)]
                if len(rec) != 2 + len(FIELDS) or any(
                    rec[f] != self.oracle.value(rec["code"], f, day) for f in FIELDS
                ):
                    return f"record {i} differs from the synthetic_value oracle"
            return None

        return Call(HISTORICAL, history_args(codes, FIELDS, *YEAR_2023, "Fill=Previous"), check)

    def warm_calls(self) -> list[Call]:
        misses = [self._call(codes, cache_hit=False) for codes in self.code_sets]
        return misses + [self._call(codes, cache_hit=True) for codes in self.code_sets]

    def next_call(self) -> Call:
        return self._call(self.rng.choice(self.code_sets), cache_hit=True)


class HttpMiss:
    """Distinct 8 codes x 1 quarter x 3 fields against the loopback http provider."""

    name = "http_miss"
    rss_at_call = 20
    provider_id = "vendor"

    def __init__(self, rng: random.Random, oracle: SyntheticOracle):
        self.rng = rng
        self.oracle = oracle
        self.codes = make_codes(rng, 16)
        self.seen: set = set()
        oracle.prime(self.codes, FIELDS, weekdays(UNIVERSE_START, UNIVERSE_END))

    def next_call(self) -> Call:
        rng = self.rng
        while True:
            codes = sorted(rng.sample(self.codes, 8))
            quarter = rng.choice(QUARTERS)
            fields = rng.sample(FIELDS, 3)
            key = (tuple(codes), quarter, frozenset(fields))
            if key not in self.seen:
                self.seen.add(key)
                break
        days = weekdays(*quarter)
        args = history_args(codes, fields, *quarter, provider_id=self.provider_id)
        return Call(HISTORICAL, args, full_check(self.oracle, codes, fields, days, False, self.provider_id))

    def warm_calls(self) -> list[Call]:
        return [self.next_call() for _ in range(3)]


WORKLOADS = {w.name: w for w in (HistHitSmall, MixedMissSmall, HistHitLarge, HttpMiss)}
