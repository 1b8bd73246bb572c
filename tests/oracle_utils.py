"""Independent oracles used to check production code paths.

Everything here is deliberately reimplemented from first principles (brute
force, enumeration, step-by-step simulation) and must stay free of imports
from the package under test.
"""

from __future__ import annotations

import datetime as dt
import math


def fnv1a64_oracle(data: bytes) -> int:
    h = 0xCBF29CE484222325  # 14695981039346656037
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)  # prime 1099511628211
    return h


def synthetic_value_oracle(code: str, field: str, day: dt.date, seed: int) -> float | int:
    """Recompute a synthetic market value directly from its definition."""
    ymd = "%04d-%02d-%02d" % (day.year, day.month, day.day)  # strftime's %Y drops the zeros of years < 1000 on glibc
    key = "{}|{}|{}|{}".format(code, field, ymd, seed)
    return scaled_value_oracle(field, fnv1a64_oracle(key.encode("utf-8")) % 1000000)


def scaled_value_oracle(field: str, k: int) -> float | int:
    """The synthetic value of ``field`` for the hash residue ``k = hash mod 1000000``."""
    u = k / 1000000.0
    if field in ("close", "open", "high", "low"):
        return round(100 + 100 * u, 2)
    if field == "volume":
        return int(math.floor(1000000 * u))
    if field == "pb_lf":
        return round(1 + 9 * u, 3)
    if field == "turn":
        return round(10 * u, 4)
    raise AssertionError(f"oracle asked about unknown field {field!r}")


def weekdays_oracle(start: dt.date, end: dt.date) -> list[dt.date]:
    """Enumerate every calendar day and keep Monday..Friday."""
    out = []
    for offset in range((end - start).days + 1):
        day = start + dt.timedelta(days=offset)
        if day.isoweekday() in (1, 2, 3, 4, 5):
            out.append(day)
    return out


def backfill_oracle(values: list) -> list:
    """O(n^2) backward scan: each null takes the nearest earlier non-null."""
    out = []
    for i, v in enumerate(values):
        if v is not None:
            out.append(v)
            continue
        replacement = None
        for j in range(i - 1, -1, -1):
            if values[j] is not None:
                replacement = values[j]
                break
        out.append(replacement)
    return out


class BucketSimOracle:
    """Discrete-event token bucket simulation, stepped call by call."""

    def __init__(self, capacity: int, refill_per_sec: float):
        self.capacity = float(capacity)
        self.refill = refill_per_sec
        self.tokens = float(capacity)
        self.last: float | None = None

    def step(self, now: float) -> tuple[bool, float]:
        """Returns (allowed, retry_after_seconds)."""
        if self.last is not None and now > self.last:
            self.tokens = min(self.capacity, self.tokens + (now - self.last) * self.refill)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.refill


def mean_oracle(values: list[float]) -> float:
    total = 0.0
    compensation = 0.0
    for v in values:  # Kahan summation, independent of math.fsum
        y = v - compensation
        t = total + y
        compensation = (t - total) - y
        total = t
    return total / len(values)


def day_columns_oracle(by_code: dict, codes: list[str], fields: list[str], days: list[dt.date]) -> dict:
    """Per-day rows ``{code: {day: {field: value}}}`` as ``Rows``, None where no row is."""
    return {code: [[by_code.get(code, {}).get(day, {}).get(f) for day in days] for f in fields] for code in codes}


def _is_query_day(day: dt.date, start: dt.date, end: dt.date) -> bool:
    return start <= day <= end and day.isoweekday() in (1, 2, 3, 4, 5)


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an int past the largest double
        return False


def http_rows_oracle(bodies: dict, codes: list[str], fields: list[str], start: dt.date, end: dt.date, pid: str):
    """``(columns, None)`` for the http GET ``bodies`` (query code -> row dicts), or ``(None, failure message)``.

    One rule at a time: GETs in query order and rows in body order; each row's date is ``fromisoformat`` of
    its ``str``, its code defaults to the GET's; a row for another code or another day is skipped before its
    cells are read; a cell is None or a finite number; a later row replaces the whole (code, day) row.
    """
    by_code: dict = {code: {} for code in codes}
    for get_code in codes:
        for row in bodies.get(get_code, []):
            try:
                day = dt.date.fromisoformat(str(row.get("date")))
            except ValueError:
                return None, f"provider {pid!r} returned unparseable date {row.get('date')!r}"
            code = row.get("code", get_code)
            if not isinstance(code, str):
                return None, f"provider {pid!r} returned a non-string code"
            if code not in by_code or not _is_query_day(day, start, end):
                continue
            cells = {}
            for f in fields:
                value = row.get(f)
                if value is not None and not _finite_number(value):
                    return None, f"provider {pid!r} returned non-numeric or non-finite value for {f!r}"
                cells[f] = value
            by_code[code][day] = cells
    return day_columns_oracle(by_code, codes, fields, weekdays_oracle(start, end)), None


def csv_rows_oracle(records: list[dict], codes: list[str], fields: list[str], start: dt.date, end: dt.date, pid: str):
    """``(columns, None)`` for csv ``records`` (column -> cell text, None for a short row), or ``(None, message)``.

    One rule at a time: rows in file order; every row's stripped date is parsed by ``fromisoformat``; a row
    whose stripped code is not asked for, or whose day is no query day, is skipped before its cells are read;
    a stripped cell is empty (None) or a finite float; a later row replaces the whole (code, day) row.
    """
    by_code: dict = {code: {} for code in codes}
    for rec in records:
        try:
            day = dt.date.fromisoformat((rec.get("date") or "").strip())
        except ValueError:
            return None, f"provider {pid!r} csv holds unparseable date {rec.get('date')!r}"
        code = (rec.get("code") or "").strip()
        if code not in by_code or not _is_query_day(day, start, end):
            continue
        cells = {}
        for f in fields:
            text = (rec.get(f) or "").strip()
            try:
                value = float(text) if text else None
            except ValueError:
                value = math.nan
            if value is not None and not math.isfinite(value):
                return None, f"provider {pid!r} csv column {f!r} holds non-numeric or non-finite value {text!r}"
            cells[f] = value
        by_code[code][day] = cells
    return day_columns_oracle(by_code, codes, fields, weekdays_oracle(start, end)), None
