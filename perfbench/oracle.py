"""Independent expected values for the benchmark's correctness gate.

Re-derived from the documented definitions (64-bit FNV-1a over
``code|field|YYYY-MM-DD|seed``, the weekday calendar, fsum mean and
population stddev). Nothing here imports the package under test, so a
defect in the server's own implementation shows up as failed calls.
"""

from __future__ import annotations

import datetime as dt
import math

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

PRICE_FIELDS = ("close", "open", "high", "low")
FIELDS = ("close", "open", "high", "low", "volume", "pb_lf", "turn")


def _fold(h: int, data: bytes) -> int:
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def _scale(field: str, u: float) -> float | int:
    if field in PRICE_FIELDS:
        return round(100 + 100 * u, 2)
    if field == "volume":
        return int(math.floor(1_000_000 * u))
    if field == "pb_lf":
        return round(1 + 9 * u, 3)
    if field == "turn":
        return round(10 * u, 4)
    raise ValueError(f"unknown field {field!r}")


def weekdays(start: dt.date, end: dt.date) -> list[dt.date]:
    days = (start + dt.timedelta(days=i) for i in range((end - start).days + 1))
    return [day for day in days if day.isoweekday() <= 5]


class SyntheticOracle:
    """Memoized ``synthetic_value`` for one provider seed.

    FNV-1a is a byte-serial fold, so the hash of ``code|field|`` is computed
    once per (code, field) and continued over the ``date|seed`` suffix.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._prefix: dict[tuple[str, str], int] = {}
        self._values: dict[tuple[str, str, dt.date], float | int] = {}

    def value(self, code: str, field: str, day: dt.date) -> float | int:
        key = (code, field, day)
        v = self._values.get(key)
        if v is None:
            h = self._prefix.get((code, field))
            if h is None:
                h = self._prefix[(code, field)] = _fold(_FNV_OFFSET, f"{code}|{field}|".encode())
            h = _fold(h, f"{day.isoformat()}|{self.seed}".encode())
            v = self._values[key] = round(_scale(field, (h % 1_000_000) / 1_000_000), 6)
        return v

    def prime(self, codes, fields, days) -> None:
        """Fill the memo up front so verification stays cheap while timing."""
        for code in codes:
            for field in fields:
                for day in days:
                    self.value(code, field, day)

    def records(self, codes, fields, days, close_time: str = "15:00:00") -> list[dict]:
        """The canonical record list the server must return for a query."""
        return [
            {"code": code, "timestamp": f"{day.isoformat()} {close_time}",
             **{f: self.value(code, f, day) for f in fields}}
            for code in sorted(codes)
            for day in days
        ]


def summary(field: str, values: list[float]) -> dict:
    """Expected tool_compute_summary entry: fsum mean, population stddev."""
    n = len(values)
    mean = math.fsum(values) / n
    return {
        "field": field,
        "count": n,
        "mean": mean,
        "min": min(values),
        "max": max(values),
        "stddev": math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n),
    }


def stats_match(got: dict, want: dict) -> bool:
    if got.get("field") != want["field"] or got.get("count") != want["count"]:
        return False
    return all(
        isinstance(got.get(k), (int, float))
        and math.isclose(got[k], want[k], rel_tol=1e-9, abs_tol=1e-6)
        for k in ("mean", "min", "max", "stddev")
    )
