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
