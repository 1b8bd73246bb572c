"""Canonical record normalization: options grammar, record shaping, fill.

Provider rows, already under canonical field names, are laid out on the
query's calendar: one record per (code, trading day), sorted by (code,
timestamp). Days a provider skipped are materialized as all-null records
before any fill policy runs, so ``Fill=Previous`` is well-defined and output
length is predictable from the query alone.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Any, Iterable

from .errors import InternalError, ValidationError
from .providers import DEFAULT_CLOSE_TIME, DataQuery, RawProviderPayload

RECOGNIZED_OPTIONS = {
    "PriceAdj": frozenset({"F", "B", "N"}),
    "Fill": frozenset({"Previous", "Blank"}),
}


@dataclass(frozen=True)
class OptionsMap:
    """Ordered, case-sensitive option entries parsed from ``key=value;...``."""

    entries: dict[str, str] = field(default_factory=dict)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.entries.get(key, default)

    def canonical(self) -> str:
        """Key-sorted rendering used for cache keys."""
        return ";".join(f"{k}={v}" for k, v in sorted(self.entries.items()))


def parse_options(text: str | None) -> OptionsMap:
    """Parse ``"Key=Value;Key=Value"`` text; empty input yields an empty map.

    Tokens are split on ';', each on its first '='; surrounding whitespace is
    trimmed and empty tokens are skipped. Keys must be unique, and recognized
    keys (PriceAdj, Fill) only accept their documented values. Unrecognized
    keys are kept untouched; every key but Fill only enters the cache key.
    """
    entries: dict[str, str] = {}
    if not text:
        return OptionsMap(entries)
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValidationError(f"options token {token!r} has no '='", data={"token": token})
        key, _, value = token.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"options token {token!r} has an empty key", data={"token": token})
        if key in entries:
            raise ValidationError(f"duplicate options key {key!r}", data={"key": key})
        allowed = RECOGNIZED_OPTIONS.get(key)
        if allowed is not None and value not in allowed:
            raise ValidationError(
                f"options key {key!r} does not accept {value!r}",
                data={"key": key, "allowed": sorted(allowed)},
            )
        entries[key] = value
    return OptionsMap(entries)


def normalize_payload(
    raw: RawProviderPayload, query: DataQuery, close_time: dt.time = DEFAULT_CLOSE_TIME
) -> list[dict[str, Any]]:
    """Lay ``raw.rows`` out as the per-(code, trading day) record list.

    Each record is the dict the wire carries, ``{code, timestamp, <field>...}``
    with fields in query order. A code the query never asked for, or a date
    outside the query range, is a provider contract breach and raises
    InternalError. Only the query's trading days are read, so rows on other
    days inside the range are ignored.
    """
    start, end = query.start_date, query.end_date
    for code, by_day in raw.rows.items():
        if code not in query.codes or by_day and (min(by_day) < start or max(by_day) > end):
            raise InternalError(
                f"provider {raw.provider_id!r} returned rows outside the query contract for code={code!r}"
            )
    suffix = " " + close_time.strftime("%H:%M:%S")
    stamps = [(d, iso + suffix) for (days, isos, _), i, j in query.months for d, iso in zip(days[i:j], isos[i:j])]
    no_row = dict.fromkeys(query.fields)
    records = []
    for code in sorted(query.codes):
        by_day = raw.rows.get(code, {})
        records.extend(
            {"code": code, "timestamp": stamp, **by_day.get(day, no_row)} for day, stamp in stamps
        )
    return records


def apply_fill(records: list[dict[str, Any]], policy: str, fields: Iterable[str]) -> list[dict[str, Any]]:
    """Apply the fill policy to ``records`` (already sorted by code, timestamp).

    ``Previous`` replaces each null with the most recent earlier non-null
    value of the same field for the same code; leading nulls stay null.
    ``Blank`` returns the input unchanged. Non-null values are never touched,
    so the operation is idempotent. Only a record that gains a value is
    copied; the input list and its records are never mutated.
    """
    allowed = RECOGNIZED_OPTIONS["Fill"]
    if policy not in allowed:
        raise ValidationError(f"unknown fill policy {policy!r}", data={"allowed": sorted(allowed)})
    if policy == "Blank":
        return list(records)
    fill_fields = list(fields)
    filled = []
    last: dict[str, float | int] = {}
    code = timestamp = None
    for rec in records:
        if rec["code"] != code:
            if code is not None and rec["code"] < code:
                raise InternalError("records must be sorted by (code, timestamp) before fill")
            code = rec["code"]
            last = {}
        elif rec["timestamp"] < timestamp:
            raise InternalError("records must be sorted by (code, timestamp) before fill")
        timestamp = rec["timestamp"]
        out = rec
        for f in fill_fields:
            v = rec.get(f)
            if v is not None:
                last[f] = v
            elif f in last and f in rec:
                if out is rec:
                    out = dict(rec)
                out[f] = last[f]
        filled.append(out)
    return filled
