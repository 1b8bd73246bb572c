"""Canonical record normalization: options grammar, record shaping, fill.

Raw provider rows become one record per (code, trading day) sorted by
(code, timestamp), with provider field names renamed to canonical ones.
Days a provider skipped are materialized as all-null records before any
fill policy runs, so ``Fill=Previous`` is well-defined and output length is
predictable from the query alone.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Any, Iterable

from .errors import InternalError, ValidationError
from .providers import DataQuery, RawProviderPayload

RECOGNIZED_OPTIONS = {
    "PriceAdj": frozenset({"F", "B", "N"}),
    "Fill": frozenset({"Previous", "Blank"}),
}

DEFAULT_CLOSE_TIME = dt.time(15, 0, 0)


@dataclass(frozen=True)
class OptionsMap:
    """Ordered, case-sensitive option entries parsed from ``key=value;...``."""

    entries: dict[str, str] = field(default_factory=dict)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.entries.get(key, default)

    def canonical(self) -> str:
        """Key-sorted rendering used for cache keys."""
        return ";".join(f"{k}={v}" for k, v in sorted(self.entries.items()))


@dataclass
class CanonicalRecord:
    """One (code, day) row; serializes flat as ``{code, timestamp, <field>...}``."""

    code: str
    timestamp: str
    values: dict[str, float | int | None]

    def to_obj(self) -> dict[str, Any]:
        return {"code": self.code, "timestamp": self.timestamp, **self.values}

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "CanonicalRecord":
        code = obj.get("code")
        timestamp = obj.get("timestamp")
        if not isinstance(code, str) or not isinstance(timestamp, str):
            raise ValidationError("record must carry string code and timestamp fields")
        values = {k: v for k, v in obj.items() if k not in ("code", "timestamp")}
        return cls(code=code, timestamp=timestamp, values=values)


def parse_options(text: str | None) -> OptionsMap:
    """Parse ``"Key=Value;Key=Value"`` text; empty input yields an empty map.

    Tokens are split on ';', each on its first '='; surrounding whitespace is
    trimmed and empty tokens are skipped. Keys must be unique, and recognized
    keys (PriceAdj, Fill) only accept their documented values. Unrecognized
    keys are preserved untouched for provider forwarding.
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
    raw: RawProviderPayload,
    query: DataQuery,
    close_time: dt.time = DEFAULT_CLOSE_TIME,
    field_map: dict[str, str] | None = None,
) -> list[CanonicalRecord]:
    """Shape raw rows into the canonical per-(code, trading day) record list.

    Rows dated outside the query range, or carrying codes the query never
    asked for, are a provider contract breach and raise InternalError. Rows
    on non-trading days inside the range are ignored.
    """
    fmap = field_map or {}
    wanted_codes = set(query.codes)
    index: dict[tuple[str, dt.date], dict[str, Any]] = {}
    for row in raw.rows:
        code = row.get("code")
        day = row.get("date")
        if (
            code not in wanted_codes
            or not isinstance(day, dt.date)
            or not query.start_date <= day <= query.end_date
        ):
            raise InternalError(
                f"provider {raw.provider_id!r} returned a row outside the query contract: "
                f"code={code!r} date={day!r}"
            )
        if day.weekday() < 5:
            index[(code, day)] = row
    suffix = " " + close_time.strftime("%H:%M:%S")
    records = []
    for code in sorted(wanted_codes):
        for day in query.days:
            row = index.get((code, day))
            values: dict[str, float | int | None] = {}
            for f in query.fields:
                values[f] = row.get(fmap.get(f, f)) if row is not None else None
            records.append(CanonicalRecord(code=code, timestamp=day.isoformat() + suffix, values=values))
    return records


def apply_fill(
    records: list[CanonicalRecord], policy: str, fields: Iterable[str]
) -> list[CanonicalRecord]:
    """Apply the fill policy to ``records`` (already sorted by code, timestamp).

    ``Previous`` replaces each null with the most recent earlier non-null
    value of the same field for the same code; leading nulls stay null.
    ``Blank`` returns the input unchanged. Non-null values are never touched,
    so the operation is idempotent.
    """
    allowed = RECOGNIZED_OPTIONS["Fill"]
    if policy not in allowed:
        raise ValidationError(f"unknown fill policy {policy!r}", data={"allowed": sorted(allowed)})
    if policy == "Blank":
        return list(records)
    keys = [(r.code, r.timestamp) for r in records]
    if keys != sorted(keys):
        raise InternalError("records must be sorted by (code, timestamp) before fill")
    fill_fields = set(fields)
    filled = []
    last: dict[str, float | int] = {}
    current_code: str | None = None
    for rec in records:
        if rec.code != current_code:
            current_code = rec.code
            last = {}
        values: dict[str, float | int | None] = {}
        for f, v in rec.values.items():
            if v is None and f in fill_fields:
                values[f] = last.get(f)
            else:
                values[f] = v
                if v is not None and f in fill_fields:
                    last[f] = v
        filled.append(CanonicalRecord(code=rec.code, timestamp=rec.timestamp, values=values))
    return filled
