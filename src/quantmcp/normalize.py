"""Canonical record normalization: options grammar, the records table, fill.

Provider columns, already under canonical field names, become one table
over the query's calendar: one record per (code, trading day), sorted by
(code, timestamp). Days a provider skipped hold nulls before any fill
policy runs, so ``Fill=Previous`` is well-defined and output length is
predictable from the query alone.
"""

from __future__ import annotations

import datetime as dt
from collections.abc import Sequence
from itertools import accumulate, chain, repeat
from typing import Any, Iterable, Iterator

from .errors import Frozen, InternalError, ValidationError
from .providers import DEFAULT_CLOSE_TIME, DataQuery, RawProviderPayload
from .transport import PreEncoded, dumps, slots_repr

RECOGNIZED_OPTIONS = {
    "PriceAdj": frozenset({"F", "B", "N"}),
    "Fill": frozenset({"Previous", "Blank"}),
}


class OptionsMap(Frozen):
    """Ordered, case-sensitive option entries parsed from ``key=value;...``."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, str] | None = None):
        object.__setattr__(self, "entries", {} if entries is None else entries)

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


class Records(Frozen, PreEncoded, Sequence):
    """A query result as one table: for each code, one column per field over the days.

    As a sequence it is the wire's record dicts ``{code, timestamp, <field>...}`` in (code, day)
    order, each built when read, and it equals their list. Nothing mutates it.
    """

    __slots__ = ("codes", "days", "suffix", "fields", "columns")

    def __init__(
        self,
        codes: tuple[str, ...],  # sorted
        days: tuple[str, ...],  # ISO dates, ascending
        suffix: str,  # " HH:MM:SS", the time of day on every timestamp
        fields: tuple[str, ...],  # query order
        columns: tuple[tuple[list, ...], ...],  # per code, one column per field, one value per day
    ):
        set_field = object.__setattr__
        set_field(self, "codes", codes)
        set_field(self, "days", days)
        set_field(self, "suffix", suffix)
        set_field(self, "fields", fields)
        set_field(self, "columns", columns)

    __repr__ = slots_repr

    def __len__(self) -> int:
        return len(self.codes) * len(self.days)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        c, d = divmod(range(len(self))[index], len(self.days))
        cells = (self.codes[c], self.days[d] + self.suffix, *(col[d] for col in self.columns[c]))
        return dict(zip(("code", "timestamp", *self.fields), cells))

    def __iter__(self) -> Iterator[dict[str, Any]]:
        keys, stamps = ("code", "timestamp", *self.fields), [day + self.suffix for day in self.days]
        for code, cols in zip(self.codes, self.columns):
            for cells in zip(repeat(code), stamps, *cols):
                yield dict(zip(keys, cells))

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Records):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def column(self, name: str) -> Iterable:
        """The values of field ``name``, code-major in day order; all null for a field the table lacks."""
        if name not in self.fields:
            return repeat(None, len(self))
        i = self.fields.index(name)
        return chain.from_iterable(cols[i] for cols in self.columns)

    def json_text(self) -> str:
        """``dumps(list(self))``, from one record template and one ``dumps`` per column."""
        keys = "".join("," + dumps(f).replace("%", "%%") + ":%s" for f in self.fields)
        render = ('{"code":%s,"timestamp":"%s' + self.suffix + '"' + keys + "}").__mod__
        items: list[str] = []
        for code, cols in zip(self.codes, self.columns):
            cells = [dumps(col)[1:-1].split(",") for col in cols]
            items += map(render, zip(repeat(dumps(code)), self.days, *cells))
        return "[" + ",".join(items) + "]"


def normalize_payload(
    raw: RawProviderPayload, query: DataQuery, close_time: dt.time = DEFAULT_CLOSE_TIME
) -> Records:
    """Lay ``raw.rows`` out as the query's records table: codes sorted, days from the month memo.

    A code the query never asked for, a missing field or a column whose length is not the query's
    day count is a provider contract breach and raises InternalError. A code with no columns holds nulls.
    """
    days = tuple(chain.from_iterable(isos[i:j] for (_, isos, _), i, j in query.months))
    fields = tuple(query.fields)
    by_code = {}
    for code, by_field in raw.rows.items():
        cols = tuple(map(by_field.get, fields))
        if code not in query.codes or any(col is None or len(col) != len(days) for col in cols):
            raise InternalError(
                f"provider {raw.provider_id!r} returned rows outside the query contract for code={code!r}"
            )
        by_code[code] = cols
    nulls = ([None] * len(days),) * len(fields)
    columns = tuple(by_code.get(code, nulls) for code in sorted(query.codes))
    return Records(tuple(sorted(query.codes)), days, " " + close_time.strftime("%H:%M:%S"), fields, columns)


def _filled(column: list) -> list:
    """``column`` with each null replaced by the last earlier non-null value; a leading null stays."""
    return list(accumulate(column, lambda last, v: last if v is None else v)) if None in column else column


def apply_fill(records: Records, policy: str) -> Records:
    """Apply the fill policy to every column of ``records``, one pass per column.

    ``Previous`` replaces each null with the most recent earlier non-null
    value of the same field for the same code; leading nulls stay null.
    ``Blank`` returns the table as it is. Non-null values are never touched, so
    the operation is idempotent, and the input is never mutated: the result is
    a new table that shares each column holding no null.
    """
    allowed = RECOGNIZED_OPTIONS["Fill"]
    if policy not in allowed:
        raise ValidationError(f"unknown fill policy {policy!r}", data={"allowed": sorted(allowed)})
    if policy == "Blank":
        return records
    columns = tuple(tuple(map(_filled, cols)) for cols in records.columns)
    return Records(records.codes, records.days, records.suffix, records.fields, columns)
