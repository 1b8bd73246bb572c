"""Canonical record normalization: options grammar, the records table, fill.

A provider's ``Rows``, one column per query field for each query code, become
one table over the query's trading days, ``DataQuery.days``: one record per
(code, trading day), sorted by (code, timestamp). Days a provider skipped hold
nulls before any fill policy runs, so ``Fill=Previous`` is well-defined and
output length is predictable from the query alone.
"""

from __future__ import annotations

import datetime as dt
import operator
from array import array
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, chain, repeat
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping

from .errors import Frozen, InternalError, ValidationError
from .providers import DEFAULT_CLOSE_TIME, DataQuery, RawProviderPayload
from .transport import PreEncoded, dumps, may_round, slots_repr

RECOGNIZED_OPTIONS = {
    "PriceAdj": frozenset({"F", "B", "N"}),
    "Fill": frozenset({"Previous", "Blank"}),
}


def parse_options(text: str) -> Mapping[str, str]:
    """Parse ``"Key=Value;Key=Value"`` text into a read-only mapping, in order; empty text yields an empty one.

    Tokens are split on ';', each on its first '='; surrounding whitespace is
    trimmed and empty tokens are skipped. Keys must be unique, and recognized
    keys (PriceAdj, Fill) only accept their documented values. Unrecognized
    keys are kept untouched, and no provider reads one: only Fill changes an
    answer, and ``DataQuery.fill`` is where it is read.
    """
    entries: dict[str, str] = {}
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
    return MappingProxyType(entries)


class Records(Frozen, PreEncoded, Sequence):
    """A query result as one table: for each code, one column per field over the days.

    As a sequence it is the wire's record dicts ``{code, timestamp, <field>...}`` in (code, day)
    order, each built when read, and it equals their list. Nothing mutates it. A column is a list,
    or a typed ``array`` where :func:`_compact` can hold it as one; both read as plain sequences.
    """

    __slots__ = ("codes", "days", "suffix", "fields", "columns")

    def __init__(
        self,
        codes: tuple[str, ...],  # sorted
        days: tuple[str, ...],  # ISO dates, ascending
        suffix: str,  # " HH:MM:SS", the time of day on every timestamp
        fields: tuple[str, ...],  # query order
        columns: tuple[tuple[Sequence, ...], ...],  # per code, one column per field, one value per day
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

    def reordered(self, fields: tuple[str, ...]) -> Records:
        """This table with its fields in the order of ``fields``, the same names; the columns are shared."""
        order = [self.fields.index(f) for f in fields]
        columns = tuple(tuple(cols[i] for i in order) for cols in self.columns)
        return Records(self.codes, self.days, self.suffix, fields, columns)

    def json_text(self) -> str:
        """``dumps(list(self))``: each record joined from its code's head, its day, then each seam and cell text."""
        seams = _record_seams(self.fields, self.suffix)
        items: list[str] = []
        for code, cols in zip(self.codes, self.columns):
            parts = [repeat('{"code":' + dumps(code) + ',"timestamp":"'), self.days, repeat(seams[0])]
            for texts, seam in zip(map(_cell_texts, cols), seams[1:]):
                parts += (texts, repeat(seam))
            items += map("".join, zip(*parts))
        return "[" + ",".join(items) + "]"


@lru_cache(maxsize=64)
def _record_seams(fields: tuple[str, ...], suffix: str) -> tuple[str, ...]:
    """The text a record holds after its day, up to its first value, then after each value in turn."""
    texts = [suffix + '"', *("," + dumps(f) + ":" for f in fields), "}"]
    return (texts[0] + texts[1], *texts[2:])


def _cell_texts(column: Sequence) -> list[str]:
    """Each value's text in a frame: ``dumps(list(column))[1:-1].split(",")``.

    An array holds floats or ints, and the frame encoder writes a finite one as its ``repr``. So an
    array's texts are their ``repr``s unless one is not finite (``nan``, ``inf``: an ``n``) or may
    change when rounded to 6 decimals; only such an array, or a list, which may hold a null, takes
    ``dumps``, which rounds, and refuses a value that is not finite.
    """
    if isinstance(column, array):
        texts = list(map(repr, column))
        joined = ",".join(texts)
        if "n" not in joined and not may_round(joined):
            return texts
        column = column.tolist()
    return dumps(column)[1:-1].split(",")


def _compact(column: list) -> Sequence:
    """``column`` as an ``array("d")`` if every cell is a float, as an ``array("q")`` if every cell
    is an int within 64 bits, else the list itself.

    An array holds 8 bytes per value where a list holds a pointer and an object, and gives each value
    back exactly, so the wire text is the same. A column that holds a null, mixes ints and floats
    (``100`` must not turn into ``100.0``) or holds anything else stays a list.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        return array("d", column)
    if kinds == {int}:
        try:
            return array("q", column)
        except OverflowError:
            pass
    return column


def normalize_payload(
    raw: RawProviderPayload, query: DataQuery, close_time: dt.time = DEFAULT_CLOSE_TIME
) -> Records:
    """Lay ``raw.rows`` out as the query's records table: codes sorted, over ``query.days``.

    Rows that are not ``query.table()``'s shape (exactly the query's codes, each with one column per
    field, each as long as the query's days) breach the provider contract and raise InternalError.
    """
    rows, days, fields = raw.rows, query.days, tuple(query.fields)
    if rows.keys() != set(query.codes) or any(
        len(cols) != len(fields) or any(len(col) != len(days) for col in cols) for cols in rows.values()
    ):
        raise InternalError(f"provider {raw.provider_id!r} returned rows outside the query contract")
    columns = tuple(tuple(map(_compact, rows[code])) for code in query.sorted_codes)
    return Records(query.sorted_codes, days, " " + close_time.strftime("%H:%M:%S"), fields, columns)


def _filled(column: Sequence) -> Sequence:
    """``column`` with each null replaced by the last earlier non-null value; a leading null stays.

    An array cannot hold a null and comes back unscanned, a list without a null as it is; a
    rebuilt column is compacted.
    """
    if isinstance(column, array) or None not in column:
        return column
    return _compact(list(accumulate(column, lambda last, v: last if v is None else v)))


def apply_fill(records: Records, policy: str) -> Records:
    """Apply the fill policy to every column of ``records``, one pass per column.

    ``Previous`` replaces each null with the most recent earlier non-null
    value of the same field for the same code; leading nulls stay null.
    ``Blank`` returns the table as it is. Non-null values are never touched, so
    the operation is idempotent, and the input is never mutated: the result is
    the input itself when no column changed, else a new table that shares each
    column holding no null. ``policy`` is a query's ``fill``, which ``parse_options`` checked.
    """
    if policy == "Blank":
        return records
    columns = tuple(tuple(map(_filled, cols)) for cols in records.columns)
    if all(map(operator.is_, chain.from_iterable(columns), chain.from_iterable(records.columns))):
        return records
    return Records(records.codes, records.days, records.suffix, records.fields, columns)
