"""Pluggable data-source adapters behind one fetch contract.

Three kinds ship, one ``ProviderConfig`` subclass each: ``synthetic``
(deterministic, seeded), ``http`` (keyed REST, one GET per instrument code, up
to HTTP_POOL_SIZE at a time), and ``csv`` (offline exported files). A provider
keeps no state but what it derives from its frozen config on first use (the
synthetic tail tables); rate limiting and caching are enforced by the caller.
Providers deal in calendar dates only; close-of-day timestamps are
materialized during normalization.

The trading calendar is weekday-only (no exchange holidays), trading
calendar fidelity for determinism; see README for the documented divergence
from real exchange calendars.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import os
import string
import sys
from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Any, Callable, NamedTuple
from urllib.parse import quote

from .errors import ConfigError, Frozen, ProviderFailure, ValidationError

if TYPE_CHECKING:
    import requests  # bound at runtime by _import_requests on the first http fetch

    from .normalize import OptionsMap
    from .security import CredentialStore

CANONICAL_FIELDS = ("close", "open", "high", "low", "volume", "pb_lf", "turn")

DEFAULT_CLOSE_TIME = dt.time(15, 0, 0)  # time of day on record timestamps unless configured

HTTP_POOL_SIZE = 8  # most GETs one http fetch keeps in flight

_URL_PLACEHOLDERS = frozenset({"code", "field", "start", "end", "apikey"})

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1


def fnv1a64(data: bytes, h: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a hash of ``data``, folded on from state ``h``.

    FNV-1a folds one byte at a time, so ``fnv1a64(b, fnv1a64(a))`` equals
    ``fnv1a64(a + b)``: a shared prefix can be hashed once.
    """
    prime, mask = FNV_PRIME, _U64
    for byte in data:
        h = ((h ^ byte) * prime) & mask
    return h


class RateSpec(NamedTuple):
    capacity: int = 5
    refill_per_sec: float = 1.0


class ProviderConfig(Frozen):
    """Declarative description of one data source; a subclass per kind fetches from it.

    Subclasses add no fields. Two configs are equal when their classes and all their fields are.
    """

    __slots__ = (
        "id", "base_url_template", "csv_path", "seed", "field_map", "credential_ref", "rate", "timeout_ms",
        "retries", "close_time",
    )

    def __init__(
        self,
        id: str,
        base_url_template: str | None = None,
        csv_path: str | None = None,
        seed: int = 0,
        field_map: dict[str, str] | None = None,  # canonical field -> provider column
        credential_ref: str | None = None,
        rate: RateSpec | None = None,
        timeout_ms: int = 5000,
        retries: int = 0,
        close_time: dt.time = DEFAULT_CLOSE_TIME,
    ):
        values = (
            id, base_url_template, csv_path, seed, {} if field_map is None else field_map, credential_ref,
            RateSpec() if rate is None else rate, timeout_ms, retries, close_time,
        )
        for name, value in zip(ProviderConfig.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in ProviderConfig.__slots__)

    def check(self) -> None:
        """Enforce the config invariants every kind shares; violations abort startup."""
        if not self.id:
            raise ConfigError("provider id must be non-empty")
        if not 0 <= self.seed <= _U64:
            raise ConfigError(f"provider.{self.id}.seed: must fit in 64 unsigned bits")
        if self.rate.capacity < 1:
            raise ConfigError(f"provider.{self.id}.rate_capacity: must be >= 1")
        if self.rate.refill_per_sec <= 0:
            raise ConfigError(f"provider.{self.id}.rate_refill_per_sec: must be > 0")
        if self.timeout_ms < 1:
            raise ConfigError(f"provider.{self.id}.timeout_ms: must be >= 1")
        if self.retries < 0:
            raise ConfigError(f"provider.{self.id}.retries: must be >= 0")

    def fetch(self, query: DataQuery, credentials: "CredentialStore") -> Rows:
        """Canonical columns for the checked ``query``."""
        raise NotImplementedError

    def fetch_bound_s(self, n_codes: int) -> float:
        """Longest a fetch of ``n_codes`` codes may wait on its source: 0.0 for one answered in process."""
        return 0.0


class DataQuery(Frozen):
    """Canonical request: instruments, fields, inclusive date range, options."""

    def __init__(
        self,
        codes: list[str],
        fields: list[str],
        start_date: dt.date,
        end_date: dt.date,
        options: "OptionsMap | None" = None,
    ):
        vars(self).update(codes=codes, fields=fields, start_date=start_date, end_date=end_date, options=options)

    def check(self) -> None:
        violations = []
        if not self.codes or any(not isinstance(c, str) or not c for c in self.codes):
            violations.append("codes: must be a non-empty list of non-empty strings")
        elif len(set(self.codes)) != len(self.codes):
            violations.append("codes: duplicate instrument codes")
        if not self.fields:
            violations.append("fields: must be non-empty")
        elif len(set(self.fields)) != len(self.fields):
            violations.append("fields: duplicate field names")
        for f in self.fields:
            if f not in CANONICAL_FIELDS:
                violations.append(
                    f"fields: unknown field {f!r}; canonical fields are {', '.join(CANONICAL_FIELDS)}"
                )
        if self.start_date > self.end_date:
            violations.append("start_date: must not be after end_date")
        if violations:
            raise ValidationError("invalid query", data={"violations": violations})

    @cached_property
    def months(self) -> list[tuple[Month, int, int]]:
        """The query's trading days as ``_month_slices``."""
        return _month_slices(self.start_date, self.end_date)

    @cached_property
    def days(self) -> list[dt.date]:
        """The query's trading days, ascending."""
        return [day for (days, _, _), i, j in self.months for day in days[i:j]]


Rows = dict[str, dict[str, list]]  # code -> canonical field -> one value per query day, None for a gap
Month = tuple[tuple[dt.date, ...], tuple[str, ...], bytes]  # weekdays, their ISO strings, b"YYYY-MM-"


class RawProviderPayload(NamedTuple):
    """Columns by query code then canonical field, in query order, each as long as ``query.days``."""

    provider_id: str
    rows: Rows
    fetched_at: str


@lru_cache(maxsize=1200)  # clients choose the months, so the memo shared by all queries is bounded
def _month(year: int, month: int) -> Month:
    """One month's weekdays, their ISO strings and ``b"YYYY-MM-"``; builds no date past the month."""
    first = dt.date(year, month, 1)
    length = 31 if month == 12 else (first.replace(month=month + 1) - first).days
    head = "%04d-%02d-" % (year, month)
    days = [d for d in range(1, length + 1) if (first.weekday() + d - 1) % 7 < 5]
    return tuple(dt.date(year, month, d) for d in days), tuple(head + "%02d" % d for d in days), head.encode()


def _month_slices(start: dt.date, end: dt.date) -> list[tuple[Month, int, int]]:
    """The weekdays in [start, end] as ``(entry, i, j)``: ``entry[k][i:j]`` of each ``_month`` entry holding any."""
    first, last = start.year * 12 + start.month - 1, end.year * 12 + end.month - 1
    slices = []
    for n in range(first, last + 1):
        days = (entry := _month(n // 12, n % 12 + 1))[0]
        i = bisect_left(days, start) if n == first else 0
        j = bisect_right(days, end) if n == last else len(days)
        if i < j:
            slices.append((entry, i, j))
    return slices


# Each field's scaling of a column of residues ``k`` in [0, 10**6) into a plausible range; each
# equals the ``round`` in its tie branch for every ``k`` (see ``SyntheticProvider.fetch``).
_SCALE: dict[str, Callable[[list[int]], list]] = dict.fromkeys(
    ("close", "open", "high", "low"),
    lambda ks: [
        (10000 + (k + 49) // 100) / 100 if k % 100 != 50 else round(100 + 100 * (k / 1_000_000), 2) for k in ks
    ],
) | {
    "volume": lambda ks: [math.floor(1_000_000 * (k / 1_000_000)) for k in ks],  # not k for 11,549 of them
    "pb_lf": lambda ks: [
        (1000 + (9 * k + 499) // 1000) / 1000 if 9 * k % 1000 != 500 else round(1 + 9 * (k / 1_000_000), 3)
        for k in ks
    ],
    "turn": lambda ks: [(k + 4) // 10 / 10000 if k % 10 != 5 else round(10 * (k / 1_000_000), 4) for k in ks],
}


def synthetic_value(code: str, field_name: str, day: dt.date, seed: int) -> float | int:
    """Deterministic pseudo-market value for (code, field, day, seed).

    Derived from a 64-bit FNV-1a hash of ``code|field|YYYY-MM-DD|seed``
    mapped into [0, 1); each field scales that unit value into a plausible
    range (prices near 100-200, turnover under 10, and so on).
    """
    if field_name not in CANONICAL_FIELDS:
        raise ValidationError(f"unknown field {field_name!r}")
    key = f"{code}|{field_name}|{day.isoformat()}|{seed}"
    return _SCALE[field_name]([fnv1a64(key.encode("utf-8")) % 1_000_000])[0]


def _tail_table(tail: bytes) -> list[int]:
    """``T`` with ``fnv1a64(tail, h) == (h * FNV_PRIME**len(tail) + T[h & 127]) mod 2**64`` for an ASCII ``tail``.

    ``h + 128`` stays an odd multiple of 128 ahead of ``h`` through each FNV step on a byte below 128.
    """
    step = pow(FNV_PRIME, len(tail), 1 << 64)
    return [(fnv1a64(tail, lo) - lo * step) & _U64 for lo in range(128)]


class SyntheticProvider(ProviderConfig):
    """``synthetic_value`` for every (code, field, trading day) of a query; ignores ``field_map``."""

    @cached_property
    def tail_tables(self) -> list[list[int]]:
        """The ``_tail_table`` of each cell key tail ``DD|seed``, at index ``DD - 1``."""
        return [_tail_table(b"%02d|%d" % (day, self.seed)) for day in range(1, 32)]

    def fetch(self, query: DataQuery, credentials: "CredentialStore") -> Rows:
        """``synthetic_value`` for every cell, folding each shared key prefix once and scaling by column.

        A cell's key is ``code|field|YYYY-MM-DD|seed``. ``code|`` is folded once
        per code, ``field|`` on from that once per (code, field) and ``YYYY-MM-``
        on from that once per month. XOR with a byte and multiplication mod 2**64
        never carry bits downward, so the low byte of each FNV step depends only
        on the low byte of the state before it; the ASCII ``DD|seed`` tail then
        folds by one lookup in its ``_tail_table``, by the low 7 bits.

        Each (code, field) column of residues ``k = hash mod 10**6`` is scaled in
        one ``_SCALE`` call, in integer arithmetic equal to the ``round`` formula:
        away from a tie the float error of ``100 + 100 * (k / 10**6)`` (about
        1e-13) is far below the 0.005 gap to a rounding boundary, an int divided
        by an int is correctly rounded as ``round``'s decimal-to-double step is,
        and a tie falls back to ``round`` (checked for all 10**6 values of ``k``).
        """
        tables = self.tail_tables
        step = pow(FNV_PRIME, len(b"01|%d" % self.seed), 1 << 64)  # every tail has this length
        months = [(head, [tables[day.day - 1] for day in days[i:j]]) for (days, _, head), i, j in query.months]
        mask = _U64
        rows: Rows = {}
        for code in query.codes:
            by_field = rows[code] = {}
            stem = fnv1a64(f"{code}|".encode("utf-8"))
            for f in query.fields:
                prefix, ks = fnv1a64(f"{f}|".encode(), stem), []
                for head, day_tables in months:
                    state = fnv1a64(head, prefix)
                    base, lo = state * step, state & 127
                    ks += [((base + table[lo]) & mask) % 1_000_000 for table in day_tables]
                by_field[f] = _SCALE[f](ks)
        return rows


def _columns(by_code: dict[str, dict[dt.date, dict[str, Any]]], query: DataQuery) -> Rows:
    """Lay per-day rows out as ``Rows``: ``None`` on a day with no row, and a row on any other day ignored."""
    no_row = dict.fromkeys(query.fields)
    rows: Rows = {}
    for code, by_day in by_code.items():
        day_rows = [by_day.get(day, no_row) for day in query.days]
        rows[code] = {f: [row[f] for row in day_rows] for f in query.fields}
    return rows


def _parse_cell(raw: str, column: str, config: ProviderConfig) -> float | None:
    cell = raw.strip() if raw is not None else ""
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        raise ProviderFailure(
            f"provider {config.id!r} csv column {column!r} holds non-numeric or non-finite value {cell!r}",
            data={"reason": "schema", "column": column},
        )
    return value


class CsvProvider(ProviderConfig):
    """Rows of an offline export with ``code`` and ``date`` columns, read whole on every fetch."""

    def check(self) -> None:
        if not self.csv_path:
            raise ConfigError(f"provider.{self.id}.csv_path: required for csv providers")
        if not os.path.isfile(self.csv_path) or not os.access(self.csv_path, os.R_OK):
            raise ConfigError(f"provider.{self.id}.csv_path: {self.csv_path!r} is not a readable file")
        super().check()

    def fetch(self, query: DataQuery, credentials: "CredentialStore") -> Rows:
        """The export's rows within ``query``; a cell is parsed only on a trading day the query asks for."""
        columns = [(f, self.field_map.get(f, f)) for f in query.fields]
        rows: dict[str, dict[dt.date, dict[str, Any]]] = {code: {} for code in query.codes}
        try:
            with open(self.csv_path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                header = reader.fieldnames or []
                for column in ["code", "date", *(column for _, column in columns)]:
                    if column not in header:
                        raise ProviderFailure(
                            f"provider {self.id!r} csv is missing column {column!r}",
                            data={"reason": "schema", "missing_column": column},
                        )
                for rec in reader:
                    try:
                        day = dt.date.fromisoformat((rec.get("date") or "").strip())
                    except ValueError:
                        raise ProviderFailure(
                            f"provider {self.id!r} csv holds unparseable date {rec.get('date')!r}",
                            data={"reason": "schema"},
                        ) from None
                    by_day = rows.get((rec.get("code") or "").strip())
                    if by_day is None or not query.start_date <= day <= query.end_date or day.weekday() > 4:
                        continue
                    by_day[day] = {f: _parse_cell(rec.get(column, ""), column, self) for f, column in columns}
        except (UnicodeDecodeError, csv.Error) as exc:  # a non-UTF-8 byte, or a cell past csv's field limit
            raise ProviderFailure(
                f"provider {self.id!r} csv is unreadable: {exc}", data={"reason": "schema"}
            ) from None
        return _columns(rows, query)


def _coerce_numeric(value: Any, column: str, config: ProviderConfig) -> float | int | None:
    if value is None:
        return None
    # The bound rejects nan, infinities and ints too large to become a float.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ProviderFailure(
            f"provider {config.id!r} returned non-numeric or non-finite value for {column!r}",
            data={"reason": "schema", "column": column},
        )
    return value


def _import_requests() -> Any:
    """Import ``requests`` on first use, so a session that never fetches over http never loads it."""
    global requests
    import requests

    return requests


def __getattr__(name: str) -> Any:
    # Keeps ``providers.requests`` resolvable (and patchable) before the first http fetch.
    if name == "requests":
        return _import_requests()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class HttpProvider(ProviderConfig):
    """Keyed REST: one GET per instrument code from ``base_url_template``, up to HTTP_POOL_SIZE at a time."""

    def check(self) -> None:
        if not self.base_url_template:
            raise ConfigError(f"provider.{self.id}.base_url: required for http providers")
        names = {fname for _, fname, _, _ in string.Formatter().parse(self.base_url_template)}
        unknown = names - _URL_PLACEHOLDERS - {None}
        if unknown:
            raise ConfigError(f"provider.{self.id}.base_url: unknown placeholder(s) {sorted(unknown)}")
        super().check()

    def _fetch_code(
        self, query: DataQuery, code: str, columns: list[tuple[str, str]], apikey: str, codes: set[str]
    ) -> list[tuple[str, dt.date, dict[str, Any]]]:
        """GET one code's rows, retrying connection failures, and keep those within the query."""
        url = self.base_url_template.format(
            code=quote(code, safe=""),  # encoded whole, so a code cannot add parameters to the URL
            field=quote(",".join(column for _, column in columns), safe=""),
            start=query.start_date.isoformat(),
            end=query.end_date.isoformat(),
            apikey=apikey,  # as configured: redaction scans error messages for the raw secret
        )
        response = None
        for attempt in range(self.retries + 1):
            try:
                response = requests.get(url, timeout=self.timeout_ms / 1000.0)
                break
            except requests.Timeout as exc:
                if attempt == self.retries:
                    raise ProviderFailure(
                        f"provider {self.id!r} timed out after {self.timeout_ms}ms",
                        data={"timeout": True},
                    ) from exc
            except requests.RequestException as exc:
                if attempt == self.retries:
                    raise ProviderFailure(
                        f"provider {self.id!r} request failed: {exc}",
                        data={"reason": "connection"},
                    ) from exc
        if not 200 <= response.status_code < 300:
            raise ProviderFailure(
                f"provider {self.id!r} returned HTTP {response.status_code}",
                data={"status": response.status_code},
            )
        try:
            body = response.json()
        except ValueError:
            raise ProviderFailure(
                f"provider {self.id!r} returned a non-JSON body",
                data={"reason": "schema"},
            ) from None
        if not isinstance(body, dict) or not isinstance(body.get("rows"), list):
            raise ProviderFailure(
                f'provider {self.id!r} body must be shaped {{"rows": [...]}}',
                data={"reason": "schema"},
            )
        rows = []
        for raw_row in body["rows"]:
            if not isinstance(raw_row, dict):
                raise ProviderFailure(
                    f"provider {self.id!r} returned a non-object row",
                    data={"reason": "schema"},
                )
            try:
                day = dt.date.fromisoformat(str(raw_row.get("date")))
            except ValueError:
                raise ProviderFailure(
                    f"provider {self.id!r} returned unparseable date {raw_row.get('date')!r}",
                    data={"reason": "schema"},
                ) from None
            row_code = raw_row.get("code", code)
            if not isinstance(row_code, str):
                raise ProviderFailure(
                    f"provider {self.id!r} returned a non-string code",
                    data={"reason": "schema"},
                )
            if row_code not in codes or not query.start_date <= day <= query.end_date or day.weekday() > 4:
                continue  # keep the payload within the query contract; a weekend row's cells are never read
            row = {f: _coerce_numeric(raw_row.get(column), column, self) for f, column in columns}
            rows.append((row_code, day, row))
        return rows

    def fetch(self, query: DataQuery, credentials: "CredentialStore") -> Rows:
        """Fan the per-code GETs out on at most HTTP_POOL_SIZE threads.

        Rows merge in query order, so of two GETs returning one (code, day) the
        later wins. On failure the first failing code in query order is reported
        as soon as it and every earlier code are known, whichever GET finished
        first; GETs not yet started are cancelled and those in flight are left
        to finish unawaited.
        """
        from concurrent.futures import ThreadPoolExecutor  # loaded by the first http fetch, not at import

        _import_requests()  # _fetch_code reads requests.get per call, where tests and tracers patch it
        columns = [(f, self.field_map.get(f, f)) for f in query.fields]
        apikey = ""
        if "{apikey}" in self.base_url_template:
            apikey = credentials.resolve(self.credential_ref or self.id)
        codes = set(query.codes)
        rows: dict[str, dict[dt.date, dict[str, Any]]] = {code: {} for code in query.codes}
        pool = ThreadPoolExecutor(max_workers=min(len(query.codes), HTTP_POOL_SIZE))
        try:
            futures = [pool.submit(self._fetch_code, query, code, columns, apikey, codes) for code in query.codes]
            for future in futures:
                for code, day, row in future.result():
                    rows[code][day] = row
            return _columns(rows, query)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def fetch_bound_s(self, n_codes: int) -> float:
        """Longest an http fetch of ``n_codes`` codes may spend on GETs.

        The GETs run in waves of HTTP_POOL_SIZE; each code makes up to
        ``retries + 1`` attempts of at most ``timeout_ms`` each.
        """
        return math.ceil(n_codes / HTTP_POOL_SIZE) * (self.retries + 1) * self.timeout_ms / 1000.0


PROVIDER_CLASSES = {"synthetic": SyntheticProvider, "http": HttpProvider, "csv": CsvProvider}  # by config kind


def fetch_historical(
    config: ProviderConfig,
    query: DataQuery,
    credentials: "CredentialStore",
    now: Callable[[], dt.datetime] | None = None,
) -> RawProviderPayload:
    """Fetch canonical columns for ``query`` from the source ``config`` describes.

    Synthetic sources fill every cell; csv and http sources leave ``None``
    on each day they lack, which normalization carries as a null.
    """
    query.check()
    rows = config.fetch(query, credentials)
    stamp = (now() if now is not None else dt.datetime.now(dt.timezone.utc)).isoformat()
    return RawProviderPayload(provider_id=config.id, rows=rows, fetched_at=stamp)
