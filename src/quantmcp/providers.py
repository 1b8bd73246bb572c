"""Pluggable data-source adapters behind one fetch contract.

Three kinds ship, one ``ProviderConfig`` subclass each: ``synthetic``
(deterministic, seeded), ``http`` (keyed REST, one GET per instrument code, up
to HTTP_POOL_SIZE at a time per fetch), and ``csv`` (offline exported files).
Each kind declares its fields and their defaults once, in ``READS``. A provider
keeps no state but what it derives from its frozen config on first use (the
synthetic tail tables, whether an http template takes the key); rate limiting
and caching are enforced by the caller.
The GETs run on process-wide daemon worker threads that the first http fetch
starts and that outlive a fetch; at most HTTP_POOL_SIZE of them stay idle.
Every GET goes through ``_http_get``: one request, a redirect never followed, on
one plain ``requests.Session`` per worker that pools its connections and keeps a
cookie for one GET. The proxies, CA bundle and netrc login are read from the
environment once per origin and passed with each GET.
A query's trading days are one tuple of ISO strings, ``DataQuery.days``; each
column a provider returns holds one value per entry, and normalization lays
the records table over the same tuple. Every provider returns ``Rows``, the
shape of ``DataQuery.table``; csv and http fill that table itself, each kept
row at the slot ``DataQuery.day_slot`` gives its date: csv as it reads its file,
http as the fetching thread reads the GET workers' answers in query order (a
worker only GETs). Providers deal in calendar dates only; close-of-day
timestamps are materialized during normalization.

The trading calendar is weekday-only (no exchange holidays), trading
calendar fidelity for determinism; see README for the documented divergence
from real exchange calendars.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import os
import re
import string
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import deque
from functools import cached_property, lru_cache
from itertools import chain
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple
from urllib.parse import quote

from .errors import ConfigError, Frozen, ProviderFailure, ValidationError

if TYPE_CHECKING:
    import queue

    from .security import CredentialStore

CANONICAL_FIELDS = ("close", "open", "high", "low", "volume", "pb_lf", "turn")

DEFAULT_CLOSE_TIME = dt.time(15, 0, 0)  # time of day on record timestamps unless configured

HTTP_POOL_SIZE = 8  # most GETs one http fetch keeps in flight

MAX_QUERY_RECORDS = 200_000  # most codes x trading days one query may ask for: 100 codes x 2023 is 26,000

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

    A kind declares its fields once, in ``READS``; a config holds ``id`` and exactly those fields. Two configs
    are equal when their classes, ids and fields are.
    """

    # field -> default: the fields a kind reads, and so the only ones its config section may set
    READS = {"rate": RateSpec(), "close_time": DEFAULT_CLOSE_TIME}

    def __init__(self, id: str, **fields: Any):
        unknown = fields.keys() - self.READS.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field(s) {sorted(unknown)}")
        vars(self).update(self.READS, id=id, **fields)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in ("id", *self.READS))

    def check(self) -> None:
        """Enforce the config invariants every kind shares; violations abort startup.

        A kind's bounds on its numbers keep every float derived from them finite and every wait, a denied
        call's ``retry_after_ms`` included (under 32 years), within ``threading.TIMEOUT_MAX`` (292 years).
        """
        if not 1 <= self.rate.capacity <= 2**53:  # the token count, a double, stays exact
            raise ConfigError(f"provider.{self.id}.rate_capacity: must be in [1, 2**53]")
        if not 1e-9 <= self.rate.refill_per_sec <= 1e9:
            raise ConfigError(f"provider.{self.id}.rate_refill_per_sec: must be in [1e-9, 1e9]")

    def fetch(self, query: DataQuery, credentials: "CredentialStore") -> Rows:
        """The checked ``query``'s ``Rows``."""
        raise NotImplementedError

    def failure(self, text: str, **data: Any) -> ProviderFailure:
        """A fetch failure: ``text`` after the id, as a failed call's wire ``detail``; ``data``, else a schema tag."""
        return ProviderFailure(f"provider {self.id!r} {text}", data=data or {"reason": "schema"})

    def fetch_bound_s(self, n_codes: int) -> float:
        """Longest a fetch of ``n_codes`` codes may wait on its source: 0.0 for one answered in process."""
        return 0.0


class DataQuery(Frozen):
    """Canonical request: instruments, fields, inclusive date range, options; the owner of its table's shape."""

    def __init__(
        self,
        codes: list[str],
        fields: list[str],
        start_date: dt.date,
        end_date: dt.date,
        options: Mapping[str, str] = MappingProxyType({}),
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
        elif (records := len(self.codes) * _weekday_count(self.start_date, self.end_date)) > MAX_QUERY_RECORDS:
            violations.append(f"query: {records} records (codes x trading days), over the limit of {MAX_QUERY_RECORDS}")
        if violations:
            raise ValidationError("invalid query", data={"violations": violations})

    @cached_property
    def sorted_codes(self) -> tuple[str, ...]:
        """The query's codes, sorted: the codes of its records table and of its cache key, one tuple for both."""
        return tuple(sorted(self.codes))

    @cached_property
    def months(self) -> list[tuple[Month, int, int]]:
        """The query's trading days as ``_month_slices``."""
        return _month_slices(self.start_date, self.end_date)

    @cached_property
    def days(self) -> tuple[str, ...]:
        """The query's trading days, ascending, as ISO text: the days of every column and table built for it."""
        return tuple(chain.from_iterable(isos[i:j] for (_, isos, _), i, j in self.months))

    @cached_property
    def day_index(self) -> dict[str, int]:
        """Each trading day's ISO text -> its slot, its index in ``days``."""
        return {iso: slot for slot, iso in enumerate(self.days)}

    def day_slot(self, text: str) -> int | None:
        """The slot of the day ``text`` names, or None for a day that is no trading day of the query.

        Text other than a query day's own ISO text is parsed by ``date.fromisoformat``, so ``20240102``
        finds its slot and text that names no date raises ValueError.
        """
        slot = self.day_index.get(text)
        if slot is None:
            slot = self.day_index.get(dt.date.fromisoformat(text).isoformat())
        return slot

    @property
    def fill(self) -> str:
        """The Fill policy the options name, else ``Blank``."""
        return self.options.get("Fill", "Blank")

    def table(self) -> Rows:
        """A new table of nulls for a provider to fill: per code, one column per field, one slot per day."""
        return {code: [[None] * len(self.days) for _ in self.fields] for code in self.codes}


Rows = dict[str, list[list]]  # code -> one column per query field in query order, each value a query day, None a gap
Month = tuple[tuple[int, ...], tuple[str, ...], bytes]  # weekdays' days of the month, their ISO strings, b"YYYY-MM-"


class RawProviderPayload(NamedTuple):
    """``Rows`` of the query: exactly its codes, each with one column per field, each as long as ``query.days``."""

    provider_id: str
    rows: Rows
    fetched_at: str


@lru_cache(maxsize=1200)  # clients choose the months, so the memo shared by all queries is bounded
def _month(year: int, month: int) -> Month:
    """One month's weekdays as day-of-month numbers, their ISO strings and ``b"YYYY-MM-"``; builds one date."""
    first = dt.date(year, month, 1)
    length = 31 if month == 12 else (first.replace(month=month + 1) - first).days
    head = "%04d-%02d-" % (year, month)
    days = tuple(d for d in range(1, length + 1) if (first.weekday() + d - 1) % 7 < 5)
    return days, tuple(head + "%02d" % d for d in days), head.encode()


def _weekday_count(start: dt.date, end: dt.date) -> int:
    """The number of weekdays in [start, end], counted without listing them: ordinal 1, 0001-01-01, is a Monday."""
    last, before = end.toordinal(), start.toordinal() - 1
    return last // 7 * 5 + min(last % 7, 5) - (before // 7 * 5 + min(before % 7, 5))


def _month_slices(start: dt.date, end: dt.date) -> list[tuple[Month, int, int]]:
    """The weekdays in [start, end] as ``(entry, i, j)``: ``entry[k][i:j]`` of each ``_month`` entry holding any."""
    first, last = start.year * 12 + start.month - 1, end.year * 12 + end.month - 1
    slices = []
    for n in range(first, last + 1):
        days = (entry := _month(n // 12, n % 12 + 1))[0]
        i = bisect_left(days, start.day) if n == first else 0
        j = bisect_right(days, end.day) if n == last else len(days)
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


def _tail_table(tail: bytes) -> list[int]:
    """``T`` with ``fnv1a64(tail, h) == (h * FNV_PRIME**len(tail) + T[h & 127]) mod 2**64`` for an ASCII ``tail``.

    ``h + 128`` stays an odd multiple of 128 ahead of ``h`` through each FNV step on a byte below 128.
    """
    step = pow(FNV_PRIME, len(tail), 1 << 64)
    return [(fnv1a64(tail, lo) - lo * step) & _U64 for lo in range(128)]


class SyntheticProvider(ProviderConfig):
    """A deterministic pseudo-market value for every (code, field, trading day) of a query.

    A cell's value comes from the 64-bit FNV-1a hash of ``code|field|YYYY-MM-DD|seed`` (utf-8): its residue
    ``k = hash mod 10**6``, as the unit value ``u = k / 10**6``, is scaled into a plausible range per field:
    ``round(100 + 100 * u, 2)`` for close, open, high and low, ``floor(10**6 * u)`` for volume,
    ``round(1 + 9 * u, 3)`` for pb_lf and ``round(10 * u, 4)`` for turn.
    """

    READS = {**ProviderConfig.READS, "seed": 0}

    def check(self) -> None:
        if not 0 <= self.seed <= _U64:
            raise ConfigError(f"provider.{self.id}.seed: must be in [0, 2**64 - 1]")
        super().check()

    @cached_property
    def tail_tables(self) -> list[list[int]]:
        """The ``_tail_table`` of each cell key tail ``DD|seed``, at index ``DD - 1``."""
        return [_tail_table(b"%02d|%d" % (day, self.seed)) for day in range(1, 32)]

    def fetch(self, query: DataQuery, credentials: "CredentialStore") -> Rows:
        """Every cell's value, folding each shared key prefix once and scaling by column.

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
        months = [(head, [tables[day - 1] for day in days[i:j]]) for (days, _, head), i, j in query.months]
        mask = _U64
        rows: Rows = {}
        for code in query.codes:
            cols = rows[code] = []
            stem = fnv1a64(f"{code}|".encode("utf-8"))
            for f in query.fields:
                prefix, ks = fnv1a64(f"{f}|".encode(), stem), []
                for head, day_tables in months:
                    state = fnv1a64(head, prefix)
                    base, lo = state * step, state & 127
                    ks += [((base + table[lo]) & mask) % 1_000_000 for table in day_tables]
                cols.append(_SCALE[f](ks))
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
        raise config.failure(
            f"csv column {column!r} holds non-numeric or non-finite value {cell!r}", reason="schema", column=column
        )
    return value


def _undecodable(exc: UnicodeDecodeError, read_to: int) -> str:
    """``exc``'s text, with the bad bytes at their offset in a file read up to ``read_to`` (a BOM counted).

    The text layer decodes the file a chunk at a time, so ``exc`` holds the bytes it had read, which end
    at ``read_to``, and places the bad bytes within them.
    """
    at, n = read_to - len(exc.object) + exc.start, exc.end - exc.start
    where = f"byte 0x{exc.object[exc.start]:02x} in position {at}" if n == 1 else f"bytes in position {at}-{at + n - 1}"
    return f"{exc.encoding!r} codec can't decode {where}: {exc.reason}"


class CsvProvider(ProviderConfig):
    """Rows of an offline export with ``code`` and ``date`` columns, read whole on every fetch."""

    READS = {**ProviderConfig.READS, "csv_path": None, "field_map": MappingProxyType({})}  # canonical -> column

    def check(self) -> None:
        if not self.csv_path:
            raise ConfigError(f"provider.{self.id}.csv_path: required for csv providers")
        if not os.path.isfile(self.csv_path) or not os.access(self.csv_path, os.R_OK):
            raise ConfigError(f"provider.{self.id}.csv_path: {self.csv_path!r} is not a readable file")
        super().check()

    def fetch(self, query: DataQuery, credentials: "CredentialStore") -> Rows:
        """The export's rows within ``query``; a cell is parsed only on a trading day the query asks for."""
        columns = [self.field_map.get(f, f) for f in query.fields]
        cells = query.table()
        try:
            # utf-8-sig also reads the byte order mark an Excel "CSV UTF-8" export starts with
            with open(self.csv_path, newline="", encoding="utf-8-sig") as fh:
                try:
                    reader = csv.DictReader(fh)
                    header = reader.fieldnames or []
                    for column in ["code", "date", *columns]:
                        if column not in header:
                            raise self.failure(
                                f"csv is missing column {column!r}", reason="schema", missing_column=column
                            )
                    for rec in reader:
                        try:
                            slot = query.day_slot((rec.get("date") or "").strip())
                        except ValueError:
                            raise self.failure(f"csv holds unparseable date {rec.get('date')!r}") from None
                        cols = cells.get((rec.get("code") or "").strip())
                        if cols is None or slot is None:
                            continue
                        for col, column in zip(cols, columns):
                            col[slot] = _parse_cell(rec.get(column, ""), column, self)
                except UnicodeDecodeError as exc:
                    raise self.failure(f"csv is unreadable: {_undecodable(exc, fh.buffer.tell())}") from None
                except csv.Error as exc:  # a cell past csv's field limit
                    raise self.failure(f"csv is unreadable: {exc}") from None
        except OSError as exc:  # the file went away or turned unreadable after startup; its path stays unsaid
            raise self.failure(f"csv is unreadable: {exc.strerror}") from None
        return cells


def _coerce_numeric(value: Any, column: str, config: ProviderConfig) -> float | int | None:
    if value is None:
        return None
    # The bound rejects nan, infinities and ints too large to become a float.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise config.failure(f"returned non-numeric or non-finite value for {column!r}", reason="schema", column=column)
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


_HEAD = re.compile(r"[^/?#\\]*(?://[^/?#\\]*)?")  # a URL's scheme and authority, as urllib3's ``parse_url`` splits


@lru_cache(maxsize=256)  # bounded: a template may put the code in the host, so clients can choose origins
def _environment(head: str) -> Mapping[str, Any]:
    """The arguments of a GET to a URL starting ``head`` (its ``_HEAD``) that requests would read from the environment.

    They are read once, for the origin requests sends the GET to (no login, the host lower-case and IDNA-encoded):
    the proxies (every ``*_proxy`` variable, or none where ``no_proxy`` lists it), the CA bundle (REQUESTS_CA_BUNDLE,
    else CURL_CA_BUNDLE; None keeps the default) and the netrc login for its host.
    """
    try:
        parsed = requests.utils.parse_url(head)  # as requests parses a URL
        origin = f"{parsed.scheme}://{parsed.netloc}"
    except ValueError:  # a URL requests refuses as well: its GET fails, before connecting, with no environment
        origin = ""
    utils, ca_bundle = requests.utils, os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    return MappingProxyType(
        {"proxies": utils.get_environ_proxies(origin), "verify": ca_bundle, "auth": utils.get_netrc_auth(origin)}
    )


_local = threading.local()  # ``session``: the calling GET worker's Session, made by its first GET


def _http_get(url: str, timeout: float) -> "requests.Response":
    """One request, a redirect never followed, on the calling thread's Session: every GET goes through here.

    The Session pools connections and, its ``trust_env`` off, takes the environment ``_environment`` read for
    the URL's origin as arguments. Its cookie jar is emptied after each GET, so a cookie lasts one GET. A GET
    that times out raises ``TimeoutError(exc)``, and one that fails otherwise ``ConnectionError(exc)``.
    """
    session = getattr(_local, "session", None)
    if session is None:
        session = _local.session = _import_requests().Session()
        session.trust_env = False
    try:
        return session.get(url, timeout=timeout, allow_redirects=False, **_environment(_HEAD.match(url)[0]))
    except requests.Timeout as exc:
        raise TimeoutError(exc) from exc
    except requests.RequestException as exc:
        raise ConnectionError(exc) from exc
    finally:
        session.cookies.clear()


def _close_session() -> None:
    """Close the calling thread's Session, and with it its pooled connections, if a GET made one."""
    session = vars(_local).pop("session", None)
    if session is not None:
        session.close()


_workers_lock = threading.Lock()
_tasks: "queue.SimpleQueue[Callable[[], None]] | None" = None  # runner tasks, one shared queue; made on first use
_idle = 0  # GET workers waiting on _tasks, each promised to a task put there


def _start(task: Callable[[], None]) -> None:
    """Run ``task`` on an idle GET worker, or on a new daemon worker when none is idle.

    A task is queued only with a worker promised to it, so it never waits behind another fetch's GETs.
    """
    global _tasks, _idle
    with _workers_lock:
        if _tasks is None:
            import queue  # loaded by the first http fetch, not at import

            _tasks = queue.SimpleQueue()
        _tasks.put(task)
        if _idle:
            _idle -= 1
            return
    threading.Thread(target=_work, name="quantmcp-http-get", daemon=True).start()


def _work() -> None:
    """A GET worker: run queued tasks; exit on finishing one while HTTP_POOL_SIZE workers are already idle.

    A worker closes its Session as it exits. Workers are daemon threads, so the process exits without
    waiting for a GET nobody awaits.
    """
    global _idle
    try:
        while True:
            _tasks.get()()
            with _workers_lock:
                if _idle >= HTTP_POOL_SIZE:
                    return
                _idle += 1
    finally:
        _close_session()


def _placeholders(template: str) -> set[str]:
    """An http URL template's placeholder names; ValueError for an unbalanced brace or a name nested in a spec."""
    fields = [(name, spec) for _, name, spec, _ in string.Formatter().parse(template) if name is not None]
    if any(_placeholders(spec) for _, spec in fields):  # its spec would be another placeholder's value
        raise ValueError("placeholder nested in a format spec")
    return {name for name, _ in fields}


class HttpProvider(ProviderConfig):
    """Keyed REST: one GET per instrument code from ``base_url_template``, up to HTTP_POOL_SIZE at a time."""

    READS = {
        **ProviderConfig.READS, "base_url_template": None, "field_map": MappingProxyType({}), "credential_ref": None,
        "timeout_ms": 5000, "retries": 0,
    }

    def check(self) -> None:
        if not self.base_url_template:
            raise ConfigError(f"provider.{self.id}.base_url: required for http providers")
        try:
            unknown = _placeholders(self.base_url_template) - _URL_PLACEHOLDERS
            if not unknown:  # every placeholder takes a str, so a conversion or spec no str takes fails as on a fetch
                self.base_url_template.format(**dict.fromkeys(_URL_PLACEHOLDERS, ""))
        except ValueError as exc:
            raise ConfigError(f"provider.{self.id}.base_url: malformed template: {exc}") from None
        if unknown:
            raise ConfigError(f"provider.{self.id}.base_url: unknown placeholder(s) {sorted(unknown)}")
        super().check()
        if not 1 <= self.timeout_ms <= 3_600_000:
            raise ConfigError(f"provider.{self.id}.timeout_ms: must be in [1, 3600000]")
        if not 0 <= self.retries <= 100:
            raise ConfigError(f"provider.{self.id}.retries: must be in [0, 100]")

    @cached_property
    def needs_apikey(self) -> bool:
        """Whether ``base_url_template`` has an ``apikey`` placeholder, so a fetch resolves the credential."""
        return "apikey" in _placeholders(self.base_url_template)

    def _get(self, query: DataQuery, code: str, columns: list[str], apikey: str) -> Any:
        """GET one code's answer, unread, retrying a timed-out or failed connection at most ``retries`` times."""
        url = self.base_url_template.format(
            code=quote(code, safe=""),  # encoded whole, so a code cannot add parameters to the URL
            field=quote(",".join(columns), safe=""),
            start=query.start_date.isoformat(),
            end=query.end_date.isoformat(),
            apikey=apikey,  # as configured: redaction scans error messages for the raw secret
        )
        response = None
        for attempt in range(self.retries + 1):
            try:
                response = _http_get(url, timeout=self.timeout_ms / 1000.0)
                break
            except TimeoutError as exc:
                if attempt == self.retries:
                    raise self.failure(f"timed out after {self.timeout_ms}ms", timeout=True) from exc
            except ConnectionError as exc:
                if attempt == self.retries:
                    raise self.failure(f"request failed: {exc}", reason="connection") from exc
        if not 200 <= response.status_code < 300:
            raise self.failure(f"returned HTTP {response.status_code}", status=response.status_code)
        return response

    def fetch(self, query: DataQuery, credentials: "CredentialStore") -> Rows:
        """GET each code on the process-wide GET workers, at most HTTP_POOL_SIZE at a time, and read the answers.

        The fetch queues up to HTTP_POOL_SIZE runner tasks; each takes the next code not yet cancelled
        until none is left. This thread reads the answers in query order into one table, so of two
        answers holding one (code, day) the later wins, and the first failing code in query order is
        the one reported, whichever GET finished first. Once a GET fails, codes whose GET has not
        started are cancelled; a bad answer cancels them once every earlier code is read. GETs in
        flight are left to finish unawaited. Each GET goes through ``_http_get``, on its worker's
        Session: it makes one request and follows no redirect, reuses a connection the upstream kept
        alive, sends no cookie an earlier GET was given, and takes proxies, CA bundle and netrc login
        from what the environment held at the first GET to its origin.
        """
        from concurrent.futures import Future  # loaded by the first http fetch, not at import

        _import_requests()  # here, not on a GET worker, where it left the server's peak RSS 0.6 MB higher
        columns = [self.field_map.get(f, f) for f in query.fields]
        apikey = ""
        if self.needs_apikey:
            apikey = credentials.resolve(self.credential_ref or self.id)
        day_index, biggest = query.day_index, sys.float_info.max
        cells = query.table()
        futures: list[Future] = [Future() for _ in query.codes]
        pending = deque(zip(query.codes, futures))

        def cancel_rest() -> None:
            for future in futures:
                future.cancel()  # a no-op on a code already started

        def run() -> None:
            while True:
                try:
                    code, future = pending.popleft()
                except IndexError:  # no code is left
                    return
                if not future.set_running_or_notify_cancel():
                    continue
                try:
                    future.set_result(self._get(query, code, columns, apikey))
                except BaseException as exc:  # stored as an executor stores it; future.result() re-raises it
                    cancel_rest()  # the fetch fails, so no later code starts
                    future.set_exception(exc)

        try:
            for _ in range(min(len(query.codes), HTTP_POOL_SIZE)):
                _start(run)
            for code, future in zip(query.codes, futures):
                try:
                    body = future.result().json()
                except (ValueError, RecursionError):  # also a body nested past the interpreter's recursion limit
                    raise self.failure("returned a non-JSON body") from None
                if not isinstance(body, dict) or not isinstance(body.get("rows"), list):
                    raise self.failure('body must be shaped {"rows": [...]}')
                for raw_row in body["rows"]:
                    if not isinstance(raw_row, dict):
                        raise self.failure("returned a non-object row")
                    date = raw_row.get("date")
                    slot = day_index.get(date) if type(date) is str else None
                    if slot is None:
                        try:
                            slot = query.day_slot(str(date))
                        except ValueError:
                            raise self.failure(f"returned unparseable date {date!r}") from None
                    row_code = raw_row.get("code", code)
                    if not isinstance(row_code, str):
                        raise self.failure("returned a non-string code")
                    cols = cells.get(row_code)
                    if cols is None or slot is None:
                        continue  # keep the payload within the query contract; a weekend row's cells are never read
                    for col, column in zip(cols, columns):
                        value = raw_row.get(column)
                        if type(value) is not float or not -biggest <= value <= biggest:  # a finite float is kept
                            value = _coerce_numeric(value, column, self)
                        col[slot] = value
        finally:
            cancel_rest()
        return cells

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
    """Fetch the checked ``query``'s ``Rows`` from the source ``config`` describes.

    Synthetic sources fill every cell; csv and http sources leave ``None``
    on each day they lack, which normalization carries as a null.
    """
    rows = config.fetch(query, credentials)
    stamp = (now() if now is not None else dt.datetime.now(dt.timezone.utc)).isoformat()
    return RawProviderPayload(provider_id=config.id, rows=rows, fetched_at=stamp)
