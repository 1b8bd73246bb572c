"""Tool handlers exposed through the manifest.

Three tools: historical retrieval, latest quote, and summary statistics.
Every numeric value a handler returns is traceable to a provider payload or
a documented statistic over one; handlers never fabricate data. A handler
takes its validated arguments dict and fails only by raising: the dispatcher
answers a :class:`~quantmcp.errors.ToolFailure` as an ``is_error`` result a
client can read and react to, and any other error as a protocol error.
"""

from __future__ import annotations

import datetime as dt
import math
import sys
import time
from typing import Any, Callable, NamedTuple

from .errors import EmptyInput, RateLimitedError, ValidationError
from .normalize import Records, apply_fill, normalize_payload, parse_options
from .providers import CANONICAL_FIELDS, DataQuery, ProviderConfig, RawProviderPayload, fetch_historical
from .registry import (
    DATE_PATTERN,
    ParamSpec,
    ToolDescriptor,
    ToolRegistry,
    validate_arguments,
)
from .security import FILL_WAIT_S, CredentialStore, RateLimiter, ResponseCache, cache_key


FILL_WAIT_MARGIN_S = 1.0  # normalize and fill after the longest a fetch may wait on its source

_CANONICAL = dict(zip(CANONICAL_FIELDS, CANONICAL_FIELDS))  # a field name -> the module's own string


def _utc_now() -> dt.datetime:
    return dt.datetime.now(dt.timezone.utc)


class ToolContext(NamedTuple):
    """Shared dependencies handed to every tool handler."""

    providers: dict[str, ProviderConfig]
    default_provider_id: str
    credentials: CredentialStore
    rate_limiter: RateLimiter
    cache: ResponseCache
    wall_clock: Callable[[], dt.datetime] = _utc_now
    mono_clock: Callable[[], float] = time.monotonic


class ToolResult(NamedTuple):
    """A tool's JSON payload plus the error flag and optional one-liner."""

    content: Any
    is_error: bool = False
    human_summary: str | None = None

    def to_result_obj(self) -> dict[str, Any]:
        if self.human_summary is None:
            return {"content": self.content, "is_error": self.is_error}
        return self._asdict()


def compute_stats(field_name: str, values: list[float]) -> dict[str, Any]:
    """Per-field statistics over non-null values; stddev uses the n denominator.

    Raises OverflowError when the sum or the variance does not fit a double.
    """
    count = len(values)
    mean = math.fsum(values) / count
    variance = math.fsum((v - mean) ** 2 for v in values) / count
    return {
        "field": field_name,
        "count": count,
        "mean": mean,
        "min": min(values),
        "max": max(values),
        "stddev": math.sqrt(variance),
    }


def _parse_date(raw: str, param: str) -> dt.date:
    try:
        return dt.date.fromisoformat(raw)
    except ValueError:
        raise ValidationError(
            f"invalid date for {param!r}",
            data={"violations": [f"{param}: {raw!r} is not a valid YYYY-MM-DD date"]},
        ) from None


def _resolve_provider(ctx: ToolContext, provider_id: str | None) -> ProviderConfig:
    pid = provider_id or ctx.default_provider_id
    provider = ctx.providers.get(pid)
    if provider is None:
        raise ValidationError(
            f"unknown provider {pid!r}",
            data={"violations": [f"provider_id: unknown provider {pid!r}"]},
        )
    return provider


def fetch_normalized(
    ctx: ToolContext, provider: ProviderConfig, query: DataQuery, kind: str = "historical"
) -> tuple[Records, dict[str, Any]]:
    """Rate-limit, consult the cache, then fetch + normalize + fill.

    A query with no trading days yields no records without taking a token
    or fetching. Raises RateLimitedError on a denied acquire and propagates
    provider errors; callers decide how those surface.
    """
    if not query.days:
        fetched_at, cache_hit = ctx.wall_clock().isoformat(), False
        records = normalize_payload(RawProviderPayload(provider.id, query.table(), fetched_at), query)
    else:
        decision = ctx.rate_limiter.acquire(provider.id, ctx.mono_clock())
        if not decision.allowed:
            raise RateLimitedError(
                f"rate limited for provider {provider.id!r}",
                data={"provider": provider.id, "retry_after_ms": decision.retry_after_ms},
            )
        key = cache_key(provider.id, query, kind)
        ttl = ctx.cache.ttl_for(query, kind, today=ctx.wall_clock().date())

        def produce() -> tuple[Records, str]:
            raw = fetch_historical(provider, query, ctx.credentials, now=ctx.wall_clock)
            records = normalize_payload(raw, query, provider.close_time)
            return apply_fill(records, query.fill), raw.fetched_at

        wait_s = max(FILL_WAIT_S, provider.fetch_bound_s(len(query.codes)) + FILL_WAIT_MARGIN_S)
        (records, fetched_at), cache_hit = ctx.cache.lookup_or_store(key, produce, ttl, wait_s)
        if records.fields != tuple(query.fields):  # the entry was filled by a query naming them in another order
            records = records.reordered(tuple(query.fields))
    meta = {
        "provider_id": provider.id,
        "fetched_at": fetched_at,
        "row_count": len(records),
        "cache_hit": cache_hit,
    }
    return records, meta


def _run_query(
    ctx: ToolContext, values: dict[str, Any], kind: str, prefix: str = ""
) -> tuple[Records, dict[str, Any]]:
    """Build, check and run the query ``values`` describe.

    Validation errors raise in a fixed order: provider, then options, then
    dates. Provider and credential failures raise from the fetch.
    """
    provider = _resolve_provider(ctx, values.get("provider_id"))
    options = parse_options(values.get("options", ""))  # a quote takes none
    if kind == "quote":
        day = _parse_date(values["as_of"], "as_of") if "as_of" in values else ctx.wall_clock().date()
        start = end = day - dt.timedelta(days=max(0, day.weekday() - 4))  # a weekend rolls back to Friday
    else:
        start = _parse_date(values["start_date"], prefix + "start_date")
        end = _parse_date(values["end_date"], prefix + "end_date")
    query = DataQuery(
        codes=list(values["codes"]),
        fields=[_CANONICAL.get(f, f) for f in values["fields"]],  # what a cache entry keeps is no request's copy
        start_date=start,
        end_date=end,
        options=options,
    )
    query.check()
    return fetch_normalized(ctx, provider, query, kind)


def tool_get_historical_data(values: dict[str, Any], ctx: ToolContext) -> ToolResult:
    """Daily history for the requested codes/fields over an inclusive range."""
    records, meta = _run_query(ctx, values, "historical")
    summary = None if records else "no trading days in the requested range"
    return ToolResult(content={"records": records, "meta": meta}, human_summary=summary)


def tool_get_quote(values: dict[str, Any], ctx: ToolContext) -> ToolResult:
    """One record per code for the last trading day at or before ``as_of``."""
    records, meta = _run_query(ctx, values, "quote")
    fields = values["fields"]
    kept = [r for r in records if any(r[f] is not None for f in fields)]
    meta["row_count"] = len(kept)
    summary = None if kept else "no data for the requested codes"
    return ToolResult(content={"records": kept, "meta": meta}, human_summary=summary)


def tool_compute_summary(values: dict[str, Any], ctx: ToolContext) -> ToolResult:
    """Per-field count/mean/min/max/stddev over non-null record values."""
    summarize_fields = values["summarize_fields"]
    if not summarize_fields:
        raise ValidationError(
            "summarize_fields must not be empty",
            data={"violations": ["summarize_fields: must name at least one field"]},
        )
    if ("records" in values) == ("query" in values):
        raise ValidationError(
            "provide exactly one of records or query",
            data={"violations": ["records/query: provide exactly one of the two"]},
        )
    if "records" in values:
        rows = values["records"]
        numbers, violations = [(f, []) for f in summarize_fields], []  # one list per name, repeats included
        for i, row in enumerate(rows):
            for f, nums in numbers:
                if (v := row.get(f)) is None:
                    continue
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    violations.append(f"records[{i}].{f}: expected number or null")
                elif isinstance(v, int) and abs(v) > sys.float_info.max:
                    violations.append(f"records[{i}].{f}: integer beyond the largest double")
                else:
                    nums.append(float(v))
    else:  # server-built records hold a number or null in every field but the strings code and timestamp
        query = validate_arguments(HISTORICAL_DESCRIPTOR, values["query"])
        rows, _ = _run_query(ctx, query, "historical", prefix="query.")
        text = [f for f in summarize_fields if f in ("code", "timestamp")]
        violations = [f"records[{i}].{f}: expected number or null" for i in range(len(rows)) for f in text]
        numbers = [(f, [float(v) for v in rows.column(f) if v is not None])
                   for f in summarize_fields if f not in text]  # unread when text is not empty
    if not rows:
        raise EmptyInput("no records to summarize")
    if violations:
        raise ValidationError("records hold non-numeric values", data={"violations": violations})
    summaries: list[dict[str, Any]] = []
    for f, nums in numbers:
        if not nums:
            summaries.append({"field": f, "error": "no non-null values"})
            continue
        try:
            summaries.append(compute_stats(f, nums))
        except OverflowError:
            summaries.append({"field": f, "error": "statistics overflow a double"})
    return ToolResult(content={"summaries": summaries, "inputs": {"row_count": len(rows)}})


_CODES_SPEC = ParamSpec(
    kind="array-of-string",
    description='Instrument codes to query, e.g. ["300750.SZ"].',
    required=True,
)
_FIELDS_SPEC = ParamSpec(
    kind="array-of-string",
    description="Canonical field names: close, open, high, low, volume, pb_lf, turn.",
    required=True,
)
_PROVIDER_SPEC = ParamSpec(
    kind="string",
    description="Provider id to fetch from; defaults to the configured default provider.",
)

HISTORICAL_DESCRIPTOR = ToolDescriptor(
    name="tool_get_historical_data",
    description=(
        "Fetch daily historical values for the given instrument codes and fields "
        "over an inclusive date range, normalized to one record per code and "
        "trading day."
    ),
    params={
        "codes": _CODES_SPEC,
        "fields": _FIELDS_SPEC,
        "start_date": ParamSpec(
            kind="string",
            description="Inclusive range start, YYYY-MM-DD.",
            required=True,
            pattern=DATE_PATTERN,
        ),
        "end_date": ParamSpec(
            kind="string",
            description="Inclusive range end, YYYY-MM-DD.",
            required=True,
            pattern=DATE_PATTERN,
        ),
        "options": ParamSpec(
            kind="string",
            description=(
                'Semicolon-separated options, e.g. "PriceAdj=F;Fill=Previous". '
                "Fill=Previous carries the last non-null value forward; the "
                "default (Blank) leaves gaps null."
            ),
            default="",
        ),
        "provider_id": _PROVIDER_SPEC,
    },
)

QUOTE_DESCRIPTOR = ToolDescriptor(
    name="tool_get_quote",
    description=(
        "Fetch the most recent record per instrument code for the last trading "
        "day at or before as_of (default: today)."
    ),
    params={
        "codes": _CODES_SPEC,
        "fields": _FIELDS_SPEC,
        "as_of": ParamSpec(
            kind="string",
            description="Reference date, YYYY-MM-DD; defaults to the server's current UTC date.",
            pattern=DATE_PATTERN,
        ),
        "provider_id": _PROVIDER_SPEC,
    },
)

SUMMARY_DESCRIPTOR = ToolDescriptor(
    name="tool_compute_summary",
    description=(
        "Compute per-field summary statistics (count, mean, min, max, stddev) "
        "over records you already hold, or over the result of a nested "
        "historical query. Nulls are excluded."
    ),
    params={
        "records": ParamSpec(
            kind="array-of-object",
            description="Inline records shaped {code, timestamp, <field>...}; mutually exclusive with query.",
        ),
        "query": ParamSpec(
            kind="object",
            description=(
                "A full historical query (same arguments as tool_get_historical_data); "
                "mutually exclusive with records."
            ),
        ),
        "summarize_fields": ParamSpec(
            kind="array-of-string",
            description="Fields to summarize, e.g. [\"close\", \"turn\"].",
            required=True,
        ),
    },
)


def build_registry() -> ToolRegistry:
    """The default tool catalog served over tools/list."""
    registry = ToolRegistry()
    registry.register(HISTORICAL_DESCRIPTOR, tool_get_historical_data)
    registry.register(QUOTE_DESCRIPTOR, tool_get_quote)
    registry.register(SUMMARY_DESCRIPTOR, tool_compute_summary)
    return registry
