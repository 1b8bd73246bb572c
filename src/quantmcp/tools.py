"""Tool handlers exposed through the manifest.

Three tools: historical retrieval, latest quote, and summary statistics.
Every numeric value a handler returns is traceable to a provider payload or
a documented statistic over one; handlers never fabricate data. Provider
and data failures come back as ``ToolResult(is_error=True)`` so a client
can read and react to them, while malformed arguments stay protocol errors.
"""

from __future__ import annotations

import datetime as dt
import math
import sys
import time
from typing import Any, Callable

from .errors import CredentialMissing, ProviderFailure, RateLimitedError, ValidationError
from .normalize import Records, apply_fill, normalize_payload, parse_options
from .providers import DataQuery, ProviderConfig, RawProviderPayload, fetch_historical
from .registry import (
    DATE_PATTERN,
    ParamSpec,
    ToolDescriptor,
    ToolRegistry,
    ValidatedArgs,
    validate_arguments,
)
from .security import FILL_WAIT_S, CredentialStore, RateLimiter, ResponseCache, cache_key


FILL_WAIT_MARGIN_S = 1.0  # normalize and fill after the longest a fetch may wait on its source


def _utc_now() -> dt.datetime:
    return dt.datetime.now(dt.timezone.utc)


class ToolContext:
    """Shared dependencies handed to every tool handler."""

    __slots__ = (
        "providers", "default_provider_id", "credentials", "rate_limiter", "cache", "wall_clock", "mono_clock",
    )

    def __init__(
        self,
        providers: dict[str, ProviderConfig],
        default_provider_id: str,
        credentials: CredentialStore,
        rate_limiter: RateLimiter,
        cache: ResponseCache,
        wall_clock: Callable[[], dt.datetime] = _utc_now,
        mono_clock: Callable[[], float] = time.monotonic,
    ):
        self.providers = providers
        self.default_provider_id = default_provider_id
        self.credentials = credentials
        self.rate_limiter = rate_limiter
        self.cache = cache
        self.wall_clock = wall_clock
        self.mono_clock = mono_clock


class ToolResult:
    """A tool's JSON payload plus the error flag and optional one-liner."""

    __slots__ = ("content", "is_error", "human_summary")

    def __init__(self, content: Any, is_error: bool = False, human_summary: str | None = None):
        self.content = content
        self.is_error = is_error
        self.human_summary = human_summary

    def to_result_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"content": self.content, "is_error": self.is_error}
        if self.human_summary is not None:
            obj["human_summary"] = self.human_summary
        return obj


def compute_stats(field_name: str, values: list[float]) -> dict[str, Any]:
    """Per-field statistics over non-null values; stddev uses the n denominator.

    Raises OverflowError when the sum or the variance does not fit a double.
    """
    count = len(values)
    mean = math.fsum(values) / count
    variance = math.fsum((v - mean) ** 2 for v in values) / count
    if not math.isfinite(variance):  # a difference from the mean overflowed to inf
        raise OverflowError("variance overflows a double")
    return {
        "field": field_name,
        "count": count,
        "mean": mean,
        "min": min(values),
        "max": max(values),
        "stddev": math.sqrt(variance),
    }


def _error_result(error_kind: str, detail: str) -> ToolResult:
    return ToolResult(
        content={"error_kind": error_kind, "detail": detail},
        is_error=True,
        human_summary=f"{error_kind}: {detail}",
    )


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
    if not query.months:
        fetched_at, cache_hit = ctx.wall_clock().isoformat(), False
        records = normalize_payload(RawProviderPayload(provider.id, {}, fetched_at), query)
    else:
        decision = ctx.rate_limiter.acquire(provider.id, ctx.mono_clock())
        if not decision.allowed:
            raise RateLimitedError(
                f"rate limited for provider {provider.id!r}",
                data={"provider": provider.id, "retry_after_ms": decision.retry_after_ms},
            )
        fill = query.options.get("Fill", "Blank") if query.options is not None else "Blank"
        key = cache_key(provider.id, query, kind)
        ttl = ctx.cache.ttl_for(query, kind, today=ctx.wall_clock().date())

        def produce() -> tuple[Records, str]:
            raw = fetch_historical(provider, query, ctx.credentials, now=ctx.wall_clock)
            records = normalize_payload(raw, query, provider.close_time)
            return apply_fill(records, fill), raw.fetched_at

        wait_s = max(FILL_WAIT_S, provider.fetch_bound_s(len(query.codes)) + FILL_WAIT_MARGIN_S)
        (records, fetched_at), cache_hit = ctx.cache.lookup_or_store(key, produce, ttl, wait_s)
        if records.fields != tuple(query.fields):  # the entry was filled by a query naming them in another order
            order = [records.fields.index(f) for f in query.fields]
            columns = tuple(tuple(cols[i] for i in order) for cols in records.columns)
            records = Records(records.codes, records.days, records.suffix, tuple(query.fields), columns)
    meta = {
        "provider_id": provider.id,
        "fetched_at": fetched_at,
        "row_count": len(records),
        "cache_hit": cache_hit,
    }
    return records, meta


def _run_query(
    ctx: ToolContext, values: dict[str, Any], kind: str, prefix: str = ""
) -> tuple[Records, dict[str, Any]] | ToolResult:
    """Build, check and run the query ``values`` describe.

    Validation errors raise in a fixed order: provider, then options, then
    dates. Provider and credential failures come back as an error result.
    """
    provider = _resolve_provider(ctx, values.get("provider_id"))
    if kind == "quote":
        options = None
        day = _parse_date(values["as_of"], "as_of") if "as_of" in values else ctx.wall_clock().date()
        start = end = day - dt.timedelta(days=max(0, day.weekday() - 4))  # a weekend rolls back to Friday
    else:
        options = parse_options(values.get("options", ""))
        start = _parse_date(values["start_date"], prefix + "start_date")
        end = _parse_date(values["end_date"], prefix + "end_date")
    query = DataQuery(
        codes=list(values["codes"]),
        fields=list(values["fields"]),
        start_date=start,
        end_date=end,
        options=options,
    )
    query.check()
    try:
        return fetch_normalized(ctx, provider, query, kind)
    except ProviderFailure as exc:
        return _error_result("provider_failure", exc.message)
    except CredentialMissing as exc:
        return _error_result("credential_missing", exc.message)


def tool_get_historical_data(args: ValidatedArgs, ctx: ToolContext) -> ToolResult:
    """Daily history for the requested codes/fields over an inclusive range."""
    out = _run_query(ctx, args.values, "historical")
    if isinstance(out, ToolResult):
        return out
    records, meta = out
    summary = None if records else "no trading days in the requested range"
    return ToolResult(content={"records": records, "meta": meta}, human_summary=summary)


def tool_get_quote(args: ValidatedArgs, ctx: ToolContext) -> ToolResult:
    """One record per code for the last trading day at or before ``as_of``."""
    out = _run_query(ctx, args.values, "quote")
    if isinstance(out, ToolResult):
        return out
    records, meta = out
    fields = args.values["fields"]
    kept = [r for r in records if any(r[f] is not None for f in fields)]
    meta["row_count"] = len(kept)
    summary = None if kept else "no data for the requested codes"
    return ToolResult(content={"records": kept, "meta": meta}, human_summary=summary)


def tool_compute_summary(args: ValidatedArgs, ctx: ToolContext) -> ToolResult:
    """Per-field count/mean/min/max/stddev over non-null record values."""
    values = args.values
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
        validated = validate_arguments(HISTORICAL_DESCRIPTOR, values["query"])
        out = _run_query(ctx, validated.values, "historical", prefix="query.")
        if isinstance(out, ToolResult):
            return out
        rows = out[0]
        text = [f for f in summarize_fields if f in ("code", "timestamp")]
        violations = [f"records[{i}].{f}: expected number or null" for i in range(len(rows)) for f in text]
        numbers = [(f, [float(v) for v in rows.column(f) if v is not None])
                   for f in summarize_fields if f not in text]  # unread when text is not empty
    if not rows:
        return _error_result("empty_input", "no records to summarize")
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
