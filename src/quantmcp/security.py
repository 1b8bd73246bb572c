"""Credential vaulting, log/wire redaction, rate limiting, response caching.

Secrets live server-side only: the store never serializes them, its repr
shows provider ids alone, and :func:`redact` scrubs every outgoing frame and
log line in which :meth:`CredentialStore.shows_in` finds a secret. The
token-bucket limiter and the TTL cache are the only shared mutable state in
the server; both are safe for concurrent use.
"""

from __future__ import annotations

import datetime as dt
import math
import os
import re
import stat
import sys
import threading
from typing import Any, Callable, Hashable, Iterable, Mapping, NamedTuple

from .errors import ConfigError, CredentialMissing, InternalError
from .providers import DataQuery, RateSpec
from .transport import ErrorObject, JsonRpcMessage, PreEncoded, json_line

REDACTED = "***REDACTED***"

ENV_PREFIX = "QUANTMCP_CRED_"

_CRED_LINE_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

# Redaction rewrites every occurrence of a secret, so a shorter one would
# also rewrite protocol keys such as "serverInfo" on the wire.
MIN_SECRET_CHARS = 8


def env_credential_name(provider_id: str) -> str:
    """Environment variable carrying the secret for ``provider_id``."""
    return ENV_PREFIX + re.sub(r"[^A-Za-z0-9]", "_", provider_id).upper()


class CredentialStore:
    """Read-only map of provider id to secret; never serialized anywhere."""

    def __init__(self, secrets: Mapping[str, str], source: str = "file"):
        self._secrets = dict(secrets)
        self.source = source
        # Longest first, so a secret that contains another is replaced whole.
        self.secrets_longest_first = tuple(sorted(self._secrets.values(), key=len, reverse=True))
        self._escaped = tuple(json_line(s)[1:-1] for s in self.secrets_longest_first)

    def resolve(self, provider_id: str) -> str:
        try:
            return self._secrets[provider_id]
        except KeyError:
            raise CredentialMissing(
                f"no credential loaded for provider {provider_id!r}",
                data={"provider": provider_id},
            ) from None

    def shows_in(self, text: str) -> bool:
        """Whether any secret's JSON-escaped form occurs in serialized ``text``.

        JSON escapes each character on its own, so a secret inside any
        string or key of a value serialized with ``json_line``
        always shows as its escaped form: False means nothing to redact.
        True may be a false alarm (the form also occurs across tokens).
        """
        return any(map(text.__contains__, self._escaped))

    def __len__(self) -> int:
        return len(self._secrets)

    def __repr__(self) -> str:  # secrets must never leak through repr
        return f"CredentialStore(providers={sorted(self._secrets)}, source={self.source!r})"


def load_credentials(
    path: str | os.PathLike | None,
    environ: Mapping[str, str] | None = None,
    provider_ids: Iterable[str] = (),
    strict_permissions: bool = False,
    warn: Callable[[str], None] | None = None,
) -> CredentialStore:
    """Load secrets from a flat ``provider.key = value`` file plus environment.

    ``QUANTMCP_CRED_<PROVIDERID>`` variables override file entries. A missing
    file with no matching environment variables yields an empty store. A
    secret shorter than ``MIN_SECRET_CHARS`` is a startup failure. A group-
    or world-readable file is a warning by default and a startup failure
    with ``strict_permissions``.
    """
    secrets: dict[str, str] = {}
    source = "environment"
    if path is not None and os.path.exists(path):
        source = "file"
        mode = stat.S_IMODE(os.stat(path).st_mode)
        if mode & 0o044:
            message = f"credential file {path} is group/world readable (mode {mode:03o})"
            if strict_permissions:
                raise ConfigError(message)
            if warn is not None:
                warn(message)
        try:
            fh = open(path, encoding="utf-8", errors="surrogateescape")
        except OSError as exc:  # a directory, or no read permission
            raise ConfigError(f"cannot read credential file {path}: {exc.strerror}") from None
        with fh:
            for lineno, raw in enumerate(fh, 1):
                if re.search("[\udc80-\udcff]", raw):  # surrogateescape's reading of a byte that is not UTF-8
                    raise ConfigError(f"{path}:{lineno}: not valid UTF-8")
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'provider.key = value'")
                left, _, value = line.partition("=")
                left = left.strip()
                value = value.strip()
                if not left.endswith(".key") or len(left) == len(".key"):
                    raise ConfigError(f"{path}:{lineno}: entry name must look like '<provider>.key'")
                provider_id = left[: -len(".key")]
                if not _CRED_LINE_RE.fullmatch(provider_id):
                    raise ConfigError(f"{path}:{lineno}: invalid provider id {provider_id!r}")
                if not value:
                    raise ConfigError(f"{path}:{lineno}: empty secret value")
                if len(value) < MIN_SECRET_CHARS:
                    raise ConfigError(f"{path}:{lineno}: secret is shorter than {MIN_SECRET_CHARS} characters")
                if provider_id in secrets:
                    raise ConfigError(f"{path}:{lineno}: duplicate entry for provider {provider_id!r}")
                secrets[provider_id] = value
    env = os.environ if environ is None else environ
    by_env_name = {env_credential_name(pid): pid for pid in provider_ids}
    for name, value in env.items():
        if not name.startswith(ENV_PREFIX) or not value:
            continue
        if len(value) < MIN_SECRET_CHARS:
            raise ConfigError(f"{name}: secret is shorter than {MIN_SECRET_CHARS} characters")
        provider_id = by_env_name.get(name, name[len(ENV_PREFIX):].lower())
        secrets[provider_id] = value
    return CredentialStore(secrets, source=source)


def _redact_str(text: str, secrets: tuple[str, ...]) -> str:
    for secret in secrets:
        if secret in text:
            text = text.replace(secret, REDACTED)
    return text


def _redact_value(value: Any, secrets: tuple[str, ...]) -> Any:
    if isinstance(value, str):
        return _redact_str(value, secrets)
    if isinstance(value, dict):
        return {
            _redact_str(k, secrets) if isinstance(k, str) else k: _redact_value(v, secrets)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, PreEncoded)):  # a pre-encoded table comes back as plain dicts
        return [_redact_value(v, secrets) for v in value]
    return value


def redact(payload: Any, store: CredentialStore) -> Any:
    """Return ``payload`` with every loaded secret substring replaced.

    Works on plain text and on structured values (keys included), returning
    a same-shaped copy. With no loaded secrets the input is returned as-is.
    """
    if not store.secrets_longest_first:
        return payload
    return _redact_value(payload, store.secrets_longest_first)


def redact_message(msg: JsonRpcMessage, store: CredentialStore) -> JsonRpcMessage:
    """Scrub a protocol message before it is serialized onto the wire."""
    error = msg.error
    if error is not None:
        error = ErrorObject(error.code, redact(error.message, store), redact(error.data, store))
    return JsonRpcMessage(
        msg.kind,
        id=redact(msg.id, store),
        method=msg.method,
        params=redact(msg.params, store),
        result=redact(msg.result, store),
        error=error,
        extra=redact(msg.extra, store),
    )


class RateDecision(NamedTuple):
    allowed: bool
    retry_after_ms: int = 0


class _Bucket:
    __slots__ = ("spec", "tokens", "last_refill")

    def __init__(self, spec: RateSpec):
        self.spec = spec
        self.tokens = float(spec.capacity)
        self.last_refill: float | None = None


class RateLimiter:
    """Per-provider token buckets with linearizable acquire semantics."""

    def __init__(self, rates: Mapping[str, RateSpec]):
        self._buckets = {pid: _Bucket(spec) for pid, spec in rates.items()}
        self._lock = threading.Lock()

    def acquire(self, provider_id: str, now: float) -> RateDecision:
        """Refill by elapsed time, then take one token or compute the wait.

        ``now`` is a monotonic timestamp in seconds.
        """
        with self._lock:
            bucket = self._buckets.get(provider_id)
            if bucket is None:
                raise InternalError(f"no rate bucket configured for provider {provider_id!r}")
            spec = bucket.spec
            if bucket.last_refill is None:
                bucket.last_refill = now
            elapsed = max(0.0, now - bucket.last_refill)
            bucket.tokens = min(float(spec.capacity), bucket.tokens + elapsed * spec.refill_per_sec)
            bucket.last_refill = now
            if bucket.tokens >= 1.0:
                bucket.tokens -= 1.0
                return RateDecision(True)
            needed = 1.0 - bucket.tokens
            return RateDecision(False, retry_after_ms=math.ceil(needed / spec.refill_per_sec * 1000.0))


class _Flight:
    __slots__ = ("event", "payload", "exc")

    def __init__(self):
        self.event: threading.Event | None = None  # made under the cache lock by the first caller to wait
        self.payload: Any = None
        self.exc: BaseException | None = None


def cache_key(provider_id: str, query: DataQuery, kind: str = "historical") -> tuple:
    """The query as a tuple of all its answer depends on: queries that may answer differently never share a key.

    Codes and fields are sorted, so argument order never splits the cache. Of the options only
    ``Fill`` changes an answer, so the query's ``fill`` is the only one kept; no provider reads another.
    ``kind`` separates quote lookups from plain historical ranges because their TTL rules differ.
    """
    return (kind, provider_id, query.sorted_codes, tuple(sorted(query.fields)), query.start_date, query.end_date,
            sys.intern(query.fill))


FILL_WAIT_S = 30.0  # default wait on an identical in-flight miss


class ResponseCache:
    """TTL cache with single-flight deduplication of concurrent misses."""

    def __init__(
        self,
        clock: Callable[[], float],
        historical_ttl_s: float = 86400.0,
        live_ttl_s: float = 5.0,
    ):
        self._clock = clock
        self.historical_ttl_s = float(historical_ttl_s)
        self.live_ttl_s = float(live_ttl_s)
        self._entries: dict[Hashable, tuple[Any, float]] = {}  # key -> (payload, expires_at)
        self._inflight: dict[Hashable, _Flight] = {}
        self._lock = threading.Lock()

    def ttl_for(self, query: DataQuery, kind: str, today: dt.date) -> float:
        """Ranges ending before today keep 24h; today-touching ranges and quotes, 5s."""
        if kind == "quote" or query.end_date >= today:
            return self.live_ttl_s
        return self.historical_ttl_s

    def lookup_or_store(
        self, key: Hashable, compute: Callable[[], Any], ttl: float, wait_s: float = FILL_WAIT_S
    ) -> tuple[Any, bool]:
        """Return (payload, cache_hit). A miss invokes ``compute`` exactly once.

        Concurrent identical misses wait on the in-flight producer, for at
        most ``wait_s`` seconds, and share its outcome; a failing producer
        propagates its exception and caches nothing, so the next call retries.
        A ``ttl`` of 0 or less keeps nothing: no later call could hit it.
        """
        with self._lock:
            payload, expires_at = self._entries.get(key, (None, -math.inf))
            if expires_at > self._clock():
                return payload, True
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = _Flight()
            elif flight.event is None:
                flight.event = threading.Event()
            event = flight.event
        if event is not None:  # a waiter
            if not event.wait(timeout=min(wait_s, threading.TIMEOUT_MAX)):  # a longer wait raises
                raise InternalError("timed out waiting for an in-flight cache fill")
            if flight.exc is not None:
                raise flight.exc
            return flight.payload, True
        # The owner stores its outcome, then reads under the lock whether a waiter made an event to set.
        try:
            flight.payload = compute()
        except BaseException as exc:
            flight.exc = exc
            raise
        finally:
            with self._lock:
                if flight.exc is None and ttl > 0:
                    self._entries[key] = (flight.payload, self._clock() + ttl)
                del self._inflight[key]
                event = flight.event
            if event is not None:
                event.set()
        return flight.payload, False
