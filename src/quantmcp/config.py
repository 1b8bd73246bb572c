"""Server configuration: INI-style file with a [server] section and one
[provider.<id>] section per data source.

Example::

    [server]
    default_provider = synth
    close_time = 15:00:00
    credentials = creds.conf

    [provider.synth]
    kind = synthetic
    seed = 0

Relative paths (credentials, csv_path) resolve against the config file's
directory. Unknown sections or keys are startup errors so typos surface
immediately.
"""

from __future__ import annotations

import configparser
import datetime as dt
import os
import time
from typing import Any, Callable, Mapping

from .errors import ConfigError
from .providers import CANONICAL_FIELDS, DEFAULT_CLOSE_TIME, PROVIDER_CLASSES, ProviderConfig, RateSpec
from .security import RateLimiter, ResponseCache, load_credentials
from .tools import ToolContext


class ServerConfig:
    __slots__ = (
        "name", "close_time", "credentials_path", "default_provider", "concurrency", "cache_ttl_historical_s",
        "cache_ttl_live_s", "strict_credential_permissions", "providers",
    )

    def __init__(
        self,
        name: str = "quantmcp",
        close_time: dt.time = DEFAULT_CLOSE_TIME,
        credentials_path: str | None = None,
        default_provider: str = "",
        concurrency: int = 0,
        cache_ttl_historical_s: float = 86400.0,
        cache_ttl_live_s: float = 5.0,
        strict_credential_permissions: bool = False,
        providers: dict[str, ProviderConfig] | None = None,
    ):
        self.name = name
        self.close_time = close_time
        self.credentials_path = credentials_path
        self.default_provider = default_provider
        self.concurrency = concurrency
        self.cache_ttl_historical_s = cache_ttl_historical_s
        self.cache_ttl_live_s = cache_ttl_live_s
        self.strict_credential_permissions = strict_credential_permissions
        self.providers = {} if providers is None else providers


_Parse = Callable[[str, str], Any]  # (raw value, "<section>.<key>") -> parsed value


def _parse_text(raw: str, where: str) -> str:
    return raw.strip()


def _parse_path(raw: str, where: str) -> str:
    """A path; ``_read_section`` resolves it against the config file's directory."""
    return raw


def _parse_with(convert: Callable[[str], Any], expected: str) -> _Parse:
    """A parser applying ``convert``, whose ValueError becomes a ConfigError naming the key."""

    def parse(raw: str, where: str) -> Any:
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{where}: {raw!r} is not {expected}") from None

    return parse


_parse_time = _parse_with(dt.time.fromisoformat, "a valid HH:MM:SS time")
_parse_int = _parse_with(int, "an integer")
_parse_float = _parse_with(float, "a number")


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: {raw!r} is not a boolean")


def _parse_field_map(raw: str, where: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ConfigError(f"{where}: entry {token!r} must look like canonical=provider_field")
        canonical, _, provider_field = (part.strip() for part in token.partition("="))
        if canonical not in CANONICAL_FIELDS:
            raise ConfigError(
                f"{where}: {canonical!r} is not a canonical field ({', '.join(CANONICAL_FIELDS)})"
            )
        if not provider_field:
            raise ConfigError(f"{where}: entry {token!r} names no provider column")
        mapping[canonical] = provider_field
    return mapping


# config key -> (ServerConfig attribute, parser), in the order keys are parsed, so
# of two bad values the one listed first is reported.
_SERVER_KEYS: dict[str, tuple[str, _Parse]] = {
    "name": ("name", _parse_text),
    "close_time": ("close_time", _parse_time),
    "credentials": ("credentials_path", _parse_path),
    "default_provider": ("default_provider", _parse_text),
    "concurrency": ("concurrency", _parse_int),
    "cache_ttl_historical_s": ("cache_ttl_historical_s", _parse_float),
    "cache_ttl_live_s": ("cache_ttl_live_s", _parse_float),
    "strict_credential_permissions": ("strict_credential_permissions", _parse_bool),
}

# Fields of RateSpec (capacity, refill_per_sec) are gathered into the provider's rate.
_PROVIDER_KEYS: dict[str, tuple[str, _Parse]] = {
    "kind": ("kind", _parse_text),
    "base_url": ("base_url_template", _parse_text),
    "csv_path": ("csv_path", _parse_path),
    "seed": ("seed", _parse_int),
    "field_map": ("field_map", _parse_field_map),
    "credential_ref": ("credential_ref", _parse_text),
    "rate_capacity": ("capacity", _parse_int),
    "rate_refill_per_sec": ("refill_per_sec", _parse_float),
    "timeout_ms": ("timeout_ms", _parse_int),
    "retries": ("retries", _parse_int),
    "close_time": ("close_time", _parse_time),
}


def _read_section(
    section: configparser.SectionProxy,
    table: dict[str, tuple[str, _Parse]],
    base_dir: str,
    required: tuple[str, ...] = (),
) -> dict[str, Any]:
    """Parse the keys ``section`` holds into ``{field: value}``, in table order.

    An unknown key, or a missing key whose field is ``required``, aborts startup.
    """
    unknown = set(section) - table.keys()
    if unknown:
        raise ConfigError(f"{section.name}: unknown key(s) {sorted(unknown)}")
    values: dict[str, Any] = {}
    for key, (attr, parse) in table.items():
        if key in section:
            value = parse(section[key], f"{section.name}.{key}")
            values[attr] = os.path.join(base_dir, value) if parse is _parse_path else value
        elif attr in required:
            raise ConfigError(f"{section.name}.{key}: required")
    return values


def load_config(path: str | os.PathLike) -> ServerConfig:
    """Parse and validate the config file; any problem raises ConfigError."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc

    base_dir = os.path.dirname(os.path.abspath(path))
    config = ServerConfig()
    if parser.has_section("server"):
        config = ServerConfig(**_read_section(parser["server"], _SERVER_KEYS, base_dir))
    for section_name in parser.sections():
        if section_name == "server":
            continue
        if not section_name.startswith("provider."):
            raise ConfigError(f"unknown section [{section_name}]")
        provider_id = section_name[len("provider."):]
        if not provider_id:
            raise ConfigError("provider section needs an id: [provider.<id>]")
        values = _read_section(parser[section_name], _PROVIDER_KEYS, base_dir, ("kind",))
        rate = {name: values.pop(name) for name in RateSpec._fields if name in values}
        values.setdefault("close_time", config.close_time)
        kind = values.pop("kind")
        if kind not in PROVIDER_CLASSES:
            raise ConfigError(f"{section_name}.kind: unknown kind {kind!r}")
        provider = PROVIDER_CLASSES[kind](id=provider_id, rate=RateSpec(**rate), **values)
        provider.check()
        config.providers[provider_id] = provider

    if not config.providers:
        raise ConfigError("config defines no [provider.<id>] sections")
    if not config.default_provider:
        raise ConfigError("server.default_provider: required")
    if config.default_provider not in config.providers:
        raise ConfigError(
            f"server.default_provider: {config.default_provider!r} is not a configured provider"
        )
    return config


def build_context(
    config: ServerConfig,
    environ: Mapping[str, str] | None = None,
    warn: Callable[[str], None] | None = None,
) -> ToolContext:
    """Assemble the runtime dependencies a server needs from its config."""
    credentials = load_credentials(
        config.credentials_path,
        environ=environ,
        provider_ids=config.providers,
        strict_permissions=config.strict_credential_permissions,
        warn=warn,
    )
    return ToolContext(
        providers=dict(config.providers),
        default_provider_id=config.default_provider,
        credentials=credentials,
        rate_limiter=RateLimiter({pid: p.rate for pid, p in config.providers.items()}),
        cache=ResponseCache(
            clock=time.monotonic,
            historical_ttl_s=config.cache_ttl_historical_s,
            live_ttl_s=config.cache_ttl_live_s,
        ),
    )
