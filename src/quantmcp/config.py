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
import math
import os
import time
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

from .errors import ConfigError
from .providers import CANONICAL_FIELDS, DEFAULT_CLOSE_TIME, PROVIDER_CLASSES, ProviderConfig, RateSpec
from .security import RateLimiter, ResponseCache, load_credentials
from .tools import ToolContext


class ServerConfig(NamedTuple):
    name: str = "quantmcp"
    close_time: dt.time = DEFAULT_CLOSE_TIME
    credentials_path: str | None = None
    default_provider: str = ""
    concurrency: int = 0
    cache_ttl_historical_s: float = 86400.0
    cache_ttl_live_s: float = 5.0
    strict_credential_permissions: bool = False
    providers: Mapping[str, ProviderConfig] = MappingProxyType({})


_Parse = Callable[[str, str], Any]  # (raw value, "<section>.<key>") -> parsed value


def _parse_text(raw: str, where: str) -> str:
    return raw.strip()


def _parse_path(raw: str, where: str) -> str:
    """A path; ``_read_section`` resolves it against the config file's directory."""
    return raw


def _parse_with(convert: Callable[[str], Any], expected: str, valid: Callable[[Any], bool] = lambda _: True) -> _Parse:
    """A parser applying ``convert``; its ValueError, or a value ``valid`` refuses, is a ConfigError naming the key."""

    def parse(raw: str, where: str) -> Any:
        try:
            if valid(value := convert(raw)):
                return value
        except ValueError:
            pass
        raise ConfigError(f"{where}: {raw!r} is not {expected}") from None

    return parse


_parse_time = _parse_with(dt.time.fromisoformat, "a valid HH:MM:SS time")
_parse_int = _parse_with(int, "an integer")
_parse_count = _parse_with(int, "an integer >= 0", lambda value: value >= 0)
_parse_float = _parse_with(float, "a finite number", math.isfinite)


def _parse_ttl(raw: str, where: str) -> float:
    if (value := _parse_float(raw, where)) < 0:
        raise ConfigError(f"{where}: {raw!r} is not a number >= 0")
    return value


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
        if canonical in mapping:  # as configparser refuses a repeated key
            raise ConfigError(f"{where}: {canonical!r} is mapped more than once")
        mapping[canonical] = provider_field
    return mapping


# config key -> (ServerConfig attribute, parser), in the order keys are parsed, so
# of two bad values the one listed first is reported.
_SERVER_KEYS: dict[str, tuple[str, _Parse]] = {
    "name": ("name", _parse_text),
    "close_time": ("close_time", _parse_time),
    "credentials": ("credentials_path", _parse_path),
    "default_provider": ("default_provider", _parse_text),
    "concurrency": ("concurrency", _parse_count),
    "cache_ttl_historical_s": ("cache_ttl_historical_s", _parse_ttl),
    "cache_ttl_live_s": ("cache_ttl_live_s", _parse_ttl),
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

# kind -> the _PROVIDER_KEYS its section accepts: ``kind`` and the keys of the fields its class READS.
_KIND_KEYS = {kind: {key: (attr, parse) for key, (attr, parse) in _PROVIDER_KEYS.items()
                     if ("rate" if attr in RateSpec._fields else attr) in ("kind", *cls.READS)}
              for kind, cls in PROVIDER_CLASSES.items()}


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
    server = _read_section(parser["server"], _SERVER_KEYS, base_dir) if parser.has_section("server") else {}
    providers: dict[str, ProviderConfig] = {}
    for section_name in parser.sections():
        if section_name == "server":
            continue
        if not section_name.startswith("provider."):
            raise ConfigError(f"unknown section [{section_name}]")
        provider_id = section_name[len("provider."):]
        if not provider_id:
            raise ConfigError("provider section needs an id: [provider.<id>]")
        section = parser[section_name]  # a missing or unknown kind is checked against every key, then reported
        table = _KIND_KEYS.get(section.get("kind", "").strip(), _PROVIDER_KEYS)
        values = _read_section(section, table, base_dir, ("kind",))
        rate = {name: values.pop(name) for name in RateSpec._fields if name in values}
        values.setdefault("close_time", server.get("close_time", DEFAULT_CLOSE_TIME))
        kind = values.pop("kind")
        if kind not in PROVIDER_CLASSES:
            raise ConfigError(f"{section_name}.kind: unknown kind {kind!r}")
        provider = PROVIDER_CLASSES[kind](id=provider_id, rate=RateSpec(**rate), **values)
        provider.check()
        providers[provider_id] = provider
    default = server.get("default_provider", "")
    if not providers:
        raise ConfigError("config defines no [provider.<id>] sections")
    if not default:
        raise ConfigError("server.default_provider: required")
    if default not in providers:
        raise ConfigError(f"server.default_provider: {default!r} is not a configured provider")
    return ServerConfig(**server, providers=providers)


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
