"""Config file parsing and context assembly."""

from __future__ import annotations

import datetime as dt
import math
import re
import threading
from pathlib import Path

import pytest

from quantmcp.cli import main
from quantmcp.config import _KIND_KEYS, _PROVIDER_KEYS, _SERVER_KEYS, build_context, load_config
from quantmcp.errors import ConfigError
from quantmcp.providers import PROVIDER_CLASSES, CsvProvider, HttpProvider, RateSpec, SyntheticProvider

EXAMPLE_FULL = Path(__file__).resolve().parent.parent / "configs" / "example_full.conf"

GOOD = """
[server]
name = quantmcp
default_provider = synth
close_time = 16:30:00
credentials = creds.conf
cache_ttl_live_s = 2.5

[provider.synth]
kind = synthetic
seed = 42

[provider.export]
kind = csv
csv_path = rows.csv
field_map = pb_lf=PB_LF_RAW, close=CLOSE
close_time = 15:00:00
"""


@pytest.fixture
def good_config(tmp_path):
    (tmp_path / "creds.conf").write_text("export.key = s3cret-value\n")
    (tmp_path / "creds.conf").chmod(0o600)
    (tmp_path / "rows.csv").write_text("code,date,CLOSE,PB_LF_RAW\n")
    path = tmp_path / "server.conf"
    path.write_text(GOOD)
    return path


def test_full_config_round_trips(good_config):
    config = load_config(good_config)
    assert config.name == "quantmcp"
    assert config.close_time == dt.time(16, 30, 0)
    assert config.cache_ttl_live_s == 2.5
    assert set(config.providers) == {"synth", "export"}
    assert config.providers["synth"].seed == 42
    # server-level close_time is the provider default unless overridden
    assert config.providers["synth"].close_time == dt.time(16, 30, 0)
    assert config.providers["export"].close_time == dt.time(15, 0, 0)
    assert config.providers["export"].field_map == {"pb_lf": "PB_LF_RAW", "close": "CLOSE"}


def test_relative_paths_resolve_against_the_config_dir(good_config, tmp_path):
    config = load_config(good_config)
    assert config.credentials_path == str(tmp_path / "creds.conf")
    assert config.providers["export"].csv_path == str(tmp_path / "rows.csv")


def test_build_context_loads_credentials_and_limits(good_config):
    ctx = build_context(load_config(good_config), environ={})
    assert ctx.default_provider_id == "synth"
    assert ctx.credentials.resolve("export") == "s3cret-value"
    assert ctx.rate_limiter.acquire("synth", 0.0).allowed


def _write(tmp_path, text):
    path = tmp_path / "server.conf"
    path.write_text(text)
    return path


def test_unknown_provider_kind_names_the_field(tmp_path):
    path = _write(tmp_path, "[server]\ndefault_provider = x\n\n[provider.x]\nkind = websocket\n")
    with pytest.raises(ConfigError, match=r"provider\.x\.kind"):
        load_config(path)


def test_unknown_section_is_rejected(tmp_path):
    path = _write(tmp_path, "[server]\ndefault_provider = s\n\n[provider.s]\nkind = synthetic\n\n[misc]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"\[misc\]"):
        load_config(path)


def test_unknown_key_is_rejected(tmp_path):
    path = _write(tmp_path, "[server]\ndefault_provider = s\nport = 99\n\n[provider.s]\nkind = synthetic\n")
    with pytest.raises(ConfigError, match="port"):
        load_config(path)


def test_missing_default_provider_is_rejected(tmp_path):
    path = _write(tmp_path, "[provider.s]\nkind = synthetic\n")
    with pytest.raises(ConfigError, match="default_provider"):
        load_config(path)


def test_default_provider_must_exist(tmp_path):
    path = _write(tmp_path, "[server]\ndefault_provider = ghost\n\n[provider.s]\nkind = synthetic\n")
    with pytest.raises(ConfigError, match="ghost"):
        load_config(path)


def test_config_without_providers_is_rejected(tmp_path):
    path = _write(tmp_path, "[server]\ndefault_provider = s\n")
    with pytest.raises(ConfigError, match="provider"):
        load_config(path)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.conf")


@pytest.mark.parametrize(
    "text", ["default_provider = s\n", "[server]\n[server]\n"], ids=["no-section-header", "repeated-section"]
)
def test_a_file_configparser_cannot_parse_is_a_config_error(tmp_path, text):
    with pytest.raises(ConfigError, match="^cannot parse config file "):
        load_config(_write(tmp_path, text))


def test_a_provider_section_without_an_id_is_rejected(tmp_path):
    path = _write(tmp_path, "[server]\ndefault_provider = s\n[provider.]\nkind = synthetic\n")
    with pytest.raises(ConfigError, match=r"^provider section needs an id: \[provider\.<id>\]$"):
        load_config(path)


@pytest.mark.parametrize(("kind", "key"), [("csv", "csv_path"), ("http", "base_url")])
def test_a_provider_without_its_source_is_rejected_naming_the_key(tmp_path, kind, key):
    path = _write(tmp_path, f"[server]\ndefault_provider = s\n[provider.s]\nkind = {kind}\n")
    with pytest.raises(ConfigError, match=rf"^provider\.s\.{key}: required for {kind} providers$"):
        load_config(path)


@pytest.mark.parametrize(("value", "strict"), [("yes", True), ("off", False)])
def test_strict_credential_permissions_decides_whether_a_readable_credentials_file_is_refused(tmp_path, value, strict):
    (tmp_path / "creds.conf").write_text("s.key = s3cret-value\n")
    (tmp_path / "creds.conf").chmod(0o644)
    body = f"[server]\ndefault_provider = s\ncredentials = creds.conf\nstrict_credential_permissions = {value}\n"
    config = load_config(_write(tmp_path, body + "[provider.s]\nkind = synthetic\n"))
    assert config.strict_credential_permissions is strict
    said: list[str] = []
    try:
        build_context(config, environ={}, warn=said.append)
    except ConfigError as exc:
        said.append(f"refused: {exc}")
    readable = f"credential file {tmp_path / 'creds.conf'} is group/world readable (mode 644)"
    assert said == [f"refused: {readable}" if strict else readable]


def test_bad_close_time_is_rejected(tmp_path):
    path = _write(
        tmp_path,
        "[server]\ndefault_provider = s\nclose_time = 3pm\n\n[provider.s]\nkind = synthetic\n",
    )
    with pytest.raises(ConfigError, match="close_time"):
        load_config(path)


def test_env_only_credentials(tmp_path):
    path = _write(tmp_path, "[server]\ndefault_provider = s\n\n[provider.s]\nkind = synthetic\n")
    ctx = build_context(load_config(path), environ={"QUANTMCP_CRED_S": "from-env"})
    assert ctx.credentials.resolve("s") == "from-env"


@pytest.mark.parametrize(
    ("section", "key"),
    [
        ("server", "concurrency"),
        ("server", "cache_ttl_historical_s"),
        ("server", "cache_ttl_live_s"),
        ("server", "strict_credential_permissions"),
        ("provider.s", "seed"),
        ("provider.s", "rate_capacity"),
        ("provider.s", "rate_refill_per_sec"),
        ("provider.s", "timeout_ms"),
        ("provider.s", "retries"),
        ("provider.s", "close_time"),
    ],
)
def test_a_bad_value_names_its_section_and_key(tmp_path, section, key):
    provider = ["kind = http", "base_url = http://h/q"] if key in ("timeout_ms", "retries") else ["kind = synthetic"]
    lines = {"server": ["default_provider = s"], "provider.s": provider}
    lines[section].append(f"{key} = bogus")
    path = _write(tmp_path, "".join(f"[{name}]\n" + "\n".join(body) + "\n" for name, body in lines.items()))
    with pytest.raises(ConfigError, match=rf"^{re.escape(section)}\.{key}: 'bogus' "):
        load_config(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    ("section", "key"),
    [("server", "cache_ttl_historical_s"), ("server", "cache_ttl_live_s"), ("provider.s", "rate_refill_per_sec")],
)
def test_a_number_that_is_not_finite_is_rejected(tmp_path, section, key, value):
    lines = {"server": ["default_provider = s"], "provider.s": ["kind = synthetic"]}
    lines[section].append(f"{key} = {value}")
    path = _write(tmp_path, "".join(f"[{name}]\n" + "\n".join(body) + "\n" for name, body in lines.items()))
    with pytest.raises(ConfigError, match=rf"^{re.escape(section)}\.{key}: '{value}' is not a finite number$"):
        load_config(path)


def test_a_negative_concurrency_is_rejected(tmp_path):
    path = _write(tmp_path, "[server]\ndefault_provider = s\nconcurrency = -1\n[provider.s]\nkind = synthetic\n")
    with pytest.raises(ConfigError, match=r"^server\.concurrency: '-1' is not an integer >= 0$"):
        load_config(path)


@pytest.mark.parametrize(
    ("body", "first_error"),
    [
        ("[server]\ndefault_provider = s\nconcurrency = x\n[provider.s]\nkind = synthetic\nseed = y\n",
         "server.concurrency"),
        ("[server]\ndefault_provider = s\n[provider.s]\nkind = synthetic\nrate_capacity = y\nseed = x\n",
         "provider.s.seed"),
        ("[server]\ndefault_provider = s\n[provider.s]\nseed = x\n", "provider.s.kind: required"),
        ("[server]\ndefault_provider = s\n[provider.s]\nport = 1\n", r"provider.s: unknown key\(s\) \['port'\]"),
    ],
    ids=["server-first", "table-order", "missing-kind", "unknown-key-first"],
)
def test_of_two_faults_the_earlier_key_is_reported(tmp_path, body, first_error):
    with pytest.raises(ConfigError, match="^" + first_error):
        load_config(_write(tmp_path, body))


@pytest.mark.parametrize(
    ("kind", "own_key", "cls"),
    [
        ("synthetic", "", SyntheticProvider),
        ("csv", "csv_path = rows.csv\n", CsvProvider),
        ("http", "base_url = http://h/q?code={code}\n", HttpProvider),
    ],
    ids=["synthetic", "csv", "http"],
)
def test_a_kind_only_provider_takes_every_other_default_and_the_server_close_time(tmp_path, kind, own_key, cls):
    (tmp_path / "rows.csv").write_text("code,date,close\n")
    path = _write(
        tmp_path, f"[server]\ndefault_provider = s\nclose_time = 16:30:00\n[provider.s]\nkind = {kind}\n{own_key}"
    )
    own = {"csv": {"csv_path": str(tmp_path / "rows.csv")}, "http": {"base_url_template": "http://h/q?code={code}"}}
    expected = cls(id="s", close_time=dt.time(16, 30), **own.get(kind, {}))
    assert load_config(path).providers["s"] == expected


_OWN_KEYS = {"synthetic": "", "csv": "csv_path = rows.csv\n", "http": "base_url = http://h/q?code={code}\n"}


def _provider_conf(kind: str, settings: str) -> str:
    """A config whose one provider ``s`` is of ``kind``, with the keys that kind requires and ``settings``."""
    return f"[server]\ndefault_provider = s\n[provider.s]\nkind = {kind}\n{_OWN_KEYS[kind]}{settings}"


@pytest.mark.parametrize("field_map", ["clsoe=PX", "close=PX, open=", "close=A, close=B", "close=PX, open"])
def test_field_map_rejects_unknown_fields_and_empty_columns(tmp_path, field_map):
    path = _write(tmp_path, _provider_conf("http", f"field_map = {field_map}\n"))
    with pytest.raises(ConfigError, match=r"provider\.s\.field_map"):
        load_config(path)


def test_a_field_map_skips_empty_entries(tmp_path):
    path = _write(tmp_path, _provider_conf("http", "field_map = , close=PX,,\n"))
    assert load_config(path).providers["s"].field_map == {"close": "PX"}


def test_the_annotated_example_shows_every_key_and_no_other():
    keys: dict[str, set[str]] = {"server": set(), "provider": set()}
    blocks: list[dict[str, str]] = []  # each [provider.*] block's keys and values
    section = None
    for line in EXAMPLE_FULL.read_text().splitlines():
        if header := re.match(r"#? ?\[(server|provider)\b", line):
            section = header.group(1)
            if section == "provider":
                blocks.append({})
        elif entry := re.match(r"#? ?(\w+) = (.*)", line):
            keys[section].add(entry.group(1))
            if section == "provider":
                blocks[-1][entry.group(1)] = entry.group(2)
    assert keys == {"server": set(_SERVER_KEYS), "provider": set(_PROVIDER_KEYS)}
    assert sorted(block["kind"] for block in blocks) == sorted(PROVIDER_CLASSES)
    for block in blocks:
        assert set(block) == set(_KIND_KEYS[block["kind"]]), block["kind"]


def test_every_provider_key_is_read_by_a_kind_and_every_field_a_kind_reads_has_a_key():
    read = {name for cls in PROVIDER_CLASSES.values() for name in cls.READS}
    keyed = {"rate" if attr in RateSpec._fields else attr for attr, _ in _PROVIDER_KEYS.values()}
    assert keyed == read | {"kind"}
    assert {kind: sorted(keys) for kind, keys in _KIND_KEYS.items()} == {
        "synthetic": ["close_time", "kind", "rate_capacity", "rate_refill_per_sec", "seed"],
        "csv": ["close_time", "csv_path", "field_map", "kind", "rate_capacity", "rate_refill_per_sec"],
        "http": [
            "base_url", "close_time", "credential_ref", "field_map", "kind", "rate_capacity", "rate_refill_per_sec",
            "retries", "timeout_ms",
        ],
    }


_FOREIGN_VALUES = {
    "base_url": "http://h/q?code={code}", "csv_path": "rows.csv", "seed": "7", "field_map": "close=CLOSE",
    "credential_ref": "vendor", "timeout_ms": "5000", "retries": "1",
}


@pytest.mark.parametrize(
    ("kind", "key"),
    [
        *(("synthetic", key)
          for key in ("base_url", "csv_path", "field_map", "credential_ref", "timeout_ms", "retries")),
        *(("csv", key) for key in ("base_url", "seed", "credential_ref", "timeout_ms", "retries")),
        *(("http", key) for key in ("csv_path", "seed")),
    ],
)
def test_a_key_of_another_kind_is_an_unknown_key(tmp_path, capsys, kind, key):
    (tmp_path / "rows.csv").write_text("code,date,close\n")
    path = _write(tmp_path, _provider_conf(kind, f"{key} = {_FOREIGN_VALUES[key]}\n"))
    assert main(["tools", "list", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: provider.s: unknown key(s) [{key!r}]\n"


@pytest.mark.parametrize("key", ["cache_ttl_historical_s", "cache_ttl_live_s"])
def test_a_negative_cache_ttl_is_rejected_and_zero_is_not(tmp_path, key):
    body = "[server]\ndefault_provider = s\n{key} = {value}\n[provider.s]\nkind = synthetic\n"
    assert getattr(load_config(_write(tmp_path, body.format(key=key, value="0"))), key) == 0.0
    with pytest.raises(ConfigError, match=rf"^server\.{key}: '-1' is not a number >= 0$"):
        load_config(_write(tmp_path, body.format(key=key, value="-1")))


_HUGE = "9" * 401  # past the largest double
_OUT_OF_BOUNDS = [
    ("synthetic", "seed", "-1"),
    ("synthetic", "seed", str(2**64)),
    ("synthetic", "rate_capacity", _HUGE),
    ("synthetic", "rate_capacity", str(2**53 + 1)),
    ("synthetic", "rate_capacity", "0"),
    ("synthetic", "rate_refill_per_sec", "1e-320"),
    ("synthetic", "rate_refill_per_sec", "9.99e-10"),
    ("synthetic", "rate_refill_per_sec", "1000000001"),
    ("http", "timeout_ms", _HUGE),
    ("http", "timeout_ms", "3600001"),
    ("http", "timeout_ms", "0"),
    ("http", "retries", _HUGE),
    ("http", "retries", "101"),
    ("http", "retries", "-1"),
]


@pytest.mark.parametrize(
    ("kind", "key", "value"),
    _OUT_OF_BOUNDS,
    ids=[f"{key}={'10**401-1' if value == _HUGE else value}" for _, key, value in _OUT_OF_BOUNDS],
)
def test_a_provider_number_out_of_its_bounds_exits_2_naming_the_key(tmp_path, capsys, kind, key, value):
    path = _write(tmp_path, _provider_conf(kind, f"{key} = {value}\n"))
    assert main(["tools", "list", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: provider.s.{key}: must be in [")


@pytest.mark.parametrize("end", ["low", "high"])
def test_each_provider_number_bound_is_accepted(tmp_path, end):
    bounds = {
        "rate_capacity": ("1", str(2**53)), "rate_refill_per_sec": ("1e-9", "1e9"),
        "timeout_ms": ("1", "3600000"), "retries": ("0", "100"),
    }
    settings = "".join(f"{key} = {pair[end == 'high']}\n" for key, pair in bounds.items())
    path = _write(tmp_path, _provider_conf("http", settings))
    config = load_config(path)
    provider = config.providers["s"]
    assert (provider.rate, provider.timeout_ms, provider.retries) == (
        RateSpec(int(bounds["rate_capacity"][end == "high"]), float(bounds["rate_refill_per_sec"][end == "high"])),
        int(bounds["timeout_ms"][end == "high"]),
        int(bounds["retries"][end == "high"]),
    )
    assert math.isfinite(provider.fetch_bound_s(10**6))
    limiter = build_context(config, environ={}).rate_limiter
    assert limiter.acquire("s", 0.0).allowed
    if end == "low":  # one token refilled at the slowest rate: a long wait, but one a thread may take
        assert 0 < limiter.acquire("s", 0.0).retry_after_ms <= threading.TIMEOUT_MAX * 1000
