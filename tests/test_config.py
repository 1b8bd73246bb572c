"""Config file parsing and context assembly."""

from __future__ import annotations

import datetime as dt
import re
from pathlib import Path

import pytest

from quantmcp.config import _PROVIDER_KEYS, _SERVER_KEYS, build_context, load_config
from quantmcp.errors import ConfigError
from quantmcp.providers import CsvProvider, HttpProvider, SyntheticProvider

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
    lines = {"server": ["default_provider = s"], "provider.s": ["kind = synthetic"]}
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
        ("[server]\ndefault_provider = s\n[provider.s]\nkind = synthetic\nretries = y\nseed = x\n",
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
    assert load_config(path).providers["s"] == expected  # dataclass equality also compares the class


@pytest.mark.parametrize("field_map", ["clsoe=PX", "close=PX, open="])
def test_field_map_rejects_unknown_fields_and_empty_columns(tmp_path, field_map):
    path = _write(
        tmp_path, f"[server]\ndefault_provider = s\n[provider.s]\nkind = synthetic\nfield_map = {field_map}\n"
    )
    with pytest.raises(ConfigError, match=r"provider\.s\.field_map"):
        load_config(path)


def test_the_annotated_example_shows_every_key_and_no_other():
    keys: dict[str, set[str]] = {"server": set(), "provider": set()}
    section = None
    for line in EXAMPLE_FULL.read_text().splitlines():
        if header := re.match(r"#? ?\[(server|provider)\b", line):
            section = header.group(1)
        elif entry := re.match(r"#? ?(\w+) = ", line):
            keys[section].add(entry.group(1))
    assert keys == {"server": set(_SERVER_KEYS), "provider": set(_PROVIDER_KEYS)}
