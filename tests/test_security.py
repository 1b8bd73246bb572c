"""Credential loading, redaction guarantees, rate limiting, and caching."""

from __future__ import annotations

import datetime as dt
import random
import string
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from conftest import FakeMonoClock
from oracle_utils import BucketSimOracle

from quantmcp import security
from quantmcp.errors import ConfigError, CredentialMissing, InternalError
from quantmcp.providers import DataQuery, RateSpec
from quantmcp.security import (
    REDACTED,
    CredentialStore,
    RateLimiter,
    ResponseCache,
    cache_key,
    env_credential_name,
    load_credentials,
    redact,
)
from quantmcp.transport import RESPONSE, JsonRpcMessage, serialize_message


def _query(**overrides) -> DataQuery:
    base = dict(
        codes=["300750.SZ"],
        fields=["close"],
        start_date=dt.date(2024, 1, 1),
        end_date=dt.date(2024, 1, 5),
    )
    base.update(overrides)
    return DataQuery(**base)


# --- credential loading -------------------------------------------------------


def test_file_line_parses_provider_and_secret(tmp_path):
    path = tmp_path / "creds.conf"
    path.write_text("# comment\nalpha.key = abc12345\n\n  tushare.key=t0ken-t0ken  \n")
    path.chmod(0o600)
    store = load_credentials(path, environ={})
    assert store.resolve("alpha") == "abc12345"
    assert store.resolve("tushare") == "t0ken-t0ken"
    assert store.source == "file"


def test_environment_overrides_the_file(tmp_path):
    path = tmp_path / "creds.conf"
    path.write_text("alpha.key = from-file\n")
    path.chmod(0o600)
    store = load_credentials(path, environ={"QUANTMCP_CRED_ALPHA": "from-environment"}, provider_ids=["alpha"])
    assert store.resolve("alpha") == "from-environment"


def test_env_name_flattens_non_alphanumerics():
    assert env_credential_name("my-provider.v2") == "QUANTMCP_CRED_MY_PROVIDER_V2"
    environ = {"QUANTMCP_CRED_MY_PROVIDER_V2": "s3cret-value"}
    store = load_credentials(None, environ=environ, provider_ids=["my-provider.v2"])
    assert store.resolve("my-provider.v2") == "s3cret-value"


def test_missing_file_and_empty_env_yield_an_empty_store():
    store = load_credentials(None, environ={})
    assert len(store) == 0


def test_malformed_line_fails_with_line_number(tmp_path):
    path = tmp_path / "creds.conf"
    path.write_text("alpha.key = ok-secret\nthis is not a credential\n")
    path.chmod(0o600)
    with pytest.raises(ConfigError, match=r":2:"):
        load_credentials(path, environ={})


@pytest.mark.parametrize(
    "line", ["alpha.token = x", ".key = x", "alpha.key =", "bad id!.key = x", "alpha.key = s3cret-one\nalpha.key = s3cret-two"]
)
def test_other_malformed_shapes_are_rejected(tmp_path, line):
    path = tmp_path / "creds.conf"
    path.write_text(line + "\n")
    path.chmod(0o600)
    with pytest.raises(ConfigError):
        load_credentials(path, environ={})


def test_a_credentials_path_naming_a_directory_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"^cannot read credential file .+: Is a directory$"):
        load_credentials(tmp_path, environ={})


def test_a_credentials_file_that_is_not_utf8_names_its_line_and_no_byte_of_it(tmp_path):
    path = tmp_path / "creds.conf"
    path.write_bytes(b"alpha.key = ok-secret\nbeta.key = s3cr\xe9t-\xff-value\n")
    path.chmod(0o600)
    with pytest.raises(ConfigError) as excinfo:
        load_credentials(path, environ={})
    assert str(excinfo.value) == f"{path}:2: not valid UTF-8"
    assert excinfo.value.__context__ is None


def test_a_secret_shorter_than_eight_characters_is_rejected_at_load(tmp_path):
    path = tmp_path / "creds.conf"
    path.write_text("alpha.key = eight-ch\nbeta.key = Zq7seve\n")
    path.chmod(0o600)
    with pytest.raises(ConfigError, match=r"creds\.conf:2: secret is shorter than 8 characters") as excinfo:
        load_credentials(path, environ={})
    assert "Zq7seve" not in str(excinfo.value)
    with pytest.raises(ConfigError, match=r"^QUANTMCP_CRED_ALPHA: secret is shorter") as excinfo:
        load_credentials(None, environ={"QUANTMCP_CRED_ALPHA": "Zq7"}, provider_ids=["alpha"])
    assert "Zq7" not in str(excinfo.value)
    store = load_credentials(None, environ={"QUANTMCP_CRED_ALPHA": "eight-ch"}, provider_ids=["alpha"])
    assert store.resolve("alpha") == "eight-ch"


def test_world_readable_file_warns_by_default(tmp_path):
    path = tmp_path / "creds.conf"
    path.write_text("alpha.key = s3cret-value\n")
    path.chmod(0o644)
    warnings: list[str] = []
    store = load_credentials(path, environ={}, warn=warnings.append)
    assert store.resolve("alpha") == "s3cret-value"
    assert warnings and "readable" in warnings[0]


def test_world_readable_file_fails_in_strict_mode(tmp_path):
    path = tmp_path / "creds.conf"
    path.write_text("alpha.key = s3cret-value\n")
    path.chmod(0o644)
    with pytest.raises(ConfigError, match="readable"):
        load_credentials(path, environ={}, strict_permissions=True)


def test_resolve_missing_provider_raises_credential_missing():
    with pytest.raises(CredentialMissing):
        CredentialStore({}).resolve("alpha")


def test_store_repr_never_contains_secrets():
    store = CredentialStore({"alpha": "sk-VERY-SECRET"})
    assert "sk-VERY-SECRET" not in repr(store)
    assert "sk-VERY-SECRET" not in str(store)


# --- redaction ------------------------------------------------------------------


def test_redact_replaces_secret_occurrences_in_text():
    store = CredentialStore({"alpha": "abc123"})
    assert redact("failed: key abc123 rejected", store) == f"failed: key {REDACTED} rejected"


def test_redact_without_secrets_is_identity():
    payload = {"detail": "nothing sensitive"}
    assert redact(payload, CredentialStore({})) is payload


def test_redact_walks_structured_values_and_keys():
    store = CredentialStore({"alpha": "s3cr3t"})
    payload = {"url": "http://h/?apikey=s3cr3t", "s3cr3t": ["s3cr3t", 5, None, {"x": "s3cr3t!"}]}
    cleaned = redact(payload, store)
    assert cleaned == {
        "url": f"http://h/?apikey={REDACTED}",
        REDACTED: [REDACTED, 5, None, {"x": f"{REDACTED}!"}],
    }


def test_redact_handles_overlapping_secrets_longest_first():
    store = CredentialStore({"a": "token", "b": "token-extended"})
    assert redact("token-extended and token", store) == f"{REDACTED} and {REDACTED}"


def test_redaction_fuzz_no_secret_bytes_survive():
    rng = random.Random(99)
    secrets = {f"p{i}": "".join(rng.choices(string.ascii_letters + string.digits, k=24)) for i in range(4)}
    store = CredentialStore(secrets)
    alphabet = string.printable
    for _ in range(300):
        secret = rng.choice(list(secrets.values()))
        blob = (
            "".join(rng.choices(alphabet, k=rng.randrange(40)))
            + secret
            + "".join(rng.choices(alphabet, k=rng.randrange(40)))
        )
        payload = rng.choice(
            [blob, {"msg": blob}, [blob, {"k": blob}], {"deep": {"er": [blob]}}, {blob: "v"}]
        )
        cleaned = str(redact(payload, store))
        for s in secrets.values():
            assert s not in cleaned


# --- rate limiting -----------------------------------------------------------


def _limiter(capacity=5, refill=1.0) -> RateLimiter:
    return RateLimiter({"p": RateSpec(capacity=capacity, refill_per_sec=refill)})


def test_burst_of_capacity_is_allowed_then_denied():
    limiter = _limiter()
    clock = FakeMonoClock()
    decisions = [limiter.acquire("p", clock()) for _ in range(6)]
    assert [d.allowed for d in decisions] == [True] * 5 + [False]
    assert decisions[5].retry_after_ms == 1000


def test_one_second_refill_allows_again():
    limiter = _limiter()
    clock = FakeMonoClock()
    for _ in range(5):
        limiter.acquire("p", clock())
    assert not limiter.acquire("p", clock()).allowed
    clock.advance(1.0)
    assert limiter.acquire("p", clock()).allowed


def test_unknown_provider_is_an_internal_error():
    with pytest.raises(InternalError):
        _limiter().acquire("ghost", 0.0)


def test_tokens_never_exceed_capacity():
    limiter = _limiter(capacity=2, refill=10.0)
    clock = FakeMonoClock()
    clock.advance(100.0)  # long idle must not bank more than capacity
    results = [limiter.acquire("p", clock()).allowed for _ in range(3)]
    assert results == [True, True, False]


def test_random_schedules_match_the_simulation_oracle():
    rng = random.Random(20240601)
    for _ in range(20):
        capacity = rng.randrange(1, 6)
        refill = rng.choice([0.5, 1.0, 2.0, 3.3])
        limiter = RateLimiter({"p": RateSpec(capacity=capacity, refill_per_sec=refill)})
        oracle = BucketSimOracle(capacity, refill)
        now = 0.0
        for _ in range(60):
            now += rng.choice([0.0, 0.05, 0.11, 0.4, 1.3])
            decision = limiter.acquire("p", now)
            allowed, retry_s = oracle.step(now)
            assert decision.allowed == allowed
            if not allowed:
                assert abs(decision.retry_after_ms - retry_s * 1000.0) <= 50


def test_allowed_count_respects_conservation():
    rng = random.Random(5)
    limiter = _limiter(capacity=5, refill=2.0)
    now = 0.0
    allowed = 0
    for _ in range(200):
        now += rng.random() * 0.2
        if limiter.acquire("p", now).allowed:
            allowed += 1
    assert allowed <= 5 + now * 2.0 + 1


# --- cache -----------------------------------------------------------------


def test_hit_skips_the_producer():
    clock = FakeMonoClock()
    cache = ResponseCache(clock=clock)
    calls = []
    producer = lambda: calls.append(1) or "payload"
    first, hit1 = cache.lookup_or_store(1, producer, ttl=10.0)
    second, hit2 = cache.lookup_or_store(1, producer, ttl=10.0)
    assert (first, hit1) == ("payload", False)
    assert (second, hit2) == ("payload", True)
    assert len(calls) == 1


def test_entries_expire_after_their_ttl():
    clock = FakeMonoClock()
    cache = ResponseCache(clock=clock)
    calls = []
    producer = lambda: calls.append(1) or len(calls)
    cache.lookup_or_store(1, producer, ttl=5.0)
    clock.advance(6.0)
    value, hit = cache.lookup_or_store(1, producer, ttl=5.0)
    assert not hit and value == 2


def test_failures_are_not_cached():
    cache = ResponseCache(clock=FakeMonoClock())
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("transient")
        return "ok"

    with pytest.raises(RuntimeError):
        cache.lookup_or_store(1, flaky, ttl=10.0)
    value, hit = cache.lookup_or_store(1, flaky, ttl=10.0)
    assert value == "ok" and not hit
    assert len(attempts) == 2


def test_ttl_policy_by_range_and_kind():
    cache = ResponseCache(clock=FakeMonoClock(), historical_ttl_s=86400.0, live_ttl_s=5.0)
    today = dt.date(2024, 6, 3)
    past = _query(start_date=dt.date(2024, 1, 1), end_date=dt.date(2024, 1, 5))
    touching = _query(start_date=dt.date(2024, 6, 1), end_date=dt.date(2024, 6, 3))
    assert cache.ttl_for(past, "historical", today) == 86400.0
    assert cache.ttl_for(touching, "historical", today) == 5.0
    assert cache.ttl_for(past, "quote", today) == 5.0


def test_cache_key_ignores_argument_order():
    q1 = _query(codes=["B", "A"], fields=["turn", "close"])
    q2 = _query(codes=["A", "B"], fields=["close", "turn"])
    assert cache_key("p", q1) == cache_key("p", q2)


def test_cache_key_distinguishes_provider_range_and_kind():
    base = _query()
    assert cache_key("p", base) != cache_key("q", base)
    assert cache_key("p", base) != cache_key("p", _query(end_date=dt.date(2024, 1, 8)))
    assert cache_key("p", base) != cache_key("p", base, kind="quote")


def test_concurrent_identical_misses_invoke_the_producer_once():
    cache = ResponseCache(clock=FakeMonoClock())
    gate = threading.Event()
    calls = []

    def slow():
        calls.append(1)
        gate.wait(timeout=5.0)
        return "shared"

    results = []

    def worker():
        results.append(cache.lookup_or_store(1, slow, ttl=10.0))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    gate.set()
    for t in threads:
        t.join(timeout=10.0)
    assert len(calls) == 1
    assert {value for value, _ in results} == {"shared"}
    assert sum(1 for _, hit in results if not hit) == 1


def test_a_waiter_gives_up_after_its_wait_while_the_producer_runs_on():
    cache = ResponseCache(clock=FakeMonoClock())
    entered, release = threading.Event(), threading.Event()

    def slow():
        entered.set()
        release.wait(timeout=5.0)
        return "late"

    owner = []
    thread = threading.Thread(target=lambda: owner.append(cache.lookup_or_store(1, slow, ttl=10.0)))
    thread.start()
    try:
        assert entered.wait(timeout=5.0)
        with pytest.raises(InternalError, match="in-flight cache fill"):
            cache.lookup_or_store(1, slow, ttl=10.0, wait_s=0.05)
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert owner == [("late", False)]


def test_a_wait_past_the_thread_timeout_limit_waits_for_the_producer():
    # An http fetch of enough codes may bound its GETs beyond threading.TIMEOUT_MAX.
    cache = ResponseCache(clock=FakeMonoClock())
    entered, release = threading.Event(), threading.Event()

    def slow():
        entered.set()
        release.wait(timeout=5.0)
        return "late"

    thread = threading.Thread(target=lambda: cache.lookup_or_store(1, slow, ttl=10.0))
    thread.start()
    try:
        assert entered.wait(timeout=5.0)
        threading.Timer(0.05, release.set).start()
        assert cache.lookup_or_store(1, slow, ttl=10.0, wait_s=threading.TIMEOUT_MAX * 2) == ("late", True)
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()


def _counted_events(monkeypatch) -> list[threading.Event]:
    """The ``threading.Event``s the cache builds from now on, counted through ``security``'s ``threading`` name."""
    made = []

    def event() -> threading.Event:
        made.append(threading.Event())
        return made[-1]

    monkeypatch.setattr(security, "threading", SimpleNamespace(**{**vars(threading), "Event": event}))
    return made


def test_a_miss_no_caller_waits_on_builds_no_event(monkeypatch):
    made = _counted_events(monkeypatch)
    cache = ResponseCache(clock=FakeMonoClock())
    assert cache.lookup_or_store(1, lambda: "a", ttl=10.0) == ("a", False)
    assert cache.lookup_or_store(1, lambda: "b", ttl=10.0) == ("a", True)
    with pytest.raises(ZeroDivisionError):
        cache.lookup_or_store(2, lambda: 1 / 0, ttl=10.0)
    assert made == []


@pytest.mark.parametrize("fails", [False, True], ids=["payload", "exception"])
def test_a_caller_of_an_identical_in_flight_miss_waits_on_one_event_for_the_owners_outcome(monkeypatch, fails):
    made = _counted_events(monkeypatch)
    cache = ResponseCache(clock=FakeMonoClock())
    entered, release = threading.Event(), threading.Event()
    error = RuntimeError("upstream down")

    def slow():
        entered.set()
        release.wait(timeout=5.0)
        if fails:
            raise error
        return "shared"

    outcomes = {}

    def call(who: str) -> None:
        try:
            outcomes[who] = cache.lookup_or_store(1, slow, ttl=10.0)
        except RuntimeError as exc:
            outcomes[who] = exc

    owner, waiter = (threading.Thread(target=call, args=(who,)) for who in ("owner", "waiter"))
    owner.start()
    assert entered.wait(timeout=5.0)
    waiter.start()
    deadline = time.monotonic() + 5.0
    while not made and time.monotonic() < deadline:  # the waiter builds the event it then waits on
        time.sleep(0.005)
    release.set()
    for thread in (owner, waiter):
        thread.join(timeout=10.0)
    assert not owner.is_alive() and not waiter.is_alive()
    assert len(made) == 1
    if fails:
        assert outcomes["owner"] is error and outcomes["waiter"] is error
    else:
        assert outcomes == {"owner": ("shared", False), "waiter": ("shared", True)}
    assert cache._inflight == {}


def test_racing_callers_of_each_key_share_its_one_fill_under_a_short_switch_interval(monkeypatch):
    made = _counted_events(monkeypatch)
    cache = ResponseCache(clock=FakeMonoClock())
    fills, answers, start = [], [], threading.Barrier(12)

    def fill(key: int) -> str:
        fills.append(key)
        time.sleep(0.001)  # other callers find the fill in flight
        return f"v{key}"

    def caller() -> None:
        start.wait(timeout=10.0)
        for key in range(40):
            answers.append((key, cache.lookup_or_store(key, lambda: fill(key), ttl=10.0)[0]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(fills) == list(range(40))
    assert len(answers) == 12 * 40 and all(value == f"v{key}" for key, value in answers)
    assert made and cache._inflight == {}  # some callers waited, each on an event its fill's owner set


def test_a_secret_holding_a_unicode_line_break_shows_in_its_serialized_frame():
    secret = "sk-line\u2028break"
    store = CredentialStore({"alpha": secret})
    line = serialize_message(JsonRpcMessage(RESPONSE, id=1, result={"detail": f"failed with {secret}"}))
    assert store.shows_in(line)
