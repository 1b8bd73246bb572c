"""Shared fixtures: fake clocks and ready-made tool contexts."""

from __future__ import annotations

import datetime as dt
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracle_utils, stub_provider

from quantmcp.providers import ProviderConfig, RateSpec, SyntheticProvider
from quantmcp.security import CredentialStore, RateLimiter, ResponseCache
from quantmcp.server import Dispatcher
from quantmcp.tools import ToolContext, build_registry

TESTS_DIR = Path(__file__).parent
REPO_ROOT = TESTS_DIR.parent
GOLDEN_DIR = TESTS_DIR / "golden"
DATA_DIR = TESTS_DIR / "data"


def src_env(*extra_paths: str) -> dict[str, str]:
    """The environment with ``src`` (and ``extra_paths``) ahead on PYTHONPATH, for child interpreters."""
    paths = [str(REPO_ROOT / "src"), *extra_paths, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


class FakeMonoClock:
    """Injectable monotonic clock; tests advance it instead of sleeping."""

    def __init__(self, start: float = 1000.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeWallClock:
    def __init__(self, moment: dt.datetime | None = None):
        self.moment = moment or dt.datetime(2024, 6, 3, 12, 0, 0, tzinfo=dt.timezone.utc)

    def __call__(self) -> dt.datetime:
        return self.moment


def make_ctx(
    providers: dict[str, ProviderConfig] | None = None,
    default: str | None = None,
    secrets: dict[str, str] | None = None,
    mono: FakeMonoClock | None = None,
    wall: FakeWallClock | None = None,
    rate: RateSpec | None = None,
) -> ToolContext:
    if providers is None:
        synth = SyntheticProvider(id="synth", seed=0, rate=rate or RateSpec(1000, 1000.0))
        providers = {"synth": synth}
    mono = mono or FakeMonoClock()
    wall = wall or FakeWallClock()
    return ToolContext(
        providers=providers,
        default_provider_id=default or next(iter(providers)),
        credentials=CredentialStore(secrets or {}),
        rate_limiter=RateLimiter({pid: p.rate for pid, p in providers.items()}),
        cache=ResponseCache(clock=mono),
        wall_clock=wall,
        mono_clock=mono,
    )


@pytest.fixture
def mono_clock() -> FakeMonoClock:
    return FakeMonoClock()


@pytest.fixture
def wall_clock() -> FakeWallClock:
    return FakeWallClock()


@pytest.fixture
def ctx() -> ToolContext:
    return make_ctx()


@pytest.fixture
def dispatcher(ctx) -> Dispatcher:
    return Dispatcher(build_registry(), ctx)


def initialize(dispatcher: Dispatcher) -> None:
    from quantmcp.transport import REQUEST, JsonRpcMessage

    dispatcher.dispatch(
        JsonRpcMessage(
            REQUEST,
            id=0,
            method="initialize",
            params={"clientInfo": {"name": "pytest", "version": "0"}},
        )
    )


@pytest.fixture
def live_dispatcher(dispatcher) -> Dispatcher:
    initialize(dispatcher)
    return dispatcher
