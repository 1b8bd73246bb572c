"""Run ``quantmcp serve`` with perf_counter spans around each layer's entry points.

Usage: python launcher.py SPANS_OUT serve --config CONFIG

Each wrapped function is patched at the name its caller looks up, so the
server code is unchanged. Only functions that run once or a few times per
request are wrapped; recursive or per-value helpers (round_floats,
_redact_value, fnv1a64, synthetic_value, CanonicalRecord.to_obj) show up as
their caller's self time. Spans carry the JSON-RPC id of the request being
processed (the server runs sequentially), stay in memory, and are written to
SPANS_OUT as one JSON array when the server exits. Each span is
``[id, name, depth, seconds, self_seconds, extra]``, where self time is the
duration minus the time covered by child spans and ``extra`` is a small
per-span observation (rows fetched, cache hit, HTTP status, ...).
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import quantmcp.cli as cli  # noqa: E402
import quantmcp.providers as providers  # noqa: E402
import quantmcp.registry as registry  # noqa: E402
import quantmcp.security as security  # noqa: E402
import quantmcp.server as server  # noqa: E402
import quantmcp.tools as tools  # noqa: E402

RAISED = "raised"


class Tracer:
    def __init__(self):
        self.rid = None
        self.stack: list[list[float]] = []
        self.spans: list[list] = []

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        fn = getattr(owner, attr)
        perf_counter = time.perf_counter
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                extra = RAISED
                raise
            else:
                extra = observe(result) if observe is not None else None
                return result
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                spans.append([self.rid, name, len(stack), dur, dur - children[0], extra])

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def set_request(self, msg):
        self.rid = msg.id
        return None


def install(tracer: Tracer) -> None:
    p = tracer.patch
    p(server, "parse_message", "transport.parse_message", tracer.set_request)
    p(server, "serialize_message", "transport.serialize_message", len)
    p(server.Dispatcher, "dispatch", "server.dispatch")
    p(server.Dispatcher, "log_event", "server.log_event")
    p(registry.ToolRegistry, "validate_params", "registry.validate_params")
    # build_registry() reads these module globals when cmd_serve runs.
    for tool in ("tool_get_historical_data", "tool_get_quote", "tool_compute_summary"):
        p(tools, tool, f"tools.{tool}")
    p(tools, "compute_stats", "tools.compute_stats")
    p(security.RateLimiter, "acquire", "security.rate_limiter.acquire", lambda d: d.allowed)
    p(tools, "cache_key", "security.cache_key")
    p(security.ResponseCache, "lookup_or_store", "security.cache.lookup_or_store", lambda r: r[1])
    p(server, "redact_message", "security.redact_message")
    p(server, "redact", "security.redact")
    p(tools, "fetch_historical", "providers.fetch_historical", lambda raw: len(raw.rows))
    p(providers.requests, "get", "providers.http_get", lambda resp: resp.status_code)
    p(tools, "parse_options", "normalize.parse_options")
    p(tools, "normalize_payload", "normalize.normalize_payload")
    p(tools, "apply_fill", "normalize.apply_fill")
    p(cli, "load_config", "config.load_config")
    p(cli, "build_context", "config.build_context")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import_s = time.perf_counter() - _T0
    tracer.spans.append([None, "cli.import", 0, import_s, import_s, None])
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
