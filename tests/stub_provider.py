"""Reference HTTP stub serving the documented provider JSON shape.

Responds to every GET with ``{"rows": [...]}`` from the configured fixture,
or with a canned status/delay for failure-path tests.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator


class _StubState:
    def __init__(self, rows: list[dict[str, Any]], status: int, delay_s: float):
        self.rows = rows
        self.status = status
        self.delay_s = delay_s
        self.requests: list[str] = []
        self.lock = threading.Lock()


def _make_handler(state: _StubState):
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            with state.lock:
                state.requests.append(self.path)
            if state.delay_s:
                time.sleep(state.delay_s)
            body = json.dumps({"rows": state.rows}).encode("utf-8")
            self.send_response(state.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if state.status != 204:
                self.wfile.write(body)

        def log_message(self, *args):  # keep pytest output clean
            pass

    return Handler


@contextmanager
def stub_rows_server(
    rows: list[dict[str, Any]] | None = None,
    status: int = 200,
    delay_s: float = 0.0,
) -> Iterator[tuple[str, _StubState]]:
    """Yield (base_url, state) for a throwaway local provider endpoint."""
    state = _StubState(rows or [], status, delay_s)

    class _QuietServer(ThreadingHTTPServer):
        def handle_error(self, request, client_address):
            pass  # clients abandoning a connection (timeout tests) are expected

    server = _QuietServer(("127.0.0.1", 0), _make_handler(state))
    # a short poll, since shutdown() waits up to one poll interval
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        yield f"http://{host}:{port}", state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
