"""Reference HTTP stub serving the documented provider JSON shape.

Responds to every GET with ``{"rows": [...]}`` from the configured fixture,
or with a canned status/delay for failure-path tests, or, with ``redirect_to``
set, to a GET under ``/moved`` with a 302 to the rest of its path there. It answers HTTP/1.0 and
closes each connection, unless ``keep_alive_s`` opts into HTTP/1.1 keep-alive.
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
        self.set_cookie: str | None = None  # a Set-Cookie value sent with every answer
        self.requests: list[str] = []  # each request's target: a path, or an absolute URL when sent to a proxy
        self.ports: list[int] = []  # each request's client port, shared by the requests of one connection
        self.cookies: list[str | None] = []  # each request's Cookie header
        self.auths: list[str | None] = []  # each request's Authorization header
        self.redirect_to: str | None = None  # a base URL that a GET under /moved is redirected to
        self.closed = 0  # connections the stub has closed
        self.lock = threading.Lock()


def _make_handler(state: _StubState, keep_alive_s: float | None):
    class Handler(BaseHTTPRequestHandler):
        if keep_alive_s is not None:
            protocol_version = "HTTP/1.1"
            timeout = keep_alive_s  # an idle connection is closed after this long
            # Each answer is several small writes; with Nagle's algorithm on, a kept-alive connection's next
            # answer waits for the client's delayed ACK, about 40 ms a GET.
            disable_nagle_algorithm = True

        def do_GET(self):  # noqa: N802 (http.server API)
            with state.lock:
                state.requests.append(self.path)
                state.ports.append(self.client_address[1])
                state.cookies.append(self.headers.get("Cookie"))
                state.auths.append(self.headers.get("Authorization"))
            if state.redirect_to is not None and self.path.startswith("/moved/"):
                self.send_response(302)
                self.send_header("Location", state.redirect_to + self.path[len("/moved"):])
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            if state.delay_s:
                time.sleep(state.delay_s)
            body = json.dumps({"rows": state.rows}).encode("utf-8")
            self.send_response(state.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if state.set_cookie is not None:
                self.send_header("Set-Cookie", state.set_cookie)
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
    keep_alive_s: float | None = None,
) -> Iterator[tuple[str, _StubState]]:
    """Yield (base_url, state) for a throwaway local provider endpoint.

    With ``keep_alive_s`` the stub answers HTTP/1.1 and keeps each connection open until the client
    closes it or it has been idle that many seconds.
    """
    state = _StubState(rows or [], status, delay_s)

    class _QuietServer(ThreadingHTTPServer):
        request_queue_size = 64  # a burst of GETs connects at once

        def handle_error(self, request, client_address):
            pass  # clients abandoning a connection (timeout tests) are expected

        def shutdown_request(self, request):
            super().shutdown_request(request)
            with state.lock:
                state.closed += 1

    server = _QuietServer(("127.0.0.1", 0), _make_handler(state, keep_alive_s))
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
