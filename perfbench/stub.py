"""Loopback HTTP provider for the ``http_miss`` workload.

Answers ``GET /daily?symbol=&fields=&from=&to=&apikey=`` with
``{"rows": [...]}`` built from the synthetic oracle, after a fixed delay
that stands in for upstream latency. A wrong ``apikey`` gets HTTP 401, so
the credential path is exercised on every request. The traffic crosses the
loopback interface only.
"""

from __future__ import annotations

import datetime as dt
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from oracle import SyntheticOracle, weekdays


class ProviderStub:
    def __init__(self, oracle: SyntheticOracle, apikey: str, delay_s: float):
        self.oracle = oracle
        self.apikey = apikey
        self.delay_s = delay_s
        self.gets = 0
        self.waited_s = 0.0  # wall time during which at least one GET was in its delay
        self.lock = threading.Lock()
        self._delaying = 0
        self._since = 0.0
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._handler())
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def _rows(self, query: dict[str, list[str]]) -> list[dict] | None:
        if query.get("apikey", [""])[0] != self.apikey:
            return None
        code = query["symbol"][0]
        fields = query["fields"][0].split(",")
        days = weekdays(dt.date.fromisoformat(query["from"][0]), dt.date.fromisoformat(query["to"][0]))
        return [
            {"code": code, "date": day.isoformat(), **{f: self.oracle.value(code, f, day) for f in fields}}
            for day in days
        ]

    def _delay(self) -> None:
        with self.lock:
            self.gets += 1
            if self._delaying == 0:
                self._since = time.perf_counter()
            self._delaying += 1
        time.sleep(self.delay_s)
        with self.lock:
            self._delaying -= 1
            if self._delaying == 0:
                self.waited_s += time.perf_counter() - self._since

    def _handler(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                stub._delay()
                rows = stub._rows(parse_qs(urlsplit(self.path).query))
                status = 200 if rows is not None else 401
                body = json.dumps({"rows": rows or []}).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        return Handler

    def __enter__(self) -> "ProviderStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
