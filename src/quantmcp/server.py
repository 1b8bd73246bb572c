"""Protocol lifecycle and dispatch: initialize, ping, tools/list, tools/call.

Requests on a connection are processed strictly in order by default, which
keeps transcripts deterministic. An opt-in concurrent mode runs tools/call
handlers in a bounded pool; responses may then interleave, correlated by
id. Every outgoing frame and log line is serialized, searched for loaded
secrets and, on a match, redacted and serialized again before it leaves the
process.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, TextIO

from . import __version__
from .errors import (
    INTERNAL_ERROR,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    InternalError,
    InvalidRequestError,
    ParseError,
    QuantMcpError,
    ValidationError,
)
from .registry import ToolRegistry
from .security import CredentialStore, redact, redact_message
from .tools import ToolContext, ToolResult
from .transport import (
    MISSING,
    NOTIFICATION,
    REQUEST,
    RESPONSE,
    LOG_ENCODER,
    JsonRpcMessage,
    json_line,
    make_error,
    parse_message,
    serialize_message,
)

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor  # imported by run only in concurrent mode

PROTOCOL_VERSION = "2024-11-05"
SERVER_NAME = "quantmcp"
# The most characters of one input line, its newline counted, read into memory: 4x the largest
# answer frame (4 MB, 100 codes x 1 year x 7 fields). A longer line is answered -32600 and dropped.
MAX_LINE_CHARS = 16 * 1024 * 1024
# Concurrent mode's tools/calls per worker, running or queued, past which the reader waits for an answer.
ADMITTED_PER_WORKER = 4


def _scrubbed(value: JsonRpcMessage | dict[str, Any], store: CredentialStore) -> str:
    """A message's frame or a log event's line, serialized again redacted only if a loaded secret shows in it.

    ``serialize_message``, ``redact_message`` and ``redact`` are read from this module at each call.
    """
    dump, scrub = (serialize_message, redact_message) if isinstance(value, JsonRpcMessage) else (_log_line, redact)
    line = dump(value)
    return dump(scrub(value, store)) if store.shows_in(line) else line


def _log_line(event: dict[str, Any]) -> str:
    return json_line(event, LOG_ENCODER)


class Dispatcher:
    """Routes parsed messages to lifecycle and tool handlers."""

    def __init__(
        self,
        registry: ToolRegistry,
        ctx: ToolContext,
        server_name: str = SERVER_NAME,
        log: Callable[[str], None] | None = None,
    ):
        self.registry = registry
        self.initialized = False
        self.session_info: dict[str, Any] = {}
        self.ctx = ctx
        self.server_name = server_name
        self.log = log

    def log_event(self, event: str, **fields: Any) -> None:
        """Hand ``log`` one JSON event line, redacted if a secret shows; without ``log``, do nothing."""
        if self.log is not None:
            self.log(_scrubbed({"event": event, **fields}, self.ctx.credentials))

    def dispatch(self, msg: JsonRpcMessage) -> JsonRpcMessage | None:
        """Route one message; notifications and inbound responses yield None."""
        if msg.kind == NOTIFICATION:
            self.log_event("notification", method=msg.method)
            return None
        if msg.kind != REQUEST:
            self.log_event("ignored_inbound", kind=msg.kind)
            return None
        try:
            if msg.method == "initialize":
                return self._handle_initialize(msg)
            if msg.method == "ping":  # answered before initialize too, as MCP requires
                return JsonRpcMessage(RESPONSE, id=msg.id, result={})
            if msg.method in ("tools/list", "tools/call"):
                if not self.initialized:
                    return make_error(
                        msg.id,
                        INVALID_REQUEST,
                        "server not initialized: send initialize before tools/* requests",
                    )
                if msg.method == "tools/list":
                    return self._handle_tools_list(msg)
                return self._handle_tools_call(msg)
            return make_error(
                msg.id,
                METHOD_NOT_FOUND,
                f"method {msg.method!r} is not supported",
                data={"method": msg.method},
            )
        except QuantMcpError as exc:
            return make_error(msg.id, exc.code, exc.message, data=exc.data if exc.data is not None else MISSING)
        except Exception as exc:  # a crashing handler must not kill the connection
            self.log_event("internal_error", method=msg.method, detail=str(exc))
            return make_error(msg.id, INTERNAL_ERROR, "internal error", data={"detail": str(exc)})

    def _handle_initialize(self, msg: JsonRpcMessage) -> JsonRpcMessage:
        if self.initialized:
            return make_error(msg.id, INVALID_REQUEST, "server already initialized")
        params = msg.params if isinstance(msg.params, dict) else {}
        client_info = params.get("clientInfo")
        if isinstance(client_info, dict):
            self.session_info = {
                "name": str(client_info.get("name", "")),
                "version": str(client_info.get("version", "")),
            }
        self.initialized = True
        self.log_event("initialize", client=self.session_info)
        result = {
            "protocolVersion": PROTOCOL_VERSION,
            "serverInfo": {"name": self.server_name, "version": __version__},
            "capabilities": {"tools": {}},
        }
        return JsonRpcMessage(RESPONSE, id=msg.id, result=result)

    def _handle_tools_list(self, msg: JsonRpcMessage) -> JsonRpcMessage:
        manifest = [d.manifest_entry() for d in self.registry.descriptors()]
        return JsonRpcMessage(RESPONSE, id=msg.id, result={"tools": manifest})

    def _handle_tools_call(self, msg: JsonRpcMessage) -> JsonRpcMessage:
        params = msg.params
        if params is MISSING or not isinstance(params, dict):
            raise ValidationError("tools/call params must be an object carrying name and arguments")
        name = params.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError("tools/call params.name must be a non-empty string")
        arguments = params.get("arguments", {})
        validated = self.registry.validate_params(name, arguments)
        _, handler = self.registry.get(name)
        self.log_event("tools_call", tool=name)
        result = handler(validated, self.ctx)
        if not isinstance(result, ToolResult):
            raise QuantMcpError(f"tool {name!r} returned a non-ToolResult value")
        if result.is_error:
            self.log_event("tool_error", tool=name, content=result.content)
        return JsonRpcMessage(RESPONSE, id=msg.id, result=result.to_result_obj())


class StdioServer:
    """Newline-delimited JSON-RPC over a text stream pair until EOF.

    Exactly one reader owns the input stream; writes are serialized by a
    lock so concurrent-mode responses never interleave bytes.
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        instream: TextIO,
        outstream: TextIO,
        concurrency: int = 0,
    ):
        self.dispatcher = dispatcher
        self._in = instream
        self._out = outstream
        self.concurrency = concurrency
        self._write_lock = threading.Lock()
        self._admitted = threading.Semaphore(ADMITTED_PER_WORKER * concurrency)  # one slot per call in the pool

    def _emit(self, msg: JsonRpcMessage) -> None:
        store = self.dispatcher.ctx.credentials
        try:
            line = _scrubbed(msg, store)
        except InternalError as exc:
            # An invariant-violating message must never reach the wire; the
            # client still deserves an answer instead of a dropped frame.
            self.dispatcher.log_event("unserializable_response", detail=exc.message)
            fallback = make_error(msg.id if msg.kind == RESPONSE else None, INTERNAL_ERROR, "internal error")
            line = _scrubbed(fallback, store)
        with self._write_lock:
            self._out.write(line)
            self._out.flush()

    def _dispatch_and_emit(self, msg: JsonRpcMessage) -> None:
        response = self.dispatcher.dispatch(msg)
        if response is not None:
            self._emit(response)

    def handle_line(self, raw: str, executor: ThreadPoolExecutor | None = None) -> None:
        """Process one frame; unparseable input answers -32700 with id null.

        With an executor, tools/call requests after initialize run on it; past its bound of calls this waits.
        """
        stripped = raw.strip(" \t\r\n")  # JSON's whitespace only: a line of any other space is malformed
        if not stripped:
            return
        try:
            msg = parse_message(stripped)
        except (ParseError, InvalidRequestError) as exc:
            self._emit(make_error(exc.request_id, exc.code, exc.message))
            return
        if (
            executor is not None
            and msg.kind == REQUEST
            and msg.method == "tools/call"
            and self.dispatcher.initialized
        ):
            self._admitted.acquire()  # released once the call is answered
            executor.submit(self._dispatch_and_emit, msg).add_done_callback(lambda _: self._admitted.release())
        else:
            self._dispatch_and_emit(msg)

    def run(self) -> int:
        """Serve until the input stream closes; returns the process exit code.

        A line is read in at most ``MAX_LINE_CHARS`` characters; one that does not end within
        them is answered -32600 with id null and the rest of it is read and dropped.
        """
        executor = None
        if self.concurrency > 0:
            from concurrent.futures import ThreadPoolExecutor

            executor = ThreadPoolExecutor(max_workers=self.concurrency)
        read = self._in.readline
        try:
            for line in iter(lambda: read(MAX_LINE_CHARS), ""):
                if len(line) == MAX_LINE_CHARS and not line.endswith("\n"):
                    self._emit(make_error(None, INVALID_REQUEST, f"line exceeds {MAX_LINE_CHARS} characters"))
                    while line and not line.endswith("\n"):  # drop the rest, a bounded chunk at a time
                        line = read(MAX_LINE_CHARS)
                    continue
                self.handle_line(line, executor)
        except KeyboardInterrupt:
            pass
        finally:
            if executor is not None:
                executor.shutdown(wait=True)  # let in-flight calls complete
        self.dispatcher.log_event("shutdown")
        return 0
