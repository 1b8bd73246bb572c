"""Protocol lifecycle and dispatch: initialize, tools/list, tools/call.

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
from .security import redact, redact_message
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
        if self.log is None:
            return
        payload = {"event": event, **fields}
        store = self.ctx.credentials
        line = json_line(payload, LOG_ENCODER)
        if store.shows_in(line):
            line = json_line(redact(payload, store), LOG_ENCODER)
        self.log(line)

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

    def _encode(self, msg: JsonRpcMessage) -> str:
        """Serialize ``msg``; redact and serialize again only if a secret shows."""
        store = self.dispatcher.ctx.credentials
        line = serialize_message(msg).decode("utf-8")
        if store.shows_in(line):
            line = serialize_message(redact_message(msg, store)).decode("utf-8")
        return line

    def _emit(self, msg: JsonRpcMessage) -> None:
        try:
            line = self._encode(msg)
        except InternalError as exc:
            # An invariant-violating message must never reach the wire; the
            # client still deserves an answer instead of a dropped frame.
            self.dispatcher.log_event("unserializable_response", detail=exc.message)
            fallback = make_error(msg.id if msg.kind == RESPONSE else None, INTERNAL_ERROR, "internal error")
            line = self._encode(fallback)
        with self._write_lock:
            self._out.write(line)
            self._out.flush()

    def _dispatch_and_emit(self, msg: JsonRpcMessage) -> None:
        response = self.dispatcher.dispatch(msg)
        if response is not None:
            self._emit(response)

    def handle_line(self, raw: str, executor: ThreadPoolExecutor | None = None) -> None:
        """Process one frame; unparseable input answers -32700 with id null.

        With an executor, tools/call requests after initialize run on it.
        """
        stripped = raw.strip()
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
            executor.submit(self._dispatch_and_emit, msg)
        else:
            self._dispatch_and_emit(msg)

    def run(self) -> int:
        """Serve until the input stream closes; returns the process exit code."""
        executor = None
        if self.concurrency > 0:
            from concurrent.futures import ThreadPoolExecutor

            executor = ThreadPoolExecutor(max_workers=self.concurrency)
        try:
            for line in iter(self._in.readline, ""):
                self.handle_line(line, executor)
        except KeyboardInterrupt:
            pass
        finally:
            if executor is not None:
                executor.shutdown(wait=True)  # let in-flight calls complete
        self.dispatcher.log_event("shutdown")
        return 0
