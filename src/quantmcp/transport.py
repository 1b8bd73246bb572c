"""Newline-delimited JSON-RPC 2.0 framing: parse, serialize, error envelopes.

One message per line, UTF-8, every frame declaring ``"jsonrpc":"2.0"``.
Unknown top-level keys are preserved so a parse/serialize round trip is
lossless against future clients. Floats are rounded to at most six
fractional digits on emission, which keeps serialized frames stable across
platforms and replayable byte-for-byte.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any

from .errors import (
    KNOWN_CODES,
    InternalError,
    InvalidRequestError,
    ParseError,
)


class _Missing:
    """Sentinel distinguishing an absent JSON key from an explicit null."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<missing>"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()

REQUEST = "request"
RESPONSE = "response"
NOTIFICATION = "notification"

_ENVELOPE_KEYS = ("jsonrpc", "id", "method", "params", "result", "error")


@dataclass
class ErrorObject:
    code: int
    message: str
    data: Any = MISSING

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.data is not MISSING:
            obj["data"] = self.data
        return obj


@dataclass
class JsonRpcMessage:
    """One protocol message; ``kind`` is request, response, or notification."""

    kind: str
    id: int | str | None = None
    method: str | None = None
    params: Any = MISSING
    result: Any = MISSING
    error: ErrorObject | None = None
    extra: dict[str, Any] = field(default_factory=dict)


def _valid_id(value: Any) -> bool:
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def _reject_constant(name: str) -> None:
    raise ParseError(f"malformed JSON: {name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"malformed JSON: {text} overflows a double")
    return value


# A raw surrogate, or a \uD800-\uDFFF escape; only such a frame is checked for a lone one.
_SURROGATE_HINT = re.compile(r"[\ud800-\udfff]|\\u[dD][89a-fA-F]")


def parse_message(line: bytes | bytearray | str) -> JsonRpcMessage:
    """Parse one complete frame into a structurally valid message.

    Malformed text raises :class:`ParseError` (wire code -32700); a parseable
    but structurally invalid envelope raises :class:`InvalidRequestError`
    (-32600) carrying ``request_id`` when the offending id was recoverable.
    """
    if isinstance(line, (bytes, bytearray)):
        try:
            text = bytes(line).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc}") from exc
    else:
        text = line
    try:
        obj = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
        if _SURROGATE_HINT.search(text):
            # A lone surrogate parses but cannot be written out as UTF-8;
            # an escaped pair such as an emoji decodes to one character.
            _dumps(obj).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError("invalid Unicode: a lone surrogate or a byte that is not UTF-8") from exc
    except (ValueError, RecursionError) as exc:  # also too many digits, or nesting too deep
        raise ParseError(f"malformed JSON: {getattr(exc, 'msg', exc)}") from exc

    rid = obj.get("id") if isinstance(obj, dict) and _valid_id(obj.get("id")) else None

    def invalid(reason: str) -> None:
        exc = InvalidRequestError(reason)
        exc.request_id = rid
        raise exc

    if not isinstance(obj, dict):
        invalid("message must be a JSON object")
    if obj.get("jsonrpc") != "2.0":
        invalid('message must declare "jsonrpc":"2.0"')

    extra = {k: v for k, v in obj.items() if k not in _ENVELOPE_KEYS}
    has_result = "result" in obj
    has_error = "error" in obj

    if "method" in obj:
        if has_result or has_error:
            invalid("request cannot carry result or error")
        method = obj["method"]
        if not isinstance(method, str) or not method:
            invalid("method must be a non-empty string")
        params = obj.get("params", MISSING)
        if params is not MISSING and not isinstance(params, (dict, list)):
            invalid("params must be an object or array")
        if "id" in obj:
            if not _valid_id(obj["id"]):
                invalid("request id must be an integer or string")
            return JsonRpcMessage(REQUEST, id=obj["id"], method=method, params=params, extra=extra)
        return JsonRpcMessage(NOTIFICATION, method=method, params=params, extra=extra)

    if has_result and has_error:
        invalid("response carries both result and error")
    if not has_result and not has_error:
        invalid("message carries no method, result, or error")
    if "id" not in obj:
        invalid("response requires an id")
    mid = obj["id"]
    if mid is not None and not _valid_id(mid):
        invalid("response id must be an integer, string, or null")
    if has_error:
        err = obj["error"]
        if not isinstance(err, dict):
            invalid("error must be an object")
        code = err.get("code")
        message = err.get("message")
        if not isinstance(code, int) or isinstance(code, bool):
            invalid("error code must be an integer")
        if not isinstance(message, str) or not message:
            invalid("error message must be a non-empty string")
        error = ErrorObject(code=code, message=message, data=err.get("data", MISSING))
        return JsonRpcMessage(RESPONSE, id=mid, error=error, extra=extra)
    return JsonRpcMessage(RESPONSE, id=mid, result=obj["result"], extra=extra)


def round_floats(value: Any) -> Any:
    """Return a copy of ``value`` with every float rounded to 6 decimals."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


# Characters that json.dumps(ensure_ascii=False) leaves raw but that
# str.splitlines and many line readers treat as line ends.
_LINE_BREAK_ESCAPES = {ord(ch): f"\\u{ord(ch):04x}" for ch in "\x85\u2028\u2029"}


def json_line(obj: Any, **kwargs: Any) -> str:
    """``json.dumps`` with raw UTF-8 text that holds no line break of any kind.

    Such a character can only sit inside a JSON string, where its ``\\uXXXX``
    escape decodes to the same value, so the text still reads back unchanged.
    """
    text = json.dumps(obj, ensure_ascii=False, **kwargs)
    # Each test is a quick scan, and none at all on a pure-ASCII text.
    if "\x85" in text or "\u2028" in text or "\u2029" in text:
        text = text.translate(_LINE_BREAK_ESCAPES)
    return text


def _dumps(obj: Any) -> str:
    return json_line(obj, allow_nan=False, separators=(",", ":"))


_LONG_FRACTION = re.compile(r"\.[0-9]{7}")


def _check_emittable(msg: JsonRpcMessage) -> None:
    if msg.kind == REQUEST:
        if not isinstance(msg.method, str) or not msg.method:
            raise InternalError("request method must be a non-empty string")
        if not _valid_id(msg.id):
            raise InternalError("request id must be an integer or string")
    elif msg.kind == NOTIFICATION:
        if not isinstance(msg.method, str) or not msg.method:
            raise InternalError("notification method must be a non-empty string")
        if msg.id is not None:
            raise InternalError("notification must not carry an id")
    elif msg.kind == RESPONSE:
        has_result = msg.result is not MISSING
        has_error = msg.error is not None
        if has_result == has_error:
            raise InternalError("response must carry exactly one of result or error")
        if msg.id is not None and not _valid_id(msg.id):
            raise InternalError("response id must be an integer, string, or null")
        if has_error:
            err = msg.error
            if err.code not in KNOWN_CODES:
                raise InternalError(f"error code {err.code} outside the documented taxonomy")
            if not isinstance(err.message, str) or not err.message:
                raise InternalError("error message must be a non-empty string")
    else:
        raise InternalError(f"unknown message kind {msg.kind!r}")
    if msg.params is not MISSING and not isinstance(msg.params, (dict, list)):
        raise InternalError("params must be an object or array")


def serialize_message(msg: JsonRpcMessage) -> bytes:
    """Emit exactly one UTF-8 frame terminated by a single newline.

    An invariant-violating message raises :class:`InternalError` and nothing
    is emitted.
    """
    _check_emittable(msg)
    obj: dict[str, Any] = {"jsonrpc": "2.0"}
    if msg.kind == REQUEST:
        obj["id"] = msg.id
        obj["method"] = msg.method
        if msg.params is not MISSING:
            obj["params"] = msg.params
    elif msg.kind == NOTIFICATION:
        obj["method"] = msg.method
        if msg.params is not MISSING:
            obj["params"] = msg.params
    else:
        obj["id"] = msg.id
        if msg.error is not None:
            obj["error"] = msg.error.to_obj()
        else:
            obj["result"] = msg.result
    for key, value in msg.extra.items():
        if key not in obj and key != "jsonrpc":
            obj[key] = value
    try:
        text = _dumps(obj)
        # A float that round(x, 6) changes prints (as its shortest repr) with
        # a negative exponent or more than six fractional digits, so a frame
        # with neither needs no rounding pass. A match inside a string only
        # costs that pass.
        if "e-" in text or _LONG_FRACTION.search(text):
            text = _dumps(round_floats(obj))
    except (TypeError, ValueError) as exc:
        raise InternalError(f"unserializable message payload: {exc}") from exc
    return text.encode("utf-8") + b"\n"


def make_error(
    id: int | str | None, code: int, message: str, data: Any = MISSING
) -> JsonRpcMessage:
    """Build a well-formed error response correlated to ``id``.

    ``id`` may be null per the JSON-RPC rule for requests whose id could not
    be recovered. ``data`` is passed through verbatim.
    """
    if code not in KNOWN_CODES:
        raise InternalError(f"error code {code} outside the documented taxonomy")
    if not message:
        raise InternalError("error message must be non-empty")
    return JsonRpcMessage(RESPONSE, id=id, error=ErrorObject(code=code, message=message, data=data))
