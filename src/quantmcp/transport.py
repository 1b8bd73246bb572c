"""Newline-delimited JSON-RPC 2.0 framing: parse, serialize, error envelopes.

One message per line, UTF-8, every frame declaring ``"jsonrpc":"2.0"``; a frame
stays text here, and only the stream it is read from or written to codes it.
Unknown top-level keys are preserved so a parse/serialize round trip is lossless
against future clients. Floats are rounded to at most six fractional digits on
emission, which keeps frames stable across platforms and replayable byte for byte.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from typing import Any, NamedTuple

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


MISSING = _Missing()

REQUEST = "request"
RESPONSE = "response"
NOTIFICATION = "notification"

_ENVELOPE_KEYS = ("jsonrpc", "id", "method", "params", "result", "error")


def slots_repr(self: Any) -> str:
    """``Class(field=value, ...)`` over the class's ``__slots__``, so a failing test prints what it compared."""
    return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"


class ErrorObject(NamedTuple):
    code: int
    message: str
    data: Any = MISSING

    def to_obj(self) -> dict[str, Any]:
        return self._asdict() if self.data is not MISSING else {"code": self.code, "message": self.message}


class JsonRpcMessage:
    """One protocol message; ``kind`` is request, response, or notification."""

    __slots__ = ("kind", "id", "method", "params", "result", "error", "extra")

    def __init__(
        self,
        kind: str,
        id: int | str | None = None,
        method: str | None = None,
        params: Any = MISSING,
        result: Any = MISSING,
        error: ErrorObject | None = None,
        extra: dict[str, Any] | None = None,
    ):
        self.kind = kind
        self.id = id
        self.method = method
        self.params = params
        self.result = result
        self.error = error
        self.extra = {} if extra is None else extra

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.id, self.method, self.params, self.result, self.error, self.extra) == (
            other.kind, other.id, other.method, other.params, other.result, other.error, other.extra
        )

    __repr__ = slots_repr


def _valid_id(value: Any) -> bool:
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def _reject_constant(name: str) -> None:
    raise ParseError(f"malformed JSON: {name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"malformed JSON: {text} overflows a double")
    return value


_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)

# A raw surrogate, or a \uD800-\uDFFF escape; only such a frame is checked for a lone one.
_SURROGATE_HINT = re.compile(r"[\ud800-\udfff]|\\u[dD][89a-fA-F]")


def _classify(obj: Any) -> str:
    """Return the kind of a decoded frame, or raise naming the rule it breaks.

    Both directions apply these rules: :func:`parse_message` to what it
    reads, :func:`serialize_message` to the frame it is about to write.
    """
    if not isinstance(obj, dict):
        raise InvalidRequestError("message must be a JSON object")
    if obj.get("jsonrpc") != "2.0":
        raise InvalidRequestError('message must declare "jsonrpc":"2.0"')
    has_result = "result" in obj
    has_error = "error" in obj

    if "method" in obj:
        if has_result or has_error:
            raise InvalidRequestError("request cannot carry result or error")
        method = obj["method"]
        if not isinstance(method, str) or not method:
            raise InvalidRequestError("method must be a non-empty string")
        if "params" in obj and not isinstance(obj["params"], (dict, list)):
            raise InvalidRequestError("params must be an object or array")
        if "id" not in obj:
            return NOTIFICATION
        if not _valid_id(obj["id"]):
            raise InvalidRequestError("request id must be an integer or string")
        return REQUEST

    if has_result and has_error:
        raise InvalidRequestError("response carries both result and error")
    if not has_result and not has_error:
        raise InvalidRequestError("message carries no method, result, or error")
    if "id" not in obj:
        raise InvalidRequestError("response requires an id")
    if obj["id"] is not None and not _valid_id(obj["id"]):
        raise InvalidRequestError("response id must be an integer, string, or null")
    if has_error:
        err = obj["error"]
        if not isinstance(err, dict):
            raise InvalidRequestError("error must be an object")
        code = err.get("code")
        if not isinstance(code, int) or isinstance(code, bool):
            raise InvalidRequestError("error code must be an integer")
        message = err.get("message")
        if not isinstance(message, str) or not message:
            raise InvalidRequestError("error message must be a non-empty string")
    return RESPONSE


def parse_message(text: str) -> JsonRpcMessage:
    """Parse one complete frame, as text read with ``surrogateescape``, into a structurally valid message.

    Malformed text, or a lone surrogate (a byte that is not UTF-8), raises :class:`ParseError` (-32700); a
    parseable but structurally invalid envelope raises :class:`InvalidRequestError` (-32600) carrying
    ``request_id`` when the offending id was recoverable.
    """
    try:
        if text.startswith("\ufeff"):  # json.loads' own check, which JSONDecoder.decode skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _DECODER.decode(text)
        if _SURROGATE_HINT.search(text):
            # A lone surrogate parses but cannot be written out as UTF-8;
            # an escaped pair such as an emoji decodes to one character.
            json_line(obj).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError("invalid Unicode: a lone surrogate or a byte that is not UTF-8") from exc
    except (ValueError, RecursionError) as exc:  # also too many digits, or nesting too deep
        raise ParseError(f"malformed JSON: {getattr(exc, 'msg', exc)}") from exc

    try:
        kind = _classify(obj)
    except InvalidRequestError as exc:
        rid = obj.get("id") if isinstance(obj, dict) else None
        exc.request_id = rid if _valid_id(rid) else None
        raise

    extra = {k: v for k, v in obj.items() if k not in _ENVELOPE_KEYS}
    if kind != RESPONSE:
        return JsonRpcMessage(
            kind, id=obj.get("id"), method=obj["method"], params=obj.get("params", MISSING), extra=extra
        )
    err = obj.get("error")  # the classifier made it an object, if present
    error = None if err is None else ErrorObject(err["code"], err["message"], err.get("data", MISSING))
    return JsonRpcMessage(RESPONSE, id=obj["id"], result=obj.get("result", MISSING), error=error, extra=extra)


class PreEncoded:
    """A JSON array whose ``json_text()``, equal to ``dumps(list(self))``, :func:`serialize_message` splices in.

    Iterating yields the items as plain values, which every other walk (redaction, rounding) reads.
    """

    __slots__ = ()


def round_floats(value: Any, sequences: tuple[type, ...] = (list, tuple, PreEncoded)) -> Any:
    """Return a copy of ``value`` with every float rounded to 6 decimals; only ``sequences`` are walked into."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: round_floats(v, sequences) for k, v in value.items()}
    if isinstance(value, sequences):
        return [round_floats(v, sequences) for v in value]
    return value


# Characters that json.dumps(ensure_ascii=False) leaves raw but that
# str.splitlines and many line readers treat as line ends.
_LINE_BREAK_ESCAPES = {ord(ch): f"\\u{ord(ch):04x}" for ch in "\x85\u2028\u2029"}


LOG_ENCODER = json.JSONEncoder(ensure_ascii=False, default=str)
_FRAME_OPTIONS: dict[str, Any] = dict(ensure_ascii=False, allow_nan=False, separators=(",", ":"))
_FRAME_ENCODER = json.JSONEncoder(**_FRAME_OPTIONS)


def json_line(obj: Any, encoder: json.JSONEncoder = _FRAME_ENCODER) -> str:
    """``encoder``'s text of ``obj``, raw UTF-8 that holds no line break of any kind.

    Such a character can only sit inside a JSON string, where its ``\\uXXXX``
    escape decodes to the same value, so the text still reads back unchanged.
    """
    text = encoder.encode(obj)
    # Each test is a quick scan, and none at all on a pure-ASCII text.
    if "\x85" in text or "\u2028" in text or "\u2029" in text:
        text = text.translate(_LINE_BREAK_ESCAPES)
    return text


_LONG_FRACTION = re.compile(r"\.[0-9]{7}")


def may_round(text: str) -> bool:
    """Whether rounding each float in JSON ``text`` to 6 decimals may change the text.

    A float that ``round(x, 6)`` changes prints (as its shortest repr) with a negative exponent
    (``e-``) or more than six fractional digits; a match inside a string only costs a rounding pass.
    """
    return "e-" in text or _LONG_FRACTION.search(text) is not None


def dumps(obj: Any) -> str:
    """The compact text of ``obj`` in a frame, every float rounded to 6 decimals."""
    text = json_line(obj)
    return json_line(round_floats(obj)) if may_round(text) else text


_PLACEHOLDER = "\x00spliced\x00"
_PLACEHOLDER_TEXT = json_line(_PLACEHOLDER)[1:-1]


def _encode(obj: Any) -> str:
    """``dumps(obj)``: the envelope with a placeholder for each :class:`PreEncoded` value, then its text spliced in.

    An envelope that needs rounding is rounded without walking into those values, whose text is
    rounded already. Only if the placeholder shows anywhere else (a client may choose it as an id)
    is every value walked and rounded instead.
    """
    held: list[PreEncoded] = []

    def hold(value: Any) -> str:
        if not isinstance(value, PreEncoded):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        held.append(value)
        return _PLACEHOLDER

    encoder = json.JSONEncoder(**_FRAME_OPTIONS, default=hold)
    text = json_line(obj, encoder)
    if text.count(_PLACEHOLDER_TEXT) != len(held):
        return json_line(round_floats(obj))
    if may_round(text):
        held.clear()
        text = json_line(round_floats(obj, (list, tuple)), encoder)
    parts = text.split(f'"{_PLACEHOLDER_TEXT}"')
    return "".join(chain.from_iterable(zip(parts, [value.json_text() for value in held]))) + parts[-1]


def serialize_message(msg: JsonRpcMessage) -> str:
    """Return the text of exactly one frame, UTF-8 encodable and terminated by a single newline.

    The frame holds every field ``msg`` sets and must read back as the same
    message: one that breaks an envelope rule, reads back as another kind,
    names an envelope member in ``extra``, puts ``params`` on a response
    or holds a lone surrogate raises :class:`InternalError`, and nothing is
    emitted. Every error response is built by :func:`make_error`, which
    checks its code.
    """
    obj: dict[str, Any] = {"jsonrpc": "2.0"}
    if msg.id is not None or msg.kind == RESPONSE:
        obj["id"] = msg.id
    if msg.method is not None:
        obj["method"] = msg.method
    if msg.params is not MISSING:
        obj["params"] = msg.params
    if msg.error is not None:
        obj["error"] = msg.error.to_obj()
    if msg.result is not MISSING:
        obj["result"] = msg.result
    try:
        kind = _classify(obj)
    except InvalidRequestError as exc:
        raise InternalError(exc.message) from None
    if kind != msg.kind:
        raise InternalError(f"a {msg.kind!r} message would read back as a {kind!r}")
    if kind == RESPONSE and "params" in obj:
        raise InternalError("a response cannot carry params")
    for key, value in msg.extra.items():
        if key in _ENVELOPE_KEYS:
            raise InternalError(f"extra key {key!r} names an envelope member")
        obj[key] = value
    try:
        text = _encode(obj)
        if not text.isascii():
            text.encode("utf-8")  # a lone surrogate has no UTF-8 form: UnicodeEncodeError, a ValueError
    except (TypeError, ValueError) as exc:
        raise InternalError(f"unserializable message payload: {exc}") from exc
    return text + "\n"


def make_error(
    id: int | str | None, code: int, message: str, data: Any = MISSING
) -> JsonRpcMessage:
    """Build a well-formed error response correlated to ``id``.

    ``id`` may be null per the JSON-RPC rule for requests whose id could not
    be recovered. ``data`` is passed through verbatim. A code outside the
    taxonomy raises :class:`InternalError`; an empty message is refused when
    the response is serialized, as every envelope rule is.
    """
    if code not in KNOWN_CODES:
        raise InternalError(f"error code {code} outside the documented taxonomy")
    return JsonRpcMessage(RESPONSE, id=id, error=ErrorObject(code=code, message=message, data=data))
