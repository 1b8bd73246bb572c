"""Error taxonomy shared by the wire protocol and the tool pipeline.

Every exception that can surface on the wire carries one of the documented
JSON-RPC error codes. Configuration problems raise :class:`ConfigError`,
which never reaches the wire; the CLI maps it to exit code 2. Assigning to
an attribute of a :class:`Frozen` value raises AttributeError.
"""

from __future__ import annotations

from typing import Any, Callable

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
PROVIDER_FAILURE = -32001
RATE_LIMITED = -32002
CREDENTIAL_MISSING = -32003

KNOWN_CODES = frozenset(
    {
        PARSE_ERROR,
        INVALID_REQUEST,
        METHOD_NOT_FOUND,
        INVALID_PARAMS,
        INTERNAL_ERROR,
        PROVIDER_FAILURE,
        RATE_LIMITED,
        CREDENTIAL_MISSING,
    }
)


class QuantMcpError(Exception):
    """Base error with a wire code and optional structured data payload."""

    code: int = INTERNAL_ERROR

    def __init__(self, message: str, data: Any = None):
        super().__init__(message)
        self.message = message
        self.data = data
        # Populated by the transport when the offending request id is known.
        self.request_id: int | str | None = None


class ParseError(QuantMcpError):
    code = PARSE_ERROR


class InvalidRequestError(QuantMcpError):
    code = INVALID_REQUEST


class ValidationError(QuantMcpError):
    code = INVALID_PARAMS


class UnknownToolError(ValidationError):
    """Raised for tools/call naming a tool absent from the registry."""

    def __init__(self, name: str):
        super().__init__(f"unknown tool {name!r}", data={"tool": name})


class InternalError(QuantMcpError):
    code = INTERNAL_ERROR


class ProviderFailure(QuantMcpError):
    code = PROVIDER_FAILURE


class RateLimitedError(QuantMcpError):
    code = RATE_LIMITED


class CredentialMissing(QuantMcpError):
    code = CREDENTIAL_MISSING


class ConfigError(Exception):
    """Startup configuration problem; the server refuses to start."""


class Frozen:
    """Base of an immutable value: its ``__init__`` sets fields past ``__setattr__``, through ``object.__setattr__``.

    A subclass with a ``__dict__`` may fill it directly instead; a :class:`lazy` attribute writes there too.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")


class lazy:
    """An attribute ``fn`` computes on its first read into the instance's ``__dict__``, where later reads find it.

    Unlike ``functools.cached_property`` before Python 3.12 it takes no lock: ``fn`` is a pure function of a
    frozen value, so two threads racing on a first read each compute it and keep equal values.
    """

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:  # read on the class, as help() does
            return self
        value = vars(instance)[self.name] = self.fn(instance)
        return value
