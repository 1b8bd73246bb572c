"""Tool catalog: descriptors, handlers, and strict argument validation.

The registry is immutable after startup. Validation is total over arbitrary
structured input: it either returns :class:`ValidatedArgs` or raises a
:class:`ValidationError` whose data lists every violation at once, so a
client can repair its call in a single round trip.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

from .errors import ConfigError, UnknownToolError, ValidationError
from .transport import MISSING

# Each parameter kind: (its JSON schema in the manifest, the test a value must pass).
_KINDS: dict[str, tuple[dict[str, Any], Callable[[Any], bool]]] = {
    "string": ({"type": "string"}, lambda v: isinstance(v, str)),
    "number": ({"type": "number"}, lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "integer": ({"type": "integer"}, lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "boolean": ({"type": "boolean"}, lambda v: isinstance(v, bool)),
    "array-of-string": (
        {"type": "array", "items": {"type": "string"}},
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    ),
    "array-of-object": (
        {"type": "array", "items": {"type": "object"}},
        lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
    ),
    "object": ({"type": "object"}, lambda v: isinstance(v, dict)),
}

_NAME_RE = re.compile(r"[a-z0-9_]+\Z")

DATE_PATTERN = r"\d{4}-\d{2}-\d{2}"


class ParamSpec(NamedTuple):
    """One declared parameter: its kind, human description, and constraints."""

    kind: str
    description: str
    required: bool = False
    default: Any = MISSING
    pattern: str | None = None


class ToolDescriptor(NamedTuple):
    name: str
    description: str
    params: dict[str, ParamSpec]

    def check(self) -> None:
        """Enforce descriptor invariants; violations are startup failures."""
        if not _NAME_RE.fullmatch(self.name or ""):
            raise ConfigError(f"tool name {self.name!r} must match [a-z0-9_]+")
        if not self.description:
            raise ConfigError(f"tool {self.name!r} has an empty description")
        for pname, spec in self.params.items():
            if spec.kind not in _KINDS:
                raise ConfigError(f"tool {self.name!r} parameter {pname!r} has unknown type {spec.kind!r}")
            if not spec.description:
                raise ConfigError(f"tool {self.name!r} parameter {pname!r} lacks a description")

    def required_params(self) -> list[str]:
        return [name for name, spec in self.params.items() if spec.required]

    def manifest_entry(self) -> dict[str, Any]:
        properties = {}
        for pname, spec in self.params.items():
            entry = {**_KINDS[spec.kind][0], "description": spec.description}
            if spec.pattern is not None:
                entry["pattern"] = spec.pattern
            if spec.default is not MISSING:
                entry["default"] = spec.default
            properties[pname] = entry
        return {
            "name": self.name,
            "description": self.description,
            "inputSchema": {
                "type": "object",
                "properties": properties,
                "required": self.required_params(),
            },
        }


class ValidatedArgs(NamedTuple):
    tool_name: str
    values: Mapping[str, Any] = MappingProxyType({})


def _type_name(value: Any) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    if value is None:
        return "null"
    return type(value).__name__


def validate_arguments(descriptor: ToolDescriptor, arguments: Any) -> ValidatedArgs:
    """Type-check ``arguments`` against ``descriptor``, applying defaults.

    Unknown keys are rejected outright: silently dropping a hallucinated
    parameter would mask the exact failure this server exists to surface.
    """
    name = descriptor.name
    if not isinstance(arguments, dict):
        raise ValidationError(
            f"arguments for {name!r} must be an object",
            data={"tool": name, "violations": [f"arguments: expected object, got {_type_name(arguments)}"]},
        )
    violations: list[str] = []
    for key in arguments:
        if not isinstance(key, str) or key not in descriptor.params:
            violations.append(f"{key}: unknown parameter")
    for pname, spec in descriptor.params.items():
        if pname not in arguments:
            if spec.required:
                violations.append(f"{pname}: missing required parameter")
            continue
        value = arguments[pname]
        if not _KINDS[spec.kind][1](value):
            violations.append(f"{pname}: expected {spec.kind}, got {_type_name(value)}")
            continue
        if spec.pattern is not None and isinstance(value, str) and not re.fullmatch(spec.pattern, value):
            violations.append(f"{pname}: {value!r} does not match pattern {spec.pattern}")
    if violations:
        raise ValidationError(
            f"invalid arguments for {name!r}",
            data={"tool": name, "violations": violations},
        )
    values = dict(arguments)
    for pname, spec in descriptor.params.items():
        if pname not in values and spec.default is not MISSING:
            values[pname] = spec.default
    return ValidatedArgs(tool_name=name, values=values)


ToolHandler = Callable[[ValidatedArgs, Any], Any]


class ToolRegistry:
    """Owns descriptors and handlers; immutable once the server starts."""

    def __init__(self) -> None:
        self._tools: dict[str, tuple[ToolDescriptor, ToolHandler]] = {}

    def register(self, descriptor: ToolDescriptor, handler: ToolHandler) -> "ToolRegistry":
        descriptor.check()
        if descriptor.name in self._tools:
            raise ConfigError(f"duplicate tool name {descriptor.name!r}")
        self._tools[descriptor.name] = (descriptor, handler)
        return self

    def __len__(self) -> int:
        return len(self._tools)

    def descriptors(self) -> list[ToolDescriptor]:
        return [descriptor for descriptor, _ in self._tools.values()]

    def get(self, name: str) -> tuple[ToolDescriptor, ToolHandler]:
        try:
            return self._tools[name]
        except KeyError:
            raise UnknownToolError(name) from None

    def validate_params(self, name: str, arguments: Any) -> ValidatedArgs:
        descriptor, _ = self.get(name)
        return validate_arguments(descriptor, arguments)
