"""Descriptor invariants and strict, total argument validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantmcp.errors import ConfigError, UnknownToolError, ValidationError
from quantmcp.registry import (
    ParamSpec,
    ToolDescriptor,
    ToolRegistry,
    validate_arguments,
)
from quantmcp.tools import build_registry

PAPER_STYLE_ARGS = {
    "codes": ["300750.SZ"],
    "fields": ["close", "pb_lf", "turn"],
    "start_date": "2024-01-01",
    "end_date": "2024-03-31",
    "options": "PriceAdj=F;Fill=Previous",
}


def _noop(args, ctx):
    return None


def test_default_registry_lists_three_tools():
    registry = build_registry()
    assert len(registry) == 3
    names = [d.name for d in registry.descriptors()]
    assert names == ["tool_get_historical_data", "tool_get_quote", "tool_compute_summary"]


def test_duplicate_registration_fails_naming_the_tool():
    registry = ToolRegistry()
    descriptor = ToolDescriptor(
        name="tool_get_quote",
        description="quote",
        params={"codes": ParamSpec("array-of-string", "codes", required=True)},
    )
    registry.register(descriptor, _noop)
    with pytest.raises(ConfigError, match="tool_get_quote"):
        registry.register(descriptor, _noop)


def test_property_without_description_fails_at_startup():
    descriptor = ToolDescriptor(
        name="bad_tool", description="x", params={"p": ParamSpec("string", "")}
    )
    with pytest.raises(ConfigError, match="lacks a description"):
        ToolRegistry().register(descriptor, _noop)


@pytest.mark.parametrize("name", ["Tool", "white space", "", "dash-ed"])
def test_tool_names_are_lower_snake(name):
    descriptor = ToolDescriptor(name=name, description="x", params={})
    with pytest.raises(ConfigError):
        ToolRegistry().register(descriptor, _noop)


def test_unknown_param_kind_is_a_startup_failure():
    descriptor = ToolDescriptor(
        name="bad", description="x", params={"p": ParamSpec("float", "a float")}
    )
    with pytest.raises(ConfigError, match="unknown type"):
        ToolRegistry().register(descriptor, _noop)


def test_validate_echoes_all_provided_arguments():
    registry = build_registry()
    validated = registry.validate_params("tool_get_historical_data", PAPER_STYLE_ARGS)
    assert validated == PAPER_STYLE_ARGS
    assert validated is not PAPER_STYLE_ARGS  # a new dict: a handler writing to it leaves the request as it was


def test_defaults_apply_for_absent_optional_params():
    registry = build_registry()
    args = {k: v for k, v in PAPER_STYLE_ARGS.items() if k != "options"}
    validated = registry.validate_params("tool_get_historical_data", args)
    assert validated["options"] == ""


def test_wrong_type_names_the_parameter_and_expected_type():
    registry = build_registry()
    args = dict(PAPER_STYLE_ARGS, codes="300750.SZ")
    with pytest.raises(ValidationError) as excinfo:
        registry.validate_params("tool_get_historical_data", args)
    violations = excinfo.value.data["violations"]
    assert any(v.startswith("codes:") and "array-of-string" in v for v in violations)


@pytest.mark.parametrize(("codes", "got"), [(True, "boolean"), (1.5, "number"), ({}, "object")])
def test_a_wrong_type_is_named_as_its_json_type(codes, got):
    with pytest.raises(ValidationError) as excinfo:
        build_registry().validate_params("tool_get_historical_data", dict(PAPER_STYLE_ARGS, codes=codes))
    assert excinfo.value.data["violations"] == [f"codes: expected array-of-string, got {got}"]


def test_unknown_keys_are_rejected():
    registry = build_registry()
    args = dict(PAPER_STYLE_ARGS, frequency="daily")
    with pytest.raises(ValidationError) as excinfo:
        registry.validate_params("tool_get_historical_data", args)
    assert "frequency: unknown parameter" in excinfo.value.data["violations"]


def test_all_violations_are_reported_together():
    registry = build_registry()
    args = {
        "codes": "nope",  # wrong type
        "fields": ["close"],
        "end_date": 42,  # wrong type
        "bogus": 1,  # unknown key
        # start_date missing
    }
    with pytest.raises(ValidationError) as excinfo:
        registry.validate_params("tool_get_historical_data", args)
    violations = excinfo.value.data["violations"]
    named = {v.split(":")[0] for v in violations}
    assert {"codes", "end_date", "bogus", "start_date"} <= named


def test_date_pattern_is_enforced_by_the_schema():
    registry = build_registry()
    args = dict(PAPER_STYLE_ARGS, start_date="Jan 1, 2024")
    with pytest.raises(ValidationError) as excinfo:
        registry.validate_params("tool_get_historical_data", args)
    assert any(v.startswith("start_date:") for v in excinfo.value.data["violations"])


def test_unknown_tool_reports_not_found():
    registry = build_registry()
    with pytest.raises(UnknownToolError) as excinfo:
        registry.validate_params("nosuch", {})
    assert excinfo.value.data["tool"] == "nosuch"


def test_validation_never_crashes_on_arbitrary_input():
    registry = build_registry()
    for junk in [None, 42, "text", ["list"], {"codes": object()}]:
        with pytest.raises(ValidationError):
            registry.validate_params("tool_get_historical_data", junk)


def test_validation_is_idempotent():
    registry = build_registry()
    first = registry.validate_params("tool_get_historical_data", PAPER_STYLE_ARGS)
    second = registry.validate_params("tool_get_historical_data", first)
    assert second == first


def test_no_required_params_accepts_empty_arguments():
    descriptor = ToolDescriptor(
        name="ping",
        description="ping",
        params={"verbose": ParamSpec("boolean", "chatty", default=False)},
    )
    validated = validate_arguments(descriptor, {})
    assert validated == {"verbose": False}


# --- schema/validator agreement ---------------------------------------------

_DATE = st.dates(min_value=__import__("datetime").date(1900, 1, 1)).map(lambda d: d.isoformat())


def _strategy_for(spec: ParamSpec):
    if spec.pattern is not None:
        return _DATE
    if spec.kind == "string":
        return st.text(max_size=20)
    if spec.kind == "number":
        return st.floats(allow_nan=False, allow_infinity=False)
    if spec.kind == "integer":
        return st.integers()
    if spec.kind == "boolean":
        return st.booleans()
    if spec.kind == "array-of-string":
        return st.lists(st.text(max_size=10), max_size=5)
    if spec.kind == "array-of-object":
        return st.lists(st.dictionaries(st.text(max_size=5), st.integers(), max_size=3), max_size=3)
    return st.dictionaries(st.text(max_size=5), st.integers(), max_size=3)


@st.composite
def _conforming_args(draw):
    registry = build_registry()
    descriptor = draw(st.sampled_from(registry.descriptors()))
    args = {}
    for pname, spec in descriptor.params.items():
        if spec.required or draw(st.booleans()):
            args[pname] = draw(_strategy_for(spec))
    return descriptor, args


@settings(max_examples=150, deadline=None)
@given(_conforming_args())
def test_schema_sampled_arguments_always_validate(case):
    descriptor, args = case
    validated = validate_arguments(descriptor, args)
    for key, value in args.items():
        assert validated[key] == value
