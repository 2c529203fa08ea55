from __future__ import annotations

import json
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIG2_PLAN, SCENARIO_A_PLAN, replace_random_node
from oscal_assure import parse_plan_document, serialize_canonical
from oscal_assure import plan as plan_module
from oscal_assure.errors import (
    DuplicateControlId,
    OscalAssureError,
    InvalidEnumValue,
    MalformedDocument,
    MissingRequiredProperty,
    PolicyError,
    UnparsableThreshold,
)
from oscal_assure.plan import (
    EnforcementMode,
    EvaluationMethod,
    EvaluationWindow,
    LifecyclePhase,
    Operator,
    PropertyEntry,
    Severity,
    TargetType,
    control_properties,
    extract_control_spec,
)

THE_16_PROPERTIES = [
    "metric_key",
    "operator",
    "threshold",
    "severity",
    "lifecycle_phase",
    "enforcement_mode",
    "evaluation_method",
    "evaluation_window",
    "target_type",
    "risk_id",
    "treatment_id",
    "policy_id",
    "objective_id",
    "risk_acceptance_criteria",
    "threshold_justification",
    "stakeholder_consultation_ref",
]


def _plan_yaml(requirements: str) -> bytes:
    return (
        "assessment-plan:\n"
        "  metadata:\n"
        "    title: test\n"
        "  control-implementations:\n"
        "    - implemented-requirements:\n" + requirements
    ).encode()


def _minimal_control(control_id: str = "c1", extra_props: str = "") -> bytes:
    return _plan_yaml(
        f"        - control-id: {control_id}\n"
        "          props:\n"
        "            - {name: metric_key, value: accuracy}\n"
        "            - {name: operator, value: ge}\n"
        "            - {name: threshold, value: '0.5'}\n" + extra_props
    )


def test_fig2_policy_listing_parses_to_expected_control():
    plan = parse_plan_document(FIG2_PLAN.read_bytes(), "yaml")
    assert len(plan.controls) == 1
    spec = plan.controls[0]
    assert spec.control_id == "credit-data-bias"
    assert spec.metric_key == "disparate_impact"
    assert spec.operator is Operator.GE
    assert spec.threshold == 0.8
    assert spec.severity is Severity.HIGH
    assert spec.lifecycle_phases == frozenset({LifecyclePhase.TRAINING})
    assert spec.enforcement_mode is EnforcementMode.BLOCK
    assert spec.risk_id == "R-042"
    assert spec.treatment_id == "T-017"
    assert spec.threshold_justification == "EEOC Four-Fifths Rule (1978)"


def test_plan_with_zero_controls_parses():
    source = b"assessment-plan:\n  metadata:\n    title: empty\n"
    plan = parse_plan_document(source, "yaml")
    assert plan.controls == ()
    assert plan.title == "empty"


def test_repeated_lifecycle_phase_collects_into_one_set():
    source = _minimal_control(
        extra_props=(
            "            - {name: lifecycle_phase, value: training}\n"
            "            - {name: lifecycle_phase, value: monitoring}\n"
            "            - {name: lifecycle_phase, value: training}\n"
        )
    )
    plan = parse_plan_document(source, "yaml")
    assert plan.controls[0].lifecycle_phases == frozenset(
        {LifecyclePhase.TRAINING, LifecyclePhase.MONITORING}
    )


def test_extract_normalizes_symbolic_operator():
    spec = extract_control_spec(
        [
            PropertyEntry("operator", ">="),
            PropertyEntry("threshold", "0.8"),
            PropertyEntry("metric_key", "disparate_impact"),
        ],
        "c",
        "",
    )
    assert spec.operator is Operator.GE
    assert spec.threshold == 0.8


def test_extract_accepts_word_operator():
    spec = extract_control_spec(
        [
            PropertyEntry("operator", "gt"),
            PropertyEntry("threshold", "0.5"),
            PropertyEntry("metric_key", "disparate_impact"),
        ],
        "c",
        "",
    )
    assert spec.operator is Operator.GT


def test_missing_lifecycle_phase_defaults_to_training():
    spec = extract_control_spec(
        [
            PropertyEntry("metric_key", "accuracy"),
            PropertyEntry("operator", "ge"),
            PropertyEntry("threshold", "0.7"),
        ],
        "c",
        "",
    )
    assert spec.lifecycle_phases == frozenset({LifecyclePhase.TRAINING})


@pytest.mark.parametrize("missing", ["metric_key", "operator", "threshold"])
def test_control_without_required_property_is_rejected(missing):
    props = {
        "metric_key": PropertyEntry("metric_key", "accuracy"),
        "operator": PropertyEntry("operator", "ge"),
        "threshold": PropertyEntry("threshold", "0.7"),
    }
    del props[missing]
    with pytest.raises(MissingRequiredProperty, match=missing):
        extract_control_spec(list(props.values()), "c9", "")


def test_invalid_enforcement_mode_names_control_and_property():
    source = _minimal_control(
        extra_props="            - {name: enforcement_mode, value: pause}\n"
    )
    with pytest.raises(InvalidEnumValue, match="c1.*enforcement_mode.*pause"):
        parse_plan_document(source, "yaml")


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", ""])
def test_non_finite_or_unparsable_threshold_rejected(bad):
    with pytest.raises(UnparsableThreshold):
        extract_control_spec(
            [
                PropertyEntry("metric_key", "accuracy"),
                PropertyEntry("operator", "ge"),
                PropertyEntry("threshold", bad),
            ],
            "c",
            "",
        )


def test_duplicate_control_id_rejected():
    source = _plan_yaml(
        "        - control-id: dup\n"
        "          props:\n"
        "            - {name: metric_key, value: accuracy}\n"
        "            - {name: operator, value: ge}\n"
        "            - {name: threshold, value: '0.5'}\n"
        "        - control-id: dup\n"
        "          props:\n"
        "            - {name: metric_key, value: accuracy}\n"
        "            - {name: operator, value: ge}\n"
        "            - {name: threshold, value: '0.5'}\n"
    )
    with pytest.raises(DuplicateControlId):
        parse_plan_document(source, "yaml")


@pytest.mark.parametrize(
    "source,format",
    [
        (b"{not json", "json"),
        (b"steps:\n  - ]broken", "yaml"),
        (b'{"wrong-root": {}}', "json"),
    ],
)
def test_malformed_documents_rejected(source, format):
    with pytest.raises(MalformedDocument):
        parse_plan_document(source, format)


@pytest.mark.parametrize(
    "body,message",
    [
        ({"metadata": 0, "control-implementations": False}, "'metadata' must be an object"),
        ({"metadata": {}, "control-implementations": False}, "must be a list"),
        ({"metadata": {}, "control-implementations": 0}, "must be a list"),
        ({"metadata": "", "control-implementations": []}, "'metadata' must be an object"),
        ({"control-implementations": [{"implemented-requirements": ""}]}, "must be a list"),
    ],
)
def test_a_falsy_value_that_is_no_object_or_list_is_malformed_not_empty(body, message):
    source = json.dumps({"assessment-plan": body}).encode()
    with pytest.raises(MalformedDocument, match=message):
        parse_plan_document(source, "json")


def test_a_null_or_absent_object_or_list_still_reads_as_empty():
    for body in ({}, {"metadata": None, "control-implementations": None}):
        plan = parse_plan_document(json.dumps({"assessment-plan": body}).encode(), "json")
        assert (plan.title, plan.controls) == ("", ())


def _all_16_props() -> list[PropertyEntry]:
    return [
        PropertyEntry("metric_key", "disparate_impact"),
        PropertyEntry("operator", ">"),
        PropertyEntry("threshold", "0.8"),
        PropertyEntry("severity", "critical"),
        PropertyEntry("lifecycle_phase", "training"),
        PropertyEntry("lifecycle_phase", "monitoring"),
        PropertyEntry("enforcement_mode", "warn"),
        PropertyEntry("evaluation_method", "hybrid"),
        PropertyEntry("evaluation_window", "sliding"),
        PropertyEntry("target_type", "model"),
        PropertyEntry("risk_id", "R-1"),
        PropertyEntry("treatment_id", "T-1"),
        PropertyEntry("policy_id", "P-1"),
        PropertyEntry("objective_id", "O-1"),
        PropertyEntry("risk_acceptance_criteria", "residual risk accepted below 0.2"),
        PropertyEntry("threshold_justification", "industry benchmark"),
        PropertyEntry("stakeholder_consultation_ref", "minutes 2026-01-15"),
    ]


def test_all_16_properties_populate_all_16_fields():
    spec = extract_control_spec(_all_16_props(), "full", "all properties")
    assert spec.metric_key == "disparate_impact"
    assert spec.operator is Operator.GT
    assert spec.threshold == 0.8
    assert spec.severity is Severity.CRITICAL
    assert spec.lifecycle_phases == frozenset(
        {LifecyclePhase.TRAINING, LifecyclePhase.MONITORING}
    )
    assert spec.enforcement_mode is EnforcementMode.WARN
    assert spec.evaluation_method is EvaluationMethod.HYBRID
    assert spec.evaluation_window is EvaluationWindow.SLIDING
    assert spec.target_type is TargetType.MODEL
    assert spec.risk_id == "R-1"
    assert spec.treatment_id == "T-1"
    assert spec.policy_id == "P-1"
    assert spec.objective_id == "O-1"
    assert spec.risk_acceptance_criteria == "residual risk accepted below 0.2"
    assert spec.threshold_justification == "industry benchmark"
    assert spec.stakeholder_consultation_ref == "minutes 2026-01-15"


def test_reserialization_reproduces_all_16_property_entries():
    spec = extract_control_spec(_all_16_props(), "full", "all properties")
    names = {entry.name for entry in control_properties(spec)}
    assert set(THE_16_PROPERTIES) <= names


def test_unknown_property_is_retained_and_does_not_change_the_16_fields():
    baseline = extract_control_spec(_all_16_props(), "full", "d")
    extended = extract_control_spec(
        _all_16_props()
        + [
            PropertyEntry("reviewer_initials", "rc"),
            PropertyEntry("metric_key", "other_metric", ns="urn:someone-else:props"),
        ],
        "full",
        "d",
    )
    assert PropertyEntry("reviewer_initials", "rc") in extended.extra_props
    assert (
        PropertyEntry("metric_key", "other_metric", ns="urn:someone-else:props")
        in extended.extra_props
    )
    assert extended.metric_key == baseline.metric_key
    for name in (
        "operator",
        "threshold",
        "severity",
        "lifecycle_phases",
        "enforcement_mode",
        "evaluation_method",
        "evaluation_window",
        "target_type",
        "risk_id",
        "treatment_id",
        "policy_id",
        "objective_id",
        "risk_acceptance_criteria",
        "threshold_justification",
        "stakeholder_consultation_ref",
    ):
        assert getattr(extended, name) == getattr(baseline, name)


def test_metric_param_and_stratify_by_round_trip():
    spec = extract_control_spec(
        _all_16_props()
        + [
            PropertyEntry("metric_param", "group=age_group"),
            PropertyEntry("metric_param", "privileged=m"),
            PropertyEntry("stratify_by", "site"),
        ],
        "full",
        "d",
    )
    assert spec.metric_params == {"group": "age_group", "privileged": "m"}
    assert spec.stratify_by == "site"
    emitted = control_properties(spec)
    assert PropertyEntry("metric_param", "group=age_group") in emitted
    assert PropertyEntry("stratify_by", "site") in emitted


@pytest.mark.parametrize("path", [SCENARIO_A_PLAN, FIG2_PLAN])
def test_plan_round_trip_is_field_identical(path):
    plan = parse_plan_document(path.read_bytes(), "yaml")
    rebuilt = parse_plan_document(serialize_canonical(plan), "json")
    assert rebuilt == plan


# --- parser fuzzing ------------------------------------------------------------------

PLAN_WORDS = [
    "assessment-plan", "metadata", "title", "version", "last-modified", "uuid",
    "control-implementations", "implemented-requirements", "control-id", "props",
    "name", "value", "ns", "description", *THE_16_PROPERTIES, "stratify_by",
    "metric_param", "lifecycle_phase", ">=", "0.8", "block", "training", "automated",
    "per-run", "model", "2024-01-01T00:00:00Z", "2024-13-01",
]
plan_words = st.sampled_from(PLAN_WORDS) | st.text(max_size=8)
plan_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | plan_words,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(plan_words, children, max_size=5),
    max_leaves=30,
)


def parses_or_raises_package_error(source: bytes, format: str) -> None:
    try:
        parse_plan_document(source, format)
    except OscalAssureError:
        pass


UNPARSABLE = {
    "nested-past-the-recursion-limit": b"[" * 100_000 + b"]" * 100_000,
    "integer-past-the-digit-limit": b"[" + b"1" * 5000 + b"]",
}


@pytest.mark.parametrize("format", ["json", "yaml"])
@pytest.mark.parametrize("source", UNPARSABLE.values(), ids=UNPARSABLE.keys())
def test_unparsable_plan_is_malformed(source, format):
    with pytest.raises(MalformedDocument, match=f"invalid {format.upper()}"):
        parse_plan_document(source, format)


#: A legal YAML integer whose decimal spelling passes str()'s digit limit.
HEX_PAST_THE_DIGIT_LIMIT = "0x" + "f" * 4000


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.sampled_from(["json", "yaml"]))
@example(f"assessment-plan: {{metadata: {{title: {HEX_PAST_THE_DIGIT_LIMIT}}}}}".encode(), "yaml")
@example(b"assessment-plan: {metadata: {last-modified: 0001-01-01T00:00:00+01:00}}", "yaml")
@example(b"assessment-plan: {metadata: {last-modified: 9999-12-31T23:59:59-01:00}}", "yaml")
def test_plan_parser_returns_or_raises_package_error_for_any_bytes(source, format):
    parses_or_raises_package_error(source, format)


@st.composite
def edited_plans(draw, format: str) -> bytes:
    """A real plan with one node replaced, encoded in `format`."""
    document = yaml.safe_load(draw(st.sampled_from([FIG2_PLAN, SCENARIO_A_PLAN])).read_bytes())
    replace_random_node(document, draw, plan_values)
    if format == "json":
        return json.dumps(document, default=str).encode()
    return yaml.safe_dump(document, allow_unicode=True).encode()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["json", "yaml"]), st.data())
def test_plan_parser_returns_or_raises_package_error_for_any_edit_of_a_real_plan(format, data):
    parses_or_raises_package_error(data.draw(edited_plans(format)), format)


# --- the two YAML loaders ------------------------------------------------------------

YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def parsed_with(loader, source: bytes):
    """The plan parsed with `loader`, or PolicyError if it is rejected."""
    with mock.patch.object(plan_module, "_YAML_LOADER", loader):
        try:
            return parse_plan_document(source, "yaml")
        except PolicyError:
            return PolicyError


#: Values put in a plan under a "!" tag: empty, quoted, verbatim, in a flow
#: list (where the pure-Python scanner reads "!," as the tag), and plain.
BANG_TAGGED = ["!", "! ''", '! ""', "!<!>", "[!, x]", "! x", "! 0", "! null", "! []"]


@st.composite
def bang_tagged_plans(draw) -> bytes:
    """A real plan in YAML with one value replaced by, or prefixed with, a
    "!"-tagged one."""
    lines = draw(edited_plans("yaml")).decode().splitlines()
    at = draw(st.sampled_from([i for i, line in enumerate(lines) if ":" in line]))
    key, _, value = lines[at].partition(":")
    tagged = draw(st.sampled_from(BANG_TAGGED) | st.just("! " + value.strip()))
    lines[at] = f"{key}: {tagged}"
    return "\n".join(lines).encode()


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200) | edited_plans("yaml") | bang_tagged_plans())
@example(b"!")  # None from one loader, "" from the other: both no mapping
@example(_minimal_control(extra_props="            - name: risk_id\n              value: !\n"))
def test_both_yaml_loaders_give_an_equal_plan_or_both_reject_it(source):
    assert len({repr(parsed_with(loader, source)) for loader in YAML_LOADERS}) == 1


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("value", ["!", "! ''", "!<!>"])
@pytest.mark.parametrize("where", ["prop-value", "metadata"])
def test_an_empty_node_tagged_bang_is_malformed_under_both_loaders(loader, value, where):
    if where == "metadata":
        source = f"assessment-plan:\n  metadata: {value}\n".encode()
    else:
        prop = f"            - name: risk_id\n              value: {value}\n"
        source = _minimal_control(extra_props=prop)
    with mock.patch.object(plan_module, "_YAML_LOADER", loader):
        with pytest.raises(MalformedDocument, match="empty node tagged '!'"):
            parse_plan_document(source, "yaml")


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
def test_both_yaml_loaders_accept_100_levels_of_nesting_and_reject_101(loader):
    plan = SCENARIO_A_PLAN.read_bytes()
    with mock.patch.object(plan_module, "_YAML_LOADER", loader):
        # the document's root mapping is the first level
        assert parse_plan_document(plan + b"x: " + b"[" * 99 + b"]" * 99 + b"\n", "yaml")
        with pytest.raises(MalformedDocument, match="nested deeper than 100"):
            parse_plan_document(plan + b"x: " + b"[" * 100 + b"]" * 100 + b"\n", "yaml")


def _alias_bomb(field: str, value: str = "*l4") -> bytes:
    """A plan whose `field` aliases 4 nested levels of 9 aliases: 9**4
    copies of a word, from about 300 bytes; or holds `value` instead."""
    lines = ["l0: &l0 [" + ", ".join(["lol"] * 9) + "]"]
    lines += [f"l{i}: &l{i} [" + ", ".join([f"*l{i - 1}"] * 9) + "]" for i in range(1, 5)]
    fields = {
        "title": "  metadata: {title: *l4}",
        "version": "  metadata: {version: *l4}",
        "last-modified": "  metadata: {last-modified: *l4}",
        "uuid": "  uuid: *l4",
        "mapping-title": "  metadata: {title: {words: *l4}}",
        "control-id": "  control-implementations: [{implemented-requirements: "
        "[{control-id: *l4}]}]",
        "description": "  control-implementations: [{implemented-requirements: "
        "[{control-id: c1, description: *l4, props: [{name: metric_key, value: accuracy}, "
        "{name: operator, value: ge}, {name: threshold, value: '0.5'}]}]}]",
    }
    props = {
        "prop-value": "{name: risk_id, value: *l4}",
        "prop-name": "{name: *l4, value: x}",
        "prop-ns": "{name: risk_id, value: x, ns: *l4}",
    }
    if field in props:
        fields[field] = (
            "  control-implementations: [{implemented-requirements: [{control-id: c1, props: ["
            "{name: metric_key, value: accuracy}, {name: operator, value: ge}, "
            f"{{name: threshold, value: '0.5'}}, {props[field]}]}}]}}]"
        )
    text = fields[field].replace("*l4", value)
    return "\n".join([*lines, "assessment-plan:", text, ""]).encode()


ALIAS_BOMB_FIELDS = [
    "title", "version", "last-modified", "uuid", "mapping-title", "control-id",
    "description", "prop-value", "prop-name", "prop-ns",
]


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("field", ALIAS_BOMB_FIELDS)
def test_text_field_that_is_no_scalar_is_malformed(field, loader):
    # a set's spelling would follow the hash seed, and a binary value is no text
    with mock.patch.object(plan_module, "_YAML_LOADER", loader):
        for value in ["*l4", "!!set {zeta, alpha, mid, beta, omega}", "!!binary aGVsbG8="]:
            with pytest.raises(MalformedDocument, match="must be a scalar"):
                parse_plan_document(_alias_bomb(field, value), "yaml")


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("field", [f for f in ALIAS_BOMB_FIELDS if f != "mapping-title"])
def test_text_field_holding_an_integer_past_the_digit_limit_is_malformed(field, loader):
    with mock.patch.object(plan_module, "_YAML_LOADER", loader):
        with pytest.raises(MalformedDocument, match="integer too long to spell"):
            parse_plan_document(_alias_bomb(field, HEX_PAST_THE_DIGIT_LIMIT), "yaml")


#: Where a null makes a required field absent, and how the plan is rejected.
NULL_REJECTED = {
    "control-id": "needs a control-id",
    "prop-name": "needs a non-empty name",
    "prop-value": "needs a value",
}


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("field", [f for f in ALIAS_BOMB_FIELDS if f != "mapping-title"])
def test_null_text_field_reads_as_absent_and_never_as_none(field, loader):
    with mock.patch.object(plan_module, "_YAML_LOADER", loader):
        if field in NULL_REJECTED:
            with pytest.raises(MalformedDocument, match=NULL_REJECTED[field]):
                parse_plan_document(_alias_bomb(field, "~"), "yaml")
        else:
            assert "'None'" not in repr(parse_plan_document(_alias_bomb(field, "~"), "yaml"))
