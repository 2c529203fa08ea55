from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timedelta, timezone

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIG2_PLAN,
    MEDICAL_PLAN,
    SCENARIO_A_PLAN,
    assert_structurally_valid,
    replace_random_node,
)
from oscal_assure import (
    default_registry,
    determinize,
    enforce_phase,
    parse_plan_document,
    parse_poam_document,
    parse_results_document,
    serialize_canonical,
)
from oscal_assure.canonical import canonical_json_bytes, format_timestamp, parse_timestamp
from oscal_assure.errors import MalformedDocument, OscalAssureError, SerializationFailure
from oscal_assure.plan import LifecyclePhase, PropertyEntry, timestamp


@pytest.fixture
def pre_report(scenario_a_plan, scenario_a_ctx):
    return enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, default_registry()
    )


def test_same_doc_serialized_twice_deterministically_is_byte_identical(pre_report):
    doc = pre_report.assessment_results
    first = serialize_canonical(determinize(doc)[0])
    second = serialize_canonical(determinize(doc)[0])
    assert first == second


def test_two_engine_runs_deterministic_serialization_identical(
    scenario_a_plan, scenario_a_ctx
):
    registry = default_registry()
    a = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    )
    b = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    )
    assert serialize_canonical(determinize(a.assessment_results)[0]) == serialize_canonical(
        determinize(b.assessment_results)[0]
    )


def test_nondeterministic_runs_differ_in_uuids_not_structure(
    scenario_a_plan, scenario_a_ctx
):
    registry = default_registry()
    a = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    )
    b = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    )
    assert a.assessment_results.uuid != b.assessment_results.uuid

    variable_keys = (
        "uuid",
        "collected",
        "start",
        "end",
        "last-modified",
        "observation-uuid",
        "related-observations",
        "props",
    )

    def strip_variable(payload):
        if isinstance(payload, dict):
            return {
                key: strip_variable(value)
                for key, value in payload.items()
                if key not in variable_keys
            }
        if isinstance(payload, list):
            return [strip_variable(item) for item in payload]
        return payload

    doc_a = strip_variable(json.loads(serialize_canonical(a.assessment_results)))
    doc_b = strip_variable(json.loads(serialize_canonical(b.assessment_results)))
    assert doc_a == doc_b


def test_determinize_keeps_poam_references_consistent(pre_report):
    results, mapping = determinize(pre_report.assessment_results)
    poam, _ = determinize(pre_report.poam, reference_map=mapping)
    risk_uuids = {risk.uuid for risk in results.all_risks()}
    assert {item.related_risk_uuid for item in poam.poam_items} <= risk_uuids
    assert_structurally_valid(results, poam)


def test_poam_without_its_results_uuid_map_fails_closed(scenario_a_plan, scenario_a_ctx):
    reports = [
        enforce_phase(scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, default_registry())
        for _ in range(2)
    ]
    with pytest.raises(SerializationFailure, match="reference_map"):
        determinize(reports[0].poam)
    paired = []
    for report in reports:
        _, mapping = determinize(report.assessment_results)
        poam, _ = determinize(report.poam, reference_map=mapping)
        paired.append(serialize_canonical(poam))
    assert paired[0] == paired[1]


def test_results_round_trip_through_canonical_json(pre_report):
    doc, _ = determinize(pre_report.assessment_results)
    rebuilt = parse_results_document(serialize_canonical(doc))
    assert rebuilt == doc


def test_poam_round_trip_through_canonical_json(pre_report):
    results, mapping = determinize(pre_report.assessment_results)
    poam, _ = determinize(pre_report.poam, reference_map=mapping)
    rebuilt = parse_poam_document(serialize_canonical(poam))
    assert rebuilt == poam


def test_plan_serializes_deterministically_too(scenario_a_plan):
    first = serialize_canonical(determinize(scenario_a_plan)[0])
    second = serialize_canonical(determinize(scenario_a_plan)[0])
    assert first == second
    rebuilt = json.loads(first)
    assert rebuilt["assessment-plan"]["uuid"] != scenario_a_plan.uuid
    assert serialize_canonical(scenario_a_plan) != first  # plain keeps the uuid


def test_a_foreign_namespace_prop_keeps_its_ns_through_a_round_trip():
    source = b"""\
assessment-plan:
  metadata:
    title: namespaced plan
  control-implementations:
    - implemented-requirements:
        - control-id: c1
          props:
            - {name: metric_key, value: accuracy}
            - {name: operator, value: ge}
            - {name: threshold, value: "0.5"}
            - {name: severity, value: high, ns: "urn:example:other"}
"""
    plan = parse_plan_document(source, "yaml")
    foreign = PropertyEntry("severity", "high", "urn:example:other")
    assert plan.controls[0].extra_props == (foreign,)
    assert parse_plan_document(serialize_canonical(plan)) == plan


def test_a_plan_with_duplicate_control_ids_fails_to_serialize(scenario_a_plan):
    spec = scenario_a_plan.controls[0]
    plan = dataclasses.replace(scenario_a_plan, controls=(spec, spec))
    with pytest.raises(SerializationFailure, match="^plan has duplicate control ids$"):
        serialize_canonical(plan)


def test_canonical_output_is_utf8_lf_two_space_indented(pre_report):
    payload = serialize_canonical(pre_report.assessment_results)
    text = payload.decode("utf-8")
    assert "\r" not in text
    assert text.endswith("\n")
    assert '\n  "assessment-results": {\n' in text


def test_invalid_document_raises_serialization_failure(pre_report):
    results = pre_report.assessment_results
    block = results.results[0]
    bad_finding = dataclasses.replace(
        block.findings[0], related_observation_uuids=("dangling",)
    )
    bad_block = dataclasses.replace(block, findings=(bad_finding,))
    bad = dataclasses.replace(results, results=(bad_block,))
    with pytest.raises(SerializationFailure):
        serialize_canonical(bad)


# --- parsers on malformed input ---------------------------------------------------

#: Keys and values the parsers look for, so generated documents reach deep paths.
VOCABULARY = [
    "uuid", "metadata", "title", "version", "last-modified", "results", "start",
    "end", "reviewed-controls", "control-selections", "include-controls",
    "control-id", "observations", "findings", "risks", "props", "name", "value",
    "methods", "collected", "remarks", "description", "target", "target-id",
    "status", "state", "related-observations", "observation-uuid",
    "characterizations", "facets", "poam-items", "observed-value", "group-rate",
    "excluded-rows", "stratum", "linked-finding", "risk-id", "related-risk",
    "treatment-id", "TEST", "open", "satisfied", "a=1", "1970-01-01T00:00:00Z",
]
words = st.sampled_from(VOCABULARY) | st.text(max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | words,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(words, children, max_size=5),
    max_leaves=40,
)
PARSERS = {
    "assessment-results": parse_results_document,
    "plan-of-action-and-milestones": parse_poam_document,
}


def parses_or_raises_package_error(root: str, body) -> None:
    source = json.dumps({root: body}).encode("utf-8")
    try:
        PARSERS[root](source)
    except OscalAssureError:
        pass


@pytest.mark.parametrize("parse", PARSERS.values(), ids=PARSERS.keys())
def test_parsers_reject_json_nested_past_the_recursion_limit(parse):
    with pytest.raises(MalformedDocument, match="invalid JSON"):
        parse(b"[" * 100_000 + b"]" * 100_000)


@pytest.mark.parametrize("parse", PARSERS.values(), ids=PARSERS.keys())
def test_parsers_reject_json_integers_past_the_digit_limit(parse):
    with pytest.raises(MalformedDocument, match="invalid JSON"):
        parse(b'{"observed-value": ' + b"1" * 5000 + b"}")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PARSERS)), json_values)
def test_parsers_return_or_raise_package_error_for_any_body(root, body):
    parses_or_raises_package_error(root, body)


@pytest.fixture(scope="module")
def demo_documents(scenario_a_plan, scenario_a_ctx):
    report = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, default_registry()
    )
    results, mapping = determinize(report.assessment_results)
    poam, _ = determinize(report.poam, reference_map=mapping)
    return {
        root: json.loads(serialize_canonical(doc))[root]
        for root, doc in (
            ("assessment-results", results),
            ("plan-of-action-and-milestones", poam),
        )
    }


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PARSERS)), st.data())
def test_parsers_return_or_raise_package_error_for_any_edit_of_a_real_document(
    demo_documents, root, data
):
    body = json.loads(json.dumps(demo_documents[root]))
    replace_random_node(body, data.draw, json_values)
    parses_or_raises_package_error(root, body)


def _texts(value):
    """Every str held anywhere in a parsed document."""
    if isinstance(value, str):
        yield value
    elif dataclasses.is_dataclass(value):
        for member in dataclasses.fields(value):
            yield from _texts(getattr(value, member.name))
    elif isinstance(value, dict):
        for item in value.items():
            yield from _texts(item)
    elif isinstance(value, (tuple, list, frozenset)):
        for item in value:
            yield from _texts(item)


PLANS = [FIG2_PLAN, SCENARIO_A_PLAN, MEDICAL_PLAN]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([*sorted(PARSERS), "assessment-plan"]), st.data())
def test_no_parser_reads_null_as_the_text_none(demo_documents, root, data):
    if root == "assessment-plan":
        plan = data.draw(st.sampled_from(PLANS))
        body = yaml.safe_load(plan.read_bytes())[root]
    else:
        body = json.loads(json.dumps(demo_documents[root]))
    replace_random_node(body, data.draw, st.none() | json_values)
    source = json.dumps({root: body}, default=str).encode("utf-8")
    parse = PARSERS.get(root, lambda source: parse_plan_document(source, "json"))
    try:
        parsed = parse(source)
    except OscalAssureError:
        return
    assert b'"None"' in source or "None" not in set(_texts(parsed))


# --- canonical_json_bytes against json.dumps ----------------------------------

encodable_keys = (
    st.text() | st.integers() | st.floats() | st.booleans() | st.none()
    | st.sampled_from(list(LifecyclePhase))
)
encodable_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(list(LifecyclePhase)),  # a str subclass, as in the documents
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(encodable_keys, children, max_size=4),
    max_leaves=30,
)


def _encoded(encode, payload):
    try:
        return encode(payload)
    except Exception as exc:  # compared by type and message
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=500)
# a set is not encodable
@given(encodable_values | st.dictionaries(encodable_keys, st.sets(st.integers()), min_size=1))
def test_canonical_json_bytes_matches_json_dumps(payload):
    def reference(value):
        text = json.dumps(value, indent=2, ensure_ascii=False, allow_nan=False)
        return (text + "\n").encode("utf-8")

    assert _encoded(canonical_json_bytes, payload) == _encoded(reference, payload)


# --- instants ---------------------------------------------------------------------

#: Every fixed UTC offset a datetime allows, to the minute.
offsets = st.integers(-24 * 60 + 1, 24 * 60 - 1).map(lambda m: timezone(timedelta(minutes=m)))


def _in_the_calendar(moment) -> bool:
    """Whether the instant's UTC value falls in the years 1-9999."""
    try:
        moment.astimezone(timezone.utc)
    except OverflowError:
        return False
    return True


def test_a_plan_from_before_the_year_1000_round_trips():
    source = b"""\
assessment-plan:
  metadata:
    title: old plan
    last-modified: 0999-01-02T00:00:00Z
"""
    plan = parse_plan_document(source, "yaml")
    data = serialize_canonical(plan)
    assert b'"last-modified": "0999-01-02T00:00:00.000Z"' in data
    assert parse_plan_document(data) == plan


@given(st.datetimes(timezones=offsets).filter(_in_the_calendar))
def test_a_formatted_instant_parses_back_to_its_millisecond(moment):
    truncated = moment.replace(microsecond=moment.microsecond // 1000 * 1000)
    assert parse_timestamp(format_timestamp(moment)) == truncated


def _read(payload: dict):
    try:
        return timestamp(payload, "last-modified")
    except MalformedDocument:
        return MalformedDocument


@given(st.datetimes(timezones=st.none() | offsets))
@example(datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1))))
@example(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone(timedelta(hours=-1))))
def test_a_yaml_timestamp_reads_like_its_text(moment):
    text = moment.isoformat()
    loaded = yaml.safe_load(f"last-modified: {text}")
    assert loaded["last-modified"] == moment
    assert _read(loaded) == _read({"last-modified": text})
