"""OSCAL assessment-plan subset: parsing and the 16 AI-assurance properties.

A plan document is JSON or YAML with an ``assessment-plan`` root holding
metadata and ``control-implementations[].implemented-requirements[]``
entries; each requirement carries typed ``props`` that this module maps
into a ControlSpec. Unknown properties are preserved opaquely.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

import yaml

from .canonical import DETERMINISTIC_EPOCH, name_uuid, parse_timestamp
from .errors import (
    DuplicateControlId,
    InvalidEnumValue,
    MalformedDocument,
    MissingRequiredProperty,
    UnparsableThreshold,
)

#: PyYAML's libyaml-backed safe loader when it is built in (about ten
#: times faster on a plan), else the pure-Python one.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

#: Deepest nesting a YAML plan may have. Both loaders compose nodes
#: recursively: the pure-Python one raises RecursionError a few hundred
#: levels down, and libyaml overflows the C stack tens of thousands of
#: levels down, which crashes the process. Neither parser builds its event
#: stream recursively, so the depth is checked there first, and both loaders
#: accept and reject the same documents.
_YAML_MAX_DEPTH = 100

#: Default namespace for the AI-assurance properties. Matching is by name;
#: the namespace is only consulted when a property entry carries one.
DEFAULT_PROPERTY_NS = "urn:oscal-assure:ai"


class Operator(str, Enum):
    GT = "gt"
    GE = "ge"
    LT = "lt"
    LE = "le"
    EQ = "eq"
    NE = "ne"


_OPERATOR_ALIASES = {
    ">": Operator.GT,
    ">=": Operator.GE,
    "<": Operator.LT,
    "<=": Operator.LE,
    "==": Operator.EQ,
    "!=": Operator.NE,
}


class Severity(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    CRITICAL = "critical"


class LifecyclePhase(str, Enum):
    TRAINING = "training"
    VALIDATION = "validation"
    MONITORING = "monitoring"
    INCIDENT = "incident"


class EnforcementMode(str, Enum):
    MONITOR = "monitor"
    WARN = "warn"
    BLOCK = "block"


class EvaluationMethod(str, Enum):
    AUTOMATED = "automated"
    MANUAL = "manual"
    HYBRID = "hybrid"


class EvaluationWindow(str, Enum):
    PER_RUN = "per-run"
    PERIODIC = "periodic"
    SLIDING = "sliding"


class TargetType(str, Enum):
    SYSTEM = "system"
    DATASET = "dataset"
    MODEL = "model"


#: Document order of the four phases, used wherever phases are listed.
PHASE_ORDER = (
    LifecyclePhase.TRAINING,
    LifecyclePhase.VALIDATION,
    LifecyclePhase.MONITORING,
    LifecyclePhase.INCIDENT,
)

#: Single-valued enum properties and their vocabularies, in emission order
#: (lifecycle_phase, which may repeat, is emitted right after severity).
_ENUM_PROPS = {
    "severity": Severity,
    "enforcement_mode": EnforcementMode,
    "evaluation_method": EvaluationMethod,
    "evaluation_window": EvaluationWindow,
    "target_type": TargetType,
}

#: Optional free-text properties, in emission order.
_TEXT_PROPS = (
    "risk_id",
    "treatment_id",
    "policy_id",
    "objective_id",
    "risk_acceptance_criteria",
    "threshold_justification",
    "stakeholder_consultation_ref",
    "stratify_by",
)


@dataclass(frozen=True)
class PropertyEntry:
    name: str
    value: str
    ns: str | None = None


@dataclass(frozen=True)
class ControlSpec:
    """One implemented-requirement with its typed AI-assurance properties."""

    control_id: str
    description: str
    metric_key: str
    operator: Operator
    threshold: float
    severity: Severity = Severity.MEDIUM
    lifecycle_phases: frozenset[LifecyclePhase] = frozenset({LifecyclePhase.TRAINING})
    enforcement_mode: EnforcementMode = EnforcementMode.MONITOR
    evaluation_method: EvaluationMethod = EvaluationMethod.AUTOMATED
    evaluation_window: EvaluationWindow = EvaluationWindow.PER_RUN
    target_type: TargetType = TargetType.DATASET
    risk_id: str | None = None
    treatment_id: str | None = None
    policy_id: str | None = None
    objective_id: str | None = None
    risk_acceptance_criteria: str | None = None
    threshold_justification: str | None = None
    stakeholder_consultation_ref: str | None = None
    stratify_by: str | None = None
    metric_params: dict[str, str] = field(default_factory=dict)
    extra_props: tuple[PropertyEntry, ...] = ()

    def phases_in_order(self) -> list[LifecyclePhase]:
        return [p for p in PHASE_ORDER if p in self.lifecycle_phases]


@dataclass(frozen=True)
class AssessmentPlan:
    uuid: str
    title: str
    version: str
    last_modified: datetime
    controls: tuple[ControlSpec, ...]

    def control(self, control_id: str) -> ControlSpec:
        for spec in self.controls:
            if spec.control_id == control_id:
                return spec
        raise KeyError(control_id)

    def phases_present(self) -> list[LifecyclePhase]:
        present = set()
        for spec in self.controls:
            present |= spec.lifecycle_phases
        return [p for p in PHASE_ORDER if p in present]


def normalize_operator(token: str, control_id: str = "?") -> Operator:
    """Accept symbolic ('>=') and word ('ge') forms, normalized to words."""
    stripped = token.strip()
    if stripped in _OPERATOR_ALIASES:
        return _OPERATOR_ALIASES[stripped]
    try:
        return Operator(stripped)
    except ValueError:
        raise InvalidEnumValue(
            f"control {control_id!r}: operator {token!r} is not one of "
            f"gt/ge/lt/le/eq/ne or >, >=, <, <=, ==, !="
        ) from None


def _parse_enum(enum_cls, token: str, control_id: str, prop: str):
    try:
        return enum_cls(token.strip())
    except ValueError:
        allowed = ", ".join(member.value for member in enum_cls)
        raise InvalidEnumValue(
            f"control {control_id!r}: {prop} {token!r} is not one of {allowed}"
        ) from None


def _parse_threshold(token: str, control_id: str) -> float:
    try:
        value = float(token.strip())
    except ValueError:
        raise UnparsableThreshold(
            f"control {control_id!r}: threshold {token!r} is not a decimal"
        ) from None
    if not math.isfinite(value):
        raise UnparsableThreshold(
            f"control {control_id!r}: threshold {token!r} is not finite"
        )
    return value


def extract_control_spec(
    props: list[PropertyEntry],
    control_id: str,
    description: str,
    ns: str = DEFAULT_PROPERTY_NS,
) -> ControlSpec:
    """Map one requirement's properties into a ControlSpec.

    Properties with a foreign namespace or an unrecognized name are kept
    opaquely in extra_props; repeated single-valued properties keep the
    last occurrence.
    """
    fields: dict[str, str] = {}
    phases: list[LifecyclePhase] = []
    metric_params: dict[str, str] = {}
    extras: list[PropertyEntry] = []

    single_valued = {"metric_key", "operator", "threshold", *_ENUM_PROPS, *_TEXT_PROPS}

    for prop in props:
        ours = prop.ns is None or prop.ns == ns
        if ours and prop.name in single_valued:
            fields[prop.name] = prop.value
        elif ours and prop.name == "lifecycle_phase":
            phase = _parse_enum(LifecyclePhase, prop.value, control_id, "lifecycle_phase")
            if phase not in phases:
                phases.append(phase)
        elif ours and prop.name == "metric_param":
            key, sep, value = prop.value.partition("=")
            if not sep or not key.strip():
                raise InvalidEnumValue(
                    f"control {control_id!r}: metric_param {prop.value!r} "
                    "must look like key=value"
                )
            metric_params[key.strip()] = value
        else:
            extras.append(prop)

    for required in ("metric_key", "operator", "threshold"):
        if required not in fields:
            raise MissingRequiredProperty(
                f"control {control_id!r}: missing required property {required!r}"
            )

    return ControlSpec(
        control_id=control_id,
        description=description,
        metric_key=fields["metric_key"].strip(),
        operator=normalize_operator(fields["operator"], control_id),
        threshold=_parse_threshold(fields["threshold"], control_id),
        **{
            name: _parse_enum(enum_cls, fields[name], control_id, name)
            for name, enum_cls in _ENUM_PROPS.items()
            if name in fields
        },
        **{name: fields[name] for name in _TEXT_PROPS if name in fields},
        lifecycle_phases=frozenset(phases) if phases else frozenset({LifecyclePhase.TRAINING}),
        metric_params=metric_params,
        extra_props=tuple(extras),
    )


def _text(value, what: str) -> str:
    """A scalar field as text. A list or mapping is refused rather than
    passed through str(), which would expand every YAML alias in it: a
    few hundred bytes of nested aliases can stand for gigabytes of text."""
    if isinstance(value, (dict, list)):
        kind = "mapping" if isinstance(value, dict) else "list"
        raise MalformedDocument(f"{what} must be a scalar, not a {kind}")
    return str(value)


def _prop_value_text(value, control_id: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return _text(value, f"control {control_id!r}: prop value")


def _parse_props(raw, control_id: str) -> list[PropertyEntry]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise MalformedDocument(f"control {control_id!r}: props must be a list")
    entries = []
    for item in raw:
        field = item.get("name", "") if isinstance(item, dict) else ""
        name = _text(field, f"control {control_id!r}: prop name").strip()
        if not name:
            raise MalformedDocument(
                f"control {control_id!r}: each prop needs a non-empty name"
            )
        ns = item.get("ns")
        entries.append(
            PropertyEntry(
                name=name,
                value=_prop_value_text(item.get("value", ""), control_id),
                ns=_text(ns, f"control {control_id!r}: prop ns") if ns is not None else None,
            )
        )
    return entries


def _load_yaml(source: bytes):
    depth = 0
    for event in yaml.parse(source, Loader=_YAML_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _YAML_MAX_DEPTH:
                raise MalformedDocument(f"invalid YAML: nested deeper than {_YAML_MAX_DEPTH}")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return yaml.load(source, Loader=_YAML_LOADER)


def parse_plan_document(
    source: bytes, format: str = "json", ns: str = DEFAULT_PROPERTY_NS
) -> AssessmentPlan:
    """Parse an assessment plan from JSON or YAML bytes."""
    if format == "json":
        try:
            document = json.loads(source.decode("utf-8"))
        # ValueError covers undecodable bytes, bad JSON and integers past
        # the interpreter's digit limit
        except (ValueError, RecursionError) as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
    elif format == "yaml":
        try:
            document = _load_yaml(source)
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            raise MalformedDocument(f"invalid YAML: {exc}") from exc
    else:
        raise ValueError(f"unsupported format {format!r}")

    if not isinstance(document, dict) or "assessment-plan" not in document:
        raise MalformedDocument("document root must contain an 'assessment-plan' object")
    body = document["assessment-plan"]
    if not isinstance(body, dict):
        raise MalformedDocument("'assessment-plan' must be an object")

    metadata = body.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise MalformedDocument("'metadata' must be an object")
    title = _text(metadata.get("title", ""), "metadata.title").strip()
    version = _text(metadata.get("version", "1.0"), "metadata.version")
    raw_modified = metadata.get("last-modified")
    if raw_modified is None:
        last_modified = DETERMINISTIC_EPOCH
    elif isinstance(raw_modified, datetime):
        # YAML loaders yield naive datetimes for Z-suffixed timestamps
        last_modified = (
            raw_modified.replace(tzinfo=timezone.utc)
            if raw_modified.tzinfo is None
            else raw_modified.astimezone(timezone.utc)
        )
    else:
        try:
            last_modified = parse_timestamp(_text(raw_modified, "metadata.last-modified"))
        except ValueError as exc:
            raise MalformedDocument(f"invalid last-modified timestamp: {exc}") from exc
    plan_uuid = _text(body.get("uuid") or name_uuid(None, f"assessment-plan:{title}"), "uuid")

    controls: list[ControlSpec] = []
    seen: set[str] = set()
    implementations = body.get("control-implementations") or []
    if not isinstance(implementations, list):
        raise MalformedDocument("'control-implementations' must be a list")
    for implementation in implementations:
        if not isinstance(implementation, dict):
            raise MalformedDocument("each control-implementation must be an object")
        requirements = implementation.get("implemented-requirements") or []
        if not isinstance(requirements, list):
            raise MalformedDocument("'implemented-requirements' must be a list")
        for requirement in requirements:
            field = requirement.get("control-id", "") if isinstance(requirement, dict) else ""
            control_id = _text(field, "control-id").strip()
            if not control_id:
                raise MalformedDocument(
                    "each implemented-requirement needs a control-id"
                )
            if control_id in seen:
                raise DuplicateControlId(f"control id {control_id!r} appears twice")
            seen.add(control_id)
            props = _parse_props(requirement.get("props"), control_id)
            description = _text(
                requirement.get("description", ""), f"control {control_id!r}: description"
            ).strip()
            controls.append(extract_control_spec(props, control_id, description, ns=ns))

    return AssessmentPlan(
        uuid=plan_uuid,
        title=title,
        version=version,
        last_modified=last_modified,
        controls=tuple(controls),
    )


def control_properties(spec: ControlSpec) -> list[PropertyEntry]:
    """The control's properties in canonical emission order: the 16 typed
    ones, then stratification plumbing, then retained unknowns."""
    entries = [
        PropertyEntry("metric_key", spec.metric_key),
        PropertyEntry("operator", spec.operator.value),
        PropertyEntry("threshold", repr(spec.threshold)),
    ]
    for name in _ENUM_PROPS:
        entries.append(PropertyEntry(name, getattr(spec, name).value))
        if name == "severity":
            entries.extend(
                PropertyEntry("lifecycle_phase", phase.value)
                for phase in spec.phases_in_order()
            )
    entries.extend(
        PropertyEntry(name, getattr(spec, name))
        for name in _TEXT_PROPS
        if getattr(spec, name) is not None
    )
    entries.extend(
        PropertyEntry("metric_param", f"{key}={value}")
        for key, value in spec.metric_params.items()
    )
    entries.extend(spec.extra_props)
    return entries
