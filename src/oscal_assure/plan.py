"""OSCAL assessment-plan subset: parsing, the 16 AI-assurance properties,
and each control's traceability chain.

A plan document is JSON or YAML with an ``assessment-plan`` root holding
metadata and ``control-implementations[].implemented-requirements[]``
entries; each requirement carries typed ``props`` that this module maps
into a ControlSpec. Unknown properties are preserved opaquely.

The readers here are shared by every OSCAL document parser (results and
POA&Ms in serialize): one loader that checks the root, one check per
nested object or list, and one rule that turns a scalar into text
(canonical.cell_token, the spelling of table labels too), under which null
reads as absent, and one that reports a token that does not parse as malformed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import NamedTuple

from .canonical import DETERMINISTIC_EPOCH, cell_token, name_uuid, parse_timestamp
from .errors import (
    DuplicateControlId,
    InvalidEnumValue,
    MalformedDocument,
    MissingRequiredProperty,
    UnparsableThreshold,
)

#: PyYAML's libyaml-backed safe loader when it is built in (about ten
#: times faster on a plan), else the pure-Python one. Set by the first YAML
#: document, which is what imports PyYAML: a JSON document never loads it.
_YAML_LOADER = None

#: Deepest nesting a YAML plan may have. Both loaders compose nodes
#: recursively: the pure-Python one raises RecursionError a few hundred
#: levels down, and libyaml overflows the C stack tens of thousands of
#: levels down, which crashes the process. Neither parser builds its event
#: stream recursively, so the depth is checked there first, and both loaders
#: accept and reject the same documents.
_YAML_MAX_DEPTH = 100

#: The namespace of the AI-assurance properties (OSCAL `prop/@ns`). A prop
#: is read as one of them when it carries this namespace or none.
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
    """The member order is the document order, used wherever phases are listed."""

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


class PropertyEntry(NamedTuple):
    """One OSCAL prop. A named tuple rather than a frozen dataclass: every
    document reader builds one per prop, and a tuple is several times
    cheaper to build."""

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
        return [p for p in LifecyclePhase if p in self.lifecycle_phases]


@dataclass(frozen=True)
class AssessmentPlan:
    """A parsed OSCAL assessment plan: its metadata and its controls, in document order."""

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
        return [p for p in LifecyclePhase if p in present]


def normalize_operator(token: str, control_id: str) -> Operator:
    """Accept symbolic ('>=') and word ('ge') forms, normalized to words."""
    return _parse_enum(Operator, token, control_id, "operator", _OPERATOR_ALIASES)


def _parse_enum(enum_cls, token: str, control_id: str, prop: str, aliases: dict | None = None):
    """The member of enum_cls that token spells, by its value or one of aliases."""
    spellings = {member.value: member for member in enum_cls} | (aliases or {})
    try:
        return spellings[token.strip()]
    except KeyError:
        raise InvalidEnumValue(
            f"control {control_id!r}: {prop} {token!r} is not one of {', '.join(spellings)}"
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
) -> ControlSpec:
    """Map one requirement's properties into a ControlSpec.

    Properties under a namespace other than DEFAULT_PROPERTY_NS, or with an
    unrecognized name, are kept opaquely in extra_props; repeated
    single-valued properties keep the last occurrence.
    """
    fields: dict[str, str] = {}
    phases: list[LifecyclePhase] = []
    metric_params: dict[str, str] = {}
    extras: list[PropertyEntry] = []

    single_valued = {"metric_key", "operator", "threshold", *_ENUM_PROPS, *_TEXT_PROPS}

    for prop in props:
        ours = prop.ns in (None, DEFAULT_PROPERTY_NS)
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


#: The YAML values that text refuses, each with the name its message gives.
_NOT_SCALAR = (
    (dict, "mapping"),
    (list, "list"),
    ((set, frozenset), "set"),
    (bytes, "binary value"),
)


def text(value, what: str, default: str | None = "") -> str | None:
    """A scalar field as text: absent or null reads as `default`, any other
    scalar as cell_token spells it. A list or mapping is refused rather than
    passed through str(), which would expand every YAML alias in it: a few
    hundred bytes of nested aliases can stand for gigabytes of text. A set
    is refused too, as its spelling would follow the hash seed, and so is a
    binary value. An integer too long for str() is malformed."""
    if isinstance(value, str):
        return value
    if value is None:
        return default
    for kinds, kind in _NOT_SCALAR:
        if isinstance(value, kinds):
            raise MalformedDocument(f"{what} must be a scalar, not a {kind}")
    try:
        return cell_token(value)
    except ValueError as exc:  # past the interpreter's digit limit for int -> str
        raise MalformedDocument(f"{what} is an integer too long to spell") from exc


def nested(payload: dict, key: str, kind: type[dict] | type[list]):
    """payload[key] checked to be an object (kind=dict) or a list; an
    absent or null value reads as empty, and any other value that is not
    of `kind` (0, false, "") is malformed."""
    value = payload.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise MalformedDocument(
            f"{key!r} must be {'an object' if kind is dict else 'a list'}"
        )
    return value


def objects(payload: dict, key: str) -> list[dict]:
    """payload[key] checked to be a list of objects."""
    items = nested(payload, key, list)
    if not all(isinstance(item, dict) for item in items):
        raise MalformedDocument(f"every entry of {key!r} must be an object")
    return items


def parse_props(payload: dict, where: str, key: str = "props") -> list[PropertyEntry]:
    """payload[key] as name/value entries: each names itself and, as OSCAL
    requires, carries a value."""
    entries = []
    what = f"{where}: {key} name, value or ns"
    for item in objects(payload, key):
        name = text(item.get("name"), what).strip()
        if not name:
            raise MalformedDocument(f"{where}: each entry of {key!r} needs a non-empty name")
        if item.get("value") is None:
            raise MalformedDocument(f"{where}: {key} entry {name!r} needs a value")
        ns = text(item.get("ns"), what, None)
        entries.append(PropertyEntry(name, text(item["value"], what), ns))
    return entries


def timestamp(payload: dict, key: str) -> datetime:
    """payload[key] as a UTC instant, read by parse_timestamp from text or
    from a YAML timestamp's ISO text; an absent one reads as the epoch."""
    token = text(payload.get(key), key, None)
    if token is None:
        return DETERMINISTIC_EPOCH
    return parsed(parse_timestamp, token, key)


def parsed(parse, token: str, what: str):
    """parse(token), with a parse failure reported as a malformed document."""
    try:
        return parse(token)
    except (ValueError, OverflowError) as exc:
        raise MalformedDocument(f"bad {what} {token!r}") from exc


def _load_yaml(source: bytes):
    global _YAML_LOADER
    import yaml

    if _YAML_LOADER is None:
        _YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    depth = 0
    for event in yaml.parse(source, Loader=_YAML_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _YAML_MAX_DEPTH:
                raise MalformedDocument(f"invalid YAML: nested deeper than {_YAML_MAX_DEPTH}")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
        elif isinstance(event, yaml.ScalarEvent) and event.tag == "!" and not event.value:
            # the pure-Python loader reads an empty node tagged "!" as null,
            # libyaml as "": refused, so that both loaders agree on every plan
            raise MalformedDocument("invalid YAML: an empty node tagged '!' has no agreed value")
    return yaml.load(source, Loader=_YAML_LOADER)


def document_body(source: bytes, format: str, root: str) -> dict:
    """The object under `root` in a JSON or YAML document."""
    if format == "json":
        try:
            document = json.loads(source.decode("utf-8"))
        # ValueError covers undecodable bytes, bad JSON and integers past
        # the interpreter's digit limit
        except (ValueError, RecursionError) as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
    elif format == "yaml":
        import yaml

        try:
            document = _load_yaml(source)
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            raise MalformedDocument(f"invalid YAML: {exc}") from exc
    else:
        raise ValueError(f"unsupported format {format!r}")
    if not isinstance(document, dict) or not isinstance(document.get(root), dict):
        raise MalformedDocument(f"document root must contain {root!r} as an object")
    return document[root]


def parse_plan_document(source: bytes, format: str = "json") -> AssessmentPlan:
    """Parse an assessment plan from JSON or YAML bytes."""
    body = document_body(source, format, "assessment-plan")
    metadata = nested(body, "metadata", dict)
    title = text(metadata.get("title"), "metadata.title").strip()
    version = text(metadata.get("version"), "metadata.version", "1.0")
    last_modified = timestamp(metadata, "last-modified")
    plan_uuid = text(body.get("uuid"), "uuid") or name_uuid(f"assessment-plan:{title}")

    controls: list[ControlSpec] = []
    seen: set[str] = set()
    for implementation in objects(body, "control-implementations"):
        for requirement in objects(implementation, "implemented-requirements"):
            control_id = text(requirement.get("control-id"), "control-id").strip()
            if not control_id:
                raise MalformedDocument("each implemented-requirement needs a control-id")
            if control_id in seen:
                raise DuplicateControlId(f"control id {control_id!r} appears twice")
            seen.add(control_id)
            where = f"control {control_id!r}"
            props = parse_props(requirement, where)
            description = text(requirement.get("description"), f"{where}: description")
            controls.append(extract_control_spec(props, control_id, description.strip()))

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
        PropertyEntry("threshold", cell_token(spec.threshold)),
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


@dataclass(frozen=True)
class TraceChain:
    """Upward (kind, id) links from a control, in treatment -> risk ->
    objective -> policy order; absent links are omitted, never fabricated."""

    control_id: str
    links: tuple[tuple[str, str], ...] = ()
    resolved_labels: dict[str, str] = field(default_factory=dict)


def trace_chain(
    spec: ControlSpec, labels: dict[str, str] | None = None
) -> TraceChain:
    """Assemble the traceability chain from the control's optional id
    fields, resolving labels from a side-loaded id->label registry."""
    links = tuple(
        (kind, value)
        for kind, value in (("treatment", spec.treatment_id), ("risk", spec.risk_id),
                            ("objective", spec.objective_id), ("policy", spec.policy_id))
        if value is not None
    )
    labels = labels or {}
    return TraceChain(
        control_id=spec.control_id,
        links=links,
        resolved_labels={value: labels[value] for _, value in links if value in labels},
    )
