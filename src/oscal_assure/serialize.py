"""Document <-> JSON conversion, canonical byte serialization, and the
deterministic rewrite (name-based uuids + injected clock).

Key order in emitted JSON is fixed by construction order here; canonical
bytes come from canonical.canonical_json_bytes.
"""

from __future__ import annotations

import json
from dataclasses import replace
from datetime import datetime

from .canonical import (
    DETERMINISTIC_EPOCH,
    Clock,
    canonical_json_bytes,
    format_timestamp,
    name_uuid,
    parse_timestamp,
)
from .errors import MalformedDocument, SerializationFailure
from .plan import DEFAULT_PROPERTY_NS, AssessmentPlan, control_properties
from .results import (
    AssessmentResults,
    Finding,
    FindingStatus,
    Observation,
    ObservationMethod,
    PoamDocument,
    PoamItem,
    ResultBlock,
    Risk,
    RiskStatus,
    validate_document_structure,
)

OSCAL_VERSION = "1.1.2"

Document = AssessmentPlan | AssessmentResults | PoamDocument


# --- document -> dict --------------------------------------------------------


def _metadata_dict(title: str, last_modified: datetime, version: str) -> dict:
    return {
        "title": title,
        "last-modified": format_timestamp(last_modified),
        "version": version,
        "oscal-version": OSCAL_VERSION,
    }


def plan_to_dict(plan: AssessmentPlan) -> dict:
    requirements = []
    for spec in plan.controls:
        props = []
        for entry in control_properties(spec):
            prop: dict = {"name": entry.name, "value": entry.value}
            if entry.ns is not None:
                prop["ns"] = entry.ns
            props.append(prop)
        requirements.append(
            {
                "control-id": spec.control_id,
                "description": spec.description,
                "props": props,
            }
        )
    return {
        "assessment-plan": {
            "uuid": plan.uuid,
            "metadata": _metadata_dict(plan.title, plan.last_modified, plan.version),
            "control-implementations": (
                [{"implemented-requirements": requirements}] if requirements else []
            ),
        }
    }


def _observation_to_dict(obs: Observation) -> dict:
    props = [{"name": "control-id", "value": obs.relevant_control_id}]
    if obs.observed_value is not None:
        props.append({"name": "observed-value", "value": repr(obs.observed_value)})
    if obs.stratum is not None:
        props.append({"name": "stratum", "value": obs.stratum})
    if obs.excluded_rows:
        props.append({"name": "excluded-rows", "value": str(obs.excluded_rows)})
    if obs.per_group:
        for label in sorted(obs.per_group):
            props.append(
                {"name": "group-rate", "value": f"{label}={obs.per_group[label]!r}"}
            )
    payload = {
        "uuid": obs.uuid,
        "title": obs.title,
        "description": obs.description,
        "methods": [obs.method.value],
        "props": props,
        "collected": format_timestamp(obs.collected_at),
    }
    if obs.remarks is not None:
        payload["remarks"] = obs.remarks
    return payload


def _finding_to_dict(finding: Finding) -> dict:
    payload = {
        "uuid": finding.uuid,
        "title": finding.title,
        "target": {
            "type": "objective-id",
            "target-id": finding.target_control_id,
            "status": {"state": finding.status.value},
        },
        "related-observations": [
            {"observation-uuid": ref} for ref in finding.related_observation_uuids
        ],
    }
    if finding.remarks is not None:
        payload["remarks"] = finding.remarks
    return payload


def _risk_to_dict(risk: Risk) -> dict:
    props = [{"name": "linked-finding", "value": risk.linked_finding_uuid}]
    if risk.risk_id_ref is not None:
        props.append({"name": "risk-id", "value": risk.risk_id_ref})
    return {
        "uuid": risk.uuid,
        "title": risk.title,
        "status": risk.status.value,
        "props": props,
        "characterizations": [
            {
                "facets": [
                    {"name": name, "system": DEFAULT_PROPERTY_NS, "value": value}
                    for name, value in risk.facets
                ]
            }
        ],
    }


def results_to_dict(doc: AssessmentResults) -> dict:
    blocks = []
    for block in doc.results:
        payload = {
            "uuid": block.uuid,
            "title": block.title,
            "start": format_timestamp(block.start),
            "end": format_timestamp(block.end),
            "reviewed-controls": {
                "control-selections": [
                    {
                        "include-controls": [
                            {"control-id": cid} for cid in block.reviewed_control_ids
                        ]
                    }
                ]
            },
            "observations": [_observation_to_dict(o) for o in block.observations],
            "findings": [_finding_to_dict(f) for f in block.findings],
        }
        if block.risks:
            payload["risks"] = [_risk_to_dict(r) for r in block.risks]
        blocks.append(payload)
    return {
        "assessment-results": {
            "uuid": doc.uuid,
            "metadata": _metadata_dict(doc.title, doc.last_modified, doc.version),
            "results": blocks,
        }
    }


def poam_to_dict(doc: PoamDocument) -> dict:
    items = []
    for item in doc.poam_items:
        props = [
            {"name": "status", "value": item.status.value},
            {"name": "related-risk", "value": item.related_risk_uuid},
        ]
        if item.treatment_id_ref is not None:
            props.append({"name": "treatment-id", "value": item.treatment_id_ref})
        items.append(
            {
                "uuid": item.uuid,
                "title": item.title,
                "description": item.description,
                "props": props,
            }
        )
    return {
        "plan-of-action-and-milestones": {
            "uuid": doc.uuid,
            "metadata": _metadata_dict(doc.title, doc.last_modified, doc.version),
            "poam-items": items,
        }
    }


# --- deterministic rewrite ---------------------------------------------------


def determinize(
    doc: Document,
    seed_namespace: str | None = None,
    clock: Clock | None = None,
    reference_map: dict[str, str] | None = None,
) -> tuple[Document, dict[str, str]]:
    """Rewrite a document with name-based uuids derived from content paths
    and timestamps from the injected clock.

    Returns the rewritten document and the old->new uuid map, so a paired
    document (POA&M referencing risks) can be rewritten consistently by
    passing the map as reference_map. A POA&M whose risk references the
    map does not cover raises SerializationFailure.
    """
    instant = clock() if clock is not None else DETERMINISTIC_EPOCH
    mapping: dict[str, str] = dict(reference_map or {})

    def assign(old: str, path: str) -> str:
        new = name_uuid(seed_namespace, path)
        mapping[old] = new
        return new

    def ref(old: str) -> str:
        return mapping.get(old, old)

    if isinstance(doc, AssessmentPlan):
        return (
            replace(doc, uuid=assign(doc.uuid, "assessment-plan"), last_modified=instant),
            mapping,
        )

    if isinstance(doc, AssessmentResults):
        blocks = []
        for b, block in enumerate(doc.results):
            observations = tuple(
                replace(
                    obs,
                    uuid=assign(
                        obs.uuid,
                        f"results[{b}]/observations[{i}]/{obs.relevant_control_id}"
                        f"/{obs.stratum or ''}",
                    ),
                    collected_at=instant,
                )
                for i, obs in enumerate(block.observations)
            )
            findings = tuple(
                replace(
                    f,
                    uuid=assign(f.uuid, f"results[{b}]/findings[{i}]/{f.target_control_id}"),
                    related_observation_uuids=tuple(map(ref, f.related_observation_uuids)),
                )
                for i, f in enumerate(block.findings)
            )
            risks = tuple(
                replace(
                    r,
                    uuid=assign(r.uuid, f"results[{b}]/risks[{i}]"),
                    linked_finding_uuid=ref(r.linked_finding_uuid),
                )
                for i, r in enumerate(block.risks)
            )
            blocks.append(
                replace(
                    block,
                    uuid=assign(block.uuid, f"results[{b}]"),
                    start=instant,
                    end=instant,
                    observations=observations,
                    findings=findings,
                    risks=risks,
                )
            )
        return (
            replace(
                doc,
                uuid=assign(doc.uuid, "assessment-results"),
                last_modified=instant,
                results=tuple(blocks),
            ),
            mapping,
        )

    if isinstance(doc, PoamDocument):
        unmapped = sorted({item.related_risk_uuid for item in doc.poam_items} - mapping.keys())
        if unmapped:
            # left as they are, these random uuids would change the bytes on every run
            raise SerializationFailure(
                f"POA&M refers to risk(s) {', '.join(unmapped)} that reference_map does "
                "not map; determinize the results document first and pass its uuid map"
            )
        items = tuple(
            replace(
                item,
                uuid=assign(item.uuid, f"poam-items[{i}]"),
                related_risk_uuid=ref(item.related_risk_uuid),
            )
            for i, item in enumerate(doc.poam_items)
        )
        return (
            replace(
                doc,
                uuid=assign(doc.uuid, "plan-of-action-and-milestones"),
                last_modified=instant,
                poam_items=items,
            ),
            mapping,
        )

    raise TypeError(f"cannot determinize {type(doc).__name__}")


# --- canonical serialization -------------------------------------------------


def serialize_canonical(
    doc: Document,
    deterministic: bool = False,
    seed_namespace: str | None = None,
    clock: Clock | None = None,
) -> bytes:
    """Canonical JSON bytes for a document.

    Deterministic mode rewrites uuids to name-based identifiers and takes
    every timestamp from the injected clock (fixed epoch by default), so
    identical content serializes byte-identically across runs.
    """
    if deterministic:
        doc, _ = determinize(doc, seed_namespace, clock)

    if isinstance(doc, AssessmentPlan):
        ids = [spec.control_id for spec in doc.controls]
        if len(set(ids)) != len(ids):
            raise SerializationFailure("plan has duplicate control ids")
        return canonical_json_bytes(plan_to_dict(doc))

    violations = validate_document_structure(doc)
    if violations:
        summary = "; ".join(f"{v.path}: {v.message}" for v in violations[:5])
        raise SerializationFailure(
            f"document fails structural validation ({len(violations)} violation(s)): {summary}"
        )
    if isinstance(doc, AssessmentResults):
        return canonical_json_bytes(results_to_dict(doc))
    return canonical_json_bytes(poam_to_dict(doc))


# --- dict/json -> document ---------------------------------------------------


def _load_json(source: bytes) -> dict:
    try:
        document = json.loads(source.decode("utf-8"))
    # ValueError covers undecodable bytes, bad JSON and integers past the
    # interpreter's digit limit
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise MalformedDocument("document root must be an object")
    return document


def _body(document: dict, root: str) -> dict:
    if not isinstance(document.get(root), dict):
        raise MalformedDocument(f"document root must contain {root!r} as an object")
    return document[root]


def _field(payload: dict, key: str, kind: type[dict] | type[list]):
    """payload[key] checked to be an object (kind=dict) or a list; a
    missing or empty value reads as empty."""
    value = payload.get(key) or kind()
    if not isinstance(value, kind):
        raise MalformedDocument(
            f"{key!r} must be {'an object' if kind is dict else 'a list'}"
        )
    return value


def _objects(payload: dict, key: str) -> list[dict]:
    """payload[key] checked to be a list of objects."""
    items = _field(payload, key, list)
    if not all(isinstance(item, dict) for item in items):
        raise MalformedDocument(f"every entry of {key!r} must be an object")
    return items


def _parsed(parse, text: str, what: str):
    """parse(text), with a parse failure reported as a malformed document."""
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        raise MalformedDocument(f"bad {what} {text!r}") from exc


def _timestamp(payload: dict, key: str) -> datetime:
    return _parsed(parse_timestamp, str(payload.get(key, "1970-01-01T00:00:00Z")), key)


def _remarks(payload: dict) -> str | None:
    remarks = payload.get("remarks")
    if remarks is not None and not isinstance(remarks, str):
        raise MalformedDocument(f"'remarks' must be a string, got {remarks!r}")
    return remarks


def _prop_map(raw: list | None) -> dict[str, str]:
    """First value per prop name (multi-valued props handled separately)."""
    props: dict[str, str] = {}
    for item in raw or []:
        if isinstance(item, dict) and "name" in item:
            props.setdefault(str(item["name"]), str(item.get("value", "")))
    return props


def _prop_values(raw: list | None, name: str) -> list[str]:
    return [
        str(item.get("value", ""))
        for item in raw or []
        if isinstance(item, dict) and item.get("name") == name
    ]


def _observation_from_dict(payload: dict) -> Observation:
    props = _field(payload, "props", list)
    prop_map = _prop_map(props)
    observed: float | None = None
    if "observed-value" in prop_map:
        observed = _parsed(float, prop_map["observed-value"], "observed-value")
    per_group: dict[str, float] = {}
    for encoded in _prop_values(props, "group-rate"):
        label, sep, rate = encoded.rpartition("=")
        if not sep:
            raise MalformedDocument(f"bad group-rate entry {encoded!r}")
        per_group[label] = _parsed(float, rate, "group-rate")
    methods = _field(payload, "methods", list) or ["TEST"]
    try:
        method = ObservationMethod(str(methods[0]))
    except ValueError as exc:
        raise MalformedDocument(f"bad observation method {methods[0]!r}") from exc
    return Observation(
        uuid=str(payload.get("uuid", "")),
        title=str(payload.get("title", "")),
        description=str(payload.get("description", "")),
        method=method,
        observed_value=observed,
        collected_at=_timestamp(payload, "collected"),
        relevant_control_id=prop_map.get("control-id", ""),
        per_group=per_group or None,
        stratum=prop_map.get("stratum"),
        excluded_rows=_parsed(int, prop_map.get("excluded-rows", "0"), "excluded-rows"),
        remarks=_remarks(payload),
    )


def _finding_from_dict(payload: dict) -> Finding:
    target = _field(payload, "target", dict)
    state = _field(target, "status", dict).get("state", "")
    try:
        status = FindingStatus(str(state))
    except ValueError as exc:
        raise MalformedDocument(f"bad finding state {state!r}") from exc
    return Finding(
        uuid=str(payload.get("uuid", "")),
        title=str(payload.get("title", "")),
        target_control_id=str(target.get("target-id", "")),
        status=status,
        related_observation_uuids=tuple(
            str(ref.get("observation-uuid", ""))
            for ref in _field(payload, "related-observations", list)
            if isinstance(ref, dict)
        ),
        remarks=_remarks(payload),
    )


def _risk_from_dict(payload: dict) -> Risk:
    prop_map = _prop_map(_field(payload, "props", list))
    facets: list[tuple[str, str]] = []
    for characterization in _objects(payload, "characterizations"):
        for facet in _field(characterization, "facets", list):
            if isinstance(facet, dict) and "name" in facet:
                facets.append((str(facet["name"]), str(facet.get("value", ""))))
    try:
        status = RiskStatus(str(payload.get("status", "")))
    except ValueError as exc:
        raise MalformedDocument(f"bad risk status {payload.get('status')!r}") from exc
    return Risk(
        uuid=str(payload.get("uuid", "")),
        title=str(payload.get("title", "")),
        status=status,
        facets=tuple(facets),
        linked_finding_uuid=prop_map.get("linked-finding", ""),
        risk_id_ref=prop_map.get("risk-id"),
    )


def parse_results_document(source: bytes) -> AssessmentResults:
    """Parse an assessment-results JSON document back into the model."""
    body = _body(_load_json(source), "assessment-results")
    metadata = _field(body, "metadata", dict)
    blocks = []
    for payload in _objects(body, "results"):
        selections = _objects(_field(payload, "reviewed-controls", dict), "control-selections")
        reviewed = tuple(
            str(entry.get("control-id", ""))
            for selection in selections
            for entry in _field(selection, "include-controls", list)
            if isinstance(entry, dict)
        )
        blocks.append(
            ResultBlock(
                uuid=str(payload.get("uuid", "")),
                title=str(payload.get("title", "")),
                start=_timestamp(payload, "start"),
                end=_timestamp(payload, "end"),
                observations=tuple(
                    map(_observation_from_dict, _objects(payload, "observations"))
                ),
                findings=tuple(map(_finding_from_dict, _objects(payload, "findings"))),
                risks=tuple(map(_risk_from_dict, _objects(payload, "risks"))),
                reviewed_control_ids=reviewed,
            )
        )
    return AssessmentResults(
        uuid=str(body.get("uuid", "")),
        title=str(metadata.get("title", "")),
        version=str(metadata.get("version", "")),
        last_modified=_timestamp(metadata, "last-modified"),
        results=tuple(blocks),
    )


def parse_poam_document(source: bytes) -> PoamDocument:
    """Parse a POA&M JSON document back into the model."""
    body = _body(_load_json(source), "plan-of-action-and-milestones")
    metadata = _field(body, "metadata", dict)
    items = []
    for payload in _objects(body, "poam-items"):
        prop_map = _prop_map(_field(payload, "props", list))
        try:
            status = RiskStatus(prop_map.get("status", ""))
        except ValueError as exc:
            raise MalformedDocument(
                f"bad poam item status {prop_map.get('status')!r}"
            ) from exc
        items.append(
            PoamItem(
                uuid=str(payload.get("uuid", "")),
                title=str(payload.get("title", "")),
                description=str(payload.get("description", "")),
                related_risk_uuid=prop_map.get("related-risk", ""),
                status=status,
                treatment_id_ref=prop_map.get("treatment-id"),
            )
        )
    return PoamDocument(
        uuid=str(body.get("uuid", "")),
        title=str(metadata.get("title", "")),
        version=str(metadata.get("version", "")),
        last_modified=_timestamp(metadata, "last-modified"),
        poam_items=tuple(items),
    )
