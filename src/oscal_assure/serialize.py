"""Document <-> JSON conversion, canonical byte serialization, and the
deterministic rewrite (name-based uuids + a fixed epoch).

Key order in emitted JSON is fixed by construction order here; canonical
bytes come from canonical.canonical_json_bytes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from datetime import datetime

from .canonical import (
    DETERMINISTIC_EPOCH,
    canonical_json_bytes,
    format_timestamp,
    name_uuid,
)
from .errors import MalformedDocument, SerializationFailure
from .plan import (
    DEFAULT_PROPERTY_NS,
    AssessmentPlan,
    PropertyEntry,
    control_properties,
    document_body,
    nested,
    objects,
    parse_props,
    text,
    timestamp,
)
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

#: The file names of a results document and of its POA&M, side by side in one directory.
RESULTS_FILE = "assessment-results.oscal.json"
POAM_FILE = "poam.oscal.json"

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
    doc: Document, reference_map: dict[str, str] | None = None
) -> tuple[Document, dict[str, str]]:
    """Rewrite a document with name-based uuids derived from content paths
    and every timestamp set to DETERMINISTIC_EPOCH. This is the one way to
    make a document's bytes reproducible: serialize what it returns.

    Returns the rewritten document and the old->new uuid map, so a paired
    document (POA&M referencing risks) can be rewritten consistently by
    passing the map as reference_map. A POA&M whose risk references the
    map does not cover raises SerializationFailure.
    """
    mapping: dict[str, str] = dict(reference_map or {})

    def assign(old: str, path: str) -> str:
        new = name_uuid(path)
        mapping[old] = new
        return new

    def ref(old: str) -> str:
        return mapping.get(old, old)

    if isinstance(doc, AssessmentPlan):
        return (
            replace(
                doc, uuid=assign(doc.uuid, "assessment-plan"), last_modified=DETERMINISTIC_EPOCH
            ),
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
                    collected_at=DETERMINISTIC_EPOCH,
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
                    start=DETERMINISTIC_EPOCH,
                    end=DETERMINISTIC_EPOCH,
                    observations=observations,
                    findings=findings,
                    risks=risks,
                )
            )
        return (
            replace(
                doc,
                uuid=assign(doc.uuid, "assessment-results"),
                last_modified=DETERMINISTIC_EPOCH,
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
                last_modified=DETERMINISTIC_EPOCH,
                poam_items=items,
            ),
            mapping,
        )

    raise TypeError(f"cannot determinize {type(doc).__name__}")


# --- canonical serialization -------------------------------------------------


def serialize_canonical(doc: Document) -> bytes:
    """Canonical JSON bytes for a document, as it stands. For bytes that
    are identical across runs, pass the document through determinize
    first."""
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


def _parsed(parse, token: str, what: str):
    """parse(token), with a parse failure reported as a malformed document."""
    try:
        return parse(token)
    except (ValueError, OverflowError) as exc:
        raise MalformedDocument(f"bad {what} {token!r}") from exc


def _finite(token: str, what: str) -> float:
    """A float prop; the writer never emits nan or inf, so neither is read."""
    value = _parsed(float, token, what)
    if not math.isfinite(value):
        raise MalformedDocument(f"bad {what} {token!r}: not finite")
    return value


def _first_values(props: list[PropertyEntry]) -> dict[str, str]:
    """First value per prop name (multi-valued props handled separately)."""
    return {prop.name: prop.value for prop in reversed(props)}


def _observation_from_dict(payload: dict) -> Observation:
    props = parse_props(payload, "observation")
    prop_map = _first_values(props)
    observed: float | None = None
    if "observed-value" in prop_map:
        observed = _finite(prop_map["observed-value"], "observed-value")
    per_group: dict[str, float] = {}
    for prop in props:
        if prop.name == "group-rate":
            label, sep, rate = prop.value.rpartition("=")
            if not sep:
                raise MalformedDocument(f"bad group-rate entry {prop.value!r}")
            per_group[label] = _finite(rate, "group-rate")
    methods = nested(payload, "methods", list) or ["TEST"]
    method = _parsed(ObservationMethod, text(methods[0], "method"), "observation method")
    return Observation(
        uuid=text(payload.get("uuid"), "uuid"),
        title=text(payload.get("title"), "title"),
        description=text(payload.get("description"), "description"),
        method=method,
        observed_value=observed,
        collected_at=timestamp(payload, "collected"),
        relevant_control_id=prop_map.get("control-id", ""),
        per_group=per_group or None,
        stratum=prop_map.get("stratum"),
        excluded_rows=_parsed(int, prop_map.get("excluded-rows", "0"), "excluded-rows"),
        remarks=text(payload.get("remarks"), "remarks", None),
    )


def _finding_from_dict(payload: dict) -> Finding:
    target = nested(payload, "target", dict)
    state = text(nested(target, "status", dict).get("state"), "state")
    return Finding(
        uuid=text(payload.get("uuid"), "uuid"),
        title=text(payload.get("title"), "title"),
        target_control_id=text(target.get("target-id"), "target-id"),
        status=_parsed(FindingStatus, state, "finding state"),
        related_observation_uuids=tuple(
            text(ref.get("observation-uuid"), "observation-uuid")
            for ref in objects(payload, "related-observations")
        ),
        remarks=text(payload.get("remarks"), "remarks", None),
    )


def _risk_from_dict(payload: dict) -> Risk:
    prop_map = _first_values(parse_props(payload, "risk"))
    facets = tuple(
        (facet.name, facet.value)
        for characterization in objects(payload, "characterizations")
        for facet in parse_props(characterization, "risk", "facets")
    )
    return Risk(
        uuid=text(payload.get("uuid"), "uuid"),
        title=text(payload.get("title"), "title"),
        status=_parsed(RiskStatus, text(payload.get("status"), "status"), "risk status"),
        facets=facets,
        linked_finding_uuid=prop_map.get("linked-finding", ""),
        risk_id_ref=prop_map.get("risk-id"),
    )


def parse_results_document(source: bytes) -> AssessmentResults:
    """Parse an assessment-results JSON document back into the model."""
    body = document_body(source, "json", "assessment-results")
    metadata = nested(body, "metadata", dict)
    blocks = []
    for payload in objects(body, "results"):
        selections = objects(nested(payload, "reviewed-controls", dict), "control-selections")
        reviewed = tuple(
            text(entry.get("control-id"), "control-id")
            for selection in selections
            for entry in objects(selection, "include-controls")
        )
        blocks.append(
            ResultBlock(
                uuid=text(payload.get("uuid"), "uuid"),
                title=text(payload.get("title"), "title"),
                start=timestamp(payload, "start"),
                end=timestamp(payload, "end"),
                observations=tuple(
                    map(_observation_from_dict, objects(payload, "observations"))
                ),
                findings=tuple(map(_finding_from_dict, objects(payload, "findings"))),
                risks=tuple(map(_risk_from_dict, objects(payload, "risks"))),
                reviewed_control_ids=reviewed,
            )
        )
    return AssessmentResults(
        uuid=text(body.get("uuid"), "uuid"),
        title=text(metadata.get("title"), "title"),
        version=text(metadata.get("version"), "version"),
        last_modified=timestamp(metadata, "last-modified"),
        results=tuple(blocks),
    )


def parse_poam_document(source: bytes) -> PoamDocument:
    """Parse a POA&M JSON document back into the model."""
    body = document_body(source, "json", "plan-of-action-and-milestones")
    metadata = nested(body, "metadata", dict)
    items = []
    for payload in objects(body, "poam-items"):
        prop_map = _first_values(parse_props(payload, "poam item"))
        items.append(
            PoamItem(
                uuid=text(payload.get("uuid"), "uuid"),
                title=text(payload.get("title"), "title"),
                description=text(payload.get("description"), "description"),
                related_risk_uuid=prop_map.get("related-risk", ""),
                status=_parsed(RiskStatus, prop_map.get("status", ""), "poam item status"),
                treatment_id_ref=prop_map.get("treatment-id"),
            )
        )
    return PoamDocument(
        uuid=text(body.get("uuid"), "uuid"),
        title=text(metadata.get("title"), "title"),
        version=text(metadata.get("version"), "version"),
        last_modified=timestamp(metadata, "last-modified"),
        poam_items=tuple(items),
    )
