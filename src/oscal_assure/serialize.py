"""Document <-> JSON conversion, canonical byte serialization, and the
deterministic rewrite (name-based uuids + a fixed epoch).

Every document has one root key (`_ROOTS`) holding a uuid, metadata and one
list. `_document_dict` writes that header for the plan, results and POA&M
writers, and `_parse_document` reads it back for the results and POA&M
parsers. `determinize` gives each record the uuid of its content path
through one rename step, `renamed`.

Key order in emitted JSON is fixed by construction order here; canonical
bytes come from canonical.canonical_json_bytes.
"""

from __future__ import annotations

import math

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
    once,
    parse_props,
    parsed,
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

#: The root key of each document, which is also the content path of its uuid.
_ROOTS = {
    AssessmentPlan: "assessment-plan",
    AssessmentResults: "assessment-results",
    PoamDocument: "plan-of-action-and-milestones",
}


# --- document -> dict --------------------------------------------------------


def _document_dict(doc: Document, key: str, items: list) -> dict:
    """{root: {uuid, metadata, key: items}}, the header of every document."""
    metadata = {
        "title": doc.title,
        "last-modified": format_timestamp(doc.last_modified),
        "version": doc.version,
        "oscal-version": OSCAL_VERSION,
    }
    return {_ROOTS[type(doc)]: {"uuid": doc.uuid, "metadata": metadata, key: items}}


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
    implementations = [{"implemented-requirements": requirements}] if requirements else []
    return _document_dict(plan, "control-implementations", implementations)


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
    return _document_dict(doc, "results", blocks)


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
    return _document_dict(doc, "poam-items", items)


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

    def renamed(record, path: str, **changes):
        """record with the uuid of its content path and `changes`; the old
        uuid maps to the new one."""
        new = mapping[record.uuid] = name_uuid(path)
        return record._replace(uuid=new, **changes)

    def ref(old: str) -> str:
        return mapping.get(old, old)

    if isinstance(doc, AssessmentResults):
        blocks = []
        for b, block in enumerate(doc.results):
            at = f"results[{b}]"
            observations = tuple(
                renamed(o, f"{at}/observations[{i}]/{o.relevant_control_id}/{o.stratum or ''}",
                        collected_at=DETERMINISTIC_EPOCH)
                for i, o in enumerate(block.observations)
            )
            findings = tuple(
                renamed(f, f"{at}/findings[{i}]/{f.target_control_id}",
                        related_observation_uuids=tuple(map(ref, f.related_observation_uuids)))
                for i, f in enumerate(block.findings)
            )
            risks = tuple(
                renamed(r, f"{at}/risks[{i}]", linked_finding_uuid=ref(r.linked_finding_uuid))
                for i, r in enumerate(block.risks)
            )
            blocks.append(renamed(
                block, at, start=DETERMINISTIC_EPOCH, end=DETERMINISTIC_EPOCH,
                observations=observations, findings=findings, risks=risks,
            ))
        body = {"results": tuple(blocks)}
    elif isinstance(doc, PoamDocument):
        unmapped = sorted({item.related_risk_uuid for item in doc.poam_items} - mapping.keys())
        if unmapped:
            # left as they are, these random uuids would change the bytes on every run
            raise SerializationFailure(
                f"POA&M refers to risk(s) {', '.join(unmapped)} that reference_map does "
                "not map; determinize the results document first and pass its uuid map"
            )
        body = {
            "poam_items": tuple(
                renamed(item, f"poam-items[{i}]", related_risk_uuid=ref(item.related_risk_uuid))
                for i, item in enumerate(doc.poam_items)
            )
        }
    elif isinstance(doc, AssessmentPlan):
        body = {}
    else:
        raise TypeError(f"cannot determinize {type(doc).__name__}")
    return renamed(doc, _ROOTS[type(doc)], last_modified=DETERMINISTIC_EPOCH, **body), mapping


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
        summary = "; ".join(map(str, violations[:5]))
        raise SerializationFailure(
            f"document fails structural validation ({len(violations)} violation(s)): {summary}"
        )
    if isinstance(doc, AssessmentResults):
        return canonical_json_bytes(results_to_dict(doc))
    return canonical_json_bytes(poam_to_dict(doc))


# --- dict/json -> document ---------------------------------------------------


def _finite(token: str, what: str) -> float:
    """A float prop; the writer never emits nan or inf, so neither is read."""
    value = parsed(float, token, what)
    if not math.isfinite(value):
        raise MalformedDocument(f"bad {what} {token!r}: not finite")
    return value


def _prop_values(props: list[PropertyEntry], where: str) -> dict[str, str]:
    """The value of each single-valued prop (every one but group-rate)."""
    return once(((p.name, p.value) for p in props if p.name != "group-rate"), f"{where} prop")


def _observation_from_dict(payload: dict) -> Observation:
    props = parse_props(payload, "observation")
    prop_map = _prop_values(props, "observation")
    observed: float | None = None
    if "observed-value" in prop_map:
        observed = _finite(prop_map["observed-value"], "observed-value")
    rates = []
    for prop in props:
        if prop.name == "group-rate":
            label, sep, rate = prop.value.rpartition("=")
            if not sep:
                raise MalformedDocument(f"bad group-rate entry {prop.value!r}")
            rates.append((label, rate))
    per_group = {
        label: _finite(rate, "group-rate")
        for label, rate in once(rates, "group-rate label").items()
    }
    methods = nested(payload, "methods", list) or ["TEST"]
    method = parsed(ObservationMethod, text(methods[0], "method"), "observation method")
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
        excluded_rows=parsed(int, prop_map.get("excluded-rows", "0"), "excluded-rows"),
        remarks=text(payload.get("remarks"), "remarks", None),
    )


def _finding_from_dict(payload: dict) -> Finding:
    target = nested(payload, "target", dict)
    state = text(nested(target, "status", dict).get("state"), "state")
    return Finding(
        uuid=text(payload.get("uuid"), "uuid"),
        title=text(payload.get("title"), "title"),
        target_control_id=text(target.get("target-id"), "target-id"),
        status=parsed(FindingStatus, state, "finding state"),
        related_observation_uuids=tuple(
            text(ref.get("observation-uuid"), "observation-uuid")
            for ref in objects(payload, "related-observations")
        ),
        remarks=text(payload.get("remarks"), "remarks", None),
    )


def _risk_from_dict(payload: dict) -> Risk:
    prop_map = _prop_values(parse_props(payload, "risk"), "risk")
    facets = once((
        (facet.name, facet.value)
        for characterization in objects(payload, "characterizations")
        for facet in parse_props(characterization, "risk", "facets")
    ), "risk facet")
    return Risk(
        uuid=text(payload.get("uuid"), "uuid"),
        title=text(payload.get("title"), "title"),
        status=parsed(RiskStatus, text(payload.get("status"), "status"), "risk status"),
        facets=tuple(facets.items()),
        linked_finding_uuid=prop_map.get("linked-finding", ""),
        risk_id_ref=prop_map.get("risk-id"),
    )


def _block_from_dict(payload: dict) -> ResultBlock:
    selections = objects(nested(payload, "reviewed-controls", dict), "control-selections")
    reviewed = tuple(
        text(entry.get("control-id"), "control-id")
        for selection in selections
        for entry in objects(selection, "include-controls")
    )
    return ResultBlock(
        uuid=text(payload.get("uuid"), "uuid"),
        title=text(payload.get("title"), "title"),
        start=timestamp(payload, "start"),
        end=timestamp(payload, "end"),
        observations=tuple(map(_observation_from_dict, objects(payload, "observations"))),
        findings=tuple(map(_finding_from_dict, objects(payload, "findings"))),
        risks=tuple(map(_risk_from_dict, objects(payload, "risks"))),
        reviewed_control_ids=reviewed,
    )


def _poam_item_from_dict(payload: dict) -> PoamItem:
    prop_map = _prop_values(parse_props(payload, "poam item"), "poam item")
    return PoamItem(
        uuid=text(payload.get("uuid"), "uuid"),
        title=text(payload.get("title"), "title"),
        description=text(payload.get("description"), "description"),
        related_risk_uuid=prop_map.get("related-risk", ""),
        status=parsed(RiskStatus, prop_map.get("status", ""), "poam item status"),
        treatment_id_ref=prop_map.get("treatment-id"),
    )


def _parse_document(source: bytes, kind: type, key: str, parse_item):
    """A `kind` document from JSON: its header, and parse_item of each
    object in its `key` list."""
    body = document_body(source, "json", _ROOTS[kind])
    metadata = nested(body, "metadata", dict)
    items = tuple(map(parse_item, objects(body, key)))
    return kind(
        uuid=text(body.get("uuid"), "uuid"),
        title=text(metadata.get("title"), "title"),
        version=text(metadata.get("version"), "version"),
        last_modified=timestamp(metadata, "last-modified"),
        **{key.replace("-", "_"): items},
    )


def parse_results_document(source: bytes) -> AssessmentResults:
    """Parse an assessment-results JSON document back into the model."""
    return _parse_document(source, AssessmentResults, "results", _block_from_dict)


def parse_poam_document(source: bytes) -> PoamDocument:
    """Parse a POA&M JSON document back into the model."""
    return _parse_document(source, PoamDocument, "poam-items", _poam_item_from_dict)
