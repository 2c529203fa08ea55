"""Assessment-results and POA&M document model plus the internal
structural validator (the in-library approximation of schema checking).
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterator
from datetime import datetime
from enum import Enum
from typing import NamedTuple


class ObservationMethod(str, Enum):
    TEST = "TEST"
    EXAMINE = "EXAMINE"


class FindingStatus(str, Enum):
    SATISFIED = "satisfied"
    NOT_SATISFIED = "not-satisfied"


class RiskStatus(str, Enum):
    OPEN = "open"
    CLOSED = "closed"


class Observation(NamedTuple):
    """An OSCAL observation: one measured metric value, overall or for one stratum."""

    uuid: str
    title: str
    description: str
    method: ObservationMethod
    observed_value: float | None
    collected_at: datetime
    relevant_control_id: str
    per_group: dict[str, float] | None = None
    stratum: str | None = None
    excluded_rows: int = 0
    remarks: str | None = None


class Finding(NamedTuple):
    """An OSCAL finding: a control's status and the observations behind it."""

    uuid: str
    title: str
    target_control_id: str
    status: FindingStatus
    related_observation_uuids: tuple[str, ...]
    remarks: str | None = None


class Risk(NamedTuple):
    """An OSCAL risk opened by a failed finding, with the facets that describe the failure."""

    uuid: str
    title: str
    status: RiskStatus
    facets: tuple[tuple[str, str], ...]
    linked_finding_uuid: str
    risk_id_ref: str | None = None

    def facet(self, name: str) -> str | None:
        for facet_name, value in self.facets:
            if facet_name == name:
                return value
        return None


class ResultBlock(NamedTuple):
    """One OSCAL `result`: the observations, findings and risks of one phase's assessment."""

    uuid: str
    title: str
    start: datetime
    end: datetime
    observations: tuple[Observation, ...]
    findings: tuple[Finding, ...]
    risks: tuple[Risk, ...]
    reviewed_control_ids: tuple[str, ...] = ()


class AssessmentResults(NamedTuple):
    """An OSCAL assessment-results document."""

    uuid: str
    title: str
    version: str
    last_modified: datetime
    results: tuple[ResultBlock, ...]

    def all_risks(self) -> list[Risk]:
        return [risk for block in self.results for risk in block.risks]

    def all_findings(self) -> list[Finding]:
        return [finding for block in self.results for finding in block.findings]


class PoamItem(NamedTuple):
    """One POA&M item: the remediation of one risk."""

    uuid: str
    title: str
    description: str
    related_risk_uuid: str
    status: RiskStatus
    treatment_id_ref: str | None = None


class PoamDocument(NamedTuple):
    """An OSCAL plan of action and milestones (POA&M) document."""

    uuid: str
    title: str
    version: str
    last_modified: datetime
    poam_items: tuple[PoamItem, ...]


class StructuralViolation(NamedTuple):
    """One broken structural rule of a document, with the path where it breaks."""

    path: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: [{self.rule}] {self.message}"


_MANDATORY_FACETS = ("metric", "actual", "threshold", "operator")


def _uuid(uuid: str, path: str) -> Iterator[StructuralViolation]:
    if not uuid or not str(uuid).strip():
        yield StructuralViolation(path, "uuid-missing", "uuid is empty")


def _references(
    path: str, source: str, target: str, refs: tuple[str, ...], known: Collection[str] = ()
) -> Iterator[StructuralViolation]:
    """The reference-missing rule: the `source` at path references at least
    one `target`, and each of refs is in known."""
    if not refs:
        yield StructuralViolation(path, "reference-missing", f"{source} references no {target}")
    for ref in refs:
        if ref not in known:
            yield StructuralViolation(
                path, "reference-missing", f"{source} references unknown {target} {ref}"
            )


def _results_violations(doc: AssessmentResults) -> Iterator[StructuralViolation]:
    yield from _uuid(doc.uuid, "assessment-results")
    for b, block in enumerate(doc.results):
        base = f"results[{b}]"
        yield from _uuid(block.uuid, base)
        if block.end < block.start:
            yield StructuralViolation(base, "time-order", "end precedes start")
        observation_uuids = set()
        for i, obs in enumerate(block.observations):
            path = f"{base}.observations[{i}]"
            yield from _uuid(obs.uuid, path)
            observation_uuids.add(obs.uuid)
            finite = obs.observed_value is not None and math.isfinite(obs.observed_value)
            if not finite and not obs.remarks:
                yield StructuralViolation(
                    path,
                    "value-not-finite",
                    "observation has no finite value and no explanatory remark",
                )
        findings: dict[str, Finding] = {}
        for i, finding in enumerate(block.findings):
            path = f"{base}.findings[{i}]"
            yield from _uuid(finding.uuid, path)
            findings[finding.uuid] = finding
            refs = finding.related_observation_uuids
            yield from _references(path, "finding", "observation", refs, observation_uuids)
        for i, risk in enumerate(block.risks):
            path = f"{base}.risks[{i}]"
            yield from _uuid(risk.uuid, path)
            refs = (risk.linked_finding_uuid,) if risk.linked_finding_uuid else ()
            yield from _references(path, "risk", "finding", refs, findings)
            linked = findings.get(risk.linked_finding_uuid)
            if (linked is not None and risk.status is RiskStatus.OPEN
                    and linked.status is FindingStatus.SATISFIED):
                # a risk is raised only by a failed finding: an edited state shows here
                yield StructuralViolation(
                    path,
                    "risk-status",
                    f"open risk links to satisfied finding {risk.linked_finding_uuid}",
                )
            present = {name for name, _ in risk.facets}
            for required in _MANDATORY_FACETS:
                if required not in present:
                    yield StructuralViolation(
                        path, "facet-missing", f"risk lacks facet {required!r}"
                    )


def _poam_violations(
    doc: PoamDocument, results: AssessmentResults | None
) -> Iterator[StructuralViolation]:
    yield from _uuid(doc.uuid, "poam")
    seen_risks: dict[str, int] = {}
    for i, item in enumerate(doc.poam_items):
        path = f"poam-items[{i}]"
        yield from _uuid(item.uuid, path)
        if not item.related_risk_uuid:
            yield from _references(path, "item", "risk", ())
        elif item.related_risk_uuid in seen_risks:
            yield StructuralViolation(
                path,
                "poam-cardinality",
                f"risk {item.related_risk_uuid} already covered by "
                f"poam-items[{seen_risks[item.related_risk_uuid]}]",
            )
        else:
            seen_risks[item.related_risk_uuid] = i
    if results is None:
        return
    known = {risk.uuid: risk for risk in results.all_risks()}
    for i, item in enumerate(doc.poam_items):
        if item.related_risk_uuid:
            yield from _references(
                f"poam-items[{i}]", "item", "risk", (item.related_risk_uuid,), known
            )
    for uuid, risk in known.items():
        if risk.status is RiskStatus.OPEN and uuid not in seen_risks:
            yield StructuralViolation(
                "poam-items", "poam-cardinality", f"open risk {uuid} has no poam item"
            )


def validate_document_structure(
    doc: AssessmentResults | PoamDocument,
    results: AssessmentResults | None = None,
) -> list[StructuralViolation]:
    """Structural checks: uuid presence, reference integrity, mandatory
    facets, no open risk on a satisfied finding, POA&M cardinality. Empty
    list means the document is valid.

    Passing the paired assessment results alongside a POA&M additionally
    checks the one-item-per-open-risk contract.
    """
    if isinstance(doc, AssessmentResults):
        return list(_results_violations(doc))
    if isinstance(doc, PoamDocument):
        return list(_poam_violations(doc, results))
    raise TypeError(f"cannot validate {type(doc).__name__}")
