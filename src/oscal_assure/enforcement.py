"""Plan execution for one lifecycle phase: control selection, metric
evaluation, threshold comparison, observation/finding/risk assembly,
enforcement modes and POA&M generation.

Failures never pass silently: evaluation errors become not-satisfied
findings with an evaluation-error remark and still raise a Risk.
"""

from __future__ import annotations

import dataclasses
import logging
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from .canonical import random_uuid, utc_now
from .errors import BlockingControlFailure, NotComputable, OscalAssureError, PolicyDataMismatch
from .metrics import JointCount, MetricContext, MetricOutcome, MetricRegistry, count_rows
from .plan import (
    AssessmentPlan,
    ControlSpec,
    EnforcementMode,
    EvaluationMethod,
    EvaluationWindow,
    LifecyclePhase,
    Operator,
    TargetType,
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
)
from .tabular import stratify, stratum_encoding

logger = logging.getLogger(__name__)


class VerdictOutcome(str, Enum):
    SATISFIED = "satisfied"
    NOT_SATISFIED = "not-satisfied"
    SKIPPED = "skipped"


class SkipReason(str, Enum):
    WINDOW_NOT_EXECUTABLE = "window-not-executable"
    MANUAL_ATTESTATION_REQUIRED = "manual-attestation-required"


class EnforcementAction(str, Enum):
    NONE = "none"
    LOGGED = "logged"
    WARNED = "warned"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class Verdict:
    """One control's outcome in one phase, with the records that back it and the action taken."""

    control_id: str
    outcome: VerdictOutcome
    skip_reason: SkipReason | None
    observations: tuple[Observation, ...]
    finding: Finding | None
    risk: Risk | None
    enforcement_action_taken: EnforcementAction

    @property
    def observed_value(self) -> float | None:
        for obs in self.observations:
            if obs.observed_value is not None:
                return obs.observed_value
        return None


@dataclass(frozen=True)
class PhaseReport:
    """The verdicts of one lifecycle phase and the documents built from them."""

    phase: LifecyclePhase
    verdicts: tuple[Verdict, ...]
    assessment_results: AssessmentResults
    poam: PoamDocument | None

    @property
    def blocked(self) -> bool:
        return any(
            v.enforcement_action_taken is EnforcementAction.BLOCKED for v in self.verdicts
        )

    def raise_if_blocked(self) -> None:
        if self.blocked:
            raise BlockingControlFailure(
                [
                    v.control_id
                    for v in self.verdicts
                    if v.enforcement_action_taken is EnforcementAction.BLOCKED
                ]
            )


_COMPARISONS = {
    Operator.GT: operator.gt,
    Operator.GE: operator.ge,
    Operator.LT: operator.lt,
    Operator.LE: operator.le,
    Operator.EQ: operator.eq,
    Operator.NE: operator.ne,
}

#: What a failed control's enforcement mode does, and the level it logs at.
_ON_FAILURE = {
    EnforcementMode.BLOCK: (EnforcementAction.BLOCKED, logging.ERROR),
    EnforcementMode.WARN: (EnforcementAction.WARNED, logging.WARNING),
    EnforcementMode.MONITOR: (EnforcementAction.LOGGED, logging.INFO),
}


def compare(value: float, operator: Operator, threshold: float) -> bool:
    """True iff the comparison holds. Exact IEEE comparison, no epsilon."""
    return _COMPARISONS[operator](value, threshold)


def select_controls(plan: AssessmentPlan, phase: LifecyclePhase) -> list[ControlSpec]:
    """Controls whose phases contain `phase`, in plan order."""
    return [spec for spec in plan.controls if phase in spec.lifecycle_phases]


def control_context(spec: ControlSpec, ctx: MetricContext) -> MetricContext:
    """Specialize a context for one control: merge metric params and pick
    the evaluation side from target_type."""
    return dataclasses.replace(
        ctx,
        params={**ctx.params, **spec.metric_params},
        evaluate_on="prediction" if spec.target_type is TargetType.MODEL else "target",
    )


def skip_reason(spec: ControlSpec) -> SkipReason | None:
    """Why enforcement skips this control, or None when it computes the
    control's metric."""
    if spec.evaluation_method is not EvaluationMethod.AUTOMATED:
        return SkipReason.MANUAL_ATTESTATION_REQUIRED
    if spec.evaluation_window is not EvaluationWindow.PER_RUN:
        return SkipReason.WINDOW_NOT_EXECUTABLE
    return None


def missing_roles(spec: ControlSpec, ctx: MetricContext, registry: MetricRegistry) -> list[str]:
    """Roles a control needs that the context does not provide."""
    if skip_reason(spec) is not None:
        return []
    try:
        return registry.missing_roles(spec.metric_key, control_context(spec, ctx))
    except OscalAssureError:
        return []  # unknown metric key: surfaces as an evaluation error later


def read_columns(
    specs: Iterable[ControlSpec], role_columns: Iterable[str | None]
) -> list[str]:
    """Every column that the built-in controls among specs can read, in
    first-seen order: role_columns (the columns bound to roles), then each
    control's group override and stratify_by column. None is skipped."""
    names = list(role_columns)
    for spec in specs:
        names += [spec.metric_params.get("group"), spec.stratify_by]
    return [n for n in dict.fromkeys(names) if n is not None]


def _with_joint_count(
    specs: list[ControlSpec], ctx: MetricContext, registry: MetricRegistry
) -> MetricContext:
    """ctx with one count of its rows over every column that the executable
    built-in controls among specs may read: the bound roles, group
    overrides and stratify_by columns, plus the weight. A column the table
    lacks is left out, so only the control that names it fails on it."""
    readers = [
        s for s in specs if skip_reason(s) is None and registry.reads_joint_count(s.metric_key)
    ]
    b = ctx.bindings
    if not readers or b is None:
        return ctx
    names = read_columns(readers, [b.target, b.prediction, b.group, ctx.params.get("group")])
    present = [n for n in names if ctx.table.has_column(n)]
    weight = b.weight if b.weight is not None and ctx.table.has_column(b.weight) else None
    return dataclasses.replace(ctx, joint=count_rows(ctx.table, present, weight))


def _joint_strata(ctx: MetricContext, by: str) -> list[tuple[str, MetricContext]]:
    """stratify's strata as shares of ctx.joint: same labels, order and
    errors (a missing cell and "" share the label ""), and no copied row."""
    stratum_encoding(ctx.table, by)  # refuses a column stratify refuses
    joint = ctx.joint
    at = joint.names.index(by)
    buckets: dict[str, dict] = {}
    for key, cell in joint.cells.items():
        buckets.setdefault(key[at] or "", {})[key] = cell
    return [
        (label, dataclasses.replace(ctx, joint=JointCount(joint.names, buckets[label])))
        for label in sorted(buckets)
    ]


def _observation(
    spec: ControlSpec,
    stratum: str | None,
    outcome: MetricOutcome | None,
    remarks: str | None,
    method: ObservationMethod = ObservationMethod.TEST,
) -> Observation:
    """The observation of one stratum's outcome (None when the control was
    skipped or its evaluation failed), titled by metric, control and stratum."""
    return Observation(
        uuid=random_uuid(),
        title=f"{spec.metric_key} ({spec.control_id})"
        + (f" [{stratum}]" if stratum is not None else ""),
        description=spec.description,
        method=method,
        observed_value=outcome.value if outcome else None,
        collected_at=utc_now(),
        relevant_control_id=spec.control_id,
        per_group=dict(outcome.per_group) if outcome and outcome.per_group else None,
        stratum=stratum,
        excluded_rows=outcome.excluded_rows if outcome else 0,
        remarks=remarks,
    )


def _build_risk(spec: ControlSpec, finding: Finding, failing: Observation) -> Risk:
    """The open risk of a failed control, described by its first failing observation."""
    value = failing.observed_value
    facets: list[tuple[str, str]] = [
        ("metric", spec.metric_key),
        ("actual", repr(value) if value is not None else "not-computable"),
        ("threshold", repr(spec.threshold)),
        ("operator", spec.operator.value),
    ]
    if failing.per_group:
        facets.append(("affected-groups", ", ".join(sorted(failing.per_group))))
    if failing.stratum is not None:
        facets.append(("stratum", failing.stratum))
    return Risk(
        uuid=random_uuid(),
        title=f"Control {spec.control_id} not satisfied: {spec.metric_key}",
        status=RiskStatus.OPEN,
        facets=tuple(facets),
        linked_finding_uuid=finding.uuid,
        risk_id_ref=spec.risk_id,
    )


def _evaluate_strata(
    spec: ControlSpec, ctx: MetricContext, registry: MetricRegistry
) -> Iterator[tuple[str | None, MetricOutcome | OscalAssureError]]:
    """Yield each stratum's label (None when unstratified) with the metric's
    outcome or the error it raised. A stratification that fails or yields
    no stratum is one unlabelled stratum whose evaluation failed, so the
    phase goes on and the control cannot pass on no evidence. Built-in
    metrics read strata of ctx.joint when it is set; otherwise each stratum
    is a stratified table."""
    if not registry.reads_joint_count(spec.metric_key):
        ctx = dataclasses.replace(ctx, joint=None)
    if spec.stratify_by is None:
        strata = [(None, ctx)]
    else:
        try:
            if ctx.joint is not None:
                strata = _joint_strata(ctx, spec.stratify_by)
            else:
                strata = [
                    (label, dataclasses.replace(ctx, table=table))
                    for label, table in stratify(ctx.table, spec.stratify_by)
                ]
            if not strata:
                raise NotComputable(f"no rows to stratify by {spec.stratify_by!r}")
        except OscalAssureError as exc:
            yield None, exc
            return
    for label, stratum_ctx in strata:
        try:
            result = registry.evaluate(spec.metric_key, stratum_ctx)
        except OscalAssureError as exc:
            result = exc
        yield label, result


def evaluate_control(
    spec: ControlSpec,
    ctx: MetricContext,
    registry: MetricRegistry,
    mode_override: EnforcementMode | None = None,
) -> Verdict:
    """Evaluate one control: the metric runs once per stratum when
    stratify_by is set, manual/hybrid and non-per-run controls are skipped,
    and evaluation errors fail closed (not-satisfied + evaluation-error)."""
    reason = skip_reason(spec)
    if reason is not None:
        method = (
            ObservationMethod.EXAMINE
            if reason is SkipReason.MANUAL_ATTESTATION_REQUIRED
            else ObservationMethod.TEST
        )
        skipped = _observation(spec, None, None, f"skipped: {reason.value}", method)
        return Verdict(
            control_id=spec.control_id,
            outcome=VerdictOutcome.SKIPPED,
            skip_reason=reason,
            observations=(skipped,),
            finding=None,
            risk=None,
            enforcement_action_taken=EnforcementAction.NONE,
        )

    observations: list[Observation] = []
    failures: list[Observation] = []
    evaluation_error = False
    for stratum, result in _evaluate_strata(spec, control_context(spec, ctx), registry):
        if isinstance(result, OscalAssureError):
            evaluation_error = True
            outcome, passed = None, False
            remarks: str | None = f"evaluation-error: {result}"
        else:
            outcome, passed = result, compare(result.value, spec.operator, spec.threshold)
            remarks = (
                f"excluded {outcome.excluded_rows} row(s) with missing bound values"
                if outcome.excluded_rows
                else None
            )
        observations.append(_observation(spec, stratum, outcome, remarks))
        if not passed:
            failures.append(observations[-1])

    finding = Finding(
        uuid=random_uuid(),
        title=f"{spec.control_id}: {spec.metric_key} {spec.operator.value} "
        f"{spec.threshold!r}",
        target_control_id=spec.control_id,
        status=FindingStatus.NOT_SATISFIED if failures else FindingStatus.SATISFIED,
        related_observation_uuids=tuple(obs.uuid for obs in observations),
        remarks="evaluation-error" if evaluation_error else None,
    )

    risk: Risk | None = None
    action = EnforcementAction.NONE
    if failures:
        risk = _build_risk(spec, finding, failures[0])
        detail = "; ".join(
            f"value {obs.observed_value!r}"
            + (f" in stratum {obs.stratum!r}" if obs.stratum else "")
            for obs in failures
        )
        message = (
            f"control {spec.control_id} not satisfied: {spec.metric_key} "
            f"{spec.operator.value} {spec.threshold!r} ({detail})"
        )
        mode = mode_override or spec.enforcement_mode
        action, level = _ON_FAILURE[mode]
        logger.log(level, "%s [%s]", message, mode.value)

    return Verdict(
        control_id=spec.control_id,
        outcome=VerdictOutcome.NOT_SATISFIED if failures else VerdictOutcome.SATISFIED,
        skip_reason=None,
        observations=tuple(observations),
        finding=finding,
        risk=risk,
        enforcement_action_taken=action,
    )


def enforce_phase(
    plan: AssessmentPlan,
    phase: LifecyclePhase,
    ctx: MetricContext,
    registry: MetricRegistry,
    mode_override: EnforcementMode | None = None,
) -> PhaseReport:
    """Evaluate all controls selected for a phase, in plan order.

    A block-mode failure does not stop evaluation of the remaining
    controls (complete evidence); the report is then blocked and the
    caller aborts at the process boundary after the phase. Roles that the
    selected controls need and ctx does not bind raise PolicyDataMismatch first.
    """
    selected = select_controls(plan, phase)
    unbound = [
        f"{spec.control_id} needs {', '.join(missing)}"
        for spec in selected
        if (missing := missing_roles(spec, ctx, registry))
    ]
    if unbound:
        raise PolicyDataMismatch(
            "bindings do not satisfy selected controls: " + "; ".join(unbound)
        )
    ctx = _with_joint_count(selected, ctx, registry)

    start = utc_now()
    verdicts = tuple(
        evaluate_control(spec, ctx, registry, mode_override) for spec in selected
    )
    end = utc_now()

    observations = tuple(obs for v in verdicts for obs in v.observations)
    findings = tuple(v.finding for v in verdicts if v.finding is not None)
    risks = tuple(v.risk for v in verdicts if v.risk is not None)
    block = ResultBlock(
        uuid=random_uuid(),
        title=f"{phase.value} phase",
        start=start,
        end=end,
        observations=observations,
        findings=findings,
        risks=risks,
        reviewed_control_ids=tuple(spec.control_id for spec in selected),
    )
    results = AssessmentResults(
        uuid=random_uuid(),
        title=f"Assessment results: {plan.title}" if plan.title else "Assessment results",
        version=plan.version,
        last_modified=end,
        results=(block,),
    )
    poam = generate_poam(results, plan) if risks else None
    return PhaseReport(phase=phase, verdicts=verdicts, assessment_results=results, poam=poam)


def generate_poam(results: AssessmentResults, plan: AssessmentPlan) -> PoamDocument:
    """One open POA&M item per open risk, carrying the originating
    control's treatment id when the plan declares one."""
    control_of_finding = {f.uuid: f.target_control_id for f in results.all_findings()}
    # reversed, so the first control of an id wins, as in plan.control
    treatments = {spec.control_id: spec.treatment_id for spec in reversed(plan.controls)}
    items = []
    for risk in results.all_risks():
        if risk.status is not RiskStatus.OPEN:
            continue
        treatment = treatments.get(control_of_finding.get(risk.linked_finding_uuid))
        metric = risk.facet("metric") or "metric"
        actual = risk.facet("actual") or "?"
        threshold = risk.facet("threshold") or "?"
        operator = risk.facet("operator") or "?"
        items.append(
            PoamItem(
                uuid=random_uuid(),
                title=f"Remediate: {risk.title}",
                description=(
                    f"{metric} was {actual}, required {operator} {threshold}."
                ),
                related_risk_uuid=risk.uuid,
                status=RiskStatus.OPEN,
                treatment_id_ref=treatment,
            )
        )
    return PoamDocument(
        uuid=random_uuid(),
        title=f"POA&M: {plan.title}" if plan.title else "POA&M",
        version=plan.version,
        last_modified=utc_now(),
        poam_items=tuple(items),
    )


def combine_reports(
    reports: list[PhaseReport],
) -> tuple[AssessmentResults | None, PoamDocument | None]:
    """Merge per-phase reports into one results document (one result block
    per phase) and one POA&M holding every open item."""
    if not reports:
        return None, None
    blocks = tuple(
        block for report in reports for block in report.assessment_results.results
    )
    first = reports[0].assessment_results
    merged = dataclasses.replace(
        first, uuid=random_uuid(), last_modified=utc_now(), results=blocks
    )
    items = tuple(
        item for report in reports if report.poam is not None for item in report.poam.poam_items
    )
    if not items:
        return merged, None
    first_poam = next(report.poam for report in reports if report.poam is not None)
    poam = dataclasses.replace(
        first_poam, uuid=random_uuid(), last_modified=utc_now(), poam_items=items
    )
    return merged, poam

