from __future__ import annotations

import dataclasses
import math
from datetime import timedelta

import pytest

from conftest import (
    MEDICAL_HEADER,
    assert_structurally_valid,
    make_control,
    make_plan,
    table_from_rows,
)
from oscal_assure import (
    BlockingControlFailure,
    MetricContext,
    MetricOutcome,
    VerdictOutcome,
    bind_roles,
    compare,
    default_registry,
    enforce_phase,
    evaluate_control,
    generate_poam,
    select_controls,
    trace_chain,
    validate_document_structure,
)
from oscal_assure import enforcement, metrics
from oscal_assure.enforcement import EnforcementAction, SkipReason, read_columns
from oscal_assure.errors import PolicyDataMismatch
from oscal_assure.plan import (
    EnforcementMode,
    EvaluationMethod,
    EvaluationWindow,
    LifecyclePhase,
    Operator,
    TargetType,
)
from oscal_assure.results import FindingStatus, ObservationMethod, RiskStatus


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def small_ctx():
    table = table_from_rows(
        ["g", "y", "p"],
        [
            ["A", "1", "1"],
            ["A", "0", "0"],
            ["B", "1", "1"],
            ["B", "1", "0"],
        ],
    )
    bindings = bind_roles(table, "y", "1", group="g", prediction="p", prediction_positive="1")
    return MetricContext(table=table, bindings=bindings)


# --- compare -------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,operator,threshold,expected",
    [
        (0.429, Operator.GT, 0.20, True),
        (0.818, Operator.GT, 0.80, True),
        (0.286, Operator.GT, 0.50, False),
        (0.795, Operator.GE, 0.70, True),
        (0.012, Operator.LT, 0.10, True),
    ],
)
def test_compare_reproduces_audit_verdicts(value, operator, threshold, expected):
    assert compare(value, operator, threshold) is expected


@pytest.mark.parametrize("x", [0.0, -1.5, 0.8, 1e300])
def test_ge_is_reflexive(x):
    assert compare(x, Operator.GE, x) is True


@pytest.mark.parametrize(
    "operator, below, at, above",
    [
        (Operator.GT, False, False, True),
        (Operator.GE, False, True, True),
        (Operator.LT, True, False, False),
        (Operator.LE, True, True, False),
        (Operator.EQ, False, True, False),
        (Operator.NE, True, False, True),
    ],
)
def test_equality_at_threshold_resolved_by_operator_only(operator, below, at, above):
    assert [compare(value, operator, 0.5) for value in (0.4, 0.5, 0.6)] == [below, at, above]


# --- select_controls -----------------------------------------------------------


def test_multi_phase_control_selected_for_each_phase():
    spec = make_control(
        "c1",
        lifecycle_phases=frozenset(
            {LifecyclePhase.TRAINING, LifecyclePhase.MONITORING}
        ),
    )
    plan = make_plan([spec])
    assert select_controls(plan, LifecyclePhase.TRAINING) == [spec]
    assert select_controls(plan, LifecyclePhase.MONITORING) == [spec]


def test_incident_query_on_training_only_plan_is_empty():
    plan = make_plan([make_control("c1")])
    assert select_controls(plan, LifecyclePhase.INCIDENT) == []


# --- evaluate_control -----------------------------------------------------------


def test_failing_di_control_generates_risk_with_mandatory_facets(
    scenario_a_plan, scenario_a_ctx, registry
):
    spec = scenario_a_plan.control("credit-age-di")
    verdict = evaluate_control(spec, scenario_a_ctx, registry)
    assert verdict.outcome is VerdictOutcome.NOT_SATISFIED
    assert verdict.finding.status is FindingStatus.NOT_SATISFIED
    risk = verdict.risk
    assert risk is not None
    facets = dict(risk.facets)
    assert facets["metric"] == "disparate_impact"
    assert float(facets["actual"]) == pytest.approx(0.286, abs=0.001)
    assert float(facets["threshold"]) == 0.50
    assert facets["operator"] == "gt"
    assert risk.risk_id_ref == "R-043"


def test_passing_accuracy_control_has_no_risk(scenario_a_plan, scenario_a_ctx, registry):
    spec = scenario_a_plan.control("credit-accuracy")
    verdict = evaluate_control(spec, scenario_a_ctx, registry)
    assert verdict.outcome is VerdictOutcome.SATISFIED
    assert verdict.observed_value == pytest.approx(0.795, abs=1e-12)
    assert verdict.risk is None


@pytest.mark.parametrize(
    "method", [EvaluationMethod.MANUAL, EvaluationMethod.HYBRID]
)
def test_manual_and_hybrid_controls_skip_without_value_or_risk(
    small_ctx, registry, method
):
    spec = make_control("m1", evaluation_method=method)
    verdict = evaluate_control(spec, small_ctx, registry)
    assert verdict.outcome is VerdictOutcome.SKIPPED
    assert verdict.skip_reason is SkipReason.MANUAL_ATTESTATION_REQUIRED
    assert verdict.observed_value is None
    assert verdict.finding is None
    assert verdict.risk is None
    (observation,) = verdict.observations
    assert observation.method is ObservationMethod.EXAMINE
    assert observation.remarks == "skipped: manual-attestation-required"
    assert observation.title == f"{spec.metric_key} (m1)"


@pytest.mark.parametrize(
    "window", [EvaluationWindow.PERIODIC, EvaluationWindow.SLIDING]
)
def test_non_per_run_window_is_skipped(small_ctx, registry, window):
    spec = make_control("w1", evaluation_window=window)
    verdict = evaluate_control(spec, small_ctx, registry)
    assert verdict.outcome is VerdictOutcome.SKIPPED
    assert verdict.skip_reason is SkipReason.WINDOW_NOT_EXECUTABLE
    (observation,) = verdict.observations
    assert observation.method is ObservationMethod.TEST
    assert observation.remarks == "skipped: window-not-executable"
    assert observation.title == f"{spec.metric_key} (w1)"


def test_unknown_metric_is_a_not_satisfied_evaluation_error(small_ctx, registry):
    spec = make_control("u1", metric_key="no_such_metric")
    verdict = evaluate_control(spec, small_ctx, registry)
    assert verdict.outcome is VerdictOutcome.NOT_SATISFIED
    assert verdict.finding.remarks == "evaluation-error"
    assert verdict.observations[0].remarks.startswith("evaluation-error")
    assert dict(verdict.risk.facets)["actual"] == "not-computable"


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_metric_with_a_non_finite_value_is_a_not_satisfied_evaluation_error(
    small_ctx, registry, value
):
    registry.register("non_finite", lambda ctx: MetricOutcome(value=value), {"target"})
    plan = make_plan([make_control("nf1", metric_key="non_finite")])
    (verdict,) = enforce_phase(plan, LifecyclePhase.TRAINING, small_ctx, registry).verdicts
    assert verdict.outcome is VerdictOutcome.NOT_SATISFIED
    assert verdict.observations[0].remarks == (
        "evaluation-error: metric 'non_finite' produced a non-finite value"
    )
    assert dict(verdict.risk.facets)["actual"] == "not-computable"


def test_read_columns_names_the_roles_then_each_controls_group_and_strata():
    specs = [
        make_control("by-site", stratify_by="site"),
        make_control("by-age", metric_params={"group": "age"}, stratify_by="g"),
        make_control("plain"),
    ]
    assert read_columns(specs, ["y", None, "g", "w"]) == ["y", "g", "w", "site", "age"]


def test_a_phase_keeps_a_joint_count_that_holds_its_columns(
    scenario_a_plan, scenario_a_ctx, registry, monkeypatch
):
    # the count of every phase's columns, as the CLI makes it once per run
    shared = enforcement._with_joint_count(
        list(scenario_a_plan.controls), scenario_a_ctx, registry
    )
    counted = []

    def recording(table, names, weight=None):
        counted.append(tuple(names))
        return metrics.count_rows(table, names, weight)

    monkeypatch.setattr(enforcement, "count_rows", recording)
    for phase in (LifecyclePhase.TRAINING, LifecyclePhase.VALIDATION):
        alone = enforce_phase(scenario_a_plan, phase, scenario_a_ctx, registry)
        kept = enforce_phase(scenario_a_plan, phase, shared, registry)
        assert [
            (obs.observed_value, obs.per_group, obs.excluded_rows)
            for v in kept.verdicts for obs in v.observations
        ] == [
            (obs.observed_value, obs.per_group, obs.excluded_rows)
            for v in alone.verdicts for obs in v.observations
        ]
    assert counted == [
        ("class", "prediction", "gender", "age_group"), ("class", "prediction", "gender")
    ]
    # a count that lacks a column the phase reads is not kept
    narrow = dataclasses.replace(shared, joint=metrics.JointCount(("class",), {}))
    enforce_phase(scenario_a_plan, LifecyclePhase.VALIDATION, narrow, registry)
    assert counted[-1] == ("class", "prediction", "gender")
    assert len(counted) == 3


def test_broken_stratification_fails_closed_without_crashing_the_phase(
    small_ctx, registry
):
    bad_column = make_control("strat-miss", stratify_by="no_such_column")
    numeric = make_control("strat-num", stratify_by="y")
    healthy = make_control("still-runs", threshold=0.0)
    plan = make_plan([bad_column, numeric, healthy])
    report = enforce_phase(plan, LifecyclePhase.TRAINING, small_ctx, registry)
    assert [v.outcome for v in report.verdicts] == [
        VerdictOutcome.NOT_SATISFIED,
        VerdictOutcome.NOT_SATISFIED,
        VerdictOutcome.SATISFIED,
    ]
    for verdict in report.verdicts[:2]:
        assert verdict.finding.remarks == "evaluation-error"
        assert dict(verdict.risk.facets)["actual"] == "not-computable"
    assert_structurally_valid(report.assessment_results, report.poam)


def test_stratified_control_fails_on_any_failing_stratum(registry):
    # stratum s1 passes accuracy >= 0.75 (1/1), stratum s2 fails (1/2)
    table = table_from_rows(
        ["site", "y", "p"],
        [
            ["s1", "1", "1"],
            ["s2", "1", "1"],
            ["s2", "0", "1"],
        ],
    )
    bindings = bind_roles(table, "y", "1", prediction="p", prediction_positive="1")
    ctx = MetricContext(table=table, bindings=bindings)
    spec = make_control(
        "strat",
        metric_key="accuracy",
        operator=Operator.GE,
        threshold=0.75,
        target_type=TargetType.MODEL,
        stratify_by="site",
    )
    verdict = evaluate_control(spec, ctx, registry)
    assert len(verdict.observations) == 2
    assert [obs.stratum for obs in verdict.observations] == ["s1", "s2"]
    assert verdict.outcome is VerdictOutcome.NOT_SATISFIED
    assert dict(verdict.risk.facets)["stratum"] == "s2"


def test_stratified_controls_on_a_table_without_rows_fail_closed(medical_plan, registry):
    table = table_from_rows(MEDICAL_HEADER, [])
    bindings = bind_roles(
        table, "truth", "lesion", prediction="pred", prediction_positive="lesion"
    )
    ctx = MetricContext(table=table, bindings=bindings)
    stratified = [spec for spec in medical_plan.controls if spec.stratify_by is not None]
    assert len(stratified) == 6
    for spec in stratified:
        verdict = evaluate_control(spec, ctx, registry)
        assert verdict.outcome is VerdictOutcome.NOT_SATISFIED
        assert verdict.finding.remarks == "evaluation-error"
        (observation,) = verdict.observations
        assert observation.remarks == (
            f"evaluation-error: no rows to stratify by {spec.stratify_by!r}"
        )
        assert dict(verdict.risk.facets)["actual"] == "not-computable"


# --- enforce_phase ---------------------------------------------------------------


def test_scenario_a_pre_training_artifact_counts(scenario_a_plan, scenario_a_ctx, registry):
    report = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    )
    block = report.assessment_results.results[0]
    assert len(block.observations) == 3
    assert len(block.findings) == 3
    statuses = [f.status for f in block.findings]
    assert statuses.count(FindingStatus.SATISFIED) == 2
    assert statuses.count(FindingStatus.NOT_SATISFIED) == 1
    assert len(block.risks) == 1
    assert report.poam is not None
    assert len(report.poam.poam_items) == 1
    assert report.blocked is True
    assert_structurally_valid(report.assessment_results, report.poam)


def test_scenario_a_post_training_artifact_counts(scenario_a_plan, scenario_a_ctx, registry):
    report = enforce_phase(
        scenario_a_plan, LifecyclePhase.VALIDATION, scenario_a_ctx, registry
    )
    block = report.assessment_results.results[0]
    assert len(block.findings) == 2
    assert len(block.risks) == 0
    assert report.poam is None
    assert report.blocked is False
    assert_structurally_valid(report.assessment_results)


def test_empty_plan_yields_empty_result_block(registry, small_ctx):
    report = enforce_phase(
        make_plan([]), LifecyclePhase.TRAINING, small_ctx, registry
    )
    assert report.verdicts == ()
    assert report.assessment_results.results[0].observations == ()
    assert report.blocked is False
    assert report.poam is None


def test_verdict_count_equals_selected_count(scenario_a_plan, scenario_a_ctx, registry):
    for phase in (LifecyclePhase.TRAINING, LifecyclePhase.VALIDATION):
        report = enforce_phase(scenario_a_plan, phase, scenario_a_ctx, registry)
        assert len(report.verdicts) == len(select_controls(scenario_a_plan, phase))


def test_missing_role_fails_fast_before_evaluation(registry):
    table = table_from_rows(["y"], [["1"], ["0"]])
    ctx = MetricContext(table=table, bindings=bind_roles(table, "y", "1"))
    plan = make_plan([make_control("di", metric_key="disparate_impact", threshold=0.8)])
    with pytest.raises(PolicyDataMismatch, match="di needs group"):
        enforce_phase(plan, LifecyclePhase.TRAINING, ctx, registry)


def test_block_failure_still_evaluates_remaining_controls(registry, small_ctx):
    failing = make_control(
        "first-blocks",
        metric_key="accuracy",
        operator=Operator.GE,
        threshold=1.01,
        target_type=TargetType.MODEL,
        enforcement_mode=EnforcementMode.BLOCK,
    )
    trailing = make_control(
        "still-runs",
        metric_key="accuracy",
        operator=Operator.GE,
        threshold=0.0,
        target_type=TargetType.MODEL,
    )
    plan = make_plan([failing, trailing])
    report = enforce_phase(plan, LifecyclePhase.TRAINING, small_ctx, registry)
    assert report.blocked is True
    assert [v.control_id for v in report.verdicts] == ["first-blocks", "still-runs"]
    assert report.verdicts[1].outcome is VerdictOutcome.SATISFIED
    with pytest.raises(BlockingControlFailure, match="first-blocks"):
        report.raise_if_blocked()


def test_mode_override_changes_actions_not_findings(scenario_a_plan, scenario_a_ctx, registry):
    blocked = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    )
    monitored = enforce_phase(
        scenario_a_plan,
        LifecyclePhase.TRAINING,
        scenario_a_ctx,
        registry,
        mode_override=EnforcementMode.MONITOR,
    )
    assert monitored.blocked is False
    assert [v.outcome for v in monitored.verdicts] == [
        v.outcome for v in blocked.verdicts
    ]
    assert [f.status for f in monitored.assessment_results.results[0].findings] == [
        f.status for f in blocked.assessment_results.results[0].findings
    ]
    actions = [v.enforcement_action_taken for v in monitored.verdicts]
    assert EnforcementAction.BLOCKED not in actions
    assert EnforcementAction.LOGGED in actions


def test_medical_cohort_plan_produces_37_evaluation_rows(medical_plan, medical_ctx, registry):
    report = enforce_phase(
        medical_plan, LifecyclePhase.VALIDATION, medical_ctx, registry
    )
    block = report.assessment_results.results[0]
    assert len(block.observations) == 37
    assert len(block.findings) == 7
    assert report.blocked is False
    assert_structurally_valid(report.assessment_results)


# --- generate_poam ----------------------------------------------------------------


def test_poam_item_carries_treatment_id(scenario_a_plan, scenario_a_ctx, registry):
    report = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    )
    poam = generate_poam(report.assessment_results, scenario_a_plan)
    assert len(poam.poam_items) == 1
    item = poam.poam_items[0]
    assert item.treatment_id_ref == "T-018"
    assert item.status is RiskStatus.OPEN
    assert item.related_risk_uuid == report.assessment_results.results[0].risks[0].uuid


@pytest.mark.parametrize("missing", ["finding", "control"])
def test_poam_item_has_no_treatment_when_its_finding_or_control_is_missing(
    scenario_a_plan, scenario_a_ctx, registry, missing
):
    results = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    ).assessment_results
    plan = scenario_a_plan
    if missing == "finding":
        (block,) = results.results
        results = dataclasses.replace(results, results=(dataclasses.replace(block, findings=()),))
    else:
        plan = dataclasses.replace(plan, controls=())
    (item,) = generate_poam(results, plan).poam_items
    assert item.treatment_id_ref is None


def test_poam_empty_when_no_risks(scenario_a_plan, scenario_a_ctx, registry):
    report = enforce_phase(
        scenario_a_plan, LifecyclePhase.VALIDATION, scenario_a_ctx, registry
    )
    poam = generate_poam(report.assessment_results, scenario_a_plan)
    assert poam.poam_items == ()


def test_three_risks_make_three_items_linked_to_distinct_risks(registry, small_ctx):
    controls = [
        make_control(
            f"fail-{i}",
            metric_key="accuracy",
            operator=Operator.GE,
            threshold=1.01,
            target_type=TargetType.MODEL,
            treatment_id=f"T-{i}",
        )
        for i in range(3)
    ]
    report = enforce_phase(
        make_plan(controls), LifecyclePhase.TRAINING, small_ctx, registry
    )
    poam = report.poam
    assert len(poam.poam_items) == 3
    risk_refs = {item.related_risk_uuid for item in poam.poam_items}
    assert len(risk_refs) == 3
    assert {item.treatment_id_ref for item in poam.poam_items} == {"T-0", "T-1", "T-2"}
    assert_structurally_valid(report.assessment_results, poam)


# --- traceability -------------------------------------------------------------------


def test_trace_chain_resolves_labels(scenario_a_plan):
    labels = {
        "T-017": "apply group-aware reweighting",
        "R-042": "gender discrimination in credit approval",
    }
    chain = trace_chain(scenario_a_plan.control("credit-gender-di"), labels)
    assert chain.links[:2] == (("treatment", "T-017"), ("risk", "R-042"))
    assert chain.resolved_labels["T-017"] == "apply group-aware reweighting"
    assert chain.resolved_labels["R-042"] == "gender discrimination in credit approval"


def test_trace_chain_empty_without_ids():
    chain = trace_chain(make_control("bare"))
    assert chain.links == ()
    assert chain.resolved_labels == {}


def test_trace_chain_policy_only_does_not_fabricate_links():
    chain = trace_chain(make_control("p-only", policy_id="P-9"))
    assert chain.links == (("policy", "P-9"),)


# --- structural validator negatives ---------------------------------------------------


def test_validator_flags_duplicate_poam_items_for_one_risk(
    scenario_a_plan, scenario_a_ctx, registry
):
    report = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    )
    poam = report.poam
    duplicate = dataclasses.replace(poam.poam_items[0], uuid="22222222-0000-0000-0000-000000000000")
    bad_poam = dataclasses.replace(poam, poam_items=poam.poam_items + (duplicate,))
    violations = validate_document_structure(bad_poam)
    assert [v.rule for v in violations] == ["poam-cardinality"]


def test_validator_flags_open_risk_without_poam_item(
    scenario_a_plan, scenario_a_ctx, registry
):
    report = enforce_phase(
        scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry
    )
    empty_poam = dataclasses.replace(report.poam, poam_items=())
    violations = validate_document_structure(
        empty_poam, results=report.assessment_results
    )
    assert [v.rule for v in violations] == ["poam-cardinality"]


def _edit_block(results, **changes):
    """The results with their one result block changed."""
    (block,) = results.results
    return dataclasses.replace(results, results=(dataclasses.replace(block, **changes),))


def _edit_first(items, **changes):
    return (dataclasses.replace(items[0], **changes),) + items[1:]


def _with_risk_linked_to(results, status, state):
    """The results with their risk set to status and its finding to state."""
    (block,) = results.results
    (risk,) = block.risks
    findings = tuple(
        dataclasses.replace(f, status=state) if f.uuid == risk.linked_finding_uuid else f
        for f in block.findings
    )
    risks = (dataclasses.replace(risk, status=status),)
    return _edit_block(results, findings=findings, risks=risks)


BROKEN_DOCUMENTS = {
    "end-before-start": (
        lambda r, p: _edit_block(r, end=r.results[0].start - timedelta(milliseconds=1)),
        [("time-order", "results[0]")],
    ),
    "nan-value-without-remark": (
        lambda r, p: _edit_block(r, observations=_edit_first(
            r.results[0].observations, observed_value=float("nan"), remarks=None)),
        [("value-not-finite", "results[0].observations[0]")],
    ),
    "finding-with-unknown-observation": (
        lambda r, p: _edit_block(r, findings=_edit_first(
            r.results[0].findings, related_observation_uuids=("not-a-real-uuid",))),
        [("reference-missing", "results[0].findings[0]")],
    ),
    "finding-without-observation": (
        lambda r, p: _edit_block(r, findings=_edit_first(
            r.results[0].findings, related_observation_uuids=())),
        [("reference-missing", "results[0].findings[0]")],
    ),
    "risk-without-threshold-facet": (
        lambda r, p: _edit_block(r, risks=_edit_first(r.results[0].risks, facets=tuple(
            facet for facet in r.results[0].risks[0].facets if facet[0] != "threshold"))),
        [("facet-missing", "results[0].risks[0]")],
    ),
    "open-risk-on-satisfied-finding": (
        lambda r, p: _with_risk_linked_to(r, RiskStatus.OPEN, FindingStatus.SATISFIED),
        [("risk-status", "results[0].risks[0]")],
    ),
    "closed-risk-on-satisfied-finding": (
        lambda r, p: _with_risk_linked_to(r, RiskStatus.CLOSED, FindingStatus.SATISFIED),
        [],
    ),
    "poam-item-without-risk": (
        lambda r, p: dataclasses.replace(
            p, poam_items=_edit_first(p.poam_items, related_risk_uuid="")),
        [("reference-missing", "poam-items[0]")],
    ),
}


@pytest.mark.parametrize("case", BROKEN_DOCUMENTS)
def test_validator_names_each_rule_and_path(scenario_a_plan, scenario_a_ctx, registry, case):
    report = enforce_phase(scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry)
    assert_structurally_valid(report.assessment_results, report.poam)
    edit, expected = BROKEN_DOCUMENTS[case]
    document = edit(report.assessment_results, report.poam)
    assert [(v.rule, v.path) for v in validate_document_structure(document)] == expected
