"""Compliance-as-code engine for AI assurance: OSCAL assessment plans with
16 AI property extensions, a metric registry with enforcement semantics,
and machine-readable evidence bundles (assessment results, POA&M, vault).

`import oscal_assure` loads none of the modules below: each public name is
imported from its module on first use (PEP 562), so a program loads only
the layers it touches.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, by the module that defines it.
_EXPORTS = {
    "enforcement": (
        "EnforcementAction", "PhaseReport", "SkipReason", "Verdict", "VerdictOutcome",
        "combine_reports", "compare", "enforce_phase", "evaluate_control", "generate_poam",
        "select_controls",
    ),
    "errors": ("BlockingControlFailure", "OscalAssureError", "PolicyDataMismatch", "PolicyError"),
    "evidence": (
        "ArtifactRecord", "ArtifactRole", "DependencyBom", "EnvFingerprint", "EvidenceBundle",
        "RunSession", "capture_environment", "finalize_session", "ingest_dependency_manifest",
        "open_session", "record_artifact", "verify_artifact_records",
    ),
    "metrics": (
        "MetricContext", "MetricOutcome", "MetricRegistry", "class_imbalance_ratio",
        "confusion_metrics", "default_registry", "demographic_parity_difference",
        "disparate_impact", "group_positive_rates", "group_reweight",
    ),
    "plan": (
        "AssessmentPlan", "ControlSpec", "EnforcementMode", "EvaluationMethod", "EvaluationWindow",
        "LifecyclePhase", "Operator", "PropertyEntry", "Severity", "TargetType", "TraceChain",
        "extract_control_spec", "parse_plan_document", "trace_chain",
    ),
    "results": (
        "AssessmentResults", "Finding", "FindingStatus", "Observation", "PoamDocument", "Risk",
        "RiskStatus", "StructuralViolation", "validate_document_structure",
    ),
    "serialize": (
        "determinize", "parse_poam_document", "parse_results_document", "serialize_canonical",
    ),
    "tabular": ("DataTable", "RoleBindings", "bind_roles", "dump_table", "load_table", "stratify"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
