"""Command-line surface: validate | enforce | run | report | trace.

Exit codes: 0 success, 1 runtime/usage error, 2 a block-mode control
failed, 3 invalid policy document or structurally invalid results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .canonical import canonical_json_bytes
from .errors import DataError, MalformedDocument, OscalAssureError, PolicyDataMismatch, PolicyError
from .plan import (
    AssessmentPlan,
    ControlSpec,
    EnforcementMode,
    LifecyclePhase,
    control_properties,
    parse_plan_document,
    text,
    trace_chain,
)
from .results import validate_document_structure
from .serialize import POAM_FILE, parse_poam_document, parse_results_document

# The benchmark's traced pass wraps these two names on this module, so they stay
# bound here although evidence.document_files is what calls them.
from .serialize import determinize, serialize_canonical  # noqa: F401

if TYPE_CHECKING:
    from .enforcement import PhaseReport
    from .metrics import MetricContext

#: The names taken from the layers that only enforce and run use, by module.
#: main binds them on the first dispatch of one of those commands, so
#: validate, report and trace never load them; `cli.<name>` binds them too. A
#: name already set on this module (a test's patch, a span wrapper) is kept.
_LAYER_NAMES = {
    "enforcement": ("VerdictOutcome", "_with_joint_count", "enforce_phase", "read_columns"),
    "evidence": (
        "ArtifactRole", "HashingReader", "capture_environment", "document_files",
        "finalize_session", "ingest_dependency_manifest", "open_session", "record_artifact",
        "write_files",
    ),
    "metrics": ("MetricContext", "default_registry"),
    "tabular": ("EMPTY_TABLE", "bind_roles", "load_table"),
}


def _bind_layers() -> None:
    for module, names in _LAYER_NAMES.items():
        layer = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(layer, name))


def __getattr__(name: str):
    if any(name in names for names in _LAYER_NAMES.values()):
        _bind_layers()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BLOCKED = 2
EXIT_INVALID_POLICY = 3

_NO_PHASE = "no phase was executable with the given bindings."


class _Exit(Exception):
    """Ends a command: main prints the message to stderr and returns code."""

    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; 2 is taken
        raise _Exit(f"usage error: {message}")


def _plan_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix in (".yaml", ".yml"):
        return "yaml"
    raise _Exit(f"usage error: cannot infer policy format from extension {suffix!r} "
                "(use .json, .yaml, or .yml)")


def _load_plan(path: str) -> AssessmentPlan:
    source = Path(path)
    try:
        return parse_plan_document(source.read_bytes(), _plan_format(source))
    except PolicyError as exc:
        raise _Exit(f"invalid policy: {exc}", EXIT_INVALID_POLICY) from exc
    except OSError as exc:
        raise _Exit(f"cannot read policy: {exc}") from exc


def _split_binding(value: str, flag: str) -> tuple[str, str]:
    column, sep, positive = value.rpartition(":")
    if not sep or not column or not positive:
        raise _Exit(
            f"usage error: {flag} must look like column:positive-label, got {value!r}"
        )
    return column, positive


def _read_columns(args, plan: AssessmentPlan) -> list[str]:
    """Every column the command can read, so that only those are loaded.
    The role flags are split as _split_binding splits them, but a malformed
    one is left for it to refuse after the data has loaded."""
    flags = [flag.rpartition(":")[0] for flag in (args.target, args.prediction) if flag]
    return read_columns(plan.controls, [*flags, args.group, args.weight])


def _bind(args, plan: AssessmentPlan) -> tuple[MetricContext, str]:
    """The --data table, read once as a stream and bound to the role flags,
    and the SHA-256 of exactly the bytes it was loaded from."""
    with open(Path(args.data), "rb", buffering=0) as raw:
        stream = HashingReader(raw)
        table = load_table(stream, columns=_read_columns(args, plan))
    target, target_pos = _split_binding(args.target, "--target")
    prediction = prediction_pos = None
    if args.prediction:
        prediction, prediction_pos = _split_binding(args.prediction, "--prediction")
    bindings = bind_roles(table, target, target_pos, group=args.group, prediction=prediction,
                          prediction_positive=prediction_pos, weight=args.weight)
    return MetricContext(table=table, bindings=bindings), stream.hexdigest()


def _add_evaluation_flags(parser: argparse.ArgumentParser, target_required: bool) -> None:
    parser.add_argument(
        "--target",
        required=target_required,
        metavar="COL:POS",
        help="target column and its positive label",
    )
    parser.add_argument("--group", metavar="COL", help="group (protected attribute) column")
    parser.add_argument(
        "--prediction", metavar="COL:POS", help="prediction column and its positive label"
    )
    parser.add_argument("--weight", metavar="COL", help="sample weight column")
    parser.add_argument("--deterministic", action="store_true")
    parser.add_argument(
        "--mode-override", choices=[m.value for m in EnforcementMode], default=None
    )


#: A line of the verdict table: the header and every row share its widths.
_VERDICT_ROW = "{:<24} {:<30} {:>8} {:<3} {:>8} {:<30} {}"


def _print_verdict_table(report: PhaseReport, plan: AssessmentPlan) -> None:
    print(f"phase: {report.phase.value}")
    header = _VERDICT_ROW.format("CONTROL", "METRIC", "VALUE", "OP", "THRESH", "RESULT", "ACTION")
    print(header)
    print("-" * len(header))
    for verdict in report.verdicts:
        spec = plan.control(verdict.control_id)
        value = verdict.observed_value
        value_text = f"{value:.3f}" if value is not None else "-"
        if verdict.outcome is VerdictOutcome.SATISFIED:
            result = "PASS"
        elif verdict.outcome is VerdictOutcome.NOT_SATISFIED:
            result = "FAIL"
        else:
            result = f"SKIP ({verdict.skip_reason.value})"
        print(_VERDICT_ROW.format(
            verdict.control_id, spec.metric_key, value_text, spec.operator.value,
            f"{spec.threshold:.3f}", result, verdict.enforcement_action_taken.value,
        ))
    print()


def _evaluate(
    plan: AssessmentPlan,
    phases: list[LifecyclePhase],
    ctx: MetricContext,
    mode_override: str | None,
) -> list[PhaseReport]:
    """The reports of the phases, in order, up to and including the first
    blocked one, each verdict table printed as its phase ends. A phase
    whose controls need roles that ctx does not bind is skipped with a note.
    The rows are counted once, over the columns of every phase's controls."""
    registry = default_registry()
    mode = EnforcementMode(mode_override) if mode_override else None
    specs = [spec for spec in plan.controls if not spec.lifecycle_phases.isdisjoint(phases)]
    ctx = _with_joint_count(specs, ctx, registry)
    reports = []
    for phase in phases:
        try:
            report = enforce_phase(plan, phase, ctx, registry, mode_override=mode)
        except PolicyDataMismatch as exc:
            print(f"phase {phase.value}: skipped, {exc}", file=sys.stderr)
            continue
        reports.append(report)
        _print_verdict_table(report, plan)
        if report.blocked:
            break
    return reports


# --- subcommands -------------------------------------------------------------


def cmd_validate(args) -> int:
    plan = _load_plan(args.policy)

    print(f"{args.policy}: valid assessment plan, {len(plan.controls)} control(s)")
    for spec in plan.controls:
        print(f"\ncontrol {spec.control_id}: {spec.description}")
        for entry in control_properties(spec):
            print(f"  {entry.name}: {entry.value}")
    return EXIT_OK


def cmd_enforce(args) -> int:
    plan = _load_plan(args.policy)
    ctx, _ = _bind(args, plan)
    default = "training" if ctx.bindings.prediction is None else "validation"
    phase = LifecyclePhase(args.phase or default)

    reports = _evaluate(plan, [phase], ctx, args.mode_override)
    if not reports:
        raise PolicyDataMismatch(_NO_PHASE)
    report = reports[0]
    out_dir = Path(args.out)
    documents = document_files(report.assessment_results, report.poam, args.deterministic)
    written = write_files(out_dir, documents)
    if report.poam is None:
        # a POA&M left by an earlier run does not belong to these results;
        # it goes only once they are in place, so a failed write keeps the pair
        (out_dir / POAM_FILE).unlink(missing_ok=True)
    for name in written:
        print(f"wrote {out_dir / name}")
    if report.blocked:
        raise _Exit("BLOCKED: a block-mode control failed; aborting.", EXIT_BLOCKED)
    return EXIT_OK


def cmd_run(args) -> int:
    plan = _load_plan(args.policy)
    if not args.data:
        ctx = MetricContext(table=EMPTY_TABLE, bindings=None)
    elif not args.target:
        raise _Exit("usage error: --target is required when --data is given")
    else:
        ctx, data_sha256 = _bind(args, plan)

    session = open_session(args.run_id, args.vault)
    try:
        capture_environment(session)
        if args.data:
            record = record_artifact(session, args.data, role=ArtifactRole.INPUT_DATA)
            if record.sha256 != data_sha256:
                raise DataError(f"input data changed during the run: {args.data}")
        for path in args.hash or []:
            record_artifact(session, path, role=ArtifactRole.OTHER)
        if args.bom:
            ingest_dependency_manifest(session, args.bom)

        reports = _evaluate(plan, plan.phases_present(), ctx, args.mode_override)
        blocked = bool(reports) and reports[-1].blocked
        if blocked:
            print(
                f"phase {reports[-1].phase.value} blocked; remaining phases not evaluated.",
                file=sys.stderr,
            )
        # only the reports are needed from here: the input is freed before
        # the documents are serialized
        del ctx
        bundle = finalize_session(session, reports, deterministic=args.deterministic)
    except (OscalAssureError, OSError):
        # a failed run leaves no empty run directory to push the next run
        # with this id onto a suffix; one with files is kept
        with contextlib.suppress(OSError):
            session.run_dir.rmdir()
        raise

    print(f"vault: {session.run_dir}")
    for name in bundle.written_files:
        print(f"  {name}")
    if not bundle.handshake_ok:
        raise _Exit(f"handshake failed: {_NO_PHASE}")
    return EXIT_BLOCKED if blocked else EXIT_OK


def cmd_report(args) -> int:
    results_path = Path(args.results)
    try:
        results = parse_results_document(results_path.read_bytes())
    except (OscalAssureError, OSError) as exc:
        raise _Exit(f"cannot parse results: {exc}") from exc

    violations = validate_document_structure(results)
    if violations:
        raise _Exit("\n".join(f"structural violation at {v}" for v in violations),
                    EXIT_INVALID_POLICY)

    poam = None
    poam_path = results_path.parent / POAM_FILE
    if poam_path.exists():
        try:
            poam = parse_poam_document(poam_path.read_bytes())
            # a POA&M left by another run does not cover these results' risks
            mismatch = validate_document_structure(poam, results)
            if mismatch:
                raise MalformedDocument(f"it does not match the results: {mismatch[0]}")
        except (OscalAssureError, OSError) as exc:
            poam = None
            print(f"note: ignoring sibling POA&M ({exc})", file=sys.stderr)

    if args.format == "json":
        sys.stdout.write(canonical_json_bytes(_report_payload(results, poam)).decode("utf-8"))
        return EXIT_OK

    total_findings = results.all_findings()
    if not total_findings:
        print("no findings")
    for block in results.results:
        print(f"== {block.title} ({block.start.isoformat()} .. {block.end.isoformat()})")
        for finding in block.findings:
            marker = "PASS" if finding.status.value == "satisfied" else "FAIL"
            print(f"  [{marker}] {finding.title}")
        for obs in block.observations:
            if obs.per_group:
                rates = ", ".join(
                    f"{label}: {rate:.4f}" for label, rate in sorted(obs.per_group.items())
                )
                print(f"    {obs.title}: group rates {rates}")
        for risk in block.risks:
            facets = {name: value for name, value in risk.facets}
            metric = facets.get("metric", "?")
            # the engine's titles end in the metric, which is then not repeated
            title = risk.title if risk.title.endswith(metric) else f"{risk.title}: {metric}"
            actual = _round_token(facets.get("actual", "?"))
            threshold = _round_token(facets.get("threshold", "?"))
            line = f"  RISK {title} {actual} {facets.get('operator', '?')} {threshold}"
            if "affected-groups" in facets:
                line += f" (groups: {facets['affected-groups']})"
            print(line)
    if poam is not None and poam.poam_items:
        print("== POA&M")
        for item in poam.poam_items:
            treatment = f" [treatment {item.treatment_id_ref}]" if item.treatment_id_ref else ""
            print(f"  [{item.status.value}] {item.title}{treatment}")
    return EXIT_OK


def _round_token(token: str) -> str:
    try:
        return f"{float(token):.3f}"
    except ValueError:
        return token


def _report_payload(results, poam) -> dict:
    blocks = []
    for block in results.results:
        blocks.append(
            {
                "title": block.title,
                "findings": [
                    {
                        "control_id": f.target_control_id,
                        "status": f.status.value,
                        "title": f.title,
                    }
                    for f in block.findings
                ],
                "observations": [
                    {
                        "control_id": o.relevant_control_id,
                        "value": o.observed_value,
                        "stratum": o.stratum,
                        "per_group": o.per_group,
                        "remarks": o.remarks,
                    }
                    for o in block.observations
                ],
                "risks": [
                    {
                        "title": r.title,
                        "status": r.status.value,
                        "facets": dict(r.facets),
                    }
                    for r in block.risks
                ],
            }
        )
    payload = {"results": blocks}
    if poam is not None:
        payload["poam_items"] = [
            {
                "title": item.title,
                "status": item.status.value,
                "related_risk_uuid": item.related_risk_uuid,
                "treatment_id_ref": item.treatment_id_ref,
            }
            for item in poam.poam_items
        ]
    return payload


def cmd_trace(args) -> int:
    plan = _load_plan(args.policy)

    labels = None
    if args.labels:
        try:
            raw = json.loads(Path(args.labels).read_text(encoding="utf-8-sig"))
            if not isinstance(raw, dict):
                raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
            # by the documents' text rule: a null label reads as empty, so none is printed
            labels = {key: text(value, f"label {key!r}") for key, value in raw.items()}
        # ValueError covers undecodable bytes and bad JSON
        except (OSError, ValueError, RecursionError, MalformedDocument) as exc:
            raise _Exit(f"cannot read labels registry: {exc}") from exc

    try:
        spec: ControlSpec = plan.control(args.control_id)
    except KeyError:
        raise _Exit(f"unknown control {args.control_id!r}") from None

    chain = trace_chain(spec, labels)
    for kind, identifier in reversed(chain.links):
        label = chain.resolved_labels.get(identifier)
        suffix = f"  {label}" if label else ""
        print(f"{kind:<10} {identifier}{suffix}")
    print(f"{'control':<10} {spec.control_id}  {spec.description}")
    return EXIT_OK


# --- entry point --------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="oscal-assure", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="show monitor-mode log lines")
    parser.set_defaults(layers=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a policy and list its properties")
    p.add_argument("policy")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("enforce", help="evaluate one lifecycle phase against data")
    p.add_argument("policy")
    p.add_argument("data")
    p.add_argument("--phase", choices=[m.value for m in LifecyclePhase])
    _add_evaluation_flags(p, target_required=True)
    p.add_argument("--out", default=".", help="directory for output documents")
    p.set_defaults(func=cmd_enforce, layers=True)

    p = sub.add_parser("run", help="evidence session around enforcement")
    p.add_argument("run_id")
    p.add_argument("policy")
    p.add_argument("--data", default=None)
    _add_evaluation_flags(p, target_required=False)
    p.add_argument("--hash", action="append", metavar="PATH",
                   help="artifact to hash into the evidence bundle (repeatable)")
    p.add_argument("--bom", default=None, metavar="LOCKFILE",
                   help="dependency manifest to ingest as a CycloneDX-subset BOM")
    p.add_argument("--vault", default=None, help="vault root (overrides OSCAL_ASSURE_VAULT)")
    p.set_defaults(func=cmd_run, layers=True)

    p = sub.add_parser("report", help="render an assessment-results document")
    p.add_argument("results")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("trace", help="print a control's traceability chain")
    p.add_argument("policy")
    p.add_argument("control_id")
    p.add_argument("--labels", default=None, help="JSON file mapping ids to labels")
    p.set_defaults(func=cmd_trace)

    return parser


@contextlib.contextmanager
def _logging_to_stderr(verbose: bool):
    """Log the package's records at INFO with --verbose, else at WARNING.
    Where no handler would take them (the process has not configured
    logging) they go to this call's stderr, one line each. Both are undone
    on exit, so a later in-process call logs to its own stream and level."""
    import logging

    logger = logging.getLogger(__package__)
    level = logger.level
    logger.setLevel(logging.INFO if verbose else logging.WARNING)
    handler = None
    if not logger.hasHandlers():
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not args.layers:
            return args.func(args)
        _bind_layers()
        with _logging_to_stderr(args.verbose):
            return args.func(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except (OscalAssureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> int:
    """The process entry of `oscal-assure` and `python -m oscal_assure.cli`:
    main, then gc.freeze(), so the collections of interpreter shutdown skip
    what the run left alive; the OS frees it. atexit handlers and the flush
    of stdout and stderr still run, and the CLI closes every file it opens
    itself, so no cycle left uncollected holds one. main(argv), the
    in-process API, never freezes: a long-lived process would never collect
    a frozen heap."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
