"""Span recorder and the wrappers that put spans on oscal_assure's module
boundaries, for the benchmark's traced pass.

Stdlib only. Span fields follow the OpenTelemetry span model by name
(trace_id, span_id, parent_span_id, name, start/end time, attributes); the
OpenTelemetry package is not used. Times come from time.perf_counter_ns.

Each wrapper is installed where the caller looks the name up (for example
``enforcement.stratify``, not ``tabular.stratify``), so nothing in
``src/`` changes. ``instrument`` restores every original on exit.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    trace_id: str
    span_id: str
    parent_span_id: str | None
    name: str
    start_time_ns: int
    end_time_ns: int = 0
    attributes: dict = field(default_factory=dict)


class SpanRecorder:
    """Keeps the spans of one trace in memory; single-threaded."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, fn, name: str, describe=None):
        """Return fn wrapped in a span called `name`. `describe(result,
        *args, **kwargs)` returns span attributes; it runs after the span's
        end time is taken, so its cost is not charged to the span."""

        def wrapper(*args, **kwargs):
            span = Span(
                trace_id=self.trace_id,
                span_id=f"{len(self.spans) + 1:016x}",
                parent_span_id=self._open[-1].span_id if self._open else None,
                name=name,
                start_time_ns=0,
            )
            self.spans.append(span)
            self._open.append(span)
            span.start_time_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end_time_ns = time.perf_counter_ns()
                span.attributes["error"] = type(exc).__name__
                raise
            finally:
                self._open.pop()
            span.end_time_ns = time.perf_counter_ns()
            if describe is not None:
                span.attributes.update(describe(result, *args, **kwargs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def as_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _runs_present(session) -> int:
    return sum(1 for _ in (session.vault_root / "runs").iterdir())


def _written_bytes(bundle) -> int:
    return sum(
        (Path(bundle.session.run_dir) / name).stat().st_size
        for name in bundle.written_files
    )


def _boundaries():
    """(owner, attribute, span name, describe) for every wrapped call site."""
    from oscal_assure import cli, enforcement, evidence, metrics

    return [
        (cli, "parse_plan_document", "plan.parse_plan_document",
         lambda plan, *a, **k: {"controls": len(plan.controls)}),
        (cli, "load_table", "tabular.load_table",
         lambda t, *a, **k: {"rows": t.row_count, "cells": t.row_count * len(t.column_names)}),
        (cli, "bind_roles", "tabular.bind_roles", None),
        (enforcement, "stratify", "tabular.stratify",
         lambda strata, table, by: {
             "by": by,
             "strata": len(strata),
             "rows_copied": sum(t.row_count for _, t in strata),
         }),
        (metrics.MetricRegistry, "evaluate", "metrics.evaluate",
         lambda out, registry, key, ctx: {
             "metric": key,
             "rows_scanned": ctx.table.row_count,
             "rows_excluded": out.excluded_rows,
         }),
        (cli, "enforce_phase", "enforcement.enforce_phase",
         lambda report, *a, **k: {"phase": report.phase.value}),
        (enforcement, "evaluate_control", "enforcement.evaluate_control",
         lambda verdict, *a, **k: {
             "control_id": verdict.control_id,
             "outcome": verdict.outcome.value,
             "observations": len(verdict.observations),
         }),
        (cli, "determinize", "serialize.determinize", None),
        (evidence, "determinize", "serialize.determinize", None),
        (cli, "serialize_canonical", "serialize.serialize_canonical",
         lambda data, *a, **k: {"bytes": len(data)}),
        (evidence, "serialize_canonical", "serialize.serialize_canonical",
         lambda data, *a, **k: {"bytes": len(data)}),
        (cli, "parse_results_document", "serialize.parse_results_document",
         lambda doc, source: {"bytes": len(source)}),
        (cli, "parse_poam_document", "serialize.parse_poam_document",
         lambda doc, source: {"bytes": len(source)}),
        (cli, "validate_document_structure", "results.validate_document_structure",
         lambda violations, *a, **k: {"violations": len(violations)}),
        (cli, "open_session", "evidence.open_session",
         lambda session, *a, **k: {"vault_runs_at_open": _runs_present(session) - 1}),
        (cli, "capture_environment", "evidence.capture_environment", None),
        (cli, "record_artifact", "evidence.record_artifact",
         lambda record, *a, **k: {"bytes": record.byte_size}),
        (cli, "ingest_dependency_manifest", "evidence.ingest_dependency_manifest",
         lambda bom, *a, **k: {"components": len(bom.components)}),
        (cli, "finalize_session", "evidence.finalize_session",
         lambda bundle, *a, **k: {
             "files": len(bundle.written_files),
             "bytes": _written_bytes(bundle),
         }),
    ]


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Install span wrappers on every module boundary; restore on exit."""
    originals = []
    try:
        for owner, attr, name, describe in _boundaries():
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, describe))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# --- aggregation -------------------------------------------------------------

#: Per-layer time metrics: name -> (span names, "self" or "total").
#: Self time is a span's duration minus the time its child spans cover.
TIMES = {
    "cli.self_s": (("cli.main",), "self"),
    "plan.parse_s": (("plan.parse_plan_document",), "total"),
    "tabular.load_s": (("tabular.load_table",), "total"),
    "tabular.bind_s": (("tabular.bind_roles",), "total"),
    "tabular.stratify_s": (("tabular.stratify",), "total"),
    "metrics.evaluate_s": (("metrics.evaluate",), "total"),
    "enforcement.phase_s": (("enforcement.enforce_phase",), "total"),
    "enforcement.self_s": (
        ("enforcement.enforce_phase", "enforcement.evaluate_control"), "self"),
    "serialize.determinize_s": (("serialize.determinize",), "total"),
    "serialize.serialize_s": (("serialize.serialize_canonical",), "total"),
    "serialize.parse_s": (
        ("serialize.parse_results_document", "serialize.parse_poam_document"), "total"),
    "results.validate_s": (("results.validate_document_structure",), "total"),
    "evidence.open_session_s": (("evidence.open_session",), "total"),
    "evidence.hash_s": (("evidence.record_artifact",), "total"),
    "evidence.env_s": (("evidence.capture_environment",), "total"),
    "evidence.bom_s": (("evidence.ingest_dependency_manifest",), "total"),
    "evidence.finalize_self_s": (("evidence.finalize_session",), "self"),
}


def self_times_ns(spans: list[dict]) -> dict[str, int]:
    """span_id -> self time. Spans of one thread never overlap their
    siblings, so the children's durations add up to the time they cover."""
    covered: dict[tuple[str, str | None], int] = defaultdict(int)
    for span in spans:
        covered[(span["trace_id"], span["parent_span_id"])] += (
            span["end_time_ns"] - span["start_time_ns"]
        )
    return {
        (span["trace_id"], span["span_id"]): span["end_time_ns"]
        - span["start_time_ns"]
        - covered[(span["trace_id"], span["span_id"])]
        for span in spans
    }


def layer_self_s(spans: list[dict]) -> dict[str, float]:
    """Self time per layer (the module prefix of the span name)."""
    selfs = self_times_ns(spans)
    layers: dict[str, int] = defaultdict(int)
    for span in spans:
        layers[span["name"].split(".", 1)[0]] += selfs[(span["trace_id"], span["span_id"])]
    return {layer: ns / 1e9 for layer, ns in sorted(layers.items())}


def iteration_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts for the spans of one iteration (one or
    more invocations, each its own trace)."""
    selfs = self_times_ns(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def attr_sum(name: str, key: str) -> int:
        return sum(span["attributes"].get(key, 0) for span in by_name[name])

    out: dict[str, float] = {}
    for metric, (names, kind) in TIMES.items():
        total = 0
        for name in names:
            for span in by_name[name]:
                total += (
                    selfs[(span["trace_id"], span["span_id"])]
                    if kind == "self"
                    else span["end_time_ns"] - span["start_time_ns"]
                )
        out[metric] = total / 1e9

    rows_loaded = attr_sum("tabular.load_table", "rows")
    rows_scanned = attr_sum("metrics.evaluate", "rows_scanned")
    phases = len(by_name["enforcement.enforce_phase"])
    controls = by_name["enforcement.evaluate_control"]
    out.update({
        "plan.controls": attr_sum("plan.parse_plan_document", "controls"),
        "tabular.rows_loaded": rows_loaded,
        "tabular.cells_loaded": attr_sum("tabular.load_table", "cells"),
        "tabular.stratify_calls": len(by_name["tabular.stratify"]),
        "tabular.rows_copied": attr_sum("tabular.stratify", "rows_copied"),
        "metrics.evaluate_calls": len(by_name["metrics.evaluate"]),
        "metrics.rows_scanned": rows_scanned,
        "metrics.rows_excluded": attr_sum("metrics.evaluate", "rows_excluded"),
        "metrics.scan_ratio": (
            rows_scanned / (rows_loaded * phases) if rows_loaded and phases else 0.0
        ),
        "enforcement.controls": len(controls),
        "enforcement.observations": attr_sum("enforcement.evaluate_control", "observations"),
        "enforcement.failed_controls": sum(
            1 for span in controls if span["attributes"].get("outcome") == "not-satisfied"
        ),
        "serialize.bytes_out": attr_sum("serialize.serialize_canonical", "bytes"),
        "evidence.vault_runs_at_open": attr_sum("evidence.open_session", "vault_runs_at_open"),
        "evidence.bytes_hashed": attr_sum("evidence.record_artifact", "bytes"),
        "evidence.files_written": attr_sum("evidence.finalize_session", "files"),
        "evidence.bytes_written": attr_sum("evidence.finalize_session", "bytes"),
    })
    return out
