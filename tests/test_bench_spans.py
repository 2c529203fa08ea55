"""The benchmark's traced pass (bench/spans.py) wraps functions by the names
its callers look them up under in oscal_assure's modules. A name that moves
or goes away breaks that pass, so it is checked here too: every wrapped
name must exist, and a traced `run` and `enforce` must still record the
determinize, serialize and vault-write spans the bench reports on.
"""

from __future__ import annotations

import importlib.util
import sys

from conftest import DEMO_DIR, REPO_ROOT, SCENARIO_A_DATA, SCENARIO_A_PLAN
from oscal_assure import cli, evidence, serialize
from oscal_assure.cli import main


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", REPO_ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_the_bench_wraps_existing_names_and_sees_both_writers(tmp_path, monkeypatch, capsys):
    spans = _load_spans(monkeypatch)
    roles = ["--target", "class:good", "--group", "gender", "--deterministic"]
    with spans.instrument(spans.SpanRecorder("t")) as recorder:
        code = main(["run", "r", str(SCENARIO_A_PLAN), "--data", str(SCENARIO_A_DATA),
                     "--prediction", "prediction:good", "--bom",
                     str(DEMO_DIR / "requirements-lock.txt"), "--vault",
                     str(tmp_path / "vault"), *roles])
        assert code == 2
        code = main(["enforce", str(SCENARIO_A_PLAN), str(SCENARIO_A_DATA),
                     "--out", str(tmp_path / "out"), *roles])
        assert code == 2
    assert cli.determinize is evidence.determinize is serialize.determinize

    recorded = recorder.as_dicts()
    metrics = spans.iteration_metrics(recorded)
    for name in ("serialize.determinize_s", "serialize.serialize_s", "evidence.bytes_written"):
        assert metrics[name] > 0, name
    # the vault's documents are serialized inside finalize_session, enforce's outside it
    finalize = {s["span_id"] for s in recorded if s["name"] == "evidence.finalize_session"}
    for name in ("serialize.determinize", "serialize.serialize_canonical"):
        parents = {s["parent_span_id"] in finalize for s in recorded if s["name"] == name}
        assert parents == {True, False}, name
