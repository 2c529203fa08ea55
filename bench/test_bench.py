"""Tests of the benchmark itself: span nesting, and that the correctness
gate catches a planted fault. Run from the repo root:

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import spans
from checks import Checker
from workloads import COHORT_CONTROLS, CREDIT_CONTROLS, WORKLOADS, generate_cohorts

ROOT = Path(__file__).resolve().parents[1]


def _traced_main(workdir: Path, argv, monkeypatch) -> list[dict]:
    from oscal_assure import cli

    monkeypatch.chdir(workdir)
    recorder = spans.SpanRecorder("test")
    with spans.instrument(recorder):
        recorder.wrap(cli.main, "cli.main")(list(argv))
    return recorder.as_dicts()


@pytest.mark.parametrize(
    "generate, argv, controls",
    [
        (WORKLOADS["gate-churn"].generate, WORKLOADS["credit-rows"].run_argv,
         [control for control, *_ in CREDIT_CONTROLS]),
        (lambda root, workdir, seed: generate_cohorts(root, workdir, seed, cohorts=12),
         WORKLOADS["cohort-strata"].run_argv,
         [control for control, *_ in COHORT_CONTROLS]),
    ],
    ids=["credit", "cohorts"],
)
def test_one_evaluate_control_span_per_control_and_evaluate_nests_under_it(
    tmp_path, monkeypatch, generate, argv, controls
):
    from oscal_assure import cli, enforcement, metrics, tabular

    generate(ROOT, tmp_path, 7)
    (tmp_path / "vault").mkdir()
    recorded = _traced_main(tmp_path, argv, monkeypatch)

    by_id = {span["span_id"]: span for span in recorded}
    control_spans = [s for s in recorded if s["name"] == "enforcement.evaluate_control"]
    assert Counter(s["attributes"]["control_id"] for s in control_spans) == Counter(controls)
    evaluates = [s for s in recorded if s["name"] == "metrics.evaluate"]
    assert evaluates
    for span in evaluates:
        assert by_id[span["parent_span_id"]]["name"] == "enforcement.evaluate_control"

    # every wrapper is removed again
    assert cli.load_table is tabular.load_table
    assert enforcement.stratify is tabular.stratify
    assert not hasattr(metrics.MetricRegistry.evaluate, "__wrapped__")


def test_host_speed_calibrates_at_most_once_per_interval_and_scales_by_the_mean(monkeypatch):
    calibrations = iter([0.5, 0.7, 0.2])
    clock = iter([0.0, 0.5, 1.5, 1.6, 3.0, 3.1])
    monkeypatch.setattr(run, "calibration_s", lambda: next(calibrations))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(run, "CALIBRATE_EVERY_S", 1.0)
    speed = run.HostSpeed()
    for _ in range(3):
        speed.tick()
    assert speed.calibrations == [0.5, 0.7, 0.2]
    assert speed.scale() == run.CALIBRATION_REF_S / ((0.5 + 0.7 + 0.2) / 3)


def test_checker_flags_a_one_ulp_value_change_and_a_changed_hashed_byte(tmp_path):
    workload = WORKLOADS["gate-churn"]
    reference, _ = workload.generate(ROOT, tmp_path, 3)
    (tmp_path / "vault").mkdir()
    out = run.cli_process(tmp_path)(workload.run_argv)
    assert Checker(reference, tmp_path).check_run(out) == []

    results = tmp_path / "vault" / "runs" / "credit-scoring" / "assessment-results.oscal.json"
    value = reference.values[("credit-age-di", None)]
    text = results.read_text(encoding="utf-8")
    assert repr(value) in text
    perturbed = text.replace(repr(value), repr(math.nextafter(value, 1.0)), 1)
    results.write_text(perturbed, encoding="utf-8")
    problems = Checker(reference, tmp_path).check_run(out)
    assert len(problems) == 1 and "credit-age-di" in problems[0]

    results.write_text(text, encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_bytes(data.read_bytes().replace(b"female", b"Female", 1))
    problems = Checker(reference, tmp_path).check_run(out)
    assert problems == ["hashes.json digest of data.csv does not match the file"]


PLANTED_FAULT = '''

# planted fault: disparate impact one ulp high
import dataclasses as _dataclasses
import math as _math

_evaluate = MetricRegistry.evaluate


def _planted_evaluate(self, key, ctx):
    outcome = _evaluate(self, key, ctx)
    if key == "disparate_impact":
        outcome = _dataclasses.replace(outcome, value=_math.nextafter(outcome.value, 2.0))
    return outcome


MetricRegistry.evaluate = _planted_evaluate
'''


def _copy_checkout(dest: Path, parts) -> None:
    for part in parts:
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copyfile(source, dest / part)


def _bench(checkout: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gate-churn", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=120,
    )


def test_planted_fault_counts_in_failed_frac_and_fails_the_command(tmp_path):
    _copy_checkout(tmp_path, ("BENCHMARK.json", "bench", "demo", "src"))
    with open(tmp_path / "src" / "oscal_assure" / "metrics.py", "a", encoding="utf-8") as handle:
        handle.write(PLANTED_FAULT)

    proc = _bench(tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.split()[:2] == ["failed_frac", "1"] for line in proc.stdout.splitlines())


def test_bare_benchmark_directory_exits_non_zero_without_a_result(tmp_path):
    _copy_checkout(tmp_path, ("BENCHMARK.json", "bench"))
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
