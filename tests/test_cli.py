from __future__ import annotations

import contextlib
import gc
import io
import json
import logging
import shutil
import weakref
from pathlib import Path

import pytest

from conftest import DEMO_DIR, FIG2_PLAN, SCENARIO_A_DATA, SCENARIO_A_PLAN
from oscal_assure import cli, evidence
from oscal_assure.cli import main

MONITORING_PLAN = """\
assessment-plan:
  metadata:
    title: "Runtime monitoring plan"
  control-implementations:
    - implemented-requirements:
        - control-id: drift-check
          props:
            - {name: metric_key, value: demographic_parity_difference}
            - {name: operator, value: lt}
            - {name: threshold, value: "0.10"}
            - {name: lifecycle_phase, value: monitoring}
            - {name: evaluation_window, value: sliding}
        - control-id: weekly-fairness
          props:
            - {name: metric_key, value: disparate_impact}
            - {name: operator, value: gt}
            - {name: threshold, value: "0.80"}
            - {name: lifecycle_phase, value: monitoring}
            - {name: evaluation_window, value: periodic}
"""

INVALID_MODE_PLAN = """\
assessment-plan:
  metadata:
    title: "bad plan"
  control-implementations:
    - implemented-requirements:
        - control-id: halting-control
          props:
            - {name: metric_key, value: accuracy}
            - {name: operator, value: ge}
            - {name: threshold, value: "0.5"}
            - {name: enforcement_mode, value: halt}
"""


def enforce_args(out_dir: Path, *extra: str) -> list[str]:
    return [
        "enforce",
        str(SCENARIO_A_PLAN),
        str(SCENARIO_A_DATA),
        "--target",
        "class:good",
        "--group",
        "gender",
        "--out",
        str(out_dir),
        *extra,
    ]


# --- validate -------------------------------------------------------------------


def test_validate_fig2_exits_zero_and_lists_properties(capsys):
    assert main(["validate", str(FIG2_PLAN)]) == 0
    out = capsys.readouterr().out
    assert "credit-data-bias" in out
    for name in ("metric_key", "operator", "threshold", "severity", "lifecycle_phase",
                 "enforcement_mode", "evaluation_method", "evaluation_window",
                 "target_type", "risk_id", "treatment_id", "risk_acceptance_criteria",
                 "threshold_justification"):
        assert name in out


def test_validate_invalid_mode_exits_three_naming_control(tmp_path, capsys):
    policy = tmp_path / "bad.yaml"
    policy.write_text(INVALID_MODE_PLAN)
    assert main(["validate", str(policy)]) == 3
    err = capsys.readouterr().err
    assert "halting-control" in err
    assert "enforcement_mode" in err
    assert "halt" in err


def test_validate_plan_with_a_falsy_non_object_exits_three(tmp_path, capsys):
    policy = tmp_path / "plan.json"
    policy.write_text('{"assessment-plan": {"metadata": 0, "control-implementations": false}}')
    assert main(["validate", str(policy)]) == 3
    assert "'metadata' must be an object" in capsys.readouterr().err


def test_validate_missing_file_exits_one(tmp_path):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 1


# --- enforce --------------------------------------------------------------------


def test_enforce_pre_training_blocks_with_exit_two(tmp_path, capsys):
    code = main(enforce_args(tmp_path))
    out = capsys.readouterr().out
    assert code == 2
    lines = [line for line in out.splitlines() if line.startswith("credit-")]
    assert [line.split()[-2] for line in lines] == ["PASS", "PASS", "FAIL"]
    assert (tmp_path / "assessment-results.oscal.json").exists()
    assert (tmp_path / "poam.oscal.json").exists()


def test_enforce_post_training_passes_with_exit_zero(tmp_path, capsys):
    code = main(
        enforce_args(tmp_path, "--prediction", "prediction:good")
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "phase: validation" in out
    lines = [line for line in out.splitlines() if line.startswith("credit-")]
    assert [line.split()[-2] for line in lines] == ["PASS", "PASS"]
    assert not (tmp_path / "poam.oscal.json").exists()


def test_enforce_explicit_phase_flag_wins(tmp_path, capsys):
    code = main(
        enforce_args(
            tmp_path, "--prediction", "prediction:good", "--phase", "training"
        )
    )
    assert code == 2
    assert "phase: training" in capsys.readouterr().out


def test_enforce_empty_group_override_fails_closed_not_on_the_bound_group(tmp_path, capsys):
    # "group=" names the column "", not --group: auditing gender instead of
    # age would pass a control whose own attribute fails
    plan = tmp_path / "plan.yaml"
    plan.write_text(SCENARIO_A_PLAN.read_text().replace('"group=age_group"', '"group="'))
    args = enforce_args(tmp_path / "out")
    args[1] = str(plan)
    assert main(args) == 2
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("credit-age-di"))
    assert row.split()[2:] == ["-", "gt", "0.500", "FAIL", "blocked"]
    results = (tmp_path / "out" / "assessment-results.oscal.json").read_text()
    assert "evaluation-error: column '' not in table" in results


def test_enforce_mode_override_monitor_exits_zero_with_same_findings(tmp_path, capsys):
    blocked_dir = tmp_path / "blocked"
    monitored_dir = tmp_path / "monitored"
    assert main(enforce_args(blocked_dir, "--deterministic")) == 2
    assert (
        main(enforce_args(monitored_dir, "--deterministic", "--mode-override", "monitor"))
        == 0
    )
    assert (blocked_dir / "assessment-results.oscal.json").read_bytes() == (
        monitored_dir / "assessment-results.oscal.json"
    ).read_bytes()
    assert (blocked_dir / "poam.oscal.json").read_bytes() == (
        monitored_dir / "poam.oscal.json"
    ).read_bytes()


def test_enforce_deterministic_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    main(enforce_args(first, "--deterministic"))
    main(enforce_args(second, "--deterministic"))
    for name in ("assessment-results.oscal.json", "poam.oscal.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_enforce_invalid_policy_exits_three(tmp_path):
    policy = tmp_path / "bad.yaml"
    policy.write_text(INVALID_MODE_PLAN)
    assert (
        main(
            [
                "enforce",
                str(policy),
                str(SCENARIO_A_DATA),
                "--target",
                "class:good",
                "--out",
                str(tmp_path),
            ]
        )
        == 3
    )


def test_enforce_missing_data_exits_one(tmp_path):
    assert (
        main(
            [
                "enforce",
                str(SCENARIO_A_PLAN),
                str(tmp_path / "missing.csv"),
                "--target",
                "class:good",
                "--out",
                str(tmp_path),
            ]
        )
        == 1
    )


def test_enforce_mistyped_positive_label_exits_one_without_results(tmp_path, capsys):
    # the demo's labels are good/bad; "Good" used to pass every control
    args = [
        "enforce",
        str(SCENARIO_A_PLAN),
        str(SCENARIO_A_DATA),
        "--target",
        "class:Good",
        "--group",
        "gender",
        "--prediction",
        "prediction:Good",
        "--out",
        str(tmp_path),
    ]
    assert main(args) == 1
    assert "'Good' is not a value of column 'class'" in capsys.readouterr().err
    assert not (tmp_path / "assessment-results.oscal.json").exists()


def test_enforce_bad_binding_syntax_exits_one(tmp_path, capsys):
    assert (
        main(
            [
                "enforce",
                str(SCENARIO_A_PLAN),
                str(SCENARIO_A_DATA),
                "--target",
                "class",
                "--out",
                str(tmp_path),
            ]
        )
        == 1
    )
    assert "column:positive-label" in capsys.readouterr().err


def test_enforce_removes_a_poam_its_results_do_not_have(tmp_path, capsys):
    # a passing run into the --out of a blocked one used to leave the
    # blocked run's POA&M beside results that raise no risk
    assert main(enforce_args(tmp_path, "--deterministic")) == 2
    passing = ["--phase", "validation", "--prediction", "prediction:good", "--deterministic"]
    assert main(enforce_args(tmp_path, *passing)) == 0
    assert not (tmp_path / "poam.oscal.json").exists()
    capsys.readouterr()
    assert main(["report", str(tmp_path / "assessment-results.oscal.json")]) == 0
    captured = capsys.readouterr()
    assert "POA&M" not in captured.out
    assert captured.err == ""


def test_enforce_failed_write_leaves_neither_target_nor_temporary_file(
    tmp_path, monkeypatch, capsys
):
    def fail(source, target):
        raise OSError("disk full")

    monkeypatch.setattr(evidence.os, "replace", fail)
    with logging_unconfigured():  # so the block line reaches stderr too
        assert main(enforce_args(tmp_path)) == 1
    target = tmp_path / "assessment-results.oscal.json"
    assert capsys.readouterr().err == (
        f"ERROR {AGE_DI_FAILS} [block]\nerror: cannot write {target}: disk full\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_enforce_out_that_is_a_file_exits_one_and_leaves_the_file(tmp_path, capsys):
    # --out was made before the write, so an existing file ended the command
    # with a bare "[Errno 17] File exists" instead of the write's own error
    out = tmp_path / "taken"
    out.write_bytes(b"not a directory\n")
    assert main(enforce_args(out)) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: cannot write {out}: ")
    assert out.read_bytes() == b"not a directory\n"


def fail_staging(monkeypatch, name: str) -> None:
    """Make writing the temporary file of `name` raise, as a full disk would."""

    def staging_open(path, *args, **kwargs):
        if Path(path).name.startswith(f".{name}."):
            raise OSError("disk full")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(evidence, "open", staging_open, raising=False)


@pytest.mark.parametrize(
    "extra, failing, blocked",
    [
        ((), "poam.oscal.json", True),
        (("--phase", "validation", "--prediction", "prediction:good"),
         "assessment-results.oscal.json", False),
    ],
    ids=["blocked-again", "passing"],
)
def test_enforce_failed_write_keeps_the_earlier_results_and_poam(
    tmp_path, monkeypatch, capsys, extra, failing, blocked
):
    # every document is staged before the first rename, and a stale POA&M
    # goes only after the new results are in place
    with logging_unconfigured():  # so a block line reaches stderr too
        assert main(enforce_args(tmp_path)) == 2
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        fail_staging(monkeypatch, failing)
        capsys.readouterr()
        assert main(enforce_args(tmp_path, *extra)) == 1
    logged = f"ERROR {AGE_DI_FAILS} [block]\n" if blocked else ""
    error = f"error: cannot write {tmp_path / failing}: disk full\n"
    assert capsys.readouterr().err == logged + error
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_enforce_on_a_phase_with_an_unbound_role_exits_one_and_writes_nothing(
    tmp_path, capsys
):
    assert main(enforce_args(tmp_path, "--deterministic")) == 2
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(before) == {"assessment-results.oscal.json", "poam.oscal.json"}
    capsys.readouterr()
    assert main(enforce_args(tmp_path, "--phase", "validation")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "phase validation: skipped, bindings do not satisfy selected controls: "
        "credit-accuracy needs prediction; credit-gender-dp needs prediction\n"
        "error: no phase was executable with the given bindings.\n"
    )
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- run ------------------------------------------------------------------------


def run_args(vault: Path, *extra: str) -> list[str]:
    return [
        "run",
        "credit-scoring",
        str(SCENARIO_A_PLAN),
        "--data",
        str(SCENARIO_A_DATA),
        "--target",
        "class:good",
        "--group",
        "gender",
        "--prediction",
        "prediction:good",
        "--hash",
        str(DEMO_DIR / "requirements-lock.txt"),
        "--bom",
        str(DEMO_DIR / "requirements-lock.txt"),
        "--vault",
        str(vault),
        *extra,
    ]


def test_run_blocked_phase_stops_and_exits_two(tmp_path, capsys):
    code = main(run_args(tmp_path / "vault"))
    assert code == 2
    run_dir = tmp_path / "vault" / "runs" / "credit-scoring"
    assert {p.name for p in run_dir.iterdir()} == {
        "assessment-results.oscal.json",
        "poam.oscal.json",
        "hashes.json",
        "environment.json",
        "bom.json",
        "handshake.json",
    }
    err = capsys.readouterr().err
    assert "remaining phases not evaluated" in err
    results = json.loads((run_dir / "assessment-results.oscal.json").read_text())
    assert len(results["assessment-results"]["results"]) == 1


def test_run_mode_override_monitor_covers_both_phases(tmp_path):
    code = main(run_args(tmp_path / "vault", "--mode-override", "monitor"))
    assert code == 0
    run_dir = tmp_path / "vault" / "runs" / "credit-scoring"
    results = json.loads((run_dir / "assessment-results.oscal.json").read_text())
    assert len(results["assessment-results"]["results"]) == 2
    handshake = json.loads((run_dir / "handshake.json").read_text())
    assert handshake["handshake_ok"] is True
    assert handshake["phase_count"] == 2


@pytest.mark.parametrize(
    "extra,read",
    [
        ((), ("gender", "age_group", "class", "prediction")),
        (
            ("--weight", "duration_months"),
            ("gender", "age_group", "duration_months", "class", "prediction"),
        ),
    ],
)
def test_run_loads_only_the_columns_it_can_read(tmp_path, monkeypatch, extra, read):
    loaded = []
    original_load = cli.load_table

    def recording_load(source, *args, **kwargs):
        table = original_load(source, *args, **kwargs)
        loaded.append(table.column_names)
        return table

    monkeypatch.setattr(cli, "load_table", recording_load)
    assert main(run_args(tmp_path / "vault", "--mode-override", "warn", *extra)) == 0
    # no control reads credit_amount, nor duration_months unless it weighs the rows
    assert loaded == [read]


def test_run_hash_only_monitoring_plan_skips_but_handshakes(tmp_path, capsys):
    policy = tmp_path / "monitoring.yaml"
    policy.write_text(MONITORING_PLAN)
    empty = tmp_path / "weights.bin"
    empty.write_bytes(b"")
    code = main(
        [
            "run",
            "nightly",
            str(policy),
            "--hash",
            str(empty),
            "--vault",
            str(tmp_path / "vault"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "SKIP (window-not-executable)" in out
    run_dir = tmp_path / "vault" / "runs" / "nightly"
    handshake = json.loads((run_dir / "handshake.json").read_text())
    assert handshake["handshake_ok"] is True


def test_run_refuses_data_that_changed_after_it_was_loaded(tmp_path, capsys, monkeypatch):
    # the recorded digest must be of the bytes that were evaluated
    data = tmp_path / "data.csv"
    data.write_bytes(SCENARIO_A_DATA.read_bytes())
    original_load = cli.load_table

    def load_then_rewrite(source, *args, **kwargs):
        table = original_load(source, *args, **kwargs)
        data.write_bytes(data.read_bytes().replace(b"female", b"male"))
        return table

    monkeypatch.setattr(cli, "load_table", load_then_rewrite)
    _assert_run_refuses_changed_data(tmp_path, capsys, data)


def test_run_refuses_data_rewritten_while_it_is_read(tmp_path, capsys, monkeypatch):
    # the file is rewritten in place after the first chunk the loader reads,
    # so the evaluated bytes are neither the old file nor the new one
    data = tmp_path / "data.csv"
    data.write_bytes(SCENARIO_A_DATA.read_bytes())
    reads = []

    class RewritingReader(cli.HashingReader):
        def readinto(self, buffer):
            count = super().readinto(buffer)
            reads.append(count)
            if len(reads) == 1:
                # same length, so the rest still parses as the same rows
                data.write_bytes(data.read_bytes().replace(b"female", b"FEMALE"))
            return count

    monkeypatch.setattr(cli, "HashingReader", RewritingReader)
    _assert_run_refuses_changed_data(tmp_path, capsys, data)
    assert reads[0] < data.stat().st_size and len(reads) > 2


def _assert_run_refuses_changed_data(tmp_path, capsys, data: Path) -> None:
    args = run_args(tmp_path / "vault", "--mode-override", "monitor")
    args[args.index(str(SCENARIO_A_DATA))] = str(data)
    assert main(args) == 1
    assert "input data changed during the run" in capsys.readouterr().err
    run_dir = tmp_path / "vault" / "runs" / "credit-scoring"
    assert not (run_dir / "hashes.json").exists()
    assert not (run_dir / "assessment-results.oscal.json").exists()


def test_run_frees_the_loaded_table_before_it_finalizes(tmp_path, monkeypatch):
    # finalize_session serializes the documents; the input must not sit
    # under that peak
    loaded = []
    original_load, original_finalize = cli.load_table, cli.finalize_session

    def recording_load(*args, **kwargs):
        table = original_load(*args, **kwargs)
        loaded.append(weakref.ref(table))
        return table

    def finalize_after_the_table_is_gone(*args, **kwargs):
        gc.collect()
        assert [ref() for ref in loaded] == [None]
        return original_finalize(*args, **kwargs)

    monkeypatch.setattr(cli, "load_table", recording_load)
    monkeypatch.setattr(cli, "finalize_session", finalize_after_the_table_is_gone)
    assert main(run_args(tmp_path / "vault", "--mode-override", "monitor")) == 0
    assert len(loaded) == 1


WEIGHTED_DI_PLAN = """\
assessment-plan:
  metadata:
    title: "weighted rates"
  control-implementations:
    - implemented-requirements:
        - control-id: weighted-di
          props:
            - {name: metric_key, value: disparate_impact}
            - {name: operator, value: gt}
            - {name: threshold, value: "0.8"}
            - {name: enforcement_mode, value: block}
"""


@pytest.fixture
def overflowing_weights(tmp_path) -> tuple[Path, Path]:
    """A plan and data whose group "a" weighs more than the largest float."""
    plan = tmp_path / "plan.yaml"
    plan.write_text(WEIGHTED_DI_PLAN)
    data = tmp_path / "data.csv"
    data.write_text("g,y,w\na,1,1e308\na,0,1e308\nb,1,1\n")
    return plan, data


def test_enforce_fails_closed_on_weights_that_overflow(tmp_path, capsys, overflowing_weights):
    plan, data = overflowing_weights
    flags = ["--target", "y:1", "--group", "g", "--weight", "w"]
    assert main(["enforce", str(plan), str(data), *flags, "--out", str(tmp_path / "out")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    results = (tmp_path / "out" / "assessment-results.oscal.json").read_text()
    assert "evaluation-error: mass of group 'a' overflows a float" in results


def test_run_on_weights_that_overflow_writes_its_run_directory(tmp_path, overflowing_weights):
    plan, data = overflowing_weights
    vault = tmp_path / "vv"
    args = ["run", "r", str(plan), "--data", str(data), "--target", "y:1", "--group", "g",
            "--weight", "w", "--vault", str(vault)]
    assert main(args) == 2
    run_dir = vault / "runs" / "r"
    assert {"assessment-results.oscal.json", "poam.oscal.json", "hashes.json"} <= {
        path.name for path in run_dir.iterdir()
    }


def test_failed_run_leaves_no_run_directory_behind(tmp_path, monkeypatch):
    # a run that fails after its session opened must not push the next run
    # with the same id onto a suffix
    lockfile = tmp_path / "requirements-lock.txt"
    lockfile.write_text("a b c\n")
    opened = []
    original_open = cli.open_session

    def recording_open(*args, **kwargs):
        session = original_open(*args, **kwargs)
        opened.append(session.run_id)
        return session

    monkeypatch.setattr(cli, "open_session", recording_open)
    args = ["run", "r", str(SCENARIO_A_PLAN), "--bom", str(lockfile),
            "--vault", str(tmp_path / "vault")]
    assert main(args) == 1
    assert main(args) == 1
    assert opened == ["r", "r"]
    assert list((tmp_path / "vault" / "runs").iterdir()) == []


def test_run_failed_poam_write_leaves_no_partial_run_directory(tmp_path, monkeypatch, capsys):
    fail_staging(monkeypatch, "poam.oscal.json")
    assert main(run_args(tmp_path / "vault", "--deterministic")) == 1
    assert "poam.oscal.json: disk full" in capsys.readouterr().err
    assert list((tmp_path / "vault" / "runs").iterdir()) == []


def test_run_with_an_undecodable_lockfile_exits_one_and_leaves_no_run_directory(
    tmp_path, capsys
):
    lockfile = tmp_path / "requirements-lock.txt"
    lockfile.write_bytes(b"\xffnumpy==1.0\n")
    args = ["run", "r", str(SCENARIO_A_PLAN), "--bom", str(lockfile),
            "--vault", str(tmp_path / "vault")]
    assert main(args) == 1
    assert "not valid UTF-8" in capsys.readouterr().err
    assert list((tmp_path / "vault" / "runs").iterdir()) == []


@pytest.mark.parametrize("run_id", ["nl\n", ".", ".."])
def test_run_refuses_an_unsafe_run_id_and_creates_no_run(tmp_path, capsys, run_id):
    vault = tmp_path / "vault"
    assert main(["run", run_id, str(SCENARIO_A_PLAN), "--vault", str(vault)]) == 1
    assert "not filesystem-safe" in capsys.readouterr().err
    assert not (vault / "runs").exists()


def test_run_data_without_target_is_a_usage_error_before_the_data_is_read(tmp_path, capsys):
    args = ["run", "r", str(SCENARIO_A_PLAN), "--data", str(tmp_path / "missing.csv"),
            "--vault", str(tmp_path / "vault")]
    assert main(args) == 1
    assert capsys.readouterr().err == "usage error: --target is required when --data is given\n"


def test_run_unwritable_vault_exits_one(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not dir")
    assert main(run_args(blocker)) == 1


def test_run_without_any_executable_phase_fails_handshake(tmp_path, capsys):
    code = main(
        [
            "run",
            "no-data",
            str(SCENARIO_A_PLAN),
            "--vault",
            str(tmp_path / "vault"),
        ]
    )
    assert code == 1
    assert "handshake failed" in capsys.readouterr().err
    run_dir = tmp_path / "vault" / "runs" / "no-data"
    handshake = json.loads((run_dir / "handshake.json").read_text())
    assert handshake["handshake_ok"] is False
    assert handshake["phase_count"] == 0
    assert not (run_dir / "assessment-results.oscal.json").exists()


def test_run_skips_phase_whose_roles_are_unbound(tmp_path, capsys):
    code = main(
        [
            "run",
            "partial",
            str(SCENARIO_A_PLAN),
            "--data",
            str(SCENARIO_A_DATA),
            "--target",
            "class:good",
            "--group",
            "gender",
            "--vault",
            str(tmp_path / "vault"),
            "--mode-override",
            "monitor",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "phase validation: skipped" in captured.err
    run_dir = tmp_path / "vault" / "runs" / "partial"
    handshake = json.loads((run_dir / "handshake.json").read_text())
    assert handshake["phase_count"] == 1


@pytest.mark.parametrize("mode", [None, "monitor"])
def test_enforce_and_run_print_the_same_verdict_table_for_a_phase(tmp_path, capsys, mode):
    flags = ["--target", "class:good", "--group", "gender", "--prediction", "prediction:good",
             "--deterministic", *(["--mode-override", mode] if mode else [])]
    # without an override the training phase blocks, and run stops after it
    phases = ["training", "validation"] if mode else ["training"]
    run_code = main(["run", "r", str(SCENARIO_A_PLAN), "--data", str(SCENARIO_A_DATA),
                     "--vault", str(tmp_path / "vault"), *flags])
    run_tables = capsys.readouterr().out.partition("vault: ")[0]
    enforce_tables = ""
    for phase in phases:
        code = main(["enforce", str(SCENARIO_A_PLAN), str(SCENARIO_A_DATA), "--phase", phase,
                     "--out", str(tmp_path / phase), *flags])
        assert code == run_code
        enforce_tables += capsys.readouterr().out.partition("wrote ")[0]
    assert [line for line in run_tables.splitlines() if line.startswith("phase:")] == [
        f"phase: {phase}" for phase in phases
    ]
    assert enforce_tables == run_tables


def test_enforce_and_run_write_the_same_results_and_poam(tmp_path):
    # both write the pair through one function; run stops after the blocked training phase
    flags = ["--target", "class:good", "--group", "gender", "--prediction", "prediction:good",
             "--deterministic"]
    out = tmp_path / "out"
    assert main(["enforce", str(SCENARIO_A_PLAN), str(SCENARIO_A_DATA), "--phase", "training",
                 "--out", str(out), *flags]) == 2
    assert main(["run", "r", str(SCENARIO_A_PLAN), "--data", str(SCENARIO_A_DATA),
                 "--vault", str(tmp_path / "vault"), *flags]) == 2
    run_dir = tmp_path / "vault" / "runs" / "r"
    for name in ("assessment-results.oscal.json", "poam.oscal.json"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


# --- report ---------------------------------------------------------------------


@pytest.fixture
def pre_results_dir(tmp_path):
    out = tmp_path / "out"
    main(enforce_args(out))
    return out


def test_report_shows_risk_row_and_group_rates(pre_results_dir, capsys):
    code = main(["report", str(pre_results_dir / "assessment-results.oscal.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "disparate_impact" in out
    assert "0.286" in out
    assert "gt" in out
    assert "0.50" in out
    assert "group rates" in out
    assert "POA&M" in out
    assert "T-018" in out


def test_report_json_format(pre_results_dir, capsys):
    code = main(
        ["report", str(pre_results_dir / "assessment-results.oscal.json"), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["results"][0]["findings"]) == 3
    assert payload["poam_items"][0]["treatment_id_ref"] == "T-018"


def test_report_zero_findings(tmp_path, capsys):
    policy = tmp_path / "empty.yaml"
    policy.write_text("assessment-plan:\n  metadata:\n    title: empty\n")
    out = tmp_path / "out"
    main(
        [
            "enforce",
            str(policy),
            str(SCENARIO_A_DATA),
            "--target",
            "class:good",
            "--out",
            str(out),
        ]
    )
    assert main(["report", str(out / "assessment-results.oscal.json")]) == 0
    assert "no findings" in capsys.readouterr().out


def test_report_structurally_invalid_results_exits_three(pre_results_dir, capsys):
    path = pre_results_dir / "assessment-results.oscal.json"
    document = json.loads(path.read_text())
    finding = document["assessment-results"]["results"][0]["findings"][0]
    finding["related-observations"] = [{"observation-uuid": "dangling"}]
    broken = pre_results_dir / "broken.json"
    broken.write_text(json.dumps(document))
    assert main(["report", str(broken)]) == 3
    err = capsys.readouterr().err
    assert "results[0].findings[0]" in err


def test_report_rejects_a_flipped_finding_that_still_carries_its_risk(pre_results_dir, capsys):
    path = pre_results_dir / "assessment-results.oscal.json"
    path.write_text(path.read_text().replace('"not-satisfied"', '"satisfied"'))
    (pre_results_dir / "poam.oscal.json").unlink()
    assert main(["report", str(path)]) == 3
    captured = capsys.readouterr()
    assert "structural violation at results[0].risks[0]: [risk-status]" in captured.err
    assert "[PASS]" not in captured.out


def test_report_missing_file_exits_one(tmp_path):
    assert main(["report", str(tmp_path / "absent.json")]) == 1


def _first_observation(document: dict) -> dict:
    return document["assessment-results"]["results"][0]["observations"][0]


def _set_group_rate(document: dict, value: str = "female=abc") -> None:
    for block in document["assessment-results"]["results"]:
        for obs in block["observations"]:
            for prop in obs["props"]:
                if prop["name"] == "group-rate":
                    prop["value"] = value
                    return
    raise AssertionError("no group-rate in the fixture")


MALFORMED_RESULTS = {
    "group-rate": _set_group_rate,
    "last-modified": lambda d: d["assessment-results"]["metadata"].update(
        {"last-modified": "yesterday"}
    ),
    "excluded-rows-word": lambda d: _first_observation(d)["props"].append(
        {"name": "excluded-rows", "value": "x"}
    ),
    "excluded-rows-decimal": lambda d: _first_observation(d)["props"].append(
        {"name": "excluded-rows", "value": "1.5"}
    ),
    "non-object-result": lambda d: d["assessment-results"]["results"].append(5),
    "list-body": lambda d: d.update({"assessment-results": [d["assessment-results"]]}),
    "object-remarks": lambda d: _first_observation(d).update({"remarks": {"a": 1}}),
    "list-remarks": lambda d: d["assessment-results"]["results"][0]["findings"][0].update(
        {"remarks": [1]}
    ),
    "inf-group-rate": lambda d: _set_group_rate(d, "female=inf"),
    "null-prop-value": lambda d: _first_observation(d)["props"][0].update({"value": None}),
    "non-object-related-observation": lambda d: d["assessment-results"]["results"][0][
        "findings"
    ][0]["related-observations"].append("uuid"),
}


@pytest.mark.parametrize("corrupt", MALFORMED_RESULTS.values(), ids=MALFORMED_RESULTS.keys())
def test_report_malformed_results_exits_one(pre_results_dir, capsys, corrupt):
    document = json.loads((pre_results_dir / "assessment-results.oscal.json").read_text())
    corrupt(document)
    broken = pre_results_dir / "broken.json"
    broken.write_text(json.dumps(document))
    assert main(["report", str(broken)]) == 1
    assert "cannot parse results" in capsys.readouterr().err


def _set_observed_value(document: dict, value: str) -> None:
    obs = _first_observation(document)
    for prop in obs["props"]:
        if prop["name"] == "observed-value":
            prop["value"] = value
    obs["remarks"] = "a remark"


def test_report_json_on_a_nan_observed_value_exits_one_and_prints_no_nan(
    pre_results_dir, capsys
):
    document = json.loads((pre_results_dir / "assessment-results.oscal.json").read_text())
    _set_observed_value(document, "nan")
    broken = pre_results_dir / "broken.json"
    broken.write_text(json.dumps(document))
    assert main(["report", str(broken), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "NaN" not in captured.out
    assert "cannot parse results" in captured.err


def test_report_on_results_with_null_uuids_exits_three(pre_results_dir, capsys):
    document = json.loads((pre_results_dir / "assessment-results.oscal.json").read_text())
    document["assessment-results"]["uuid"] = None
    document["assessment-results"]["results"][0]["uuid"] = None
    broken = pre_results_dir / "null-uuids.json"
    broken.write_text(json.dumps(document))
    assert main(["report", str(broken)]) == 3
    assert "[uuid-missing]" in capsys.readouterr().err


def test_report_notes_and_ignores_an_unreadable_sibling_poam(pre_results_dir, tmp_path, capsys):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    results = elsewhere / "assessment-results.oscal.json"
    results.write_bytes((pre_results_dir / "assessment-results.oscal.json").read_bytes())
    (elsewhere / "poam.oscal.json").mkdir()
    assert main(["report", str(results)]) == 0
    captured = capsys.readouterr()
    assert "note: ignoring sibling POA&M" in captured.err
    assert "== POA&M" not in captured.out


def test_report_notes_and_ignores_a_sibling_poam_of_other_results(tmp_path, capsys):
    blocked, passed = tmp_path / "blocked", tmp_path / "passed"
    assert main(enforce_args(blocked)) == 2
    assert main(enforce_args(passed, "--prediction", "prediction:good")) == 0
    shutil.copyfile(blocked / "poam.oscal.json", passed / "poam.oscal.json")
    capsys.readouterr()
    results = str(passed / "assessment-results.oscal.json")

    assert main(["report", results]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "note: ignoring sibling POA&M (it does not match the results: "
        "poam-items[0]: [reference-missing] item references unknown risk "
    )
    assert "POA&M" not in captured.out
    assert main(["report", results, "--format", "json"]) == 0
    assert "poam_items" not in json.loads(capsys.readouterr().out)


# --- trace ----------------------------------------------------------------------


def test_trace_prints_chain_top_down_with_labels(capsys):
    code = main(
        [
            "trace",
            str(SCENARIO_A_PLAN),
            "credit-gender-di",
            "--labels",
            str(DEMO_DIR / "risk-register.json"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    kinds = [line.split()[0] for line in lines]
    assert kinds == ["policy", "objective", "risk", "treatment", "control"]
    assert "gender discrimination in credit approval" in lines[2]
    assert "apply group-aware reweighting" in lines[3]


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[1, 2]", "expected a JSON object"),
        (b'"a label"', "expected a JSON object"),
        (b'{"R-1": "\xff"}', "can't decode byte 0xff"),
        (b"{not json", "Expecting property name"),
        (b'{"R-042": ["a", "b"]}', "must be a scalar"),
    ],
    ids=["list", "string", "undecodable", "invalid", "list-label"],
)
def test_trace_with_an_unusable_labels_file_exits_one(tmp_path, capsys, content, message):
    labels = tmp_path / "labels.json"
    labels.write_bytes(content)
    code = main(["trace", str(SCENARIO_A_PLAN), "credit-gender-di", "--labels", str(labels)])
    assert code == 1
    assert message in capsys.readouterr().err


def test_trace_prints_no_label_for_a_null_one(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"R-042": None, "T-017": "reweigh"}))
    code = main(["trace", str(SCENARIO_A_PLAN), "credit-gender-di", "--labels", str(labels)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["risk", "R-042"]
    assert lines[3].split() == ["treatment", "T-017", "reweigh"]


def test_trace_control_without_ids_prints_control_line_only(capsys):
    code = main([("trace"), str(SCENARIO_A_PLAN), "credit-class-imbalance"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("control")


def test_trace_unknown_control_exits_one(capsys):
    assert main(["trace", str(SCENARIO_A_PLAN), "not-a-control"]) == 1
    assert "unknown control" in capsys.readouterr().err


# --- log lines ------------------------------------------------------------------

AGE_DI_FAILS = (
    "oscal_assure.enforcement: control credit-age-di not satisfied: "
    "disparate_impact gt 0.5 (value 0.2855005237168936)"
)


@contextlib.contextmanager
def logging_unconfigured():
    """The root logger as in a process that never configured logging
    (pytest gives it capture handlers); its handlers and level come back."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        yield
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)


def stderr_of(argv: list[str]) -> str:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        main(argv)
    return err.getvalue()


def test_each_in_process_call_logs_to_its_own_stderr(tmp_path):
    # logging.basicConfig kept the first call's stream for every later call
    argv = enforce_args(tmp_path, "--mode-override", "warn", "--phase", "training")
    with logging_unconfigured():
        first, second = stderr_of(argv), stderr_of(argv)
    assert first == second == f"WARNING {AGE_DI_FAILS} [warn]\n"


def test_verbose_logs_monitor_lines_after_a_quiet_call(tmp_path):
    # the first call's WARNING level outlived it, so --verbose printed nothing
    with logging_unconfigured():
        quiet = stderr_of(enforce_args(tmp_path, "--mode-override", "monitor"))
        verbose = stderr_of(["--verbose", *enforce_args(tmp_path, "--mode-override", "monitor")])
    assert quiet == ""
    assert verbose == f"INFO {AGE_DI_FAILS} [monitor]\n"


def test_a_process_that_configured_logging_gets_the_records(tmp_path, caplog, capsys):
    # the records go to its handlers, at the call's level, and not to stderr
    assert main(["--verbose", *enforce_args(tmp_path, "--mode-override", "monitor")]) == 0
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("INFO", AGE_DI_FAILS.split(": ", 1)[1] + " [monitor]")
    ]
    assert capsys.readouterr().err == ""
    assert logging.getLogger("oscal_assure").level == logging.NOTSET
