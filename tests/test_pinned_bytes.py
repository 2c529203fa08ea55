"""Pinned sha256 digests of the deterministic outputs.

The determinism tests elsewhere compare two runs with each other, so a
change that alters both runs the same way passes them. These digests were
taken from the code before the engine's serialization, plan and CLI code
was simplified; any change to an emitted byte fails here.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import pytest

from conftest import (
    DEMO_DIR,
    MEDICAL_HEADER,
    MEDICAL_PLAN,
    REPO_ROOT,
    SCENARIO_A_DATA,
    SCENARIO_A_PLAN,
    medical_rows,
)
from oscal_assure import determinize, parse_plan_document, serialize_canonical
from oscal_assure.cli import main

RESULTS = "assessment-results.oscal.json"
POAM = "poam.oscal.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(directory: Path) -> dict[str, str]:
    return {
        name: digest((directory / name).read_bytes())
        for name in (RESULTS, POAM)
        if (directory / name).exists()
    }


def demo_run(vault: Path, *extra: str) -> list[str]:
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
        "--vault",
        str(vault),
        "--deterministic",
        *extra,
    ]


@pytest.mark.parametrize(
    "extra, exit_code, expected",
    [
        (
            (),
            2,
            {
                RESULTS: "dcf5388eca8c21702b9a99b176fbf410410c4245877fdb5aee0e9bb3c5d02642",
                POAM: "74ef2088ad207938f5a7d209e7438b17df3ae82be0255f0d5463d375e3e2ba7c",
            },
        ),
        (
            ("--mode-override", "warn"),
            0,
            {
                RESULTS: "5f11d74f0d07941cab52b8a6b30c6cfdb40e47737f0c1864ca5d0cde78fc3f18",
                POAM: "74ef2088ad207938f5a7d209e7438b17df3ae82be0255f0d5463d375e3e2ba7c",
            },
        ),
    ],
    ids=["block", "warn"],
)
def test_run_on_demo_pinned(tmp_path, extra, exit_code, expected):
    assert main(demo_run(tmp_path / "vault", *extra)) == exit_code
    run_dir = tmp_path / "vault" / "runs" / "credit-scoring"
    assert file_digests(run_dir) == expected


def test_enforce_on_medical_fixture_pinned(tmp_path):
    data = tmp_path / "medical.csv"
    with open(data, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(MEDICAL_HEADER)
        writer.writerows(medical_rows())
    out = tmp_path / "out"
    code = main(
        [
            "enforce",
            str(MEDICAL_PLAN),
            str(data),
            "--target",
            "truth:lesion",
            "--prediction",
            "pred:lesion",
            "--out",
            str(out),
            "--deterministic",
        ]
    )
    assert code == 0
    # every control is satisfied, so no POA&M is written
    assert file_digests(out) == {
        RESULTS: "42d77c92db4ce7a715f64af523556c8898a99881b1ef06b20cbd20f230663136"
    }


@pytest.mark.parametrize(
    "plan_path, expected",
    [
        (SCENARIO_A_PLAN, "38c797d8f729950160b861d94c33c056f9637a464333bb863f629ee29d80245b"),
        (MEDICAL_PLAN, "e5a421103382ebad6fe773adb85c90d2c681c7131f0c40e850d2a0cb02330b42"),
    ],
    ids=["demo", "medical"],
)
def test_canonical_plan_bytes_pinned(plan_path, expected):
    plan = parse_plan_document(plan_path.read_bytes(), "yaml")
    assert digest(serialize_canonical(determinize(plan)[0])) == expected


def test_validate_stdout_on_demo_pinned(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["validate", "demo/credit-scoring.oscal.yaml"]) == 0
    assert digest(capsys.readouterr().out.encode("utf-8")) == (
        "751a4da6525501c1be9a9b0a2637ed53db889c94b9c0306d0ed5e720f8e4994f"
    )
