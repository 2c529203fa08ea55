"""The benchmark's workloads: seeded input generators, the CLI arguments an
iteration uses, and the reference each invocation is checked against.

The program under test only sees the files written here. Reference values
come from the generator's own exact counts, never from the engine. Each is
a quotient of integer counts (differences of two such for demographic
parity), which is what the engine's math.fsum over unit weights computes
too, so engine and reference must agree bit for bit in any row order.
"""

from __future__ import annotations

import csv
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VAULT_FILES_WITH_POAM = frozenset({
    "assessment-results.oscal.json",
    "poam.oscal.json",
    "hashes.json",
    "environment.json",
    "bom.json",
    "handshake.json",
})

#: Enforcement action printed for a failed control, by enforcement mode.
ACTIONS = {"monitor": "logged", "warn": "warned", "block": "blocked"}


@dataclass(frozen=True)
class Reference:
    """What one `run` invocation must produce."""

    exit_code: int
    run_id: str
    #: control id -> (PASS/FAIL, action) as printed in the verdict table
    verdicts: dict[str, tuple[str, str]]
    #: (control id, stratum or None) -> observed value
    values: dict[tuple[str, str | None], float]
    #: control id -> finding state in the results document
    statuses: dict[str, str]
    vault_files: frozenset[str]
    #: files the run hashes, relative to the work directory
    hashed: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run_argv: tuple[str, ...]
    #: whether an iteration also runs `report --format json` on the results
    reports: bool
    generate: Callable[[Path, Path, int], tuple[Reference, dict]]


# --- credit scoring (demo plan) ----------------------------------------------

# The demo plan's controls restated here so verdicts are checked without
# the engine's plan parser: id, phase, pass test, enforcement mode.
CREDIT_CONTROLS = (
    ("credit-class-imbalance", "training", lambda v: v > 0.20, "warn"),
    ("credit-gender-di", "training", lambda v: v > 0.80, "block"),
    ("credit-age-di", "training", lambda v: v > 0.50, "block"),
    ("credit-accuracy", "validation", lambda v: v >= 0.70, "warn"),
    ("credit-gender-dp", "validation", lambda v: v < 0.10, "warn"),
)

#: The paper's audit values for the demo data, to three places.
PAPER_VALUES = {
    "credit-class-imbalance": 0.429,
    "credit-gender-di": 0.818,
    "credit-age-di": 0.286,
    "credit-accuracy": 0.795,
    "credit-gender-dp": 0.012,
}

CREDIT_FLAGS = (
    "--data", "data.csv",
    "--target", "class:good", "--group", "gender", "--prediction", "prediction:good",
    "--hash", "requirements-lock.txt", "--bom", "requirements-lock.txt",
    "--deterministic", "--vault", "vault",
)


def credit_values(header: list[str], rows: list[list[str]], repeat: int) -> dict[str, float]:
    """Exact audit values of `rows` repeated `repeat` times."""
    col = {name: i for i, name in enumerate(header)}

    def rates(group: str, outcome: str) -> dict[str, float]:
        total, positive = Counter(), Counter()
        for row in rows:
            total[row[col[group]]] += repeat
            positive[row[col[group]]] += repeat * (row[col[outcome]] == "good")
        return {label: positive[label] / total[label] for label in total}

    classes = Counter()
    for row in rows:
        classes[row[col["class"]]] += repeat
    correct = repeat * sum(
        (row[col["class"]] == "good") == (row[col["prediction"]] == "good") for row in rows
    )
    gender, age = rates("gender", "class"), rates("age_group", "class")
    predicted = rates("gender", "prediction")
    return {
        "credit-class-imbalance": min(classes.values()) / max(classes.values()),
        "credit-gender-di": min(gender.values()) / max(gender.values()),
        "credit-age-di": min(age.values()) / max(age.values()),
        "credit-accuracy": correct / (repeat * len(rows)),
        "credit-gender-dp": max(predicted.values()) - min(predicted.values()),
    }


def credit_reference(values: dict[str, float], mode_override: str | None) -> Reference:
    """Verdicts the gate must reach: phases run in order, and a phase with
    a blocking failure ends the run with exit 2."""
    verdicts, statuses = {}, {}
    blocked = False
    for phase in ("training", "validation"):
        if blocked:
            break
        for control, control_phase, passes, mode in CREDIT_CONTROLS:
            if control_phase != phase:
                continue
            ok = passes(values[control])
            action = "none" if ok else ACTIONS[mode_override or mode]
            blocked |= action == "blocked"
            verdicts[control] = ("PASS" if ok else "FAIL", action)
            statuses[control] = "satisfied" if ok else "not-satisfied"
    return Reference(
        exit_code=2 if blocked else 0,
        run_id="credit-scoring",
        verdicts=verdicts,
        values={(control, None): values[control] for control in verdicts},
        statuses=statuses,
        vault_files=VAULT_FILES_WITH_POAM,
        hashed=("data.csv", "requirements-lock.txt"),
    )


def _copy_demo_inputs(root: Path, workdir: Path) -> None:
    shutil.copyfile(root / "demo" / "credit-scoring.oscal.yaml", workdir / "plan.oscal.yaml")
    shutil.copyfile(root / "demo" / "requirements-lock.txt", workdir / "requirements-lock.txt")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _credit_generator(repeat: int, mode_override: str | None):
    def generate(root: Path, workdir: Path, seed: int) -> tuple[Reference, dict]:
        with open(root / "demo" / "credit-applications.csv", newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        values = credit_values(header, rows, repeat)
        for control, paper in PAPER_VALUES.items():
            if round(values[control], 3) != paper:
                raise RuntimeError(
                    f"reference {control} = {values[control]!r} disagrees with the paper's {paper}"
                )
        data = rows * repeat
        random.Random(seed).shuffle(data)
        _write_csv(workdir / "data.csv", header, data)
        _copy_demo_inputs(root, workdir)
        return credit_reference(values, mode_override), {"rows": len(data), "strata": 0}

    return generate


# --- segmentation cohorts ----------------------------------------------------

COHORTS = 400
GENDERS = ("female", "male")
THRESHOLD = 0.5

# Shaped like a per-cohort segmentation audit: six stratified controls and
# one overall control, all validation-phase, warn mode, "ge 0.50".
COHORT_CONTROLS = (
    ("seg-dice-age", "dice", "age_cohort"),
    ("seg-sensitivity-age", "sensitivity", "age_cohort"),
    ("seg-specificity-age", "specificity", "age_cohort"),
    ("seg-dice-gender", "dice", "gender"),
    ("seg-sensitivity-gender", "sensitivity", "gender"),
    ("seg-specificity-gender", "specificity", "gender"),
    ("seg-accuracy-overall", "accuracy", None),
)

#: metric -> value from confusion counts (tp, fn, fp, tn)
CONFUSION = {
    "dice": lambda tp, fn, fp, tn: 2 * tp / (2 * tp + fp + fn),
    "sensitivity": lambda tp, fn, fp, tn: tp / (tp + fn),
    "specificity": lambda tp, fn, fp, tn: tn / (tn + fp),
    "accuracy": lambda tp, fn, fp, tn: (tp + tn) / (tp + fn + fp + tn),
}

COHORT_FLAGS = (
    "--data", "data.csv",
    "--target", "truth:1", "--prediction", "pred:1",
    "--hash", "requirements-lock.txt", "--bom", "requirements-lock.txt",
    "--deterministic", "--vault", "vault",
)


def cohort_plan_yaml() -> str:
    lines = [
        "assessment-plan:",
        '  uuid: "5d0f3c8e-2a71-4b6e-9c1d-8e4f7a2b3c60"',
        "  metadata:",
        '    title: "Segmentation cohort assurance plan"',
        '    version: "1.0.0"',
        '    last-modified: "2026-04-10T08:00:00Z"',
        "  control-implementations:",
        "    - implemented-requirements:",
    ]
    for control, metric, by in COHORT_CONTROLS:
        props = [
            ("metric_key", metric), ("operator", "ge"), ("threshold", f"{THRESHOLD:.2f}"),
            ("severity", "high"), ("lifecycle_phase", "validation"),
            ("enforcement_mode", "warn"), ("target_type", "model"),
        ]
        if by is not None:
            props.append(("stratify_by", by))
        lines.append(f"        - control-id: {control}")
        lines.append(f'          description: "{metric} per {by or "dataset"}"')
        lines.append("          props:")
        for name, value in props:
            lines.append(f"            - name: {name}")
            lines.append(f'              value: "{value}"')
    return "\n".join(lines) + "\n"


def generate_cohorts(root: Path, workdir: Path, seed: int, cohorts: int = COHORTS
                     ) -> tuple[Reference, dict]:
    """Cohorts of 150 to 350 rows, paired so that every seed gives exactly
    250 rows per cohort; per-cohort prevalence, sensitivity and
    specificity drawn from the seed so that some strata fail."""
    rng = random.Random(seed)
    sizes = []
    for _ in range(cohorts // 2):
        offset = rng.randint(0, 100)
        sizes += [250 + offset, 250 - offset]
    counts: dict[tuple[str, str] | None, list[int]] = {None: [0, 0, 0, 0]}
    rows = []
    for index, size in enumerate(sizes):
        label = f"a{index:03d}"
        positives = min(max(round(size * rng.uniform(0.3, 0.6)), 1), size - 1)
        negatives = size - positives
        tp = round(positives * rng.uniform(0.35, 0.98))
        tn = round(negatives * rng.uniform(0.35, 0.98))
        cells = ((1, 1, tp), (1, 0, positives - tp), (0, 1, negatives - tn), (0, 0, tn))
        for cell, (truth, pred, n) in enumerate(cells):
            for _ in range(n):
                gender = rng.choice(GENDERS)
                rows.append((label, gender, truth, pred))
                for key in (None, ("age_cohort", label), ("gender", gender)):
                    counts.setdefault(key, [0, 0, 0, 0])[cell] += 1
    rng.shuffle(rows)
    _write_csv(workdir / "data.csv", ("age_cohort", "gender", "truth", "pred"), rows)
    (workdir / "plan.oscal.yaml").write_text(cohort_plan_yaml(), encoding="utf-8")
    shutil.copyfile(root / "demo" / "requirements-lock.txt", workdir / "requirements-lock.txt")

    values, statuses, verdicts = {}, {}, {}
    for control, metric, by in COHORT_CONTROLS:
        keys = [key for key in counts if key is not None and key[0] == by] if by else [None]
        ok = True
        for key in keys:
            value = CONFUSION[metric](*counts[key])
            values[(control, key[1] if key else None)] = value
            ok &= value >= THRESHOLD
        statuses[control] = "satisfied" if ok else "not-satisfied"
        verdicts[control] = ("PASS", "none") if ok else ("FAIL", ACTIONS["warn"])
    reference = Reference(
        exit_code=0,
        run_id="segmentation",
        verdicts=verdicts,
        values=values,
        statuses=statuses,
        vault_files=VAULT_FILES_WITH_POAM
        if "not-satisfied" in statuses.values()
        else VAULT_FILES_WITH_POAM - {"poam.oscal.json"},
        hashed=("data.csv", "requirements-lock.txt"),
    )
    return reference, {"rows": len(rows), "strata": len(counts) - 1}


# --- the workloads -----------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="credit-rows",
            why="200k demo rows, both phases: the row-scanning layers "
                "(load, bind, metric passes) dominate",
            run_argv=("run", "credit-scoring", "plan.oscal.yaml", *CREDIT_FLAGS,
                      "--mode-override", "warn"),
            reports=False,
            generate=_credit_generator(repeat=200, mode_override="warn"),
        ),
        Workload(
            name="cohort-strata",
            why="100k rows in 400 cohorts: stratify copies, thousands of "
                "per-stratum metric calls, 1.2k observations serialized and re-read",
            run_argv=("run", "segmentation", "plan.oscal.yaml", *COHORT_FLAGS),
            reports=True,
            generate=generate_cohorts,
        ),
        Workload(
            name="gate-churn",
            why="1k-row demo as a per-commit CI gate: startup, plan parsing and "
                "vault writes dominate, and the block path runs",
            run_argv=("run", "credit-scoring", "plan.oscal.yaml", *CREDIT_FLAGS),
            reports=False,
            generate=_credit_generator(repeat=1, mode_override=None),
        ),
    )
}
