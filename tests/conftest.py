from __future__ import annotations

import csv
import io
from pathlib import Path

import pytest
from hypothesis import strategies as st

from oscal_assure import (
    AssessmentPlan,
    ControlSpec,
    MetricContext,
    PoamDocument,
    bind_roles,
    load_table,
    parse_plan_document,
    validate_document_structure,
)
from oscal_assure.plan import (
    EnforcementMode,
    EvaluationMethod,
    EvaluationWindow,
    LifecyclePhase,
    Operator,
    Severity,
    TargetType,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_DIR = REPO_ROOT / "demo"
FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"

SCENARIO_A_PLAN = DEMO_DIR / "credit-scoring.oscal.yaml"
SCENARIO_A_DATA = DEMO_DIR / "credit-applications.csv"
FIG2_PLAN = FIXTURES_DIR / "fig2_plan.yaml"
MEDICAL_PLAN = FIXTURES_DIR / "medical-ct.oscal.yaml"


def table_from_rows(header: list[str], rows: list[list[str]]):
    """Build a DataTable through the CSV loader (exercises typing)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return load_table(buffer.getvalue().encode("utf-8"))


def replace_random_node(document, draw, values) -> None:
    """Walk from the root of a JSON-like document down a path that `draw`
    (hypothesis's data.draw, or a composite strategy's draw) picks, and
    replace the node where the walk stops with a drawn value."""
    node = document
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            node[key] = draw(values)
            return
        node = child


MEDICAL_HEADER = ["age_cohort", "gender", "truth", "pred"]


def medical_rows() -> list[list[str]]:
    """10 age cohorts x 2 genders, each cell holding one TP, FN, FP, TN row."""
    rows = []
    for cohort in (f"{d}0-{d}9" for d in range(10)):
        for gender in ("f", "m"):
            rows.append([cohort, gender, "lesion", "lesion"])
            rows.append([cohort, gender, "lesion", "clear"])
            rows.append([cohort, gender, "clear", "lesion"])
            rows.append([cohort, gender, "clear", "clear"])
    return rows


def make_control(
    control_id: str,
    metric_key: str = "class_imbalance_ratio",
    operator: Operator = Operator.GT,
    threshold: float = 0.2,
    **overrides,
) -> ControlSpec:
    return ControlSpec(
        control_id=control_id,
        description=f"test control {control_id}",
        metric_key=metric_key,
        operator=operator,
        threshold=threshold,
        **overrides,
    )


def make_plan(controls: list[ControlSpec], title: str = "test plan") -> AssessmentPlan:
    from datetime import datetime, timezone

    return AssessmentPlan(
        uuid="11111111-2222-3333-4444-555555555555",
        title=title,
        version="1.0",
        last_modified=datetime(2026, 1, 1, tzinfo=timezone.utc),
        controls=tuple(controls),
    )


REGISTRY_METRICS = [
    "class_imbalance_ratio",
    "group_positive_rates",
    "disparate_impact",
    "demographic_parity_difference",
    "accuracy",
    "sensitivity",
    "specificity",
    "dice",
]


def random_bound_table(rng, max_rows: int = 30):
    """Random fully bound (target/group/prediction) table context."""
    rows = [
        [
            rng.choice(["A", "B", "C"]),
            rng.choice(["1", "0"]),
            rng.choice(["1", "0"]),
        ]
        for _ in range(rng.randrange(6, max_rows))
    ]
    table = table_from_rows(["g", "y", "p"], rows)
    bindings = bind_roles(
        table, "y", "1", group="g", prediction="p", prediction_positive="1"
    )
    return MetricContext(table=table, bindings=bindings)


def random_plan(rng, n_controls: int | None = None) -> AssessmentPlan:
    """Randomized plan over the roles random_bound_table provides."""
    controls = []
    for i in range(n_controls or rng.randrange(1, 6)):
        controls.append(
            ControlSpec(
                control_id=f"rand-{i}",
                description="randomized control",
                metric_key=rng.choice(REGISTRY_METRICS),
                operator=rng.choice(list(Operator)),
                threshold=round(rng.uniform(-0.1, 1.1), 3),
                severity=rng.choice(list(Severity)),
                lifecycle_phases=frozenset(
                    rng.sample(
                        [LifecyclePhase.TRAINING, LifecyclePhase.VALIDATION],
                        rng.randrange(1, 3),
                    )
                ),
                enforcement_mode=rng.choice(list(EnforcementMode)),
                evaluation_method=rng.choice(
                    [EvaluationMethod.AUTOMATED] * 4
                    + [EvaluationMethod.MANUAL, EvaluationMethod.HYBRID]
                ),
                evaluation_window=rng.choice(
                    [EvaluationWindow.PER_RUN] * 4
                    + [EvaluationWindow.PERIODIC, EvaluationWindow.SLIDING]
                ),
                target_type=rng.choice([TargetType.DATASET, TargetType.MODEL]),
            )
        )
    return make_plan(controls, title="randomized plan")


def assert_structurally_valid(results, poam: PoamDocument | None = None) -> None:
    violations = validate_document_structure(results)
    assert violations == [], violations
    if poam is not None:
        violations = validate_document_structure(poam, results=results)
        assert violations == [], violations


@pytest.fixture(scope="session")
def scenario_a_plan() -> AssessmentPlan:
    return parse_plan_document(SCENARIO_A_PLAN.read_bytes(), "yaml")


@pytest.fixture(scope="session")
def scenario_a_table():
    return load_table(SCENARIO_A_DATA.read_bytes())


@pytest.fixture(scope="session")
def scenario_a_ctx(scenario_a_table) -> MetricContext:
    bindings = bind_roles(
        scenario_a_table,
        "class",
        "good",
        group="gender",
        prediction="prediction",
        prediction_positive="good",
    )
    return MetricContext(table=scenario_a_table, bindings=bindings)


@pytest.fixture(scope="session")
def group_rates_fixture_ctx() -> MetricContext:
    """Constructed table whose group positive rates are exactly
    0.3516 (f: 879/2500) and 0.2768 (m: 173/625)."""
    rows = []
    rows.extend([["f", "1"]] * 879)
    rows.extend([["f", "0"]] * (2500 - 879))
    rows.extend([["m", "1"]] * 173)
    rows.extend([["m", "0"]] * (625 - 173))
    table = table_from_rows(["g", "y"], rows)
    bindings = bind_roles(table, "y", "1", group="g")
    return MetricContext(table=table, bindings=bindings)


@pytest.fixture(scope="session")
def medical_plan() -> AssessmentPlan:
    return parse_plan_document(MEDICAL_PLAN.read_bytes(), "yaml")


@pytest.fixture(scope="session")
def medical_ctx() -> MetricContext:
    """80-row prediction table: 10 age cohorts x 2 genders, each cell
    holding one TP, FN, FP, TN row."""
    table = table_from_rows(MEDICAL_HEADER, medical_rows())
    bindings = bind_roles(
        table, "truth", "lesion", prediction="pred", prediction_positive="lesion"
    )
    return MetricContext(table=table, bindings=bindings)


# --- drawn CSV files --------------------------------------------------------------

FIELD_POOLS = [
    ["", "TRUE", "false", "True", "fAlSe"],
    ["", "007", "-3", "1_000", "0", " 7", "+5"],
    ["", "-0.0", "0.0", "nan", "NaN", "1e3", "inf", "1.5", "7"],
    ["", "a,b", "line\nbreak", "cr\r\nlf", 'say "hi"', "plain", "é", " "],
]
HEADER_NAMES = ["a", " a ", "b", "c", "", "d,e", "f\ng"]


@st.composite
def csv_sources(draw) -> bytes:
    """A small CSV file with typed, contested and quoted fields, and maybe
    a ragged row or a byte order mark."""
    width = draw(st.integers(min_value=0, max_value=4))
    header = draw(st.lists(st.sampled_from(HEADER_NAMES), min_size=width, max_size=width))
    # a column draws from one pool, or from two so its type is contested
    pools = [
        draw(st.sampled_from(FIELD_POOLS)) + draw(st.sampled_from([[], *FIELD_POOLS]))
        for _ in range(width)
    ]
    rows = [
        [draw(st.sampled_from(pool)) for pool in pools]
        for _ in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    if draw(st.booleans()):  # a ragged row, possibly after a multi-line field
        ragged = draw(st.lists(st.sampled_from(FIELD_POOLS[3]), max_size=width + 2))
        if len(ragged) != width:
            rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), ragged)
    buffer = io.StringIO(newline="")
    writer = csv.writer(
        buffer,
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
    )
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line break after the last record
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
