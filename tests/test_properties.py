from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import math
import operator
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    REGISTRY_METRICS,
    assert_structurally_valid,
    csv_sources,
    make_control,
    make_plan,
    random_bound_table,
    random_plan,
    table_from_rows,
)
from oscal_assure import (
    MetricContext,
    MetricOutcome,
    bind_roles,
    compare,
    default_registry,
    demographic_parity_difference,
    determinize,
    disparate_impact,
    dump_table,
    enforce_phase,
    group_positive_rates,
    group_reweight,
    load_table,
    serialize_canonical,
    stratify,
)
from oscal_assure import metrics
from oscal_assure.cli import main
from oscal_assure.enforcement import EnforcementAction, VerdictOutcome
from oscal_assure.errors import (
    DataError,
    EmptyInput,
    MissingRole,
    NonCategoricalColumn,
    NotComputable,
    OscalAssureError,
    RaggedRows,
    UndecodableBytes,
)
from oscal_assure.metrics import dice
from oscal_assure.plan import (
    ControlSpec,
    EnforcementMode,
    EvaluationMethod,
    EvaluationWindow,
    LifecyclePhase,
    Operator,
    TargetType,
    text,
)
from oscal_assure.results import FindingStatus
from oscal_assure.tabular import _BOOL_TOKENS, Cell, ColumnType, DataTable, cell_token

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

NEGATIONS = [
    (Operator.GT, Operator.LE),
    (Operator.GE, Operator.LT),
    (Operator.EQ, Operator.NE),
]


@given(finite_floats, finite_floats, st.sampled_from(list(Operator)))
def test_compare_is_total(value, threshold, operator):
    assert compare(value, operator, threshold) in (True, False)


@given(finite_floats, finite_floats, st.sampled_from(NEGATIONS))
def test_compare_negation_pairs(value, threshold, pair):
    operator, negation = pair
    assert compare(value, operator, threshold) != compare(value, negation, threshold)


@given(finite_floats)
def test_ge_reflexive(value):
    assert compare(value, Operator.GE, value)


group_rows = st.lists(
    st.tuples(st.sampled_from(["A", "B", "C"]), st.sampled_from(["1", "0"])),
    min_size=2,
    max_size=40,
)


def _group_ctx(pairs) -> MetricContext:
    table = table_from_rows(["g", "y"], [[g, y] for g, y in pairs])
    return MetricContext(table, bind_roles(table, "y", "1", group="g"))


@given(group_rows, st.randoms(use_true_random=False))
def test_metrics_are_permutation_invariant(pairs, rng):
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    try:
        original = disparate_impact(_group_ctx(pairs))
    except NotComputable:
        with pytest.raises(NotComputable):
            disparate_impact(_group_ctx(shuffled))
        return
    permuted = disparate_impact(_group_ctx(shuffled))
    assert permuted.value == original.value
    assert permuted.per_group == original.per_group


@given(group_rows)
def test_group_relabeling_changes_keys_not_values(pairs):
    renamed = [(f"grp:{g}", y) for g, y in pairs]
    try:
        original = group_positive_rates(_group_ctx(pairs))
    except NotComputable:
        return
    relabeled = group_positive_rates(_group_ctx(renamed))
    assert relabeled.per_group == {
        f"grp:{label}": rate for label, rate in original.per_group.items()
    }


@given(group_rows)
def test_di_and_dp_bounds_and_equivalence(pairs):
    ctx = _group_ctx(pairs)
    try:
        di = disparate_impact(ctx).value
    except NotComputable:
        return
    dp = demographic_parity_difference(ctx).value
    assert 0.0 <= di <= 1.0
    assert 0.0 <= dp <= 1.0
    assert (di == 1.0) == (dp == 0.0)


cells_strategy = st.dictionaries(
    keys=st.tuples(st.sampled_from(["A", "B", "C", "D"]), st.sampled_from(["1", "0"])),
    values=st.integers(min_value=1, max_value=6),
    min_size=1,
)


def _rows_with_all_cells(cells) -> list[tuple[str, str]]:
    groups = {g for g, _ in cells}
    rows = []
    for g in groups:
        for y in ("1", "0"):
            rows.extend([(g, y)] * cells.get((g, y), 1))
    return rows


@given(cells_strategy)
def test_reweight_mass_conservation_and_independence(cells):
    rows = _rows_with_all_cells(cells)
    ctx = _group_ctx(rows)
    weights = group_reweight(ctx)
    assert abs(math.fsum(weights) - len(rows)) < 1e-9

    # independent check: weighted positive rate per group, computed directly
    per_group_mass: dict[str, float] = {}
    per_group_positive: dict[str, float] = {}
    total_mass = 0.0
    total_positive = 0.0
    for (g, y), w in zip(rows, weights):
        per_group_mass[g] = per_group_mass.get(g, 0.0) + w
        total_mass += w
        if y == "1":
            per_group_positive[g] = per_group_positive.get(g, 0.0) + w
            total_positive += w
    overall = total_positive / total_mass
    for g, mass in per_group_mass.items():
        rate = per_group_positive.get(g, 0.0) / mass
        assert abs(rate - overall) < 1e-9


def test_dice_identity_cross_checked_against_brute_force():
    rng = random.Random(4217)
    for _ in range(50):
        ctx = random_bound_table(rng, max_rows=51)
        target = ctx.table.column("y")
        prediction = ctx.table.column("p")
        tp = sum(1 for y, p in zip(target, prediction) if y == 1 and p == 1)
        fp = sum(1 for y, p in zip(target, prediction) if y == 0 and p == 1)
        fn = sum(1 for y, p in zip(target, prediction) if y == 1 and p == 0)
        if 2 * tp + fp + fn == 0:
            with pytest.raises(NotComputable):
                dice(ctx)
            continue
        expected = 2 * tp / (2 * tp + fp + fn)
        assert dice(ctx).value == pytest.approx(expected, abs=1e-12)


token_pools = {
    "int": ["1", "42", "-7", "0"],
    "float": ["1.5", "-2.25", "3.0", "0.125"],
    "bool": ["true", "false", "True"],
    "word": ["alpha", "beta", "gamma"],
}


def test_type_inference_idempotent_over_random_tables():
    rng = random.Random(915)
    for _ in range(60):
        n_cols = rng.randrange(1, 5)
        kinds = [rng.choice(list(token_pools)) for _ in range(n_cols)]
        header = [f"c{i}" for i in range(n_cols)]
        rows = [
            [
                "" if rng.random() < 0.15 else rng.choice(token_pools[kind])
                for kind in kinds
            ]
            for _ in range(rng.randrange(1, 12))
        ]
        table = table_from_rows(header, rows)
        again = load_table(dump_table(table))
        assert again.column_types == table.column_types


def test_training_phase_never_reads_prediction_column(scenario_a_plan, scenario_a_table):
    registry = default_registry()

    def observations_with_prediction(prediction_value: str):
        rows = []
        for i in range(scenario_a_table.row_count):
            rows.append(
                [
                    scenario_a_table.column("gender")[i],
                    scenario_a_table.column("age_group")[i],
                    scenario_a_table.column("class")[i],
                    prediction_value,
                ]
            )
        table = table_from_rows(["gender", "age_group", "class", "prediction"], rows)
        bindings = bind_roles(
            table, "class", "good", group="gender",
            prediction="prediction", prediction_positive="good",
        )
        report = enforce_phase(
            scenario_a_plan,
            LifecyclePhase.TRAINING,
            MetricContext(table, bindings),
            registry,
        )
        return [
            (o.relevant_control_id, o.observed_value, o.per_group)
            for o in report.assessment_results.results[0].observations
        ]

    assert observations_with_prediction("good") == observations_with_prediction("bad")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_randomized_enforcement_invariants(seed):
    rng = random.Random(seed)
    plan = random_plan(rng)
    ctx = random_bound_table(rng)
    registry = default_registry()
    for phase in (LifecyclePhase.TRAINING, LifecyclePhase.VALIDATION):
        report = enforce_phase(plan, phase, ctx, registry)
        assert len(report.verdicts) == len(
            [c for c in plan.controls if phase in c.lifecycle_phases]
        )
        for verdict in report.verdicts:
            assert (verdict.outcome is VerdictOutcome.SKIPPED) == (
                verdict.skip_reason is not None
            )
            if verdict.enforcement_action_taken is EnforcementAction.BLOCKED:
                assert verdict.outcome is VerdictOutcome.NOT_SATISFIED
        assert report.blocked == any(
            v.enforcement_action_taken is EnforcementAction.BLOCKED
            for v in report.verdicts
        )

        # not-satisfied findings, risks, and open POA&M items are in bijection
        block = report.assessment_results.results[0]
        failed = [f for f in block.findings if f.status is FindingStatus.NOT_SATISFIED]
        assert len(block.risks) == len(failed)
        assert {r.linked_finding_uuid for r in block.risks} == {f.uuid for f in failed}
        items = report.poam.poam_items if report.poam else ()
        assert len(items) == len(block.risks)
        assert {i.related_risk_uuid for i in items} == {r.uuid for r in block.risks}

        assert_structurally_valid(report.assessment_results, report.poam)


def _results_uuids(results) -> set[str]:
    return {results.uuid} | {
        record.uuid
        for block in results.results
        for record in (block, *block.observations, *block.findings, *block.risks)
    }


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_determinize_is_idempotent_and_maps_every_uuid(seed):
    rng = random.Random(seed)
    plan = random_plan(rng)
    ctx = random_bound_table(rng)
    determinized_plan, plan_map = determinize(plan)
    assert determinize(determinized_plan)[0] == determinized_plan
    assert plan.uuid in plan_map
    for phase in (LifecyclePhase.TRAINING, LifecyclePhase.VALIDATION):
        report = enforce_phase(plan, phase, ctx, default_registry())
        results, mapping = determinize(report.assessment_results)
        again, again_map = determinize(results)
        assert again == results
        assert _results_uuids(report.assessment_results) <= mapping.keys()
        if report.poam is None:
            continue
        poam, poam_map = determinize(report.poam, reference_map=mapping)
        assert determinize(poam, reference_map=again_map)[0] == poam
        uuids = {report.poam.uuid} | {item.uuid for item in report.poam.poam_items}
        assert uuids <= poam_map.keys()


# --- built-in metrics against per-row reference loops ---------------------------
# The per-row loops below are the metric passes as they were before the
# built-ins shared one crosstab, with the column access they had then. Row
# grouping, exclusion and summation order must not change an outcome, so
# the two are compared by exact repr.


def _reference_subject(ctx: MetricContext) -> tuple[tuple[Cell, ...], str]:
    b = metrics._bindings(ctx)
    if ctx.evaluate_on == "prediction":
        if b.prediction is None or b.prediction_positive is None:
            raise MissingRole("prediction column is not bound")
        return ctx.table.column(b.prediction), b.prediction_positive
    return ctx.table.column(b.target), b.target_positive


def _reference_group_column(ctx: MetricContext) -> tuple[Cell, ...]:
    name = ctx.params.get("group") or metrics._bindings(ctx).group
    if name is None:
        raise MissingRole("group column is not bound")
    return ctx.table.column(name)


def _reference_weights(ctx: MetricContext) -> tuple[Cell, ...] | None:
    b = ctx.bindings
    return None if b is None or b.weight is None else ctx.table.column(b.weight)


def _reference_class_imbalance_ratio(ctx: MetricContext) -> MetricOutcome:
    b = metrics._bindings(ctx)
    target = ctx.table.column(b.target)
    weights = _reference_weights(ctx)

    masses: dict[str, list[float]] = {}
    excluded = 0
    for i, value in enumerate(target):
        w = 1.0 if weights is None else weights[i]
        if value is None or w is None:
            excluded += 1
            continue
        masses.setdefault(cell_token(value), []).append(float(w))
    totals = {label: math.fsum(parts) for label, parts in masses.items()}
    if len(totals) < 2:
        raise NotComputable(
            f"class imbalance needs both classes present, saw {sorted(totals) or 'none'}"
        )
    low, high = min(totals.values()), max(totals.values())
    if high == 0:
        raise NotComputable("all class masses are zero")
    return MetricOutcome(
        value=metrics._finite(low / high, "class imbalance ratio"),
        excluded_rows=excluded,
    )


def _reference_group_positive_rates(ctx: MetricContext) -> MetricOutcome:
    subject, positive = _reference_subject(ctx)
    group = _reference_group_column(ctx)
    weights = _reference_weights(ctx)

    mass: dict[str, list[float]] = {}
    positive_mass: dict[str, list[float]] = {}
    excluded = 0
    for i in range(ctx.table.row_count):
        g, y = group[i], subject[i]
        w = 1.0 if weights is None else weights[i]
        if g is None or y is None or w is None:
            excluded += 1
            continue
        label = cell_token(g)
        mass.setdefault(label, []).append(float(w))
        if cell_token(y) == positive:
            positive_mass.setdefault(label, []).append(float(w))
    if not mass:
        raise NotComputable("no rows with group and outcome present")

    per_group: dict[str, float] = {}
    for label in sorted(mass):
        total = math.fsum(mass[label])
        if total == 0:
            raise NotComputable(f"group {label!r} has zero total weight")
        per_group[label] = metrics._finite(
            math.fsum(positive_mass.get(label, [])) / total, f"rate of group {label!r}"
        )
    max_group = max(per_group, key=lambda k: (per_group[k], k))
    return MetricOutcome(
        value=per_group[max_group],
        per_group=per_group,
        excluded_rows=excluded,
    )


def _reference_confusion_counts(ctx: MetricContext) -> tuple[float, float, float, float, int]:
    b = metrics._bindings(ctx)
    if b.prediction is None or b.prediction_positive is None:
        raise MissingRole("confusion metrics need a bound prediction column")
    target = ctx.table.column(b.target)
    prediction = ctx.table.column(b.prediction)
    weights = _reference_weights(ctx)

    tp: list[float] = []
    tn: list[float] = []
    fp: list[float] = []
    fn: list[float] = []
    excluded = 0
    for i in range(ctx.table.row_count):
        y, p = target[i], prediction[i]
        w = 1.0 if weights is None else weights[i]
        if y is None or p is None or w is None:
            excluded += 1
            continue
        actual = cell_token(y) == b.target_positive
        predicted = cell_token(p) == b.prediction_positive
        bucket = tp if (actual and predicted) else fn if actual else fp if predicted else tn
        bucket.append(float(w))
    return math.fsum(tp), math.fsum(tn), math.fsum(fp), math.fsum(fn), excluded


def _reference_group_reweight(ctx: MetricContext) -> list[float]:
    b = metrics._bindings(ctx)
    group = _reference_group_column(ctx)
    target = ctx.table.column(b.target)

    group_counts: dict[str, int] = {}
    class_counts: dict[str, int] = {}
    cell_counts: dict[tuple[str, str], int] = {}
    observed = 0
    for i in range(ctx.table.row_count):
        g, y = group[i], target[i]
        if g is None or y is None:
            continue
        observed += 1
        gl, yl = cell_token(g), cell_token(y)
        group_counts[gl] = group_counts.get(gl, 0) + 1
        class_counts[yl] = class_counts.get(yl, 0) + 1
        cell_counts[(gl, yl)] = cell_counts.get((gl, yl), 0) + 1
    if observed == 0:
        raise NotComputable("no rows with group and outcome present")

    weights = []
    for i in range(ctx.table.row_count):
        g, y = group[i], target[i]
        if g is None or y is None:
            weights.append(1.0)
            continue
        gl, yl = cell_token(g), cell_token(y)
        weights.append(group_counts[gl] * class_counts[yl] / (observed * cell_counts[(gl, yl)]))
    return weights


def _all_outcomes(ctx: MetricContext) -> dict[str, str]:
    """repr of every built-in's outcome (and of group_reweight's weights),
    or the type and message of the error it raised."""
    registry = metrics.default_registry()
    functions = {key: registry.entry(key).fn for key in registry.keys()}
    functions["group_reweight"] = metrics.group_reweight
    outcomes = {}
    for key, fn in functions.items():
        try:
            outcomes[key] = repr(fn(ctx))
        except Exception as exc:  # compared by type and message
            outcomes[key] = f"{type(exc).__name__}: {exc}"
    return outcomes


GROUP_POOLS = {
    "word": ["a", "b", "c"],
    "int": ["0", "-3", "12"],
    "decimal": ["-0.0", "0.0", "0.5", "1e3", "nan", "NaN"],
    "bool": ["true", "False", "TRUE"],
}
WEIGHT_POOLS = {
    "int": ["0", "1", "2", "7"],
    "decimal": ["0", "-0.0", "0.1", "0.2", "0.3", "0.7", "1.1", "1e-300"],
}


@st.composite
def metric_contexts(draw) -> MetricContext:
    group_pool = GROUP_POOLS[draw(st.sampled_from(sorted(GROUP_POOLS)))]
    weight_pool = WEIGHT_POOLS[draw(st.sampled_from(sorted(WEIGHT_POOLS)))]

    def cell(pool):
        return st.sampled_from(["", *pool])  # "" is a missing cell

    distinct = draw(
        st.lists(
            st.tuples(
                cell(group_pool), cell(["1", "0"]), cell(["1", "0"]), cell(weight_pool)
            ),
            min_size=1,
            max_size=40,
        )
    )
    rows = [
        list(row)
        for row in distinct
        for _ in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    table = table_from_rows(["g", "y", "p", "w"], rows)
    weighted = draw(st.booleans())
    bindings = bind_roles(
        table, "y", "1", group="g", prediction="p", prediction_positive="1",
        weight="w" if weighted else None,
    )
    privileged = draw(st.one_of(st.none(), st.sampled_from(group_pool)))
    return MetricContext(
        table,
        bindings,
        params={} if privileged is None else {"privileged": privileged},
        evaluate_on=draw(st.sampled_from(["target", "prediction"])),
    )


def _weighted_ctx(rows: list[list[str]]) -> MetricContext:
    table = table_from_rows(["g", "y", "p", "w"], rows)
    return MetricContext(
        table, bind_roles(table, "y", "1", group="g", prediction="p",
                          prediction_positive="1", weight="w")
    )


@settings(max_examples=500, deadline=None)
@given(metric_contexts())
# a group total summed from per-cell totals would read 0.9999999999999999 here
@example(_weighted_ctx([["a", "1", "1", "0.1"], ["a", "0", "0", "0.2"], ["a", "0", "1", "0.7"]]))
def test_builtin_metrics_match_per_row_reference_loops(ctx):
    with mock.patch.multiple(
        metrics,
        class_imbalance_ratio=_reference_class_imbalance_ratio,
        group_positive_rates=_reference_group_positive_rates,
        _confusion_counts=_reference_confusion_counts,
        group_reweight=_reference_group_reweight,
    ):
        expected = _all_outcomes(ctx)
    assert _all_outcomes(ctx) == expected


# --- enforce_phase against a per-row oracle ------------------------------------
# Every verdict, action, observed value, stratum label, excluded-row count
# and error text of enforce_phase is recomputed from scratch: the per-row
# reference loops above on per-row copies of each stratum, and plain
# comparison operators. Thresholds are drawn at, and one ulp either side
# of, the values the reference observes, so a boundary fault shows.

ORACLE_COMPARE = {
    Operator.GT: operator.gt,
    Operator.GE: operator.ge,
    Operator.LT: operator.lt,
    Operator.LE: operator.le,
    Operator.EQ: operator.eq,
    Operator.NE: operator.ne,
}
ORACLE_PHASES = (LifecyclePhase.TRAINING, LifecyclePhase.VALIDATION)
ORACLE_ACTIONS = {
    EnforcementMode.MONITOR: "logged",
    EnforcementMode.WARN: "warned",
    EnforcementMode.BLOCK: "blocked",
}


def _stratum_rows(ctx: MetricContext) -> MetricOutcome:
    """A metric registered from outside: it must see each stratum's table."""
    return MetricOutcome(value=float(ctx.table.row_count))


def _oracle_registry():
    registry = default_registry()
    registry.register("stratum_rows", _stratum_rows, {"target"})
    # a custom metric that calls a built-in must still see stratum tables
    registry.register(
        "wrapped_accuracy", lambda ctx: metrics.accuracy(ctx), {"target", "prediction"}
    )
    return registry


def _reference_stratify(table: DataTable, by: str) -> list[tuple[str, DataTable]]:
    """Rows grouped by the label of `by`, one row at a time, labels in order."""
    column = table.column(by)
    if table.column_type(by) is not ColumnType.CATEGORICAL:
        raise NonCategoricalColumn(
            f"column {by!r} is {table.column_type(by).value}, stratification needs categorical"
        )
    rows: dict[str, list[int]] = {}
    for i, value in enumerate(column):
        rows.setdefault(cell_token(value), []).append(i)
    return [
        (
            label,
            DataTable(
                table.column_names,
                table.column_types,
                tuple(tuple(col[i] for i in rows[label]) for col in table.columns),
                len(rows[label]),
            ),
        )
        for label in sorted(rows)
    ]


def _reference_strata(spec: ControlSpec, ctx: MetricContext, registry) -> list:
    """(label, outcome or error) per stratum, computed under the reference loops."""
    base = MetricContext(
        ctx.table,
        ctx.bindings,
        {**ctx.params, **spec.metric_params},
        "prediction" if spec.target_type is TargetType.MODEL else "target",
    )
    tables = [(None, ctx.table)]
    if spec.stratify_by is not None:
        try:
            tables = _reference_stratify(ctx.table, spec.stratify_by)
            if not tables:
                raise NotComputable(f"no rows to stratify by {spec.stratify_by!r}")
        except OscalAssureError as exc:
            return [(None, exc)]
    strata = []
    for label, table in tables:
        try:
            result = registry.evaluate(spec.metric_key, dataclasses.replace(base, table=table))
        except OscalAssureError as exc:
            result = exc
        strata.append((label, result))
    return strata


def _reference_verdict(spec: ControlSpec, strata, mode_override) -> tuple:
    for executable, reason in (
        (spec.evaluation_method is EvaluationMethod.AUTOMATED, "manual-attestation-required"),
        (spec.evaluation_window is EvaluationWindow.PER_RUN, "window-not-executable"),
    ):
        if not executable:
            return (spec.control_id, "skipped", reason, "none",
                    [(None, "None", 0, f"skipped: {reason}", "None")])
    observations = []
    failed = False
    for label, result in strata:
        if isinstance(result, OscalAssureError):
            failed = True
            observations.append((label, "None", 0, f"evaluation-error: {result}", "None"))
            continue
        failed |= not ORACLE_COMPARE[spec.operator](result.value, spec.threshold)
        n = result.excluded_rows
        remarks = f"excluded {n} row(s) with missing bound values" if n else None
        per_group = repr(result.per_group or None)
        observations.append((label, repr(result.value), n, remarks, per_group))
    action = ORACLE_ACTIONS[mode_override or spec.enforcement_mode] if failed else "none"
    return (spec.control_id, "not-satisfied" if failed else "satisfied", None, action,
            observations)


def _verdict_summary(verdict) -> tuple:
    return (
        verdict.control_id,
        verdict.outcome.value,
        verdict.skip_reason.value if verdict.skip_reason else None,
        verdict.enforcement_action_taken.value,
        [
            (o.stratum, repr(o.observed_value), o.excluded_rows, o.remarks, repr(o.per_group))
            for o in verdict.observations
        ],
    )


def _deterministic_bytes(report) -> bytes:
    """The bytes `enforce --deterministic` writes for a report."""
    results, mapping = determinize(report.assessment_results)
    data = serialize_canonical(results)
    if report.poam is not None:
        data += serialize_canonical(determinize(report.poam, reference_map=mapping)[0])
    return data


def _with_columns(table: DataTable, names, columns) -> DataTable:
    return DataTable(
        table.column_names + tuple(names),
        table.column_types + (ColumnType.CATEGORICAL,) * len(names),
        table.columns + tuple(columns),
        table.row_count,
    )


def _permuted(table: DataTable, order: list[int]) -> DataTable:
    return dataclasses.replace(
        table, columns=tuple(tuple(col[i] for i in order) for col in table.columns)
    )


@st.composite
def oracle_contexts(draw) -> MetricContext:
    # the table comes from a seeded generator: drawing each cell through
    # hypothesis would take most of the test's time
    rng = random.Random(draw(st.integers(min_value=0)))

    def values(pool):
        """A non-empty part of pool (one value makes a single-valued
        column), sometimes with "" (a missing cell)."""
        return rng.sample(pool, rng.randint(1, len(pool))) + [""] * rng.randint(0, 1)

    pools = [
        values(GROUP_POOLS[rng.choice(sorted(GROUP_POOLS))]),  # g
        values(["u", "v"]),  # h
        values(["1", "0"]),  # y
        values(["1", "0"]),  # p
        values(WEIGHT_POOLS[rng.choice(sorted(WEIGHT_POOLS))]),  # w
    ]
    distinct = [[rng.choice(pool) for pool in pools] for _ in range(rng.randint(0, 25))]
    rows = [row for row in distinct for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    table = table_from_rows(["g", "h", "y", "p", "w"], rows)
    # hand-built: a missing cell and an empty string are unequal cells that
    # share the label ""
    s_pool = rng.sample(["x", "y", "", None], rng.randint(1, 4))
    table = _with_columns(table, ["s"], [tuple(rng.choice(s_pool) for _ in rows)])
    bindings = bind_roles(
        table, "y", "1", group="g", prediction="p", prediction_positive="1",
        weight="w" if rng.random() < 0.5 else None,
    )
    return MetricContext(table, bindings)


oracle_controls = st.builds(
    make_control,
    st.just("draft"),
    metric_key=st.sampled_from([*REGISTRY_METRICS, "stratum_rows", "wrapped_accuracy", "nope"]),
    operator=st.sampled_from(list(Operator)),
    lifecycle_phases=st.lists(st.sampled_from(ORACLE_PHASES), min_size=1, unique=True).map(
        frozenset
    ),
    enforcement_mode=st.sampled_from(list(EnforcementMode)),
    evaluation_method=st.sampled_from([EvaluationMethod.AUTOMATED] * 6 + list(EvaluationMethod)),
    evaluation_window=st.sampled_from([EvaluationWindow.PER_RUN] * 6 + list(EvaluationWindow)),
    target_type=st.sampled_from([TargetType.DATASET, TargetType.MODEL]),
    # y is an integer column; "nope" is no column at all
    stratify_by=st.sampled_from([None, None, "s", "g", "h", "y", "nope"]),
    metric_params=st.fixed_dictionaries(
        {},
        optional={
            "group": st.sampled_from(["h", "s", "nope"]),
            "privileged": st.sampled_from(["a", "0", "0.0", "true", "u", "x", ""]),
        },
    ),
)


@settings(max_examples=500, deadline=None)
@given(oracle_contexts(), st.lists(oracle_controls, min_size=1, max_size=5), st.data())
def test_enforce_phase_matches_the_per_row_oracle(ctx, drafts, data):
    with mock.patch.multiple(
        metrics,
        class_imbalance_ratio=_reference_class_imbalance_ratio,
        group_positive_rates=_reference_group_positive_rates,
        _confusion_counts=_reference_confusion_counts,
    ):
        registry = _oracle_registry()
        strata = [_reference_strata(draft, ctx, registry) for draft in drafts]

    specs = []
    for i, (draft, draft_strata) in enumerate(zip(drafts, strata)):
        seen = [r.value for _, r in draft_strata if not isinstance(r, OscalAssureError)]
        near = [math.nextafter(v, d) for v in seen for d in (-math.inf, math.inf)]
        threshold = data.draw(st.sampled_from([*seen, *near, 0.0, 0.5, 1.0]) | finite_floats)
        specs.append(dataclasses.replace(draft, control_id=f"c{i}", threshold=threshold))
    plan = make_plan(specs)
    mode_override = data.draw(st.sampled_from([None, None, *EnforcementMode]))

    order = data.draw(st.permutations(range(ctx.table.row_count)))
    unread = tuple(None if i % 2 else "z" for i in range(ctx.table.row_count))
    variants = [
        dataclasses.replace(ctx, table=_permuted(ctx.table, order)),
        dataclasses.replace(ctx, table=_with_columns(ctx.table, ["unread"], [unread])),
    ]
    registry = _oracle_registry()
    for phase in ORACLE_PHASES:
        report = enforce_phase(plan, phase, ctx, registry, mode_override=mode_override)
        expected = [
            _reference_verdict(spec, draft_strata, mode_override)
            for spec, draft_strata in zip(specs, strata)
            if phase in spec.lifecycle_phases
        ]
        assert [_verdict_summary(v) for v in report.verdicts] == expected
        assert report.blocked == any(verdict[3] == "blocked" for verdict in expected)

        # metamorphic: row order and an unread column change no output byte
        output = _deterministic_bytes(report)
        for variant in variants:
            again = enforce_phase(plan, phase, variant, registry, mode_override=mode_override)
            assert _deterministic_bytes(again) == output


# --- the command line against the same oracle ---------------------------------------
# `enforce --phase P` and `run` read the plan and the table from files and
# must print the oracle's verdict rows, one table per phase evaluated, and
# exit with the code those rows imply: 1 when a selected control needs a
# role that no flag binds, else 2 when a control blocks, else 0.

#: Roles each built-in metric reads; "subject" is the side a control evaluates.
ORACLE_ROLES = {
    "class_imbalance_ratio": {"target"},
    "group_positive_rates": {"subject", "group"},
    "disparate_impact": {"subject", "group"},
    "demographic_parity_difference": {"subject", "group"},
    **{key: {"target", "prediction"} for key in ("accuracy", "sensitivity", "specificity", "dice")},
}


def _runnable(spec: ControlSpec, bound: set[str]) -> bool:
    """Whether the control is skipped, or every role it reads is bound."""
    if (spec.evaluation_method is not EvaluationMethod.AUTOMATED
            or spec.evaluation_window is not EvaluationWindow.PER_RUN):
        return True
    subject = "prediction" if spec.target_type is TargetType.MODEL else "target"
    roles = {subject if role == "subject" else role for role in ORACLE_ROLES[spec.metric_key]}
    return roles <= bound | ({"group"} if "group" in spec.metric_params else set())


def _printed_row(spec: ControlSpec, verdict: tuple) -> list[str]:
    """The fields of a verdict's row in the printed table."""
    control_id, outcome, reason, action, observations = verdict
    values = [float(value) for _, value, *_ in observations if value != "None"]
    result = {"satisfied": "PASS", "not-satisfied": "FAIL"}.get(outcome, f"SKIP ({reason})")
    return [control_id, spec.metric_key, f"{values[0]:.3f}" if values else "-",
            spec.operator.value, f"{spec.threshold:.3f}", *result.split(), action]


def _printed_tables(out: str) -> dict[str, list[list[str]]]:
    """The rows of each printed verdict table, split into fields, by phase."""
    tables = {}
    for block in out.split("phase: ")[1:]:
        lines = block.splitlines()
        tables[lines[0]] = [row.split() for row in lines[3:lines.index("")]]
    return tables


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


#: oracle_controls with built-in metric keys only, as a plan file can name
builtin_controls = st.builds(
    dataclasses.replace, oracle_controls, metric_key=st.sampled_from(REGISTRY_METRICS)
)


@settings(max_examples=200, deadline=None)
@given(
    oracle_contexts(),
    st.lists(builtin_controls, min_size=1, max_size=5),
    st.sampled_from([True, True, False]),
    st.sampled_from([True, True, False]),
    st.data(),
)
def test_cli_matches_the_per_row_oracle(ctx, drafts, group, prediction, data):
    table = load_table(dump_table(ctx.table))  # the table as the command reads it
    weight = ctx.bindings.weight
    bindings = bind_roles(
        table, "y", "1", group="g" if group else None, weight=weight,
        prediction="p" if prediction else None, prediction_positive="1" if prediction else None,
    )
    bound = {"target"} | ({"group"} if group else set()) | ({"prediction"} if prediction else set())
    with mock.patch.multiple(
        metrics,
        class_imbalance_ratio=_reference_class_imbalance_ratio,
        group_positive_rates=_reference_group_positive_rates,
        _confusion_counts=_reference_confusion_counts,
    ):
        strata = [
            _reference_strata(draft, MetricContext(table, bindings), default_registry())
            for draft in drafts
        ]
    specs = []
    for i, (draft, draft_strata) in enumerate(zip(drafts, strata)):
        seen = [r.value for _, r in draft_strata if not isinstance(r, OscalAssureError)]
        threshold = data.draw(st.sampled_from([*seen, 0.0, 0.5, 1.0]) | finite_floats)
        specs.append(dataclasses.replace(draft, control_id=f"c{i}", threshold=threshold))
    plan = make_plan(specs)
    mode_override = data.draw(st.sampled_from([None, None, *EnforcementMode]))

    # per phase: whether it can run, its rows, and whether it blocks
    expected = {}
    for phase in ORACLE_PHASES:
        selected = [(spec, s) for spec, s in zip(specs, strata) if phase in spec.lifecycle_phases]
        verdicts = [_reference_verdict(spec, s, mode_override) for spec, s in selected]
        expected[phase] = (
            all(_runnable(spec, bound) for spec, _ in selected),
            [_printed_row(spec, verdict) for (spec, _), verdict in zip(selected, verdicts)],
            any(verdict[3] == "blocked" for verdict in verdicts),
        )

    with tempfile.TemporaryDirectory() as tmp:
        plan_path, data_path = Path(tmp) / "plan.json", Path(tmp) / "data.csv"
        plan_path.write_bytes(serialize_canonical(plan))
        data_path.write_bytes(dump_table(ctx.table))
        flags = ["--target", "y:1", *(["--group", "g"] if group else []),
                 *(["--prediction", "p:1"] if prediction else []),
                 *(["--weight", weight] if weight else []),
                 *(["--mode-override", mode_override.value] if mode_override else [])]
        for phase, (runnable, rows, blocked) in expected.items():
            code, out = _cli(["enforce", str(plan_path), str(data_path), "--phase", phase.value,
                              "--out", str(Path(tmp) / "out"), *flags])
            if not runnable:
                assert (code, out) == (1, "")
                continue
            assert code == (2 if blocked else 0)
            assert _printed_tables(out) == {phase.value: rows}

        # run evaluates each phase present that can run, and stops after one that blocks
        tables, code = {}, 1
        for phase in plan.phases_present():
            runnable, rows, blocked = expected[phase]
            if runnable:
                tables[phase.value], code = rows, 2 if blocked else 0
                if blocked:
                    break
        code_run, out = _cli(["run", "r", str(plan_path), "--data", str(data_path),
                              "--vault", str(Path(tmp) / "vault"), *flags])
        assert (code_run, _printed_tables(out)) == (code, tables)


# --- load_table against the row-list loader ----------------------------------------
# _reference_load_table is the loader as it was before it streamed records
# into columns and converted each distinct field once. Names, types, the
# repr of every cell, row_count and errors must not change; the one
# intended difference, a csv.Error now raised as DataError, needs a field
# far longer than these inputs and is tested in test_tabular.py.


def _reference_infer_column(raw: list[str | None]) -> tuple[ColumnType, tuple[Cell, ...]]:
    present = [v for v in raw if v is not None]
    if present and all(v.lower() in _BOOL_TOKENS for v in present):
        return ColumnType.BOOLEAN, tuple(
            None if v is None else _BOOL_TOKENS[v.lower()] for v in raw
        )
    try:
        if present:
            ints = {v: int(v) for v in present}
            return ColumnType.INTEGER, tuple(
                None if v is None else ints[v] for v in raw
            )
    except ValueError:
        pass
    try:
        if present:
            floats = {v: float(v) + 0.0 for v in present}
            return ColumnType.DECIMAL, tuple(
                None if v is None else floats[v] for v in raw
            )
    except ValueError:
        pass
    return ColumnType.CATEGORICAL, tuple(raw)


def _reference_load_table(source: bytes) -> DataTable:
    try:
        text = source.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise UndecodableBytes(f"input is not valid UTF-8: {exc}") from exc

    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    header: list[str] | None = None
    for row in reader:
        if header is None:
            header = [name.strip() for name in row]
            continue
        if len(row) != len(header):
            raise RaggedRows(
                f"line {reader.line_num}: expected {len(header)} cells, got {len(row)}"
            )
        rows.append(row)
    if header is None:
        raise EmptyInput("no header row in input")
    if len(set(header)) != len(header):
        raise DataError(f"duplicate column names in header: {header}")

    raw_columns: list[list[str | None]] = [[] for _ in header]
    for row in rows:
        for i, cell in enumerate(row):
            raw_columns[i].append(cell if cell != "" else None)

    types: list[ColumnType] = []
    columns: list[tuple[Cell, ...]] = []
    for raw in raw_columns:
        ctype, values = _reference_infer_column(raw)
        types.append(ctype)
        columns.append(values)

    return DataTable(
        column_names=tuple(header),
        column_types=tuple(types),
        columns=tuple(columns),
        row_count=len(rows),
    )


def _loaded(load, source: bytes):
    """Names, types, repr of every cell and row_count of the loaded table,
    or the type and message of the error the load raised."""
    try:
        table = load(source)
    except Exception as exc:  # compared by type and message
        return f"{type(exc).__name__}: {exc}"
    return (
        table.column_names,
        table.column_types,
        [[repr(cell) for cell in column] for column in table.columns],
        table.row_count,
    )


csv_fuzz = st.text(alphabet=',"\r\n a1.-', max_size=40).map(str.encode) | st.binary(max_size=40)


def _sharing(table: DataTable) -> list[list[int]]:
    """Per column, the first row whose cell is the very object in each row."""
    pattern = []
    for column in table.columns:
        first: dict[int, int] = {}
        pattern.append([first.setdefault(id(cell), i) for i, cell in enumerate(column)])
    return pattern


#: Names to keep: header names as stripped, and absent ones.
KEPT_NAMES = ["a", "b", "", "d,e", "f\ng", "absent"]


@settings(max_examples=500, deadline=None)
@given(csv_sources() | csv_fuzz, st.sets(st.sampled_from(KEPT_NAMES)))
@example(b'a,b\n"x\ny",1\n2\n', {"a"})  # ragged row after a multi-line quoted field
@example(b"\n\n\n", set())  # zero-column header, rows still counted
def test_load_table_matches_the_row_list_loader(source, columns):
    full = _loaded(load_table, source)
    assert full == _loaded(_reference_load_table, source)
    # keeping some columns gives the full load cut down to them, or its error
    projected = _loaded(functools.partial(load_table, columns=columns), source)
    if isinstance(full, str):
        assert projected == full
        return
    names, types, cells, row_count = full
    keep = [i for i, name in enumerate(names) if name in columns]
    assert projected == (
        tuple(names[i] for i in keep), tuple(types[i] for i in keep),
        [cells[i] for i in keep], row_count,
    )
    sharing = _sharing(load_table(source))
    kept = load_table(source, columns=columns)
    assert _sharing(kept) == [sharing[i] for i in keep]


# --- dictionary encoding -------------------------------------------------------------
# A table holds each column as codes and the tuple of its distinct cells. Hand-built
# tables and strata are encoded as they are made; decoded, every table must give the
# cells the per-row code gave, and every dictionary entry must be held by a row (so
# bind_roles, which checks dictionary entries, sees only the cells a table holds).


def _typed(cells) -> list[tuple[type, str]]:
    """Each cell's type and repr: 1, 1.0, True and "1" stay apart, as do 0.0 and -0.0."""
    return [(type(cell), repr(cell)) for cell in cells]


def _assert_every_entry_is_held(table: DataTable) -> None:
    for codes, dictionary in zip(table.codes, table.dictionaries):
        assert sorted(set(codes)) == list(range(len(dictionary)))


mixed_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=2),
    st.sampled_from([0, 1, 0.0, -0.0, 1.0, True, False, "1", "", math.nan]),
)


@given(st.lists(mixed_cells, max_size=60))
def test_a_hand_built_mixed_column_keeps_its_cells(cells):
    table = DataTable(("c",), (ColumnType.CATEGORICAL,), (cells,), len(cells))
    column = table.column("c")
    assert _typed(column) == _typed(cells)
    # one object per type and repr
    assert len({id(cell) for cell in column}) == len(set(_typed(cells)))
    _assert_every_entry_is_held(table)


@given(mixed_cells)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_documents_and_table_labels_spell_a_scalar_alike(value):
    # a document field and a table label holding one value read the same
    assert text(value, "field") == cell_token(value)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OscalAssureError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, deadline=None)
@given(oracle_contexts(), st.sampled_from(["s", "g", "h", "y", "nope"]))
def test_strata_decode_to_the_per_row_stratify(ctx, by):
    strata = _outcome(stratify, ctx.table, by)
    expected = _outcome(_reference_stratify, ctx.table, by)
    if isinstance(expected, str):
        assert strata == expected
        return
    assert [
        (label, table.row_count, [_typed(column) for column in table.columns])
        for label, table in strata
    ] == [
        (label, table.row_count, [_typed(column) for column in table.columns])
        for label, table in expected
    ]
    for _, table in strata:
        _assert_every_entry_is_held(table)


def _reference_count_rows(table: DataTable, names, weight) -> dict:
    """count_rows as one loop over the decoded rows: {tokens: [rows, rows
    without a weight, sorted masses]}."""
    cells: dict = {}
    weights = table.column(weight) if weight is not None else [None] * table.row_count
    rows = zip(*map(table.column, names)) if names else [()] * table.row_count
    for row, w in zip(rows, weights):
        key = tuple(None if v is None else cell_token(v) for v in row)
        cell = cells.setdefault(key, [0, 0, []])
        cell[0] += 1
        if weight is None:
            cell[2] = [cell[0]]
        elif w is None:
            cell[1] += 1
        else:
            cell[2].append(float(w))
    return {key: [n, unweighted, sorted(masses)] for key, (n, unweighted, masses) in cells.items()}


#: Distinct values a column of the count_rows property draws from: past 256
#: present values, codes take two bytes. A column of n values takes
#: bit_length(n - 1) bits of a row's key, and keys past 64 bits (up to 18
#: columns of 10 bits) are counted as tuples.
COUNT_POOL_SIZES = [1, 2, 5, 16, 40, 1000]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0), st.booleans())
@example(seed=0, weighted=False)
# one seed for each key class: up to 5 bits (counted per key value), 6 to 8,
# 9 to 16, 17 to 32, 33 to 64, and past 64 bits (tuples)
@example(seed=1, weighted=False)
@example(seed=15, weighted=False)
@example(seed=3, weighted=True)
@example(seed=0, weighted=True)
@example(seed=17, weighted=False)
@example(seed=9, weighted=True)
def test_count_rows_matches_a_per_row_count(seed, weighted):
    rng = random.Random(seed)
    width = rng.choice([0, 1, 2, 3, 4, 8, 9, 18])
    rows = rng.randint(0, 600)
    pools = [
        [None, *range(rng.choice(COUNT_POOL_SIZES))] if rng.random() < 0.3
        else list(range(rng.choice(COUNT_POOL_SIZES)))
        for _ in range(width)
    ]
    columns = [[rng.choice(pool) for _ in range(rows)] for pool in pools]
    weights = [rng.choice([None, 0, 0.5, 1e-300, 3.0, rng.random()]) for _ in range(rows)]
    names = [f"c{k}" for k in range(width)]
    table = DataTable(
        (*names, "w"), (ColumnType.INTEGER,) * (width + 1), (*columns, weights), rows
    )
    weight = "w" if weighted else None
    # keys are laid out a block of rows at a time: small blocks split the rows
    with mock.patch.object(metrics, "_KEY_ROWS", rng.choice([1, 7, 64, metrics._KEY_ROWS])):
        joint = metrics.count_rows(table, names, weight)
    assert joint.names == tuple(names)
    assert {
        key: [n, unweighted, sorted(masses)] for key, (n, unweighted, masses) in joint.cells.items()
    } == _reference_count_rows(table, names, weight)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("bits", [0, 5, 6, 8, 9, 16, 17, 32, 33, 64, 65])
def test_count_rows_at_each_key_width(bits, weighted):
    rng = random.Random(bits)
    rows = 300
    # columns of at most 8 bits that take `bits` together, then one of 0 bits;
    # a column of w bits holds the fewest values that take them, None first
    widths = [8] * (bits // 8) + [bits % 8] * (bits % 8 > 0) + [0]
    columns = []
    for w in widths:
        values = [None, *range(1, (1 << w - 1) + 1 if w else 1)]
        column = values + [rng.choice(values) for _ in range(rows - len(values))]
        rng.shuffle(column)
        columns.append(column)
    weights = [rng.choice([None, 0, 0.5, 3.0, rng.random()]) for _ in range(rows)]
    names = [f"c{k}" for k in range(len(widths))]
    table = DataTable(
        (*names, "w"), (ColumnType.INTEGER,) * (len(names) + 1), (*columns, weights), rows
    )
    assert metrics._row_keys([table.encoding(n) for n in names], rows)[1] == bits
    weight = "w" if weighted else None
    with mock.patch.object(metrics, "_KEY_ROWS", 64):  # four full blocks and a part
        joint = metrics.count_rows(table, names, weight)
    assert {
        key: [n, unweighted, sorted(masses)] for key, (n, unweighted, masses) in joint.cells.items()
    } == _reference_count_rows(table, names, weight)
