from __future__ import annotations

import math

import pytest

from conftest import table_from_rows
from oscal_assure import (
    MetricContext,
    MetricOutcome,
    RoleBindings,
    bind_roles,
    class_imbalance_ratio,
    confusion_metrics,
    default_registry,
    demographic_parity_difference,
    disparate_impact,
    group_positive_rates,
    group_reweight,
    stratify,
)
from oscal_assure import metrics, tabular
from oscal_assure.canonical import cell_token
from oscal_assure.errors import (
    DuplicateKey,
    MissingRole,
    NotComputable,
    OscalAssureError,
    UnknownMetricKey,
)
from oscal_assure.metrics import accuracy, count_rows, dice, sensitivity, specificity


def ctx_of(header, rows, target="y", positive="1", **kwargs) -> MetricContext:
    table = table_from_rows(header, rows)
    bindings = bind_roles(table, target, positive, **kwargs)
    return MetricContext(table=table, bindings=bindings)


def binary_ctx(groups: list[str], outcomes: list[str], **kwargs) -> MetricContext:
    rows = [[g, y] for g, y in zip(groups, outcomes)]
    return ctx_of(["g", "y"], rows, group="g", **kwargs)


# --- class imbalance ----------------------------------------------------------


def test_class_imbalance_balanced_classes():
    ctx = ctx_of(["y"], [["a"]] * 50 + [["b"]] * 50, positive="a")
    assert class_imbalance_ratio(ctx).value == 1.0


def test_class_imbalance_90_10():
    ctx = ctx_of(["y"], [["a"]] * 90 + [["b"]] * 10, positive="a")
    assert class_imbalance_ratio(ctx).value == pytest.approx(10 / 90, abs=1e-12)


def test_class_imbalance_single_class_not_computable():
    ctx = ctx_of(["y"], [["a"]] * 5, positive="a")
    with pytest.raises(NotComputable):
        class_imbalance_ratio(ctx)


def test_class_imbalance_on_scenario_a(scenario_a_ctx):
    value = class_imbalance_ratio(scenario_a_ctx).value
    assert value == pytest.approx(0.4286, abs=0.0005)


# --- group positive rates -----------------------------------------------------


def test_group_rates_match_fixture_exactly(group_rates_fixture_ctx):
    outcome = group_positive_rates(group_rates_fixture_ctx)
    assert outcome.per_group == {
        "f": pytest.approx(0.3516, abs=1e-12),
        "m": pytest.approx(0.2768, abs=1e-12),
    }


def test_group_rates_all_positive():
    ctx = binary_ctx(["A", "A", "B"], ["1", "1", "1"])
    outcome = group_positive_rates(ctx)
    assert outcome.per_group == {"A": 1.0, "B": 1.0}


def test_group_rates_four_row_hand_count():
    ctx = binary_ctx(["A", "A", "B", "B"], ["1", "0", "1", "1"])
    outcome = group_positive_rates(ctx)
    assert outcome.per_group == {"A": 0.5, "B": 1.0}


def test_group_rates_require_group_binding():
    ctx = ctx_of(["y"], [["1"], ["0"]])
    with pytest.raises(MissingRole):
        group_positive_rates(ctx)


def test_group_rates_weighted():
    # A: rows (y=1, w=2), (y=0, w=1) -> 2/3; B: (y=1, w=1) -> 1.0
    ctx = ctx_of(
        ["g", "y", "w"],
        [["A", "1", "2"], ["A", "0", "1"], ["B", "1", "1"]],
        group="g",
        weight="w",
    )
    outcome = group_positive_rates(ctx)
    assert outcome.per_group["A"] == pytest.approx(2 / 3, abs=1e-12)
    assert outcome.per_group["B"] == 1.0


@pytest.mark.parametrize(
    "metric",
    [class_imbalance_ratio, group_positive_rates, disparate_impact, accuracy, dice],
)
def test_weights_that_sum_past_the_largest_float_are_not_computable(metric):
    # each weight is finite, so bind_roles takes them; their sum is not
    ctx = ctx_of(
        ["g", "y", "p", "w"],
        [["a", "1", "1", "1e308"], ["a", "0", "0", "1e308"], ["a", "0", "0", "1e308"],
         ["b", "1", "1", "1"]],
        group="g",
        prediction="p",
        prediction_positive="1",
        weight="w",
    )
    with pytest.raises(NotComputable, match="overflows a float"):
        metric(ctx)


def test_missing_rows_excluded_and_counted():
    ctx = ctx_of(["g", "y"], [["A", "1"], ["", "0"], ["B", ""]], group="g")
    outcome = group_positive_rates(ctx)
    assert outcome.excluded_rows == 2
    assert outcome.per_group == {"A": 1.0}


# --- disparate impact / demographic parity ------------------------------------


def test_di_on_group_rates_fixture(group_rates_fixture_ctx):
    outcome = disparate_impact(group_rates_fixture_ctx)
    assert outcome.value == pytest.approx(0.787, abs=0.001)


def test_di_equal_rates_is_one():
    ctx = binary_ctx(["A", "A", "B", "B"], ["1", "0", "1", "0"])
    assert disparate_impact(ctx).value == 1.0


def test_di_from_four_row_example():
    ctx = binary_ctx(["A", "A", "B", "B"], ["1", "0", "1", "1"])
    assert disparate_impact(ctx).value == 0.5


def test_di_not_computable_when_max_rate_zero():
    ctx = binary_ctx(["A", "B"], ["0", "0"])
    with pytest.raises(NotComputable):
        disparate_impact(ctx)


def test_di_privileged_override():
    # rates: A=0.5, B=1.0, C=0.25; privileged=A -> min(other)/A = 0.25/0.5
    ctx = binary_ctx(
        ["A", "A", "B", "C", "C", "C", "C"],
        ["1", "0", "1", "1", "0", "0", "0"],
    )
    ctx = MetricContext(ctx.table, ctx.bindings, {"privileged": "A"}, "target")
    outcome = disparate_impact(ctx)
    assert outcome.value == pytest.approx(0.5, abs=1e-12)


def test_di_over_a_subnormal_privileged_rate_is_not_computable():
    # group a's weighted rate is 5e-324 / (5e-324 + 1), a subnormal: b's rate over it is inf
    ctx = ctx_of(
        ["g", "y", "w"],
        [["a", "1", "5e-324"], ["a", "0", "1"], ["b", "1", "1"]],
        group="g",
        weight="w",
    )
    ctx = MetricContext(ctx.table, ctx.bindings, {"privileged": "a"}, "target")
    with pytest.raises(NotComputable, match="^disparate impact is not finite$"):
        disparate_impact(ctx)
    with pytest.raises(NotComputable, match="^disparate impact is not finite$"):
        default_registry().evaluate("disparate_impact", ctx)


def test_dp_difference_on_group_rates_fixture(group_rates_fixture_ctx):
    outcome = demographic_parity_difference(group_rates_fixture_ctx)
    assert outcome.value == pytest.approx(0.0748, abs=0.0001)


def test_dp_zero_for_equal_rates():
    ctx = binary_ctx(["A", "A", "B", "B"], ["1", "0", "1", "0"])
    assert demographic_parity_difference(ctx).value == 0.0


def test_dp_from_four_row_example():
    ctx = binary_ctx(["A", "A", "B", "B"], ["1", "0", "1", "1"])
    assert demographic_parity_difference(ctx).value == 0.5


# --- confusion metrics ---------------------------------------------------------


def pred_ctx(pairs: list[tuple[str, str]]) -> MetricContext:
    rows = [[y, p] for y, p in pairs]
    return ctx_of(["y", "p"], rows, prediction="p", prediction_positive="1")


def test_perfect_predictions_give_all_ones():
    ctx = pred_ctx([("1", "1"), ("0", "0"), ("1", "1")])
    outcomes = confusion_metrics(ctx)
    assert {k: v.value for k, v in outcomes.items()} == {
        "accuracy": 1.0,
        "sensitivity": 1.0,
        "specificity": 1.0,
        "dice": 1.0,
    }


def test_hand_counted_confusion_matrix():
    # TP=2, TN=1, FP=1, FN=1
    ctx = pred_ctx([("1", "1"), ("1", "1"), ("0", "0"), ("0", "1"), ("1", "0")])
    outcomes = confusion_metrics(ctx)
    assert outcomes["accuracy"].value == pytest.approx(0.6, abs=1e-12)
    assert outcomes["sensitivity"].value == pytest.approx(2 / 3, abs=1e-12)
    assert outcomes["specificity"].value == pytest.approx(0.5, abs=1e-12)
    assert outcomes["dice"].value == pytest.approx(2 / 3, abs=1e-12)


def test_all_negative_target_sensitivity_not_computable():
    ctx = pred_ctx([("0", "0"), ("0", "1")])
    with pytest.raises(NotComputable):
        sensitivity(ctx)
    assert specificity(ctx).value == 0.5
    assert "sensitivity" not in confusion_metrics(ctx)
    assert "specificity" in confusion_metrics(ctx)


def test_scenario_a_accuracy(scenario_a_ctx):
    assert accuracy(scenario_a_ctx).value == pytest.approx(0.795, abs=1e-12)


def test_dice_zero_denominator_not_computable():
    ctx = pred_ctx([("0", "0"), ("0", "0")])
    with pytest.raises(NotComputable):
        dice(ctx)


# --- registry ------------------------------------------------------------------


def test_registry_dispatches_custom_metric():
    registry = default_registry()
    registry.register(
        "custom_metric", lambda ctx: MetricOutcome(value=42.0), {"target"}
    )
    ctx = ctx_of(["y"], [["1"], ["0"]])
    assert registry.evaluate("custom_metric", ctx).value == 42.0


def test_registry_rejects_builtin_collision():
    registry = default_registry()
    with pytest.raises(DuplicateKey):
        registry.register("disparate_impact", lambda ctx: MetricOutcome(value=0.0))


def test_registry_unknown_key():
    ctx = ctx_of(["y"], [["1"], ["0"]])
    with pytest.raises(UnknownMetricKey):
        default_registry().evaluate("nonexistent", ctx)


def test_registry_reports_missing_group_role():
    ctx = ctx_of(["y"], [["1"], ["0"]])
    with pytest.raises(MissingRole, match="group"):
        default_registry().evaluate("disparate_impact", ctx)


def test_registry_reports_missing_prediction_role():
    ctx = ctx_of(["y"], [["1"], ["0"]])
    with pytest.raises(MissingRole, match="prediction"):
        default_registry().evaluate("accuracy", ctx)


def test_a_metric_that_reads_the_weight_needs_it_bound():
    def total_weight(ctx):
        return MetricOutcome(value=math.fsum(ctx.table.column(ctx.bindings.weight)))

    registry = default_registry()
    registry.register("total_weight", total_weight, {"weight"})
    rows = [["1", "2.5"], ["0", "1.0"]]
    unweighted = ctx_of(["y", "w"], rows)
    assert registry.missing_roles("total_weight", unweighted) == ["weight"]
    with pytest.raises(MissingRole, match="weight"):
        registry.evaluate("total_weight", unweighted)
    weighted = ctx_of(["y", "w"], rows, weight="w")
    assert registry.missing_roles("total_weight", weighted) == []
    assert registry.evaluate("total_weight", weighted).value == 3.5


def test_registry_di_with_group_populates_per_group():
    ctx = binary_ctx(["A", "B"], ["1", "1"])
    outcome = default_registry().evaluate("disparate_impact", ctx)
    assert outcome.per_group == {"A": 1.0, "B": 1.0}


def test_registry_evaluate_on_prediction_side():
    table = table_from_rows(
        ["g", "y", "p"], [["A", "1", "0"], ["A", "0", "0"], ["B", "1", "1"]]
    )
    bindings = bind_roles(table, "y", "1", group="g", prediction="p", prediction_positive="1")
    ctx = MetricContext(table, bindings, {}, evaluate_on="prediction")
    outcome = default_registry().evaluate("group_positive_rates", ctx)
    assert outcome.per_group == {"A": 0.0, "B": 1.0}


# --- reweighting ---------------------------------------------------------------


def test_reweight_independent_table_gives_unit_weights():
    # cells at exact product frequency: A1=2, A0=2, B1=1, B0=1
    ctx = binary_ctx(
        ["A", "A", "A", "A", "B", "B"],
        ["1", "1", "0", "0", "1", "0"],
    )
    assert group_reweight(ctx) == [1.0] * 6


def test_reweight_hand_computed_cells():
    # A1=2, A0=1, B1=1, B0=2 -> weights 0.75, 1.5, 1.5, 0.75 per cell
    groups = ["A", "A", "A", "B", "B", "B"]
    outcomes = ["1", "1", "0", "1", "0", "0"]
    ctx = binary_ctx(groups, outcomes)
    weights = group_reweight(ctx)
    expected = {
        ("A", "1"): 0.75,
        ("A", "0"): 1.5,
        ("B", "1"): 1.5,
        ("B", "0"): 0.75,
    }
    for g, y, w in zip(groups, outcomes, weights):
        assert w == pytest.approx(expected[(g, y)], abs=1e-12)
    assert math.fsum(weights) == pytest.approx(6.0, abs=1e-9)


def test_reweighted_group_rates_equalize():
    groups = ["A", "A", "A", "B", "B", "B", "B"]
    outcomes = ["1", "1", "0", "1", "0", "0", "0"]
    ctx = binary_ctx(groups, outcomes)
    weights = group_reweight(ctx)
    rows = [[g, y, repr(w)] for g, y, w in zip(groups, outcomes, weights)]
    weighted_ctx = ctx_of(["g", "y", "w"], rows, group="g", weight="w")
    rates = group_positive_rates(weighted_ctx).per_group
    values = list(rates.values())
    assert max(values) - min(values) < 1e-9


def test_reweight_missing_rows_get_neutral_weight():
    ctx = ctx_of(["g", "y"], [["A", "1"], ["", "0"], ["A", "0"]], group="g")
    weights = group_reweight(ctx)
    assert weights[1] == 1.0


# --- direct calls --------------------------------------------------------------


@pytest.mark.parametrize(
    "fn, bindings, evaluate_on, message",
    [
        (class_imbalance_ratio, None, "target", "no role bindings in context"),
        (group_positive_rates, RoleBindings("y", "1", group="g"), "prediction",
         "prediction column is not bound"),
        (accuracy, RoleBindings("y", "1", group="g"), "target",
         "confusion metrics need a bound prediction column"),
    ],
)
def test_a_builtin_called_without_its_roles_names_the_missing_one(
    fn, bindings, evaluate_on, message
):
    table = table_from_rows(["g", "y"], [["A", "1"], ["B", "0"]])
    ctx = MetricContext(table, bindings, evaluate_on=evaluate_on)
    with pytest.raises(MissingRole) as raised:
        fn(ctx)
    assert str(raised.value) == message


# --- one spelling per dictionary entry ----------------------------------------


@pytest.mark.parametrize("operation", ["stratify", "count_rows", "group_reweight"])
def test_table_operations_spell_each_dictionary_entry_at_most_once(monkeypatch, operation):
    rows = [[g, y] for g in ("a", "b", "c", "") for y in ("0", "1", "")] * 40
    ctx = ctx_of(["g", "y"], rows, group="g")
    read = {"stratify": ["g"], "count_rows": ["g", "y"], "group_reweight": ["g", "y"]}[operation]
    entries = sum(len(ctx.table.encoding(name)[1]) for name in read)
    spelled = []

    def counting_token(cell):
        spelled.append(cell)
        return cell_token(cell)

    monkeypatch.setattr(tabular, "cell_token", counting_token)
    monkeypatch.setattr(metrics, "cell_token", counting_token, raising=False)
    if operation == "stratify":
        stratify(ctx.table, "g")
    elif operation == "count_rows":
        count_rows(ctx.table, ["g", "y"])
    else:
        group_reweight(ctx)
    assert 0 < len(spelled) <= entries


@pytest.mark.parametrize("weight", [None, "w"])
def test_a_count_and_each_of_its_strata_record_its_weight(weight):
    ctx = ctx_of(["g", "y", "w"], [["a", "1", "2"], ["b", "0", "1"]], group="g", weight="w")
    joint = count_rows(ctx.table, ["g", "y"], weight)
    assert joint.weight == weight
    strata = metrics._joint_strata(MetricContext(ctx.table, ctx.bindings, joint=joint), "g")
    assert [(label, s.joint.weight) for label, s in strata] == [("a", weight), ("b", weight)]


# --- the count is a built-in's only input --------------------------------------


class _Unreadable:
    """A table that raises on every attribute read."""

    def __getattribute__(self, name):
        raise AssertionError(f"a built-in read table.{name}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OscalAssureError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("evaluate_on", ["target", "prediction"])
@pytest.mark.parametrize(
    "params", [{}, {"group": "age_group", "privileged": "young"}, {"group": "nope"}]
)
@pytest.mark.parametrize("weight", [None, "duration_months", "no_such_weight"])
def test_the_builtins_read_the_count_and_never_the_table(
    scenario_a_ctx, evaluate_on, params, weight
):
    registry = default_registry()
    ctx = scenario_a_ctx._replace(
        bindings=scenario_a_ctx.bindings._replace(weight=weight),
        params=params,
        evaluate_on=evaluate_on,
    )
    # counted as a phase counts: a weight the table lacks is left out
    counted = weight if ctx.table.has_column(weight) else None
    joint = count_rows(ctx.table, ["class", "prediction", "gender", "age_group"], counted)
    blind = ctx._replace(table=_Unreadable(), joint=joint)
    for key in registry.keys():
        assert _outcome(registry.evaluate, key, blind) == _outcome(registry.evaluate, key, ctx)
    # each stratum's share gives what its stratify table gives, and a
    # column stratify refuses is refused with stratify's error
    for by in ("age_group", "nope", "credit_amount"):
        shares = _outcome(metrics._joint_strata, blind, by)
        tables = _outcome(stratify, ctx.table, by)
        if isinstance(tables, tuple):
            assert shares == tables
            continue
        assert [label for label, _ in shares] == [label for label, _ in tables]
        for (_, share), (_, table) in zip(shares, tables):
            for key in registry.keys():
                assert _outcome(registry.evaluate, key, share) == _outcome(
                    registry.evaluate, key, ctx._replace(table=table)
                )
