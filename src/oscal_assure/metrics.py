"""Metric registry and the built-in fairness / data-quality / performance
metrics, plus the group-aware sample reweighting mitigation.

All metric functions are pure. Rates are weighted whenever a weight column
is bound; rows with a missing value in any column a metric reads are
excluded and counted on the outcome.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

from .errors import DuplicateKey, MissingRole, NotComputable, UnknownMetricKey
from .tabular import Cell, DataTable, RoleBindings, cell_token


@dataclass(frozen=True)
class MetricContext:
    """Everything a metric needs: the table, role bindings, per-control
    params, and which side (target vs prediction) the control evaluates."""

    table: DataTable
    bindings: RoleBindings | None = None
    params: dict[str, str] = field(default_factory=dict)
    evaluate_on: str = "target"


@dataclass(frozen=True)
class MetricOutcome:
    value: float
    per_group: dict[str, float] | None = None
    excluded_rows: int = 0
    detail: dict[str, str] | None = None


MetricFunction = Callable[[MetricContext], MetricOutcome]


@dataclass(frozen=True)
class RegistryEntry:
    fn: MetricFunction
    required_roles: frozenset[str]
    description: str


class MetricRegistry:
    """Maps metric_key tokens to functions. Register everything up front;
    evaluation never mutates the registry."""

    def __init__(self) -> None:
        self._entries: dict[str, RegistryEntry] = {}

    def register(
        self,
        key: str,
        fn: MetricFunction,
        required_roles: set[str] | frozenset[str] = frozenset(),
        description: str = "",
    ) -> None:
        if key in self._entries:
            raise DuplicateKey(f"metric key {key!r} is already registered")
        self._entries[key] = RegistryEntry(fn, frozenset(required_roles), description)

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def entry(self, key: str) -> RegistryEntry:
        try:
            return self._entries[key]
        except KeyError:
            raise UnknownMetricKey(f"no metric registered under {key!r}") from None

    def required_roles(self, key: str, evaluate_on: str = "target") -> frozenset[str]:
        """Concrete roles for one evaluation side ('subject' resolved)."""
        roles = set()
        for role in self.entry(key).required_roles:
            roles.add(evaluate_on if role == "subject" else role)
        return frozenset(roles)

    def evaluate(self, key: str, ctx: MetricContext) -> MetricOutcome:
        entry = self.entry(key)
        missing = [
            role
            for role in sorted(self.required_roles(key, ctx.evaluate_on))
            if not role_bound(ctx, role)
        ]
        if missing:
            raise MissingRole(f"metric {key!r} needs unbound role(s): {', '.join(missing)}")
        outcome = entry.fn(ctx)
        if not math.isfinite(outcome.value):
            raise NotComputable(f"metric {key!r} produced a non-finite value")
        return outcome


def role_bound(ctx: MetricContext, role: str) -> bool:
    b = ctx.bindings
    if b is None:
        return False
    if role == "target":
        return True
    if role == "group":
        return ctx.params.get("group") is not None or b.group is not None
    if role == "prediction":
        return b.prediction is not None
    if role == "weight":
        return b.weight is not None
    return False


# --- column access -----------------------------------------------------------


def _bindings(ctx: MetricContext) -> RoleBindings:
    if ctx.bindings is None:
        raise MissingRole("no role bindings in context")
    return ctx.bindings


def _subject(ctx: MetricContext) -> tuple[tuple[Cell, ...], str]:
    """Column and positive label for the side the control evaluates."""
    b = _bindings(ctx)
    if ctx.evaluate_on == "prediction":
        if b.prediction is None or b.prediction_positive is None:
            raise MissingRole("prediction column is not bound")
        return ctx.table.column(b.prediction), b.prediction_positive
    return ctx.table.column(b.target), b.target_positive


def _group_column(ctx: MetricContext) -> tuple[Cell, ...]:
    b = _bindings(ctx)
    name = ctx.params.get("group") or b.group
    if name is None:
        raise MissingRole("group column is not bound")
    return ctx.table.column(name)


def _weights(ctx: MetricContext) -> tuple[Cell, ...] | None:
    b = ctx.bindings
    if b is None or b.weight is None:
        return None
    return ctx.table.column(b.weight)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NotComputable(f"{what} is not finite")
    return value


def _crosstab(
    columns: tuple[tuple[Cell, ...], ...], weights: tuple[Cell, ...] | None
) -> tuple[dict[tuple[str, ...], list[float]], int]:
    """Group rows by the cell tokens of `columns`.

    Returns {token tuple: [row weight, ...]} (1.0 per row when unweighted)
    and the number of rows excluded for a missing value or weight. Equal
    value tuples are counted first, so cell_token runs once per distinct
    tuple; weights stay out of that key because they are often all distinct.
    """
    counts = Counter(zip(*columns))
    tokens = {values: tuple(map(cell_token, values)) for values in counts if None not in values}
    cells: dict[tuple[str, ...], list[float]] = {}
    excluded = 0
    if weights is None:
        for values, n in counts.items():
            if values in tokens:
                cells.setdefault(tokens[values], []).extend(repeat(1.0, n))
            else:
                excluded += n
        return cells, excluded
    for values, w in zip(zip(*columns), weights):
        key = tokens.get(values)
        if key is None or w is None:
            excluded += 1
        else:
            cells.setdefault(key, []).append(float(w))
    return cells, excluded


# --- built-in metrics --------------------------------------------------------


def class_imbalance_ratio(ctx: MetricContext) -> MetricOutcome:
    """Minority class mass over majority class mass on the target column."""
    b = _bindings(ctx)
    cells, excluded = _crosstab((ctx.table.column(b.target),), _weights(ctx))
    totals = {label: math.fsum(parts) for (label,), parts in cells.items()}
    if len(totals) < 2:
        raise NotComputable(
            f"class imbalance needs both classes present, saw {sorted(totals) or 'none'}"
        )
    low, high = min(totals.values()), max(totals.values())
    if high == 0:
        raise NotComputable("all class masses are zero")
    detail = {f"count:{label}": repr(total) for label, total in sorted(totals.items())}
    return MetricOutcome(
        value=_finite(low / high, "class imbalance ratio"),
        excluded_rows=excluded,
        detail=detail,
    )


def group_positive_rates(ctx: MetricContext) -> MetricOutcome:
    """Positive-label fraction per group; value is the maximum rate."""
    subject, positive = _subject(ctx)
    cells, excluded = _crosstab((_group_column(ctx), subject), _weights(ctx))
    mass: dict[str, list[float]] = {}
    for (label, _), parts in cells.items():
        mass.setdefault(label, []).extend(parts)
    if not mass:
        raise NotComputable("no rows with group and outcome present")

    per_group: dict[str, float] = {}
    for label in sorted(mass):
        total = math.fsum(mass[label])
        if total == 0:
            raise NotComputable(f"group {label!r} has zero total weight")
        per_group[label] = _finite(
            math.fsum(cells.get((label, positive), [])) / total, f"rate of group {label!r}"
        )
    max_group = max(per_group, key=lambda k: (per_group[k], k))
    min_group = min(per_group, key=lambda k: (per_group[k], k))
    return MetricOutcome(
        value=per_group[max_group],
        per_group=per_group,
        excluded_rows=excluded,
        detail={"max-group": max_group, "min-group": min_group},
    )


def disparate_impact(ctx: MetricContext) -> MetricOutcome:
    """Lowest over highest group positive rate (Four-Fifths Rule form).

    A `privileged` param switches to unprivileged-rate / privileged-rate,
    where the unprivileged rate is the minimum over the other groups.
    """
    rates = group_positive_rates(ctx)
    per_group = rates.per_group or {}
    privileged = ctx.params.get("privileged")
    if privileged is not None:
        if privileged not in per_group:
            raise NotComputable(
                f"privileged group {privileged!r} not present; saw {sorted(per_group)}"
            )
        others = {k: v for k, v in per_group.items() if k != privileged}
        if not others:
            raise NotComputable("no unprivileged group present")
        denominator = per_group[privileged]
        numerator_group = min(others, key=lambda k: (others[k], k))
        numerator = others[numerator_group]
        detail = {"privileged": privileged, "min-group": numerator_group}
    else:
        detail = dict(rates.detail or {})
        numerator = per_group[detail["min-group"]]
        denominator = per_group[detail["max-group"]]
    if denominator == 0:
        raise NotComputable("highest group positive rate is zero")
    return MetricOutcome(
        value=_finite(numerator / denominator, "disparate impact"),
        per_group=per_group,
        excluded_rows=rates.excluded_rows,
        detail=detail,
    )


def demographic_parity_difference(ctx: MetricContext) -> MetricOutcome:
    """Largest gap between group positive rates."""
    rates = group_positive_rates(ctx)
    per_group = rates.per_group or {}
    detail = dict(rates.detail or {})
    gap = per_group[detail["max-group"]] - per_group[detail["min-group"]]
    return MetricOutcome(
        value=_finite(gap, "demographic parity difference"),
        per_group=per_group,
        excluded_rows=rates.excluded_rows,
        detail=detail,
    )


def _confusion_counts(ctx: MetricContext) -> tuple[float, float, float, float, int]:
    b = _bindings(ctx)
    if b.prediction is None or b.prediction_positive is None:
        raise MissingRole("confusion metrics need a bound prediction column")
    cells, excluded = _crosstab(
        (ctx.table.column(b.target), ctx.table.column(b.prediction)), _weights(ctx)
    )
    tp: list[float] = []
    tn: list[float] = []
    fp: list[float] = []
    fn: list[float] = []
    for (y, p), parts in cells.items():
        actual = y == b.target_positive
        predicted = p == b.prediction_positive
        bucket = tp if (actual and predicted) else fn if actual else fp if predicted else tn
        bucket.extend(parts)
    return math.fsum(tp), math.fsum(tn), math.fsum(fp), math.fsum(fn), excluded


def _ratio(numerator: float, denominator: float, what: str) -> float:
    if denominator == 0:
        raise NotComputable(f"{what} has a zero denominator")
    return _finite(numerator / denominator, what)


def accuracy(ctx: MetricContext) -> MetricOutcome:
    tp, tn, fp, fn, excluded = _confusion_counts(ctx)
    value = _ratio(tp + tn, tp + tn + fp + fn, "accuracy")
    return MetricOutcome(value=value, excluded_rows=excluded)


def sensitivity(ctx: MetricContext) -> MetricOutcome:
    tp, _, _, fn, excluded = _confusion_counts(ctx)
    return MetricOutcome(value=_ratio(tp, tp + fn, "sensitivity"), excluded_rows=excluded)


def specificity(ctx: MetricContext) -> MetricOutcome:
    _, tn, fp, _, excluded = _confusion_counts(ctx)
    return MetricOutcome(value=_ratio(tn, tn + fp, "specificity"), excluded_rows=excluded)


def dice(ctx: MetricContext) -> MetricOutcome:
    tp, _, fp, fn, excluded = _confusion_counts(ctx)
    return MetricOutcome(
        value=_ratio(2 * tp, 2 * tp + fp + fn, "dice"), excluded_rows=excluded
    )


def confusion_metrics(ctx: MetricContext) -> dict[str, MetricOutcome]:
    """All four confusion metrics that are computable on this data.

    Zero-denominator metrics are omitted rather than failing the rest.
    """
    results: dict[str, MetricOutcome] = {}
    for key, fn in (
        ("accuracy", accuracy),
        ("sensitivity", sensitivity),
        ("specificity", specificity),
        ("dice", dice),
    ):
        try:
            results[key] = fn(ctx)
        except NotComputable:
            continue
    return results


def group_reweight(ctx: MetricContext) -> list[float]:
    """Per-row weights P(g)*P(y)/P(g,y) from empirical frequencies.

    Makes group and outcome independent under the weighted distribution.
    Rows missing group or outcome get a neutral weight of 1.0.
    """
    b = _bindings(ctx)
    group = _group_column(ctx)
    target = ctx.table.column(b.target)
    cells, _ = _crosstab((group, target), None)
    if not cells:
        raise NotComputable("no rows with group and outcome present")
    group_counts: dict[str, int] = {}
    class_counts: dict[str, int] = {}
    for (gl, yl), parts in cells.items():
        group_counts[gl] = group_counts.get(gl, 0) + len(parts)
        class_counts[yl] = class_counts.get(yl, 0) + len(parts)
    observed = sum(group_counts.values())
    # w = (n_g/N)(n_y/N) / (n_gy/N) = n_g*n_y / (N*n_gy)
    cell_weight = {
        (gl, yl): group_counts[gl] * class_counts[yl] / (observed * len(parts))
        for (gl, yl), parts in cells.items()
    }
    return [
        1.0 if g is None or y is None else cell_weight[(cell_token(g), cell_token(y))]
        for g, y in zip(group, target)
    ]


def default_registry() -> MetricRegistry:
    """Fresh registry with the built-in metric set."""
    registry = MetricRegistry()
    registry.register(
        "class_imbalance_ratio",
        class_imbalance_ratio,
        {"target"},
        "minority/majority class mass on the target column",
    )
    registry.register(
        "group_positive_rates",
        group_positive_rates,
        {"subject", "group"},
        "positive-label fraction per group (value = max rate)",
    )
    registry.register(
        "disparate_impact",
        disparate_impact,
        {"subject", "group"},
        "min over max group positive rate",
    )
    registry.register(
        "demographic_parity_difference",
        demographic_parity_difference,
        {"subject", "group"},
        "max minus min group positive rate",
    )
    registry.register("accuracy", accuracy, {"target", "prediction"}, "(TP+TN)/N")
    registry.register("sensitivity", sensitivity, {"target", "prediction"}, "TP/(TP+FN)")
    registry.register("specificity", specificity, {"target", "prediction"}, "TN/(TN+FP)")
    registry.register("dice", dice, {"target", "prediction"}, "2TP/(2TP+FP+FN)")
    return registry
