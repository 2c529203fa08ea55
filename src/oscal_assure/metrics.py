"""Metric registry and the built-in fairness / data-quality / performance
metrics, plus the group-aware sample reweighting mitigation.

All metric functions are pure. Rates are weighted whenever a weight column
is bound; rows with a missing value in any column a metric reads are
excluded and counted on the outcome.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import Counter
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from operator import itemgetter
from typing import Callable

from .canonical import cell_token
from .errors import DuplicateKey, MissingRole, NotComputable, UnknownMetricKey
from .tabular import DataTable, Encoded, RoleBindings, code_format


@dataclass(frozen=True)
class MetricContext:
    """Everything a metric needs: the table, role bindings, per-control
    params, and which side (target vs prediction) the control evaluates."""

    table: DataTable
    bindings: RoleBindings | None = None
    params: dict[str, str] = field(default_factory=dict)
    evaluate_on: str = "target"
    #: Set by enforce_phase or the CLI: the rows counted once (a stratum's
    #: share of them for a stratified control). Built-ins read it, not table.
    joint: JointCount | None = None


@dataclass(frozen=True)
class MetricOutcome:
    """A metric's value, its per-group rates if it has them, and the rows it excluded."""

    value: float
    per_group: dict[str, float] | None = None
    excluded_rows: int = 0


MetricFunction = Callable[[MetricContext], MetricOutcome]


@dataclass(frozen=True)
class RegistryEntry:
    """A registered metric function and the roles it needs bound."""

    fn: MetricFunction
    required_roles: frozenset[str]


class MetricRegistry:
    """Maps metric_key tokens to functions. Register everything up front;
    evaluation never mutates the registry."""

    def __init__(self) -> None:
        self._entries: dict[str, RegistryEntry] = {}

    def register(self, key: str, fn: MetricFunction,
                 required_roles: set[str] | frozenset[str] = frozenset()) -> None:
        if key in self._entries:
            raise DuplicateKey(f"metric key {key!r} is already registered")
        self._entries[key] = RegistryEntry(fn, frozenset(required_roles))

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def entry(self, key: str) -> RegistryEntry:
        try:
            return self._entries[key]
        except KeyError:
            raise UnknownMetricKey(f"no metric registered under {key!r}") from None

    def missing_roles(self, key: str, ctx: MetricContext) -> list[str]:
        """The roles metric `key` needs that ctx leaves unbound, sorted;
        'subject' is the side ctx evaluates."""
        roles = self.entry(key).required_roles
        concrete = {ctx.evaluate_on if role == "subject" else role for role in roles}
        return sorted(role for role in concrete if not role_bound(ctx, role))

    def reads_joint_count(self, key: str) -> bool:
        """Whether metric `key` is a built-in, which reads ctx.joint when
        set; False for an unknown key."""
        entry = self._entries.get(key)
        return entry is not None and any(entry.fn is fn for _, fn, _ in _BUILTINS)

    def evaluate(self, key: str, ctx: MetricContext) -> MetricOutcome:
        missing = self.missing_roles(key, ctx)
        if missing:
            raise MissingRole(f"metric {key!r} needs unbound role(s): {', '.join(missing)}")
        outcome = self._entries[key].fn(ctx)
        if not math.isfinite(outcome.value):
            raise NotComputable(f"metric {key!r} produced a non-finite value")
        return outcome


def role_bound(ctx: MetricContext, role: str) -> bool:
    b = ctx.bindings
    return b is not None and {
        "target": True,
        "group": ctx.params.get("group") is not None or b.group is not None,
        "prediction": b.prediction is not None,
        "weight": b.weight is not None,
    }.get(role, False)


# --- column access and the joint count ----------------------------------------


@dataclass(frozen=True)
class JointCount:
    """A table's rows counted once by their cells in `names`.

    Keys hold each cell's cell_token, or None where the cell is missing.
    Each key maps to [rows, rows without a weight, masses]: masses is
    [rows] unweighted, else the float weight of every row that has one.
    Every crosstab a built-in metric needs is a marginal of it.
    """

    names: tuple[str, ...]
    cells: dict[tuple[str | None, ...], list]


#: Rows whose keys are built at a time, so that the keys in memory take at
#: most 8 bytes per row of one block, however long the table.
_KEY_ROWS = 1 << 14


def _row_keys(
    encodings: list[Encoded], row_count: int
) -> tuple[Iterable[Sequence[Hashable]], int, Callable[[list], Sequence[tuple[int, ...]]]]:
    """The rows' keys, _KEY_ROWS rows at a time, the bits a key takes, and
    the function that turns a list of keys into the rows' tuples of codes.
    Column k takes bit_length(len(dictionaries[k]) - 1) bits of one integer
    per row, built in C as the OR of each column's codes read as one big
    integer and shifted to its bits. Keys of up to 8 bits come as bytes;
    past 64 bits the keys are the tuples."""
    columns = [codes for codes, _ in encodings]
    widths = [(len(dictionary) - 1).bit_length() for _, dictionary in encodings]
    *shifts, bits = accumulate(widths, initial=0)
    if bits > 64:
        return [zip(*columns)], bits, list
    fmt = code_format(1 << bits)
    width = struct.calcsize(fmt)

    def block(start: int) -> Sequence[int]:
        rows = min(_KEY_ROWS, row_count - start)
        packed = 0
        for codes, shift in zip(columns, shifts):
            raw = codes[start : start + rows]
            if codes.itemsize < width:  # each code widened to the keys' width
                raw, step = bytearray(width * rows), width // codes.itemsize
                low = 0 if sys.byteorder == "little" else step - 1
                memoryview(raw).cast(codes.format)[low::step] = codes[start : start + rows]
            packed |= int.from_bytes(raw, sys.byteorder) << shift
        keys = packed.to_bytes(width * rows, sys.byteorder)
        return keys if width == 1 else memoryview(keys).cast(fmt)

    def decode(keys: list[int]) -> Sequence[tuple[int, ...]]:
        fields = [[key >> shift & (1 << w) - 1 for key in keys] for shift, w in zip(shifts, widths)]
        return list(zip(*fields)) if fields else [()] * len(keys)

    return map(block, range(0, row_count, _KEY_ROWS)), bits, decode


def count_rows(table: DataTable, names: Sequence[str], weight: str | None = None) -> JointCount:
    """One pass over the rows' bit-packed codes (_row_keys); cell_token runs
    once per dictionary entry. The weight stays out of the key because it
    is often distinct per row."""
    encodings = [table.encoding(name) for name in names]
    blocks, bits, decode = _row_keys(encodings, table.row_count)
    if weight is None:
        counts: Counter[Hashable] = Counter()
        per_value = bits <= 5  # up to 32 values, one bytes.count each beats a Counter
        for keys in blocks:
            counts.update({k: keys.count(k) for k in range(1 << bits)} if per_value else keys)
        raw = {key: [n, 0, [n]] for key, n in counts.items() if n}
    else:
        weight_codes, weights = table.encoding(weight)
        masses_of = [None if w is None else float(w) for w in weights]
        groups: dict[Hashable, list[float | None]] = {}
        for key, code in zip(chain.from_iterable(blocks), weight_codes):
            groups.setdefault(key, []).append(masses_of[code])
        raw = {}
        for key, ws in groups.items():
            masses = [w for w in ws if w is not None]
            raw[key] = [len(ws), len(ws) - len(masses), masses]
    tokens = [
        [None if cell is None else cell_token(cell) for cell in dictionary]
        for _, dictionary in encodings
    ]
    cells: dict[tuple[str | None, ...], list] = {}
    for codes, cell in zip(decode(list(raw)), raw.values()):
        labels = tuple(map(list.__getitem__, tokens, codes))
        # values that share a token (None aside) are one cell
        if labels in cells:
            cell = [a + b for a, b in zip(cells[labels], cell)]
        cells[labels] = cell
    return JointCount(tuple(names), cells)


def _bindings(ctx: MetricContext) -> RoleBindings:
    if ctx.bindings is None:
        raise MissingRole("no role bindings in context")
    return ctx.bindings


def _column(ctx: MetricContext, name: str) -> str:
    ctx.table.column_type(name)  # raises MissingColumn
    return name


def _subject(ctx: MetricContext) -> tuple[str, str]:
    """Column and positive label for the side the control evaluates."""
    b = _bindings(ctx)
    if ctx.evaluate_on == "prediction":
        if b.prediction is None or b.prediction_positive is None:
            raise MissingRole("prediction column is not bound")
        return _column(ctx, b.prediction), b.prediction_positive
    return _column(ctx, b.target), b.target_positive


def _group_column(ctx: MetricContext) -> str:
    name = ctx.params.get("group")
    if name is None:  # "" overrides too, as role_bound reads it
        name = _bindings(ctx).group
    if name is None:
        raise MissingRole("group column is not bound")
    return _column(ctx, name)


def _total(parts: list[float], what: str) -> float:
    """math.fsum of parts; a sum past the largest float is NotComputable."""
    try:
        return math.fsum(parts)
    except OverflowError:
        raise NotComputable(f"{what} overflows a float") from None


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NotComputable(f"{what} is not finite")
    return value


def _crosstab(
    ctx: MetricContext, names: tuple[str, ...]
) -> tuple[dict[tuple[str, ...], list[float]], int]:
    """{token tuple of `names`: masses} and the number of rows excluded for a
    missing value in `names` or a missing weight: a marginal of ctx.joint,
    or of a count of ctx.table when the context carries none."""
    weight = _bindings(ctx).weight
    if weight is not None:
        _column(ctx, weight)
    joint = ctx.joint if ctx.joint is not None else count_rows(ctx.table, names, weight)
    at = [joint.names.index(name) for name in names]
    pick = itemgetter(*at) if len(at) > 1 else lambda key: (key[at[0]],)
    cells: dict[tuple[str, ...], list[float]] = {}
    excluded = 0
    for key, (rows, unweighted, masses) in joint.cells.items():
        values = pick(key)
        if None in values:
            excluded += rows
        else:
            excluded += unweighted
            if masses:  # not every row of the cell lacks its weight
                cells.setdefault(values, []).extend(masses)
    return cells, excluded


# --- built-in metrics --------------------------------------------------------


def class_imbalance_ratio(ctx: MetricContext) -> MetricOutcome:
    """Minority class mass over majority class mass on the target column."""
    cells, excluded = _crosstab(ctx, (_column(ctx, _bindings(ctx).target),))
    totals = {label: _total(parts, f"mass of class {label!r}") for (label,), parts in cells.items()}
    if len(totals) < 2:
        raise NotComputable(
            f"class imbalance needs both classes present, saw {sorted(totals) or 'none'}"
        )
    low, high = min(totals.values()), max(totals.values())
    if high == 0:
        raise NotComputable("all class masses are zero")
    value = _finite(low / high, "class imbalance ratio")
    return MetricOutcome(value=value, excluded_rows=excluded)


def group_positive_rates(ctx: MetricContext) -> MetricOutcome:
    """Positive-label fraction per group; value is the maximum rate."""
    subject, positive = _subject(ctx)
    cells, excluded = _crosstab(ctx, (_group_column(ctx), subject))
    mass: dict[str, list[float]] = {}
    for (label, _), parts in cells.items():
        mass.setdefault(label, []).extend(parts)
    if not mass:
        raise NotComputable("no rows with group and outcome present")

    per_group: dict[str, float] = {}
    for label in sorted(mass):
        total = _total(mass[label], f"mass of group {label!r}")
        if total == 0:
            raise NotComputable(f"group {label!r} has zero total weight")
        per_group[label] = _finite(
            _total(cells.get((label, positive), []), f"positive mass of group {label!r}") / total,
            f"rate of group {label!r}",
        )
    return MetricOutcome(
        value=max(per_group.values()), per_group=per_group, excluded_rows=excluded
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
        others = [rate for label, rate in per_group.items() if label != privileged]
        if not others:
            raise NotComputable("no unprivileged group present")
        numerator, denominator = min(others), per_group[privileged]
    else:
        numerator, denominator = min(per_group.values()), max(per_group.values())
    if denominator == 0:
        raise NotComputable("highest group positive rate is zero")
    value = _finite(numerator / denominator, "disparate impact")
    return replace(rates, value=value)


def demographic_parity_difference(ctx: MetricContext) -> MetricOutcome:
    """Largest gap between group positive rates."""
    rates = group_positive_rates(ctx)
    values = (rates.per_group or {}).values()
    gap = max(values) - min(values)
    return replace(rates, value=_finite(gap, "demographic parity difference"))


def _confusion_counts(ctx: MetricContext) -> tuple[float, float, float, float, int]:
    b = _bindings(ctx)
    if b.prediction is None or b.prediction_positive is None:
        raise MissingRole("confusion metrics need a bound prediction column")
    cells, excluded = _crosstab(ctx, (_column(ctx, b.target), _column(ctx, b.prediction)))
    masses: dict[tuple[bool, bool], list[float]] = {}  # (actual, predicted) -> masses
    for (y, p), parts in cells.items():
        masses.setdefault((y == b.target_positive, p == b.prediction_positive), []).extend(parts)
    tp, tn, fp, fn = (
        _total(masses.get(cell, []), f"{name} mass")
        for cell, name in (((True, True), "true positive"), ((False, False), "true negative"),
                           ((False, True), "false positive"), ((True, False), "false negative"))
    )
    return tp, tn, fp, fn, excluded


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
    return MetricOutcome(value=_ratio(2 * tp, 2 * tp + fp + fn, "dice"), excluded_rows=excluded)


def confusion_metrics(ctx: MetricContext) -> dict[str, MetricOutcome]:
    """All four confusion metrics that are computable on this data.

    Zero-denominator metrics are omitted rather than failing the rest.
    """
    results: dict[str, MetricOutcome] = {}
    for key, fn in (("accuracy", accuracy), ("sensitivity", sensitivity),
                    ("specificity", specificity), ("dice", dice)):
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
    names = (_group_column(ctx), _column(ctx, _bindings(ctx).target))
    cells = {key: cell[0] for key, cell in count_rows(ctx.table, names).cells.items()
             if None not in key}
    if not cells:
        raise NotComputable("no rows with group and outcome present")
    group_counts: dict[str, int] = {}
    class_counts: dict[str, int] = {}
    for (gl, yl), n in cells.items():
        group_counts[gl] = group_counts.get(gl, 0) + n
        class_counts[yl] = class_counts.get(yl, 0) + n
    observed = sum(group_counts.values())
    # w = (n_g/N)(n_y/N) / (n_gy/N) = n_g*n_y / (N*n_gy)
    cell_weight = {
        (gl, yl): group_counts[gl] * class_counts[yl] / (observed * n)
        for (gl, yl), n in cells.items()
    }
    group, target = map(ctx.table.column, names)
    return [
        1.0 if g is None or y is None else cell_weight[(cell_token(g), cell_token(y))]
        for g, y in zip(group, target)
    ]


#: The built-in metrics: key, function, roles read.
_BUILTINS = (
    ("class_imbalance_ratio", class_imbalance_ratio, {"target"}),
    ("group_positive_rates", group_positive_rates, {"subject", "group"}),
    ("disparate_impact", disparate_impact, {"subject", "group"}),
    ("demographic_parity_difference", demographic_parity_difference, {"subject", "group"}),
    ("accuracy", accuracy, {"target", "prediction"}),
    ("sensitivity", sensitivity, {"target", "prediction"}),
    ("specificity", specificity, {"target", "prediction"}),
    ("dice", dice, {"target", "prediction"}),
)


def default_registry() -> MetricRegistry:
    """Fresh registry with the built-in metric set."""
    registry = MetricRegistry()
    for key, fn, roles in _BUILTINS:
        registry.register(key, fn, roles)
    return registry
