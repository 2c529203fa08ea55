"""Typed tabular data: CSV ingestion, role binding, cohort stratification.

Tables are immutable after load and safe for concurrent reads. Cell values
are int, float, bool, str, or None (missing, from an empty CSV field).
"""

from __future__ import annotations

import csv
import io
import operator
import sys
from collections.abc import Collection
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO

from .errors import (
    DataError,
    EmptyInput,
    MissingColumn,
    NegativeWeight,
    NonBinaryTarget,
    NonCategoricalColumn,
    RaggedRows,
    UndecodableBytes,
    UnknownPositiveLabel,
)

Cell = int | float | bool | str | None


class ColumnType(str, Enum):
    INTEGER = "integer"
    DECIMAL = "decimal"
    BOOLEAN = "boolean"
    CATEGORICAL = "categorical"


_BOOL_TOKENS = {"true": True, "false": False}


def cell_token(value: Cell) -> str:
    """Canonical string form of a cell, used for labels and positive-label
    matching across column types."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class DataTable:
    """Typed columns of equal length.

    Each column holds cells of one Python type (plus None) and no -0.0, so
    cells that compare equal have equal cell_tokens; metrics, stratify and
    bind_roles group rows by value and name the groups by token. load_table
    guarantees this, and the cells it makes equal share one object. A table
    loaded with `columns` holds only those of the file's columns, while
    every check of the load covered the whole file.
    """

    column_names: tuple[str, ...]
    column_types: tuple[ColumnType, ...]
    columns: tuple[tuple[Cell, ...], ...]
    row_count: int

    def column(self, name: str) -> tuple[Cell, ...]:
        try:
            index = self.column_names.index(name)
        except ValueError:
            raise MissingColumn(f"column {name!r} not in table") from None
        return self.columns[index]

    def column_type(self, name: str) -> ColumnType:
        try:
            index = self.column_names.index(name)
        except ValueError:
            raise MissingColumn(f"column {name!r} not in table") from None
        return self.column_types[index]

    def has_column(self, name: str) -> bool:
        return name in self.column_names


#: Zero-column, zero-row table for contexts with no data bound.
EMPTY_TABLE = DataTable(column_names=(), column_types=(), columns=(), row_count=0)


@dataclass(frozen=True)
class RoleBindings:
    """Semantic roles over a table's columns.

    target/prediction are binary columns with an explicitly designated
    positive label (matched against cell_token, never inferred).
    """

    target: str
    target_positive: str
    group: str | None = None
    prediction: str | None = None
    prediction_positive: str | None = None
    weight: str | None = None


def _infer_column(distinct: Collection[str]) -> tuple[ColumnType, dict[str, Cell]]:
    """Column type and cell value of each distinct non-empty CSV field."""
    if not distinct:
        return ColumnType.CATEGORICAL, {}
    if all(v.lower() in _BOOL_TOKENS for v in distinct):
        return ColumnType.BOOLEAN, {v: _BOOL_TOKENS[v.lower()] for v in distinct}
    try:
        return ColumnType.INTEGER, {v: int(v) for v in distinct}
    except ValueError:
        pass
    try:
        # + 0.0 turns -0.0 into 0.0: equal cells must have equal tokens
        return ColumnType.DECIMAL, {v: float(v) + 0.0 for v in distinct}
    except ValueError:
        return ColumnType.CATEGORICAL, {v: v for v in distinct}


#: Characters read at a time when the rest of the input is read after a
#: data error, to find an undecodable byte that must win over it.
_DRAIN_CHARS = 1 << 16


def _read_fields(
    text: io.TextIOBase, columns: Collection[str] | None
) -> tuple[list[str], list[list[str]], list[dict[str, str]], int]:
    """Header names, then the raw fields of each kept column with each
    column's distinct fields, and the row count. Raises DataError for an
    empty input, a ragged row, unreadable CSV or a duplicate header name."""
    reader = csv.reader(text)
    try:
        first = next(reader, None)
        if first is None:
            raise EmptyInput("no header row in input")
        header = [name.strip() for name in first]
        keep = [i for i, name in enumerate(header) if columns is None or name in columns]
        # Each record's kept fields go straight into their columns, each one
        # as the one str object of its distinct field in that column: no
        # list of rows and no per-cell copy of a field outlives its record.
        raw_columns: list[list[str]] = [[] for _ in keep]
        distinct: list[dict[str, str]] = [{} for _ in keep]
        sinks = [
            (i, raw.append, fields.setdefault)
            for i, raw, fields in zip(keep, raw_columns, distinct)
        ]
        row_count = 0
        for row in reader:
            if len(row) != len(header):
                raise RaggedRows(
                    f"line {reader.line_num}: expected {len(header)} cells, got {len(row)}"
                )
            for i, append, intern in sinks:
                cell = row[i]
                append(intern(cell, cell))
            row_count += 1
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise DataError(f"line {reader.line_num}: unreadable CSV: {exc}") from exc
    if len(set(header)) != len(header):
        raise DataError(f"duplicate column names in header: {header}")
    return [header[i] for i in keep], raw_columns, distinct, row_count


def _undecodable(stream: BinaryIO, exc: UnicodeDecodeError) -> UndecodableBytes:
    """The error for undecodable input, with the byte position that decoding
    the whole input gives: exc counts from the start of the chunk that the
    reading decoder failed in."""
    if stream.seekable():
        stream.seek(0)
        try:
            stream.read().decode("utf-8-sig")
        except UnicodeDecodeError as whole:
            exc = whole
    return UndecodableBytes(f"input is not valid UTF-8: {exc}")


def load_table(source: bytes | BinaryIO, columns: Collection[str] | None = None) -> DataTable:
    """Load RFC 4180 CSV, as bytes or a binary stream, into a typed table.

    A stream is read once, from its start to its end, and decoded as it is
    read, so no copy of the whole input is made; it is left open. Empty
    fields become missing values. Column types are inferred per column:
    boolean, integer, decimal, else categorical.

    `columns` names the columns to keep, in file order; a name the file
    lacks is ignored, and None keeps every column. Every check still covers
    the whole input, read or not: UTF-8 decoding, ragged rows, unreadable
    CSV (a field past the size limit included), duplicate header names and
    an empty input. An undecodable byte wins over every other fault,
    wherever it stands, and its message gives its position in the input.
    """
    stream = source if hasattr(source, "read") else io.BytesIO(source)
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
    try:
        try:
            names, raw_columns, distinct, row_count = _read_fields(text, columns)
        except DataError:
            # read on: an undecodable byte later in the input wins
            while text.read(_DRAIN_CHARS):
                pass
            raise
        finally:
            text.detach()  # closing the wrapper would close the stream
    except UnicodeDecodeError as exc:
        raise _undecodable(stream, exc) from exc

    types: list[ColumnType] = []
    typed: list[tuple[Cell, ...]] = []
    for k in range(len(names)):
        # each raw column is freed once its typed tuple is built, before the
        # next one is
        raw, fields = raw_columns[k], distinct[k]
        raw_columns[k] = distinct[k] = None
        fields.pop("", None)
        ctype, values = _infer_column(fields)
        types.append(ctype)
        # an empty field is no key of values, so .get maps it to None
        typed.append(tuple(map(values.get, raw)))

    return DataTable(
        column_names=tuple(names),
        column_types=tuple(types),
        columns=tuple(typed),
        row_count=row_count,
    )


def dump_table(table: DataTable) -> bytes:
    """Serialize a table back to CSV (missing values as empty fields)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.column_names)
    for i in range(table.row_count):
        writer.writerow(
            ["" if col[i] is None else cell_token(col[i]) for col in table.columns]
        )
    return buffer.getvalue().encode("utf-8")


def _check_binary(table: DataTable, name: str, role: str, positive: str) -> str:
    """Check that a column is binary and, when it holds two values, that
    the positive label is one of them. Returns the label as cell_token
    spells it (boolean labels match case-insensitively)."""
    distinct = {cell_token(v) for v in set(table.column(name)) if v is not None}
    if len(distinct) > 2:
        raise NonBinaryTarget(
            f"{role} column {name!r} has {len(distinct)} distinct values, expected <= 2"
        )
    token = positive.lower() if table.column_type(name) is ColumnType.BOOLEAN else positive
    if len(distinct) == 2 and token not in distinct:
        raise UnknownPositiveLabel(
            f"{role} positive label {positive!r} is not a value of column {name!r} "
            f"(values: {', '.join(sorted(distinct))})"
        )
    return token


def bind_roles(
    table: DataTable,
    target: str,
    target_positive: str,
    *,
    group: str | None = None,
    prediction: str | None = None,
    prediction_positive: str | None = None,
    weight: str | None = None,
) -> RoleBindings:
    """Validate and bind semantic roles against a table."""
    for name in (target, group, prediction, weight):
        if name is not None and not table.has_column(name):
            raise MissingColumn(f"bound column {name!r} not in table")

    target_positive = _check_binary(table, target, "target", target_positive)
    if prediction is not None:
        if prediction_positive is None:
            raise ValueError("prediction binding requires an explicit positive label")
        prediction_positive = _check_binary(
            table, prediction, "prediction", prediction_positive
        )

    if weight is not None:
        for i, value in enumerate(table.column(weight)):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise NegativeWeight(
                    f"weight column {weight!r} row {i + 1}: non-numeric value {value!r}"
                )
            if not 0 <= value <= sys.float_info.max:  # also NaN, and an int no float holds
                raise NegativeWeight(
                    f"weight column {weight!r} row {i + 1}: value {value!r} is not a "
                    "finite number >= 0"
                )

    return RoleBindings(
        target=target,
        target_positive=target_positive,
        group=group,
        prediction=prediction,
        prediction_positive=prediction_positive,
        weight=weight,
    )


def stratify(table: DataTable, by: str) -> list[tuple[str, DataTable]]:
    """Partition rows by the distinct values of a categorical column.

    Strata are ordered by label and together cover every row exactly once.
    """
    if table.column_type(by) is not ColumnType.CATEGORICAL:
        raise NonCategoricalColumn(
            f"column {by!r} is {table.column_type(by).value}, stratification needs categorical"
        )
    groups: dict[Cell, list[int]] = {}
    for i, value in enumerate(table.column(by)):
        groups.setdefault(value, []).append(i)
    # None and "" are unequal but share the label "": their rows merge
    labelled: dict[str, list[int]] = {}
    for value, indexes in groups.items():
        labelled.setdefault(cell_token(value), []).extend(indexes)

    strata = []
    for label in sorted(labelled):
        indexes = sorted(labelled[label])
        pick = operator.itemgetter(*indexes)
        # itemgetter of one index returns the cell itself, not a 1-tuple
        columns = tuple(
            pick(col) if len(indexes) > 1 else (pick(col),) for col in table.columns
        )
        strata.append(
            (
                label,
                DataTable(
                    column_names=table.column_names,
                    column_types=table.column_types,
                    columns=columns,
                    row_count=len(indexes),
                ),
            )
        )
    return strata
