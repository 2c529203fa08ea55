"""Typed tabular data: CSV ingestion, role binding, cohort stratification.

Tables are immutable after load and safe for concurrent reads. Cell values
are int, float, bool, str, or None (missing, from an empty CSV field).
"""

from __future__ import annotations

import csv
import io
import operator
import struct
import sys
from collections import defaultdict
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, count, repeat
from typing import BinaryIO, NamedTuple

from .canonical import cell_token
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


#: A column as codes and dictionary: row i holds dictionary[codes[i]].
Encoded = tuple[memoryview, tuple[Cell, ...]]

#: struct formats of unsigned integers of 1, 2, 4 and 8 bytes.
_CODE_FORMATS = "BHIQ"


def code_format(size: int) -> str:
    """The narrowest unsigned integer format that holds the codes 0 to
    size - 1 (size <= 2**64)."""
    return next(f for f in _CODE_FORMATS if size <= 1 << 8 * struct.calcsize(f))


def _pack(codes: Sequence[int], size: int) -> memoryview:
    """codes as a read-only memoryview in code_format(size)."""
    fmt = code_format(size)
    if fmt == "B":
        return memoryview(bytes(codes))
    return memoryview(struct.pack(f"{len(codes)}{fmt}", *codes)).cast(fmt)


def _encode(cells: Iterable[Cell]) -> Encoded:
    """Codes and dictionary of a column of cells. Cells of one type and repr
    share one code, so 1, 1.0 and True never merge, and the first of them is
    the one dictionary entry that stands for all."""
    codes: defaultdict[tuple[type, str], int] = defaultdict(count().__next__)
    dictionary: list[Cell] = []
    encoded = []
    for cell in cells:
        code = codes[type(cell), repr(cell)]
        if code == len(dictionary):
            dictionary.append(cell)
        encoded.append(code)
    return _pack(encoded, len(dictionary)), tuple(dictionary)


@dataclass(frozen=True, init=False)
class DataTable:
    """Typed, dictionary-encoded columns of equal length.

    Column k is stored as codes[k], a read-only memoryview with one integer
    code per row, and dictionaries[k], the tuple of the column's distinct
    cells (one per distinct field, when loaded), each held by at least one
    row: row i holds dictionaries[k][codes[k][i]]. The codes take the
    narrowest unsigned format that holds them (code_format), so a cell costs
    1 byte in a column of up to 256 distinct cells (2 up to 65,536), where a
    tuple of cells costs an 8-byte pointer. column(name) decodes one column
    into a tuple of cells; rows with one code get the very same object.

    DataTable(column_names, column_types, columns, row_count) encodes
    columns of cells as they are given: cells of one type and repr share a
    code, so 1, 1.0 and True stay apart. load_table and stratify build
    their tables from codes directly. Tables compare and hash by their
    names, types, row count and cells, however the cells are encoded.

    Each column holds cells of one Python type (plus None) and no -0.0, so
    cells that compare equal have equal cell_tokens; metrics, stratify and
    bind_roles group rows by code and name the groups by token. load_table
    guarantees this. A table loaded with `columns` holds only those of the
    file's columns, while every check of the load covered the whole file.
    """

    column_names: tuple[str, ...]
    column_types: tuple[ColumnType, ...]
    # an init field that reads through the `columns` property below, so that
    # dataclasses.replace carries a table's cells to the new table, and the
    # generated __eq__ and __hash__ compare cells, however they are encoded
    columns: tuple[tuple[Cell, ...], ...]
    row_count: int
    codes: tuple[memoryview, ...] = field(init=False, repr=False, compare=False)
    dictionaries: tuple[tuple[Cell, ...], ...] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        column_names: tuple[str, ...],
        column_types: tuple[ColumnType, ...],
        columns: Iterable[Iterable[Cell]],
        row_count: int,
    ) -> None:
        self._fill(column_names, column_types, row_count, map(_encode, columns))

    @classmethod
    def _from_encoded(
        cls,
        column_names: tuple[str, ...],
        column_types: tuple[ColumnType, ...],
        row_count: int,
        columns: Iterable[Encoded],
    ) -> DataTable:
        table = cls.__new__(cls)
        table._fill(column_names, column_types, row_count, columns)
        return table

    def _fill(
        self,
        column_names: tuple[str, ...],
        column_types: tuple[ColumnType, ...],
        row_count: int,
        columns: Iterable[Encoded],
    ) -> None:
        columns = list(columns)
        object.__setattr__(self, "column_names", column_names)
        object.__setattr__(self, "column_types", column_types)
        object.__setattr__(self, "row_count", row_count)
        object.__setattr__(self, "codes", tuple(codes for codes, _ in columns))
        object.__setattr__(self, "dictionaries", tuple(entries for _, entries in columns))

    def __repr__(self) -> str:  # the cells are left out
        return (
            f"DataTable(column_names={self.column_names!r}, "
            f"column_types={self.column_types!r}, row_count={self.row_count!r})"
        )

    def __reduce__(self):
        # a memoryview does not pickle, so a table pickles as its cells
        return DataTable, (self.column_names, self.column_types, self.columns, self.row_count)

    def _index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise MissingColumn(f"column {name!r} not in table") from None

    @property
    def columns(self) -> tuple[tuple[Cell, ...], ...]:
        """Every column decoded, in column order: each access decodes the
        whole table, so read it once, outside any loop over rows."""
        return tuple(
            tuple(map(dictionary.__getitem__, codes))
            for codes, dictionary in zip(self.codes, self.dictionaries)
        )

    def column(self, name: str) -> tuple[Cell, ...]:
        codes, dictionary = self.encoding(name)
        return tuple(map(dictionary.__getitem__, codes))

    def encoding(self, name: str) -> Encoded:
        """The codes and dictionary of a column."""
        index = self._index(name)
        return self.codes[index], self.dictionaries[index]

    def column_type(self, name: str) -> ColumnType:
        return self.column_types[self._index(name)]

    def has_column(self, name: str) -> bool:
        return name in self.column_names


#: Zero-column, zero-row table for contexts with no data bound.
EMPTY_TABLE = DataTable(column_names=(), column_types=(), columns=(), row_count=0)


class RoleBindings(NamedTuple):
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
) -> tuple[list[str], list[bytearray | list[int]], list[defaultdict[str, int]], int]:
    """Header names, then per kept column the code of each row's raw field
    (in a bytearray while every code is below 256, else in a list) and each
    distinct raw field's code, and the row count. Raises DataError
    for an empty input, a ragged row, unreadable CSV or a duplicate header
    name."""
    # the BOM is dropped here: a reading utf-8-sig decoder drops a truncated one
    head = text.readline().removeprefix("\ufeff")
    reader = csv.reader(chain([head] if head else [], text))
    try:
        first = next(reader, None)
        if first is None:
            raise EmptyInput("no header row in input")
        header = [name.strip() for name in first]
        keep = [i for i, name in enumerate(header) if columns is None or name in columns]
        # Each record's kept fields go straight into their columns as codes,
        # a new field taking the next code: no list of rows and no field
        # outlives its record, except the first of each distinct field.
        encoded: list[bytearray | list[int]] = [bytearray() for _ in keep]
        fields: list[defaultdict[str, int]] = [defaultdict(count().__next__) for _ in keep]
        sinks = [(i, codes.append, code) for i, codes, code in zip(keep, encoded, fields)]
        row_count = 0
        width = len(header)
        for row in reader:
            if len(row) != width:
                raise RaggedRows(
                    f"line {reader.line_num}: expected {width} cells, got {len(row)}"
                )
            for i, append, code in sinks:
                try:
                    append(code[row[i]])
                except ValueError:  # code 256: no byte holds it
                    k = keep.index(i)
                    encoded[k] = list(encoded[k])
                    sinks[k] = (i, encoded[k].append, code)
                    encoded[k].append(code[row[i]])
            row_count += 1
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise DataError(f"line {reader.line_num}: unreadable CSV: {exc}") from exc
    if len(set(header)) != len(header):
        raise DataError(f"duplicate column names in header: {header}")
    return [header[i] for i in keep], encoded, fields, row_count


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

    Each kept column is encoded as it is read: a raw field takes the code
    of its first occurrence, or the next code when it is new, and the
    column's codes are packed in the narrowest format that holds them.
    The types are then inferred once per distinct field, and the dictionary
    holds each field's cell at its code, so the cells made from one field
    are one object. With up to 256 distinct fields in a column, a loaded
    cell costs about 1 byte.
    """
    stream = source if hasattr(source, "read") else io.BytesIO(source)
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    try:
        try:
            names, codes, fields, row_count = _read_fields(text, columns)
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
    dictionaries: list[tuple[Cell, ...]] = []
    for k, distinct in enumerate(fields):
        ctype, values = _infer_column([raw for raw in distinct if raw])
        types.append(ctype)
        # in code order; an empty field is no key of values, so .get maps it to None
        dictionaries.append(tuple(map(values.get, distinct)))
        # each column's codes are packed, and the unpacked ones freed, in turn
        codes[k] = _pack(codes[k], len(distinct))
    return DataTable._from_encoded(
        tuple(names), tuple(types), row_count, zip(codes, dictionaries)
    )


def dump_table(table: DataTable) -> bytes:
    """Serialize a table back to CSV (missing values as empty fields)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.column_names)
    # each dictionary entry is spelled once; the rows read the codes
    columns = [
        map(list(map(cell_token, dictionary)).__getitem__, codes)
        for codes, dictionary in zip(table.codes, table.dictionaries)
    ]
    writer.writerows(zip(*columns) if columns else repeat((), table.row_count))
    return buffer.getvalue().encode("utf-8")


def dictionary_tokens(dictionary: Iterable[Cell]) -> list[str | None]:
    """The cell_token of each dictionary entry, in code order; a missing
    cell stays None."""
    return [None if cell is None else cell_token(cell) for cell in dictionary]


def _check_binary(table: DataTable, name: str, role: str, positive: str) -> str:
    """Check that a column is binary and, when it holds two values, that
    the positive label is one of them. Returns the label as cell_token
    spells it (boolean labels match case-insensitively)."""
    distinct = set(dictionary_tokens(table.encoding(name)[1])) - {None}
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
    """Validate and bind semantic roles against a table. Each check runs
    once per dictionary entry; a bad weight is reported at the first row
    that holds one."""
    for name in (target, group, prediction, weight):
        if name is not None and not table.has_column(name):
            raise MissingColumn(f"bound column {name!r} not in table")

    target_positive = _check_binary(table, target, "target", target_positive)
    if prediction is not None:
        if prediction_positive is None:
            raise DataError("prediction binding requires an explicit positive label")
        prediction_positive = _check_binary(
            table, prediction, "prediction", prediction_positive
        )

    if weight is not None:
        codes, dictionary = table.encoding(weight)
        faults: dict[int, str] = {}
        for code, value in enumerate(dictionary):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                faults[code] = f"non-numeric value {value!r}"
            elif not 0 <= value <= sys.float_info.max:  # also NaN, and an int no float holds
                faults[code] = f"value {value!r} is not a finite number >= 0"
        if faults:
            row = next(i for i, code in enumerate(codes) if code in faults)
            raise NegativeWeight(f"weight column {weight!r} row {row + 1}: {faults[codes[row]]}")

    return RoleBindings(
        target=target,
        target_positive=target_positive,
        group=group,
        prediction=prediction,
        prediction_positive=prediction_positive,
        weight=weight,
    )


def _subset(codes: memoryview, dictionary: tuple[Cell, ...], rows: list[int]) -> Encoded:
    """A column cut down to rows (at least one). When the rows do not hold
    every dictionary entry, the entries they hold are recoded 0, 1, ... in
    order of first row, so the dictionary keeps only them."""
    # itemgetter of one index returns the code itself, not a 1-tuple
    picked = operator.itemgetter(*rows)(codes) if len(rows) > 1 else (codes[rows[0]],)
    held = dict.fromkeys(picked)
    if len(held) == len(dictionary):
        return _pack(picked, len(dictionary)), dictionary
    recode = {old: new for new, old in enumerate(held)}
    return (
        _pack(list(map(recode.__getitem__, picked)), len(recode)),
        tuple(map(dictionary.__getitem__, held)),
    )


def stratum_encoding(table: DataTable, by: str) -> Encoded:
    """The encoding of the column that strata are cut by, which must be
    categorical."""
    ctype = table.column_type(by)
    if ctype is not ColumnType.CATEGORICAL:
        raise NonCategoricalColumn(
            f"column {by!r} is {ctype.value}, stratification needs categorical"
        )
    return table.encoding(by)


def stratify(table: DataTable, by: str) -> list[tuple[str, DataTable]]:
    """Partition rows by the distinct values of a categorical column.

    Strata are ordered by label and together cover every row exactly once.
    """
    codes, dictionary = stratum_encoding(table, by)
    # each entry is spelled once; None and "" are unequal but share the label ""
    labels = list(map(cell_token, dictionary))
    rows: dict[str, list[int]] = {label: [] for label in sorted(labels)}
    # one pass in row order, so each label's rows arrive ascending
    appends = [rows[label].append for label in labels]
    for i, code in enumerate(codes):
        appends[code](i)

    return [
        (label, DataTable._from_encoded(
            table.column_names, table.column_types, len(indexes),
            [_subset(*column, indexes) for column in zip(table.codes, table.dictionaries)],
        ))
        for label, indexes in rows.items()
    ]
