from __future__ import annotations

import functools
import io
import math

import pytest

from conftest import table_from_rows
from oscal_assure import bind_roles, dump_table, load_table, stratify
from oscal_assure.errors import (
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
from oscal_assure.evidence import HashingReader
from oscal_assure.metrics import MetricContext, accuracy
from oscal_assure.tabular import ColumnType, DataTable


def test_small_csv_types_and_counts():
    table = load_table(b"g,y\nA,1\nA,0\nB,1\n")
    assert table.row_count == 3
    assert table.column_types == (ColumnType.CATEGORICAL, ColumnType.INTEGER)
    assert table.column("g") == ("A", "A", "B")
    assert table.column("y") == (1, 0, 1)


def test_header_only_file_loads_with_zero_rows():
    table = load_table(b"g,y\n")
    assert table.row_count == 0
    assert table.column_names == ("g", "y")


def test_ragged_row_reports_line_number():
    with pytest.raises(RaggedRows, match="line 3"):
        load_table(b"a,b\n1,2\n1,2,3\n")


#: A valid prefix far longer than one chunk of the loader's decoding reader.
LONG_BODY = b"1,x\n" * 60_000


def _whole_input_decode_error(source: bytes) -> str:
    with pytest.raises(UnicodeDecodeError) as exc:
        source.decode("utf-8-sig")
    return f"input is not valid UTF-8: {exc.value}"


def _from_a_file(tmp_path, source: bytes, hashed: bool):
    path = tmp_path / "data.csv"
    path.write_bytes(source)
    with open(path, "rb", buffering=0 if hashed else -1) as stream:
        return load_table(HashingReader(stream) if hashed else stream)


@pytest.mark.parametrize(
    "load",
    [
        lambda tmp_path, source: load_table(source),
        lambda tmp_path, source: load_table(io.BytesIO(source)),
        functools.partial(_from_a_file, hashed=False),
        functools.partial(_from_a_file, hashed=True),
    ],
    ids=["bytes", "bytes-io", "open-file", "hashing-reader"],
)
@pytest.mark.parametrize("line_2", [b"1,x\n", b"1,2,3\n"], ids=["alone", "after-a-ragged-row"])
@pytest.mark.parametrize(
    "tail",
    [b"1,\xff\n1,x\n", b"1,\xc2"],
    ids=["invalid-start-byte", "truncated-at-the-end"],
)
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
def test_decode_error_past_the_first_chunk_gives_its_whole_input_position(
    tmp_path, load, line_2, tail, bom
):
    source = bom + b"a,b\n" + line_2 + LONG_BODY + tail
    assert len(source) > 200_000
    with pytest.raises(UndecodableBytes) as exc:
        load(tmp_path, source)
    assert str(exc.value) == _whole_input_decode_error(source)
    assert f"in position {len(source) - len(bom) - len(tail) + 2}:" in str(exc.value)


def test_a_stream_is_read_to_its_end_and_left_open():
    stream = io.BytesIO(b"a,b\n1,x\n" + LONG_BODY)
    assert load_table(stream, columns={"a"}).row_count == 60_001
    assert not stream.closed
    assert stream.read() == b""


def test_field_past_the_csv_size_limit_is_a_data_error():
    with pytest.raises(DataError, match="line 2: unreadable CSV: field larger than field limit"):
        load_table(b"a,b\n" + b"x" * 200_000 + b",1\n")


#: Files that fail to load only because of what stands outside column "a".
FAULTS_OUTSIDE_THE_READ_COLUMN = {
    "ragged-row": (RaggedRows, b"a,b\n1,2\n1,2,3\n"),
    "short-row": (RaggedRows, b"a,b\n1,2\n1\n"),
    "duplicate-header-name": (DataError, b"a,b,b\n1,2,3\n"),
    "field-past-the-size-limit": (DataError, b"a,b\n1," + b"x" * 200_000 + b"\n"),
    "undecodable-byte": (UndecodableBytes, b"a,b\n1,\xff\n"),
}


@pytest.mark.parametrize(
    "error,source",
    FAULTS_OUTSIDE_THE_READ_COLUMN.values(),
    ids=FAULTS_OUTSIDE_THE_READ_COLUMN.keys(),
)
def test_every_check_covers_the_columns_that_are_not_kept(error, source):
    with pytest.raises(error) as full:
        load_table(source)
    with pytest.raises(error) as projected:
        load_table(source, columns={"a"})
    assert str(projected.value) == str(full.value)


def test_kept_columns_are_in_file_order_and_unknown_names_are_ignored():
    table = load_table(b"a,b,c\n1,x,2.5\n", columns=["c", "a", "zz"])
    assert table.column_names == ("a", "c")
    assert table.column_types == (ColumnType.INTEGER, ColumnType.DECIMAL)
    assert table.columns == ((1,), (2.5,))
    assert load_table(b"a,b\n1,2\n", columns=()).row_count == 1


def test_equal_loaded_cells_share_one_object():
    table = load_table(b"g,n,x\nlong label,7,0.5\nlong label,7,0.5\n,7,\n")
    for column in table.columns:
        assert column[0] is column[1]


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        load_table(b"")


def test_non_utf8_rejected():
    with pytest.raises(UndecodableBytes):
        load_table(b"a,b\n\xff\xfe,2\n")


def test_decimal_boolean_and_missing_inference():
    table = load_table(b"x,flag,name\n1.5,true,ann\n2,false,\n,true,bo\n")
    assert table.column_types == (
        ColumnType.DECIMAL,
        ColumnType.BOOLEAN,
        ColumnType.CATEGORICAL,
    )
    assert table.column("x") == (1.5, 2.0, None)
    assert table.column("flag") == (True, False, True)
    assert table.column("name") == ("ann", None, "bo")


def test_negative_zero_loads_as_zero_and_shares_its_label():
    table = load_table(b"x,y\n-0.0,1\n0.0,0\n1.5,1\n")
    assert [math.copysign(1.0, v) for v in table.column("x")] == [1.0, 1.0, 1.0]
    # -0.0 and 0.0 are one label, so the column is binary
    bindings = bind_roles(table, "x", "0.0")
    assert bindings.target_positive == "0.0"


def test_loaded_columns_hold_one_python_type_each():
    # equal cells must have equal tokens: no column mixes 1, 1.0 and True
    table = load_table(b"i,d,b,c\n1,1,true,1\n0,1.0,false,a\n,-0.0,,1.0\n")
    for name in table.column_names:
        assert len({type(v) for v in table.column(name) if v is not None}) == 1, name


def test_quoted_fields_with_commas():
    table = load_table(b'note,y\n"a, quoted",1\nplain,0\n')
    assert table.column("note") == ("a, quoted", "plain")


def test_bind_roles_happy_path():
    table = table_from_rows(["class", "gender"], [["good", "f"], ["bad", "m"]])
    bindings = bind_roles(table, "class", "good", group="gender")
    assert bindings.target == "class"
    assert bindings.target_positive == "good"


def test_bind_roles_missing_column():
    table = table_from_rows(["y"], [["1"]])
    with pytest.raises(MissingColumn):
        bind_roles(table, "nope", "1")


def test_bind_roles_rejects_three_valued_target():
    table = table_from_rows(["y"], [["a"], ["b"], ["c"]])
    with pytest.raises(NonBinaryTarget):
        bind_roles(table, "y", "a")


def test_bind_roles_rejects_negative_weight():
    table = table_from_rows(["y", "w"], [["1", "1.0"], ["0", "-0.5"]])
    with pytest.raises(NegativeWeight):
        bind_roles(table, "y", "1", weight="w")


@pytest.mark.parametrize("weight", ["inf", "-inf", "nan", "9" * 400])
def test_bind_roles_rejects_a_non_finite_weight(weight):
    # an inf weight used to bind and outweigh the rest of its group: group a
    # read a positive rate of 0.0, though two of its three rows are positive;
    # an integer past the largest float crashed the metric's float() instead
    table = load_table(f"g,y,w\na,1,1\na,0,{weight}\na,1,1\nb,1,1\n".encode())
    with pytest.raises(NegativeWeight, match=f"row 2: value {table.column('w')[1]!r} is not"):
        bind_roles(table, "y", "1", group="g", weight="w")


def test_all_negative_target_binds():
    # a target column where the positive label never appears is legal
    table = table_from_rows(["y", "p"], [["0", "0"], ["0", "1"]])
    bindings = bind_roles(table, "y", "1", prediction="p", prediction_positive="1")
    assert bindings.prediction == "p"


@pytest.mark.parametrize(
    "target, prediction",
    [(("y", "Good"), ("p", "good")), (("y", "good"), ("p", "Good"))],
    ids=["target", "prediction"],
)
def test_bind_roles_rejects_positive_label_absent_from_two_valued_column(target, prediction):
    # a mistyped label would count every row as negative and pass controls
    table = table_from_rows(["y", "p"], [["good", "bad"], ["bad", "good"]])
    with pytest.raises(UnknownPositiveLabel, match="Good"):
        bind_roles(table, *target, prediction=prediction[0], prediction_positive=prediction[1])


def test_boolean_positive_label_matches_case_insensitively():
    table = table_from_rows(
        ["y", "p"], [["true", "true"], ["false", "true"], ["TRUE", "False"]]
    )
    assert table.column_types == (ColumnType.BOOLEAN, ColumnType.BOOLEAN)
    lower = bind_roles(table, "y", "true", prediction="p", prediction_positive="true")
    upper = bind_roles(table, "y", "True", prediction="p", prediction_positive="TRUE")
    assert upper == lower
    assert accuracy(MetricContext(table, upper)).value == 1 / 3
    with pytest.raises(UnknownPositiveLabel):
        bind_roles(table, "y", "yes")


def test_stratify_partitions_by_label():
    table = table_from_rows(["g", "y"], [["A", "1"], ["B", "0"], ["A", "0"]])
    strata = stratify(table, "g")
    assert [(label, t.row_count) for label, t in strata] == [("A", 2), ("B", 1)]
    assert sum(t.row_count for _, t in strata) == table.row_count


def test_stratify_merges_values_that_share_a_label_in_row_order():
    # a hand-built column may hold both None and "", whose label is ""
    table = DataTable(
        column_names=("g", "i"),
        column_types=(ColumnType.CATEGORICAL, ColumnType.INTEGER),
        columns=(("a", None, "", "a", None), (0, 1, 2, 3, 4)),
        row_count=5,
    )
    strata = stratify(table, "g")
    assert [(label, t.column("i")) for label, t in strata] == [("", (1, 2, 4)), ("a", (0, 3))]


def test_stratify_single_valued_column_yields_whole_table():
    table = table_from_rows(["g", "y"], [["A", "1"], ["A", "0"]])
    strata = stratify(table, "g")
    assert len(strata) == 1
    assert strata[0][0] == "A"
    assert strata[0][1].row_count == 2


def test_stratify_rejects_numeric_column():
    table = table_from_rows(["g", "y"], [["1", "1"], ["2", "0"]])
    with pytest.raises(NonCategoricalColumn):
        stratify(table, "g")


def test_type_inference_idempotent_on_round_trip():
    table = load_table(b"x,flag,name,n\n1.5,true,ann,1\n2,false,,2\n,true,bo,3\n")
    again = load_table(dump_table(table))
    assert again.column_types == table.column_types
    assert again.column_names == table.column_names
    assert again.row_count == table.row_count
