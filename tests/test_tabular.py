from __future__ import annotations

import dataclasses
import functools
import io
import math
import pickle
import random
import tracemalloc

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


@pytest.mark.parametrize(
    "distinct, fmt", [(256, "B"), (257, "H"), (65_536, "H"), (65_537, "I")]
)
def test_codes_take_the_narrowest_format_that_holds_them(distinct, fmt):
    # the codes of column "n" outgrow a byte, then two, while rows are read
    values = list(range(distinct)) + [0, distinct - 1]
    source = "n,g\n" + "".join(f"{v},{v % 3}\n" for v in values)
    table = load_table(source.encode())
    assert [codes.format for codes in table.codes] == [fmt, "B"]
    assert table.column("n") == tuple(values)
    assert table.column("g") == tuple(v % 3 for v in values)
    hand_built = DataTable(("n",), (ColumnType.INTEGER,), (values,), len(values))
    assert hand_built.codes[0].format == fmt
    assert hand_built.column("n") == tuple(values)


def test_a_table_pickles_as_its_cells():
    table = load_table(b"g,x\na,1.5\nb,\na,1.5\n")
    again = pickle.loads(pickle.dumps(table))
    assert (again.column_names, again.column_types, again.row_count) == (
        table.column_names, table.column_types, table.row_count
    )
    assert again.columns == table.columns
    assert again == table


def test_tables_compare_and_hash_by_their_cells():
    source = b"g,x,n\na,1.5,1\nb,,2\na,1.5,1\n"
    table = load_table(source)
    same = load_table(source)
    assert table == same and hash(table) == hash(same)
    hand_built = DataTable(table.column_names, table.column_types, table.columns, 3)
    assert hand_built == table and hash(hand_built) == hash(table)
    assert {table, same, hand_built} == {table}
    # stratum "a" keeps the dictionary (1, 2) of x; built by hand it is (2, 1)
    (_, stratum), _ = stratify(load_table(b"g,x\nb,1\na,2\na,2\na,1\n"), "g")
    assert stratum.dictionaries[1] == (1, 2)
    by_hand = DataTable(stratum.column_names, stratum.column_types, (("a",) * 3, (2, 2, 1)), 3)
    assert by_hand.dictionaries[1] == (2, 1)
    assert by_hand == stratum and hash(by_hand) == hash(stratum)
    (_, a), (_, b) = stratify(table, "g")
    assert a == load_table(b"g,x,n\na,1.5,1\na,1.5,1\n")
    assert a != b
    assert table != load_table(b"g,x,n\na,1.5,1\nb,,2\na,1.5,2\n")
    assert table != load_table(b"g,x,m\na,1.5,1\nb,,2\na,1.5,1\n")
    assert table != table.columns


def test_replace_carries_the_cells_of_a_table():
    # the cells are not stored as a field, so replace used to call
    # DataTable() without them and raised a TypeError
    table = load_table(b"g,y\na,1\nb,0\n")
    renamed = dataclasses.replace(table, column_names=("h", "z"))
    assert renamed == DataTable(("h", "z"), table.column_types, (("a", "b"), (1, 0)), 2)
    assert dataclasses.replace(table, row_count=2) == table
    assert dataclasses.replace(table, columns=(("b", "a"), (0, 1))).column("y") == (0, 1)
    # the repr leaves out the cells, which the columns field would decode
    assert repr(table) == (
        "DataTable(column_names=('g', 'y'), column_types=(<ColumnType.CATEGORICAL: "
        "'categorical'>, <ColumnType.INTEGER: 'integer'>), row_count=2)"
    )


def test_dump_table_decodes_the_table_once():
    # reading every column per row made a dump quadratic in the row count
    reads = []

    class CountingTable(DataTable):
        @property
        def columns(self):
            reads.append("columns")
            return super().columns

        def column(self, name):
            reads.append(name)
            return super().column(name)

    rows = 20_000
    cells = (
        tuple(["a", "b", None][i % 3] for i in range(rows)),
        tuple(i % 7 for i in range(rows)),
        tuple([True, False][i % 2] for i in range(rows)),
        tuple(i / 4 for i in range(rows)),
    )
    table = CountingTable(("g", "n", "f", "x"), (
        ColumnType.CATEGORICAL, ColumnType.INTEGER, ColumnType.BOOLEAN, ColumnType.DECIMAL
    ), cells, rows)
    text = dump_table(table)
    assert len(reads) <= 1
    assert load_table(text).columns == cells
    assert text.splitlines()[:3] == [b"g,n,f,x", b"a,0,true,0.0", b"b,1,false,0.25"]


def test_a_loaded_cell_costs_about_one_byte():
    # 4 kept columns of at most 256 distinct values among 6: each cell is a
    # one-byte code, where a tuple of cells costs an 8-byte pointer per cell
    rng = random.Random(5)
    rows = 50_000
    lines = ["a,b,c,d,e,f"]
    for _ in range(rows):
        lines.append(
            f"{rng.choice('xy')},{rng.randrange(256)},{rng.randrange(100) / 4},"
            f"{rng.choice(['true', 'false', ''])},free text {rng.random()},{rng.randrange(3)}"
        )
    source = ("\n".join(lines) + "\n").encode()
    tracemalloc.start()
    try:
        table = load_table(source, columns=["a", "b", "c", "d"])
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = rows * 4
    assert table.row_count * len(table.column_names) == cells
    assert peak <= 6 * cells
    assert retained <= 2 * cells


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        load_table(b"")


def test_non_utf8_rejected():
    with pytest.raises(UndecodableBytes):
        load_table(b"a,b\n\xff\xfe,2\n")


@pytest.mark.parametrize("source", [b"\xef", b"\xef\xbb"], ids=["one-byte", "two-bytes"])
def test_an_input_that_is_a_truncated_bom_is_undecodable(source):
    # not an empty input: a reading utf-8-sig decoder drops these bytes
    for given in (source, io.BytesIO(source)):
        with pytest.raises(UndecodableBytes, match="in position 0"):
            load_table(given)
    with pytest.raises(EmptyInput):
        load_table(b"\xef\xbb\xbf")


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


def test_bind_roles_refuses_a_prediction_without_a_positive_label_as_a_data_error():
    table = table_from_rows(["y", "p"], [["1", "1"], ["0", "0"]])
    with pytest.raises(DataError, match="^prediction binding requires an explicit positive"):
        bind_roles(table, "y", "1", prediction="p", prediction_positive=None)


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


def test_a_bad_weight_is_reported_at_its_first_row():
    table = load_table(b"y,w\n1,1\n0,2\n1,-1\n0,3\n1,-1\n")
    with pytest.raises(NegativeWeight) as exc:
        bind_roles(table, "y", "1", weight="w")
    assert str(exc.value) == "weight column 'w' row 3: value -1 is not a finite number >= 0"
    # of two bad weights, the one on the earlier row is named
    table = load_table(b"y,w\n1,1\n0,nan\n1,-1\n")
    with pytest.raises(NegativeWeight, match="row 2: value nan is not"):
        bind_roles(table, "y", "1", weight="w")
    table = DataTable(("y", "w"), (ColumnType.INTEGER,) * 2, ((1, 0, 1), (1, "x", True)), 3)
    with pytest.raises(NegativeWeight) as exc:
        bind_roles(table, "y", "1", weight="w")
    assert str(exc.value) == "weight column 'w' row 2: non-numeric value 'x'"


def test_binary_checks_list_the_values_the_table_holds():
    table = table_from_rows(["y"], [["a"], ["b"], ["c"], ["a"]])
    with pytest.raises(NonBinaryTarget) as exc:
        bind_roles(table, "y", "a")
    assert str(exc.value) == "target column 'y' has 3 distinct values, expected <= 2"
    table = table_from_rows(["y", "p"], [["good", "bad"], ["bad", ""], ["good", "good"]])
    with pytest.raises(UnknownPositiveLabel) as exc:
        bind_roles(table, "y", "good", prediction="p", prediction_positive="Good")
    assert str(exc.value) == (
        "prediction positive label 'Good' is not a value of column 'p' (values: bad, good)"
    )


def test_a_stratum_binds_on_the_cells_it_holds():
    # stratum "b" holds neither the third target value nor the bad weight
    table = table_from_rows(
        ["g", "y", "w"], [["a", "x", "-1"], ["b", "1", "2"], ["a", "1", "1"], ["b", "0", "1"]]
    )
    with pytest.raises(NonBinaryTarget):
        bind_roles(table, "y", "1")
    (_, a), (_, b) = stratify(table, "g")
    assert b.column("w") == (2, 1)
    assert bind_roles(b, "y", "1", weight="w").weight == "w"
    with pytest.raises(NegativeWeight, match="row 1: value -1 is not"):
        bind_roles(a, "g", "a", weight="w")


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
