"""Property tests of the command line as a whole, driven in process.

Metamorphic relations on the demo: edits of the data file that no control
can see leave the exit code, the verdict table and every deterministic
output byte unchanged. A fuzzer for every subcommand: drawn flags, drawn
CSV files, any bytes and edits of real documents always end in an exit
code of the contract with a message, and leave no empty run directory or
temporary file behind.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_A_DATA, SCENARIO_A_PLAN, csv_sources, replace_random_node
from oscal_assure import (
    load_table,
    parse_poam_document,
    parse_results_document,
    validate_document_structure,
)
from oscal_assure.cli import main
from oscal_assure.errors import OscalAssureError

RESULTS = "assessment-results.oscal.json"
POAM = "poam.oscal.json"


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --- metamorphic relations on the demo -------------------------------------------


def _demo_run(command: str, data: bytes, mode: str | None) -> tuple:
    """Exit code, verdict table and deterministic results/POA&M bytes of a
    demo `run` (both phases) or `enforce --out` (training phase) on `data`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        out_dir = Path(tmp) / "out"
        if command == "run":
            argv = ["run", "credit-scoring", str(SCENARIO_A_PLAN), "--data", str(path),
                    "--vault", str(out_dir)]
            out_dir = out_dir / "runs" / "credit-scoring"
        else:
            argv = ["enforce", str(SCENARIO_A_PLAN), str(path), "--out", str(out_dir),
                    "--phase", "training"]
        argv += ["--target", "class:good", "--group", "gender", "--prediction",
                 "prediction:good", "--deterministic"]
        code, out, _ = _main(argv + (["--mode-override", mode] if mode else []))
        documents = {
            name: (out_dir / name).read_bytes()
            for name in (RESULTS, POAM)
            if (out_dir / name).exists()
        }
    # what follows the verdict table names the temporary directory
    return code, out.partition("vault: ")[0].partition("wrote ")[0], documents


@functools.cache
def _demo_reference(command: str, mode: str | None) -> tuple:
    return _demo_run(command, SCENARIO_A_DATA.read_bytes(), mode)


#: Columns no demo control reads, each a function of the row number.
UNREAD_COLUMNS = {
    "row_id": lambda i: f"applicant-{i}",  # all distinct
    "note": lambda i: "a, quoted" if i % 2 else 'say "hi", twice',
    "big": lambda i: "7" * 5000 if i % 250 == 0 else str(i),  # past int()'s digit limit
    "score": lambda i: ("", "0.5", "-0.0", "nan")[i % 4],
}


@st.composite
def demo_variants(draw) -> bytes:
    """The demo data with unread columns added, columns reordered and every
    row repeated k times."""
    with SCENARIO_A_DATA.open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    added = draw(st.lists(st.sampled_from(sorted(UNREAD_COLUMNS)), unique=True))
    header = header + added
    rows = [row + [UNREAD_COLUMNS[name](i) for name in added] for i, row in enumerate(rows)]
    order = draw(st.permutations(range(len(header))))
    k = draw(st.integers(min_value=1, max_value=3))
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([header[j] for j in order])
    writer.writerows([row[j] for j in order] for row in rows for _ in range(k))
    return buffer.getvalue().encode("utf-8")


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["run", "enforce"]), demo_variants(), st.sampled_from([None, "warn"]))
def test_run_output_ignores_unread_columns_column_order_and_repeated_rows(command, data, mode):
    reference = _demo_reference(command, mode)
    assert POAM in reference[2]  # both documents are compared
    assert _demo_run(command, data, mode) == reference


# --- the exit-code contract under drawn flags and files ---------------------------

FUZZ_PLAN = b"""\
assessment-plan:
  metadata: {title: fuzz plan}
  control-implementations:
    - implemented-requirements:
        - control-id: imbalance
          props:
            - {name: metric_key, value: class_imbalance_ratio}
            - {name: operator, value: gt}
            - {name: threshold, value: "0.2"}
            - {name: enforcement_mode, value: block}
        - control-id: rates-by-b-in-c
          props:
            - {name: metric_key, value: disparate_impact}
            - {name: operator, value: ge}
            - {name: threshold, value: "0.8"}
            - {name: metric_param, value: group=b}
            - {name: stratify_by, value: c}
            - {name: lifecycle_phase, value: validation}
            - {name: target_type, value: model}
"""


@st.composite
def demo_slices(draw) -> bytes:
    """A few demo rows under some of its columns, with some cells blanked."""
    with SCENARIO_A_DATA.open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    keep = draw(st.lists(st.sampled_from(range(len(header))), min_size=1, unique=True))
    picked = draw(st.lists(st.sampled_from(rows), max_size=12))
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([header[j] for j in keep])
    for row in picked:
        writer.writerow(["" if draw(st.integers(0, 9)) == 0 else row[j] for j in keep])
    return buffer.getvalue().encode("utf-8")


#: Column names and positive labels of no file.
ABSENT_COLUMN, ABSENT_LABEL = "zz", "no-such-label"


@st.composite
def role_flags(draw, data: bytes) -> dict[str, str | None]:
    """--target, --prediction, --group and --weight values: absent, empty,
    a column alone, or column:label with or without a label of that column,
    mostly naming the file's own columns."""
    try:
        header, *rows = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    except (UnicodeDecodeError, ValueError, csv.Error):  # ValueError: no record
        header, rows = [], []
    labels = {}
    for i, name in enumerate(header):
        values = {row[i] for row in rows if i < len(row) and row[i]}
        labels[name.strip()] = sorted(values)
    present = sorted(labels)
    labels[ABSENT_COLUMN] = []
    flags = {}
    for flag, kinds in (
        ("--target", ["binding"] * 6 + ["column", "empty", "unknown", "absent"]),
        ("--prediction", ["binding"] * 2 + ["column", "empty", "unknown"] + ["absent"] * 5),
        ("--group", ["column"] * 2 + ["binding", "empty", "unknown"] + ["absent"] * 5),
        ("--weight", ["column", "binding", "empty", "unknown"] + ["absent"] * 8),
    ):
        kind = draw(st.sampled_from(kinds))
        column = draw(st.sampled_from(present)) if present and kind != "unknown" else ABSENT_COLUMN
        label = draw(st.sampled_from(labels[column] + [ABSENT_LABEL]))
        flags[flag] = {"absent": None, "empty": "", "column": column}.get(
            kind, f"{column}:{label}"
        )
    return flags


def _assert_contract(code: int, err: str, root: Path) -> None:
    """An exit code of the contract, a message with a non-zero one, and no
    temporary file or empty run directory anywhere under root."""
    assert code in {0, 1, 2, 3}
    if code:
        assert err.strip()
    assert not list(root.rglob(".*.tmp"))
    for runs in root.rglob("runs"):
        assert all(any(run.iterdir()) for run in runs.iterdir())


def _role_argv(flags: dict[str, str | None]) -> list[str]:
    return [arg for flag, value in flags.items() if value is not None for arg in (flag, value)]


@settings(max_examples=300, deadline=None)
@given(
    csv_sources() | demo_slices(),
    st.sampled_from([FUZZ_PLAN, SCENARIO_A_PLAN.read_bytes()]),
    st.sampled_from([None, "monitor", "block"]),
    st.data(),
)
def test_run_keeps_the_exit_code_contract(data, plan, mode, drawn):
    flags = drawn.draw(role_flags(data))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "plan.yaml").write_bytes(plan)
        (root / "data.csv").write_bytes(data)
        vault = root / "vault"
        argv = ["run", "r", str(root / "plan.yaml"), "--data", str(root / "data.csv"),
                "--vault", str(vault), *_role_argv({**flags, "--mode-override": mode})]
        code, _, err = _main(argv)
        _assert_contract(code, err, root)
    # the data is loaded before the flags are checked, so a file that does
    # not load is reported as such whatever the flags
    try:
        load_table(data)
    except OscalAssureError as exc:
        assert (code, err) == (1, f"error: {exc}\n")
    else:
        if flags["--target"] is None:
            assert (code, err) == (1, "usage error: --target is required when --data is given\n")


@functools.cache
def _demo_documents() -> tuple[bytes, bytes]:
    """The results and POA&M of a blocked demo `enforce`."""
    with tempfile.TemporaryDirectory() as tmp:
        code, _, _ = _main(["enforce", str(SCENARIO_A_PLAN), str(SCENARIO_A_DATA),
                            "--target", "class:good", "--group", "gender", "--out", tmp])
        assert code == 2
        return (Path(tmp) / RESULTS).read_bytes(), (Path(tmp) / POAM).read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    csv_sources() | demo_slices(),
    st.sampled_from([FUZZ_PLAN, SCENARIO_A_PLAN.read_bytes()]),
    st.sampled_from(["absent", "file", "stale-poam"]),
    st.sampled_from([None, "training", "validation", "monitoring"]),
    st.sampled_from([None, "monitor", "block"]),
    st.booleans(),
    st.data(),
)
def test_enforce_keeps_the_exit_code_contract(
    data, plan, out_state, phase, mode, deterministic, drawn
):
    flags = drawn.draw(role_flags(data))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "plan.yaml").write_bytes(plan)
        (root / "data.csv").write_bytes(data)
        out = root / "out"
        if out_state == "file":
            out.write_bytes(b"not a directory")
        elif out_state == "stale-poam":
            out.mkdir()
            (out / POAM).write_bytes(_demo_documents()[1])
        argv = ["enforce", str(root / "plan.yaml"), str(root / "data.csv"), "--out", str(out),
                *_role_argv({**flags, "--phase": phase, "--mode-override": mode})]
        code, _, err = _main(argv + (["--deterministic"] if deterministic else []))
        _assert_contract(code, err, root)

        if out_state == "file":
            assert code == 1
        elif code in {0, 2}:
            # whatever --out held before, the POA&M in it is this run's
            results = parse_results_document((out / RESULTS).read_bytes())
            if (out / POAM).exists():
                poam = parse_poam_document((out / POAM).read_bytes())
                assert validate_document_structure(poam, results) == []
            else:
                assert not results.all_risks()


#: JSON values to put in place of a node of a real document.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=4,
)


@st.composite
def document_variants(draw, original: bytes) -> bytes:
    """Any bytes, the document itself, or the document with one node replaced."""
    kind = draw(st.sampled_from(["bytes", "original", "edited", "edited"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "original":
        return original
    document = json.loads(original)
    replace_random_node(document, draw, JSON_VALUES)
    return json.dumps(document).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["table", "json"]))
def test_report_keeps_the_exit_code_contract(drawn, output_format):
    results_bytes, poam_bytes = _demo_documents()
    results = drawn.draw(document_variants(results_bytes))
    poam = drawn.draw(st.none() | document_variants(poam_bytes))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / RESULTS).write_bytes(results)
        if poam is not None:
            (root / POAM).write_bytes(poam)
        code, out, err = _main(["report", str(root / RESULTS), "--format", output_format])
        _assert_contract(code, err, root)

    if code == 0:
        shown = "poam_items" in json.loads(out) if output_format == "json" else "== POA&M" in out
        if shown:  # a POA&M is reported only beside the results it covers
            assert validate_document_structure(
                parse_poam_document(poam), parse_results_document(results)
            ) == []


@settings(max_examples=100, deadline=None)
@given(
    st.none() | st.binary(max_size=64)
    | st.dictionaries(st.sampled_from(["R-042", "T-017", "P-1"]), JSON_VALUES).map(
        lambda labels: json.dumps(labels).encode("utf-8")
    ),
    st.sampled_from(["credit-gender-di", "credit-class-imbalance", "no-such-control"]),
)
def test_trace_keeps_the_exit_code_contract(labels, control_id):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = ["trace", str(SCENARIO_A_PLAN), control_id]
        if labels is not None:
            (root / "labels.json").write_bytes(labels)
            argv += ["--labels", str(root / "labels.json")]
        code, _, err = _main(argv)
        _assert_contract(code, err, root)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=256), st.sampled_from([".json", ".yaml", ".yml"]))
def test_validate_keeps_the_exit_code_contract(policy, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / f"plan{suffix}").write_bytes(policy)
        code, _, err = _main(["validate", str(root / f"plan{suffix}")])
        _assert_contract(code, err, root)
