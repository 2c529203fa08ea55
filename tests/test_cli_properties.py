"""Property tests of `oscal-assure run` as a whole, driven in process.

Metamorphic relations on the demo: edits of the data file that no control
can see leave the exit code, the verdict table and every deterministic
output byte unchanged. A scoped fuzzer: drawn role flags and drawn CSV
files always end in an exit code of the contract with a message, and
leave no empty run directory or temporary file in the vault.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_A_DATA, SCENARIO_A_PLAN, csv_sources
from oscal_assure import load_table
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


def _demo_run(data: bytes, mode: str | None) -> tuple:
    """Exit code, verdict table and deterministic results/POA&M bytes of a
    demo run on `data`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        argv = [
            "run", "credit-scoring", str(SCENARIO_A_PLAN), "--data", str(path),
            "--target", "class:good", "--group", "gender", "--prediction", "prediction:good",
            "--vault", str(Path(tmp) / "vault"), "--deterministic",
        ]
        code, out, _ = _main(argv + (["--mode-override", mode] if mode else []))
        run_dir = Path(tmp) / "vault" / "runs" / "credit-scoring"
        documents = {
            name: (run_dir / name).read_bytes()
            for name in (RESULTS, POAM)
            if (run_dir / name).exists()
        }
    return code, out.partition("vault: ")[0], documents


@functools.cache
def _demo_reference(mode: str | None) -> tuple:
    return _demo_run(SCENARIO_A_DATA.read_bytes(), mode)


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
@given(demo_variants(), st.sampled_from([None, "warn"]))
def test_run_output_ignores_unread_columns_column_order_and_repeated_rows(data, mode):
    assert _demo_run(data, mode) == _demo_reference(mode)


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
                "--vault", str(vault)]
        for flag, value in [*flags.items(), ("--mode-override", mode)]:
            if value is not None:
                argv += [flag, value]
        code, _, err = _main(argv)

        assert code in {0, 1, 2, 3}
        if code:
            assert err.strip()
        runs = vault / "runs"
        assert not runs.exists() or all(any(run.iterdir()) for run in runs.iterdir())
        assert not list(vault.rglob(".*.tmp"))
    # the data is loaded before the flags are checked, so a file that does
    # not load is reported as such whatever the flags
    try:
        load_table(data)
    except OscalAssureError as exc:
        assert (code, err) == (1, f"error: {exc}\n")
    else:
        if flags["--target"] is None:
            assert (code, err) == (1, "usage error: --target is required when --data is given\n")
