"""Each command loads only the layers it runs, and the package loads its
public names on first use. Every such check runs in a fresh interpreter,
since this one has imported every module already. The records that make
dataclasses unneeded share one read-only default mapping, checked here."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import DEMO_DIR, REPO_ROOT, SCENARIO_A_DATA, SCENARIO_A_PLAN
from oscal_assure import ControlSpec, MetricContext, Operator, TraceChain
from oscal_assure.cli import main
from oscal_assure.tabular import EMPTY_TABLE

#: Modules that neither report nor --help needs: the data, evaluation and
#: vault layers, PyYAML, logging, and those that only making a uuid needs.
EVALUATION_ONLY = (
    "oscal_assure.tabular",
    "oscal_assure.metrics",
    "oscal_assure.enforcement",
    "oscal_assure.evidence",
    "yaml",
    "logging",
    "uuid",
    "hashlib",
)


def _fresh(code: str):
    """The JSON that `code` prints, run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_after(statements: str, modules: tuple[str, ...] = EVALUATION_ONLY) -> list[str]:
    """The modules among `modules` that `statements` loaded (not those the
    interpreter's start-up loaded)."""
    return _fresh(
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        f"print(json.dumps([m for m in {modules!r} if m in set(sys.modules) - before]))"
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("out")
    argv = ["enforce", str(SCENARIO_A_PLAN), str(SCENARIO_A_DATA), "--target", "class:good",
            "--group", "gender", "--out", str(out)]
    assert main(argv) == 2  # blocked, so a POA&M is written too
    assert (out / "poam.oscal.json").exists()
    return str(out / "assessment-results.oscal.json")


def test_report_loads_no_evaluation_layer(results):
    loaded = _loaded_after(
        "from oscal_assure import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['report', {results!r}, '--format', 'json']) == 0"
    )
    assert loaded == []


def test_trace_loads_only_the_policy_layer():
    # a trace chain is four ids of a ControlSpec: no data, metric,
    # enforcement or vault code is needed to print it
    argv = ["trace", str(DEMO_DIR / "credit-scoring.oscal.yaml"), "credit-gender-di",
            "--labels", str(DEMO_DIR / "risk-register.json")]
    loaded = _loaded_after(
        "from oscal_assure import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0",
        ("oscal_assure.tabular", "oscal_assure.metrics", "oscal_assure.enforcement",
         "oscal_assure.evidence", "logging"),
    )
    assert loaded == []


def test_help_loads_no_evaluation_layer():
    loaded = _loaded_after(
        "from oscal_assure import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    cli.main(['--help'])"
    )
    assert loaded == []


@pytest.mark.parametrize("command", ["report", "validate", "trace", "--help"])
def test_the_document_commands_generate_no_record_methods(results, command):
    # records are named tuples, so no command that only reads documents
    # loads dataclasses, nor the inspect module that dataclasses imports
    argv = {
        "report": ["report", results],
        "validate": ["validate", str(DEMO_DIR / "credit-scoring.oscal.yaml")],
        "trace": ["trace", str(DEMO_DIR / "credit-scoring.oscal.yaml"), "credit-gender-di"],
        "--help": ["--help"],
    }[command]
    loaded = _loaded_after(
        "from oscal_assure import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        f"    assert cli.main({argv!r}) == 0",
        ("dataclasses", "inspect"),
    )
    assert loaded == []


@pytest.mark.parametrize("default", [
    lambda: ControlSpec("c", "", "accuracy", Operator.GE, 0.5).metric_params,
    lambda: MetricContext(EMPTY_TABLE).params,
    lambda: TraceChain("c").resolved_labels,
], ids=["ControlSpec.metric_params", "MetricContext.params", "TraceChain.resolved_labels"])
def test_a_records_default_mapping_is_empty_and_read_only(default):
    # one default object is shared by every record built without the field
    mapping = default()
    assert mapping == {}
    with pytest.raises(TypeError):
        mapping["key"] = "value"
    assert default() == {}


def test_only_fingerprinting_the_host_loads_platform(tmp_path):
    # uuid imports platform itself on some systems (Linux, CPython 3.11); enforce
    # makes uuids, so there it is loaded through uuid whatever evidence does
    through_uuid = _loaded_after("import uuid", ("platform",))
    assert _loaded_after("import oscal_assure.evidence", ("platform",)) == []
    argv = ["enforce", str(SCENARIO_A_PLAN), str(SCENARIO_A_DATA), "--target", "class:good",
            "--group", "gender", "--out", str(tmp_path)]
    loaded = _loaded_after(
        "from oscal_assure import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 2",
        ("platform",),
    )
    assert loaded == through_uuid


def test_importing_the_package_loads_none_of_its_modules():
    loaded = _fresh(
        "import json, sys\n"
        "import oscal_assure\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('oscal_assure.'))))"
    )
    assert loaded == []


def test_every_public_name_is_its_defining_modules_object():
    mismatched = _fresh(
        "import json, sys\n"
        "import oscal_assure\n"
        "bad = []\n"
        "for name in oscal_assure.__all__:\n"
        "    value = getattr(oscal_assure, name)\n"
        "    module = value.__module__\n"
        "    if not module.startswith('oscal_assure.') or value.__name__ != name \\\n"
        "            or getattr(sys.modules[module], name) is not value:\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))"
    )
    assert mismatched == []


def test_star_import_binds_every_public_name():
    missing = _fresh(
        "import json\n"
        "import oscal_assure\n"
        "namespace = {}\n"
        "exec('from oscal_assure import *', namespace)\n"
        "print(json.dumps([n for n in oscal_assure.__all__ if n not in namespace]))"
    )
    assert missing == []


def test_dir_lists_every_public_name_before_any_is_loaded():
    missing = _fresh(
        "import json\n"
        "import oscal_assure\n"
        "print(json.dumps([n for n in oscal_assure.__all__ if n not in dir(oscal_assure)]))"
    )
    assert missing == []


def test_an_unknown_name_is_an_attribute_error():
    import oscal_assure
    from oscal_assure import cli

    for module in (oscal_assure, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
