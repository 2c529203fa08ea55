"""The README's examples run as written, from a directory that holds a copy
of demo/: every `oscal-assure` command of the CLI walkthrough exits as its
comments say, and the Python blocks run in order in one namespace. So the
README can show no flag or parameter the code does not have."""

from __future__ import annotations

import re
import shlex
import shutil

import pytest

from conftest import DEMO_DIR, REPO_ROOT
from oscal_assure import BlockingControlFailure
from oscal_assure.cli import main

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


@pytest.fixture
def demo_copy(tmp_path, monkeypatch):
    shutil.copytree(DEMO_DIR, tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_the_cli_walkthrough_exits_as_it_says(demo_copy):
    lines = "".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("oscal-assure ")]
    # the training phase's age-disparity control fails in block mode: exit 2
    assert [main(argv) for argv in commands] == [0, 2, 0, 2, 0, 0]


def test_the_python_examples_run_in_order(demo_copy):
    registry_block, library_block, poam_block = _blocks("python")
    namespace: dict = {}
    exec(registry_block, namespace)
    assert "rows_present" in namespace["registry"].keys()
    with pytest.raises(BlockingControlFailure):
        exec(library_block, namespace)
    # the block raised at its last line, once the results were written
    assert (demo_copy / "assessment-results.oscal.json").is_file()
    exec(poam_block, namespace)
    assert (demo_copy / "poam.oscal.json").is_file()
