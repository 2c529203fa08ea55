"""Reference checks for every CLI invocation the benchmark makes.

A `run` invocation fails its check on an unexpected exit code, a verdict
or action in the printed table that differs from the reference, an
observed value or finding state in the results document that differs from
the reference (compared as the exact repr the engine writes), a results or
POA&M byte that differs from the first run of the benchmark run, a vault
file set or run directory name other than expected, or a hashes.json
digest that does not match the file it names. A `report --format json`
invocation fails on a value or finding state that differs from the
reference. The documents are read with the json module, not the engine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Reference

RESULTS = "assessment-results.oscal.json"
POAM = "poam.oscal.json"


@dataclass
class Outcome:
    """One finished CLI invocation."""

    exit_code: int | None
    stdout: str
    wall_s: float
    peak_rss_kib: int = 0
    import_ns: int = 0
    main_ns: int = 0
    spans: list = field(default_factory=list)


def parse_verdicts(stdout: str) -> dict[str, tuple[str, str]]:
    """control id -> (RESULT, ACTION) from the printed verdict tables."""
    verdicts = {}
    in_table = False
    for line in stdout.splitlines():
        if line.startswith("CONTROL "):
            in_table = True
        elif not line.strip():
            in_table = False
        elif in_table and not line.startswith("---"):
            parts = line.split()
            verdicts[parts[0]] = (parts[5], parts[-1])
    return verdicts


def document_values(results: bytes) -> tuple[dict, dict]:
    """(control id, stratum) -> observed-value text, and control id ->
    finding state, read straight from an assessment-results document."""
    values, statuses = {}, {}
    for block in json.loads(results)["assessment-results"]["results"]:
        for obs in block["observations"]:
            props = {}
            for prop in obs["props"]:
                props.setdefault(prop["name"], prop["value"])
            values[(props.get("control-id"), props.get("stratum"))] = props.get("observed-value")
        for finding in block["findings"]:
            statuses[finding["target"]["target-id"]] = finding["target"]["status"]["state"]
    return values, statuses


def _diff(label: str, got: dict, want: dict) -> list[str]:
    if got == want:
        return []
    keys = sorted((k for k in set(got) | set(want) if got.get(k) != want.get(k)), key=repr)
    shown = ", ".join(f"{k}: got {got.get(k)!r} want {want.get(k)!r}" for k in keys[:3])
    more = f" (+{len(keys) - 3} more)" if len(keys) > 3 else ""
    return [f"{label} differ: {shown}{more}"]


class Checker:
    """Checks the invocations of one benchmark run against one reference.
    Runs must be checked in the order they were made, because run
    directories take numeric suffixes in that order."""

    def __init__(self, reference: Reference, workdir: Path) -> None:
        self.reference = reference
        self.workdir = workdir
        self.runs = 0
        self._first_bytes: dict[str, bytes] = {}

    def run_dir(self) -> Path:
        """Vault-relative directory of the latest checked run."""
        name = self.reference.run_id
        if self.runs > 1:
            name = f"{name}-{self.runs}"
        return Path("vault") / "runs" / name

    def check_run(self, out: Outcome) -> list[str]:
        self.runs += 1
        ref = self.reference
        problems = []
        if out.exit_code != ref.exit_code:
            problems.append(f"exit code {out.exit_code}, expected {ref.exit_code}")
        problems += _diff("verdicts", parse_verdicts(out.stdout), ref.verdicts)
        if f"vault: {self.run_dir()}" not in out.stdout.splitlines():
            problems.append(f"run directory is not {self.run_dir()}")

        run_dir = self.workdir / self.run_dir()
        if not run_dir.is_dir():
            return problems + [f"{run_dir} is missing"]
        files = {path.name for path in run_dir.iterdir()}
        if files != ref.vault_files:
            problems.append(f"vault files {sorted(files)}, expected {sorted(ref.vault_files)}")
            return problems

        for name in (RESULTS, POAM):
            if name not in files:
                continue
            data = (run_dir / name).read_bytes()
            first = self._first_bytes.setdefault(name, data)
            if data != first:
                problems.append(f"{name} bytes differ from the first run")
        try:
            values, statuses = document_values((run_dir / RESULTS).read_bytes())
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"unreadable results document: {exc!r}"]
        problems += _diff(
            "observed values", values, {k: repr(v) for k, v in ref.values.items()}
        )
        problems += _diff("finding states", statuses, ref.statuses)
        return problems + self._check_hashes(run_dir / "hashes.json")

    def _check_hashes(self, path: Path) -> list[str]:
        try:
            records = json.loads(path.read_bytes())
            named = sorted(record["path"] for record in records)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable hashes.json: {exc!r}"]
        if named != sorted(self.reference.hashed):
            return [f"hashes.json names {named}, expected {sorted(self.reference.hashed)}"]
        problems = []
        for record in records:
            try:
                data = (self.workdir / record["path"]).read_bytes()
            except OSError as exc:
                problems.append(f"cannot read {record['path']} named in hashes.json: {exc}")
                continue
            if record["sha256"] != hashlib.sha256(data).hexdigest():
                problems.append(f"hashes.json digest of {record['path']} does not match the file")
            if record["byte_size"] != len(data):
                problems.append(f"hashes.json size of {record['path']} does not match the file")
        return problems

    def check_report(self, out: Outcome) -> list[str]:
        if out.exit_code != 0:
            return [f"report exit code {out.exit_code}, expected 0"]
        try:
            blocks = json.loads(out.stdout)["results"]
            values = {
                (obs["control_id"], obs["stratum"]): obs["value"]
                for block in blocks
                for obs in block["observations"]
            }
            statuses = {f["control_id"]: f["status"] for block in blocks for f in block["findings"]}
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report output: {exc!r}"]
        return (
            _diff("reported values", values, self.reference.values)
            + _diff("reported finding states", statuses, self.reference.statuses)
        )
