"""Pre-market evidence probes: artifact hashing, environment fingerprint,
dependency BOM ingestion, and the enforcement handshake, persisted to a
per-run vault directory.

Vault layout under <root>/runs/<run_id>/: assessment-results.oscal.json,
poam.oscal.json (only with risks), hashes.json, environment.json,
bom.json, handshake.json; each file appears only when its part was
collected, handshake.json always.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import re
from dataclasses import asdict, dataclass, field
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .canonical import canonical_json_bytes, format_timestamp, random_uuid, utc_now
from .enforcement import PhaseReport, combine_reports
from .errors import (
    InvalidRunId,
    SessionClosed,
    UnparsableManifest,
    UnwritableVault,
)
from .results import AssessmentResults, PoamDocument
from .serialize import POAM_FILE, RESULTS_FILE, determinize, serialize_canonical

DEFAULT_VAULT_ROOT = ".oscal-assure"
VAULT_ENV_VAR = "OSCAL_ASSURE_VAULT"

_RUN_ID_RE = re.compile(r"[A-Za-z0-9._-]+")
_HASH_CHUNK = 1 << 16


class ArtifactRole(str, Enum):
    INPUT_DATA = "input-data"
    OUTPUT_MODEL = "output-model"
    PREDICTIONS = "predictions"
    OTHER = "other"


@dataclass(frozen=True)
class ArtifactRecord:
    """One file hashed into the vault: its name, path, SHA-256, size and role."""

    logical_name: str
    path: str
    sha256: str
    byte_size: int
    role: ArtifactRole


@dataclass(frozen=True)
class EnvFingerprint:
    """The platform and runtime a run executed on, and the digest of them."""

    os_name: str
    os_version: str
    architecture: str
    logical_cpus: int
    runtime_identifiers: dict[str, str]
    fingerprint_digest: str


@dataclass(frozen=True)
class BomComponent:
    """One pinned dependency of a dependency manifest."""

    name: str
    version: str


@dataclass(frozen=True)
class DependencyBom:
    """The components of an ingested dependency manifest, in manifest order."""

    components: tuple[BomComponent, ...]


@dataclass
class RunSession:
    """One evidence-collection run. Single writer; record operations append
    until finalize closes the session."""

    run_id: str
    vault_root: Path
    run_dir: Path
    started_at: datetime
    finished_at: datetime | None = None
    artifacts: list[ArtifactRecord] = field(default_factory=list)
    environment: EnvFingerprint | None = None
    bom: DependencyBom | None = None
    closed: bool = False

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosed(f"session {self.run_id!r} is already finalized")


@dataclass(frozen=True)
class EvidenceBundle:
    """A finalized session: whether any phase ran, and the vault files written."""

    session: RunSession
    handshake_ok: bool
    written_files: tuple[str, ...]


def resolve_vault_root(vault_root: str | os.PathLike | None = None) -> Path:
    """Flag wins over OSCAL_ASSURE_VAULT, which wins over the default."""
    if vault_root is not None:
        return Path(vault_root)
    env = os.environ.get(VAULT_ENV_VAR)
    return Path(env) if env else Path(DEFAULT_VAULT_ROOT)


def open_session(run_id: str, vault_root: str | os.PathLike | None = None) -> RunSession:
    """Create <root>/runs/<run_id>/; an existing run_id gets a numeric
    suffix (credit-scoring -> credit-scoring-2)."""
    # `.` and `..` name the runs directory and the vault root, not a new run
    if not _RUN_ID_RE.fullmatch(run_id) or run_id in (".", ".."):
        raise InvalidRunId(
            f"run id {run_id!r} is not filesystem-safe ([A-Za-z0-9._-] only, "
            "and not . or ..)"
        )
    root = resolve_vault_root(vault_root)
    started = utc_now()

    runs_dir = root / "runs"
    try:
        runs_dir.mkdir(parents=True, exist_ok=True)
        taken = set(os.listdir(runs_dir))
    except OSError as exc:
        raise UnwritableVault(f"cannot create vault at {root}: {exc}") from exc

    # the first of run_id, run_id-2, ... that runs/ lacks; mkdir is the claim:
    # a concurrent run that took it first makes this run try the next one
    names = itertools.chain([run_id], (f"{run_id}-{n}" for n in itertools.count(2)))
    for effective in itertools.filterfalse(taken.__contains__, names):
        run_dir = runs_dir / effective
        try:
            run_dir.mkdir()
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise UnwritableVault(f"cannot create run directory {run_dir}: {exc}") from exc

    return RunSession(
        run_id=effective, vault_root=root, run_dir=run_dir, started_at=started
    )


def _hash_file(path: str | os.PathLike) -> tuple[str, int]:
    """SHA-256 hex digest and byte size of a file, read in chunks."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(_HASH_CHUNK):
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


class HashingReader(io.RawIOBase):
    """A binary stream over an open file that takes the SHA-256 of every
    byte read through it, so that a consumer's input can be compared with
    the digest record_artifact takes. A seek back to the start restarts the
    digest; no other seek is allowed."""

    def __init__(self, raw: BinaryIO):
        self._raw = raw
        self._digest = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(buffer)
        self._digest.update(memoryview(buffer)[:count])
        return count

    def seekable(self) -> bool:
        return self._raw.seekable()

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        if (offset, whence) != (0, io.SEEK_SET):
            raise io.UnsupportedOperation("a hashing reader seeks only to the start")
        self._digest = hashlib.sha256()
        return self._raw.seek(0)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def record_artifact(
    session: RunSession,
    path: str | os.PathLike,
    role: ArtifactRole = ArtifactRole.OTHER,
) -> ArtifactRecord:
    """Stream a file, compute its SHA-256, and append the record under
    the file's name."""
    session._check_open()
    source = Path(path)
    sha256, size = _hash_file(source)
    record = ArtifactRecord(
        logical_name=source.name,
        path=str(source),
        sha256=sha256,
        byte_size=size,
        role=role,
    )
    session.artifacts.append(record)
    return record


def verify_artifact_records(records: list[ArtifactRecord]) -> list[str]:
    """Logical names of records whose file no longer matches its digest."""
    failed = []
    for record in records:
        try:
            sha256, _ = _hash_file(record.path)
        except OSError:
            sha256 = None
        if sha256 != record.sha256:
            failed.append(record.logical_name)
    return failed


def make_fingerprint(
    os_name: str,
    os_version: str,
    architecture: str,
    logical_cpus: int,
    runtime_identifiers: dict[str, str],
) -> EnvFingerprint:
    """The fingerprint of these fields; its digest is the SHA-256 of the
    fields as compact JSON with sorted keys, in UTF-8."""
    fields = {
        "os_name": os_name,
        "os_version": os_version,
        "architecture": architecture,
        "logical_cpus": logical_cpus,
        "runtime_identifiers": dict(sorted(runtime_identifiers.items())),
    }
    preimage = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return EnvFingerprint(**fields, fingerprint_digest=hashlib.sha256(preimage).hexdigest())


def capture_environment(session: RunSession) -> EnvFingerprint:
    """Fingerprint the host; unavailable fields are recorded as 'unknown'."""
    session._check_open()
    fingerprint = make_fingerprint(
        os_name=platform.system() or "unknown",
        os_version=platform.release() or "unknown",
        architecture=platform.machine() or "unknown",
        logical_cpus=os.cpu_count() or 0,
        runtime_identifiers={
            "python": platform.python_version() or "unknown",
            "python-implementation": platform.python_implementation() or "unknown",
        },
    )
    session.environment = fingerprint
    return fingerprint


def ingest_dependency_manifest(session: RunSession, path: str | os.PathLike) -> DependencyBom:
    """Parse 'name==version' / 'name version' lines into a BOM.

    Blank and '#'-comment lines are skipped. Same name at two versions is
    retained; exact duplicate pairs collapse to one component.
    """
    session._check_open()
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UnparsableManifest(f"{source}: not valid UTF-8: {exc}") from exc
    pairs: set[tuple[str, str]] = set()
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "==" in line:
            name, _, version = line.partition("==")
        else:
            parts = line.split()
            if len(parts) != 2:
                raise UnparsableManifest(
                    f"{source}: line {line_number}: expected 'name==version' "
                    f"or 'name version', got {raw_line!r}"
                )
            name, version = parts
        name, version = name.strip(), version.strip()
        if not name or not version:
            raise UnparsableManifest(
                f"{source}: line {line_number}: empty name or version in {raw_line!r}"
            )
        pairs.add((name, version))
    bom = DependencyBom(
        components=tuple(
            BomComponent(name=name, version=version) for name, version in sorted(pairs)
        )
    )
    session.bom = bom
    return bom


def bom_to_dict(bom: DependencyBom) -> dict:
    return {
        "bomFormat": "CycloneDX",
        "specVersion": "1.5",
        "version": 1,
        "components": [
            {"type": "library", "name": c.name, "version": c.version}
            for c in bom.components
        ],
    }


def write_files(directory: Path, files: Iterable[tuple[str, bytes]]) -> list[str]:
    """Write each (name, bytes) of `files` into directory, made if it is
    missing, and return the names written, in order. Every payload is first
    written to a temporary file in the directory, and freed before the next
    one is built; only when all are staged do they replace their targets, in
    order. A failure removes every staged file, so a failed write leaves
    every target as it was; only a failed rename leaves the targets before
    it replaced. A failure to make the directory is a failed write too."""
    staged: list[tuple[Path, Path]] = []
    target = directory
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, payload in files:
            target = directory / name
            temporary = directory / f".{name}.{random_uuid()}.tmp"
            staged.append((temporary, target))
            with open(temporary, "xb") as handle:
                handle.write(payload)
            del payload  # else it stays alive while the next one is built
        for temporary, target in staged:
            os.replace(temporary, target)
    except OSError as exc:
        raise UnwritableVault(f"cannot write {target}: {exc}") from exc
    finally:
        for temporary, _ in staged:  # each one renamed is already gone
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)
    return [target.name for _, target in staged]


def document_files(
    results: AssessmentResults, poam: PoamDocument | None, deterministic: bool
) -> Iterator[tuple[str, bytes]]:
    """The results document and its POA&M, if there is one, as (name, bytes),
    each serialized only when it is asked for. Under deterministic both are
    rewritten together, so the POA&M's risk references follow the results."""
    if deterministic:
        results, mapping = determinize(results)
        if poam is not None:
            poam, _ = determinize(poam, reference_map=mapping)
    yield RESULTS_FILE, serialize_canonical(results)
    if poam is not None:
        yield POAM_FILE, serialize_canonical(poam)


def _vault_files(session: RunSession, phase_reports: list[PhaseReport], handshake_ok: bool,
                 deterministic: bool) -> Iterator[tuple[str, bytes]]:
    """The run directory's files in order, each serialized only when it is
    asked for."""
    results, poam = combine_reports(list(phase_reports))
    if results is not None:
        yield from document_files(results, poam, deterministic)
    if session.artifacts:
        yield "hashes.json", canonical_json_bytes([asdict(r) for r in session.artifacts])
    if session.environment is not None:
        yield "environment.json", canonical_json_bytes(asdict(session.environment))
    if session.bom is not None:
        yield "bom.json", canonical_json_bytes(bom_to_dict(session.bom))
    yield "handshake.json", canonical_json_bytes({
        "handshake_ok": handshake_ok,
        "phase_count": len(phase_reports),
        "run_id": session.run_id,
        "started_at": format_timestamp(session.started_at),
        "finished_at": format_timestamp(session.finished_at),
    })


def finalize_session(
    session: RunSession,
    phase_reports: list[PhaseReport],
    deterministic: bool = False,
) -> EvidenceBundle:
    """Write the vault bundle and close the session.

    handshake_ok is true iff at least one enforcement phase report is
    attached (enforce ran within the session)."""
    session._check_open()
    session.finished_at = utc_now()
    handshake_ok = len(phase_reports) >= 1
    written = write_files(
        session.run_dir,
        _vault_files(session, phase_reports, handshake_ok, deterministic),
    )
    session.closed = True
    return EvidenceBundle(session=session, handshake_ok=handshake_ok, written_files=tuple(written))
