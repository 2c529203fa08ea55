from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import threading
import weakref

import pytest

from conftest import DEMO_DIR
from oscal_assure import (
    default_registry,
    enforce_phase,
    open_session,
    parse_results_document,
    record_artifact,
    verify_artifact_records,
)
from oscal_assure import evidence
from oscal_assure.canonical import DETERMINISTIC_EPOCH
from oscal_assure.errors import (
    InvalidRunId,
    SessionClosed,
    UnparsableManifest,
    UnwritableVault,
)
from oscal_assure.evidence import (
    ArtifactRole,
    capture_environment,
    finalize_session,
    ingest_dependency_manifest,
    make_fingerprint,
    write_files,
)
from oscal_assure.plan import LifecyclePhase

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


@pytest.fixture
def session(tmp_path):
    return open_session("test-run", vault_root=tmp_path / "vault")


@pytest.fixture
def scenario_a_reports(scenario_a_plan, scenario_a_ctx):
    registry = default_registry()
    return [
        enforce_phase(scenario_a_plan, LifecyclePhase.TRAINING, scenario_a_ctx, registry),
        enforce_phase(scenario_a_plan, LifecyclePhase.VALIDATION, scenario_a_ctx, registry),
    ]


# --- sessions -----------------------------------------------------------------


def test_open_session_creates_run_directory(tmp_path):
    session = open_session("credit-scoring", vault_root=tmp_path)
    assert session.run_dir == tmp_path / "runs" / "credit-scoring"
    assert session.run_dir.is_dir()


def test_run_id_collision_appends_suffix(tmp_path):
    open_session("credit-scoring", vault_root=tmp_path)
    second = open_session("credit-scoring", vault_root=tmp_path)
    third = open_session("credit-scoring", vault_root=tmp_path)
    assert second.run_id == "credit-scoring-2"
    assert third.run_id == "credit-scoring-3"


def test_a_run_id_takes_its_first_free_suffix_in_one_claim(tmp_path, monkeypatch):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "credit-scoring").mkdir()
    for n in range(2, 3001):
        (runs / f"credit-scoring-{n}").mkdir()
    made = []
    original_mkdir = os.mkdir

    def recording_mkdir(path, *args, **kwargs):
        made.append(path)
        return original_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", recording_mkdir)
    assert open_session("credit-scoring", vault_root=tmp_path).run_id == "credit-scoring-3001"
    assert len(made) <= 2
    # a gap left by a deleted run is the next name
    (runs / "credit-scoring-3").rmdir()
    assert open_session("credit-scoring", vault_root=tmp_path).run_id == "credit-scoring-3"


def test_concurrent_sessions_with_one_id_each_get_their_own_directory(tmp_path):
    workers = 16
    barrier = threading.Barrier(workers, timeout=10)
    sessions, errors = [], []

    def open_one():
        try:
            barrier.wait()
            sessions.append(open_session("credit-scoring", vault_root=tmp_path))
        except Exception as exc:  # collected and asserted on below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=open_one) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len({session.run_dir for session in sessions}) == workers
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == sorted(
        ["credit-scoring"] + [f"credit-scoring-{n}" for n in range(2, workers + 1)]
    )


@pytest.mark.parametrize("run_id", ["../escape", "a\n", ".", ".."])
def test_unsafe_run_id_rejected(tmp_path, run_id):
    with pytest.raises(InvalidRunId):
        open_session(run_id, vault_root=tmp_path)
    assert not (tmp_path / "runs").exists()


def test_unwritable_vault_root(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    with pytest.raises(UnwritableVault):
        open_session("run", vault_root=blocker)


def test_env_var_sets_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCAL_ASSURE_VAULT", str(tmp_path / "from-env"))
    session = open_session("r1")
    assert session.vault_root == tmp_path / "from-env"


def test_explicit_vault_root_wins_over_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCAL_ASSURE_VAULT", str(tmp_path / "from-env"))
    session = open_session("r1", vault_root=tmp_path / "from-flag")
    assert session.vault_root == tmp_path / "from-flag"


# --- artifact hashing ----------------------------------------------------------


def test_empty_file_has_canonical_sha256(session, tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    record = record_artifact(session, empty)
    assert record.sha256 == SHA256_EMPTY
    assert record.byte_size == 0


def test_abc_file_has_canonical_sha256(session, tmp_path):
    source = tmp_path / "abc.txt"
    source.write_bytes(b"abc")
    record = record_artifact(session, source, role=ArtifactRole.INPUT_DATA)
    assert record.sha256 == SHA256_ABC
    assert record.byte_size == 3
    assert record.role is ArtifactRole.INPUT_DATA


def test_missing_artifact_raises_file_not_found(session, tmp_path):
    with pytest.raises(FileNotFoundError):
        record_artifact(session, tmp_path / "nope.bin")


def test_hash_is_stable_across_repeat_records(session, tmp_path):
    source = tmp_path / "stable.csv"
    source.write_bytes(b"a,b\n1,2\n")
    first = record_artifact(session, source)
    second = record_artifact(session, source)
    assert first.sha256 == second.sha256


def test_tampering_detected_by_reverification(session, tmp_path):
    good = tmp_path / "good.txt"
    bad = tmp_path / "tampered.txt"
    good.write_bytes(b"untouched")
    bad.write_bytes(b"original")
    records = [record_artifact(session, good), record_artifact(session, bad)]
    bad.write_bytes(b"modified")
    assert verify_artifact_records(records) == ["tampered.txt"]


def test_reverification_names_a_record_whose_file_was_deleted(session, tmp_path):
    kept = tmp_path / "kept.txt"
    gone = tmp_path / "gone.txt"
    kept.write_bytes(b"kept")
    gone.write_bytes(b"gone")
    records = [record_artifact(session, kept), record_artifact(session, gone)]
    gone.unlink()
    assert verify_artifact_records(records) == ["gone.txt"]


def test_hashing_reader_digests_the_bytes_read_through_it(session, tmp_path):
    source = tmp_path / "data.bin"
    source.write_bytes(bytes(range(256)) * 1000)
    with open(source, "rb", buffering=0) as raw:
        reader = evidence.HashingReader(raw)
        head = reader.read(1000)
        assert reader.hexdigest() == hashlib.sha256(head).hexdigest()
        with pytest.raises(io.UnsupportedOperation):
            reader.seek(10)
        assert reader.seek(0) == 0  # restarts the digest
        assert reader.hexdigest() == SHA256_EMPTY
        whole = reader.read()
    assert whole == source.read_bytes()
    assert reader.hexdigest() == record_artifact(session, source).sha256


# --- environment fingerprint -----------------------------------------------------


def test_environment_capture_is_deterministic_in_process(session):
    first = capture_environment(session)
    second = capture_environment(session)
    assert first.fingerprint_digest == second.fingerprint_digest


def test_changing_any_field_changes_digest():
    base = make_fingerprint("linux", "6.1", "x86_64", 4, {"python": "3.10"})
    changed = make_fingerprint("linux", "6.1", "x86_64", 8, {"python": "3.10"})
    assert base.fingerprint_digest != changed.fingerprint_digest


def test_fingerprint_digest_matches_independent_recomputation():
    fingerprint = make_fingerprint("linux", "6.1", "x86_64", 4, {})
    expected_payload = json.dumps(
        {
            "architecture": "x86_64",
            "logical_cpus": 4,
            "os_name": "linux",
            "os_version": "6.1",
            "runtime_identifiers": {},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    assert fingerprint.fingerprint_digest == hashlib.sha256(expected_payload).hexdigest()


# --- dependency manifest -----------------------------------------------------------


def test_demo_lockfile_yields_thirteen_components(session):
    bom = ingest_dependency_manifest(session, DEMO_DIR / "requirements-lock.txt")
    assert len(bom.components) == 13
    names = [c.name for c in bom.components]
    assert names == sorted(names)
    assert ("scikit-learn", "1.3.0") in [(c.name, c.version) for c in bom.components]


def test_empty_manifest_is_a_valid_empty_bom(session, tmp_path):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("")
    bom = ingest_dependency_manifest(session, manifest)
    assert bom.components == ()


def test_same_name_two_versions_both_retained(session, tmp_path):
    manifest = tmp_path / "dup.txt"
    manifest.write_text("lib==1.0\nlib==2.0\nlib==1.0\n")
    bom = ingest_dependency_manifest(session, manifest)
    assert [(c.name, c.version) for c in bom.components] == [
        ("lib", "1.0"),
        ("lib", "2.0"),
    ]


def test_space_separated_pairs_accepted(session, tmp_path):
    manifest = tmp_path / "spaces.txt"
    manifest.write_text("alpha 1.2.3\nbeta 0.9\n")
    bom = ingest_dependency_manifest(session, manifest)
    assert [(c.name, c.version) for c in bom.components] == [
        ("alpha", "1.2.3"),
        ("beta", "0.9"),
    ]


def test_unparsable_manifest_line_reports_number(session, tmp_path):
    manifest = tmp_path / "bad.txt"
    manifest.write_text("good==1.0\nthis is not a pair\n")
    with pytest.raises(UnparsableManifest, match="line 2"):
        ingest_dependency_manifest(session, manifest)


def test_undecodable_manifest_is_unparsable(session, tmp_path):
    manifest = tmp_path / "binary.txt"
    manifest.write_bytes(b"\xff\xfeg\x00o\x00o\x00d\x00")
    with pytest.raises(UnparsableManifest, match="not valid UTF-8"):
        ingest_dependency_manifest(session, manifest)


# --- finalize ------------------------------------------------------------------------


def test_finalize_with_two_reports_writes_two_result_blocks(
    session, scenario_a_reports, tmp_path
):
    bundle = finalize_session(session, scenario_a_reports)
    assert bundle.handshake_ok is True
    results = parse_results_document(
        (session.run_dir / "assessment-results.oscal.json").read_bytes()
    )
    assert len(results.results) == 2
    assert [block.title for block in results.results] == [
        "training phase",
        "validation phase",
    ]


def test_finalize_without_reports_records_failed_handshake(session):
    bundle = finalize_session(session, [])
    assert bundle.handshake_ok is False
    handshake = json.loads((session.run_dir / "handshake.json").read_text())
    assert handshake["handshake_ok"] is False
    assert handshake["phase_count"] == 0
    assert not (session.run_dir / "assessment-results.oscal.json").exists()


def test_double_finalize_rejected(session):
    finalize_session(session, [])
    with pytest.raises(SessionClosed):
        finalize_session(session, [])


def test_record_after_finalize_rejected(session, tmp_path):
    finalize_session(session, [])
    source = tmp_path / "late.txt"
    source.write_bytes(b"late")
    with pytest.raises(SessionClosed):
        record_artifact(session, source)


def test_vault_contains_exactly_the_collected_parts(
    session, scenario_a_reports, tmp_path
):
    data = tmp_path / "input.csv"
    data.write_bytes(b"a\n1\n")
    record_artifact(session, data, role=ArtifactRole.INPUT_DATA)
    capture_environment(session)
    manifest = tmp_path / "lock.txt"
    manifest.write_text("lib==1.0\n")
    ingest_dependency_manifest(session, manifest)
    finalize_session(session, scenario_a_reports)

    expected = {
        "assessment-results.oscal.json",
        "poam.oscal.json",
        "hashes.json",
        "environment.json",
        "bom.json",
        "handshake.json",
    }
    assert {p.name for p in session.run_dir.iterdir()} == expected


def test_failed_vault_write_leaves_neither_target_nor_temporary_file(
    session, scenario_a_reports, monkeypatch
):
    def fail(source, target):
        raise OSError("disk full")

    monkeypatch.setattr(evidence.os, "replace", fail)
    with pytest.raises(UnwritableVault, match="assessment-results.oscal.json: disk full"):
        finalize_session(session, scenario_a_reports)
    assert list(session.run_dir.iterdir()) == []


def test_vault_omits_files_for_uncollected_parts(session, scenario_a_reports):
    # only validation phase (no risks): no poam, no hashes, no env, no bom
    finalize_session(session, [scenario_a_reports[1]])
    assert {p.name for p in session.run_dir.iterdir()} == {
        "assessment-results.oscal.json",
        "handshake.json",
    }


def test_deterministic_finalize_uses_epoch_clock(session, scenario_a_reports):
    finalize_session(session, scenario_a_reports, deterministic=True)
    results = parse_results_document(
        (session.run_dir / "assessment-results.oscal.json").read_bytes()
    )
    assert results.last_modified == DETERMINISTIC_EPOCH


def test_records_are_written_field_by_field_in_declaration_order(session, tmp_path):
    data = tmp_path / "abc.txt"
    data.write_bytes(b"abc")
    record_artifact(session, data, role=ArtifactRole.INPUT_DATA)
    session.environment = make_fingerprint("linux", "6.1", "x86_64", 4, {"z": "1", "a": "2"})
    finalize_session(session, [])

    record = {
        "logical_name": "abc.txt",
        "path": str(data),
        "sha256": SHA256_ABC,
        "byte_size": 3,
        "role": "input-data",
    }
    hashes = (session.run_dir / "hashes.json").read_text(encoding="utf-8")
    assert hashes == json.dumps([record], indent=2) + "\n"
    environment = json.loads((session.run_dir / "environment.json").read_text())
    assert list(environment) == [
        "os_name",
        "os_version",
        "architecture",
        "logical_cpus",
        "runtime_identifiers",
        "fingerprint_digest",
    ]
    assert list(environment["runtime_identifiers"].items()) == [("a", "2"), ("z", "1")]


class _Payload(bytearray):
    """A payload that a weak reference can watch."""


def test_each_payload_is_freed_before_the_next_is_built(tmp_path):
    refs = []

    def payload() -> _Payload:
        assert all(ref() is None for ref in refs)  # every earlier one is freed
        built = _Payload(b"x" * 10)
        refs.append(weakref.ref(built))
        return built

    def files():
        for name in ("a", "b", "c"):
            yield name, payload()

    assert write_files(tmp_path, files()) == ["a", "b", "c"]
    assert [p.read_bytes() for p in sorted(tmp_path.iterdir())] == [b"x" * 10] * 3


def test_a_lockfile_saved_with_a_bom_names_its_first_component_without_it(session, tmp_path):
    manifest = tmp_path / "bom-prefixed.txt"
    manifest.write_bytes(b"\xef\xbb\xbfnumpy==1.26.4\npyyaml==6.0.1\n")
    bom = ingest_dependency_manifest(session, manifest)
    assert [(c.name, c.version) for c in bom.components] == [
        ("numpy", "1.26.4"),
        ("pyyaml", "6.0.1"),
    ]


@pytest.mark.parametrize("line", ["numpy==", "==1.0"])
def test_a_manifest_line_without_a_name_or_version_is_unparsable(session, tmp_path, line):
    manifest = tmp_path / "half.txt"
    manifest.write_text(f"{line}\n")
    with pytest.raises(UnparsableManifest, match="line 1: empty name or version"):
        ingest_dependency_manifest(session, manifest)


# --- run directory claims -----------------------------------------------------------


def test_a_run_directory_claimed_after_the_listing_pushes_the_run_to_the_next_name(
    tmp_path, monkeypatch
):
    open_session("credit-scoring", vault_root=tmp_path)
    # the listing misses runs/credit-scoring, as if another run made it just after
    monkeypatch.setattr(os, "listdir", lambda path: [])
    session = open_session("credit-scoring", vault_root=tmp_path)
    assert session.run_id == "credit-scoring-2"
    assert session.run_dir.is_dir()


def test_a_run_directory_that_cannot_be_made_is_an_unwritable_vault(tmp_path, monkeypatch):
    original_mkdir = os.mkdir

    def refusing_mkdir(path, *args, **kwargs):
        if os.path.basename(path) == "r":
            raise PermissionError(13, "Permission denied", str(path))
        return original_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", refusing_mkdir)
    with pytest.raises(UnwritableVault, match="cannot create run directory .*Permission denied"):
        open_session("r", vault_root=tmp_path)
    assert list((tmp_path / "runs").iterdir()) == []
