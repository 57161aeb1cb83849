"""repro.store — the unified content-addressed artifact store.

Every persistent artifact the simulator produces — cached run results,
warm-state checkpoint sets, BBV profiles, reference traces — lives in
one store under one directory (default ``.artifacts/``, overridable with
``REPRO_ARTIFACT_DIR``), organized into typed namespaces::

    .artifacts/
        result/      RunResult JSON, keyed by RunSpec content hash
        checkpoint/  CheckpointSet blobs, keyed by program/geometry, and
                     program lengths, keyed by program fingerprint
        bbv/         BBV profiles, keyed by program fingerprint
        reftrace/    full-stream reference traces (npz)
        quarantine/  corrupt blobs moved aside on checksum mismatch

All artifacts are *content addressed*: their filenames embed content
fingerprints (program bytes, machine warm geometry, spec hash) plus a
format version, so a blob is immutable once written — concurrent writers
of the same key produce identical bytes and last-rename-wins is safe.
Writes are atomic and durable (per-writer tmp file, fsync, ``os.replace``);
binary blobs carry a checksum header that reads verify, quarantining any
corrupt or truncated file instead of crashing on it.

The cache classes (``ResultCache``, ``CheckpointStore``, the
reference-trace cache in ``repro.harness.reference``) are thin adapters
over this store, each hiding its own serialization format.

:mod:`repro.store.accounting` records every full-stream functional or
detailed pass (kind, benchmark, instruction count), which is how tests
assert that work is fetched from the store instead of recomputed.
"""

from repro.store.accounting import (
    PassEvent,
    instructions_by_kind,
    pass_events,
    record_pass,
    reset_pass_log,
)
from repro.store.artifacts import (
    NAMESPACES,
    ArtifactCorruptionWarning,
    ArtifactStore,
    default_artifact_dir,
    fingerprint,
    register_artifact_kind,
    registered_kinds,
)

__all__ = [
    "NAMESPACES",
    "ArtifactCorruptionWarning",
    "ArtifactStore",
    "PassEvent",
    "default_artifact_dir",
    "fingerprint",
    "instructions_by_kind",
    "pass_events",
    "record_pass",
    "register_artifact_kind",
    "registered_kinds",
    "reset_pass_log",
]
