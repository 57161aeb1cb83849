"""The content-addressed artifact store behind every on-disk cache.

One :class:`ArtifactStore` owns one root directory with typed namespace
subdirectories (``result/``, ``checkpoint/``, ``bbv/``, ``reftrace/``).
Artifacts are files whose *names* carry their identity — content
fingerprints plus a format version — so the store never needs an index:
a key either resolves to a file or it does not, and concurrent writers
of the same key write identical bytes.

Three disciplines apply to every artifact:

* **Atomic, durable writes** — payload goes to a per-writer tmp file
  (pid + thread id in the name), is flushed and fsynced, then renamed
  over the final path with ``os.replace``.  A reader can only ever see
  a complete artifact; a killed writer leaves at worst a ``*.tmp``
  file that ``gc`` sweeps.
* **Checksum-verified reads** — binary blobs are framed with a header
  (``REPROART1`` magic + SHA-256 of the payload); reads verify the
  digest and move any corrupt or truncated blob into ``quarantine/``
  instead of failing on it, so the caller simply rebuilds.  Headerless
  files (formats that must stay directly parseable, like the result
  cache's raw JSON) are returned as-is.
* **Version-based gc** — adapters register their filename suffixes
  (:func:`register_artifact_kind`), and :meth:`ArtifactStore.gc`
  removes artifacts whose names carry a stale format version, plus tmp
  litter and (optionally) old or quarantined files.

``REPRO_ARTIFACT_DIR`` moves the whole store; explicit per-namespace
``overrides`` pin one adapter's directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from pathlib import Path
from typing import Callable

from repro.reliability.faults import corrupt_bytes, inject

#: The typed namespaces of the store (subdirectories of the root).
NAMESPACES = ("result", "checkpoint", "bbv", "reftrace")

#: Checksum frame: magic line, hex SHA-256 line, then the payload.
_MAGIC = b"REPROART1\n"
_DIGEST_LEN = 64  # hex sha256


class ArtifactCorruptionWarning(UserWarning):
    """A stored blob failed its checksum and was quarantined."""


def default_artifact_dir() -> Path:
    """The store root: ``REPRO_ARTIFACT_DIR``, else ``.artifacts/`` in a
    src-layout checkout's root or, installed, the working directory."""
    env = os.environ.get("REPRO_ARTIFACT_DIR")
    if env:
        return Path(env)
    root = Path(__file__).resolve().parents[3]
    if (root / "src" / "repro").is_dir():
        return root / ".artifacts"
    return Path.cwd() / ".artifacts"


def fingerprint(payload) -> str:
    """The store's one fingerprint scheme: sha256 of canonical JSON.

    Matches :meth:`repro.api.spec.RunSpec.key` (sorted-key JSON, first
    16 hex digits), so every artifact key in the repository is derived
    the same way from JSON-shaped content.
    """
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: namespace -> {extension: current-version filename suffix}, populated
#: by the adapter modules at import time (idempotent).  gc uses it to
#: recognize version-stale artifacts by name alone.
_KINDS: dict[str, dict[str, str]] = {}


def register_artifact_kind(namespace: str, extension: str,
                           current_suffix: str) -> None:
    """Declare the current filename suffix of one artifact kind.

    ``extension`` (e.g. ``".ckpt"``) selects the files the kind owns in
    its namespace; ``current_suffix`` (e.g. ``"--v2.ckpt"``) is what a
    current-format artifact's name ends with — anything else with the
    extension is version-stale and eligible for gc.
    """
    if namespace not in NAMESPACES:
        raise ValueError(f"unknown namespace {namespace!r}; "
                         f"available: {list(NAMESPACES)}")
    _KINDS.setdefault(namespace, {})[extension] = current_suffix


def registered_kinds() -> dict[str, dict[str, str]]:
    """The registered artifact kinds (a copy; for introspection)."""
    return {ns: dict(kinds) for ns, kinds in _KINDS.items()}


class ArtifactStore:
    """One content-addressed directory serving every artifact namespace.

    Args:
        root: Store root directory; default :func:`default_artifact_dir`.
        enabled: When False, reads miss and writes are dropped (the
            store never touches the filesystem).
        overrides: Explicit per-namespace directory overrides, taking
            precedence over the root — this is how the adapter classes
            honor their ``directory=...`` constructor arguments.
    """

    def __init__(self, root: Path | str | None = None, enabled: bool = True,
                 overrides: dict[str, Path | str] | None = None):
        self.root = Path(root) if root else default_artifact_dir()
        self.enabled = enabled
        self._overrides = {ns: Path(path)
                           for ns, path in (overrides or {}).items()
                           if path is not None}

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def namespace_dir(self, namespace: str) -> Path:
        """The directory one namespace's artifacts live in.

        Resolution order: explicit constructor override, then
        ``<root>/<namespace>/``.
        """
        if namespace not in NAMESPACES:
            raise ValueError(f"unknown namespace {namespace!r}; "
                             f"available: {list(NAMESPACES)}")
        return self._overrides.get(namespace, self.root / namespace)

    def path(self, namespace: str, filename: str) -> Path:
        """The full path of one artifact."""
        return self.namespace_dir(namespace) / filename

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # ------------------------------------------------------------------
    # Raw blob I/O (path level)
    # ------------------------------------------------------------------
    def write_path(self, path: Path, data: bytes,
                   checksum: bool = True) -> Path:
        """Atomically, durably write one artifact file.

        With ``checksum`` the payload is framed with the store's magic
        and SHA-256 header, which :meth:`read_path` verifies; without it
        the bytes land verbatim (formats that must stay directly
        parseable, e.g. the result cache's JSON).  Raises ``OSError``
        on failure — degrade policy is the caller's (the result cache
        warns and continues; checkpoint builds propagate).
        """
        if not self.enabled:
            return path
        inject("store.write", path.name)
        if checksum:
            digest = hashlib.sha256(data).hexdigest().encode()
            data = _MAGIC + digest + b"\n" + data
        # Fault seam: a plan may corrupt the bytes as they land (torn
        # write, bit rot) — the checksum frame / JSON parse must catch
        # it on read, never serve it.
        data = corrupt_bytes("store.write", path.name, data)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(
            f".{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise
        return path

    def read_path(self, path: Path) -> bytes | None:
        """Read and verify one artifact file; None on miss or corruption.

        A blob carrying the store's checksum header is verified against
        its digest; on mismatch (truncation, bit rot, torn write) the
        file is moved into ``quarantine/`` — with an
        :class:`ArtifactCorruptionWarning` — so the caller rebuilds and
        the bad bytes stay available for inspection.  Headerless files
        are returned as-is (unframed formats).
        """
        if not self.enabled:
            return None
        try:
            inject("store.read", path.name)
            raw = path.read_bytes()
        except OSError:
            return None
        data = corrupt_bytes("store.read", path.name, raw)
        if not data.startswith(_MAGIC):
            if data is not raw and raw.startswith(_MAGIC):
                # Injected read-rot hit the frame header itself: the
                # blob is framed on disk, so treat it as corrupt rather
                # than returning mangled bytes as a headerless artifact.
                self._quarantine(path)
                return None
            return data
        header_end = len(_MAGIC) + _DIGEST_LEN
        digest = data[len(_MAGIC):header_end]
        payload = data[header_end + 1:]
        if (len(data) > header_end and data[header_end:header_end + 1] == b"\n"
                and hashlib.sha256(payload).hexdigest().encode() == digest):
            return payload
        self._quarantine(path)
        return None

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt blob aside (best effort) and warn."""
        target = self.quarantine_dir / f"{int(time.time())}--{path.name}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            detail = f"quarantined to {target}"
        except OSError as exc:
            detail = f"quarantine failed ({exc}); left in place"
        warnings.warn(
            f"artifact {path} failed its checksum ({detail}); "
            f"it will be rebuilt", ArtifactCorruptionWarning, stacklevel=3)

    # ------------------------------------------------------------------
    # Namespace-level helpers
    # ------------------------------------------------------------------
    def get(self, namespace: str, filename: str) -> bytes | None:
        return self.read_path(self.path(namespace, filename))

    def put(self, namespace: str, filename: str, data: bytes,
            checksum: bool = True) -> Path:
        return self.write_path(self.path(namespace, filename), data,
                               checksum=checksum)

    def get_or_create(self, namespace: str, filename: str,
                      builder: Callable[[], bytes],
                      checksum: bool = True) -> bytes:
        """Memoize one artifact: read it, else build + store + return.

        The builder's payload is returned even when the store is
        disabled or unwritable (a failed write degrades to a warning) —
        memoization must never change what the caller computes.
        """
        data = self.get(namespace, filename)
        if data is not None:
            return data
        data = builder()
        try:
            self.put(namespace, filename, data, checksum=checksum)
        except OSError as exc:
            warnings.warn(
                f"artifact store write to {self.path(namespace, filename)} "
                f"failed ({exc}); continuing without caching",
                RuntimeWarning, stacklevel=2)
        return data

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-namespace file counts, sizes, and current-version entries."""
        namespaces: dict[str, dict] = {}
        for namespace in NAMESPACES:
            directory = self.namespace_dir(namespace)
            files = size_bytes = entries = 0
            suffixes = tuple(_KINDS.get(namespace, {}).values())
            if directory.is_dir():
                for item in directory.iterdir():
                    if not item.is_file():
                        continue
                    try:
                        size_bytes += item.stat().st_size
                    except OSError:
                        continue
                    files += 1
                    if any(item.name.endswith(s) for s in suffixes):
                        entries += 1
            namespaces[namespace] = {
                "directory": str(directory),
                "files": files,
                "entries": entries,
                "size_bytes": size_bytes,
            }
        quarantined = 0
        if self.quarantine_dir.is_dir():
            quarantined = sum(1 for item in self.quarantine_dir.iterdir()
                              if item.is_file())
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "namespaces": namespaces,
            "quarantined": quarantined,
            "size_bytes": sum(ns["size_bytes"]
                              for ns in namespaces.values()),
        }

    def gc(self, namespaces: tuple[str, ...] | None = None,
           max_age_days: float | None = None, remove_all: bool = False,
           dry_run: bool = False) -> list[Path]:
        """Collect stale artifacts; returns the removed (or would-be) paths.

        Always removes ``*.tmp`` litter and artifacts whose filenames
        carry a stale format version (per :func:`register_artifact_kind`).
        ``max_age_days`` additionally removes artifacts not touched
        within the window, ``remove_all`` empties the namespaces, and
        ``dry_run`` reports without deleting.  Files the registry does
        not describe are never touched — the store does not delete what
        it cannot classify.  Quarantined blobs are swept by the same
        age/``remove_all`` rules.
        """
        selected = namespaces if namespaces is not None else NAMESPACES
        now = time.time()
        removed: list[Path] = []
        seen: set[Path] = set()

        def _remove(path: Path) -> None:
            if path in seen:
                return
            seen.add(path)
            if not dry_run:
                path.unlink(missing_ok=True)
            removed.append(path)

        def _too_old(path: Path) -> bool:
            if max_age_days is None:
                return False
            try:
                return now - path.stat().st_mtime > max_age_days * 86400
            except OSError:
                return False

        dir_kinds: dict[Path, dict[str, str]] = {}
        for namespace in selected:
            directory = self.namespace_dir(namespace)
            dir_kinds.setdefault(directory, {}).update(
                _KINDS.get(namespace, {}))
        directories = sorted(dir_kinds.items(), key=lambda kv: str(kv[0]))

        for directory, kinds in directories:
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.tmp")):
                _remove(path)
            for extension, current_suffix in sorted(kinds.items()):
                for path in sorted(directory.glob(f"*{extension}")):
                    stale_version = not path.name.endswith(current_suffix)
                    if remove_all or stale_version or _too_old(path):
                        _remove(path)
        if (remove_all or max_age_days is not None) \
                and self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                if path.is_file() and (remove_all or _too_old(path)):
                    _remove(path)
        return removed
