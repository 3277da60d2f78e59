"""Content-addressed cell cache: results and warm-up snapshots on disk.

:class:`CellCache` is the deduplicating result store behind the sweep
scheduler (:mod:`repro.experiments.scheduler`), the one durable home of
simulated cells.  Entries live one file per cell under a digest-sharded
directory tree::

    <root>/
      cells/<aa>/<digest>.json      checksummed CellResult documents
      snapshots/<aa>/<digest>.pkl   pickled warmed engine state
      leases/<digest>.lease         work-claim files (see journal.py)
      journal.jsonl                 write-ahead cell journal

One file per cell is what makes the cache crash-safe under concurrent
writers: every write is ``tmp + fsync + os.replace + directory fsync``
(:func:`atomic_write_json`), so a reader never sees a torn entry, a
``kill -9`` at any instant loses at most the entry being written, and
two processes completing the same digest converge on identical bytes —
the second writer simply finds the entry already present and drops its
copy (idempotent puts).

Checksums make corruption *detectable* rather than merely unlikely: a
mismatching entry is quarantined to ``<file>.corrupt`` (``.corrupt.1``,
``.corrupt.2``, ... when earlier evidence is already there) and treated
as a miss, never parsed into a half-trusted result.  Entries tolerate
schema drift: unknown keys are dropped and missing optional fields take
their defaults (:func:`rehydrate_cell`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from hashlib import sha256
from pathlib import Path

from repro.experiments.runner import CellResult, validate_cell
from repro.obs import get_logger
from repro.sentinel.digest import canonical_fingerprint

__all__ = [
    "CellCache",
    "SnapshotStore",
    "atomic_write_json",
    "read_checked_json",
    "fsync_dir",
    "rehydrate_cell",
]

_LOG = get_logger("experiments.cellcache")

CACHE_ENTRY_SCHEMA = 1
_SNAPSHOT_MAGIC = b"repro-snapshot/1 "

_CELL_FIELDS = {field.name: field for field in dataclasses.fields(CellResult)}
_CELL_REQUIRED = frozenset(
    name for name, field in _CELL_FIELDS.items()
    if field.default is dataclasses.MISSING
    and field.default_factory is dataclasses.MISSING
)


def rehydrate_cell(raw: object) -> CellResult | None:
    """Build a CellResult from one stored record, tolerating schema drift.

    Unknown keys (written by a newer version) are dropped; missing keys
    with dataclass defaults (written by an older version) are defaulted.
    A record missing a *required* field, or otherwise malformed, returns
    None — the caller treats it as a cache miss and recomputes.
    """
    if not isinstance(raw, dict):
        return None
    known = {key: value for key, value in raw.items() if key in _CELL_FIELDS}
    if not _CELL_REQUIRED <= known.keys():
        return None
    try:
        cell = CellResult(**known)
    except (TypeError, ValueError):
        return None
    return cell if validate_cell(cell) is None else None


def fsync_dir(path: str | os.PathLike) -> None:
    """Flush a directory entry to stable storage, best-effort.

    Needed after ``os.replace`` for the *name* to survive power loss
    (the file's bytes alone are not enough).  Platforms that refuse to
    open or fsync directories (Windows, some network filesystems) are
    tolerated silently — durability degrades to the ``os.replace``
    atomicity guarantee there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically and durably."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    fd = os.open(tmp_path, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    os.replace(tmp_path, path)
    fsync_dir(path.parent)


def atomic_write_json(path: str | Path, payload) -> None:
    """Atomically persist ``{"checksum": ..., "payload": ...}`` at ``path``.

    The one sanctioned way for cache/journal writers under
    ``experiments/`` to put JSON on disk (the ``contract-atomic-write``
    lint rule flags bare ``open(..., "w")`` + ``json.dump``): write to a
    pid-unique temp file, fsync it, ``os.replace`` into place, fsync the
    directory.  The checksum covers the canonical payload so
    :func:`read_checked_json` can reject torn or hand-edited files.
    """
    document = {
        "schema": CACHE_ENTRY_SCHEMA,
        "checksum": canonical_fingerprint(payload),
        "payload": payload,
    }
    _atomic_write_bytes(
        Path(path), json.dumps(document, sort_keys=True).encode("utf-8")
    )


def _claim_backup(path: Path) -> Path:
    """Reserve a fresh ``.corrupt`` name next to ``path`` atomically.

    ``O_CREAT | O_EXCL`` claims the name in the same step that checks
    it, so a second corruption of the same file (or two processes
    quarantining at once) takes ``.corrupt.1``, ``.corrupt.2``, ...
    and never overwrites earlier evidence.
    """
    candidate = path.with_name(path.name + ".corrupt")
    suffix = 0
    while True:
        try:
            os.close(os.open(candidate, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return candidate
        except FileExistsError:
            suffix += 1
            candidate = path.with_name(f"{path.name}.corrupt.{suffix}")


def _quarantine(path: Path, reason: str) -> None:
    """Move a bad file aside so it is preserved but never re-read."""
    try:
        backup = _claim_backup(path)
    except OSError:
        return
    try:
        os.replace(path, backup)
    except OSError:
        try:
            os.unlink(backup)
        except OSError:
            pass
        return
    _LOG.warning("quarantined corrupt cache file %s (%s) to %s",
                 path, reason, backup)


def read_checked_json(path: str | Path):
    """Load a checksummed document; return its payload or None.

    None means "treat as a miss": missing file, unreadable JSON, wrong
    shape, or checksum mismatch.  Corrupt files are quarantined to
    ``<name>.corrupt`` so evidence survives and the miss is permanent
    rather than retried every lookup.
    """
    target = Path(path)
    try:
        raw = target.read_bytes()
    except OSError:
        return None
    try:
        document = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        _quarantine(target, "invalid JSON")
        return None
    if not isinstance(document, dict) or "payload" not in document:
        _quarantine(target, "not a checksummed document")
        return None
    payload = document["payload"]
    if document.get("checksum") != canonical_fingerprint(payload):
        _quarantine(target, "checksum mismatch")
        return None
    return payload


class CellCache:
    """Directory-backed, content-addressed cache of cell results.

    Keys are the full sha256 digests of
    :func:`repro.experiments.content.cell_digest`; the cache itself is
    key-agnostic — it stores and retrieves by digest and never needs the
    workload or config objects.  All mutation is idempotent: a second
    ``put`` of a digest already present is a no-op, which is what lets
    leases be advisory (duplicate execution wastes time, never
    correctness).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.snapshots_dir = self.root / "snapshots"
        self.leases_dir = self.root / "leases"
        for directory in (self.root, self.cells_dir,
                          self.snapshots_dir, self.leases_dir):
            directory.mkdir(parents=True, exist_ok=True)

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    def _cell_path(self, digest: str) -> Path:
        return self.cells_dir / digest[:2] / f"{digest}.json"

    # -- results --------------------------------------------------------
    def get(self, digest: str) -> CellResult | None:
        payload = read_checked_json(self._cell_path(digest))
        if not isinstance(payload, dict):
            return None
        return rehydrate_cell(payload.get("cell"))

    def contains(self, digest: str) -> bool:
        return self._cell_path(digest).exists()

    def put(self, digest: str, cell: CellResult, meta: dict | None = None) -> bool:
        """Record ``cell`` under ``digest``; False when already present."""
        problem = validate_cell(cell)
        if problem is not None:
            raise ValueError(
                f"refusing to cache invalid cell result for {digest[:12]}: "
                f"{problem}"
            )
        path = self._cell_path(digest)
        if path.exists():
            return False
        payload = {"cell": dataclasses.asdict(cell), "meta": meta or {}}
        atomic_write_json(path, payload)
        return True

    def digests(self) -> list[str]:
        """All completed digests on disk, sorted."""
        found = []
        for entry in self.cells_dir.glob("*/*.json"):
            found.append(entry.stem)
        return sorted(found)

    def __len__(self) -> int:
        return sum(1 for _ in self.cells_dir.glob("*/*.json"))


class SnapshotStore:
    """Memoized warm-up snapshots: pickled mid-run engine state.

    A snapshot file is ``magic + sha256(pickle) + newline + pickle``,
    written atomically; a truncated or bit-flipped snapshot fails the
    checksum and reads as a miss (the warm-up is then re-simulated — a
    snapshot is always an optimization, never a source of truth).

    ``hits``/``writes``/``skips`` counters accumulate per instance so
    the scheduler can report snapshot savings even when the run itself
    has observability disabled (required for snapshot *use*: pickled
    engines carry no live tracer handles).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.writes = 0
        self.skips = 0

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def load(self, digest: str):
        """The pickled (frontend, run-state) pair, or None on any defect."""
        path = self._path(digest)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if not raw.startswith(_SNAPSHOT_MAGIC):
            _quarantine(path, "bad snapshot magic")
            return None
        header_end = raw.find(b"\n", len(_SNAPSHOT_MAGIC))
        if header_end < 0:
            _quarantine(path, "truncated snapshot header")
            return None
        checksum = raw[len(_SNAPSHOT_MAGIC):header_end].decode("ascii", "replace")
        body = raw[header_end + 1:]
        if sha256(body).hexdigest() != checksum:
            _quarantine(path, "snapshot checksum mismatch")
            return None
        try:
            state = pickle.loads(body)
        except Exception:
            _quarantine(path, "unpicklable snapshot body")
            return None
        self.hits += 1
        return state

    def save(self, digest: str, state) -> bool:
        """Persist ``state``; False when present or unpicklable."""
        path = self._path(digest)
        if path.exists():
            return False
        try:
            body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:
            # Engine state with an unpicklable member (e.g. an exotic
            # policy holding a lambda) silently skips memoization.
            _LOG.info("warm-up snapshot for %s not picklable (%s); skipping",
                      digest[:12], error)
            self.skips += 1
            return False
        header = _SNAPSHOT_MAGIC + sha256(body).hexdigest().encode("ascii") + b"\n"
        _atomic_write_bytes(path, header + body)
        self.writes += 1
        return True
