"""Write-ahead cell journal and lease-based work claiming.

Two durability primitives behind the sweep scheduler:

:class:`CellJournal` — an append-only JSONL log of every scheduling
decision (``claimed``, ``attempt_ok``, ``computed``, ``attempt_failed``,
``failed``, ``cache_hit``).  Each line carries a checksum of its own
payload, so a torn tail write (the only corruption an append-only file
can suffer from a crash) is detected and skipped instead of poisoning
the replay, and the next append starts a fresh line after it.
Replaying the journal after a ``kill -9`` recovers per-digest attempt
counts — which is what makes ``RetryPolicy`` budgets survivable across
process restarts — and the set of digests completed before the crash
(the crash-resume tests assert none of those are ever recomputed).

:class:`LeaseManager` — advisory work claims, one file per digest under
``leases/``.  A claim is atomic via the ``O_CREAT | O_EXCL`` idiom (the
same one the result store uses for quarantine paths): creating the
lease file *is* winning it, no probe-then-create race.  Leases carry an
owner id and an expiry; a scheduler heartbeats its live leases by
atomically rewriting them.  An *orphan* lease — expired heartbeat, or
same-host owner whose pid is gone — may be broken: unlink then re-claim
with ``O_EXCL``, so of N concurrent breakers exactly one wins the
re-create.  Leases are an optimization, never a correctness mechanism:
the cell cache is content-addressed and idempotent, so the worst
outcome of a lost lease race is one duplicate simulation whose result
bytes are identical anyway.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.obs import get_logger
from repro.sentinel.digest import canonical_fingerprint

__all__ = ["CellJournal", "JournalState", "Lease", "LeaseManager", "owner_id"]

_LOG = get_logger("experiments.journal")

JOURNAL_SCHEMA = 1


def owner_id() -> str:
    """A lease owner identity: host, pid, and a per-process nonce."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class JournalState:
    """What a journal replay recovers after a restart."""

    #: digest -> failed attempts so far (0-based next attempt number).
    attempts: dict[str, int]
    #: digests whose results were computed and durably cached.
    computed: set[str]
    #: digests that exhausted their retry budget terminally.
    failed: set[str]
    #: total events replayed (diagnostics).
    events: int


def _ends_midline(path: Path) -> bool:
    """Whether ``path`` exists and its last byte is not a newline."""
    try:
        with open(path, "rb") as handle:
            if handle.seek(0, os.SEEK_END) == 0:
                return False
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except FileNotFoundError:
        return False


class CellJournal:
    """Append-only, checksummed JSONL journal of cell scheduling events.

    Appends are flushed and fsynced line-by-line: an event is either
    durably in the journal or absent — there is no "maybe logged" state
    for the replay to misread.  The file is opened lazily and kept open
    for the scheduler's lifetime.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = None
        self._midline = False

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def append(self, event: str, digest: str, **fields) -> None:
        """Durably append one event line."""
        self.write({"event": event, "digest": digest, **fields})

    def write(self, payload: dict, *, tear: bool = False) -> None:
        """Durably append one checksummed line carrying ``payload``.

        Every line starts on a line of its own: when the file (or this
        handle's last write) ends mid-line — a torn tail — a newline goes
        first, so the fragment stays one skippable line and never swallows
        the event written after it.  ``tear`` writes only the first half
        of the line (the fault drill for a crash mid-append).
        """
        line = {
            "schema": JOURNAL_SCHEMA,
            "checksum": canonical_fingerprint(payload, length=16),
            **payload,
        }
        text = json.dumps(line, sort_keys=True) + "\n"
        if tear:
            text = text[: max(1, len(text) // 2)]
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._midline = _ends_midline(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")
        if self._midline:
            text = "\n" + text
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._midline = not text.endswith("\n")

    @staticmethod
    def read(path: str | Path) -> list[dict]:
        """All intact events, oldest first; torn/corrupt lines skipped."""
        target = Path(path)
        if not target.exists():
            return []
        events = []
        skipped = 0
        for raw in target.read_text(encoding="utf-8", errors="replace").splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(line, dict) or "event" not in line:
                skipped += 1
                continue
            checksum = line.pop("checksum", None)
            payload = {k: v for k, v in line.items() if k != "schema"}
            if checksum != canonical_fingerprint(payload, length=16):
                skipped += 1
                continue
            events.append(payload)
        if skipped:
            _LOG.warning(
                "journal %s: skipped %d torn or corrupt line(s) during replay",
                target, skipped,
            )
        return events

    def replay(self) -> JournalState:
        """Fold the on-disk events into a :class:`JournalState`."""
        attempts: dict[str, int] = {}
        computed: set[str] = set()
        failed: set[str] = set()
        events = self.read(self.path)
        for event in events:
            digest = event.get("digest")
            if not isinstance(digest, str):
                continue
            kind = event["event"]
            if kind == "attempt_failed":
                attempts[digest] = max(
                    attempts.get(digest, 0), int(event.get("attempt", 0)) + 1
                )
            elif kind == "computed":
                computed.add(digest)
                failed.discard(digest)
            elif kind == "failed":
                failed.add(digest)
        return JournalState(
            attempts=attempts, computed=computed, failed=failed,
            events=len(events),
        )


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Lease:
    """One held work claim (returned by :meth:`LeaseManager.claim`)."""

    digest: str
    owner: str
    acquired_at: float
    heartbeat_at: float
    expires_at: float


class LeaseManager:
    """File-per-digest advisory work claims with heartbeat expiry.

    ``clock`` must be a wall clock (the default): expiry times are
    compared across processes, possibly across machines sharing a
    filesystem, where a monotonic clock has no shared zero.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        owner: str | None = None,
        expiry_seconds: float = 60.0,
        clock=time.time,
    ):
        if expiry_seconds <= 0:
            raise ValueError("expiry_seconds must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.owner = owner or owner_id()
        self.expiry_seconds = expiry_seconds
        self.clock = clock
        self.held: dict[str, Lease] = {}
        self.conflicts = 0
        self.recovered = 0

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.lease"

    def _write(self, lease: Lease) -> None:
        payload = {
            "digest": lease.digest,
            "owner": lease.owner,
            "acquired_at": lease.acquired_at,
            "heartbeat_at": lease.heartbeat_at,
            "expires_at": lease.expires_at,
            "host": socket.gethostname(),
            "pid": os.getpid(),
        }
        path = self._path(lease.digest)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        # Leases are advisory liveness hints with a TTL, not durable
        # state: a lease file torn by a crash parses as invalid, reads
        # as expired, and is reclaimed — an fsync per heartbeat would
        # buy nothing but latency on the scheduler hot path.
        os.replace(tmp, path)  # repro: allow(flow-fsync-order)

    def _read(self, digest: str) -> dict | None:
        try:
            raw = self._path(digest).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            # A torn lease write (crash mid-claim) reads as stale.
            return {}
        return payload if isinstance(payload, dict) else {}

    def _is_stale(self, payload: dict, now: float) -> bool:
        expires_at = payload.get("expires_at")
        if not isinstance(expires_at, (int, float)):
            return True  # unreadable/torn lease: claimable
        if now >= expires_at:
            return True
        # Same-host fast path: a dead pid cannot heartbeat; no need to
        # wait out the expiry window.
        if payload.get("host") == socket.gethostname():
            pid = payload.get("pid")
            if isinstance(pid, int) and pid > 0 and pid != os.getpid():
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    return True
                except OSError:
                    pass
        return False

    def claim(self, digest: str) -> Lease | None:
        """Try to claim ``digest``; None when another live owner holds it.

        A stale (expired or dead-owner) lease is broken: the orphan file
        is unlinked and the claim retried with ``O_CREAT | O_EXCL``, so
        concurrent breakers serialize on the atomic create.
        """
        now = self.clock()
        lease = Lease(
            digest=digest,
            owner=self.owner,
            acquired_at=now,
            heartbeat_at=now,
            expires_at=now + self.expiry_seconds,
        )
        path = self._path(digest)
        for attempt in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                existing = self._read(digest)
                if existing is None:
                    continue  # lease vanished under us; retry the create
                if existing.get("owner") == self.owner:
                    break  # re-entering our own claim (restart with same owner)
                if attempt > 0 or not self._is_stale(existing, now):
                    self.conflicts += 1
                    return None
                # Orphaned lease: break it and retry the atomic create.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                self.recovered += 1
                _LOG.warning(
                    "broke orphan lease for %s (owner %s)",
                    digest[:12], existing.get("owner"),
                )
            else:
                os.close(fd)
                break
        self._write(lease)
        self.held[digest] = lease
        return lease

    def heartbeat(self, now: float | None = None) -> None:
        """Refresh every held lease's expiry (call periodically)."""
        now = self.clock() if now is None else now
        for lease in self.held.values():
            lease.heartbeat_at = now
            lease.expires_at = now + self.expiry_seconds
            self._write(lease)

    def release(self, digest: str) -> None:
        """Drop our claim on ``digest`` (missing file tolerated)."""
        self.held.pop(digest, None)
        try:
            os.unlink(self._path(digest))
        except OSError:
            pass

    def release_all(self) -> None:
        for digest in list(self.held):
            self.release(digest)
