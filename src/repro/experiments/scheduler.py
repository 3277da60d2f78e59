"""Crash-safe sharded sweep scheduler over a content-addressed cache.

This is the one cached, resumable, parallel and fault-tolerant sweep
path (plain in-memory sweeps use the serial
:func:`~repro.experiments.runner.run_grid`).  Its unit of work is a
**content-addressed cell**: every (workload, policy,
config) slot is keyed by its canonical sha256 digest
(:func:`~repro.experiments.content.cell_digest`), and all robustness
properties follow from that identity:

- **idempotent submissions** — a digest already in the
  :class:`~repro.experiments.cellcache.CellCache` is a hit, never
  recomputed; re-running an identical sweep against a warm cache
  performs zero simulations;
- **deduplication** — slots with equal digests collapse to one unit of
  work before anything is dispatched (``scheduler.deduped_cells``);
- **sharding** — shard K of N owns exactly the digests with
  ``int(digest, 16) % N == K``, so concurrent runners partition a sweep
  with no coordination beyond the shared cache directory;
- **crash safety** — every state transition is journaled write-ahead
  (:class:`~repro.experiments.journal.CellJournal`) and every result
  write is atomic and durable, so ``kill -9`` of the scheduler or any
  worker at any instant loses at most the in-flight cells; a restart
  replays the journal, recovers per-cell attempt budgets (making
  :class:`~repro.experiments.supervisor.RetryPolicy` survivable across
  processes), reclaims orphaned leases, and resumes bit-identically
  (asserted by ``tests/test_scheduler.py`` via
  :func:`~repro.experiments.content.grid_signature`);
- **warm-up memoization** — cells sharing a warm-up prefix replay only
  their measurement windows (:mod:`repro.experiments.snapshots`).

One attempt loop runs every owned cell that missed the cache: it
claims the cell's lease when it first dispatches it, validates each
finished attempt, journals the verdict (``attempt_ok`` or
``attempt_failed``), writes a success to the cache, re-queues a failure
with its :class:`~repro.experiments.supervisor.RetryPolicy` backoff, and
degrades a cell that exhausts the budget to a
:class:`~repro.experiments.runner.FailedCell`.  Its counters are
``scheduler.*`` whichever executor runs the attempts: *inline* (this
process, serially — the facade and job-service path) or the
*supervised* worker pool (pass a
:class:`~repro.experiments.supervisor.SupervisorConfig` for parallelism,
crash isolation and per-cell timeouts — the ``repro-sim grid`` path).
"""

from __future__ import annotations

import functools
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

from repro.experiments.cellcache import CellCache, SnapshotStore
from repro.experiments.content import cell_digest, grid_signature, shard_of
from repro.experiments.faults import FaultPlan
from repro.experiments.journal import CellJournal, LeaseManager
from repro.experiments.runner import (
    CellResult,
    FailedCell,
    GridResult,
    validate_cell,
)
from repro.experiments.snapshots import NOTE_HIT, NOTE_WRITE
from repro.experiments.supervisor import (
    Attempt,
    RetryPolicy,
    SupervisorConfig,
    _InlineExecutor,
    _WorkerPool,
    run_attempt,
)
from repro.frontend.config import FrontEndConfig
from repro.obs import NULL_OBS, Observability, get_logger
from repro.workloads.suite import Workload

__all__ = [
    "SchedulerConfig",
    "SweepScheduler",
    "SweepStats",
    "parse_shard",
    "grid_signature",
]

_LOG = get_logger("experiments.scheduler")


def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"K/N"`` into a validated ``(K, N)`` pair (K is 0-based)."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like K/N (e.g. 0/4), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard index must satisfy 0 <= K < N, got {index}/{count}"
        )
    return index, count


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    """Knobs of the content-addressed scheduler.

    ``shard=(K, N)`` makes this run own only the cells whose digest maps
    to shard K of N; everything else is still served from cache when
    available, but never computed here.  ``lease_expiry_seconds`` is how
    long a crashed owner's claim survives before any other runner may
    break it (same-host dead pids are reclaimed immediately);
    ``heartbeat_interval_seconds`` is how often a live run refreshes its
    claims.  ``snapshots=False`` disables warm-up memoization.
    """

    lease_expiry_seconds: float = 60.0
    heartbeat_interval_seconds: float = 5.0
    snapshots: bool = True
    shard: tuple[int, int] | None = None
    owner: str | None = None

    def __post_init__(self) -> None:
        if self.lease_expiry_seconds <= 0:
            raise ValueError("lease_expiry_seconds must be positive")
        if self.heartbeat_interval_seconds <= 0:
            raise ValueError("heartbeat_interval_seconds must be positive")
        if self.shard is not None:
            index, count = self.shard
            if count < 1 or not 0 <= index < count:
                raise ValueError(
                    f"shard index must satisfy 0 <= K < N, got {index}/{count}"
                )


@dataclass(slots=True)
class SweepStats:
    """What one scheduler run did, for CLI summaries and the bench ledger."""

    planned: int = 0          # requested slots (incl. duplicates)
    deduped: int = 0          # slots collapsed into an earlier digest
    other_shard: int = 0      # unique cells owned by a different shard
    cache_hits: int = 0       # unique cells served from the cache
    cache_misses: int = 0     # unique owned cells that needed computing
    computed: int = 0         # cells simulated to completion this run
    failed: int = 0           # cells that exhausted their retry budget
    lease_conflicts: int = 0  # claims lost to another live owner
    leases_recovered: int = 0 # orphaned leases broken and reclaimed
    snapshot_hits: int = 0    # cells resumed from a warm-up snapshot
    snapshot_writes: int = 0  # warm-up snapshots persisted for successors

    @property
    def hit_rate(self) -> float:
        """Fraction of unique owned cells served without simulation."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        out["hit_rate"] = round(self.hit_rate, 4)
        return out


@dataclass(slots=True)
class _Cell:
    """One planned slot: request position, content identity, and — once
    owned and missing from the cache — its attempt state and outcome."""

    slot: int
    workload: Workload
    policy: str
    digest: str
    duplicate_of: int | None = None  # slot of the identical primary cell
    owned: bool = True               # False: another shard computes this
    attempt: int = 0                 # 0-based attempt about to run / running
    ready_at: float = 0.0            # earliest dispatch time (backoff)
    elapsed: float = 0.0             # summed wall time of finished attempts
    result: CellResult | None = None
    failure: FailedCell | None = None

    @property
    def key(self) -> str:
        return f"{self.policy}/{self.workload.name}"


class SweepScheduler:
    """Plan, claim, execute, and cache a (policy, workload) sweep.

    One scheduler instance wraps one cache directory; :meth:`run` may be
    called repeatedly (warm runs are pure cache reads).  Everything
    nondeterministic about scheduling — leases, heartbeats, retries —
    is invisible in the output: the grid is assembled in request order
    and each cell's bytes depend only on its digest.

    ``clock`` must be a wall clock (leases compare expiry times across
    processes); ``monotonic`` paces heartbeats and measures elapsed
    time (NTP-step immune); ``sleep`` is injectable so retry/backoff
    tests run without real delays.  All three default to real time and
    are overridden together by the job service's
    :class:`~repro.service.clock.ServiceClock`.
    """

    def __init__(
        self,
        cache: CellCache | str | Path,
        config: FrontEndConfig | None = None,
        *,
        scheduler: SchedulerConfig | None = None,
        retry: RetryPolicy | None = None,
        supervisor: SupervisorConfig | None = None,
        fault_plan: FaultPlan | None = None,
        obs: Observability = NULL_OBS,
        engine: str = "reference",
        verify: str = "off",
        telemetry=None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cache = cache if isinstance(cache, CellCache) else CellCache(cache)
        self.config = config or FrontEndConfig()
        self.sched = scheduler or SchedulerConfig()
        self.supervisor = supervisor
        self.retry = retry or RetryPolicy()
        self.fault_plan = fault_plan
        self.obs = obs
        self.engine = engine
        self.verify = verify
        self.telemetry = telemetry
        self.clock = clock
        self.sleep = sleep
        self.monotonic = monotonic
        self.journal = CellJournal(self.cache.journal_path)
        self.leases = LeaseManager(
            self.cache.leases_dir,
            owner=self.sched.owner,
            expiry_seconds=self.sched.lease_expiry_seconds,
            clock=clock,
        )
        self.snapshots = (
            SnapshotStore(self.cache.snapshots_dir) if self.sched.snapshots else None
        )
        self.stats = SweepStats()
        self._last_heartbeat = 0.0

    # -- planning -------------------------------------------------------
    def plan(
        self, workloads: Sequence[Workload], policies: Sequence[str]
    ) -> list[_Cell]:
        """Resolve every slot to a content digest; dedupe and shard."""
        cells: list[_Cell] = []
        by_digest: dict[str, _Cell] = {}
        shard = self.sched.shard
        for slot, (workload, policy) in enumerate(
            (w, p) for w in workloads for p in policies
        ):
            digest = cell_digest(workload, policy, self.config)
            cell = _Cell(slot=slot, workload=workload, policy=policy, digest=digest)
            primary = by_digest.get(digest)
            if primary is not None:
                cell.duplicate_of = primary.slot
                self.stats.deduped += 1
                self.obs.inc("scheduler.deduped_cells")
            else:
                by_digest[digest] = cell
                if shard is not None and shard_of(digest, shard[1]) != shard[0]:
                    cell.owned = False
                    self.stats.other_shard += 1
            cells.append(cell)
        self.stats.planned += len(cells)
        return cells

    # -- lease heartbeats ----------------------------------------------
    def _maybe_heartbeat(self) -> None:
        # Pacing runs on the monotonic clock (an NTP step must neither
        # fire nor starve a heartbeat); the lease expiry stamp written
        # by heartbeat() stays on the manager's wall clock, which is
        # what other processes compare against.
        now = self.monotonic()
        if now - self._last_heartbeat >= self.sched.heartbeat_interval_seconds:
            self.leases.heartbeat()
            self._last_heartbeat = now
            self.obs.inc("scheduler.heartbeats")

    # -- execution ------------------------------------------------------
    def run(
        self,
        workloads: Workload | Sequence[Workload],
        policies: Sequence[str],
        *,
        progress: Callable[[CellResult], None] | None = None,
    ) -> GridResult:
        """Run the sweep; returns the request-ordered :class:`GridResult`.

        Cells already cached are hits (zero simulation); the rest are
        claimed, executed (inline or supervised), journaled, and written
        back to the cache.  Cells owned by other shards or leased by
        live concurrent runners are left out of this run's grid — rerun
        against the shared cache once every shard finishes to assemble
        the full grid from hits alone.
        """
        if isinstance(workloads, Workload):
            workloads = (workloads,)
        cells = self.plan(workloads, policies)
        journal_state = self.journal.replay()
        pending: list[_Cell] = []

        for cell in cells:
            if cell.duplicate_of is not None or not cell.owned:
                continue
            hit = self.cache.get(cell.digest)
            if hit is not None:
                problem = validate_cell(hit, cell.policy, cell.workload.name)
                if problem is None:
                    cell.result = hit
                    self.stats.cache_hits += 1
                    self.obs.inc("scheduler.cache_hits")
                    self.journal.append("cache_hit", cell.digest)
                    if progress is not None:
                        progress(hit)
                    continue
                # A digest collision or foreign entry: impossible in
                # practice, but never serve a result pinned to the wrong
                # cell — recompute instead.
                _LOG.warning(
                    "cache entry %s failed identity check (%s); recomputing",
                    cell.digest[:12], problem,
                )
            self.stats.cache_misses += 1
            self.obs.inc("scheduler.cache_misses")
            # Attempts already burned before a crash count against the
            # retry budget: the journal, not process memory, is the
            # authority on how many tries this digest has had.
            cell.attempt = journal_state.attempts.get(cell.digest, 0)
            pending.append(cell)

        if pending:
            self._execute(pending, progress)
        self.leases.release_all()
        self.stats.lease_conflicts = self.leases.conflicts
        self.stats.leases_recovered = self.leases.recovered
        if self.leases.recovered:
            self.obs.inc("scheduler.leases_recovered", self.leases.recovered)

        grid = GridResult()
        for cell in cells:
            if cell.result is not None:
                grid.add(cell.result)
            elif cell.failure is not None:
                grid.add_failure(cell.failure)
        return grid

    def _executor(self):
        attempt = functools.partial(
            run_attempt, config=self.config, snapshots=self.snapshots,
            fault_plan=self.fault_plan, engine=self.engine,
            verify=self.verify, telemetry=self.telemetry,
        )
        if self.supervisor is None:
            return _InlineExecutor(attempt, self.obs, self.monotonic)
        return _WorkerPool(self.supervisor, attempt, self.obs, self.monotonic)

    def _execute(self, pending: list[_Cell], progress) -> None:
        """The one attempt loop, over either executor.

        A failed attempt re-enters the queue with its backoff
        ``ready_at``; the loop sleeps only when nothing is ready or in
        flight.
        """
        queue = deque(pending)
        executor = self._executor()
        try:
            with self.obs.span("scheduled_sweep"):
                while queue or executor.busy:
                    self._maybe_heartbeat()
                    now = self.monotonic()
                    # Dispatch in queue order, keeping the order of cells
                    # still backing off.  A cell's lease is claimed when
                    # it is first dispatched and held across its retries.
                    for _ in range(len(queue)):
                        if not executor.idle:
                            break
                        cell = queue.popleft()
                        if cell.ready_at > now:
                            queue.append(cell)
                        elif cell.digest in self.leases.held or self._claim(cell):
                            executor.submit(cell, now)
                    if executor.busy:
                        until = min(
                            (c.ready_at for c in queue if c.ready_at > now),
                            default=None,
                        )
                        for cell, outcome in executor.collect(until):
                            if self._settle(cell, outcome, progress):
                                queue.append(cell)
                    elif queue:
                        # Everything runnable is backing off; idle until
                        # the earliest retry is due.
                        self.sleep(min(c.ready_at for c in queue) - now)
        finally:
            executor.close()

    def _claim(self, cell: _Cell) -> bool:
        lease = self.leases.claim(cell.digest)
        if lease is None:
            self.obs.inc("scheduler.lease_conflicts")
            _LOG.info(
                "cell %s is leased by another runner; skipping", cell.key,
            )
            return False
        self.obs.inc("scheduler.leases_acquired")
        self.journal.append("claimed", cell.digest, owner=self.leases.owner,
                            policy=cell.policy, workload=cell.workload.name)
        return True

    def _settle(self, cell: _Cell, outcome: Attempt, progress) -> bool:
        """Validate, cache, retry or fail one finished attempt.

        Returns True when the cell goes back in the queue for a retry.
        """
        cell.elapsed += outcome.seconds
        if outcome.kind is None:
            problem = validate_cell(outcome.result, cell.policy, cell.workload.name)
            if problem is None:
                # Every attempt's verdict is journaled before it is acted
                # on; for a success that is the write-ahead record of the
                # cache write (``computed`` commits it).
                self.journal.append("attempt_ok", cell.digest,
                                    attempt=cell.attempt)
                self._finish(cell, outcome.result, outcome.note)
                if progress is not None:
                    progress(outcome.result)
                return False
            outcome = Attempt(kind="garbage", error_type="GarbageResult",
                              message=problem)
        kind = outcome.kind
        self.obs.inc(f"scheduler.attempts_{kind}")
        self.journal.append("attempt_failed", cell.digest, attempt=cell.attempt,
                            kind=kind, error=outcome.error_type)
        if cell.attempt < self.retry.max_retries:
            delay = self.retry.backoff_seconds(
                cell.policy, cell.workload.name, cell.attempt
            )
            self.obs.inc("scheduler.retries")
            self.obs.event("cell_retry", cell=cell.key, attempt=cell.attempt,
                           failure=kind, error=outcome.error_type,
                           backoff_seconds=delay)
            _LOG.warning(
                "cell %s attempt %d failed (%s: %s); retrying in %.2fs",
                cell.key, cell.attempt, outcome.error_type, outcome.message,
                delay,
            )
            cell.attempt += 1
            cell.ready_at = self.monotonic() + delay
            return True
        cell.failure = FailedCell(
            policy=cell.policy,
            workload=cell.workload.name,
            kind=kind,
            error_type=outcome.error_type,
            message=outcome.message,
            attempts=cell.attempt + 1,
            elapsed_seconds=cell.elapsed,
            bundle_path=outcome.bundle_path,
        )
        self.stats.failed += 1
        self.obs.inc("scheduler.cells_failed")
        self.obs.event("cell_failed", cell=cell.key, failure=kind,
                       error=outcome.error_type, attempts=cell.attempt + 1,
                       bundle=outcome.bundle_path)
        self.journal.append("failed", cell.digest, attempts=cell.attempt + 1,
                            kind=kind)
        self.leases.release(cell.digest)
        self.obs.inc("scheduler.leases_released")
        _LOG.error("cell %s failed permanently: %s", cell.key,
                   cell.failure.summary_line())
        return False

    def _finish(self, cell: _Cell, result: CellResult, note: str | None) -> None:
        self.cache.put(cell.digest, result, meta={
            "policy": cell.policy,
            "workload": cell.workload.name,
            "owner": self.leases.owner,
            "snapshot": note,
        })
        self.journal.append("computed", cell.digest, attempt=cell.attempt)
        self.leases.release(cell.digest)
        self.obs.inc("scheduler.leases_released")
        cell.result = result
        self.stats.computed += 1
        self.obs.inc("scheduler.cells_computed")
        if note == NOTE_HIT:
            self.stats.snapshot_hits += 1
            self.obs.inc("scheduler.snapshot_hits")
        elif note == NOTE_WRITE:
            self.stats.snapshot_writes += 1
            self.obs.inc("scheduler.snapshot_writes")
