"""The supervised worker pool: the sweep scheduler's process executor.

:class:`~repro.experiments.scheduler.SweepScheduler` runs a sweep's cells
inline by default; given a :class:`SupervisorConfig` it hands them to
this module's supervisor, which runs each (policy, workload) cell in an
isolated worker process and provides:

- **parallelism** — up to ``workers`` cells in flight at once;
- **crash isolation** — a worker that dies (segfault, OOM kill,
  ``os._exit``) loses only its current cell; the pool is replenished;
- **per-cell timeouts** — a hung cell is killed at its deadline instead
  of wedging the sweep;
- **bounded retries** — failed attempts are re-queued with exponential
  backoff plus deterministic jitter (the :class:`RetryPolicy` is the
  scheduler's, so one budget governs both executors);
- **graceful degradation** — a cell that exhausts its retries becomes an
  explicit :class:`~repro.experiments.runner.FailedCell`, so reports
  render a partial grid with annotated gaps instead of aborting;
- **observability** — each worker's metrics snapshot and span tree merge
  back into the parent :class:`~repro.obs.Observability`, and the
  supervisor emits its own ``supervisor.*`` counters and retry/timeout
  events.

Caching, journaling, leases and resume belong to the scheduler, which
observes every success and failed attempt through the supervisor's
``sink`` / ``on_attempt_failed`` hooks.

Determinism: cell simulation is already a pure function of (workload,
policy, config), so worker isolation cannot change results, and the
scheduler assembles the grid in request order regardless of completion
order.  Backoff jitter is drawn from a
:class:`~repro.util.rng.DeterministicRng` seeded per (cell, attempt).
``clock``/``sleep`` are injectable so the test suite exercises every
recovery path without real sleeps (see ``repro.experiments.faults`` for
the matching fault-injection harness).
"""

from __future__ import annotations

import multiprocessing
import traceback
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait

from repro.experiments.faults import FaultPlan
from repro.experiments.runner import (
    CellResult,
    FailedCell,
    run_cell,
    validate_cell,
)
from repro.frontend.config import FrontEndConfig
from repro.obs import NULL_OBS, Observability, get_logger
from repro.util.rng import DeterministicRng, derive_seed
from repro.workloads.suite import Workload

__all__ = ["RetryPolicy", "SupervisorConfig"]

_LOG = get_logger("experiments.supervisor")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Attempt ``k`` (0-based) that fails waits
    ``min(base * factor**k, max) * (1 ± jitter)`` before re-queueing;
    after ``max_retries`` failed retries the cell degrades to a
    :class:`FailedCell`.  Jitter is a pure function of
    (seed, policy, workload, attempt), so a re-run schedules identically.
    """

    max_retries: int = 2
    backoff_base_seconds: float = 0.5
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 30.0
    jitter_fraction: float = 0.1
    seed: int = 0

    def backoff_seconds(self, policy: str, workload: str, attempt: int) -> float:
        """Delay before re-queueing after failed 0-based ``attempt``."""
        raw = min(
            self.backoff_base_seconds * self.backoff_factor ** attempt,
            self.backoff_max_seconds,
        )
        if not self.jitter_fraction:
            return raw
        rng = DeterministicRng(derive_seed(self.seed, policy, workload, attempt))
        return raw * (1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0))


@dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """Knobs of the supervised executor.

    ``cell_timeout_seconds=None`` disables the deadline kill.
    ``start_method`` picks the multiprocessing context (``"spawn"`` is
    safe everywhere; ``"fork"`` starts workers much faster on POSIX).
    The retry budget is not set here: it is the scheduler's ``retry``.
    """

    workers: int = 1
    cell_timeout_seconds: float | None = None
    poll_interval_seconds: float = 0.05
    start_method: str = "spawn"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.cell_timeout_seconds is not None and self.cell_timeout_seconds <= 0:
            raise ValueError("cell_timeout_seconds must be positive (or None)")


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker_main(conn: Connection) -> None:
    """Worker loop: receive tasks, run cells, report results.

    Runs in a child process.  Each task is
    ``(task_id, workload, policy, config, attempt, fault_plan, obs_on,
    engine, verify, telemetry, snapshot_dir)``; the reply is
    ``("ok", task_id, cell, obs_summary, snapshot_note)``
    or ``("error", task_id, error_type, message, traceback, obs_summary,
    bundle_path)`` — ``bundle_path`` being the sentinel's repro bundle for
    the failed attempt, when one was captured.  ``snapshot_dir`` (set by
    the content-addressed scheduler) enables warm-up memoization through
    a :class:`~repro.experiments.cellcache.SnapshotStore`;
    ``snapshot_note`` reports what the memoization did so the scheduler
    can count hits/writes even with worker observability disabled.  A
    ``None`` task (or a closed pipe) shuts the worker down.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        (task_id, workload, policy, config, attempt, fault_plan, obs_on,
         engine, verify, telemetry, snapshot_dir) = task
        obs = Observability() if obs_on else NULL_OBS
        try:
            if fault_plan is not None:
                fault_plan.before_cell(policy, workload.name, attempt)
            note = None
            if snapshot_dir is not None:
                from repro.experiments.cellcache import SnapshotStore
                from repro.experiments.snapshots import run_cell_snapshotted

                cell, note = run_cell_snapshotted(
                    workload, policy, config, SnapshotStore(snapshot_dir),
                    obs=obs, engine=engine, verify=verify, telemetry=telemetry,
                )
            else:
                cell = run_cell(
                    workload, policy, config, obs=obs, engine=engine,
                    verify=verify, telemetry=telemetry,
                )
            if fault_plan is not None:
                cell = fault_plan.mangle_result(policy, workload.name, attempt, cell)
            summary = obs.summary() if obs_on else None
            conn.send(("ok", task_id, cell, summary, note))
        except Exception as error:
            summary = obs.summary() if obs_on else None
            conn.send((
                "error",
                task_id,
                type(error).__name__,
                str(error),
                traceback.format_exc(),
                summary,
                getattr(error, "bundle_path", None),
            ))


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _Task:
    """One grid cell's scheduling state inside the supervisor."""

    slot: int                      # position in the request-order grid
    workload: Workload
    policy: str
    attempt: int = 0               # 0-based attempt about to run / running
    ready_at: float = 0.0          # earliest dispatch time (backoff)
    started_at: float = 0.0        # when the current attempt was dispatched
    elapsed: float = 0.0           # total time across finished attempts
    digest: str | None = None      # content address (journal/lease key)

    @property
    def key(self) -> str:
        return f"{self.policy}/{self.workload.name}"


class _Worker:
    """A live worker process plus its pipe and current assignment."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, context) -> None:
        parent_conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: _Task | None = None
        self.deadline: float | None = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    def assign(self, task: _Task, config: FrontEndConfig,
               fault_plan: FaultPlan | None, obs_on: bool,
               now: float, timeout: float | None,
               engine: str, verify: str, telemetry=None,
               snapshot_dir: str | None = None) -> None:
        task.started_at = now
        self.task = task
        self.deadline = None if timeout is None else now + timeout
        self.conn.send((
            task.slot, task.workload, task.policy, config,
            task.attempt, fault_plan, obs_on, engine, verify, telemetry,
            snapshot_dir,
        ))

    def kill(self) -> None:
        """Hard-stop the worker process and release its pipe."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(timeout=5.0)
        self.conn.close()

    def shutdown(self) -> None:
        """Ask the worker to exit; escalate to kill if it does not."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()


class _Supervisor:
    """Event loop owning the worker pool and the retry queue."""

    def __init__(
        self,
        config: FrontEndConfig,
        supervisor: SupervisorConfig,
        retry: RetryPolicy,
        fault_plan: FaultPlan | None,
        progress: Callable[[CellResult], None] | None,
        obs: Observability,
        clock: Callable[[], float],
        sleep: Callable[[float], None],
        engine: str = "reference",
        verify: str = "off",
        telemetry=None,
        sink: Callable[[_Task, CellResult, str | None], None] | None = None,
        tick: Callable[[float], None] | None = None,
        on_attempt_failed: Callable[[_Task, str, str, bool], None] | None = None,
        snapshot_dir: str | None = None,
    ) -> None:
        self.config = config
        self.sup = supervisor
        self.retry = retry
        self.fault_plan = fault_plan
        self.progress = progress
        self.obs = obs
        self.engine = engine
        self.verify = verify
        self.telemetry = telemetry
        self.clock = clock
        self.sleep = sleep
        # Scheduler hooks (all optional): ``sink`` receives
        # every validated success (with the worker's snapshot note),
        # ``tick`` fires once per event-loop iteration (lease
        # heartbeats), ``on_attempt_failed`` observes each failed
        # attempt before it is re-queued or degraded (the fourth
        # argument is whether a retry follows).  ``snapshot_dir``
        # propagates warm-up memoization into the workers.
        self.sink = sink
        self.tick = tick
        self.on_attempt_failed = on_attempt_failed
        self.snapshot_dir = snapshot_dir
        self.context = multiprocessing.get_context(supervisor.start_method)
        self.pending: deque[_Task] = deque()
        self.workers: list[_Worker] = []
        self.results: dict[int, CellResult] = {}
        self.failures: dict[int, FailedCell] = {}

    # -- pool management ------------------------------------------------
    def _outstanding(self) -> int:
        return len(self.pending) + sum(1 for w in self.workers if w.busy)

    def _replenish(self) -> None:
        target = min(self.sup.workers, max(self._outstanding(), 0))
        while len(self.workers) < target:
            self.workers.append(_Worker(self.context))
            self.obs.inc("supervisor.workers_started")

    def _retire(self, worker: _Worker) -> None:
        worker.kill()
        self.workers.remove(worker)

    # -- task lifecycle -------------------------------------------------
    def _dispatch_ready(self, now: float) -> None:
        idle = [w for w in self.workers if not w.busy]
        if not idle:
            return
        # Scan the queue once, preserving order of not-yet-ready tasks.
        for _ in range(len(self.pending)):
            if not idle:
                break
            task = self.pending.popleft()
            if task.ready_at > now:
                self.pending.append(task)
                continue
            worker = idle.pop()
            try:
                worker.assign(
                    task, self.config, self.fault_plan,
                    self.obs.enabled, now, self.sup.cell_timeout_seconds,
                    self.engine, self.verify, self.telemetry,
                    self.snapshot_dir,
                )
            except (BrokenPipeError, OSError):
                # The idle worker died before we could use it; replace it
                # and put the task back untouched (no attempt was spent).
                self._retire(worker)
                self.pending.appendleft(task)
                self._replenish()
                idle = [w for w in self.workers if not w.busy]

    def _record_success(
        self, task: _Task, cell: CellResult, note: str | None = None
    ) -> None:
        self.results[task.slot] = cell
        self.obs.inc("supervisor.cells_ok")
        if self.sink is not None:
            self.sink(task, cell, note)
        if self.progress is not None:
            self.progress(cell)

    def _record_attempt_failure(
        self, task: _Task, kind: str, error_type: str, message: str, now: float,
        bundle_path: str | None = None,
    ) -> None:
        """Re-queue with backoff, or degrade to a FailedCell."""
        task.elapsed += now - task.started_at
        self.obs.inc(f"supervisor.attempts_{kind}")
        will_retry = task.attempt < self.retry.max_retries
        if self.on_attempt_failed is not None:
            self.on_attempt_failed(task, kind, error_type, will_retry)
        if will_retry:
            delay = self.retry.backoff_seconds(
                task.policy, task.workload.name, task.attempt
            )
            self.obs.inc("supervisor.retries")
            self.obs.event(
                "cell_retry", cell=task.key, attempt=task.attempt,
                failure=kind, error=error_type, backoff_seconds=delay,
            )
            _LOG.warning(
                "cell %s attempt %d failed (%s: %s); retrying in %.2fs",
                task.key, task.attempt, error_type, message, delay,
            )
            task.attempt += 1
            task.ready_at = now + delay
            self.pending.append(task)
            return
        failure = FailedCell(
            policy=task.policy,
            workload=task.workload.name,
            kind=kind,
            error_type=error_type,
            message=message,
            attempts=task.attempt + 1,
            elapsed_seconds=task.elapsed,
            bundle_path=bundle_path,
        )
        self.failures[task.slot] = failure
        self.obs.inc("supervisor.cells_failed")
        self.obs.event(
            "cell_failed", cell=task.key, failure=kind,
            error=error_type, attempts=failure.attempts,
            bundle=bundle_path,
        )
        _LOG.error("cell %s failed permanently: %s", task.key,
                   failure.summary_line())

    # -- message handling -----------------------------------------------
    def _handle_message(self, worker: _Worker, now: float) -> None:
        task = worker.task
        assert task is not None
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._handle_crash(worker, now)
            return
        worker.task = None
        worker.deadline = None
        if message[0] == "ok":
            _, _, cell, summary, note = message
            if summary:
                self.obs.merge_child(summary, label=f"worker:{task.key}")
            problem = validate_cell(cell, task.policy, task.workload.name)
            if problem is not None:
                self.obs.inc("supervisor.garbage_results")
                self._record_attempt_failure(
                    task, "garbage", "GarbageResult", problem, now
                )
                return
            task.elapsed += now - task.started_at
            self._record_success(task, cell, note)
        else:
            _, _, error_type, error_message, trace, summary, bundle_path = message
            if summary:
                self.obs.merge_child(summary, label=f"worker:{task.key}")
            _LOG.debug("worker traceback for %s:\n%s", task.key, trace)
            self._record_attempt_failure(
                task, "error", error_type, error_message, now,
                bundle_path=bundle_path,
            )

    def _handle_crash(self, worker: _Worker, now: float) -> None:
        task = worker.task
        assert task is not None
        worker.process.join(timeout=5.0)
        exitcode = worker.process.exitcode
        self.obs.inc("supervisor.crashes")
        self.obs.event("worker_crash", cell=task.key, exitcode=exitcode)
        self._retire(worker)
        self._record_attempt_failure(
            task, "crash", "WorkerCrash",
            f"worker process died (exit code {exitcode}) while running "
            f"{task.key}", now,
        )

    def _handle_timeout(self, worker: _Worker, now: float) -> None:
        task = worker.task
        assert task is not None
        timeout = self.sup.cell_timeout_seconds
        self.obs.inc("supervisor.timeouts")
        self.obs.event("cell_timeout", cell=task.key, attempt=task.attempt,
                       timeout_seconds=timeout)
        self._retire(worker)
        self._record_attempt_failure(
            task, "timeout", "CellTimeout",
            f"cell exceeded the {timeout:g}s per-cell timeout and was killed",
            now,
        )

    # -- event loop -----------------------------------------------------
    def _wait_timeout(self, now: float) -> float:
        candidates = [self.sup.poll_interval_seconds]
        for worker in self.workers:
            if worker.busy and worker.deadline is not None:
                candidates.append(worker.deadline - now)
        for task in self.pending:
            if task.ready_at > now:
                candidates.append(task.ready_at - now)
        return max(0.0, min(candidates))

    def run(self, tasks: Sequence[_Task]) -> None:
        self.pending.extend(tasks)
        try:
            while self.pending or any(w.busy for w in self.workers):
                self._replenish()
                now = self.clock()
                if self.tick is not None:
                    self.tick(now)
                self._dispatch_ready(now)
                busy = [w for w in self.workers if w.busy]
                if busy:
                    ready = connection_wait(
                        [w.conn for w in busy], timeout=self._wait_timeout(now)
                    )
                    by_conn = {w.conn: w for w in busy}
                    now = self.clock()
                    for conn in ready:
                        self._handle_message(by_conn[conn], now)
                    for worker in list(self.workers):
                        if (worker.busy and worker.deadline is not None
                                and now >= worker.deadline):
                            self._handle_timeout(worker, now)
                elif self.pending:
                    # Everything runnable is backing off; idle until the
                    # earliest retry becomes ready (injectable for tests).
                    next_ready = min(task.ready_at for task in self.pending)
                    delay = next_ready - now
                    if delay > 0:
                        self.sleep(delay)
        finally:
            for worker in self.workers:
                if worker.busy:
                    worker.kill()
                else:
                    worker.shutdown()
            self.workers.clear()
