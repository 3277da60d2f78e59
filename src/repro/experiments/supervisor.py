"""Where one attempt of a sweep cell runs: this process, or a worker pool.

:class:`~repro.experiments.scheduler.SweepScheduler` owns the one
attempt loop — lease claim at dispatch, result validation, the cache
write, the journal, retries with :class:`RetryPolicy` backoff, and the
terminal :class:`~repro.experiments.runner.FailedCell`.  This module
supplies the two executors that loop drives, and they differ only in
where :func:`run_attempt` (the one attempt body) runs:

- :class:`_InlineExecutor` calls it in this process, serially;
- :class:`_WorkerPool` (given a :class:`SupervisorConfig`) calls it in
  :func:`_worker_main` child processes, and adds what only a process
  boundary can give: up to ``workers`` attempts in flight, crash
  isolation (a worker that dies — segfault, OOM kill, ``os._exit`` —
  loses only its attempt, reported as a ``crash``, and is replaced),
  and the per-cell timeout kill (reported as a ``timeout``).  Each
  worker's metrics snapshot and span tree merge back into the parent
  :class:`~repro.obs.Observability`; the pool's own counters are
  ``supervisor.crashes``, ``supervisor.timeouts`` and
  ``supervisor.workers_started``.

Determinism: cell simulation is a pure function of (workload, policy,
config), so worker isolation cannot change results, and the scheduler
assembles the grid in request order regardless of completion order.
Backoff jitter is drawn from a :class:`~repro.util.rng.DeterministicRng`
seeded per (cell, attempt).  The scheduler's ``monotonic``/``sleep``
are injectable, so the test suite exercises every recovery path without
real sleeps (see ``repro.experiments.faults`` for the matching
fault-injection harness).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait

from repro.experiments.faults import FaultPlan
from repro.experiments.runner import CellResult
from repro.experiments.snapshots import run_cell_snapshotted
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
# One attempt
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Attempt:
    """What one attempt of one cell came to.

    ``kind`` is None when the attempt ran to completion (``result`` may
    still fail validation), else ``"error"``, ``"crash"`` or
    ``"timeout"``.  ``seconds`` is the attempt's wall time, stamped by
    the executor on the scheduler's clock.
    """

    result: CellResult | None = None
    note: str | None = None
    kind: str | None = None
    error_type: str = ""
    message: str = ""
    bundle_path: str | None = None
    seconds: float = 0.0


def run_attempt(
    workload: Workload,
    policy: str,
    attempt: int,
    *,
    config,
    snapshots=None,
    fault_plan: FaultPlan | None = None,
    obs: Observability = NULL_OBS,
    engine: str = "reference",
    verify: str = "off",
    telemetry=None,
) -> Attempt:
    """The one attempt body: injected fault, simulation, injected mangling.

    Both executors run exactly this (the pool through a pickled
    ``functools.partial`` of it), so a fault plan, warm-up memoization
    and every error reach the scheduler the same way from either.
    """
    try:
        if fault_plan is not None:
            fault_plan.before_cell(policy, workload.name, attempt)
        result, note = run_cell_snapshotted(
            workload, policy, config, snapshots,
            obs=obs, engine=engine, verify=verify, telemetry=telemetry,
        )
        if fault_plan is not None:
            result = fault_plan.mangle_result(policy, workload.name, attempt, result)
    except Exception as error:
        _LOG.debug("attempt %d of %s/%s raised", attempt, policy,
                   workload.name, exc_info=True)
        return Attempt(
            kind="error", error_type=type(error).__name__, message=str(error),
            bundle_path=getattr(error, "bundle_path", None),
        )
    return Attempt(result=result, note=note)


class _InlineExecutor:
    """Runs each attempt in this process, to completion, as it is submitted."""

    def __init__(self, attempt, obs: Observability, clock) -> None:
        self.attempt = attempt
        self.obs = obs
        self.clock = clock
        self.done: list = []

    @property
    def idle(self) -> int:
        return 0 if self.done else 1

    @property
    def busy(self) -> bool:
        return bool(self.done)

    def submit(self, cell, now: float) -> None:
        outcome = self.attempt(cell.workload, cell.policy, cell.attempt, obs=self.obs)
        outcome.seconds = self.clock() - now
        self.done.append((cell, outcome))

    def collect(self, until: float | None) -> list:
        done, self.done = self.done, []
        return done

    def close(self) -> None:
        self.done.clear()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker_main(conn: Connection) -> None:
    """Worker loop: receive attempts, run them, report outcomes.

    Runs in a child process.  Each task is ``(attempt, workload, policy,
    number, obs_on)``, where ``attempt`` is the scheduler's bound
    :func:`run_attempt`; the reply is ``(Attempt, obs_summary)``.  A
    ``None`` task (or a closed pipe) shuts the worker down.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        attempt, workload, policy, number, obs_on = task
        obs = Observability() if obs_on else NULL_OBS
        outcome = attempt(workload, policy, number, obs=obs)
        conn.send((outcome, obs.summary() if obs_on else None))


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

class _Worker:
    """A live worker process plus its pipe and current assignment."""

    __slots__ = ("process", "conn", "cell", "started", "deadline")

    def __init__(self, context) -> None:
        parent_conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.cell = None
        self.started = 0.0
        self.deadline: float | None = None

    @property
    def busy(self) -> bool:
        return self.cell is not None

    def assign(self, cell, task: tuple, now: float,
               timeout: float | None) -> None:
        self.conn.send(task)
        self.cell = cell
        self.started = now
        self.deadline = None if timeout is None else now + timeout

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


class _WorkerPool:
    """Worker processes, one attempt each: spawn, assign, collect, crash
    detection, timeout kill, replenish."""

    def __init__(self, supervisor: SupervisorConfig, attempt,
                 obs: Observability, clock) -> None:
        self.sup = supervisor
        self.attempt = attempt
        self.obs = obs
        self.clock = clock
        self.context = multiprocessing.get_context(supervisor.start_method)
        self.workers: list[_Worker] = []

    @property
    def idle(self) -> int:
        return self.sup.workers - sum(1 for w in self.workers if w.busy)

    @property
    def busy(self) -> bool:
        return any(w.busy for w in self.workers)

    def _retire(self, worker: _Worker) -> None:
        worker.kill()
        self.workers.remove(worker)

    def submit(self, cell, now: float) -> None:
        task = (self.attempt, cell.workload, cell.policy, cell.attempt,
                self.obs.enabled)
        while True:
            worker = next((w for w in self.workers if not w.busy), None)
            if worker is None:
                worker = _Worker(self.context)
                self.workers.append(worker)
                self.obs.inc("supervisor.workers_started")
            try:
                worker.assign(cell, task, now, self.sup.cell_timeout_seconds)
                return
            except (BrokenPipeError, OSError):
                # The idle worker died before we could use it; replace it
                # (no attempt was spent).
                self._retire(worker)

    def collect(self, until: float | None) -> list:
        """Wait (at most a poll interval, or until the earliest worker
        deadline or ``until``) and return every finished attempt."""
        now = self.clock()
        busy = [w for w in self.workers if w.busy]
        waits = [self.sup.poll_interval_seconds]
        waits += [w.deadline - now for w in busy if w.deadline is not None]
        if until is not None:
            waits.append(until - now)
        ready = connection_wait([w.conn for w in busy], timeout=max(0.0, min(waits)))
        now = self.clock()
        done = [self._receive(w, now) for w in busy if w.conn in ready]
        for worker in busy:
            if worker.busy and worker.deadline is not None and now >= worker.deadline:
                done.append(self._kill_timed_out(worker, now))
        return done

    def _receive(self, worker: _Worker, now: float) -> tuple:
        cell, seconds = worker.cell, now - worker.started
        worker.cell = None
        try:
            outcome, summary = worker.conn.recv()
        except (EOFError, OSError):
            worker.process.join(timeout=5.0)
            exitcode = worker.process.exitcode
            self.obs.inc("supervisor.crashes")
            self.obs.event("worker_crash", cell=cell.key, exitcode=exitcode)
            self._retire(worker)
            outcome = Attempt(
                kind="crash", error_type="WorkerCrash",
                message=f"worker process died (exit code {exitcode}) while "
                        f"running {cell.key}",
            )
        else:
            self.obs.merge_child(summary, label=f"worker:{cell.key}")
        outcome.seconds = seconds
        return cell, outcome

    def _kill_timed_out(self, worker: _Worker, now: float) -> tuple:
        cell, seconds = worker.cell, now - worker.started
        timeout = self.sup.cell_timeout_seconds
        self.obs.inc("supervisor.timeouts")
        self.obs.event("cell_timeout", cell=cell.key, attempt=cell.attempt,
                       timeout_seconds=timeout)
        self._retire(worker)
        return cell, Attempt(
            kind="timeout", error_type="CellTimeout",
            message=f"cell exceeded the {timeout:g}s per-cell timeout and "
                    "was killed",
            seconds=seconds,
        )

    def close(self) -> None:
        for worker in self.workers:
            if worker.busy:
                worker.kill()
            else:
                worker.shutdown()
        self.workers.clear()
