"""Deterministic fault injection for the sweep scheduler's attempt loop.

Testing a fault-tolerant executor with real faults (random crashes,
actual wall-clock hangs racing a timeout) produces flaky tests.  This
module instead injects *chosen* faults into *chosen* cells on *chosen*
attempts: a :class:`FaultPlan` maps (policy, workload) keys to a
:class:`FaultSpec`, is consulted before and after every cell attempt
by the one attempt body,
:func:`~repro.experiments.supervisor.run_attempt` — in this process
under the inline executor, and pickled with it into the worker
processes under the supervised one — and fires deterministically: the
Nth attempt of a given cell always behaves the same way, so both
executors see the same retries, failures and journal.

Modes:

- ``"raise"``   — the attempt raises :class:`FaultInjected` before
  simulating (exercises the retry path);
- ``"hang"``    — the attempt blocks forever on an event that never
  fires (exercises the per-cell timeout kill);
- ``"crash"``   — the attempt's process exits immediately via
  ``os._exit`` without reporting (exercises crash isolation and pool
  replenishment, standing in for a segfault or OOM kill);
- ``"garbage"`` — the attempt simulates normally but returns a
  malformed result (exercises the scheduler's result validation).

``fail_attempts`` bounds the fault to the first N attempts (0-based
attempt index < N faults); ``ALWAYS`` faults every attempt, producing a
terminal :class:`~repro.experiments.runner.FailedCell`.

Only :class:`~repro.experiments.scheduler.SweepScheduler` consults a
plan (serial ``run_grid`` never does), and an empty plan injects
nothing.  ``"hang"`` and ``"crash"`` are meant for the supervised
executor: inline, they would block or exit the scheduler's own process.
``"raise"`` and ``"garbage"`` behave identically under both.

:class:`ServiceFaultPlan` extends the same discipline one layer up, to
the job daemon (:mod:`repro.service`): dropped lease heartbeats,
stalled workers, and torn journal lines on submit are scheduled by
deterministic counters, so the daemon's recovery paths — lease expiry,
deadline enforcement, torn-tail replay — are exercised by the same
kind of chosen-fault harness as the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from threading import Event
from typing import Callable

__all__ = [
    "ALWAYS",
    "FAULT_MODES",
    "SERVICE_FAULT_MODES",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "ServiceFaultPlan",
]

ALWAYS = -1
"""Sentinel for ``fail_attempts``: fault on every attempt."""

FAULT_MODES = ("raise", "hang", "crash", "garbage")


class FaultInjected(RuntimeError):
    """The error raised inside a worker by a ``"raise"``-mode fault."""


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """How one cell misbehaves, and on which attempts.

    ``fail_attempts=N`` faults attempts ``0..N-1`` and lets attempt ``N``
    run cleanly ("fail twice, then succeed" is ``fail_attempts=2``);
    :data:`ALWAYS` faults every attempt.
    """

    mode: str
    fail_attempts: int = ALWAYS

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of {FAULT_MODES}"
            )
        if self.fail_attempts < ALWAYS:
            raise ValueError("fail_attempts must be >= 0, or ALWAYS (-1)")

    def triggers(self, attempt: int) -> bool:
        """Does this fault fire on 0-based ``attempt``?"""
        return self.fail_attempts == ALWAYS or attempt < self.fail_attempts


@dataclass(slots=True)
class FaultPlan:
    """A deterministic schedule of injected faults, keyed by cell.

    Picklable by construction (plain data), so the worker pool can ship
    it to worker processes with each attempt.
    """

    faults: dict[tuple[str, str], FaultSpec] = field(default_factory=dict)

    def add(self, policy: str, workload: str, spec: FaultSpec) -> "FaultPlan":
        self.faults[(policy, workload)] = spec
        return self

    def spec_for(self, policy: str, workload: str) -> FaultSpec | None:
        return self.faults.get((policy, workload))

    def __len__(self) -> int:
        return len(self.faults)

    # -- attempt-side hooks ---------------------------------------------
    def before_cell(self, policy: str, workload: str, attempt: int) -> None:
        """Fire a pre-simulation fault, if one is scheduled.

        Called wherever the attempt runs (this process, or a worker).  ``"raise"`` raises,
        ``"hang"`` never returns, ``"crash"`` kills the process; the
        other modes (and non-faulted cells/attempts) fall through.
        """
        spec = self.spec_for(policy, workload)
        if spec is None or not spec.triggers(attempt):
            return
        if spec.mode == "raise":
            raise FaultInjected(
                f"injected failure for {policy}/{workload} attempt {attempt}"
            )
        if spec.mode == "hang":
            Event().wait()  # pragma: no cover - killed by the supervisor
        if spec.mode == "crash":
            import os

            os._exit(13)  # pragma: no cover - dies before coverage flushes

    def mangle_result(self, policy: str, workload: str, attempt: int, cell):
        """Corrupt a finished cell result for ``"garbage"``-mode faults."""
        spec = self.spec_for(policy, workload)
        if spec is None or spec.mode != "garbage" or not spec.triggers(attempt):
            return cell
        return {"garbage": True, "policy": policy, "workload": workload,
                "attempt": attempt}


SERVICE_FAULT_MODES = ("drop-heartbeat", "stall-worker", "torn-journal")


@dataclass(slots=True)
class ServiceFaultPlan:
    """Deterministic service-shaped faults for the job daemon.

    Counter-based, so the Nth occurrence always behaves the same way:

    - ``drop_heartbeats=N`` swallows the first N job-lease heartbeats
      (the lease goes stale exactly as if the worker wedged, and a
      second claimant may break it);
    - ``stall_cells=N`` invokes :attr:`stall` before each of the first
      N job progress callbacks — tests pass a hook that advances a
      :class:`~repro.service.clock.ManualClock` past the job deadline,
      standing in for a worker that stopped making progress;
    - ``torn_submits=N`` tears the tail of the first N ``submitted``
      journal lines (the one corruption an append-only journal can
      suffer from a crash), so replay-side skip logic is exercised on
      the job journal too.
    """

    drop_heartbeats: int = 0
    stall_cells: int = 0
    torn_submits: int = 0
    #: What "stalling" does; tests typically advance a manual clock.
    stall: Callable[[], None] | None = None
    # Occurrence counters (diagnostics; also what makes firing one-shot).
    heartbeats_seen: int = 0
    heartbeats_dropped: int = 0
    cells_stalled: int = 0
    submits_torn: int = 0

    def take_heartbeat(self) -> bool:
        """False when this heartbeat should be dropped."""
        self.heartbeats_seen += 1
        if self.heartbeats_dropped < self.drop_heartbeats:
            self.heartbeats_dropped += 1
            return False
        return True

    def before_job_cell(self, job_id: str) -> None:
        """Progress-callback hook: stall the worker if scheduled."""
        if self.cells_stalled < self.stall_cells:
            self.cells_stalled += 1
            if self.stall is not None:
                self.stall()

    def tear_journal(self, event: str) -> bool:
        """True when this journal append's tail should be torn."""
        if event == "submitted" and self.submits_torn < self.torn_submits:
            self.submits_torn += 1
            return True
        return False
