"""Host-speed normalization of the benchmark's timings.

The benchmark runs on shared hosts whose CPU speed flips between modes
(up to ~1.6x apart) over seconds to minutes, which stretches every piece
of CPU work of a run.  A fixed pure-Python loop (:func:`calibrate`,
~10 ms of CPU time after a short untimed warm-up) is timed between the
measured pieces of work, never inside them.  The mean of a process's
calibrations is its host speed: the loops sample the modes at spread-out
times, so their mean follows the time-average slowdown the work saw (a
median would follow only the commonest mode, and one reading is too
noisy to scale one piece by).

A measured piece is split in two by the CPU clocks read beside the wall
clock (:class:`Meter`): its CPU seconds, and the rest of its wall time
(waits: sleeps, fsyncs, polling, lock contention, another process's
queue).  Only the CPU seconds are scaled, by ``NOMINAL_SECONDS / (mean
calibration)``; waits are kept as they are, because they do not run
slower on a slower CPU.  The result is in *reference-host seconds*: CPU
work as it would take on a host that runs the loop in
``NOMINAL_SECONDS``, plus the waits.  Raw wall times are kept beside the
normalized ones in every result.

So extra work of any kind moves the normalized time: more CPU work by
its reference-host cost, a longer wait by its wall time; a host that is
slower for everything moves the loop too and cancels out.  The warm-up
keeps a calibration that follows a wait from reading a cold CPU.
"""

from __future__ import annotations

import os
import time

from tracing import clock

__all__ = ["NOMINAL_SECONDS", "Meter", "calibrate", "normalize", "piece", "work"]

#: Loop iterations per calibration, and untimed ones before it.
ITERATIONS = 40_000
WARMUP_ITERATIONS = 10_000
#: The loop's CPU time on the reference host (a unit, not a target: about
#: its median on an uncontended 2-core Xeon host, so reference-host seconds
#: read close to that host's wall seconds).
NOMINAL_SECONDS = 0.010


def work(iterations: int = ITERATIONS) -> int:
    """The calibration loop's body (dict, list and int work)."""
    table: dict[int, int] = {}
    ring = [0] * 64
    total = 0
    for i in range(iterations):
        key = (i * 2654435761) & 0xFFF
        value = table.get(key, 0)
        table[key] = value + 1
        ring[i & 63] = value
        total += ring[(i * 7) & 63] & 7
    return total


def calibrate() -> float:
    """CPU seconds of one run of the fixed loop, after an untimed warm-up."""
    work(WARMUP_ITERATIONS)
    started = time.thread_time()
    work()
    return time.thread_time() - started


def process_cpu(pid: int) -> float:
    """CPU seconds another process has used, all its threads (tick resolution)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Meter:
    """Reads the wall clock with the CPU clock of this process plus ``pids``."""

    def __init__(self, *pids: int):
        self.pids = pids

    def read(self) -> tuple[float, float]:
        cpu = time.process_time() + sum(process_cpu(pid) for pid in self.pids)
        return clock(), cpu


def piece(start: tuple[float, float], end: tuple[float, float]) -> tuple[float, float]:
    """``(wall, cpu)`` seconds between two :meth:`Meter.read` results; the
    CPU part is capped at the wall time (two processes may overlap)."""
    wall = end[0] - start[0]
    return wall, min(max(end[1] - start[1], 0.0), wall)


def normalize(measured: tuple[float, float], calibration: float) -> float:
    """A :func:`piece` in reference-host seconds, given the mean calibration."""
    wall, cpu = measured
    return cpu * NOMINAL_SECONDS / calibration + (wall - cpu)
