"""The experiment harness.

Runs the policy x workload grids behind every table and figure in the
paper's evaluation and renders them as terminal-friendly reports:

- :mod:`repro.experiments.runner`: the in-memory serial grid loop
  (``run_grid``) with the paper's warm-up rule and per-cell result
  capture;
- :mod:`repro.experiments.scheduler`: the one cached, resumable,
  parallel sweep path (``SweepScheduler`` over the content-addressed
  :mod:`~repro.experiments.cellcache` and write-ahead
  :mod:`~repro.experiments.journal`, with the one attempt loop: lease
  claim, validation, retries and failure; ``--cache-dir`` on the CLI);
- :mod:`repro.experiments.supervisor`: where that loop's attempts run
  (in process, or a worker pool with crash isolation and timeouts) and
  the retry policy;
- :mod:`repro.experiments.faults`: deterministic fault injection for
  exercising the scheduler's recovery paths under either executor;
- :mod:`repro.experiments.figures`: one generator per paper artifact
  (fig1..fig11, table1, the headline numbers);
- :mod:`repro.experiments.report`: shared text-rendering helpers.
"""

from repro.experiments.faults import FaultInjected, FaultPlan, FaultSpec
from repro.experiments.runner import (
    CellResult,
    FailedCell,
    GridResult,
    run_cell,
    run_grid,
    run_workload,
    validate_cell,
)
from repro.experiments.supervisor import RetryPolicy, SupervisorConfig
from repro.experiments.tuning import TuningResult, sweep_ghrp
from repro.experiments import figures

__all__ = [
    "CellResult",
    "FailedCell",
    "GridResult",
    "run_cell",
    "run_grid",
    "run_workload",
    "validate_cell",
    "RetryPolicy",
    "SupervisorConfig",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "TuningResult",
    "sweep_ghrp",
    "figures",
]
