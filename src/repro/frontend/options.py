"""Run options for the front-end engines.

:class:`RunOptions` replaces the positional-argument spread of the original
``FrontEnd.run(records, warmup_instructions, max_instructions)`` signature
with one keyword-only dataclass, shared by the reference engine, the
batched fast-path engine (:mod:`repro.kernel.engine`), and the public
facade (:mod:`repro.api`).

The ``verify`` family of options configures the runtime sentinel layer
(:mod:`repro.sentinel`): shadow-execution of the reference engine over
sampled windows of the fast path, failover on divergence, and
crash-capture repro bundles.  They are inert on the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.frontend.config import FrontEndConfig
    from repro.sentinel.faults import KernelFault
    from repro.telemetry.interval import TelemetryConfig
    from repro.workloads.spec import WorkloadSpec

__all__ = ["RunOptions", "WorkloadRef", "VERIFY_MODES"]

VERIFY_MODES = ("off", "sampled", "full")
"""Sentinel verification modes for the fast-path engine."""


@dataclass(frozen=True, slots=True)
class WorkloadRef:
    """Provenance of the record stream being simulated.

    The engines consume an anonymous record iterable; a crash-capture
    repro bundle must instead name a regenerable workload.  The facade
    (:mod:`repro.api`) and the experiment runner attach one of these to
    :class:`RunOptions` whenever verification is on, so the sentinel can
    write self-contained bundles.  ``spec`` is the fully materialized
    (post-jitter) :class:`~repro.workloads.spec.WorkloadSpec`; replaying
    passes it back with ``jitter=False`` for a bit-identical stream.
    """

    name: str
    seed: int
    spec: "WorkloadSpec"

    @classmethod
    def from_workload(cls, workload) -> "WorkloadRef":
        return cls(name=workload.name, seed=workload.seed, spec=workload.spec)


@dataclass(frozen=True, slots=True, kw_only=True)
class RunOptions:
    """How to run one simulation over a branch-record stream.

    Attributes
    ----------
    warmup_instructions:
        Statistics are reported for the region after this many
        (reconstructed) instructions; the paper warms structures on the
        first half of each trace.
    max_instructions:
        Stop after this many instructions (None = run the whole trace).
    verify:
        Sentinel mode for the fast engine: ``"off"`` (no shadow checks,
        bit-identical to the plain fast path), ``"sampled"`` (verify the
        first window, every ``verify_interval``-th window, the window
        after the warm-up crossing, and the last window), or ``"full"``
        (verify every window).  Ignored by the reference engine.
    verify_window:
        Window size, in branch records, for sentinel verification.
    verify_interval:
        In ``"sampled"`` mode, verify every Nth window.
    failover:
        On divergence or kernel crash, finish the run on the reference
        engine from the last verified snapshot (``degraded=True`` in the
        result) instead of raising.  With ``failover=False`` the
        :class:`~repro.sentinel.errors.DivergenceError` (or the original
        kernel exception) propagates; a repro bundle is still written.
    repro_bundle_dir:
        Directory for crash-capture repro bundles (None disables bundle
        writing, e.g. during a bundle replay).
    inject_kernel_fault:
        Test hook: a :class:`~repro.sentinel.faults.KernelFault` armed on
        the fast engine's kernels before the run, used by the sentinel
        test suite and replayed from repro bundles.
    workload_ref:
        Provenance of the record stream (see :class:`WorkloadRef`);
        attached by the facade when verification is on.
    config_ref:
        The :class:`~repro.frontend.config.FrontEndConfig` the front end
        was built from; attached alongside ``workload_ref`` so bundles
        are self-contained.
    telemetry:
        Interval-telemetry sampling configuration (see
        :class:`~repro.telemetry.interval.TelemetryConfig`).  ``None``
        (the default) disables sampling entirely and keeps the run
        byte-identical to a build without the telemetry package.
    """

    warmup_instructions: int = 0
    max_instructions: int | None = None
    verify: str = "off"
    verify_window: int = 2000
    verify_interval: int = 8
    failover: bool = True
    repro_bundle_dir: str | None = "artifacts/repro-bundles"
    inject_kernel_fault: "KernelFault | None" = None
    workload_ref: "WorkloadRef | None" = None
    config_ref: "FrontEndConfig | None" = None
    telemetry: "TelemetryConfig | None" = None

    def __post_init__(self) -> None:
        if self.warmup_instructions < 0:
            raise ValueError(
                f"warmup_instructions must be >= 0, got {self.warmup_instructions}"
            )
        if self.max_instructions is not None and self.max_instructions <= 0:
            raise ValueError(
                f"max_instructions must be positive, got {self.max_instructions}"
            )
        if self.verify not in VERIFY_MODES:
            raise ValueError(
                f"verify must be one of {VERIFY_MODES}, got {self.verify!r}"
            )
        if self.verify_window < 1:
            raise ValueError(
                f"verify_window must be >= 1, got {self.verify_window}"
            )
        if self.verify_interval < 1:
            raise ValueError(
                f"verify_interval must be >= 1, got {self.verify_interval}"
            )

    @classmethod
    def from_config_warmup(
        cls, config: "FrontEndConfig", total_instructions_hint: int
    ) -> "RunOptions":
        """The paper's warm-up rule: half the trace, capped.

        The one implementation of the rule: the facade, the cell runner
        and the figure generators all call it.
        """
        warmup = min(
            int(total_instructions_hint * config.warmup_fraction),
            config.warmup_cap_instructions,
        )
        return cls(
            warmup_instructions=warmup, max_instructions=config.max_instructions
        )


def resolve_run_options(
    options: "RunOptions | None",
    warmup_instructions: int | None,
    max_instructions: int | None,
) -> "RunOptions":
    """Merge the new ``options`` object with legacy keyword arguments.

    Passing both forms at once is an error; passing neither yields the
    defaults.  Shared by the reference and fast engines so their ``run``
    signatures stay in lockstep.
    """
    if options is not None:
        if not isinstance(options, RunOptions):
            raise TypeError(
                f"options must be a RunOptions, got {type(options).__name__}; "
                "the positional-warmup spelling run(records, N) is retired — "
                "pass RunOptions(warmup_instructions=N)"
            )
        if warmup_instructions is not None or max_instructions is not None:
            raise TypeError(
                "pass either options=RunOptions(...) or the legacy "
                "warmup_instructions/max_instructions keywords, not both"
            )
        return options
    return RunOptions(
        warmup_instructions=warmup_instructions or 0,
        max_instructions=max_instructions,
    )
