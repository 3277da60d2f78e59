"""Benchmark-side layer instrumentation.

The program is not edited: each layer boundary is a public function or
method of ``repro``, and :func:`instrument` rebinds it, for the rest of
the process, to a wrapper that records a span (or, for the record walker,
an aggregated leaf) on a :class:`~tracing.Tracer`.  Functions that
modules imported by name are rebound in every loaded ``repro`` module
that holds them, so call sites see the wrapper whichever module they call
through.

:func:`gate_slowdown` is the gate self-check's fault: a wall-clock wait
after every call of one layer, proportional to the call's own time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

from tracing import Tracer, clock

__all__ = ["GATE_SLOWDOWN", "SPAN_METRICS", "gate_slowdown", "instrument"]

#: Records the walker produces between two clock reads; walking in
#: chunks keeps the per-record cost of tracing out of the walk time.
WALK_CHUNK = 1024

#: The gate self-check's wait after each reference-engine ``run``, as a
#: share of that call's wall time.
GATE_SLOWDOWN = 0.2

#: Span name -> per-layer metric name, where the two differ.
SPAN_METRICS = {
    "runner": "runner.self.s",
    "engine.fast.run": "engine.fast.self.s",
    "sweep": "sweep.self.s",
    "service.job": "service.job.self.s",
}


def _everywhere(original, replacement) -> None:
    """Rebind ``original`` in every loaded ``repro`` module that holds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _load_layers():
    """Import every module whose functions get rebound (so they exist)."""
    import repro.api  # noqa: F401
    import repro.experiments.scheduler  # noqa: F401
    import repro.experiments.snapshots as snapshots
    import repro.kernel.engine as kernel_engine
    import repro.service.jobs  # noqa: F401
    from repro.experiments.runner import run_cell
    from repro.frontend.engine import FrontEnd, build_frontend
    from repro.kernel.base import BTBKernel, CacheKernel
    from repro.workloads.suite import Workload, make_workload

    return {
        "make_workload": make_workload,
        "Workload": Workload,
        "build_frontend": build_frontend,
        "run_cell": run_cell,
        "run_cell_snapshotted": snapshots.run_cell_snapshotted,
        "tokenize_trace": kernel_engine.tokenize_trace,
        "FrontEnd": FrontEnd,
        "FastFrontEnd": kernel_engine.FastFrontEnd,
        "CacheKernel": CacheKernel,
        "BTBKernel": BTBKernel,
    }


def _spanned(tracer: Tracer, name: str, func, counter: str | None = None, cell=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if counter is not None:
            tracer.count(counter)
        with tracer.span(name, cell(*args, **kwargs) if cell is not None else None):
            return func(*args, **kwargs)

    return wrapper


def _timed_walk(tracer: Tracer, records):
    while True:
        start = clock()
        chunk = list(itertools.islice(records, WALK_CHUNK))
        tracer.leaf("workloads.walk", start, clock(), len(chunk))
        if not chunk:
            return
        tracer.count("workloads.walk.records", len(chunk))
        yield from chunk


def instrument(tracer: Tracer) -> None:
    """Rebind every layer boundary to a traced wrapper."""
    layer = _load_layers()
    workload_cls = layer["Workload"]
    frontend_cls = layer["FrontEnd"]
    fast_cls = layer["FastFrontEnd"]

    _everywhere(
        layer["make_workload"],
        _spanned(tracer, "workloads.synth", layer["make_workload"], "workloads.synth.calls"),
    )
    _everywhere(
        layer["build_frontend"],
        _spanned(tracer, "frontend.build", layer["build_frontend"]),
    )

    def cell_id(workload, policy, *args, **kwargs):
        return f"{policy}/{workload.name}"

    for name in ("run_cell", "run_cell_snapshotted"):
        _everywhere(layer[name], _spanned(tracer, "runner", layer[name], cell=cell_id))

    tokenize = layer["tokenize_trace"]

    @functools.wraps(tokenize)
    def tokenize_trace(records, *args, **kwargs):
        tracer.count("kernel.tokenize.calls")
        tracer.count("kernel.tokenize.records", len(records))
        with tracer.span("kernel.tokenize"):
            return tokenize(records, *args, **kwargs)

    _everywhere(tokenize, tokenize_trace)

    records = workload_cls.records

    def walk(self, limit=None):
        tracer.count("workloads.walk.calls")
        return _timed_walk(tracer, records(self, limit))

    workload_cls.records = walk
    workload_cls.instruction_count = _spanned(
        tracer, "traces.icount", workload_cls.instruction_count, "traces.icount.calls")

    # Both engines: the public run(), plus the window method the warm-up
    # snapshot executor drives directly; nested spans of one name add up.
    for cls, name in ((frontend_cls, "engine.reference.run"), (fast_cls, "engine.fast.run")):
        for attr in ("run", "_run_window"):
            setattr(cls, attr, _spanned(tracer, name, vars(cls)[attr]))

    finish = frontend_cls._finish_run

    @functools.wraps(finish)
    def finish_run(self, rs):
        result = finish(self, rs)
        kind = "fast" if isinstance(self, fast_cls) else "reference"
        tracer.count(f"engine.{kind}.cells")
        if result.fast_path_fallback_reason is not None:
            tracer.count("engine.fallback.cells")
            tracer.count(f"engine.fallback.reason:{result.fast_path_fallback_reason}")
        tracer.count("sim.instructions", result.instructions)
        tracer.count("sim.records", result.branches)
        tracer.count("engine.accesses", self.icache.stats.accesses + self.btb.stats.accesses)
        return result

    frontend_cls._finish_run = finish_run

    for cls, name in ((layer["CacheKernel"], "kernel.icache"), (layer["BTBKernel"], "kernel.btb")):
        begin = cls.begin_window

        def begin_window(self, plan, _begin=begin, _name=name):
            execute = _begin(self, plan)

            def timed(lo, hi):
                with tracer.span(_name):
                    execute(lo, hi)

            return timed

        cls.begin_window = begin_window


def gate_slowdown() -> None:
    """Make the reference engine's public ``run`` :data:`GATE_SLOWDOWN` slower.

    After every call the wrapper sleeps that share of the call's own wall
    time: a proportional wall-clock delay, the kind of regression a wait
    (an fsync, a lock, a poll) causes.  ``run`` is nearly all of a
    ``grid-paper`` sweep.
    """
    frontend_cls = _load_layers()["FrontEnd"]
    run = frontend_cls.run

    @functools.wraps(run)
    def slowed(self, *args, **kwargs):
        started = clock()
        result = run(self, *args, **kwargs)
        time.sleep(GATE_SLOWDOWN * (clock() - started))
        return result

    frontend_cls.run = slowed
