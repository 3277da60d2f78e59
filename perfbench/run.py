"""The repository's end-to-end benchmark, with a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload grid-paper --seed 2018 --seconds 12 --trace 0

Workloads: ``grid-paper``, ``fast-server``, ``service-mix`` (see
``workloads.py`` and ``README.md``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same workload with benchmark-side spans
around each layer and prints the per-layer self-time table and metrics.
Every cell and job is checked against the reference engine.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run leaves its result file (with its
provenance stamp) and, when traced, its spans under ``.perfbench/``.
Grid workloads run each timed sweep in a child process of this script.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Oracle, digest_of  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

WORKLOADS = ("grid-paper", "fast-server", "service-mix")

#: Daemon spawns per service-mix run (their median is ``setup_s``; a grid
#: run sets up once per sweep, at least three times).
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "sim_kips": "kinstr/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

POLICIES = ("lru", "random", "srrip", "sdbp", "ghrp")

#: Per-layer metrics: name -> (unit, better).  Layers a workload does not
#: exercise read 0 there (the "not on" prediction of README.md's map).
PER_LAYER = {
    **{name: ("s", "lower") for name in (
        "import.s", "workloads.synth.s", "workloads.walk.s", "traces.icount.s",
        "kernel.tokenize.s", "kernel.icache.s", "kernel.btb.s", "engine.fast.self.s",
        "engine.reference.run.s", "frontend.build.s", "runner.self.s", "sweep.self.s",
        "service.spawn.s", "service.submit.s", "service.queue.s", "service.exec.s",
        "service.exec.self.s", "service.result.s", "service.job.self.s",
        "trace.remainder.s", "trace.wall.s", "trace.overhead.s",
    )},
    **{name: ("count", "lower") for name in (
        "workloads.synth.calls", "workloads.walk.calls", "workloads.walk.records",
        "traces.icount.calls", "kernel.tokenize.calls", "kernel.tokenize.records",
        "engine.reference.cells", "engine.fallback.cells", "engine.fallback.reasons",
        "service.poll.calls", "cellcache.computed", "journal.lines",
    )},
    **{name: ("count", "higher") for name in (
        "engine.fast.cells", "sim.instructions", "sim.records", "engine.accesses",
        "service.jobs.created", "service.jobs.deduplicated", "cellcache.hits",
    )},
    "workloads.walk.useful": ("ratio", "higher"),
    "cellcache.hit_rate": ("ratio", "higher"),
    **{f"model.{s}_mpki.{p}": ("MPKI", "lower") for s in ("icache", "btb") for p in POLICIES},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The gate self-check's fault (grid workloads; see layers.gate_slowdown).
    parser.add_argument("--gate-selfcheck", action="store_true", help=argparse.SUPPRESS)
    # One set-up and sweep in this process, written to the given file.
    parser.add_argument("--sweep-out", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` on the path, or fail before any result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure (missing {ROOT / 'src' / 'repro'})")
    sys.path.insert(0, str(ROOT / "src"))


def run_grid_workload(args) -> dict:
    from workloads import run_grid

    result = run_grid(args.workload, args.seed, args.seconds, Oracle(args.workload),
                      trace=bool(args.trace), gate=args.gate_selfcheck)
    traced = result["traced"]
    if traced is not None:
        tracer = Tracer()
        for record in traced["spans"]:
            tracer.adopt(record)
        for name, value in traced["counters"].items():
            tracer.count(name, value)
        window = (traced["setup"]["started"], traced["end"])
        result["layers"], result["table"] = layer_metrics(
            tracer, window, traced["sweep"] - result["metrics"]["sweep_s"])
        for policy, mpki in result["model"].items():
            result["layers"][f"model.icache_mpki.{policy}"] = mpki["icache_mpki"]
            result["layers"][f"model.btb_mpki.{policy}"] = mpki["btb_mpki"]
        result["layers"]["engine.fallback.reasons"] = len(result["notes"]["fallback_reasons"])
        result["tracer"] = tracer
    return result


def run_service_workload(args, work: Path) -> dict:
    from workloads import SERVICE_BLOCK, job_sequence, run_service

    tracer = Tracer() if args.trace else None
    oracle = Oracle(args.workload)
    result = run_service(ROOT, work, args.seed, args.seconds, SETUPS, oracle, tracer)
    sequence = job_sequence(args.seed)
    result["input_digest"] = digest_of([next(sequence) for _ in range(20 * len(SERVICE_BLOCK))])
    if tracer is not None:
        overhead = result["metrics"]["sweep_s"] - result["baseline"]["metrics"]["sweep_s"]
        layers, result["table"] = layer_metrics(tracer, result["window"], overhead)
        executed = [r for r in result["jobs"] if "exec" in r]
        layers["service.exec.s"] = sum(r["exec"][1] - r["exec"][0] for r in executed)
        layers["service.poll.calls"] = sum(r["polls"] for r in result["jobs"])
        layers["service.jobs.created"] = result["stats"].get("accepted", 0)
        layers["service.jobs.deduplicated"] = result["stats"].get("deduplicated", 0)
        hits, computed = result["cache"]["hits"], result["cache"]["computed"]
        layers["cellcache.hits"] = hits
        layers["cellcache.computed"] = computed
        layers["cellcache.hit_rate"] = hits / (hits + computed) if hits + computed else 0.0
        layers["journal.lines"] = result["journal_lines"]
        result["layers"] = layers
        result["tracer"] = tracer
    return result


def layer_metrics(tracer: Tracer, window: tuple[float, float],
                  overhead: float) -> tuple[dict, list]:
    """Per-layer metrics from the spans and counters of the traced window,
    and the self-time table (name, seconds), largest first."""
    from layers import SPAN_METRICS

    records = tracer.records()
    totals, roots = self_times(records)
    wall = window[1] - window[0]
    layers = {name: 0.0 for name in PER_LAYER}
    for name, seconds in totals.items():
        layers[SPAN_METRICS.get(name, f"{name}.s")] = seconds
    layers["service.exec.self.s"] = totals.get("service.exec", 0.0)
    for name, value in tracer.counters.items():
        if name in layers:
            layers[name] = value
    walked = layers["workloads.walk.records"]
    layers["workloads.walk.useful"] = layers["sim.records"] / walked if walked else 0.0
    layers["trace.wall.s"] = wall
    layers["trace.remainder.s"] = wall - roots
    layers["trace.overhead.s"] = overhead
    return layers, sorted(totals.items(), key=lambda item: -item[1])


def print_table(tracer: Tracer, layers: dict, table: list) -> None:
    wall = layers["trace.wall.s"]
    print(f"\nself time by layer (traced wall {wall:.4f} s)")
    print(f"  {'layer':28s} {'self s':>10s} {'share':>7s}")
    for name, seconds in table:
        print(f"  {name:28s} {seconds:10.4f} {seconds / wall:7.1%}")
    remainder = layers["trace.remainder.s"]
    print(f"  {'(remainder: no span)':28s} {remainder:10.4f} {remainder / wall:7.1%}")
    covered = sum(seconds for _, seconds in table) + remainder
    print(f"  {'sum':28s} {covered:10.4f} (wall {wall:.4f})")
    print(f"tracing overhead: {layers['trace.overhead.s']:+.4f} s "
          "(traced sweep_s - untraced sweep_s, reference-host seconds)")
    for name, count in sorted(tracer.counters.items()):
        if name.startswith("engine.fallback.reason:"):
            print(f"fallback: {count:g} cell(s): {name.split(':', 1)[1]}")
    print("\nper-layer metrics")
    for name, (unit, _) in PER_LAYER.items():
        print(f"  {name:32s} {layers[name]:14.6g} {unit}")


def sweep_child(args) -> int:
    from workloads import sweep_once

    tracer = Tracer() if args.trace else None
    result = sweep_once(args.workload, args.seed, tracer, args.gate_selfcheck)
    if tracer is not None:
        result["spans"] = tracer.records()
        result["counters"] = tracer.counters
    args.sweep_out.write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.sweep_out is not None:
        return sweep_child(args)
    from provenance import stamp

    out = ROOT / ".perfbench"
    work = out / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service-mix":
            result = run_service_workload(args, work)
        else:
            result = run_grid_workload(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = stamp(ROOT, args.workload, args.seed, result["input_digest"])
    correct = result["failed"] == 0
    fail_rate = result["failed"] / result["attempted"]
    print(f"perfbench {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, {args.seconds:g} s)")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(f"notes: {json.dumps(result['notes'], sort_keys=True)}")
    for problem in result.get("mismatches", []) + result.get("problems", []):
        print(f"FAILED: {problem}")
    print(f"  {'fail_rate':12s} {fail_rate:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} failed)")
    if args.trace:
        tracer = result["tracer"]
        print_table(tracer, result["layers"], result["table"])
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        spans = out / "spans" / f"{args.workload}-seed{args.seed}-{time.time_ns()}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
    else:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, metric in metrics.items():
            print(f"  {name:12s} {metric['value']:14.6g} {metric['unit']}")

    record = {"provenance": provenance, "trace": args.trace, "correct": correct,
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": metrics, "notes": result["notes"]}
    results = out / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    (results / f"seed{args.seed}-trace{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
