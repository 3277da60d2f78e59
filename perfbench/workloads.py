"""The benchmark's workloads: inputs made from a seed, and their runners.

``grid-paper`` and ``fast-server`` sweep the paper's five policies over
synthetic workloads through ``repro.api.sweep``; ``service-mix`` drives a
``repro-sim serve`` daemon with one closed-loop ``ServiceClient``.  Every
input is a pure function of ``(workload name, seed)``.

Grid workloads are built with ``jitter=False``: the category preset
fixes each trace's length and code footprint, and the seed changes the
program's content and its walk.  That keeps the amount of work per run
the same for every seed, so host times from different seeds compare.

Every timed sweep runs in a fresh ``run.py`` process (:func:`sweep_once`),
so each pays what a user's first sweep pays, process-wide memos included.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import CELL_FIELDS, Oracle, digest_of
from hostspeed import Meter, calibrate, normalize, piece
from tracing import Tracer, clock

__all__ = ["GRIDS", "GridSpec", "grid_inputs", "job_sequence", "pool_workload", "run_grid",
           "run_service", "sweep_once"]

PAPER_POLICIES = ("lru", "random", "srrip", "sdbp", "ghrp")
CATEGORIES = ("short-mobile", "long-mobile", "short-server", "long-server")

HERE = Path(__file__).resolve().parent
#: Scratch space of a run inside the checkout (sweep processes' results).
WORK_DIR = HERE.parent / ".perfbench" / "work"


@dataclass(frozen=True)
class GridSpec:
    categories: tuple[str, ...]
    trace_scale: float
    engine: str | None  # None: the library default (no engine= argument)


GRIDS = {
    "grid-paper": GridSpec(CATEGORIES, 0.04, None),
    "fast-server": GridSpec(("short-server", "long-server"), 0.15, "fast"),
}

#: Sweeps per run at least: each cell's latency is sampled three times.
MIN_SWEEPS = 3

# service-mix: one small short-server workload x two policies per job.  One
# category keeps the jobs of a kind alike, so the latency percentiles do
# not hinge on which category a seed puts at the median.
SERVICE_CATEGORY = "short-server"
SERVICE_TRACE_SCALE = 0.03
#: New jobs draw their workloads, in order, from one pool shared by every
#: seed (the seed orders the jobs and picks their policies), so every seed
#: asks for the same work; expectations are recorded for this many.
SERVICE_POOL = 48
# Job kinds, one block at a time in a seeded order: new work (cell-cache
# writes, journal fsyncs), work overlapping an earlier job by one cell
# (cache reads beside writes), and exact resubmits (job-table reads).
# Four new jobs per block put the median inside the new jobs.
SERVICE_BLOCK = ("new", "new", "new", "new", "overlap", "resubmit")
POLL_SECONDS = 0.01
TERMINAL = ("done", "failed", "cancelled", "expired")


def _derive(*parts) -> int:
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def median(values):
    return statistics.median(values)


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, count): the highest percentile with >= 10 beyond.

    With n samples sorted, the sample at index n - 11 has exactly ten
    samples above it; it sits at percentile 100 * (n - 10) / n.  Fewer
    than 11 samples report the maximum at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


# ---------------------------------------------------------------------------
# Grid workloads
# ---------------------------------------------------------------------------
def grid_inputs(name: str, seed: int) -> list[dict]:
    """Workload recipes of one grid workload for ``seed``."""
    spec = GRIDS[name]
    return [
        {
            "name": f"{category}-{index}",
            "category": category,
            "seed": _derive(name, seed, category),
            "trace_scale": spec.trace_scale,
            "jitter": False,
        }
        for index, category in enumerate(spec.categories)
    ]


def synthesize(descriptor: dict):
    import repro

    return repro.make_workload(
        descriptor["name"],
        repro.Category(descriptor["category"]),
        seed=descriptor["seed"],
        trace_scale=descriptor["trace_scale"],
        jitter=descriptor["jitter"],
    )


def sweep_once(name: str, seed: int, tracer: Tracer | None = None, gate: bool = False) -> dict:
    """Set up and run one grid sweep in this interpreter, which is fresh.

    ``run.py`` runs every timed sweep in a process of its own, so each one
    pays what a user's first sweep pays: the program's process-wide memos
    and the workloads' own caches start empty.  Set-up is importing the
    public API and synthesizing the inputs; with ``tracer`` the layers are
    instrumented from the import on.  ``gate`` applies the gate
    self-check's slowdown (:func:`layers.gate_slowdown`) after set-up.
    """
    meter = Meter()
    calibrations = [_calibrate(tracer)]
    start = meter.read()
    if tracer is None:
        import repro.api as api
    else:
        with tracer.span("import"):
            import repro.api as api
        from layers import instrument

        instrument(tracer)
    descriptors = grid_inputs(name, seed)
    workloads = [synthesize(d) for d in descriptors]
    setup = piece(start, meter.read())
    calibrations.append(_calibrate(tracer))
    if gate:
        from layers import gate_slowdown

        gate_slowdown()

    spec = GRIDS[name]
    kwargs = {} if spec.engine is None else {"engine": spec.engine}
    timer = _CellTimer(meter, tracer, calibrations)
    error = None
    try:
        with tracer.span("sweep") if tracer is not None else contextlib.nullcontext():
            timer.mark = meter.read()
            api.sweep(workloads, api.SweepOptions(policies=PAPER_POLICIES),
                      progress=timer.done, **kwargs)
    except Exception as exc:  # noqa: BLE001 -- a raising sweep fails all its cells
        error = f"sweep raised {type(exc).__name__}: {exc}"
    calibration = statistics.fmean(calibrations)
    for cell in timer.cells:
        measured = cell.pop("piece")
        cell["raw"] = measured[0]
        cell["normalized"] = normalize(measured, calibration)
    return {
        "setup": {"raw": setup[0], "normalized": normalize(setup, calibration),
                  "started": start[0]},
        "cells": timer.cells,
        "sweep": sum(c["normalized"] for c in timer.cells),
        "raw_sweep": sum(c["raw"] for c in timer.cells),
        "calibration": calibration,
        "error": error,
        "rss_mb": peak_rss_mb(),
        "end": clock(),
    }


class _CellTimer:
    """Progress callback timing each cell of one sweep, from the previous
    cell's end; a calibration runs after every cell, outside the cells'
    intervals."""

    def __init__(self, meter: Meter, tracer: Tracer | None, calibrations: list[float]):
        self.meter = meter
        self.tracer = tracer
        self.calibrations = calibrations
        self.cells: list[dict] = []

    def done(self, cell) -> None:
        end = self.meter.read()
        self.cells.append({
            "policy": cell.policy,
            "workload": cell.workload,
            **{field: getattr(cell, field) for field in CELL_FIELDS},
            "fast_path_fallback_reason": cell.fast_path_fallback_reason,
            "piece": piece(self.mark, end),
        })
        self.calibrations.append(_calibrate(self.tracer))
        self.mark = self.meter.read()


def run_grid(name: str, seed: int, seconds: float, oracle: Oracle, trace: bool = False,
             gate: bool = False) -> dict:
    """Sweep, one fresh process per sweep, until ``seconds`` of
    reference-host sweep time have passed and at least :data:`MIN_SWEEPS`
    times; check every cell.  Counting normalized time keeps the number of
    sweeps, and so the cell-latency percentiles, the same on a slow host.

    With ``trace`` one traced sweep runs first; the untraced ones after it
    are the baseline for the tracing overhead.
    """
    traced = _sweep_process(name, seed, trace=True) if trace else None
    children, errors = [], []
    elapsed = 0.0  # reference-host seconds of the untraced sweeps
    started = clock()
    while (len(children) < MIN_SWEEPS and len(errors) < 3) or (
            elapsed < seconds and clock() - started < 3 * seconds):
        child = _sweep_process(name, seed, gate=gate)
        if child["error"] is not None:
            errors.append(child["error"])
            continue
        children.append(child)
        elapsed += child["sweep"]
    if not children:
        raise RuntimeError("every sweep failed: " + "; ".join(errors))

    # Untimed from here on: compare every cell with the reference engine.
    descriptors = grid_inputs(name, seed)
    for descriptor in descriptors:
        oracle.prepare(descriptor, PAPER_POLICIES, lambda d=descriptor: synthesize(d))
    checked = [c["cells"] for c in children]
    if traced is not None:
        checked.append(traced["cells"])
        if traced["error"] is not None:
            errors.append(traced["error"])
    attempted, failed, mismatches = check_grids(checked, descriptors, oracle)
    cells = len(descriptors) * len(PAPER_POLICIES)
    attempted += cells * len(errors)
    failed += cells * len(errors)
    first = children[0]["cells"]
    sweep_s = median(c["sweep"] for c in children)
    latencies = [cell["normalized"] for c in children for cell in c["cells"]]
    tail_value, tail_pct, tail_n = tail(latencies)
    setups = [c["setup"]["normalized"] for c in children]
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches + errors,
        "input_digest": digest_of({"workloads": descriptors, "policies": PAPER_POLICIES}),
        "metrics": {
            "setup_s": median(setups),
            "sweep_s": sweep_s,
            "sim_kips": sum(c["instructions"] for c in first) / 1000.0 / sweep_s,
            "job_p50_s": median(latencies),
            "job_tail_s": tail_value,
            "peak_rss_mb": median(c["rss_mb"] for c in children),
        },
        "notes": {
            "sweeps": len(children),
            "calibration_ms": [1000 * c["calibration"] for c in children],
            "setup_samples": setups,
            "raw_setup_s": median(c["setup"]["raw"] for c in children),
            "raw_sweep_s": median(c["raw_sweep"] for c in children),
            "raw_job_p50_s": median(cell["raw"] for c in children for cell in c["cells"]),
            "job_tail_percentile": tail_pct,
            "jobs": tail_n,
            "fallback_reasons": sorted(
                {c["fast_path_fallback_reason"] for c in first if c["fast_path_fallback_reason"]}
            ),
        },
        "traced": traced,
        "model": {
            policy: {
                "icache_mpki": statistics.fmean(
                    c["icache_mpki"] for c in first if c["policy"] == policy),
                "btb_mpki": statistics.fmean(
                    c["btb_mpki"] for c in first if c["policy"] == policy),
            }
            for policy in PAPER_POLICIES
        },
    }


def _sweep_process(name: str, seed: int, trace: bool = False, gate: bool = False) -> dict:
    """Run :func:`sweep_once` in a child ``run.py``; a failed child is a failed sweep."""
    out = WORK_DIR / f"sweep-{os.getpid()}-{time.time_ns()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "run.py"), "--sweep-out", str(out),
               "--workload", name, "--seed", str(seed), "--seconds", "0",
               "--trace", str(int(trace))]
    if gate:
        command.append("--gate-selfcheck")
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            return {"error": f"sweep process exited {done.returncode}: {done.stderr[-500:]}",
                    "cells": []}
        return json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        return {"error": "sweep process timed out", "cells": []}
    finally:
        out.unlink(missing_ok=True)


def check_grids(sweeps: list[list[dict]], descriptors: list[dict], oracle: Oracle):
    """(attempted, failed, mismatches) over every cell of ``sweeps``.

    Each sweep is the list of its cells' dicts (:class:`_CellTimer`).  A
    cell fails when it is missing or differs from the reference engine's
    in any compared field.
    """
    by_name = {d["name"]: d for d in descriptors}
    attempted = failed = 0
    mismatches = []
    for cells in sweeps:
        attempted += len(descriptors) * len(PAPER_POLICIES)
        failed += len(descriptors) * len(PAPER_POLICIES) - len(cells)
        for cell in cells:
            if not oracle.matches(cell, by_name[cell["workload"]]):
                failed += 1
                mismatches.append(f"{cell['policy']}/{cell['workload']}")
    return attempted, failed, mismatches


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------
def job_sequence(seed: int):
    """Endless seeded job stream: ``(kind, payload)`` pairs.

    Blocks of :data:`SERVICE_BLOCK` kinds, shuffled per block (the first
    block starts with its new jobs so later kinds have history).  The
    n-th new job runs the n-th pool workload (:func:`pool_workload`).
    """
    rng = random.Random(f"perfbench/service-mix/{seed}")
    news: list[dict] = []
    history: list[dict] = []
    block_index = 0
    while True:
        kinds = list(SERVICE_BLOCK)
        if block_index:
            rng.shuffle(kinds)
        block_index += 1
        for kind in kinds:
            if kind == "new":
                payload = {
                    "workloads": [pool_workload(len(news))],
                    "policies": rng.sample(PAPER_POLICIES, 2),
                }
                news.append(payload)
            elif kind == "overlap":
                base = rng.choice(news)
                keep = rng.choice(base["policies"])
                add = rng.choice([p for p in PAPER_POLICIES if p not in base["policies"]])
                payload = {"workloads": base["workloads"], "policies": [keep, add]}
            else:
                payload = rng.choice(history)
            history.append(payload)
            yield kind, payload


def pool_workload(index: int) -> dict:
    """The job payload's workload entry for the ``index``-th new job."""
    return {
        "name": f"{SERVICE_CATEGORY}-p{index}",
        "category": SERVICE_CATEGORY,
        "seed": _derive("service-mix", index),
        "trace_scale": SERVICE_TRACE_SCALE,
    }


def job_descriptor(workload: dict) -> dict:
    """The recipe the daemon rebuilds a job's workload from (jitter on)."""
    return {**workload, "footprint_scale": 1.0, "jitter": True}


def service_workload(descriptor: dict):
    import repro

    return repro.make_workload(
        descriptor["name"], repro.Category(descriptor["category"]),
        seed=descriptor["seed"], trace_scale=descriptor["trace_scale"],
        footprint_scale=descriptor["footprint_scale"],
    )


class Daemon:
    """One ``repro-sim serve`` subprocess at its default settings."""

    def __init__(self, root: Path, data_dir: Path, calibrations: list[float],
                 spans_out: Path | None = None):
        self.data_dir = data_dir
        self.calibrations = calibrations
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(spans_out)]
        command += ["serve", "--data-dir", str(data_dir)]
        self.log = open(data_dir.parent / f"{data_dir.name}.log", "wb")
        calibrations.append(calibrate())
        self.start = Meter().read()
        self.started = self.start[0]
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT
        )
        self.client = None

    def wait_healthy(self, timeout: float = 60.0) -> tuple[float, float]:
        """Poll until ``/v1/health`` answers; returns the spawn-to-health
        ``(wall, cpu)`` piece (CPU time: the daemon's and the client's)."""
        from repro.service import ServiceClient, ServiceError

        endpoint = self.data_dir / "endpoint.json"
        deadline = self.started + timeout
        while clock() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            if endpoint.exists():
                try:
                    client = ServiceClient.from_endpoint_file(endpoint)
                    client.health()
                except (ServiceError, OSError, ValueError):
                    pass
                else:
                    end = Meter(self.process.pid).read()
                    self.client = client
                    self.healthy_at = end[0]
                    self.calibrations.append(calibrate())
                    return piece(self.start, end)
            time.sleep(0.002)
        raise RuntimeError("daemon did not become healthy")

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; kill if it will not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        return self.process.returncode


def _journal_lines(data_dir: Path) -> int:
    lines = 0
    for path in data_dir.rglob("*.jsonl"):
        if "events" not in path.relative_to(data_dir).parts:
            with open(path, "rb") as handle:
                lines += sum(1 for _ in handle)
    return lines


def drive_jobs(daemon: Daemon, seed: int, seconds: float,
               tracer: Tracer | None = None) -> list[dict]:
    """Closed loop, one connection: submit, poll at 10 ms, fetch the result;
    until ``seconds`` of reference-host time have passed.

    A job's CPU time is the daemon's plus the client's over its interval;
    its ``exec`` interval (the daemon's ``started_at`` to ``finished_at``)
    is given that CPU time, up to its length.  A calibration runs after
    every job, into ``daemon.calibrations``.
    """
    client = daemon.client
    calibrations = daemon.calibrations
    meter = Meter(daemon.process.pid)
    wall_offset = time.time() - clock()
    jobs = []
    sequence = job_sequence(seed)
    elapsed = 0.0  # reference-host seconds, at the host speed seen so far
    started = clock()
    while not jobs or (elapsed < seconds and clock() - started < 3 * seconds):
        kind, payload = next(sequence)
        record = {"kind": kind, "payload": payload, "polls": 0}
        jobs.append(record)
        start = meter.read()
        try:
            t0 = start[0]
            summary = client.submit(payload)
            t1 = clock()
            while summary.get("state") not in TERMINAL:
                time.sleep(POLL_SECONDS)
                summary = client.status(summary["job"])
                record["polls"] += 1
            t2 = clock()
            document = client.result(summary["job"])
        except Exception as exc:  # noqa: BLE001 -- a failed job is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        end = meter.read()
        calibrations.append(_calibrate(tracer))
        record["piece"] = piece(start, end)
        elapsed += normalize(record["piece"], statistics.fmean(calibrations))
        if "error" in record:
            continue
        t3 = end[0]
        record.update(
            job=summary["job"], created=summary.get("created", True),
            state=summary["state"], latency=t3 - t0, document=document,
            submit=(t0, t1), result=(t2, t3),
        )
        if summary.get("started_at") is not None and record["created"]:
            started_at = max(t1, summary["started_at"] - wall_offset)
            finished_at = min(t2, max(started_at, summary["finished_at"] - wall_offset))
            record["queue"] = (t1, started_at)
            record["exec"] = (started_at, finished_at)
            record["exec_piece"] = piece((started_at, start[1]), (finished_at, end[1]))
        if tracer is not None:
            _job_spans(tracer, record)
    return jobs


def _calibrate(tracer: Tracer | None) -> float:
    if tracer is None:
        return calibrate()
    with tracer.span("bench.calibrate"):
        return calibrate()


def _job_spans(tracer: Tracer, record: dict) -> None:
    cell = f"job:{record['job']}"
    spans = [("service.submit", record["submit"])]
    if "queue" in record:
        spans += [("service.queue", record["queue"]), ("service.exec", record["exec"])]
    spans.append(("service.result", record["result"]))
    job_id = tracer.add_span("service.job", record["submit"][0], record["result"][1], cell=cell)
    for name, (start, end) in spans:
        span_id = tracer.add_span(name, start, end, parent=job_id, cell=cell)
        if name == "service.exec":
            record["exec_span"] = span_id


def graft_daemon_spans(tracer: Tracer, slots: list, dump: dict) -> None:
    """Hang each daemon root span under the client span whose interval
    holds it; ``slots`` lists ``((start, end), span id, cell)``."""
    offset = 1 << 40
    for record in dump["spans"]:
        record["id"] += offset
        if record["parent"] is not None:
            record["parent"] += offset
            tracer.adopt(record)
            continue
        middle = (record["start"] + record["end"]) / 2
        for (lo, hi), span_id, cell in slots:
            if lo <= middle <= hi:
                record["parent"] = span_id
                record["cell"] = cell
                tracer.adopt(record)
                break
    for name, value in dump["counters"].items():
        tracer.count(name, value)


def check_jobs(jobs: list[dict], oracle: Oracle) -> tuple[int, list[str]]:
    """Count failed jobs: errors, non-done states, and any cell or
    ``grid_signature`` that differs from the reference engine's."""
    from repro.experiments.content import grid_signature
    from repro.experiments.runner import CellResult, GridResult

    failed = 0
    problems = []
    for record in jobs:
        if "error" in record or record["state"] != "done":
            failed += 1
            problems.append(record.get("error", f"job {record.get('job')} {record.get('state')}"))
            continue
        descriptor = job_descriptor(record["payload"]["workloads"][0])
        policies = record["payload"]["policies"]
        oracle.prepare(descriptor, policies, lambda d=descriptor: service_workload(d))
        document = record["document"]
        cells = document.get("cells", [])
        ok = sorted(c["policy"] for c in cells) == sorted(policies) and all(
            oracle.matches(cell, descriptor) for cell in cells)
        if ok:
            # The cells equal the reference engine's, so the signature of a
            # reference-engine grid of these values is the expected one.
            expected = GridResult()
            for cell in cells:
                expected.add(CellResult(policy=cell["policy"], workload=descriptor["name"],
                                        elapsed_seconds=0.0,
                                        **{name: cell[name] for name in CELL_FIELDS}))
            ok = not document.get("partial") and \
                document.get("grid_signature") == grid_signature(expected)
        if not ok:
            failed += 1
            problems.append(f"job {record['job']}: output differs from the reference engine")
    return failed, problems


def run_service(root: Path, work: Path, seed: int, seconds: float, setups: int,
                oracle: Oracle, tracer: Tracer | None = None) -> dict:
    """Spawn the daemon ``setups`` times (set-up time), then drive jobs.

    With ``tracer`` the seconds are split: half against a plain daemon
    (the untraced baseline), half against a traced one with the same
    job sequence from the start.
    """
    samples = []  # set-up pieces
    calibrations: list[float] = []
    for index in range(setups - 1):
        daemon = Daemon(root, work / f"spawn-{index}", calibrations)
        try:
            samples.append(daemon.wait_healthy())
        finally:
            daemon.stop()
    daemon = Daemon(root, work / "service", calibrations)
    try:
        samples.append(daemon.wait_healthy())
        jobs = drive_jobs(daemon, seed, seconds / 2 if tracer else seconds)
        stats = daemon.client.stats()
        rss = peak_rss_mb(daemon.process.pid)
    finally:
        code = daemon.stop()
    result = _service_result(jobs, stats, rss, samples, statistics.fmean(calibrations), oracle)
    result["notes"]["daemon_exit"] = code
    result["notes"]["calibration_ms"] = 1000 * statistics.fmean(calibrations)
    result["journal_lines"] = _journal_lines(work / "service")
    if tracer is None:
        return result

    spans_out = work / "daemon-spans.json"
    traced = Daemon(root, work / "service-traced", calibrations, spans_out=spans_out)
    try:
        traced.wait_healthy()
        healthy = traced.healthy_at
        slots = [((traced.started, healthy),
                  tracer.add_span("service.spawn", traced.started, healthy), None)]
        traced_jobs = drive_jobs(traced, seed, seconds / 2, tracer)
        window = (traced.started, clock())
        traced_stats = traced.client.stats()
    finally:
        traced.stop()
    slots += [(r["exec"], r["exec_span"], f"job:{r['job']}")
              for r in traced_jobs if "exec_span" in r]
    graft_daemon_spans(tracer, slots, json.loads(spans_out.read_text(encoding="utf-8")))
    traced_result = _service_result(traced_jobs, traced_stats, rss, samples,
                                    statistics.fmean(calibrations), oracle)
    traced_result["journal_lines"] = _journal_lines(work / "service-traced")
    traced_result["window"] = window
    traced_result["baseline"] = result
    traced_result["attempted"] += result["attempted"]
    traced_result["failed"] += result["failed"]
    traced_result["problems"] += result["problems"]
    return traced_result


def _service_result(jobs, stats, rss, setup_pieces, calibration, oracle) -> dict:
    failed, problems = check_jobs(jobs, oracle)
    ok = [r for r in jobs if "latency" in r]
    executed = [r for r in ok if "exec" in r]
    raw_exec = [r["exec"][1] - r["exec"][0] for r in executed]
    exec_seconds = [normalize(r["exec_piece"], calibration) for r in executed]
    delivered = sum(c["instructions"] for r in executed for c in r["document"]["cells"])
    latencies = [normalize(r["piece"], calibration) for r in ok]
    setup_samples = [normalize(p, calibration) for p in setup_pieces]
    tail_value, tail_pct, tail_n = tail(latencies)
    hits = sum(r["document"]["stats"]["cache_hits"] for r in executed)
    computed = sum(r["document"]["stats"]["computed"] for r in executed)
    return {
        "attempted": len(jobs),
        "failed": failed,
        "problems": problems,
        "jobs": jobs,
        "metrics": {
            "setup_s": median(setup_samples),
            "sweep_s": median(exec_seconds),
            "sim_kips": delivered / 1000.0 / sum(exec_seconds),
            "job_p50_s": median(latencies),
            "job_tail_s": tail_value,
            "peak_rss_mb": rss,
        },
        "notes": {
            "setup_samples": setup_samples,
            "raw_setup_s": median(p[0] for p in setup_pieces),
            "raw_sweep_s": median(raw_exec),
            "raw_job_p50_s": median(r["latency"] for r in ok),
            "job_tail_percentile": tail_pct,
            "jobs": tail_n,
            "kinds": {k: sum(1 for r in jobs if r["kind"] == k) for k in SERVICE_BLOCK},
        },
        "stats": stats,
        "cache": {"hits": hits, "computed": computed},
    }
