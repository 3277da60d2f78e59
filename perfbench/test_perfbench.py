"""The benchmark's own tests: its output check, trace accounting, provenance
gate and regression bounds.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
``test_gate_flags_injected_slowdown`` runs the benchmark fifteen times
(about eight minutes on a 2-core host); five runs per set keep the
repeat's median well inside the bounds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import provenance  # noqa: E402
import workloads  # noqa: E402
from check import CELL_FIELDS, Oracle  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_what_run_prints():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_self_times_and_remainder_add_up_to_wall():
    tracer = Tracer()
    start = 100.0
    root = tracer.add_span("sweep", start, start + 10.0)
    cell = tracer.add_span("runner", start + 1.0, start + 6.0, parent=root)
    tracer.add_span("engine.reference.run", start + 2.0, start + 5.0, parent=cell)
    tracer.adopt({"id": 99, "name": "workloads.walk", "parent": cell, "cell": None,
                  "start": start + 1.0, "end": start + 2.0, "seconds": 0.5, "count": 3})
    totals, roots = self_times(tracer.records())
    assert totals == pytest.approx(
        {"sweep": 5.0, "runner": 1.5, "engine.reference.run": 3.0, "workloads.walk": 0.5})
    wall = 12.0
    assert sum(totals.values()) + (wall - roots) == pytest.approx(wall)


def test_live_spans_nest_per_thread():
    tracer = Tracer()
    with tracer.span("runner", cell="lru/w"):
        with tracer.span("frontend.build") as inner:
            pass
    records = {r["name"]: r for r in tracer.records()}
    assert inner["parent"] == records["runner"]["id"]
    assert inner["cell"] == "lru/w"


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert workloads.tail(list(range(40))) == (29, 75.0, 40)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_job_sequence_is_seeded_and_mixed():
    sequence = _take(workloads.job_sequence(7), 50)
    assert sequence == _take(workloads.job_sequence(7), 50)
    assert sequence != _take(workloads.job_sequence(8), 50)
    kinds = [kind for kind, _ in sequence[:48]]
    assert kinds[:4] == ["new"] * 4
    assert (kinds.count("new"), kinds.count("overlap"), kinds.count("resubmit")) == (32, 8, 8)


def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


@pytest.fixture(scope="module")
def tiny_grid():
    """All five policies on one tiny workload, with its reference oracle."""
    import repro.api as api

    descriptor = {"name": "short-mobile-0", "category": "short-mobile", "seed": 11,
                  "trace_scale": 0.01, "jitter": False}
    oracle = Oracle("unrecorded-test-workload")
    oracle.prepare(descriptor, workloads.PAPER_POLICIES,
                   lambda: workloads.synthesize(descriptor))
    grid = api.sweep(workloads.synthesize(descriptor),
                     api.SweepOptions(policies=workloads.PAPER_POLICIES))
    cells = [{"policy": c.policy, "workload": c.workload,
              **{name: getattr(c, name) for name in CELL_FIELDS}} for c in grid.cells]
    return descriptor, oracle, cells


def test_perturbed_cell_counts_as_failed(tiny_grid):
    descriptor, oracle, cells = tiny_grid
    assert workloads.check_grids([cells], [descriptor], oracle) == (5, 0, [])
    cells = [dict(cell) for cell in cells]
    cells[2]["icache_misses"] += 1
    attempted, failed, mismatches = workloads.check_grids([cells], [descriptor], oracle)
    assert (attempted, failed) == (5, 1)
    assert mismatches == [f"{cells[2]['policy']}/{descriptor['name']}"]
    # A cell that never came back counts too.
    assert workloads.check_grids([cells[1:]], [descriptor], oracle)[1] == 2


def test_perturbed_job_counts_as_failed():
    import repro.api as api
    from repro.experiments.content import grid_signature

    workload = {"name": "short-server-s5", "category": "short-server", "seed": 5,
                "trace_scale": 0.01}
    payload = {"workloads": [workload], "policies": ["lru", "ghrp"]}
    grid = api.sweep(workloads.service_workload(workloads.job_descriptor(workload)),
                     api.SweepOptions(policies=("lru", "ghrp")))
    document = {"grid_signature": grid_signature(grid), "partial": False,
                "cells": [dataclasses.asdict(c) for c in grid.cells]}

    def job(doc):
        return {"kind": "new", "payload": payload, "job": "j", "state": "done",
                "document": doc}

    oracle = Oracle("unrecorded-test-service")
    assert workloads.check_jobs([job(document)], oracle) == (0, [])
    flipped = json.loads(json.dumps(document))
    flipped["cells"][1]["btb_misses"] += 1
    assert workloads.check_jobs([job(flipped)], oracle)[0] == 1
    resigned = dict(document, grid_signature="0" * 64)
    assert workloads.check_jobs([job(resigned)], oracle)[0] == 1
    assert workloads.check_jobs([{"kind": "new", "payload": payload, "error": "x"}],
                                oracle)[0] == 1


def _result(workload, seed, host="h", digest="d", **metrics):
    return {
        "trace": 0,
        "provenance": {"workload": workload, "seed": seed, "input_digest": digest,
                       "host": {"digest": host}},
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def test_comparison_refuses_different_hosts_or_inputs():
    bounds = {"sweep_s": {"bound": 0.15, "better": "lower"}}
    base = [_result("grid-paper", 1, sweep_s=7.0)]
    verdict, lines = provenance.compare(base, [_result("grid-paper", 1, host="x", sweep_s=7.0)],
                                        bounds)
    assert verdict == "not comparable" and "host" in lines[0]
    verdict, lines = provenance.compare(base, [_result("grid-paper", 1, digest="e", sweep_s=7.0)],
                                        bounds)
    assert verdict == "not comparable" and "input digests" in lines[0]
    assert provenance.compare(base, [_result("grid-paper", 1, sweep_s=7.5)], bounds)[0] == "pass"
    assert provenance.compare(base, [_result("grid-paper", 1, sweep_s=8.5)], bounds)[0] == \
        "regressed"


def _bench(out: Path, seed: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "grid-paper", "--seed", str(seed),
         "--seconds", "1", "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    stamp = json.loads(next(line for line in done.stdout.splitlines()
                            if line.startswith("provenance: "))[len("provenance: "):])
    record = {"trace": 0, "provenance": stamp, **result}
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{seed}.json").write_text(json.dumps(record), encoding="utf-8")
    assert result["correct"] and result["failed"] == 0
    return record


def test_gate_flags_injected_slowdown(tmp_path):
    """A reference engine that sleeps a fifth of each run() call's time must
    flag sweep_s on grid-paper and leave setup_s alone; a repeat of
    unchanged code must pass."""
    bounds = provenance.bounds_from_benchmark()
    seeds = (1, 2, 3, 4, 5)
    for seed in seeds:
        _bench(tmp_path / "base", seed)
        _bench(tmp_path / "slow", seed, "--gate-selfcheck")
        _bench(tmp_path / "repeat", seed)
    base = provenance.load_results(tmp_path / "base")
    verdict, lines = provenance.compare(base, provenance.load_results(tmp_path / "slow"), bounds)
    assert verdict == "regressed", lines
    flagged = {line.split()[1] for line in lines if line.endswith("REGRESSED")}
    assert "sweep_s" in flagged and "setup_s" not in flagged, lines
    verdict, lines = provenance.compare(base, provenance.load_results(tmp_path / "repeat"), bounds)
    assert verdict == "pass", lines


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
