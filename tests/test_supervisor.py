"""The supervised process executor, driven through the sweep scheduler.

Every sweep that needs worker isolation runs as
``SweepScheduler(cache, config, supervisor=SupervisorConfig(...))``, so
these tests exercise the supervisor exactly the way ``repro-sim grid``
does.  Every recovery path is exercised through the deterministic fault
harness (`repro.experiments.faults`) — no random failures, no flaky
sleeps: retry backoff waits go through an injected fake timer, and the
only real waiting anywhere is the sub-second per-cell timeout of the
hang tests.
"""

import json
import logging
import multiprocessing

import pytest

from repro.cli import main
from repro.experiments.cellcache import CellCache
from repro.experiments.content import grid_signature
from repro.experiments.faults import ALWAYS, FaultPlan, FaultSpec
from repro.experiments.journal import CellJournal
from repro.experiments.report_markdown import markdown_report
from repro.experiments.runner import (
    CellResult,
    FailedCell,
    GridResult,
    run_grid,
    validate_cell,
)
from repro.experiments.scheduler import SweepScheduler
from repro.experiments.supervisor import RetryPolicy, SupervisorConfig
from repro.frontend.config import FrontEndConfig
from repro.obs import Observability
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload

# "fork" starts workers in milliseconds on POSIX; fall back to the
# universally available (but slower) "spawn" elsewhere.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

# Retry instantly (and deterministically) unless a test cares about the
# backoff schedule itself.
FAST_RETRY = RetryPolicy(
    max_retries=2, backoff_base_seconds=0.001, jitter_fraction=0.0
)


def supervisor_config(**overrides) -> SupervisorConfig:
    settings = {"workers": 1, "start_method": START_METHOD}
    settings.update(overrides)
    return SupervisorConfig(**settings)


def supervised(tmp_path, config, *, timer=None, retry=FAST_RETRY,
               supervisor=None, **kwargs) -> SweepScheduler:
    """A scheduler over ``tmp_path/cache`` with the process executor."""
    if timer is not None:
        kwargs.update(monotonic=timer.clock, sleep=timer.sleep)
    return SweepScheduler(
        tmp_path / "cache", config, retry=retry,
        supervisor=supervisor or supervisor_config(), **kwargs,
    )


class FakeTimer:
    """A coupled clock/sleep pair: sleeping advances the clock instantly."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        "w", Category.SHORT_MOBILE, seed=1, trace_scale=0.02, footprint_scale=0.3
    )


@pytest.fixture(scope="module")
def config():
    return FrontEndConfig(
        icache_bytes=8 * 1024, icache_assoc=4, btb_entries=256,
        warmup_cap_instructions=1000,
    )


def simulated_fields(cell: CellResult) -> tuple:
    """Every field except the wall-clock timings (which never reproduce)."""
    return (
        cell.policy, cell.workload, cell.icache_mpki, cell.btb_mpki,
        cell.icache_misses, cell.btb_misses, cell.instructions,
        cell.branches, cell.direction_accuracy, cell.dead_evictions,
        cell.bypasses,
    )


class TestDeterminism:
    def test_single_worker_matches_serial_runner(self, tmp_path, workload, config):
        serial = run_grid([workload], ["lru", "random"], config)
        supervised_grid = supervised(tmp_path, config).run(
            [workload], ["lru", "random"]
        )
        assert supervised_grid.complete
        assert [simulated_fields(c) for c in supervised_grid.cells] == [
            simulated_fields(c) for c in serial.cells
        ]

    def test_parallel_results_arrive_in_request_order(self, tmp_path, config):
        workloads = [
            make_workload(f"w{i}", Category.SHORT_MOBILE, seed=i,
                          trace_scale=0.02, footprint_scale=0.3)
            for i in (1, 2)
        ]
        grid = supervised(
            tmp_path, config, supervisor=supervisor_config(workers=2),
        ).run(workloads, ["lru", "random"])
        assert [(c.workload, c.policy) for c in grid.cells] == [
            ("w1", "lru"), ("w1", "random"), ("w2", "lru"), ("w2", "random"),
        ]


class TestRetries:
    def test_flaky_cell_succeeds_after_retries(self, tmp_path, workload, config):
        plan = FaultPlan().add("lru", "w", FaultSpec("raise", fail_attempts=2))
        retry = RetryPolicy(max_retries=2, backoff_base_seconds=0.5,
                            backoff_factor=2.0, jitter_fraction=0.1, seed=7)
        timer = FakeTimer()
        obs = Observability()
        grid = supervised(
            tmp_path, config, retry=retry, fault_plan=plan, obs=obs,
            timer=timer,
        ).run([workload], ["lru"])
        assert grid.complete and len(grid.cells) == 1
        assert obs.metrics.counter("scheduler.retries") == 2
        assert obs.metrics.counter("scheduler.cells_computed") == 1
        # The backoff waits follow the policy's deterministic schedule —
        # recorded by the injected fake timer, so the test never sleeps.
        expected = [retry.backoff_seconds("lru", "w", attempt)
                    for attempt in (0, 1)]
        assert timer.sleeps == pytest.approx(expected)

    def test_backoff_schedule_is_deterministic_and_bounded(self):
        retry = RetryPolicy(backoff_base_seconds=1.0, backoff_factor=3.0,
                            backoff_max_seconds=5.0, jitter_fraction=0.2, seed=3)
        first = [retry.backoff_seconds("p", "w", a) for a in range(6)]
        again = [retry.backoff_seconds("p", "w", a) for a in range(6)]
        assert first == again
        assert all(delay <= 5.0 * 1.2 for delay in first)
        assert retry.backoff_seconds("p", "w", 0) != retry.backoff_seconds(
            "p", "other", 0
        )

    def test_always_failing_cell_degrades_to_failed_cell(
        self, tmp_path, workload, config
    ):
        plan = FaultPlan().add("random", "w", FaultSpec("raise", ALWAYS))
        grid = supervised(
            tmp_path, config,
            retry=RetryPolicy(max_retries=1, backoff_base_seconds=0.001,
                              jitter_fraction=0.0),
            fault_plan=plan, timer=FakeTimer(),
        ).run([workload], ["lru", "random"])
        assert [c.policy for c in grid.cells] == ["lru"]
        assert not grid.complete
        (failure,) = grid.failed
        assert failure == FailedCell(
            policy="random", workload="w", kind="error",
            error_type="FaultInjected", message=failure.message,
            attempts=2, elapsed_seconds=failure.elapsed_seconds,
        )
        assert "attempt" in failure.message

    def test_partial_grid_report_annotates_the_gap(self, tmp_path, workload, config):
        plan = FaultPlan().add("random", "w", FaultSpec("raise", ALWAYS))
        grid = supervised(
            tmp_path, config, retry=RetryPolicy(max_retries=0), fault_plan=plan,
        ).run([workload], ["lru", "random"])
        report = markdown_report(grid)
        assert "Partial result: 1 cell(s) failed" in report
        assert "### Failed cells" in report
        assert "FaultInjected" in report
        # The surviving cell still renders normally.
        assert "lru" in report


class TestIsolation:
    def test_hang_is_killed_at_the_timeout(self, tmp_path, workload, config):
        plan = FaultPlan().add("lru", "w", FaultSpec("hang", fail_attempts=1))
        obs = Observability()
        grid = supervised(
            tmp_path, config,
            supervisor=supervisor_config(cell_timeout_seconds=0.5),
            retry=RetryPolicy(max_retries=1, backoff_base_seconds=0.001,
                              jitter_fraction=0.0),
            fault_plan=plan, obs=obs,
        ).run([workload], ["lru"])
        assert grid.complete and len(grid.cells) == 1
        assert obs.metrics.counter("supervisor.timeouts") == 1
        assert obs.metrics.counter("scheduler.retries") == 1

    def test_hang_with_no_retries_becomes_timeout_failure(
        self, tmp_path, workload, config
    ):
        plan = FaultPlan().add("lru", "w", FaultSpec("hang", ALWAYS))
        grid = supervised(
            tmp_path, config,
            supervisor=supervisor_config(cell_timeout_seconds=0.3),
            retry=RetryPolicy(max_retries=0), fault_plan=plan,
        ).run([workload], ["lru"])
        (failure,) = grid.failed
        assert failure.kind == "timeout"
        assert failure.error_type == "CellTimeout"
        assert "0.3" in failure.message

    def test_worker_crash_is_isolated_and_pool_replenished(
        self, tmp_path, workload, config
    ):
        plan = FaultPlan().add("lru", "w", FaultSpec("crash", fail_attempts=1))
        obs = Observability()
        grid = supervised(tmp_path, config, fault_plan=plan, obs=obs).run(
            [workload], ["lru", "random"]
        )
        assert grid.complete and len(grid.cells) == 2
        assert obs.metrics.counter("supervisor.crashes") == 1
        # A replacement worker was started after the crash.
        assert obs.metrics.counter("supervisor.workers_started") >= 2

    def test_garbage_result_is_rejected_and_retried(
        self, tmp_path, workload, config
    ):
        plan = FaultPlan().add("lru", "w", FaultSpec("garbage", fail_attempts=1))
        obs = Observability()
        grid = supervised(tmp_path, config, fault_plan=plan, obs=obs).run(
            [workload], ["lru"]
        )
        assert grid.complete
        assert obs.metrics.counter("scheduler.attempts_garbage") == 1
        assert validate_cell(grid.cells[0]) is None

    def test_progress_exception_escapes_after_caching_and_reaps_workers(
        self, tmp_path, workload, config
    ):
        # The job service cancels, drains and expires jobs by raising out
        # of the progress callback: the cell is cached first, and no
        # worker process outlives the run.
        class Stop(Exception):
            pass

        def progress(cell):
            raise Stop(cell.policy)

        scheduler = supervised(tmp_path, config,
                               supervisor=supervisor_config(workers=2))
        with pytest.raises(Stop):
            scheduler.run([workload], ["lru", "random"], progress=progress)
        assert len(CellCache(tmp_path / "cache")) >= 1
        assert multiprocessing.active_children() == []

    def test_persistent_garbage_degrades_with_garbage_kind(
        self, tmp_path, workload, config
    ):
        plan = FaultPlan().add("lru", "w", FaultSpec("garbage", ALWAYS))
        grid = supervised(
            tmp_path, config, retry=RetryPolicy(max_retries=0), fault_plan=plan,
        ).run([workload], ["lru"])
        (failure,) = grid.failed
        assert failure.kind == "garbage"
        assert failure.error_type == "GarbageResult"


class TestCheckpointResume:
    def test_resume_recomputes_only_unfinished_cells(
        self, tmp_path, workload, config
    ):
        first_plan = FaultPlan().add("random", "w", FaultSpec("raise", ALWAYS))
        first = supervised(
            tmp_path, config, retry=RetryPolicy(max_retries=0),
            fault_plan=first_plan, timer=FakeTimer(),
        ).run([workload], ["lru", "random"])
        assert not first.complete
        assert len(CellCache(tmp_path / "cache")) == 1  # lru cached

        # Second run: fault the *completed* cell unconditionally.  It can
        # only succeed if resume served it from the cache without ever
        # dispatching it; the previously failed cell recomputes cleanly.
        second_plan = FaultPlan().add("lru", "w", FaultSpec("raise", ALWAYS))
        obs = Observability()
        timer = FakeTimer()
        second = supervised(
            tmp_path, config, fault_plan=second_plan, obs=obs, timer=timer,
        ).run([workload], ["lru", "random"])
        assert second.complete and len(second.cells) == 2
        assert obs.metrics.counter("scheduler.cache_hits") == 1
        assert obs.metrics.counter("scheduler.cells_computed") == 1
        assert len(CellCache(tmp_path / "cache")) == 2

    def test_resumed_cells_match_fresh_simulation(self, tmp_path, workload, config):
        fresh = supervised(tmp_path, config).run([workload], ["lru"])
        rerun = supervised(tmp_path, config)
        resumed = rerun.run([workload], ["lru"])
        assert rerun.stats.cache_hits == 1 and rerun.stats.computed == 0
        assert [simulated_fields(c) for c in resumed.cells] == [
            simulated_fields(c) for c in fresh.cells
        ]


class TestObservability:
    def test_worker_metrics_and_spans_merge_into_parent(
        self, tmp_path, workload, config
    ):
        obs = Observability()
        timer = FakeTimer()
        supervised(tmp_path, config, obs=obs, timer=timer).run(
            [workload], ["lru"]
        )
        counters = obs.metrics.snapshot()["counters"]
        assert any(
            not name.startswith(("supervisor.", "scheduler."))
            for name in counters
        ), "expected worker-side simulation counters to merge into the parent"
        (root,) = obs.spans.tree()
        assert root["name"] == "scheduled_sweep"
        labels = [child["name"] for child in root["children"]]
        assert "worker:lru/w" in labels


class TestAcceptanceScenario:
    """The issue's acceptance grid: one always-failing cell, one hang,
    one fail-twice-then-succeed cell — plus resume from the cache."""

    def test_injected_fault_grid_completes_with_annotated_gaps(
        self, tmp_path, workload, config
    ):
        plan = (
            FaultPlan()
            .add("lru", "w", FaultSpec("raise", fail_attempts=2))   # flaky
            .add("random", "w", FaultSpec("hang", fail_attempts=1))  # hangs once
            .add("fifo", "w", FaultSpec("raise", ALWAYS))            # dead
        )
        obs = Observability()
        grid = supervised(
            tmp_path, config,
            supervisor=supervisor_config(workers=2, cell_timeout_seconds=0.5),
            retry=RetryPolicy(max_retries=2, backoff_base_seconds=0.001,
                              jitter_fraction=0.0),
            fault_plan=plan, obs=obs,
        ).run([workload], ["lru", "random", "fifo", "srrip"])
        # Flaky + hanging cells recovered; the dead cell degraded.
        assert [(c.policy) for c in grid.cells] == ["lru", "random", "srrip"]
        (failure,) = grid.failed
        assert (failure.policy, failure.kind, failure.attempts) == (
            "fifo", "error", 3
        )
        assert obs.metrics.counter("supervisor.timeouts") == 1
        assert obs.metrics.counter("scheduler.retries") >= 3

        # Resume recomputes only the dead cell (fault it no longer has).
        obs2 = Observability()
        timer = FakeTimer()
        resumed = supervised(tmp_path, config, obs=obs2, timer=timer).run(
            [workload], ["lru", "random", "fifo", "srrip"]
        )
        assert resumed.complete and len(resumed.cells) == 4
        assert obs2.metrics.counter("scheduler.cache_hits") == 3
        assert obs2.metrics.counter("scheduler.cells_computed") == 1


class TestExecutorParity:
    """One fault plan through both executors: the attempt loop is shared,
    so the grid, the failures, the journal and the counters all agree."""

    @staticmethod
    def sweep(root, config, workload, supervisor):
        plan = (
            FaultPlan()
            .add("lru", "w", FaultSpec("raise", ALWAYS))
            .add("random", "w", FaultSpec("raise", fail_attempts=1))
            .add("srrip", "w", FaultSpec("garbage", fail_attempts=1))
        )
        obs = Observability()
        timer = FakeTimer()
        scheduler = SweepScheduler(
            root / "cache", config, retry=FAST_RETRY, supervisor=supervisor,
            fault_plan=plan, obs=obs, monotonic=timer.clock, sleep=timer.sleep,
        )
        grid = scheduler.run([workload], ["lru", "random", "srrip", "fifo"])
        journal: dict[str, list] = {}
        for event in CellJournal.read(scheduler.cache.journal_path):
            journal.setdefault(event["digest"], []).append((
                event["event"], event.get("attempt"), event.get("kind"),
                event.get("error"),
            ))
        counters = {
            name: value
            for name, value in obs.metrics.snapshot()["counters"].items()
            if name.startswith("scheduler.")
        }
        failures = [(f.policy, f.kind, f.error_type, f.attempts)
                    for f in grid.failed]
        return grid_signature(grid), failures, journal, counters

    def test_inline_and_supervised_runs_agree(self, tmp_path, workload, config):
        inline = self.sweep(tmp_path / "inline", config, workload, None)
        pooled = self.sweep(tmp_path / "pool", config, workload,
                            supervisor_config(workers=2))
        assert inline == pooled
        _, failures, _, counters = inline
        assert failures == [("lru", "error", "FaultInjected", 3)]
        assert counters["scheduler.cells_computed"] == 3
        assert counters["scheduler.cells_failed"] == 1
        assert counters["scheduler.attempts_error"] == 4
        assert counters["scheduler.attempts_garbage"] == 1
        assert counters["scheduler.retries"] == 4


class TestGridResultDuplicates:
    def cell(self, policy="lru", workload="w", mpki=1.0):
        return CellResult(
            policy=policy, workload=workload, icache_mpki=mpki, btb_mpki=0.5,
            icache_misses=10, btb_misses=5, instructions=1000, branches=100,
            direction_accuracy=0.9, dead_evictions=0, bypasses=0,
            elapsed_seconds=0.1,
        )

    def test_duplicate_key_logs_warning_and_keeps_first(self, caplog):
        grid = GridResult()
        grid.add(self.cell(mpki=1.0))
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
            grid.add(self.cell(mpki=9.0))
        assert "duplicate grid cell" in caplog.text
        assert len(grid.cells) == 1
        assert grid.cell("lru", "w").icache_mpki == 1.0

    def test_constructor_deduplicates_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
            grid = GridResult(cells=[self.cell(mpki=1.0), self.cell(mpki=9.0)])
        assert "duplicate grid cell" in caplog.text
        assert len(grid.cells) == 1

    def test_distinct_keys_do_not_warn(self, caplog):
        grid = GridResult()
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
            grid.add(self.cell(policy="lru"))
            grid.add(self.cell(policy="ghrp"))
        assert "duplicate" not in caplog.text
        assert len(grid.cells) == 2


class TestGridCli:
    def test_grid_subcommand_runs_and_resumes(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = [
            "grid", "--limit", "1", "--trace-scale", "0.02", "--seed", "7",
            "--policies", "lru", "random", "--workers", "1", "--retries", "1",
            "--backoff-base", "0.001", "--icache-kb", "8",
            "--start-method", START_METHOD,
            "--cache-dir", str(cache),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 miss(es), 2 computed" in out
        assert main(args) == 0  # resume: everything served from the cache
        out = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es), 0 computed" in out

    def test_grid_signature_is_the_same_with_and_without_cache_dir(
        self, tmp_path, monkeypatch
    ):
        import tempfile

        grids = []
        real_run = SweepScheduler.run

        def recording_run(self, *args, **kwargs):
            grids.append(real_run(self, *args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(SweepScheduler, "run", recording_run)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        args = [
            "grid", "--limit", "1", "--trace-scale", "0.02", "--seed", "7",
            "--policies", "lru", "ghrp", "--workers", "2", "--icache-kb", "8",
            "--start-method", START_METHOD,
        ]
        assert main(args) == 0
        assert list(scratch.iterdir()) == []  # the throwaway cache is gone
        assert main(args + ["--cache-dir", str(tmp_path / "cache")]) == 0
        from repro.workloads.suite import make_suite

        serial = run_grid(
            make_suite(base_seed=7, trace_scale=0.02)[:1], ["lru", "ghrp"],
            FrontEndConfig(icache_bytes=8 * 1024, icache_policy="lru",
                           btb_policy="lru"),
        )
        assert [grid_signature(g) for g in grids] == [grid_signature(serial)] * 2

    def test_grid_subcommand_exits_2_on_partial_grid(self, tmp_path, capsys):
        code = main([
            "grid", "--limit", "1", "--trace-scale", "0.02", "--seed", "7",
            "--policies", "lru", "random", "--workers", "1", "--retries", "0",
            "--icache-kb", "8", "--start-method", START_METHOD,
            "--inject-fault", "random/short-mobile-00=raise",
            "--report", str(tmp_path / "report.md"),
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "partial grid" in out
        report = (tmp_path / "report.md").read_text()
        assert "### Failed cells" in report

    def test_inject_fault_argument_validation(self):
        with pytest.raises(SystemExit):
            main(["grid", "--inject-fault", "not-a-fault-spec"])

    def test_partial_grid_flushes_artifacts_before_exit_2(self, tmp_path, capsys):
        # Shutdown-path ordering: the report (with embedded telemetry)
        # and the metrics summary are durably written even when the grid
        # exits 2 — machine-read evidence must not depend on a clean run.
        report = tmp_path / "report.md"
        metrics = tmp_path / "metrics.json"
        code = main([
            "grid", "--limit", "1", "--trace-scale", "0.02", "--seed", "7",
            "--policies", "lru", "random", "--workers", "1", "--retries", "0",
            "--icache-kb", "8", "--start-method", START_METHOD,
            "--inject-fault", "random/short-mobile-00=raise",
            "--telemetry", "--telemetry-interval", "256",
            "--report", str(report), "--metrics-out", str(metrics),
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "partial grid" in out
        assert "### Failed cells" in report.read_text()
        summary = json.loads(metrics.read_text())
        assert "counters" in summary or summary  # parses as a full document
        # The artifact lines print before the failure summary.
        assert out.index("wrote report to") < out.index("partial grid")

    def test_artifacts_survive_headline_renderer_crash(
        self, tmp_path, capsys, monkeypatch
    ):
        # Even a crash while rendering the console summary leaves the
        # durable artifacts complete on disk (they are written first).
        from repro.experiments import figures

        def explode(*args, **kwargs):
            raise RuntimeError("renderer crashed")

        monkeypatch.setattr(figures, "headline_numbers", explode)
        report = tmp_path / "report.md"
        metrics = tmp_path / "metrics.json"
        with pytest.raises(RuntimeError, match="renderer crashed"):
            main([
                "grid", "--limit", "1", "--trace-scale", "0.02", "--seed", "7",
                "--policies", "lru", "--workers", "1", "--retries", "0",
                "--icache-kb", "8", "--start-method", START_METHOD,
                "--report", str(report), "--metrics-out", str(metrics),
            ])
        assert "GHRP reproduction report" in report.read_text()
        json.loads(metrics.read_text())
