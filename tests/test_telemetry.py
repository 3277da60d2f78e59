"""Tests for the interval-telemetry pipeline (repro.telemetry).

Covers the recorder itself (sample math, the ring buffer, heatmap
accumulators), the OpenMetrics exporter, the run manifest, the sampling
profiler, the perf-regression ledger + ``bench-diff``, and the CLI
surfaces that tie them together.  The byte-identical-when-off contract
is proved separately in ``test_telemetry_differential.py``.
"""

import json

import pytest

from repro.cli import main
from repro.frontend.config import FrontEndConfig
from repro.frontend.options import RunOptions
from repro.obs import MetricsRegistry
from repro.telemetry import (
    TelemetryConfig,
    TelemetryRun,
    append_bench_history,
    build_run_manifest,
    config_digest,
    diff_bench_entries,
    read_bench_history,
    render_bench_diff,
    render_openmetrics,
    render_profile,
    write_run_manifest,
)
from repro.telemetry.bench import PolicyDiff
from repro.telemetry.interval import TELEMETRY_SCHEMA
from repro.telemetry.manifest import MANIFEST_SCHEMA
from repro.telemetry.openmetrics import sanitize_metric_name
from repro.telemetry.profiler import PHASES, LoopProfiler, profile_call
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload

from repro.api import simulate


def _small_workload(seed=3):
    return make_workload("tele", Category.SHORT_MOBILE, seed=seed,
                         trace_scale=0.05)


def _telemetry_result(engine="reference", interval=500, **cfg):
    workload = _small_workload()
    config = FrontEndConfig(icache_policy=cfg.pop("policy", "ghrp"), **cfg)
    options = RunOptions.from_config_warmup(
        config, workload.instruction_count()
    )
    from dataclasses import replace
    options = replace(
        options, telemetry=TelemetryConfig(interval_branches=interval)
    )
    return simulate(workload, config=config, engine=engine, options=options)


class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.interval_branches == 4096
        assert config.max_intervals == 512
        assert config.heatmap is True

    @pytest.mark.parametrize("field,value", [
        ("interval_branches", 0),
        ("interval_branches", -5),
        ("max_intervals", 0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            TelemetryConfig(**{field: value})


class TestIntervalRecorder:
    def test_samples_cover_the_run(self):
        result = _telemetry_result()
        run = result.telemetry
        assert run is not None
        samples = run.samples
        assert len(samples) >= 2
        # Branch counts are monotone and samples land on interval strides
        # (except the final partial flush).
        branches = [sample["branches"] for sample in samples]
        assert branches == sorted(branches)
        for sample in samples[:-1]:
            assert sample["branches"] % 500 == 0 or sample["d_branches"] > 0
        # Deltas reconcile with the totals.
        assert sum(s["d_branches"] for s in samples) == result.branches
        assert sum(s["d_instructions"] for s in samples) == result.instructions
        assert (
            sum(s["icache"]["misses"] for s in samples)
            == result.icache_total.misses
        )

    def test_mpki_math(self):
        run = _telemetry_result().telemetry
        for sample in run.samples:
            expected = (
                1000.0 * sample["icache"]["misses"] / sample["d_instructions"]
                if sample["d_instructions"] else 0.0
            )
            assert sample["icache"]["mpki"] == pytest.approx(expected)

    def test_predictor_counters_for_ghrp(self):
        run = _telemetry_result(policy="ghrp").telemetry
        predictor = run.samples[0]["predictor"]
        assert predictor is not None
        assert set(predictor) == {
            "predictions", "increments", "decrements", "saturation"
        }
        assert 0.0 <= predictor["saturation"] <= 1.0

    def test_predictor_absent_for_lru(self):
        run = _telemetry_result(policy="lru").telemetry
        assert all(s["predictor"] is None for s in run.samples)

    def test_ring_buffer_drops_oldest(self):
        from dataclasses import replace
        workload = _small_workload()
        config = FrontEndConfig(icache_policy="lru")
        options = RunOptions.from_config_warmup(
            config, workload.instruction_count()
        )
        options = replace(options, telemetry=TelemetryConfig(
            interval_branches=200, max_intervals=4
        ))
        run = simulate(workload, config=config, options=options).telemetry
        assert len(run.samples) == 4
        assert run.dropped > 0
        # The survivors are the newest intervals, numbered contiguously.
        indices = [sample["interval"] for sample in run.samples]
        assert indices == list(range(run.dropped, run.dropped + 4))

    def test_heatmap_shape_and_toggle(self):
        from dataclasses import replace
        workload = _small_workload()
        config = FrontEndConfig(icache_policy="lru")
        base = RunOptions.from_config_warmup(
            config, workload.instruction_count()
        )
        on = simulate(workload, config=config, options=replace(
            base, telemetry=TelemetryConfig(interval_branches=500)
        )).telemetry
        from repro.cache.geometry import CacheGeometry
        geometry = CacheGeometry.from_capacity(
            config.icache_bytes, config.icache_assoc, config.block_size
        )
        icache_map = on.heatmap["icache"]
        assert icache_map["sets"] == geometry.num_sets
        assert icache_map["ways"] == geometry.associativity
        assert len(icache_map["churn"]) == geometry.num_sets
        assert all(0.0 <= occ <= geometry.associativity
                   for occ in icache_map["mean_occupancy"])
        off = simulate(workload, config=config, options=replace(
            base,
            telemetry=TelemetryConfig(interval_branches=500, heatmap=False),
        )).telemetry
        assert off.heatmap is None

    def test_run_round_trip(self):
        run = _telemetry_result().telemetry
        data = run.to_dict()
        assert data["schema"] == TELEMETRY_SCHEMA
        revived = TelemetryRun.from_dict(data)
        assert revived.to_dict() == data
        assert revived.series("icache", "mpki") == run.series("icache", "mpki")


class TestOpenMetrics:
    def test_sanitize(self):
        assert sanitize_metric_name("icache.misses", "repro") \
            == "repro_icache_misses"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("") == "unnamed"

    def test_rendering_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("icache.misses", 7)
        registry.set_gauge("run.mpki", 2.5)
        registry.observe("cell.seconds", 3.0, bounds=(1, 4))
        text = render_openmetrics(registry.snapshot())
        assert "# TYPE repro_icache_misses counter" in text
        assert "repro_icache_misses_total 7" in text
        assert "repro_run_mpki 2.5" in text
        assert 'repro_cell_seconds_bucket{le="4"} 1' in text
        assert 'repro_cell_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_cell_seconds_count 1" in text
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        for value in (0.5, 2.0, 10.0):
            registry.observe("lat", value, bounds=(1, 4))
        text = render_openmetrics(registry.snapshot())
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="4"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text

    def test_interval_series(self):
        run = _telemetry_result().telemetry
        text = render_openmetrics({}, run)
        assert "# TYPE repro_interval_icache_mpki gauge" in text
        assert 'repro_interval_icache_mpki{interval="0"}' in text
        assert "# TYPE repro_interval_btb_misses gauge" in text

    def test_deterministic(self):
        registry = MetricsRegistry()
        registry.inc("b.two")
        registry.inc("a.one")
        run = _telemetry_result().telemetry
        snapshot = registry.snapshot()
        assert render_openmetrics(snapshot, run) \
            == render_openmetrics(snapshot, run.to_dict())


class TestRunManifest:
    def test_build_and_write(self, tmp_path):
        result = _telemetry_result()
        config = FrontEndConfig(icache_policy="ghrp")
        manifest = build_run_manifest(
            result=result, config=config, engine="reference",
            workload_name="tele", seed=3, argv=["simulate"],
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["icache_policy"] == "ghrp"
        assert manifest["btb_policy"] == config.effective_btb_policy
        assert manifest["config_digest"] == config_digest(config)
        assert manifest["result"]["instructions"] == result.instructions
        assert len(manifest["telemetry"]["samples"]) >= 2
        path = write_run_manifest(tmp_path / "deep" / "run.json", manifest)
        assert json.loads(path.read_text())["workload"] == "tele"

    def test_config_digest_is_stable_and_sensitive(self):
        first = FrontEndConfig(icache_policy="lru")
        second = FrontEndConfig(icache_policy="lru")
        changed = FrontEndConfig(icache_policy="ghrp")
        assert config_digest(first) == config_digest(second)
        assert config_digest(first) != config_digest(changed)


class TestProfiler:
    def test_phases_and_report(self):
        def busy():
            total = 0
            for i in range(2_000_000):
                total += i
            return total

        report = profile_call(busy, interval_seconds=0.001)[1]
        assert report.total >= 1
        assert set(report.samples) <= set(PHASES)
        assert sum(report.samples.values()) == report.total
        assert report.seconds > 0
        text = render_profile(report)
        assert "samples" in text
        data = report.to_dict()
        assert data["total"] == report.total
        assert set(data["samples"]) == set(PHASES)

    def test_custom_phase_map(self):
        profiler = LoopProfiler(
            interval_seconds=0.001,
            phase_map=((("update", None, ("busy",)),)),
        )
        def busy():
            total = 0
            for i in range(2_000_000):
                total += i
            return total
        with profiler:
            busy()
        report = profiler.report()
        # Under load the sampler may observe few (or zero) frames, so
        # either phase can be absent from the dict — compare defensively.
        assert report.samples.get("update", 0) >= \
            report.samples.get("other", 0) or report.total == 0

    def test_engine_loop_classifies_mostly_known_phases(self):
        workload = _small_workload()
        config = FrontEndConfig(icache_policy="lru")
        from repro.experiments.runner import run_workload
        profiler = LoopProfiler(interval_seconds=0.001)
        with profiler:
            run_workload(workload, config, engine="fast")
        report = profiler.report()
        if report.total:
            known = report.total - report.samples.get("other", 0)
            assert known / report.total > 0.5


class TestBenchLedger:
    @staticmethod
    def _report(scale=1.0):
        return {
            "profile": "quick",
            "workload": {"category": "short-server", "seed": 2018},
            "policies": {
                "lru": {"fast_accesses_per_sec": round(300_000 * scale),
                        "speedup": 3.3},
                "ghrp": {"fast_accesses_per_sec": round(190_000 * scale),
                         "speedup": 3.5},
            },
        }

    def test_append_and_read(self, tmp_path):
        path = tmp_path / "hist" / "BENCH_HISTORY.jsonl"
        entry = append_bench_history(path, self._report(), source="test")
        assert entry["source"] == "test"
        append_bench_history(path, self._report(0.9))
        entries = read_bench_history(path)
        assert len(entries) == 2
        assert entries[0]["policies"]["lru"]["fast_accesses_per_sec"] == 300_000

    def test_read_missing_is_empty(self, tmp_path):
        assert read_bench_history(tmp_path / "nope.jsonl") == []

    def test_diff_flags_only_beyond_tolerance(self):
        diffs = diff_bench_entries(
            self._report(), self._report(0.95), tolerance=0.10
        )
        assert not any(diff.regressed for diff in diffs)
        diffs = diff_bench_entries(
            self._report(), self._report(0.80), tolerance=0.10
        )
        assert all(diff.regressed for diff in diffs)
        assert diffs[0].change == pytest.approx(-0.20, abs=0.001)

    def test_diff_missing_policy_never_regresses(self):
        latest = self._report()
        del latest["policies"]["ghrp"]
        diffs = diff_bench_entries(self._report(), latest, tolerance=0.0)
        by_policy = {diff.policy: diff for diff in diffs}
        assert by_policy["ghrp"].latest is None
        assert not by_policy["ghrp"].regressed

    def test_diff_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            diff_bench_entries(self._report(), self._report(), tolerance=-0.1)

    def test_render_annotations(self):
        diffs = [PolicyDiff("lru", 100.0, 50.0, -0.5, True)]
        text = render_bench_diff(diffs, annotate="github")
        assert "REGRESSION" in text
        assert "::warning title=bench-diff::" in text
        plain = render_bench_diff(diffs)
        assert "::warning" not in plain


class TestTelemetryCli:
    WORKLOAD_ARGS = [
        "--category", "short-mobile", "--seed", "1",
        "--trace-scale", "0.05", "--icache-kb", "8",
    ]

    def test_simulate_writes_manifest_and_openmetrics(self, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        om_path = tmp_path / "metrics.om"
        code = main(
            ["simulate", *self.WORKLOAD_ARGS, "--policy", "ghrp",
             "--telemetry-interval", "500",
             "--telemetry-out", str(manifest_path),
             "--openmetrics-out", str(om_path)]
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert len(manifest["telemetry"]["samples"]) >= 2
        text = om_path.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_interval_icache_mpki" in text

    def test_profile_command(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        code = main(
            ["profile", *self.WORKLOAD_ARGS, "--policy", "lru",
             "--engine", "fast", "--sample-hz", "1000",
             "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "tokenize" in printed
        data = json.loads(out.read_text())
        assert data["engine"] == "fast"
        assert set(data["samples"]) == set(PHASES)

    def test_bench_diff_exit_codes(self, tmp_path, capsys):
        history = tmp_path / "BENCH_HISTORY.jsonl"
        report = TestBenchLedger._report()
        append_bench_history(history, report)
        assert main(["bench-diff", "--history", str(history)]) == 0
        append_bench_history(history, TestBenchLedger._report(0.80))
        assert main(["bench-diff", "--history", str(history)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        # Same ledger within tolerance passes again.
        assert main(["bench-diff", "--history", str(history),
                     "--tolerance", "0.5"]) == 0

    def test_bench_diff_empty_ledger(self, tmp_path):
        assert main(["bench-diff", "--history",
                     str(tmp_path / "missing.jsonl")]) == 2

    def test_bench_diff_prev_baseline(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        append_bench_history(history, TestBenchLedger._report(0.5))
        append_bench_history(history, TestBenchLedger._report(1.0))
        append_bench_history(history, TestBenchLedger._report(0.95))
        # vs first (0.5): big speedup, fine.  vs prev (1.0): -5%, fine at 10%.
        assert main(["bench-diff", "--history", str(history),
                     "--baseline", "prev"]) == 0
        append_bench_history(history, TestBenchLedger._report(0.5))
        assert main(["bench-diff", "--history", str(history),
                     "--baseline", "prev"]) == 1

    def test_report_telemetry_sections(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        output = tmp_path / "report.md"
        code = main(
            ["report", "--policies", "lru", "ghrp",
             "--trace-scale", "0.01", "--icache-kb", "8",
             "--cache-dir", str(cache), "--output", str(output),
             "--telemetry", "--telemetry-interval", "300"]
        )
        assert code == 0
        text = output.read_text()
        assert "I-cache MPKI over time" in text
        assert "BTB MPKI over time" in text
        assert "I-cache set churn" in text
