"""Tests for the markdown report generator and the report CLI command."""

import pytest

from repro.experiments.report_markdown import markdown_report
from repro.experiments.runner import run_grid
from repro.frontend.config import FrontEndConfig
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload


@pytest.fixture(scope="module")
def small_grid():
    workloads = [
        make_workload("wa", Category.SHORT_MOBILE, seed=1, trace_scale=0.03,
                      footprint_scale=0.3),
        make_workload("wb", Category.SHORT_MOBILE, seed=2, trace_scale=0.03,
                      footprint_scale=0.3),
    ]
    config = FrontEndConfig(
        icache_bytes=8 * 1024, icache_assoc=4, btb_entries=256,
        warmup_cap_instructions=2_000,
    )
    return run_grid(workloads, ("lru", "random", "ghrp"), config)


class TestMarkdownReport:
    def test_structure(self, small_grid):
        report = markdown_report(small_grid, title="Test report")
        assert report.startswith("# Test report")
        assert "### I-cache mean MPKI" in report
        assert "### BTB mean MPKI" in report
        assert "### Relative difference vs LRU" in report
        assert "### Win / similar / loss vs LRU" in report
        assert "### Per-workload I-cache MPKI" in report

    def test_tables_are_valid_markdown(self, small_grid):
        report = markdown_report(small_grid)
        for line in report.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")
                assert line.count("|") >= 3

    def test_all_policies_and_workloads_present(self, small_grid):
        report = markdown_report(small_grid)
        for name in ("lru", "random", "ghrp", "wa", "wb"):
            assert name in report

    def test_headline_section(self, small_grid):
        report = markdown_report(small_grid)
        assert "Best I-cache policy" in report
        assert "Best BTB policy" in report

    def test_without_lru_reference(self):
        """A grid without LRU still renders (means only, no CI section)."""
        from repro.experiments.runner import run_grid as rg

        workload = make_workload(
            "w", Category.SHORT_MOBILE, seed=1, trace_scale=0.02, footprint_scale=0.3
        )
        config = FrontEndConfig(icache_bytes=8 * 1024, icache_assoc=4,
                                btb_entries=256, warmup_cap_instructions=1_000)
        grid = rg([workload], ("srrip", "ghrp"), config)
        report = markdown_report(grid)
        assert "### I-cache mean MPKI" in report
        assert "Relative difference" not in report


class TestReportCommand:
    def test_cli_report_with_cache(self, tmp_path, monkeypatch, capsys):
        """Exercise the report command end-to-end on a microscopic suite."""
        import repro.cli as cli
        def tiny_suite(base_seed=2018, trace_scale=1.0, **kwargs):
            return [
                make_workload("wa", Category.SHORT_MOBILE, seed=1,
                              trace_scale=0.02, footprint_scale=0.3)
            ]

        monkeypatch.setattr(cli, "make_suite", tiny_suite)
        output = tmp_path / "report.md"
        cache = tmp_path / "cache"
        code = cli.main([
            "report", "--policies", "lru", "ghrp",
            "--output", str(output), "--cache-dir", str(cache),
            "--icache-kb", "8", "--icache-assoc", "4", "--btb-entries", "256",
        ])
        assert code == 0
        assert output.exists()
        assert "GHRP reproduction report" in output.read_text()
        # Second run hits the cache (it holds 2 cells either way).
        code = cli.main([
            "report", "--policies", "lru", "ghrp",
            "--output", str(output), "--cache-dir", str(cache),
            "--icache-kb", "8", "--icache-assoc", "4", "--btb-entries", "256",
        ])
        assert code == 0
