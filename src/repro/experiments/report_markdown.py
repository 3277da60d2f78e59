"""Markdown experiment reports.

Turns a :class:`~repro.experiments.runner.GridResult` into a complete
markdown report — mean-MPKI tables, the Figure 8 CI analysis, the Figure
9 win/loss counts, and the headline improvements — in the layout
EXPERIMENTS.md uses.  Exposed through ``repro-sim report``.
"""

from __future__ import annotations

from repro.experiments.figures import (
    fig8_relative_ci,
    fig9_win_loss,
    headline_numbers,
)
from repro.experiments.runner import GridResult
from repro.stats.mpki import MPKITable

__all__ = ["markdown_report"]


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _means_section(table: MPKITable, title: str, reference: str = "lru") -> str:
    has_reference = reference in table.policies
    reference_mean = table.mean(reference) if has_reference else 0.0
    rows = []
    for policy in table.policies:
        mean = table.mean(policy)
        change = (
            f"{100.0 * (reference_mean - mean) / reference_mean:+.1f}%"
            if has_reference and reference_mean
            else "n/a"
        )
        rows.append([policy, f"{mean:.3f}", change])
    return f"### {title}\n\n" + _markdown_table(
        ["policy", "mean MPKI", f"reduction vs {reference}"], rows
    )


def _per_workload_section(table: MPKITable, title: str) -> str:
    policies = table.policies
    rows = []
    for workload in table.workloads:
        rows.append([workload] + [f"{table.get(p, workload):.3f}" for p in policies])
    rows.append(["**mean**"] + [f"**{table.mean(p):.3f}**" for p in policies])
    return f"### {title}\n\n" + _markdown_table(["workload"] + list(policies), rows)


def _downsample(values: list[float], buckets: int) -> list[float]:
    """Mean-pool ``values`` into at most ``buckets`` columns."""
    if len(values) <= buckets:
        return list(values)
    pooled = []
    for i in range(buckets):
        lo = i * len(values) // buckets
        hi = max((i + 1) * len(values) // buckets, lo + 1)
        chunk = values[lo:hi]
        pooled.append(sum(chunk) / len(chunk))
    return pooled


def _telemetry_mpki_section(telemetry: dict, structure: str, title: str,
                            buckets: int = 10) -> str:
    """MPKI-over-time table: one row per cell, mean-pooled interval columns."""
    rows = []
    width = 0
    series_by_cell = {}
    for label in sorted(telemetry):
        run = telemetry[label]
        series = [
            sample[structure]["mpki"] for sample in run.get("samples", ())
        ]
        pooled = _downsample(series, buckets)
        series_by_cell[label] = pooled
        width = max(width, len(pooled))
    if width == 0:
        return f"### {title}\n\n(no interval samples)"
    for label, pooled in series_by_cell.items():
        rows.append(
            [label]
            + [f"{value:.3f}" for value in pooled]
            + [""] * (width - len(pooled))
        )
    headers = ["cell"] + [f"t{i}" for i in range(width)]
    note = (
        "Each `t` column mean-pools consecutive interval samples "
        "(earliest on the left); intervals are fixed counts of branch "
        "records, so columns align across engines."
    )
    return f"### {title}\n\n" + note + "\n\n" + _markdown_table(headers, rows)


def _telemetry_heatmap_section(telemetry: dict, buckets: int = 8) -> str:
    """Set-churn heatmap: replacement churn summed over set-index ranges."""
    rows = []
    for label in sorted(telemetry):
        heatmap = telemetry[label].get("heatmap") or {}
        icache_map = heatmap.get("icache")
        if not icache_map:
            continue
        churn = icache_map.get("churn", [])
        sets = len(churn)
        if not sets:
            continue
        pooled = [
            sum(churn[i * sets // buckets:(i + 1) * sets // buckets])
            for i in range(min(buckets, sets))
        ]
        rows.append([label] + [str(value) for value in pooled])
    if not rows:
        return "### I-cache set churn\n\n(heatmap accumulators disabled)"
    width = max(len(row) - 1 for row in rows)
    headers = ["cell"] + [f"sets[{i}]" for i in range(width)]
    note = (
        "Tag-change counts sampled at interval boundaries, summed over "
        "equal set-index ranges: hot ranges churn, cold ranges pin."
    )
    return "### I-cache set churn\n\n" + note + "\n\n" + _markdown_table(
        headers, rows
    )


def _failed_cells_section(grid: GridResult) -> str:
    """Annotate the gaps of a partial grid (supervised runs only)."""
    rows = [
        [
            failure.policy,
            failure.workload,
            failure.kind,
            f"`{failure.error_type}`",
            str(failure.attempts),
            f"{failure.elapsed_seconds:.1f}s",
        ]
        for failure in grid.failed
    ]
    note = (
        "The cells below exhausted their retries and are **missing** from "
        "every table above; means and win/loss counts cover the surviving "
        "grid only. Re-run with `repro-sim grid --cache-dir <dir>` to "
        "recompute just these cells."
    )
    return "### Failed cells\n\n" + note + "\n\n" + _markdown_table(
        ["policy", "workload", "kind", "error", "attempts", "elapsed"], rows
    )


def markdown_report(
    grid: GridResult,
    title: str = "Replacement-policy study",
    telemetry: dict | None = None,
) -> str:
    """Render a full markdown report for a simulation grid.

    A partial grid (one with :class:`FailedCell` entries from the
    supervised executor) renders normally from the surviving cells, with
    a trailing section annotating the gaps.  ``telemetry`` maps cell
    labels (``policy/workload``) to finished interval-series dicts (as
    collected on ``Observability.telemetry``); when given, the report
    gains MPKI-over-time and set-churn sections.
    """
    icache = grid.icache
    btb = grid.btb
    sections = [f"# {title}", ""]
    grid_line = (
        f"Grid: {len(icache.workloads)} workloads x {len(icache.policies)} policies."
    )
    if grid.failed:
        grid_line += (
            f" **Partial result: {len(grid.failed)} cell(s) failed** "
            f"(see [Failed cells](#failed-cells))."
        )
    sections.append(grid_line)
    sections.append("")
    sections.append(_means_section(icache, "I-cache mean MPKI"))
    sections.append("")
    sections.append(_means_section(btb, "BTB mean MPKI"))
    sections.append("")

    non_reference = [p for p in icache.policies if p != "lru"]
    if "lru" in icache.policies and non_reference:
        sections.append("### Relative difference vs LRU (95% CI, I-cache)")
        sections.append("")
        rows = []
        for result in fig8_relative_ci(icache, policies=non_reference):
            rows.append(
                [
                    result.policy,
                    f"{result.mean_percent:+.1f}%",
                    f"[{100 * result.ci_low:+.1f}%, {100 * result.ci_high:+.1f}%]",
                    str(result.sample_count),
                ]
            )
        sections.append(_markdown_table(["policy", "mean", "95% CI", "n"], rows))
        sections.append("")

        sections.append("### Win / similar / loss vs LRU (I-cache)")
        sections.append("")
        rows = []
        for result in fig9_win_loss(icache, policies=non_reference):
            rows.append(
                [result.policy, str(result.wins), str(result.ties), str(result.losses)]
            )
        sections.append(_markdown_table(["policy", "better", "similar", "worse"], rows))
        sections.append("")

        headline = headline_numbers(grid, policies=tuple(icache.policies))
        sections.append("### Headline")
        sections.append("")
        best_icache = min(headline.icache_means, key=headline.icache_means.get)
        best_btb = min(headline.btb_means, key=headline.btb_means.get)
        sections.append(
            f"- Best I-cache policy: **{best_icache}** "
            f"({headline.improvement('icache', best_icache):+.1f}% vs LRU)"
        )
        sections.append(
            f"- Best BTB policy: **{best_btb}** "
            f"({headline.improvement('btb', best_btb):+.1f}% vs LRU)"
        )
        sections.append("")

    sections.append(_per_workload_section(icache, "Per-workload I-cache MPKI"))
    sections.append("")
    sections.append(_per_workload_section(btb, "Per-workload BTB MPKI"))
    sections.append("")
    if telemetry:
        sections.append(
            _telemetry_mpki_section(telemetry, "icache", "I-cache MPKI over time")
        )
        sections.append("")
        sections.append(
            _telemetry_mpki_section(telemetry, "btb", "BTB MPKI over time")
        )
        sections.append("")
        sections.append(_telemetry_heatmap_section(telemetry))
        sections.append("")
    if grid.failed:
        sections.append(_failed_cells_section(grid))
        sections.append("")
    return "\n".join(sections)
