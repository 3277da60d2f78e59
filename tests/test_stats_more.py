"""Additional statistics coverage: edge cases and cross-checks."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.ci import relative_difference_ci, student_t_ppf
from repro.stats.mpki import MPKITable
from repro.stats.scurve import scurve
from repro.stats.winloss import classify_win_loss


def table_of(rows: dict[str, list[float]], workloads: list[str]) -> MPKITable:
    table = MPKITable()
    for policy, values in rows.items():
        for workload, value in zip(workloads, values, strict=True):
            table.set(policy, workload, value)
    return table


class TestStudentTQuantile:
    def test_matches_pinned_reference_table(self):
        """Every pinned t.ppf value for df 1..200 at the two-sided 90/95/99%
        levels (p = 0.95/0.975/0.995) and p = 0.90/0.99, to 1e-12."""
        table = json.loads(
            (Path(__file__).parent / "data" / "student_t_ppf.json").read_text()
        )
        assert set(table["ppf"]) == {"0.9", "0.95", "0.975", "0.99", "0.995"}
        for p, expected in table["ppf"].items():
            assert len(expected) == 200
            for df, value in enumerate(expected, start=1):
                assert math.isclose(
                    student_t_ppf(float(p), df), value, rel_tol=1e-12
                ), (p, df)

    def test_symmetry_and_median(self):
        assert student_t_ppf(0.5, 3) == 0.0
        assert student_t_ppf(0.025, 7) == -student_t_ppf(0.975, 7)

    def test_large_df_approaches_the_normal_quantile(self):
        assert student_t_ppf(0.975, 1e7) == pytest.approx(1.959963984540054, rel=1e-6)

    @pytest.mark.parametrize("p,df", [(0.0, 3), (1.0, 3), (0.9, 0), (0.9, -1)])
    def test_rejects_out_of_domain_arguments(self, p, df):
        with pytest.raises(ValueError):
            student_t_ppf(p, df)


class TestCIAgainstScipy:
    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=50.0), min_size=3, max_size=15
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_scipy_interval(self, reference_values):
        """Our CI must equal the reference library's t.interval on the
        same samples (a live cross-check; skipped when SciPy is absent)."""
        import numpy as np

        reference = pytest.importorskip("scipy.stats")

        workloads = [f"w{i}" for i in range(len(reference_values))]
        policy_values = [v * 0.9 for v in reference_values]
        table = table_of({"lru": reference_values, "x": policy_values}, workloads)
        result = relative_difference_ci(table, "x")

        diffs = np.array(
            [(p - r) / r for r, p in zip(reference_values, policy_values, strict=True)]
        )
        if np.std(diffs, ddof=1) == 0:
            assert result.ci_low == pytest.approx(result.ci_high)
            return
        low, high = reference.t.interval(
            0.95, df=len(diffs) - 1, loc=diffs.mean(),
            scale=reference.sem(diffs),
        )
        assert result.ci_low == pytest.approx(low, rel=1e-9)
        assert result.ci_high == pytest.approx(high, rel=1e-9)

    def test_uniform_differences_degenerate_ci(self):
        # Every trace improves by exactly 10%: zero variance, CI == mean.
        workloads = ["a", "b", "c"]
        table = table_of(
            {"lru": [1.0, 2.0, 4.0], "x": [0.9, 1.8, 3.6]}, workloads
        )
        result = relative_difference_ci(table, "x")
        assert result.mean == pytest.approx(-0.1)
        assert result.ci_low == pytest.approx(result.ci_high)


class TestWinLossEdgeCases:
    def test_all_ties_when_identical(self):
        workloads = ["a", "b"]
        table = table_of({"lru": [1.0, 2.0], "x": [1.0, 2.0]}, workloads)
        result = classify_win_loss(table, "x")
        assert result.ties == 2

    def test_fraction_of_empty_table(self):
        table = MPKITable()
        table.values["lru"] = {}
        table.values["x"] = {}
        result = classify_win_loss(table, "x")
        assert result.total == 0
        assert result.fraction("wins") == 0.0


class TestSCurveOrderingStability:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_reference_series_sorted(self, values):
        workloads = [f"w{i}" for i in range(len(values))]
        table = table_of({"lru": values, "x": values[::-1]}, workloads)
        curve = scurve(table)
        assert list(curve.series["lru"]) == sorted(values)

    def test_tied_values_keep_all_workloads(self):
        workloads = ["a", "b", "c"]
        table = table_of({"lru": [1.0, 1.0, 1.0], "x": [0.5, 1.5, 1.0]}, workloads)
        curve = scurve(table)
        assert set(curve.order) == set(workloads)
