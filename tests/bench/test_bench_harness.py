"""Tests for the benchmark harness (Table 2, latency, comparisons, ablations)."""

from __future__ import annotations

import pytest

from repro.bench import (
    MEASURED_APPS,
    device_vs_server,
    format_comparison,
    format_latency_sweep,
    format_table,
    format_table2_cell,
    ideal_throughput,
    paper_device_rate,
    paper_total,
    run_cell,
)
from repro.bench.latency import batch_size_sweep
from repro.bench.ablations import failure_recovery_ablation, ordering_ablation


class TestPaperReferenceValues:
    def test_paper_totals(self):
        assert paper_total("collatz", "lan") == pytest.approx(2209.65, rel=0.01)
        assert paper_total("raytrace", "wan") == pytest.approx(4.75, rel=0.01)
        assert paper_total("imageproc", "wan") is None  # not measured on the WAN

    def test_paper_device_rates(self):
        rates = paper_device_rate("collatz", "lan")
        assert rates["iphone-se"] == pytest.approx(336.18)

    def test_measured_apps_listing(self):
        assert "imageproc" not in MEASURED_APPS["wan"]
        assert len(MEASURED_APPS["lan"]) == 6

    def test_ideal_throughput(self):
        assert ideal_throughput("collatz", "lan") == pytest.approx(2209.65, rel=0.01)


class TestRunCell:
    def test_lan_raytrace_cell_matches_paper_shape(self):
        cell = run_cell("raytrace", "lan", duration=15.0, warmup=5.0)
        assert cell.measured_total == pytest.approx(cell.paper_total_value, rel=0.05)
        assert cell.ratio_to_paper == pytest.approx(1.0, abs=0.05)
        # shares within a few percentage points of the paper's
        paper_share = 100.0 * 8.81 / 18.94
        assert cell.measured_share["mbpro-2016"] == pytest.approx(paper_share, abs=3.0)

    def test_wan_cell_excludes_unsupported_devices(self):
        cell = run_cell("ml_agent", "wan", duration=10.0, warmup=5.0)
        assert cell.measured_total == pytest.approx(714.38, rel=0.08)

    def test_formatting(self):
        cell = run_cell("raytrace", "lan", duration=10.0, warmup=5.0)
        text = format_table2_cell(cell)
        assert "Table 2" in text
        assert "mbpro-2016" in text
        assert "paper" in text


class TestLatencySweep:
    def test_larger_batches_increase_efficiency(self):
        points = batch_size_sweep(
            "raytrace", "wan", batch_sizes=[1, 4], duration=15.0, warmup=5.0
        )
        assert points[0].batch_size == 1
        assert points[-1].efficiency >= points[0].efficiency
        assert points[-1].efficiency > 0.9
        assert "Latency hiding" in format_latency_sweep(points)


class TestComparisons:
    def test_paper_claims_hold(self):
        rows = device_vs_server("collatz")
        iphone_vs_uvb = next(
            row for row in rows
            if row.personal_device == "iphone-se" and row.server == "uvb.sophia"
        )
        assert iphone_vs_uvb.personal_wins_single_core
        # 2-5 cores of a recent personal device match the fastest server core
        mbpro_vs_dahu = next(
            row for row in rows
            if row.personal_device == "mbpro-2016" and row.server == "dahu.grenoble"
        )
        assert 1.0 < mbpro_vs_dahu.cores_to_match <= 5.0
        assert "cores to match" in format_comparison(rows)


class TestAblations:
    def test_failure_recovery_ablation(self):
        outcome = failure_recovery_ablation(inputs=150, crash_time=0.5)
        assert outcome["with_crash"]["crashes"] == 1
        assert outcome["with_crash"]["completed_at"] >= outcome["no_failure"]["completed_at"]
        assert outcome["no_failure"]["values_relent"] == 0

    def test_ordering_ablation_both_complete(self):
        outcome = ordering_ablation(inputs=12)
        assert outcome["ordered"]["outputs"] == 12
        assert outcome["unordered"]["outputs"] == 12


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 22), (333, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        # title + header + separator + two data rows
        assert len(lines) == 5
