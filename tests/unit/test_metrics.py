"""Metric computation: the paper's four measurements."""

import pytest

from repro.metrics.collectors import MetricsCollector, RunStats
from repro.metrics.report import EngineReport, RequestReport, ServingReport, aggregate


def collector_with_tokens(prefill_end, times):
    m = MetricsCollector()
    m.mark_prefill_end(prefill_end)
    for t in times:
        m.record_tokens(t, 1)
    m.mark_finish(times[-1])
    return m


class TestTimeline:
    def test_generation_speed_excludes_prefill(self):
        m = collector_with_tokens(10.0, [11.0, 12.0, 13.0, 14.0])
        assert m.generation_speed() == pytest.approx(4 / 4.0)

    def test_ttft_from_prefill_end(self):
        m = collector_with_tokens(2.0, [2.7, 3.0])
        assert m.ttft() == pytest.approx(0.7)

    def test_itl_mean_gap(self):
        m = collector_with_tokens(0.0, [1.0, 2.0, 4.0])
        assert m.itl() == pytest.approx(1.5)

    def test_batch_acceptances_share_timestamp(self):
        m = MetricsCollector()
        m.mark_prefill_end(0.0)
        m.record_tokens(1.0, 3)
        m.record_tokens(2.0, 1)
        m.mark_finish(2.0)
        assert m.n_tokens == 4
        assert m.itl() == pytest.approx(1.0 / 3)

    def test_empty_run_degenerate(self):
        m = MetricsCollector()
        assert m.generation_speed() == 0.0
        assert m.ttft() == float("inf")
        assert m.itl() == float("inf")


class TestUtilizationAndMemory:
    def test_utilization_mean_of_busy_fractions(self):
        m = collector_with_tokens(0.0, [10.0])
        m.add_busy(0, 5.0)
        m.add_busy(1, 10.0)
        assert m.utilization() == pytest.approx(0.75)

    def test_utilization_capped_at_one(self):
        m = collector_with_tokens(0.0, [1.0])
        m.add_busy(0, 99.0)
        assert m.utilization() == 1.0

    def test_memory_stats(self):
        m = MetricsCollector()
        m.set_node_memory(0, 2e9)
        m.set_node_memory(1, 4e9)
        assert m.mean_node_memory() == 3e9
        assert m.max_node_memory() == 4e9


class TestStats:
    def test_acceptance_rate_checked_based(self):
        m = MetricsCollector()
        m.stats.draft_tokens_proposed = 10
        m.stats.draft_tokens_checked = 5
        m.stats.draft_tokens_accepted = 4
        assert m.stats.acceptance_rate == pytest.approx(0.8)
        assert m.stats.dispatch_efficiency == pytest.approx(0.4)

    def test_zero_division_guards(self):
        m = MetricsCollector()
        assert m.stats.acceptance_rate == 0.0
        assert m.stats.dispatch_efficiency == 0.0


class TestReports:
    def make_report(self, speed):
        m = collector_with_tokens(0.0, [1.0, 2.0])
        m.set_node_memory(0, 2e9)
        r = EngineReport.from_collector("pipeinfer", 4, [1, 2], m)
        r.generation_speed = speed
        return r

    def test_speed_per_gb(self):
        r = self.make_report(4.0)
        assert r.speed_per_gb() == pytest.approx(2.0)

    def test_aggregate_averages(self):
        agg = aggregate([self.make_report(2.0), self.make_report(4.0)])
        assert agg.generation_speed == pytest.approx(3.0)

    def test_aggregate_rejects_mixed_configs(self):
        a = self.make_report(1.0)
        b = self.make_report(1.0)
        b.n_nodes = 8
        with pytest.raises(ValueError):
            aggregate([a, b])

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestServingReport:
    def test_throughput_over_a_sub_second_makespan(self):
        """A stream that finishes within one simulated second still has a
        rate: tokens over makespan, not zero."""
        reqs = [
            RequestReport(0, [1, 2, 3], 0.0, 0.0, 0.2, 0.5, [0.1, 0.2], RunStats()),
            RequestReport(1, [4], 0.1, 0.5, 0.6, 0.8, [], RunStats()),
        ]
        report = ServingReport.from_requests("pipeinfer", 4, reqs)
        assert report.makespan == pytest.approx(0.8)
        assert report.throughput == pytest.approx(5.0)
        assert report.goodput == pytest.approx(5.0)


class TestDraftBatchHistogram:
    def test_record_draft_batch_accumulates(self):
        m = MetricsCollector()
        m.record_draft_batch(1)
        m.record_draft_batch(4)
        m.record_draft_batch(4)
        assert m.draft_batch_width == {1: 1, 4: 2}

    def test_engine_report_carries_histogram(self):
        m = MetricsCollector()
        m.mark_prefill_end(0.0)
        m.record_tokens(1.0, 1)
        m.record_draft_batch(3)
        report = EngineReport.from_collector("pipeinfer", 4, [7], m)
        assert report.draft_batch_width == {3: 1}
