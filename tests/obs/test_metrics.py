"""Metrics registry: types, labels, and the Prometheus text exposition."""

import pytest

from repro.obs import MetricsRegistry, get_metrics, render_prometheus
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_counts_up_and_rejects_negatives(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0


class TestHistogram:
    def test_buckets_render_cumulatively(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["cumulative"] == [1, 2, 3]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(2.55)

    def test_observation_above_every_bound_still_counts(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(100.0)
        snap = histogram.snapshot()
        assert snap["cumulative"] == [0]
        assert snap["count"] == 1


class TestRegistry:
    def test_get_or_create_returns_the_same_series(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_test_total", "help", labels={"k": "a"})
        again = registry.counter("repro_test_total", labels={"k": "a"})
        other = registry.counter("repro_test_total", labels={"k": "b"})
        assert first is again
        assert first is not other

    def test_one_name_one_type(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_test_total")

    def test_invalid_names_and_labels_fail_loudly(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad")
        with pytest.raises(ValueError):
            registry.counter("repro_ok_total", labels={"bad-label": "x"})

    def test_value_of_reads_series_back(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", labels={"k": "a"}).inc(7)
        assert registry.value_of("repro_test_total", labels={"k": "a"}) == 7.0
        assert registry.value_of("repro_test_total", labels={"k": "zz"}) == 0.0
        assert registry.value_of("repro_absent_total") == 0.0


class TestPrometheusRendering:
    def test_scrape_format(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_evals_total", "Rows evaluated.", labels={"backend": "batch"}
        ).inc(12)
        registry.gauge("repro_queue_depth", "Queued jobs.").set(3)
        text = registry.render()
        lines = text.splitlines()
        assert "# HELP repro_evals_total Rows evaluated." in lines
        assert "# TYPE repro_evals_total counter" in lines
        assert 'repro_evals_total{backend="batch"} 12' in lines
        assert "# TYPE repro_queue_depth gauge" in lines
        assert "repro_queue_depth 3" in lines
        assert text.endswith("\n")

    def test_histogram_exposition_has_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_wait_seconds", "Waits.", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        lines = registry.render().splitlines()
        assert 'repro_wait_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_wait_seconds_bucket{le="1"} 1' in lines
        assert 'repro_wait_seconds_bucket{le="+Inf"} 2' in lines
        assert "repro_wait_seconds_sum 5.05" in lines
        assert "repro_wait_seconds_count 2" in lines

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", labels={"path": 'a"b\\c\nd'}).inc()
        rendered = registry.render()
        assert 'path="a\\"b\\\\c\\nd"' in rendered

    def test_render_prometheus_defaults_to_the_process_registry(self):
        get_metrics().counter("repro_test_default_registry_total").inc()
        assert "repro_test_default_registry_total 1" in render_prometheus()
