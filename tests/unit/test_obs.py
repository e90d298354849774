"""Unit tests for the observability layer (tracer + metrics bundle)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    NULL_METRICS,
    NULL_OBS,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    Tracer,
)


class TestMetricsRegistry:
    def test_inc_defaults_to_one(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a")
        assert registry.counter("a") == 2

    def test_inc_with_value(self):
        registry = MetricsRegistry()
        registry.inc("spend", 2.5)
        registry.inc("spend", 1.5)
        assert registry.counter("spend") == pytest.approx(4.0)

    def test_negative_inc_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.inc("a", -1)

    def test_inc_each_equals_one_inc_per_value(self):
        # A sum taken first, or an fsum, rounds these values
        # differently from one inc per value.
        values = [0.1, 0.2, 0.3, 1e16, 1.0]
        folded, stepped = MetricsRegistry(), MetricsRegistry()
        folded.inc("saved", 0.7)
        stepped.inc("saved", 0.7)
        folded.inc_each("saved", values)
        for value in values:
            stepped.inc("saved", value)
        assert folded.counter("saved").hex() == stepped.counter("saved").hex()

    def test_inc_each_checks_every_value_first(self):
        registry = MetricsRegistry()
        registry.inc("saved", 1.0)
        with pytest.raises(ConfigurationError):
            registry.inc_each("saved", [2.0, -1.0, 3.0])
        assert registry.counter("saved") == 1.0

    def test_inc_each_of_nothing_creates_no_counter(self):
        registry = MetricsRegistry()
        registry.inc_each("saved", [])
        assert registry.counters() == {}

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("size", 3)
        registry.gauge("size", 7)
        assert registry.gauges() == {"size": 7}

    def test_counters_prefix_filter_sorted(self):
        registry = MetricsRegistry()
        registry.inc("crowd.spend.value", 2)
        registry.inc("crowd.spend.example", 1)
        registry.inc("online.objects")
        assert registry.counters("crowd.") == {
            "crowd.spend.example": 1,
            "crowd.spend.value": 2,
        }
        assert list(registry.counters()) == sorted(registry.counters())

    def test_by_suffix_strips_stem(self):
        registry = MetricsRegistry()
        registry.inc("crowd.spend.value", 2.0)
        registry.inc("crowd.spending_spree")  # not under the dot-stem
        assert registry.by_suffix("crowd.spend") == {"value": 2.0}

    def test_roundtrip_preserves_int_counters(self):
        registry = MetricsRegistry()
        registry.inc("n", 3)
        registry.inc("cents", 1.25)
        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.counter("n") == 3
        assert isinstance(rebuilt.counter("n"), int)
        assert rebuilt.counter("cents") == pytest.approx(1.25)

    def test_merge_adds_counters_overwrites_gauges(self):
        left = MetricsRegistry()
        left.inc("n", 2)
        left.gauge("size", 1)
        right = MetricsRegistry()
        right.inc("n", 3)
        right.inc("other")
        right.gauge("size", 9)
        left.merge(right)
        assert left.counter("n") == 5
        assert left.counter("other") == 1
        assert left.gauges() == {"size": 9}

    def test_merge_accepts_payload_dict(self):
        registry = MetricsRegistry()
        registry.inc("n", 1)
        registry.merge({"counters": {"n": 4}, "gauges": {"g": 2}})
        assert registry.counter("n") == 5
        assert registry.gauges() == {"g": 2}

    def test_parallel_style_merge_matches_serial(self):
        # Three "workers" record independently; merging their payloads
        # in order must equal one registry that saw every event.
        serial = MetricsRegistry()
        parent = MetricsRegistry()
        for worker in range(3):
            local = MetricsRegistry()
            for _ in range(worker + 1):
                local.inc("runs.completed")
                serial.inc("runs.completed")
            local.inc("crowd.spend.value", 0.4 * (worker + 1))
            serial.inc("crowd.spend.value", 0.4 * (worker + 1))
            parent.merge(local.to_dict())
        assert parent.counter("runs.completed") == serial.counter("runs.completed")
        assert isinstance(parent.counter("runs.completed"), int)
        assert parent.counter("crowd.spend.value") == pytest.approx(
            serial.counter("crowd.spend.value")
        )


class TestNullMetrics:
    def test_all_reads_empty(self):
        assert NULL_METRICS.counter("x") == 0
        assert NULL_METRICS.counters() == {}
        assert NULL_METRICS.by_suffix("crowd.spend") == {}
        assert NULL_METRICS.gauges() == {}
        assert NULL_METRICS.to_dict() == {"counters": {}, "gauges": {}}

    def test_writes_are_noops(self):
        NULL_METRICS.inc("x", 5)
        NULL_METRICS.inc_each("x", [1.0, 2.0])
        NULL_METRICS.gauge("g", 1)
        NULL_METRICS.merge({"counters": {"x": 1}})
        assert NULL_METRICS.counter("x") == 0

    def test_disabled_flag(self):
        assert NULL_METRICS.enabled is False
        assert MetricsRegistry().enabled is True


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestTracer:
    def test_nested_spans_and_phase_seconds(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("preprocess"):
            with tracer.span("allocate"):
                pass
        phases = tracer.phase_seconds()
        # FakeClock ticks once per call: allocate spans ticks 2->3,
        # preprocess spans ticks 1->4.
        assert phases == {"preprocess": 3.0, "preprocess/allocate": 1.0}

    def test_repeated_paths_accumulate(self):
        tracer = Tracer(clock=FakeClock())
        for _ in range(2):
            with tracer.span("online"):
                pass
        assert tracer.phase_seconds() == {"online": 2.0}

    def test_events_attach_to_innermost_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("preprocess"):
            with tracer.span("statistics"):
                tracer.event("crowd.ask_value", n=2)
        inner = tracer.roots[0].children[0]
        assert [event.name for event in inner.events] == ["crowd.ask_value"]
        assert inner.events[0].attrs == {"n": 2}
        assert tracer.event_count("crowd.ask_value") == 1
        assert tracer.event_count() == 1

    def test_detached_events_kept(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("loose")
        tracer.event("loose")
        assert tracer.event_count("loose") == 2
        # The synthetic holder never shows up as a phase.
        assert tracer.phase_seconds() == {}

    def test_out_of_order_close_rejected(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        with pytest.raises(ConfigurationError):
            outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)

    def test_open_span_contributes_zero(self):
        tracer = Tracer(clock=FakeClock())
        tracer.span("never_closed")
        assert tracer.phase_seconds() == {"never_closed": 0.0}

    def test_to_dict_shape(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a", algorithm="DisQ"):
            tracer.event("e")
        dump = tracer.to_dict()
        assert dump["spans"][0]["name"] == "a"
        assert dump["spans"][0]["attrs"] == {"algorithm": "DisQ"}
        assert dump["spans"][0]["events"][0]["name"] == "e"


class TestNullTracer:
    def test_span_and_event_noops(self):
        with NULL_TRACER.span("x"):
            NULL_TRACER.event("e")
        assert NULL_TRACER.roots == ()
        assert NULL_TRACER.phase_seconds() == {}
        assert NULL_TRACER.event_count() == 0
        assert NULL_TRACER.to_dict() == {"spans": []}

    def test_shared_context_reusable(self):
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b")
        assert first is second  # one stateless instance for all sites


class TestObservability:
    def test_null_obs_disabled(self):
        assert NULL_OBS.enabled is False
        assert NULL_OBS.metrics_sink is None
        assert Observability.disabled() is NULL_OBS

    def test_collecting_is_fresh_and_enabled(self):
        first = Observability.collecting()
        second = Observability.collecting()
        assert first.enabled and second.enabled
        assert first.metrics is not second.metrics
        assert first.metrics_sink is first.metrics

    def test_frozen(self):
        with pytest.raises(AttributeError):
            NULL_OBS.metrics = MetricsRegistry()
