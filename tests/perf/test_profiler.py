"""Profiler: event counters and the disabled fast path."""

from repro.perf import (
    counter_add,
    profiling_disabled,
    profiling_enabled,
    reset_profile,
    snapshot_profile,
)


class TestCounters:
    def setup_method(self):
        profiling_enabled()
        reset_profile()

    def teardown_method(self):
        profiling_disabled()
        reset_profile()

    def test_counters(self):
        counter_add("unit_test_counter", 2)
        counter_add("unit_test_counter", 3)
        assert snapshot_profile()["counters"]["unit_test_counter"] == 5

    def test_reset(self):
        counter_add("unit_test_counter", 1)
        reset_profile()
        assert snapshot_profile()["counters"] == {}

    def test_disabled_is_noop(self):
        profiling_disabled()
        counter_add("unit_test_counter", 1)
        assert snapshot_profile()["counters"] == {}
