"""Peak-memory meters: the null default and the tracemalloc meter."""

import tracemalloc

import numpy as np
import pytest

from repro.obs import (
    MemoryMeter,
    NullMemoryMeter,
    TracemallocMeter,
    Tracer,
)


class TestNullMemoryMeter:
    def test_reading_stays_none(self):
        with NullMemoryMeter().measure() as reading:
            _ = bytearray(1 << 20)
        assert reading.peak_bytes is None

    def test_name_and_protocol(self):
        meter = NullMemoryMeter()
        assert meter.name == "null"
        assert isinstance(meter, MemoryMeter)

    def test_tracer_default(self):
        assert isinstance(Tracer().memory, NullMemoryMeter)


class TestTracemallocMeter:
    @pytest.fixture(autouse=True)
    def stop_tracing_after(self):
        # The meter leaves tracemalloc running once started; left on, it
        # slows every allocation in the rest of the session ~3x.
        was_tracing = tracemalloc.is_tracing()
        yield
        if not was_tracing:
            tracemalloc.stop()

    def test_measures_a_known_allocation(self):
        meter = TracemallocMeter()
        with meter.measure() as reading:
            block = np.zeros(1 << 19)  # 4 MiB of float64
            del block
        assert reading.peak_bytes is not None
        assert reading.peak_bytes >= (1 << 19) * 8

    def test_sequential_regions_reset_the_peak(self):
        meter = TracemallocMeter()
        with meter.measure() as big:
            block = np.zeros(1 << 19)
            del block
        with meter.measure() as small:
            _ = bytearray(1 << 10)
        assert small.peak_bytes is not None
        assert small.peak_bytes < big.peak_bytes

    def test_reading_is_none_until_exit(self):
        meter = TracemallocMeter()
        with meter.measure() as reading:
            assert reading.peak_bytes is None
        assert reading.peak_bytes is not None

    def test_gauges_peak_bytes_on_spans(self):
        tracer = Tracer(memory=TracemallocMeter())
        with tracer.span("stage") as span:
            with tracer.memory.measure() as mem:
                block = np.zeros(1 << 16)
                del block
            if mem.peak_bytes is not None:
                span.gauge("peak_bytes", mem.peak_bytes)
        assert tracer.root.find("stage").metrics["peak_bytes"] >= (1 << 16) * 8
