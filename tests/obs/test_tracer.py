"""Tests for the span-tree tracer."""

import sys
import threading
import time

import pytest

from repro.obs import NullClock, PerfClock, Span, Tracer


class TestSpan:
    def test_count_accumulates(self):
        span = Span(name="s")
        span.count("hits")
        span.count("hits", 4)
        assert span.metrics["hits"] == 5

    def test_gauge_last_write_wins(self):
        span = Span(name="s")
        span.gauge("size", 10)
        span.gauge("size", 3)
        assert span.metrics["size"] == 3

    def test_duration_open_span_is_zero(self):
        assert Span(name="s", start=5.0).duration == 0.0

    def test_duration_closed(self):
        assert Span(name="s", start=1.0, end=3.5).duration == 2.5

    def test_walk_depth_first(self):
        root = Span(name="root")
        a = Span(name="a")
        b = Span(name="b")
        a.children.append(Span(name="a1"))
        root.children.extend([a, b])
        assert [s.name for s in root.walk()] == ["root", "a", "a1", "b"]

    def test_find(self):
        root = Span(name="root")
        root.children.append(Span(name="leaf"))
        assert root.find("leaf") is root.children[0]
        assert root.find("missing") is None

    def test_to_dict_sorted_metrics(self):
        span = Span(name="s", start=0.0, end=1.0)
        span.gauge("zeta", 1)
        span.gauge("alpha", 2)
        payload = span.to_dict()
        assert list(payload["metrics"]) == ["alpha", "zeta"]
        assert payload["duration_s"] == 1.0


class TestTracer:
    def test_defaults_to_null_clock(self):
        assert isinstance(Tracer().clock, NullClock)

    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is tracer.root
        outer = tracer.root.children[0]
        assert outer.name == "outer"
        assert outer.children[0].name == "inner"

    def test_span_closed_on_exception(self):
        tracer = Tracer(clock=PerfClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        span = tracer.root.children[0]
        assert span.end is not None
        assert tracer.current is tracer.root

    def test_null_clock_timestamps_all_zero(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.finish()
        for span in tracer.root.walk():
            assert span.start == 0.0 and span.end == 0.0

    def test_perf_clock_durations_positive(self):
        tracer = Tracer(clock=PerfClock())
        with tracer.span("a"):
            sum(range(1000))
        tracer.finish()
        assert tracer.root.children[0].duration >= 0.0
        assert tracer.root.duration >= tracer.root.children[0].duration

    def test_finish_idempotent(self):
        tracer = Tracer(clock=PerfClock())
        first = tracer.finish().end
        assert tracer.finish().end == first

    def test_yielded_span_accepts_metrics(self):
        tracer = Tracer()
        with tracer.span("stage") as span:
            span.gauge("records", 7)
            span.count("retries")
        assert tracer.root.children[0].metrics == {"records": 7, "retries": 1}


class TestThreads:
    def test_interleaved_threads_nest_under_their_own_parents(self):
        # Each step waits for the other thread, so both outer spans are
        # open before either inner span opens, and both inner spans are
        # open before either closes.
        tracer = Tracer()
        barrier = threading.Barrier(2, timeout=10)
        errors = []

        def work(tag):
            try:
                with tracer.span(f"outer-{tag}"):
                    barrier.wait()
                    with tracer.span(f"inner-{tag}"):
                        barrier.wait()
                        assert tracer.current.name == f"inner-{tag}"
                    barrier.wait()
                    assert tracer.current.name == f"outer-{tag}"
            except BaseException as exc:  # surfaced in the main thread
                barrier.abort()
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert errors == []
        assert sorted(c.name for c in tracer.root.children) == [
            "outer-a",
            "outer-b",
        ]
        for outer in tracer.root.children:
            tag = outer.name[-1]
            assert [c.name for c in outer.children] == [f"inner-{tag}"]
            assert outer.end is not None
        assert tracer.current is tracer.root

    def test_many_threads_under_fast_switching_keep_their_nesting(self):
        tracer = Tracer()
        n_threads, rounds = 8, 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(tag):
                for i in range(rounds):
                    with tracer.span(f"{tag}.{i}"):
                        time.sleep(0)  # yield the interpreter lock
                        with tracer.span(f"{tag}.{i}.inner"):
                            time.sleep(0)

            threads = [
                threading.Thread(target=work, args=(str(t),))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        outers = tracer.root.children
        assert len(outers) == n_threads * rounds
        for outer in outers:
            assert [c.name for c in outer.children] == [f"{outer.name}.inner"]
