"""Per-layer numbers of a traced run, read from the program's own spans.

The program already opens ``webenv.*``, ``crawl.*``, ``pipeline.*``,
``serve.*`` and ``incremental.*`` spans on any :class:`~repro.obs.Tracer`
it is handed; under :class:`~repro.obs.PerfClock` their durations are
wall seconds.  This module reads them, adds the walls the benchmark took
around public calls, and counts the worker pools and tiles
:mod:`repro.perf.plan` schedules by wrapping them from outside.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Sequence

import repro.perf.plan as plan_module
from repro.obs import Span, Tracer

VERDICT_STAGES = ("pipeline.campaigns", "pipeline.labeling",
                  "pipeline.metacluster", "pipeline.suspicion")


@contextmanager
def count_plan(counts: Dict[str, int]) -> Iterator[None]:
    """Count pools started and tiles scheduled by ``ExecutionPlan``.

    Wraps the ``ProcessPoolExecutor`` name ``repro.perf.plan`` builds its
    pools from, and ``ExecutionPlan.stream`` (which ``run`` calls), for the
    duration of the block; both are restored afterwards.
    """
    pool_class = plan_module.ProcessPoolExecutor
    stream = plan_module.ExecutionPlan.stream

    class CountingPool(pool_class):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            counts["pools_started"] = counts.get("pools_started", 0) + 1
            super().__init__(*args, **kwargs)

    def counting_stream(self: Any, kernel: Any, operands: Any,
                        tiles: Sequence[Any], broadcast: bool = False) -> Any:
        counts["tiles"] = counts.get("tiles", 0) + len(tiles)
        return stream(self, kernel, operands, tiles, broadcast=broadcast)

    plan_module.ProcessPoolExecutor = CountingPool  # type: ignore[misc]
    plan_module.ExecutionPlan.stream = counting_stream  # type: ignore[method-assign]
    try:
        yield
    finally:
        plan_module.ProcessPoolExecutor = pool_class  # type: ignore[misc]
        plan_module.ExecutionPlan.stream = stream  # type: ignore[method-assign]


def spans(traces: Sequence[Tracer], name: str) -> List[Span]:
    return [s for t in traces for s in t.root.walk() if s.name == name]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples for a per-layer metric")
    return float(statistics.median(values))


def child_sum(span: Span, names: Sequence[str] = ()) -> float:
    return sum(c.duration for c in span.children
               if not names or c.name in names)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def crawl_and_mine(traces: Sequence[Tracer]) -> Dict[str, float]:
    """``webenv``, ``crawler``, ``core`` and ``perf.blocking`` numbers."""
    crawls = spans(traces, "crawl")
    pipelines = spans(traces, "pipeline")
    blocking = spans(traces, "pipeline.blocking")[-1].metrics
    crawl = crawls[-1]
    sessions = sum(s.metrics["sessions"] for s in crawl.walk()
                   if s.name.startswith("crawl.wave"))
    out = {
        "webenv.generate_s": median(
            [s.duration for s in spans(traces, "webenv.generate")]),
        "crawler.crawl_s": median(
            [c.duration - child_sum(c, ("webenv.generate",)) for c in crawls]),
        "crawler.sessions": sessions,
        "crawler.records": crawl.metrics["records"],
        "crawler.valid_records": crawl.metrics["valid_records"],
        "crawler.valid_ratio": ratio(crawl.metrics["valid_records"],
                                     crawl.metrics["records"]),
        "core.verdicts_s": median(
            [child_sum(p, VERDICT_STAGES) for p in pipelines]),
        "core.cut.candidates_evaluated":
            spans(traces, "pipeline.cut")[-1].metrics["candidates_evaluated"],
        "perf.blocking.candidate_pairs": blocking["candidate_pairs"],
        "perf.blocking.stored_pairs": blocking["stored_pairs"],
        "perf.blocking.stored_ratio": ratio(blocking["stored_pairs"],
                                            blocking["candidate_pairs"]),
    }
    for stage in ("features", "text_model", "distances", "linkage", "cut"):
        out[f"core.{stage}_s"] = median(
            [s.duration for s in spans(traces, f"pipeline.{stage}")])
    return out


def study_unattributed(mines: Sequence[Any]) -> float:
    """Median batch-mine wall the named stages do not account for.

    ``mines`` are ``(times, tracer)`` pairs, one per traced batch mine; the
    named stages are the crawl's and the pipeline's child spans and the
    snapshot export and encode.
    """
    return median([
        times["wall"] - child_sum(tracer.root.find("crawl"))
        - child_sum(tracer.root.find("pipeline"))
        - times["export"] - times["encode"]
        for times, tracer in mines
    ])


def incremental(traces: Sequence[Tracer], batches: Sequence[Any]) -> Dict[str, float]:
    """``incremental`` and ``perf.delta`` numbers of the traced batches."""
    candidates = sum(b.report.n_candidates for b in batches)
    scored = sum(b.report.n_scored for b in batches)
    return {
        "incremental.absorb_s": median(
            [s.duration for s in spans(traces, "incremental.absorb")]),
        "incremental.assign_s": median(
            [s.duration for s in spans(traces, "incremental.assign")]),
        "incremental.verdicts_s": median(
            [s.duration for s in spans(traces, "incremental.verdicts")]),
        "incremental.assigned": sum(b.report.assigned for b in batches),
        "incremental.opened": sum(b.report.opened for b in batches),
        "perf.delta.candidate_pairs": candidates,
        "perf.delta.scored_pairs": scored,
        "perf.delta.scored_ratio": ratio(scored, candidates),
        "absorb.unattributed_s": median(
            [b.fresh - sum(b.times.values()) for b in batches]),
    }


def serving(rounds: Sequence[Any]) -> Dict[str, float]:
    """``serve.core``, ``serve.wsgi`` and ``serve.cache`` numbers.

    Each traced request's ServeCore span splits its latency into core time
    and the WSGI edge around it; the ``serve.wsgi`` p50s are whole-request
    latencies, cache hits for ``/classify``.
    """
    check: List[float] = []
    hit: List[float] = []
    miss: List[float] = []
    edge: List[float] = []
    wsgi: Dict[str, List[float]] = {"check": [], "classify": []}
    for r in rounds:
        for kind, latency, span in zip(r.kinds, r.latencies, r.core_spans):
            edge.append(latency - span.duration)
            if kind == "check":
                check.append(span.duration)
            elif kind == "classify":
                (hit if span.metrics["cache_hits"] else miss).append(
                    span.duration)
            if kind in wsgi:
                wsgi[kind].append(latency)
    hits = sum(r.cache_hits for r in rounds)
    misses = sum(r.cache_misses for r in rounds)
    return {
        "serve.core.build_s": median([r.build for r in rounds]),
        "serve.core.check_ms": median(check) * 1e3,
        "serve.core.classify_hit_ms": median(hit) * 1e3,
        "serve.core.classify_miss_ms": median(miss) * 1e3,
        "serve.wsgi.overhead_ms": median(edge) * 1e3,
        "serve.wsgi.check_p50_ms": median(wsgi["check"]) * 1e3,
        "serve.wsgi.classify_p50_ms": median(wsgi["classify"]) * 1e3,
        "serve.cache.hits": hits,
        "serve.cache.misses": misses,
        "serve.cache.hit_ratio": ratio(hits, hits + misses),
        "serve.unattributed_s": median(
            [r.wall - sum(r.latencies) for r in rounds]),
    }
