"""Command-line interface: ``python -m repro <command>``.

Commands
--------
crawl        generate a world and run the full crawl; write records (JSONL)
analyze      run the PushAdMiner pipeline over a records file (or a fresh
             crawl) and print Tables 3/4 + Figure 6
snapshot     run the pipeline and export a repro-snapshot/1 artifact for
             the serving layer (query it with ``python -m repro.serve``)
incremental  mine a base corpus, then absorb the held-out tail through
             :mod:`repro.incremental` (optionally compacting) and report
             the delta accounting
experiments  run the side experiments (pilot, blocklist lag, revisit,
             double permission, quiet UI)
detect       train + evaluate the malicious-WPN detector
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import PushAdMiner, paper_scenario, run_full_crawl
from repro.core import report
from repro.core.detector import MaliciousWpnDetector, train_test_split
from repro.core.pipeline import MinerConfig
from repro.io import load_records, save_records
from repro.obs import Tracer, format_trace, trace_to_json


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the paper's URL population")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the pairwise-distance "
                             "kernels (results are bit-identical for any "
                             "count; default 1 = serial)")
    parser.add_argument("--crawl-workers", type=int, default=1,
                        help="worker processes for crawl session shards "
                             "(the dataset is byte-identical for any "
                             "count; default 1 = serial)")
    parser.add_argument("--storage", choices=("dense", "sparse"),
                        default="dense",
                        help="distance matrix storage; sparse avoids the "
                             "O(n^2) matrices via URL candidate blocking "
                             "(results stay bit-identical to dense)")
    parser.add_argument("--blocking-bound", type=float, default=None,
                        help="blocking recall bound in (0, 0.5] "
                             "(default MinerConfig's)")
    parser.add_argument("--trace", action="store_true",
                        help="print the span tree after the run")
    parser.add_argument("--trace-json", metavar="PATH",
                        help="write the trace as deterministic JSON to PATH")


def _miner_overrides(args) -> dict:
    """MinerConfig overrides shared by every pipeline-running command."""
    overrides = dict(
        workers=args.workers,
        storage=args.storage,
        blocking="url" if args.storage == "sparse" else "none",
    )
    if args.blocking_bound is not None:
        overrides["blocking_bound"] = args.blocking_bound
    return overrides


def _make_tracer(args) -> Optional[Tracer]:
    """A tracer when tracing was requested, else None.

    The default NullClock keeps ``--trace-json`` output byte-identical
    across invocations of the same seeded run.
    """
    if args.trace or args.trace_json:
        return Tracer()
    return None


def _emit_trace(tracer: Optional[Tracer], args) -> None:
    if tracer is None:
        return
    tracer.finish()
    if args.trace:
        print("\n" + format_trace(tracer))
    if args.trace_json:
        with open(args.trace_json, "w", encoding="utf-8") as handle:
            handle.write(trace_to_json(tracer))
        print(f"wrote trace to {args.trace_json}")


def _crawl_dataset(args, tracer: Optional[Tracer] = None):
    config = paper_scenario(seed=args.seed, scale=args.scale)
    if tracer is not None:
        return run_full_crawl(
            config=config, tracer=tracer, crawl_workers=args.crawl_workers
        )
    return run_full_crawl(config=config, crawl_workers=args.crawl_workers)


def cmd_crawl(args) -> int:
    tracer = _make_tracer(args)
    dataset = _crawl_dataset(args, tracer)
    summary = dataset.summary()
    print(report.render_table(["metric", "value"], list(summary.items())))
    if args.output:
        written = save_records(dataset.records, args.output)
        print(f"\nwrote {written} records to {args.output}")
    _emit_trace(tracer, args)
    return 0


def cmd_analyze(args) -> int:
    tracer = _make_tracer(args)
    if args.records:
        corpus = load_records(args.records)
        miner = PushAdMiner(
            config=MinerConfig(seed=args.seed, **_miner_overrides(args)),
            tracer=tracer,
        )
        result = miner.run([r for r in corpus if r.valid])
        dataset = None
    else:
        dataset = _crawl_dataset(args, tracer)
        corpus = dataset.records
        result = PushAdMiner.for_dataset(
            dataset, tracer=tracer, **_miner_overrides(args)
        ).run(dataset.valid_records)

    print("Table 3 — summary")
    summary = result.summary()
    print(report.render_table(["metric", "value"], list(summary.items())))

    print("\nTable 4 — clustering stages")
    print(report.render_table(
        ["stage", "#clusters", "#ad-related", "#WPN ads",
         "#known malicious", "#additional malicious"],
        report.table4_rows(result),
    ))

    print("\nFigure 6 — WPN ads per ad network")
    print(report.render_table(
        ["ad network", "#WPN ads", "#malicious"],
        report.fig6_network_distribution(result),
    ))

    from repro.core.brandspoof import analyze_brand_spoofing

    spoofing = analyze_brand_spoofing(result.records)
    if spoofing.spoofing_wpns:
        print(f"\nBrand-icon spoofing: {spoofing.spoofing_wpns} WPNs "
              f"({100 * spoofing.spoof_rate:.1f}%) impersonate "
              f"{len(spoofing.by_brand)} brands; "
              f"{100 * spoofing.spoof_precision_for_malice:.0f}% of the "
              f"spoofs are malicious")
        for brand, count in spoofing.top_brands(4):
            print(f"  {brand:12s} {count}")

    if args.describe:
        from repro.core.describe import describe_corpus
        from repro.core.timeline import timeline_report

        print("\nCorpus description")
        print(describe_corpus(corpus).render())
        timeline = timeline_report(corpus)
        peak = timeline.peak_bucket()
        print(f"timeline: {len(timeline.buckets)} day-buckets, "
              f"{100 * timeline.queued_share:.0f}% of deliveries via queue "
              f"drains" + (f", peak day {peak.total} WPNs" if peak else ""))

    if args.figures:
        from repro.viz import save_figures

        latencies = dataset.first_latencies_min if dataset else []
        written = save_figures(result, latencies, args.figures)
        print(f"\nwrote {len(written)} SVG figures to {args.figures}")

    if args.markdown:
        from pathlib import Path

        from repro.core.report import summary_markdown

        source = dataset if dataset is not None else _FileBackedDataset(
            corpus, args.seed
        )
        Path(args.markdown).write_text(
            summary_markdown(source, result), encoding="utf-8"
        )
        print(f"wrote markdown summary to {args.markdown}")
    _emit_trace(tracer, args)
    return 0


def cmd_snapshot(args) -> int:
    from repro.serve import MinedSnapshot

    tracer = _make_tracer(args)
    if args.records:
        corpus = load_records(args.records)
        miner = PushAdMiner(
            config=MinerConfig(seed=args.seed, **_miner_overrides(args)),
            tracer=tracer,
        )
        result = miner.run([r for r in corpus if r.valid])
    else:
        dataset = _crawl_dataset(args, tracer)
        result = PushAdMiner.for_dataset(
            dataset, tracer=tracer, **_miner_overrides(args)
        ).run(dataset.valid_records)

    snapshot = MinedSnapshot.from_result(result)
    content_hash = snapshot.save(args.output)
    print(f"wrote {args.output} ({snapshot.n_records} records, "
          f"{len(snapshot.campaigns)} clusters, hash {content_hash})")
    _emit_trace(tracer, args)
    return 0


def cmd_incremental(args) -> int:
    from repro.incremental import IncrementalMiner

    if not 0.0 < args.batch_fraction < 1.0:
        print("--batch-fraction must be in (0, 1)", file=sys.stderr)
        return 2
    tracer = _make_tracer(args)
    dataset = _crawl_dataset(args, tracer)
    valid = dataset.valid_records
    n_tail = max(args.batches, int(round(len(valid) * args.batch_fraction)))
    if n_tail >= len(valid):
        print(f"batch fraction {args.batch_fraction} leaves no base corpus "
              f"({len(valid)} valid records)", file=sys.stderr)
        return 2
    base, tail = valid[:-n_tail], valid[-n_tail:]

    miner = PushAdMiner.for_dataset(
        dataset, tracer=tracer, **_miner_overrides(args)
    )
    result = miner.run(base)
    incremental = IncrementalMiner.from_result(result, tracer=tracer)

    rows = []
    per_batch = -(-len(tail) // args.batches)  # ceil
    for start in range(0, len(tail), per_batch):
        absorbed = incremental.absorb(tail[start:start + per_batch])
        rows.append([
            len(rows) + 1, absorbed.batch_size, absorbed.assigned,
            absorbed.opened, absorbed.corpus_size,
            absorbed.deferred_to_compaction,
        ])
    print(f"base mine: {len(base)} records -> "
          f"{len(result.campaign_cluster_ids)} campaign clusters "
          f"(cut {result.cut_threshold:.4f})")
    print(report.render_table(
        ["batch", "#records", "assigned", "opened", "corpus",
         "deferred"], rows,
    ))

    if args.compact:
        compacted = incremental.compact()
        print(f"\ncompacted: full re-mine of {len(compacted.records)} "
              f"records (cut {compacted.cut_threshold:.4f}); "
              f"deferred count reset to "
              f"{incremental.absorbed_since_compaction}")

    print("\nunion summary")
    summary = incremental.result().summary()
    print(report.render_table(["metric", "value"], list(summary.items())))

    if args.output:
        from repro.serve import MinedSnapshot

        snapshot = MinedSnapshot.from_result(incremental.result())
        content_hash = snapshot.save(args.output)
        print(f"\nwrote {args.output} ({snapshot.n_records} records, "
              f"hash {content_hash})")
    _emit_trace(tracer, args)
    return 0


class _FileBackedDataset:
    """Minimal dataset facade for analyze --records runs."""

    def __init__(self, records, seed):
        from repro import paper_scenario

        self.records = list(records)
        self.config = paper_scenario(seed=seed)

    @property
    def valid_records(self):
        return [r for r in self.records if r.valid]

    def summary(self):
        return {
            "collected_wpns": len(self.records),
            "desktop_wpns": sum(1 for r in self.records if r.platform == "desktop"),
            "mobile_wpns": sum(1 for r in self.records if r.platform == "mobile"),
            "valid_wpns": len(self.valid_records),
        }


def cmd_experiments(args) -> int:
    from repro.experiments import (
        run_blocklist_lag,
        run_double_permission_check,
        run_latency_pilot,
        run_quiet_ui_experiment,
        run_revisit_experiment,
    )

    tracer = _make_tracer(args)
    dataset = _crawl_dataset(args, tracer)

    pilot = run_latency_pilot(dataset.ecosystem, n_sites=500)
    print(f"pilot: {pilot.within_15min_pct}% of first WPNs within 15 min "
          f"({pilot.sites_with_notifications} sites)  [paper: 98%]")

    lag = run_blocklist_lag(dataset)
    print(f"blocklist lag: VT {lag.vt_initial_pct:.2f}% -> "
          f"{lag.vt_late_pct:.2f}%; GSB {lag.gsb_late_pct:.2f}% "
          f"[paper: <1% -> 11.31%; ~1%]")

    revisit = run_revisit_experiment(dataset, n_sites=300)
    print(f"revisit: {revisit.active_sites}/{revisit.revisited_sites} active, "
          f"{revisit.notifications} WPNs, {revisit.wpn_ads} ads, "
          f"{revisit.malicious_ads} malicious, VT flagged "
          f"{revisit.vt_flagged_urls}  [paper: 35/300, 305, 198, 48, 15]")

    double = run_double_permission_check(dataset, n_sites=200)
    print(f"double permission: {double.switched_to_double}/"
          f"{double.rechecked_sites} switched "
          f"({100 * double.switched_fraction:.0f}%)  [paper: 49/200]")

    quiet = run_quiet_ui_experiment(dataset, n_sites=300)
    print(f"quiet UI: {quiet.suppressed_now}/{quiet.visited_sites} prompts "
          f"suppressed today; {quiet.suppressed_if_trained} if fully "
          f"trained  [paper: 0/300]")
    _emit_trace(tracer, args)
    return 0


def cmd_detect(args) -> int:
    tracer = _make_tracer(args)
    dataset = _crawl_dataset(args, tracer)
    result = PushAdMiner.for_dataset(
        dataset, tracer=tracer, **_miner_overrides(args)
    ).run(dataset.valid_records)
    malicious = (
        result.labeling.confirmed_malicious_ids
        | result.suspicion.confirmed_malicious_ids
    )
    train, test = train_test_split(
        result.records, test_fraction=args.test_fraction, seed=args.seed
    )
    detector = MaliciousWpnDetector().fit(train, malicious)
    metrics = detector.evaluate(test)
    print(f"trained on {len(train)} WPNs (pipeline labels), "
          f"evaluated on {len(test)} held-out WPNs (ground truth)")
    print(f"precision {metrics.precision:.3f}  recall {metrics.recall:.3f}  "
          f"f1 {metrics.f1:.3f}  auc {metrics.auc:.3f}")
    print("\ntop features by |weight|:")
    weights = sorted(
        detector.feature_weights().items(), key=lambda kv: -abs(kv[1])
    )
    for name, weight in weights[:8]:
        print(f"  {name:28s} {weight:+.3f}")
    _emit_trace(tracer, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PushAdMiner reproduction CLI"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    crawl = commands.add_parser("crawl", help="run the full crawl")
    _add_scenario_args(crawl)
    crawl.add_argument("--output", help="write records to this JSONL file")
    crawl.set_defaults(func=cmd_crawl)

    analyze = commands.add_parser("analyze", help="run the analysis pipeline")
    _add_scenario_args(analyze)
    analyze.add_argument("--records", help="analyze a saved JSONL instead of crawling")
    analyze.add_argument("--figures", help="also write SVG figures to this directory")
    analyze.add_argument("--describe", action="store_true",
                         help="print corpus statistics and timeline")
    analyze.add_argument("--markdown",
                         help="write a Markdown summary to this file")
    analyze.set_defaults(func=cmd_analyze)

    snapshot = commands.add_parser(
        "snapshot", help="export a repro-snapshot/1 serving artifact"
    )
    _add_scenario_args(snapshot)
    snapshot.add_argument("--records",
                          help="mine a saved JSONL instead of crawling")
    snapshot.add_argument("--output", default="snapshot.json",
                          help="snapshot path (default snapshot.json)")
    snapshot.set_defaults(func=cmd_snapshot)

    incremental = commands.add_parser(
        "incremental",
        help="mine a base corpus, then absorb the tail incrementally",
    )
    _add_scenario_args(incremental)
    incremental.add_argument("--batch-fraction", type=float, default=0.05,
                             help="fraction of the valid records held out "
                                  "and absorbed incrementally (default 0.05)")
    incremental.add_argument("--batches", type=int, default=1,
                             help="number of absorb calls the held-out tail "
                                  "is split across (default 1)")
    incremental.add_argument("--compact", action="store_true",
                             help="run a full compaction (exact re-mine of "
                                  "the union) after the last batch")
    incremental.add_argument("--output",
                             help="also export the union state as a "
                                  "repro-snapshot/1 artifact")
    incremental.set_defaults(func=cmd_incremental)

    experiments = commands.add_parser("experiments", help="run side experiments")
    _add_scenario_args(experiments)
    experiments.set_defaults(func=cmd_experiments)

    detect = commands.add_parser("detect", help="train/evaluate the detector")
    _add_scenario_args(detect)
    detect.add_argument("--test-fraction", type=float, default=0.3)
    detect.set_defaults(func=cmd_detect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
